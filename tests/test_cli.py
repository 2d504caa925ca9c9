import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from siegel2.cli import main
from siegel2.qformat import dump_siegel, save_atomic


@pytest.fixture()
def cache(tmp_path, registry, gens6):
    """A warm on-disk cache shared with the session registry's contents."""
    for name, exp in gens6.items():
        save_atomic(tmp_path / f"{name}.p6.qexp", dump_siegel(exp, name))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sturm_bound_command(capsys):
    code, out, _ = run(capsys, "sturm-bound", "--weight", "35")
    assert code == 0 and out.strip() == "3"
    # b_k is the bound of level 1: there is no index to scale it by.
    with pytest.raises(SystemExit) as info:
        main(["sturm-bound", "--weight", "10", "--index", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --index 2" in capsys.readouterr().err


def test_show_at(capsys, cache):
    code, out, _ = run(
        capsys, "show", "--name", "X35", "--prec", "6", "--at", "1,1,1",
        "--cache-dir", str(cache),
    )
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(
        capsys, "show", "--name", "X4", "--prec", "6", "--at", "1,0,1",
        "--cache-dir", str(cache),
    )
    assert code == 0 and out.strip() == "30240"


@pytest.mark.parametrize(
    "index, refusal",
    [
        ("0,5,0", "index (0, 5, 0) is not positive semi-definite"),
        ("1,5,1", "index (1, 5, 1) is not positive semi-definite"),
        ("6,0,0", "index (6, 0, 0) is beyond precision 5"),
        ("-1,0,0", "index (-1, 0, 0) outside box [0..5]^2"),
    ],
)
def test_show_at_refuses_an_index_outside_the_stored_set(capsys, cache, index, refusal):
    """A coefficient is read only at a semi-definite index in the box: any
    other is refused with the constructor's message, not printed as 0, and
    an index below the box is not said to lie past the precision."""
    code, out, err = run(
        capsys, "show", "--name", "X10", "--prec", "5", f"--at={index}",
        "--cache-dir", str(cache),
    )
    assert code == 2 and out == ""
    assert err == f"error: {refusal}\n"


def test_show_dump_is_byte_identical_on_warm_cache(capsys, cache):
    args = ("show", "--name", "X12", "--prec", "4", "--cache-dir", str(cache))
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("%SIEGEL2-QEXP 1\nname X12\n")


def test_show_rebuilds_a_garbage_cache_file(capsys, tmp_path, gens6):
    path = tmp_path / "X6.p4.qexp"
    path.write_text("garbage\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "show", "--name", "X6", "--prec", "4", "--cache-dir", str(tmp_path)
    )
    want = dump_siegel(gens6["X6"].truncate(4), "X6")
    assert code == 0 and out == want
    assert path.read_text(encoding="utf-8") == want


def test_build_command(capsys, tmp_path):
    code, out, _ = run(
        capsys, "build", "--name", "X4", "--prec", "2", "--cache-dir", str(tmp_path)
    )
    assert code == 0 and "X4" in out
    assert (tmp_path / "X4.p2.qexp").is_file()


def test_check_command(capsys, cache, tmp_path):
    code, out, _ = run(
        capsys, "check", "--file", str(cache / "X10.p6.qexp"), "--prime", "2",
        "--bound", "0", "--cache-dir", str(cache),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "check", "--file", str(cache / "X10.p6.qexp"), "--prime", "2",
        "--cache-dir", str(cache),
    )
    assert code == 1 and "violation" in out
    code, _, _ = run(
        capsys, "check", "--file", str(cache / "X10.p6.qexp"), "--prime", "2",
        "--bound", "9", "--cache-dir", str(cache),
    )
    assert code == 2


def test_check_refuses_a_negative_bound(capsys, cache):
    code, out, err = run(
        capsys, "check", "--file", str(cache / "X10.p6.qexp"), "--prime", "2",
        "--bound", "-1",
    )
    assert code == 2 and out == ""
    assert err == "error: bound -1 is below 0\n"


def test_congruent_command(capsys, cache):
    code, out, _ = run(
        capsys, "congruent", "--a", str(cache / "X12.p6.qexp"),
        "--b", str(cache / "X10.p6.qexp"), "--prime", "2", "--cache-dir", str(cache),
    )
    assert code == 0 and "PASS" in out
    code, out, _ = run(
        capsys, "congruent", "--a", str(cache / "X4.p6.qexp"),
        "--b", str(cache / "X6.p6.qexp"), "--prime", "5", "--cache-dir", str(cache),
    )
    assert code == 1 and "FAIL" in out


def test_congruent_below_b_k_exits_2_as_check_does(capsys, tmp_path, gens6):
    """X10 against X12, both cut to precision 0 below b_12 = 1: the PASS
    covers only the computed box, so ``congruent`` exits 2, as ``check``
    does on a bound past the precision; stdout is the report as before."""
    files = []
    for name in ("X10", "X12"):
        files.append(tmp_path / f"{name}.p0.qexp")
        save_atomic(files[-1], dump_siegel(gens6[name].truncate(0), name))
    code, out, _ = run(
        capsys, "congruent", "--a", str(files[0]), "--b", str(files[1]), "--prime", "2",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2
    assert out == (
        "X10 vs X12: PASS box<=0 mod 2\n"
        "  note: truncation bound for weight 12 is 1; precision 0 does NOT cover it\n"
    )
    code, out, _ = run(
        capsys, "check", "--file", str(files[0]), "--prime", "2", "--cache-dir", str(tmp_path)
    )
    assert code == 2 and "exceeds precision 0" in out


def test_witness_command(capsys, cache):
    code, out, _ = run(
        capsys, "witness", "--weight", "22", "--prime", "3", "--cache-dir", str(cache)
    )
    assert code == 0
    assert "X10*X12" in out


def test_verify_command_summary(capsys, cache):
    code, out, _ = run(
        capsys, "verify", "--suite", "x12-identity", "--output", "summary",
        "--cache-dir", str(cache),
    )
    assert code == 0
    assert out.strip() == "RESULT x12-identity 1/1"


def test_verify_prec_zero_is_taken_as_given(capsys, tmp_path):
    """An explicit --prec 0 is a precision, not a missing option."""
    code, out, _ = run(
        capsys, "verify", "--suite", "x12-identity", "--prec", "0",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0 and "at P=0" in out


def test_prop1_w12_skips_a_box_that_does_not_separate_weight_12(capsys, cache):
    """On the box B = 0 the four weight-12 monomials have F_p rank 1 <
    dim M_12 = 3, so the kernel there is not the relation space: both
    sub-checks of each prime are skipped, naming the rank.  From B = 1 on
    the rank is 3 and every check runs."""
    argv = ("verify", "--suite", "prop1-w12", "--cache-dir", str(cache), "--prec")
    code, out, _ = run(capsys, *argv, "0")
    assert code == 0 and out.endswith("RESULT prop1-w12 1/1\n")
    for p in (2, 3):
        for check in ("kernel", "truncated-kernel"):
            assert f"SKIP prop1-w12.p{p}.{check} F_{p} rank 1 < dim M_12 = 3" in out
    code, out, _ = run(capsys, *argv, "1")
    assert code == 0 and "SKIP" not in out and out.endswith("RESULT prop1-w12 5/5\n")


# sha256 of ``show --name X35 --prec 1`` stdout, as perfbench/manifest.json
# pins it against a warm cache at precision 8.
X35_AT_1_SHA256 = "1d69c7fb91357d973ee49e0d3a747302ffb7faaf3c02dce94ef0873a935c4f48"


def test_requests_below_the_leading_index_do_not_depend_on_the_cache(
    capsys, tmp_path, cache
):
    """Below a generator's leading index the registry serves the truncation
    of a pinned expansion, whether the cache is empty or warm."""
    empty = tmp_path / "empty"
    witt = ("verify", "--suite", "witt-images", "--prec", "0")
    show = ("show", "--name", "X35", "--prec", "1")
    got = {}
    for argv in (witt, show):
        got[argv] = code, out, _ = run(capsys, *argv, "--cache-dir", str(empty))
        assert code == 0
        assert run(capsys, *argv, "--cache-dir", str(cache))[:2] == (code, out)
    assert got[witt][1].endswith("RESULT witt-images 9/9\n")
    out = got[show][1]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == X35_AT_1_SHA256


def test_verify_suite_with_prime(capsys, cache):
    code, out, _ = run(
        capsys, "verify", "--suite", "borcherds-structure", "--prime", "5",
        "--prec", "4", "--cache-dir", str(cache),
    )
    assert code == 0
    assert "p5" in out and "p2" not in out


@pytest.mark.parametrize("suite, checks", [("lemma10", 4), ("prop1-w12", 3)])
def test_a_suite_stated_for_2_and_3_skips_every_other_prime(capsys, cache, suite, checks):
    """Lemma 10 and proposition 1 are stated for p in {2, 3}: at p = 5 no
    check runs, and the one SKIP names that scope."""
    argv = ("verify", "--suite", suite, "--cache-dir", str(cache), "--prime")
    code, out, _ = run(capsys, *argv, "5")
    assert code == 0
    assert out == f"SKIP {suite}.p5 stated for p in {{2, 3}}\nRESULT {suite} 0/0\n"
    code, out, _ = run(capsys, *argv, "3")
    assert code == 0 and "SKIP" not in out and out.endswith(f"RESULT {suite} {checks}/{checks}\n")


@pytest.mark.parametrize("suite", ["witt-images", "x12-identity", "all"])
def test_verify_refuses_a_composite_prime_before_any_suite_runs(capsys, cache, suite):
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--prime", "4", "--cache-dir", str(cache),
    )
    assert code == 2 and out == ""
    assert err == "error: 4 is not prime\n"


@pytest.mark.parametrize(
    "suite, precision", [("lemma12", "-3"), ("all", "-1")], ids=["lemma12", "all"]
)
def test_verify_refuses_a_negative_precision_before_any_suite_runs(capsys, cache, suite, precision):
    """lemma12 reads no precision, yet a negative one is refused like every other suite's."""
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--prec", precision, "--cache-dir", str(cache),
    )
    assert code == 2 and out == ""
    assert err == "error: precision must be >= 0\n"


def test_verify_all_aggregates(capsys, cache):
    code, out, _ = run(
        capsys, "verify", "--suite", "all", "--output", "summary",
        "--cache-dir", str(cache),
    )
    assert code == 0
    results = [line.split()[1] for line in out.strip().split("\n")]
    assert results == [
        "witt-images", "lemma10", "prop1-w12", "lemma12",
        "x12-identity", "borcherds-structure",
    ]


def test_check_refuses_a_fractional_bound(capsys, cache):
    with pytest.raises(SystemExit) as info:
        main(["check", "--file", str(cache / "X10.p6.qexp"), "--prime", "2",
              "--bound", "1/2", "--cache-dir", str(cache)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --bound: invalid int value: '1/2'\n")


def test_check_refuses_a_file_of_scale_two(capsys, tmp_path, cache):
    """Theorem 1 bounds level-1 forms, so a file whose header says its
    indices lie in (1/2)Z is refused before any verdict."""
    lines = (cache / "X4.p6.qexp").read_text(encoding="utf-8").split("\n")
    lines[3] = "scale 2"
    path = tmp_path / "level2.qexp"
    path.write_text("\n".join(lines), encoding="utf-8")
    code, out, err = run(capsys, "check", "--file", str(path), "--prime", "3",
                         "--cache-dir", str(cache))
    assert code == 2 and out == ""
    assert err == f"error: malformed file: {path}: line 4: scale must be 1: every expansion is of level 1\n"


@pytest.mark.parametrize(
    "argv, buffered",
    [
        pytest.param(["sturm-bound", "--weight", "12"], True, id="sturm-bound"),
        pytest.param(["sturm-bound", "--weight", "12"], False, id="sturm-bound-unbuffered"),
        pytest.param(["verify", "--suite", "witt-images"], True, id="witt-images"),
        pytest.param(["--help"], True, id="help"),
        pytest.param(["--help"], False, id="help-unbuffered"),
        pytest.param(["build", "--help"], True, id="build-help"),
    ],
)
def test_a_closed_stdout_exits_141_and_prints_nothing(cache, argv, buffered):
    """The read end of the pipe is closed before the process starts, so
    every write to stdout fails with EPIPE.  sturm-bound's one line fits the
    buffer, so buffered it fails only at the flush that ``main`` makes; so
    does argparse's help text, which ``main`` flushes before the exit that
    follows it, and whose failed write unbuffered ``main`` sees too."""
    proc = _on_a_closed_stdout(cache, argv, buffered)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_a_usage_error_on_a_closed_stdout_still_exits_2(cache):
    """argparse writes a usage error to stderr, so a closed stdout leaves
    its exit code 2 and its message as they are."""
    proc = _on_a_closed_stdout(cache, ["sturm-bound", "--weight", "ten"], True)
    assert proc.returncode == 2
    assert proc.stderr.decode().endswith(
        "siegel2 sturm-bound: error: argument --weight: invalid int value: 'ten'\n"
    )


def _on_a_closed_stdout(cache, argv, buffered):
    """``python -m siegel2 ARGV`` with stdout a pipe whose read end is closed."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "siegel2", *argv, "--cache-dir", str(cache)],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write)
    return proc


def test_a_negative_weight_header_is_refused_at_line_3(capsys, tmp_path, cache):
    """check and congruent refuse a file whose weight header is below 0 at
    its line, naming the file, before any verdict."""
    lines = (cache / "X4.p6.qexp").read_text(encoding="utf-8").split("\n")
    lines[2] = "weight -4"
    path = tmp_path / "negative.qexp"
    path.write_text("\n".join(lines), encoding="utf-8")
    for argv in (
        ["check", "--file", str(path), "--prime", "2"],
        ["congruent", "--a", str(cache / "X4.p6.qexp"), "--b", str(path), "--prime", "2"],
    ):
        code, out, err = run(capsys, *argv, "--cache-dir", str(cache))
        assert code == 2 and out == ""
        assert err == f"error: malformed file: {path}: line 3: weight must be >= 0\n"


def test_malformed_file_reports_line(capsys, tmp_path, cache):
    bad = tmp_path / "bad.qexp"
    text = (cache / "X4.p6.qexp").read_text(encoding="utf-8")
    lines = text.split("\n")
    lines[7] = "1 1 1 4 2"
    bad.write_text("\n".join(lines), encoding="utf-8")
    code, _, err = run(capsys, "check", "--file", str(bad), "--prime", "2",
                       "--cache-dir", str(cache))
    assert code == 2
    assert "line 8" in err


def test_malformed_file_is_named(capsys, tmp_path, cache):
    bad = tmp_path / "second.qexp"
    lines = (cache / "X4.p6.qexp").read_text(encoding="utf-8").split("\n")
    lines[7] = "1 1 1 4 2"
    bad.write_text("\n".join(lines), encoding="utf-8")
    code, _, err = run(capsys, "congruent", "--a", str(cache / "X4.p6.qexp"),
                       "--b", str(bad), "--prime", "2", "--cache-dir", str(cache))
    assert code == 2
    assert f"{bad}: line 8" in err
    assert "X4.p6.qexp" not in err


def test_file_with_bad_bytes_reports_line(capsys, tmp_path, cache):
    bad = tmp_path / "bad.qexp"
    data = (cache / "X4.p6.qexp").read_bytes().split(b"\n")
    data[8] += b"\xff"
    bad.write_bytes(b"\n".join(data))
    code, _, err = run(capsys, "check", "--file", str(bad), "--prime", "2",
                       "--cache-dir", str(cache))
    assert code == 2
    assert "line 9" in err


def test_missing_file_is_a_usage_error(capsys, cache):
    code, _, err = run(capsys, "check", "--file", "nope.qexp", "--prime", "2",
                       "--cache-dir", str(cache))
    assert code == 2 and "error" in err


def test_bad_index_format(capsys, cache):
    code, _, err = run(
        capsys, "show", "--name", "X4", "--prec", "2", "--at", "1;0;1",
        "--cache-dir", str(cache),
    )
    assert code == 2


def test_unknown_generator_rejected_by_argparse(capsys, cache):
    with pytest.raises(SystemExit) as info:
        main(["build", "--name", "X99", "--cache-dir", str(cache)])
    assert info.value.code == 2


def test_output_is_an_option_of_verify_only(capsys, cache):
    with pytest.raises(SystemExit) as info:
        main(["show", "--name", "X4", "--output", "summary", "--cache-dir", str(cache)])
    assert info.value.code == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "siegel2", "sturm-bound", "--weight", "83"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"


def test_cli_import_leaves_out_costly_modules():
    # Every CLI call pays for its imports; -S keeps site hooks out of the count.
    # numpy would cost about 150 ms and 14 MB a call; qformat.save_atomic
    # imports tempfile only when it writes.
    src = Path(__file__).resolve().parent.parent / "src"
    costly = ("dataclasses", "inspect", "numpy", "tempfile")
    code = (
        "import siegel2.cli, sys; "
        f"print(' '.join(m for m in {costly!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
