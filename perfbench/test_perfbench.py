"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Each case runs ``run.py --smoke`` with the benchmark's arguments and checks
the contract of its last output line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7"]
    argv += ["--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if m["name"].endswith("self_s") or m["name"].endswith("import_s"):
            assert got["value"] >= 0, m["name"]
    if not trace:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def copy_benchmark(tmp_path):
    """A checkout in ``tmp_path`` holding only the benchmark's own files."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_a_wrong_pin_counts_as_a_failed_op(tmp_path):
    checkout = copy_benchmark(tmp_path)
    (checkout / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = checkout / "perfbench" / "manifest.json"
    manifest = json.loads(path.read_text())
    for key, entry in manifest["cli"].items():
        if key.startswith("sturm-bound"):
            entry["stdout_sha256"] = "0" * 64
    path.write_text(json.dumps(manifest))
    result = result_of(bench("cli-warm", 0, cwd=checkout))
    assert result["correct"] is False
    assert result["failed"] >= 2  # one sturm-bound call in each of two runs


def test_refuses_to_run_without_the_program(tmp_path):
    proc = bench("build-cold", 0, cwd=copy_benchmark(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
