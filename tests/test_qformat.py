from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel2.errors import FormatError
from siegel2.expansion import SiegelExpansion
from siegel2.qformat import dump_siegel, parse_siegel, save_atomic


def sample_expansion():
    return SiegelExpansion(
        10,
        2,
        {(1, -1, 1): 1, (1, 1, 1): 1, (1, 0, 2): Fraction(3, 7), (2, 0, 1): Fraction(3, 7)},
    )


def test_siegel_round_trip():
    exp = sample_expansion()
    text = dump_siegel(exp, "sample")
    name, back = parse_siegel(text)
    assert name == "sample" and back == exp
    assert dump_siegel(back, "sample") == text
    assert text.endswith("\n") and "\r" not in text


def test_entries_are_sorted_canonically():
    text = dump_siegel(sample_expansion(), "s")
    rows = [line for line in text.strip().split("\n")[6:]]
    keys = [tuple(int(x) for x in line.split()[:3]) for line in rows]
    assert keys == sorted(keys, key=lambda k: (k[0], k[2], k[1]))


@pytest.mark.parametrize(
    "mutate, lineno",
    [
        (lambda lines: lines.__setitem__(0, "%SIEGEL-QEXP 9"), 1),
        (lambda lines: lines.__setitem__(1, "label sample"), 2),
        (lambda lines: lines.__setitem__(3, "scale zero"), 4),
        (lambda lines: lines.__setitem__(6, "1 1 1 1 1"), 8),
        (lambda lines: lines.__setitem__(7, "1 1 1 2 4"), 8),
        (lambda lines: lines.__setitem__(7, "1 1 1 0 1"), 8),
        (lambda lines: lines.__setitem__(7, "1 1 1 5 -1"), 8),
        (lambda lines: lines.__setitem__(7, "9 0 9 1 1"), 8),
        (lambda lines: lines.__setitem__(7, "2 9 2 1 1"), 8),
        (lambda lines: lines.append("1 0 1 3 1"), 11),
        pytest.param(lambda lines: lines.__setitem__(3, "scale 0"), 4, id="tag-zero"),
        pytest.param(lambda lines: lines.__setitem__(3, "scale 2"), 4, id="scale-two"),
        pytest.param(
            lambda lines: lines.__setitem__(4, "precision -1"), 5, id="negative-precision"
        ),
        pytest.param(lambda lines: lines.__setitem__(5, "entries -1"), 6, id="negative-entries"),
        pytest.param(lambda lines: lines.__setitem__(2, "weight -4"), 3, id="negative-weight"),
    ],
)
def test_malformed_files_carry_line_numbers(mutate, lineno):
    lines = dump_siegel(sample_expansion(), "sample").strip().split("\n")
    mutate(lines)
    with pytest.raises(FormatError) as info:
        parse_siegel("\n".join(lines) + "\n")
    assert info.value.lineno == lineno


_tokens = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.text(alphabet="0123456789 -+_/.xe\t\r\u00e9", max_size=8),
    st.sampled_from(
        ["", "name", "weight", "scale", "precision", "entries", "9" * 5000]
    ),
)


@st.composite
def mutated_lines(draw, text):
    """The lines of a sample file after one to three line or token mutations."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("token", "replace", "insert", "delete", "duplicate", "swap")))
        if kind == "token":
            parts = lines[at].split(" ")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(_tokens)
            lines[at] = " ".join(parts)
        elif kind == "replace":
            lines[at] = " ".join(draw(st.lists(_tokens, max_size=6)))
        elif kind == "insert":
            lines.insert(at, " ".join(draw(st.lists(_tokens, max_size=6))))
        elif kind == "delete" and len(lines) > 1:
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
    return lines


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_mutated_files_parse_or_name_their_line(data):
    lines = data.draw(mutated_lines(dump_siegel(sample_expansion(), "sample")))
    text = "\n".join(lines)
    try:
        name, series = parse_siegel(text)
    except FormatError as err:
        assert 1 <= err.lineno <= len(lines) + 1
        assert str(err).startswith(f"line {err.lineno}: ")
    else:
        assert parse_siegel(dump_siegel(series, name)) == (name, series)


def test_truncated_file_rejected():
    lines = dump_siegel(sample_expansion(), "sample").strip().split("\n")
    with pytest.raises(FormatError):
        parse_siegel("\n".join(lines[:-1]) + "\n")


def test_save_atomic(tmp_path):
    target = tmp_path / "deep" / "file.qexp"
    save_atomic(target, "hello\n")
    assert target.read_text(encoding="utf-8") == "hello\n"
    save_atomic(target, "replaced\n")
    assert target.read_text(encoding="utf-8") == "replaced\n"
    assert list(tmp_path.glob("deep/*.tmp")) == []
