"""Bit-exact text format for degree-2 expansions.

An expansion file (magic ``%SIEGEL2-QEXP 1``) reads::

    %SIEGEL2-QEXP 1
    name X12
    weight 12
    scale 1
    precision 8
    entries 123
    m r n numerator denominator
    ...

Every expansion is of level 1, so its indices are integers and the
header line ``scale 1`` is fixed: a file with another scale is refused.
Entry lines are sorted strictly ascending by (m, n, r), fractions are in
lowest terms with denominator >= 1, zero entries are omitted.  Files are
UTF-8 with LF line endings; identical data serialises to identical bytes.
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

from .errors import FormatError
from .expansion import SiegelExpansion

_MAGIC = "%SIEGEL2-QEXP 1"
_MINIMUM = {"weight": 0, "precision": 0, "entries": 0}


def decode(data: bytes) -> str:
    """File bytes as text with LF line ends; FormatError names the line of
    the first byte that is not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(lineno, f"byte {data[exc.start]:#04x} is not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def dump_siegel(exp: SiegelExpansion, name: str) -> str:
    """Serialise an exact expansion to the canonical text form."""
    if exp.weight is None:
        raise ValueError("cannot serialise a series without a weight tag")
    keys = exp.support()
    lines = [
        _MAGIC,
        f"name {name}",
        f"weight {exp.weight}",
        "scale 1",
        f"precision {exp.precision}",
        f"entries {len(keys)}",
    ]
    for key in keys:
        c = exp.coeffs[key]
        if type(c) is int:
            lines.append("%d %d %d %d %d" % (*key, c, 1))
        else:
            lines.append("%d %d %d %d %d" % (*key, c.numerator, c.denominator))
    return "\n".join(lines) + "\n"


def parse_siegel(text: str) -> tuple[str, SiegelExpansion]:
    """Parse the degree-2 text format.

    Every header and entry line is checked as it is read; FormatError
    carries the number of the first bad line.
    """
    lines = text.split("\n")
    if lines[0] != _MAGIC:
        raise FormatError(1, f"bad magic, expected {_MAGIC!r}")
    head = {}
    for lineno, field in enumerate(("name", "weight", "scale", "precision", "entries"), 2):
        if lineno > len(lines):
            raise FormatError(lineno, "unexpected end of file")
        line = lines[lineno - 1]
        label, sep, value = line.partition(" ")
        if not sep or label != field:
            raise FormatError(lineno, f"expected header '{field} ...', got {line!r}")
        if field != "name":
            try:
                value = int(value)
            except ValueError:
                raise FormatError(lineno, f"{field} must be an integer") from None
            if field == "scale" and value != 1:
                raise FormatError(lineno, "scale must be 1: every expansion is of level 1")
            low = _MINIMUM.get(field)
            if low is not None and value < low:
                raise FormatError(lineno, f"{field} must be >= {low}")
        head[field] = value
    box = head["precision"]
    entries = head["entries"]
    body = lines[6 : 6 + entries]
    coeffs = {}
    last = (-1,)
    for lineno, line in enumerate(body, 7):
        parts = line.split()
        if len(parts) != 5:
            raise FormatError(lineno, f"expected 5 fields, got {line!r}")
        try:
            m, r, n, num, den = map(int, parts)
        except ValueError:
            raise FormatError(lineno, f"malformed integer in {line!r}") from None
        key = (m, r, n)
        if not (0 <= m <= box and 0 <= n <= box):
            raise FormatError(lineno, f"index {key} outside the box")
        if 4 * m * n < r * r:
            raise FormatError(lineno, f"index {key} not semi-definite")
        order = (m, n, r)
        if order <= last:
            raise FormatError(lineno, "entries not in strictly ascending (m, n, r) order")
        last = order
        if den < 1:
            raise FormatError(lineno, f"denominator {den} must be >= 1")
        if num == 0:
            raise FormatError(lineno, "zero entries must be omitted")
        if den == 1:
            coeffs[key] = num
        else:
            c = coeffs[key] = Fraction(num, den)
            if c.denominator != den:
                raise FormatError(lineno, f"{num}/{den} is not in lowest terms")
    if len(body) < entries:
        raise FormatError(len(lines) + 1, "unexpected end of file")
    for lineno, line in enumerate(lines[6 + entries :], 7 + entries):
        if line.strip():
            raise FormatError(lineno, "trailing data after the declared entries")
    exp = SiegelExpansion._unchecked(head["precision"], coeffs, head["weight"])
    return head["name"], exp


def save_atomic(path: Path, text: str) -> None:
    """Write text to path via a same-directory temp file and atomic rename."""
    # Imported here so that read-side CLI calls, which never write, do not
    # pay for importing tempfile (with shutil and random).
    import tempfile

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
