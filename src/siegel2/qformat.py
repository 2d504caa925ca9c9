"""Bit-exact text formats for expansions and diagonal series.

Degree-2 expansions (magic ``%SIEGEL2-QEXP 1``)::

    %SIEGEL2-QEXP 1
    name X12
    weight 12
    scale 1
    precision 8
    entries 123
    m r n numerator denominator
    ...

Entry lines are sorted strictly ascending by (m, n, r), fractions are in
lowest terms with denominator >= 1, zero entries are omitted.  Diagonal
series use magic ``%DIAG-QEXP 1``, a ``symmetry`` header (+1, -1 or none)
in place of ``scale``, and entry lines ``m n numerator denominator``.
Files are UTF-8 with LF line endings; identical data serialises to
identical bytes.
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

from .errors import FormatError
from .expansion import SiegelExpansion
from .qexp1 import DiagSeries

# Each format as data: its magic line, its tag header and the number of
# index integers on an entry line.
_SIEGEL = ("%SIEGEL2-QEXP 1", "scale", 3)
_DIAG = ("%DIAG-QEXP 1", "symmetry", 2)

_SYMMETRY = {"+1": 1, "-1": -1, "none": None}
_MINIMUM = {"scale": 1, "precision": 0, "entries": 0}


def decode(data: bytes) -> str:
    """File bytes as text with LF line ends; FormatError names the line of
    the first byte that is not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(lineno, f"byte {data[exc.start]:#04x} is not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _dump(fmt, name: str, series, tag, keys) -> str:
    """The canonical text of a series in one format, entries in the order of keys."""
    magic, tag_field, arity = fmt
    if series.weight is None:
        raise ValueError("cannot serialise a series without a weight tag")
    lines = [
        magic,
        f"name {name}",
        f"weight {series.weight}",
        f"{tag_field} {tag}",
        f"precision {series.precision}",
        f"entries {len(keys)}",
    ]
    row = " ".join(["%d"] * (arity + 2))
    for key in keys:
        c = series.coeffs[key]
        if type(c) is int:
            lines.append(row % (*key, c, 1))
        else:
            lines.append(row % (*key, c.numerator, c.denominator))
    return "\n".join(lines) + "\n"


def dump_siegel(exp: SiegelExpansion, name: str) -> str:
    """Serialise an exact expansion to the canonical text form."""
    if exp.modulus is not None:
        raise ValueError("mod-p expansions are not serialised")
    return _dump(_SIEGEL, name, exp, exp.scale, exp.support())


def dump_diag(series: DiagSeries, name: str) -> str:
    """Serialise a diagonal series to the canonical text form."""
    sign = {1: "+1", -1: "-1", None: "none"}[series.symmetry_sign]
    return _dump(_DIAG, name, series, sign, sorted(series.coeffs))


def _read(text: str, fmt):
    """Name, weight, tag, precision and coefficients of a file in one format.

    Every header and entry line is checked as it is read; FormatError
    carries the number of the first bad line.
    """
    magic, tag, arity = fmt
    lines = text.split("\n")
    if lines[0] != magic:
        raise FormatError(1, f"bad magic, expected {magic!r}")
    head = {}
    for lineno, field in enumerate(("name", "weight", tag, "precision", "entries"), 2):
        if lineno > len(lines):
            raise FormatError(lineno, "unexpected end of file")
        line = lines[lineno - 1]
        label, sep, value = line.partition(" ")
        if not sep or label != field:
            raise FormatError(lineno, f"expected header '{field} ...', got {line!r}")
        if field == "symmetry":
            if value not in _SYMMETRY:
                raise FormatError(lineno, f"bad symmetry {value!r}")
            value = _SYMMETRY[value]
        elif field != "name":
            try:
                value = int(value)
            except ValueError:
                raise FormatError(lineno, f"{field} must be an integer") from None
            low = _MINIMUM.get(field)
            if low is not None and value < low:
                raise FormatError(lineno, f"{field} must be >= {low}")
        head[field] = value
    box = head.get("scale", 1) * head["precision"]
    entries = head["entries"]
    body = lines[6 : 6 + entries]
    coeffs = {}
    last = (-1,)
    for lineno, line in enumerate(body, 7):
        parts = line.split()
        if len(parts) != arity + 2:
            raise FormatError(lineno, f"expected {arity + 2} fields, got {line!r}")
        try:
            if arity == 3:
                m, r, n, num, den = map(int, parts)
                key = (m, r, n)
            else:
                m, n, num, den = map(int, parts)
                r = 0
                key = (m, n)
        except ValueError:
            raise FormatError(lineno, f"malformed integer in {line!r}") from None
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
    return head["name"], head["weight"], head[tag], head["precision"], coeffs


def parse_siegel(text: str) -> tuple[str, SiegelExpansion]:
    """Parse the degree-2 text format; FormatError carries the bad line."""
    name, weight, scale, precision, coeffs = _read(text, _SIEGEL)
    return name, SiegelExpansion._unchecked(precision, coeffs, weight, scale=scale, modulus=None)


def parse_diag(text: str) -> tuple[str, DiagSeries]:
    """Parse the diagonal-series text format; FormatError carries the bad line."""
    name, weight, sign, precision, coeffs = _read(text, _DIAG)
    return name, DiagSeries._unchecked(precision, coeffs, weight, symmetry_sign=sign)


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
