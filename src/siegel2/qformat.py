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

MAGIC_SIEGEL = "%SIEGEL2-QEXP 1"
MAGIC_DIAG = "%DIAG-QEXP 1"


def _num_den(c) -> tuple[int, int]:
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    return c, 1


def dump_siegel(exp: SiegelExpansion, name: str) -> str:
    """Serialise an exact expansion to the canonical text form."""
    if exp.modulus is not None:
        raise ValueError("mod-p expansions are not serialised")
    if exp.weight is None:
        raise ValueError("cannot serialise an expansion without a weight tag")
    keys = sorted(exp.coeffs, key=lambda k: (k[0], k[2], k[1]))
    lines = [
        MAGIC_SIEGEL,
        f"name {name}",
        f"weight {exp.weight}",
        f"scale {exp.scale}",
        f"precision {exp.precision}",
        f"entries {len(keys)}",
    ]
    for m, r, n in keys:
        num, den = _num_den(exp.coeffs[(m, r, n)])
        lines.append(f"{m} {r} {n} {num} {den}")
    return "\n".join(lines) + "\n"


def dump_diag(series: DiagSeries, name: str) -> str:
    """Serialise a diagonal series to the canonical text form."""
    if series.weight is None:
        raise ValueError("cannot serialise a series without a weight tag")
    sym = {1: "+1", -1: "-1", None: "none"}[series.symmetry_sign]
    keys = sorted(series.coeffs)
    lines = [
        MAGIC_DIAG,
        f"name {name}",
        f"weight {series.weight}",
        f"symmetry {sym}",
        f"precision {series.precision}",
        f"entries {len(keys)}",
    ]
    for m, n in keys:
        num, den = _num_den(series.coeffs[(m, n)])
        lines.append(f"{m} {n} {num} {den}")
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.pos = 0

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise FormatError(self.pos + 1, "unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    @property
    def lineno(self) -> int:
        return self.pos


def _read_header(reader: _Reader, field: str) -> str:
    line = reader.next_line()
    parts = line.split(" ", 1)
    if len(parts) != 2 or parts[0] != field:
        raise FormatError(reader.lineno, f"expected header '{field} ...', got {line!r}")
    return parts[1]


def _read_int_header(reader: _Reader, field: str) -> int:
    value = _read_header(reader, field)
    try:
        return int(value)
    except ValueError:
        raise FormatError(reader.lineno, f"{field} must be an integer") from None


def _parse_entry_tail(reader: _Reader, parts: list[str]):
    try:
        num = int(parts[-2])
        den = int(parts[-1])
    except ValueError:
        raise FormatError(reader.lineno, "malformed numerator/denominator") from None
    if den < 1:
        raise FormatError(reader.lineno, f"denominator {den} must be >= 1")
    if num == 0:
        raise FormatError(reader.lineno, "zero entries must be omitted")
    if den == 1:
        return num
    frac = Fraction(num, den)
    if frac.numerator != num or frac.denominator != den:
        raise FormatError(reader.lineno, f"{num}/{den} is not in lowest terms")
    return frac


def parse_siegel(text: str) -> tuple[str, SiegelExpansion]:
    """Parse the degree-2 text format; FormatError carries the bad line."""
    reader = _Reader(text)
    if reader.next_line() != MAGIC_SIEGEL:
        raise FormatError(1, f"bad magic, expected {MAGIC_SIEGEL!r}")
    name = _read_header(reader, "name")
    weight = _read_int_header(reader, "weight")
    scale = _read_int_header(reader, "scale")
    precision = _read_int_header(reader, "precision")
    entries = _read_int_header(reader, "entries")
    if scale < 1:
        raise FormatError(reader.lineno, "scale must be >= 1")
    if precision < 0:
        raise FormatError(reader.lineno, "precision must be >= 0")
    box = scale * precision
    coeffs = {}
    last_key = None
    for _ in range(entries):
        line = reader.next_line()
        parts = line.split()
        if len(parts) != 5:
            raise FormatError(reader.lineno, f"expected 'm r n num den', got {line!r}")
        try:
            m, r, n = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(reader.lineno, "malformed index") from None
        if not (0 <= m <= box and 0 <= n <= box):
            raise FormatError(reader.lineno, f"index {(m, r, n)} outside the box")
        if 4 * m * n - r * r < 0:
            raise FormatError(reader.lineno, f"index {(m, r, n)} not semi-definite")
        key = (m, n, r)
        if last_key is not None and key <= last_key:
            raise FormatError(reader.lineno, "entries not sorted ascending by (m, n, r)")
        last_key = key
        coeffs[(m, r, n)] = _parse_entry_tail(reader, parts)
    _expect_end(reader)
    # Every key and coefficient was checked above, line by line.
    return name, SiegelExpansion._unchecked(precision, coeffs, weight, scale=scale, modulus=None)


def parse_diag(text: str) -> tuple[str, DiagSeries]:
    """Parse the diagonal-series text format."""
    reader = _Reader(text)
    if reader.next_line() != MAGIC_DIAG:
        raise FormatError(1, f"bad magic, expected {MAGIC_DIAG!r}")
    name = _read_header(reader, "name")
    weight = _read_int_header(reader, "weight")
    sym_text = _read_header(reader, "symmetry")
    if sym_text not in ("+1", "-1", "none"):
        raise FormatError(reader.lineno, f"bad symmetry {sym_text!r}")
    sym = {"+1": 1, "-1": -1, "none": None}[sym_text]
    precision = _read_int_header(reader, "precision")
    entries = _read_int_header(reader, "entries")
    coeffs = {}
    last_key = None
    for _ in range(entries):
        line = reader.next_line()
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(reader.lineno, f"expected 'm n num den', got {line!r}")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(reader.lineno, "malformed index") from None
        if not (0 <= m <= precision and 0 <= n <= precision):
            raise FormatError(reader.lineno, f"index {(m, n)} outside the box")
        key = (m, n)
        if last_key is not None and key <= last_key:
            raise FormatError(reader.lineno, "entries not sorted ascending by (m, n)")
        last_key = key
        coeffs[key] = _parse_entry_tail(reader, parts)
    _expect_end(reader)
    return name, DiagSeries(precision, coeffs, weight, sym)


def _expect_end(reader: _Reader) -> None:
    while reader.pos < len(reader.lines):
        if reader.next_line().strip():
            raise FormatError(reader.lineno, "trailing data after the declared entries")


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
