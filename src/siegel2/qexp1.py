"""One-variable q-expansions and two-variable diagonal series.

``QSeries1`` is a truncated expansion sum_{n <= P} a(n) q^n with exact
coefficients: the home of the classical Eisenstein series e2, e4, e6 and of
the discriminant cusp form, and, in x = q^(1/4), of every index-1 Jacobi
form (``siegel2.jacobi``).  ``DiagSeries`` is a truncated two-variable
series sum a(m, n) q1^m q2^n, the codomain of the diagonal-restriction
operators acting on degree-2 expansions.  Tensor squares of one-variable
forms land there via q ⊗ 1 -> q1 and 1 ⊗ q -> q2.  A diagonal series is
weight-tagged with its parallel weight: the k of a form of weight (k, k).
Invariance (+1) or anti-invariance (-1) under swapping q1 and q2 is a
property of the coefficients, a(n, m) = ±a(m, n), not a tag.  Both take
their ring operations from ``siegel2.series``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionError
from .rationals import bernoulli, divisors, normalize
from .series import SparseSeries


def divisor_sigma(n: int, t: int = 1) -> int:
    """Sum of t-th powers of the positive divisors of n >= 1."""
    if n < 1:
        raise ValueError("divisor_sigma needs n >= 1")
    return sum(d**t for d in divisors(n))


class QSeries1(SparseSeries):
    """Truncated one-variable q-expansion with exact coefficients.

    ``coeffs`` maps n in [0..precision] to a nonzero rational; absent keys
    are zero.  ``weight`` is an informational tag (None when mixed).
    """

    __slots__ = ()

    def _kept(self, coeffs, box):
        return {n: c for n, c in coeffs.items() if 0 <= n <= box}

    def _rows(self, ints, width):
        """The whole series as one row (0, 0), slot n holding a(n)."""
        if not ints:
            return {}
        return {(0, 0): [sum(c << width * n for n, c in ints.items()), 0]}

    def _slots(self, m, n, box):
        return range(box + 1)

    def __repr__(self):
        return f"QSeries1(precision={self.precision}, weight={self.weight}, {len(self.coeffs)} terms)"


def eisenstein1(k: int, precision: int) -> QSeries1:
    """Degree-1 Eisenstein series e_k, k in {2, 4, 6}, constant term 1.

    e_k = 1 - (2k/B_k) sum_{n>=1} sigma_{k-1}(n) q^n.  The k = 2 series is
    only quasi-modular, but it is an ordinary series here.
    """
    if k not in (2, 4, 6):
        raise ValueError(f"eisenstein1 supports k in {{2, 4, 6}}, got {k}")
    factor = normalize(Fraction(-2 * k) / bernoulli(k))
    coeffs = {0: 1}
    for n in range(1, precision + 1):
        coeffs[n] = factor * divisor_sigma(n, k - 1)
    return QSeries1(precision, coeffs, weight=k)


def delta1(precision: int) -> QSeries1:
    """The weight-12 discriminant cusp form (e4^3 - e6^2)/1728, leading term q."""
    e4 = eisenstein1(4, precision)
    e6 = eisenstein1(6, precision)
    return (e4**3 - e6**2) * Fraction(1, 1728)


class DiagSeries(SparseSeries):
    """Truncated series sum a(m, n) q1^m q2^n with exact coefficients."""

    __slots__ = ()

    def _kept(self, coeffs, box):
        return {k: c for k, c in coeffs.items() if 0 <= k[0] <= box and 0 <= k[1] <= box}

    def _rows(self, ints, width):
        """Row (m, 0) per m, slot n holding a(m, n)."""
        rows = {}
        for (m, n), c in ints.items():
            row = rows.get((m, 0))
            if row is None:
                rows[m, 0] = [c << width * n, 0]
            else:
                row[0] += c << width * n
        return rows

    def _slots(self, m, n, box):
        return [(m, j) for j in range(box + 1)]

    def __repr__(self):
        return f"DiagSeries(precision={self.precision}, weight={self.weight}, {len(self.coeffs)} terms)"


def diag_tensor(f: QSeries1, g: QSeries1) -> DiagSeries:
    """Tensor product a(m, n) = f_m g_n of two equal-precision series, of
    parallel weight f.weight when f and g share it and untagged otherwise."""
    if f.precision != g.precision:
        raise PrecisionError("tensor factors must have equal precision")
    out = {}
    for m, cf in f.coeffs.items():
        for n, cg in g.coeffs.items():
            out[(m, n)] = cf * cg
    weight = f.weight if f.weight == g.weight else None
    return DiagSeries(f.precision, out, weight)


_DIAG_BUILDERS = ("x2", "x4", "x6", "x12", "y12", "alpha36")


def diag_builder(name: str, precision: int) -> DiagSeries:
    """Named tensor-square series: x2, x4, x6 (Eisenstein squares),
    x12 (discriminant square), y12, and the antisymmetric alpha36, each
    with its swap sign by construction, as the truncated box is swap-invariant."""
    if name not in _DIAG_BUILDERS:
        raise ValueError(f"unknown diagonal builder {name!r}")
    if name in ("x2", "x4", "x6"):
        e = eisenstein1(int(name[1:]), precision)
        return diag_tensor(e, e)
    delta = delta1(precision)
    if name == "x12":
        return diag_tensor(delta, delta)
    e4cube = eisenstein1(4, precision) ** 3
    if name == "y12":
        return diag_tensor(e4cube, delta) + diag_tensor(delta, e4cube)
    # alpha36 = x12^2 (delta ⊗ e4^3 - e4^3 ⊗ delta), anti-invariant under swap
    x12 = diag_tensor(delta, delta)
    return (x12 * x12) * (diag_tensor(delta, e4cube) - diag_tensor(e4cube, delta))

