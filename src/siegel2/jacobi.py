"""Index-1 Jacobi forms, Cohen numbers, and the arithmetic lift to degree 2.

A holomorphic index-1 Jacobi form of even weight is determined by one
coefficient c(D) per discriminant D = 4n - r^2 >= 0 with D = 0 or 3 mod 4,
which is how ``JacobiForm1`` stores it.  The Eisenstein members are built
from Cohen's numbers H(r, N) (Eichler-Zagier, *The Theory of Jacobi
Forms*, section 2), special values of quadratic L-functions computed
exactly through generalized Bernoulli numbers.  Those come from integer
power sums of the Kronecker character, so one L-value costs r + 1
rational terms.  The character values come from a smallest-prime-factor
sieve, so ``kronecker`` is called only at primes and never factors its
argument.  ``jacobi_combine`` multiplies a form by f(tau) as one ``QSeries1``
product in q^(1/4), the one packed product of ``siegel2.series``.
``maass_lift`` is the linear Maass lift V of Eichler-Zagier, which turns an
index-1 form into a degree-2 expansion by divisor sums over gcd(m, r, n);
it lifts the Eisenstein forms to the weight-4 and weight-6 generators and
the cusp forms to the weight-10 and weight-12 ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, gcd, isqrt

from .errors import PrecisionError
from .expansion import SiegelExpansion, box_indices
from .qexp1 import QSeries1, divisor_sigma
from .rationals import (
    bernoulli,
    bernoulli_polynomial,  # noqa: F401  perfbench/tracer.py rebinds it here
    divisors,
    factorize,
    normalize,
)

__all__ = [
    "JacobiForm1",
    "cohen_h",
    "jacobi_combine",
    "jacobi_eisenstein",
    "kronecker",
    "maass_lift",
]


# (2/n) for odd n, indexed by n mod 8.
_TWO_OVER = (0, 1, 0, -1, 0, -1, 0, 1)


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D/n) of a discriminant, completely multiplicative in n.

    Binary Jacobi-symbol algorithm (H. Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 1.4.10): strip factors of 2, apply
    quadratic reciprocity and reduce, without factoring n.
    """
    if D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a discriminant (need 0 or 1 mod 4)")
    if n < 1:
        raise ValueError("kronecker needs n >= 1")
    a, b = D, n
    if a % 2 == 0 and b % 2 == 0:
        return 0
    v = (b & -b).bit_length() - 1
    b >>= v
    k = _TWO_OVER[a & 7] if v % 2 else 1
    while a:
        v = (a & -a).bit_length() - 1
        a >>= v
        if v % 2:
            k *= _TWO_OVER[b & 7]
        # Reciprocity; for a < 0 the sign rule is the same in two's complement.
        if a & b & 2:
            k = -k
        r = abs(a)
        a, b = b % r, r
    return k if b == 1 else 0


def _moebius(n: int) -> int:
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def _fundamental_split(d0: int) -> tuple[int, int]:
    """Write a discriminant d0 != 0 as D * f^2 with D fundamental."""
    sign = -1 if d0 < 0 else 1
    core = sign
    f = 1
    for q, e in factorize(abs(d0)):
        if e % 2:
            core *= q
        f *= q ** (e // 2)
    if core % 4 == 1:
        return core, f
    # core = 2 or 3 mod 4: the fundamental part is 4*core and f must be even
    return 4 * core, f // 2


def _character(D: int) -> list:
    """chi_D(a) = (D/a) for a = 1..|D|, calling ``kronecker`` only at primes.

    A sieve fills the smallest prime factor q of each a, and chi_D, being
    completely multiplicative, gives chi_D(a) = chi_D(q) chi_D(a/q).
    """
    f = abs(D)
    spf = list(range(f + 1))
    for q in range(2, isqrt(f) + 1):
        if spf[q] == q:
            for a in range(q * q, f + 1, q):
                if spf[a] == a:
                    spf[a] = q
    chi = [0, 1] + [0] * (f - 1)
    for a in range(2, f + 1):
        q = spf[a]
        chi[a] = kronecker(D, a) if q == a else chi[q] * chi[a // q]
    return chi[1:]


@cache
def _l_value(r: int, D: int):
    """L(1 - r, chi_D) for a fundamental discriminant D.

    The generalized Bernoulli number of the Kronecker character mod
    f = |D| is B_{r,chi} = sum_j C(r, j) B_j f^(j-1) S_(r-j), with integer
    power sums S_i = sum_{a <= f} chi(a) a^i (Washington, *Cyclotomic
    Fields*, Prop. 4.1); then L(1 - r, chi) = -B_{r,chi} / r.  The
    character values come from ``_character``, which calls ``kronecker``
    only at the primes up to f.
    """
    f = abs(D)
    sums = [0] * (r + 1)
    for a, chi in enumerate(_character(D), 1):
        if chi:
            power = chi
            for i in range(r + 1):
                sums[i] += power
                power *= a
    b_chi = sum(
        comb(r, j) * bernoulli(j) * Fraction(f) ** (j - 1) * sums[r - j]
        for j in range(r + 1)
        if j < 2 or j % 2 == 0
    )
    return normalize(-b_chi / r)


def cohen_h(r: int, N: int):
    """Cohen's number H(r, N), exactly.

    H(r, 0) is the zeta value at 1 - 2r.  For N > 0 with (-1)^r N a
    discriminant, split (-1)^r N = D f^2 with D fundamental; then H(r, N)
    is L(1 - r, chi_D) times the twisted divisor sum over d | f.  The
    complementary residue classes give 0.
    """
    if r < 1:
        raise ValueError("cohen_h needs r >= 1")
    if N < 0:
        raise ValueError("cohen_h needs N >= 0")
    if N == 0:
        return normalize(-Fraction(bernoulli(2 * r), 2 * r))
    d0 = N if r % 2 == 0 else -N
    if d0 % 4 in (2, 3):
        return 0
    D, f = _fundamental_split(d0)
    total = 0
    for d in divisors(f):
        mu = _moebius(d)
        if mu:
            chi = kronecker(D, d)
            if chi:
                total += mu * chi * d ** (r - 1) * divisor_sigma(f // d, 2 * r - 1)
    return normalize(_l_value(r, D) * total)


class JacobiForm1:
    """Index-1 Jacobi form stored by discriminant: D -> c(D), 0 <= D <= dmax.

    Keys satisfy D = 0 or 3 mod 4; c(D) = 0 for D < 0 (holomorphy) and on
    the complementary classes.
    """

    __slots__ = ("weight", "dmax", "c")

    def __init__(self, weight: int, dmax: int, c=None):
        if weight % 2:
            raise ValueError("only even weights are supported")
        if dmax < 0:
            raise ValueError("dmax must be >= 0")
        self.weight = weight
        self.dmax = dmax
        clean = {}
        for d, value in (c or {}).items():
            if d < 0 or d > dmax:
                raise ValueError(f"discriminant {d} outside [0..{dmax}]")
            if d % 4 not in (0, 3):
                raise ValueError(f"discriminant {d} is not 0 or 3 mod 4")
            value = normalize(value)
            if value:
                clean[d] = value
        self.c = clean

    def coeff(self, d: int):
        if d > self.dmax:
            raise PrecisionError(f"discriminant {d} beyond stored bound {self.dmax}")
        if d < 0 or d % 4 not in (0, 3):
            return 0
        return self.c.get(d, 0)

    def __eq__(self, other):
        if not isinstance(other, JacobiForm1):
            return NotImplemented
        return (
            self.weight == other.weight
            and self.dmax == other.dmax
            and self.c == other.c
        )

    def __repr__(self):
        return f"JacobiForm1(weight={self.weight}, dmax={self.dmax}, {len(self.c)} terms)"


@cache
def jacobi_eisenstein(k: int, dmax: int) -> JacobiForm1:
    """Index-1 Eisenstein Jacobi form of weight k in {4, 6}, c(0) = 1.

    c(D) = H(k-1, D) / H(k-1, 0) for D > 0; these ratios are integers.
    Results are memoised per (k, dmax) and shared between callers, which
    must not modify them.
    """
    if k not in (4, 6):
        raise ValueError(f"jacobi_eisenstein supports k in {{4, 6}}, got {k}")
    h0 = cohen_h(k - 1, 0)
    c = {0: 1}
    for d in range(3, dmax + 1):
        if d % 4 in (0, 3):
            c[d] = normalize(Fraction(cohen_h(k - 1, d)) / h0)
    return JacobiForm1(k, dmax, c)


def jacobi_combine(terms) -> JacobiForm1:
    """Exact linear combination sum coeff * (f * phi) of index-1 forms.

    Each term is (coefficient, f, phi) with f a one-variable expansion in q
    and phi an index-1 Jacobi form; multiplying by f(tau) preserves the
    index, and c(D) = sum_j f_j c(D - 4j) makes each term one ``QSeries1``
    product f(x^4) * sum_D c(D) x^D in x = q^(1/4), every phi cut to the
    smallest dmax of the terms.  All terms must produce the same weight,
    and every f must reach q-precision floor(dmax/4), the last f_j read.
    """
    if not terms:
        raise ValueError("need at least one term")
    weights = {coeff_f_phi[1].weight + coeff_f_phi[2].weight for coeff_f_phi in terms}
    if len(weights) > 1:
        raise ValueError(f"mixed result weights {sorted(weights)}")
    dmax = min(phi.dmax for _, _, phi in terms)
    need = dmax // 4
    for _, f, _ in terms:
        if f.precision < need:
            raise PrecisionError(f"series precision {f.precision} < {need} required for dmax {dmax}")
    total = QSeries1(dmax)
    for coeff, f, phi in terms:
        fx = QSeries1(dmax, {4 * j: c for j, c in f.coeffs.items() if 4 * j <= dmax})
        cut = QSeries1(dmax, {d: c for d, c in phi.c.items() if d <= dmax})
        total = total + fx * cut * coeff
    return JacobiForm1(weights.pop(), dmax, total.coeffs)


def maass_lift(phi: JacobiForm1, precision: int) -> SiegelExpansion:
    """The Maass lift V of an index-1 Jacobi form to a degree-2 expansion.

    Eichler-Zagier, *The Theory of Jacobi Forms*, section 6, Theorem 6.2:
    a(0, 0, 0) = -(B_k/2k) c(0), and every other coefficient is the divisor
    sum a(m, r, n) = sum_{d | gcd(m, r, n)} d^(k-1) c((4mn - r^2)/d^2), with
    gcd(0, 0, n) = n, so the singular rows are sigma_{k-1}(n) c(0).  Every
    coefficient is linear in the c(D), so the lift is linear in phi.
    """
    k = phi.weight
    if phi.dmax < 4 * precision * precision:
        raise PrecisionError(
            f"need discriminants up to {4 * precision * precision}, have {phi.dmax}"
        )
    coeffs = {(0, 0, 0): normalize(-Fraction(bernoulli(k), 2 * k) * phi.coeff(0))}
    for m, r, n in box_indices(precision):
        if m == 0 and n == 0:
            continue
        disc = 4 * m * n - r * r
        g = gcd(gcd(m, n), r)
        total = 0
        for d in divisors(g):
            total += d ** (k - 1) * phi.coeff(disc // (d * d))
        coeffs[(m, r, n)] = total
    return SiegelExpansion(k, precision, coeffs)
