"""Index-1 Jacobi forms, Cohen numbers, and the arithmetic lift to degree 2.

A holomorphic index-1 Jacobi form of even weight is determined by one
coefficient c(D) per discriminant D = 4n - r^2 >= 0 with D = 0 or 3 mod 4,
so it is held as the ``QSeries1`` sum_D c(D) x^D in x = q^(1/4): its keys
are the D, its precision is dmax and its weight tag is k, and every form
built here has keys D = 0 or 3 mod 4 only.  The Eisenstein members come
from short integer q-series products: E_{4,1} is the theta series of E8
along a root, and the heat operator takes it to E_{6,1}
(``jacobi_eisenstein``).  ``jacobi_combine`` multiplies a form by f(tau)
as one ``QSeries1`` product per term, the one packed product of
``siegel2.series``.  ``maass_lift`` is the linear Maass lift V of
Eichler-Zagier, which turns an index-1 form into a degree-2 expansion by
divisor sums over gcd(m, r, n); it lifts the Eisenstein forms to the
weight-4 and weight-6 generators, the cusp forms to the weight-10 and
weight-12 ones, Delta E_{4,1} to X16, and one more weight-12 form to
762048 Y12 + 691 X6^2.

Cohen's numbers H(r, N) (Eichler-Zagier, *The Theory of Jacobi Forms*,
section 2) give the same Eisenstein coefficients as H(k-1, D) / H(k-1, 0),
and ``cohen_h`` computes them exactly as an independent oracle; no build
reads them.  They are special values of quadratic L-functions, computed
through generalized Bernoulli numbers from integer power sums of the
Kronecker character, so one L-value costs r + 1 rational terms.  The
character values come from a smallest-prime-factor sieve, so
``kronecker`` is called only at primes and never factors its argument.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, gcd, isqrt

from .errors import PrecisionError
from .expansion import SiegelExpansion
from .qexp1 import QSeries1, divisor_sigma, eisenstein1
from .rationals import (
    bernoulli,
    bernoulli_polynomial,  # noqa: F401  perfbench/tracer.py rebinds it here
    divisors,
    factorize,
    normalize,
)

__all__ = [
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


@cache
def jacobi_eisenstein(k: int, dmax: int) -> QSeries1:
    """Index-1 Eisenstein Jacobi form E_{k,1} of weight k in {4, 6}, c(0) = 1.

    E_{4,1} is the theta series of E8 along a root (``_e8_theta``): it is a
    Jacobi form of weight 4 and index 1 with c(0) = 1, and J_{4,1} is
    one-dimensional.  E_{6,1} comes from it by the heat operator: the
    Serre-type derivative L - ((2k - 1)/6) e2, L acting on q^n zeta^r as
    D = 4n - r^2, maps J_{k,1} to J_{k+2,1} (Eichler-Zagier, *The Theory of
    Jacobi Forms*, section 3), J_{6,1} is one-dimensional, and the image of
    E_{4,1} has constant term -7/6, so

        c6(D) = sum_j e2_j c4(D - 4j) - (6/7) D c4(D),

    the sum being one ``jacobi_combine``.  Both agree with the Cohen-number
    ratios H(k-1, D) / H(k-1, 0) (``cohen_h``), which no build reads.
    Results are memoised per (k, dmax) and shared between callers, which
    must not modify them.
    """
    if k not in (4, 6):
        raise ValueError(f"jacobi_eisenstein supports k in {{4, 6}}, got {k}")
    e41 = _e8_theta(dmax)
    if k == 4:
        return e41
    first = jacobi_combine([(1, eisenstein1(2, dmax // 4), e41)]).coeffs
    c = {d: first.get(d, 0) - Fraction(6 * d * c4, 7) for d, c4 in e41.coeffs.items()}
    return QSeries1(dmax, c, 6)


@cache
def _e8_theta(dmax: int) -> QSeries1:
    """E_{4,1} to dmax, as the theta series of E8 along a root.

    In the D8+ model of E8 take the root v = e1 + e2; then
    sum_{x in E8} q^(x.x/2) zeta^(x.v) = 1/2 sum_{i=2,3,4} theta_i(tau, z)^2
    theta_i(tau)^6, with theta_3(tau, z) = sum_{n in Z} q^(n^2/2) zeta^n,
    theta_4 the same with (-1)^n, theta_2 the same over n in Z + 1/2, and
    theta_i(tau) = theta_i(tau, 0).  c(4n) is its coefficient at q^n zeta^0
    and c(4n - 1) at q^n zeta^1.  In x = q^(1/2):

    * the theta_4 terms are the theta_3 terms at tau + 1, so the two
      together are twice the even powers of x in theta_3(tau, z)^2
      theta_3^6, whose zeta^0 and zeta^1 parts are sum_{a in Z} x^(2a^2)
      and sum_{a in Z} x^(2a^2 - 2a + 1) times theta_3^6;
    * theta_2(tau)^6 = 64 q^(3/4) s^6 with s = sum_{j >= 0} q^(j(j+1)/2), and
      the zeta^0 and zeta^1 parts of theta_2(tau, z)^2 are
      sum_{j in Z} q^(j^2 + j + 1/4) and sum_{j in Z} q^(j^2 + 1/4), so
      these terms are 32 q s^6 times sum_j q^(j^2 + j) or sum_j q^(j^2).

    Every part is one ``QSeries1`` product.
    """
    top = (dmax + 1) // 4  # the largest n with 4n - 1 <= dmax
    # The series in x are read at x^(2n), those in q at q^(n - 1).
    half, prec = 2 * top, max(top - 1, 0)

    def over_z(precision, exponent):
        """sum_{j in Z} t^exponent(j), cut to the precision; each exponent
        below is at least |j| - 1, so |j| <= precision + 1 meets them all."""
        coeffs = {}
        for j in range(-precision - 1, precision + 2):
            if (e := exponent(j)) <= precision:
                coeffs[e] = coeffs.get(e, 0) + 1
        return QSeries1(precision, coeffs)

    theta3_6 = over_z(half, lambda a: a * a) ** 6
    even0 = (over_z(half, lambda a: 2 * a * a) * theta3_6).coeffs
    even1 = (over_z(half, lambda a: 2 * a * a - 2 * a + 1) * theta3_6).coeffs
    s6 = QSeries1(prec, {t: 1 for j in range(prec + 1) if (t := j * (j + 1) // 2) <= prec}) ** 6
    odd0 = (over_z(prec, lambda j: j * j + j) * s6).coeffs
    odd1 = (over_z(prec, lambda j: j * j) * s6).coeffs
    c = {}
    for n in range(top + 1):
        if 4 * n <= dmax:
            c[4 * n] = even0.get(2 * n, 0) + 32 * odd0.get(n - 1, 0)
        if n:
            c[4 * n - 1] = even1.get(2 * n, 0) + 32 * odd1.get(n - 1, 0)
    return QSeries1(dmax, c, 4)


def jacobi_combine(terms) -> QSeries1:
    """Exact linear combination sum coeff * (f * phi) of index-1 forms.

    Each term is (coefficient, f, phi) with f a one-variable expansion in q
    and phi an index-1 Jacobi form, a ``QSeries1`` in x = q^(1/4);
    multiplying by f(tau) preserves the index, and c(D) = sum_j f_j c(D - 4j)
    makes each term one product f(x^4) * phi, with phi cut to the smallest
    dmax of the terms and f(x^4) carrying f's weight tag.  All terms must
    produce the same weight, and every f must reach q-precision
    floor(dmax/4), the last f_j read.
    """
    if not terms:
        raise ValueError("need at least one term")
    weights = {coeff_f_phi[1].weight + coeff_f_phi[2].weight for coeff_f_phi in terms}
    if len(weights) > 1:
        raise ValueError(f"mixed result weights {sorted(weights)}")
    dmax = min(phi.precision for _, _, phi in terms)
    need = dmax // 4
    for _, f, _ in terms:
        if f.precision < need:
            raise PrecisionError(f"series precision {f.precision} < {need} required for dmax {dmax}")
    products = []
    for coeff, f, phi in terms:
        fx = QSeries1(dmax, {4 * j: c for j, c in f.coeffs.items() if 4 * j <= dmax}, f.weight)
        products.append(fx * phi.truncate(dmax) * coeff)
    return sum(products[1:], products[0])


def maass_lift(phi: QSeries1, precision: int) -> SiegelExpansion:
    """The Maass lift V of an index-1 Jacobi form of even weight, the
    ``QSeries1`` sum_D c(D) x^D, to a degree-2 expansion.

    Eichler-Zagier, *The Theory of Jacobi Forms*, section 6, Theorem 6.2:
    a(0, 0, 0) = -(B_k/2k) c(0), and every other coefficient is the divisor
    sum a(m, r, n) = sum_{d | gcd(m, r, n)} d^(k-1) c((4mn - r^2)/d^2), with
    gcd(0, 0, n) = n, so the singular rows are sigma_{k-1}(n) c(0).  Every
    coefficient is linear in the c(D), so the lift is linear in phi.

    The sum reads only 4mn - r^2 and gcd(m, r, n), which m <-> n and
    r -> -r both keep, so it is formed once per orbit, at m <= n and
    r >= 0, and written to the up to four indices of the orbit.  Every D
    read is (4mn - r^2)/d^2 >= 0, which is 0 or 3 mod 4, up to 4 P^2.
    """
    k = phi.weight
    if k is None or k % 2:
        raise ValueError(f"the Maass lift needs an even weight, got {k}")
    if phi.precision < 4 * precision * precision:
        raise PrecisionError(f"need discriminants up to {4 * precision * precision}, have {phi.precision}")
    c = phi.coeffs
    coeffs = {(0, 0, 0): normalize(-Fraction(bernoulli(k), 2 * k) * c.get(0, 0))}
    for m in range(precision + 1):
        for n in range(max(m, 1), precision + 1):
            g_mn = gcd(m, n)
            for r in range(isqrt(4 * m * n) + 1):
                disc = 4 * m * n - r * r
                total = 0
                for d in divisors(gcd(g_mn, r)):
                    total += d ** (k - 1) * c.get(disc // (d * d), 0)
                coeffs[m, r, n] = coeffs[m, -r, n] = coeffs[n, r, m] = coeffs[n, -r, m] = total
    return SiegelExpansion(k, precision, coeffs)
