"""Exact scalar arithmetic: reduced rationals, p-adic valuations, Bernoulli numbers.

Every coefficient in this package is an exact rational, stored either as a
Python int or as a ``fractions.Fraction`` in lowest terms with positive
denominator.  ``normalize`` collapses integral fractions to int so the common
integral case stays on the fast native-int path.  No floating point is used
anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import NotPIntegral
from .records import FrozenRecord

__all__ = [
    "PrimePower",
    "bernoulli",
    "bernoulli_polynomial",
    "divisors",
    "factorize",
    "is_prime",
    "normalize",
    "p_valuation",
    "reduce_mod_p",
]


def normalize(x):
    """Collapse a Fraction with denominator 1 to a plain int."""
    # Most coefficients are ints; the exact type test is ten times cheaper
    # than the isinstance check against Fraction's numbers ABC.
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


# The first 13 primes: as Miller-Rabin bases they decide every n below
# _MR_LIMIT (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 3.3 * 10^24, the
    range its bases decide; a larger n raises ValueError.  A 61-bit prime
    takes microseconds, where trial division takes minutes."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is past the range the primality test decides")
    for q in _MR_BASES:
        if n % q == 0 or n < q:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a sorted list of (prime, exponent)."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    f = 5
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


class PrimePower(FrozenRecord):
    """A congruence modulus p^nu with p prime and nu >= 1."""

    __slots__ = ("p", "nu")

    def __init__(self, p: int, nu: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if nu < 1:
            raise ValueError("prime-power exponent must be >= 1")
        self._set(p, nu)

    def __str__(self):
        return str(self.p) if self.nu == 1 else f"{self.p}^{self.nu}"


_BERNOULLI: list[Fraction] = [Fraction(1)]


def _bernoulli_extend(n: int) -> None:
    # Defining recurrence: sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1.
    while len(_BERNOULLI) <= n:
        m = len(_BERNOULLI)
        acc = sum(comb(m + 1, j) * _BERNOULLI[j] for j in range(m))
        _BERNOULLI.append(Fraction(-acc, m + 1))


def bernoulli(n: int):
    """Bernoulli number B_n for even n >= 0 (B_1 = -1/2 is allowed but unused).

    Odd n > 1 is rejected: those values are zero and asking for them is
    almost always an index bug in the caller.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n % 2 == 1 and n > 1:
        raise ValueError(f"refusing B_{n} (zero for odd n > 1; likely an index bug)")
    _bernoulli_extend(n)
    return normalize(_BERNOULLI[n])


def bernoulli_polynomial(n: int, x):
    """Value of the Bernoulli polynomial B_n(x) at an exact rational x."""
    _bernoulli_extend(n)
    acc = Fraction(0)
    power = 1
    for j in range(n, -1, -1):
        acc += comb(n, j) * _BERNOULLI[j] * power
        power = power * x
    return normalize(acc)


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_valuation(x, p: int):
    """Exact p-adic valuation of a nonzero rational; 0 is refused.

    Negative values signal a denominator divisible by p, i.e. x is not
    p-integral.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x == 0:
        raise ValueError("0 has no finite valuation")
    if isinstance(x, Fraction):
        return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)
    return _int_valuation(x, p)


def reduce_mod_p(x, p: int) -> int:
    """Image of a p-integral rational in F_p, inverting the denominator mod p."""
    if type(x) is int:
        return x % p
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise NotPIntegral(f"{x} is not {p}-integral")
        return x.numerator * pow(x.denominator, -1, p) % p
    return x % p
