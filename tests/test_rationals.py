import random
from fractions import Fraction
from math import comb

import pytest

from siegel2.errors import NotPIntegral
from siegel2.rationals import (
    PrimePower,
    bernoulli,
    bernoulli_polynomial,
    divisors,
    factorize,
    is_prime,
    normalize,
    p_valuation,
    reduce_mod_p,
)


def oracle_bernoulli(limit):
    """Independent recurrence sum_{j<=n} C(n+1, j) B_j = 0, solved for B_n."""
    values = [Fraction(1)]
    for n in range(1, limit + 1):
        acc = sum(comb(n + 1, j) * values[j] for j in range(n))
        values.append(Fraction(-acc, n + 1))
    return values


def test_bernoulli_base_cases():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_recurrence_oracle():
    oracle = oracle_bernoulli(30)
    for n in range(0, 31, 2):
        assert bernoulli(n) == oracle[n]
    # the defining recurrence itself, for 1 <= n <= 30
    for n in range(1, 31):
        assert sum(comb(n + 1, j) * oracle[j] for j in range(n + 1)) == 0


def test_bernoulli_rejects_odd_indices():
    with pytest.raises(ValueError):
        bernoulli(3)
    with pytest.raises(ValueError):
        bernoulli(-2)


def test_bernoulli_polynomial_values():
    # B_3(x) = x^3 - (3/2) x^2 + x/2
    assert bernoulli_polynomial(3, Fraction(1, 3)) == Fraction(1, 27)
    assert bernoulli_polynomial(3, Fraction(2, 3)) == Fraction(-1, 27)
    assert bernoulli_polynomial(5, 0) == 0
    assert bernoulli_polynomial(4, 1) == bernoulli(4)


def test_p_valuation_examples():
    assert p_valuation(Fraction(12, 5), 2) == 2
    assert p_valuation(Fraction(1, 9), 3) == -2
    assert p_valuation(-8, 2) == 3
    with pytest.raises(ValueError):
        p_valuation(1, 4)
    with pytest.raises(ValueError, match="0 has no finite valuation"):
        p_valuation(0, 7)


def test_valuation_product_and_sum_properties():
    rng = random.Random(20240811)
    primes = (2, 3, 5, 7)
    cases = 0
    while cases < 300:
        p = rng.choice(primes)
        x = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
        y = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
        if not (x and y and x + y):
            continue
        cases += 1
        vx, vy = p_valuation(x, p), p_valuation(y, p)
        assert p_valuation(x * y, p) == vx + vy
        vsum = p_valuation(x + y, p)
        assert vsum >= min(vx, vy)
        if vx != vy:
            assert vsum == min(vx, vy)


def test_reduce_mod_p_examples():
    assert reduce_mod_p(10, 3) == 1
    assert reduce_mod_p(-2, 3) == 1
    assert reduce_mod_p(Fraction(1, 3), 2) == 1
    with pytest.raises(NotPIntegral):
        reduce_mod_p(Fraction(1, 2), 2)


def test_reduce_mod_p_is_ring_homomorphism():
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 11):
        samples = []
        while len(samples) < 40:
            x = Fraction(rng.randint(-200, 200), rng.randint(1, 200))
            if x.denominator % p:
                samples.append(x)
        for i in range(0, 40, 2):
            x, y = samples[i], samples[i + 1]
            assert reduce_mod_p(x + y, p) == (reduce_mod_p(x, p) + reduce_mod_p(y, p)) % p
            assert reduce_mod_p(x * y, p) == (reduce_mod_p(x, p) * reduce_mod_p(y, p)) % p


def test_prime_power_validation():
    pp = PrimePower(3, 2)
    assert str(pp) == "3^2"
    assert str(PrimePower(7)) == "7"
    with pytest.raises(ValueError):
        PrimePower(4)
    with pytest.raises(ValueError):
        PrimePower(5, 0)
    assert pp == PrimePower(3, 2) and hash(pp) == hash(PrimePower(3, 2))
    assert pp != PrimePower(3) and pp != PrimePower(2, 2) and pp != (3, 2)
    assert PrimePower(7) == PrimePower(7, nu=1) and (pp.p, pp.nu) == (3, 2)
    assert {pp: 1}[PrimePower(3, 2)] == 1
    with pytest.raises(AttributeError):
        pp.nu = 3


def test_is_prime_decides_large_inputs():
    """Miller-Rabin on the first 13 prime bases: Mersenne primes and their
    neighbours, Carmichael numbers and the least strong pseudoprimes to the
    first 7, 9 and 12 prime bases are decided, and against trial division
    on a range; past 3.3 * 10^24, where the bases decide nothing proven, n
    is refused."""
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1) and is_prime(2**13 - 1)
    assert not any(is_prime(n) for n in (2**61 + 1, 2**61 - 3, 2**62 - 1))
    pseudoprimes = (561, 1105, 3215031751, 341550071728321, 3825123056546413051,
                    318665857834031151167461)
    assert not any(is_prime(n) for n in pseudoprimes)
    assert [n for n in range(10**6, 10**6 + 200) if is_prime(n)] == [
        n for n in range(10**6, 10**6 + 200) if all(n % f for f in range(2, 1001))
    ]
    for n in (3317044064679887385961981, 10**30):
        with pytest.raises(ValueError, match="past the range"):
            is_prime(n)


def test_small_number_theory_helpers():
    assert [n for n in range(60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    assert normalize(Fraction(6, 3)) == 2 and isinstance(normalize(Fraction(6, 3)), int)
