import random
from fractions import Fraction
from functools import cache
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegel2.generators as gmod
from siegel2 import jacobi
from siegel2.e8 import e8_pair_counts
from siegel2.errors import PrecisionError
from siegel2.generators import GENERATOR_WEIGHTS, GeneratorRegistry, MonomialSpec
from siegel2.jacobi import (
    _character,
    _l_value,
    cohen_h,
    jacobi_combine,
    jacobi_eisenstein,
    kronecker,
    maass_lift,
)
from siegel2.qexp1 import QSeries1, diag_builder, divisor_sigma, eisenstein1
from siegel2.rationals import bernoulli, bernoulli_polynomial, divisors, factorize, is_prime
from siegel2.verify import GENSET_C


def legendre_oracle(a, p):
    """Count-based Legendre symbol for odd primes."""
    a %= p
    if a == 0:
        return 0
    return 1 if any((x * x) % p == a for x in range(1, p)) else -1


def test_kronecker_examples():
    assert kronecker(-3, 2) == -1
    assert kronecker(-4, 3) == -1
    assert kronecker(-7, 1) == 1
    assert kronecker(5, 1) == 1
    with pytest.raises(ValueError):
        kronecker(3, 2)
    with pytest.raises(ValueError):
        kronecker(-3, 0)


def test_kronecker_against_legendre_oracle():
    rng = random.Random(99)
    odd_primes = [p for p in range(3, 60) if is_prime(p)]
    for _ in range(200):
        d = rng.randint(-30, 30)
        if d % 4 not in (0, 1) or d == 0:
            continue
        p = rng.choice(odd_primes)
        assert kronecker(d, p) == legendre_oracle(d, p)


def test_kronecker_multiplicative_in_n():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.choice([-3, -4, -7, -8, 5, 8, 12, -20, 21])
        a, b = rng.randint(1, 40), rng.randint(1, 40)
        assert kronecker(d, a * b) == kronecker(d, a) * kronecker(d, b)


def reference_kronecker(D, n):
    """(D/n) from the factorisation of n: (D/2) from D mod 8, (D/q) by Euler."""
    result = 1
    for q, e in factorize(n):
        if q == 2:
            if D % 2 == 0:
                return 0
            s = 1 if D % 8 in (1, 7) else -1
        else:
            s = pow(D, (q - 1) // 2, q)
            if s == 0:
                return 0
            if s == q - 1:
                s = -1
        if e % 2:
            result *= s
    return result


@cache
def reference_l_value(r, D):
    """L(1 - r, chi_D) = -B_{r,chi}/r with B_{r,chi} = f^(r-1) sum chi(a) B_r(a/f)."""
    f = abs(D)
    total = sum(
        reference_kronecker(D, a) * bernoulli_polynomial(r, Fraction(a, f))
        for a in range(1, f + 1)
    )
    return -Fraction(f) ** (r - 1) * total / r


def reference_cohen_h(r, N):
    """H(r, N) for N > 0 from the Bernoulli-polynomial L-value."""
    d0 = N if r % 2 == 0 else -N
    if d0 % 4 in (2, 3):
        return 0
    core, f = (-1 if d0 < 0 else 1), 1
    for q, e in factorize(abs(d0)):
        core *= q ** (e % 2)
        f *= q ** (e // 2)
    if core % 4 != 1:
        core, f = 4 * core, f // 2
    total = 0
    for d in divisors(f):
        if all(e == 1 for _, e in factorize(d)):
            mu = (-1) ** len(factorize(d))
            chi = reference_kronecker(core, d)
            total += mu * chi * d ** (r - 1) * divisor_sigma(f // d, 2 * r - 1)
    return reference_l_value(r, core) * total


discriminants = st.integers(-400, 400).filter(lambda d: d % 4 in (0, 1))


@settings(max_examples=500, deadline=None)
@given(D=discriminants, n=st.integers(1, 200))
def test_kronecker_matches_factorisation_reference(D, n):
    assert kronecker(D, n) == reference_kronecker(D, n)


@pytest.mark.parametrize("r", [3, 5])
def test_cohen_h_matches_bernoulli_polynomial_formula(r):
    for N in range(1, 401):
        assert cohen_h(r, N) == reference_cohen_h(r, N), N


def direct_l_value(r, D):
    """L(1 - r, chi_D) from the power sums, calling kronecker at every a <= |D|."""
    f = abs(D)
    sums = [0] * (r + 1)
    for a in range(1, f + 1):
        chi = kronecker(D, a)
        for i in range(r + 1):
            sums[i] += chi * a**i
    b_chi = sum(
        comb(r, j) * bernoulli(j) * Fraction(f) ** (j - 1) * sums[r - j]
        for j in range(r + 1)
        if j < 2 or j % 2 == 0
    )
    return -b_chi / r


def is_fundamental(D):
    squarefree = lambda n: all(e == 1 for _, e in factorize(abs(n)))
    if D % 4 == 1:
        return squarefree(D)
    return D % 4 == 0 and (D // 4) % 4 in (2, 3) and squarefree(D // 4)


def test_sieved_l_values_match_the_direct_kronecker_loop(monkeypatch):
    # |D| <= 576 covers dmax = 4 P^2 at P = 12.
    fundamental = [D for D in range(-576, 577) if is_fundamental(D)]
    assert len(fundamental) > 300
    for D in fundamental:
        assert _character(D) == [kronecker(D, a) for a in range(1, abs(D) + 1)], D
        for r in (3, 5):
            assert _l_value(r, D) == direct_l_value(r, D), (r, D)
    called = []
    monkeypatch.setattr(
        jacobi, "kronecker", lambda D, n: called.append(n) or kronecker(D, n)
    )
    for D in (-575, -4 * 143, 17 * 29, 4 * 121 + 1):
        called.clear()
        jacobi._character(D)
        assert called == [q for q in range(2, abs(D) + 1) if is_prime(q)], D


def test_cohen_values():
    assert cohen_h(3, 0) == Fraction(-1, 252)
    assert cohen_h(3, 3) == Fraction(-2, 9)
    assert cohen_h(3, 4) == Fraction(-1, 2)
    # zeta special value via Bernoulli: H(r, 0) = -B_{2r}/(2r)
    assert cohen_h(5, 0) == -Fraction(bernoulli(10), 10)
    # vanishing residue classes: (-1)^r N = 1, 2 mod 4 for odd r
    assert cohen_h(3, 1) == 0
    assert cohen_h(3, 2) == 0
    assert cohen_h(3, 5) == 0


def test_jacobi_eisenstein_coefficients():
    e41 = jacobi_eisenstein(4, 20)
    e61 = jacobi_eisenstein(6, 20)
    assert e41.coeff(0) == 1 and e61.coeff(0) == 1
    assert e41.coeff(3) == 56 and e41.coeff(4) == 126
    assert e41.coeff(7) == 576 and e41.coeff(8) == 756
    assert e61.coeff(3) == -88 and e61.coeff(4) == -330
    assert e41.coeff(2) == 0
    with pytest.raises(PrecisionError):
        e41.coeff(21)
    with pytest.raises(ValueError):
        jacobi_eisenstein(8, 4)


@pytest.mark.parametrize("k", [4, 6])
def test_eisenstein_series_are_the_cohen_ratios(k):
    """c(D) = H(k-1, D) / H(k-1, 0) at every D <= 784, which is dmax at P = 14."""
    got = jacobi_eisenstein(k, 784)
    h0 = cohen_h(k - 1, 0)
    want = {d: Fraction(cohen_h(k - 1, d)) / h0 for d in range(785) if d % 4 in (0, 3)}
    assert got.weight == k and got.precision == 784
    assert got.coeffs == want


def test_e41_counts_e8_vectors_along_a_root():
    """c(4n - r^2) of E_{4,1} is the number of E8 vectors y with y.y = 2n and
    y.x = r for a root x, the pair count at (1, r, n) over the 240 roots."""
    counts = e8_pair_counts(1, 3)
    e41 = jacobi_eisenstein(4, 12)
    for n in range(4):
        for r in range(-isqrt(4 * n), isqrt(4 * n) + 1):
            assert 240 * e41.coeff(4 * n - r * r) == counts.get((1, r, n), 0), (r, n)


def test_cold_builds_read_no_cohen_numbers(tmp_path, monkeypatch):
    """With the Eisenstein memos cleared, building X4, X6, X10 and X12 on an
    empty cache calls ``cohen_h`` zero times."""
    jacobi_eisenstein.cache_clear()
    jacobi._e8_theta.cache_clear()
    calls = []
    monkeypatch.setattr(jacobi, "cohen_h", lambda r, N: calls.append((r, N)) or cohen_h(r, N))
    reg = GeneratorRegistry(tmp_path)
    for name in ("X4", "X6", "X10", "X12"):
        reg.generator(name, 3)
    assert sorted(path.name for path in tmp_path.glob("*.qexp")) == [
        "X10.p3.qexp", "X12.p3.qexp", "X4.p3.qexp", "X6.p3.qexp"
    ]
    assert calls == []
    assert jacobi.cohen_h(3, 3) == Fraction(-2, 9) and calls == [(3, 3)]


def _phi10(dmax):
    qprec = dmax // 4
    c = Fraction(1, 144)
    return jacobi_combine(
        [
            (c, eisenstein1(6, qprec), jacobi_eisenstein(4, dmax)),
            (-c, eisenstein1(4, qprec), jacobi_eisenstein(6, dmax)),
        ]
    )


def _phi12(dmax):
    qprec = dmax // 4
    c = Fraction(1, 144)
    e4 = eisenstein1(4, qprec)
    return jacobi_combine(
        [
            (c, e4 * e4, jacobi_eisenstein(4, dmax)),
            (-c, eisenstein1(6, qprec), jacobi_eisenstein(6, dmax)),
        ]
    )


def test_jacobi_combine_cusp_forms():
    phi10 = _phi10(16)
    assert phi10.weight == 10
    assert phi10.coeff(0) == 0
    assert phi10.coeff(3) == 1 and phi10.coeff(4) == -2
    assert phi10.coeff(7) == -16 and phi10.coeff(8) == 36
    phi12 = _phi12(16)
    assert phi12.coeff(3) == 1 and phi12.coeff(4) == 10


def test_jacobi_combine_identity_and_errors():
    e41 = jacobi_eisenstein(4, 12)
    one = QSeries1(4, {0: 1}, weight=0)
    assert jacobi_combine([(1, one, e41)]) == e41
    with pytest.raises(ValueError):
        jacobi_combine(
            [(1, eisenstein1(4, 4), e41), (1, eisenstein1(6, 4), e41)]
        )
    with pytest.raises(PrecisionError):
        jacobi_combine([(1, QSeries1(1, {0: 1}), e41)])


def test_jacobi_combine_reads_q_precision_dmax_over_4():
    """c(D) for D <= dmax reads f_j only for 4j <= dmax, so q-precision
    dmax // 4 suffices and one less is refused."""
    for dmax in (12, 15, 36, 39, 400):
        e41 = jacobi_eisenstein(4, dmax)
        q = dmax // 4
        got = jacobi_combine([(1, eisenstein1(6, q), e41)])
        assert got == jacobi_combine([(1, eisenstein1(6, q + 1), e41)])
        with pytest.raises(PrecisionError):
            jacobi_combine([(1, eisenstein1(6, q - 1), e41)])


def combine_oracle(terms, dmax):
    """The per-discriminant convolution c(D) = sum coeff sum_j f_j c(D - 4j)
    over the terms, for 0 <= D <= dmax."""
    c = {}
    for d in range(dmax + 1):
        if d % 4 not in (0, 3):
            continue
        total = 0
        for coeff, f, phi in terms:
            inner = 0
            for j, fj in f.coeffs.items():
                if 4 * j <= d:
                    inner += fj * phi.coeff(d - 4 * j)
            total += coeff * inner
        c[d] = total
    return c


scalars = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def combine_terms(draw):
    """One to three terms of result weight 12, whose Jacobi forms have
    different dmax, with series reaching the smallest dmax."""
    phis = []
    for _ in range(draw(st.integers(1, 3))):
        dmax = draw(st.integers(0, 40))
        classes = [d for d in range(dmax + 1) if d % 4 in (0, 3)]
        c = draw(st.dictionaries(st.sampled_from(classes), scalars, max_size=12))
        phis.append(QSeries1(dmax, c, draw(st.sampled_from((4, 6, 8)))))
    need = min(phi.precision for phi in phis) // 4
    terms = []
    for phi in phis:
        prec = draw(st.integers(need, need + 3))
        f = draw(st.dictionaries(st.integers(0, prec), scalars, max_size=8))
        terms.append((draw(scalars), QSeries1(prec, f, weight=12 - phi.weight), phi))
    return terms


@settings(max_examples=200, deadline=None)
@given(terms=combine_terms())
def test_jacobi_combine_matches_the_per_discriminant_convolution(terms):
    dmax = min(phi.precision for _, _, phi in terms)
    got = jacobi_combine(terms)
    assert got.weight == 12 and got.precision == dmax
    assert got == QSeries1(dmax, combine_oracle(terms, dmax), 12)


def test_maass_lift_cusp_examples():
    lift = maass_lift(_phi10(36), 3)
    assert lift.coeff(1, 1, 1) == 1
    assert lift.coeff(1, 0, 1) == -2
    assert all(lift.coeff(0, 0, n) == 0 for n in range(4))
    lift12 = maass_lift(_phi12(36), 3)
    assert lift12.coeff(1, 0, 1) == 10


def test_maass_lift_eisenstein_examples():
    lift = maass_lift(jacobi_eisenstein(4, 36), 3)
    assert lift.coeff(0, 0, 0) == Fraction(1, 240)
    assert lift.coeff(0, 0, 1) == 1
    lift = 240 * lift
    assert lift.coeff(0, 0, 0) == 1
    assert lift.coeff(1, 0, 1) == 30240
    assert lift.coeff(1, 1, 1) == 13440
    assert lift.coeff(0, 0, 2) == 240 * 9
    assert lift.coeff(2, 0, 0) == 240 * 9


def test_maass_lift_divisor_sum_structure():
    for k in (4, 6):
        phi = jacobi_eisenstein(k, 36)
        lift = maass_lift(phi, 3)
        want = phi.coeff(12) + 2 ** (k - 1) * phi.coeff(3)
        assert lift.coeff(2, 2, 2) == want


def test_maass_lift_restriction_pins():
    for k in (4, 6):
        lift = -2 * k / bernoulli(k) * maass_lift(jacobi_eisenstein(k, 4 * 16), 4)
        assert lift.witt(0) == diag_builder(f"x{k}", 4)
        e_k = eisenstein1(k, 4)
        for n in range(5):
            row = sum(
                lift.coeff(1, r, n) for r in range(-8, 9) if 4 * n - r * r >= 0
            )
            assert row == e_k.coeff(1) * e_k.coeff(n)


def test_maass_lift_errors():
    e41 = jacobi_eisenstein(4, 8)
    with pytest.raises(PrecisionError):
        maass_lift(e41, 4)


@pytest.mark.parametrize("k", [5, 35, None])
def test_maass_lift_refuses_an_odd_weight(k):
    """An odd weight, or no weight tag (a sum of mixed weights), is refused."""
    phi = QSeries1(36, {0: 1, 3: 56}, k)
    with pytest.raises(ValueError, match=f"^the Maass lift needs an even weight, got {k}$"):
        maass_lift(phi, 3)


def held_discriminants(phi):
    """The keys of a Jacobi form that lie outside [0..dmax] or in the classes
    1 and 2 mod 4, which no index-1 form has."""
    return sorted(d for d in phi.coeffs if not 0 <= d <= phi.precision or d % 4 not in (0, 3))


def test_every_built_jacobi_form_holds_only_discriminants(monkeypatch):
    """Each index-1 form the program builds has keys D <= dmax with D = 0 or
    3 mod 4 only: E_{4,1} from the E8 theta series, E_{4,1} and E_{6,1} at
    several dmax, the forms of X4, X6, X10, X12 and X16, and Y12's psi."""
    forms = []
    for dmax in (0, 3, 12, 400):
        forms += [(4, jacobi._e8_theta(dmax))] + [(k, jacobi_eisenstein(k, dmax)) for k in (4, 6)]
        forms += [(GENERATOR_WEIGHTS[name], gmod._jacobi(name, dmax)) for name in GENSET_C + ("X16",)]
    lifted, lift = [], gmod.maass_lift
    monkeypatch.setattr(gmod, "maass_lift", lambda phi, P: lifted.append(phi) or lift(phi, P))
    gmod._build("Y12", 4, None)
    psi, x6 = lifted
    assert psi.coeff(0) == 65520 and x6 == gmod._jacobi("X6", 64)
    forms += [(12, psi)]
    for k, phi in forms:
        assert phi.weight == k and held_discriminants(phi) == [], phi


def test_maass_lift_is_linear():
    """V(2 E_{4,1}) = 2 V(E_{4,1}), the constant term included."""
    e41 = jacobi_eisenstein(4, 36)
    doubled = 2 * e41
    assert maass_lift(doubled, 3) == 2 * maass_lift(e41, 3)


def test_maass_lift_of_a_form_with_constant_term_3(registry):
    """3 e6 E_{4,1} - phi_{10,1} has c(0) = 3; its lift has constant term
    -(B_10/20) * 3 = -1/88 and lies in M_10, spanned by X4*X6 and X10: it
    is -1/88 X4*X6 + 9061/11 X10, so the three have rank 2."""
    precision, dmax = 6, 144
    q = dmax // 4
    phi = jacobi_combine(
        [
            (3, eisenstein1(6, q), jacobi_eisenstein(4, dmax)),
            (-1, QSeries1(q, {0: 1}), _phi10(dmax)),
        ]
    )
    assert phi.weight == 10 and phi.coeff(0) == 3
    lift = maass_lift(phi, precision)
    assert lift.coeff(0, 0, 0) == Fraction(-1, 88)
    x4x6 = registry.monomial(MonomialSpec.from_dict({"X4": 1, "X6": 1}), precision)
    x10 = registry.generator("X10", precision)
    assert lift == Fraction(-1, 88) * x4x6 + Fraction(9061, 11) * x10


def test_scaled_eisenstein_lifts_are_the_generators(registry):
    for k, name in ((4, "X4"), (6, "X6")):
        lift = maass_lift(jacobi_eisenstein(k, 144), 6)
        assert -2 * k / bernoulli(k) * lift == registry.generator(name, 6)
