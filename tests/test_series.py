"""Property tests of the sparse series core over all three series types.

Each test runs per kind: QSeries1, DiagSeries and SiegelExpansion.  An
example draws two or three series of that kind.  Sizes stay tiny so the
whole module runs in a few seconds.  SiegelExpansions are also checked
against their residues mod p, a plain dict that is read and never computed
with, and their text format.
"""

import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel2.errors import FormatError, NotPIntegral, PrecisionError
from siegel2.expansion import SiegelExpansion
from siegel2.generators import GENERATOR_WEIGHTS, MonomialSpec
from siegel2.qexp1 import DiagSeries, QSeries1
from siegel2.qformat import dump_siegel, parse_siegel
from siegel2.series import SparseSeries

KINDS = ("q", "diag", "siegel")
MODULUS = 5
SETTINGS = settings(max_examples=20, deadline=None)


def box_keys(kind, box):
    """Every valid index of a series of this kind inside the box."""
    if kind == "q":
        return list(range(box + 1))
    if kind == "diag":
        return list(product(range(box + 1), repeat=2))
    keys = []
    for m, n in product(range(box + 1), repeat=2):
        rmax = isqrt(4 * m * n)
        keys.extend((m, r, n) for r in range(-rmax, rmax + 1))
    return keys


def make(kind, precision, coeffs, weight):
    if kind == "q":
        return QSeries1(precision, coeffs, weight)
    if kind == "diag":
        return DiagSeries(precision, coeffs, weight)
    return SiegelExpansion(weight, precision, coeffs)


exact_scalars = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


@st.composite
def families(draw, kind, size=3):
    """[series, ...]: series of one kind."""
    top = {"q": 6, "diag": 3}.get(kind, 2)
    members = []
    for _ in range(size):
        precision = draw(st.integers(0, top))
        keys = box_keys(kind, precision)
        coeffs = draw(st.dictionaries(st.sampled_from(keys), exact_scalars, max_size=6))
        weight = draw(st.sampled_from((None, 0, 1, 4)))
        members.append(make(kind, precision, coeffs, weight))
    return members


def assert_canonical(series):
    """Stored coefficients are nonzero rationals, integral values stored as int."""
    for v in series.coeffs.values():
        assert v and not (isinstance(v, Fraction) and v.denominator == 1)


def add_keys(k1, k2):
    if isinstance(k1, int):
        return k1 + k2
    return tuple(a + b for a, b in zip(k1, k2))


def naive_product(kind, a, b, p=None):
    """Pairwise convolution: every pair of terms whose index sum stays in the
    box; with a prime p, of the residues mod p (``reduce_mod``), mod p."""
    inside = set(box_keys(kind, min(a.precision, b.precision)))
    x, y = (a.coeffs, b.coeffs) if p is None else (a.reduce_mod(p), b.reduce_mod(p))
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            key = add_keys(k1, k2)
            if key in inside:
                out[key] = out.get(key, 0) + c1 * c2
    if p is not None:
        out = {k: v % p for k, v in out.items()}
    return {k: v for k, v in out.items() if v}


by_kind = pytest.mark.parametrize("kind", KINDS)


@by_kind
@SETTINGS
@given(data=st.data())
def test_ring_laws(kind, data):
    a, b, c = data.draw(families(kind))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a.truncate(min(a.precision, b.precision))
    assert (a - a).coeffs == {} and -(-a) == a
    assert a**0 * a == a
    assert a**3 == a * a * a
    assert a**5 == a**2 * a**3
    for result in (a + b, a - b, a * b, a * 3, a**2):
        assert_canonical(result)


@by_kind
@SETTINGS
@given(data=st.data())
def test_truncation_commutes_with_sum_and_product(kind, data):
    a, b = data.draw(families(kind, size=2))
    q = data.draw(st.integers(0, min(a.precision, b.precision)))
    assert (a + b).truncate(q) == a.truncate(q) + b.truncate(q)
    assert (a * b).truncate(q) == a.truncate(q) * b.truncate(q)


@by_kind
@SETTINGS
@given(data=st.data())
def test_product_matches_naive_convolution(kind, data):
    a, b = data.draw(families(kind, size=2))
    got = a * b
    assert got.coeffs == naive_product(kind, a, b)
    assert got.precision == min(a.precision, b.precision)


# Products whose coefficients are far wider than the drawn ones above: the
# packed product must size its slots for every coefficient width and
# denominator, in the row layout of every series type.
BIG = 2**200
M61 = 2**61 - 1
PACKED_KINDS = ("q", "diag", "siegel")


def packed_operand(kind, precision, coeffs):
    """A weight-4 operand."""
    return make(kind, precision, coeffs, 4)


def swap_symmetric(coeffs, sign):
    """The entries at m <= n, mirrored: a(n, r, m) = sign * a(m, r, n)."""
    out = {}
    for (m, r, n), c in coeffs.items():
        if m < n:
            out[m, r, n], out[n, r, m] = c, sign * c
        elif m == n and sign == 1:
            out[m, r, n] = c
    return out


@st.composite
def wide_factors(draw, counts=st.just(2)):
    """(kind, factors): sparse operands with wide entries, or full
    boxes at the largest magnitude of a bit length, so the slot sums are as
    large as the box allows.  Half the Siegel families are swap-symmetric,
    each factor with its own sign, save at most one factor with none; their
    factors reach precision 1 at least and are full boxes more often, so
    that products of three or more factors, whose partial products are
    mirrored, are seldom zero off the diagonal."""
    kind = draw(st.sampled_from(PACKED_KINDS))
    siegel = kind == "siegel"
    coeff = st.one_of(
        st.integers(-BIG, BIG),
        st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 10**6)),
    )
    largest = {"q": 6, "diag": 3}.get(kind, 3)
    count = draw(counts)
    symmetric = siegel and draw(st.booleans())
    unsigned = draw(st.one_of(st.none(), st.integers(0, count - 1))) if symmetric else None
    members = []
    for i in range(count):
        precision = draw(st.integers(int(symmetric), largest))
        keys = box_keys(kind, precision)
        if draw(st.booleans()) or symmetric and draw(st.booleans()):
            top = 2 ** draw(st.integers(1, 200)) - 1
            sign = draw(st.sampled_from((1, -1, None)))
            coeffs = {k: (sign or draw(st.sampled_from((1, -1)))) * top for k in keys}
        else:
            coeffs = draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=8))
        if symmetric and i != unsigned:
            coeffs = swap_symmetric(coeffs, draw(st.sampled_from((1, -1))))
        members.append(packed_operand(kind, precision, coeffs))
    return kind, members


@SETTINGS
@given(pair=wide_factors())
def test_wide_siegel_products_match_naive_convolution(pair):
    kind, (a, b) = pair
    got = a * b
    assert got.coeffs == naive_product(kind, a, b)
    for v in got.coeffs.values():
        assert not (isinstance(v, Fraction) and v.denominator == 1)


def folded_product(kind, factors):
    """The left fold of naive convolutions, each partial product cut to the box."""
    folded = factors[0]
    for factor in factors[1:]:
        coeffs = naive_product(kind, folded, factor)
        precision = min(folded.precision, factor.precision)
        folded = packed_operand(kind, precision, coeffs)
    return folded


@settings(max_examples=200, deadline=None)
@given(family=wide_factors(st.integers(1, 5)))
def test_products_of_one_to_five_factors_match_folded_convolution(family):
    kind, factors = family
    got = SparseSeries._product(factors)
    assert got == folded_product(kind, factors)
    assert got.weight == 4 * len(factors)
    for v in got.coeffs.values():
        assert not (isinstance(v, Fraction) and v.denominator == 1)


def test_long_qseries_products_past_the_box_match_folded_convolution():
    """A QSeries1 product row keeps every slot its factors reach, past the
    box too; products of three to five signed, wide factors of 60 terms,
    some reaching past the product's box, equal the folded convolution."""
    rng = random.Random(22)
    for count in (3, 4, 5):
        factors = []
        for _ in range(count):
            precision = rng.randint(40, 60)
            coeffs = {
                n: rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 90))
                for n in range(precision + 1)
            }
            factors.append(QSeries1(precision, coeffs, weight=4))
        got = SparseSeries._product(factors)
        assert got.precision == min(f.precision for f in factors)
        assert got == folded_product("q", factors)


def test_products_fold_only_when_every_factor_has_a_swap_sign(
    registry, accumulate_folds, monkeypatch
):
    """X10's leading row is tagged weight 10 but has no swap sign, so its
    product with X4 takes the whole-box pass, and X4's sign is not read;
    X10 * X4 folds, and a power reads its base's sign once."""
    x4, x10 = registry.generator("X4", 5), registry.generator("X10", 5)
    row = SiegelExpansion(10, 5, {k: c for k, c in x10.coeffs.items() if k[0] == 1})
    reads, parity = [], SiegelExpansion._parity
    monkeypatch.setattr(
        SiegelExpansion, "_parity", lambda self, ints: reads.append(ints) or parity(self, ints)
    )
    accumulate_folds.clear()
    assert (row * x4).coeffs == naive_product("siegel", row, x4)
    assert accumulate_folds == [False] and len(reads) == 1
    assert (x10 * x4).coeffs == naive_product("siegel", x10, x4)
    assert accumulate_folds == [False, True] and len(reads) == 3
    assert (x10**3).coeffs == naive_product("siegel", x10 * x10, x10)
    assert len(reads) == 5  # x10**3 and x10 * x10 each read X10's sign once


@pytest.mark.parametrize(
    "kind, sign, modulus",
    [("q", 1, None), ("diag", 1, None), ("siegel", 1, None), ("siegel", -1, None), ("siegel", 1, M61)],
)
def test_five_full_boxes_of_one_sign(kind, sign, modulus):
    """As many products per slot as five factors allow: on a Siegel box of 3,
    2285 of them, more than a width with one count term for all of them holds.
    With sign -1 every entry and every slot of the product is negative.
    With a modulus p the entries are p - 1, and the product, formed over Z,
    is read mod p."""
    precision = {"q": 6, "diag": 3}.get(kind, 3)
    value = M61 - 1 if modulus else sign * (2**64 - 1)
    full = {k: value for k in box_keys(kind, precision)}
    factors = [packed_operand(kind, precision, full) for _ in range(5)]
    got, want = SparseSeries._product(factors), folded_product(kind, factors)
    assert got == want
    if modulus:
        assert got.reduce_mod(modulus) == reduced(want.coeffs, modulus) != {}


def reduced(coeffs, p):
    """The nonzero residues mod p of a dict of integers."""
    return {k: v for k, c in coeffs.items() if (v := c % p)}


@pytest.mark.parametrize("modulus", (None, MODULUS, M61))
def test_siegel_products_at_box_zero_and_with_zero(modulus):
    """Products at box 0, with the zero series and of full boxes; with a
    modulus p, of integral Siegel expansions, formed over Z and read mod p
    as the convolution of their reductions."""
    value = Fraction(-BIG + 1, 999983) if modulus is None else M61 - 2
    kinds = PACKED_KINDS if modulus is None else ("siegel",)

    def read(series):
        return series.coeffs if modulus is None else series.reduce_mod(modulus)

    for kind in kinds:
        a = packed_operand(kind, 0, {box_keys(kind, 0)[0]: value})
        assert read(a * a) == naive_product(kind, a, a, modulus) != {}
        zero = packed_operand(kind, 2, {})
        full = packed_operand(kind, 2, {k: value for k in box_keys(kind, 2)})
        assert read(zero * full) == read(full * zero) == {}
        assert read(full * a) == naive_product(kind, full, a, modulus)
        assert read(full * full) == naive_product(kind, full, full, modulus)


@by_kind
@SETTINGS
@given(data=st.data(), scalar=exact_scalars)
def test_weight_tags(kind, data, scalar):
    a, b = data.draw(families(kind, size=2))
    assert (a + b).weight == (a.weight if a.weight == b.weight else None)
    assert (a - b).weight == (a.weight if a.weight == b.weight else None)
    expected = None if a.weight is None or b.weight is None else a.weight + b.weight
    assert (a * b).weight == expected
    assert (a * scalar).weight == a.weight
    assert a.truncate(0).weight == a.weight
    assert (a**0).weight == 0


@by_kind
@SETTINGS
@given(data=st.data())
def test_type_tags(kind, data):
    """Results keep the operands' type: the only tag besides the weight."""
    a, b = data.draw(families(kind, size=2))
    for result in (a + b, a * b, a * 2, -a, a.truncate(0), a**0, a**2):
        assert type(result) is type(a)


@SETTINGS
@given(data=st.data(), p=st.sampled_from((5, 7)))
def test_reduce_mod_is_a_ring_homomorphism(data, p):
    """The reduction of a sum or a product is the sum or the convolution of
    the reductions, mod p: what lets a product mod p be formed over Q."""
    # Drawn denominators are at most 3, so every coefficient is p-integral.
    a, b = data.draw(families("siegel", size=2))
    prec = min(a.precision, b.precision)
    assert (a * b).reduce_mod(p) == naive_product("siegel", a, b, p)
    sums = {}
    for x in (a, b):
        for k, c in x.truncate(prec).reduce_mod(p).items():
            sums[k] = sums.get(k, 0) + c
    assert (a + b).reduce_mod(p) == reduced(sums, p)


def test_reduce_mod_commutes_with_generator_products(gens6):
    f, g = gens6["X10"], gens6["X35"]
    product = f * g
    for p in (2, 3, 7):
        assert product.reduce_mod(p) == naive_product("siegel", f, g, p)


@SETTINGS
@given(data=st.data(), p=st.sampled_from((2, 3, 5, 7)), precision=st.integers(0, 5))
def test_fp_product_is_the_reduced_monomial(gens6, registry, data, p, precision):
    """The packed product of the generators over Z, read mod p as the
    tests' leading-row oracle reads it, is the Z monomial reduced mod p."""
    # gens6 holds every generator at precision 6, so each request below is
    # served by truncation, also under the leading index of X35.
    exponents, budget = {}, 40
    for name, weight in GENERATOR_WEIGHTS.items():
        exponents[name] = e = data.draw(st.integers(0, budget // weight), label=name)
        budget -= e * weight
    spec = MonomialSpec.from_dict(exponents)
    factors = [
        registry.generator(name, precision)
        for name, e in spec.exponents
        for _ in range(e)
    ]
    one = SiegelExpansion.constant(1, precision)
    got = SiegelExpansion._product(factors or [one]).reduce_mod(p)
    assert got == registry.monomial(spec, precision).reduce_mod(p)


@SETTINGS
@given(data=st.data(), weight=st.integers(-3, 40))
def test_dump_parse_round_trip(data, weight):
    """A file round-trips at every weight >= 0; a negative weight header is
    refused at its line."""
    (a,) = data.draw(families("siegel", size=1))
    a = SiegelExpansion(weight, a.precision, a.coeffs)
    text = dump_siegel(a, "F")
    if weight < 0:
        with pytest.raises(FormatError, match="^line 3: weight must be >= 0$"):
            parse_siegel(text)
        return
    name, parsed = parse_siegel(text)
    assert name == "F" and parsed == a and parsed.weight == weight


def test_siegel_ring_mismatches_raise():
    """An expansion does not combine with its residues mod p, a dict."""
    x = SiegelExpansion(4, 2, {(0, 0, 0): 1, (1, 1, 1): 2})
    reduction = x.reduce_mod(MODULUS)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(TypeError):
            op(x, reduction)
        with pytest.raises(TypeError):
            op(reduction, x)
    assert x != reduction


@pytest.mark.parametrize(
    "op",
    [
        lambda r: r + r,
        lambda r: r - r,
        lambda r: r * r,
        lambda r: r * 2,
        lambda r: 2 * r,
        lambda r: r * Fraction(1, 2),
        lambda r: r**0,
        lambda r: r**1,
        lambda r: r**2,
        lambda r: -r,
    ],
    ids=("add", "sub", "mul", "scalar-mul", "scalar-rmul", "fraction-mul", "pow0", "pow1", "pow2", "neg"),
)
@pytest.mark.parametrize("p", (2, 7))
def test_every_operator_refuses_a_reduction_mod_p(op, p):
    """A reduce_mod result is read, never computed with: it is a dict of
    residues, which no ring operator takes."""
    reduction = SiegelExpansion(4, 2, {(0, 0, 0): 1, (1, 1, 1): 3}).reduce_mod(p)
    assert reduction == {(0, 0, 0): 1, (1, 1, 1): 3 % p}
    with pytest.raises(TypeError):
        op(reduction)


@pytest.mark.parametrize(
    "construct",
    [
        lambda: QSeries1(5, {0: 7}, modulus=5),
        lambda: DiagSeries(5, {(0, 0): 7}, modulus=5),
        lambda: SiegelExpansion(4, 5, {(0, 0, 0): 7}, modulus=5),
        lambda: SiegelExpansion.constant(7, 5, modulus=5),
    ],
    ids=("QSeries1", "DiagSeries", "SiegelExpansion", "constant"),
)
def test_no_series_constructor_takes_a_modulus(construct):
    """Residues do not pass for a series over Q: no constructor reduces
    7 to 2 mod 5 and drops the modulus; each refuses it."""
    with pytest.raises(TypeError, match="modulus"):
        construct()


def test_mixed_series_types_do_not_combine():
    q = QSeries1(2, {0: 1})
    d = DiagSeries(2, {(0, 0): 1})
    with pytest.raises(TypeError):
        _ = q + d
    with pytest.raises(TypeError):
        _ = q * d
    assert q != d


@pytest.mark.parametrize(
    "series, stored, refusals",
    [
        (
            QSeries1(3, {0: 1}),
            {(0,): 1, (3,): 0},
            {
                (1, 2): "index (1, 2) is not a QSeries1 key like 0",
                (1.0,): "index 1.0 is not a QSeries1 key like 0",
                (-1,): "index -1 outside the box [0..3]",
                (4,): "index 4 is beyond precision 3",
            },
        ),
        (
            DiagSeries(2, {(0, 1): 1}),
            {(0, 1): 1, (2, 2): 0},
            {
                (1,): "index 1 is not a DiagSeries key like (0, 0)",
                (0, 1, 2): "index (0, 1, 2) is not a DiagSeries key like (0, 0)",
                (0.5, 1): "index (0.5, 1) is not a DiagSeries key like (0, 0)",
                (-1, 0): "index (-1, 0) outside the box [0..2]",
                (3, 0): "index (3, 0) is beyond precision 2",
            },
        ),
        (
            SiegelExpansion(10, 5, {(1, -1, 1): 1}),
            {(1, -1, 1): 1, (5, 10, 5): 0},
            {
                (1, 2): "index (1, 2) is not a SiegelExpansion key like (0, 0, 0)",
                (1, 2, 3, 4): "index (1, 2, 3, 4) is not a SiegelExpansion key like (0, 0, 0)",
                (1.5, 0, 1): "index (1.5, 0, 1) is not a SiegelExpansion key like (0, 0, 0)",
                (-1, 0, 0): "index (-1, 0, 0) outside box [0..5]^2",
                (1, 0, 6): "index (1, 0, 6) is beyond precision 5",
                (0, 5, 0): "index (0, 5, 0) is not positive semi-definite",
            },
        ),
    ],
    ids=("QSeries1", "DiagSeries", "SiegelExpansion"),
)
def test_coeff_reads_only_the_keys_of_its_box(series, stored, refusals):
    """A key of the series' shape in its box reads its coefficient; any
    other key raises a ValueError that names it: a wrong length or a part
    that is not an integer, a part below 0 with the constructor's message,
    a key past the box as beyond the precision, a ``PrecisionError``."""
    for index, value in stored.items():
        assert series.coeff(*index) == value
    for index, refusal in refusals.items():
        with pytest.raises(ValueError) as info:
            series.coeff(*index)
        assert str(info.value) == refusal, index
        assert isinstance(info.value, PrecisionError) == ("beyond precision" in refusal), index


def test_mod_p_series_reduce_rational_coefficients():
    """Rational coefficients reduce mod p, the scalar products formed over Q."""
    half = SiegelExpansion(4, 2, {(0, 0, 0): Fraction(1, 2)})
    assert half.reduce_mod(5) == {(0, 0, 0): 3}
    assert (half * 2).reduce_mod(5) == {(0, 0, 0): 1}
    assert (half * Fraction(2, 3)).reduce_mod(5) == {(0, 0, 0): 2}
    with pytest.raises(NotPIntegral):
        SiegelExpansion(4, 2, {(0, 0, 0): Fraction(1, 5)}).reduce_mod(5)


@pytest.mark.parametrize("p", (4, 9, 1, 0, -5))
def test_reduce_mod_refuses_a_modulus_that_is_not_prime(p):
    """Residues are taken mod a prime only: not mod 4, not mod -5 with
    negative values, and not mod 0 with a ZeroDivisionError."""
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        SiegelExpansion(4, 2, {(0, 0, 0): 7, (1, 1, 1): -3}).reduce_mod(p)


@pytest.mark.parametrize(
    "series",
    [QSeries1(3, {0: 1}), DiagSeries(2, {(0, 1): 1}), SiegelExpansion(4, 2, {(0, 0, 0): 1})],
    ids=("QSeries1", "DiagSeries", "SiegelExpansion"),
)
def test_truncate_refuses_a_negative_precision(series):
    """A truncation below precision 0 is refused where it is asked for, as
    the constructor refuses it, not later in a sum."""
    for precision in (-1, -2):
        with pytest.raises(ValueError, match="precision must be >= 0"):
            series.truncate(precision)
    assert series.truncate(0).precision == 0
