import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegel2.errors import NotPIntegral, PrecisionError
from siegel2.expansion import (
    SiegelExpansion,
    box_indices,
    diagonal_vanishing_order,
    leading_index,
    theta_determinant,
    wronskian35,
)
from siegel2.generators import GeneratorRegistry, MonomialSpec
from siegel2.qexp1 import DiagSeries, QSeries1, diag_builder

GEN_NAMES = ("X4", "X6", "X10", "X12", "Y12", "X16", "X35")


def leading_term(exp):
    """(index, coefficient) at the least index of a nonzero expansion's
    support in the (m, n, r) order."""
    index = leading_index(exp.coeffs)
    return index, exp.coeffs[index]


def permutation_det(matrix):
    """The Leibniz sum over the 24 permutations, formed with ``__mul__`` and ``+``."""
    total = None
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = matrix[0][perm[0]] * matrix[1][perm[1]] * matrix[2][perm[2]] * matrix[3][perm[3]]
        if inversions % 2:
            term = -term
        total = term if total is None else total + term
    return total


def theta_matrix(forms):
    return [
        [f.weight * f for f in forms],
        [f.theta(1) for f in forms],
        [f.theta(12) for f in forms],
        [f.theta(2) for f in forms],
    ]


def test_theta_determinant_of_the_generators_against_permutation_oracle(gens6):
    forms = [gens6[name].truncate(5) for name in ("X4", "X6", "X10", "X12")]
    got = theta_determinant(forms)
    assert got == permutation_det(theta_matrix(forms))
    assert got.precision == 5 and got.coeffs


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
def theta_columns(draw):
    """Four expansions on a small box, integral or with denominators,
    any weight tag.  Half the draws are generic: every column a full box of
    random signs at precision 3, the smallest box on which a swap-symmetric
    determinant with mixed signs reads its mirrored blocks; the rest mix
    sparse columns and full boxes of one sign.  Half the draws are
    swap-symmetric, each column with its own sign, save at most one column
    with none; the rest have no symmetry."""
    generic = draw(st.booleans())
    precision = 3 if generic else draw(st.integers(0, 3))
    symmetric = draw(st.booleans())
    unsigned = draw(st.one_of(st.none(), st.integers(0, 3))) if symmetric else None
    forms = []
    for i in range(4):
        own = precision + draw(st.integers(0, 1))
        keys = box_indices(own)
        if generic or draw(st.booleans()):
            top = 2 ** draw(st.integers(1, 90)) - 1
            sign = None if generic else draw(st.sampled_from((1, -1, None)))
            coeffs = {k: sign or draw(st.sampled_from((1, -1))) for k in keys}
            coeffs = {k: top * c for k, c in coeffs.items()}
        else:
            coeff = st.integers(-(2**70), 2**70)
            if draw(st.booleans()):
                coeff = st.builds(Fraction, coeff, st.integers(1, 12))
            coeffs = draw(st.dictionaries(st.sampled_from(keys), coeff, max_size=12))
        if symmetric and i != unsigned:
            coeffs = swap_symmetric(coeffs, draw(st.sampled_from((1, -1))))
        weight = draw(st.integers(-40, 40))
        forms.append(SiegelExpansion(weight, own, coeffs))
    return forms


def example_column(weight, sign, salt, den=1):
    """A full box of distinct coefficients at precision 3, over ``den``,
    swap-symmetric with ``sign`` unless it is None."""
    coeffs = {k: Fraction((7 * i + salt) ** 3 - 500, den) for i, k in enumerate(box_indices(3))}
    return SiegelExpansion(weight, 3, coeffs if sign is None else swap_symmetric(coeffs, sign))


@settings(max_examples=60, deadline=None)
@given(forms=theta_columns())
# Opposite signs and distinct weights inside each column pair: the
# S_m <-> S_n cross-mirror of the folded passes.
@example(forms=[example_column(4, 1, 1), example_column(7, -1, 2),
                example_column(10, -1, 3), example_column(-3, 1, 4)])
# The last column has no swap sign: every pass runs the whole box.
@example(forms=[example_column(4, 1, 1), example_column(6, 1, 2),
                example_column(10, 1, 3), example_column(12, None, 4)])
# A Fraction column in each pair.
@example(forms=[example_column(4, 1, 1, den=3), example_column(5, -1, 2),
                example_column(10, 1, 3), example_column(-7, -1, 4, den=10)])
def test_theta_determinant_against_permutation_oracle(forms):
    assert theta_determinant(forms) == permutation_det(theta_matrix(forms))


def test_theta_determinant_refuses_bad_columns(gens6):
    """Four columns, each with a weight tag: no other count and no untagged
    column is taken."""
    columns = [gens6[name].truncate(3) for name in ("X4", "X6", "X10", "X12")]
    for forms in ([], columns[:3], columns + columns[:1]):
        with pytest.raises(ValueError, match="needs four columns"):
            theta_determinant(forms)
    untagged = SiegelExpansion(None, 3, {(1, 0, 1): 1})
    with pytest.raises(ValueError, match="needs a weight tag"):
        theta_determinant(columns[:3] + [untagged])


def test_ring_examples(registry, gens6):
    x4, x10, x12 = gens6["X4"], gens6["X10"], gens6["X12"]
    assert (x4 * x12).coeff(1, 0, 1) == 10
    lt = leading_term(x10 * x12)
    assert lt[0] == (2, -2, 2) and lt[1] == 1
    assert lt == leading_term(x12 * x10) and hash(lt) == hash(leading_term(x12 * x10))
    assert lt != leading_term(x10)
    assert (x4 * 0).coeffs == {}
    assert (x4 * x12).weight == 16
    assert (x4 + x4).coeff(0, 0, 1) == 480


def test_add_respects_weight_tags(gens6):
    assert (gens6["X4"] + gens6["X4"]).weight == 4
    assert (gens6["X4"] + gens6["X6"]).weight is None


def test_precision_and_scale_rules(gens6):
    x4 = gens6["X4"]
    assert (x4.truncate(3) * x4).precision == 3
    with pytest.raises(PrecisionError):
        x4.truncate(9)
    # Every expansion is of level 1: the scale is a constant, not an option.
    assert x4.scale == SiegelExpansion.scale == 1
    with pytest.raises(TypeError):
        SiegelExpansion(4, 6, {(0, 0, 0): 1}, scale=2)


def test_constructor_validation():
    # Products and parsed files skip these checks; the constructor keeps them.
    with pytest.raises(ValueError, match="not positive semi-definite"):
        SiegelExpansion(4, 2, {(1, 3, 1): 1})
    with pytest.raises(ValueError, match="outside box"):
        SiegelExpansion(4, 2, {(3, 0, 1): 1})
    with pytest.raises(ValueError, match="outside the box"):
        DiagSeries(2, {(0, 3): 1})
    with pytest.raises(ValueError, match="outside the box"):
        QSeries1(2, {-1: 1})
    exp = SiegelExpansion(4, 2, {(1, 0, 1): Fraction(4, 2), (1, 1, 1): 0})
    assert exp.coeffs == {(1, 0, 1): 2}


def test_reduce_mod_examples(gens6):
    x4red = gens6["X4"].reduce_mod(2)
    assert x4red == {(0, 0, 0): 1}
    x10red = gens6["X10"].reduce_mod(2)
    x12red = gens6["X12"].reduce_mod(2)
    assert x10red == x12red
    third = gens6["X4"] * Fraction(1, 3)
    with pytest.raises(NotPIntegral) as info:
        third.reduce_mod(3)
    assert "(0, 0, 0)" in str(info.value)


def test_symmetry_check(gens6):
    assert gens6["X4"].symmetry_violations() == []
    x35 = gens6["X35"]
    assert x35.symmetry_violations() == []
    assert all(key[1] != 0 for key in x35.coeffs)
    lopsided = SiegelExpansion(4, 2, {(1, 1, 1): 1, (1, -1, 1): 2})
    bad = lopsided.symmetry_violations()
    assert bad and bad[0] == (1, -1, 1)


def test_theta_derivatives(gens6):
    x10 = gens6["X10"]
    t1 = x10.theta(1)
    assert t1.coeff(1, 1, 1) == 1
    assert t1.coeff(2, 1, 1) == 2 * x10.coeff(2, 1, 1)
    assert t1.weight == 12
    t12 = gens6["X4"].theta(12)
    assert all(
        t12.coeff(m, -r, n) == -t12.coeff(m, r, n)
        for (m, r, n) in t12.coeffs
    )
    t2 = gens6["X4"].theta(2)
    assert all(key[2] != 0 for key in t2.coeffs)
    with pytest.raises(ValueError):
        x10.theta(3)


def test_witt_examples(gens6):
    assert gens6["X10"].witt(0).coeffs == {}
    assert gens6["X12"].witt(0) == diag_builder("x12", 6) * 12
    assert gens6["X10"].witt(2).coeff(1, 1) == 1
    assert gens6["X10"].witt(2) == diag_builder("x12", 6)
    # parity: odd order kills even weights, even orders kill odd weights
    for name in ("X4", "X6", "X10", "X12", "Y12", "X16"):
        assert gens6[name].witt(1).coeffs == {}
    assert gens6["X35"].witt(0).coeffs == {}
    assert gens6["X35"].witt(2).coeffs == {}
    # swap symmetry: a(n, r, m) = (-1)^k a(m, r, n) makes every layer (-1)^k-symmetric
    for g in gens6.values():
        for order in range(3):
            image, sign = g.witt(order), (-1) ** g.weight
            assert all(image.coeff(n, m) == sign * c for (m, n), c in image.coeffs.items())


def test_witt_product_rules(gens6):
    """Restriction is a ring map; the Taylor layers obey the product rule."""
    pairs = list(itertools.combinations_with_replacement(GEN_NAMES, 2))
    for a, b in pairs:
        f, g = gens6[a], gens6[b]
        fg = f * g
        assert fg.witt(0) == f.witt(0) * g.witt(0), (a, b)
        assert fg.witt(1) == f.witt(1) * g.witt(0) + f.witt(0) * g.witt(1), (a, b)
        if f.weight % 2 == 0 and g.weight % 2 == 0:
            assert fg.witt(2) == f.witt(2) * g.witt(0) + f.witt(0) * g.witt(2), (a, b)


def test_leading_term_examples(gens6):
    assert leading_index(gens6["X35"].coeffs) == (2, -1, 3)
    f47 = gens6["X12"] * gens6["X35"]
    assert leading_index(f47.coeffs) == (3, -2, 4)
    assert leading_index(gens6["Y12"].coeffs) == (0, 0, 1)
    assert leading_index((gens6["X4"] * 0).coeffs) is None


def test_leading_term_multiplicative(gens6):
    for a, b in itertools.combinations_with_replacement(GEN_NAMES, 2):
        la, lb = leading_term(gens6[a]), leading_term(gens6[b])
        lab = leading_term(gens6[a] * gens6[b])
        assert lab[0] == tuple(x + y for x, y in zip(la[0], lb[0]))
        assert lab[1] == la[1] * lb[1]


def test_vanishing_order_examples(gens6):
    for p in (2, 3, 5):
        assert diagonal_vanishing_order(gens6["X10"].reduce_mod(p)) == 1
        assert diagonal_vanishing_order(gens6["X35"].reduce_mod(p)) == 3
    zero = (gens6["X4"] * 0).reduce_mod(5)
    assert diagonal_vanishing_order(zero) is None


def test_vanishing_order_product_properties(gens6):
    """Products formed once over Z, then read mod each p."""
    pairs = list(itertools.combinations_with_replacement(GEN_NAMES, 2))
    products = {(a, b): gens6[a] * gens6[b] for a, b in pairs}
    for p in (2, 3, 5):
        order = {n: diagonal_vanishing_order(gens6[n].reduce_mod(p)) for n in GEN_NAMES}
        for (a, b), fg in products.items():
            v = diagonal_vanishing_order(fg.reduce_mod(p))
            assert v >= max(order[a], order[b]), (a, b, p)
        for name in GEN_NAMES:
            stepped = products[tuple(sorted(("X10", name), key=GEN_NAMES.index))]
            assert diagonal_vanishing_order(stepped.reduce_mod(p)) == order[name] + 1


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from((2, 3, 5)))
def test_residue_readers_against_a_scan_of_the_box(data, p):
    """``reduce_mod`` holds exactly the nonzero residues, in [1, p), of an
    integral expansion on its support; ``leading_index`` is the first of
    them met in a scan of ``box_indices``, which runs in (m, n, r) order,
    and ``diagonal_vanishing_order`` the least b whose box m, n <= b holds
    one of them.  Both read None from no residues."""
    precision = data.draw(st.integers(0, 3))
    keys = box_indices(precision)
    coeffs = data.draw(st.dictionaries(st.sampled_from(keys), st.integers(-12, 12), max_size=8))
    residues = SiegelExpansion(0, precision, coeffs).reduce_mod(p)
    assert type(residues) is dict
    assert residues == {key: c % p for key, c in coeffs.items() if c % p}
    assert all(type(v) is int and 1 <= v < p for v in residues.values())
    scan = [key for key in keys if key in residues]
    assert leading_index(residues) == (scan[0] if scan else None)
    boxes = [b for b in range(precision + 1) if any(max(m, n) <= b for m, _, n in scan)]
    assert diagonal_vanishing_order(residues) == (boxes[0] if boxes else None)
    assert leading_index({}) is None and diagonal_vanishing_order({}) is None


def test_leading_terms_of_reduced_monomials(registry):
    """Products of the three mod-p diagonal generators keep unit leading
    terms at the predicted indices, for every combination of weight <= 48."""
    for p in (2, 3):
        for a in range(5):
            for b in range(5):
                for c in range(4):
                    if 10 * a + 12 * b + 16 * c > 48:
                        continue
                    spec = MonomialSpec.from_dict({"X10": a, "Y12": b, "X16": c})
                    residues = registry.monomial(spec, 5).reduce_mod(p)
                    assert leading_index(residues) == (a + c, -a, a + b + c), (p, a, b, c)


def test_wronskian35_of_the_generators_folds_every_pass(registry, accumulate_folds):
    """X4-X12 are swap-symmetric, so all 10 block passes form half the box."""
    forms = [registry.generator(name, 5) for name in ("X4", "X6", "X10", "X12")]
    x35 = registry.generator("X35", 5)
    accumulate_folds.clear()
    assert wronskian35(*forms) == x35
    assert accumulate_folds == [True] * 10


def test_x35_certificate_row_folds_no_pass(tmp_path, accumulate_folds):
    """X35's leading row is the determinant of the rows of X4-X12, which have
    no mirrors and so no swap sign: all 10 block passes run the whole box."""
    reg = GeneratorRegistry(tmp_path)
    for name in ("X4", "X6", "X10", "X12"):
        reg.generator_row(name, 6)
    accumulate_folds.clear()
    row = reg.generator_row("X35", 6)
    assert accumulate_folds == [False] * 10
    assert min(key[0] for key in row.coeffs) == 2


def test_wronskian_validation(gens6):
    with pytest.raises(ValueError):
        wronskian35(gens6["X4"], gens6["X6"], gens6["X10"], gens6["X16"])
    with pytest.raises(PrecisionError):
        wronskian35(
            *(gens6[n].truncate(2) for n in ("X4", "X6", "X10", "X12"))
        )


def test_wronskian_matches_registry(registry, gens6):
    built = wronskian35(
        gens6["X4"], gens6["X6"], gens6["X10"], gens6["X12"]
    )
    assert built == registry.generator("X35", 6)
    assert built.weight == 35
    assert all(built.coeff(1, r, n) == 0 for n in range(7) for r in range(-5, 6) if 4 * n >= r * r)
    assert all(built.coeff(m, r, m) == 0 for (m, r, n) in built.coeffs if m == n)
