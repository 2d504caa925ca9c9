import random
from collections import Counter
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel2 import qformat, verify
from siegel2.errors import NotPIntegral
from siegel2.expansion import SiegelExpansion, leading_index
from siegel2.generators import _LEADING, GENERATOR_WEIGHTS, GeneratorRegistry, MonomialSpec, taylor_lead
from siegel2.qexp1 import QSeries1
from siegel2.rationals import PrimePower, p_valuation
from siegel2.verify import (
    GENSET_C,
    GENSET_INTEGRAL,
    CoeffMatrix,
    SturmReport,
    Theorem1Report,
    box_indices,
    check_congruence,
    check_vanishing,
    fp_rank,
    layer_dimensions,
    layered_rank,
    matrix_from_forms,
    sharpness_witness,
    span_canonical,
    sturm_bound,
    verify_identities,
    verify_theorem1_rank,
    weight_monomials,
)


def test_sturm_bound_values():
    assert sturm_bound(10) == 1
    assert sturm_bound(12) == 1
    assert sturm_bound(35) == 3
    assert sturm_bound(83) == 7
    assert sturm_bound(4) == 0
    assert sturm_bound(47) == 4
    with pytest.raises(ValueError):
        sturm_bound(-2)


def test_sturm_bound_parity_and_monotonicity():
    for k in range(0, 120):
        b = sturm_bound(k)
        assert b == (k // 10 if k % 2 == 0 else (k - 5) // 10)
    evens = [sturm_bound(k) for k in range(0, 120, 2)]
    odds = [sturm_bound(k) for k in range(5, 121, 2)]
    assert evens == sorted(evens) and odds == sorted(odds)


def test_check_vanishing_examples(gens6):
    x10 = gens6["X10"]
    pp = PrimePower(2)
    assert check_vanishing(x10, pp, 0).verdict
    report = check_vanishing(x10, pp, 1)
    assert not report.verdict
    assert ((1, 1, 1), 0) in report.violations
    diff = gens6["X12"] - gens6["X10"]
    assert check_vanishing(diff, pp, 1).verdict


def test_check_vanishing_takes_an_integer_box(gens6):
    """Indices are integers at level 1, so a box of 1/2 is refused, not
    read as the box of 0."""
    with pytest.raises(ValueError, match=r"bound Fraction\(1, 2\) is not an integer"):
        check_vanishing(gens6["X10"], PrimePower(2), Fraction(1, 2))


def test_check_vanishing_flags_insufficient_precision(gens6):
    report = check_vanishing(gens6["X10"], PrimePower(2), 9)
    assert report.precision_note and "exceeds precision" in report.precision_note


def test_exceeds_precision_is_a_structured_field(gens6):
    x10 = gens6["X10"]
    assert check_vanishing(x10, PrimePower(2), 9).exceeds_precision
    assert not check_vanishing(x10, PrimePower(2), 6).exceeds_precision
    assert not check_congruence(x10, gens6["X12"], PrimePower(2)).exceeds_precision


def test_a_congruence_on_a_box_below_b_k_exceeds_precision(gens6):
    """X10 and X12 cut to precision 0 agree mod 2 on a box below b_12 = 1:
    the PASS covers only that box, and the report says so."""
    report = check_congruence(gens6["X10"].truncate(0), gens6["X12"].truncate(0), PrimePower(2))
    assert report.verdict and report.exceeds_precision
    assert report.precision_note == "truncation bound for weight 12 is 1; precision 0 does NOT cover it"


def test_check_vanishing_higher_powers(gens6):
    x4 = gens6["X4"]
    # every positive-index coefficient of X4 is divisible by 48
    assert check_vanishing(x4 - SiegelExpansion.constant(1, 6, weight=4), PrimePower(2, 4), 6).verdict
    assert check_vanishing(x4 - SiegelExpansion.constant(1, 6, weight=4), PrimePower(3), 6).verdict


def test_check_congruence_examples(gens6):
    one = SiegelExpansion.constant(1, 6)
    assert check_congruence(gens6["X4"], one, PrimePower(2)).verdict
    assert check_congruence(gens6["X12"], gens6["X10"], PrimePower(3)).verdict
    report = check_congruence(gens6["X4"], gens6["X6"], PrimePower(5))
    assert not report.verdict
    for name, exp in gens6.items():
        for p in (2, 3, 5):
            assert check_congruence(exp, exp, PrimePower(p)).verdict, (name, p)


def test_check_congruence_notes_bound_coverage(gens6):
    report = check_congruence(gens6["X12"], gens6["X10"], PrimePower(2))
    assert "weight 12 is 1" in report.precision_note
    assert "covers" in report.precision_note


def test_weight_monomials():
    names = [str(m) for m in weight_monomials(12, GENSET_C)]
    assert sorted(names) == ["X12", "X4^3", "X6^2"]
    assert len(weight_monomials(16, GENSET_C)) == 4
    odd = weight_monomials(35, list(GENSET_C) + ["X35"])
    assert [str(m) for m in odd] == ["X35"]
    assert weight_monomials(2, GENSET_INTEGRAL) == []
    assert weight_monomials(0, GENSET_C) == [MonomialSpec()]
    assert weight_monomials(33, list(GENSET_C) + ["X35"]) == []
    # deterministic ordering
    assert [str(m) for m in weight_monomials(24, GENSET_C)] == [
        str(m) for m in weight_monomials(24, GENSET_C)
    ]


def test_weight_monomials_are_fresh_lists_and_refuse_bad_input():
    """A repeat call returns an equal, fresh list, and invalid input raises
    on every call: an unknown generator, a genset out of the canonical
    order or with a repeat, a negative weight."""
    first = weight_monomials(47, GENSET_C + ("X35",))
    first.append(MonomialSpec())
    second = weight_monomials(47, list(GENSET_C) + ["X35"])
    assert second == first[:-1] and second is not first
    assert sorted(map(str, second)) == ["X12*X35", "X4^3*X35", "X6^2*X35"]
    for _ in range(2):
        with pytest.raises(ValueError):
            weight_monomials(12, ("X4", "X7"))
        with pytest.raises(ValueError):
            weight_monomials(40, ("X10", "X4", "X12", "X6"))
        with pytest.raises(ValueError):
            weight_monomials(12, ("X4", "X4", "X6"))
        with pytest.raises(ValueError):
            weight_monomials(-2, GENSET_C)


@pytest.mark.parametrize(
    "genset",
    [GENSET_C, GENSET_INTEGRAL, ("X6", "X10"), ("X10",), ()],
    ids=["GENSET_C", "GENSET_INTEGRAL", "X6-X10", "X10", "empty"],
)
def test_weight_monomials_keep_the_lexicographic_order(genset):
    """The monomials of every weight k <= 120, in both gensets and in the
    flat pass's edge cases (two generators whose weights share a factor,
    one generator, none), with and without X35, are every exponent vector
    of weight k (or k - 35 times X35), sorted ascending in genset order,
    X35 last."""

    def vectors(k, weights):
        if not weights:
            return [] if k else [()]
        return [
            (e, *rest)
            for e in range(k // weights[0] + 1)
            for rest in vectors(k - e * weights[0], weights[1:])
        ]

    weights = [GENERATOR_WEIGHTS[g] for g in genset]
    for odd in ((), ("X35",)):
        for k in range(121):
            even = k - 35 * (k % 2)
            exps = [] if k % 2 and not odd or even < 0 else sorted(vectors(even, weights))
            want = [
                MonomialSpec.from_dict({**dict(zip(genset, e)), "X35": k % 2}).exponents
                for e in exps
            ]
            got = [spec.exponents for spec in weight_monomials(k, genset + odd)]
            assert got == want, (k, genset + odd)


def test_fp_rank_examples(gens6):
    identity = CoeffMatrix([0, 1, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rank, kernel = fp_rank(identity, 2)
    assert rank == 3 and kernel == []
    indices = box_indices(6)
    rows = matrix_from_forms([gens6["X12"], gens6["X10"]], indices)
    rank, kernel = fp_rank(rows, 2)
    assert rank == 1 and kernel == [(1, 1)]
    zero = CoeffMatrix([0, 1], [[0, 0]])
    assert fp_rank(zero, 5) == (0, [(1,)])


def test_theorem1_rank_examples(registry):
    report = verify_theorem1_rank(12, 5, 5, registry)
    assert report.passed and report.rank_truncated == 3 == report.rank_full
    assert report.dim_c == 3
    report = verify_theorem1_rank(10, 2, 5, registry)
    assert report.passed and report.rank_full == 2
    assert sorted(map(str, report.monomials)) == ["X10", "X4*X6"]
    report = verify_theorem1_rank(35, 3, 5, registry)
    assert report.passed and report.rank_full == 1
    assert list(map(str, report.monomials)) == ["X35"]


def test_theorem1_pass_needs_the_dimension():
    # With no reason the rank on the box b_k is dim M_k, a PASS, and the
    # bound from above caps the box B; the ranks are read from dim_c.
    report = Theorem1Report(12, 5, 1, 5, dim_c=3)
    assert report.reason is None and report.passed
    assert report.rank_truncated == 3 == report.rank_full
    assert report.render() == (
        "PASS theorem1 k=12 p=5 rank<=b_k 3 == rank<=B 3 (0 monomials, dim_C = 3, b_k=1, B=5)"
    )
    for name in ("passed", "rank_truncated", "rank_full"):
        with pytest.raises(AttributeError):
            setattr(report, name, 2)
    # A reason, a short sum, is what makes a report a SKIP, and says
    # nothing of either box.
    report.reason = "layer 1: rank 1 of 2"
    assert report.reason is not None and not report.passed
    assert report.rank_truncated is report.rank_full is None
    assert report.render() == (
        "SKIP theorem1 k=12 p=5: not certifiable with available generators (layer 1: rank 1 of 2)"
    )


def test_theorem1_rank_extended_grid(registry):
    """Even weights 66..140 at p = 5, 7: 63 to 437 monomials, b_k up to 14."""
    # Built once at the top precision; every lower one is served by truncation.
    for name in GENSET_C:
        registry.generator(name, 14)
    for k in range(66, 141, 2):
        for p in (5, 7):
            rep = verify_theorem1_rank(k, p, max(sturm_bound(k), 5), registry)
            assert rep.passed, (k, p)
            assert rep.rank_truncated == rep.rank_full == rep.dim_c == len(rep.monomials)


def test_theorem1_rank_odd_weights_past_51(registry):
    """Odd weights 53..99 at p = 5, 7: X35 times the classical monomials, b_k up to 9."""
    for k in range(53, 100, 2):
        for p in (5, 7):
            rep = verify_theorem1_rank(k, p, max(sturm_bound(k), 5), registry)
            assert rep.passed, (k, p)
            assert rep.rank_truncated == rep.rank_full == rep.dim_c == len(rep.monomials)


def test_layer_dimensions_count_the_classical_monomials():
    for k in range(160):
        c_genset = GENSET_C + (("X35",) if k % 2 else ())
        want = Counter(spec.layer for spec in weight_monomials(k, c_genset))
        assert layer_dimensions(k) == dict(want), k
    dims = [sum(layer_dimensions(k).values()) for k in (4, 10, 12, 35, 37, 39, 100)]
    assert dims == [1, 2, 3, 1, 0, 1, 182]
    assert layer_dimensions(24) == {0: 3, 1: 3, 2: 2}
    assert layer_dimensions(45) == {2: 1, 3: 1}


def leading_rows(monomials, bound, registry):
    """The oracle for the certificates' layer blocks and for the witnesses:
    each monomial's row m = layer, cut to n <= bound, over Z, as one
    ``_product`` of the powers of its factors' leading rows from the lift
    formula (``generator_row``), each power formed once per call.  A row
    over Z serves every prime: its reduction mod p is the row mod p."""
    powers, rows = {}, []
    for spec in monomials:
        for name, e in spec.exponents:
            if (name, e) not in powers:
                powers[name, e] = registry.generator_row(name, bound) ** e
        factors = [powers[name, e] for name, e in reversed(spec.exponents)]
        rows.append(SiegelExpansion._product(factors or [SiegelExpansion.constant(1, bound)]))
    return rows


def test_leading_rows_are_the_layer_rows_of_the_monomials(registry):
    """For every monomial of weight <= 60 in the generators and X35, the
    leading row is row m = layer of the whole monomial mod p: in ``GENSET_C``
    at p = 5 and 7, and at p = 11, where no generator has the constant row;
    in ``GENSET_INTEGRAL`` at p = 2 and 3, where X4 and X6 both have it.
    Each case runs on a fresh registry in ascending weight, and again in
    descending weight, where the generators' rows at a b_k below the
    largest are cuts of rows held from above."""
    cases = ((GENSET_C, (5, 7, 11), 535), (GENSET_INTEGRAL, (2, 3), 1336))
    for genset, primes, count in cases:
        for descending in (False, True):
            reg = GeneratorRegistry(registry.cache_dir)
            seen = 0
            for k in sorted(range(61), reverse=descending):
                b = sturm_bound(k)
                precision = max(b, 5)
                specs = weight_monomials(k, genset + ("X35",))
                rows = leading_rows(specs, b, reg)
                for p in primes:
                    for spec, row in zip(specs, rows):
                        whole = registry.monomial(spec, precision).reduce_mod(p)
                        want = {
                            key: c
                            for key, c in whole.items()
                            if key[0] == spec.layer and key[2] <= b
                        }
                        assert row.reduce_mod(p) == want and row.precision == b, (str(spec), p)
                        assert all(min(key[0], key[2]) >= spec.layer for key in whole)
                        seen += 1
            assert seen == len(primes) * count


def _grid_ops():
    """The acceptance grid's certificates and witnesses, and the
    certificates at even k = 42..64 with p in {5, 7}."""
    grid = [(k, p) for k in range(4, 41, 2) for p in (5, 7)]
    grid += [(k, p) for k in range(4, 17, 2) for p in (2, 3)]
    grid += [(k, p) for k in (35, 39, 41, 43, 45, 47, 49, 51) for p in (2, 3, 5, 7)]
    ops = [("theorem1", k, p) for k, p in grid]
    ops += [("theorem1", k, p) for k in range(42, 65, 2) for p in (5, 7)]
    return ops + [("witness", k, p) for k, p in grid]


def _run_op(op, reg):
    kind, k, p = op
    if kind == "theorem1":
        return verify_theorem1_rank(k, p, max(sturm_bound(k), 5), reg).render()
    spec, report = sharpness_witness(k, p, reg)
    return f"{spec} {report.render()}"


def test_verdicts_do_not_depend_on_the_order_of_the_ops(registry):
    """On one registry, the grid's verdicts in ascending, descending and
    shuffled order, where rows are formed at one b_k and cut at another,
    are those of a fresh registry per op."""
    ops = _grid_ops()
    fresh = {op: _run_op(op, GeneratorRegistry(registry.cache_dir)) for op in ops}
    shuffled = list(ops)
    random.Random(7).shuffle(shuffled)
    orders = (sorted(ops, key=lambda op: op[1]), sorted(ops, key=lambda op: -op[1]), shuffled)
    for order in orders:
        reg = GeneratorRegistry(registry.cache_dir)
        assert {op: _run_op(op, reg) for op in order} == fresh


def block_ranks(monomials, bound, p, registry):
    """The oracle the Taylor ranks bound from below: the F_p rank of each
    block j of leading rows (``leading_rows``) on its columns (j, r, n),
    j <= n <= bound."""
    blocks = {}
    for spec, row in zip(monomials, leading_rows(monomials, bound, registry)):
        blocks.setdefault(spec.layer, []).append(row)
    return {
        j: fp_rank(
            matrix_from_forms(
                rows,
                [(j, r, n) for n in range(j, bound + 1) for r in range(-isqrt(4 * j * n), isqrt(4 * j * n) + 1)],
            ),
            p,
        )[0]
        for j, rows in blocks.items()
    }


def test_taylor_sub_blocks_fit_under_b_k():
    """The inequality of the p >= 5 argument (``verify`` module docstring):
    for every weight k <= 600 and every X10^c X12^d, times X35 (e = 1) in
    odd weight, that leaves a rest w = k - 10c - 12d - 35e >= 0 for
    E4^a E6^b, the sub-block's columns n <= J + floor(w/12), J = c + d + 3e,
    lie within b_k."""
    count = 0
    for k in range(601):
        e, b = k % 2, sturm_bound(k)
        for c in range(k // 10 + 1):
            for d in range(k // 12 + 1):
                w = k - 10 * c - 12 * d - 35 * e
                if w < 0:
                    break
                assert c + d + 3 * e + w // 12 <= b, (k, c, d)
                count += 1
    assert count > 100_000


def test_taylor_sums_are_the_layer_dimensions_at_p_ge_5(registry):
    """The p >= 5 argument (``verify`` module docstring): every Taylor
    sub-block of the ``GENSET_C`` monomials has full rank on n <= b_k, so
    the sum per layer is ``layer_dimensions(k)``, at p in {5, 7, 11, 13},
    even k <= 180 and odd k <= 181."""
    for p in (5, 7, 11, 13):
        reg = GeneratorRegistry(registry.cache_dir)
        for k in range(182):
            odd = ("X35",) if k % 2 else ()
            specs = weight_monomials(k, GENSET_C + odd)
            assert layered_rank(specs, sturm_bound(k), p, reg) == layer_dimensions(k), (k, p)


def test_taylor_ranks_are_the_layer_block_ranks(registry):
    """Per layer the Taylor rank is at most the block rank, and equal to it
    on the acceptance grid, at even k = 42..64 for p in {5, 7}, and at
    p in {2, 3} for even k <= 100 and odd k <= 105 (168 cases).  X16 and
    X4*X12 share their leading coefficient E4*Delta up to the unit 12 mod 7
    but not their rows, so there the Taylor rank is the smaller."""
    cases = {(k, p) for kind, k, p in _grid_ops() if kind == "theorem1"}
    low = [k for k in range(4, 101, 2)] + [k for k in range(35, 106, 2) if k != 37]
    cases |= {(k, p) for k in low for p in (2, 3)}
    assert len(cases) == 108 + 168 - 30  # the grid has 30 of the 168
    for k, p in sorted(cases):
        b = sturm_bound(k)
        odd = ("X35",) if k % 2 else ()
        specs = weight_monomials(k, (GENSET_C if p >= 5 else GENSET_INTEGRAL) + odd)
        assert layered_rank(specs, b, p, registry) == block_ranks(specs, b, p, registry), (k, p)
    pair = [MonomialSpec.from_dict({"X16": 1}), MonomialSpec.from_dict({"X4": 1, "X12": 1})]
    for b in range(1, 6):
        taylor, blocks = layered_rank(pair, b, 7, registry), block_ranks(pair, b, 7, registry)
        assert taylor == {1: 1} and blocks == {1: 2}, b


def test_a_row_that_is_zero_on_the_cut_adds_no_rank(registry):
    """X35's row starts at n = 3: below that it is 0 on n <= bound, so its
    monomials add nothing, and the layer still has its (zero) rank."""
    specs = [MonomialSpec.from_dict({"X35": 1}), MonomialSpec.from_dict({"X4": 1, "X35": 1})]
    for bound, want in ((2, {2: 0}), (3, {2: 1})):
        assert layered_rank(specs, bound, 5, registry) == want == block_ranks(specs, bound, 5, registry)


def taylor_ranks(monomials, bound, p, registry):
    """The oracle for ``layered_rank``: each monomial's ``QSeries1`` product
    over Z of its factors' ``taylor_lead`` residues, reduced mod p, none for
    a factor 0 mod p on n <= bound, grouped by (layer, sum of e v), and each
    group's ``dense_rank`` summed per layer."""
    groups, ranks, held = {}, {}, {}
    for spec in monomials:
        ranks[spec.layer] = 0
        for name, _ in spec.exponents:
            if name not in held:
                held[name] = taylor_lead(registry.generator_row(name, bound).reduce_mod(p), p)
        leads = [(held[name], e) for name, e in spec.exponents]
        if any(lead is None for lead, _ in leads):
            continue
        series = [QSeries1(bound, h) for (_, h), e in leads for _ in range(e)] or [QSeries1(bound, {0: 1})]
        row = QSeries1._product(series).coeffs
        t = sum(v * e for (v, _), e in leads)
        groups.setdefault((spec.layer, t), []).append([row.get(n, 0) % p for n in range(bound + 1)])
    for (j, _), rows in groups.items():
        ranks[j] += dense_rank(rows, p)
    return ranks


def test_layered_ranks_are_the_taylor_sub_block_oracle(registry):
    """``layered_rank`` equals ``taylor_ranks`` for every weight k <= 70 and
    p in {2, 3, 5, 7, 11}, on the certificates' monomials, at every bound
    0..b_k.  Below b_k the rows of X10, X12 and X35 vanish on the cut, so
    this covers zero rows, unit factors (X4 at p in {2, 3, 5}, X6 at p in
    {2, 3, 7}) and lone rows."""
    for p in (2, 3, 5, 7, 11):
        for k in range(71):
            odd = ("X35",) if k % 2 else ()
            specs = weight_monomials(k, (GENSET_C if p >= 5 else GENSET_INTEGRAL) + odd)
            for bound in range(sturm_bound(k) + 1):
                want = taylor_ranks(specs, bound, p, registry)
                assert layered_rank(specs, bound, p, registry) == want, (k, p, bound)


def test_certificates_form_no_two_variable_product(registry, monkeypatch):
    """A certificate that passes by layers, or is a SKIP, multiplies only
    one-variable leading coefficients: no ``SiegelExpansion._product``, on a
    fresh registry, in even and odd weight and at every kind of prime."""

    def refuse(factors):
        raise AssertionError("a certificate formed a two-variable product")

    monkeypatch.setattr(SiegelExpansion, "_product", staticmethod(refuse))
    for k, p in ((18, 2), (20, 2), (51, 3), (64, 5), (41, 7), (60, 11), (99, 13)):
        report = verify_theorem1_rank(k, p, max(sturm_bound(k), 5), GeneratorRegistry(registry.cache_dir))
        assert report.passed == (report.reason is None), (k, p)


def _box_matrix(registry, specs, precision, b):
    """The Z monomials' coefficients on the whole box and on the box b."""
    indices = box_indices(precision)
    full = [
        [registry.monomial(spec, precision).coeffs.get(key, 0) for key in indices]
        for spec in specs
    ]
    inside = [j for j, (m, _, n) in enumerate(indices) if m <= b and n <= b]
    return [[row[j] for j in inside] for row in full], full


# The weights past 16 and 51 whose layer sums reach dim M_k at p = 2 and 3.
COVERED_PAST_THE_GENERATORS = (20, 22, 26, 32, 55, 57, 61, 67)


def test_layer_sums_prove_the_rank_at_2_and_3(registry):
    """At every covered p in {2, 3} weight the layer sum is dim M_k, which is
    the dense rank of the Z monomials, reduced mod p, on the box b_k and on
    the whole box."""
    for p in (2, 3):
        weights = list(range(0, 17, 2)) + list(range(35, 52, 2))
        for k in weights + list(COVERED_PAST_THE_GENERATORS):
            b = sturm_bound(k)
            precision = max(b, 5)
            specs = weight_monomials(k, GENSET_INTEGRAL + (("X35",) if k % 2 else ()))
            truncated, full = _box_matrix(registry, specs, precision, b)
            got = sum(layered_rank(specs, b, p, registry).values())
            assert got == sum(layer_dimensions(k).values()) == dense_rank(truncated, p), (k, p)
            assert dense_rank(full, p) == got, (k, p)


def test_layer_ranks_decide_coverage_at_2_and_3(registry):
    """At p in {2, 3}, even k in 18..60 and odd k in 53..95, a weight is a
    PASS exactly when each layer's block of leading rows has the dense rank
    of its target, the number of layer-j monomials in GENSET_C (and X35).
    Every other weight is a SKIP that names each short layer."""
    for name in GENSET_INTEGRAL + ("X35",):
        registry.generator(name, 9)  # the top precision first, then truncations
    for p in (2, 3):
        for k in list(range(18, 61, 2)) + list(range(53, 96, 2)):
            b = sturm_bound(k)
            precision = max(b, 5)
            odd = ("X35",) if k % 2 else ()
            specs = weight_monomials(k, GENSET_INTEGRAL + odd)
            rows = [row.reduce_mod(p) for row in leading_rows(specs, b, registry)]
            targets = Counter(spec.layer for spec in weight_monomials(k, GENSET_C + odd))
            # Y12 and X16 share weight and layer with X6^2 and X6*X10.
            assert {spec.layer for spec in specs} == targets.keys(), (k, p)
            short = []
            for j in sorted(targets):
                columns = [
                    (j, r, n)
                    for n in range(j, b + 1)
                    for r in range(-isqrt(4 * j * n), isqrt(4 * j * n) + 1)
                ]
                block = [
                    [row.get(key, 0) for key in columns]
                    for spec, row in zip(specs, rows)
                    if spec.layer == j
                ]
                rank = dense_rank(block, p)
                assert rank <= targets[j], (k, p, j)
                if rank < targets[j]:
                    short.append(f"layer {j}: rank {rank} of {targets[j]}")
            report = verify_theorem1_rank(k, p, precision, registry)
            if k in COVERED_PAST_THE_GENERATORS:
                assert not short and report.passed, (k, p)
                assert report.rank_truncated == report.rank_full == report.dim_c
            else:
                assert short and report.reason is not None and not report.passed, (k, p)
                assert report.reason == ", ".join(short), (k, p)


def test_full_rank_blocks_form_no_whole_monomial(registry, monkeypatch):
    """A layer sum of dim M_k is the whole certificate at every prime: no
    certificate forms a monomial on the whole box."""
    formed = []
    monomial = GeneratorRegistry.monomial

    def counted(self, spec, precision):
        formed.append(str(spec))
        return monomial(self, spec, precision)

    monkeypatch.setattr(GeneratorRegistry, "monomial", counted)
    for k, p in ((16, 2), (51, 3), (40, 5), (41, 7), (64, 7)):
        assert verify_theorem1_rank(k, p, max(sturm_bound(k), 5), registry).passed
    assert formed == []


def test_a_block_kernel_still_passes_by_layers(registry, monkeypatch):
    """A duplicated monomial gives its block a kernel, but the layer sum
    still reaches dim M_k, and the ranks are the dense reference ranks."""
    k, p, precision = 24, 5, 5
    b = sturm_bound(k)
    doubled = weight_monomials(k, GENSET_C)
    doubled.append(doubled[-1])
    assert sum(layered_rank(doubled, b, p, registry).values()) == sum(layer_dimensions(k).values())
    monkeypatch.setattr(verify, "weight_monomials", lambda k, genset: doubled)
    report = verify_theorem1_rank(k, p, precision, registry)
    truncated, full = _box_matrix(registry, doubled, precision, b)
    assert report.passed and len(report.monomials) == report.dim_c + 1
    assert report.rank_truncated == dense_rank(truncated, p) == report.dim_c
    assert report.rank_full == dense_rank(full, p) == report.dim_c


@pytest.mark.parametrize(
    "k, p, short",
    [
        pytest.param(16, 2, "layer 1: rank 1 of 2", id="16-2"),
        pytest.param(24, 5, "layer 2: rank 1 of 2", id="24-5"),
    ],
)
def test_a_short_layer_sum_is_a_skip_naming_the_short_layer(registry, monkeypatch, k, p, short):
    """A dropped monomial (X16 at k = 16, X12^2 at k = 24) leaves its
    layer's Taylor sum one short of dim M_k.  A short sum proves nothing, at
    p = 2, where the integral generators are not known to span M_k, and at
    p = 5 alike: the certificate is a SKIP naming the short layer, and it
    forms no monomial on the whole box.  One box below b_k, where the
    witness vanishes, the dense rank of all the monomials is below dim M_k."""
    precision, b = 5, sturm_bound(k)
    monomials = weight_monomials(k, GENSET_C if p >= 5 else GENSET_INTEGRAL)
    dim = sum(layer_dimensions(k).values())
    truncated, _ = _box_matrix(registry, monomials, precision, b - 1)
    assert dense_rank(truncated, p) < dim
    dropped = monomials[1:]
    assert str(monomials[0]) == ("X16" if p == 2 else "X12^2")
    assert sum(layered_rank(dropped, b, p, registry).values()) == dim - 1

    def refuse(*args):
        raise AssertionError("a short layer sum formed a whole-box monomial")

    monkeypatch.setattr(verify, "weight_monomials", lambda k, genset: dropped)
    monkeypatch.setattr(GeneratorRegistry, "monomial", refuse)
    report = verify_theorem1_rank(k, p, precision, registry)
    assert report.reason is not None and not report.passed
    assert report.rank_truncated is report.rank_full is None
    assert report.render() == (
        f"SKIP theorem1 k={k} p={p}: not certifiable with available generators ({short})"
    )


def test_a_cached_generator_nonzero_below_its_layer_is_rebuilt(tmp_path, registry, gens6):
    """The registry pins what it loads: a cached X10 with a(0, 0, 1) =
    a(1, 0, 0) = 1 is a miss and is rebuilt.  A certificate reads no cache
    file, so it passes and leaves the bad file where it is."""
    x10 = gens6["X10"].truncate(5)
    coeffs = dict(x10.coeffs)
    coeffs[0, 0, 1] = coeffs[1, 0, 0] = 1
    bad = SiegelExpansion(10, 5, coeffs)
    assert not bad.symmetry_violations()
    path = tmp_path / "X10.p5.qexp"
    path.write_text(qformat.dump_siegel(bad, "X10"), encoding="utf-8")
    reg = GeneratorRegistry(tmp_path)
    report = verify_theorem1_rank(20, 5, 5, reg)
    assert report.passed
    assert report.render() == verify_theorem1_rank(20, 5, 5, registry).render()
    assert path.exists()
    # A request for X10 at b_20 = 2 deletes the bad file and writes the
    # rebuild at that precision.
    assert reg.generator("X10", 2) == x10.truncate(2)
    assert not path.exists()
    rebuilt = tmp_path / "X10.p2.qexp"
    assert rebuilt.read_text(encoding="utf-8") == qformat.dump_siegel(x10.truncate(2), "X10")


def test_certificates_and_witnesses_ask_the_registry_at_b_k(registry, monkeypatch):
    """A passing certificate, a SKIP and a witness read no generator: they
    ask only for leading rows from the lift formula (``generator_row``), at
    b_k, whatever the box B."""
    asked = {"generator": [], "generator_row": [], "monomial": []}
    for method in asked:
        original = getattr(GeneratorRegistry, method)

        def at(self, first, precision, method=method, original=original):
            asked[method].append(precision)
            return original(self, first, precision)

        monkeypatch.setattr(GeneratorRegistry, method, at)

    def fresh(k, p, run):
        """The precisions ``run`` asks of a fresh registry over the cache:
        a registry holds the rows it has formed, and finds them again."""
        for precisions in asked.values():
            del precisions[:]
        assert run(GeneratorRegistry(registry.cache_dir)), (k, p)
        return {method: set(precisions) for method, precisions in asked.items()}

    for k, p in ((20, 2), (51, 3), (40, 5), (41, 7)):
        b = sturm_bound(k)
        want = {"generator": set(), "generator_row": {b}, "monomial": set()}
        assert fresh(k, p, lambda reg: verify_theorem1_rank(k, p, 9, reg).passed) == want
        assert fresh(k, p, lambda reg: sharpness_witness(k, p, reg)[1].verdict) == want
    dropped = weight_monomials(24, GENSET_C)[1:]
    monkeypatch.setattr(verify, "weight_monomials", lambda k, genset: dropped)
    got = fresh(24, 5, lambda reg: verify_theorem1_rank(24, 5, 9, reg).reason is not None)
    assert got == {"generator": set(), "generator_row": {2}, "monomial": set()}
    got = fresh(24, 5, lambda reg: sharpness_witness(24, 5, reg)[1].verdict)
    assert got == {"generator": set(), "generator_row": {2}, "monomial": set()}


def test_a_certificate_on_an_empty_cache_writes_only_b_k(tmp_path, registry):
    """A cold certificate with B = 9 and cold witnesses up to weight 300
    read and write no cache file: the directory stays empty."""
    report = verify_theorem1_rank(40, 5, 9, GeneratorRegistry(tmp_path))
    assert report.passed
    assert report.render() == verify_theorem1_rank(40, 5, 9, registry).render()
    assert list(tmp_path.iterdir()) == []
    cold = ((300, 5, "X10^30 PASS box<=29 mod 5"), (155, 7, "X10^12*X35 PASS box<=14 mod 7"))
    for k, p, want in cold:
        spec, report = sharpness_witness(k, p, GeneratorRegistry(tmp_path))
        assert f"{spec} {report.render()}" == want
        assert list(tmp_path.iterdir()) == []


def dense_rank(entries, p):
    """Reference rank over F_p: Gaussian elimination on the rows, pivot by pivot."""
    rows = [[x % p for x in row] for row in entries]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _forms(entries):
    """Forms for ``matrix_from_forms``; column j of row i is entries[i][j]."""
    return [SimpleNamespace(coeffs=dict(enumerate(row))) for row in entries]


def _ranks_by_fp_rank(entries, split, p):
    ncols = len(entries[0]) if entries else 0
    truncated = matrix_from_forms(_forms(entries), range(split))
    full = matrix_from_forms(_forms(entries), range(ncols))
    return fp_rank(truncated, p)[0], fp_rank(full, p)[0]


@st.composite
def matrices(draw):
    """(entries, split, p), with zero rows, repeated rows and tall shapes."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ncols = draw(st.integers(0, 6))
    row = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
    entries = draw(st.lists(row, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "repeat", "multiple")))
        at = draw(st.integers(0, len(entries)))
        if kind == "zero" or not entries:
            extra = [0] * ncols
        else:
            source = draw(st.sampled_from(entries))
            factor = 1 if kind == "repeat" else draw(st.integers(-3, 3))
            extra = [factor * x for x in source]
        entries.insert(at, extra)
    return entries, draw(st.integers(0, ncols)), p


@settings(max_examples=200, deadline=None)
@given(case=matrices(), data=st.data())
def test_fp_rank_kernel_and_span_match_dense_rank(case, data):
    entries, split, p = case
    ncols = len(entries[0]) if entries else 0
    want = dense_rank([row[:split] for row in entries], p), dense_rank(entries, p)
    assert want == _ranks_by_fp_rank(entries, split, p)
    # Left kernel: nrows - rank independent vectors v with v * M = 0 mod p.
    rank, kernel = fp_rank(matrix_from_forms(_forms(entries), range(ncols)), p)
    assert len(kernel) == len(entries) - rank
    for v in kernel:
        for j in range(ncols):
            assert sum(a * row[j] for a, row in zip(v, entries)) % p == 0
    assert dense_rank(kernel, p) == len(kernel)
    # Canonical span: the same for a shuffled, scaled and recombined copy.
    copy = [list(row) for row in data.draw(st.permutations(entries))]
    for i in range(len(copy)):
        factor = data.draw(st.integers(1, p - 1))
        copy[i] = [factor * x for x in copy[i]]
        if len(copy) > 1:
            j = data.draw(st.sampled_from([j for j in range(len(copy)) if j != i]))
            c = data.draw(st.integers(-p, p))
            copy[i] = [x + c * y for x, y in zip(copy[i], copy[j])]
    canonical = span_canonical(entries, p)
    assert span_canonical(copy, p) == canonical
    assert len(canonical) == want[1]


def test_fp_ranks_of_column_splits_examples():
    # p = 2, a zero row, a repeated row, and more rows than columns.
    entries = [[1, 1, 0], [0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert _ranks_by_fp_rank(entries, 1, 2) == (1, 2)
    assert _ranks_by_fp_rank(entries, 3, 3) == (3, 3)
    assert _ranks_by_fp_rank([], 0, 5) == (0, 0)
    assert _ranks_by_fp_rank([[0, 0], [0, 0]], 1, 7) == (0, 0)
    assert _ranks_by_fp_rank([[1, 0, 5], [0, 1, 6]], 2, 5) == (2, 2)
    with pytest.raises(ValueError):
        _ranks_by_fp_rank(entries, 1, 4)


def test_theorem1_rank_refuses_uncovered_cases(registry):
    report = verify_theorem1_rank(20, 2, 5, registry)
    assert report.passed and report.render().startswith("PASS theorem1 k=20 p=2")
    for k, p, reason in ((18, 3, "layer 1: rank 1 of 2"), (53, 2, "layer 3: rank 1 of 2")):
        report = verify_theorem1_rank(k, p, 5, registry)
        assert report.reason is not None
        assert not report.passed
        assert report.render() == (
            f"SKIP theorem1 k={k} p={p}: not certifiable with available generators ({reason})"
        )
    # odd weights below 35 and weight 37 are covered but empty: the zero
    # space passes vacuously
    for k, p in ((37, 5), (33, 5), (31, 2)):
        report = verify_theorem1_rank(k, p, 5, registry)
        assert report.reason is None and report.passed and report.dim_c == 0
    with pytest.raises(ValueError):
        verify_theorem1_rank(12, 4, 5, registry)
    with pytest.raises(ValueError):
        verify_theorem1_rank(40, 5, 3, registry)
    with pytest.raises(ValueError):
        verify_theorem1_rank(60, 2, 5, registry)  # b_60 = 6, short weights included


def test_truncation_below_bound_is_not_injective(registry):
    """The witness family certifies tightness: one box smaller loses rank."""
    for k, p in ((10, 2), (22, 5), (12, 3)):
        b = sturm_bound(k)
        monomials = weight_monomials(k, GENSET_C if p >= 5 else GENSET_INTEGRAL)
        forms = [registry.monomial(spec, 5) for spec in monomials]
        indices = box_indices(5)
        full = matrix_from_forms(forms, indices)
        small = matrix_from_forms(
            forms, [key for key in indices if key[0] <= b - 1 and key[2] <= b - 1]
        )
        rank_small, _ = fp_rank(small, p)
        rank_full, _ = fp_rank(full, p)
        assert rank_small < rank_full, (k, p)


def test_sharpness_witness_examples(registry):
    spec, report = sharpness_witness(10, 3, registry)
    assert str(spec) == "X10" and report.verdict
    spec, report = sharpness_witness(22, 5, registry)
    assert str(spec) == "X10*X12" and report.verdict
    spec, report = sharpness_witness(47, 2, registry)
    assert str(spec) == "X12*X35" and report.verdict
    spec, report = sharpness_witness(4, 7, registry)
    assert str(spec) == "X4" and report.verdict
    spec, report = sharpness_witness(45, 3, registry)
    assert str(spec) == "X10*X35" and report.verdict


def test_witnesses_form_no_monomial_and_no_power(registry, monkeypatch):
    """A witness is read from its factors' leading indices mod p: it forms
    no whole-box monomial and no Z power, up to X10^20 at weight 200."""

    def refuse(*args):
        raise AssertionError("a witness formed a Z monomial or power")

    monkeypatch.setattr(GeneratorRegistry, "monomial", refuse)
    monkeypatch.setattr(GeneratorRegistry, "power", refuse)
    cases = (
        (4, 7, "X4"), (22, 5, "X10*X12"), (35, 3, "X35"), (47, 2, "X12*X35"), (200, 5, "X10^20")
    )
    for k, p, name in cases:
        spec, report = sharpness_witness(k, p, registry)
        assert str(spec) == name
        assert report.render() == f"PASS box<={sturm_bound(k) - 1} mod {p}"


def whole_monomial_witness(k, p, registry):
    """The oracle: the witness of ``reference_witness`` formed over Z on the
    whole box b_k, scanned for nonzero coefficients inside the box b_k - 1,
    and reduced mod p on the whole box for its leading term."""
    spec, _ = reference_witness(k)
    b = sturm_bound(k)
    exp = registry.monomial(spec, b)
    violations = [
        (key, p_valuation(exp.coeffs[key], p))
        for key in exp.support()
        if key[0] < b and key[2] < b
    ]
    reduced = exp.reduce_mod(p)
    if not reduced:
        raise ValueError(f"witness {spec} vanishes mod {p} on its box")
    lead = leading_index(reduced)
    unit = lead == spec.leading_index
    note = None if unit else f"leading term {lead} differs from expected {spec.leading_index}"
    return spec, SturmReport(b - 1, PrimePower(p), not violations and unit, violations, note)


def test_row_witnesses_match_the_whole_monomial_oracle(registry):
    # Highest weight first, so each generator is built once at its top precision.
    for k in range(100, 3, -1):
        if k % 2 and (k < 35 or k == 37):
            continue
        for p in (2, 3, 5, 7, 11):
            spec, report = sharpness_witness(k, p, registry)
            want_spec, want = whole_monomial_witness(k, p, registry)
            assert spec == want_spec and report == want, (k, p)
            assert report.render() == want.render(), (k, p)


def row_witness(k, p, registry):
    """The oracle: the witness of ``reference_witness`` with its leading row
    formed (``leading_rows``), scanned for nonzero entries inside the box
    b_k - 1, and read for its leading term."""
    spec, _ = reference_witness(k)
    b = sturm_bound(k)
    exact = leading_rows([spec], b, registry)[0]
    row = exact.reduce_mod(p)
    if not row:
        raise ValueError(f"witness {spec} vanishes mod {p} on its box")
    violations = [(key, 0) for key in exact.support() if key in row and key[0] < b and key[2] < b]
    lead = leading_index(row)
    unit = lead == spec.leading_index
    note = None if unit else f"leading term {lead} differs from expected {spec.leading_index}"
    return spec, SturmReport(b - 1, PrimePower(p), not violations and unit, violations, note)


def test_witnesses_match_the_formed_row_oracle(registry):
    """The summed leading indices give the witness of the formed leading
    row, report and render, at every weight <= 201 and p in {2, 3, 5, 7,
    11, 13}."""
    for k in range(4, 202):
        if k % 2 and (k < 35 or k == 37):
            continue
        for p in (2, 3, 5, 7, 11, 13):
            spec, report = sharpness_witness(k, p, registry)
            want_spec, want = row_witness(k, p, registry)
            assert spec == want_spec and report == want, (k, p)
            assert report.render() == want.render(), (k, p)


class OneGenerator(GeneratorRegistry):
    """A registry that serves one expansion as every generator's leading row."""

    def __init__(self, exp):
        super().__init__()
        self.exp = exp

    def generator_row(self, name, bound):
        return self.exp


def test_sharpness_witness_reads_the_leading_index_mod_p():
    # Weight 10 has b_k = 1 and expects its leading index at (1, -1, 1).
    exp = SiegelExpansion(10, 1, {(1, -1, 1): 3, (1, 0, 1): 1, (1, 1, 1): 3})
    _, report = sharpness_witness(10, 5, OneGenerator(exp))
    assert report.verdict and report.precision_note is None
    _, report = sharpness_witness(10, 3, OneGenerator(exp))
    assert not report.verdict
    assert report.precision_note == "leading term (1, 0, 1) differs from expected (1, -1, 1)"
    with pytest.raises(ValueError, match="vanishes mod 3"):
        sharpness_witness(10, 3, OneGenerator(SiegelExpansion(10, 1, {(1, 0, 1): 6})))
    # A non-p-integral entry is rejected, also one after the leading index.
    bad = SiegelExpansion(10, 1, {(1, -1, 1): 1, (1, 1, 1): Fraction(1, 3)})
    with pytest.raises(NotPIntegral):
        sharpness_witness(10, 3, OneGenerator(bad))
    assert sharpness_witness(10, 5, OneGenerator(bad))[1].verdict


class LeadingTerms(GeneratorRegistry):
    """A registry that serves each generator's leading row as its leading
    term alone."""

    def generator_row(self, name, bound):
        index, coefficient = _LEADING[name]
        return SiegelExpansion(GENERATOR_WEIGHTS[name], bound, {index: coefficient})


# The hand-written witness tables and leading-index formulas that the
# derived odd witnesses (X35 times an even witness) must reproduce.
REFERENCE_EVEN = {0: {}, 2: {"X12": 1}, 4: {"X4": 1}, 6: {"X6": 1}, 8: {"X4": 2}}
REFERENCE_ODD_FAMILY = {5: 35, 9: 39, 1: 41, 3: 43, 7: 47}
REFERENCE_ODD_FACTORS = {35: {}, 39: {"X4": 1}, 41: {"X6": 1}, 43: {"X4": 2}, 47: {"X12": 1}}


def reference_witness(k):
    """The weight-k witness and its expected leading index, from the tables."""
    if k % 2 == 0:
        rho = k % 10
        exponents = dict(REFERENCE_EVEN[rho])
        power = k // 10 - (1 if rho == 2 else 0)
        if power:
            exponents["X10"] = power
        b = sturm_bound(k)
        return MonomialSpec.from_dict(exponents), (b, -b, b)
    family = REFERENCE_ODD_FAMILY[k % 10]
    i = (k - family) // 10
    exponents = dict(REFERENCE_ODD_FACTORS[family], X35=1)
    if i:
        exponents["X10"] = i
    index = (3 + i, -2 - i, 4 + i) if family == 47 else (2 + i, -1 - i, 3 + i)
    return MonomialSpec.from_dict(exponents), index


def test_witnesses_match_the_reference_tables():
    for k in range(4, 201):
        if k % 2 and (k < 35 or k == 37):
            with pytest.raises(ValueError, match=f"no nonzero forms of weight {k}$"):
                sharpness_witness(k, 5, LeadingTerms())
            continue
        spec, index = reference_witness(k)
        got, report = sharpness_witness(k, 5, LeadingTerms())
        assert got == spec and got.leading_index == index, k
        assert report.verdict and report.bound_used == sturm_bound(k) - 1, k


def test_sharpness_witness_rejects_empty_spaces(registry):
    for k in (0, 2, 33, 37):
        with pytest.raises(ValueError):
            sharpness_witness(k, 2, registry)
    with pytest.raises(ValueError):
        sharpness_witness(10, 6, registry)


def test_verify_identities_unknown_suite(registry):
    with pytest.raises(ValueError):
        verify_identities("lemma99", registry=registry)


def test_a_call_without_a_registry_caches_under_siegel2_cache_as_set_at_the_call(tmp_path, monkeypatch):
    """No registry outlives a call: each call without one reads
    $SIEGEL2_CACHE anew, so a second directory set between two calls gets
    the same files as the first."""
    held = []
    for cache in (tmp_path / "first", tmp_path / "second"):
        monkeypatch.setenv("SIEGEL2_CACHE", str(cache))
        assert verify_identities("witt-images", precision=1).passed
        held.append(sorted(f.name for f in cache.iterdir()) if cache.is_dir() else [])
    assert held[0] and held[1] == held[0]


def test_reports_are_deterministic(registry):
    a = verify_identities("witt-images", precision=4, registry=registry).render()
    b = verify_identities("witt-images", precision=4, registry=registry).render()
    assert a == b
    assert a.endswith("RESULT witt-images 9/9")


def test_prop1_suite(registry):
    report = verify_identities("prop1-w12", registry=registry)
    assert report.passed
    assert any("kernel" in line[1] for line in report.lines)
