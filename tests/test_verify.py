from collections import Counter
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel2 import qformat, verify
from siegel2.errors import NotPIntegral
from siegel2.expansion import SiegelExpansion
from siegel2.generators import _LEADING, GENERATOR_WEIGHTS, GeneratorRegistry, MonomialSpec
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
    igusa_dimension,
    layered_rank,
    leading_rows,
    matrix_from_forms,
    sharpness_witness,
    span_canonical,
    streamed_ranks,
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
    assert sturm_bound(10, index_i=2) == 2
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


def test_check_vanishing_flags_insufficient_precision(gens6):
    report = check_vanishing(gens6["X10"], PrimePower(2), 9)
    assert report.precision_note and "exceeds precision" in report.precision_note


def test_exceeds_precision_is_a_structured_field(gens6):
    x10 = gens6["X10"]
    assert check_vanishing(x10, PrimePower(2), 9).exceeds_precision
    assert not check_vanishing(x10, PrimePower(2), 6).exceeds_precision
    assert not check_congruence(x10, gens6["X12"], PrimePower(2)).exceeds_precision


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
    assert sorted(report.monomials) == ["X10", "X4*X6"]
    report = verify_theorem1_rank(35, 3, 5, registry)
    assert report.passed and report.rank_full == 1
    assert report.monomials == ["X35"]


def test_theorem1_pass_needs_the_dimension():
    # Equal ranks below dim M_k are not a certificate.
    report = Theorem1Report(12, 5, 1, 5, dim_c=3, rank_truncated=2, rank_full=2)
    assert report.certifiable and not report.passed
    report.rank_truncated = report.rank_full = 3
    assert report.passed
    assert report.render() == (
        "PASS theorem1 k=12 p=5 rank<=b_k 3 == rank<=B 3 (0 monomials, dim_C = 3, b_k=1, B=5)"
    )
    report.rank_full = 4
    assert not report.passed
    assert report.render() == (
        "FAIL theorem1 k=12 p=5 rank<=b_k 3 == rank<=B 4 (0 monomials, dim_C = 3, b_k=1, B=5)"
    )
    # A reason is what makes a report a SKIP.
    report.reason = "layer 1: rank 1 of 2"
    assert not report.certifiable and not report.passed
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


def test_igusa_dimension_counts_the_classical_monomials():
    for k in range(120):
        c_genset = GENSET_C + (("X35",) if k % 2 else ())
        assert igusa_dimension(k) == len(weight_monomials(k, c_genset)), k
    assert [igusa_dimension(k) for k in (4, 10, 12, 35, 37, 39, 100)] == [1, 2, 3, 1, 0, 1, 182]


def test_leading_rows_are_the_layer_rows_of_the_monomials(registry):
    """For every monomial of weight <= 60 in X4, X6, X10, X12 and X35, the
    product of leading rows is row m = layer of the whole monomial mod p."""
    genset = GENSET_C + ("X35",)
    count = 0
    for k in range(61):
        b = sturm_bound(k)
        precision = max(b, 5)
        specs = weight_monomials(k, genset)
        for p in (5, 7):
            rows = leading_rows(specs, b, precision, p, registry)
            for spec, row in zip(specs, rows):
                whole = registry.monomial(spec, precision).reduce_mod(p)
                want = {
                    key: c
                    for key, c in whole.coeffs.items()
                    if key[0] == spec.layer and key[2] <= b
                }
                assert row.coeffs == want, (str(spec), p)
                assert all(min(key[0], key[2]) >= spec.layer for key in whole.coeffs)
                count += 1
    assert count == 2 * 535


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
            got = sum(layered_rank(specs, b, precision, p, registry).values())
            assert got == igusa_dimension(k) == dense_rank(truncated, p), (k, p)
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
            rows = leading_rows(specs, b, precision, p, registry)
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
                    [row.coeffs.get(key, 0) for key in columns]
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
                assert short and not report.certifiable and not report.passed, (k, p)
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
    assert sum(layered_rank(doubled, b, precision, p, registry).values()) == igusa_dimension(k)
    monkeypatch.setattr(verify, "weight_monomials", lambda k, genset: doubled)
    report = verify_theorem1_rank(k, p, precision, registry)
    truncated, full = _box_matrix(registry, doubled, precision, b)
    assert report.passed and len(report.monomials) == report.dim_c + 1
    assert report.rank_truncated == dense_rank(truncated, p) == report.dim_c
    assert report.rank_full == dense_rank(full, p) == report.dim_c


def test_a_short_layer_sum_falls_back_to_the_full_elimination(registry, monkeypatch):
    """A dropped monomial leaves the layer sum short of dim M_k; the
    certificate then eliminates the whole monomials, its ranks are the
    dense reference ranks, and it fails."""
    k, p, precision = 24, 5, 5
    b = sturm_bound(k)
    dropped = weight_monomials(k, GENSET_C)[1:]
    assert sum(layered_rank(dropped, b, precision, p, registry).values()) == igusa_dimension(k) - 1
    monkeypatch.setattr(verify, "weight_monomials", lambda k, genset: dropped)
    report = verify_theorem1_rank(k, p, precision, registry)
    truncated, full = _box_matrix(registry, dropped, precision, b)
    assert report.rank_truncated == dense_rank(truncated, p)
    assert report.rank_full == dense_rank(full, p) == report.dim_c - 1
    assert not report.passed and report.render().startswith("FAIL theorem1 k=24 p=5")
    # One box below b_k (where the witness X4*X10^2 vanishes) the truncated
    # rank falls below the full one, and each is its dense reference rank.
    monkeypatch.undo()
    monkeypatch.setattr(verify, "sturm_bound", lambda k: b - 1)
    report = verify_theorem1_rank(k, p, precision, registry)
    truncated, full = _box_matrix(registry, weight_monomials(k, GENSET_C), precision, b - 1)
    assert report.rank_truncated == dense_rank(truncated, p) < report.dim_c
    assert report.rank_full == dense_rank(full, p) == report.dim_c
    assert not report.passed


def test_a_short_layer_sum_at_2_is_a_skip_without_whole_monomials(registry, monkeypatch):
    """At p = 2 the integral generators are not known to span M_k, so a
    short layer sum is no counterexample: with X16 dropped at k = 16 the
    certificate is a SKIP naming the short layer, and it forms no monomial
    on the whole box."""
    k, p, precision = 16, 2, 5
    dropped = weight_monomials(k, GENSET_INTEGRAL)[1:]
    assert str(weight_monomials(k, GENSET_INTEGRAL)[0]) == "X16"

    def refuse(*args):
        raise AssertionError("a short layer sum at p = 2 formed a whole-box monomial")

    def without_x16(k, genset):
        return dropped if "Y12" in genset else weight_monomials(k, genset)

    monkeypatch.setattr(verify, "weight_monomials", without_x16)
    monkeypatch.setattr(GeneratorRegistry, "monomial", refuse)
    report = verify_theorem1_rank(k, p, precision, registry)
    assert not report.certifiable and not report.passed
    assert report.rank_truncated is report.rank_full is None
    assert report.render() == (
        "SKIP theorem1 k=16 p=2: not certifiable with available generators "
        "(layer 1: rank 1 of 2)"
    )


def test_a_cached_generator_nonzero_below_its_layer_is_rebuilt(tmp_path, registry, gens6):
    """The registry pins what it loads: a cached X10 with a(0, 0, 1) =
    a(1, 0, 0) = 1 is a miss, and the certificate passes on the rebuilt X10."""
    x10 = gens6["X10"].truncate(5)
    coeffs = dict(x10.coeffs)
    coeffs[0, 0, 1] = coeffs[1, 0, 0] = 1
    bad = SiegelExpansion(10, 5, coeffs)
    assert not bad.symmetry_violations()
    path = tmp_path / "X10.p5.qexp"
    path.write_text(qformat.dump_siegel(bad, "X10"), encoding="utf-8")
    report = verify_theorem1_rank(20, 5, 5, GeneratorRegistry(tmp_path))
    assert report.passed
    assert report.render() == verify_theorem1_rank(20, 5, 5, registry).render()
    assert path.read_text(encoding="utf-8") == qformat.dump_siegel(x10, "X10")


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


def _streamed(entries, split, p):
    rows = [dict(enumerate(row)) for row in entries]
    ncols = len(entries[0]) if entries else 0
    return streamed_ranks(rows, range(split), range(split, ncols), p)


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
def test_streamed_ranks_match_fp_rank(case, data):
    entries, split, p = case
    ncols = len(entries[0]) if entries else 0
    want = dense_rank([row[:split] for row in entries], p), dense_rank(entries, p)
    assert _streamed(entries, split, p) == want == _ranks_by_fp_rank(entries, split, p)
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


def test_streamed_ranks_examples():
    # p = 2, a zero row, a repeated row, and more rows than columns.
    entries = [[1, 1, 0], [0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert _streamed(entries, 1, 2) == (1, 2) == _ranks_by_fp_rank(entries, 1, 2)
    assert _streamed(entries, 3, 3) == (3, 3)
    assert _streamed([], 0, 5) == (0, 0)
    assert _streamed([[0, 0], [0, 0]], 1, 7) == (0, 0)
    # Full rank inside the split stops the elimination early.
    assert _streamed([[1, 0, 5], [0, 1, 6]], 2, 5) == (2, 2)
    with pytest.raises(ValueError):
        _streamed(entries, 1, 4)


def test_theorem1_rank_refuses_uncovered_cases(registry):
    report = verify_theorem1_rank(20, 2, 5, registry)
    assert report.passed and report.render().startswith("PASS theorem1 k=20 p=2")
    for k, p, reason in ((18, 3, "layer 1: rank 1 of 2"), (53, 2, "layer 3: rank 1 of 2")):
        report = verify_theorem1_rank(k, p, 5, registry)
        assert not report.certifiable
        assert not report.passed
        assert report.render() == (
            f"SKIP theorem1 k={k} p={p}: not certifiable with available generators ({reason})"
        )
    # odd weights below 35 and weight 37 are covered but empty: the zero
    # space passes vacuously
    for k, p in ((37, 5), (33, 5), (31, 2)):
        report = verify_theorem1_rank(k, p, 5, registry)
        assert report.certifiable and report.passed and report.dim_c == 0
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
        forms = [registry.monomial(spec, 5).reduce_mod(p) for spec in monomials]
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
    """A witness is read from one leading row mod p: it forms no whole-box
    monomial and no Z power, up to X10^20 at weight 200."""

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
    if reduced.is_zero():
        raise ValueError(f"witness {spec} vanishes mod {p} on its box")
    lead = reduced.leading_term().index
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


class OneGenerator:
    """A registry stand-in that serves one expansion as every generator."""

    def __init__(self, exp):
        self.exp = exp

    def generator(self, name, precision):
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


class LeadingTerms:
    """A registry stand-in that serves each generator as its leading term alone."""

    def generator(self, name, precision):
        index, coefficient = _LEADING[name]
        return SiegelExpansion(GENERATOR_WEIGHTS[name], precision, {index: coefficient})


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


def test_reports_are_deterministic(registry):
    a = verify_identities("witt-images", precision=4, registry=registry).render()
    b = verify_identities("witt-images", precision=4, registry=registry).render()
    assert a == b
    assert a.endswith("RESULT witt-images 9/9")


def test_prop1_suite(registry):
    report = verify_identities("prop1-w12", registry=registry)
    assert report.passed
    assert any("kernel" in line[1] for line in report.lines)
