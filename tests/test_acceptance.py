"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line.  Every assertion is exact: the checks
are congruences, rank equalities and coefficient identities over Q or F_p,
so there are no tolerances anywhere.
"""

import itertools

from siegel2.e8 import e8_pair_counts
from siegel2.expansion import diagonal_vanishing_order
from siegel2.qexp1 import diag_builder
from siegel2.verify import (
    sharpness_witness,
    sturm_bound,
    verify_identities,
    verify_theorem1_rank,
)

GEN_NAMES = ("X4", "X6", "X10", "X12", "Y12", "X16", "X35")


def _report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{number} {detail}")
    assert ok, f"criterion {number}: {detail}"


def _theorem1_grid():
    grid = []
    for k in range(4, 41, 2):
        for p in (5, 7):
            grid.append((k, p))
    for k in range(4, 17, 2):
        for p in (2, 3):
            grid.append((k, p))
    for k in (35, 39, 41, 43, 45, 47, 49, 51):
        for p in (2, 3, 5, 7):
            grid.append((k, p))
    return grid


def test_criterion_1_generator_pinning(registry):
    gens = {name: registry.generator(name, 8) for name in GEN_NAMES if name != "X35"}
    x4d = diag_builder("x4", 8)
    x6d = diag_builder("x6", 8)
    x12d = diag_builder("x12", 8)
    y12d = diag_builder("y12", 8)
    images_ok = (
        gens["X4"].witt(0) == x4d
        and gens["X6"].witt(0) == x6d
        and gens["X10"].witt(0).coeffs == {}
        and gens["X12"].witt(0) == x12d * 12
        and gens["Y12"].witt(0) == y12d
        and gens["X16"].witt(0) == x4d * x12d
    )
    oracle = e8_pair_counts(2, 2)
    x4 = gens["X4"]
    lattice_ok = True
    for m in range(3):
        for n in range(3):
            for r in range(-8, 9):
                want = oracle.get((m, r, n), 0)
                got = x4.coeff(m, r, n) if 4 * m * n - r * r >= 0 else 0
                lattice_ok = lattice_ok and want == got
    _report(
        1,
        images_ok and lattice_ok,
        "restriction images of X4, X6, X10, X12, Y12, X16 at B=8; "
        "X4 equals the E8 pair-count oracle for m, n <= 2",
    )


def test_criterion_2_taylor_layer_images(registry):
    x10 = registry.generator("X10", 6)
    x12 = registry.generator("X12", 6)
    x35 = registry.generator("X35", 6)
    ok = (
        x35.witt(1) == diag_builder("alpha36", 6)
        and x10.witt(2) == diag_builder("x12", 6)
        and x12.witt(2) == diag_builder("x2", 6) * diag_builder("x12", 6)
    )
    _report(2, ok, "W'(X35) = alpha36, W''(X10) = x12, W''(X12) = x2 x12 at B=6")


def test_criterion_3_mod_small_prime_congruences(registry):
    report2 = verify_identities("lemma10", p=2, precision=6, registry=registry)
    report3 = verify_identities("lemma10", p=3, precision=6, registry=registry)
    _report(
        3,
        report2.passed and report3.passed,
        "X4 = X6 = 1, X12 = X10, and both squared-X35 relations mod 2 and 3 at B=6",
    )


def test_criterion_4_rank_certificates(registry):
    failures = []
    for k, p in _theorem1_grid():
        precision = max(sturm_bound(k), 5)
        rep = verify_theorem1_rank(k, p, precision, registry)
        if not (rep.passed and rep.rank_truncated == rep.dim_c == rep.rank_full):
            failures.append((k, p))
    _report(
        4,
        not failures,
        f"rank(truncated at b_k) = dim M_k = rank(full box) for all "
        f"{len(_theorem1_grid())} (k, p) pairs; failures: {failures}",
    )


def test_criterion_5_sharpness_witnesses(registry):
    failures = []
    for k, p in _theorem1_grid():
        spec, rep = sharpness_witness(k, p, registry)
        if not rep.verdict:
            failures.append((k, p, str(spec)))
    _report(
        5,
        not failures,
        "every (k, p) admits a witness vanishing on the box b_k - 1 with a "
        f"unit leading coefficient mod p; failures: {failures}",
    )


def test_criterion_6_tensor_square_rank(registry):
    reports = [
        verify_identities("lemma12", p=p, registry=registry) for p in (2, 3, 5)
    ]
    ok = all(r.passed for r in reports)
    _report(6, ok, "truncated tensor-square bases have full rank, k in 4..24, p in {2,3,5}")


def test_criterion_7_x12_tensor_identity():
    report = verify_identities("x12-identity", precision=20)
    _report(7, report.passed, "2^12 3^6 x12 identity holds exactly at diagonal precision 20")


def test_criterion_8_vanishing_order_steps(registry):
    report = verify_identities("borcherds-structure", precision=6, registry=registry)
    _report(
        8,
        report.passed,
        "v(X10 g) = v(g) + 1 and v(X35 g) >= v(g) + 2 for every generator, p in {2,3,5}",
    )


def test_criterion_9_weight12_kernel(registry):
    report = verify_identities("prop1-w12", registry=registry)
    _report(9, report.passed, "mod-p restriction kernel in weight 12 is the X12 line, p in {2,3}")


def test_criterion_10_vanishing_order_submultiplicativity(registry):
    # Each product is formed once over Z and read mod every p.
    gens = {n: registry.generator(n, 6) for n in GEN_NAMES}
    pairs = list(itertools.combinations_with_replacement(GEN_NAMES, 2))
    products = {(a, b): gens[a] * gens[b] for a, b in pairs}
    bad = []
    for p in (2, 3, 5):
        order = {n: diagonal_vanishing_order(gens[n].reduce_mod(p)) for n in GEN_NAMES}
        for (a, b), fg in products.items():
            v = diagonal_vanishing_order(fg.reduce_mod(p))
            if not v >= max(order[a], order[b]):
                bad.append((a, b, p))
    _report(
        10,
        not bad,
        "v(fg) >= max(v(f), v(g)) over all generator pairs, p in {2,3,5}; "
        f"failures: {bad}",
    )
