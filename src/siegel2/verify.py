"""Sturm bounds, congruence checks, exact linear algebra, and identity suites.

The truncation bound for weight k at level index i is

    floor(k*i / 10)        for even k*i,
    floor((k*i - 5) / 10)  for odd k*i.

``check_vanishing`` tests the hypothesis "every coefficient in the box is
divisible by p^nu" on exact expansions; ``verify_theorem1_rank`` certifies
at desk scale that truncating at the bound loses no mod-p information, by
showing in F_p that the weight-k monomials have rank dim M_k on the
truncated box; ``sharpness_witness`` produces a form showing the bound
cannot be lowered, read from its leading row mod p on the certificate's
premise (below).  Every rank, left kernel and canonical span over F_p
comes from one echelon basis (``Echelon``); a left kernel is the
complement of the column span.

The certificate is one argument for every prime.  From above: each
monomial is an integral weight-k form, and M_k(Z) is a lattice of rank
dim M_k whose reduction mod p has kernel p M_k(Z), so the monomials' F_p
rank is at most dim M_k on any box.  From below, by layers: a generator of
layer l (the m of its leading index: 0 for X4, X6 and Y12, 1 for X10, X12
and X16, 2 for X35) vanishes wherever min(m, n) < l, so a monomial of
layer j, the sum of its factors' layers, vanishes there too, and its row
m = j is the product of its factors' rows m = l.  With rows ordered by
layer and columns by t = min(m, n), the matrix is block upper triangular,
so its rank on the box b_k is at least the sum over j of the rank of block
j, the layer-j rows on the columns (j, r, n), j <= n <= b_k.  That sum
needs only leading rows (``layered_rank``); when it is dim M_k, so are the
truncated and the full rank, whatever integral rows were taken.  Any other
sum proves nothing: at p >= 5 one elimination of the whole monomials gives
the exact ranks; at p in {2, 3} the certificate is a SKIP naming short layers.

``verify_identities`` bundles the named suites exercised by the CLI:

* witt-images          -- pinned diagonal-restriction images of the generators
* lemma10              -- the mod-2/mod-3 congruences among the generators,
                          including both squared odd-generator relations
* prop1-w12            -- the kernel of the mod-p restriction map in weight 12,
                          skipped on a box where the forms' rank is below dim M_12
* lemma12              -- full rank of truncated tensor squares of degree-1 forms
* x12-identity         -- the exact tensor identity behind 2^12 3^6 x12
* borcherds-structure  -- diagonal vanishing orders under multiplication by
                          the weight-10 and weight-35 cusp forms
"""

from __future__ import annotations

from collections import Counter
from math import isqrt

from .errors import PrecisionError
from .expansion import BeyondPrecision, SiegelExpansion, box_indices
from .generators import (
    GENERATOR_NAMES,
    GENERATOR_WEIGHTS,
    WITT_LAYERS,
    WITT_PINS,
    GeneratorRegistry,
    MonomialSpec,
    default_registry,
    witt_image,
)
from .qexp1 import delta1, diag_builder, diag_tensor, eisenstein1
from .rationals import PrimePower, is_prime, p_valuation, reduce_mod_p
from .records import Record
from .series import chain_power

GENSET_C = ("X4", "X6", "X10", "X12")
GENSET_INTEGRAL = ("X4", "X6", "X10", "X12", "Y12", "X16")

def sturm_bound(k: int, index_i: int = 1) -> int:
    """Truncation bound for weight k and level index i (default level 1)."""
    if k < 0 or index_i < 1:
        raise ValueError("need weight >= 0 and index >= 1")
    ki = k * index_i
    if ki % 2 == 0:
        return ki // 10
    return (ki - 5) // 10


class SturmReport(Record):
    """Outcome of a vanishing or congruence check.

    ``exceeds_precision`` is set when the requested bound lies beyond the
    expansion's precision, so the verdict only covers the computed box.
    """

    __slots__ = (
        "bound_used", "prime_power", "verdict", "violations", "precision_note",
        "exceeds_precision",
    )

    def __init__(
        self, bound_used, prime_power: PrimePower, verdict: bool, violations: list,
        precision_note: str | None = None, exceeds_precision: bool = False,
    ):
        self.bound_used = bound_used
        self.prime_power = prime_power
        self.verdict = verdict
        self.violations = violations
        self.precision_note = precision_note
        self.exceeds_precision = exceeds_precision

    def render(self) -> str:
        lines = []
        status = "PASS" if self.verdict else "FAIL"
        lines.append(
            f"{status} box<={self.bound_used} mod {self.prime_power}"
        )
        for (m, r, n), val in self.violations:
            lines.append(f"  violation ({m},{r},{n}) valuation {val}")
        if self.precision_note:
            lines.append(f"  note: {self.precision_note}")
        return "\n".join(lines)


def check_vanishing(f: SiegelExpansion, pp: PrimePower, bound) -> SturmReport:
    """Check p^nu | a(m, r, n) for every index with m/s, n/s <= bound.

    The bound may be rational (fractional indices at higher level).  If it
    exceeds the expansion's precision the report flags the insufficiency;
    the verdict then only covers the available box.
    """
    if f.modulus is not None:
        raise ValueError("vanishing checks need exact coefficients")
    if bound < 0:
        raise ValueError(f"bound {bound} is below 0")
    note = None
    exceeds = bound > f.precision
    if exceeds:
        note = (
            f"bound {bound} exceeds precision {f.precision}; "
            "the verdict only covers the computed box"
        )
    limit = bound * f.scale
    violations = []
    for key in f.support():
        m, _, n = key
        if m <= limit and n <= limit:
            val = p_valuation(f.coeffs[key], pp.p)
            if val < pp.nu:
                violations.append((key, val))
    return SturmReport(bound, pp, not violations, violations, note, exceeds)


def check_congruence(f: SiegelExpansion, g: SiegelExpansion, pp: PrimePower) -> SturmReport:
    """Check f = g coefficientwise mod p^nu over the full common box.

    Weights may differ (mod-p comparisons across weights are meaningful);
    the report notes the truncation bound for the larger weight, so a
    passing check with enough precision is a theorem-backed verdict.
    """
    diff = f - g
    prec = diff.precision
    report = check_vanishing(diff, pp, prec)
    weights = [w for w in (f.weight, g.weight) if w is not None]
    if weights:
        k = max(weights)
        b = sturm_bound(k)
        coverage = "covers" if prec >= b else "does NOT cover"
        report.precision_note = (
            f"truncation bound for weight {k} is {b}; precision {prec} {coverage} it"
        )
    return report


def weight_monomials(k: int, genset) -> list[MonomialSpec]:
    """All generator monomials of total weight k, in a fixed order.

    Odd weights are exactly X35 times the even monomials of weight k - 35;
    the X35 exponent never exceeds 1.
    """
    genset = list(genset)
    for name in genset:
        if name not in GENERATOR_WEIGHTS:
            raise ValueError(f"unknown generator {name!r}")
    if k < 0:
        raise ValueError("weight must be >= 0")
    if k % 2:
        if "X35" not in genset or k < 35:
            return []
        inner = weight_monomials(k - 35, [g for g in genset if g != "X35"])
        return [spec.times("X35") for spec in inner]
    gens = [g for g in genset if g != "X35"]
    out: list[MonomialSpec] = []

    def descend(i: int, remaining: int, acc: dict) -> None:
        if remaining == 0:
            out.append(MonomialSpec.from_dict(dict(acc)))
            return
        if i == len(gens):
            return
        w = GENERATOR_WEIGHTS[gens[i]]
        for e in range(remaining // w + 1):
            if e:
                acc[gens[i]] = e
            descend(i + 1, remaining - e * w, acc)
        acc.pop(gens[i], None)

    descend(0, k, {})
    return out


def igusa_dimension(k: int) -> int:
    """dim M_k in level 1 (Igusa): the number of monomials of weight k in
    X4, X6, X10 and X12, and in odd weight X35 times those of weight k - 35."""
    if k % 2:
        k -= 35
    if k < 0:
        return 0
    ways = [1] + [0] * k
    for name in GENSET_C:
        w = GENERATOR_WEIGHTS[name]
        for total in range(w, k + 1):
            ways[total] += ways[total - w]
    return ways[k]


# -- exact linear algebra ------------------------------------------------------


class CoeffMatrix(Record):
    """Coefficient matrix: one row per form, one column per index."""

    __slots__ = ("columns", "entries")

    def __init__(self, columns: list, entries: list):
        self.columns = columns
        self.entries = entries


def matrix_from_forms(forms, indices) -> CoeffMatrix:
    """Rows of Fourier coefficients at the given indices, one per form."""
    entries = [[exp.coeffs.get(key, 0) for key in indices] for exp in forms]
    return CoeffMatrix(list(indices), entries)


class Echelon:
    """Echelon basis of a subspace of F_p^dim, grown one vector at a time.

    Each basis vector has a 1 at its pivot and 0 at the pivots of the
    vectors added before it.  ``add`` skips a zero vector and a multiple of
    a vector met before without sweeping it.
    """

    def __init__(self, dim: int, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.dim = dim
        self.p = p
        self.basis = []  # (pivot, vector)
        self._seen = set()  # vectors met so far, scaled to a leading 1

    @property
    def rank(self) -> int:
        return len(self.basis)

    def add(self, vec) -> None:
        p = self.p
        vec = [x % p for x in vec]
        lead = next((x for x in vec if x), 0)
        if not lead:
            return
        inv = pow(lead, -1, p)
        line = tuple(x * inv % p for x in vec)
        if line in self._seen:
            return
        self._seen.add(line)
        # Entries stay unreduced during the sweep: they are small integers.
        for pivot, b in self.basis:
            c = vec[pivot] % p
            if c:
                vec = [x - c * y for x, y in zip(vec, b)]
        pivot = next((i for i, x in enumerate(vec) if x % p), None)
        if pivot is not None:
            inv = pow(vec[pivot], -1, p)
            self.basis.append((pivot, [x * inv % p for x in vec]))

    def reduced(self) -> tuple:
        """The reduced echelon form in pivot order: the same for every spanning set."""
        p = self.p
        done = []  # (pivot, vector), 0 at every other pivot in done
        for pivot, b in reversed(self.basis):
            for q, r in done:
                c = b[q]
                b = [(x - c * y) % p for x, y in zip(b, r)]
            done.append((pivot, b))
        return tuple(tuple(b) for _, b in sorted(done))

    def complement(self) -> list:
        """A basis of the vectors v with v . w = 0 for every w in the span.

        One vector per non-pivot coordinate j: e_j minus each reduced row's
        entry at j placed at that row's pivot.
        """
        rows = self.reduced()
        pivots = [row.index(1) for row in rows]  # a reduced row leads with 1
        out = []
        for j in sorted(set(range(self.dim)) - set(pivots)):
            v = [0] * self.dim
            v[j] = 1
            for q, row in zip(pivots, rows):
                v[q] = -row[j] % self.p
            out.append(tuple(v))
        return out


def fp_rank(matrix: CoeffMatrix, p: int):
    """Rank and left-kernel basis over F_p (p prime).

    Kernel vectors give the vanishing combinations of the rows, i.e. the
    relations among the forms on the chosen index set.  The left
    kernel is the complement of the column span.
    """
    basis = Echelon(len(matrix.entries), p)
    for column in zip(*matrix.entries):
        basis.add([reduce_mod_p(e, p) for e in column])
    return basis.rank, basis.complement()


def streamed_ranks(rows, inside, outside, p):
    """F_p ranks of the rows on the ``inside`` columns and on all columns.

    ``rows`` are coefficient dicts keyed by column.  The columns, ``inside``
    first and then ``outside``, stream into one echelon basis of the column
    span, and the elimination stops once the rank equals the number of rows.
    """
    basis = Echelon(len(rows), p)
    ranks = []
    for columns in (inside, outside):
        for key in columns:
            if basis.rank == basis.dim:
                break
            basis.add([row.get(key, 0) for row in rows])
        ranks.append(basis.rank)
    return tuple(ranks)


def span_canonical(vectors, p):
    """Canonical form of the F_p span of the given vectors: its reduced echelon form."""
    basis = Echelon(len(vectors[0]) if vectors else 0, p)
    for v in vectors:
        basis.add(v)
    return basis.reduced()


# -- bound certificates ----------------------------------------------------


def leading_rows(monomials, bound: int, precision: int, p: int, registry) -> list:
    """Each monomial's row m = layer, cut to n <= bound, mod p.

    A factor's row m = l is cut from ``registry.generator(name,
    precision)`` and reduced mod p, and a monomial's row is one product of
    its factors' row powers, from a chain g, g^2, ... per factor held for
    the call (``series.chain_power``) and reduced mod p at every step.  The
    rows are the layer rows because the registry serves only pinned
    generators, which vanish below their layer.
    """
    chains = {}

    def leading_row(name):
        layer = MonomialSpec.from_dict({name: 1}).layer
        gen = registry.generator(name, precision)
        row = {key: c for key, c in gen.coeffs.items() if key[0] == layer and key[2] <= bound}
        return SiegelExpansion._unchecked(bound, row, gen.weight, scale=1, modulus=None).reduce_mod(p)

    return [
        SiegelExpansion._product(
            [chain_power(chains, (name,), leading_row, e) for name, e in reversed(spec.exponents)]
        )
        if spec.exponents
        else SiegelExpansion.constant(1, bound, modulus=p)
        for spec in monomials
    ]


def layered_rank(monomials, bound: int, precision: int, p: int, registry) -> dict:
    """The F_p rank of each block j, ``{j: rank}``, the layer-j leading rows
    on the columns (j, r, n), j <= n <= bound; their sum is a lower bound on
    the monomials' F_p rank on the box m, n <= bound (module docstring)."""
    blocks = {}
    for spec, row in zip(monomials, leading_rows(monomials, bound, precision, p, registry)):
        blocks.setdefault(spec.layer, []).append(row.coeffs)
    ranks = {}
    for j, rows in blocks.items():
        columns = [
            (j, r, n)
            for n in range(j, bound + 1)
            for r in range(-isqrt(4 * j * n), isqrt(4 * j * n) + 1)
        ]
        ranks[j] = streamed_ranks(rows, columns, (), p)[0]
    return ranks


class Theorem1Report(Record):
    """Desk-scale injectivity certificate for truncation at the bound."""

    __slots__ = (
        "weight", "prime", "bound", "precision", "reason", "monomials",
        "dim_c", "rank_truncated", "rank_full",
    )

    def __init__(
        self, weight: int, prime: int, bound: int, precision: int,
        reason: str | None = None, monomials: list | None = None, dim_c: int | None = None,
        rank_truncated: int | None = None, rank_full: int | None = None,
    ):
        self.weight = weight
        self.prime = prime
        self.bound = bound
        self.precision = precision
        self.reason = reason
        self.monomials = [] if monomials is None else monomials
        self.dim_c = dim_c
        self.rank_truncated = rank_truncated
        self.rank_full = rank_full

    @property
    def certifiable(self) -> bool:
        """No reason to skip: the generators can certify this weight and prime."""
        return self.reason is None

    @property
    def passed(self) -> bool:
        """The truncated rank is dim M_k, and the full box adds nothing."""
        return (
            self.certifiable
            and self.rank_truncated is not None
            and self.rank_truncated == self.dim_c == self.rank_full
        )

    def render(self) -> str:
        if not self.certifiable:
            return (
                f"SKIP theorem1 k={self.weight} p={self.prime}: "
                f"not certifiable with available generators ({self.reason})"
            )
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} theorem1 k={self.weight} p={self.prime} "
            f"rank<=b_k {self.rank_truncated} == rank<=B {self.rank_full} "
            f"({len(self.monomials)} monomials, dim_C = {self.dim_c}, "
            f"b_k={self.bound}, B={self.precision})"
        )


def verify_theorem1_rank(
    k: int, p: int, precision: int, registry: GeneratorRegistry | None = None
) -> Theorem1Report:
    """Certify rank(truncated at the bound) = dim M_k = rank(full box) mod p.

    The rows are the weight-k monomials in ``GENSET_C`` (p >= 5) or
    ``GENSET_INTEGRAL`` (p in {2, 3}), times X35 in odd weight.  Each is an
    integral weight-k form that vanishes below its layer, by the registry's
    pins, so a layer sum (``layered_rank``) of dim M_k proves both ranks by
    the bound from above, for any such rows (module docstring).  A short
    sum proves nothing: at p >= 5 ``streamed_ranks`` eliminates the Z
    monomials mod p on the whole box; at p in {2, 3}, where the integral
    generators are not known to span M_k mod p, it is a SKIP naming each
    layer j whose rank differs from its number of layer-j GENSET_C rows.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    registry = registry or default_registry()
    b = sturm_bound(k)
    if precision < b:
        raise ValueError(f"precision {precision} is below the bound {b}")
    odd = ("X35",) if k % 2 else ()
    monomials = weight_monomials(k, (GENSET_C if p >= 5 else GENSET_INTEGRAL) + odd)
    report = Theorem1Report(k, p, b, precision)
    report.monomials = [str(m) for m in monomials]
    report.dim_c = igusa_dimension(k)
    ranks = layered_rank(monomials, b, precision, p, registry)
    if sum(ranks.values()) == report.dim_c:
        report.rank_truncated = report.rank_full = report.dim_c
        return report
    if p < 5:
        # Every layer has a target: Y12 and X16 share weight and layer with X6^2 and X6*X10.
        targets = Counter(spec.layer for spec in weight_monomials(k, GENSET_C + odd))
        report.reason = ", ".join(
            f"layer {j}: rank {ranks.get(j, 0)} of {targets[j]}"
            for j in sorted(targets) if ranks.get(j, 0) != targets[j]
        )
        return report
    rows = [registry.monomial(spec, precision).reduce_mod(p).coeffs for spec in monomials]
    inside, outside = [], []
    for key in box_indices(precision):
        (inside if key[0] <= b and key[2] <= b else outside).append(key)
    report.rank_truncated, report.rank_full = streamed_ranks(rows, inside, outside, p)
    return report


_EVEN_WITNESS = {0: {}, 2: {"X12": 1}, 4: {"X4": 1}, 6: {"X6": 1}, 8: {"X4": 2}}


def sharpness_witness(
    k: int, p: int, registry: GeneratorRegistry | None = None
) -> tuple[MonomialSpec, SturmReport]:
    """A weight-k form, nonzero mod p, vanishing mod p on the box of size b_k - 1.

    Even weights use powers of the weight-10 cusp form padded by X4, X6 or
    X12; an odd weight uses X35 times the even witness of weight k - 35
    (X35 alone at k = 35).  The witness rests on the certificate's premise:
    a monomial vanishes below its layer j (see the module docstring).  In
    even weight j = b_k, so the box b_k - 1 lies wholly below the layer; in
    odd weight j = b_k - 1, so the leading row m = j is the only row inside
    the box.  Only that row is computed, n <= b_k, mod p (``leading_rows``):
    its nonzero entries inside the box are the violations, and its leading
    term must sit at the expected index, the sum of the factors' leading
    indices, for a unit leading coefficient mod p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    registry = registry or default_registry()
    if k < (35 if k % 2 else 4) or k == 37:
        raise ValueError(f"no nonzero forms of weight {k}")
    even = k - 35 if k % 2 else k
    exponents = dict(_EVEN_WITNESS[even % 10])
    power = even // 10 - (1 if even % 10 == 2 else 0)
    if power:
        exponents["X10"] = power
    if k % 2:
        exponents["X35"] = 1
    b = sturm_bound(k)
    spec = MonomialSpec.from_dict(exponents)
    assert spec.weight == k
    expected = spec.leading_index
    row = leading_rows([spec], b, b, p, registry)[0]
    if row.is_zero():
        raise ValueError(f"witness {spec} vanishes mod {p} on its box")
    violations = [(key, 0) for key in row.support() if key[0] < b and key[2] < b]
    lead = row.leading_term().index
    unit = lead == expected
    note = None if unit else f"leading term {lead} differs from expected {expected}"
    return spec, SturmReport(b - 1, PrimePower(p), not violations and unit, violations, note)


# -- identity suites ---------------------------------------------------------


class SuiteReport(Record):
    """Itemised PASS/FAIL/SKIP lines with a machine-readable summary."""

    __slots__ = ("suite", "lines")

    def __init__(self, suite: str, lines: list | None = None):
        self.suite = suite
        self.lines = [] if lines is None else lines

    def add(self, ok: bool, check_id: str, detail: str = "") -> None:
        self.lines.append(("PASS" if ok else "FAIL", check_id, detail))

    def skip(self, check_id: str, detail: str = "") -> None:
        self.lines.append(("SKIP", check_id, detail))

    @property
    def passed(self) -> bool:
        return all(status != "FAIL" for status, _, _ in self.lines)

    def render(self) -> str:
        out = []
        for status, check_id, detail in self.lines:
            out.append(f"{status} {check_id} {detail}".rstrip())
        done = sum(1 for s, _, _ in self.lines if s != "SKIP")
        good = sum(1 for s, _, _ in self.lines if s == "PASS")
        out.append(f"RESULT {self.suite} {good}/{done}")
        return "\n".join(out)


def verify_identities(
    suite: str,
    p: int | None = None,
    precision: int | None = None,
    registry: GeneratorRegistry | None = None,
) -> SuiteReport:
    """Run one of the named identity suites; see the module docstring.

    A prime is checked before any suite runs, also for the suites that do
    not read it.  A suite stated only for its default primes reports any
    other prime as one SKIP that names them.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if p is not None and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    default_precision, primes, stated, runner = _SUITES[suite]
    report = SuiteReport(suite)
    if p is not None and stated and p not in primes:
        report.skip(f"{suite}.p{p}", f"stated for p in {{{', '.join(map(str, primes))}}}")
        return report
    runner(
        list(primes) if p is None else [p],
        default_precision if precision is None else precision,
        registry or default_registry(),
        report,
    )
    return report


def _suite_witt_images(ps, B: int, registry, report: SuiteReport) -> None:
    for name, order, image in WITT_PINS:
        report.add(
            registry.generator(name, B).witt(order) == witt_image(image, B),
            f"witt-images.{WITT_LAYERS[order]}.{name}",
            "W" + "'" * order + f"({name}) = {image} at B={B}",
        )


def _x35_square_combination(p: int, B: int, registry) -> SiegelExpansion:
    def mono(**exponents):
        return registry.monomial(MonomialSpec.from_dict(exponents), B)

    if p == 2:
        return mono(X10=2, Y12=2, X16=2) + mono(X10=6)
    # p = 3, the only other prime lemma10 is stated for
    return (
        2 * mono(X10=1, X16=4)
        + mono(X10=1, Y12=2, X16=3)
        + 2 * mono(X10=2, X16=3)
        + mono(X10=2, Y12=2, X16=2)
        + 2 * mono(X10=3, Y12=1, X16=2)
        + 2 * mono(X10=4, Y12=3)
        + mono(X10=4, X16=2)
        + 2 * mono(X10=7)
    )


def _suite_lemma10(ps, B: int, registry, report: SuiteReport) -> None:
    one = SiegelExpansion.constant(1, B)
    x4 = registry.generator("X4", B)
    x6 = registry.generator("X6", B)
    x10 = registry.generator("X10", B)
    x12 = registry.generator("X12", B)
    x35sq = registry.power("X35", 2, B)
    for p in ps:
        pp = PrimePower(p)
        report.add(
            check_congruence(x4, one, pp).verdict, f"lemma10.p{p}.X4", "X4 = 1"
        )
        report.add(
            check_congruence(x6, one, pp).verdict, f"lemma10.p{p}.X6", "X6 = 1"
        )
        report.add(
            check_congruence(x12, x10, pp).verdict,
            f"lemma10.p{p}.X12-X10",
            "X12 = X10",
        )
        rhs = _x35_square_combination(p, B, registry)
        report.add(
            check_congruence(x35sq, rhs, pp).verdict,
            f"lemma10.p{p}.X35-square",
            f"X35^2 matches its mod-{p} polynomial at B={B}",
        )


def _suite_prop1_w12(ps, B: int, registry, report: SuiteReport) -> None:
    monomials = weight_monomials(12, GENSET_INTEGRAL)
    labels = [str(m) for m in monomials]
    w2 = weight_monomials(2, GENSET_INTEGRAL)
    report.add(not w2, "prop1-w12.weight2-empty", "no weight-2 monomials")
    diag_indices = [(m, n) for m in range(B + 1) for n in range(B + 1)]
    exact = [registry.monomial(spec, B) for spec in monomials]
    forms = matrix_from_forms(exact, box_indices(B))
    images = [exp.witt(0) for exp in exact]
    witt_matrix = matrix_from_forms(images, diag_indices)
    truncated = matrix_from_forms(
        images, [(m, n) for m, n in diag_indices if m <= 1 and n <= 1]
    )
    unit_x12 = tuple(int(label == "X12") for label in labels)
    dim = igusa_dimension(12)
    for p in ps:
        rank, relations = fp_rank(forms, p)
        if rank < dim:
            # The box does not separate M_12, so its kernel is not the relation space.
            detail = f"F_{p} rank {rank} < dim M_12 = {dim} on the box B={B}"
            report.skip(f"prop1-w12.p{p}.kernel", detail)
            report.skip(f"prop1-w12.p{p}.truncated-kernel", detail)
            continue
        _, witt_kernel = fp_rank(witt_matrix, p)
        got = span_canonical(witt_kernel, p)
        want = span_canonical(list(relations) + [unit_x12], p)
        x12_not_relation = span_canonical(relations, p) != want
        ok = got == want and x12_not_relation
        report.add(
            ok,
            f"prop1-w12.p{p}.kernel",
            f"restriction kernel = relations + F_{p}*X12 "
            f"(dim {len(witt_kernel)} = {len(relations)} + 1)",
        )
        _, truncated_kernel = fp_rank(truncated, p)
        report.add(
            span_canonical(truncated_kernel, p) == want,
            f"prop1-w12.p{p}.truncated-kernel",
            "kernel unchanged when the restriction is truncated at box 1",
        )


def _modform1_monomial_basis(k: int, precision: int):
    """The monomial basis of weight-k degree-1 forms: delta^c e4^a e6^b, b <= 1."""
    out = []
    e4 = eisenstein1(4, precision)
    e6 = eisenstein1(6, precision)
    delta = delta1(precision)
    c = 0
    while 12 * c <= k:
        rem = k - 12 * c
        a = b = None
        if rem % 4 == 0:
            a, b = rem // 4, 0
        elif rem % 4 == 2 and rem >= 6:
            a, b = (rem - 6) // 4, 1
        if a is not None:
            out.append((e4**a) * (e6**b) * (delta**c))
        c += 1
    return out


def _suite_lemma12(ps, B, registry, report: SuiteReport) -> None:
    for k in range(4, 25, 2):
        cutoff = k // 12
        basis = _modform1_monomial_basis(k, cutoff)
        rows = []
        for i, fa in enumerate(basis):
            rows.append(diag_tensor(fa, fa))
            for fb in basis[i + 1 :]:
                rows.append(diag_tensor(fa, fb) + diag_tensor(fb, fa))
        columns = [(m, n) for m in range(cutoff + 1) for n in range(cutoff + 1)]
        matrix = matrix_from_forms(rows, columns)
        for p in ps:
            rank, _ = fp_rank(matrix, p)
            report.add(
                rank == len(rows),
                f"lemma12.k{k}.p{p}",
                f"rank {rank}/{len(rows)} at cutoff {cutoff}",
            )


def _suite_x12_identity(ps, P: int, registry, report: SuiteReport) -> None:
    e4cube = eisenstein1(4, P) ** 3
    e6square = eisenstein1(6, P) ** 2
    x4 = diag_builder("x4", P)
    x6 = diag_builder("x6", P)
    x12 = diag_builder("x12", P)
    lhs = x12 * (2**12 * 3**6)
    rhs = x4**3 + x6**2 - diag_tensor(e4cube, e6square) - diag_tensor(e6square, e4cube)
    report.add(
        lhs == rhs,
        "x12-identity",
        f"2^12 3^6 x12 = x4^3 + x6^2 - (e4^3|e6^2 + e6^2|e4^3) at P={P}",
    )


def _suite_borcherds(ps, B: int, registry, report: SuiteReport) -> None:
    for p in ps:
        reduced = {name: registry.generator(name, B).reduce_mod(p) for name in GENERATOR_NAMES}
        for name in GENERATOR_NAMES:
            v = reduced[name].diagonal_vanishing_order()
            if isinstance(v, BeyondPrecision):
                report.skip(f"borcherds.p{p}.{name}", "generator vanishes on the box")
                continue
            v10 = (reduced["X10"] * reduced[name]).diagonal_vanishing_order()
            _order_check(
                report,
                f"borcherds.p{p}.{name}.x10-step",
                f"v({name}) = {v}, v(X10*{name}) = {v10}, expected {v + 1}",
                lambda: _order_equal(v10, v + 1),
            )
            v35 = (reduced["X35"] * reduced[name]).diagonal_vanishing_order()
            _order_check(
                report,
                f"borcherds.p{p}.{name}.x35-step",
                f"v(X35*{name}) = {v35}, needs >= {v + 2}",
                lambda: v35 >= v + 2,
            )


def _order_equal(a, b) -> bool:
    if isinstance(a, BeyondPrecision):
        if b > a.bound:
            raise PrecisionError(f"cannot compare {a!r} with {b}")
        return False
    return a == b


def _order_check(report: SuiteReport, check_id: str, detail: str, predicate) -> None:
    # A BeyondPrecision value refuses comparisons it cannot decide; those
    # sub-checks are reported as skipped rather than silently passed.
    try:
        report.add(predicate(), check_id, detail)
    except PrecisionError:
        report.skip(check_id, f"{detail} (insufficient precision)")


# Each suite: the precision it reads when none is given (lemma12 reads
# none), the primes it reads when none is given, whether it is stated only
# for those primes, and its runner(primes, precision, registry, report).
_SUITES = {
    "witt-images": (6, (), False, _suite_witt_images),
    "lemma10": (6, (2, 3), True, _suite_lemma10),
    "prop1-w12": (5, (2, 3), True, _suite_prop1_w12),
    "lemma12": (None, (2, 3, 5), False, _suite_lemma12),
    "x12-identity": (20, (), False, _suite_x12_identity),
    "borcherds-structure": (6, (2, 3, 5), False, _suite_borcherds),
}
SUITES = tuple(_SUITES)
