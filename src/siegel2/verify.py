"""Sturm bounds, congruence checks, exact linear algebra, and identity suites.

The truncation bound of level-1 forms of weight k is

    b_k = floor(k / 10)        for even k,
    b_k = floor((k - 5) / 10)  for odd k.

``check_vanishing`` tests the hypothesis "every coefficient in the box is
divisible by p^nu" on exact expansions; ``verify_theorem1_rank`` certifies
at desk scale that truncating at the bound loses no mod-p information, by
showing in F_p that the weight-k monomials have rank dim M_k on the
truncated box; ``sharpness_witness`` produces a form showing the bound
cannot be lowered, read from its leading index mod p on the certificate's
premise (below).  Every rank, left kernel and canonical span over F_p
comes from one echelon basis (``Echelon``); a left kernel is the
complement of the column span.

The certificate is one argument for every prime.  From above: each
monomial is an integral weight-k form, and M_k(Z) is a lattice of rank
dim M_k whose reduction mod p has kernel p M_k(Z), so the monomials' F_p
rank is at most dim M_k on any box.  From below, by layers, on the
generators' leading Fourier-Jacobi coefficients.  A generator of layer l
(the m of its leading index: 0 for X4, X6 and Y12, 1 for X10, X12 and
X16, 2 for X35) has its row m = l formed over Z, each from its own
formula (``GeneratorRegistry.generator_row``, ``generators._lifted_row``):
X4, X6, X10, X12 and X16 = V(Delta E_{4,1}) are Maass lifts
(Eichler-Zagier, Theorem 6.2), so row 0 of X4 and X6 is E4 or E6 and
row 1 of X10, X12 and X16 is a(1, r, n) = c(4n - r^2); Y12's row 0 is
Delta; and X35's row 2 is its determinant over those rows of X4, X6,
X10 and X12, since row m of a product reads only the rows <= m of its
factors, the theta operators keep rows, and X10 and X12 have no row 0.
The rows m < l are 0: a lift's row 0 is sigma_{k-1}(n) c(0), and a row 1
is refused unless c(0) = 0; each term of X35's rows 0 and 1 has a factor
in row 0 of X10 or X12.  The swap
symmetry a(n, r, m) = +-a(m, r, n) clears the columns n < l, so the
generator vanishes wherever min(m, n) < l; a monomial of layer j, the sum
of its factors' layers, vanishes there too, and its row m = j is the
product of its factors' rows m = l.  With rows ordered by
layer and columns by t = min(m, n), the matrix is block upper triangular,
so its rank on the box b_k is at least the sum over j of the rank of block
j, the layer-j rows on the columns (j, r, n), j <= n <= b_k, read at
precision b_k: a generator's layer is at most a tenth of its weight, and
X35's 2 is 1.5 below that, so a layer in weight k is at most k/10, or
(k - 15)/10 in odd weight, and so at most b_k.

Each block is bounded from below by the Taylor development at zeta = 1
(Eichler-Zagier, *The Theory of Jacobi Forms*, section 3).  Put
zeta = 1 + u in P_n(zeta) = sum_r a(j, r, n) zeta^r: the u^t coefficient
h_t(n) = sum_r binom(r, t) a(j, r, n) is linear on the columns (j, r, n),
so the rows' images under the h_t, n <= b_k, have rank at most the
block's.  zeta -> 1 + u is a ring map, here with coefficients in
R = F_p[q]/q^(b_k + 1), the cut the block reads.  A factor of valuation v
(the least t with h_t != 0 in R) maps to u^v (g + u(...)), g = h_v, so a
monomial's h_s vanish in R for s < t = sum e_i v_i, and its h_t is
prod g_i^e_i in R.  R is not a domain and that product may vanish, but it
is still the h_t, as every valuation is taken on the same cut.  So block
j is block triangular again, by t: its rank is at least the sum over t of
the ranks of the sub-blocks (j, t) of one-variable products on n <= b_k
(``layered_rank``, which multiplies in R on integers packed with one slot
per n, ``generators.packed_mul``).  When that sum is dim M_k, so is the
rank on the box b_k, and on any larger box, whatever integral rows were
taken.  Any other sum proves nothing, and is a SKIP naming short layers.

At p >= 5 the sum is always dim M_k.  The rows are the monomials
X4^a X6^b X10^c X12^d, times X35 (e = 1) in odd weight (e = 0), of layer
j = c + d + 2e.
  * The table.  A generator's leading coefficient at zeta = 1 is a
    level-1 modular form: the least nonzero Taylor coefficient at z = 0 of
    its leading Fourier-Jacobi coefficient is one (Eichler-Zagier, section
    3), of weight w + v for a generator of weight w, and u = zeta - 1 =
    2 pi i z + O(z^2) only scales it.  Over Z, (v, h_v) is (0, E4),
    (0, E6), (2, Delta), (0, 12 Delta) and (1, -2 Delta^3) for X4, X6, X10,
    X12 and X35, and (0, Delta), (0, E4 Delta) for Y12 and X16.  Each
    w + v is at most 36, where the Sturm bound is 3: a form that vanishes
    on n <= 3 is 0.  So agreement on n <= 3 makes each entry exact, and
    each valuation too, since a nonzero h_s, s < v, would be the least
    coefficient and vanish there.  ``test_leading_coefficients_at_zeta_1``
    checks the table to n <= 20 on the rows ``generator_row`` forms,
    which other tests check against the pinned generators.
  * Sub-blocks.  At p >= 5 no leading coefficient vanishes mod p on the cut
    n <= b_k: E4 and E6 start with 1, Delta with q, 12 Delta with 12 q and
    -2 Delta^3 with -2 q^3, and b_k >= 1 when X10 or X12 appears, b_k >= 3
    when X35 does.  So the valuations mod p are those over Z, a monomial's
    is t = 2c + e, and sub-block (j, t) = (c + d + 2e, 2c + e) holds the
    monomials of one (c, d).
  * Rows.  A monomial's row there is 12^d (-2)^e E4^a E6^b Delta^J mod p,
    J = c + d + 3e: a unit times Delta^J times E4^a E6^b, where
    4a + 6b = w = k - 10c - 12d - 35e.
  * Rank.  M_*(Z[1/6]) = Z[1/6][E4, E6], so the dim M_w products E4^a E6^b
    are a basis of M_w(Z_(p)).  M_w(Z) has a basis q^i + O(q^dim M_w),
    i < dim M_w (Miller), so they stay independent mod p on
    n <= dim M_w - 1 <= floor(w/12).  Delta^J is q^J times a unit of
    F_p[[q]], so the sub-block has rank dim M_w on n <= J + floor(w/12).
    That is within b_k: J + w/12 falls short of k/10 in even weight by
    (k - 10c)/60, and of (k - 5)/10 in odd weight by (k - 35 - 10c)/60,
    both >= 0, and J + floor(w/12) is an integer
    (``test_taylor_sub_blocks_fit_under_b_k``).
  * Sum.  Summed over (c, d), the ranks dim M_w are the monomial counts
    ``layer_dimensions(k)``, whose total is dim M_k (Igusa)
    (``test_taylor_sums_are_the_layer_dimensions_at_p_ge_5``).
At p in {2, 3} X12's and X35's coefficients may vanish mod p and the
integral generators are not known to span M_k, so a short sum is a SKIP
there.

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

from math import gcd

from .expansion import SiegelExpansion, box_indices, diagonal_vanishing_order, leading_index
from .generators import (
    GENERATOR_NAMES,
    GENERATOR_WEIGHTS,
    WITT_LAYERS,
    WITT_PINS,
    GeneratorRegistry,
    MonomialSpec,
    packed_mul,
    unpacked,
    witt_image,
)
from .qexp1 import delta1, diag_builder, diag_tensor, eisenstein1
from .rationals import PrimePower, is_prime, p_valuation, reduce_mod_p
from .records import Record

GENSET_C = ("X4", "X6", "X10", "X12")
GENSET_INTEGRAL = ("X4", "X6", "X10", "X12", "Y12", "X16")

def sturm_bound(k: int) -> int:
    """The truncation bound b_k of level-1 forms of weight k."""
    if k < 0:
        raise ValueError("need weight >= 0")
    if k % 2 == 0:
        return k // 10
    return (k - 5) // 10


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


def check_vanishing(f: SiegelExpansion, pp: PrimePower, bound: int) -> SturmReport:
    """Check p^nu | a(m, r, n) for every index with m, n <= bound, an integer.

    If the bound exceeds the expansion's precision the report flags the
    insufficiency; the verdict then only covers the available box.
    """
    if not isinstance(bound, int):
        raise ValueError(f"bound {bound!r} is not an integer")
    if bound < 0:
        raise ValueError(f"bound {bound} is below 0")
    note = None
    exceeds = bound > f.precision
    if exceeds:
        note = (
            f"bound {bound} exceeds precision {f.precision}; "
            "the verdict only covers the computed box"
        )
    violations = []
    for key in f.support():
        m, _, n = key
        if m <= bound and n <= bound:
            val = p_valuation(f.coeffs[key], pp.p)
            if val < pp.nu:
                violations.append((key, val))
    return SturmReport(bound, pp, not violations, violations, note, exceeds)


def check_congruence(f: SiegelExpansion, g: SiegelExpansion, pp: PrimePower) -> SturmReport:
    """Check f = g coefficientwise mod p^nu over the full common box.

    Weights may differ (mod-p comparisons across weights are meaningful).
    The report notes b_k of the larger weight and whether the precision
    covers it; ``exceeds_precision`` is set when it does not.  Theorem 1
    speaks of forms of one weight at level 1, so for mixed weights the note
    names a box, not a theorem-backed verdict.
    """
    diff = f - g
    prec = diff.precision
    report = check_vanishing(diff, pp, prec)
    weights = [w for w in (f.weight, g.weight) if w is not None]
    if weights:
        k = max(weights)
        b = sturm_bound(k)
        report.exceeds_precision = prec < b
        coverage = "does NOT cover" if report.exceeds_precision else "covers"
        report.precision_note = (
            f"truncation bound for weight {k} is {b}; precision {prec} {coverage} it"
        )
    return report


def weight_monomials(k: int, genset) -> list[MonomialSpec]:
    """All generator monomials of total weight k, in a fixed order.

    Odd weights are exactly X35 times the even monomials of weight k - 35;
    the X35 exponent never exceeds 1.  The genset names each generator at
    most once, in the canonical order.  Every call enumerates afresh into a
    new list; nothing is held between calls.
    """
    genset = tuple(genset)
    for name in genset:
        if name not in GENERATOR_WEIGHTS:
            raise ValueError(f"unknown generator {name!r}")
    if genset != tuple(sorted(set(genset), key=GENERATOR_NAMES.index)):
        raise ValueError(f"genset {genset} is not in the canonical order {GENERATOR_NAMES}")
    if k < 0:
        raise ValueError("weight must be >= 0")
    return _enumerated(k, genset)


def _enumerated(k: int, genset: tuple) -> list[MonomialSpec]:
    """The monomials of ``weight_monomials``, ascending in their exponents
    in genset order, each built with no re-sort (``MonomialSpec._canonical``)
    in one flat pass over (weight left, pairs so far).  Every generator but
    the last two takes each exponent that fits.  With a, b the last two
    weights and g = gcd(a, b), the next-to-last exponent e solves
    e a = left (mod b): none unless g divides left, else the one class
    (left/g)(a/g)^-1 mod b/g.  The last exponent is a quotient.  Each
    ((name, e),) is made once per call and shared, () for e = 0."""
    tail = ()
    if k % 2:
        if "X35" not in genset or k < 35:
            return []
        k, tail = k - 35, (("X35", 1),)
    gens = [(g, GENERATOR_WEIGHTS[g]) for g in genset if g != "X35"]
    if not gens:
        return [] if k else [MonomialSpec._canonical(tail)]
    pairs = [[((g, e),) if e else () for e in range(k // w + 1)] for g, w in gens]
    heads = [(k, ())]
    for (_, w), pair in zip(gens[:-2], pairs):
        heads = [(left - e * w, acc + pair[e]) for left, acc in heads for e in range(left // w + 1)]
    b = gens[-1][1]
    if len(gens) > 1:
        a, pair = gens[-2][1], pairs[-2]
        d = gcd(a, b)
        step = b // d
        inverse = pow(a // d, -1, step)
        heads = [
            (left - e * a, acc + pair[e])
            for left, acc in heads
            if left % d == 0
            for e in range(left // d * inverse % step, left // a + 1, step)
        ]
    last = [pair + tail for pair in pairs[-1]]
    return [MonomialSpec._canonical(acc + last[left // b]) for left, acc in heads if left % b == 0]


def layer_dimensions(k: int) -> dict:
    """dim M_k (Igusa) by layer, ``{j: count}``: the layer-j monomials of weight
    k in X4, X6, X10 and X12, times X35 (layer 2) in odd weight.  X10^c X12^d
    has layer j = c + d and weight 10j + 2d; the rest r is X4^a X6^b in
    r//12 + 1 ways, or r//12 when r = 2 mod 12."""
    odd = k % 2
    k -= 35 * odd
    counts = {}
    for j in range(k // 10 + 1):
        rests = (k - 10 * j - 2 * d for d in range(j + 1))
        count = sum(r // 12 + (r % 12 != 2) for r in rests if r >= 0)
        if count:
            counts[j + 2 * odd] = count
    return counts


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
    vectors added before it.  ``add`` sweeps each vector by the basis, and a
    vector in the span, a zero one or a multiple of one added before, sweeps
    to 0 and adds nothing.
    """

    def __init__(self, dim: int, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.dim = dim
        self.p = p
        self.basis = []  # (pivot, vector)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def add(self, vec) -> None:
        p = self.p
        vec = [x % p for x in vec]
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


def span_canonical(vectors, p):
    """Canonical form of the F_p span of the given vectors: its reduced echelon form."""
    basis = Echelon(len(vectors[0]) if vectors else 0, p)
    for v in vectors:
        basis.add(v)
    return basis.reduced()


# -- bound certificates ----------------------------------------------------


def layered_rank(monomials, bound: int, p: int, registry) -> dict:
    """``{j: rank}``, for each layer j the sum over t of the F_p ranks of
    the Taylor sub-blocks (j, t) on n <= bound, a lower bound on the rank
    of block j (module docstring).  A monomial's row there is the product
    mod p of its factors' leading coefficients at zeta = 1, t the sum of
    their valuations (``registry.taylor_power``).  The rows are packed
    integers, one product (``packed_mul``) per factor from the packed 1; a
    factor that is 0 mod p on n <= bound is the packed 0, so its rows are 0
    and add no rank.  Each sub-block of two or more rows is one elimination
    of its slot columns n <= bound, which stops at full rank."""
    blocks, ranks = {}, {}
    for spec in monomials:
        t, row = 0, 1
        for name, e in spec.exponents:
            v, g = registry.taylor_power(name, e, bound, p)
            t, row = t + v, packed_mul(row, g, bound, p)
        ranks[spec.layer] = 0
        blocks.setdefault((spec.layer, t), []).append(row)
    for (j, _), rows in blocks.items():
        if len(rows) == 1:
            ranks[j] += rows[0] != 0  # a lone row of residues has rank 1 unless it is 0
            continue
        basis = Echelon(len(rows), p)
        for column in zip(*(unpacked(row, bound, p) for row in rows)):
            if basis.rank == basis.dim:
                break
            basis.add(column)
        ranks[j] += basis.rank
    return ranks


class Theorem1Report(Record):
    """Desk-scale injectivity certificate for truncation at the bound;
    ``monomials`` holds the ``MonomialSpec`` rows it ranked."""

    __slots__ = ("weight", "prime", "bound", "precision", "reason", "monomials", "dim_c")

    def __init__(
        self, weight: int, prime: int, bound: int, precision: int,
        reason: str | None = None, monomials: list | None = None, dim_c: int | None = None,
    ):
        self.weight = weight
        self.prime = prime
        self.bound = bound
        self.precision = precision
        self.reason = reason
        self.monomials = [] if monomials is None else monomials
        self.dim_c = dim_c

    @property
    def passed(self) -> bool:
        """The rank on the box b_k is dim M_k: ``verify_theorem1_rank`` gives
        a reason to every sum short of dim M_k, so no reason is a PASS."""
        return self.reason is None

    @property
    def rank_truncated(self) -> int | None:
        """The rank on the box b_k: dim M_k on a PASS, else unknown."""
        return self.dim_c if self.passed else None

    @property
    def rank_full(self) -> int | None:
        """The rank on the box B: dim M_k on a PASS, by the bound from above, else unknown."""
        return self.dim_c if self.passed else None

    def render(self) -> str:
        head = f"theorem1 k={self.weight} p={self.prime}"
        if not self.passed:
            return f"SKIP {head}: not certifiable with available generators ({self.reason})"
        ranks = f"rank<=b_k {self.rank_truncated} == rank<=B {self.rank_full}"
        box = f"b_k={self.bound}, B={self.precision})"
        return f"PASS {head} {ranks} ({len(self.monomials)} monomials, dim_C = {self.dim_c}, {box}"


def verify_theorem1_rank(
    k: int, p: int, precision: int, registry: GeneratorRegistry | None = None
) -> Theorem1Report:
    """Certify rank(truncated at the bound) = dim M_k mod p.

    The rows are the weight-k monomials in ``GENSET_C`` (p >= 5) or
    ``GENSET_INTEGRAL`` (p in {2, 3}), times X35 in odd weight, read at
    precision b_k, which holds every layer; B need only reach b_k.  Only the
    leading coefficients at zeta = 1 mod p of their factors' leading
    Fourier-Jacobi rows, each from its own formula (``registry.generator_row``),
    are multiplied, and a sum of Taylor sub-block ranks (``layered_rank``)
    of dim M_k proves the rank on the box b_k, and on the box B by the bound
    from above; at p >= 5 the sum is always dim M_k (module docstring).  No
    two-variable product is formed and no cache file is read or written.  A
    short sum proves nothing: it is a SKIP naming each layer j whose rank
    differs from ``layer_dimensions(k)[j]``.  Without a ``registry``, a
    new ``GeneratorRegistry()`` serves the rows, on ``$SIEGEL2_CACHE`` as
    it stands at the call.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    registry = registry or GeneratorRegistry()
    b = sturm_bound(k)
    if precision < b:
        raise ValueError(f"precision {precision} is below the bound {b}")
    odd = ("X35",) if k % 2 else ()
    monomials = weight_monomials(k, (GENSET_C if p >= 5 else GENSET_INTEGRAL) + odd)
    report = Theorem1Report(k, p, b, precision, monomials=monomials)
    targets = layer_dimensions(k)
    report.dim_c = sum(targets.values())
    ranks = layered_rank(monomials, b, p, registry)
    if sum(ranks.values()) == report.dim_c:
        return report
    # Every layer has a target: Y12 and X16 share weight and layer with X6^2 and X6*X10.
    report.reason = ", ".join(
        f"layer {j}: rank {ranks.get(j, 0)} of {n}"
        for j, n in sorted(targets.items()) if ranks.get(j, 0) != n
    )
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
    the box.  That row, n <= b_k, mod p is the product of the factors'
    rows (``registry.generator_row``) mod p, and is not formed: as
    F_p[zeta, 1/zeta] is a domain, its least (m, n, r) index nonzero mod p
    is the sum of the factors', times their exponents, and it is 0 only if
    a factor is or that sum has n > b_k.  The row has an entry inside the
    box exactly when that index lies inside, a violation, and the index
    must be the expected one, the sum of the declared leading indices, for
    a unit leading coefficient mod p.  Without a ``registry``, a new
    ``GeneratorRegistry()`` serves the rows, on ``$SIEGEL2_CACHE`` as it
    stands at the call.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    registry = registry or GeneratorRegistry()
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
    lead = (0, 0, 0)
    for name, e in spec.exponents:
        residues = registry.generator_row(name, b).reduce_mod(p)
        if not residues:
            raise ValueError(f"witness {spec} vanishes mod {p} on its box")
        lead = tuple(x + e * y for x, y in zip(lead, leading_index(residues)))
    if lead[2] > b:
        raise ValueError(f"witness {spec} vanishes mod {p} on its box")
    violations = [(lead, 0)] if lead[0] < b and lead[2] < b else []
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

    A prime and a precision are checked before any suite runs, also for
    the suites that do not read them.  A suite stated only for its default
    primes reports any other prime as one SKIP that names them.  Without a
    ``registry``, a new ``GeneratorRegistry()`` serves the generators and
    caches them under ``$SIEGEL2_CACHE`` as it stands at the call.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if p is not None and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if precision is not None and precision < 0:
        raise ValueError("precision must be >= 0")
    default_precision, primes, stated, runner = _SUITES[suite]
    report = SuiteReport(suite)
    if p is not None and stated and p not in primes:
        report.skip(f"{suite}.p{p}", f"stated for p in {{{', '.join(map(str, primes))}}}")
        return report
    runner(
        list(primes) if p is None else [p],
        default_precision if precision is None else precision,
        registry or GeneratorRegistry(),
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
    dim = sum(layer_dimensions(12).values())
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
    """v(X10 f) = v(f) + 1 and v(X35 f) >= v(f) + 2 for each generator f
    mod p, v the diagonal vanishing order on the box B.

    A generator that vanishes on the box is a SKIP.  A product that vanishes
    on the box has an order known only to exceed B, printed "> B".  Its step
    is a SKIP "(insufficient precision)" when the value it is checked
    against, v(f) + 1 or v(f) + 2, lies past B; otherwise the truncation
    decides it: the x10-step is a FAIL and the x35-step a PASS.

    The 14 products X10 f and X35 f are formed once over Z and reduced per
    prime: reduction mod p is a ring homomorphism on p-integral expansions,
    (g f) mod p = (g mod p)(f mod p), so these are the orders mod p.
    """
    forms = {name: registry.generator(name, B) for name in GENERATOR_NAMES}
    products = {name: (forms["X10"] * f, forms["X35"] * f) for name, f in forms.items()}
    for p in ps:
        for name in GENERATOR_NAMES:
            v = diagonal_vanishing_order(forms[name].reduce_mod(p))
            if v is None:
                report.skip(f"borcherds.p{p}.{name}", "generator vanishes on the box")
                continue
            v10, v35 = (diagonal_vanishing_order(g.reduce_mod(p)) for g in products[name])
            shown10, shown35 = (f"> {B}" if order is None else order for order in (v10, v35))
            steps = (
                ("x10", v10, v + 1, v10 == v + 1,
                 f"v({name}) = {v}, v(X10*{name}) = {shown10}, expected {v + 1}"),
                ("x35", v35, v + 2, v35 is None or v35 >= v + 2,
                 f"v(X35*{name}) = {shown35}, needs >= {v + 2}"),
            )
            for step, order, want, ok, detail in steps:
                check_id = f"borcherds.p{p}.{name}.{step}-step"
                if order is None and want > B:
                    report.skip(check_id, f"{detail} (insufficient precision)")
                else:
                    report.add(ok, check_id, detail)


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
