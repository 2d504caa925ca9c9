"""Construction, pinning, and caching of the seven named generators.

The ring of even-weight degree-2 forms with integer coefficients is
generated in low weight by X4, X6 (Eisenstein), the cusp forms X10, X12,
and the integral companions Y12 and X16; the odd part is X35 times the
even part.  This module builds pinned normalisations of all seven:

* X4, X6   -- Maass lifts of (-2k/B_k) E_{k,1}, whose constant term is 1,
* X10, X12 -- Maass lifts of the index-1 cusp forms with c(3) = 1,
* Y12      -- (X4^3 - X6^2)/1728 + 144 X12,
* X16      -- (X4 X12 - X6 X10)/12, the Maass lift of Delta E_{4,1},
* X35      -- the normalised theta-derivative determinant of X4, X6, X10, X12.

X4, X6, X10, X12 and X16 are built from their Jacobi forms alone (``_jacobi``)
and read no other generator; Y12 is formed from the pinned X4, X6 and X12,
and X35 from the pinned X4, X6, X10 and X12.

Each generator fact is written once: the leading terms in ``_LEADING``,
from which ``MonomialSpec.leading_index`` gives every monomial's, and the
diagonal images in ``WITT_PINS``, which the ``witt-images`` suite reports.
Every expansion the registry serves, built or loaded from disk, is a
truncation of one that passed its pinning suite: integer coefficients
throughout, the sign symmetries, the declared leading term, and its
``WITT_PINS`` rows.  Builds are cached on disk in the text format and
served at lower precision by truncation.  The cache directory defaults to
$SIEGEL2_CACHE or ./cache.  Monomials in the generators are formed over Z,
each one packed product of powers from a chain g, g^2, ... per generator.

The certificates and witnesses read no whole box.  They read the
generators' leading Fourier-Jacobi rows, which ``_lifted_row`` forms over
Z each from its own formula: E4, E6 or Delta for a row 0, the Jacobi
coefficients c(4n - r^2) for a row 1, and for X35 the determinant of the
rows of X4, X6, X10 and X12.  No generator is built, loaded, pinned or
cached for them, but each row is checked integral as it is formed
(``_integral``, the check ``_pin`` starts with).  A certificate reads
each row's leading coefficient at zeta = 1 mod p, a dict of residues per
n (``taylor_lead``), and multiplies those as packed integers, one slot
per n (``packed_mul``); a witness reads only each row's leading index
mod p, and adds them.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction
from itertools import count
from math import comb, isqrt
from pathlib import Path

from . import qformat
from .errors import ConstructionError
from .expansion import SiegelExpansion, wronskian35
from .jacobi import JacobiForm1, jacobi_combine, jacobi_eisenstein, maass_lift
from .qexp1 import DiagSeries, delta1, diag_builder, eisenstein1
from .rationals import bernoulli, normalize
from .records import FrozenRecord

GENERATOR_WEIGHTS = {
    "X4": 4,
    "X6": 6,
    "X10": 10,
    "X12": 12,
    "Y12": 12,
    "X16": 16,
    "X35": 35,
}
GENERATOR_NAMES = tuple(GENERATOR_WEIGHTS)

# Declared leading terms (index, coefficient) used as pins.  A pinned
# expansion must reach at least the leading index, else the pin cannot be
# checked: ``_MIN_PRECISION`` is the floor of every build and cache file.
# The m of the leading index is the generator's layer l, and the pins imply
# a(m, r, n) = 0 wherever min(m, n) < l: the leading-term pin clears every
# row m < l, and the pinned swap symmetry a(n, r, m) = +-a(m, r, n) then
# clears every column n < l.  ``MonomialSpec.layer`` reads it from here.
_LEADING = {
    "X4": ((0, 0, 0), 1),
    "X6": ((0, 0, 0), 1),
    "X10": ((1, -1, 1), 1),
    "X12": ((1, -1, 1), 1),
    "Y12": ((0, 0, 1), 1),
    "X16": ((1, 0, 1), 1),
    "X35": ((2, -1, 3), 1),
}
_MIN_PRECISION = {
    name: max(index[0], index[2]) for name, (index, _) in _LEADING.items()
}

# Declared Witt images, in the order the witt-images suite reports them:
# (generator, Taylor order, image).  An image is a product of diag_builder
# names and integers.  W(X35) = 0 is not listed: the odd-weight sign
# symmetry, pinned first, implies it.
WITT_PINS = (
    ("X4", 0, "x4"),
    ("X6", 0, "x6"),
    ("X10", 0, "0"),
    ("X12", 0, "12 x12"),
    ("Y12", 0, "y12"),
    ("X16", 0, "x4 x12"),
    ("X10", 2, "x12"),
    ("X12", 2, "x2 x12"),
    ("X35", 1, "alpha36"),
)
WITT_LAYERS = ("restriction", "first-layer", "second-layer")


class MonomialSpec(FrozenRecord):
    """A monomial in the named generators, e.g. X10^2 * X12.

    ``exponents`` holds (name, exponent) pairs with exponent >= 1, in the
    canonical generator order.  The empty monomial is the constant 1.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[tuple[str, int], ...] = ()):
        seen = set()
        for name, e in exponents:
            if name not in GENERATOR_WEIGHTS:
                raise ValueError(f"unknown generator {name!r}")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if name in seen:
                raise ValueError(f"duplicate generator {name!r}")
            seen.add(name)
        order = {name: i for i, name in enumerate(GENERATOR_NAMES)}
        self._set(tuple(sorted(exponents, key=lambda item: order[item[0]])))

    @classmethod
    def from_dict(cls, exponents: dict) -> "MonomialSpec":
        return cls(tuple((k, v) for k, v in exponents.items() if v))

    @classmethod
    def _canonical(cls, exponents: tuple) -> "MonomialSpec":
        """A monomial from valid pairs in the canonical order, unchecked."""
        spec = object.__new__(cls)
        object.__setattr__(spec, "exponents", exponents)
        return spec

    @property
    def weight(self) -> int:
        return sum(GENERATOR_WEIGHTS[name] * e for name, e in self.exponents)

    @property
    def leading_index(self) -> tuple:
        """The product's leading index: leading terms add under the (m, n, r)
        order, and every generator leads with coefficient 1."""
        return tuple(
            sum(_LEADING[name][0][i] * e for name, e in self.exponents)
            for i in range(3)
        )

    @property
    def layer(self) -> int:
        """The sum of the factors' layers, the m of the leading index: the
        product vanishes wherever min(m, n) is below it."""
        return sum(_LEADING[name][0][0] * e for name, e in self.exponents)

    def __str__(self):
        if not self.exponents:
            return "1"
        return "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in self.exponents
        )


class GeneratorRegistry:
    """Named, pinned, disk-cached generator expansions and their monomials.

    A cached entry at precision B serves any request at precision <= B by
    truncation, both in memory and from disk; every entry, built or loaded,
    has passed ``_pin`` at a precision of at least ``_MIN_PRECISION``.
    Writes go through a temp file and an atomic rename, so concurrent
    builders of the same entry can race and still leave identical bytes.

    The certificates' and witnesses' rows come from no cached or pinned
    expansion: the registry holds each generator's leading row over Z
    (``generator_row``) at the largest bound asked, and power chains mod p
    of its leading coefficient at zeta = 1, as packed rows, the packed 0
    for a row 0 mod p (``taylor_power`` and ``packed_mul``, for the
    certificates), but no row mod p and no monomial's row.  ``build``,
    ``show`` and the suites read the pinned generators (``generator``,
    ``monomial``).
    """

    def __init__(self, cache_dir=None):
        if cache_dir is None:
            cache_dir = os.environ.get("SIEGEL2_CACHE", "cache")
        self.cache_dir = Path(cache_dir)
        # The highest-precision expansion held per name, and the expansions
        # served per (name, precision), each truncated once.
        self._forms: dict[str, SiegelExpansion] = {}
        self._served: dict[tuple[str, int], SiegelExpansion] = {}
        # Power chains [g, g^2, ...] of the generators over Z per (name,
        # precision) (``power``).
        self._chains: dict[tuple[str, int], list[SiegelExpansion]] = {}
        # (valuation, power chain of the leading coefficient at zeta = 1 as
        # packed rows mod p) per (name, bound, p) (``taylor_power``); the
        # chain of a packed 0 or 1 holds it alone.
        self._taylor: dict[tuple[str, int, int], tuple[int, list[int]]] = {}
        # Monomials over Z per (spec, precision).
        self._monomials: dict[tuple[MonomialSpec, int], SiegelExpansion] = {}
        # The generators' leading rows over Z per name, at the largest bound
        # asked (``generator_row``).
        self._lifted: dict[str, SiegelExpansion] = {}

    # -- generators ---------------------------------------------------------

    def generator(self, name: str, precision: int) -> SiegelExpansion:
        """The named generator, complete to the requested precision: the
        truncation of an expansion that passed its pins.  A request below the
        leading index is served from one held, loaded or built at that floor
        (``_MIN_PRECISION``).  A request above the held precision is a fresh
        load or build, and the lower builds are wasted: ask for the top
        precision first."""
        if name not in GENERATOR_WEIGHTS:
            raise ValueError(f"unknown generator {name!r}")
        if precision < 0:
            raise ValueError("precision must be >= 0")
        served = self._served.get((name, precision))
        if served is not None:
            return served
        held = self._forms.get(name)
        if held is None or held.precision < precision:
            floor = max(precision, _MIN_PRECISION[name])
            held = self._load(name, floor)
            if held is None:
                held = _build(name, floor, self)
                _pin(name, held)
                self._store(name, held)
            self._forms[name] = held
        served = self._served[(name, precision)] = held.truncate(precision)
        return served

    def _cache_path(self, name: str, precision: int) -> Path:
        return self.cache_dir / f"{name}.p{precision}.qexp"

    def _load(self, name: str, precision: int) -> SiegelExpansion | None:
        """The smallest usable cache file at or above the precision, pinned,
        or None.

        A file that does not parse, holds another generator or weight, falls
        short of the request in its header, or fails its pins is a miss and
        is deleted, so no later request reads it again; the next candidate
        is tried, and the rebuild writes the built precision's file.
        """
        candidates = []
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob(f"{name}.p*.qexp"):
                try:
                    prec = int(path.name.split(".p")[-1].removesuffix(".qexp"))
                except ValueError:
                    continue
                if prec >= precision:
                    candidates.append((prec, path))
        for _, path in sorted(candidates):
            try:
                stored_name, exp = qformat.parse_siegel(qformat.decode(path.read_bytes()))
                if (
                    stored_name == name
                    and exp.weight == GENERATOR_WEIGHTS[name]
                    and exp.precision >= precision
                ):
                    _pin(name, exp)
                    return exp
            except (ValueError, ConstructionError):
                # A FormatError is a ValueError, and so is the pins' refusal
                # of the zero expansion.
                pass
            path.unlink(missing_ok=True)
        return None

    def _store(self, name: str, exp: SiegelExpansion) -> None:
        path = self._cache_path(name, exp.precision)
        qformat.save_atomic(path, qformat.dump_siegel(exp, name))

    # -- monomials ------------------------------------------------------------

    def power(self, name: str, exponent: int, precision: int) -> SiegelExpansion:
        """The generator power g^e over Z, e >= 1, from the chain [g, g^2, ...]
        held per (name, precision) (``_grown``); g^1 is the generator."""
        chain = self._chains.get((name, precision))
        if chain is None:
            chain = self._chains[name, precision] = [self.generator(name, precision)]
        return _grown(chain, exponent)

    def generator_row(self, name: str, bound: int) -> SiegelExpansion:
        """The generator's leading row over Z: row m = l, l its layer
        (``_LEADING``), to n <= bound, formed from its own formula
        (``_lifted_row``), with no whole box built, loaded or pinned.  One
        row is held per name, at the largest bound asked, floored at
        ``_MIN_PRECISION`` as ``generator`` is; a smaller bound is its cut.

        X35's row 2 is ``wronskian35`` of the rows held for X4, X6, X10 and
        X12: a sum of products of one entry per column, each entry k f,
        theta_1 f, theta_12 f or theta_2 f of that column's form f.  The
        theta operators scale each coefficient in place, and m adds under
        products, so row m of such a product is a sum of products of the
        rows m_c of the columns, m_1 + ... + m_4 = m.  X10 and X12 have no
        row 0, so row 2 reads only row 0 of X4 and X6 and row 1 of X10 and
        X12, and the determinant of those four rows is row 2 and nothing
        else.  A row has no mirrors, so ``_parity`` finds no swap sign and
        nothing is folded.  Every row formed is checked integral, as ``_pin``
        checks a generator, and refused with ``ConstructionError``."""
        held = self._lifted.get(name)
        if held is None or held.precision < bound:
            floor = max(bound, _MIN_PRECISION[name])
            if name == "X35":
                held = wronskian35(*(self.generator_row(g, floor) for g in ("X4", "X6", "X10", "X12")))
            else:
                held = _lifted_row(name, floor)
            _integral(name, held)
            self._lifted[name] = held
        return held if held.precision == bound else held.truncate(bound)

    def taylor_power(self, name: str, exponent: int, bound: int, p: int) -> tuple[int, int]:
        """(e v, g^e) mod p, e >= 1, for (v, h) = ``taylor_lead`` of the
        generator's leading row (``generator_row``) reduced mod p on
        n <= bound and g the packed row of h (``packed``), and (0, 0) when
        that row is 0 mod p: the packed 0, whose every product is 0.  g^e is
        a packed row (``packed_mul``) from a chain held per (name, bound, p)
        (``_grown``); the packed 0 and the packed 1 are their own powers,
        and grow no chain."""
        if exponent < 1:
            raise ValueError("exponents must be >= 1")
        key = (name, bound, p)
        if key not in self._taylor:
            v, h = taylor_lead(self.generator_row(name, bound).reduce_mod(p)) or (0, {})
            self._taylor[key] = v, [packed(h, bound, p)]
        v, chain = self._taylor[key]
        if chain[0] in (0, 1):
            return exponent * v, chain[0]
        return exponent * v, _grown(chain, exponent, packed_mul, bound, p)

    def monomial(self, spec: MonomialSpec, precision: int) -> SiegelExpansion:
        """Product expansion of a generator monomial at the given precision."""
        key = (spec, precision)
        held = self._monomials.get(key)
        if held is None:
            # One packed product of all the factor powers.  X35 and the cusp
            # forms go first: their partial products have small supports.
            factors = [self.power(name, e, precision) for name, e in reversed(spec.exponents)]
            held = self._monomials[key] = SiegelExpansion._product(
                factors or [SiegelExpansion.constant(1, precision)]
            )
        return held


def _grown(chain: list, e: int, mul=operator.mul, *args):
    """g^e, e >= 1, from the power chain [g, g^2, ...], grown by one product
    mul(g^i, g, *args) at a time, so each power is formed once for every
    monomial, and F_p residues are reduced between multiplies, unlike ``**``."""
    if e < 1:
        raise ValueError("exponents must be >= 1")
    while len(chain) < e:
        chain.append(mul(chain[-1], chain[0], *args))
    return chain[e - 1]


# -- builders ----------------------------------------------------------------


def _jacobi(name: str, dmax: int) -> JacobiForm1:
    """The index-1 Jacobi form to dmax whose Maass lift V (Eichler-Zagier,
    *The Theory of Jacobi Forms*, Theorem 6.2) is X4, X6, X10, X12 or X16.

    X16 = (X4 X12 - X6 X10)/12 is V(Delta E_{4,1}).  With
    phi10 = (E6 E_{4,1} - E4 E_{6,1})/144 and
    phi12 = (E4^2 E_{4,1} - E6 E_{6,1})/144, the forms of X10 and X12,
    E4 phi12 - E6 phi10 = (E4^3 - E6^2) E_{4,1}/144 = 12 Delta E_{4,1}.  The
    rows 0 of X10 and X12 are 0, so row 1 of (X4 X12 - X6 X10)/12 is
    (E4 phi12 - E6 phi10)/12 = Delta E_{4,1}, which is row 1 of its lift;
    Delta E_{4,1} has c(0) = 0, so the lift's row 0 is 0, as is X16's.  So
    X16 - V(Delta E_{4,1}) is a weight-16 form whose rows 0 and 1 vanish,
    and by the swap symmetry so do its columns 0 and 1: it vanishes on the
    box b_16 = 1.  Theorem 1 at k = 16, which ``verify_theorem1_rank``
    certifies at p = 5 with GENSET_C, which has no X16, then makes it 0: a
    nonzero rational difference, scaled to a primitive integral form,
    would be nonzero mod 5."""
    if name in ("X4", "X6"):
        k = GENERATOR_WEIGHTS[name]
        scale = normalize(Fraction(-2 * k) / bernoulli(k))
        return JacobiForm1(k, dmax, {d: scale * c for d, c in jacobi_eisenstein(k, dmax).c.items()})
    e41 = jacobi_eisenstein(4, dmax)
    if name == "X16":
        return jacobi_combine([(1, delta1(dmax // 4), e41)])
    e4 = eisenstein1(4, dmax // 4)
    e6 = eisenstein1(6, dmax // 4)
    e61 = jacobi_eisenstein(6, dmax)
    c = Fraction(1, 144)
    if name == "X10":
        return jacobi_combine([(c, e6, e41), (-c, e4, e61)])
    return jacobi_combine([(c, e4 * e4, e41), (-c, e6, e61)])


def _lifted_row(name: str, bound: int) -> SiegelExpansion:
    """The generator's row m = l over Z, l its layer, to n <= bound, each
    from its own formula: no whole box is built.  X35's row 2 is formed
    from the rows of X4, X6, X10 and X12 (``GeneratorRegistry.generator_row``).

    * X4 and X6 are Maass lifts, whose row 0 is sigma_{k-1}(n) c(0), the
      Eisenstein series E4 or E6 (``eisenstein1``).
    * Y12 = (X4^3 - X6^2)/1728 + 144 X12, and X12's row 0 is 0, so Y12's
      row 0 is (E4^3 - E6^2)/1728 = Delta.
    * X10, X12 and X16 = V(Delta E_{4,1}) are Maass lifts (``_jacobi``), so
      each row 1 is that of the lift of its Jacobi form:
      a(1, r, n) = c(4n - r^2), as gcd(1, r, n) = 1 leaves one term of the
      divisor sum, read from c(D), D <= 4 bound.  The lift's row 0 is
      sigma_{k-1}(n) c(0), so row 1 leads only when c(0) = 0, as the
      certificates' layer argument needs on the box: any other form is
      refused.
    """
    if name in ("X4", "X6", "Y12"):
        f = delta1(bound) if name == "Y12" else eisenstein1(GENERATOR_WEIGHTS[name], bound)
        row = {(0, 0, n): c for n, c in f.coeffs.items()}
    else:
        phi = _jacobi(name, 4 * bound)
        if phi.coeff(0):
            raise ConstructionError(f"{name}: c(0) = {phi.coeff(0)}, so the lift has a row 0")
        row = {}
        for n in range(bound + 1):
            for r in range(isqrt(4 * n) + 1):
                if c := phi.coeff(4 * n - r * r):
                    row[1, r, n] = row[1, -r, n] = c
    return SiegelExpansion._unchecked(bound, row, GENERATOR_WEIGHTS[name], modulus=None)


def taylor_lead(row: SiegelExpansion):
    """(v, h) for a row m = l on its n <= precision, or None for a row that
    is 0 there: h_t(n) = sum_r binom(r, t) a(l, r, n) is the u^t coefficient
    of the row at zeta = 1 + u (``verify`` module docstring), with
    binom(r, t) = r(r - 1)...(r - t + 1)/t!, an integer for r < 0 too.  v
    is the least t with h_t != 0, at most twice the largest |r|, and h the
    dict {n: h_v(n)} of its nonzero values: integers for a row over Z,
    residues in [0, p) for a row reduced mod p."""
    p, terms = row.modulus, {}
    for (_, r, n), c in row.coeffs.items():
        terms.setdefault(n, []).append((r, c))
    if not terms:
        return None
    for t in count():
        h = {}
        for n, pairs in terms.items():
            c = sum((comb(r, t) if r >= 0 else (-1) ** t * comb(t - r - 1, t)) * a for r, a in pairs)
            if c := (c if p is None else c % p):
                h[n] = c
        if h:
            return t, h


def _slot_width(bound: int, p: int) -> int:
    """Bits per slot of a packed row mod p on n <= bound (``packed_mul``)."""
    return ((bound + 1) * (p - 1) ** 2).bit_length()


def packed(coeffs: dict, bound: int, p: int) -> int:
    """The packed row mod p (``packed_mul``) of residues {n: h(n)}, n <= bound."""
    w = _slot_width(bound, p)
    return sum(c << w * n for n, c in coeffs.items())


def packed_mul(a: int, b: int, bound: int, p: int) -> int:
    """The product mod p of two packed rows on n <= bound.

    A packed row is one integer whose slot n, w bits wide, holds h(n) in
    [0, p), w the bit length of (bound + 1)(p - 1)^2 (``_slot_width``).
    Slot n of the integer product a * b is sum_{i + j = n} h(i) h'(j), i and
    j <= bound: at most bound + 1 products of two residues, so at most
    (bound + 1)(p - 1)^2 < 2^w.  So no slot carries into the next, each
    holds its coefficient of the product whole, and none is negative, so
    none needs a signed decode.  The slots above bound are dropped and each
    kept slot is reduced mod p: one multiply and one reduce per factor.
    The packed 1 is an identity: every packed row is already reduced and
    cut, so a product with 1 is the other factor, with no reduce."""
    if a == 1 or b == 1:
        return a * b
    w = _slot_width(bound, p)
    mask = (1 << w) - 1
    x, out = a * b, 0
    for shift in range(0, w * (bound + 1), w):
        if not x:
            break
        out |= (x & mask) % p << shift
        x >>= w
    return out


def unpacked(x: int, bound: int, p: int) -> list:
    """The bound + 1 slots [h(0), ..., h(bound)] of a packed row mod p (``packed_mul``)."""
    w = _slot_width(bound, p)
    mask = (1 << w) - 1
    return [x >> w * n & mask for n in range(bound + 1)]


def _build(name: str, precision: int, registry: GeneratorRegistry) -> SiegelExpansion:
    if name in ("X4", "X6", "X10", "X12", "X16"):
        return maass_lift(_jacobi(name, 4 * precision * precision), precision)
    if name == "Y12":
        x4 = registry.generator("X4", precision)
        x6 = registry.generator("X6", precision)
        x12 = registry.generator("X12", precision)
        return (x4**3 - x6**2) * Fraction(1, 1728) + 144 * x12
    if name == "X35":
        return wronskian35(
            registry.generator("X4", precision),
            registry.generator("X6", precision),
            registry.generator("X10", precision),
            registry.generator("X12", precision),
        )
    raise ValueError(f"unknown generator {name!r}")


def _integral(name: str, exp: SiegelExpansion) -> None:
    """Refuse an expansion or row of the generator with a non-integer coefficient."""
    for key, c in exp.coeffs.items():
        if not isinstance(c, int):
            raise ConstructionError(f"{name}: non-integral coefficient {c} at {key}")


def _pin(name: str, exp: SiegelExpansion) -> None:
    """Fail loudly unless the build satisfies every pinned identity.

    The symmetry and leading-term pins together also pin the layer: the
    build vanishes wherever min(m, n) is below its leading m (see ``_LEADING``).
    """
    _integral(name, exp)
    bad = exp.symmetry_violations()
    if bad:
        raise ConstructionError(f"{name}: sign symmetry fails at {bad[0]}")
    lead = exp.leading_term()
    if lead != _LEADING[name]:
        (got, c), (index, value) = lead, _LEADING[name]
        raise ConstructionError(f"{name}: leading term {got} -> {c}, expected {index} -> {value}")
    for pinned, order, image in WITT_PINS:
        if pinned != name:
            continue
        got, want = exp.witt(order), witt_image(image, exp.precision)
        if got != want:
            keys = sorted(set(got.coeffs) | set(want.coeffs))
            witness = next(k for k in keys if got.coeffs.get(k) != want.coeffs.get(k))
            raise ConstructionError(
                f"{name}: {WITT_LAYERS[order]} image differs from its pin at {witness}"
            )


def witt_image(text: str, precision: int) -> DiagSeries:
    """The diagonal series a ``WITT_PINS`` image names, e.g. "12 x12" or "0"."""
    image = DiagSeries(precision, {(0, 0): 1})
    for token in text.split():
        image = image * (int(token) if token.isdigit() else diag_builder(token, precision))
    return image
