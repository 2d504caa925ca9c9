"""Construction, pinning, and caching of the seven named generators.

The ring of even-weight degree-2 forms with integer coefficients is
generated in low weight by X4, X6 (Eisenstein), the cusp forms X10, X12,
and the integral companions Y12 and X16; the odd part is X35 times the
even part.  This module builds pinned normalisations of all seven:

* X4, X6   -- Maass lifts of (-2k/B_k) E_{k,1}, whose constant term is 1,
* X10, X12 -- Maass lifts of the index-1 cusp forms with c(3) = 1,
* Y12      -- (X4^3 - X6^2)/1728 + 144 X12,
* X16      -- (X4 X12 - X6 X10)/12,
* X35      -- the normalised theta-derivative determinant of X4, X6, X10, X12.

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
"""

from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

from . import qformat
from .errors import ConstructionError
from .expansion import SiegelExpansion, wronskian35
from .jacobi import JacobiForm1, jacobi_combine, jacobi_eisenstein, maass_lift
from .qexp1 import DiagSeries, diag_builder, eisenstein1
from .rationals import bernoulli, normalize
from .records import FrozenRecord
from .series import chain_power

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
        return self.leading_index[0]

    def times(self, name: str) -> "MonomialSpec":
        """The monomial multiplied by one more factor of ``name``."""
        d = dict(self.exponents)
        d[name] = d.get(name, 0) + 1
        return MonomialSpec.from_dict(d)

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
    """

    def __init__(self, cache_dir=None):
        if cache_dir is None:
            cache_dir = os.environ.get("SIEGEL2_CACHE", "cache")
        self.cache_dir = Path(cache_dir)
        # The highest-precision expansion held per name, and the expansions
        # served per (name, precision), each truncated once.
        self._forms: dict[str, SiegelExpansion] = {}
        self._served: dict[tuple[str, int], SiegelExpansion] = {}
        # Power chains [g, g^2, ...] over Z per (name, precision).
        self._powers: dict[tuple[str, int], list[SiegelExpansion]] = {}
        # Monomials over Z per (spec, precision).
        self._monomials: dict[tuple[MonomialSpec, int], SiegelExpansion] = {}

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
                # A FormatError is a ValueError, and so are the pins' refusals
                # of the zero expansion and of a scale other than 1.
                pass
            path.unlink(missing_ok=True)
        return None

    def _store(self, name: str, exp: SiegelExpansion) -> None:
        path = self._cache_path(name, exp.precision)
        qformat.save_atomic(path, qformat.dump_siegel(exp, name))

    # -- monomials ------------------------------------------------------------

    def power(self, name: str, exponent: int, precision: int) -> SiegelExpansion:
        """The generator power g^e over Z, e >= 1, from the chain g, g^2, ...
        held per (name, precision) (``series.chain_power``); g^1 is the generator."""
        return chain_power(self._powers, (name, precision), self.generator, exponent)

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


_DEFAULT_REGISTRY: GeneratorRegistry | None = None


def default_registry() -> GeneratorRegistry:
    """Process-wide registry honouring $SIEGEL2_CACHE."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = GeneratorRegistry()
    return _DEFAULT_REGISTRY


# -- builders ----------------------------------------------------------------


def _build(name: str, precision: int, registry: GeneratorRegistry) -> SiegelExpansion:
    dmax = 4 * precision * precision
    if name in ("X4", "X6"):
        k = GENERATOR_WEIGHTS[name]
        scale = normalize(Fraction(-2 * k) / bernoulli(k))
        phi = JacobiForm1(k, dmax, {d: scale * c for d, c in jacobi_eisenstein(k, dmax).c.items()})
        return maass_lift(phi, precision)
    if name in ("X10", "X12"):
        qprec = dmax // 4
        e4 = eisenstein1(4, qprec)
        e6 = eisenstein1(6, qprec)
        e41 = jacobi_eisenstein(4, dmax)
        e61 = jacobi_eisenstein(6, dmax)
        c = Fraction(1, 144)
        if name == "X10":
            phi = jacobi_combine([(c, e6, e41), (-c, e4, e61)])
        else:
            phi = jacobi_combine([(c, e4 * e4, e41), (-c, e6, e61)])
        return maass_lift(phi, precision)
    if name == "Y12":
        x4 = registry.generator("X4", precision)
        x6 = registry.generator("X6", precision)
        x12 = registry.generator("X12", precision)
        return (x4**3 - x6**2) * Fraction(1, 1728) + 144 * x12
    if name == "X16":
        x4 = registry.generator("X4", precision)
        x6 = registry.generator("X6", precision)
        x10 = registry.generator("X10", precision)
        x12 = registry.generator("X12", precision)
        return (x4 * x12 - x6 * x10) * Fraction(1, 12)
    if name == "X35":
        return wronskian35(
            registry.generator("X4", precision),
            registry.generator("X6", precision),
            registry.generator("X10", precision),
            registry.generator("X12", precision),
        )
    raise ValueError(f"unknown generator {name!r}")


def _pin(name: str, exp: SiegelExpansion) -> None:
    """Fail loudly unless the build satisfies every pinned identity.

    The symmetry and leading-term pins together also pin the layer: the
    build vanishes wherever min(m, n) is below its leading m (see ``_LEADING``).
    """
    for key, c in exp.coeffs.items():
        if not isinstance(c, int):
            raise ConstructionError(f"{name}: non-integral coefficient {c} at {key}")
    bad = exp.symmetry_violations()
    if bad:
        raise ConstructionError(f"{name}: sign symmetry fails at {bad[0]}")
    index, value = _LEADING[name]
    lt = exp.leading_term()
    if lt.index != index or lt.coefficient != value:
        raise ConstructionError(
            f"{name}: leading term {lt.index} -> {lt.coefficient}, "
            f"expected {index} -> {value}"
        )
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
