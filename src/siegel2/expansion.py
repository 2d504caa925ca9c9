"""Truncated Fourier expansions of degree-2 Siegel modular forms.

An expansion stores exact coefficients a(m, r, n) for the index box
0 <= m, n <= scale * precision with 4mn - r^2 >= 0.  Both signs of r are
stored explicitly; the weight tag k drives the sign symmetries

    a(m, -r, n) = (-1)^k a(m, r, n),      a(n, r, m) = (-1)^k a(m, r, n),

which every honestly constructed form satisfies and ``symmetry_violations``
checks.  Indices live in (1/scale)Z and are stored premultiplied by scale,
so level-N expansions with fractional indices use scale = N.

A ``modulus`` of p marks an expansion whose coefficients have been reduced
to F_p residues; ring operations (from ``siegel2.series``) then stay in F_p.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt

from .errors import ConstructionError, NotPIntegral, PrecisionError
from .qexp1 import DiagSeries
from .rationals import normalize, reduce_mod_p
from .records import FrozenRecord
from .series import SCALARS, SparseSeries, _accumulate, _bits, _decoded
from .series import _integral, _rational, _slot_width


class LeadingTerm(FrozenRecord):
    """Minimal-index nonzero coefficient under lexicographic (m, n, r) order."""

    __slots__ = ("m", "r", "n", "coefficient")

    def __init__(self, m: int, r: int, n: int, coefficient):
        self._set(m, r, n, coefficient)

    @property
    def index(self):
        return (self.m, self.r, self.n)


class BeyondPrecision:
    """Diagonal vanishing order known only to exceed the computed box.

    Represents the exact statement "the order is > bound".  Comparisons
    against values within the box are decided; anything else raises,
    because the truncation cannot answer it.
    """

    __slots__ = ("bound",)

    def __init__(self, bound):
        self.bound = bound

    def _decidable(self, other):
        if isinstance(other, BeyondPrecision):
            raise PrecisionError("cannot order two beyond-precision values")
        if other > self.bound:
            raise PrecisionError(
                f"comparison with {other} undecidable: only '> {self.bound}' is known"
            )

    def __gt__(self, other):
        if isinstance(other, SCALARS) and other <= self.bound:
            return True
        self._decidable(other)
        return True

    def __ge__(self, other):
        return self.__gt__(other)

    def __lt__(self, other):
        self._decidable(other)
        return False

    def __le__(self, other):
        self._decidable(other)
        return False

    def __eq__(self, other):
        return isinstance(other, BeyondPrecision) and other.bound == self.bound

    def __hash__(self):
        return hash(("BeyondPrecision", self.bound))

    def __repr__(self):
        return f"> {self.bound}"


class SiegelExpansion(SparseSeries):
    """Exact truncated Fourier expansion of a degree-2 form."""

    __slots__ = ("scale", "modulus")
    _RING = ("scale", "modulus")

    def __init__(self, weight, precision, coeffs=None, scale=1, modulus=None):
        if scale < 1:
            raise ValueError("scale must be >= 1")
        self.scale = scale
        self.modulus = modulus
        super().__init__(precision, coeffs, weight, modulus)

    @classmethod
    def constant(cls, value, precision, weight=0, scale=1, modulus=None):
        """The constant expansion value * q^0."""
        return cls(weight, precision, {(0, 0, 0): value}, scale, modulus)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        """Stored indices sorted by the (m, n, r) monomial order."""
        return sorted(self.coeffs, key=lambda k: (k[0], k[2], k[1]))

    # -- the key shape ----------------------------------------------------

    def _box(self, precision):
        return self.scale * precision

    def _kept(self, coeffs, box):
        return {k: c for k, c in coeffs.items() if 0 <= k[0] <= box and 0 <= k[2] <= box}

    def _check_indices(self, coeffs, box):
        for m, r, n in coeffs:
            if not (0 <= m <= box and 0 <= n <= box):
                raise ValueError(f"index {(m, r, n)} outside box [0..{box}]^2")
            if 4 * m * n - r * r < 0:
                raise ValueError(f"index {(m, r, n)} is not positive semi-definite")

    def _rows(self, ints, width):
        """Per (m, n) block, [sum of c * 2^(width * (r + R)), R] with R = isqrt(4mn)."""
        blocks = {}
        for (m, r, n), c in ints.items():
            block = blocks.get((m, n))
            if block is None:
                top = isqrt(4 * m * n)
                blocks[m, n] = [c << width * (r + top), top]
            else:
                block[0] += c << width * (r + block[1])
        return blocks

    def _slots(self, m, n, box):
        top = isqrt(4 * m * n)
        return [(m, r, n) for r in range(-top, top + 1)]

    def _one(self):
        return SiegelExpansion(0, self.precision, {(0, 0, 0): 1}, self.scale, self.modulus)

    def __repr__(self):
        mod = f", mod {self.modulus}" if self.modulus else ""
        return (
            f"SiegelExpansion(weight={self.weight}, precision={self.precision}, "
            f"scale={self.scale}{mod}, {len(self.coeffs)} terms)"
        )

    # -- reductions and invariants ----------------------------------------

    def reduce_mod(self, p: int) -> "SiegelExpansion":
        """Coefficientwise reduction to F_p; rejects non-p-integral entries."""
        if self.modulus is not None:
            raise ValueError("expansion is already reduced")
        out = {}
        for key, c in self.coeffs.items():
            try:
                if (v := reduce_mod_p(c, p)):
                    out[key] = v
            except NotPIntegral:
                raise NotPIntegral(f"coefficient at {key} = {c} is not {p}-integral") from None
        return SiegelExpansion._unchecked(
            self.precision, out, self.weight, scale=self.scale, modulus=p
        )

    def symmetry_violations(self) -> list:
        """Indices violating the weight-driven sign symmetries (empty = pass)."""
        if self.weight is None:
            raise ValueError("symmetry check needs a weight tag")
        sign = -1 if self.weight % 2 else 1
        bad = []
        for (m, r, n), c in self.coeffs.items():
            mirror = sign * self.coeffs.get((m, -r, n), 0)
            swap = sign * self.coeffs.get((n, r, m), 0)
            if self.modulus is not None:
                mirror %= self.modulus
                swap %= self.modulus
            if mirror != c or swap != c:
                bad.append((m, r, n))
        return sorted(bad, key=lambda k: (k[0], k[2], k[1]))

    def leading_term(self) -> LeadingTerm:
        """Nonzero coefficient at the minimal index, ordering by m, then n, then r."""
        if not self.coeffs:
            raise ValueError("the zero expansion has no leading term")
        m, n, r = min((m, n, r) for (m, r, n) in self.coeffs)
        return LeadingTerm(m, r, n, self.coeffs[(m, r, n)])

    def diagonal_vanishing_order(self):
        """Size of the largest vanishing box of a reduced expansion.

        Returns min over the F_p support of max(m, n)/scale, or a
        ``BeyondPrecision`` sentinel when the expansion vanishes on the
        whole computed box.  An exact expansion is refused: reduce it first.
        """
        if self.modulus is None:
            raise ValueError("the vanishing order needs an expansion reduced mod p")
        if not self.coeffs:
            return BeyondPrecision(self.precision)
        smallest = min(max(m, n) for (m, r, n) in self.coeffs)
        return normalize(Fraction(smallest, self.scale))

    # -- operators ----------------------------------------------------------

    def witt(self, order: int = 0) -> DiagSeries:
        """Diagonal restriction and its first two normalised Taylor layers.

        order 0 sums a(m, r, n) over r; order 1 takes (1/2) sum r a(m, r, n);
        order 2 takes (1/2) sum r^2 a(m, r, n).  Requires scale 1 and exact
        coefficients.  The image has parallel weight k + order; the sign
        symmetries of weight k make it satisfy a(n, m) = (-1)^k a(m, n).
        """
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        if self.scale != 1:
            raise ValueError("diagonal restriction requires scale 1")
        if self.modulus is not None:
            raise ValueError("diagonal restriction requires exact coefficients")
        sums = {}
        for (m, r, n), c in self.coeffs.items():
            if order == 1:
                c = r * c
            elif order == 2:
                c = r * r * c
            key = (m, n)
            sums[key] = sums.get(key, 0) + c
        if order:
            sums = {k: normalize(Fraction(v, 2)) for k, v in sums.items() if v}
        weight = None if self.weight is None else self.weight + order
        return DiagSeries(self.precision, sums, weight)

    def theta(self, direction: int) -> "SiegelExpansion":
        """Normalised derivative along tau_1 (1), tau_12 (12) or tau_2 (2).

        Acts as multiplication of a(m, r, n) by m, r or n; the weight tag
        moves up by 2 (informational only).
        """
        if direction not in (1, 12, 2):
            raise ValueError("direction must be 1, 12 or 2")
        if self.scale != 1:
            raise ValueError("theta derivatives require scale 1")
        pick = {1: 0, 12: 1, 2: 2}[direction]
        out = {}
        for (m, r, n), c in self.coeffs.items():
            factor = (m, r, n)[pick]
            if factor:
                out[(m, r, n)] = factor * c
        weight = None if self.weight is None else self.weight + 2
        return SiegelExpansion(weight, self.precision, out, self.scale, self.modulus)


def box_indices(precision: int) -> list:
    """Every semi-definite index in the box m, n <= precision, in (m, n, r) order."""
    out = []
    for m in range(precision + 1):
        for n in range(precision + 1):
            rmax = isqrt(4 * m * n)
            for r in range(-rmax, rmax + 1):
                out.append((m, r, n))
    return out


# -- the odd-weight determinant construction --------------------------------

def _cross(m1, n1, m2, n2):
    """The block weight of the (theta_1, theta_2) minor."""
    return m1 * n2 - m2 * n1


def theta_determinant(forms) -> SiegelExpansion:
    """det of the 4x4 matrix with rows (k f), (theta_1 f), (theta_12 f),
    (theta_2 f) over four exact scale-1 expansions f, k being each weight tag.

    Laplace expansion on the row pairs (0, 2) and (1, 3): with {b, d} the
    complement of the columns {a, c},

        det = sum_{a<c} (-1)^(a+c) A_ac W_bd,

    A_ac the (k, theta_12) minor of columns a, c and W_bd the (theta_1,
    theta_2) minor of columns b, d.  Both come from shared block passes
    (``series._accumulate``) over each column's packed rows F_c and
    Q_c = theta_12 F_c.  One pass over F_a x F_c feeds S_ac = f_a f_c with
    weight 1 and W_ac with the block weight m1 n2 - m2 n1, which is that
    minor exactly, since theta_1 multiplies a block (m, n) by m and theta_2
    by n.  One pass over F_a x Q_c gives T_ac = f_a theta_12 f_c, and the
    product rule theta_12(f g) = f theta_12 g + g theta_12 f gives

        A_ac = k_a f_a theta_12 f_c - k_c f_c theta_12 f_a
             = (k_a + k_c) T_ac - k_c theta_12(S_ac).

    The six products A_ac W_bd go into one packed accumulator, decoded once:
    18 passes where a Laplace expansion by products takes 30.  Forms with
    denominators are scaled to integers as ``_product`` scales its factors,
    each column once (``_integral``), and the product of the lcms is
    divided out at the end (``_rational``).

    Slot widths follow ``_slot_width``.  The first stage adds bits(2 box^2)
    to the width of a product of two columns, counted from the two largest
    supports: it bounds the W weight |m1 n2 - m2 n1| <= box^2, and the
    theta_12 factor |r| <= 2 box of T.  The final stage adds bits(6) for its
    six terms to the widest of the six products A_ac W_bd.
    """
    forms = tuple(forms)
    for f in forms:
        if f.scale != 1 or f.modulus is not None:
            raise ValueError("the determinant needs exact scale-1 expansions")
    box = prec = min(f.precision for f in forms)
    weights = [f.weight for f in forms]
    ints, den = _integral(forms)
    pack, slots = forms[0]._rows, forms[0]._slots
    top = max(map(_bits, ints))
    width = _slot_width([top, top], sorted(map(len, ints))[-2:]) + (2 * box * box).bit_length()
    F = [pack(scaled, width) for scaled in ints]
    Q = [pack({k: k[1] * c for k, c in scaled.items() if k[1]}, width) for scaled in ints]
    pairs = list(itertools.combinations(range(4), 2))
    A, W = {}, {}
    for a, c in pairs:
        S_acc, W_acc, T_acc = {}, {}, {}
        _accumulate(F[a], F[c], box, width, [(S_acc, None), (W_acc, _cross)])
        _accumulate(F[a], Q[c], box, width, [(T_acc, None)])
        S = _decoded(S_acc, width, slots, box)
        T = _decoded(T_acc, width, slots, box)
        ka, kc = weights[a], weights[c]
        sign = -1 if (a + c) % 2 else 1
        minor = {}
        for key in S.keys() | T.keys():
            if (v := sign * ((ka + kc) * T.get(key, 0) - kc * key[1] * S.get(key, 0))):
                minor[key] = v
        A[a, c] = minor
        W[a, c] = _decoded(W_acc, width, slots, box)
    terms = [(A[a, c], W[tuple(j for j in range(4) if j not in (a, c))]) for a, c in pairs]
    width = max(_slot_width([_bits(x), _bits(y)], [len(x), len(y)]) for x, y in terms)
    width += (6).bit_length()
    acc = {}
    for x, y in terms:
        _accumulate(pack(x, width), pack(y, width), box, width, [(acc, None)])
    det = _rational(_decoded(acc, width, slots, box), den, None)
    return SiegelExpansion._unchecked(prec, det, sum(weights) + 6, scale=1, modulus=None)


def wronskian35(f4, f6, f10, f12) -> SiegelExpansion:
    """The weight-35 cusp form as a normalised theta-derivative determinant.

    Rows are (k_i f_i), (theta_1 f_i), ((1/2) theta_12 f_i), (theta_2 f_i)
    over the four even generators; the result is rescaled by the unique
    rational constant making the coefficient at (2, -1, 3) equal to 1.
    The determinant is linear in the theta_12 row, so
    ``theta_determinant`` computes it with the unhalved row; the final
    rescaling absorbs the factor 2.
    """
    forms = (f4, f6, f10, f12)
    weights = tuple(f.weight for f in forms)
    if weights != (4, 6, 10, 12):
        raise ValueError(f"expected weights (4, 6, 10, 12), got {weights}")
    prec = min(f.precision for f in forms)
    if prec < 3:
        raise PrecisionError("precision >= 3 is needed to normalise at (2, -1, 3)")
    det = theta_determinant(f.truncate(prec) for f in forms)
    pivot = det.coeff(2, -1, 3)
    if pivot == 0:
        raise ConstructionError(
            "determinant vanishes at (2, -1, 3); cannot normalise"
        )
    return SiegelExpansion(35, prec, {key: Fraction(c, pivot) for key, c in det.coeffs.items()})
