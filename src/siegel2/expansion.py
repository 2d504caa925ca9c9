"""Truncated Fourier expansions of degree-2 Siegel modular forms.

An expansion of a level-1 form stores exact coefficients a(m, r, n) for
the integer index box 0 <= m, n <= precision with 4mn - r^2 >= 0.  Both
signs of r are stored explicitly; the weight tag k drives the sign
symmetries

    a(m, -r, n) = (-1)^k a(m, r, n),      a(n, r, m) = (-1)^k a(m, r, n),

which every honestly constructed form satisfies and ``symmetry_violations``
checks.  Products and the theta determinant do not trust the tag: they
read the swap sign from the coefficients (``_parity``), and when every
operand has one they form only the blocks m <= n.

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
from .series import SparseSeries, _accumulate, _bits, _decoded
from .series import _operands, _rational, _slot_width


# The slot keys per block (m, n), from ``_block_keys``.
_SLOTS: dict[tuple[int, int], list] = {}


def _block_keys(m: int, n: int) -> list:
    """The keys (m, r, n), |r| <= isqrt(4mn), of block (m, n) in slot order,
    one list per block for the process, so every decoded product and every
    row cut from it share their key tuples."""
    keys = _SLOTS.get((m, n))
    if keys is None:
        top = isqrt(4 * m * n)
        keys = _SLOTS[m, n] = [(m, r, n) for r in range(-top, top + 1)]
    return keys


class SiegelExpansion(SparseSeries):
    """Exact truncated Fourier expansion of a degree-2 form."""

    __slots__ = ("modulus",)
    _RING = ("modulus",)
    # Every expansion is of level 1.  perfbench/tracer.py reads the box of
    # a product as scale * precision, so the name stays bound.
    scale = 1

    def __init__(self, weight, precision, coeffs=None, modulus=None):
        self.modulus = modulus
        super().__init__(precision, coeffs, weight, modulus)

    @classmethod
    def constant(cls, value, precision, weight=0, modulus=None):
        """The constant expansion value * q^0."""
        return cls(weight, precision, {(0, 0, 0): value}, modulus)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        """Stored indices sorted by the (m, n, r) monomial order."""
        return sorted(self.coeffs, key=lambda k: (k[0], k[2], k[1]))

    # -- the key shape ----------------------------------------------------

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
        return _block_keys(m, n)

    def _parity(self, ints):
        """The swap sign s, a(n, r, m) = s a(m, r, n) at every index (mod p
        over F_p), read from the coefficients: +1, -1 (+1 when both hold,
        as for zero or at p = 2) or None.  Rows cut from a form, such as
        ``GeneratorRegistry.generator_row``'s and the four that X35's row
        is the determinant of (``generators._lifted_row``), have none
        whatever their weight tag.  One pass tests both signs and stops at
        the first index that fails both.
        It runs from the last key: a row m = l, n <= b, read in (m, n, r)
        order or decoded from a product, ends off the diagonal, where its
        mirror is missing, so a row fails at the first step."""
        get, p = ints.get, self.modulus
        plus = minus = True
        for (m, r, n), c in reversed(ints.items()):
            d = get((n, r, m), 0)
            if p is None:
                plus = plus and d == c
                minus = minus and d == -c
            else:
                plus = plus and (d - c) % p == 0
                minus = minus and (d + c) % p == 0
            if not (plus or minus):
                return None
        return 1 if plus else -1

    def __repr__(self):
        mod = f", mod {self.modulus}" if self.modulus else ""
        return (
            f"SiegelExpansion(weight={self.weight}, precision={self.precision}"
            f"{mod}, {len(self.coeffs)} terms)"
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
        return SiegelExpansion._unchecked(self.precision, out, self.weight, modulus=p)

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

    def leading_term(self) -> tuple:
        """((m, r, n), a(m, r, n)) at the minimal index of the support,
        ordering by m, then n, then r."""
        if not self.coeffs:
            raise ValueError("the zero expansion has no leading term")
        m, n, r = min((m, n, r) for (m, r, n) in self.coeffs)
        return (m, r, n), self.coeffs[m, r, n]

    def diagonal_vanishing_order(self):
        """Size of the largest vanishing box of a reduced expansion.

        Returns min over the F_p support of max(m, n), or None when
        the expansion vanishes on the whole computed box, where the order is
        known only to exceed its precision.  An exact expansion is refused:
        reduce it first.
        """
        if self.modulus is None:
            raise ValueError("the vanishing order needs an expansion reduced mod p")
        if not self.coeffs:
            return None
        return min(max(m, n) for (m, r, n) in self.coeffs)

    # -- operators ----------------------------------------------------------

    def witt(self, order: int = 0) -> DiagSeries:
        """Diagonal restriction and its first two normalised Taylor layers.

        order 0 sums a(m, r, n) over r; order 1 takes (1/2) sum r a(m, r, n);
        order 2 takes (1/2) sum r^2 a(m, r, n).  Requires exact
        coefficients.  The image has parallel weight k + order; the sign
        symmetries of weight k make it satisfy a(n, m) = (-1)^k a(m, n).
        """
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
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
        pick = {1: 0, 12: 1, 2: 2}[direction]
        out = {}
        for (m, r, n), c in self.coeffs.items():
            factor = (m, r, n)[pick]
            if factor:
                out[(m, r, n)] = factor * c
        weight = None if self.weight is None else self.weight + 2
        return SiegelExpansion(weight, self.precision, out, self.modulus)


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

def _m2(m1, n1, m2, n2):
    """The block weight of theta_1 on the second factor."""
    return m2


def _n2(m1, n1, m2, n2):
    """The block weight of theta_2 on the second factor."""
    return n2


def _column_minors(fa, fc, ka, kc, box, pack, slots, swap):
    """The six 2x2 minors of the theta matrix on the columns (a, c), over
    the whole box, for the row pairs (0, 1), (0, 2), (0, 3), (1, 2), (1, 3)
    and (2, 3): (k, theta_1), (k, theta_12), (k, theta_2), (theta_1,
    theta_12), (theta_1, theta_2) and (theta_12, theta_2).  ``fa`` and
    ``fc`` hold the columns' integer coefficients and ``ka``, ``kc`` their
    weight tags; ``swap`` is s_a s_c, or None when the passes run the whole
    box.  See ``theta_determinant``."""
    width = _slot_width([_bits(fa), _bits(fc)], [len(fa), len(fc)]) + (2 * box).bit_length()
    Fa = pack(fa, width)
    fold = swap is not None
    S, Sm, Sn, T = {}, {}, {}, {}
    _accumulate(Fa, pack(fc, width), box, width, [(S, None), (Sm, _m2), (Sn, _n2)], fold)
    Qc = pack({key: key[1] * c for key, c in fc.items() if key[1]}, width)
    _accumulate(Fa, Qc, box, width, [(T, None)], fold)
    S = _decoded(S, width, slots, box, swap)
    T = _decoded(T, width, slots, box, swap)
    Sm = _decoded(Sm, width, slots, box)
    Sn = _decoded(Sn, width, slots, box)
    if fold:
        Sm, Sn = (
            {**Sm, **{(n, r, m): swap * v for (m, r, n), v in Sn.items() if m < n}},
            {**Sn, **{(n, r, m): swap * v for (m, r, n), v in Sm.items() if m < n}},
        )
    k = ka + kc
    minors = ({}, {}, {}, {}, {}, {})
    for key in {**S, **Sm, **Sn, **T}:
        m, r, n = key
        s, sm, sn, t = S.get(key, 0), Sm.get(key, 0), Sn.get(key, 0), T.get(key, 0)
        values = (
            k * sm - kc * m * s,
            k * t - kc * r * s,
            k * sn - kc * n * s,
            m * t - r * sm,
            m * sn - n * sm,
            r * sn - n * t,
        )
        for minor, v in zip(minors, values):
            if v:
                minor[key] = v
    return minors


def theta_determinant(forms) -> SiegelExpansion:
    """det of the 4x4 matrix with rows (k f), (theta_1 f), (theta_12 f),
    (theta_2 f) over four exact expansions f, k being each weight
    tag.  Any other number of columns, or a column with no weight tag, is
    refused with ValueError.

    Laplace expansion on the column pairs (0, 1) and (2, 3): with R running
    over the six row pairs (i, j), i < j, and R' its complement,

        det = sum_R (-1)^(i+j+1) M_R(0, 1) M_R'(2, 3),

    M_R(a, c) the minor of rows R and columns a, c.  For a column pair
    (a, c), theta_1, theta_12 and theta_2 multiply a(m, r, n) by m, r and
    n, and the indices of a product add, so every minor is a sum over the
    products of one coefficient of f_a, at (m1, r1, n1), and one of f_c, at
    (m2, r2, n2), weighted by a polynomial in their indices.  Two shared
    block passes (``series._accumulate``) over the columns' packed rows F_a,
    F_c and Q_c = theta_12 F_c give every weight needed: F_a x F_c gives

        S = f_a f_c,  S_m = f_a theta_1 f_c,  S_n = f_a theta_2 f_c,

    with the block weights 1, m2 and n2, and F_a x Q_c gives
    T = f_a theta_12 f_c.  With m = m1 + m2, r = r1 + r2 and n = n1 + n2,
    the minors follow coefficient by coefficient at each output key
    (m, r, n):

        (k, theta_1)          (k_a + k_c) S_m - k_c m S
        (k, theta_2)          (k_a + k_c) S_n - k_c n S
        (theta_1, theta_2)    m S_n - n S_m
        (k, theta_12)         (k_a + k_c) T - k_c r S
        (theta_1, theta_12)   m T - r S_m
        (theta_12, theta_2)   r S_n - n T

    Two column pairs take four passes, and the six products M_R M_R' go
    into one packed accumulator, decoded once: 10 passes.  Forms with
    denominators are scaled to integers as ``_product`` scales its factors
    (``_operands``), and the product of the lcms is divided out at the end
    (``_rational``).

    When all four columns have a swap sign s_c, a(n, r, m) = s_c a(m, r, n)
    (``_parity``), every pass forms only the blocks m <= n, and the blocks
    m > n follow by the swap, which fixes r and exchanges theta_1 and
    theta_2.  So S and T mirror into themselves with s_a s_c, block (m, n)
    of S_m mirrors into block (n, m) of S_n with s_a s_c, and S_n into S_m
    likewise.  The minors are then formed on the whole box, which the last
    stage reads, and the determinant mirrors with -s_0 s_1 s_2 s_3: -1 for
    X4, X6, X10 and X12, as weight 35 requires.  If any column has no sign,
    every pass runs the whole box.

    Slot widths follow ``_slot_width``.  Each column pair has its own: the
    two columns' bits and the smaller support, plus bits(2 box) for the
    weights m2, n2 <= box and the theta_12 factor |r2| <= 2 box.  The final
    stage adds bits(6) for its six terms to the widest of the six products
    M_R M_R'.
    """
    forms = tuple(forms)
    if len(forms) != 4:
        raise ValueError(f"the theta determinant needs four columns, got {len(forms)}")
    for f in forms:
        if f.modulus is not None:
            raise ValueError("the determinant needs exact expansions")
        if f.weight is None:
            raise ValueError("every column of the theta determinant needs a weight tag")
    box = prec = min(f.precision for f in forms)
    weights = [f.weight for f in forms]
    ints, signs, index, den = _operands(forms)
    pack, slots = forms[0]._rows, forms[0]._slots
    fold = signs is not None
    ints = [ints[i] for i in index]
    signs = [signs[i] for i in index] if fold else None
    left, right = (
        _column_minors(ints[a], ints[c], weights[a], weights[c], box, pack, slots,
                       signs[a] * signs[c] if fold else None)
        for a, c in ((0, 1), (2, 3))
    )
    # The row pairs R = (i, j) in combinations order: their complements R'
    # run backwards.
    terms = [
        ({key: -v for key, v in x.items()} if (i + j) % 2 == 0 else x, y)
        for (i, j), x, y in zip(itertools.combinations(range(4), 2), left, reversed(right))
    ]
    width = max(_slot_width([_bits(x), _bits(y)], [len(x), len(y)]) for x, y in terms)
    width += (6).bit_length()
    acc = {}
    for x, y in terms:
        _accumulate(pack(x, width), pack(y, width), box, width, [(acc, None)], fold)
    swap = -signs[0] * signs[1] * signs[2] * signs[3] if fold else None
    det = _rational(_decoded(acc, width, slots, box, swap), den, None)
    return SiegelExpansion._unchecked(prec, det, sum(weights) + 6, modulus=None)


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
