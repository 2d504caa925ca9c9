"""The sparse truncated-series core shared by every series type.

A series stores its nonzero coefficients in a dict from index keys to
exact rationals, for the integer indices in a box: the precision is the
largest index part kept (the m and n of a degree-2 key, whose r is bounded
by 4mn - r^2 >= 0).  ``SparseSeries`` owns what does not depend on the key
shape: coefficient cleaning, truncation, the ring operations and the
weight-tag rules (a sum keeps a common weight and is untagged otherwise; a
product adds weights).  Operations never extrapolate: results carry the
minimum precision of their operands, which is exact because indices add
componentwise and stay nonnegative.

The ring is Q.  ``SiegelExpansion.reduce_mod(p)`` gives a plain dict of
residues, to be read, not a series.  Reduction is a ring homomorphism on
p-integral series: form a product over Q, reduce it.

Products of swap-symmetric series form half the box.  The swap
(m, r, n) -> (n, r, m) of a degree-2 index is additive and maps the box to
itself, so if every factor has a(n, r, m) = s a(m, r, n) for a sign s, the
product has it for the product of the signs.  A series' sign is read from
its coefficients (``_parity``), never from its weight tag, and a product
with one factor that has none runs the whole box.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import isqrt, lcm, prod

from .errors import PrecisionError
from .rationals import normalize

SCALARS = (int, Fraction)


class SparseSeries:
    """Base class of ``QSeries1``, ``DiagSeries`` and ``SiegelExpansion``.

    A subclass fixes the key shape by providing the hooks below.  Hooks that
    touch coefficients take a whole dict, so the hot loops stay inline.

    * ``_kept(coeffs, box)``: the entries of a dict inside the box;
    * ``_check_indices(coeffs, box)``: raise ValueError on an invalid key
      (by default, on a key outside the box);
    * ``_rows(ints, width)`` and ``_slots(m, n, box)``: the packed layout
      of integer coefficients that ``_accumulate`` multiplies and
      ``_decoded`` reads back;
    * ``_parity(ints)``: the sign s with a(n, r, m) = s a(m, r, n) on every
      key of a dict of integer coefficients, or None (the default).

    Subclass constructors accept ``precision``, ``coeffs`` and ``weight``
    as keywords.
    """

    __slots__ = ("precision", "coeffs", "weight")

    def __init__(self, precision, coeffs=None, weight=0):
        if precision < 0:
            raise ValueError("precision must be >= 0")
        self.precision = precision
        self.weight = weight
        coeffs = coeffs or {}
        self._check_indices(coeffs, precision)
        self.coeffs = {k: v for k, c in coeffs.items() if (v := normalize(c))}

    def _parity(self, ints):
        return None

    def _check_indices(self, coeffs, box):
        kept = self._kept(coeffs, box)
        if len(kept) < len(coeffs):
            bad = next(k for k in coeffs if k not in kept)
            raise ValueError(f"index {bad} outside the box [0..{box}]")

    def _new(self, precision, coeffs, weight):
        """A series of this type."""
        return type(self)(precision=precision, coeffs=coeffs, weight=weight)

    @classmethod
    def _unchecked(cls, precision, coeffs, weight):
        """A series built without the constructor's checks, for coefficients
        known to be clean on keys known to be valid: products, truncations
        and parsed files."""
        series = object.__new__(cls)
        series.precision = precision
        series.coeffs = coeffs
        series.weight = weight
        return series

    # -- access -------------------------------------------------------------

    def coeff(self, *index):
        """The coefficient at an index, 0 where none is stored.  An index of
        the wrong length or with a part that is not an integer, or one the
        constructor refuses (``_check_indices``), such as a key with a part
        below 0, raises ValueError; a key past the box raises
        ``PrecisionError``, a ValueError too."""
        key = index[0] if len(index) == 1 else index
        origin = self._slots(0, 0, 0)[0]
        arity = len(origin) if type(origin) is tuple else 1
        if len(index) != arity or any(type(i) is not int for i in index):
            raise ValueError(f"index {key} is not a {type(self).__name__} key like {origin}")
        if min(index) >= 0 and not self._kept({key: None}, self.precision):
            raise PrecisionError(f"index {key} is beyond precision {self.precision}")
        self._check_indices({key: None}, self.precision)
        return self.coeffs.get(key, 0)

    def truncate(self, precision: int):
        if precision < 0:
            raise ValueError("precision must be >= 0")
        if precision > self.precision:
            raise PrecisionError(
                f"cannot extend precision {self.precision} to {precision}"
            )
        kept = self._kept(self.coeffs, precision)
        return self._unchecked(precision, kept, self.weight)

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        prec = min(self.precision, other.precision)
        out = self._kept(self.coeffs, prec)
        for k, c in other._kept(other.coeffs, prec).items():
            out[k] = out.get(k, 0) + c
        weight = self.weight if self.weight == other.weight else None
        return self._new(prec, out, weight)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            coeffs = {k: c * other for k, c in self.coeffs.items()}
            return self._new(self.precision, coeffs, self.weight)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._product((self, other))

    __rmul__ = __mul__

    @staticmethod
    def _product(factors):
        """The product of one or more exact series of one type; one factor
        is its own product.  Every product of series is formed here.

        ``_rows`` packs a series into rows keyed (m, n), each one integer
        with ``width`` bits per slot, as [integer, isqrt(4mn)].  Slot j of
        row (m, n) holds the j-th key of ``_slots(m, n, box)``: the index
        (m, j - isqrt(4mn), n) of a SiegelExpansion; (m, j) of a DiagSeries,
        whose rows are (m, 0); j of a QSeries1, one row (0, 0).  Two rows
        multiply into their sum row with one big-integer multiply (see
        ``_accumulate``).  Each distinct factor is packed once, at the
        ``_slot_width`` of the whole product, so a power packs its base
        once; the partial products stay packed, as rows in the box, until
        the last factor is in; only then are the signed slots decoded
        (``_decoded``).  Fractions are scaled to integers by the lcm of
        their denominators (``_operands``); the product of the lcms is
        divided out at decode (``_rational``).

        When every factor has a swap sign (``_parity``) and some factor has
        a block off the diagonal, each pass forms only the blocks m <= n,
        and the partial product is mirrored while still packed: rows (m, n)
        and (n, m) share their slot layout, as isqrt(4mn) is symmetric, so
        row (n, m) is row (m, n) times the running sign.  The final decode
        writes each block m < n to its mirror keys too.
        """
        first = factors[0]
        prec = min(f.precision for f in factors)
        if len(factors) == 1:
            return first
        weights = [f.weight for f in factors]
        weight = None if None in weights else sum(weights)
        ints, signs, index, den = _operands(factors)
        bits = list(map(_bits, ints))
        width = _slot_width([bits[i] for i in index], [len(ints[i]) for i in index])
        packed = [first._rows(scaled, width) for scaled in ints]
        # Diagonal blocks multiply into diagonal blocks: nothing to mirror.
        fold = signs is not None and any(m != n for rows in packed for m, n in rows)
        acc, sign = packed[index[0]], signs[index[0]] if fold else None
        for step, i in enumerate(index[1:], 2):
            partial, acc = acc, {}
            _accumulate(partial, packed[i], prec, width, [(acc, None)], fold)
            if fold:
                sign *= signs[i]
                if step < len(index):
                    _mirror(acc, sign)
        out = _decoded(acc, width, first._slots, prec, sign)
        return first._unchecked(prec, _rational(out, den), weight)

    def __pow__(self, e: int):
        """self^e as one ``_product`` of e copies: packed once and decoded
        once, with no intermediate powers."""
        if e < 0:
            raise ValueError("negative powers are not supported")
        return self._product([self] * e) if e else self._one()

    def _one(self):
        """The identity of this series' ring at its precision, of weight 0."""
        return self._new(self.precision, {self._slots(0, 0, 0)[0]: 1}, 0)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.precision == other.precision and self.coeffs == other.coeffs


def _operands(factors):
    """The integer operands of a product, each distinct factor read once.

    Returns (ints, signs, index, den).  ``ints`` holds each distinct factor's
    coefficients times L, as integers, L the lcm of its denominators.
    ``signs`` holds each distinct factor's
    swap sign (``_parity``), or is None from the first factor that has none,
    whose successors are not read.  ``index`` gives each position's factor in
    ``ints``, and ``den`` is the product of the L over the positions, repeats
    included.  Factors are told apart by identity, so a power reads its base
    once.
    """
    ints, signs, index, lcms, seen, den = [], [], [], [], {}, 1
    for f in factors:
        i = seen.get(id(f))
        if i is None:
            i = seen[id(f)] = len(ints)
            d = lcm(*{c.denominator for c in f.coeffs.values()})
            ints.append(
                f.coeffs if d == 1
                else {k: c.numerator * (d // c.denominator) for k, c in f.coeffs.items()}
            )
            lcms.append(d)
            if signs is not None and (sign := f._parity(ints[-1])) is not None:
                signs.append(sign)
            else:
                signs = None
        index.append(i)
        den *= lcms[i]
    return ints, signs, index, den


def _rational(out, den):
    """Decoded integer coefficients over ``den``."""
    if den != 1:
        return {k: normalize(Fraction(c, den)) for k, c in out.items()}
    return out


def _bits(ints) -> int:
    """The bit length of the largest absolute value in a dict of integers."""
    return max(map(abs, ints.values()), default=0).bit_length()


def _slot_width(bits, sizes):
    """Bits per slot that hold, with sign, any coefficient of a product of
    factors whose largest coefficients have the bit lengths ``bits`` and
    whose supports have the sizes ``sizes``.

    A product coefficient sums products of one coefficient per factor whose
    indices add up to its index.  The indices in all factors but one fix
    the last, so it has at most T terms, T the product of all sizes but the
    largest, and this width keeps it below 2^(width-1) in absolute value,
    which is all ``_decoded`` needs to read a signed slot.  Partial
    products need no bound of their own: a packed row is the exact value
    at 2^width of its polynomial in the slots, evaluation respects
    products, and only the final product is decoded.  A caller that weights
    or sums products adds the bit length of the largest weight or of the
    number of terms.
    """
    return sum(bits) + prod(sorted(sizes)[:-1]).bit_length() + 1


def _accumulate(rows1, rows2, box, width, targets, fold=False):
    """Add every block product of ``rows1`` x ``rows2`` that lands in the box
    into each target.

    Rows are packed as ``_rows`` packs them, at ``width`` bits per slot.  A
    target is (acc, weight): acc is a dict of packed rows, and weight is
    None for 1 or a function of the block keys (m1, n1, m2, n2) that scales
    the block product.  Rows (m1, n1) and (m2, n2) multiply into row
    (m1 + m2, n1 + n2) with one big-integer multiply, shifted up by
    isqrt(4mn) - isqrt(4 m1 n1) - isqrt(4 m2 n2) slots, which
    Cauchy-Schwarz keeps nonnegative.  (A QSeries1 or DiagSeries row also
    keeps the slots past the box that it gathers; they only add into higher
    slots, so the decode never reads them.)

    With ``fold``, only the blocks m <= n of the targets are formed, for
    operands with swap signs (``_product``).  That is m2 - n2 <= n1 - m1,
    so ``rows2`` is sorted by m2 - n2 once and each row of ``rows1`` meets
    a bisected prefix of it; without the fold it meets all of ``rows2``,
    and the inner loop tests nothing more in either case.
    """
    if fold:
        rows2 = sorted(rows2.items(), key=lambda item: item[0][0] - item[0][1])
        skews = [m2 - n2 for (m2, n2), _ in rows2]
    else:
        rows2 = rows2.items()
    for (m1, n1), (a, top1) in rows1.items():
        if m1 > box or n1 > box:
            continue
        for (m2, n2), (b, top2) in rows2[:bisect_right(skews, n1 - m1)] if fold else rows2:
            m = m1 + m2
            if m > box:
                continue
            n = n1 + n2
            if n > box:
                continue
            ab = a * b
            for acc, weight in targets:
                x = ab if weight is None else weight(m1, n1, m2, n2) * ab
                row = acc.get((m, n))
                if row is None:
                    top = isqrt(4 * m * n)
                    acc[m, n] = [x << width * (top - top1 - top2), top]
                else:
                    row[0] += x << width * (row[1] - top1 - top2)


def _mirror(rows, sign):
    """Add to the packed blocks m <= n of a series with swap sign ``sign``
    their mirrors: row (n, m) is row (m, n) times the sign."""
    for (m, n), (x, top) in list(rows.items()):
        if m < n:
            rows[n, m] = [x if sign == 1 else -x, top]


def _decoded(acc, width, slots, box, sign=None):
    """The nonzero signed slots of packed rows, keyed by ``slots(m, n, box)``.

    With a ``sign``, the rows hold the blocks m <= n of a series with that
    swap sign, and each block m < n is also written, times the sign, to the
    keys ``slots(n, m, box)`` of its mirror.
    """
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = {}
    for (m, n), (x, _) in acc.items():
        keys = slots(m, n, box)
        # Slots past the keys are never read, and carries only move up, so
        # dropping them first keeps each shift as short as the row read.
        x &= (1 << width * len(keys)) - 1
        for key in keys:
            if not x:
                break
            c = x & mask
            x >>= width
            if c >= half:
                c -= mask + 1
                x += 1
            if c:
                out[key] = c
    if sign is not None:
        for m, n in acc:
            if m < n:
                for key, image in zip(slots(m, n, box), slots(n, m, box)):
                    if key in out:
                        out[image] = sign * out[key]
    return out
