"""Sparse truncated series in x_1..x_n, y_1..y_n with a Poisson bracket.

A :class:`PolySeries` is a map from exponent pairs to coefficient-ring values
together with a truncation order M: every operation discards terms of total
degree above M.  The truncation order is part of a series' identity; mixing
two different orders (or dimensions, or rings) is a usage error rather than a
silent re-truncation, so differential tests cannot lose coverage quietly.

A series is stored in content form (the ``fmpq_poly`` layout of FLINT): one
denominator ``den`` > 0 and a dict ``nums`` from packed keys to nonzero
numerators, with gcd(den, every numerator component) = 1, so equal series
have equal fields and ``==`` and ``hash`` compare fields.  Over Q(i) a
numerator is an ``int`` for a real value and a
:class:`~birkhoff.scalars.GaussianInteger` for a complex one.  Over a
:class:`SymRing` with k indeterminates a series is an integer polynomial in
the 2n series variables and the k indeterminates over ``den``: every
numerator is an ``int``, and each key also holds one monomial in the
indeterminates.  ``SymScalar`` values exist only at the edges: the public
constructor flattens them into keys, and the ``terms`` view, from
:class:`ExponentPair` to reduced values in canonical term order, groups the
keys of one exponent pair back into one ``SymScalar``.  The view is built on
first use and kept.  ``to_json_terms`` is the plain-data view of the term
rows; a report writes them with ``json_text``, straight from the packed keys
and numerators, without building the view.

A key packs one exponent pair into one int (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): from the most significant end, the total degree, then
alpha_1..alpha_n and beta_1..beta_n in 2n fields of w = M.bit_length()
bits (at least 1), then the powers of the k indeterminates in k fields of
``POWER_BITS`` bits (none over Q(i)).  Keys therefore sort in the canonical
term order (degree, alpha, beta), the degree of a key is one shift, and the
series part of a key, ``key >> (k * POWER_BITS)``, is the key of its exponent
pair over Q(i).  A pair of terms multiplies to the key k1 + k2, which
multiplies the indeterminate monomials too.  The derivative of a term in a
series variable v has the key k - 2**top - 2**s, s the shift of the v field;
only a term with a nonzero v field has one, so no field borrows.  No series
field overflows: the product loop forms only keys of degree at most M, so
every field of a kept key is at most M < 2**w.  The top bit of each
indeterminate field is a guard bit: a power is at most ``MAX_POWER`` =
2**(POWER_BITS - 1) - 1, so the sum of two powers never carries into the next
field, and a result with a guard bit set is refused.

The bracket is
    {F, G} = sum_j (dF/dy_j dG/dx_j - dF/dx_j dG/dy_j),
2n products of derivative term lists, each exponent folded into the
numerator and the minus sign into the left list.  Every sum of products
runs through one loop over sorted right lists, so each row stops at the
first key whose degree passes the truncation order: ``F * G`` is one
product and ``bracket_sum`` is sum {F, G} over a list of pairs (``poisson``
is the one-pair call).  Given a degree bound t <= M, ``bracket_sum``
stops each row at the first key whose degree passes t instead, so a
nested bracket whose outer levels can raise the degree by k forms no
term above M - k that nothing could read.  Every linear sum is one
``combination``, sum q S over a list of scalings; ``+``, ``-``, unary
``-`` and ``scale`` call it.
As Monagan and Pearce form a sum of products in one pass, each sum
accumulates in one dict over L, the lcm of its denominators: the integer
factor of a term, such as L / (D_F D_G) for a bracket, scales each of its
left values, or each numerator of a scaled S, once, and the sum is brought
to content form with one gcd.  Every arithmetic result goes through
:meth:`PolySeries._make`, which skips the per-term checks of the
validating public constructor.

A series with int numerators builds the derivative lists of each bracket
side once, on first use, and keeps them in a slot (``_left``, ``_right``),
so the entries of a bracket table, each bracketed against many others,
build theirs once.

A run that reads nothing but the normal form needs of the truncation
degree M only the resonant terms, the kernel of D = {., H2}.  Given the
frequencies (a ``FreqVector``), whose label table for a key layout maps
the series part of a key to its degree and the integer charges
(<k, re>, <k, im>) of k = alpha - beta, ``bracket_sum`` stops each row
before degree M and then visits only the degree-M partners whose charges
cancel the left term's: one dict lookup in the right list's partners,
keyed by (degree, charges), which kept lists keep with the table they
were built for (``_partners``).  The charges of a product key are the
sums of its factors' charges, so the pairs skipped are exactly those that
land on a non-resonant term of degree M, and every other term of the sum
is as without the cut.  The cut is exact where the caller reads a
degree-M term only through A: a degree-M term feeds no later bracket,
since a bracket with a term of degree >= 3 passes M.  When no monomial of
degree M is resonant, the rows stop before M and look nothing up.

When an operand of a sum holds a complex numerator, the numerators
a + b i of every operand are packed into the single ints a + b 2**K, with
one K for the whole sum (Kronecker substitution; D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution",
J. Symbolic Comput. 44, 2009), so the loop multiplies plain ints on every
ring.  A sum of products of packed numerators is R0 + R1 2**K + R2 2**(2K)
with (R0 - R2) + R1 i the sum of the complex products, since 2**(2K)
stands for i**2 = -1; K is chosen before the loop so that every
|Rj| < 2**(K - 1), and the balanced base-2**K digits of each sum are R0,
R1 and R2 (the bound is proved at ``_packed``, for a linear sum at
``combination``).  A real numerator a packs to itself, so a real operand's
kept lists serve as they are, and the lists of a complex operand are built
from its packed numerators for each call.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, reduce
from itertools import groupby, repeat
from math import gcd, lcm
from operator import lshift, or_
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import UsageError
from .scalars import (
    GAUSSIAN_RING,
    CoefficientRing,
    GaussianInteger,
    GaussianRational,
    SymRing,
    SymScalar,
    _lowest,
    _ratio_of,
    _ratio_text,
    _reduced,
    gaussian_integer,
    join_terms,
)

# Bits of one indeterminate field of a key, its guard bit included.
POWER_BITS = 8
MAX_POWER = (1 << POWER_BITS - 1) - 1

_new = object.__new__


class ExponentPair(NamedTuple):
    """Multi-index pair (alpha, beta) labelling the monomial x^alpha y^beta."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.alpha) + sum(self.beta)

    @property
    def is_diagonal(self) -> bool:
        return self.alpha == self.beta


def make_pair(alpha: Iterable[int], beta: Iterable[int]) -> ExponentPair:
    a = tuple(int(v) for v in alpha)
    b = tuple(int(v) for v in beta)
    if len(a) != len(b):
        raise UsageError(f"alpha and beta have different lengths: {a} vs {b}")
    if a and min(a + b) < 0:
        raise UsageError(f"negative exponent in pair ({a}, {b})")
    return ExponentPair(a, b)


def compositions(total: int, parts: int, minimum: int = 1) -> Iterator[tuple[int, ...]]:
    """Ordered compositions of ``total`` into ``parts`` entries >= minimum.

    Lexicographic order; with minimum 0 these are the exponent tuples of
    degree ``total`` in ``parts`` variables.
    """
    if parts < 0:
        raise UsageError(f"parts must be non-negative, got {parts}")
    if parts == 0:
        if total == 0:
            yield ()
        return
    if total < parts * minimum:
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(minimum, total - (parts - 1) * minimum + 1):
        for rest in compositions(total - head, parts - 1, minimum):
            yield (head,) + rest


def monomials(n: int, degree: int) -> Iterator[ExponentPair]:
    """Every exponent pair of the given total degree in n degrees of freedom.

    Ordered by the degree of alpha, then by alpha and by beta
    lexicographically.
    """
    for da in range(degree + 1):
        for alpha in compositions(da, n, 0):
            for beta in compositions(degree - da, n, 0):
                yield ExponentPair(alpha, beta)


def term_order(pair: ExponentPair) -> tuple:
    """Sort key of the canonical term order: degree, then alpha, then beta."""
    return (pair.degree, pair.alpha, pair.beta)


class PolySeries:
    """Sparse graded series truncated at a fixed total-degree order."""

    __slots__ = (
        "n", "order", "ring", "layout", "den", "nums", "_terms", "_left", "_right", "_partners",
        "_big", "_complex",
    )

    def __init__(
        self,
        n: int,
        order: int,
        ring: CoefficientRing,
        terms: Mapping[ExponentPair, object] | None = None,
    ):
        if n < 1:
            raise UsageError(f"dimension must be positive, got {n}")
        if order < 0:
            raise UsageError(f"truncation order must be non-negative, got {order}")
        symbolic = isinstance(ring, SymRing)
        value_type = SymScalar if symbolic else GaussianRational
        layout = _layout(n, order, ring.nvars)
        kept = {}
        for pair, value in (terms or {}).items():
            key = _key(pair, layout, order)
            if not isinstance(value, value_type):
                raise UsageError(
                    f"expected a {value_type.__name__} coefficient, got {type(value).__name__}"
                )
            if symbolic and value.nvars != ring.nvars:
                raise UsageError(
                    f"a symbolic value in {value.nvars} indeterminates does not match "
                    f"a ring of {ring.nvars}"
                )
            if key is not None and not value.is_zero:
                kept[key] = value
        if symbolic:
            # each value's monomials go into the low fields of its pair's key
            den = lcm(*[value.den for value in kept.values()])
            powers = layout.powers
            nums = {}
            for base, value in kept.items():
                scale = den // value.den
                for exponents, num in value.nums.items():
                    if max(exponents, default=0) > MAX_POWER:
                        raise UsageError(
                            f"symbolic monomial {exponents} has a power above {MAX_POWER}, "
                            "the largest a series key holds"
                        )
                    nums[base | sum(map(lshift, exponents, powers))] = num * scale
        else:
            # values in lowest terms over the lcm of their denominators are
            # in content form
            den = lcm(*[value.d for value in kept.values()])
            nums = {
                key: gaussian_integer(value.a * (den // value.d), value.b * (den // value.d))
                for key, value in kept.items()
            }
        _fill(self, n, order, ring, layout, nums, den)

    @staticmethod
    def zero(n: int, order: int, ring: CoefficientRing = GAUSSIAN_RING) -> "PolySeries":
        """The empty series, built as a kernel value: it has no terms to check."""
        if n < 1:
            raise UsageError(f"dimension must be positive, got {n}")
        if order < 0:
            raise UsageError(f"truncation order must be non-negative, got {order}")
        return _fill(_new(PolySeries), n, order, ring, _layout(n, order, ring.nvars), {}, 1)

    def _make(self, nums: dict, den: int) -> "PolySeries":
        """The series like self over nums / den, zeros dropped, in content form.

        Every arithmetic result is built here, without the checks of
        ``__init__``: the keys are trusted to have degree <= order, and only
        their guard bits are read.
        """
        if 0 in nums.values():
            nums = {key: value for key, value in nums.items() if value}
        guard = self.layout.guard
        if guard and nums and reduce(or_, nums) & guard:
            raise UsageError(
                f"a symbolic power of the result exceeds {MAX_POWER}, "
                "the largest a series key holds"
            )
        if den != 1:
            values = nums.values()
            parts = [value for value in values if type(value) is int]
            if len(parts) != len(nums):
                parts += [
                    part for value in values if type(value) is not int
                    for part in (value.re, value.im)
                ]
            g = gcd(den, *parts)
            if g != 1:
                den //= g
                nums = {key: value // g for key, value in nums.items()}
        return _fill(_new(PolySeries), self.n, self.order, self.ring, self.layout, nums, den)

    def _release(self) -> "PolySeries":
        """Self without its kept derivative lists and partners, for a series
        that outlives the sums that bracketed it."""
        self._left = self._right = self._partners = None
        return self

    def _require_compatible(self, other: "PolySeries") -> None:
        if not isinstance(other, PolySeries):
            raise UsageError(f"expected a PolySeries, got {type(other).__name__}")
        if other.n != self.n:
            raise UsageError(f"dimension mismatch: {self.n} vs {other.n}")
        if other.order != self.order:
            raise UsageError(
                f"truncation order mismatch: {self.order} vs {other.order}; "
                "re-truncate explicitly with with_order()"
            )
        if other.ring is not self.ring and other.ring != self.ring:
            raise UsageError("coefficient ring mismatch")

    def __add__(self, other: "PolySeries") -> "PolySeries":
        return combination([(1, self), (1, other)], self)

    def __sub__(self, other: "PolySeries") -> "PolySeries":
        return combination([(1, self), (-1, other)], self)

    def __neg__(self) -> "PolySeries":
        return combination([(-1, self)], self)

    def __mul__(self, other: "PolySeries") -> "PolySeries":
        self._require_compatible(other)
        shift = _packed([(self, other, 1)], 1, 1)
        lists = [([_pack(self, shift).items()], [sorted(_pack(other, shift).items())], 1,
                  _NO_PARTNERS)]
        return _sum_of_products(self, lists, self.den * other.den, shift, self.order)

    def scale(self, q: int | Fraction) -> "PolySeries":
        return combination([(q, self)], self)

    def _select(self, keep: Callable[[int], bool]) -> "PolySeries":
        """The terms whose keys pass keep."""
        return self._make(
            {key: value for key, value in self.nums.items() if keep(key)}, self.den
        )

    def filter_terms(self, keep: Callable[[ExponentPair], bool]) -> "PolySeries":
        pair_of = _pair_reader(self.layout)
        return self._select(lambda key: keep(pair_of(key)))

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def terms(self) -> Mapping[ExponentPair, object]:
        """Read-only map from exponent pairs to reduced values, in term order."""
        view = self._terms
        if view is None:
            layout = self.layout
            pair_of = _pair_reader(layout)
            nums, den = self.nums, self.den
            values = {}
            if isinstance(self.ring, SymRing):
                # the keys of one pair are adjacent in sorted order
                nvars, low, powers = self.ring.nvars, layout.low, layout.powers
                mask = (1 << POWER_BITS) - 1
                for part, keys in groupby(sorted(nums), lambda key: key >> low):
                    value = {tuple([key >> s & mask for s in powers]): nums[key] for key in keys}
                    values[pair_of(part << low)] = _lowest(_new(SymScalar), nvars, value, den)
            else:
                for key in sorted(nums):
                    num = nums[key]
                    if type(num) is int:
                        values[pair_of(key)] = _reduced(num, 0, den)
                    else:
                        values[pair_of(key)] = _reduced(num.re, num.im, den)
            view = self._terms = MappingProxyType(values)
        return view

    def coefficient(self, pair: ExponentPair):
        """The value of one exponent pair, read from that pair's keys alone."""
        key, den = _key(pair, self.layout, self.order), self.den
        if key is None:
            return self.ring.zero
        if isinstance(self.ring, SymRing):
            # the view of a series of the pair's keys
            low = self.layout.low
            part = {k: v for k, v in self.nums.items() if k >> low == key >> low}
            return self._make(part, den).terms.get(pair, self.ring.zero)
        num = self.nums.get(key)
        if num is None:
            return self.ring.zero
        return _reduced(num, 0, den) if type(num) is int else _reduced(num.re, num.im, den)

    def grade(self, s: int) -> "PolySeries":
        """The homogeneous degree-s part, as a series of the same order."""
        top = self.layout.top
        return self._select(lambda key: key >> top == s)

    def grades(self) -> list[int]:
        top = self.layout.top
        return sorted({key >> top for key in self.nums})

    def min_degree(self) -> int | None:
        if not self.nums:
            return None
        return min(self.nums) >> self.layout.top

    def with_order(self, order: int) -> "PolySeries":
        """Explicit re-truncation (or headroom extension) to a new order."""
        return PolySeries(self.n, order, self.ring, self.terms)

    def poisson(self, other: "PolySeries") -> "PolySeries":
        """{F, G} with F = self: the sum over j of dF/dy_j dG/dx_j - dF/dx_j dG/dy_j."""
        return bracket_sum([(self, other)], self)

    def sorted_terms(self) -> list[tuple[ExponentPair, object]]:
        return list(self.terms.items())

    def __iter__(self) -> Iterator[tuple[ExponentPair, object]]:
        return iter(self.sorted_terms())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolySeries):
            return NotImplemented
        return (
            other.n == self.n
            and other.order == self.order
            and (other.ring is self.ring or other.ring == self.ring)
            and other.den == self.den
            and other.nums == self.nums
        )

    def __hash__(self) -> int:
        return hash((self.n, self.order, self.den, frozenset(self.nums.items())))

    def _monomial_text(self, pair: ExponentPair) -> str:
        pieces = []
        for j, power in enumerate(pair.alpha):
            if power == 1:
                pieces.append(f"x{j + 1}")
            elif power > 1:
                pieces.append(f"x{j + 1}^{power}")
        for j, power in enumerate(pair.beta):
            if power == 1:
                pieces.append(f"y{j + 1}")
            elif power > 1:
                pieces.append(f"y{j + 1}^{power}")
        return " ".join(pieces)

    def render(self) -> str:
        """Canonical text form: graded-lex term order, explicit coefficients."""
        return join_terms(
            f"{self.ring.render(value)} {self._monomial_text(pair)}".strip()
            for pair, value in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"PolySeries(n={self.n}, order={self.order}, {self.render()})"

    def to_json_terms(self) -> list[dict]:
        """The plain-data view: one {"alpha", "beta", "coeff"} row per term,
        in term order."""
        rows = []
        for pair, value in self.sorted_terms():
            rows.append(
                {
                    "alpha": list(pair.alpha),
                    "beta": list(pair.beta),
                    "coeff": self.ring.value_to_json(value),
                }
            )
        return rows

    def json_text(self, newline: str) -> str:
        """The text of ``json.dumps(self.to_json_terms(), indent=2)``, nested
        below ``newline`` (a line break and the current indent).

        Over Q(i) each row is written straight from a key and its numerator:
        the keys sort in term order, the 2n exponents are read from their
        fields, and ``_ratio_text`` writes each component over ``den`` in
        lowest terms, as ``to_json_terms`` does, so a component past the
        interpreter's digit limit raises the same usage error.  A symbolic
        series writes its ``to_json_terms`` rows.
        """
        nums = self.nums
        if isinstance(self.ring, SymRing):
            return json.dumps(self.to_json_terms(), indent=2).replace("\n", newline)
        if not nums:
            return "[]"
        row = newline + "  "
        field = row + "  "
        item = field + "  "
        exponents = ("," + item).join(["%d"] * self.n)
        template = (
            "{" + field + '"alpha": [' + item + exponents + field + "]," + field
            + '"beta": [' + item + exponents + field + "]," + field
            + '"coeff": {' + item + '"re": "%s",' + item + '"im": "%s"' + field + "}" + row + "}"
        )
        shifts, mask, den = self.layout.shifts, (1 << self.layout.width) - 1, self.den
        rows = []
        for key in sorted(nums):
            num = nums[key]
            if type(num) is int:
                re, im = _ratio_text(num, den), "0"
            else:
                re, im = _ratio_text(num.re, den), _ratio_text(num.im, den)
            rows.append(template % (*[key >> s & mask for s in shifts], re, im))
        return "[" + row + ("," + row).join(rows) + newline + "]"


class Layout(NamedTuple):
    """Where the fields of a key lie, for n, the order and k indeterminates."""

    width: int  # bits of one series field
    shifts: tuple[int, ...]  # of the alpha_1..beta_n fields
    top: int  # the shift of the degree field
    low: int  # bits below the series fields: k * POWER_BITS
    powers: tuple[int, ...]  # shifts of the indeterminate fields
    guard: int  # the guard bits of the indeterminate fields


@cache
def _layout(n: int, order: int, nvars: int) -> Layout:
    """The key layout of series in n degrees of freedom over nvars indeterminates."""
    width = max(1, order.bit_length())
    low = nvars * POWER_BITS
    shifts = tuple(range(low + (2 * n - 1) * width, low - 1, -width))
    top = low + 2 * n * width
    powers = tuple(range(low - POWER_BITS, -1, -POWER_BITS))
    guard = sum(1 << shift + POWER_BITS - 1 for shift in powers)
    return Layout(width, shifts, top, low, powers, guard)


def _key(pair: ExponentPair, layout: Layout, order: int) -> int | None:
    """The key of a pair, its indeterminate fields zero; None above the
    order.  A pair of another dimension or with a negative exponent is refused."""
    exponents, n = pair.alpha + pair.beta, len(layout.shifts) // 2
    if len(pair.alpha) != n or len(pair.beta) != n:
        raise UsageError(f"exponent pair {pair} does not match dimension {n}")
    if min(exponents) < 0:
        raise UsageError(f"negative exponent in pair {pair}")
    degree = sum(exponents)
    if degree > order:
        return None
    return sum(map(lshift, exponents, layout.shifts)) | degree << layout.top


def bracket_sum(
    pairs: Iterable[tuple[PolySeries, PolySeries]],
    like: PolySeries,
    top=None,
    *,
    through: int | None = None,
) -> PolySeries:
    """The sum of {F, G} over the (F, G) pairs, a series of like's shape.

    Every product accumulates in one dict over L, the lcm of the D_F D_G:
    each pair's factor L / (D_F D_G) scales its left values as they are
    read, and the sum gets one gcd.

    Given the frequencies ``top`` (a ``FreqVector``), the sum keeps of
    like's truncation degree M only its resonant terms, found through the
    frequencies' label table for like's key layout; every term of lower
    degree is as without them.  Given a degree ``through`` instead, the sum
    keeps only its terms of degree at most min(through, M), the rest
    never formed; the two are not combined, as the resonant cut is one of
    degree M.
    """
    if top is not None and through is not None:
        raise UsageError("a bracket sum takes a resonant top or a degree bound, not both")
    kept = []
    for f, g in pairs:
        like._require_compatible(f)
        like._require_compatible(g)
        if f.nums and g.nums:
            kept.append((f, g, f.den * g.den))
    den = lcm(*[d for _, _, d in kept])
    shift = _packed(kept, den, 2 * like.n * like.order**2)
    labels = None if top is None else top._label_table(like.layout)
    cut = top is not None and top._resonant_top(like.order)
    products = [
        (_side(f, False, shift), right := _side(g, True, shift), den // d,
         _partners(g, right, labels) if cut else _NO_PARTNERS)
        for f, g, d in kept
    ]
    last = like.order if through is None else min(through, like.order)
    return _sum_of_products(like, products, den, shift, last, labels)


def combination(items: Iterable[tuple[int | Fraction, PolySeries]], like: PolySeries) -> PolySeries:
    """The sum of q S over the (q, S) items, a series of like's shape.

    One dict over L, the lcm of the q.den D_S, starts as the first S and
    adds each other S; every S is scaled by c = q.num L / (q.den D_S).
    A packed sum is R0 + R1 2**K: with A the largest |component| of S,
    every |Rj| <= bound = sum |c| A over the items < 2**(K - 1) for
    K = bits(bound) + 2.
    """
    scaled, den, packed = [], 1, False
    for q, series in items:
        like._require_compatible(series)
        num, d = _ratio_of(q)
        if num and series.nums:
            d *= series.den
            den = lcm(den, d)
            scaled.append((series, num, d))
            packed = packed or _complex(series)
    shift = 0
    if packed:
        bound = sum(abs(num * (den // d)) * _largest(f) for f, num, d in scaled)
        shift = bound.bit_length() + 2
    result: dict = {}
    for series, num, d in scaled:
        c, nums = num * (den // d), _pack(series, shift)
        if not result:
            # the first item's numerators, copied
            result = dict(nums) if c == 1 else {key: c * value for key, value in nums.items()}
            continue
        get = result.get
        for key, value in nums.items():
            value *= c
            known = get(key)
            result[key] = value if known is None else known + value
    return like._make(_unpacked(result, shift), den)


# the partners of the right lists of a sum without a resonant top: none
_NO_PARTNERS = repeat(None)


def _side(series: PolySeries, right: bool, shift: int) -> list[list]:
    """The 2n derivative term lists of series as one operand of a bracket.

    Left: -dF/dx_1..-dF/dx_n, dF/dy_1..dF/dy_n; right: dG/dy_1..dG/dy_n,
    dG/dx_1..dG/dx_n, sorted; zip pairs them into the 2n products of {F, G}.
    Over int numerators the lists are built once and kept in the series'
    slot for that side.  With a complex numerator they are built for each
    call from the numerators packed with shift.
    """
    lists = series._right if right else series._left
    if lists is None:
        items = _pack(series, shift).items()
        lists = _derivatives(series.layout, sorted(items) if right else items, right)
        if not _complex(series):
            setattr(series, "_right" if right else "_left", lists)
    return lists


def _partners(series: PolySeries, rights: list[list], labels: Mapping) -> list[dict]:
    """For each right list of series, its terms by the label a left term
    must have to reach a resonant term of degree M = series.order with them.

    A term of degree d and charges (R, I) goes under (M - d, -R, -I): the
    charges of a product key add, so a left term labelled (d', R', I')
    meets exactly its partners of degree M - d' and charges (-R', -I').
    The partners of kept lists are kept with the label table they were
    built for; the order is the series' own.
    """
    cached = series._partners
    if cached is not None and cached[0] is labels:
        return cached[1]
    order, low, buckets = series.order, series.layout.low, []
    for right in rights:
        bucket: dict[tuple, list] = {}
        for term in right:
            degree, re, im = labels[term[0] >> low]
            bucket.setdefault((order - degree, -re, -im), []).append(term)
        buckets.append(bucket)
    if rights is series._right:
        series._partners = (labels, buckets)
    return buckets


def _derivatives(layout: Layout, items: Iterable, right: bool) -> list[list]:
    """The term lists of sign * dF/dv over the terms (key, numerator) of F,
    in their order, for the variables v and signs of one bracket side: a
    term with a zero v field has no derivative, the others lose one v and
    one degree."""
    top, mask, shifts = layout.top, (1 << layout.width) - 1, layout.shifts
    n = len(shifts) // 2
    if right:
        sides = zip(shifts[n:] + shifts[:n], (1,) * (2 * n))
    else:
        sides = zip(shifts, (-1,) * n + (1,) * n)
    lists = []
    for shift, sign in sides:
        unit = 1 << top | 1 << shift
        lists.append([
            (key - unit, power * value)
            for key, value in items if (power := sign * (key >> shift & mask))
        ])
    return lists


def _packed(products: list, den: int, spread: int) -> int:
    """K for packing the numerators of the (F, G, d) products, each with
    the factor c = den / d, as a + b X, X = 2**K; 0 when every numerator
    is an int.

    A sum on one key is R0 + R1 X + R2 X**2, and K makes every
    |Rj| < 2**(K - 1).  In one product of term lists the keys of a list are
    distinct, so a key gets at most one piece per left term and per right
    term: at most 2n min(|F|, |G|) pieces from the 2n products of a bracket
    and min(|F|, |G|) from F G.  An exponent is at most the order M, so a
    derivative scales a numerator by at most M, and c scales the left
    values.  With A and B the largest |component| of F and of G, a piece
    c (a + b X)(e + f X) = c (ae + (af + be) X + bf X**2) has every
    coefficient at most 2 |c| M**2 A B
    in a bracket and 2 |c| A B in a product.  With spread = 2n M**2 for
    brackets and 1 for products, and bound the sum of
    spread min(|F|, |G|) |c| A B over the products, every
    |Rj| <= 2 bound < 2**(bits(bound) + 1) = 2**(K - 1)
    for K = bits(bound) + 2.
    """
    if not any([_complex(f) or _complex(g) for f, g, _ in products]):
        return 0
    bound = sum(
        spread * min(len(f.nums), len(g.nums)) * (den // d) * _largest(f) * _largest(g)
        for f, g, d in products
    )
    return bound.bit_length() + 2


def _complex(series: PolySeries) -> bool:
    """Whether a numerator is a Gaussian integer, kept in the series."""
    found = series._complex
    if found is None:
        found = series._complex = GaussianInteger in {*map(type, series.nums.values())}
    return found


def _largest(series: PolySeries) -> int:
    """The largest |component| of the numerators, kept in the series."""
    big = series._big
    if big is None:
        big = series._big = max(
            [abs(v) if type(v) is int else max(abs(v.re), abs(v.im))
             for v in series.nums.values()],
            default=0,
        )
    return big


def _pack(series: PolySeries, shift: int) -> dict:
    """The numerators with a + b i packed as a + b 2**shift; the series'
    own dict when it holds no complex numerator."""
    if not shift or not _complex(series):
        return series.nums
    return {
        key: v if type(v) is int else v.re + (v.im << shift) for key, v in series.nums.items()
    }


def _unpacked(result: dict, shift: int) -> dict:
    """Each packed sum R0 + R1 X + R2 X**2, X = 2**shift, as the numerator
    (R0 - R2) + R1 i, read from its balanced base-X digits; result itself
    for shift 0."""
    if not shift:
        return result
    # adding half to every digit makes the digits of R + half plain ones;
    # the real part R0 - R2 loses both halves
    half, mask = 1 << shift - 1, (1 << shift) - 1
    offset = half | half << shift | half << 2 * shift
    return {
        key: gaussian_integer(
            ((t := total + offset) & mask) - (t >> 2 * shift), (t >> shift & mask) - half
        )
        for key, total in result.items()
    }


def _sum_of_products(
    like: PolySeries,
    products: Iterable,
    den: int,
    shift: int,
    last: int,
    labels: Mapping | None = None,
) -> PolySeries:
    """The series like ``like`` over den holding the sum of factor times the
    truncated products of the (left, right) term lists of each (lefts,
    rights, factor, partners) product; the factor scales each left value
    once, and each right list is sorted, so a row stops at the first key
    that takes the pair past degree ``last`` <= M.  With a label table,
    and ``last`` the order M, a row stops before M instead and then takes
    the partners, of degree M, that the label of its left key's series
    part picks from the right list's partner dict (``_partners``), if it
    has partners.  With a nonzero
    shift K the numerators are packed by ``_pack`` and each sum is read
    back from its balanced base-2**K digits."""
    high, low = like.layout.top, like.layout.low
    stop = last + 1 if labels is None else last
    result: dict[int, object] = {}
    get = result.get
    for lefts, rights, factor, partners in products:
        for left, right, bucket in zip(lefts, rights, partners):
            for k1, v1 in left:
                v1 *= factor
                limit = stop - (k1 >> high) << high
                for k2, v2 in right:
                    if k2 >= limit:
                        break
                    key = k1 + k2
                    piece = v1 * v2
                    known = get(key)
                    result[key] = piece if known is None else known + piece
                if bucket:
                    for k2, v2 in bucket.get(labels[k1 >> low], ()):
                        key = k1 + k2
                        piece = v1 * v2
                        known = get(key)
                        result[key] = piece if known is None else known + piece
    return like._make(_unpacked(result, shift), den)


def _pair_reader(layout: Layout) -> Callable[[int], ExponentPair]:
    """The function from a key of this layout to its exponent pair."""
    mask = (1 << layout.width) - 1
    n = len(layout.shifts) // 2
    x_shifts, y_shifts = layout.shifts[:n], layout.shifts[n:]

    def pair_of(key: int) -> ExponentPair:
        return ExponentPair(
            tuple([key >> s & mask for s in x_shifts]), tuple([key >> s & mask for s in y_shifts])
        )

    return pair_of


def _fill(
    series: PolySeries, n: int, order: int, ring, layout: Layout, nums: dict, den: int
) -> PolySeries:
    series.n = n
    series.order = order
    series.ring = ring
    series.layout = layout
    series.den = den
    series.nums = nums
    series._terms = series._left = series._right = series._partners = None
    series._big = series._complex = None
    return series


def from_json_terms(
    n: int,
    order: int,
    rows: Iterable[dict],
    ring: CoefficientRing = GAUSSIAN_RING,
) -> PolySeries:
    """Build a numeric series from a list of {"alpha","beta","coeff"} rows.

    Duplicate exponent pairs are summed.
    """
    acc: dict[ExponentPair, object] = {}
    for row in rows:
        pair = make_pair(row["alpha"], row["beta"])
        value = GaussianRational.from_json(row["coeff"])
        if pair in acc:
            acc[pair] = acc[pair] + value
        else:
            acc[pair] = value
    return PolySeries(n, order, ring, acc)
