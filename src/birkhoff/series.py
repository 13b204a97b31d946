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
first use and kept.

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
2n products of derivative term lists, each exponent folded into the numerator
and the minus sign into the left list.  The product and the bracket share one
loop over a sorted right list, so each row stops at the first key whose
degree passes the truncation order.  Numerators accumulate over D1 D2, and
each result is brought to content form with one gcd: every arithmetic result
goes through :meth:`PolySeries._make`, which skips the per-term checks of the
validating public constructor.

When an operand holds a complex numerator, both operands' numerators
a + b i are packed into the single ints a + b 2**K before the derivative
lists are built (Kronecker substitution; D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009), so the loop multiplies plain ints on every ring.  A sum of
products of packed numerators is R0 + R1 2**K + R2 2**(2K) with
(R0 - R2) + R1 i the sum of the complex products, since 2**(2K) stands for
i**2 = -1; K is chosen before the loop so that every |Rj| < 2**(K - 1),
and the balanced base-2**K digits of each sum are R0, R1 and R2 (the bound
is proved at ``_packed``).  A real numerator a packs to itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import groupby
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

    __slots__ = ("n", "order", "ring", "layout", "den", "nums", "_terms")

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
        shifts, top = layout.shifts, layout.top
        kept = {}
        for pair, value in (terms or {}).items():
            if len(pair.alpha) != n or len(pair.beta) != n:
                raise UsageError(f"exponent pair {pair} does not match dimension {n}")
            if min(pair.alpha + pair.beta) < 0:
                raise UsageError(f"negative exponent in pair {pair}")
            if not isinstance(value, value_type):
                raise UsageError(
                    f"expected a {value_type.__name__} coefficient, got {type(value).__name__}"
                )
            if symbolic and value.nvars != ring.nvars:
                raise UsageError(
                    f"a symbolic value in {value.nvars} indeterminates does not match "
                    f"a ring of {ring.nvars}"
                )
            degree = pair.degree
            if degree <= order and not value.is_zero:
                kept[sum(map(lshift, pair.alpha + pair.beta, shifts)) | degree << top] = value
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
        return PolySeries(n, order, ring)

    def _make(self, nums: dict, den: int) -> "PolySeries":
        """The series like self over nums / den, zeros dropped, in content form.

        Every arithmetic result is built here, without the checks of
        ``__init__``: the keys are trusted to have degree <= order, and only
        their guard bits are read.
        """
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

    def _combined(self, other: "PolySeries", sign: int) -> "PolySeries":
        """self + sign * other, over the lcm of the two denominators."""
        self._require_compatible(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            merged = dict(self.nums)
            factor = sign
        else:
            g = gcd(d1, d2)
            scale = d2 // g
            merged = {key: scale * value for key, value in self.nums.items()}
            factor = sign * (d1 // g)
            d1 *= scale
        get = merged.get
        for key, value in other.nums.items():
            if factor != 1:
                value = factor * value
            known = get(key)
            merged[key] = value if known is None else known + value
        return self._make(merged, d1)

    def __add__(self, other: "PolySeries") -> "PolySeries":
        return self._combined(other, 1)

    def __sub__(self, other: "PolySeries") -> "PolySeries":
        return self._combined(other, -1)

    def __neg__(self) -> "PolySeries":
        return self._make({key: -value for key, value in self.nums.items()}, self.den)

    def __mul__(self, other: "PolySeries") -> "PolySeries":
        self._require_compatible(other)
        f, g, shift = _packed(self.nums, other.nums, 1)
        return _sum_of_products(self, [(f.items(), sorted(g.items()))], self.den * other.den, shift)

    def scale(self, q: int | Fraction) -> "PolySeries":
        num, den = _ratio_of(q)
        if not num:
            return self._make({}, 1)
        if num == 1:
            return self._make(self.nums, self.den * den)
        return self._make(
            {key: num * value for key, value in self.nums.items()}, self.den * den
        )

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
        return self.terms.get(pair, self.ring.zero)

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
        self._require_compatible(other)
        n, layout = self.n, self.layout
        f, g, shift = _packed(self.nums, other.nums, 2 * n * self.order**2)
        left = _derivatives(layout, f.items(), (-1,) * n + (1,) * n)
        right = _derivatives(layout, sorted(g.items()), (1,) * (2 * n))
        return _sum_of_products(self, zip(left, right[n:] + right[:n]), self.den * other.den, shift)

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


def _derivatives(layout: Layout, items: Iterable, signs: tuple[int, ...]) -> list[list]:
    """sign * dF/dv over the terms (key, numerator) of F, in their order, for
    each series variable v = x_1..y_n and its sign: a term with a zero v
    field has no derivative, the others lose one v and one degree."""
    top, mask = layout.top, (1 << layout.width) - 1
    lists = []
    for shift, sign in zip(layout.shifts, signs):
        unit = 1 << top | 1 << shift
        lists.append([
            (key - unit, power * value)
            for key, value in items if (power := sign * (key >> shift & mask))
        ])
    return lists


def _packed(f: dict, g: dict, factor: int) -> tuple[dict, dict, int]:
    """The numerator dicts f and g with a + b i packed as a + b X, X = 2**K,
    and K; f, g and 0 when every numerator is an int.

    A sum on one key is R0 + R1 X + R2 X**2, and K makes every
    |Rj| < 2**(K - 1).  In one product of term lists the keys of a list are
    distinct, so a key gets at most one piece per left term and per right
    term: at most P = 2n min(|F|, |G|) pieces over the 2n products of a
    bracket and P = min(|F|, |G|) for F G.  An exponent is at most the order
    M, so a derivative scales a numerator by at most M.  With A and B the
    largest |component| of F and of G, a piece (a + b X)(c + d X) =
    ac + (ad + bc) X + bd X**2 has every coefficient at most 2 M**2 A B in a
    bracket and 2 A B in a product.  With factor = 2n M**2 for a bracket and
    1 for a product, and bound = factor min(|F|, |G|), every
    |Rj| <= 2 bound A B < 2**(bits(A) + bits(B) + bits(bound) + 1) = 2**(K - 1)
    for K = bits(A) + bits(B) + bits(bound) + 2.
    """
    if GaussianInteger not in {*map(type, f.values()), *map(type, g.values())}:
        return f, g, 0
    shift = (factor * min(len(f), len(g))).bit_length() + 2
    for nums in f, g:
        shift += max(
            [abs(v) if type(v) is int else max(abs(v.re), abs(v.im)) for v in nums.values()],
            default=0,
        ).bit_length()

    def pack(nums: dict) -> dict:
        return {key: v if type(v) is int else v.re + (v.im << shift) for key, v in nums.items()}

    return pack(f), pack(g), shift


def _sum_of_products(like: PolySeries, products: Iterable, den: int, shift: int) -> PolySeries:
    """The series like ``like`` over den holding the sum of the truncated
    products of the (left, right) term lists; each right list is sorted, so
    a row stops at the first key that takes the pair past the order.  With
    a nonzero shift K the numerators are packed by ``_packed`` and each sum
    is read back from its balanced base-2**K digits."""
    order, top = like.order, like.layout.top
    result: dict[int, object] = {}
    get = result.get
    for left, right in products:
        for k1, v1 in left:
            limit = order + 1 - (k1 >> top) << top
            for k2, v2 in right:
                if k2 >= limit:
                    break
                key = k1 + k2
                piece = v1 * v2
                known = get(key)
                result[key] = piece if known is None else known + piece
    if shift:
        # adding half to every digit makes the digits of R + half plain
        # ones; the real part R0 - R2 loses both halves
        half, mask = 1 << shift - 1, (1 << shift) - 1
        offset = half | half << shift | half << 2 * shift
        result = {
            key: gaussian_integer(
                ((t := total + offset) & mask) - (t >> 2 * shift), (t >> shift & mask) - half
            )
            for key, total in result.items()
        }
    return like._make(result, den)


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
    series._terms = None
    return series


def sum_nonzero(pieces: Iterable[PolySeries], zero: PolySeries) -> PolySeries:
    """The sum of the pieces, adding from the first nonzero one; zero if none."""
    total = zero
    for piece in pieces:
        if not piece.is_zero:
            total = piece if total.is_zero else total + piece
    return total


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
