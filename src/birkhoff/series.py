"""Sparse truncated series in x_1..x_n, y_1..y_n with a Poisson bracket.

A :class:`PolySeries` is a map from exponent pairs to coefficient-ring values
together with a truncation order M: every operation discards terms of total
degree above M.  The truncation order is part of a series' identity; mixing
two different orders (or dimensions, or rings) is a usage error rather than a
silent re-truncation, so differential tests cannot lose coverage quietly.

The bracket is
    {F, G} = sum_j (dF/dy_j dG/dx_j - dF/dx_j dG/dy_j),
computed term-pair-wise with the second operand's terms sorted by degree, so
each row stops at the first pair whose combined degree minus 2 exceeds the
truncation order.

The product and the bracket work on packed exponents (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  Each operand's keys are packed once per call into one
int with 2n fields of w = (M + 2).bit_length() bits, alpha_1..alpha_n then
beta_1..beta_n.  A pair of terms multiplies to the key k1 + k2, and its
bracket term at index j has the key k1 + k2 - u_j, where u_j holds a 1 in
the x_j and the y_j fields.  No field overflows: the pairs kept have
combined degree at most M + 2 < 2**w.  No field borrows: a nonzero bracket
factor needs both the x_j and the y_j sums to be at least 1.  Terms
accumulate in an int-keyed dict, and each result key is unpacked once, to
an :class:`ExponentPair`, in first-insertion order.

Arithmetic results come from :meth:`PolySeries._trusted`, which skips the
per-term checks of the validating public constructor: their terms already
have arity n, degree at most M and nonzero values.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter, lshift
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import UsageError
from .scalars import CoefficientRing, GAUSSIAN_RING


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


def _exponent_tuples(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Tuples of slots non-negative integers summing to total, in lex order."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponent_tuples(total - head, slots - 1):
            yield (head,) + rest


def monomials(n: int, degree: int) -> Iterator[ExponentPair]:
    """Every exponent pair of the given total degree in n degrees of freedom.

    Ordered by the degree of alpha, then by alpha and by beta
    lexicographically.
    """
    for da in range(degree + 1):
        for alpha in _exponent_tuples(da, n):
            for beta in _exponent_tuples(degree - da, n):
                yield ExponentPair(alpha, beta)


def term_order(pair: ExponentPair) -> tuple:
    """Sort key of the canonical term order: degree, then alpha, then beta."""
    return (pair.degree, pair.alpha, pair.beta)


class PolySeries:
    """Sparse graded series truncated at a fixed total-degree order."""

    __slots__ = ("n", "order", "ring", "terms")

    def __init__(
        self,
        n: int,
        order: int,
        ring: CoefficientRing,
        terms: dict[ExponentPair, object] | None = None,
    ):
        if n < 1:
            raise UsageError(f"dimension must be positive, got {n}")
        if order < 0:
            raise UsageError(f"truncation order must be non-negative, got {order}")
        self.n = n
        self.order = order
        self.ring = ring
        cleaned: dict[ExponentPair, object] = {}
        if terms:
            for pair, value in terms.items():
                if len(pair.alpha) != n:
                    raise UsageError(
                        f"exponent pair {pair} does not match dimension {n}"
                    )
                if pair.degree > order or value.is_zero:
                    continue
                cleaned[pair] = value
        self.terms = cleaned

    @staticmethod
    def zero(n: int, order: int, ring: CoefficientRing = GAUSSIAN_RING) -> "PolySeries":
        return PolySeries(n, order, ring)

    @staticmethod
    def _trusted(
        n: int, order: int, ring: CoefficientRing, terms: dict[ExponentPair, object]
    ) -> "PolySeries":
        """The series over terms known to have arity n, degree <= order and
        nonzero values, without the checks of ``__init__``.

        Arithmetic results are built here.  The dict is taken over, not copied.
        """
        series = _new(PolySeries)
        series.n = n
        series.order = order
        series.ring = ring
        series.terms = terms
        return series

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
        self._require_compatible(other)
        merged = dict(self.terms)
        for pair, value in other.terms.items():
            if pair in merged:
                total = merged[pair] + value
                if total.is_zero:
                    del merged[pair]
                else:
                    merged[pair] = total
            else:
                merged[pair] = value
        return PolySeries._trusted(self.n, self.order, self.ring, merged)

    def __neg__(self) -> "PolySeries":
        return PolySeries._trusted(
            self.n, self.order, self.ring,
            {pair: -value for pair, value in self.terms.items()},
        )

    def __sub__(self, other: "PolySeries") -> "PolySeries":
        return self + (-other)

    def __mul__(self, other: "PolySeries") -> "PolySeries":
        self._require_compatible(other)
        order = self.order
        width = _field_width(order)
        right = _pack(other, width)
        product: dict[int, object] = {}
        get = product.get
        for k1, d1, _, v1 in _pack(self, width):
            for k2, d2, _, v2 in right:
                if d1 + d2 > order:
                    continue
                key = k1 + k2
                piece = v1 * v2
                known = get(key)
                product[key] = piece if known is None else known + piece
        return PolySeries._trusted(self.n, order, self.ring, _unpack(product, self.n, width))

    def scale(self, q: Fraction) -> "PolySeries":
        if q == 0:
            return PolySeries(self.n, self.order, self.ring)
        return PolySeries._trusted(
            self.n, self.order, self.ring,
            {pair: value.scaled(q) for pair, value in self.terms.items()},
        )

    def filter_terms(self, keep: Callable[[ExponentPair], bool]) -> "PolySeries":
        return PolySeries._trusted(
            self.n, self.order, self.ring,
            {pair: value for pair, value in self.terms.items() if keep(pair)},
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, pair: ExponentPair):
        return self.terms.get(pair, self.ring.zero)

    def grade(self, s: int) -> "PolySeries":
        """The homogeneous degree-s part, as a series of the same order."""
        return self.filter_terms(lambda pair: pair.degree == s)

    def grades(self) -> list[int]:
        return sorted({pair.degree for pair in self.terms})

    def min_degree(self) -> int | None:
        if not self.terms:
            return None
        return min(pair.degree for pair in self.terms)

    def with_order(self, order: int) -> "PolySeries":
        """Explicit re-truncation (or headroom extension) to a new order."""
        return PolySeries(self.n, order, self.ring, dict(self.terms))

    def poisson(self, other: "PolySeries") -> "PolySeries":
        self._require_compatible(other)
        n, order = self.n, self.order
        width = _field_width(order)
        units = [(1 << width * j) | (1 << width * (n + j)) for j in range(n)]
        by_degree = sorted(_pack(other, width), key=itemgetter(1))
        result: dict[int, object] = {}
        get = result.get
        for k1, d1, p1, v1 in _pack(self, width):
            # a pair brackets to degree d1 + d2 - 2
            limit = order + 2 - d1
            rows = list(zip(units, p1.alpha, p1.beta))
            for k2, d2, p2, v2 in by_degree:
                if d2 > limit:
                    break
                base = None
                total = k1 + k2
                for (unit, a1, b1), a2, b2 in zip(rows, p2.alpha, p2.beta):
                    factor = b1 * a2 - a1 * b2
                    if not factor:
                        continue
                    if base is None:
                        base = v1 * v2
                    key = total - unit
                    piece = base.scaled(factor)
                    known = get(key)
                    result[key] = piece if known is None else known + piece
        return PolySeries._trusted(n, order, self.ring, _unpack(result, n, width))

    def sorted_terms(self) -> list[tuple[ExponentPair, object]]:
        return sorted(self.terms.items(), key=lambda item: term_order(item[0]))

    def __iter__(self) -> Iterator[tuple[ExponentPair, object]]:
        return iter(self.sorted_terms())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolySeries):
            return NotImplemented
        return (
            other.n == self.n
            and other.order == self.order
            and (other.ring is self.ring or other.ring == self.ring)
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, self.order, tuple(sorted(self.terms.keys()))))

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
        if self.is_zero:
            return "0"
        parts = []
        for pair, value in self.sorted_terms():
            coeff = self.ring.render(value)
            body = self._monomial_text(pair)
            parts.append(f"{coeff} {body}".strip())
        text = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-") and not piece.startswith("(-"):
                text += f" - {piece[1:]}"
            else:
                text += f" + {piece}"
        return text

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


def _field_width(order: int) -> int:
    """Bits per packed exponent: every field of k1 + k2 stays <= order + 2."""
    return (order + 2).bit_length()


def _pack(series: PolySeries, width: int) -> list[tuple[int, int, ExponentPair, object]]:
    """(packed key, degree, pair, value) for each term, in dictionary order."""
    shifts = range(0, 2 * series.n * width, width)
    return [
        (sum(map(lshift, pair.alpha + pair.beta, shifts)), pair.degree, pair, value)
        for pair, value in series.terms.items()
    ]


def _unpack(packed: dict[int, object], n: int, width: int) -> dict[ExponentPair, object]:
    """The nonzero terms of an int-keyed accumulator, keyed by ExponentPair."""
    mask = (1 << width) - 1
    x_shifts = range(0, n * width, width)
    y_shifts = range(n * width, 2 * n * width, width)
    terms = {}
    for key, value in packed.items():
        if not value.is_zero:
            alpha = tuple([key >> shift & mask for shift in x_shifts])
            beta = tuple([key >> shift & mask for shift in y_shifts])
            terms[ExponentPair(alpha, beta)] = value
    return terms


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
    from .scalars import GaussianRational

    total = PolySeries.zero(n, order, ring)
    acc: dict[ExponentPair, object] = {}
    for row in rows:
        pair = make_pair(row["alpha"], row["beta"])
        value = GaussianRational.from_json(row["coeff"])
        if pair in acc:
            acc[pair] = acc[pair] + value
        else:
            acc[pair] = value
    return total + PolySeries(n, order, ring, acc)
