"""Frequency data and the kernel/image calculus for the quadratic bracket.

With H2 = sum_j lambda_j x_j y_j, the operator D = {., H2} acts diagonally on
monomials:

    D(x^alpha y^beta) = <alpha - beta, lambda> x^alpha y^beta.

Four operators are defined termwise from that diagonal action:

* ``homological_operator``  -- D itself;
* ``resonant_projection``   -- A, keeping exactly the kernel terms
  (<lambda, beta - alpha> = 0);
* ``image_projection``      -- I - A, keeping exactly the other terms;
* ``partial_inverse``       -- B, dividing non-kernel terms by the eigenvalue
  and killing kernel terms.

They satisfy AB = BA = AD = DA = 0, A^2 = A, DB = BD = I - A; these are the
identities the property tests exercise.

A :class:`FreqVector` writes its frequencies once over one common
denominator, lambda_j = (re_j + im_j i)/den with integers re_j, im_j and
den > 0, so the eigenvalue of x^alpha y^beta is (R + I i)/den for the
integer charges R = <k, re> and I = <k, im>, k = alpha - beta.  Resonance
is therefore an exact integer zero test, R = I = 0, never a tolerance, and
``resonant_pairs`` matches the alpha and beta of equal charge in a dict.
The same charges, with the degree, label each key in the
:class:`TopCharges` map by which ``series.bracket_sum`` keeps only the
resonant terms of the truncation degree.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul, sub
from typing import Iterable, Sequence

from .errors import UsageError
from .scalars import (
    GAUSSIAN_RING,
    CoefficientRing,
    GaussianRational,
    SymRing,
    _reduced,
    gaussian_integer,
)
from .series import ExponentPair, Layout, PolySeries, _layout, compositions, term_order


class FreqVector:
    """Nonzero frequencies lambda_1..lambda_n in Q(i).

    ``re``, ``im`` and ``den`` write lambda_j = (re_j + im_j i)/den over the
    lcm of the frequencies' denominators.  Each instance remembers the
    eigenvalues it has computed, by key layout and packed key; equality and
    hashing look only at the frequencies.
    """

    __slots__ = ("entries", "re", "im", "den", "_keyed", "_tops")

    def __init__(self, entries: Sequence[GaussianRational]):
        items = tuple(entries)
        if not items:
            raise UsageError("frequency vector must be non-empty")
        for j, value in enumerate(items):
            if not isinstance(value, GaussianRational):
                raise UsageError(
                    f"frequency {j + 1} must be a GaussianRational, got {type(value).__name__}"
                )
            if value.is_zero:
                raise UsageError(f"frequency {j + 1} is zero; all frequencies must be nonzero")
        self.entries = items
        den = lcm(*[value.d for value in items])
        self.re = tuple([value.a * (den // value.d) for value in items])
        self.im = tuple([value.b * (den // value.d) for value in items])
        self.den = den
        # (field width, bits below the series fields) -> packed key ->
        # eigenvalue and inverse as (numerator, denominator, numerator,
        # denominator), None if resonant
        self._keyed: dict[tuple[int, int], dict[int, tuple | None]] = {}
        # (key layout, order) -> its charge map
        self._tops: dict[tuple, TopCharges] = {}

    @staticmethod
    def of(*values) -> "FreqVector":
        """Convenience constructor from ints/Fractions/GaussianRationals."""
        converted = []
        for v in values:
            if isinstance(v, GaussianRational):
                converted.append(v)
            else:
                converted.append(GaussianRational.of(v))
        return FreqVector(converted)

    @staticmethod
    def from_json(rows: Iterable) -> "FreqVector":
        return FreqVector([GaussianRational.from_json(row) for row in rows])

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def is_real(self) -> bool:
        return all(v.is_real for v in self.entries)

    def _charge(self, k: Sequence[int]) -> tuple[int, int]:
        """(<k, re>, <k, im>), den times <k, lambda> in real and imaginary parts."""
        return sum(map(mul, k, self.re)), sum(map(mul, k, self.im))

    def eigenvalue(self, pair: ExponentPair) -> GaussianRational:
        """<alpha - beta, lambda> for the monomial x^alpha y^beta."""
        return _reduced(*self._charge(tuple(map(sub, pair.alpha, pair.beta))), self.den)

    def _fields(self, layout: Layout) -> list[tuple[int, int, int, int]]:
        """(x_j shift, y_j shift, re_j, im_j) of each degree of freedom."""
        shifts = layout.shifts
        return list(zip(shifts[:self.n], shifts[self.n:], self.re, self.im))

    def _table(self, series: PolySeries) -> dict[int, tuple | None]:
        """The eigenvalue data of every key of the series, by key.

        A symbolic key shares the data of its series part, which is the key
        of its exponent pair over Q(i); k = alpha - beta is read from the
        fields of that part.
        """
        layout = series.layout
        table = self._keyed.setdefault((layout.width, layout.low), {})
        missing = series.nums.keys() - table.keys()
        if missing:
            low, mask, den = layout.low, (1 << layout.width) - 1, self.den
            numeric = self._keyed.setdefault((layout.width, 0), {})
            fields = self._fields(_layout(series.n, series.order, 0))
            for key in missing:
                part = key >> low
                if part not in numeric:
                    a, b = _key_charges(part, fields, mask)
                    if not a and not b:
                        numeric[part] = None
                    else:
                        g = gcd(a, b, den)
                        a, b, d = a // g, b // g, den // g
                        # 1/((a + b i)/d) = d (a - b i)/(a**2 + b**2)
                        norm = a * a + b * b
                        h = gcd(d * a, d * b, norm)
                        numeric[part] = (
                            gaussian_integer(a, b), d,
                            gaussian_integer(d * a // h, -d * b // h), norm // h,
                        )
                table[key] = numeric[part]
        return table

    def top_charges(self, like: PolySeries) -> "TopCharges":
        """The charge map of like's key layout and truncation order, built
        once per layout and order."""
        _check_dimension(like, self)
        index = (like.layout, like.order)
        charges = self._tops.get(index)
        if charges is None:
            charges = self._tops[index] = TopCharges(self, like.layout, like.order)
        return charges

    def is_resonant(self, pair: ExponentPair) -> bool:
        return self._charge(tuple(map(sub, pair.alpha, pair.beta))) == (0, 0)

    def quadratic_part(
        self, order: int, ring: CoefficientRing = GAUSSIAN_RING
    ) -> PolySeries:
        """The series sum_j lambda_j x_j y_j at the given truncation order."""
        n = self.n
        terms = {}
        for j, lam in enumerate(self.entries):
            alpha = tuple(1 if k == j else 0 for k in range(n))
            beta = alpha
            terms[ExponentPair(alpha, beta)] = ring.one * lam
        return PolySeries(n, order, ring, terms)

    def to_json(self) -> list[dict]:
        return [v.to_json() for v in self.entries]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreqVector):
            return NotImplemented
        return other.entries == self.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"FreqVector({', '.join(str(v) for v in self.entries)})"


class TopCharges(dict):
    """Packed key -> (degree, <k, re>, <k, im>), k = alpha - beta, for one
    key layout and truncation order M: the label by which
    ``series.bracket_sum`` keeps only the resonant terms of degree M.

    The label reads only the series fields of a key, so the low fields of
    a symbolic key change nothing; it is computed on first lookup and kept.
    ``resonant_top`` says whether some monomial of degree M is resonant: a
    split |alpha| + |beta| = M with an alpha and a beta of equal charge.
    """

    __slots__ = ("layout", "order", "resonant_top", "_high", "_mask", "_fields")

    def __init__(self, freq: FreqVector, layout: Layout, order: int):
        super().__init__()
        charges = [
            {freq._charge(exps) for exps in compositions(size, freq.n, 0)}
            for size in range(order + 1)
        ]
        self.layout = layout
        self.order = order
        self.resonant_top = any(charges[size] & charges[order - size] for size in range(order + 1))
        self._high = layout.top
        self._mask = (1 << layout.width) - 1
        self._fields = freq._fields(layout)

    def __missing__(self, key: int) -> tuple[int, int, int]:
        label = self[key] = (key >> self._high, *_key_charges(key, self._fields, self._mask))
        return label


def _key_charges(key: int, fields: list, mask: int) -> tuple[int, int]:
    """(<k, re>, <k, im>) of k = alpha - beta read from the series fields of
    a key, for the (x_j shift, y_j shift, re_j, im_j) fields of a layout."""
    a = b = 0
    for xs, ys, re, im in fields:
        k = (key >> xs & mask) - (key >> ys & mask)
        a += k * re
        b += k * im
    return a, b


def validate_hamiltonian(hamiltonian: PolySeries, freq: FreqVector) -> None:
    """Check H = H2 + (degree >= 3 tail) with H2 matching the frequencies."""
    _check_dimension(hamiltonian, freq)
    if hamiltonian.order < 2:
        raise UsageError(
            f"truncation order {hamiltonian.order} is too small to hold the quadratic part"
        )
    for s in (0, 1):
        if not hamiltonian.grade(s).is_zero:
            raise UsageError(f"input has terms of degree {s}; degrees 0 and 1 must vanish")
    expected = freq.quadratic_part(hamiltonian.order, hamiltonian.ring)
    if hamiltonian.grade(2) != expected:
        raise UsageError(
            "quadratic part must be exactly sum_j lambda_j x_j y_j "
            "for the given frequencies; got "
            f"{hamiltonian.grade(2).render()!r}, expected {expected.render()!r}"
        )


def _check_dimension(series: PolySeries, freq: FreqVector) -> None:
    if series.n != freq.n:
        raise UsageError(
            f"series has {series.n} degrees of freedom but frequency vector has {freq.n}"
        )


def homological_operator(series: PolySeries, freq: FreqVector) -> PolySeries:
    """D: multiply each monomial by its eigenvalue <alpha - beta, lambda>."""
    _check_dimension(series, freq)
    return _times_eigen(series, freq, inverse=False)


def resonant_projection(series: PolySeries, freq: FreqVector) -> PolySeries:
    """A: keep exactly the terms with eigenvalue zero."""
    _check_dimension(series, freq)
    table = freq._table(series)
    return series._select(lambda key: table[key] is None)


def image_projection(series: PolySeries, freq: FreqVector) -> PolySeries:
    """I - A: keep exactly the terms with nonzero eigenvalue."""
    _check_dimension(series, freq)
    table = freq._table(series)
    return series._select(lambda key: table[key] is not None)


def partial_inverse(series: PolySeries, freq: FreqVector) -> PolySeries:
    """B: divide non-resonant terms by their eigenvalue, kill resonant ones."""
    _check_dimension(series, freq)
    return _times_eigen(series, freq, inverse=True)


def _times_eigen(series: PolySeries, freq: FreqVector, inverse: bool) -> PolySeries:
    """Each non-resonant term times its eigenvalue or its inverse, resonant
    terms dropped.

    Each factor is num/den with num a Gaussian integer; the numerators are
    brought over the lcm L of the dens (which divide the eigenvalue norms),
    so the result is one pass over numerators over series.den * L.  A
    symbolic series has integer numerators, so its factors must be real.
    """
    table = freq._table(series)
    at = 2 if inverse else 0
    picked = [
        (key, value, entry[at], entry[at + 1])
        for key, value in series.nums.items()
        if (entry := table[key]) is not None
    ]
    if isinstance(series.ring, SymRing):
        for _, _, num, _ in picked:
            if type(num) is not int:
                raise UsageError(
                    f"symbolic mode supports only real rational frequencies; got factor {num!r}"
                )
    common = lcm(*[den for _, _, _, den in picked])
    return series._make(
        {key: num * (common // den) * value for key, value, num, den in picked},
        series.den * common,
    )


def resonant_pairs(freq: FreqVector, order: int) -> list[ExponentPair]:
    """All non-trivial resonant exponent pairs of total degree <= order.

    Trivial means diagonal (alpha == beta): those are resonant for every
    frequency vector and are omitted.  A pair is resonant when alpha and
    beta have the same charge (<., re>, <., im>), so for each split of a
    degree into |alpha| + |beta| the betas are bucketed by charge and each
    alpha picks its bucket.  Results are in canonical term order.
    """
    by_size = [
        [(exps, freq._charge(exps)) for exps in compositions(size, freq.n, 0)]
        for size in range(order + 1)
    ]
    buckets = []
    for rows in by_size:
        bucket: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for exps, charge in rows:
            bucket.setdefault(charge, []).append(exps)
        buckets.append(bucket)
    found = [
        ExponentPair(alpha, beta)
        for degree in range(1, order + 1)
        for size in range(degree + 1)
        for alpha, charge in by_size[size]
        for beta in buckets[degree - size].get(charge, ())
        if alpha != beta
    ]
    found.sort(key=term_order)
    return found
