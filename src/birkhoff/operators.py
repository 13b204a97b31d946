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
For each key layout a FreqVector keeps one table from the series part of a
key, ``key >> layout.low``, to its label (degree, R, I), so the monomials
in the indeterminates of one exponent pair share one label.  D, A and B
read it, and so does ``series.bracket_sum``, which given the frequencies
keeps only the resonant terms of the truncation degree.
"""

from __future__ import annotations

from math import lcm
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
from .series import ExponentPair, Layout, PolySeries, compositions, term_order


class FreqVector:
    """Nonzero frequencies lambda_1..lambda_n in Q(i).

    ``re``, ``im`` and ``den`` write lambda_j = (re_j + im_j i)/den over the
    lcm of the frequencies' denominators.  Each instance keeps the labels,
    eigenvalues and resonant top degrees it has computed; equality and
    hashing look only at the frequencies.
    """

    __slots__ = ("entries", "re", "im", "den", "_labels", "_eigen", "_resonant_tops")

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
        # key layout -> its label table
        self._labels: dict[Layout, _Labels] = {}
        # nonzero charges (R, I) -> the eigenvalue and its inverse as
        # (numerator, denominator, numerator, denominator)
        self._eigen: dict[tuple[int, int], tuple] = {}
        # order -> whether some monomial of that degree is resonant
        self._resonant_tops: dict[int, bool] = {}

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

    def _label_table(self, layout: Layout) -> "_Labels":
        """The label table of a key layout, made on first use and kept."""
        table = self._labels.get(layout)
        if table is None:
            table = self._labels[layout] = _Labels(self, layout)
        return table

    def _factors(self, re: int, im: int) -> tuple:
        """The eigenvalue (re + im i)/den and its inverse as (numerator,
        denominator, numerator, denominator), computed once per nonzero
        charge."""
        entry = self._eigen.get((re, im))
        if entry is None:
            value = _reduced(re, im, self.den)
            inverse = value.inverse()
            entry = self._eigen[re, im] = (
                gaussian_integer(value.a, value.b), value.d,
                gaussian_integer(inverse.a, inverse.b), inverse.d,
            )
        return entry

    def _resonant_top(self, order: int) -> bool:
        """Whether some monomial of degree order is resonant: a split
        |alpha| + |beta| = order with an alpha and a beta of equal charge."""
        found = self._resonant_tops.get(order)
        if found is None:
            buckets = _charge_buckets(self, order)
            found = self._resonant_tops[order] = any(
                buckets[size].keys() & buckets[order - size].keys() for size in range(order + 1)
            )
        return found

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


class _Labels(dict):
    """Series part of a key -> (degree, <k, re>, <k, im>), k = alpha - beta,
    for one key layout; a label is computed on first lookup and kept."""

    __slots__ = ("_high", "_mask", "_fields")

    def __init__(self, freq: FreqVector, layout: Layout):
        super().__init__()
        n, low = freq.n, layout.low
        shifts = [shift - low for shift in layout.shifts]
        self._high = layout.top - low
        self._mask = (1 << layout.width) - 1
        self._fields = list(zip(shifts[:n], shifts[n:], freq.re, freq.im))

    def __missing__(self, part: int) -> tuple[int, int, int]:
        re = im = 0
        mask = self._mask
        for xs, ys, re_j, im_j in self._fields:
            k = (part >> xs & mask) - (part >> ys & mask)
            re += k * re_j
            im += k * im_j
        label = self[part] = (part >> self._high, re, im)
        return label


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
    labels, low = freq._label_table(series.layout), series.layout.low
    return series._select(lambda key: labels[key >> low][1:] == (0, 0))


def image_projection(series: PolySeries, freq: FreqVector) -> PolySeries:
    """I - A: keep exactly the terms with nonzero eigenvalue."""
    _check_dimension(series, freq)
    labels, low = freq._label_table(series.layout), series.layout.low
    return series._select(lambda key: labels[key >> low][1:] != (0, 0))


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
    labels, low = freq._label_table(series.layout), series.layout.low
    at = 2 if inverse else 0
    picked = []
    for key, value in series.nums.items():
        _, re, im = labels[key >> low]
        if re or im:
            entry = freq._factors(re, im)
            picked.append((key, value, entry[at], entry[at + 1]))
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


def _charge_buckets(freq: FreqVector, order: int) -> list[dict]:
    """For each size 0..order, the exponent tuples of that size in n
    variables by their charge (<., re>, <., im>)."""
    buckets = []
    for size in range(order + 1):
        bucket: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for exps in compositions(size, freq.n, 0):
            bucket.setdefault(freq._charge(exps), []).append(exps)
        buckets.append(bucket)
    return buckets


def resonant_pairs(freq: FreqVector, order: int) -> list[ExponentPair]:
    """All non-trivial resonant exponent pairs of total degree <= order.

    Trivial means diagonal (alpha == beta): those are resonant for every
    frequency vector and are omitted.  A pair is resonant when alpha and
    beta have the same charge (<., re>, <., im>), so for each split of a
    degree into |alpha| + |beta| each bucket of alphas meets the bucket of
    betas of its charge.  Results are in canonical term order.
    """
    buckets = _charge_buckets(freq, order)
    found = [
        ExponentPair(alpha, beta)
        for degree in range(1, order + 1)
        for size in range(degree + 1)
        for charge, alphas in buckets[size].items()
        for alpha in alphas
        for beta in buckets[degree - size].get(charge, ())
        if alpha != beta
    ]
    found.sort(key=term_order)
    return found
