"""Frequency data and the kernel/image calculus for the quadratic bracket.

With H2 = sum_j lambda_j x_j y_j, the operator D = {., H2} acts diagonally on
monomials:

    D(x^alpha y^beta) = <alpha - beta, lambda> x^alpha y^beta.

Three companions are defined termwise from that diagonal action:

* ``homological_operator``  -- D itself;
* ``resonant_projection``   -- A, keeping exactly the kernel terms
  (<lambda, beta - alpha> = 0);
* ``partial_inverse``       -- B, dividing non-kernel terms by the eigenvalue
  and killing kernel terms.

They satisfy AB = BA = AD = DA = 0, A^2 = A, DB = BD = I - A; these are the
identities the property tests exercise.  Resonance is decided by an exact
zero test in Q(i), never by a tolerance.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import UsageError
from .scalars import (
    GAUSSIAN_RING,
    GAUSSIAN_ZERO,
    CoefficientRing,
    GaussianRational,
    SymRing,
    gaussian_integer,
)
from .series import ExponentPair, PolySeries, _layout, _pair_reader, monomials, term_order


class FreqVector:
    """Nonzero frequencies lambda_1..lambda_n in Q(i).

    Each instance remembers the eigenvalues it has computed, by key layout
    and packed key; equality and hashing look only at the frequencies.
    """

    __slots__ = ("entries", "_keyed")

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
        # (field width, bits below the series fields) -> packed key ->
        # eigenvalue and inverse as (numerator, denominator, numerator,
        # denominator), None if resonant
        self._keyed: dict[tuple[int, int], dict[int, tuple | None]] = {}

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

    def eigenvalue(self, pair: ExponentPair) -> GaussianRational:
        """<alpha - beta, lambda> for the monomial x^alpha y^beta."""
        total = GAUSSIAN_ZERO
        for a, b, lam in zip(pair.alpha, pair.beta, self.entries):
            k = a - b
            if k:
                total = total + lam.scaled(k)
        return total

    def _table(self, series: PolySeries) -> dict[int, tuple | None]:
        """The eigenvalue data of every key of the series, by key.

        A symbolic key shares the data of its series part, which is the key
        of its exponent pair over Q(i).
        """
        layout = series.layout
        table = self._keyed.setdefault((layout.width, layout.low), {})
        missing = series.nums.keys() - table.keys()
        if missing:
            low = layout.low
            numeric = self._keyed.setdefault((layout.width, 0), {})
            pair_of = _pair_reader(_layout(series.n, series.order, 0))
            for key in missing:
                part = key >> low
                if part not in numeric:
                    eig = self.eigenvalue(pair_of(part))
                    if eig.is_zero:
                        numeric[part] = None
                    else:
                        inv = eig.inverse()
                        numeric[part] = (
                            gaussian_integer(eig.a, eig.b), eig.d,
                            gaussian_integer(inv.a, inv.b), inv.d,
                        )
                table[key] = numeric[part]
        return table

    def is_resonant(self, pair: ExponentPair) -> bool:
        return self.eigenvalue(pair).is_zero

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
    frequency vector and are omitted.  Results are in canonical term order.
    """
    found = [
        pair
        for degree in range(1, order + 1)
        for pair in monomials(freq.n, degree)
        if not pair.is_diagonal and freq.is_resonant(pair)
    ]
    found.sort(key=term_order)
    return found
