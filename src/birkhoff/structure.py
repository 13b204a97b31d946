"""Symbolic normalization and the per-monomial structure checker.

Running the degree-by-degree pipeline with one indeterminate h[gamma;delta]
per support pair turns every normal-form coefficient N_{alpha beta} into an
explicit polynomial in those indeterminates.  Each monomial of each
N_{alpha beta} then carries combinatorial bookkeeping that the normalization
process must respect:

* s: the total degree in the h indeterminates;
* w: the exponent-pair weight, the sum over the monomial's factors of their
  (gamma, delta) pairs with multiplicity;
* T = w - (alpha, beta), viewed componentwise in Z^{2n}.

The checker asserts, for every monomial of every resonant coefficient with
|alpha| + |beta| >= 3:

    (1) 1 <= s <= |alpha| + |beta| - 2
    (2) T has no negative component
    (3) |T_y| - |T_x| = 0
    (4) |T| = 2s - 2

Violations are report rows, not exceptions; the report carries a global
verdict and the first violating row in full.

Only the normal form is read, so the symbolic run asks ``lie_normalize``
for ``normal_form_only``: the top degree keeps only its resonant terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import UsageError
from .lie import lie_normalize
from .operators import FreqVector
from .scalars import (
    GaussianRational,
    SymRing,
    SymScalar,
    evaluation_map,
    format_rational,
)
from .series import ExponentPair, PolySeries, term_order

DEFAULT_ORDER_CAP = 6
DEFAULT_SUPPORT_CAP = 12


@dataclass(frozen=True)
class SymbolicNormalForm:
    """Normal form with one indeterminate per support pair."""

    ring: SymRing
    freq: FreqVector
    order: int
    resonant: dict[ExponentPair, SymScalar]


def symbolic_normalize(
    support: Sequence[ExponentPair],
    freq: FreqVector,
    order: int,
    kernel_corrected: bool = True,
) -> SymbolicNormalForm:
    """Run the degree-by-degree pipeline over symbolic coefficients.

    Specializing the indeterminates to numbers commutes with normalization;
    that homomorphism property is exercised by the tests.
    """
    if not freq.is_real:
        raise UsageError(
            "symbolic normalization supports only real rational frequencies"
        )
    pairs = []
    seen = set()
    for pair in support:
        key = ExponentPair(tuple(pair.alpha), tuple(pair.beta))
        name = f"alpha={list(key.alpha)} beta={list(key.beta)}"
        if len(key.alpha) != freq.n:
            raise UsageError(f"support pair {name} does not match n={freq.n}")
        if key.degree < 3:
            raise UsageError(
                f"support pair {name} has degree {key.degree}; degrees below 3 "
                "are not part of the perturbation"
            )
        if key.degree > order:
            raise UsageError(
                f"support pair {name} has degree {key.degree}, above the order {order}"
            )
        if key in seen:
            continue
        seen.add(key)
        pairs.append(key)
    pairs.sort(key=term_order)
    ring = SymRing(tuple(pairs))
    terms = {pair: ring.indeterminate(pair) for pair in pairs}
    hamiltonian = freq.quadratic_part(order, ring) + PolySeries(
        freq.n, order, ring, terms
    )
    normal_form = lie_normalize(
        hamiltonian, freq, kernel_corrected, normal_form_only=True
    ).normal_form
    resonant = {pair: value for pair, value in normal_form.terms.items() if pair.degree >= 3}
    return SymbolicNormalForm(ring=ring, freq=freq, order=order, resonant=resonant)


def specialize(
    symbolic: SymbolicNormalForm,
    values: Mapping[ExponentPair, GaussianRational],
) -> PolySeries:
    """Substitute numbers for the indeterminates in the resonant tail.

    Returns the full numeric normal form (quadratic part included).
    """
    ordered = evaluation_map(symbolic.ring, values)
    out = symbolic.freq.quadratic_part(symbolic.order)
    terms = {}
    for pair, value in symbolic.resonant.items():
        number = value.evaluate(ordered)
        if not number.is_zero:
            terms[pair] = number
    return out + PolySeries(symbolic.freq.n, symbolic.order, out.ring, terms)


@dataclass(frozen=True)
class StructureReport:
    """Per-monomial bookkeeping rows plus the global verdict."""

    order: int
    freq: FreqVector
    rows: tuple[dict, ...]
    verdict: bool
    first_violation: dict | None

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "lambda": self.freq.to_json(),
            "monomials": len(self.rows),
            "verdict": "pass" if self.verdict else "fail",
            "first_violation": self.first_violation,
            "rows": list(self.rows),
        }


def check_structure(symbolic: SymbolicNormalForm) -> StructureReport:
    """Evaluate the four per-monomial constraints on every resonant term."""
    ring = symbolic.ring
    rows: list[dict] = []
    first_violation: dict | None = None
    for pair, value in sorted(symbolic.resonant.items(), key=lambda item: term_order(item[0])):
        target_degree = pair.degree
        for exponents, coeff in value.sorted_terms():
            s = sum(exponents)
            wx, wy = ring.monomial_weight(exponents)
            t_x = tuple(w - a for w, a in zip(wx, pair.alpha))
            t_y = tuple(w - b for w, b in zip(wy, pair.beta))
            size = sum(t_x) + sum(t_y)
            checks = {
                "degree_bounds": 1 <= s <= target_degree - 2,
                "T_nonnegative": min(t_x + t_y) >= 0,
                "delta_zero": sum(t_y) - sum(t_x) == 0,
                "T_size": size == 2 * s - 2,
            }
            row = {
                "alpha": list(pair.alpha),
                "beta": list(pair.beta),
                "factors": [
                    {"alpha": list(label[0]), "beta": list(label[1]), "power": e}
                    for label, e in zip(ring.labels, exponents)
                    if e
                ],
                "coeff": format_rational(coeff),
                "s": s,
                "weight_x": list(wx),
                "weight_y": list(wy),
                "T_x": list(t_x),
                "T_y": list(t_y),
                "checks": checks,
                "pass": all(checks.values()),
            }
            rows.append(row)
            if first_violation is None and not row["pass"]:
                first_violation = row
    return StructureReport(
        order=symbolic.order,
        freq=symbolic.freq,
        rows=tuple(rows),
        verdict=first_violation is None,
        first_violation=first_violation,
    )
