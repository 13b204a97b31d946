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
verdict and the first violating row in full.  The rows are built from
integers: each coefficient's numerators over its denominator, and the
label exponents read once per report.  ``StructureReport.json_text``
writes the report with one row template per report, and ``to_json`` is
its plain-data view.

Only the normal form is read, so the symbolic run asks ``lie_normalize``
for ``normal_form_only``: the top degree keeps only its resonant terms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping, Sequence

from .errors import UsageError
from .lie import lie_normalize
from .operators import FreqVector
from .scalars import GaussianRational, SymRing, SymScalar, _ratio_text, evaluation_map
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
) -> SymbolicNormalForm:
    """Run the kernel-corrected degree-by-degree pipeline over symbolic
    coefficients.

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
    normal_form = lie_normalize(hamiltonian, freq, normal_form_only=True).normal_form
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


# the four per-monomial constraints, in report order
_CHECK_NAMES = ("degree_bounds", "T_nonnegative", "delta_zero", "T_size")
_BOOLS = ("false", "true")


def _rows_text(rows: Sequence[dict], n: int, newline: str) -> list[str]:
    """The text of each row dict as ``json.dumps(indent=2)`` writes it below
    ``newline``, in n degrees of freedom.

    Every row fills one template, with ``%d`` for the ints of alpha, beta,
    s, the weights and T and ``%s`` for the factor list, the quoted
    coefficient and the five booleans; every factor fills a factor
    template.
    """
    field = newline + "  "
    item = field + "  "
    key = item + "  "

    def ints(at: str) -> str:
        return "[" + at + "  " + ("," + at + "  ").join(["%d"] * n) + at + "]"

    checks = ("," + item).join(f'"{name}": %s' for name in _CHECK_NAMES)
    row_template = "{" + field + ("," + field).join([
        '"alpha": ' + ints(field),
        '"beta": ' + ints(field),
        '"factors": %s',
        '"coeff": %s',
        '"s": %d',
        '"weight_x": ' + ints(field),
        '"weight_y": ' + ints(field),
        '"T_x": ' + ints(field),
        '"T_y": ' + ints(field),
        '"checks": {' + item + checks + field + "}",
        '"pass": %s',
    ]) + newline + "}"
    factor_template = (
        "{" + key + '"alpha": ' + ints(key) + "," + key + '"beta": ' + ints(key)
        + "," + key + '"power": %d' + item + "}"
    )
    texts = []
    for row in rows:
        factors = row["factors"]
        if factors:
            listed = "[" + item + ("," + item).join([
                factor_template % (*f["alpha"], *f["beta"], f["power"]) for f in factors
            ]) + field + "]"
        else:
            listed = "[]"
        checks = row["checks"]
        texts.append(row_template % (
            *row["alpha"], *row["beta"], listed, _quote(row["coeff"]), row["s"],
            *row["weight_x"], *row["weight_y"], *row["T_x"], *row["T_y"],
            *[_BOOLS[checks[name]] for name in _CHECK_NAMES], _BOOLS[row["pass"]],
        ))
    return texts


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

    def json_text(self, newline: str) -> str:
        """The text of ``json.dumps(self.to_json(), indent=2)``, nested below
        ``newline`` (a line break and the current indent).

        Each row fills one template built once for n, its factor rows fill
        a factor template, its booleans come from a two-entry table and its
        coefficient goes through the C escaper that json uses under
        ``ensure_ascii``; no row is walked as a generic dict.
        """
        inner = newline + "  "
        n = self.freq.n
        first = self.first_violation
        if self.rows:
            body = inner + "  "
            rows = "[" + body + ("," + body).join(_rows_text(self.rows, n, body)) + inner + "]"
        else:
            rows = "[]"
        return "{" + inner + ("," + inner).join([
            '"order": %d' % self.order,
            '"lambda": ' + json.dumps(self.freq.to_json(), indent=2).replace("\n", inner),
            '"monomials": %d' % len(self.rows),
            '"verdict": ' + ('"pass"' if self.verdict else '"fail"'),
            '"first_violation": ' + ("null" if first is None else _rows_text([first], n, inner)[0]),
            '"rows": ' + rows,
        ]) + newline + "}"


def check_structure(symbolic: SymbolicNormalForm) -> StructureReport:
    """Evaluate the four per-monomial constraints on every resonant term.

    Each coefficient is read as integer numerators over its denominator,
    and a monomial's weight sums the exponent pairs of its factors, read
    once per report, over its nonzero powers only.
    """
    n = symbolic.freq.n
    labels = [(alpha, beta, alpha + beta) for alpha, beta in symbolic.ring.labels]
    rows: list[dict] = []
    first_violation: dict | None = None
    for pair, value in sorted(symbolic.resonant.items(), key=lambda item: term_order(item[0])):
        target = pair.alpha + pair.beta
        top = pair.degree - 2
        den = value.den
        for exponents, num in value._sorted_nums():
            s = 0
            weight = [0] * (2 * n)
            factors = []
            for (alpha, beta, both), power in zip(labels, exponents):
                if power:
                    s += power
                    weight = [w + power * e for w, e in zip(weight, both)]
                    factors.append({"alpha": list(alpha), "beta": list(beta), "power": power})
            t = [w - e for w, e in zip(weight, target)]
            t_x, t_y = t[:n], t[n:]
            size_x, size_y = sum(t_x), sum(t_y)
            checks = {
                "degree_bounds": 1 <= s <= top,
                "T_nonnegative": min(t) >= 0,
                "delta_zero": size_y - size_x == 0,
                "T_size": size_x + size_y == 2 * s - 2,
            }
            row = {
                "alpha": list(pair.alpha),
                "beta": list(pair.beta),
                "factors": factors,
                "coeff": _ratio_text(num, den),
                "s": s,
                "weight_x": weight[:n],
                "weight_y": weight[n:],
                "T_x": t_x,
                "T_y": t_y,
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
