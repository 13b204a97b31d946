"""Command-line interface: parsing, report emission, cross-validation.

Commands:

* ``compute``   -- normal form by one pipeline (``--method lie|trees|onedof``)
* ``check``     -- run every applicable cross-check on one input
* ``s-series``  -- the invariant series S and the linearizability bound (n=1)
* ``structure`` -- symbolic normalization and the per-monomial constraints
* ``trees enumerate`` / ``trees mu-sum`` -- tree combinatorics utilities

All reports are JSON with stable key order; exit codes are 0 (pass),
1 (check failure or structure violation), 2 (usage or parse error).
A report holds its series as ``PolySeries`` values, and their term rows
are written straight from the packed keys (``PolySeries.json_text``);
``PolySeries.to_json_terms`` is the plain-data view of the same rows.
The ``structure`` report is a ``StructureReport``, written row by row from
one template (``StructureReport.json_text``); ``to_json`` is its
plain-data view.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .errors import ParseError, UsageError
from .lie import NormalizationResult, exp_lie, lie_normalize, random_symplectic_conjugate
from .onedof import CONVENTIONS, OneDofResult, compute_S, onedof_normal_form
from .operators import (
    FreqVector,
    homological_operator,
    partial_inverse,
    resonant_pairs,
    resonant_projection,
)
from .scalars import GaussianRational, format_rational
from .series import ExponentPair, PolySeries, make_pair, term_order
from .structure import (
    DEFAULT_ORDER_CAP,
    DEFAULT_SUPPORT_CAP,
    StructureReport,
    check_structure,
    symbolic_normalize,
)
from .treeforms import nf_via_trees, total_tree_weight_by_recursion, tree_weight
from .trees import all_trees, catalan_count, format_code, to_code

DEFAULT_SEED = 2026


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem input: dimension, frequencies, order, terms."""

    n: int
    freq: FreqVector
    order: int
    entries: tuple[tuple[ExponentPair, GaussianRational], ...]

    def summed_terms(self) -> dict[ExponentPair, GaussianRational]:
        acc: dict[ExponentPair, GaussianRational] = {}
        for pair, value in self.entries:
            acc[pair] = acc[pair] + value if pair in acc else value
        return {pair: v for pair, v in acc.items() if not v.is_zero}

    def max_term_degree(self) -> int:
        return max((pair.degree for pair, _ in self.entries), default=2)

    def hamiltonian(self, order: int | None = None) -> PolySeries:
        target = self.order if order is None else order
        quad = self.freq.quadratic_part(target)
        return quad + PolySeries(self.n, target, quad.ring, self.summed_terms())

    def support(self) -> list[ExponentPair]:
        unique = {pair for pair, _ in self.entries}
        return sorted(unique, key=term_order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        return (
            other.n == self.n
            and other.freq == self.freq
            and other.order == self.order
            and other.summed_terms() == self.summed_terms()
        )

    def to_json(self) -> dict:
        terms = []
        for pair, value in sorted(self.summed_terms().items(), key=lambda kv: term_order(kv[0])):
            terms.append(
                {
                    "alpha": list(pair.alpha),
                    "beta": list(pair.beta),
                    "coeff": value.to_json(),
                }
            )
        return {
            "n": self.n,
            "lambda": self.freq.to_json(),
            "order": self.order,
            "terms": terms,
        }


_SPEC_KEYS = {"n", "lambda", "order", "terms"}


def parse_problem(data: object, default_coeff: bool = False) -> ProblemSpec:
    """Validate a problem object; errors name the offending field or term."""
    if not isinstance(data, dict):
        raise ParseError("input must be a JSON object")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"\"n\" must be a positive integer, got {n!r}")
    lam_rows = data.get("lambda")
    if not isinstance(lam_rows, list) or len(lam_rows) != n:
        raise ParseError(f"\"lambda\" must be a list of {n} entries")
    lam_entries = []
    for j, row in enumerate(lam_rows, start=1):
        try:
            value = GaussianRational.from_json(row)
        except ParseError as exc:
            raise ParseError(f"lambda entry {j}: {exc}") from None
        if value.is_zero:
            raise ParseError(f"lambda entry {j} is zero; frequencies must be nonzero")
        lam_entries.append(value)
    order = data.get("order")
    if not isinstance(order, int) or isinstance(order, bool) or order < 3:
        raise ParseError(f"\"order\" must be an integer >= 3, got {order!r}")
    rows = data.get("terms", [])
    if not isinstance(rows, list):
        raise ParseError("\"terms\" must be a list")
    entries = []
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, dict):
            raise ParseError(f"term {i}: must be an object")
        extra = set(row) - {"alpha", "beta", "coeff"}
        if extra:
            raise ParseError(f"term {i}: unknown keys {sorted(extra)}")
        for key in ("alpha", "beta"):
            seq = row.get(key)
            if (
                not isinstance(seq, list)
                or len(seq) != n
                or any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in seq)
            ):
                raise ParseError(
                    f"term {i}: \"{key}\" must be a list of {n} non-negative integers"
                )
        pair = make_pair(row["alpha"], row["beta"])
        if pair.degree < 3:
            raise ParseError(
                f"term {i}: total degree {pair.degree} is below 3; the quadratic "
                "part comes only from lambda"
            )
        if "coeff" not in row:
            if not default_coeff:
                raise ParseError(f"term {i}: missing \"coeff\"")
            coeff = GaussianRational.of(1)
        else:
            try:
                coeff = GaussianRational.from_json(row["coeff"])
            except ParseError as exc:
                raise ParseError(f"term {i}: {exc}") from None
        entries.append((pair, coeff))
    return ProblemSpec(
        n=n, freq=FreqVector(lam_entries), order=order, entries=tuple(entries)
    )


def _load_json(path: str) -> object:
    try:
        if path == "-":
            stream = sys.stdin
            if hasattr(stream, "buffer"):
                # decode strictly, as a file is, not with the locale's error handler
                stream = io.TextIOWrapper(io.BytesIO(stream.buffer.read()), encoding="utf-8")
            return json.load(stream)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise ParseError(f"invalid JSON in {path}: nested too deeply") from None
    except ValueError:
        # an integer literal past the interpreter's digit limit
        raise ParseError(
            f"invalid JSON in {path}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def _emit(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}") from None


def _emit_json(obj: object, path: str) -> None:
    _emit(_json_text(obj, "\n") + "\n", path)


def _json_text(value: object, newline: str) -> str:
    """The text of ``json.dumps(value, indent=2)``, nested below ``newline``
    (a line break and the current indent).

    A report holds only str, int, bool, None, lists, tuples, dicts with
    str keys, ``PolySeries`` and ``StructureReport`` values; any other value
    raises TypeError.  A series is written as its ``to_json_terms`` rows,
    straight from its packed keys by ``PolySeries.json_text``, and a
    structure report as its ``to_json`` view by its own ``json_text``,
    one row template per report.  Each container is one
    ``str.join``, a list of ints joins their reprs without a call per item,
    and strings go through the C escaper that json uses under
    ``ensure_ascii``.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            _quote(key) + ": " + (_quote(item) if type(item) is str else _json_text(item, inner))
            for key, item in value.items()
        ]) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        if set(map(type, value)) == {int}:
            body = ("," + inner).join(map(int.__repr__, value))
        else:
            body = ("," + inner).join([_json_text(item, inner) for item in value])
        return "[" + inner + body + newline + "]"
    if kind is PolySeries or kind is StructureReport:
        return value.json_text(newline)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _pairs_json(pairs) -> list[dict]:
    return [{"alpha": list(p.alpha), "beta": list(p.beta)} for p in pairs]


def _load_spec(
    args, default_coeff: bool = False, min_order: int = 3
) -> tuple[ProblemSpec, int]:
    spec = parse_problem(_load_json(args.input), default_coeff=default_coeff)
    order = spec.order if args.order is None else args.order
    if order < min_order:
        raise UsageError(f"--order must be at least {min_order}, got {order}")
    return spec, order


def cmd_compute(args) -> int:
    spec, order = _load_spec(args)
    hamiltonian = spec.hamiltonian(order)
    kernel_corrected = not args.no_kernel_correction
    pairs = _pairs_json(resonant_pairs(spec.freq, order))
    if args.method == "lie":
        result = lie_normalize(hamiltonian, spec.freq, kernel_corrected)
        out = {
            "method": "lie",
            "order": order,
            "kernel_corrected": kernel_corrected,
            "normal_form": result.normal_form,
            "generator": result.generator,
            "resonant_pairs": pairs,
        }
    elif args.method == "trees":
        result = nf_via_trees(hamiltonian, spec.freq, kernel_corrected, audit=True)
        out = {
            "method": "trees",
            "order": order,
            "kernel_corrected": kernel_corrected,
            "normal_form": result.normal_form,
            "breakdown": result.rows,
            "resonant_pairs": pairs,
        }
    else:
        if spec.n != 1:
            raise UsageError(
                f"method onedof requires one degree of freedom, got n={spec.n}"
            )
        result = onedof_normal_form(
            hamiltonian, spec.freq.entries[0], args.convention
        )
        out = {
            "method": "onedof",
            "order": order,
            "convention": args.convention,
            "normal_form": result.normal_form,
            "s_series": result.s_series.to_rows(),
            "nu": result.nu.to_rows()[1:],  # without the linear row, k = 1
            "resonant_pairs": pairs,
        }
    _emit_json(out, args.output)
    return 0


@dataclass(frozen=True)
class CheckContext:
    """What every row of ``check`` reads: the input, the ``lie`` result,
    and for n = 1 the ``onedof`` result, whose S the invariance row reuses."""

    spec: ProblemSpec
    order: int
    seed: int
    hamiltonian: PolySeries
    lie: NormalizationResult
    onedof: OneDofResult | None


# (passed, detail), or the reason the check is skipped
CheckOutcome = tuple[bool, str] | str


def _agreement(
    order: int, name: str, nf: PolySeries, other_name: str, other: PolySeries
) -> CheckOutcome:
    if nf == other:
        return True, f"identical through order {order}"
    return False, f"{name}: {nf.render()}; {other_name}: {other.render()}"


def _lie_trees_agreement(ctx: CheckContext) -> CheckOutcome:
    trees = nf_via_trees(ctx.hamiltonian, ctx.spec.freq, kernel_corrected=True)
    return _agreement(ctx.order, "lie", ctx.lie.normal_form, "trees", trees.normal_form)


def _onedof_agreement(ctx: CheckContext) -> CheckOutcome:
    if ctx.onedof is None:
        return "requires n=1"
    return _agreement(
        ctx.order, "onedof", ctx.onedof.normal_form, "lie", ctx.lie.normal_form
    )


def _exp_lie_closure(ctx: CheckContext) -> CheckOutcome:
    closure = exp_lie(ctx.lie.generator, ctx.hamiltonian) == ctx.lie.normal_form
    return closure, (
        "generator transforms the input onto the normal form"
        if closure
        else "conjugated input differs from the normal form"
    )


def _normal_form_resonant(ctx: CheckContext) -> CheckOutcome:
    tail = ctx.lie.normal_form - ctx.spec.freq.quadratic_part(ctx.order)
    resonant_only = resonant_projection(tail, ctx.spec.freq) == tail
    return resonant_only, (
        "normal-form tail is fixed by the resonant projection"
        if resonant_only
        else "normal-form tail contains non-resonant terms"
    )


def _operator_identities(ctx: CheckContext) -> CheckOutcome:
    perturbation = ctx.hamiltonian.filter_terms(lambda p: p.degree >= 3)
    if perturbation.is_zero:
        return "empty perturbation"
    freq = ctx.spec.freq
    a_part = resonant_projection(perturbation, freq)
    b_part = partial_inverse(perturbation, freq)
    identities = (
        a_part + homological_operator(b_part, freq) == perturbation
        and resonant_projection(a_part, freq) == a_part
        and partial_inverse(a_part, freq).is_zero
        and resonant_projection(b_part, freq).is_zero
        and resonant_projection(homological_operator(perturbation, freq), freq).is_zero
    )
    return identities, (
        "projection and partial-inverse identities hold on the input tail"
        if identities
        else "an operator identity failed on the input tail"
    )


def _s_invariance(ctx: CheckContext) -> CheckOutcome:
    if ctx.onedof is None:
        return "requires n=1"
    lam = ctx.spec.freq.entries[0]
    base = ctx.onedof.s_series
    wmax = base.order
    # seed 0 draws the zero generator, the identity map, so it is skipped
    seeds = [seed for seed in range(ctx.seed, ctx.seed + 3) if seed][:2]
    for seed in seeds:
        conjugated = random_symplectic_conjugate(ctx.hamiltonian, seed)
        if compute_S(conjugated, lam, wmax) != base:
            return False, f"S changed under conjugation with seed {seed}"
    return True, f"S preserved under conjugation, seeds {seeds[0]} and {seeds[1]}"


def _structure_constraints(ctx: CheckContext) -> CheckOutcome:
    if not ctx.spec.freq.is_real:
        return "requires real rational frequencies"
    if ctx.order > DEFAULT_ORDER_CAP:
        return f"capped at order {DEFAULT_ORDER_CAP}"
    # the terms above the order are truncated away, as in every other row
    support = [pair for pair in ctx.spec.support() if pair.degree <= ctx.order]
    if len(support) > DEFAULT_SUPPORT_CAP:
        return f"capped at {DEFAULT_SUPPORT_CAP} support pairs"
    report = check_structure(symbolic_normalize(support, ctx.spec.freq, ctx.order))
    return report.verdict, (
        f"{len(report.rows)} monomials satisfy all constraints"
        if report.verdict
        else f"violation: {json.dumps(report.first_violation)}"
    )


# (row name, check), in report order
CHECKS = (
    ("lie_trees_agreement", _lie_trees_agreement),
    ("onedof_agreement", _onedof_agreement),
    ("exp_lie_closure", _exp_lie_closure),
    ("normal_form_resonant", _normal_form_resonant),
    ("operator_identities", _operator_identities),
    ("s_invariance", _s_invariance),
    ("structure_constraints", _structure_constraints),
)


def cmd_check(args) -> int:
    spec, order = _load_spec(args)
    hamiltonian = spec.hamiltonian(order)
    ctx = CheckContext(
        spec, order, args.seed, hamiltonian, lie_normalize(hamiltonian, spec.freq),
        onedof_normal_form(hamiltonian, spec.freq.entries[0]) if spec.n == 1 else None,
    )
    checks = []
    for name, check in CHECKS:
        outcome = check(ctx)
        if isinstance(outcome, str):
            outcome = True, f"skipped: {outcome}"
        checks.append({"name": name, "pass": outcome[0], "detail": outcome[1]})
    out = {
        "checks": checks,
        "agreement": all(row["pass"] for row in checks if row["name"].endswith("_agreement")),
        "normal_form": ctx.lie.normal_form,
    }
    _emit_json(out, args.output)
    return 0 if all(row["pass"] for row in checks) else 1


def cmd_s_series(args) -> int:
    # --order is the w-degree here, and S is defined from w^1 on
    spec, wmax = _load_spec(args, min_order=1)
    if spec.n != 1:
        raise UsageError(
            f"the invariant series needs one degree of freedom, got n={spec.n}"
        )
    hamiltonian = spec.hamiltonian(max(2, spec.max_term_degree()))
    s_series = compute_S(hamiltonian, spec.freq.entries[0], wmax)
    if s_series.is_zero:
        linearizable_up_to = wmax
    else:
        linearizable_up_to = s_series.min_degree() - 1
    out = {"S": s_series.to_rows(), "linearizable_up_to": linearizable_up_to}
    _emit_json(out, args.output)
    return 0


def cmd_structure(args) -> int:
    spec, order = _load_spec(args, default_coeff=True)
    if order > args.cap_order:
        raise UsageError(
            f"order {order} exceeds the symbolic cap {args.cap_order}; "
            "raise --cap-order if this size is intended"
        )
    # the terms above the order are truncated away, as in compute and check
    support = [pair for pair in spec.support() if pair.degree <= order]
    if len(support) > args.cap_support:
        raise UsageError(
            f"support size {len(support)} exceeds the cap {args.cap_support}; "
            "raise --cap-support if this size is intended"
        )
    report = check_structure(symbolic_normalize(support, spec.freq, order))
    _emit_json(report, args.output)
    return 0 if report.verdict else 1


def cmd_trees_enumerate(args) -> int:
    lines = []
    for t in all_trees(args.leaves):
        line = t.render()
        if args.codes:
            line += "  " + format_code(to_code(t))
        if args.mu:
            line += "  " + format_rational(tree_weight(t))
        lines.append(line)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_trees_mu_sum(args) -> int:
    total = total_tree_weight_by_recursion(args.leaves)
    out = {
        "leaves": args.leaves,
        "count": catalan_count(args.leaves),
        "mu_sum": format_rational(total),
    }
    _emit_json(out, args.output)
    return 0


def _add_io(parser: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        parser.add_argument(
            "--input",
            default="-",
            help="problem JSON file, or - for stdin (default)",
        )
    parser.add_argument(
        "--output", default="-", help="report destination, or - for stdout (default)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birkhoff",
        description=(
            "Exact Birkhoff normal forms of polynomial Hamiltonians by three "
            "cross-validated pipelines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="normal form by one pipeline")
    _add_io(compute)
    compute.add_argument("--order", type=int, default=None, help="override the order")
    compute.add_argument(
        "--method", choices=("lie", "trees", "onedof"), default="lie"
    )
    compute.add_argument(
        "--no-kernel-correction",
        action="store_true",
        help=(
            "use the plain recursion that feeds whole right-hand sides back "
            "into the nested brackets (differs once intermediate resonant "
            "parts appear)"
        ),
    )
    compute.add_argument(
        "--convention",
        choices=CONVENTIONS,
        default="proof",
        help="assembly of the inverse series from S (onedof method)",
    )
    compute.set_defaults(handler=cmd_compute)

    check = sub.add_parser("check", help="run all applicable cross-checks")
    _add_io(check)
    check.add_argument("--order", type=int, default=None)
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    check.set_defaults(handler=cmd_check)

    s_series = sub.add_parser(
        "s-series", help="invariant series S and linearizability bound (n=1)"
    )
    _add_io(s_series)
    s_series.add_argument(
        "--order", type=int, default=None, help="w-order to compute S through"
    )
    s_series.set_defaults(handler=cmd_s_series)

    structure = sub.add_parser(
        "structure", help="symbolic normalization and structure constraints"
    )
    _add_io(structure)
    structure.add_argument("--order", type=int, default=None)
    structure.add_argument("--cap-order", type=int, default=DEFAULT_ORDER_CAP)
    structure.add_argument("--cap-support", type=int, default=DEFAULT_SUPPORT_CAP)
    structure.set_defaults(handler=cmd_structure)

    trees = sub.add_parser("trees", help="tree combinatorics utilities")
    trees_sub = trees.add_subparsers(dest="trees_command", required=True)
    enumerate_cmd = trees_sub.add_parser(
        "enumerate", help="list all full binary trees with the given leaf count"
    )
    _add_io(enumerate_cmd, with_input=False)
    enumerate_cmd.add_argument("--leaves", type=int, required=True)
    enumerate_cmd.add_argument("--codes", action="store_true")
    enumerate_cmd.add_argument("--mu", action="store_true")
    enumerate_cmd.set_defaults(handler=cmd_trees_enumerate)
    mu_sum_cmd = trees_sub.add_parser(
        "mu-sum", help="sum of tree weights over all trees with given leaf count"
    )
    _add_io(mu_sum_cmd, with_input=False)
    mu_sum_cmd.add_argument("--leaves", type=int, required=True)
    mu_sum_cmd.set_defaults(handler=cmd_trees_mu_sum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
