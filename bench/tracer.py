"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of ``birkhoff`` from outside the
package: it records one span per call (name, start, end, parent span, job
id) in memory and derives per-layer self times and work counts from them.
Scalar methods run up to a few hundred thousand times per pass, each for
a few microseconds, so they are counted only, without spans.

A module that imports a traced function by name holds its own reference
(``cli`` imports ``lie_normalize``, ``treeforms`` imports
``partial_inverse``, ...).  ``install`` therefore replaces the function in
every loaded ``birkhoff`` module that binds the same object, and records
each binding it patched.  Methods are patched on their class.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

PACKAGE = "birkhoff"

# (module, attribute path, span name)
SPANNED = (
    ("series", "PolySeries.poisson", "series.poisson"),
    ("series", "PolySeries.__mul__", "series.mul"),
    ("series", "PolySeries.__add__", "series.add"),
    ("series", "PolySeries.to_json_terms", "series.to_json_terms"),
    ("operators", "partial_inverse", "operators.partial_inverse"),
    ("operators", "resonant_projection", "operators.resonant_projection"),
    ("operators", "resonant_pairs", "operators.resonant_pairs"),
    ("lie", "lie_normalize", "lie.lie_normalize"),
    ("lie", "exp_lie", "lie.exp_lie"),
    ("lie", "random_symplectic_conjugate", "lie.random_symplectic_conjugate"),
    ("treeforms", "nf_via_trees", "treeforms.nf_via_trees"),
    ("treeforms", "form_by_recursion", "treeforms.form_by_recursion"),
    ("treeforms", "tree_bracket", "treeforms.tree_bracket"),
    ("trees", "all_trees", "trees.all_trees"),
    ("onedof", "compute_S", "onedof.compute_S"),
    ("onedof", "nf_from_S", "onedof.nf_from_S"),
    ("onedof", "partition_normal_form", "onedof.partition_normal_form"),
    ("structure", "symbolic_normalize", "structure.symbolic_normalize"),
    ("structure", "check_structure", "structure.check_structure"),
    ("cli", "parse_problem", "cli.parse_problem"),
)

COUNTED = (
    ("scalars", "GaussianRational.__mul__", "scalars.gauss_mul"),
    ("scalars", "GaussianRational.__add__", "scalars.gauss_add"),
    ("scalars", "SymScalar.__mul__", "scalars.sym_mul"),
)

# Spans under which poisson calls are reported as ``<name>.brackets``.
BRACKET_PARENTS = ("lie.lie_normalize", "lie.exp_lie", "treeforms.nf_via_trees")

# The reported per-layer metrics, each derived from one span or counter name.
LAYER_METRICS = (
    ("series.poisson.calls", "count"),
    ("series.poisson.zero_frac", "share"),
    ("series.poisson.self_s", "s"),
    ("series.poisson.term_pairs", "count"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.mul.term_pairs", "count"),
    ("series.add.calls", "count"),
    ("series.add.self_s", "s"),
    ("series.to_json_terms.self_s", "s"),
    ("scalars.gauss_mul.calls", "count"),
    ("scalars.gauss_add.calls", "count"),
    ("scalars.sym_mul.calls", "count"),
    ("operators.partial_inverse.calls", "count"),
    ("operators.partial_inverse.self_s", "s"),
    ("operators.partial_inverse.repeat_frac", "share"),
    ("operators.resonant_projection.calls", "count"),
    ("operators.resonant_projection.self_s", "s"),
    ("operators.resonant_pairs.self_s", "s"),
    ("lie.lie_normalize.self_s", "s"),
    ("lie.lie_normalize.brackets", "count"),
    ("lie.exp_lie.self_s", "s"),
    ("lie.exp_lie.brackets", "count"),
    ("lie.random_symplectic_conjugate.self_s", "s"),
    ("treeforms.nf_via_trees.self_s", "s"),
    ("treeforms.nf_via_trees.brackets", "count"),
    ("treeforms.form_by_recursion.calls", "count"),
    ("treeforms.tree_bracket.calls", "count"),
    ("trees.all_trees.self_s", "s"),
    ("onedof.compute_S.self_s", "s"),
    ("onedof.nf_from_S.self_s", "s"),
    ("onedof.partition_normal_form.self_s", "s"),
    ("structure.symbolic_normalize.self_s", "s"),
    ("structure.check_structure.self_s", "s"),
    ("cli.parse_problem.self_s", "s"),
)

EXACT_SUFFIXES = (".calls", ".brackets", ".term_pairs")


def exact_counts(metrics: dict) -> dict:
    """The metrics that count work; they must repeat exactly from run to run."""
    return {k: v for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES)}


def _source(name: str) -> str:
    """The span or counter name a metric is derived from."""
    return name.rsplit(".", 1)[0]


def _poisson_extra(tracer, args, result):
    tracer.add("series.poisson.term_pairs", len(args[0].terms) * len(args[1].terms))
    tracer.add("series.poisson.zeros", int(result.is_zero))


def _mul_extra(tracer, args, result):
    tracer.add("series.mul.term_pairs", len(args[0].terms) * len(args[1].terms))


def _partial_inverse_extra(tracer, args, result):
    argument = args[0]
    key = id(argument)
    if key in tracer.seen:
        tracer.add("operators.partial_inverse.repeats", 1)
    else:
        # keep the argument alive so that its id is not reused in this job
        tracer.seen[key] = argument


EXTRAS = {
    "series.poisson": _poisson_extra,
    "series.mul": _mul_extra,
    "operators.partial_inverse": _partial_inverse_extra,
}


def _resolve(owner, path: str):
    """Return (holder, attribute name, current value) for a dotted path."""
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute, getattr(owner, attribute)


class Tracer:
    """Patches ``birkhoff`` in place; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.seen: dict[int, object] = {}
        self.job = ""
        self.bindings: list[str] = []
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def start_job(self, job: str) -> None:
        self.job = job
        self.seen.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.seen.clear()

    @staticmethod
    def _modules():
        return sorted(
            (name, module)
            for name, module in sys.modules.items()
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        )

    def _patch(self, holder, attribute: str, replacement) -> None:
        self._restore.append((holder, attribute, getattr(holder, attribute)))
        setattr(holder, attribute, replacement)

    def install(self) -> "Tracer":
        modules = self._modules()
        self.bindings.clear()
        self.missing.clear()
        for module_name, path, name in SPANNED + COUNTED:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            try:
                holder, attribute, original = _resolve(module, path)
            except AttributeError:
                self.missing.append(name)
                continue
            if (module_name, path, name) in COUNTED:
                wrapper = self._counter(original, name + ".calls")
            else:
                wrapper = self._spanner(original, name, EXTRAS.get(name))
            if holder is not module:
                self._patch(holder, attribute, wrapper)
                self.bindings.append(f"{module_name}.{path}")
                continue
            for binder_name, binder in modules:
                for key, value in list(vars(binder).items()):
                    if value is original:
                        self._patch(binder, key, wrapper)
                        self.bindings.append(f"{binder_name}.{key}")
        return self

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._restore):
            setattr(holder, attribute, original)
        self._restore.clear()

    def _counter(self, fn, key: str):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, fn, name: str, extra):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if extra is not None:
                extra(tracer, args, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``reset``."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        totals: dict[str, float] = dict(self.counts)
        for index, (name, start, end, parent, _job) in enumerate(spans):
            totals[name + ".calls"] = totals.get(name + ".calls", 0) + 1
            totals[name + ".self_s"] = (
                totals.get(name + ".self_s", 0.0) + (end - start) - covered[index]
            )
            if name != "series.poisson":
                continue
            above = set()
            while parent >= 0:
                above.add(spans[parent][0])
                parent = spans[parent][3]
            for owner in BRACKET_PARENTS:
                if owner in above:
                    totals[owner + ".brackets"] = totals.get(owner + ".brackets", 0) + 1
        poisson = totals.get("series.poisson.calls", 0)
        totals["series.poisson.zero_frac"] = (
            totals.get("series.poisson.zeros", 0) / poisson if poisson else 0.0
        )
        inverse = totals.get("operators.partial_inverse.calls", 0)
        totals["operators.partial_inverse.repeat_frac"] = (
            totals.get("operators.partial_inverse.repeats", 0) / inverse
            if inverse
            else 0.0
        )
        out = {}
        for name, _unit in LAYER_METRICS:
            if _source(name) in self.missing:
                continue
            out[name] = totals.get(name, 0)
        return out

    def dump(self) -> dict:
        """The recorded spans in a compact form, for writing to disk."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        jobs = sorted({span[4] for span in self.spans})
        job_index = {job: i for i, job in enumerate(jobs)}
        return {
            "fields": ["name", "start", "end", "parent", "job"],
            "names": names,
            "jobs": jobs,
            "bindings": self.bindings,
            "missing": self.missing,
            "spans": [
                [index[n], round(s, 9), round(e, 9), p, job_index[j]]
                for n, s, e, p, j in self.spans
            ],
        }
