"""The workload process of one benchmark run.

Usage: python3 worker.py setup|timed|traced PLAN_JSON SECONDS

Every mode first does the set-up a CLI user pays on each call: import
``birkhoff.cli`` from the plan's source tree, then load, parse and build
the Hamiltonian of every input.  It then prints ``ready`` so that the
parent can time the set-up, and

* ``setup`` reports the host speed measured right after set-up and exits;
* ``timed`` runs rounds of every job through ``birkhoff.cli.main`` until
  SECONDS have passed and reports each job's wall times, each with the
  host speed measured around it (``hostspeed.py``);
* ``traced`` alternates untraced and traced passes over the jobs and
  reports the per-layer metrics of the traced passes.

Before every job the ``functools`` caches of the loaded ``birkhoff``
modules are cleared, so that each call pays what a fresh CLI process pays
(``trees._all_trees``, ``treeforms.chain_weights``).

The last line of standard output is a JSON report.  The first output of
every job is written to the plan's output directory for the exactness
gate; every later output must repeat it byte for byte.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hostspeed

# Jobs shorter than this are repeated within a round, so that every job
# contributes enough samples to its median.
SAMPLE_TARGET_S = 0.3
MAX_REPEATS = 16
MULADD_OPERANDS = 192
MULADD_LOOPS = 20
MULADD_REPEATS = 7


def set_up(plan: dict):
    """Import the CLI from the plan's source tree and parse every input."""
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    from birkhoff import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: birkhoff was imported from {cli.__file__}, not {src}")
    for item in plan["inputs"]:
        with open(item["path"], encoding="utf-8") as handle:
            cli.parse_problem(json.load(handle)).hamiltonian()
    return cli


def find_caches() -> dict[str, object]:
    """Every ``functools`` cache bound in a loaded ``birkhoff`` module or class."""
    caches = {}
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not module_name.startswith("birkhoff"):
            continue
        namespaces = [vars(module)] + [
            vars(value)
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module_name
        ]
        for namespace in namespaces:
            for value in namespace.values():
                # look through decorators stacked on a cache, such as staticmethod
                while value is not None and not callable(getattr(value, "cache_clear", None)):
                    value = getattr(value, "__wrapped__", None)
                if value is not None:
                    owner = getattr(value, "__module__", module_name)
                    caches[f"{owner}.{getattr(value, '__qualname__', id(value))}"] = value
    return caches


class Runner:
    """Runs jobs through ``cli.main`` and checks that outputs repeat."""

    def __init__(self, cli, plan: dict):
        self.cli = cli
        self.out_dir = Path(plan["out"])
        self.jobs = [
            (job["id"], job["argv"] + ["--input", item["path"]])
            for item in plan["inputs"]
            for job in item["jobs"]
        ]
        self.first: dict[str, str] = {}
        self.executions = {job_id: 0 for job_id, _ in self.jobs}
        self.failures: list[dict] = []
        self.caches: dict[str, object] = {}

    def run(self, job_id: str, argv: list[str]) -> float:
        """One call of the CLI, with cold caches; returns its wall time."""
        # found anew each time, in case a job imported another module
        self.caches.update(find_caches())
        for cache in self.caches.values():
            cache.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a failing job is counted, the run goes on
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.executions[job_id] += 1
        text = out.getvalue()
        if job_id not in self.first:
            self.first[job_id] = text
            (self.out_dir / f"{job_id}.json").write_text(text, encoding="utf-8")
        if rc != 0:
            self.fail(job_id, f"exit code {rc}: {err.getvalue()[-2000:]}")
        elif text != self.first[job_id]:
            self.fail(job_id, "output differs from the job's first output")
        return elapsed

    def fail(self, job_id: str, reason: str) -> None:
        self.failures.append({"job": job_id, "reason": reason})

    def report(self) -> dict:
        return {
            "executions": self.executions,
            "failures": self.failures,
            "caches_cleared": sorted(self.caches),
            "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }


def timed(runner: Runner, deadline: float) -> dict:
    """Rounds of every job; each sample's wall time and host speed (``hostspeed``)."""
    samples = {job_id: [] for job_id, _ in runner.jobs}
    speeds = {job_id: [] for job_id, _ in runner.jobs}
    repeats = {job_id: 1 for job_id, _ in runner.jobs}
    while True:
        round_start = time.perf_counter()
        for job_id, argv in runner.jobs:
            for _ in range(repeats[job_id]):
                before = hostspeed.reference_s()
                samples[job_id].append(runner.run(job_id, argv))
                speeds[job_id].append(hostspeed.speed(before, hostspeed.reference_s()))
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
        for job_id, _ in runner.jobs:
            first = samples[job_id][0]
            repeats[job_id] = max(1, min(MAX_REPEATS, round(SAMPLE_TARGET_S / first)))
    return dict(runner.report(), samples=samples, speeds=speeds)


def traced(runner: Runner, deadline: float, trace_path: str) -> dict:
    import tracer as tracing

    trace = tracing.Tracer()
    plain_walls, traced_walls, layers = [], [], []
    while True:
        round_start = time.perf_counter()
        wall = 0.0
        for job_id, argv in runner.jobs:
            wall += runner.run(job_id, argv)
        plain_walls.append(wall)
        trace.reset()
        trace.install()
        try:
            wall = 0.0
            for job_id, argv in runner.jobs:
                trace.start_job(job_id)
                wall += runner.run(job_id, argv)
        finally:
            trace.uninstall()
        traced_walls.append(wall)
        layers.append(trace.metrics())
        if tracing.exact_counts(layers[-1]) != tracing.exact_counts(layers[0]):
            runner.fail("trace", "work counts differ between traced passes")
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
    emitted = sum(len(text.encode("utf-8")) for text in runner.first.values())
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(trace.dump(), handle)
    # times are medians over the traced passes; counts are equal in all
    metrics = {
        name: statistics.median(layer[name] for layer in layers)
        if name.endswith("_s")
        else value
        for name, value in layers[0].items()
    }
    metrics.update(muladd_ns(runner))
    metrics["cli.emit.bytes"] = emitted
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return dict(
        runner.report(),
        layers=metrics,
        missing=trace.missing,
        bindings=trace.bindings,
        passes=len(layers),
    )


def muladd_ns(runner: Runner) -> dict:
    """ns per ``x * y + z`` on real and on complex operands from the outputs.

    Real operands take the first nonzero component of each output
    coefficient; complex operands are the coefficient itself, or the
    coefficient times (1 + i) when it is real.
    """
    from birkhoff.scalars import GaussianRational

    values = []
    for text in runner.first.values():
        report = json.loads(text) if text else {}
        for key in ("normal_form", "generator"):
            for row in report.get(key, []):
                value = GaussianRational.from_json(row["coeff"])
                if not value.is_zero:
                    values.append(value)
    if not values:
        return {}
    step = max(1, len(values) // MULADD_OPERANDS)
    values = values[::step][:MULADD_OPERANDS]
    rotate = GaussianRational.of(1, 1)
    real = [GaussianRational.of(v.re if v.re else v.im) for v in values]
    complex_ = [v if v.im else v * rotate for v in values]
    return {
        "scalars.muladd_real_ns": _time_muladd(real),
        "scalars.muladd_complex_ns": _time_muladd(complex_),
    }


def _time_muladd(values: list) -> float:
    triples = list(zip(values, values[1:] + values[:1], values[2:] + values[:2]))
    times = []
    for _ in range(MULADD_REPEATS):
        start = time.perf_counter()
        for _ in range(MULADD_LOOPS):
            for x, y, z in triples:
                x * y + z
        times.append((time.perf_counter() - start) / (MULADD_LOOPS * len(triples)))
    return statistics.median(times) * 1e9


def main(argv: list[str]) -> int:
    mode, plan_path, seconds = argv
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    cli = set_up(plan)
    start = time.perf_counter()
    print("ready", flush=True)
    if mode == "setup":
        speed = hostspeed.speed(hostspeed.reference_s(), hostspeed.reference_s())
        print(json.dumps({"speed": speed}), flush=True)
        return 0
    runner = Runner(cli, plan)
    deadline = start + float(seconds)
    if mode == "timed":
        report = timed(runner, deadline)
    else:
        report = traced(runner, deadline, plan["trace"])
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
