"""Benchmark of the birkhoff CLI: one workload, one seed, one run.

    python3 bench/run.py --workload deep-1dof --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  A run generates the workload's inputs from the seed, times
set-up in separate set-up-only processes, then starts one workload process
(``worker.py``) that calls ``birkhoff.cli.main`` in process until the time
is up.  Every job's first output goes through the exactness gate
(``gate.py``).

With ``--trace 0`` the result holds the end-to-end metrics: per command,
the sum over the workload's inputs of the median scaled wall time of that
job over the run's repeats; ``setup_s``, the median scaled set-up time;
``peak_rss_mib`` of the workload process.  A scaled time is a wall time
taken to a fixed host speed (``hostspeed.py``).  The run record
keeps every raw sample and its speed factor.  With ``--trace 1`` the workload
process alternates untraced and traced passes and the result
holds the per-layer metrics of ``tracer.py``.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
counts job executions and ``failed`` those that failed (exit code, an
output that differs from the job's first output, or the gate).  The line
before it records the run: python and platform, one descriptor per input,
the gate summary and, for traced runs, any traced name the program no
longer has.  ``--tiny`` selects the smoke-run sizes.
"""

from __future__ import annotations

import argparse
import json
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import hostspeed
import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# set-up-only processes per run; setup_s is the median of these
SETUP_SAMPLES = 10
# time a workload process may run past its deadline before it is killed
WORKER_GRACE_S = 120

END_TO_END_UNITS = {
    "lie_s": "s",
    "trees_s": "s",
    "onedof_s": "s",
    "check_s": "s",
    "structure_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
LAYER_UNITS = dict(
    tracer.LAYER_METRICS,
    **{
        "scalars.muladd_real_ns": "ns",
        "scalars.muladd_complex_ns": "ns",
        "scalars.coeff_bits_max": "bits",
        "cli.emit.bytes": "bytes",
        "trace.overhead_s": "s",
    },
)


def spawn(plan_path: Path, mode: str, seconds: float) -> tuple[float, dict]:
    """Run one workload process; return its set-up time and its report."""
    command = [sys.executable, str(BENCH / "worker.py"), mode, str(plan_path), f"{seconds:.3f}"]
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        first = process.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = process.communicate(timeout=seconds + WORKER_GRACE_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if first.strip() != "ready" or process.returncode != 0:
        raise SystemExit(f"error: {mode} worker exited with code {process.returncode}")
    return ready, json.loads(rest.strip().splitlines()[-1])


def write_plan(directory: Path, items, trace_path: Path) -> Path:
    out = directory / "out"
    out.mkdir()
    plan = {"src": str(SRC), "out": str(out), "trace": str(trace_path), "inputs": []}
    for i, item in enumerate(items):
        path = directory / f"{item.name}.json"
        path.write_text(item.text(), encoding="utf-8")
        jobs = [
            {"id": f"{i}.{j}", "metric": job.metric, "argv": list(job.argv)}
            for j, job in enumerate(item.jobs)
        ]
        plan["inputs"].append({"name": item.name, "path": str(path), "jobs": jobs})
    plan_path = directory / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return plan_path


def run_gate(items, out_dir: Path, executions: dict, worker_failures: list):
    """Return failed executions, the gate summary and the largest coefficient bits."""
    pinned = gate.load_digests()
    failed_per_job = {}
    for failure in worker_failures:
        failed_per_job[failure["job"]] = failed_per_job.get(failure["job"], 0) + 1
    summary = {"digests_checked": 0, "digests_unpinned": 0, "skipped_rows": {}, "failures": []}
    bits = 0
    for i, item in enumerate(items):
        outputs = {}
        for j in range(len(item.jobs)):
            path = out_dir / f"{i}.{j}.json"
            if path.exists():
                outputs[j] = path.read_text(encoding="utf-8")
                bits = max(bits, gate.coeff_bits(outputs[j]))
        failed, part = gate.check_input(item, outputs, pinned)
        summary["digests_checked"] += part["digests_checked"]
        summary["digests_unpinned"] += part["digests_unpinned"]
        summary["skipped_rows"][item.name] = part["skipped_rows"]
        for j, reason in failed.items():
            job_id = f"{i}.{j}"
            failed_per_job[job_id] = executions.get(job_id, 1)
            summary["failures"].append({"job": job_id, "reason": reason})
    summary["failures"] += worker_failures
    return sum(failed_per_job.values()), summary, bits


def job_times(items, samples: dict, pick) -> dict[str, float]:
    """Per command, the sum over the inputs of ``pick`` of that job's samples."""
    times: dict[str, float] = {}
    for i, item in enumerate(items):
        for j, job in enumerate(item.jobs):
            times[job.metric] = times.get(job.metric, 0.0) + pick(samples[f"{i}.{j}"])
    return times


def end_to_end(items, report: dict, setups: list[tuple[float, dict]]) -> dict:
    scaled = {
        job_id: [t * f for t, f in zip(times, report["speeds"][job_id])]
        for job_id, times in report["samples"].items()
    }
    values = job_times(items, scaled, statistics.median)
    values["setup_s"] = statistics.median(t * speed["speed"] for t, speed in setups)
    values["peak_rss_mib"] = report["maxrss_kib"] / 1024
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-run input sizes")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the workload process is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "birkhoff" / "cli.py").is_file():
        print(f"error: no birkhoff source tree at {SRC}", file=sys.stderr)
        return 2

    items = inputs.generate(args.workload, args.seed, tiny=args.tiny)
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        plan_path = write_plan(Path(tmp), items, trace_path)
        start = time.perf_counter()
        setups = [spawn(plan_path, "setup", 0) for _ in range(SETUP_SAMPLES)]
        remaining = max(0.0, args.seconds - (time.perf_counter() - start))
        _, report = spawn(plan_path, "traced" if args.trace else "timed", remaining)
        failed, summary, bits = run_gate(
            items, Path(tmp) / "out", report["executions"], report["failures"]
        )

    record = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": [item.descriptor(inputs.input_seed(args.seed, args.tiny)) for item in items],
        "gate": summary,
        "caches_cleared": report["caches_cleared"],
    }
    if args.trace:
        layers = dict(report["layers"], **{"scalars.coeff_bits_max": bits})
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()
            if name in layers
        }
        record.update(
            passes=report["passes"], missing=report["missing"], bindings=report["bindings"]
        )
    else:
        metrics = end_to_end(items, report, setups)
        record["samples_s"] = {
            job_id: [round(t, 4) for t in times] for job_id, times in report["samples"].items()
        }
        record["speeds"] = {
            job_id: [round(f, 3) for f in factors] for job_id, factors in report["speeds"].items()
        }
        record["setup_samples_s"] = [round(t, 4) for t, _ in setups]
        record["setup_speeds"] = [round(speed["speed"], 3) for _, speed in setups]
    for failure in summary["failures"]:
        print(f"failed job {failure['job']}: {failure['reason']}", file=sys.stderr)
    print(json.dumps({"run": record}))
    attempted = sum(report["executions"].values())
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
