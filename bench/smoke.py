"""Smoke run of the benchmark at the tiny sizes; it asserts nothing about time.

    python3 bench/smoke.py

For every workload it checks that

* the generated input files are byte-identical under two PYTHONHASHSEED
  values;
* timed and traced runs print a result with exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``, every metric that
  ``BENCHMARK.json`` declares for the mode with its unit, ``correct`` true
  and nothing failed, and every job's digests pinned and checked;
* every work count (``.calls``, ``.brackets``, ``.term_pairs``,
  ``scalars.coeff_bits_max``, ``cli.emit.bytes``) repeats exactly between
  two traced runs under two PYTHONHASHSEED values;
* the tracer patched the names modules import from each other.

It also checks that ``resonant-2dof`` runs the structure row of ``check``,
and that a copy of the benchmark without the program fails without a
result.  It exits 1 at the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 1
EXACT = tracer.EXACT_SUFFIXES + ("scalars.coeff_bits_max", "cli.emit.bytes")
# bindings that exist only because one module imports another's function
CROSS_MODULE = (
    "birkhoff.lie.partial_inverse",
    "birkhoff.lie.resonant_projection",
    "birkhoff.treeforms.partial_inverse",
    "birkhoff.treeforms.resonant_projection",
    "birkhoff.cli.partial_inverse",
    "birkhoff.cli.resonant_projection",
    "birkhoff.structure.lie_normalize",
    "birkhoff.cli.lie_normalize",
    "birkhoff.cli.nf_via_trees",
    "birkhoff.cli.compute_S",
    "birkhoff.cli.exp_lie",
    "birkhoff.cli.symbolic_normalize",
    "birkhoff.cli.check_structure",
)


class SmokeFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def run(args: list[str], hash_seed: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=600
    )


def generated_bytes(hash_seed: str) -> str:
    code = (
        "import hashlib, inputs\n"
        "for w in sorted(inputs.WORKLOADS):\n"
        "    for tiny in (True, False):\n"
        "        for seed in range(3):\n"
        "            for item in inputs.generate(w, seed, tiny):\n"
        "                print(w, seed, tiny, item.name,"
        " hashlib.sha256(item.text().encode()).hexdigest())\n"
    )
    done = run(["-c", code], hash_seed, cwd=BENCH)
    expect(done.returncode == 0, f"input generator failed: {done.stderr}")
    return done.stdout


def bench_run(workload: str, trace: int, hash_seed: str) -> tuple[dict, dict]:
    done = run(
        [str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        hash_seed,
    )
    expect(done.returncode == 0, f"{workload} trace={trace} failed: {done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def check_result(workload: str, record: dict, result: dict, declared: list[dict]) -> None:
    label = f"{workload} trace={record['trace']}"
    expect(
        sorted(result) == ["attempted", "correct", "failed", "metrics"],
        f"{label}: result keys {sorted(result)}",
    )
    expect(result["correct"] is True and result["failed"] == 0, f"{label}: {record['gate']}")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    expect(got == units, f"{label}: metrics {got} differ from BENCHMARK.json {units}")
    for name, metric in result["metrics"].items():
        expect(sorted(metric) == ["unit", "value"], f"{label}: {name} is {metric}")
        expect(isinstance(metric["value"], (int, float)), f"{label}: {name} is not a number")
    gate = record["gate"]
    expect(gate["digests_unpinned"] == 0 and gate["digests_checked"] > 0,
           f"{label}: digests checked {gate['digests_checked']}, "
           f"unpinned {gate['digests_unpinned']}")


def no_program_fails() -> None:
    """A copy holding only BENCHMARK.json and the benchmark must fail without a result."""
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        copy = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
        ignore = shutil.ignore_patterns(".work", "__pycache__")
        shutil.copytree(BENCH, copy / BENCH.name, ignore=ignore)
        done = run(
            [str(copy / BENCH.name / "run.py"), "--workload", "deep-1dof", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            "0",
            cwd=copy,
        )
    expect(done.returncode != 0, "run without the program exited 0")
    expect("correct" not in done.stdout, "run without the program printed a result")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        expect(generated_bytes("0") == generated_bytes("1"),
               "generated inputs depend on PYTHONHASHSEED")
        for workload in sorted(inputs.WORKLOADS):
            record, result = bench_run(workload, 0, "0")
            check_result(workload, record, result, spec["end_to_end"])
            counts = []
            for hash_seed in ("0", "1"):
                record, result = bench_run(workload, 1, hash_seed)
                check_result(workload, record, result, spec["per_layer"])
                expect(not record["missing"], f"{workload}: missing {record['missing']}")
                absent = set(CROSS_MODULE) - set(record["bindings"])
                expect(not absent, f"{workload}: tracer did not patch {sorted(absent)}")
                counts.append({
                    name: metric["value"]
                    for name, metric in result["metrics"].items()
                    if name.endswith(EXACT)
                })
                if workload == "resonant-2dof":
                    skipped = record["gate"]["skipped_rows"]["resonant-2dof"]
                    expect("structure_constraints" not in skipped,
                           "resonant-2dof check skipped its structure row")
            expect(counts[0] == counts[1],
                   f"{workload}: work counts differ between runs: {counts}")
            print(f"{workload}: ok", flush=True)
        no_program_fails()
    except SmokeFailure as failure:
        print(f"smoke: FAIL: {failure}", file=sys.stderr)
        return 1
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
