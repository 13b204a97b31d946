"""Pin the sha256 digests that the exactness gate compares outputs with.

    python3 bench/pin_digests.py

Runs every job of every workload once through ``birkhoff.cli.main``: the
full sizes for ``inputs.SEEDS`` and the smoke-run sizes for
``inputs.TINY_SEEDS``.
It writes ``digests.json``, mapping each (input, job) to the digests of
the job's ``normal_form`` and ``generator`` arrays.  Run it only on a
commit whose outputs are trusted; the gate then holds later commits to
those outputs.  Every other seed draws the inputs of one of these seeds
(``inputs.input_seed``), so every run is checked against a pin.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import gate
import inputs

BENCH = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    from birkhoff import cli

    cases = [(seed, True) for seed in inputs.TINY_SEEDS] + [(seed, False) for seed in inputs.SEEDS]
    pinned = {}
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        for seed, tiny in cases:
            for workload in sorted(inputs.WORKLOADS):
                for item in inputs.generate(workload, seed, tiny):
                    path = Path(tmp) / f"{item.name}.json"
                    path.write_text(item.text(), encoding="utf-8")
                    for job in item.jobs:
                        out = io.StringIO()
                        with redirect_stdout(out):
                            rc = cli.main(list(job.argv) + ["--input", str(path)])
                        if rc != 0:
                            raise SystemExit(f"{item.name} seed {seed} {job.argv}: exit {rc}")
                        key = gate.digest_key(item.text(), job.argv)
                        pinned[key] = gate.array_digests(json.loads(out.getvalue()))
            print(f"pinned seed {seed}{' (tiny)' if tiny else ''}", file=sys.stderr)
    with open(gate.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
