"""The benchmark's smoke run passes from this checkout.

``bench/smoke.py`` runs every workload at the tiny sizes, timed and
traced, and checks the result schema, the exactness gate, that the work
counts repeat under two ``PYTHONHASHSEED`` values and that the tracer
patched every function it spans, including the names modules import from
each other.  It asserts nothing about time.  About 20 s.
"""

import subprocess
import sys

from helpers import REPO_ROOT, child_env


def test_smoke_run_passes():
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "smoke.py")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=child_env(),
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("smoke: ok\n")
