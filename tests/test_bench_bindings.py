"""The benchmark's tracer still finds every function it spans.

The traced benchmark run patches functions of ``birkhoff`` by module and
name (``bench/tracer.py``).  A renamed function or a dropped import would
make its per-layer metrics vanish without failing anything else, so this
test installs the tracer on the loaded package, without running a
workload, and checks the bindings the benchmark's smoke run relies on.
"""

import importlib

import birkhoff.cli  # noqa: F401  (the tracer patches names bound in cli)
from helpers import REPO_ROOT


def test_tracer_binds_every_spanned_function(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    tracer = importlib.import_module("tracer")
    smoke = importlib.import_module("smoke")
    installed = tracer.Tracer().install()
    try:
        missing = list(installed.missing)
        bindings = set(installed.bindings)
    finally:
        installed.uninstall()
    assert missing == []
    assert sorted(set(smoke.CROSS_MODULE) - bindings) == []
