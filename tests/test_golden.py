"""Byte-exact golden CLI outputs for small fixed problems.

Each case runs one command on one input under ``tests/golden/`` and
compares the report's bytes with the stored file.  Any rewrite that keeps
outputs exact must keep every case passing unedited.  Every stored report
also keeps the layout of ``json.dumps(indent=2)``.  After a deliberate
output change, rewrite the stored files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from birkhoff.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

LIE_TREES = (
    ["compute", "--method", "lie"],
    ["compute", "--method", "trees"],
    ["compute", "--method", "lie", "--no-kernel-correction"],
)
ONEDOF = (
    ["compute", "--method", "onedof"],
    ["compute", "--method", "onedof", "--convention", "stated"],
    ["s-series"],
)

# (input name, argv); every case exits 0
CASES = (
    [("onedof_real", argv) for argv in LIE_TREES + ONEDOF]
    + [
        ("onedof_real", ["compute", "--method", "trees", "--no-kernel-correction"]),
        ("onedof_real", ["check"]),
        ("onedof_real", ["structure", "--order", "6"]),
    ]
    + [("onedof_imaginary", argv) for argv in LIE_TREES + ONEDOF]
    + [
        ("onedof_imaginary", ["check"]),
        # w-order 10 on complex coefficients at lambda = i: every weight
        # q^(m-1) of S, and the inverse, run on Gaussian values
        ("onedof_imaginary", ["compute", "--method", "onedof", "--order", "20"]),
        ("onedof_imaginary",
         ["compute", "--method", "onedof", "--convention", "stated", "--order", "20"]),
    ]
    + [("resonant_2dof", argv) for argv in LIE_TREES]
    + [
        ("resonant_2dof", ["compute", "--method", "trees", "--no-kernel-correction"]),
        ("resonant_2dof", ["check"]),
        ("resonant_2dof", ["structure"]),
        # all nine cubic and quartic monomials at bench depth: working order
        # 54 for compute_S, where a key field is 6 bits wide
        ("onedof_deep", ["compute", "--method", "onedof", "--order", "20"]),
        # order 32: a larger partition table and a longer run of cut powers
        ("onedof_deep", ["compute", "--method", "onedof", "--order", "32"]),
        ("onedof_deep", ["s-series", "--order", "10"]),
        # n = 3 at lambda = (1, 2, 3), twelve support pairs
        ("threedof_123", ["structure"]),
        # term rows with six exponent fields and a complex coefficient
        ("threedof_123", ["compute", "--method", "lie"]),
        ("threedof_123", ["compute", "--method", "trees"]),
    ]
)


def golden_path(name: str, argv: list[str]) -> Path:
    slug = "-".join(arg.lstrip("-") for arg in argv)
    return GOLDEN / f"{name}.{slug}.json"


def run_case(name: str, argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--input", str(GOLDEN / f"{name}.json")])
    assert code == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "name, argv", CASES, ids=[golden_path(n, a).stem for n, a in CASES]
)
def test_golden_output(name, argv):
    assert run_case(name, argv) == golden_path(name, argv).read_bytes()


# the reports are name.command.json; the input documents are name.json
REPORTS = sorted(GOLDEN.glob("*.*.json"))


def test_every_report_is_a_case():
    assert REPORTS == sorted(golden_path(n, a) for n, a in CASES)


@pytest.mark.parametrize("path", REPORTS, ids=[path.stem for path in REPORTS])
def test_report_in_stdlib_format(path):
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


if __name__ == "__main__":
    for name, argv in CASES:
        golden_path(name, argv).write_bytes(run_case(name, argv))
