"""Command-line interface tests: input validation, schemas, golden outputs.

Every command is driven through main() with in-process capture, plus a
couple of subprocess runs that pin byte-level determinism across
interpreter instances.
"""

import argparse
import dataclasses
import io
import json
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from birkhoff import FreqVector, GaussianRational, ParseError, PolySeries, cli, make_pair
from birkhoff.cli import ProblemSpec, build_parser, main, parse_problem
from birkhoff.treeforms import MU_SUM_MAX_LEAVES
from birkhoff.trees import catalan_count
from helpers import REPO_ROOT, child_env, hand_built_form

WORKED = {
    "n": 1,
    "lambda": ["1"],
    "order": 4,
    "terms": [
        {"alpha": [2], "beta": [1], "coeff": "1"},
        {"alpha": [1], "beta": [2], "coeff": "1"},
    ],
}

COUNTER = {
    "n": 1,
    "lambda": ["1"],
    "order": 8,
    "terms": [
        {"alpha": [3], "beta": [0], "coeff": "1"},
        {"alpha": [0], "beta": [3], "coeff": "1"},
    ],
}

SHEAR = {
    "n": 1,
    "lambda": ["1"],
    "order": 4,
    "terms": [{"alpha": [2], "beta": [2], "coeff": "1"}],
}

CUBIC = {
    "n": 1,
    "lambda": ["1"],
    "order": 8,
    "terms": [{"alpha": [3], "beta": [0], "coeff": "1"}],
}

TWO_DOF = {
    "n": 2,
    "lambda": ["1", "-1"],
    "order": 4,
    "terms": [
        {"alpha": [2, 0], "beta": [0, 1], "coeff": "1"},
        {"alpha": [0, 1], "beta": [2, 0], "coeff": "1"},
    ],
}


def spec_file(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def coeff_map(rows):
    """JSON term rows -> {(alpha, beta): (re, im)} for order-free comparison."""
    out = {}
    for row in rows:
        key = (tuple(row["alpha"]), tuple(row["beta"]))
        assert key not in out
        out[key] = (row["coeff"]["re"], row["coeff"]["im"])
    return out


class TestParseProblem:
    def test_minimal_spec_parses(self):
        spec = parse_problem(WORKED)
        assert spec.n == 1
        assert spec.order == 4
        assert len(spec.freq.entries) == 1
        assert len(spec.entries) == 2

    def test_input_must_be_object(self):
        with pytest.raises(ParseError, match="input must be a JSON object"):
            parse_problem([1, 2, 3])

    def test_unknown_top_level_keys(self):
        bad = dict(WORKED, comment="hi", extra=1)
        with pytest.raises(ParseError, match=r"unknown top-level keys: \['comment', 'extra'\]"):
            parse_problem(bad)

    @pytest.mark.parametrize("n", [0, -1, True, "2", None])
    def test_n_must_be_positive_integer(self, n):
        with pytest.raises(ParseError, match='"n" must be a positive integer'):
            parse_problem(dict(WORKED, n=n))

    def test_lambda_must_match_dimension(self):
        with pytest.raises(ParseError, match='"lambda" must be a list of 1 entries'):
            parse_problem(dict(WORKED, **{"lambda": ["1", "2"]}))
        with pytest.raises(ParseError, match='"lambda" must be a list of 1 entries'):
            parse_problem(dict(WORKED, **{"lambda": "1"}))

    def test_lambda_entry_errors_name_the_index(self):
        with pytest.raises(ParseError, match="lambda entry 1"):
            parse_problem(dict(WORKED, **{"lambda": ["one"]}))
        with pytest.raises(ParseError, match="lambda entry 2 is zero"):
            parse_problem(dict(TWO_DOF, **{"lambda": ["1", "0"]}))

    @pytest.mark.parametrize("order", [2, 0, -3, True, "4", None])
    def test_order_floor(self, order):
        with pytest.raises(ParseError, match='"order" must be an integer >= 3'):
            parse_problem(dict(WORKED, order=order))

    def test_terms_must_be_list(self):
        with pytest.raises(ParseError, match='"terms" must be a list'):
            parse_problem(dict(WORKED, terms={"alpha": [3]}))

    def test_term_must_be_object(self):
        with pytest.raises(ParseError, match="term 2: must be an object"):
            parse_problem(dict(WORKED, terms=[WORKED["terms"][0], [3, 0]]))

    def test_term_unknown_keys(self):
        row = {"alpha": [3], "beta": [0], "coeff": "1", "label": "x"}
        with pytest.raises(ParseError, match=r"term 1: unknown keys \['label'\]"):
            parse_problem(dict(WORKED, terms=[row]))

    @pytest.mark.parametrize(
        "alpha",
        [[1, 2], [], [-1], [True], ["3"], None],
    )
    def test_term_exponent_validation(self, alpha):
        row = {"alpha": alpha, "beta": [0], "coeff": "1"}
        with pytest.raises(
            ParseError, match='term 1: "alpha" must be a list of 1 non-negative integers'
        ):
            parse_problem(dict(WORKED, terms=[row]))

    def test_term_degree_floor(self):
        row = {"alpha": [1], "beta": [1], "coeff": "1"}
        with pytest.raises(ParseError, match="term 1: total degree 2 is below 3"):
            parse_problem(dict(WORKED, terms=[row]))

    def test_missing_coeff_rejected_by_default(self):
        row = {"alpha": [3], "beta": [0]}
        with pytest.raises(ParseError, match='term 1: missing "coeff"'):
            parse_problem(dict(WORKED, terms=[row]))

    def test_missing_coeff_defaults_to_one_when_asked(self):
        row = {"alpha": [3], "beta": [0]}
        spec = parse_problem(dict(WORKED, terms=[row]), default_coeff=True)
        ((pair, value),) = spec.entries
        assert pair == make_pair([3], [0])
        assert str(value) == "1"

    def test_bad_coeff_names_the_term(self):
        row = {"alpha": [3], "beta": [0], "coeff": "3/0"}
        with pytest.raises(ParseError, match="term 1:"):
            parse_problem(dict(WORKED, terms=[row]))

    def test_unicode_minus_accepted(self):
        # U+2212 in both a frequency and a coefficient
        payload = {
            "n": 1,
            "lambda": ["−1"],
            "order": 4,
            "terms": [{"alpha": [3], "beta": [0], "coeff": "−3/2"}],
        }
        spec = parse_problem(payload)
        assert str(spec.freq.entries[0]) == "-1"
        assert str(spec.entries[0][1]) == "-3/2"

    def test_duplicate_terms_sum(self):
        payload = dict(
            WORKED,
            terms=[
                {"alpha": [3], "beta": [0], "coeff": "1"},
                {"alpha": [3], "beta": [0], "coeff": "1/2"},
            ],
        )
        spec = parse_problem(payload)
        summed = spec.summed_terms()
        assert str(summed[make_pair([3], [0])]) == "3/2"

    def test_exact_cancellation_drops_the_pair(self):
        payload = dict(
            WORKED,
            terms=[
                {"alpha": [3], "beta": [0], "coeff": "2/3"},
                {"alpha": [3], "beta": [0], "coeff": "-2/3"},
            ],
        )
        spec = parse_problem(payload)
        assert spec.summed_terms() == {}
        # the Hamiltonian is then the bare quadratic part
        assert spec.hamiltonian() == spec.freq.quadratic_part(4)

    def test_to_json_round_trip(self):
        for payload in (WORKED, COUNTER, TWO_DOF):
            spec = parse_problem(payload)
            again = parse_problem(spec.to_json())
            assert again == spec
            assert again.to_json() == spec.to_json()

    def test_support_is_sorted_and_unique(self):
        payload = dict(
            WORKED,
            terms=[
                {"alpha": [2], "beta": [2], "coeff": "1"},
                {"alpha": [0], "beta": [3], "coeff": "1"},
                {"alpha": [0], "beta": [3], "coeff": "2"},
                {"alpha": [3], "beta": [0], "coeff": "1"},
            ],
        )
        support = parse_problem(payload).support()
        assert support == [
            make_pair([0], [3]),
            make_pair([3], [0]),
            make_pair([2], [2]),
        ]

    def test_max_term_degree_defaults_to_two(self):
        spec = parse_problem(dict(WORKED, terms=[]))
        assert spec.max_term_degree() == 2
        assert parse_problem(COUNTER).max_term_degree() == 3

    def test_hamiltonian_order_override(self):
        spec = parse_problem(WORKED)
        assert spec.hamiltonian().order == 4
        assert spec.hamiltonian(order=7).order == 7

    def test_equality_ignores_term_presentation(self):
        split = dict(
            WORKED,
            terms=[
                {"alpha": [2], "beta": [1], "coeff": "1/2"},
                {"alpha": [2], "beta": [1], "coeff": "1/2"},
                {"alpha": [1], "beta": [2], "coeff": "1"},
            ],
        )
        assert parse_problem(split) == parse_problem(WORKED)
        assert parse_problem(WORKED) != parse_problem(SHEAR)
        assert parse_problem(WORKED).__eq__(42) is NotImplemented


class TestComputeCommand:
    def test_lie_schema_and_values(self, tmp_path, capsys):
        path = spec_file(tmp_path, WORKED)
        code, out, err = run_cli(["compute", "--input", path], capsys)
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert set(report) == {
            "method",
            "order",
            "kernel_corrected",
            "normal_form",
            "generator",
            "resonant_pairs",
        }
        assert report["method"] == "lie"
        assert report["order"] == 4
        assert report["kernel_corrected"] is True
        assert coeff_map(report["normal_form"]) == {
            ((1,), (1,)): ("1", "0"),
            ((2,), (2,)): ("-3", "0"),
        }
        assert coeff_map(report["generator"]) == {
            ((2,), (1,)): ("1", "0"),
            ((1,), (2,)): ("-1", "0"),
        }
        assert report["resonant_pairs"] == []

    def test_all_three_methods_agree(self, tmp_path, capsys):
        path = spec_file(tmp_path, WORKED)
        forms = []
        for method in ("lie", "trees", "onedof"):
            code, out, _ = run_cli(
                ["compute", "--input", path, "--method", method], capsys
            )
            assert code == 0
            forms.append(coeff_map(json.loads(out)["normal_form"]))
        assert forms[0] == forms[1] == forms[2]

    def test_trees_breakdown_row(self, tmp_path, capsys):
        path = spec_file(tmp_path, WORKED)
        code, out, _ = run_cli(
            ["compute", "--input", path, "--method", "trees"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "method",
            "order",
            "kernel_corrected",
            "normal_form",
            "breakdown",
            "resonant_pairs",
        }
        (row,) = report["breakdown"]
        assert row["degree"] == 4
        assert row["leaves"] == 2
        assert row["sources"] == [3, 3]
        assert row["tree"] == "(* *)"
        assert row["code"] == "\\1,2\\"
        assert row["mu"] == "1/2"
        assert coeff_map(row["contribution"]) == {((2,), (2,)): ("-3", "0")}

    def test_onedof_schema(self, tmp_path, capsys):
        path = spec_file(tmp_path, WORKED)
        code, out, _ = run_cli(
            ["compute", "--input", path, "--method", "onedof"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "method",
            "order",
            "convention",
            "normal_form",
            "s_series",
            "nu",
            "resonant_pairs",
        }
        assert report["convention"] == "proof"
        assert report["s_series"] == [["2", "-3"]]
        assert report["nu"] == [["2", "-3"]]

    def test_kernel_correction_default_and_flag(self, tmp_path, capsys):
        path = spec_file(tmp_path, COUNTER)
        code, out, _ = run_cli(["compute", "--input", path], capsys)
        assert code == 0
        corrected = json.loads(out)
        assert corrected["kernel_corrected"] is True
        assert coeff_map(corrected["normal_form"]) == {
            ((1,), (1,)): ("1", "0"),
            ((2,), (2,)): ("-3", "0"),
            ((3,), (3,)): ("-12", "0"),
            ((4,), (4,)): ("-105", "0"),
        }

        code, out, _ = run_cli(
            ["compute", "--input", path, "--no-kernel-correction"], capsys
        )
        assert code == 0
        plain = json.loads(out)
        assert plain["kernel_corrected"] is False
        assert coeff_map(plain["normal_form"]) == {
            ((1,), (1,)): ("1", "0"),
            ((2,), (2,)): ("-3", "0"),
            ((3,), (3,)): ("-4", "0"),
            ((4,), (4,)): ("-5", "0"),
        }

    def test_trees_method_honors_correction_flag(self, tmp_path, capsys):
        path = spec_file(tmp_path, COUNTER)
        for extra, tail in (
            ((), "-12"),
            (("--no-kernel-correction",), "-4"),
        ):
            code, out, _ = run_cli(
                ["compute", "--input", path, "--method", "trees", *extra], capsys
            )
            assert code == 0
            forms = coeff_map(json.loads(out)["normal_form"])
            assert forms[((3,), (3,))] == (tail, "0")

    def test_convention_stated_differs_from_proof(self, tmp_path, capsys):
        path = spec_file(tmp_path, SHEAR)
        code, out, _ = run_cli(
            ["compute", "--input", path, "--method", "onedof"], capsys
        )
        assert code == 0
        proof = coeff_map(json.loads(out)["normal_form"])
        # the input is already normal; the proof convention reproduces it
        assert proof == {((1,), (1,)): ("1", "0"), ((2,), (2,)): ("1", "0")}

        code, out, _ = run_cli(
            [
                "compute",
                "--input",
                path,
                "--method",
                "onedof",
                "--convention",
                "stated",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["convention"] == "stated"
        assert coeff_map(report["normal_form"]) != proof

    def test_onedof_requires_one_dof(self, tmp_path, capsys):
        path = spec_file(tmp_path, TWO_DOF)
        code, out, err = run_cli(
            ["compute", "--input", path, "--method", "onedof"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: method onedof requires one degree of freedom, got n=2\n"

    def test_order_override(self, tmp_path, capsys):
        path = spec_file(tmp_path, WORKED)
        code, out, _ = run_cli(
            ["compute", "--input", path, "--order", "6"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["order"] == 6
        forms = coeff_map(report["normal_form"])
        assert forms[((2,), (2,))] == ("-3", "0")

    def test_order_override_floor(self, tmp_path, capsys):
        path = spec_file(tmp_path, WORKED)
        code, _, err = run_cli(
            ["compute", "--input", path, "--order", "2"], capsys
        )
        assert code == 2
        assert err == "error: --order must be at least 3, got 2\n"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(WORKED)))
        code, out, _ = run_cli(["compute"], capsys)
        assert code == 0
        assert json.loads(out)["order"] == 4

    def test_output_file(self, tmp_path, capsys):
        path = spec_file(tmp_path, WORKED)
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["compute", "--input", path, "--output", str(dest)], capsys
        )
        assert code == 0
        assert out == ""
        text = dest.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["method"] == "lie"

    def test_resonant_pair_rows(self, tmp_path, capsys):
        path = spec_file(tmp_path, TWO_DOF)
        code, out, _ = run_cli(["compute", "--input", path], capsys)
        assert code == 0
        rows = json.loads(out)["resonant_pairs"]
        assert {"alpha": [1, 1], "beta": [0, 0]} in rows
        assert {"alpha": [0, 0], "beta": [1, 1]} in rows
        assert all(set(row) == {"alpha", "beta"} for row in rows)
        # diagonal pairs are trivially resonant and never reported
        assert {"alpha": [1, 1], "beta": [1, 1]} not in rows


class TestCheckCommand:
    NAMES = [
        "lie_trees_agreement",
        "onedof_agreement",
        "exp_lie_closure",
        "normal_form_resonant",
        "operator_identities",
        "s_invariance",
        "structure_constraints",
    ]

    def test_worked_example_all_pass(self, tmp_path, capsys):
        path = spec_file(tmp_path, WORKED)
        code, out, _ = run_cli(["check", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"checks", "agreement", "normal_form"}
        assert [row["name"] for row in report["checks"]] == self.NAMES
        assert all(row["pass"] for row in report["checks"])
        assert all(not row["detail"].startswith("skipped") for row in report["checks"])
        assert report["agreement"] is True
        assert coeff_map(report["normal_form"]) == {
            ((1,), (1,)): ("1", "0"),
            ((2,), (2,)): ("-3", "0"),
        }

    def test_two_dof_skips_onedof_rows(self, tmp_path, capsys):
        path = spec_file(tmp_path, TWO_DOF)
        code, out, _ = run_cli(["check", "--input", path], capsys)
        assert code == 0
        rows = {row["name"]: row for row in json.loads(out)["checks"]}
        assert rows["onedof_agreement"]["detail"] == "skipped: requires n=1"
        assert rows["onedof_agreement"]["pass"] is True
        assert rows["s_invariance"]["detail"] == "skipped: requires n=1"
        assert rows["lie_trees_agreement"]["pass"] is True
        assert rows["normal_form_resonant"]["pass"] is True

    def test_counterexample_passes_with_structure_capped(self, tmp_path, capsys):
        path = spec_file(tmp_path, COUNTER)
        code, out, _ = run_cli(["check", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        rows = {row["name"]: row for row in report["checks"]}
        # order 8 exceeds the symbolic cap, so that row is skipped
        assert rows["structure_constraints"]["detail"] == "skipped: capped at order 6"
        assert rows["exp_lie_closure"]["pass"] is True
        assert rows["s_invariance"]["pass"] is True
        assert report["agreement"] is True

    @pytest.mark.parametrize(
        "name, monomials", [("threedof_111", 97), ("threedof_123", 11)]
    )
    def test_structure_row_runs_at_three_dof(self, capsys, name, monomials):
        # lambda = (1, 1, 1) and (1, 2, 3), twelve support pairs at most
        path = REPO_ROOT / "tests" / "golden" / f"{name}.json"
        code, out, _ = run_cli(["check", "--input", str(path)], capsys)
        assert code == 0
        rows = {row["name"]: row for row in json.loads(out)["checks"]}
        assert rows["structure_constraints"] == {
            "name": "structure_constraints",
            "pass": True,
            "detail": f"{monomials} monomials satisfy all constraints",
        }
        assert all(row["pass"] for row in rows.values())

    def test_seed_flag_changes_detail(self, tmp_path, capsys):
        path = spec_file(tmp_path, WORKED)
        code, out, _ = run_cli(["check", "--input", path, "--seed", "7"], capsys)
        assert code == 0
        rows = {row["name"]: row for row in json.loads(out)["checks"]}
        assert rows["s_invariance"]["detail"] == "S preserved under conjugation, seeds 7 and 8"

    @pytest.mark.parametrize("seed, named", [(0, "1 and 2"), (-1, "-1 and 1")])
    def test_seed_zero_is_skipped(self, tmp_path, capsys, seed, named):
        # seed 0 draws the zero generator, whose conjugate is the input itself
        path = spec_file(tmp_path, WORKED)
        code, out, _ = run_cli(["check", "--input", path, "--seed", str(seed)], capsys)
        assert code == 0
        rows = {row["name"]: row for row in json.loads(out)["checks"]}
        assert rows["s_invariance"]["detail"] == f"S preserved under conjugation, seeds {named}"

    def test_order_below_term_degree_truncates(self, capsys):
        # the input has a quartic term; every row, structure included, drops it
        path = REPO_ROOT / "tests" / "golden" / "onedof_real.json"
        code, out, _ = run_cli(["check", "--order", "3", "--input", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert [row["name"] for row in report["checks"]] == self.NAMES
        assert all(row["pass"] for row in report["checks"])
        rows = {row["name"]: row for row in report["checks"]}
        assert rows["structure_constraints"]["detail"] == "0 monomials satisfy all constraints"

    def test_quadratic_input_skips_operator_identities(self, tmp_path, capsys):
        path = spec_file(tmp_path, {"n": 1, "lambda": ["2"], "order": 6, "terms": []})
        code, out, _ = run_cli(["check", "--input", path], capsys)
        assert code == 0
        rows = {row["name"]: row for row in json.loads(out)["checks"]}
        assert rows["operator_identities"] == {
            "name": "operator_identities", "pass": True, "detail": "skipped: empty perturbation",
        }
        assert rows["s_invariance"]["pass"] is True
        assert all(row["pass"] for row in rows.values())

    def test_structure_row_caps_the_support(self, tmp_path, capsys):
        # thirteen of the twenty cubics at n = 2, with real lambda
        cubics = [
            {"alpha": [a, b], "beta": [c, 3 - a - b - c], "coeff": "1"}
            for a in range(4) for b in range(4 - a) for c in range(4 - a - b)
        ][:13]
        payload = {"n": 2, "lambda": ["1", "3"], "order": 3, "terms": cubics}
        code, out, _ = run_cli(["check", "--input", spec_file(tmp_path, payload)], capsys)
        assert code == 0
        rows = {row["name"]: row for row in json.loads(out)["checks"]}
        assert rows["structure_constraints"] == {
            "name": "structure_constraints",
            "pass": True,
            "detail": "skipped: capped at 12 support pairs",
        }


class TestCheckFailures:
    """Each row of ``check`` made to fail through a ``birkhoff.cli`` binding it calls.

    On WORKED every row runs and passes unpatched, so each test pins the
    failing row's detail and that it is the only row to fail.
    """

    LIE = "1 x1 y1 - 3 x1^2 y1^2"
    QUADRATIC = "1 x1 y1"

    @staticmethod
    def quadratic_only(hamiltonian):
        return SimpleNamespace(normal_form=hamiltonian.filter_terms(lambda p: p.degree == 2))

    def assert_only_failure(self, tmp_path, capsys, name, detail):
        code, out, _ = run_cli(["check", "--input", spec_file(tmp_path, WORKED)], capsys)
        assert code == 1
        report = json.loads(out)
        assert [row["name"] for row in report["checks"]] == TestCheckCommand.NAMES
        failed = [row for row in report["checks"] if not row["pass"]]
        assert failed == [{"name": name, "pass": False, "detail": detail}]
        assert report["agreement"] is not name.endswith("_agreement")

    def test_lie_trees_agreement(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "birkhoff.cli.nf_via_trees", lambda h, freq, **_: self.quadratic_only(h)
        )
        self.assert_only_failure(
            tmp_path, capsys, "lie_trees_agreement",
            f"lie: {self.LIE}; trees: {self.QUADRATIC}",
        )

    def test_onedof_agreement(self, tmp_path, capsys, monkeypatch):
        # the fake keeps the true S, which the s_invariance row reads too
        real = cli.onedof_normal_form
        monkeypatch.setattr(
            "birkhoff.cli.onedof_normal_form",
            lambda h, lam: dataclasses.replace(
                real(h, lam), normal_form=self.quadratic_only(h).normal_form
            ),
        )
        self.assert_only_failure(
            tmp_path, capsys, "onedof_agreement",
            f"onedof: {self.QUADRATIC}; lie: {self.LIE}",
        )

    def test_exp_lie_closure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("birkhoff.cli.exp_lie", lambda generator, target: target)
        self.assert_only_failure(
            tmp_path, capsys, "exp_lie_closure",
            "conjugated input differs from the normal form",
        )

    def test_normal_form_resonant(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "birkhoff.cli.resonant_projection",
            lambda series, freq: PolySeries.zero(series.n, series.order, series.ring),
        )
        self.assert_only_failure(
            tmp_path, capsys, "normal_form_resonant",
            "normal-form tail contains non-resonant terms",
        )

    def test_operator_identities(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "birkhoff.cli.homological_operator",
            lambda series, freq: PolySeries.zero(series.n, series.order, series.ring),
        )
        self.assert_only_failure(
            tmp_path, capsys, "operator_identities",
            "an operator identity failed on the input tail",
        )

    @pytest.mark.parametrize("bad_seed", [2026, 2027])
    def test_s_invariance(self, tmp_path, capsys, monkeypatch, bad_seed):
        shear = {make_pair([2], [2]): GaussianRational.of(1)}

        def conjugate(h, seed):
            if seed != bad_seed:
                return h
            return h + PolySeries(h.n, h.order, h.ring, shear)

        monkeypatch.setattr("birkhoff.cli.random_symplectic_conjugate", conjugate)
        self.assert_only_failure(
            tmp_path, capsys, "s_invariance",
            f"S changed under conjugation with seed {bad_seed}",
        )

    def test_structure_constraints(self, tmp_path, capsys, monkeypatch):
        violation = {"alpha": [2], "beta": [2], "failed": ["T_nonnegative"]}
        monkeypatch.setattr(
            "birkhoff.cli.check_structure",
            lambda symbolic: SimpleNamespace(verdict=False, rows=[], first_violation=violation),
        )
        self.assert_only_failure(
            tmp_path, capsys, "structure_constraints",
            f"violation: {json.dumps(violation)}",
        )


class TestStructureViolation:
    """A symbolic normal form that breaks a constraint fails ``structure``
    and the ``check`` structure row."""

    @pytest.fixture
    def violating(self, monkeypatch):
        pair = make_pair([2], [2])
        # h[3;1] h[1;3] has s = 2 and T = (2; 2), so |T| = 4 rather than 2s - 2
        factors = (make_pair([3], [1]), make_pair([1], [3]))
        form = hand_built_form(FreqVector.of(1), 4, {pair: [(pair,), factors]})
        monkeypatch.setattr(
            "birkhoff.cli.symbolic_normalize", lambda support, freq, order: form
        )

    def test_structure_exits_one(self, tmp_path, capsys, violating):
        path = spec_file(tmp_path, TestStructureCommand.SUPPORT)
        code, out, _ = run_cli(["structure", "--input", path], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert report["first_violation"] == report["rows"][1]
        assert report["first_violation"]["checks"]["T_size"] is False

    def test_check_row_fails(self, tmp_path, capsys, violating):
        code, out, _ = run_cli(["check", "--input", spec_file(tmp_path, WORKED)], capsys)
        assert code == 1
        rows = {row["name"]: row for row in json.loads(out)["checks"]}
        row = rows["structure_constraints"]
        assert row["pass"] is False
        assert row["detail"].startswith("violation: ")
        assert json.loads(row["detail"][len("violation: "):])["checks"]["T_size"] is False
        assert [name for name, row in rows.items() if not row["pass"]] == ["structure_constraints"]


class TestSSeriesCommand:
    def test_linearizable_cubic(self, tmp_path, capsys):
        path = spec_file(tmp_path, CUBIC)
        code, out, _ = run_cli(
            ["s-series", "--input", path, "--order", "10"], capsys
        )
        assert code == 0
        assert json.loads(out) == {"S": [], "linearizable_up_to": 10}

    def test_shear_obstruction(self, tmp_path, capsys):
        path = spec_file(tmp_path, SHEAR)
        code, out, _ = run_cli(["s-series", "--input", path], capsys)
        assert code == 0
        assert json.loads(out) == {
            "S": [["2", "1"], ["3", "-2"], ["4", "5"]],
            "linearizable_up_to": 1,
        }

    def test_order_is_the_w_degree(self, tmp_path, capsys):
        path = spec_file(tmp_path, SHEAR)
        code, out, _ = run_cli(["s-series", "--input", path, "--order", "2"], capsys)
        assert code == 0
        assert json.loads(out) == {"S": [["2", "1"]], "linearizable_up_to": 1}
        code, out, _ = run_cli(["s-series", "--input", path, "--order", "1"], capsys)
        assert code == 0
        assert json.loads(out) == {"S": [], "linearizable_up_to": 1}

    def test_order_floor(self, tmp_path, capsys):
        path = spec_file(tmp_path, SHEAR)
        code, out, err = run_cli(["s-series", "--input", path, "--order", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --order must be at least 1, got 0\n"

    def test_requires_one_dof(self, tmp_path, capsys):
        path = spec_file(tmp_path, TWO_DOF)
        code, _, err = run_cli(["s-series", "--input", path], capsys)
        assert code == 2
        assert err == "error: the invariant series needs one degree of freedom, got n=2\n"


class TestStructureCommand:
    SUPPORT = {
        "n": 1,
        "lambda": ["1"],
        "order": 4,
        "terms": [
            {"alpha": [3], "beta": [0]},
            {"alpha": [0], "beta": [3]},
            {"alpha": [2], "beta": [1]},
            {"alpha": [1], "beta": [2]},
            {"alpha": [2], "beta": [2]},
        ],
    }

    def test_pass_report(self, tmp_path, capsys):
        path = spec_file(tmp_path, self.SUPPORT)
        code, out, _ = run_cli(["structure", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {
            "order",
            "lambda",
            "monomials",
            "verdict",
            "first_violation",
            "rows",
        }
        assert report["verdict"] == "pass"
        assert report["first_violation"] is None
        assert report["monomials"] == 3
        assert len(report["rows"]) >= report["monomials"]
        for row in report["rows"]:
            assert row["pass"] is True
            assert set(row["checks"]) == {
                "degree_bounds",
                "T_nonnegative",
                "delta_zero",
                "T_size",
            }

    def test_coeff_values_appear(self, tmp_path, capsys):
        path = spec_file(tmp_path, self.SUPPORT)
        code, out, _ = run_cli(["structure", "--input", path], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        quartic = [
            row
            for row in rows
            if row["alpha"] == [2] and row["beta"] == [2]
        ]
        coeffs = sorted(row["coeff"] for row in quartic)
        assert coeffs == ["-3", "-3", "1"]

    def test_order_cap(self, tmp_path, capsys):
        path = spec_file(tmp_path, self.SUPPORT)
        code, _, err = run_cli(
            ["structure", "--input", path, "--order", "8"], capsys
        )
        assert code == 2
        assert "order 8 exceeds the symbolic cap 6" in err

    def test_support_cap(self, tmp_path, capsys):
        path = spec_file(tmp_path, self.SUPPORT)
        code, _, err = run_cli(
            ["structure", "--input", path, "--cap-support", "2"], capsys
        )
        assert code == 2
        assert "support size 5 exceeds the cap 2" in err

    def test_order_below_term_degree_truncates(self, capsys):
        # the quartic input term lies above the order and is dropped, as in compute
        path = REPO_ROOT / "tests" / "golden" / "onedof_real.json"
        code, out, err = run_cli(["structure", "--order", "3", "--input", str(path)], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["order"], report["monomials"], report["verdict"]) == (3, 0, "pass")

    def test_support_cap_counts_truncated_support(self, tmp_path, capsys):
        # one of the five support pairs has degree 4; at order 3 four remain
        path = spec_file(tmp_path, self.SUPPORT)
        args = ["structure", "--input", path, "--order", "3", "--cap-support"]
        assert run_cli(args + ["4"], capsys)[0] == 0
        code, _, err = run_cli(args + ["3"], capsys)
        assert code == 2
        assert "support size 4 exceeds the cap 3" in err

    def test_raised_caps_accepted(self, tmp_path, capsys):
        small = {
            "n": 1,
            "lambda": ["1"],
            "order": 4,
            "terms": [{"alpha": [2], "beta": [2]}],
        }
        path = spec_file(tmp_path, small)
        code, out, _ = run_cli(
            ["structure", "--input", path, "--cap-support", "1"], capsys
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_imaginary_frequency_rejected(self, tmp_path, capsys):
        payload = dict(self.SUPPORT, **{"lambda": [{"re": "0", "im": "1"}]})
        path = spec_file(tmp_path, payload)
        code, _, err = run_cli(["structure", "--input", path], capsys)
        assert code == 2
        assert err.startswith("error: ")


class TestTreesCommands:
    def test_enumerate_four_leaves_golden(self, capsys):
        code, out, err = run_cli(
            ["trees", "enumerate", "--leaves", "4", "--codes", "--mu"], capsys
        )
        assert code == 0
        assert err == ""
        assert out == (
            "(* (* (* *)))  \\1,1,1,4\\  0\n"
            "(* ((* *) *))  \\1,1,2,3\\  1/24\n"
            "((* *) (* *))  \\1,2,1,3\\  1/24\n"
            "((* (* *)) *)  \\1,1,3,2\\  1/24\n"
            "(((* *) *) *)  \\1,2,2,2\\  1/8\n"
        )

    def test_enumerate_plain(self, capsys):
        code, out, _ = run_cli(["trees", "enumerate", "--leaves", "2"], capsys)
        assert code == 0
        assert out == "(* *)\n"

    def test_enumerate_single_leaf(self, capsys):
        code, out, _ = run_cli(
            ["trees", "enumerate", "--leaves", "1", "--codes", "--mu"], capsys
        )
        assert code == 0
        assert out == "*  \\1\\  1\n"

    def test_enumerate_respects_leaf_cap(self, capsys):
        code, _, err = run_cli(["trees", "enumerate", "--leaves", "17"], capsys)
        assert code == 2
        assert err == "error: leaf count 17 exceeds the limit of 16 leaves\n"

    def test_mu_sum_golden(self, capsys):
        code, out, _ = run_cli(["trees", "mu-sum", "--leaves", "8"], capsys)
        assert code == 0
        assert json.loads(out) == {"leaves": 8, "count": 429, "mu_sum": "1/8"}

    def test_mu_sum_small(self, capsys):
        code, out, _ = run_cli(["trees", "mu-sum", "--leaves", "2"], capsys)
        assert code == 0
        assert json.loads(out) == {"leaves": 2, "count": 1, "mu_sum": "1/2"}

    def test_mu_sum_past_the_enumeration_limit(self, capsys):
        code, out, _ = run_cli(["trees", "mu-sum", "--leaves", "40"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "leaves": 40, "count": catalan_count(40), "mu_sum": "1/40"
        }

    def test_mu_sum_respects_its_leaf_limit(self, capsys):
        leaves = MU_SUM_MAX_LEAVES + 1
        code, _, err = run_cli(["trees", "mu-sum", "--leaves", str(leaves)], capsys)
        assert code == 2
        assert err == (
            f"error: leaf count {leaves} exceeds the limit of {MU_SUM_MAX_LEAVES} leaves\n"
        )

    def test_mu_sum_output_file(self, tmp_path, capsys):
        dest = tmp_path / "mu.json"
        code, out, _ = run_cli(
            ["trees", "mu-sum", "--leaves", "4", "--output", str(dest)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text(encoding="utf-8")) == {
            "leaves": 4,
            "count": 5,
            "mu_sum": "1/4",
        }


# Text with non-ASCII characters, lone surrogates, quotes, backslashes,
# control characters and JSON punctuation.
JSON_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(list('"\\/[]{},: \n\t\x00\x1f\x7f\u00e9\u2028\U0001f600')),
        st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff"]),
    )
)
JSON_INTS = st.one_of(
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.sampled_from([2**64, 2**64 + 1, 2**100, -(2**64) - 1]),
)
JSON_TREES = st.recursive(
    st.one_of(JSON_TEXT, JSON_INTS, st.booleans(), st.none(), st.lists(JSON_INTS)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=5),
    ),
    max_leaves=30,
)

GOLDEN = REPO_ROOT / "tests" / "golden"
# every subcommand with an input, on every input of tests/golden; the runs
# that do not apply to an input exit 2 under both writers
INPUT_RUNS = (
    ["compute", "--method", "lie"],
    ["compute", "--method", "lie", "--no-kernel-correction"],
    ["compute", "--method", "trees"],
    ["compute", "--method", "trees", "--no-kernel-correction"],
    ["compute", "--method", "onedof"],
    ["compute", "--method", "onedof", "--convention", "stated"],
    ["check"],
    ["s-series"],
    ["structure"],
    ["structure", "--order", "6"],
)
TREES_RUNS = [
    argv
    for leaves in range(1, 8)
    for argv in (
        ["trees", "enumerate", "--leaves", str(leaves), "--codes", "--mu"],
        ["trees", "mu-sum", "--leaves", str(leaves)],
    )
]


class TestReportWriter:
    """Every report is written with the bytes of ``json.dumps(obj, indent=2)``."""

    @settings(max_examples=150, deadline=None)
    @given(JSON_TREES)
    @example([])
    @example({})
    @example({"": [[], {}, [[]], {"a": {}}], "b": ()})
    @example([1, True, 2])
    @example([False, 0, None])
    @example({"k": [-(2**70), 2**64, 0, -1]})
    @example(["\ud800", "\"\\", "[{,}]", "\x00\x1f", "\u00e9\U0001f600"])
    def test_writer_equals_json_dumps(self, value):
        assert cli._json_text(value, "\n") == json.dumps(value, indent=2)

    def test_other_types_are_refused(self):
        for value in (1.5, {1: 2}, {"a": object()}, [set()]):
            with pytest.raises(TypeError):
                cli._json_text(value, "\n")

    def run_both(self, argv, monkeypatch, capsys):
        """(exit code, stdout, stderr) of main(argv) with the report writer,
        and again with ``json.dumps(obj, indent=2)`` in its place, which
        writes a series as its ``to_json_terms`` rows."""
        code = main(argv)
        written = (code, *capsys.readouterr())
        with monkeypatch.context() as patched:
            patched.setattr(
                cli,
                "_json_text",
                lambda obj, newline: json.dumps(obj, indent=2, default=PolySeries.to_json_terms),
            )
            code = main(argv)
        return written, (code, *capsys.readouterr())

    @pytest.mark.parametrize(
        "name", sorted(path.stem for path in GOLDEN.glob("*.json") if "." not in path.stem)
    )
    def test_every_subcommand_on_every_golden_input(self, name, monkeypatch, capsys):
        path = str(GOLDEN / f"{name}.json")
        for argv in INPUT_RUNS:
            written, reference = self.run_both(argv + ["--input", path], monkeypatch, capsys)
            assert written == reference, argv

    def test_trees_commands(self, monkeypatch, capsys):
        for argv in TREES_RUNS:
            written, reference = self.run_both(argv, monkeypatch, capsys)
            assert written[0] == 0
            assert written == reference, argv

    @pytest.mark.parametrize("name", ["onedof_real", "threedof_123"])
    @pytest.mark.parametrize(
        "argv",
        [["compute", "--method", "lie"], ["compute", "--method", "trees"], ["check"]],
        ids=["lie", "trees", "check"],
    )
    def test_term_rows_are_written_from_packed_keys(self, name, argv, monkeypatch, capsys):
        """No report builds the plain-data rows (``to_json_terms``, counted
        over the whole command, since only a report calls it), and the
        writer builds no terms view (``terms``, counted while
        ``_emit_json`` writes; the pipelines may read it)."""
        calls = {"to_json_terms": 0, "terms": 0}
        writing = False
        rows, view, emit = PolySeries.to_json_terms, PolySeries.terms, cli._emit_json

        def counted_rows(series):
            calls["to_json_terms"] += 1
            return rows(series)

        def counted_view(series):
            calls["terms"] += writing
            return view.fget(series)

        def counted_emit(obj, path):
            nonlocal writing
            writing = True
            try:
                emit(obj, path)
            finally:
                writing = False

        monkeypatch.setattr(PolySeries, "to_json_terms", counted_rows)
        monkeypatch.setattr(PolySeries, "terms", property(counted_view))
        monkeypatch.setattr(cli, "_emit_json", counted_emit)
        assert main(argv + ["--input", str(GOLDEN / f"{name}.json")]) == 0
        assert json.loads(capsys.readouterr().out)["normal_form"]
        assert calls == {"to_json_terms": 0, "terms": 0}


def long_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of the parser and its subparsers, ``--help`` aside."""
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= long_options(sub)
        else:
            found.update(o for o in action.option_strings if o.startswith("--"))
    return found - {"--help"}


class TestReadmeCommandLine:
    """README's "Command line" section and the parser name the same options."""

    def documented(self) -> set[str]:
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        return set(re.findall(r"--[a-z][a-z-]*", section))

    def test_every_parser_option_is_documented(self):
        assert long_options(build_parser()) - self.documented() == set()

    def test_every_documented_flag_is_a_parser_option(self):
        assert self.documented() - long_options(build_parser()) == set()


class TestMainErrors:
    def test_invalid_json_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        code, _, err = run_cli(["compute", "--input", str(path)], capsys)
        assert code == 2
        assert err.startswith(f"error: invalid JSON in {path}")

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(["compute", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: not UTF-8 text")

    def test_non_utf8_stdin(self, capsys, monkeypatch):
        # a C-locale interpreter decodes stdin with surrogateescape
        stdin = io.TextIOWrapper(
            io.BytesIO(b"\xff\xfe{}"), encoding="utf-8", errors="surrogateescape"
        )
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(["compute"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read -: not UTF-8 text")

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000, encoding="utf-8")
        code, out, err = run_cli(["compute", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: invalid JSON in {path}: nested too deeply\n"

    def test_missing_file(self, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        code, _, err = run_cli(["compute", "--input", path], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot read {path}")

    def test_unwritable_output(self, tmp_path, capsys):
        path = spec_file(tmp_path, WORKED)
        target = tmp_path / "absent" / "out.json"
        code, out, err = run_cli(
            ["compute", "--input", path, "--output", str(target)], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()

    def test_oversized_rational_literal(self, tmp_path, capsys):
        payload = dict(WORKED, terms=[{"alpha": [2], "beta": [1], "coeff": "1" * 5000}])
        path = spec_file(tmp_path, payload)
        code, out, err = run_cli(["compute", "--input", path], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: term 1: rational literal of 5000 characters")
        assert f"{sys.get_int_max_str_digits()}-digit limit" in err

    def assert_oversized_coefficient_refused(self, argv, tmp_path, capsys):
        big = "7" * 3000
        payload = {
            "n": 1,
            "lambda": ["1"],
            "order": 8,
            "terms": [
                {"alpha": [2], "beta": [1], "coeff": big},
                {"alpha": [1], "beta": [2], "coeff": big},
            ],
        }
        path = spec_file(tmp_path, payload)
        code, out, err = run_cli([*argv, "--input", path], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "error: a coefficient has more digits than the interpreter's "
            f"{sys.get_int_max_str_digits()}-digit limit for writing an integer\n"
        )

    def test_oversized_result_coefficient(self, tmp_path, capsys):
        self.assert_oversized_coefficient_refused(["compute"], tmp_path, capsys)

    @pytest.mark.parametrize("argv", [["compute", "--method", "trees"], ["check"]])
    def test_oversized_coefficient_in_every_term_report(self, argv, tmp_path, capsys):
        self.assert_oversized_coefficient_refused(argv, tmp_path, capsys)

    def test_oversized_json_integer(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"n": ' + "1" * 5000 + "}", encoding="utf-8")
        code, out, err = run_cli(["compute", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: invalid JSON in {path}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits\n"
        )

    def test_input_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        code, _, err = run_cli(["compute", "--input", str(path)], capsys)
        assert code == 2
        assert err == "error: input must be a JSON object\n"

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_method_choice_exits_two(self, tmp_path):
        path = spec_file(tmp_path, WORKED)
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--input", path, "--method", "magic"])
        assert excinfo.value.code == 2


class TestDeterminism:
    def _subprocess_run(self, argv, hash_seed):
        return subprocess.run(
            [sys.executable, "-m", "birkhoff.cli", *argv],
            capture_output=True,
            env=child_env(hash_seed),
            cwd=REPO_ROOT,
            timeout=120,
        )

    def test_compute_bytes_identical_across_hash_seeds(self, tmp_path):
        path = spec_file(tmp_path, COUNTER)
        runs = [
            self._subprocess_run(["compute", "--input", path, "--method", "trees"], s)
            for s in (1, 2)
        ]
        for r in runs:
            assert r.returncode == 0, r.stderr.decode()
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout  # non-empty

    def test_check_bytes_identical_across_hash_seeds(self, tmp_path):
        path = spec_file(tmp_path, TWO_DOF)
        runs = [self._subprocess_run(["check", "--input", path], s) for s in (3, 4)]
        for r in runs:
            assert r.returncode == 0, r.stderr.decode()
        assert runs[0].stdout == runs[1].stdout

    def test_structure_bytes_identical_across_hash_seeds(self):
        # the symbolic ring iterates packed-key dicts and sets of SymScalar keys
        path = str(REPO_ROOT / "tests" / "golden" / "resonant_2dof.json")
        runs = [self._subprocess_run(["structure", "--input", path], s) for s in (5, 6)]
        for r in runs:
            assert r.returncode == 0, r.stderr.decode()
        assert runs[0].stdout == runs[1].stdout
        assert json.loads(runs[0].stdout)["monomials"] > 0

    def test_onedof_bytes_identical_across_hash_seeds(self):
        # compute_S iterates the packed-key dicts of each power
        path = str(REPO_ROOT / "tests" / "golden" / "onedof_imaginary.json")
        for argv in (["compute", "--method", "onedof"], ["s-series"]):
            runs = [self._subprocess_run([*argv, "--input", path], s) for s in (7, 8)]
            for r in runs:
                assert r.returncode == 0, r.stderr.decode()
            assert runs[0].stdout == runs[1].stdout
            assert json.loads(runs[0].stdout)

    def test_in_process_repeat_is_identical(self, tmp_path, capsys):
        path = spec_file(tmp_path, WORKED)
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(["compute", "--input", path], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
