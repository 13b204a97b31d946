"""Symbolic normalization and structure-constraint tests."""

import random
from fractions import Fraction

import pytest

from birkhoff import (
    FreqVector,
    GaussianRational,
    UsageError,
    check_structure,
    lie_normalize,
    make_pair,
    specialize,
    symbolic_normalize,
)

from helpers import build_series, gr, hand_built_form


def freq(*values) -> FreqVector:
    return FreqVector.of(*values)


CUBIC_QUARTIC_1DOF = [
    make_pair((3,), (0,)),
    make_pair((0,), (3,)),
    make_pair((2,), (1,)),
    make_pair((1,), (2,)),
    make_pair((2,), (2,)),
]


class TestSymbolicNormalize:
    def test_resonant_quartic_coefficient(self):
        # N at (2,2) = h22 - 3(h30 h03 + h21 h12) for the full cubic support
        sym = symbolic_normalize(CUBIC_QUARTIC_1DOF, freq(1), 4)
        ring = sym.ring
        h30 = ring.indeterminate(make_pair((3,), (0,)))
        h03 = ring.indeterminate(make_pair((0,), (3,)))
        h21 = ring.indeterminate(make_pair((2,), (1,)))
        h12 = ring.indeterminate(make_pair((1,), (2,)))
        h22 = ring.indeterminate(make_pair((2,), (2,)))
        expected = h22 - (h30 * h03 + h21 * h12).scaled(Fraction(3))
        assert sym.resonant[make_pair((2,), (2,))] == expected

    def test_no_odd_degree_resonance_at_unit_lambda(self):
        sym = symbolic_normalize(CUBIC_QUARTIC_1DOF, freq(1), 5)
        degrees = {pair.degree for pair in sym.resonant}
        assert degrees <= {4}

    def test_empty_support(self):
        sym = symbolic_normalize([], freq(1), 4)
        assert sym.resonant == {}

    def test_single_removable_pair(self):
        sym = symbolic_normalize([make_pair((3,), (0,))], freq(1), 6)
        assert sym.resonant == {}

    def test_duplicate_support_collapsed(self):
        sym = symbolic_normalize(
            [make_pair((3,), (0,)), make_pair((3,), (0,))], freq(1), 4
        )
        assert sym.ring.nvars == 1

    def test_validation(self):
        with pytest.raises(UsageError, match=r"^support pair alpha=\[1\] beta=\[1\] has degree 2;"):
            symbolic_normalize([make_pair((1,), (1,))], freq(1), 4)
        with pytest.raises(UsageError, match=r"^support pair alpha=\[3, 0\] beta=\[0, 0\] does not"):
            symbolic_normalize([make_pair((3, 0), (0, 0))], freq(1), 4)
        with pytest.raises(
            UsageError, match=r"^support pair alpha=\[5\] beta=\[0\] has degree 5, above the order 4$"
        ):
            symbolic_normalize([make_pair((5,), (0,))], freq(1), 4)
        with pytest.raises(UsageError):
            symbolic_normalize([], FreqVector.of(gr(0, 1)), 4)


class TestSpecialize:
    @pytest.mark.parametrize("seed", range(5))
    def test_commutes_with_numeric_pipeline(self, seed):
        rng = random.Random(9100 + seed)
        n, lam = [(1, freq(1)), (2, freq(1, 8)), (2, freq(1, -1))][seed % 3]
        order = 5 if n == 1 else 4
        # small random support of admissible degrees
        pool = []
        for pair in _all_pairs(n, order):
            if 3 <= pair.degree <= order:
                pool.append(pair)
        rng.shuffle(pool)
        support = pool[: rng.randint(2, 5)]
        sym = symbolic_normalize(support, lam, order)
        values = {
            pair: GaussianRational.of(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            )
            for pair in support
        }
        specialized = specialize(sym, values)
        numeric_h = lam.quadratic_part(order) + build_series(
            n, order, {(p.alpha, p.beta): values[p] for p in support}
        )
        direct = lie_normalize(numeric_h, lam).normal_form
        assert specialized == direct

    def test_missing_value_rejected(self):
        sym = symbolic_normalize([make_pair((2,), (2,))], freq(1), 4)
        with pytest.raises(UsageError):
            specialize(sym, {})


def _all_pairs(n, max_degree):
    def exps(slots, cap):
        if slots == 0:
            yield ()
            return
        for head in range(cap + 1):
            for rest in exps(slots - 1, cap - head):
                yield (head,) + rest

    out = []
    for alpha in exps(n, max_degree):
        for beta in exps(n, max_degree - sum(alpha)):
            if sum(alpha) + sum(beta) >= 1:
                out.append(make_pair(alpha, beta))
    return out


class TestCheckStructure:
    def test_worked_rows(self):
        sym = symbolic_normalize(CUBIC_QUARTIC_1DOF, freq(1), 4)
        report = check_structure(sym)
        assert report.verdict
        assert report.first_violation is None
        by_factors = {}
        for row in report.rows:
            key = tuple(
                (tuple(f["alpha"]), tuple(f["beta"]), f["power"]) for f in row["factors"]
            )
            by_factors[key] = row
        # h22 enters N_{22} linearly: s = 1, T = 0
        linear = by_factors[(((2,), (2,), 1),)]
        assert linear["s"] == 1
        assert linear["T_x"] == [0] and linear["T_y"] == [0]
        assert linear["coeff"] == "1"
        # h30 h03 enters with s = 2, w = (3, 3), T = (1, 1)
        quadratic = by_factors[(((0,), (3,), 1), ((3,), (0,), 1))]
        assert quadratic["s"] == 2
        assert quadratic["weight_x"] == [3] and quadratic["weight_y"] == [3]
        assert quadratic["T_x"] == [1] and quadratic["T_y"] == [1]
        assert quadratic["coeff"] == "-3"

    def test_row_weights_sum_the_factor_labels(self):
        # w = sum of power * (alpha, beta) over the factors of the monomial
        a, b, c = make_pair((3, 0), (0, 0)), make_pair((0, 3), (0, 0)), make_pair((2, 0), (0, 2))
        pair = make_pair((2, 2), (2, 2))
        form = hand_built_form(freq(1, 1), 8, {pair: [(a, b), (c, c)]})
        weights = {
            tuple((tuple(f["alpha"]), tuple(f["beta"]), f["power"]) for f in row["factors"]):
            (row["weight_x"], row["weight_y"])
            for row in check_structure(form).rows
        }
        assert weights == {
            (((3, 0), (0, 0), 1), ((0, 3), (0, 0), 1)): ([3, 3], [0, 0]),
            (((2, 0), (0, 2), 2),): ([4, 0], [0, 4]),
        }

    def test_report_json_shape(self):
        sym = symbolic_normalize(CUBIC_QUARTIC_1DOF, freq(1), 4)
        data = check_structure(sym).to_json()
        assert data["verdict"] == "pass"
        assert data["monomials"] == len(data["rows"])
        assert data["first_violation"] is None
        assert data["order"] == 4

    def test_parity_identity_on_rows(self):
        # |w| = degree + 2s - 2 for every monomial, given T balance
        sym = symbolic_normalize(CUBIC_QUARTIC_1DOF, freq(1), 6)
        report = check_structure(sym)
        assert report.verdict
        for row in report.rows:
            degree = sum(row["alpha"]) + sum(row["beta"])
            weight = sum(row["weight_x"]) + sum(row["weight_y"])
            assert weight == degree + 2 * row["s"] - 2

    @pytest.mark.parametrize("case", range(6))
    def test_randomized_supports_pass(self, case):
        rng = random.Random(9500 + case)
        n, lam = [(1, freq(1)), (2, freq(1, 8)), (2, freq(2, 3)), (2, freq(1, -1))][case % 4]
        order = rng.choice([4, 5, 6])
        pool = [p for p in _all_pairs(n, order) if 3 <= p.degree <= order]
        rng.shuffle(pool)
        support = pool[: rng.randint(2, 6)]
        sym = symbolic_normalize(support, lam, order)
        report = check_structure(sym)
        assert report.verdict, report.first_violation

    def test_empty_support_report(self):
        sym = symbolic_normalize([], freq(1), 4)
        report = check_structure(sym)
        assert report.verdict
        assert report.rows == ()

    # one monomial of N at x1 x2 y1 y2 per constraint, breaking that one only
    PAIR = make_pair((1, 1), (1, 1))
    BREAKS = {
        # s = 3 > 4 - 2, with T = (1, 1; 1, 1) of size 2s - 2
        "degree_bounds": (
            make_pair((2, 0), (0, 1)), make_pair((0, 2), (1, 0)), make_pair((0, 0), (1, 1)),
        ),
        # T_x = (2, -1), T_y = (1, 0)
        "T_nonnegative": (make_pair((3, 0), (0, 0)), make_pair((0, 0), (2, 1))),
        # T_x = (2, 0), T_y = (0, 0)
        "delta_zero": (make_pair((3, 0), (0, 0)), make_pair((0, 1), (1, 1))),
        # |T| = 4, not 2s - 2 = 2
        "T_size": (make_pair((2, 0), (1, 1)), make_pair((0, 2), (1, 1))),
    }

    @pytest.mark.parametrize("broken", sorted(BREAKS))
    def test_each_constraint_fails_alone(self, broken):
        # the passing h[1,1;1,1] (s = 1) sorts first; a constant, which
        # breaks three constraints, sits on a later pair
        later = make_pair((2, 2), (2, 2))
        form = hand_built_form(
            freq(1, 1), 8, {self.PAIR: [(self.PAIR,), self.BREAKS[broken]], later: [()]}
        )
        report = check_structure(form)
        assert not report.verdict
        assert [row["pass"] for row in report.rows] == [True, False, False]
        assert report.first_violation is report.rows[1]
        failed = [name for name, ok in report.first_violation["checks"].items() if not ok]
        assert failed == [broken]
        assert report.to_json()["verdict"] == "fail"
        assert report.to_json()["first_violation"] == report.rows[1]

    def test_resonant_lambda_rows(self):
        lam = freq(1, -1)
        support = [make_pair((2, 2), (0, 0)), make_pair((2, 0), (0, 1))]
        sym = symbolic_normalize(support, lam, 4)
        report = check_structure(sym)
        assert report.verdict
        assert any(tuple(row["alpha"]) == (2, 2) for row in report.rows)
