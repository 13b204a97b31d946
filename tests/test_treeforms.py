"""Weighted-tree normal form tests: weights, forms, pipeline agreement."""

from fractions import Fraction
from math import comb, factorial

import pytest

from birkhoff import series, treeforms
from birkhoff import (
    LEAF,
    FreqVector,
    Tree,
    UsageError,
    all_trees,
    chain_weights,
    form_by_recursion,
    form_by_trees,
    from_code,
    lie_normalize,
    nf_via_trees,
    parse_code,
    partial_inverse,
    resonant_projection,
    to_code,
    total_tree_weight,
    total_tree_weight_by_recursion,
    tree_bracket,
    tree_weight,
    tree_weight_by_factorization,
)

from birkhoff.series import monomials
from birkhoff.treeforms import MU_SUM_MAX_LEAVES

from helpers import (
    bernoulli_plus,
    build_series,
    count_calls,
    random_hamiltonian,
    random_series,
)


def freq(*values) -> FreqVector:
    return FreqVector.of(*values)


class TestChainWeights:
    def test_known_values(self):
        j = chain_weights(5)
        assert j[1:] == (
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 12),
            Fraction(0),
            Fraction(-1, 720),
        )

    def test_matches_bernoulli(self):
        # J_{k+1} = B_k / k! in the B_1 = +1/2 convention
        j = chain_weights(13)
        b = bernoulli_plus(12)
        for k in range(13):
            assert j[k + 1] == b[k] / factorial(k)

    def test_generating_function_identity(self):
        # (sum_k J_k x^k) * (1 - e^{-x}) = x^2, checked through x^12
        order = 12
        j = chain_weights(order)
        js = {k: j[k] for k in range(1, order + 1)}
        one_minus_exp = {m: -Fraction((-1) ** m, factorial(m)) for m in range(1, order + 1)}
        product = {}
        for k, jk in js.items():
            for m, em in one_minus_exp.items():
                if k + m <= order:
                    product[k + m] = product.get(k + m, Fraction(0)) + jk * em
        assert product.pop(2) == 1
        assert all(v == 0 for v in product.values())

    def test_defining_recursion(self):
        # J_k = 1/(k-1)! - sum_{i<k} J_i / (k-i+1)!
        j = chain_weights(10)
        for k in range(2, 11):
            expected = Fraction(1, factorial(k - 1))
            for i in range(1, k):
                expected -= j[i] / factorial(k - i + 1)
            assert j[k] == expected


class TestTreeWeights:
    def test_four_leaf_table(self):
        expected = {
            (1, 1, 1, 4): Fraction(0),
            (1, 1, 2, 3): Fraction(1, 24),
            (1, 2, 1, 3): Fraction(1, 24),
            (1, 1, 3, 2): Fraction(1, 24),
            (1, 2, 2, 2): Fraction(1, 8),
        }
        for t in all_trees(4):
            assert tree_weight(t) == expected[tuple(to_code(t))]

    def test_leaf_and_pair(self):
        assert tree_weight(LEAF) == 1
        assert tree_weight(LEAF * LEAF) == Fraction(1, 2)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_two_weight_routes_agree(self, s):
        for t in all_trees(s):
            assert tree_weight(t) == tree_weight_by_factorization(t)

    @pytest.mark.parametrize("s", range(1, 11))
    def test_total_weight_is_reciprocal(self, s):
        assert total_tree_weight(s) == Fraction(1, s)

    @pytest.mark.parametrize("s", range(1, 11))
    def test_recursion_equals_enumeration(self, s):
        assert total_tree_weight_by_recursion(s) == total_tree_weight(s)

    @pytest.mark.parametrize("s", [11, 16, 17, 33, 64, MU_SUM_MAX_LEAVES])
    def test_recursion_is_reciprocal_up_to_its_limit(self, s):
        assert total_tree_weight_by_recursion(s) == Fraction(1, s)

    @pytest.mark.parametrize("s", [0, MU_SUM_MAX_LEAVES + 1])
    def test_recursion_refuses_a_leaf_count_out_of_range(self, s):
        with pytest.raises(UsageError, match="leaf count"):
            total_tree_weight_by_recursion(s)


class TestTreeBracket:
    def test_leaf_is_identity(self):
        g = random_series(1, 6, 1)
        assert tree_bracket(LEAF, [g], freq(1)) == g

    def test_pair_is_single_bracket(self):
        lam = freq(1)
        g1 = random_series(1, 8, 2)
        g2 = random_series(1, 8, 3)
        expected = partial_inverse(g1, lam).poisson(g2)
        assert tree_bracket(LEAF * LEAF, [g1, g2], lam) == expected

    def test_arity_mismatch(self):
        with pytest.raises(UsageError):
            tree_bracket(LEAF * LEAF, [random_series(1, 6, 4)], freq(1))

    def test_deep_tree_matches_manual_nesting(self):
        # Q[(* (* *)) *] = {B{B g1, {B g2, g3}}, g4}
        lam = freq(1)
        args = [random_series(1, 10, 10 + k, max_degree=4, max_terms=3) for k in range(4)]
        t = (LEAF * (LEAF * LEAF)) * LEAF
        inner = partial_inverse(args[1], lam).poisson(args[2])
        left = partial_inverse(args[0], lam).poisson(inner)
        expected = partial_inverse(left, lam).poisson(args[3])
        assert tree_bracket(t, args, lam) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_grafting_homomorphism(self, seed):
        # {B Q[t1](u..), Q[t2](v..)} = Q[t1 t2](u.., v..)
        lam = freq(1) if seed % 2 else freq(1, 8)
        trees1 = all_trees(2 if seed < 2 else 3)
        trees2 = all_trees(2)
        for t1 in trees1:
            for t2 in trees2:
                args1 = [
                    random_series(lam.n, 9, 100 * seed + 17 * k, max_degree=4, max_terms=2)
                    for k in range(t1.leaf_count)
                ]
                args2 = [
                    random_series(lam.n, 9, 100 * seed + 31 * k + 7, max_degree=4, max_terms=2)
                    for k in range(t2.leaf_count)
                ]
                lhs = partial_inverse(tree_bracket(t1, args1, lam), lam).poisson(
                    tree_bracket(t2, args2, lam)
                )
                rhs = tree_bracket(Tree(t1, t2), args1 + args2, lam)
                assert lhs == rhs


class TestFormEquivalence:
    def test_single_argument(self):
        g = random_series(1, 6, 5)
        assert form_by_recursion(g, 1, freq(1)) == [g]
        assert form_by_trees([g], freq(1)) == g

    def test_two_arguments_explicit(self):
        # L_2(g1, g2) = (1/2){B g1, g2}; corrected, L_2(g, g) gains (1/2){B g, A g}
        lam = freq(1)
        g1, g2 = (random_series(1, 8, 20 + k) for k in range(2))
        expected = partial_inverse(g1, lam).poisson(g2).scale(Fraction(1, 2))
        assert form_by_trees([g1, g2], lam) == expected
        bg = partial_inverse(g1, lam)
        assert form_by_recursion(g1, 2, lam)[1] == bg.poisson(g1).scale(Fraction(1, 2))
        assert form_by_recursion(g1, 2, lam, kernel_corrected=True)[1] == (
            bg.poisson(g1) + bg.poisson(resonant_projection(g1, lam))
        ).scale(Fraction(1, 2))

    def test_three_arguments_explicit(self):
        # L_3 = (1/4){B{B g1, g2}, g3} + (1/12){B g1, {B g2, g3}}
        lam = freq(1)

        def display(g1, g2, g3):
            left_first = partial_inverse(
                partial_inverse(g1, lam).poisson(g2), lam
            ).poisson(g3)
            right_first = partial_inverse(g1, lam).poisson(
                partial_inverse(g2, lam).poisson(g3)
            )
            return left_first.scale(Fraction(1, 4)) + right_first.scale(Fraction(1, 12))

        g1, g2, g3 = (random_series(1, 10, 30 + k, max_degree=4, max_terms=3) for k in range(3))
        assert form_by_trees([g1, g2, g3], lam) == display(g1, g2, g3)
        assert form_by_recursion(g1, 3, lam)[2] == display(g1, g1, g1)

    @pytest.mark.parametrize("s", range(1, 6))
    def test_recursion_equals_trees(self, s):
        lam = freq(1, 8)
        g = random_series(2, 7, 50 * s, max_degree=4, max_terms=2)
        expected = [form_by_trees([g] * r, lam) for r in range(1, s + 1)]
        assert form_by_recursion(g, s, lam) == expected

    def test_empty_args_rejected(self):
        with pytest.raises(UsageError):
            form_by_recursion(random_series(1, 6, 5), 0, freq(1))
        with pytest.raises(UsageError):
            form_by_trees([], freq(1))

    @pytest.mark.parametrize("low", [((0,), (0,)), ((1,), (0,)), ((2,), (0,))])
    def test_low_degree_argument_rejected(self, low):
        # the entries V[k], k >= 1, stop at degree M - k because a bracket
        # with B L_c raises the degree; B of a quadratic term would not
        g = build_series(1, 6, {low: 1, ((3,), (0,)): 1})
        with pytest.raises(UsageError, match=f"term of degree {sum(low[0])};"):
            form_by_recursion(g, 3, freq(1))

    def test_corrected_variant_differs_when_kernel_hit(self):
        # cubic arguments whose pair bracket is entirely resonant
        lam = freq(1)
        h3 = build_series(1, 10, {((3,), (0,)): 1, ((0,), (3,)): 1})
        plain = form_by_recursion(h3, 3, lam, kernel_corrected=False)[2]
        corrected = form_by_recursion(h3, 3, lam, kernel_corrected=True)[2]
        assert plain != corrected
        assert plain == build_series(1, 10, {((4,), (1,)): 1, ((1,), (4,)): 1})
        assert corrected == build_series(1, 10, {((4,), (1,)): 4, ((1,), (4,)): 4})


class TestNormalFormViaTrees:
    def test_matches_lie_on_counterexample_both_modes(self):
        lam = freq(1)
        h = lam.quadratic_part(8) + build_series(1, 8, {((3,), (0,)): 1, ((0,), (3,)): 1})
        for corrected in (True, False):
            via_trees = nf_via_trees(h, lam, kernel_corrected=corrected)
            via_lie = lie_normalize(h, lam, kernel_corrected=corrected)
            assert via_trees.normal_form == via_lie.normal_form

    @pytest.mark.parametrize(
        "case",
        [
            (1, (1,), 7, 80),
            (1, (2,), 6, 81),
            (2, (1, 8), 6, 82),
            (2, (1, -1), 5, 83),
            (3, (1, 8, 64), 5, 84),
        ],
    )
    def test_matches_lie_random(self, case):
        n, lam_values, order, seed = case
        lam = freq(*lam_values)
        h = random_hamiltonian(lam, order, seed, max_terms=4)
        assert nf_via_trees(h, lam).normal_form == lie_normalize(h, lam).normal_form

    def test_audit_rows_sum_to_degree_contribution(self):
        # plain rows come from trees, the plain total from the recursion
        lam = freq(1)
        h = lam.quadratic_part(8) + build_series(1, 8, {((3,), (0,)): 1, ((0,), (3,)): 1})
        for corrected in (True, False):
            result = nf_via_trees(h, lam, kernel_corrected=corrected, audit=True)
            assert result.rows
            assert any(row.get("kernel_correction") for row in result.rows) == corrected
            total = lam.quadratic_part(8)
            for row in result.rows:
                total = total + row["contribution"]
            assert total == result.normal_form

    def test_audit_rows_have_tree_metadata(self):
        lam = freq(1)
        h = lam.quadratic_part(8) + build_series(1, 8, {((3,), (0,)): 1, ((0,), (3,)): 1})
        result = nf_via_trees(h, lam, kernel_corrected=True, audit=True)
        tree_rows = [row for row in result.rows if not row.get("kernel_correction")]
        correction_rows = [row for row in result.rows if row.get("kernel_correction")]
        assert all({"degree", "leaves", "sources", "tree", "code", "mu"} <= set(row) for row in tree_rows)
        # degree 6 and 8 need corrections on this input, degree 4 does not
        assert {row["degree"] for row in correction_rows} == {6, 8}
        for row in tree_rows:
            code = parse_code(row["code"])
            assert from_code(code).leaf_count == row["leaves"]
            assert sum(row["sources"]) == row["degree"] - 2 + 2 * row["leaves"]
            assert tree_weight(from_code(code)) == Fraction(row["mu"])

    def test_audit_brackets_each_subtree_once(self, monkeypatch):
        # all nine cubic and quartic monomials at order 8: C(7, 3) = 35
        # pairs for the recursion at smax = 6, none of them zero, and 201
        # for the audit rows (747 with one bracket per subtree of every tree
        # and composition); the recursion brackets whole table entries in
        # one bracket_sum call, and each audit bracket is one
        # PolySeries.poisson call, a one-pair bracket_sum
        pairs = [pair for degree in (3, 4) for pair in monomials(1, degree)]
        lam = freq(1)
        h = lam.quadratic_part(8) + build_series(
            1, 8, {(pair.alpha, pair.beta): Fraction(k, k + 1) for k, pair in enumerate(pairs, 1)}
        )
        calls = 0
        kernel = series.bracket_sum

        def counted(pairs, like, top=None, *, through=None):
            nonlocal calls
            pairs = list(pairs)
            calls += sum(not f.is_zero and not g.is_zero for f, g in pairs)
            return kernel(pairs, like, top, through=through)

        monkeypatch.setattr(series, "bracket_sum", counted)
        monkeypatch.setattr(treeforms, "bracket_sum", counted)
        for corrected in (True, False):
            calls = 0
            result = nf_via_trees(h, lam, kernel_corrected=corrected, audit=True)
            assert calls == 236
            assert result.normal_form == nf_via_trees(h, lam, kernel_corrected=corrected).normal_form

    @pytest.mark.parametrize("corrected, expected", [(True, 20), (False, 20)])
    def test_derivative_lists_built_once_per_operand_side(self, monkeypatch, corrected, expected):
        # all nine cubic and quartic monomials, smax = 6: the table brackets
        # B L_c on the left for c = 1..5 (5 series) and, on the right, every
        # V[k][r] with k >= 1 and r <= 6 - k: 6 - r entries with r = 1..5
        # leaves, 5 + 4 + 3 + 2 + 1 = 15.  V[k][1] = g / k! - R g / (k+1)!
        # is a new series in both variants, so each builds 5 + 15 = 20
        pairs = [pair for degree in (3, 4) for pair in monomials(1, degree)]
        g = build_series(
            1, 8, {(pair.alpha, pair.beta): Fraction(k, k + 1) for k, pair in enumerate(pairs, 1)}
        )
        calls = 0
        derivatives = series._derivatives

        def counted(*args):
            nonlocal calls
            calls += 1
            return derivatives(*args)

        monkeypatch.setattr(series, "_derivatives", counted)
        forms = form_by_recursion(g, 6, freq(1), kernel_corrected=corrected)
        assert calls == expected
        assert not any(form.is_zero for form in forms)
        # the returned forms keep none of the lists the tables built
        for form in forms:
            assert form._left is form._right is form._partners is None

    @pytest.mark.parametrize("smax", [1, 2, 6, 10])
    @pytest.mark.parametrize("corrected", [True, False])
    @pytest.mark.parametrize("top_resonant", [False, True])
    def test_table_work_in_closed_form(self, monkeypatch, smax, corrected, top_resonant):
        # V[k][r] brackets the r - 1 pairs c = 1..r-1 for each k = 0..smax-r,
        # so the table hands sum_{r=1}^{smax} (smax - r + 1)(r - 1)
        # = C(smax + 1, 3) pairs to bracket_sum: 35 at smax = 6, where two
        # tables took 60.  It forms B L_c and R L_c for c = 1..smax-1:
        # nothing reads them at smax.  Each of the smax - k entries
        # V[k][r], r = 1..smax-k, is one bracket_sum call: for k >= 1 it is
        # bounded at M - k = 8 - k without a top (at smax = 10 the bounds of
        # k = 9 fall below zero, past every term), and the smax forms V[0][r]
        # take the top alone, or nothing without top_resonant
        pairs = [pair for degree in (3, 4) for pair in monomials(1, degree)]
        g = build_series(
            1, 8, {(pair.alpha, pair.beta): Fraction(k, k + 1) for k, pair in enumerate(pairs, 1)}
        )
        args = (g, smax, freq(1), corrected)
        expected = form_by_recursion(*args, top_resonant=top_resonant)
        calls = count_calls(monkeypatch, treeforms, "partial_inverse", "image_projection")
        assert form_by_recursion(*args, top_resonant=top_resonant) == expected
        assert calls["bracket_sum"] == comb(smax + 1, 3)
        assert calls["partial_inverse"] == smax - 1
        assert calls["image_projection"] == (smax - 1) * corrected
        bounds = {key: count for key, count in calls.items() if key[0] == "bound"}
        assert bounds == {
            ("bound", None, top_resonant): smax,
            **{("bound", 8 - k, False): smax - k for k in range(1, smax)},
        }

    def test_leaf_cap_enforced(self, monkeypatch):
        # order 18 needs forms of 16 arguments and passes the guard; order 19
        # needs 17, and the audit refuses it before any work
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(treeforms, "form_by_recursion", reached)
        lam = freq(1)
        for order, outcome in ((18, Reached), (19, UsageError)):
            h = lam.quadratic_part(order) + build_series(1, order, {((3,), (0,)): 1})
            with pytest.raises(outcome) as excinfo:
                nf_via_trees(h, lam, audit=True)
        assert str(excinfo.value) == (
            "degree 19 needs forms with up to 17 arguments, exceeding the limit of 16 leaves"
        )

    def test_past_leaf_limit_without_audit(self):
        # order 20 needs forms of 18 arguments, past the audit's leaf limit
        lam = freq(1)
        h = lam.quadratic_part(20) + build_series(1, 20, {((3,), (0,)): 1, ((0,), (3,)): 1})
        for corrected in (True, False):
            via_trees = nf_via_trees(h, lam, kernel_corrected=corrected)
            via_lie = lie_normalize(h, lam, kernel_corrected=corrected)
            assert via_trees.normal_form == via_lie.normal_form

    def test_no_tree_enumeration_without_audit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trees enumerated outside the audit")

        monkeypatch.setattr(treeforms, "all_trees", refuse)
        monkeypatch.setattr(treeforms, "tree_bracket", refuse)
        lam = freq(1, 2)
        h = random_hamiltonian(lam, 7, 85, max_terms=4)
        for corrected in (True, False):
            via_trees = nf_via_trees(h, lam, kernel_corrected=corrected)
            via_lie = lie_normalize(h, lam, kernel_corrected=corrected)
            assert via_trees.normal_form == via_lie.normal_form
        with pytest.raises(AssertionError):
            nf_via_trees(h, lam, audit=True)

    def test_resonant_frequency_input(self):
        lam = freq(1, -1)
        h = lam.quadratic_part(5) + build_series(
            2, 5, {((2, 2), (0, 0)): 1, ((2, 0), (0, 1)): 1}
        )
        via_trees = nf_via_trees(h, lam)
        via_lie = lie_normalize(h, lam)
        assert via_trees.normal_form == via_lie.normal_form
