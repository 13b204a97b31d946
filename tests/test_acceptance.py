"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -s` to see the lines as they print.
Every comparison is exact; there are no tolerances anywhere in this file.
"""

import math
import random
from fractions import Fraction

from helpers import (
    bernoulli_plus,
    build_series,
    random_hamiltonian,
    random_series,
)

from birkhoff import (
    LEAF,
    FreqVector,
    GaussianRational,
    PolySeries,
    Tree,
    all_trees,
    average,
    catalan_count,
    chain_weights,
    check_structure,
    compute_S,
    exp_lie,
    form_by_recursion,
    form_by_trees,
    format_code,
    from_code,
    homological_operator,
    lie_normalize,
    make_pair,
    nf_from_S,
    nf_via_trees,
    partial_inverse,
    random_symplectic_conjugate,
    resonant_projection,
    symbolic_normalize,
    to_code,
    total_tree_weight,
    tree_bracket,
    validate_code,
)
from birkhoff.treeforms import MU_SUM_MAX_LEAVES

ONEDOF_ORDER = 8
MULTI_ORDER = 6


def report(number: int, body):
    try:
        detail = body()
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    print(f"criterion {number}: PASS ({detail})")


def onedof_instances() -> list[tuple[PolySeries, FreqVector]]:
    """Criterion 1 pool: 50 seeded tails, each under lambda = 1 and lambda = 2."""
    out = []
    for seed in range(50):
        for lam in (1, 2):
            freq = FreqVector.of(lam)
            h = random_hamiltonian(freq, ONEDOF_ORDER, 1000 + seed, max_degree=5)
            out.append((h, freq))
    return out


def multidof_instances() -> list[tuple[PolySeries, FreqVector]]:
    """Criterion 2 pool: 15 instances at n = 2 and 15 at n = 3, nonresonant."""
    out = []
    for seed in range(15):
        freq = FreqVector.of(1, 8)
        out.append((random_hamiltonian(freq, MULTI_ORDER, 2000 + seed), freq))
    for seed in range(15):
        freq = FreqVector.of(1, 8, 64)
        out.append((random_hamiltonian(freq, MULTI_ORDER, 3000 + seed), freq))
    return out


def worked_instances() -> list[tuple[PolySeries, FreqVector]]:
    """Criterion 3 pool: the three pinned worked examples."""
    mixed1 = build_series(
        1, 4, {((1,), (1,)): 1, ((2,), (1,)): 1, ((1,), (2,)): 1}
    )
    mixed2 = build_series(
        1, 4, {((1,), (1,)): 2, ((2,), (1,)): 1, ((1,), (2,)): 1}
    )
    cubic = build_series(1, 10, {((1,), (1,)): 1, ((3,), (0,)): 1})
    return [
        (mixed1, FreqVector.of(1)),
        (mixed2, FreqVector.of(2)),
        (cubic, FreqVector.of(1)),
    ]


def test_criterion_1_three_way_agreement():
    def body():
        count = 0
        for h, freq in onedof_instances():
            lam = freq.entries[0]
            lie_form = lie_normalize(h, freq).normal_form
            tree_form = nf_via_trees(h, freq).normal_form
            s_series = compute_S(h, lam, ONEDOF_ORDER // 2)
            s_form = nf_from_S(s_series, lam).diagonal_series(ONEDOF_ORDER)
            assert lie_form == tree_form
            assert lie_form == s_form
            count += 1
        return (
            f"{count} one dof normalizations at order {ONEDOF_ORDER} agree "
            "exactly across the lie, tree, and S pipelines"
        )

    report(1, body)


def test_criterion_2_multidof_agreement():
    def body():
        count = 0
        for h, freq in multidof_instances():
            lie_form = lie_normalize(h, freq).normal_form
            tree_form = nf_via_trees(h, freq).normal_form
            assert lie_form == tree_form
            count += 1
        return (
            f"{count} normalizations at n = 2, 3 and order {MULTI_ORDER} "
            "agree exactly across the lie and tree pipelines"
        )

    report(2, body)


def test_criterion_3_worked_values():
    def body():
        mixed1, mixed2, cubic = worked_instances()

        result1 = lie_normalize(*mixed1)
        expected1 = build_series(1, 4, {((1,), (1,)): 1, ((2,), (2,)): -3})
        assert result1.normal_form == expected1
        assert nf_via_trees(*mixed1).normal_form == expected1
        lam1 = mixed1[1].entries[0]
        s1 = compute_S(mixed1[0], lam1, 2)
        assert nf_from_S(s1, lam1).diagonal_series(4) == expected1

        result2 = lie_normalize(*mixed2)
        quartic = result2.normal_form.coefficient(make_pair([2], [2]))
        assert quartic == GaussianRational.of(Fraction(-3, 2))
        assert result2.normal_form.coefficient(
            make_pair([1], [1])
        ) == GaussianRational.of(2)

        result3 = lie_normalize(*cubic)
        assert result3.normal_form == build_series(1, 10, {((1,), (1,)): 1})
        lam3 = cubic[1].entries[0]
        assert compute_S(cubic[0], lam3, 10).is_zero

        return (
            "mixed cubic gives tail -3 x^2 y^2 at lambda = 1 and -3/2 at "
            "lambda = 2; the pure cubic is linearizable with S = 0 through w^10"
        )

    report(3, body)


def test_criterion_4_pinned_constants():
    def body():
        # J_1..J_s are what trees mu-sum needs at its leaf limit s
        weights = chain_weights(MU_SUM_MAX_LEAVES)
        assert weights[1:6] == (
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 12),
            Fraction(0),
            Fraction(-1, 720),
        )

        bernoulli = bernoulli_plus(MU_SUM_MAX_LEAVES - 1)
        for k in range(MU_SUM_MAX_LEAVES):
            assert weights[k + 1] == bernoulli[k] / math.factorial(k)

        freq = FreqVector.of(1, 8)
        args = [
            random_series(2, 9, 400 + k, max_degree=4, max_terms=3)
            for k in range(3)
        ]
        two_arg = form_by_trees(args[:2], freq)
        b0 = partial_inverse(args[0], freq)
        assert two_arg == b0.poisson(args[1]).scale(Fraction(1, 2))

        def display(g1, g2, g3):
            b1 = partial_inverse(g1, freq)
            return partial_inverse(b1.poisson(g2), freq).poisson(g3).scale(
                Fraction(1, 4)
            ) + b1.poisson(partial_inverse(g2, freq).poisson(g3)).scale(
                Fraction(1, 12)
            )

        assert form_by_trees(args, freq) == display(*args)
        g = args[0]
        forms = form_by_recursion(g, 3, freq)
        assert forms[1] == b0.poisson(g).scale(Fraction(1, 2))
        assert forms[2] == display(g, g, g)

        pinned_tree = Tree(Tree(LEAF, Tree(LEAF, LEAF)), LEAF)
        assert to_code(pinned_tree) == [1, 1, 3, 2]
        assert format_code(to_code(pinned_tree)) == "\\1,1,3,2\\"
        assert from_code([1, 1, 3, 2]) == pinned_tree

        assert len(all_trees(4)) == 5 == catalan_count(4)

        for s in range(1, 11):
            assert total_tree_weight(s) == Fraction(1, s)

        return (
            "J sequence, two and three argument form coefficients, the "
            "\\1,1,3,2\\ code, the 5 four-leaf trees, weight sums 1/s for "
            f"s <= 10, and the Bernoulli relation through k = {MU_SUM_MAX_LEAVES - 1} "
            "all match"
        )

    report(4, body)


IDENTITY_FREQS = (
    FreqVector.of(1),
    FreqVector.of(2),
    FreqVector.of(Fraction(5, 3)),
    FreqVector.of(GaussianRational.of(0, 1)),
    FreqVector.of(1, 8),
    FreqVector.of(1, -1),
    FreqVector.of(2, 3),
)


def _projection_instance(idx: int) -> None:
    freq = IDENTITY_FREQS[idx % len(IDENTITY_FREQS)]
    f = random_series(freq.n, 7, 10_000 + idx, max_terms=4, imaginary=idx % 3 == 0)
    a = resonant_projection(f, freq)
    b = partial_inverse(f, freq)
    d = homological_operator(f, freq)
    assert a + homological_operator(b, freq) == f
    assert partial_inverse(d, freq) == f - a
    assert resonant_projection(a, freq) == a
    assert partial_inverse(a, freq).is_zero
    assert resonant_projection(b, freq).is_zero
    assert resonant_projection(d, freq).is_zero


def _bracket_definition_instance(idx: int) -> None:
    freq = IDENTITY_FREQS[idx % len(IDENTITY_FREQS)]
    f = random_series(freq.n, 7, 20_000 + idx, max_terms=4, imaginary=idx % 2 == 0)
    quad = freq.quadratic_part(f.order)
    assert homological_operator(f, freq) == quad.poisson(f)


def _jacobi_instance(idx: int) -> None:
    n = 1 + idx % 2
    f = random_series(n, 8, 30_000 + 3 * idx, max_terms=3, imaginary=idx % 5 == 0)
    g = random_series(n, 8, 30_001 + 3 * idx, max_terms=3)
    h = random_series(n, 8, 30_002 + 3 * idx, max_terms=3)
    cyclic = (
        f.poisson(g.poisson(h))
        + g.poisson(h.poisson(f))
        + h.poisson(f.poisson(g))
    )
    assert cyclic.is_zero


def _leibniz_instance(idx: int) -> None:
    n = 1 + idx % 2
    f = random_series(n, 12, 40_000 + 3 * idx, max_degree=4, max_terms=3)
    g = random_series(n, 12, 40_001 + 3 * idx, max_degree=4, max_terms=3)
    h = random_series(n, 12, 40_002 + 3 * idx, max_degree=4, max_terms=3)
    assert f.poisson(g * h) == f.poisson(g) * h + g * f.poisson(h)


def _grafting_instance(idx: int) -> None:
    freq = IDENTITY_FREQS[idx % len(IDENTITY_FREQS)]
    left_trees = all_trees(2 + idx % 2)
    t1 = left_trees[idx % len(left_trees)]
    t2 = all_trees(2)[0]
    args1 = [
        random_series(freq.n, 9, 50_000 + 7 * idx + k, max_degree=4, max_terms=2)
        for k in range(t1.leaf_count)
    ]
    args2 = [
        random_series(freq.n, 9, 60_000 + 11 * idx + k, max_degree=4, max_terms=2)
        for k in range(t2.leaf_count)
    ]
    lhs = partial_inverse(tree_bracket(t1, args1, freq), freq).poisson(
        tree_bracket(t2, args2, freq)
    )
    assert lhs == tree_bracket(Tree(t1, t2), args1 + args2, freq)


_AVERAGE_LAMBDAS = (
    GaussianRational.of(1),
    GaussianRational.of(2),
    GaussianRational.of(Fraction(5, 3)),
    GaussianRational.of(0, 1),
)


def _bracket_average_instance(idx: int) -> None:
    lam = _AVERAGE_LAMBDAS[idx % len(_AVERAGE_LAMBDAS)]
    freq = FreqVector.of(lam)
    g1 = random_series(1, 10, 70_000 + idx, max_degree=5, max_terms=4, imaginary=idx % 2 == 0)
    g2 = random_series(1, 10, 80_000 + idx, max_degree=5, max_terms=4, imaginary=idx % 3 == 0)
    lhs = average(partial_inverse(g1, freq).poisson(g2))
    rhs = (
        (average(g1 * g2) - average(g1) * average(g2))
        .derivative()
        .with_order(lhs.order)
        .scale_by_gaussian(-lam.inverse())
    )
    assert lhs == rhs.with_order(lhs.order)


def test_criterion_5_identity_suites():
    def body():
        suites = (
            _projection_instance,
            _bracket_definition_instance,
            _jacobi_instance,
            _leibniz_instance,
            _grafting_instance,
            _bracket_average_instance,
        )
        per_suite = 200
        for suite in suites:
            for idx in range(per_suite):
                suite(idx)
        return (
            f"{len(suites)} identity families verified exactly on "
            f"{per_suite} randomized instances each"
        )

    report(5, body)


def test_criterion_6_s_invariance():
    def body():
        lambdas = (
            GaussianRational.of(1),
            GaussianRational.of(2),
            GaussianRational.of(0, 1),
        )
        count = 0
        for seed in range(30):
            lam = lambdas[seed % 3]
            freq = FreqVector.of(lam)
            h = random_hamiltonian(freq, ONEDOF_ORDER, 9000 + seed)
            conjugated = random_symplectic_conjugate(h, seed)
            base = compute_S(h, lam, ONEDOF_ORDER // 2)
            assert compute_S(conjugated, lam, ONEDOF_ORDER // 2) == base
            count += 1
        return (
            f"S matched exactly on {count} conjugated Hamiltonians at "
            f"order {ONEDOF_ORDER} (seed 0 is the degenerate identity case)"
        )

    report(6, body)


def _draw_support(rng: random.Random, n: int, order: int, count: int):
    """Random exponent pairs, each joined by its swap.

    Mirrored pairs make the products of the normalization hit the diagonal,
    so the symbolic sweep sees real coefficient monomials instead of empty
    reports.
    """
    pairs = set()
    tries = 0
    while len(pairs) < 2 * count and tries < 200:
        tries += 1
        degree = rng.randint(3, min(order, 4))
        cuts = sorted(rng.randint(0, degree) for _ in range(2 * n - 1))
        parts, prev = [], 0
        for cut in cuts + [degree]:
            parts.append(cut - prev)
            prev = cut
        pairs.add(make_pair(parts[:n], parts[n:]))
        pairs.add(make_pair(parts[n:], parts[:n]))
    return sorted(pairs, key=lambda p: (p.degree, p.alpha, p.beta))


def test_criterion_7_structure_sweep():
    def body():
        rng = random.Random(77)
        reports = []
        for order in (4, 5, 6):
            for _ in range(4):
                support = _draw_support(rng, 1, order, 3)
                reports.append(
                    check_structure(
                        symbolic_normalize(support, FreqVector.of(1), order)
                    )
                )
        two_dof_cases = (
            (4, FreqVector.of(1, -1)),
            (5, FreqVector.of(2, 3)),
            (5, FreqVector.of(1, 8)),
            (6, FreqVector.of(1, -1)),
            (6, FreqVector.of(2, 3)),
        )
        for order, freq in two_dof_cases:
            for _ in range(2):
                support = _draw_support(rng, 2, order, 3)
                reports.append(
                    check_structure(symbolic_normalize(support, freq, order))
                )
        assert all(rep.verdict for rep in reports)
        assert all(rep.first_violation is None for rep in reports)
        rows = sum(len(rep.rows) for rep in reports)
        # the sweep has to exercise real monomials, not vacuous empties
        assert rows >= 40
        return (
            f"{len(reports)} symbolic reports, {rows} coefficient monomials, "
            "zero constraint violations"
        )

    report(7, body)


def test_criterion_8_exp_lie_closure():
    def body():
        instances = onedof_instances() + multidof_instances() + worked_instances()
        for h, freq in instances:
            result = lie_normalize(h, freq)
            assert exp_lie(result.generator, h) == result.normal_form
        return (
            f"the generator flow maps the input onto the normal form for all "
            f"{len(instances)} instances behind criteria 1, 2, and 3"
        )

    report(8, body)


def test_criterion_9_tree_codec():
    def body():
        pinned = {10: 4862, 11: 16796}
        total = 0
        for s in range(1, 12):
            trees = all_trees(s)
            assert len(trees) == catalan_count(s)
            if s in pinned:
                assert len(trees) == pinned[s]
            seen = set()
            for t in trees:
                code = to_code(t)
                validate_code(code)
                assert from_code(code) == t
                seen.add(tuple(code))
            assert len(seen) == len(trees)
            total += len(trees)
        return (
            f"{total} trees for leaf counts 1..11 round-trip through valid "
            "codes bijectively, including 4862 at s = 10 and 16796 at s = 11"
        )

    report(9, body)
