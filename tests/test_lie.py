"""Degree-by-degree normalization tests, including the kernel correction."""

from fractions import Fraction
from math import comb

import pytest

from birkhoff import lie, series
from birkhoff import (
    FreqVector,
    PolySeries,
    UsageError,
    exp_lie,
    lie_normalize,
    partial_inverse,
    random_generator,
    random_symplectic_conjugate,
    resonant_projection,
    validate_hamiltonian,
)

from birkhoff.series import monomials

from helpers import (
    build_series,
    count_calls,
    direct_normalize,
    exp_lie_oracle,
    gr,
    random_hamiltonian,
    random_series,
)


def freq(*values) -> FreqVector:
    return FreqVector.of(*values)


def ham(n, order, lam, entries):
    quad = lam.quadratic_part(order)
    return quad + build_series(n, order, entries)


class TestValidation:
    def test_wrong_quadratic_part(self):
        h = build_series(1, 4, {((1,), (1,)): 2, ((3,), (0,)): 1})
        with pytest.raises(UsageError):
            validate_hamiltonian(h, freq(1))

    def test_low_degree_terms_rejected(self):
        h = ham(1, 4, freq(1), {((1,), (0,)): 1})
        with pytest.raises(UsageError):
            validate_hamiltonian(h, freq(1))
        h2 = freq(1).quadratic_part(4) + build_series(1, 4, {((0,), (0,)): 1})
        with pytest.raises(UsageError):
            validate_hamiltonian(h2, freq(1))

    def test_dimension_mismatch(self):
        h = ham(1, 4, freq(1), {})
        with pytest.raises(UsageError):
            validate_hamiltonian(h, freq(1, 2))

    def test_quadratic_only_input_is_trivially_normal(self):
        h = freq(1).quadratic_part(2)
        result = lie_normalize(h, freq(1))
        assert result.normal_form == h
        assert result.generator.is_zero

    def test_extra_quadratic_cross_term(self):
        h = freq(1, 2).quadratic_part(4) + build_series(
            2, 4, {((1, 0), (0, 1)): 1}
        )
        with pytest.raises(UsageError):
            validate_hamiltonian(h, freq(1, 2))


class TestWorkedExamples:
    def test_cubic_x_only(self):
        # H = x y + x^3: fully removable, N = x y, F = x^3 / 3
        h = ham(1, 8, freq(1), {((3,), (0,)): 1})
        result = lie_normalize(h, freq(1))
        assert result.normal_form == freq(1).quadratic_part(8)
        assert result.generator_parts[3] == build_series(1, 8, {((3,), (0,)): Fraction(1, 3)})
        for m in range(4, 9):
            assert result.rhs_parts[m].is_zero

    def test_mixed_cubic(self):
        # H = x y + x^2 y + x y^2 at order 4
        h = ham(1, 4, freq(1), {((2,), (1,)): 1, ((1,), (2,)): 1})
        result = lie_normalize(h, freq(1))
        assert result.normal_form == build_series(
            1, 4, {((1,), (1,)): 1, ((2,), (2,)): -3}
        )
        assert result.generator == build_series(1, 4, {((2,), (1,)): 1, ((1,), (2,)): -1})

    def test_mixed_cubic_lambda_two(self):
        h = ham(1, 4, freq(2), {((2,), (1,)): 1, ((1,), (2,)): 1})
        result = lie_normalize(h, freq(2))
        assert result.normal_form == build_series(
            1, 4, {((1,), (1,)): 2, ((2,), (2,)): Fraction(-3, 2)}
        )

    def test_already_resonant_is_fixed(self):
        h = ham(1, 6, freq(1), {((2,), (2,)): 1})
        result = lie_normalize(h, freq(1))
        assert result.normal_form == h
        assert result.generator.is_zero

    def test_cubic_degree_grading(self):
        h = ham(1, 6, freq(1), {((3,), (0,)): 1, ((0,), (3,)): 2})
        result = lie_normalize(h, freq(1))
        # N - H2 is resonant-only by construction
        tail = result.normal_form - freq(1).quadratic_part(6)
        assert resonant_projection(tail, freq(1)) == tail
        # the generator never contains resonant terms
        assert resonant_projection(result.generator, freq(1)).is_zero


class TestKernelCorrection:
    """H = x y + x^3 + y^3 makes the two recursion variants split at degree 6."""

    def _normalize(self, corrected: bool):
        h = ham(1, 8, freq(1), {((3,), (0,)): 1, ((0,), (3,)): 1})
        return h, lie_normalize(h, freq(1), kernel_corrected=corrected)

    def test_corrected_normal_form(self):
        _, result = self._normalize(True)
        assert result.normal_form == build_series(
            1,
            8,
            {
                ((1,), (1,)): 1,
                ((2,), (2,)): -3,
                ((3,), (3,)): -12,
                ((4,), (4,)): -105,
            },
        )

    def test_corrected_generator(self):
        _, result = self._normalize(True)
        third = Fraction(1, 3)
        assert result.generator == build_series(
            1,
            8,
            {
                ((3,), (0,)): third,
                ((0,), (3,)): -third,
                ((4,), (1,)): Fraction(4, 3),
                ((1,), (4,)): Fraction(-4, 3),
                ((6,), (0,)): Fraction(5, 12),
                ((0,), (6,)): Fraction(-5, 12),
                ((5,), (2,)): Fraction(143, 12),
                ((2,), (5,)): Fraction(-143, 12),
                ((7,), (1,)): Fraction(113, 12),
                ((1,), (7,)): Fraction(-113, 12),
            },
        )

    def test_printed_variant_differs(self):
        _, corrected = self._normalize(True)
        _, printed = self._normalize(False)
        assert printed.normal_form == build_series(
            1,
            8,
            {
                ((1,), (1,)): 1,
                ((2,), (2,)): -3,
                ((3,), (3,)): -4,
                ((4,), (4,)): -5,
            },
        )
        assert corrected.normal_form != printed.normal_form
        # they agree through degree 5 and split exactly at degree 6
        assert corrected.normal_form.with_order(5) == printed.normal_form.with_order(5)

    def test_only_corrected_variant_closes(self):
        h, corrected = self._normalize(True)
        _, printed = self._normalize(False)
        assert exp_lie(corrected.generator, h) == corrected.normal_form
        assert exp_lie(printed.generator, h) != printed.normal_form

    def test_variants_agree_without_intermediate_resonance(self):
        # no resonant right-hand side below top degree: correction is inert
        h = ham(1, 5, freq(1), {((3,), (0,)): 1, ((2,), (1,)): -2})
        a = lie_normalize(h, freq(1), kernel_corrected=True)
        b = lie_normalize(h, freq(1), kernel_corrected=False)
        assert a.normal_form == b.normal_form
        assert a.generator == b.generator


class TestClosedForms:
    def test_degree_three_is_projection(self):
        for seed in range(4):
            lam = freq(1, 8)
            h = random_hamiltonian(lam, 5, seed + 40)
            result = lie_normalize(h, lam)
            assert result.resonant_parts[3] == resonant_projection(h.grade(3), lam)

    def test_degree_four_closed_form_nonresonant_cubic(self):
        # with A H3 = 0: N4 = A(H4 + (1/2){B H3, H3})
        lam = freq(1)
        h = ham(1, 4, lam, {((3,), (0,)): 2, ((2,), (1,)): 1, ((2,), (2,)): 3, ((4,), (0,)): -1})
        h3 = h.grade(3)
        assert resonant_projection(h3, lam).is_zero
        result = lie_normalize(h, lam)
        closed = resonant_projection(
            h.grade(4) + partial_inverse(h3, lam).poisson(h3).scale(Fraction(1, 2)), lam
        )
        assert result.resonant_parts[4] == closed

    def test_degree_four_closed_form_resonant_cubic(self):
        # a resonant cubic adds (1/2){B H3, A H3} to the right-hand side;
        # bracket monomials add eigenvalues, so that summand is entirely
        # nonresonant: N4 keeps the short closed form while F4 does not
        lam = freq(1, -2)
        h = ham(
            2,
            4,
            lam,
            {
                ((2, 1), (0, 0)): 1,
                ((3, 0), (0, 0)): 2,
                ((1, 1), (1, 0)): -1,
                ((0, 0), (2, 1)): 3,
            },
        )
        h3 = h.grade(3)
        a_h3 = resonant_projection(h3, lam)
        assert not a_h3.is_zero
        b_h3 = partial_inverse(h3, lam)
        extra = b_h3.poisson(a_h3).scale(Fraction(1, 2))
        assert not extra.is_zero
        assert resonant_projection(extra, lam).is_zero
        result = lie_normalize(h, lam)
        naive_rhs = h.grade(4) + b_h3.poisson(h3).scale(Fraction(1, 2))
        assert result.resonant_parts[4] == resonant_projection(naive_rhs, lam)
        assert result.generator_parts[4] == partial_inverse(naive_rhs + extra, lam)
        assert result.generator_parts[4] != partial_inverse(naive_rhs, lam)

    @pytest.mark.parametrize("seed", range(6))
    def test_bracket_of_image_and_kernel_is_never_resonant(self, seed):
        lam = [freq(1), freq(1, -2), freq(2, 3)][seed % 3]
        f = random_series(lam.n, 7, seed + 9000, min_degree=1)
        g = random_series(lam.n, 7, seed + 9500, min_degree=1)
        bracket = partial_inverse(f, lam).poisson(resonant_projection(g, lam))
        assert resonant_projection(bracket, lam).is_zero


class TestBracketTables:
    @pytest.mark.parametrize("corrected", [True, False])
    def test_derivative_lists_built_once_per_operand_side(self, monkeypatch, corrected):
        # all nine cubic and quartic monomials at order M = 8.  The table
        # brackets F_j on the left for j = 3..M-1 (5 series) and, on the
        # right, every entry W[k][d] with k >= 1 and d <= M - k: M - d
        # entries of degree d = 3..7, 5 + 4 + 3 + 2 + 1 = 15.  Each holds
        # H_d / k! - R_d / (k+1)! or a bracket sum and none is zero, which
        # leaves 5 + 15 = 20
        pairs = [pair for degree in (3, 4) for pair in monomials(1, degree)]
        lam = freq(1)
        h = ham(1, 8, lam, {(p.alpha, p.beta): Fraction(k, k + 1) for k, p in enumerate(pairs, 1)})
        calls = 0
        derivatives = series._derivatives

        def counted(*args):
            nonlocal calls
            calls += 1
            return derivatives(*args)

        monkeypatch.setattr(series, "_derivatives", counted)
        result = lie_normalize(h, lam, kernel_corrected=corrected)
        assert calls == 20
        assert not any(part.is_zero for part in result.generator_parts.values())
        # the returned parts keep none of the lists the tables built
        for part in (*result.rhs_parts.values(), *result.generator_parts.values()):
            assert part._left is part._right is part._partners is None

    @pytest.mark.parametrize("order", [3, 4, 8, 10])
    @pytest.mark.parametrize("corrected", [True, False])
    @pytest.mark.parametrize("normal_form_only", [False, True])
    def test_table_work_in_closed_form(self, monkeypatch, order, corrected, normal_form_only):
        # W[k][d] brackets the d - 3 pairs j = 3..d-1 for each k = 0..M-d, so
        # the table hands sum_{d=3}^{M} (M - d + 1)(d - 3) = C(M - 1, 3)
        # pairs to bracket_sum: 84 at M = 10, where two tables took 168.
        # It forms F_d for d = 3..M and R_d for d = 3..M-1: nothing reads
        # R_M, nor, with normal_form_only, F_M
        pairs = [pair for degree in (3, 4) if degree <= order for pair in monomials(1, degree)]
        lam = freq(1)
        terms = {(p.alpha, p.beta): Fraction(k, k + 1) for k, p in enumerate(pairs, 1)}
        h = ham(1, order, lam, terms)
        expected = lie_normalize(h, lam, corrected, normal_form_only)
        calls = count_calls(monkeypatch, lie, "partial_inverse", "image_projection")
        assert lie_normalize(h, lam, corrected, normal_form_only) == expected
        assert calls["bracket_sum"] == comb(order - 1, 3)
        assert calls["partial_inverse"] == order - 2 - normal_form_only
        assert calls["image_projection"] == (order - 3) * corrected


class TestExpLie:
    def test_zero_generator(self):
        h = ham(1, 6, freq(1), {((3,), (0,)): 1})
        assert exp_lie(PolySeries.zero(1, 6), h) == h

    def test_worked_flow(self):
        h = ham(1, 6, freq(1), {((3,), (0,)): 1})
        gen = build_series(1, 6, {((3,), (0,)): Fraction(1, 3)})
        assert exp_lie(gen, h) == freq(1).quadratic_part(6)

    def test_low_degree_generator_rejected(self):
        h = ham(1, 6, freq(1), {})
        with pytest.raises(UsageError):
            exp_lie(build_series(1, 6, {((1,), (1,)): 1}), h)
        with pytest.raises(UsageError):
            exp_lie(build_series(1, 6, {((1,), (0,)): 1}), h)

    @pytest.mark.parametrize("order", [3, 6, 9])
    @pytest.mark.parametrize("lowest", [0, 2, 3, None])
    def test_work_in_closed_form(self, monkeypatch, order, lowest):
        # L_F^k G starts at degree g + k, g = lowest, so Horner's rule runs
        # K = M - g levels k = K-1..0, each one bracket_sum of the one pair
        # (F, W[k+1]) bounded at M - k and one combination, after the
        # combination W[K] = G / K!: K calls and K + 1 combinations.  A zero
        # target has K = 0
        generator = build_series(1, order, {((3,), (0,)): 1, ((1,), (2,)): Fraction(-1, 2)})
        terms = {} if lowest is None else {((lowest,), (0,)): 1, ((1,), (order - 1,)): 2}
        target = build_series(1, order, terms)
        depth = 0 if lowest is None else order - lowest
        expected = exp_lie(generator, target)
        calls = count_calls(monkeypatch, lie, "combination")
        assert exp_lie(generator, target) == expected
        assert calls["bracket_sum"] == depth
        assert calls["combination"] == depth + 1
        bounds = {key: count for key, count in calls.items() if key[0] == "bound"}
        assert bounds == {("bound", order - k, False): 1 for k in range(depth)}

    def test_flow_composes_additively_on_commuting_generators(self):
        # generators in involution: exp(F+G) = exp(F) after exp(G)
        f = build_series(1, 8, {((3,), (0,)): 1})
        g = build_series(1, 8, {((4,), (0,)): -2})
        assert f.poisson(g).is_zero
        h = ham(1, 8, freq(1), {((2,), (2,)): 1})
        assert exp_lie(f + g, h) == exp_lie(f, exp_lie(g, h))

    @pytest.mark.parametrize("seed", range(6))
    def test_against_the_step_by_step_oracle(self, seed):
        n = 1 + seed % 3
        generator = random_series(n, 6, 4000 + seed, 3, imaginary=True)
        target = random_series(n, 6, 4100 + seed, 1, imaginary=True)
        assert not generator.is_zero
        assert exp_lie(generator, target) == exp_lie_oracle(generator, target)


class TestAgainstFlowOracle:
    @pytest.mark.parametrize(
        "case",
        [
            (1, (1,), 8, 60),
            (1, (2,), 7, 61),
            (2, (1, 8), 6, 62),
            (2, (1, -1), 6, 63),
            (2, (2, 3), 6, 64),
            (3, (1, 8, 64), 5, 65),
        ],
    )
    def test_matches_direct_normalization(self, case):
        n, lam_values, order, seed = case
        lam = freq(*lam_values)
        h = random_hamiltonian(lam, order, seed, max_terms=4)
        result = lie_normalize(h, lam)
        oracle_nf, oracle_gen = direct_normalize(h, lam)
        assert result.normal_form == oracle_nf
        assert result.generator == oracle_gen

    @pytest.mark.parametrize("seed", range(6))
    def test_random_closure(self, seed):
        lam = freq(1) if seed % 2 else freq(1, -1)
        h = random_hamiltonian(lam, 6, 70 + seed, max_terms=4)
        result = lie_normalize(h, lam)
        assert exp_lie(result.generator, h) == result.normal_form


class TestRandomGenerators:
    def test_seed_zero_is_identity(self):
        assert random_generator(1, 6, 0).is_zero
        h = ham(1, 6, freq(1), {((3,), (0,)): 1})
        assert random_symplectic_conjugate(h, 0) == h

    @pytest.mark.parametrize("seed", [-1, 1, 2])
    def test_seeds_named_by_check_move_the_input(self, seed):
        # check --seed 0 conjugates with seeds 1 and 2, --seed -1 with -1 and 1
        h = ham(1, 4, freq(1), {((2,), (1,)): 1, ((1,), (2,)): 1})
        assert random_symplectic_conjugate(h, seed) != h

    def test_determinism(self):
        a = random_generator(2, 6, 5)
        b = random_generator(2, 6, 5)
        assert a == b
        assert random_generator(2, 6, 6) != a

    def test_degree_window(self):
        g = random_generator(1, 8, 3, max_degree=4)
        assert g.min_degree() is None or g.min_degree() >= 3
        assert all(pair.degree <= 4 for pair, _ in g)

    def test_degree_window_above_the_order_is_refused(self):
        with pytest.raises(UsageError) as caught:
            random_generator(1, 6, 3, max_degree=7)
        assert str(caught.value) == "max_degree 7 exceeds the truncation order 6"

    def test_conjugate_preserves_normal_form(self):
        lam = freq(1)
        h = ham(1, 6, lam, {((3,), (0,)): 1, ((2,), (1,)): -1})
        base = lie_normalize(h, lam).normal_form
        for seed in (1, 2, 3):
            conj = random_symplectic_conjugate(h, seed, max_degree=4)
            assert lie_normalize(conj, lam).normal_form == base
