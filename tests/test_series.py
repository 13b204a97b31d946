"""Polynomial series tests: ring axioms, truncation, the Poisson bracket."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from birkhoff import (
    GAUSSIAN_RING,
    PolySeries,
    SymRing,
    SymScalar,
    UsageError,
    WSeries,
    from_json_terms,
    make_pair,
)
from birkhoff.lie import exp_lie
from birkhoff.scalars import GaussianInteger
from birkhoff.series import MAX_POWER, combination, monomials

from helpers import (
    _exponents,
    add_oracle,
    build_series,
    combination_oracle,
    exp_lie_oracle,
    gr,
    mul_oracle,
    poisson_oracle,
    poisson_pairwise_oracle,
    random_series,
    scale_oracle,
)

POWER_RING = SymRing((((3,), (0,)), ((2,), (1,))))


def h(first: int, second: int, coeff: int | Fraction = 1) -> SymScalar:
    """coeff * h1^first * h2^second in the two indeterminates of POWER_RING."""
    return SymScalar(2, {(first, second): coeff})


def power_series(entries: dict) -> PolySeries:
    """A series at n = 1, order 4 over POWER_RING from {(a, b): value}."""
    return PolySeries(1, 4, POWER_RING, {make_pair((a,), (b,)): v for (a, b), v in entries.items()})


class TestExponentPair:
    def test_degree_and_diagonal(self):
        pair = make_pair((2, 0), (0, 3))
        assert pair.degree == 5
        assert not pair.is_diagonal
        assert make_pair((1, 2), (1, 2)).is_diagonal

    def test_validation(self):
        with pytest.raises(UsageError):
            make_pair((1,), (1, 0))
        with pytest.raises(UsageError):
            make_pair((-1,), (0,))


class TestMonomials:
    @given(n=st.integers(1, 3), degree=st.integers(0, 7))
    def test_matches_exponent_oracle(self, n, degree):
        pairs = [(p.alpha, p.beta) for p in monomials(n, degree)]
        expected = {
            (alpha, beta)
            for alpha in _exponents(n, degree)
            for beta in _exponents(n, degree - sum(alpha))
            if sum(alpha) + sum(beta) == degree
        }
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == expected
        assert len(pairs) == math.comb(degree + 2 * n - 1, 2 * n - 1)

    @given(n=st.integers(1, 3), degree=st.integers(0, 7))
    def test_order_is_alpha_degree_then_lex(self, n, degree):
        # resonant_pairs and the seeded random_generator depend on this order
        pairs = [(p.alpha, p.beta) for p in monomials(n, degree)]
        assert pairs == sorted(pairs, key=lambda p: (sum(p[0]), p[0], p[1]))


class TestConstruction:
    def test_zero_terms_dropped(self):
        s = build_series(1, 4, {((1, ), (1, )): 0})
        assert s.is_zero

    def test_overweight_terms_dropped(self):
        s = build_series(1, 4, {((3,), (3,)): 1, ((1,), (1,)): 2})
        assert list(series_pairs(s)) == [((1,), (1,))]

    def test_dimension_checked(self):
        with pytest.raises(UsageError):
            PolySeries(2, 4, GAUSSIAN_RING, {make_pair((1,), (0,)): gr(1)})

    def test_incompatible_operands(self):
        a = build_series(1, 4, {((1,), (0,)): 1})
        b = build_series(1, 5, {((1,), (0,)): 1})
        c = build_series(2, 4, {((1, 0), (0, 0)): 1})
        with pytest.raises(UsageError):
            a + b
        with pytest.raises(UsageError):
            a * c
        assert (a + b.with_order(4)).coefficient(make_pair((1,), (0,))) == gr(2)


def series_pairs(s: PolySeries):
    return ((pair.alpha, pair.beta) for pair, _ in s.sorted_terms())


class TestArithmetic:
    def test_difference_of_squares(self):
        # (x + y)(x - y) = x^2 - y^2 at order 2
        x = build_series(1, 2, {((1,), (0,)): 1})
        y = build_series(1, 2, {((0,), (1,)): 1})
        assert (x + y) * (x - y) == build_series(1, 2, {((2,), (0,)): 1, ((0,), (2,)): -1})

    def test_truncation_kills_product(self):
        x3 = build_series(1, 4, {((3,), (0,)): 1})
        assert (x3 * x3).is_zero

    def test_cross_product(self):
        a = build_series(1, 6, {((2,), (1,)): 1})
        b = build_series(1, 6, {((1,), (2,)): 1})
        assert a * b == build_series(1, 6, {((3,), (3,)): 1})

    @pytest.mark.parametrize("seed", range(8))
    def test_mul_matches_dense_oracle(self, seed):
        n = 1 + seed % 2
        f = random_series(n, 7, seed + 100, min_degree=1, imaginary=True)
        g = random_series(n, 7, seed + 200, min_degree=1, imaginary=True)
        assert f * g == mul_oracle(f, g)

    @pytest.mark.parametrize("seed", range(4))
    def test_ring_axioms(self, seed):
        f = random_series(2, 6, seed + 300, min_degree=1)
        g = random_series(2, 6, seed + 301, min_degree=1)
        h = random_series(2, 6, seed + 302, min_degree=1)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f - f).is_zero

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_complex_products_multiply_no_gaussian_integers(self, n, monkeypatch):
        # complex numerators are packed into ints before the product loop
        # and before a sum, so neither *, the bracket nor any linear sum falls
        # back to GaussianInteger arithmetic
        f = random_series(n, 7, n + 1300, 1, 3, max_terms=8, imaginary=True)
        g = random_series(n, 7, n + 1400, 1, 3, max_terms=8, imaginary=True)
        generator = random_series(n, 7, n + 1500, 3, 4, max_terms=4, imaginary=True)
        items = [(Fraction(2, 3), f), (-5, g), (Fraction(-1, 7), f)]
        expected = [
            mul_oracle(f, g), poisson_oracle(f, g), mul_oracle(g, f),
            add_oracle(f, g), add_oracle(f, scale_oracle(g, -1)), scale_oracle(f, -1),
            scale_oracle(g, Fraction(-3, 4)), combination_oracle(items, f),
            exp_lie_oracle(generator, f),
        ]
        assert all(
            GaussianInteger in set(map(type, series.nums.values()))
            for series in [f, g, generator] + expected
        )

        def refuse(self, other):
            raise AssertionError("GaussianInteger arithmetic in the product loop")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(GaussianInteger, name, refuse)
        assert [
            f * g, f.poisson(g), g * f, f + g, f - g, -f, g.scale(Fraction(-3, 4)),
            combination(items, f), exp_lie(generator, f),
        ] == expected

    def test_scale(self):
        f = build_series(1, 4, {((2,), (1,)): gr(3, 1)})
        assert f.scale(Fraction(1, 3)) == build_series(1, 4, {((2,), (1,)): gr(1, Fraction(1, 3))})


class TestStructureQueries:
    def _sample(self):
        return build_series(
            1, 6, {((1,), (1,)): 1, ((3,), (0,)): 2, ((2,), (2,)): -1, ((3,), (3,)): 5}
        )

    def test_grade(self):
        s = self._sample()
        assert s.grade(4) == build_series(1, 6, {((2,), (2,)): -1})
        assert s.grade(5).is_zero

    def test_grades_and_min_degree(self):
        s = self._sample()
        assert s.grades() == [2, 3, 4, 6]
        assert s.min_degree() == 2
        assert PolySeries.zero(1, 6).min_degree() is None

    def test_with_order_truncates(self):
        s = self._sample().with_order(4)
        assert s.order == 4
        assert s.grades() == [2, 3, 4]

    def test_coefficient_default(self):
        s = self._sample()
        assert s.coefficient(make_pair((9,), (0,))) == GAUSSIAN_RING.zero

    def test_sorted_terms_graded_lex(self):
        s = build_series(1, 4, {((0,), (3,)): 1, ((3,), (0,)): 1, ((1,), (1,)): 1})
        keys = [(pair.alpha, pair.beta) for pair, _ in s.sorted_terms()]
        assert keys == [((1,), (1,)), ((0,), (3,)), ((3,), (0,))]

    def test_map_and_filter(self):
        s = self._sample()
        doubled = s.scale(Fraction(2))
        assert doubled == s + s
        diagonal = s.filter_terms(lambda pair: pair.is_diagonal)
        assert diagonal.grades() == [2, 4, 6]


class TestPoisson:
    def test_canonical_pair(self):
        # {x, y} = -1 with this bracket's sign convention
        x = build_series(1, 2, {((1,), (0,)): 1})
        y = build_series(1, 2, {((0,), (1,)): 1})
        assert x.poisson(y) == build_series(1, 2, {((0,), (0,)): -1})

    def test_quadratic_acts_diagonally(self):
        # {lam*x*y, x^a y^b} = lam*(a-b) x^a y^b
        quad = build_series(1, 8, {((1,), (1,)): gr(2)})
        mono = build_series(1, 8, {((3,), (1,)): 1})
        assert quad.poisson(mono) == mono.scale(Fraction(4))

    def test_antisymmetry_and_self_bracket(self):
        f = random_series(2, 6, 42, min_degree=1)
        g = random_series(2, 6, 43, min_degree=1)
        assert f.poisson(g) == -(g.poisson(f))
        assert f.poisson(f).is_zero

    @pytest.mark.parametrize("ring", ["complex", "symbolic"])
    def test_antisymmetry_gives_equal_fields(self, ring):
        if ring == "symbolic":
            f = power_series({(1, 2): h(1, 0, Fraction(1, 3)), (3, 0): h(0, 2) + h(1, 1, -2)})
            g = power_series({(0, 1): h(2, 0, 5), (2, 1): h(0, 1, Fraction(-3, 7)) + h(1, 0)})
        else:
            f = random_series(2, 6, 42, min_degree=1, imaginary=True)
            g = random_series(2, 6, 43, min_degree=1, imaginary=True)
        forward, backward = f.poisson(g), -(g.poisson(f))
        assert not forward.is_zero
        assert (forward.den, forward.nums) == (backward.den, backward.nums)
        assert f.poisson(f).is_zero

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_derivative_oracle(self, seed):
        n = 1 + seed % 3
        f = random_series(n, 7, seed + 500, min_degree=1, imaginary=True)
        g = random_series(n, 7, seed + 600, min_degree=1, imaginary=True)
        assert f.poisson(g) == poisson_oracle(f, g)

    @pytest.mark.parametrize("seed", range(5))
    def test_jacobi_identity(self, seed):
        # order head-room so no truncation interferes with the identity
        n = 1 + seed % 2
        f = random_series(n, 12, seed + 700, min_degree=1, max_degree=5, max_terms=3)
        g = random_series(n, 12, seed + 800, min_degree=1, max_degree=5, max_terms=3)
        h = random_series(n, 12, seed + 900, min_degree=1, max_degree=5, max_terms=3)
        total = (
            f.poisson(g.poisson(h))
            + g.poisson(h.poisson(f))
            + h.poisson(f.poisson(g))
        )
        assert total.is_zero

    @pytest.mark.parametrize("seed", range(5))
    def test_leibniz_rule(self, seed):
        n = 1 + seed % 2
        f = random_series(n, 12, seed + 1000, min_degree=1, max_degree=4, max_terms=3)
        g = random_series(n, 12, seed + 1100, min_degree=1, max_degree=4, max_terms=3)
        h = random_series(n, 12, seed + 1200, min_degree=1, max_degree=4, max_terms=3)
        assert f.poisson(g * h) == f.poisson(g) * h + g * f.poisson(h)

    def test_bracket_grading(self):
        # homogeneous inputs of degree s1, s2 bracket to degree s1 + s2 - 2
        f = random_series(2, 10, 77, min_degree=4, max_degree=4, max_terms=4)
        g = random_series(2, 10, 78, min_degree=3, max_degree=3, max_terms=4)
        bracket = f.poisson(g)
        assert bracket.grades() in ([], [5])


class TestPoissonEdges:
    """Brackets where one operand has no term in x_j or in y_j, and brackets
    whose terms land exactly at the truncation degree or one above it."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_operand_without_x_j_or_y_j(self, n):
        zero = (0,) * (n - 2)
        # f has no x_2 and no y_1 term; g has no y_2 term
        f = build_series(n, 6, {((2, 0) + zero, (0, 1) + zero): 1})
        g = build_series(n, 6, {((0, 1) + zero, (1, 0) + zero): 1})
        expected = build_series(n, 6, {
            ((2, 0) + zero, (1, 0) + zero): 1,
            ((1, 1) + zero, (0, 1) + zero): -2,
        })
        assert f.poisson(g) == expected
        assert g.poisson(f) == -expected
        # no operand has a y term, or none an x term: every product is empty
        xs = build_series(n, 6, {((1, 2) + zero, (0, 0) + zero): gr(1, 2)})
        ys = build_series(n, 6, {((0, 0) + zero, (0, 3) + zero): 3})
        assert xs.poisson(xs).is_zero and ys.poisson(ys).is_zero
        # dense is dense in x_1, y_1, x_2, y_2; x1 has only x_1, and x1_y2
        # only x_1 and y_2, so at most two of the 2n products are nonempty
        dense = build_series(n, 6, {
            ((a1, a2) + zero, (b1, b2) + zero): gr(1 + a1 - b2, 1 + a2 - b1)
            for a1 in range(3) for a2 in range(2) for b1 in range(3) for b2 in range(2)
        })
        x1 = build_series(n, 6, {((k, 0) + zero, (0, 0) + zero): gr(k, 1 - k) for k in range(1, 5)})
        x1_y2 = x1 + build_series(n, 6, {((1, 0) + zero, (0, 2) + zero): gr(-3, 2)})
        assert not dense.poisson(x1).is_zero and not x1_y2.poisson(dense).is_zero
        both = [f, g, xs, ys, xs + ys, f + ys, dense, x1, x1_y2]
        for left in both:
            for right in both:
                bracket = left.poisson(right)
                assert bracket == poisson_oracle(left, right)
                assert bracket == poisson_pairwise_oracle(left, right)

    @pytest.mark.parametrize("order", [5, 6, 7, 8, 13, 14, 15, 16])
    def test_terms_at_the_order_kept_and_above_dropped(self, order):
        # order.bit_length(), the width of a key field, changes between 7
        # and 8 and between 15 and 16
        m = order
        f = build_series(2, m, {
            ((m - 1, 0), (0, 0)): 1, ((m, 0), (0, 0)): 1, ((0, m), (0, 0)): 1,
        })
        g = build_series(2, m, {
            ((0, 0), (3, 0)): 1, ((0, 1), (0, 1)): 1, ((0, 1), (0, 2)): 1,
        })
        # the degree-(m + 1) terms -3m x1^(m-1) y1^2 and -2m x2^m y2 are cut
        expected = build_series(2, m, {
            ((m - 2, 0), (2, 0)): -3 * (m - 1), ((0, m), (0, 0)): -m,
        })
        assert f.poisson(g) == expected
        assert g.poisson(f) == -expected
        assert expected.grades() == [m]


class TestRendering:
    def test_render_monomials(self):
        s = build_series(2, 4, {((2, 0), (2, 0)): -3})
        assert s.render() == "-3 x1^2 y1^2"

    def test_render_join_signs(self):
        s = build_series(1, 4, {((1,), (1,)): 1, ((2,), (2,)): -3})
        assert s.render() == "1 x1 y1 - 3 x1^2 y1^2"

    def test_render_zero(self):
        assert PolySeries.zero(1, 4).render() == "0"

    def test_render_complex_coeff(self):
        s = build_series(1, 4, {((1,), (0,)): gr(1, 1)})
        assert s.render() == "(1+1i) x1"

    def test_render_symbolic_sum_in_parentheses(self):
        ring = SymRing((((1,), (2,)), ((2,), (1,))))
        value = SymScalar(2, {(1, 0): Fraction(-1, 2), (0, 2): Fraction(9, 4)})
        single = SymScalar(2, {(1, 0): 3})
        s = PolySeries(1, 4, ring, {make_pair((1,), (1,)): value, make_pair((2,), (0,)): single})
        assert s.render() == "(-1/2*h[1;2] + 9/4*h[2;1]^2) x1 y1 + 3*h[1;2] x1^2"
        w = WSeries(2, ring, {1: value, 2: -value})
        assert w.render() == "(-1/2*h[1;2] + 9/4*h[2;1]^2) w + (1/2*h[1;2] - 9/4*h[2;1]^2) w^2"
        # rows and JSON text stay bare
        assert w.to_rows() == [
            ["1", "-1/2*h[1;2] + 9/4*h[2;1]^2"], ["2", "1/2*h[1;2] - 9/4*h[2;1]^2"]
        ]


class TestJson:
    def test_round_trip(self):
        s = build_series(2, 6, {((1, 0), (0, 1)): gr(2, -1), ((3, 0), (0, 0)): gr(Fraction(1, 3))})
        again = from_json_terms(2, 6, s.to_json_terms())
        assert again == s

    def test_duplicate_rows_summed(self):
        rows = [
            {"alpha": [1], "beta": [1], "coeff": "2"},
            {"alpha": [1], "beta": [1], "coeff": "-2"},
        ]
        assert from_json_terms(1, 4, rows).is_zero


class TestSymbolicPowerFields:
    """Over a SymRing each indeterminate's power has a key field of its own,
    whose top bit is a guard bit: a power past MAX_POWER is refused, and never
    carries into the neighbouring field (h2's field is the lowest, h1's the
    next)."""

    def test_constructor_refuses_a_power_past_the_field(self):
        for value in (h(0, MAX_POWER + 1), h(MAX_POWER + 1, 0), h(1, 256)):
            with pytest.raises(UsageError, match=f"has a power above {MAX_POWER}"):
                power_series({(1, 0): h(1, 1), (0, 0): value})
        with pytest.raises(UsageError, match="in 3 indeterminates does not match a ring of 2"):
            power_series({(1, 0): SymScalar(3, {(1, 0, 0): 1})})

    @pytest.mark.parametrize("first, second", [(64, 64), (1, MAX_POWER), (MAX_POWER, MAX_POWER)])
    def test_product_past_the_field_is_refused(self, first, second):
        for f, g in (
            (power_series({(0, 0): h(0, first)}), power_series({(1, 1): h(0, second)})),
            (power_series({(1, 0): h(first, 1)}), power_series({(0, 1): h(second, 0)})),
        ):
            for product in (lambda: f * g, lambda: g * f):
                with pytest.raises(UsageError, match=f"power of the result exceeds {MAX_POWER}"):
                    product()

    def test_bracket_past_the_field_is_refused(self):
        for first, second in ((MAX_POWER, 1), (64, 64), (MAX_POWER, MAX_POWER)):
            f = power_series({(1, 0): h(2, first), (2, 0): h(1, 0)})
            g = power_series({(0, 1): h(0, second, Fraction(1, 3))})
            for bracket in (lambda: f.poisson(g), lambda: g.poisson(f)):
                with pytest.raises(UsageError, match=f"power of the result exceeds {MAX_POWER}"):
                    bracket()

    def test_powers_up_to_the_bound_compute(self):
        f = power_series({
            (0, 0): h(64, 0) - h(0, MAX_POWER, Fraction(1, 3)),
            (1, 0): h(64, 0),
            (2, 1): h(0, 64, 5),
        })
        g = power_series({
            (0, 0): h(63, 0) + h(1, 0, Fraction(2, 7)),
            (0, 1): h(63, 0, -1),
            (1, 1): h(1, 0, 3),
        })
        for result, oracle in ((f * g, mul_oracle(f, g)), (f.poisson(g), poisson_oracle(f, g))):
            assert result == oracle
            assert max(max(e) for v in result.terms.values() for e in v.nums) == MAX_POWER
        assert (f * g).coefficient(make_pair((0,), (0,))) == f.coefficient(
            make_pair((0,), (0,))
        ) * g.coefficient(make_pair((0,), (0,)))
