"""Coefficient-layer tests: rational parsing, Q(i), symbolic scalars."""

import sys
from fractions import Fraction

import pytest

from birkhoff import scalars
from birkhoff import (
    GAUSSIAN_ONE,
    GAUSSIAN_RING,
    GAUSSIAN_ZERO,
    GaussianRational,
    ParseError,
    SymRing,
    SymScalar,
    UsageError,
    evaluation_map,
    format_rational,
    parse_rational,
)


class TestParseRational:
    def test_plain_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational("+5") == Fraction(5)
        assert parse_rational("  7/2 ") == Fraction(7, 2)
        assert parse_rational("0") == 0

    def test_unicode_minus(self):
        assert parse_rational("−3/4") == Fraction(-3, 4)

    @pytest.mark.parametrize("bad", ["1.5", "a", "", "1/2/3", "1 / 2", "i", "2+3i"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_non_string(self):
        with pytest.raises(ParseError):
            parse_rational(1.5)

    def test_literal_past_digit_limit(self):
        with pytest.raises(ParseError, match="digit limit"):
            parse_rational("1/" + "3" * (sys.get_int_max_str_digits() + 1))

    def test_format_past_digit_limit(self):
        # the limit guards int-to-text only, so the value itself is cheap to build
        with pytest.raises(UsageError, match="digit limit"):
            format_rational(Fraction(1, 10 ** (sys.get_int_max_str_digits() + 1)))

    def test_format_round_trip(self):
        for value in [Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(-7, 3)]:
            assert parse_rational(format_rational(value)) == value


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational.of(1, 2)
        b = GaussianRational.of(3, -1)
        assert a + b == GaussianRational.of(4, 1)
        assert a - b == GaussianRational.of(-2, 3)
        assert a * b == GaussianRational.of(5, 5)
        assert -a == GaussianRational.of(-1, -2)

    def test_inverse_and_division(self):
        a = GaussianRational.of(1, 2)
        assert a * a.inverse() == GAUSSIAN_ONE
        b = GaussianRational.of(3, -1)
        assert (a * b) / b == a
        with pytest.raises(ZeroDivisionError):
            GAUSSIAN_ZERO.inverse()

    def test_scaled(self):
        assert GaussianRational.of(2, -4).scaled(Fraction(1, 2)) == GaussianRational.of(1, -2)

    def test_predicates(self):
        assert GAUSSIAN_ZERO.is_zero
        assert GaussianRational.of(Fraction(1, 3)).is_real
        assert not GaussianRational.of(0, 1).is_real

    def test_str_forms(self):
        assert str(GaussianRational.of(Fraction(3, 4))) == "3/4"
        assert str(GaussianRational.of(0, 1)) == "1i"
        assert str(GaussianRational.of(1, -2)) == "1-2i"
        assert str(GaussianRational.of(-1, Fraction(1, 2))) == "-1+1/2i"

    def test_json_round_trip(self):
        a = GaussianRational.of(Fraction(-5, 3), Fraction(1, 7))
        assert GaussianRational.from_json(a.to_json()) == a

    def test_json_bare_string_is_real(self):
        assert GaussianRational.from_json("-3/2") == GaussianRational.of(Fraction(-3, 2))

    def test_json_missing_keys_default_to_zero(self):
        assert GaussianRational.from_json({"im": "2"}) == GaussianRational.of(0, 2)
        assert GaussianRational.from_json({}) == GAUSSIAN_ZERO

    def test_json_unknown_keys_rejected(self):
        with pytest.raises(ParseError):
            GaussianRational.from_json({"re": "1", "imag": "2"})

    def test_json_wrong_type(self):
        with pytest.raises(ParseError):
            GaussianRational.from_json(1.5)

    @pytest.mark.parametrize("re, im", [(0.5, 0), (0, 0.5), ("1", 0), (1, None)])
    def test_constructor_rejects_non_rationals(self, re, im):
        with pytest.raises(UsageError, match="expected an int or Fraction component"):
            GaussianRational(re, im)

    def test_scaled_rejects_floats(self):
        with pytest.raises(UsageError, match="expected an int or Fraction component"):
            GaussianRational.of(1, 2).scaled(0.5)

    def test_components_are_fractions(self):
        value = GaussianRational(Fraction(2, 6), 3)
        assert value.re == Fraction(1, 3) and value.im == 3
        assert type(value.re) is Fraction and type(value.im) is Fraction
        assert (value.a, value.b, value.d) == (1, 9, 3)


class TestGaussianRing:
    def test_constants_and_predicates(self):
        assert GAUSSIAN_RING.zero == GAUSSIAN_ZERO and GAUSSIAN_RING.zero.is_zero
        assert GAUSSIAN_RING.one == GAUSSIAN_ONE and not GAUSSIAN_RING.one.is_zero

    def test_scale_and_divide(self):
        v = GaussianRational.of(3, 6)
        assert v.scaled(Fraction(1, 3)) == GaussianRational.of(1, 2)
        assert v.scaled(2) == GaussianRational.of(6, 12)
        assert v * GaussianRational.of(3).inverse() == GaussianRational.of(1, 2)

    def test_divide_by_eigenvalue(self):
        v = GaussianRational.of(4)
        lam = GaussianRational.of(0, 2)
        assert v * lam.inverse() == GaussianRational.of(0, -2)

    def test_render(self):
        assert GAUSSIAN_RING.render(GaussianRational.of(-3)) == "-3"
        assert GAUSSIAN_RING.render(GaussianRational.of(1, 2)) == "(1+2i)"
        assert GAUSSIAN_RING.render_plain(GaussianRational.of(1, 2)) == "1+2i"


LABEL_A = ((3, 0), (0, 0))
LABEL_B = ((0, 3), (0, 0))
LABEL_C = ((2, 0), (0, 2))


class TestSymScalar:
    def _ring(self) -> SymRing:
        return SymRing((LABEL_A, LABEL_B, LABEL_C))

    def test_indeterminates_multiply(self):
        ring = self._ring()
        prod = ring.indeterminate(LABEL_A) * ring.indeterminate(LABEL_B)
        assert prod.terms == {(1, 1, 0): Fraction(1)}

    def test_constructor_rejects_non_rationals(self):
        for build in (
            lambda: SymScalar(1, {(1,): 0.5}),
            lambda: SymScalar(1, {(1,): "1/2"}),
            lambda: SymScalar.constant(1, 0.5),
            lambda: SymScalar.indeterminate(1, 0).scaled(0.5),
        ):
            with pytest.raises(UsageError, match="expected an int or Fraction component"):
                build()

    def test_integer_numerators_over_one_denominator(self):
        value = SymScalar(2, {(1, 0): Fraction(1, 6), (0, 1): Fraction(-3, 4), (0, 0): 0})
        assert value.den == 12 and value.nums == {(1, 0): 2, (0, 1): -9}
        assert SymScalar.zero(2).den == 1 and SymScalar.zero(2).nums == {}
        assert (value - value).den == 1

    def test_constructor_checks_keys_of_nonzero_terms(self):
        with pytest.raises(UsageError, match="arity 1 does not match ring arity 2"):
            SymScalar(2, {(1, 0): 1, (1,): 1})
        with pytest.raises(UsageError, match=r"negative exponent in symbolic monomial \(0, -1\)"):
            SymScalar(2, {(1, 0): 1, (0, -1): 1})
        assert SymScalar(2, {(1, 0, 0): 0}).is_zero

    def test_constructor_names_first_bad_key_after_valid_ones(self):
        with pytest.raises(UsageError, match=r"negative exponent in symbolic monomial \(2, -1\)"):
            SymScalar(2, {(1, 0): 1, (0, 1): 2, (2, -1): 3, (0, -2): 4, (1,): 5})
        with pytest.raises(UsageError, match="arity 3 does not match ring arity 2"):
            SymScalar(2, {(1, 0): 1, (0, 1): 2, (1, 1, 0): 3, (0, -1): 4})

    def test_arithmetic_results_skip_the_key_check(self, monkeypatch):
        # their keys are sums of keys the constructor already checked
        a = SymScalar(2, {(1, 0): 1, (0, 0): Fraction(1, 3)})
        b = SymScalar(2, {(0, 1): Fraction(-1, 2)})

        def refuse(nvars, keys):
            raise AssertionError("key check on an arithmetic result")

        monkeypatch.setattr(scalars, "_check_keys", refuse)
        results = (a + b, a - b, a * b, -a, a.scaled(3), a.scaled(Fraction(2, 5)), a * GaussianRational.of(7))
        assert [value.terms for value in results] == [
            {(1, 0): 1, (0, 0): Fraction(1, 3), (0, 1): Fraction(-1, 2)},
            {(1, 0): 1, (0, 0): Fraction(1, 3), (0, 1): Fraction(1, 2)},
            {(1, 1): Fraction(-1, 2), (0, 1): Fraction(-1, 6)},
            {(1, 0): -1, (0, 0): Fraction(-1, 3)},
            {(1, 0): 3, (0, 0): 1},
            {(1, 0): Fraction(2, 5), (0, 0): Fraction(2, 15)},
            {(1, 0): 7, (0, 0): Fraction(7, 3)},
        ]
        with pytest.raises(AssertionError, match="key check"):
            SymScalar(2, {(1, 1): 1})

    def test_unknown_label_rejected(self):
        with pytest.raises(UsageError):
            self._ring().indeterminate(((9, 9), (0, 0)))

    def test_ring_rejects_duplicate_labels(self):
        with pytest.raises(UsageError):
            SymRing((LABEL_A, LABEL_A))

    def test_arithmetic_matches_evaluation(self):
        ring = self._ring()
        a, b, c = (ring.indeterminate(label) for label in (LABEL_A, LABEL_B, LABEL_C))
        expr = (a + b) * (a - b) + c * c + a.scaled(Fraction(2, 3))
        values = [GaussianRational.of(2), GaussianRational.of(-1, 1), GaussianRational.of(Fraction(1, 2))]
        expected = (
            (values[0] + values[1]) * (values[0] - values[1])
            + values[2] * values[2]
            + values[0].scaled(Fraction(2, 3))
        )
        assert expr.evaluate(values) == expected

    def test_scale_by_gaussian_real_only(self):
        ring = self._ring()
        a = ring.indeterminate(LABEL_A)
        scaled = a * GaussianRational.of(Fraction(5, 2))
        assert scaled.terms == {(1, 0, 0): Fraction(5, 2)}
        with pytest.raises(UsageError):
            a * GaussianRational.of(0, 1)

    def test_divide_by_eigenvalue_symbolic(self):
        ring = self._ring()
        out = ring.indeterminate(LABEL_A) * GaussianRational.of(2).inverse()
        assert out.terms == {(1, 0, 0): Fraction(1, 2)}

    def test_inverse_of_constants_only(self):
        ring = self._ring()
        half = SymScalar.constant(3, Fraction(-2, 3)).inverse()
        assert half == SymScalar.constant(3, Fraction(-3, 2))
        assert ring.one.inverse() == ring.one
        with pytest.raises(ZeroDivisionError):
            ring.zero.inverse()
        a = ring.indeterminate(LABEL_A)
        for value in (a, a + ring.one):
            with pytest.raises(UsageError, match="only when constant"):
                value.inverse()

    def test_sorted_terms_graded(self):
        ring = self._ring()
        a = ring.indeterminate(LABEL_A)
        b = ring.indeterminate(LABEL_B)
        expr = a * a * b + a + b
        degrees = [sum(exps) for exps, _ in expr.sorted_terms()]
        assert degrees == sorted(degrees)

    def test_monomial_weight(self):
        ring = self._ring()
        wx, wy = ring.monomial_weight((1, 1, 0))
        assert wx == (3, 3) and wy == (0, 0)
        wx, wy = ring.monomial_weight((0, 0, 2))
        assert wx == (4, 0) and wy == (0, 4)

    def test_render_names_factors(self):
        ring = self._ring()
        assert ring.render(ring.indeterminate(LABEL_A)) == "1*h[3,0;0,0]"
        assert ring.render(ring.zero) == "0"
        two_terms = ring.indeterminate(LABEL_A) - ring.one
        assert ring.render(two_terms) == "(-1 + 1*h[3,0;0,0])"
        assert ring.render_plain(two_terms) == "-1 + 1*h[3,0;0,0]"

    def test_value_to_json_rows(self):
        ring = self._ring()
        expr = ring.indeterminate(LABEL_A) * ring.indeterminate(LABEL_B)
        rows = ring.value_to_json(expr.scaled(Fraction(-3)))
        assert rows == [
            {
                "coeff": "-3",
                "factors": [
                    {"alpha": [3, 0], "beta": [0, 0], "power": 1},
                    {"alpha": [0, 3], "beta": [0, 0], "power": 1},
                ],
            }
        ]

    def test_evaluation_map_order(self):
        ring = self._ring()
        values = {
            LABEL_C: GaussianRational.of(7),
            LABEL_A: GaussianRational.of(1),
            LABEL_B: GaussianRational.of(2),
        }
        assert evaluation_map(ring, values) == [
            GaussianRational.of(1),
            GaussianRational.of(2),
            GaussianRational.of(7),
        ]

    def test_evaluation_map_missing_value(self):
        ring = self._ring()
        with pytest.raises(UsageError):
            evaluation_map(ring, {LABEL_A: GaussianRational.of(1)})
