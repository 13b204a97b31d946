"""Closed-form 1-DOF pipeline tests: averaging, S, inversion, conventions."""

import random
from fractions import Fraction

import pytest

from birkhoff import (
    GAUSSIAN_RING,
    GaussianRational,
    InternalCheckError,
    PolySeries,
    SymRing,
    UsageError,
    WSeries,
    average,
    compute_S,
    is_linearizable,
    lie_normalize,
    nf_from_S,
    onedof_normal_form,
    partial_inverse,
    partition_normal_form,
)
from birkhoff import FreqVector, onedof
from birkhoff.scalars import GaussianInteger, SymScalar
from birkhoff.series import monomials

from helpers import (
    build_series,
    compose_wseries,
    gr,
    partition_oracle,
    random_series,
    s_oracle,
)


def wser(order, coeffs) -> WSeries:
    fixed = {k: v if isinstance(v, GaussianRational) else gr(v) for k, v in coeffs.items()}
    return WSeries(order, GAUSSIAN_RING, fixed)


def ham1(order, lam, entries) -> PolySeries:
    data = {((1,), (1,)): lam}
    for key, value in entries.items():
        data[key] = value
    return build_series(1, order, data)


class TestWSeries:
    def test_arithmetic(self):
        a = wser(4, {1: 1, 2: 2})
        b = wser(4, {2: -2, 3: 5})
        assert a + b == wser(4, {1: 1, 3: 5})
        assert a - b == wser(4, {1: 1, 2: 4, 3: -5})
        assert a * b == wser(4, {3: -2, 4: 1})

    def test_order_mismatch(self):
        with pytest.raises(UsageError):
            wser(4, {1: 1}) + wser(5, {1: 1})

    def test_derivative(self):
        s = wser(4, {2: 3, 4: 1})
        assert s.derivative() == wser(3, {1: 6, 3: 4})

    def test_min_degree_and_zero(self):
        assert wser(4, {}).is_zero
        assert wser(4, {3: 1}).min_degree() == 3
        assert wser(4, {}).min_degree() is None

    def test_render_and_rows(self):
        s = wser(4, {2: -3, 4: Fraction(1, 2)})
        assert s.render() == "-3 w^2 + 1/2 w^4"
        assert s.to_rows() == [["2", "-3"], ["4", "1/2"]]


class TestAverage:
    def test_diagonal_powers(self):
        s = build_series(1, 6, {((2,), (2,)): 1, ((3,), (3,)): -2})
        assert average(s) == wser(3, {2: 1, 3: -2})

    def test_nondiagonal_vanishes(self):
        s = build_series(1, 6, {((3,), (0,)): 1, ((2,), (1,)): 4})
        assert average(s).is_zero

    def test_squared_cubic(self):
        x3_plus_y3 = build_series(1, 6, {((3,), (0,)): 1, ((0,), (3,)): 1})
        assert average(x3_plus_y3 * x3_plus_y3) == wser(3, {3: 2})

    def test_low_powers_excluded(self):
        s = build_series(1, 4, {((1,), (1,)): 7})
        assert average(s).is_zero

    def test_needs_one_dof(self):
        s = build_series(2, 4, {((1, 1), (1, 1)): 1})
        with pytest.raises(UsageError):
            average(s)


class TestComputeS:
    def test_linear_quadratic_only(self):
        h = ham1(2, gr(1), {})
        assert compute_S(h, gr(1), 5).is_zero

    def test_resonant_quartic(self):
        h = ham1(4, gr(1), {((2,), (2,)): 1})
        assert compute_S(h, gr(1), 5) == wser(5, {2: 1, 3: -2, 4: 5, 5: -14})

    def test_pure_cubic_is_linearizable(self):
        h = ham1(3, gr(1), {((3,), (0,)): 1})
        assert compute_S(h, gr(1), 10).is_zero
        assert is_linearizable(h, gr(1), 10)

    def test_symmetric_cubic(self):
        h = ham1(3, gr(1), {((3,), (0,)): 1, ((0,), (3,)): 1})
        assert compute_S(h, gr(1), 5) == wser(5, {2: -3, 3: -30, 4: -420, 5: -6930})

    def test_lambda_scales_terms(self):
        h = ham1(3, gr(2), {((2,), (1,)): 1, ((1,), (2,)): 1})
        assert compute_S(h, gr(2), 2) == wser(2, {2: Fraction(-3, 2)})

    def test_imaginary_lambda(self):
        lam = gr(0, 1)
        h = ham1(3, lam, {((3,), (0,)): 1, ((0,), (3,)): 1})
        s = compute_S(h, lam, 2)
        # S_2 = -3/lambda with these cubics; here -3/i = 3i
        assert s == WSeries(2, GAUSSIAN_RING, {2: gr(0, 3)})

    def test_wrong_quadratic_rejected(self):
        h = ham1(4, gr(1), {})
        with pytest.raises(UsageError):
            compute_S(h, gr(2), 3)
        with pytest.raises(UsageError):
            compute_S(h, gr(0), 3)

    def test_wmax_validation(self):
        h = ham1(2, gr(1), {})
        with pytest.raises(UsageError):
            compute_S(h, gr(1), 0)

    def test_symbolic_s2(self):
        # S_2 = h_22 - 3(h_30 h_03 + h_21 h_12) at lambda = 1
        labels = (
            (((3,), (0,))),
            (((0,), (3,))),
            (((2,), (1,))),
            (((1,), (2,))),
            (((2,), (2,))),
        )
        ring = SymRing(labels)
        terms = {make_key(label): ring.indeterminate(label) for label in labels}
        quad = FreqVector.of(1).quadratic_part(4, ring)
        h = quad + PolySeries(1, 4, ring, terms)
        s = compute_S(h, gr(1), 2)
        h30, h03, h21, h12, h22 = (ring.indeterminate(label) for label in labels)
        expected = h22 - (h30 * h03 + h21 * h12).scaled(Fraction(3))
        assert s.coefficient(2) == expected

    def test_work_count_at_order_20(self, monkeypatch):
        # all nine cubic and quartic monomials with coefficients (1 + i) k/(k+1),
        # so no coefficient cancels and every numerator product in the kernel
        # has a GaussianInteger operand.  9 027 are the term pairs of the reach
        # cut, exactly the pairs that can still reach S on this support (the
        # unpruned powers at working order 54 take 37 544); the other 39 scale
        # the complex diagonal numerators of powers 2..mmax by a!/(a-m+1)!,
        # the step d_w^{m-1} on keys
        pairs = [pair for degree in (3, 4) for pair in monomials(1, degree)]
        entries = {
            (pair.alpha, pair.beta): gr(Fraction(k, k + 1), Fraction(k, k + 1))
            for k, pair in enumerate(pairs, start=1)
        }
        h = ham1(20, gr(1), entries)
        calls = 0
        multiply = GaussianInteger.__mul__

        def counted(a, b):
            nonlocal calls
            calls += 1
            return multiply(a, b)

        monkeypatch.setattr(GaussianInteger, "__mul__", counted)
        monkeypatch.setattr(GaussianInteger, "__rmul__", counted)
        compute_S(h, gr(1), 10)
        assert calls == 9066

    def test_imaginary_lambda_keeps_real_powers(self, monkeypatch):
        # real coefficients at lambda = i: q = -1/lambda = i weighs the parts
        # of S, not the powers of H_*, so the powers keep int numerators and
        # no Gaussian integer is multiplied
        pairs = [pair for degree in (3, 4) for pair in monomials(1, degree)]
        entries = {
            (pair.alpha, pair.beta): gr(Fraction(k, k + 1))
            for k, pair in enumerate(pairs, start=1)
        }
        lam = gr(0, 1)
        h = ham1(20, lam, entries)
        expected = s_oracle(h, lam, 10)
        calls = 0
        multiply = GaussianInteger.__mul__

        def counted(a, b):
            nonlocal calls
            calls += 1
            return multiply(a, b)

        monkeypatch.setattr(GaussianInteger, "__mul__", counted)
        monkeypatch.setattr(GaussianInteger, "__rmul__", counted)
        s = compute_S(h, lam, 10)
        assert calls == 0
        assert s == expected


def make_key(label):
    from birkhoff import make_pair

    return make_pair(label[0], label[1])


class TestBracketAverageIdentity:
    """<{B g', g''}> = -(1/lam) d/dw (<g' g''> - <g'><g''>)."""

    def _check(self, g1: PolySeries, g2: PolySeries, lam: GaussianRational):
        freq = FreqVector.of(lam)
        bracket = partial_inverse(g1, freq).poisson(g2)
        lhs = average(bracket)
        prod_avg = average(g1 * g2)
        sep = average(g1) * average(g2)
        rhs = (prod_avg - sep).derivative().with_order(lhs.order).scale_by_gaussian(
            -lam.inverse()
        )
        assert lhs == rhs.with_order(lhs.order)

    def test_hand_example(self):
        # g' = x^3, g'' = y^3 at lam = 1: both sides equal -3 w^2
        g1 = build_series(1, 6, {((3,), (0,)): 1})
        g2 = build_series(1, 6, {((0,), (3,)): 1})
        freq = FreqVector.of(gr(1))
        assert average(partial_inverse(g1, freq).poisson(g2)) == wser(3, {2: -3}).with_order(3)
        self._check(g1, g2, gr(1))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        lam = [gr(1), gr(2), gr(Fraction(5, 3)), gr(0, 1)][seed % 4]
        g1 = random_series(1, 10, 4000 + seed, min_degree=3, max_degree=5, max_terms=4, imaginary=seed % 2 == 0)
        g2 = random_series(1, 10, 5000 + seed, min_degree=3, max_degree=5, max_terms=4, imaginary=seed % 3 == 0)
        self._check(g1, g2, lam)

    def test_symbolic_instance(self):
        labels = ((((3,), (0,))), (((0,), (3,))), (((2,), (1,))), (((1,), (2,))))
        ring = SymRing(labels)
        g1 = PolySeries(
            1, 8, ring, {make_key(labels[0]): ring.indeterminate(labels[0]),
                         make_key(labels[2]): ring.indeterminate(labels[2])}
        )
        g2 = PolySeries(
            1, 8, ring, {make_key(labels[1]): ring.indeterminate(labels[1]),
                         make_key(labels[3]): ring.indeterminate(labels[3])}
        )
        lam = gr(3)
        freq = FreqVector.of(lam)
        bracket = partial_inverse(g1, freq).poisson(g2)
        lhs = average(bracket)
        rhs = (
            (average(g1 * g2) - average(g1) * average(g2))
            .derivative()
            .with_order(lhs.order)
            .scale(Fraction(-1, 3))
        )
        assert lhs == rhs


class TestReversion:
    """partition_normal_form(T) is the compositional inverse of u - T(u)."""

    def test_revert_quadratic(self):
        # the inverse of u + u^2 is u - u^2 + 2u^3 - 5u^4
        assert partition_normal_form(wser(4, {2: -1})) == wser(4, {1: 1, 2: -1, 3: 2, 4: -5})

    @pytest.mark.parametrize("seed", range(6))
    def test_composition_round_trip(self, seed):
        rng = random.Random(seed + 600)
        coeffs = {}
        for k in range(2, 7):
            coeffs[k] = gr(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-2, 2), 2) if seed % 2 else Fraction(0),
            )
        t = WSeries(6, GAUSSIAN_RING, coeffs)
        inverse = partition_normal_form(t)
        identity = WSeries(6, GAUSSIAN_RING, {1: gr(1)})
        line = identity - t
        assert compose_wseries(line, inverse) == identity
        assert compose_wseries(inverse, line) == identity


class TestPartitionFormula:
    def test_low_degree_displays(self):
        # N2 = S2; N3 = S3 + 2 S2^2; N4 = S4 + 5 S2 S3 + 5 S2^3
        s = wser(4, {2: 3, 3: -2, 4: 7})
        s2, s3, s4 = gr(3), gr(-2), gr(7)
        inverse = partition_normal_form(s)
        assert inverse.coefficient(1) == gr(1)
        assert inverse.coefficient(2) == s2
        assert inverse.coefficient(3) == s3 + s2 * s2.scaled(Fraction(2))
        expected4 = s4 + (s2 * s3).scaled(Fraction(5)) + (s2 * s2 * s2).scaled(Fraction(5))
        assert inverse.coefficient(4) == expected4
        assert inverse.order == 4 and inverse.coefficient(0) == gr(0)

    def test_degree_validation(self):
        # the formula inverts u - T(u) for T starting at u^2
        for low in ({0: 1, 2: 1}, {1: 1, 2: 1}):
            with pytest.raises(UsageError, match="starts at u\\^2"):
                partition_normal_form(wser(3, low))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reversion_at_unit_lambda(self, seed):
        # at lambda = 1, c = 1 and nu is the inverse of u - S(u) itself
        rng = random.Random(seed + 700)
        coeffs = {
            k: gr(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for k in range(2, 11)
        }
        s = WSeries(10, GAUSSIAN_RING, coeffs)
        nu = nf_from_S(s, gr(1))
        identity = WSeries(10, GAUSSIAN_RING, {1: gr(1)})
        assert compose_wseries(identity - s, nu) == identity
        assert compose_wseries(nu, identity - s) == identity


class TestNuSeries:
    """nu(w) = lambda w + N_2 w^2 + ... is a WSeries with coefficient 1 lambda."""

    def test_coefficients(self):
        nu = wser(6, {1: 2, 2: -3, 4: 5})
        assert nu.coefficient(1) == gr(2)
        assert nu.coefficient(2) == gr(-3)
        assert nu.coefficient(3) == gr(0)
        assert nu.coefficient(4) == gr(5)

    def test_diagonal_series(self):
        nu = wser(3, {1: 1, 2: -3, 3: 9})
        # order 6 holds (xy)^3; order 5 cannot
        assert nu.diagonal_series(6) == build_series(
            1, 6, {((1,), (1,)): 1, ((2,), (2,)): -3, ((3,), (3,)): 9}
        )
        assert nu.diagonal_series(5) == build_series(
            1, 5, {((1,), (1,)): 1, ((2,), (2,)): -3}
        )

    def test_rows(self):
        nu = wser(4, {1: 1, 2: -3, 4: -105})
        assert nu.to_rows() == [["1", "1"], ["2", "-3"], ["4", "-105"]]


class TestNfFromS:
    def test_zero_s_is_linear(self):
        nu = nf_from_S(WSeries.zero(5), gr(2))
        assert nu == wser(5, {1: 2})

    def test_worked_resonant_quartic(self):
        s = wser(4, {2: 1, 3: -2, 4: 5})
        nu = nf_from_S(s, gr(1))
        assert nu.coefficient(2) == gr(1)
        # H = xy + x^2 y^2 is already normal: nu must reproduce it
        assert nu.coefficient(3) == gr(0)
        assert nu.coefficient(4) == gr(0)

    def test_counterexample_tail(self):
        s = wser(4, {2: -3, 3: -30, 4: -420})
        nu = nf_from_S(s, gr(1))
        assert nu.to_rows() == [["1", "1"], ["2", "-3"], ["3", "-12"], ["4", "-105"]]

    def test_convention_flag(self):
        s = wser(2, {2: 1})
        proof = nf_from_S(s, gr(1), convention="proof")
        stated = nf_from_S(s, gr(1), convention="stated")
        assert proof.coefficient(2) == gr(1)
        assert stated.coefficient(2) == gr(-1)
        with pytest.raises(UsageError):
            nf_from_S(s, gr(1), convention="mystery")

    def test_zero_lambda_rejected(self):
        with pytest.raises(UsageError):
            nf_from_S(wser(2, {2: 1}), gr(0))

    # S with a w^0 term, a w^1 term, w^1 = lambda, and a complex case at
    # lambda = 3i, under both conventions: the exact error or the rendered nu.
    # c S with a w^0 or w^1 term has no partition sum, whatever its value.
    LOW_ERROR = (UsageError, "the partition formula needs a series that starts at u^2")
    EDGE_S = {
        "w0": (wser(4, {0: 1, 2: 3}), gr(2)),
        "w1": (wser(4, {1: Fraction(1, 2), 2: 1}), gr(2)),
        "w1-is-lambda": (wser(4, {1: 2, 3: -1}), gr(2)),
        "complex": (
            wser(5, {2: gr(1, 2), 3: gr(Fraction(-1, 3), 1), 5: gr(0, 4)}), gr(0, 3)
        ),
    }

    @pytest.mark.parametrize(
        "case, convention, expected",
        [
            ("w0", "proof", LOW_ERROR),
            ("w0", "stated", LOW_ERROR),
            ("w1", "proof", LOW_ERROR),
            ("w1", "stated", LOW_ERROR),
            ("w1-is-lambda", "proof", LOW_ERROR),
            ("w1-is-lambda", "stated", LOW_ERROR),
            ("complex", "proof",
             "3i w + (1+2i) w^2 + (7/3+3i) w^3 + (20/3+5i) w^4 + (169/9+307/27i) w^5"),
            ("complex", "stated",
             "3i w + (6-3i) w^2 + (-21-17i) w^3 + (-35+130i) w^4 + (753-113i) w^5"),
        ],
    )
    def test_edge_inputs(self, case, convention, expected):
        s, lam = self.EDGE_S[case]
        if isinstance(expected, str):
            assert nf_from_S(s, lam, convention).render() == expected
            return
        error, message = expected
        with pytest.raises(error) as caught:
            nf_from_S(s, lam, convention)
        assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_composition_check_catches_a_wrong_inverse(self, monkeypatch, symbolic):
        if symbolic:
            label = ((2,), (2,))
            ring = SymRing((label,))
            h = ring.indeterminate(label)
            s = WSeries(4, ring, {2: h, 4: ring.one})
            expected = (
                "composition check failed at degree 3: psi - c S(psi) has coefficient "
                "1*h[2;2], expected 0; S = 1*h[2;2] w^2 + 1 w^4, nu = 2 w + 1*h[2;2] w^2 "
                "+ (2*h[2;2] + 1*h[2;2]^2) w^3 + (1 + 5/4*h[2;2]^3) w^4"
            )
        else:
            ring = GAUSSIAN_RING
            h = ring.one
            s = wser(4, {2: 1, 4: 1})
            expected = (
                "composition check failed at degree 3: psi - c S(psi) has coefficient "
                "1, expected 0; S = 1 w^2 + 1 w^4, nu = 2 w + 1 w^2 + 3 w^3 + 9/4 w^4"
            )
        # a w^3 error in the inverse, which composition must expose
        invert = onedof.partition_normal_form
        monkeypatch.setattr(
            onedof, "partition_normal_form",
            lambda series: invert(series) + WSeries(4, ring, {3: h}),
        )
        with pytest.raises(InternalCheckError) as caught:
            nf_from_S(s, gr(2))
        assert str(caught.value) == expected


class TestSymbolicReversion:
    """The inversion over a SymRing: u - T(u) has the constant lead 1."""

    LABEL = ((3,), (0,))
    RING = SymRing((LABEL,))

    def test_revert_with_constant_lead(self):
        ring, x = self.RING, self.RING.indeterminate(self.LABEL)
        t = WSeries(4, ring, {2: x})
        inverse = partition_normal_form(t)
        # the inverse of u - x u^2 is u + x u^2 + 2 x^2 u^3 + 5 x^3 u^4
        assert inverse == WSeries(
            4, ring, {1: ring.one, 2: x, 3: (x * x).scaled(2), 4: (x * x * x).scaled(5)}
        )
        identity = WSeries(4, ring, {1: ring.one})
        assert compose_wseries(identity - t, inverse) == identity
        assert compose_wseries(inverse, identity - t) == identity

    def test_non_constant_lead_is_a_usage_error(self):
        ring, x = self.RING, self.RING.indeterminate(self.LABEL)
        with pytest.raises(UsageError, match="starts at u\\^2"):
            partition_normal_form(WSeries(3, ring, {1: x, 2: ring.one}))

    def test_sum_runs_on_keys(self, monkeypatch):
        # the nine cubic and quartic labels as indeterminates, one in each T_k:
        # the inverse is formed on packed keys, with no SymScalar arithmetic
        labels = tuple(
            (pair.alpha, pair.beta) for degree in (3, 4) for pair in monomials(1, degree)
        )
        ring = SymRing(labels)
        h = [ring.indeterminate(label) for label in labels]
        t = WSeries(10, ring, {
            k: h[k - 2].scaled(Fraction(k, k + 1)) + ring.one.scaled((-1) ** k)
            for k in range(2, 11)
        })
        expected = WSeries(10, ring, {m: partition_oracle(t, m) for m in range(1, 11)})

        def refuse(*args):
            raise AssertionError("partition_normal_form did arithmetic on SymScalar values")

        monkeypatch.setattr(SymScalar, "__mul__", refuse)
        monkeypatch.setattr(SymScalar, "__add__", refuse)
        inverse = partition_normal_form(t)
        monkeypatch.undo()
        assert inverse == expected


class TestOneDofPipeline:
    def test_already_normal_input_is_reproduced(self):
        h = ham1(4, gr(1), {((2,), (2,)): 1})
        result = onedof_normal_form(h, gr(1))
        assert result.normal_form == h

    def test_stated_convention_differs(self):
        h = ham1(4, gr(1), {((2,), (2,)): 1})
        result = onedof_normal_form(h, gr(1), convention="stated")
        assert result.normal_form != h

    def test_matches_lie_pipeline(self):
        h = ham1(8, gr(1), {((3,), (0,)): 1, ((0,), (3,)): 1})
        result = onedof_normal_form(h, gr(1))
        lie_result = lie_normalize(h, FreqVector.of(gr(1)))
        assert result.normal_form == lie_result.normal_form

    def test_odd_order_truncation(self):
        h = ham1(7, gr(1), {((3,), (0,)): 1, ((0,), (3,)): 1})
        result = onedof_normal_form(h, gr(1))
        lie_result = lie_normalize(h, FreqVector.of(gr(1)))
        assert result.normal_form == lie_result.normal_form
        assert result.normal_form.grades() == [2, 4, 6]

    def test_imaginary_lambda_matches_lie(self):
        lam = gr(0, 1)
        h = ham1(6, lam, {((3,), (0,)): 1, ((0,), (3,)): 1})
        result = onedof_normal_form(h, lam)
        lie_result = lie_normalize(h, FreqVector.of(lam))
        assert result.normal_form == lie_result.normal_form

    def test_multi_dof_rejected(self):
        h = FreqVector.of(1, 2).quadratic_part(4)
        with pytest.raises(UsageError):
            onedof_normal_form(h, gr(1))


class TestSInvariance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariant_under_conjugation(self, seed):
        from birkhoff import random_symplectic_conjugate

        lam = gr(1)
        h = ham1(8, lam, {((3,), (0,)): 1, ((2,), (2,)): -1})
        conj = random_symplectic_conjugate(h, seed, max_degree=5)
        assert compute_S(h, lam, 4) == compute_S(conj, lam, 4)
