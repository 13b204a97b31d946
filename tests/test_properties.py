"""Property tests for the scalar and series layers.

Drawn values and series are checked against independent computations:
plain (re, im) pairs of Fractions for Q(i), the dict oracles in
``helpers`` for the series product and bracket, and numeric evaluation for
symbolic series.  Any rewrite of these layers must keep them passing.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from birkhoff import (
    GAUSSIAN_RING,
    FreqVector,
    GaussianRational,
    PolySeries,
    SymRing,
    SymScalar,
    partial_inverse,
)
from birkhoff.series import monomials

from helpers import mul_oracle, poisson_oracle

FAST = settings(max_examples=60, deadline=None)
SLOW = settings(max_examples=25, deadline=None)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
nonzero_fractions = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
gaussians = st.builds(GaussianRational, fractions, fractions)
scalings = st.one_of(st.integers(-5, 5), fractions)


def pair_of(value: GaussianRational) -> tuple[Fraction, Fraction]:
    return value.re, value.im


class TestGaussianRationalAgainstPairs:
    @FAST
    @given(a=gaussians, b=gaussians)
    def test_add_and_mul(self, a, b):
        (ar, ai), (br, bi) = pair_of(a), pair_of(b)
        assert pair_of(a + b) == (ar + br, ai + bi)
        assert pair_of(a - b) == (ar - br, ai - bi)
        assert pair_of(a * b) == (ar * br - ai * bi, ar * bi + ai * br)

    @FAST
    @given(a=gaussians, q=scalings)
    def test_scaled(self, a, q):
        assert pair_of(a.scaled(q)) == (a.re * q, a.im * q)
        assert a.scaled(q) == a * GaussianRational.of(q)

    @FAST
    @given(a=gaussians)
    def test_inverse(self, a):
        norm = a.re * a.re + a.im * a.im
        if norm == 0:
            assert a.is_zero
            return
        assert pair_of(a.inverse()) == (a.re / norm, -a.im / norm)
        assert a * a.inverse() == GaussianRational.of(1)


@st.composite
def series_pairs(draw):
    """Two series of one shape: n = 1..3, order <= 6, real or complex values."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6))
    values = gaussians if draw(st.booleans()) else st.builds(
        GaussianRational, fractions, st.just(Fraction(0))
    )
    pairs = [pair for degree in range(order + 1) for pair in monomials(n, degree)]

    def one_series():
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
        return PolySeries(n, order, GAUSSIAN_RING, {p: draw(values) for p in chosen})

    return one_series(), one_series()


class TestSeriesAgainstOracles:
    @FAST
    @given(fg=series_pairs())
    def test_mul(self, fg):
        f, g = fg
        assert f * g == mul_oracle(f, g)

    @FAST
    @given(fg=series_pairs())
    def test_poisson(self, fg):
        f, g = fg
        assert f.poisson(g) == poisson_oracle(f, g)


LABELS = tuple((pair.alpha, pair.beta) for pair in monomials(1, 3))[:3]
RING = SymRing(LABELS)


@st.composite
def sym_scalars(draw):
    """A polynomial of degree <= 2 in the ring's indeterminates."""
    exponents = st.tuples(*[st.integers(0, 2)] * RING.nvars).filter(lambda e: sum(e) <= 2)
    terms = draw(st.dictionaries(exponents, fractions, max_size=3))
    return SymScalar(RING.nvars, terms)


@st.composite
def symbolic_case(draw):
    """Two symbolic series, a real frequency vector and values to substitute."""
    n = draw(st.integers(1, 2))
    order = draw(st.integers(2, 5))
    pairs = [pair for degree in range(order + 1) for pair in monomials(n, degree)]

    def one_series():
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
        return PolySeries(n, order, RING, {p: draw(sym_scalars()) for p in chosen})

    freq = FreqVector.of(*draw(st.lists(nonzero_fractions, min_size=n, max_size=n)))
    values = draw(st.lists(gaussians, min_size=RING.nvars, max_size=RING.nvars))
    return one_series(), one_series(), freq, values


def evaluated(series: PolySeries, values) -> PolySeries:
    return PolySeries(
        series.n,
        series.order,
        GAUSSIAN_RING,
        {pair: value.evaluate(values) for pair, value in series.terms.items()},
    )


class TestSymbolicCommutesWithEvaluation:
    @SLOW
    @given(case=symbolic_case(), q=scalings)
    def test_scale(self, case, q):
        f, _, _, values = case
        assert evaluated(f.scale(q), values) == evaluated(f, values).scale(q)

    @SLOW
    @given(case=symbolic_case())
    def test_poisson(self, case):
        f, g, _, values = case
        assert evaluated(f.poisson(g), values) == evaluated(f, values).poisson(
            evaluated(g, values)
        )

    @SLOW
    @given(case=symbolic_case())
    def test_partial_inverse(self, case):
        f, _, freq, values = case
        assert evaluated(partial_inverse(f, freq), values) == partial_inverse(
            evaluated(f, values), freq
        )
