"""Property tests for the scalar and series layers and the three pipelines.

Drawn values and series are checked against independent computations:
plain (re, im) pairs of Fractions for Q(i), the dict oracles in
``helpers`` for symbolic scalars and for the series product and bracket,
numeric evaluation for symbolic series, and the flow-driven
``helpers.direct_normalize`` for every pipeline's normal form.  Any
rewrite of these layers must keep them passing.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from birkhoff import (
    GAUSSIAN_RING,
    ExponentPair,
    FreqVector,
    GaussianRational,
    PolySeries,
    SymRing,
    SymScalar,
    UsageError,
    WSeries,
    compute_S,
    form_by_recursion,
    form_by_trees,
    homological_operator,
    lie_normalize,
    nf_from_S,
    nf_via_trees,
    onedof_normal_form,
    partial_inverse,
    resonant_projection,
)
from birkhoff.scalars import GaussianInteger
from birkhoff.series import MAX_POWER, POWER_BITS, _layout, make_pair, monomials

from helpers import (
    add_oracle,
    direct_normalize,
    mul_oracle,
    partial_inverse_oracle,
    poisson_oracle,
    poisson_pairwise_oracle,
    poly_add,
    poly_evaluate,
    poly_mul,
    poly_scale,
    resonant_projection_oracle,
    s_oracle,
    scale_oracle,
    with_order_oracle,
)

FAST = settings(max_examples=60, deadline=None)
SLOW = settings(max_examples=25, deadline=None)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
nonzero_fractions = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
gaussians = st.builds(GaussianRational, fractions, fractions)
reals = st.builds(GaussianRational, fractions, st.just(Fraction(0)))
# real about half the time, so that real*real, real*complex and
# complex*real all occur
values_in_q_i = st.one_of(reals, gaussians)
scalings = st.one_of(st.integers(-5, 5), fractions)


def pair_of(value: GaussianRational) -> tuple[Fraction, Fraction]:
    return value.re, value.im


def assert_canonical(value: GaussianRational) -> None:
    """The stored triple (a, b, d) is in lowest terms with d > 0."""
    assert value.d > 0
    assert math.gcd(value.a, value.b, value.d) == 1


class TestGaussianRationalAgainstPairs:
    @FAST
    @given(a=values_in_q_i, b=values_in_q_i)
    def test_add_and_mul(self, a, b):
        (ar, ai), (br, bi) = pair_of(a), pair_of(b)
        assert pair_of(a + b) == (ar + br, ai + bi)
        assert pair_of(a - b) == (ar - br, ai - bi)
        assert pair_of(a * b) == (ar * br - ai * bi, ar * bi + ai * br)
        assert pair_of(-a) == (-ar, -ai)
        for value in (a + b, a - b, a * b, -a):
            assert_canonical(value)

    @FAST
    @given(a=reals, b=reals)
    def test_real_results_are_plain_reals(self, a, b):
        for value, re in ((a + b, a.re + b.re), (a - b, a.re - b.re),
                          (a * b, a.re * b.re), (a.scaled(3), a.re * 3)):
            assert value == GaussianRational.of(re)
            assert hash(value) == hash(GaussianRational.of(re))
            assert value.is_real

    @FAST
    @given(a=values_in_q_i, b=values_in_q_i)
    def test_eq_and_hash_follow_pairs(self, a, b):
        # (a + b) - b and a * 2 * 1/2 rebuild a by other routes
        rebuilt = ((a + b) - b, a.scaled(2) * GaussianRational.of(Fraction(1, 2)))
        for x, y in ((a, b), (a + b, b + a), *((a, r) for r in rebuilt)):
            assert (x == y) == (pair_of(x) == pair_of(y))
            if x == y:
                assert hash(x) == hash(y)

    @FAST
    @given(a=values_in_q_i, q=scalings)
    def test_scaled(self, a, q):
        assert pair_of(a.scaled(q)) == (a.re * q, a.im * q)
        assert a.scaled(q) == a * GaussianRational.of(q)
        assert_canonical(a.scaled(q))

    @FAST
    @given(a=values_in_q_i)
    def test_inverse(self, a):
        norm = a.re * a.re + a.im * a.im
        if norm == 0:
            assert a.is_zero
            return
        assert pair_of(a.inverse()) == (a.re / norm, -a.im / norm)
        assert a * a.inverse() == GaussianRational.of(1)
        assert_canonical(a.inverse())

    @FAST
    @given(re=fractions, im=fractions)
    def test_construction_is_canonical(self, re, im):
        value = GaussianRational(re, im)
        assert pair_of(value) == (re, im)
        assert_canonical(value)


@st.composite
def series_pairs(draw):
    """Two series of one shape: n = 1..3, order <= 6, real or complex values."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6))
    values = gaussians if draw(st.booleans()) else reals
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


PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def prime_denominator_series(draw):
    """Three complex series of one shape (n = 1..2, order 2..6), and a
    frequency vector.  Each coefficient is over a prime, the primes of one
    series are distinct, so each series' den is a product of primes."""
    n = draw(st.integers(1, 2))
    order = draw(st.integers(2, 6))
    pairs = [pair for degree in range(order + 1) for pair in monomials(n, degree)]
    primes = iter(draw(st.permutations(PRIMES)) * 3)
    parts = st.integers(-26, 26)

    def one_series():
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True))
        terms = {}
        for pair in chosen:
            p = next(primes)
            terms[pair] = GaussianRational.of(Fraction(draw(parts), p), Fraction(draw(parts), p))
        return PolySeries(n, order, GAUSSIAN_RING, terms)

    freq = FreqVector.of(*draw(st.lists(st.one_of(nonzero_fractions, gaussians.filter(
        lambda v: not v.is_zero)), min_size=n, max_size=n)))
    return one_series(), one_series(), one_series(), freq


def fields(series: PolySeries) -> tuple:
    return series.n, series.order, series.den, series.nums


SYM_RING = SymRing(tuple((pair.alpha, pair.beta) for pair in monomials(1, 3)))


@st.composite
def prime_denominator_symbolic_series(draw):
    """Three symbolic series over four indeterminates (n = 1..2, order 2..6)
    and a real frequency vector.  Each symbolic monomial's coefficient is over
    a prime, so the SymScalar values of one series have different
    denominators, and the values reach powers up to 3."""
    n = draw(st.integers(1, 2))
    order = draw(st.integers(2, 6))
    pairs = [pair for degree in range(order + 1) for pair in monomials(n, degree)]
    primes = iter(draw(st.permutations(PRIMES)) * 8)
    exponents = st.tuples(*[st.integers(0, 3)] * SYM_RING.nvars)

    def one_value():
        chosen = draw(st.lists(exponents, min_size=1, max_size=3, unique=True))
        return SymScalar(SYM_RING.nvars, {
            e: Fraction(draw(st.integers(-26, 26).filter(bool)), next(primes)) for e in chosen
        })

    def one_series():
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True))
        return PolySeries(n, order, SYM_RING, {pair: one_value() for pair in chosen})

    # resonant about half the time: (1, 1) and (1, 2) have resonant classes
    lam = st.one_of(nonzero_fractions, st.sampled_from([1, 2]))
    freq = FreqVector.of(*draw(st.lists(lam, min_size=n, max_size=n)))
    return one_series(), one_series(), one_series(), freq


class TestContentFormAgainstOracles:
    @FAST
    @given(case=prime_denominator_series(), q=scalings)
    def test_each_operation(self, case, q):
        f, g, _, freq = case
        assert f.poisson(g) == poisson_oracle(f, g)
        assert f.poisson(g) == poisson_pairwise_oracle(f, g)
        assert f * g == mul_oracle(f, g)
        assert f + g == add_oracle(f, g)
        assert f - g == add_oracle(f, scale_oracle(g, -1))
        assert f.scale(q) == scale_oracle(f, q)
        assert partial_inverse(f, freq) == partial_inverse_oracle(f, freq)

    @FAST
    @given(case=prime_denominator_symbolic_series(), q=scalings)
    def test_each_symbolic_operation(self, case, q):
        f, g, _, freq = case
        assert f.poisson(g) == poisson_oracle(f, g)
        assert f.poisson(g) == poisson_pairwise_oracle(f, g)
        assert f * g == mul_oracle(f, g)
        assert f + g == add_oracle(f, g)
        assert f - g == add_oracle(f, scale_oracle(g, -1))
        assert f.scale(q) == scale_oracle(f, q)
        assert partial_inverse(f, freq) == partial_inverse_oracle(f, freq)
        assert resonant_projection(f, freq) == resonant_projection_oracle(f, freq)
        for order in (f.order - 1, f.order + 1, 12):
            assert f.with_order(order) == with_order_oracle(f, order)

    @FAST
    @given(case=prime_denominator_symbolic_series())
    def test_one_symbolic_series_built_two_ways(self, case):
        f, g, h, _ = case
        for built, rebuilt in (
            ((f + g) * h, f * h + g * h),
            ((f + g).poisson(h), f.poisson(h) + g.poisson(h)),
        ):
            assert fields(built) == fields(rebuilt)
            assert fields(built) == fields(PolySeries(f.n, f.order, SYM_RING, built.terms))

    @FAST
    @given(case=prime_denominator_series())
    def test_one_series_built_two_ways(self, case):
        f, g, h, _ = case
        pairs = (
            ((f + g) * h, f * h + g * h),
            ((f + g).poisson(h), f.poisson(h) + g.poisson(h)),
        )
        for built, rebuilt in pairs:
            assert fields(built) == fields(rebuilt)
            assert hash(built) == hash(rebuilt)
            constructed = PolySeries(f.n, f.order, GAUSSIAN_RING, built.terms)
            assert fields(built) == fields(constructed)

    @FAST
    @given(case=prime_denominator_series())
    def test_with_order_across_a_field_width(self, case):
        # the key field width M.bit_length() is 3 at order 7 and 4 at order 8
        for low in (5, 7):
            f, g = case[0].with_order(low), case[1].with_order(low)
            wide_f, wide_g = f.with_order(low + 1), g.with_order(low + 1)
            assert dict(wide_f.terms) == dict(f.terms)
            assert fields(wide_f.with_order(low)) == fields(f)
            assert (wide_f * wide_g).with_order(low) == f * g
            assert wide_f.poisson(wide_g).with_order(low) == f.poisson(g)


@st.composite
def boundary_series_pairs(draw):
    """Two series with terms at and just below the truncation degree M.

    n = 1..3 and M <= 12.  The pure powers x_j^M and y_j^M are drawn often,
    and terms of degree <= 2 carry products and brackets of the top terms
    up to degree M, where the packed exponent fields are fullest.
    """
    n = draw(st.integers(1, 3))
    order = draw(st.integers(1, 12))
    top = [pair for degree in (order - 1, order) for pair in monomials(n, degree)]
    pure = [pair for pair in top if max(pair.alpha + pair.beta) == order]
    low = [pair for degree in range(min(order, 2) + 1) for pair in monomials(n, degree)]
    values = gaussians if draw(st.booleans()) else reals

    def one_series():
        chosen = []
        for pool, size in ((pure, 2), (top, 3), (low, 3)):
            chosen += draw(st.lists(st.sampled_from(pool), max_size=size, unique=True))
        return PolySeries(n, order, GAUSSIAN_RING, {p: draw(values) for p in chosen})

    return one_series(), one_series()


def pure_power_case(n: int, order: int) -> tuple[PolySeries, PolySeries]:
    """x_n^M + y_1^M and 1 + x_1 y_1 + x_n y_n: f * g and {f, g} both hold x_n^M."""
    def unit(j: int, power: int) -> tuple[int, ...]:
        return tuple(power if k == j else 0 for k in range(n))

    one = GaussianRational.of(1)
    f = PolySeries(n, order, GAUSSIAN_RING, {
        make_pair(unit(n - 1, order), unit(n - 1, 0)): one,
        make_pair(unit(0, 0), unit(0, order)): GaussianRational.of(2, 1),
    })
    g = PolySeries(n, order, GAUSSIAN_RING, {
        make_pair(unit(0, 0), unit(0, 0)): one,
        make_pair(unit(0, 1), unit(0, 1)): GaussianRational.of(3),
        make_pair(unit(n - 1, 1), unit(n - 1, 1)): GaussianRational.of(-1, 2),
    })
    return f, g


class TestSeriesAtTheTruncationDegree:
    @FAST
    @given(fg=boundary_series_pairs())
    @example(fg=pure_power_case(1, 12))
    @example(fg=pure_power_case(3, 12))
    @example(fg=pure_power_case(2, 5))
    def test_mul(self, fg):
        f, g = fg
        assert f * g == mul_oracle(f, g)

    @FAST
    @given(fg=boundary_series_pairs())
    @example(fg=pure_power_case(1, 12))
    @example(fg=pure_power_case(3, 12))
    @example(fg=pure_power_case(2, 5))
    def test_poisson(self, fg):
        f, g = fg
        assert f.poisson(g) == poisson_oracle(f, g)
        assert g.poisson(f) == poisson_oracle(g, f)


# numerator components up to 2**256 in size, both signs
huge = st.integers(-(1 << 256), 1 << 256)
huge_gaussians = st.builds(GaussianRational.of, huge, huge)
huge_reals = st.builds(GaussianRational.of, huge)


@st.composite
def huge_series_pairs(draw, right=huge_gaussians):
    """A complex series with huge components and a series of the same
    shape (n = 1..3, order <= 6) with values drawn from right."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6))
    pairs = [pair for degree in range(order + 1) for pair in monomials(n, degree)]

    def one_series(values):
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
        return PolySeries(n, order, GAUSSIAN_RING, {p: draw(values) for p in chosen})

    return one_series(huge_gaussians), one_series(right)


def assert_products_match_oracles(f: PolySeries, g: PolySeries) -> None:
    for left, right in ((f, g), (g, f)):
        assert left * right == mul_oracle(left, right)
        bracket = left.poisson(right)
        assert bracket == poisson_oracle(left, right)
        assert bracket == poisson_pairwise_oracle(left, right)


EXTREME = (1 << 256) - 1


def extreme_case(shape: str, sign: int) -> tuple[PolySeries, PolySeries]:
    """Two n = 3 series whose every numerator component is EXTREME, with the
    sign of g given.  "dense times one": f holds every monomial of degree
    <= 2 and g one term, so each key of f g gets exactly the one piece the
    packing bound allows; "chain": every power x_1^k, k <= 6, in both, so
    the key x_1^6 of f g gets min(|f|, |g|) = 7 pieces; "dense": both hold
    every monomial of degree <= 2."""
    value = GaussianRational.of(EXTREME, EXTREME)

    def series(pairs, value):
        return PolySeries(3, 6, GAUSSIAN_RING, {pair: value for pair in pairs})

    dense = [pair for degree in range(3) for pair in monomials(3, degree)]
    chain = [make_pair((k, 0, 0), (0, 0, 0)) for k in range(7)]
    f_pairs, g_pairs = {
        "dense times one": (dense, [make_pair((1, 0, 1), (1, 1, 0))]),
        "chain": (chain, chain),
        "dense": (dense, dense),
    }[shape]
    return series(f_pairs, value), series(g_pairs, value.scaled(sign))


def imaginary_parts_cancel(z: GaussianRational, w: GaussianRational) -> tuple:
    """f = z x_1 + conj(z) x_2 and g = w (x_2 + y_1) + conj(w) (x_1 + y_2) at
    n = 2: the x_1 x_2 coefficient of f g is z w + conj(z w), and {f, g} is
    its negative, sums of complex pieces with no imaginary part."""
    def conj(v: GaussianRational) -> GaussianRational:
        return GaussianRational.of(v.re, -v.im)

    def series(entries: dict) -> PolySeries:
        return PolySeries(2, 4, GAUSSIAN_RING, {
            make_pair(alpha, beta): value for (alpha, beta), value in entries.items()
        })

    x1, x2, y1, y2 = ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))
    f = series({x1: z, x2: conj(z)})
    g = series({x2: w, y1: w, x1: conj(w), y2: conj(w)})
    return f, g


class TestPackedNumerators:
    """Complex numerators a + b i go through the product loop packed as
    a + b 2**K; these operands stress the bound on K."""

    @FAST
    @given(fg=huge_series_pairs())
    def test_huge_complex_operands(self, fg):
        assert_products_match_oracles(*fg)

    @FAST
    @given(fg=huge_series_pairs(huge_reals))
    def test_one_real_operand(self, fg):
        assert_products_match_oracles(*fg)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("shape", ["dense times one", "chain", "dense"])
    def test_sums_at_the_packing_bound(self, shape, sign):
        f, g = extreme_case(shape, sign)
        assert_products_match_oracles(f, g)

    @FAST
    @given(z=gaussians.filter(lambda v: not v.is_real), w=gaussians.filter(lambda v: not v.is_real))
    def test_cancelled_imaginary_parts_give_ints(self, z, w):
        f, g = imaginary_parts_cancel(z, w)
        x1_x2 = 2 << f.layout.top | 1 << f.layout.shifts[0] | 1 << f.layout.shifts[1]
        product, bracket = f * g, f.poisson(g)
        assert type(product.nums.get(x1_x2, 0)) is int
        assert all(type(num) is int for num in bracket.nums.values())
        for result, oracle in ((product, mul_oracle(f, g)), (bracket, poisson_oracle(f, g))):
            assert_content_form(result)
            assert fields(result) == fields(oracle)


LABELS = tuple((pair.alpha, pair.beta) for pair in monomials(1, 3))[:3]
RING = SymRing(LABELS)


@st.composite
def sym_dicts(draw):
    """A polynomial of degree <= 2 in the ring's indeterminates, as a dict."""
    exponents = st.tuples(*[st.integers(0, 2)] * RING.nvars).filter(lambda e: sum(e) <= 2)
    return draw(st.dictionaries(exponents, fractions, max_size=3))


@st.composite
def sym_scalars(draw):
    return SymScalar(RING.nvars, draw(sym_dicts()))


def assert_sym_canonical(value: SymScalar) -> None:
    """Nonzero integer numerators over one denominator, in lowest terms."""
    assert value.den > 0 and all(value.nums.values())
    assert math.gcd(value.den, *value.nums.values()) == 1


class TestSymScalarAgainstDicts:
    @FAST
    @given(p=sym_dicts(), q=sym_dicts())
    def test_add_sub_mul(self, p, q):
        a, b = SymScalar(RING.nvars, p), SymScalar(RING.nvars, q)
        cases = (
            (a, poly_add(p, {})),
            (a + b, poly_add(p, q)),
            (a - b, poly_add(p, q, -1)),
            (-a, poly_scale(p, Fraction(-1))),
            (a * b, poly_mul(p, q)),
        )
        for value, expected in cases:
            assert value.terms == expected
            assert_sym_canonical(value)

    @FAST
    @given(p=sym_dicts(), q=scalings, r=reals)
    def test_scaled_and_times_real_gaussian(self, p, q, r):
        a = SymScalar(RING.nvars, p)
        for value, expected in ((a.scaled(q), poly_scale(p, q)), (a * r, poly_scale(p, r.re))):
            assert value.terms == expected
            assert_sym_canonical(value)

    @FAST
    @given(p=sym_dicts(), q=scalings, r=reals)
    @example(p={(1, 0, 0): Fraction(2, 3), (0, 1, 1): Fraction(-4, 5)}, q=0, r=GaussianRational.of(0))
    @example(
        p={(1, 0, 0): Fraction(2, 3), (0, 1, 1): Fraction(-4, 5)},
        q=Fraction(3, 2),
        r=GaussianRational.of(Fraction(15, 4)),
    )
    def test_negation_and_scaling_build_constructor_fields(self, p, q, r):
        # these paths skip the zero filter, and negation also the gcd
        a = SymScalar(RING.nvars, p)
        cases = (
            (-a, poly_scale(p, Fraction(-1))),
            (a.scaled(q), poly_scale(p, q)),
            (a * r, poly_scale(p, r.re)),
        )
        for value, expected in cases:
            built = SymScalar(RING.nvars, expected)
            assert (value.nvars, value.nums, value.den) == (built.nvars, built.nums, built.den)

    @FAST
    @given(p=sym_dicts(), values=st.lists(values_in_q_i, min_size=RING.nvars, max_size=RING.nvars))
    def test_evaluate(self, p, values):
        value = SymScalar(RING.nvars, p).evaluate(values)
        assert pair_of(value) == poly_evaluate(p, [pair_of(v) for v in values])

    @FAST
    @given(p=sym_scalars(), q=sym_scalars(), r=sym_scalars())
    def test_one_polynomial_built_two_ways(self, p, q, r):
        factored, expanded = (p + q) * r, p * r + q * r
        assert factored == expanded
        assert hash(factored) == hash(expanded)


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


@st.composite
def numeric_case(draw):
    """Two numeric series (n = 1..3, order <= 6) and a frequency vector."""
    f, g = draw(series_pairs())
    freq = FreqVector.of(*draw(st.lists(nonzero_fractions, min_size=f.n, max_size=f.n)))
    return f, g, freq


# Frequencies per dimension: resonant and non-resonant, real and complex.
# (1, 8) and (1, i) have no resonance but the diagonal through order 6.
FREQUENCIES = {
    1: [(1,), (2,), (Fraction(-1, 2),), (GaussianRational.of(0, 1),)],
    2: [(1, 1), (1, -1), (1, 2), (1, 8), (1, GaussianRational.of(0, 1))],
}


# x^6 and y^5: charges 6 and -5, beyond any cubic's
HIGH_CHARGE = (ExponentPair((6,), (0,)), ExponentPair((0,), (5,)))


@st.composite
def onedof_s_cases(draw):
    """One-DOF H of degree 3..6, a frequency and a w-degree wmax = 1..6.

    Supports may lack cubic terms, and may carry the high-charge monomials
    x^6 or y^5; coefficients are real or complex, lambda real or imaginary.
    """
    wmax = draw(st.integers(1, 6))
    freq = FreqVector.of(*draw(st.sampled_from(FREQUENCIES[1])))
    lowest = draw(st.sampled_from((3, 4)))
    highest = draw(st.integers(lowest, 6))
    pairs = [pair for degree in range(lowest, highest + 1) for pair in monomials(1, degree)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True))
    for pair in HIGH_CHARGE:
        if pair not in chosen and draw(st.booleans()):
            chosen.append(pair)
    values = gaussians if draw(st.booleans()) else reals
    tail = PolySeries(1, 6, GAUSSIAN_RING, {p: draw(values) for p in chosen})
    return freq.quadratic_part(6, GAUSSIAN_RING) + tail, freq.entries[0], wmax


def symmetric_case(wmax: int):
    """x^3 + y^3 + x^2 y^2 at lambda = 1: both cuts are tight on this support.

    The charge cut keeps x^{3k} at power k = mmax/2 only just, and the
    degree cut keeps (x y)^{wmax + m - 1} in every power m only just.
    """
    one = GaussianRational.of(1)
    terms = {ExponentPair((3,), (0,)): one, ExponentPair((0,), (3,)): one,
             ExponentPair((2,), (2,)): one}
    h = FreqVector.of(1).quadratic_part(6, GAUSSIAN_RING) + PolySeries(
        1, 6, GAUSSIAN_RING, terms
    )
    return h, one, wmax


# the nine cubic and quartic monomials of one degree of freedom
ONEDOF_PAIRS = [pair for degree in (3, 4) for pair in monomials(1, degree)]
SYMBOLIC_LAMBDAS = (1, 2, Fraction(5, 3))


def symbolic_onedof_hamiltonian(pairs, lam: GaussianRational, order: int) -> PolySeries:
    """H_2 + sum of one indeterminate per pair, over a SymRing."""
    ring = SymRing(tuple((pair.alpha, pair.beta) for pair in pairs))
    terms = {pair: ring.indeterminate((pair.alpha, pair.beta)) for pair in pairs}
    return FreqVector.of(lam).quadratic_part(order, ring) + PolySeries(1, order, ring, terms)


onedof_supports = st.lists(
    st.sampled_from(ONEDOF_PAIRS), min_size=1, max_size=len(ONEDOF_PAIRS), unique=True
)
symbolic_lambdas = st.sampled_from(SYMBOLIC_LAMBDAS).map(GaussianRational.of)


@st.composite
def symbolic_onedof_s_cases(draw):
    """One-DOF H over a SymRing, one indeterminate per monomial of a drawn
    subset of the cubics and quartics, a real lambda and wmax = 1..4."""
    lam = draw(symbolic_lambdas)
    return symbolic_onedof_hamiltonian(draw(onedof_supports), lam, 4), lam, draw(st.integers(1, 4))


def assert_content_form(series: PolySeries) -> None:
    """The content form every result must have: den > 0, gcd(den, every
    numerator component) = 1, and no zero numerator.  Each key holds 2n
    exponent fields whose sum is its degree field, at most the order, and
    below them one field per indeterminate of the ring, with its guard bit
    clear; over a SymRing every numerator is an int."""
    symbolic = isinstance(series.ring, SymRing)
    layout = _layout(series.n, series.order, series.ring.nvars)
    mask, power_mask = (1 << layout.width) - 1, (1 << POWER_BITS) - 1
    assert series.den > 0
    parts = []
    for key, num in series.nums.items():
        fields = [key >> s & mask for s in layout.shifts]
        powers = [key >> s & power_mask for s in layout.powers]
        assert len(fields) == 2 * series.n and len(powers) == series.ring.nvars
        assert key == (
            sum(f << s for f, s in zip(fields + powers, layout.shifts + layout.powers))
            | sum(fields) << layout.top
        )
        assert sum(fields) <= series.order
        assert not key & layout.guard and max(powers, default=0) <= MAX_POWER
        if type(num) is int:
            assert num != 0
            parts.append(num)
        else:
            assert not symbolic
            assert type(num) is GaussianInteger and num.im != 0
            parts += [num.re, num.im]
    assert math.gcd(series.den, *parts) == 1
    for pair in series.terms:
        assert len(pair.alpha) == len(pair.beta) == series.n


@contextmanager
def checked_make():
    """Check every series PolySeries._make builds, and collect them."""
    built = []
    make = PolySeries._make

    def checked(self, nums, den):
        series = make(self, nums, den)
        assert_content_form(series)
        built.append(series)
        return series

    with patch.object(PolySeries, "_make", checked):
        yield built


class TestResultsInContentForm:
    """Arithmetic results skip the checks of PolySeries.__init__ and are
    built by PolySeries._make; each must be in content form, cancelled sums
    and the powers of H_* in compute_S included."""

    @staticmethod
    def check_results(f: PolySeries, g: PolySeries, freq: FreqVector, q) -> None:
        with checked_make() as built:
            results = [
                f.poisson(g),
                f.poisson(f),  # {f, f} = 0: every term cancels
                f * g,
                (f + g) * (f - g),  # the cross terms cancel
                f + g,
                f - f,
                f + (-f),
                f.scale(q),
                f.filter_terms(lambda pair: pair.degree % 2 == 0),
                f.grade(3),
                partial_inverse(f, freq),
                homological_operator(f, freq),
                resonant_projection(f, freq),
            ]
        # every operation above ends in PolySeries._make
        assert len(built) >= len(results)
        assert f.poisson(f).is_zero and (f - f).is_zero and (f + (-f)).is_zero
        for series in (f, g, f.with_order(f.order + 1)):
            assert_content_form(series)  # and so is every constructed series

    @FAST
    @given(case=numeric_case(), q=scalings.filter(bool))
    def test_gaussian_ring(self, case, q):
        self.check_results(*case, q)

    @SLOW
    @given(case=symbolic_case(), q=scalings.filter(bool))
    def test_symbolic_ring(self, case, q):
        f, g, freq, _ = case
        self.check_results(f, g, freq, q)

    @SLOW
    @given(case=st.one_of(onedof_s_cases(), symbolic_onedof_s_cases()))
    def test_compute_s_powers(self, case):
        with checked_make() as built:
            compute_S(*case)
        assert len(built) >= 3  # the tail, the unit power and power 1


PIPELINES = settings(max_examples=100, deadline=None)


@st.composite
def hamiltonians(draw):
    """H2 of a drawn frequency vector, one to three cubics, up to two higher terms."""
    n = draw(st.integers(1, 2))
    order = draw(st.integers(4, 6))
    freq = FreqVector.of(*draw(st.sampled_from(FREQUENCIES[n])))
    values = gaussians if draw(st.booleans()) else reals
    cubics = list(monomials(n, 3))
    higher = [pair for degree in range(4, order + 1) for pair in monomials(n, degree)]
    chosen = draw(st.lists(st.sampled_from(cubics), min_size=1, max_size=3, unique=True))
    chosen += draw(st.lists(st.sampled_from(higher), max_size=2, unique=True))
    tail = PolySeries(n, order, GAUSSIAN_RING, {p: draw(values) for p in chosen})
    return freq.quadratic_part(order, GAUSSIAN_RING) + tail, freq


@st.composite
def form_arguments(draw):
    """A series of degree 3..4, a leaf count s = 1..5 and frequencies, n = 1..2.

    s cubic arguments give a form of degree s + 2, so the order leaves room
    for the form and one quartic argument.
    """
    n = draw(st.integers(1, 2))
    s = draw(st.integers(1, 5))
    order = s + 3
    freq = FreqVector.of(*draw(st.sampled_from(FREQUENCIES[n])))
    pairs = [pair for degree in (3, 4) for pair in monomials(n, degree)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2, unique=True))
    g = PolySeries(n, order, GAUSSIAN_RING, {p: draw(gaussians) for p in chosen})
    return g, s, freq


class TestPipelinesAgainstFlowOracle:
    @PIPELINES
    @given(case=hamiltonians())
    def test_every_pipeline_equals_direct_normalization(self, case):
        h, freq = case
        oracle_nf, oracle_gen = direct_normalize(h, freq)
        lie = lie_normalize(h, freq)
        assert lie.normal_form == oracle_nf
        assert lie.generator == oracle_gen
        assert nf_via_trees(h, freq, kernel_corrected=True).normal_form == oracle_nf
        if h.n == 1:
            assert onedof_normal_form(h, freq.entries[0]).normal_form == oracle_nf

    @PIPELINES
    @given(case=form_arguments())
    def test_plain_recursion_equals_tree_sum(self, case):
        g, s, freq = case
        expected = [form_by_trees([g] * r, freq) for r in range(1, s + 1)]
        assert form_by_recursion(g, s, freq) == expected


class TestComputeSAgainstUnprunedPowers:
    @settings(max_examples=100, deadline=None)
    @given(case=onedof_s_cases())
    @example(case=symmetric_case(2))
    @example(case=symmetric_case(6))
    def test_cuts_drop_nothing(self, case):
        h, lam, wmax = case
        assert compute_S(h, lam, wmax) == s_oracle(h, lam, wmax)

    def test_symbolic_cuts_drop_nothing(self):
        labels = tuple(
            (pair.alpha, pair.beta) for degree in (3, 4) for pair in monomials(1, degree)
        )
        ring = SymRing(labels)
        terms = {ExponentPair(*label): ring.indeterminate(label) for label in labels}
        lam = GaussianRational.of(2)
        h = FreqVector.of(lam).quadratic_part(4, ring) + PolySeries(1, 4, ring, terms)
        assert compute_S(h, lam, 4) == s_oracle(h, lam, 4)

    @SLOW
    @given(case=symbolic_onedof_s_cases())
    def test_symbolic_cuts_drop_nothing_on_drawn_supports(self, case):
        assert compute_S(*case) == s_oracle(*case)


class TestSymbolicOneDof:
    """onedof over a SymRing writes N_k as a polynomial in the input
    coefficients; it must equal symbolic lie and specialize to numeric onedof."""

    @SLOW
    @given(pairs=onedof_supports, lam=symbolic_lambdas, order=st.integers(4, 8))
    def test_equals_symbolic_lie(self, pairs, lam, order):
        h = symbolic_onedof_hamiltonian(pairs, lam, order)
        expected = lie_normalize(h, FreqVector.of(lam)).normal_form
        assert onedof_normal_form(h, lam).normal_form == expected

    def test_equals_symbolic_lie_on_every_monomial_at_order_10(self):
        lam = GaussianRational.of(Fraction(5, 3))
        h = symbolic_onedof_hamiltonian(ONEDOF_PAIRS, lam, 10)
        expected = lie_normalize(h, FreqVector.of(lam)).normal_form
        assert onedof_normal_form(h, lam).normal_form == expected

    @SLOW
    @given(
        pairs=onedof_supports,
        lam=symbolic_lambdas,
        order=st.integers(4, 8),
        convention=st.sampled_from(("proof", "stated")),
        data=st.data(),
    )
    def test_specialization_commutes(self, pairs, lam, order, convention, data):
        h = symbolic_onedof_hamiltonian(pairs, lam, order)
        values = [data.draw(values_in_q_i) for _ in pairs]
        numeric = FreqVector.of(lam).quadratic_part(order, GAUSSIAN_RING) + PolySeries(
            1, order, GAUSSIAN_RING, dict(zip(pairs, values))
        )
        symbolic_nu = onedof_normal_form(h, lam, convention).nu
        numeric_nu = onedof_normal_form(numeric, lam, convention).nu
        assert symbolic_nu.ring == h.ring
        for k in range(order // 2 + 1):
            assert symbolic_nu.coefficient(k).evaluate(values) == numeric_nu.coefficient(k)

    def test_stated_convention_runs_over_a_sym_ring(self):
        lam = GaussianRational.of(2)
        h = symbolic_onedof_hamiltonian(ONEDOF_PAIRS, lam, 8)
        proof = onedof_normal_form(h, lam).nu
        stated = onedof_normal_form(h, lam, "stated").nu
        assert stated.coefficient(1) == proof.coefficient(1) == h.ring.one * lam
        # N_2 is c lambda S_2: S_2 under proof, -lambda S_2 under stated
        assert stated.coefficient(2) == proof.coefficient(2).scaled(-2)
        assert stated != proof

    @pytest.mark.parametrize("convention", ("proof", "stated"))
    def test_complex_lambda_and_symbolic_lead_are_usage_errors(self, convention):
        h = symbolic_onedof_hamiltonian(ONEDOF_PAIRS, GaussianRational.of(1), 6)
        s = compute_S(h, GaussianRational.of(1), 3)
        with pytest.raises(UsageError, match="real rational frequencies"):
            nf_from_S(s, GaussianRational.of(0, 1), convention)
        label = (ONEDOF_PAIRS[0].alpha, ONEDOF_PAIRS[0].beta)
        lead = WSeries(3, s.ring, {1: s.ring.indeterminate(label)})
        with pytest.raises(UsageError, match="only when constant"):
            nf_from_S(s + lead, GaussianRational.of(1), convention)
