"""Property tests for the scalar and series layers and the three pipelines.

Drawn values and series are checked against independent computations:
plain (re, im) pairs of Fractions for Q(i), the dict oracles in
``helpers`` for symbolic scalars and for the series product and bracket,
numeric evaluation for symbolic series, the flow-driven
``helpers.direct_normalize`` for every pipeline's normal form, and the
two-table recursions of ``helpers`` for the one-table ``lie`` and
``trees`` recursions.  Any rewrite of these layers must keep them passing.
"""

import dataclasses
import io
import json
import math
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path
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
    check_structure,
    cli,
    compute_S,
    exp_lie,
    form_by_recursion,
    form_by_trees,
    homological_operator,
    lie_normalize,
    nf_from_S,
    nf_via_trees,
    onedof_normal_form,
    partial_inverse,
    partition_normal_form,
    resonant_projection,
    specialize,
    symbolic_normalize,
)
from birkhoff.scalars import GaussianInteger
from birkhoff.series import (
    MAX_POWER,
    POWER_BITS,
    _layout,
    bracket_sum,
    combination,
    make_pair,
    monomials,
)

from helpers import (
    add_oracle,
    bracket_pair_count,
    build_series,
    combination_oracle,
    deprit_tables_oracle,
    direct_normalize,
    exp_lie_oracle,
    hand_built_form,
    leaf_tables_oracle,
    mul_oracle,
    partial_inverse_oracle,
    partition_oracle,
    poisson_oracle,
    poisson_pairwise_oracle,
    poly_add,
    poly_evaluate,
    poly_mul,
    poly_scale,
    random_hamiltonian,
    resonant_projection_oracle,
    s_oracle,
    scale_oracle,
    series_like,
    series_terms,
    structure_rows_oracle,
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


def assert_sums_match_oracles(f: PolySeries, g: PolySeries, q: int | Fraction) -> None:
    """Every linear sum of f and g, both ways round, against the termwise
    oracles, in content form."""
    for left, right in ((f, g), (g, f)):
        items = [(q, left), (1, right), (-q, right)]
        for result, oracle in (
            (left + right, add_oracle(left, right)),
            (left - right, add_oracle(left, scale_oracle(right, -1))),
            (-left, scale_oracle(left, -1)),
            (left.scale(q), scale_oracle(left, q)),
            (combination(items, left), combination_oracle(items, left)),
        ):
            assert_content_form(result)
            assert fields(result) == fields(oracle)


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

    @FAST
    @given(fg=st.one_of(huge_series_pairs(), huge_series_pairs(huge_reals)), q=scalings)
    def test_huge_linear_sums(self, fg, q):
        assert_sums_match_oracles(*fg, q)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("shape", ["dense times one", "chain", "dense"])
    def test_sums_at_the_packing_bound(self, shape, sign):
        f, g = extreme_case(shape, sign)
        assert_products_match_oracles(f, g)
        assert_sums_match_oracles(f, g, Fraction(-7, 3))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_component_kept_per_operand(self, sign):
        # each operand scans its numerators for K once; a result starts
        # without the value
        f, g = extreme_case("dense", sign)
        for series in (f, g):
            assert series._big is None
        results = [bracket_sum([(f, g), (g, f)], f), f * g, combination([(1, f), (2, g)], f)]
        for series in (f, g):
            assert series._big == max(
                max(abs(value.a), abs(value.b)) * (series.den // value.d)
                for value in series.terms.values()
            )
        assert all(result._big is None for result in results)

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


RINGS = st.sampled_from(["rational", "huge", "symbolic"])


@st.composite
def series_pools(draw, dims=st.integers(1, 2), orders=st.integers(2, 6), rings=RINGS):
    """Four series of one shape (n = 1..2, order 2..6 by default) over one
    ring: Q, a SymRing, or Q(i) with components up to 2**256 of both signs,
    where each series is real or complex.  Every coefficient is over a
    prime and the primes of one series are distinct, so the denominators
    differ and the factors of a fused sum exceed 1.  A series may be empty."""
    ring = draw(rings)
    n = draw(dims)
    order = draw(orders)
    pairs = [pair for degree in range(order + 1) for pair in monomials(n, degree)]
    primes = iter(draw(st.permutations(PRIMES)) * 16)
    exponents = st.tuples(*[st.integers(0, 3)] * SYM_RING.nvars)

    def one_value(imaginary: bool):
        p = next(primes)
        if ring == "rational":
            return GaussianRational.of(Fraction(draw(st.integers(-26, 26)), p))
        if ring == "huge":
            im = Fraction(draw(huge), p) if imaginary else 0
            return GaussianRational.of(Fraction(draw(huge), p), im)
        chosen = draw(st.lists(exponents, min_size=1, max_size=3, unique=True))
        return SymScalar(SYM_RING.nvars, {
            e: Fraction(draw(st.integers(-26, 26).filter(bool)), next(primes)) for e in chosen
        })

    def one_series():
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
        imaginary = draw(st.booleans())
        values = {pair: one_value(imaginary) for pair in chosen}
        return PolySeries(n, order, SYM_RING if ring == "symbolic" else GAUSSIAN_RING, values)

    return [one_series() for _ in range(4)]


def bracket_sum_oracle(pairs, like: PolySeries) -> PolySeries:
    return combination_oracle([(1, poisson_oracle(f, g)) for f, g in pairs], like)


def conjugate(f: PolySeries) -> PolySeries:
    return PolySeries(f.n, f.order, f.ring, {
        pair: GaussianRational.of(value.re, -value.im) for pair, value in f.terms.items()
    })


def extreme_items(sign: int) -> list:
    """Terms of EXTREME components, alone and summed, over several
    denominators; the lone term of the first item reaches the bound on K."""
    value = GaussianRational.of(EXTREME, sign * EXTREME)
    one = make_pair((1, 0), (0, 1))
    return [
        (Fraction(1, 3), PolySeries(2, 4, GAUSSIAN_RING, {one: value})),
        (sign, PolySeries(2, 4, GAUSSIAN_RING, {
            pair: value.scaled(Fraction(1, 5)) for pair in monomials(2, 2)
        })),
        (Fraction(-7, 2), PolySeries(2, 4, GAUSSIAN_RING, {
            pair: value for pair in monomials(2, 3)
        })),
    ]


indices = st.integers(0, 3)


class TestLinearSumsThatCancel:
    @FAST
    @given(fg=huge_series_pairs(), q=scalings.filter(bool))
    def test_cancelled_imaginary_parts_give_ints(self, fg, q):
        # z + conj(z) is real: every packed sum cancels to an int numerator
        f, _ = fg
        f_bar = conjugate(f)
        items = [(q, f), (q, f_bar)]
        for result, oracle in (
            (f + f_bar, add_oracle(f, f_bar)),
            (f - (-f_bar), add_oracle(f, f_bar)),
            (combination(items, f), combination_oracle(items, f)),
        ):
            assert all(type(num) is int for num in result.nums.values())
            assert_content_form(result)
            assert fields(result) == fields(oracle)


class TestCoefficient:
    @FAST
    @given(pool=series_pools())
    def test_one_pair_read_without_the_terms_view(self, pool):
        # every pair up to one degree above the order: present, absent and
        # past the truncation
        f = pool[0]
        pairs = [pair for degree in range(f.order + 2) for pair in monomials(f.n, degree)]
        fresh = PolySeries(f.n, f.order, f.ring, f.terms)
        values = [fresh.coefficient(pair) for pair in pairs]
        assert fresh._terms is None
        assert values == [fresh.terms.get(pair, fresh.ring.zero) for pair in pairs]


class TestFusedSums:
    """bracket_sum and combination add up every product of a sum in one
    dict over the lcm of the denominators, with the left derivative lists
    of a bracket kept in the series; they must equal the sums of the
    per-term oracles."""

    @FAST
    @given(pool=series_pools(), data=st.data())
    def test_bracket_sum(self, pool, data):
        picks = data.draw(st.lists(st.tuples(indices, indices), max_size=5))
        pairs = [(pool[i], pool[j]) for i, j in picks]
        result = bracket_sum(pairs, pool[0])
        assert_content_form(result)
        assert fields(result) == fields(bracket_sum_oracle(pairs, pool[0]))

    @FAST
    @given(pool=series_pools(dims=st.integers(1, 3), orders=st.integers(3, 9)), data=st.data())
    def test_bracket_sum_through_a_degree(self, pool, data):
        # a bound t stops every row past degree t, so the sum is the
        # unbounded one restricted to degrees <= t, and t = M is the default
        picks = data.draw(st.lists(st.tuples(indices, indices), min_size=2, max_size=5))
        pairs = [(pool[i], pool[j]) for i, j in picks]
        like = pool[0]
        whole = bracket_sum(pairs, like)
        for t in range(like.order + 1):
            bounded = bracket_sum(pairs, like, through=t)
            assert_content_form(bounded)
            assert fields(bounded) == fields(whole.filter_terms(lambda pair: pair.degree <= t))
        assert fields(bracket_sum(pairs, like, through=like.order)) == fields(whole)
        with pytest.raises(UsageError, match="not both"):
            bracket_sum(pairs, like, FreqVector.of(*[1] * like.n), through=like.order)

    @FAST
    @given(pool=series_pools(), data=st.data())
    def test_combination(self, pool, data):
        picks = data.draw(st.lists(st.tuples(scalings, indices), max_size=5))
        items = [(q, pool[i]) for q, i in picks]
        result = combination(items, pool[0])
        assert_content_form(result)
        assert fields(result) == fields(combination_oracle(items, pool[0]))

    @FAST
    @given(pool=series_pools())
    def test_one_series_on_both_sides_across_calls(self, pool):
        f, g, h, _ = pool
        filled = bool(f.nums) and all(type(num) is int for num in f.nums.values())
        calls = (
            [(g, f)],  # f's right lists
            [(f, h), (h, f)],  # f's left lists, and its right ones again
            [(f, f), (g, f), (f, g)],
            [(f, g), (f, h)],
        )
        for pairs in calls:
            result = bracket_sum(pairs, f)
            assert_content_form(result)
            assert fields(result) == fields(bracket_sum_oracle(pairs, f))
            assert fields(f.poisson(g)) == fields(poisson_oracle(f, g))
        assert (f._left is not None and f._right is not None) == filled

    @FAST
    @given(pool=series_pools(), q=scalings.filter(bool))
    def test_sums_that_cancel(self, pool, q):
        f, g, h, _ = pool
        for result in (
            bracket_sum([(f, g), (h, f), (g, f), (f, h)], f),  # {f, g} = -{g, f}
            combination([(q, f), (q, g), (-q, f), (-q, g)], f),
        ):
            assert result.is_zero and result.den == 1 and result.nums == {}
        if f.ring is GAUSSIAN_RING:
            # z + conj(z) is real: every complex piece cancels to an int
            f_bar, g_bar = conjugate(f), conjugate(g)
            for result, oracle in (
                (bracket_sum([(f, g), (f_bar, g_bar)], f),
                 bracket_sum_oracle([(f, g), (f_bar, g_bar)], f)),
                (combination([(q, f), (q, f_bar)], f), combination_oracle([(q, f), (q, f_bar)], f)),
            ):
                assert all(type(num) is int for num in result.nums.values())
                assert_content_form(result)
                assert fields(result) == fields(oracle)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_combination_at_the_packing_bound(self, sign):
        items = extreme_items(sign)
        like = items[0][1]
        for chosen in (items[:1], items[1:2], items):
            result = combination(chosen, like)
            assert_content_form(result)
            assert fields(result) == fields(combination_oracle(chosen, like))

    @pytest.mark.parametrize("ring", [GAUSSIAN_RING, SYM_RING])
    def test_empty_and_zero_lists(self, ring):
        zero = PolySeries(2, 5, ring)
        f = series_like(zero, {((1, 0), (0, 2)): ring.one, ((0, 1), (1, 1)): ring.one})
        for result in (
            bracket_sum([], zero),
            bracket_sum([(zero, zero)], zero),
            bracket_sum([(zero, f), (f, zero)], f),
            combination([], zero),
            combination([(0, f), (3, zero), (Fraction(1, 2), zero)], f),
        ):
            assert fields(result) == fields(zero)
            assert result.ring is ring


# one frequency vector of each shape the resonant top must handle: n = 1 and
# 1:1:1 have no resonant monomial of odd degree, (1, 2) has resonant
# monomials of every degree, (1, i) has complex charges
CUT_FREQUENCIES = [(1,), (1, 2), (1, 1, 1), (1, GaussianRational.of(0, 1))]
CUT_IDS = ["1", "1:2", "1:1:1", "1:i"]
ODD_ORDERS, EVEN_ORDERS = st.sampled_from([3, 5]), st.sampled_from([2, 4, 6])


def resonant_below_top(series: PolySeries, freq: FreqVector) -> PolySeries:
    """The terms of series below its order, and those of the order that
    are resonant."""
    return series.filter_terms(lambda pair: pair.degree < series.order or freq.is_resonant(pair))


class CountedInt(int):
    """An int numerator that counts the products of two of its kind: the
    term pairs a product loop multiplies.  Any other product stays one."""

    pairs = 0

    def __mul__(self, other):
        if type(other) is CountedInt:
            CountedInt.pairs += 1
            return int(self) * int(other)
        return CountedInt(int(self) * other)

    __rmul__ = __mul__


class TestResonantTop:
    """Given a frequency vector, bracket_sum keeps of the truncation degree
    M only the resonant terms and multiplies no other pair that lands
    there; every lower term is as without the frequencies."""

    @pytest.mark.parametrize("orders", [ODD_ORDERS, EVEN_ORDERS], ids=["odd", "even"])
    @pytest.mark.parametrize("values", CUT_FREQUENCIES, ids=CUT_IDS)
    @SLOW
    @given(data=st.data())
    def test_bracket_sum_keeps_the_resonant_top(self, values, orders, data):
        freq = FreqVector.of(*values)
        pool = data.draw(series_pools(dims=st.just(freq.n), orders=orders))
        picks = data.draw(st.lists(st.tuples(indices, indices), max_size=5))
        pairs = [(pool[i], pool[j]) for i, j in picks]
        like = pool[0]
        result = bracket_sum(pairs, like, freq)
        assert_content_form(result)
        expected = resonant_below_top(bracket_sum_oracle(pairs, like), freq)
        assert fields(result) == fields(expected)

    @FAST
    @given(pool=series_pools(dims=st.just(2), orders=st.integers(3, 6)))
    def test_one_series_under_two_maps(self, pool):
        # g's partners are kept with the label table they were built for;
        # the table of other frequencies on the same layout must not reuse
        # them
        f, g, h, _ = pool
        pairs = [(f, g), (h, g), (g, g)]
        for values in ((1, 2), (1, -1), (2, 1), (1, 2)):
            freq = FreqVector.of(*values)
            result = bracket_sum(pairs, f, freq)
            expected = resonant_below_top(bracket_sum_oracle(pairs, f), freq)
            assert fields(result) == fields(expected)

    @pytest.mark.parametrize("values", CUT_FREQUENCIES, ids=CUT_IDS)
    @FAST
    @given(data=st.data())
    def test_multiplies_only_the_pairs_that_reach_the_result(self, values, data):
        freq = FreqVector.of(*values)
        pool = data.draw(series_pools(
            dims=st.just(freq.n), orders=st.integers(2, 6), rings=st.just("rational")
        ))
        picks = data.draw(st.lists(st.tuples(indices, indices), max_size=4))
        pairs = [(pool[i], pool[j]) for i, j in picks]
        cases = [
            (None, bracket_pair_count(pairs)),
            (freq, bracket_pair_count(pairs, freq)),
        ]
        for series in pool:
            series.nums = {key: CountedInt(num) for key, num in series.nums.items()}
        for top, expected in cases:
            CountedInt.pairs = 0
            bracket_sum(pairs, pool[0], top)
            assert CountedInt.pairs == expected

    @pytest.mark.parametrize("values", CUT_FREQUENCIES, ids=CUT_IDS)
    @SLOW
    @given(order=st.integers(3, 7), seed=st.integers(0, 10**6))
    def test_nf_via_trees_equals_its_uncut_result(self, values, order, seed):
        freq = FreqVector.of(*values)
        order = min(order, 5) if freq.n == 3 else order
        h = random_hamiltonian(freq, order, seed, max_terms=5)
        tail = h.filter_terms(lambda pair: pair.degree >= 3)
        zero = PolySeries.zero(freq.n, order)
        for corrected in (True, False):
            uncut = form_by_recursion(tail, max(order - 2, 1), freq, corrected)
            cut = form_by_recursion(tail, max(order - 2, 1), freq, corrected, top_resonant=True)
            # L_1 = tail is no sum of brackets
            assert cut == [tail] + [resonant_below_top(form, freq) for form in uncut[1:]]
            expected = freq.quadratic_part(order) + resonant_projection(
                combination([(1, form) for form in uncut], zero), freq
            )
            assert nf_via_trees(h, freq, corrected).normal_form == expected
            full = lie_normalize(h, freq, corrected)
            only = lie_normalize(h, freq, corrected, normal_form_only=True)
            assert only.normal_form == full.normal_form
            assert only.resonant_parts == full.resonant_parts
            assert only.generator is only.generator_parts is only.rhs_parts is None

    @pytest.mark.parametrize("values", CUT_FREQUENCIES[:3], ids=CUT_IDS[:3])
    @SLOW
    @given(data=st.data())
    def test_symbolic_normalize_equals_its_uncut_result(self, values, data):
        freq = FreqVector.of(*values)
        order = data.draw(st.integers(3, 5 if freq.n == 3 else 6))
        candidates = [pair for degree in (3, 4) for pair in monomials(freq.n, degree)]
        support = data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4,
                                     unique=True))
        support = [pair for pair in support if pair.degree <= order]
        symbolic = symbolic_normalize(support, freq, order)
        ring = symbolic.ring
        h = freq.quadratic_part(order, ring) + PolySeries(
            freq.n, order, ring, {pair: ring.indeterminate(pair) for pair in ring.labels}
        )
        uncut = lie_normalize(h, freq).normal_form
        assert symbolic.resonant == {
            pair: value for pair, value in uncut.terms.items() if pair.degree >= 3
        }


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


# Real frequencies from a small pool, so that drawn vectors are often
# resonant (1:1, 1:2, 1:-1, 1:1:2, ...) and sometimes not.
STRUCTURE_FREQUENCIES = st.sampled_from([1, 2, 3, -1, Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def structure_cases(draw):
    """A real frequency vector at n = 2 or 3, an order, a support of one to
    four pairs of degree 3 to the order, and one nonzero rational value
    per support pair."""
    n = draw(st.sampled_from([2, 3]))
    freq = FreqVector.of(*draw(st.lists(STRUCTURE_FREQUENCIES, min_size=n, max_size=n)))
    order = draw(st.integers(3, 6 if n == 2 else 5))
    candidates = [pair for degree in range(3, min(order, 4) + 1) for pair in monomials(n, degree)]
    support = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4, unique=True))
    values = {pair: GaussianRational.of(draw(nonzero_fractions)) for pair in support}
    return freq, order, values


class TestStructureOnDrawnSupports:
    """The symbolic normal form on drawn supports in two and three degrees
    of freedom: specializing it gives the numeric ``lie`` normal form, and
    every monomial of it meets the four constraints of ``check_structure``."""

    @SLOW
    @given(case=structure_cases())
    def test_specializes_and_meets_the_constraints(self, case):
        freq, order, values = case
        symbolic = symbolic_normalize(list(values), freq, order)
        h = freq.quadratic_part(order) + PolySeries(freq.n, order, GAUSSIAN_RING, values)
        assert specialize(symbolic, values) == lie_normalize(h, freq).normal_form
        report = check_structure(symbolic)
        assert report.verdict, report.first_violation


# lambda in 1:1, 1:2 and 1:-1 resonance, per dimension
RESONANT_FREQUENCIES = {
    1: [(1,), (2,), (-1,)],
    2: [(1, 1), (1, 2), (1, -1)],
    3: [(1, 1, 1), (1, 1, 2), (1, -1, 2)],
}


@st.composite
def drawn_structure_forms(draw):
    """The symbolic normal form of a drawn support: n = 1..3, order 3..6,
    one to four pairs of degree 3 to min(order, 4), at a resonant lambda."""
    n = draw(st.integers(1, 3))
    freq = FreqVector.of(*draw(st.sampled_from(RESONANT_FREQUENCIES[n])))
    order = draw(st.integers(3, 6))
    candidates = [pair for degree in range(3, min(order, 4) + 1) for pair in monomials(n, degree)]
    support = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=4, unique=True))
    return symbolic_normalize(support, freq, order)


def scaled_form(form, scales):
    """The form with the value at each resonant pair times its scale."""
    resonant = {pair: value.scaled(q) for (pair, value), q in zip(form.resonant.items(), scales)}
    return dataclasses.replace(form, resonant=resonant)


@st.composite
def hand_built_forms(draw):
    """A hand-built symbolic form at n = 1..3: up to three resonant pairs
    of degree 3..6, each a sum of up to three monomials of up to three
    factor labels of degree 3..4 (repeats give powers above 1, the empty
    monomial is the constant 1), scaled by a nonzero rational.  Most break
    some constraint."""
    n = draw(st.integers(1, 3))
    freq = FreqVector.of(*draw(st.sampled_from(RESONANT_FREQUENCIES[n])))
    pairs = [pair for degree in range(3, 7) for pair in monomials(n, degree)]
    labels = [pair for degree in (3, 4) for pair in monomials(n, degree)]
    monomial = st.lists(st.sampled_from(labels), max_size=3).map(tuple)
    coefficients = draw(st.dictionaries(
        st.sampled_from(pairs), st.lists(monomial, min_size=1, max_size=3), max_size=3
    ))
    form = hand_built_form(freq, 6, coefficients)
    return scaled_form(form, draw(st.lists(nonzero_fractions, min_size=3, max_size=3)))


# a failing n = 3 form: h[pair] itself passes and sorts first; the label
# h[1,0,0;0,0,2] alone and squared (a power of 2) give T_x = (0, -1, 0)
# and (1, -1, 0); the constant on a later pair breaks three constraints;
# the scales make the coefficients -3/2 and 5/4
N3_PAIR = make_pair((1, 1, 0), (0, 1, 1))
N3_LABEL = make_pair((1, 0, 0), (0, 0, 2))
VIOLATING_N3 = scaled_form(
    hand_built_form(
        FreqVector.of(1, 1, 1), 6,
        {
            N3_PAIR: [(N3_LABEL, N3_LABEL), (N3_LABEL,), (N3_PAIR,)],
            make_pair((2, 1, 1), (1, 1, 0)): [()],
        },
    ),
    [Fraction(-3, 2), Fraction(5, 4)],
)
EMPTY_FORM = hand_built_form(FreqVector.of(1, 2), 5, {})
STRUCTURE_INPUT = str(Path(__file__).resolve().parent / "golden" / "onedof_real.json")


class TestStructureRowsAgainstOracle:
    """``check_structure`` builds the oracle's rows, in order, with the
    verdict and the first failing row itself."""

    @staticmethod
    def assert_rows(form):
        report = check_structure(form)
        assert list(report.rows) == structure_rows_oracle(form)
        assert report.verdict == all(row["pass"] for row in report.rows)
        failing = [row for row in report.rows if not row["pass"]]
        if failing:
            assert report.first_violation is failing[0]
        else:
            assert report.first_violation is None
        # every row owns its lists
        lists = [id(v) for row in report.rows for v in row.values() if type(v) is list]
        assert len(lists) == len(set(lists))

    @SLOW
    @given(form=drawn_structure_forms())
    def test_drawn_supports(self, form):
        self.assert_rows(form)

    @FAST
    @given(form=hand_built_forms())
    @example(form=VIOLATING_N3)
    @example(form=EMPTY_FORM)
    def test_hand_built_forms(self, form):
        self.assert_rows(form)


class TestStructureJsonText:
    """A structure report writes the text of ``json.dumps`` of its
    ``to_json`` view, and ``structure`` prints it."""

    @staticmethod
    def nested_json(report, newline: str) -> str:
        return json.dumps(report.to_json(), indent=2).replace("\n", newline)

    @SLOW
    @given(form=drawn_structure_forms(), indent=st.integers(0, 8))
    def test_drawn_supports(self, form, indent):
        report = check_structure(form)
        newline = "\n" + " " * indent
        assert report.json_text(newline) == self.nested_json(report, newline)

    @FAST
    @given(form=hand_built_forms(), indent=st.integers(0, 8))
    @example(form=VIOLATING_N3, indent=0)
    @example(form=EMPTY_FORM, indent=3)
    def test_hand_built_forms(self, form, indent):
        report = check_structure(form)
        newline = "\n" + " " * indent
        assert report.json_text(newline) == self.nested_json(report, newline)

    @FAST
    @given(form=hand_built_forms())
    @example(form=VIOLATING_N3)
    @example(form=EMPTY_FORM)
    def test_structure_prints_the_report(self, form):
        report = check_structure(form)
        out = io.StringIO()
        with patch("birkhoff.cli.symbolic_normalize", lambda support, freq, order: form):
            with redirect_stdout(out):
                code = cli.main(["structure", "--order", "4", "--input", STRUCTURE_INPUT])
        assert code == (0 if report.verdict else 1)
        assert out.getvalue() == json.dumps(report.to_json(), indent=2) + "\n"


@st.composite
def numeric_case(draw):
    """Two numeric series (n = 1..3, order <= 6) and a frequency vector."""
    f, g = draw(series_pairs())
    freq = FreqVector.of(*draw(st.lists(nonzero_fractions, min_size=f.n, max_size=f.n)))
    return f, g, freq


# Frequencies per dimension: resonant and non-resonant, real and complex.
# (1, 8), (1, i) and (1, 9, 81) have no resonance but the diagonal through
# order 6.
FREQUENCIES = {
    1: [(1,), (2,), (Fraction(-1, 2),), (GaussianRational.of(0, 1),)],
    2: [(1, 1), (1, -1), (1, 2), (1, 8), (1, GaussianRational.of(0, 1))],
    3: [(1, 1, 1), (1, 2, 3), (1, 9, 81)],
}


# x^6 and y^5: charges 6 and -5, beyond any cubic's
HIGH_CHARGE = (ExponentPair((6,), (0,)), ExponentPair((0,), (5,)))


@st.composite
def onedof_s_cases(draw):
    """One-DOF H of degree 3..6, a frequency and a w-degree wmax = 1..6.

    Supports may lack cubic and quartic terms, and may carry the
    high-charge monomials x^6 or y^5; coefficients are real or complex,
    lambda real or imaginary.
    """
    wmax = draw(st.integers(1, 6))
    freq = FreqVector.of(*draw(st.sampled_from(FREQUENCIES[1])))
    # without a cubic the charge rate of the reach cut comes from a term of
    # higher degree, such as 2 for x^4 or 5/3 for x^5
    lowest = draw(st.sampled_from((3, 4, 5)))
    highest = draw(st.integers(lowest, 6))
    pairs = [pair for degree in range(lowest, highest + 1) for pair in monomials(1, degree)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True))
    for pair in HIGH_CHARGE:
        if pair not in chosen and draw(st.booleans()):
            chosen.append(pair)
    values = gaussians if draw(st.booleans()) else reals
    tail = PolySeries(1, 6, GAUSSIAN_RING, {p: draw(values) for p in chosen})
    return freq.quadratic_part(6, GAUSSIAN_RING) + tail, freq.entries[0], wmax


def rate_case(exponents, wmax: int):
    """H_2 + the given monomials x^a y^b at lambda = 1, coefficients 1 + k i.

    For supports without a cubic, where the charge rate r of the reach cut
    comes from a term of higher degree: r = 5/3 for x^5 + y^5 + x^2 y^3
    and r = 2 for x^4 + x^2 y^2 + x y^3.
    """
    terms = {
        ExponentPair((a,), (b,)): GaussianRational.of(1, k)
        for k, (a, b) in enumerate(exponents, start=1)
    }
    h = FreqVector.of(1).quadratic_part(6, GAUSSIAN_RING) + PolySeries(
        1, 6, GAUSSIAN_RING, terms
    )
    return h, GaussianRational.of(1), wmax


def symmetric_case(wmax: int):
    """x^3 + y^3 + x^2 y^2 at lambda = 1: the reach cut is tight on this support.

    With r = 3 it keeps x^{3k} at power k = mmax/2 only just (|charge| =
    r * slack), and (x y)^{wmax + m - 1} in every power m only just
    (slack 0).
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
        assert len(built) >= 3  # the unit power, power 1 and the sum


PIPELINES = settings(max_examples=100, deadline=None)


@st.composite
def hamiltonians(draw, dims=st.integers(1, 2), orders=st.integers(4, 6)):
    """H2 of a drawn frequency vector, one to three cubics, up to two higher terms."""
    n = draw(dims)
    order = draw(orders)
    freq = FreqVector.of(*draw(st.sampled_from(FREQUENCIES[n])))
    values = gaussians if draw(st.booleans()) else reals
    cubics = list(monomials(n, 3))
    higher = [pair for degree in range(4, order + 1) for pair in monomials(n, degree)]
    chosen = draw(st.lists(st.sampled_from(cubics), min_size=1, max_size=3, unique=True))
    if higher:
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


@st.composite
def exp_lie_cases(draw):
    """A generator F and a target G of one shape, n = 1..3, order M = 3..9,
    with real or complex values.  F holds terms of one degree 3..M (the
    top degree alone among them) or of several; the lowest degree g of G
    is drawn from 0..M, so the Horner depth M - g runs from M down to 0,
    and about one G in ten is zero."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(3, 9))
    values = draw(st.sampled_from([reals, gaussians]))

    def one_series(degrees, min_size: int) -> PolySeries:
        pool = [pair for degree in degrees for pair in monomials(n, degree)]
        chosen = draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=3, unique=True))
        return PolySeries(n, order, GAUSSIAN_RING, {p: draw(values) for p in chosen})

    single = draw(st.one_of(st.none(), st.integers(3, order)))
    generator = one_series(range(3, order + 1) if single is None else [single], 1)
    if draw(st.integers(0, 9)) == 0:
        return generator, PolySeries.zero(n, order)
    lowest = draw(st.integers(0, order))
    return generator, one_series([lowest], 1) + one_series(range(lowest, order + 1), 0)


I_ONLY, I_PLUS_2 = GaussianRational.of(0, 1), GaussianRational.of(2, 1)


def one_dof_case(order: int, generator: dict, target: dict) -> tuple:
    """(F, G) at n = 1 from their {(alpha, beta): value} entries."""
    return build_series(1, order, generator), build_series(1, order, target)


class TestExpLieAgainstOracle:
    @FAST
    @given(case=exp_lie_cases())
    # the top degree alone, on a target of degrees 0 and 2
    @example(case=one_dof_case(6, {((6,), (0,)): I_PLUS_2}, {((0,), (0,)): 3, ((1,), (1,)): 1}))
    # a constant target at depth K = M, W[K] = G / K! needed at degree 0
    @example(case=one_dof_case(9, {((3,), (0,)): 1, ((2,), (1,)): I_ONLY}, {((0,), (0,)): 1}))
    # the zero target: no level at all
    @example(case=one_dof_case(5, {((4,), (0,)): 2}, {}))
    def test_exp_lie(self, case):
        generator, target = case
        result = exp_lie(generator, target)
        assert_content_form(result)
        assert fields(result) == fields(exp_lie_oracle(generator, target))


def deep_table_case(values: tuple, seed: int) -> tuple[PolySeries, FreqVector]:
    """H2 and up to six cubics at order 8."""
    freq = FreqVector.of(*values)
    return random_hamiltonian(freq, 8, seed, max_degree=3), freq


DEEP_TABLE_CASES = [
    deep_table_case((1, 1, 1), 1),
    deep_table_case((1, GaussianRational.of(0, 1)), 6),
]


class TestOneTableAgainstTwoTables:
    """Each recursion's one Horner table gives what its two tables gave,
    every part and every mode, on real, complex and resonant frequencies.
    The examples fill both tables to order 8 at n = 3 and n = 2."""

    @PIPELINES
    @given(case=hamiltonians(dims=st.integers(1, 3), orders=st.integers(3, 8)))
    @example(case=DEEP_TABLE_CASES[0])
    @example(case=DEEP_TABLE_CASES[1])
    def test_lie_normalize(self, case):
        h, freq = case
        for corrected in (True, False):
            for only in (False, True):
                result = lie_normalize(h, freq, corrected, only)
                expected = deprit_tables_oracle(h, freq, corrected, only)
                assert result.normal_form == expected.normal_form
                assert result.generator == expected.generator
                assert result.rhs_parts == expected.rhs_parts
                assert result.resonant_parts == expected.resonant_parts
                assert result.generator_parts == expected.generator_parts

    @PIPELINES
    @given(case=hamiltonians(dims=st.integers(1, 3), orders=st.integers(3, 8)))
    @example(case=DEEP_TABLE_CASES[0])
    @example(case=DEEP_TABLE_CASES[1])
    def test_form_by_recursion(self, case):
        h, freq = case
        tail = h.filter_terms(lambda pair: pair.degree >= 3)
        smax = max(h.order - 2, 1)
        for corrected in (True, False):
            for top in (False, True):
                forms = form_by_recursion(tail, smax, freq, corrected, top_resonant=top)
                assert forms == leaf_tables_oracle(tail, smax, freq, corrected, top)


def times(series: PolySeries, c: GaussianRational) -> PolySeries:
    """c times a numeric series, value by value."""
    return series_like(series, {key: c * value for key, value in series_terms(series).items()})


# real, imaginary and complex scales, of both signs
SCALES = [
    GaussianRational.of(c, d)
    for c, d in ((0, 1), (1, 1), (Fraction(-2, 3), 0), (2, -1), (0, Fraction(-1, 3)))
]


class TestLambdaScaling:
    """The map that normalizes H normalizes c H for a nonzero c in Q(i): D
    and every right-hand side scale by c, so the generator is unchanged and
    N(c lambda, c h) = c N(lambda, h), h the part of degree >= 3.  A real
    lambda times c = i drives the complex eigenvalues of B and A and the
    resonance test, and an imaginary one the converse."""

    @SLOW
    @given(
        case=hamiltonians(dims=st.integers(1, 3)),
        c=st.sampled_from(SCALES),
        corrected=st.booleans(),
    )
    def test_lie_and_trees(self, case, c, corrected):
        h, freq = case
        scaled_freq = FreqVector.of(*[c * lam for lam in freq.entries])
        lie = lie_normalize(h, freq, corrected)
        scaled = lie_normalize(times(h, c), scaled_freq, corrected)
        assert scaled.normal_form == times(lie.normal_form, c)
        assert scaled.generator == lie.generator
        trees = nf_via_trees(h, freq, corrected).normal_form
        assert nf_via_trees(times(h, c), scaled_freq, corrected).normal_form == times(trees, c)

    @SLOW
    @given(case=hamiltonians(dims=st.just(1)), c=st.sampled_from(SCALES))
    def test_onedof(self, case, c):
        h, freq = case
        (lam,) = freq.entries
        nf = onedof_normal_form(h, lam).normal_form
        assert onedof_normal_form(times(h, c), c * lam).normal_form == times(nf, c)


@st.composite
def written_series(draw):
    """A numeric series, n = 1..3 and order 0..9 (across a key-field width),
    over one drawn den > 1 with components up to 2**256 of both signs, each
    value real or complex, so int and Gaussian numerators mix."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 9))
    den = draw(st.integers(2, 1 << 64))
    pairs = [pair for degree in range(order + 1) for pair in monomials(n, degree)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True))
    parts = st.one_of(st.just(0), huge)
    return PolySeries(n, order, GAUSSIAN_RING, {
        pair: GaussianRational.of(Fraction(draw(huge), den), Fraction(draw(parts), den))
        for pair in chosen
    })


def nested_json(series: PolySeries, newline: str) -> str:
    return json.dumps(series.to_json_terms(), indent=2).replace("\n", newline)


class TestSeriesJsonText:
    """A series writes the text of ``json.dumps`` of its plain-data view."""

    @FAST
    @given(s=written_series(), indent=st.integers(0, 8))
    @example(s=PolySeries.zero(2, 4), indent=0)
    def test_equals_nested_json_dumps(self, s, indent):
        newline = "\n" + " " * indent
        assert s.json_text(newline) == nested_json(s, newline)

    @FAST
    @given(pool=series_pools(dims=st.integers(1, 3), orders=st.integers(0, 9)),
           indent=st.integers(0, 8))
    def test_every_ring(self, pool, indent):
        newline = "\n" + " " * indent
        for s in pool:
            assert s.json_text(newline) == nested_json(s, newline)


def symbolic_values(nvars: int):
    """Polynomials of up to two terms of degree <= 2 in nvars indeterminates."""
    exponents = st.tuples(*[st.integers(0, 2)] * nvars).filter(lambda e: sum(e) <= 2)
    return st.dictionaries(exponents, nonzero_fractions, max_size=2).map(
        lambda terms: SymScalar(nvars, terms)
    )


PARTITION_RING = SymRing((((3,), (0,)), ((0,), (3,))))


@st.composite
def partition_inputs(draw):
    """T = sum_{k=2}^{o} T_k u^k at a w-order o = 2..12, some T_k zero, over
    Q(i) (complex values included) or a SymRing."""
    order = draw(st.integers(2, 12))
    symbolic = draw(st.booleans())
    ring = PARTITION_RING if symbolic else GAUSSIAN_RING
    values = symbolic_values(ring.nvars) if symbolic else values_in_q_i
    coeffs = {
        k: draw(values) for k in range(2, order + 1) if draw(st.integers(0, 3))
    }
    return WSeries(order, ring, coeffs)


class TestPartitionTableAgainstEnumeration:
    """The grouped table of partition_normal_form regroups the terms of the
    partition sum; it must equal the sum formed one partition at a time."""

    @SLOW
    @given(s_series=partition_inputs())
    def test_every_coefficient(self, s_series):
        order, ring = s_series.order, s_series.ring
        expected = WSeries(
            order, ring, {m: partition_oracle(s_series, m) for m in range(1, order + 1)}
        )
        assert partition_normal_form(s_series) == expected


class TestComputeSAgainstUnprunedPowers:
    @settings(max_examples=100, deadline=None)
    @given(case=onedof_s_cases())
    @example(case=symmetric_case(2))
    @example(case=symmetric_case(6))
    @example(case=rate_case([(5, 0), (0, 5), (2, 3)], 6))
    @example(case=rate_case([(4, 0), (2, 2), (1, 3)], 6))
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
        with pytest.raises(UsageError) as caught:
            nf_from_S(s + lead, GaussianRational.of(1), convention)
        assert str(caught.value) == "the partition formula needs a series that starts at u^2"
