"""Splitting-operator tests: D, A, B and their algebraic identities."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from birkhoff import (
    FreqVector,
    GaussianRational,
    ParseError,
    PolySeries,
    SymRing,
    SymScalar,
    UsageError,
    homological_operator,
    image_projection,
    lie_normalize,
    make_pair,
    partial_inverse,
    resonant_pairs,
    resonant_projection,
    symbolic_normalize,
)
from birkhoff.scalars import gaussian_integer
from birkhoff.series import _layout, _pair_reader, bracket_sum, monomials, term_order

from helpers import (
    build_series,
    eigenvalue_oracle,
    gr,
    poisson_oracle,
    random_hamiltonian,
    random_series,
)


def freq(*values) -> FreqVector:
    return FreqVector.of(*[v if isinstance(v, GaussianRational) else gr(v) for v in values])


class TestFreqVector:
    def test_validation(self):
        with pytest.raises(UsageError):
            FreqVector.of()
        with pytest.raises(UsageError):
            freq(1, 0)
        with pytest.raises(UsageError):
            FreqVector.of("1")
        with pytest.raises(UsageError):
            FreqVector.of(0.5)

    def test_eigenvalue(self):
        lam = freq(1, 2)
        pair = make_pair((1, 0), (0, 2))
        assert lam.eigenvalue(pair) == gr(-3)

    def test_resonance_detection(self):
        lam = freq(1, -1)
        assert lam.is_resonant(make_pair((1, 1), (0, 0)))
        assert lam.is_resonant(make_pair((2, 2), (0, 0)))
        assert not lam.is_resonant(make_pair((1, 0), (0, 0)))
        assert freq(1).is_resonant(make_pair((2,), (2,)))

    def test_imaginary_entries(self):
        lam = FreqVector.of(gr(0, 1))
        assert lam.is_resonant(make_pair((2,), (2,)))
        assert not lam.is_resonant(make_pair((3,), (0,)))
        assert not lam.is_real

    def test_quadratic_part(self):
        lam = freq(2, 3)
        quad = lam.quadratic_part(6)
        assert quad == build_series(
            2, 6, {((1, 0), (1, 0)): 2, ((0, 1), (0, 1)): 3}
        )

    def test_json_round_trip(self):
        lam = FreqVector.of(gr(1), gr(0, -2))
        assert FreqVector.from_json(lam.to_json()) == lam

    def test_from_json_rejects_zero(self):
        with pytest.raises((UsageError, ParseError)):
            FreqVector.from_json(["1", "0"])


class TestOperators:
    def test_d_on_monomials(self):
        # D x^3 = 3 x^3 at lam = 1
        x3 = build_series(1, 4, {((3,), (0,)): 1})
        assert homological_operator(x3, freq(1)) == x3.scale(Fraction(3))
        # D (x1 y2^2) = -3 x1 y2^2 at lam = (1, 2)
        m = build_series(2, 4, {((1, 0), (0, 2)): 1})
        assert homological_operator(m, freq(1, 2)) == m.scale(Fraction(-3))

    def test_d_kills_resonant(self):
        m = build_series(2, 4, {((1, 1), (0, 0)): 5})
        assert homological_operator(m, freq(1, -1)).is_zero

    def test_a_keeps_resonant_only(self):
        s = build_series(
            2, 4, {((1, 1), (0, 0)): 1, ((2, 0), (0, 0)): 2, ((1, 0), (0, 1)): 3}
        )
        kept = resonant_projection(s, freq(1, -1))
        assert kept == build_series(2, 4, {((1, 1), (0, 0)): 1})

    def test_b_divides_by_eigenvalue(self):
        # B(x2^2 y1) = x2^2 y1 / 4 at lam = (2, 3)
        m = build_series(2, 4, {((0, 2), (1, 0)): 1})
        assert partial_inverse(m, freq(2, 3)) == m.scale(Fraction(1, 4))

    def test_symbolic_series_needs_real_eigenvalues(self):
        ring = SymRing((((3,), (0,)),))
        s = PolySeries(1, 4, ring, {make_pair((3,), (0,)): ring.indeterminate(((3,), (0,)))})
        with pytest.raises(UsageError, match="only real rational frequencies"):
            partial_inverse(s, FreqVector.of(gr(0, 1)))
        assert not partial_inverse(s, freq(2)).is_zero

    def test_b_kills_kernel(self):
        m = build_series(1, 4, {((2,), (2,)): 7, ((3,), (0,)): 6})
        out = partial_inverse(m, freq(1))
        assert out == build_series(1, 4, {((3,), (0,)): 2})

    def test_b_worked_example(self):
        # B(x^2 y + x y^2) = x^2 y - x y^2 at lam = 1
        s = build_series(1, 4, {((2,), (1,)): 1, ((1,), (2,)): 1})
        assert partial_inverse(s, freq(1)) == build_series(
            1, 4, {((2,), (1,)): 1, ((1,), (2,)): -1}
        )

    def test_dimension_mismatch(self):
        s = build_series(1, 4, {((3,), (0,)): 1})
        with pytest.raises(UsageError):
            homological_operator(s, freq(1, 2))

    def test_d_is_bracket_with_quadratic(self):
        for seed, lam in [(11, freq(1)), (12, freq(1, 8)), (13, freq(1, -1)), (14, FreqVector.of(gr(0, 1)))]:
            s = random_series(lam.n, 7, seed, min_degree=1, imaginary=True)
            quad = lam.quadratic_part(7)
            assert homological_operator(s, lam) == poisson_oracle(quad, s)


IDENTITY_FREQS = [
    freq(1),
    freq(2, 3),
    freq(1, -1),
    FreqVector.of(gr(0, 1), gr(Fraction(1, 2))),
]


class TestIdentities:
    @pytest.mark.parametrize("case", range(12))
    def test_projection_algebra(self, case):
        lam = IDENTITY_FREQS[case % len(IDENTITY_FREQS)]
        f = random_series(lam.n, 8, 2000 + case, min_degree=1, imaginary=True)
        a_f = resonant_projection(f, lam)
        b_f = partial_inverse(f, lam)
        d_f = homological_operator(f, lam)
        # A + DB = I and A + BD = I
        assert a_f + homological_operator(b_f, lam) == f
        assert a_f + partial_inverse(d_f, lam) == f
        # A is idempotent; B and D annihilate the A-image and vice versa
        assert resonant_projection(a_f, lam) == a_f
        assert partial_inverse(a_f, lam).is_zero
        assert homological_operator(a_f, lam).is_zero
        assert resonant_projection(b_f, lam).is_zero
        assert resonant_projection(d_f, lam).is_zero

    @pytest.mark.parametrize("case", range(6))
    def test_split_reassembles(self, case):
        lam = IDENTITY_FREQS[case % len(IDENTITY_FREQS)]
        f = random_series(lam.n, 8, 3000 + case, min_degree=1, imaginary=True)
        resonant = resonant_projection(f, lam)
        rest = f - resonant
        assert resonant_projection(rest, lam).is_zero
        assert homological_operator(partial_inverse(rest, lam), lam) == rest


# a ring of two indeterminates for symbolic operands
SYMBOLS = SymRing((((3,), (0,)), ((2,), (1,))))


def over_ring(f: PolySeries, ring: str) -> PolySeries:
    """f over Q (its real parts), over Q(i) as it is, or over SYMBOLS, each
    real part v as v h1 + h2**2."""
    if ring == "Q(i)":
        return f
    if ring == "Q":
        return PolySeries(f.n, f.order, f.ring, {pair: gr(v.re) for pair, v in f.terms.items()})
    return PolySeries(f.n, f.order, SYMBOLS, {
        pair: SymScalar(2, {(1, 0): v.re, (0, 2): 1}) for pair, v in f.terms.items()
    })


class TestImageProjection:
    """I - A against A, D and B, on each coefficient ring; a symbolic
    series needs real frequencies."""

    @pytest.mark.parametrize("ring, case", [
        (ring, case) for ring in ("Q", "Q(i)", "SymRing") for case in range(len(IDENTITY_FREQS))
        if ring != "SymRing" or IDENTITY_FREQS[case].is_real
    ])
    def test_identities(self, ring, case):
        lam = IDENTITY_FREQS[case]
        # the quadratic part is resonant, so neither projection is zero
        f = random_series(lam.n, 8, 3100 + case, 1, imaginary=True) + lam.quadratic_part(8)
        f = over_ring(f, ring)
        image, kernel = image_projection(f, lam), resonant_projection(f, lam)
        assert not image.is_zero and not kernel.is_zero
        assert image + kernel == f
        assert image == homological_operator(partial_inverse(f, lam), lam)
        assert resonant_projection(image, lam).is_zero


class TestResonantPairs:
    def test_nonresonant_has_no_offdiagonal(self):
        rows = resonant_pairs(freq(1, 8), 6)
        assert rows == []

    def test_sign_pair_resonance(self):
        rows = resonant_pairs(freq(1, -1), 2)
        keys = [(pair.alpha, pair.beta) for pair in rows]
        assert ((1, 1), (0, 0)) in keys and ((0, 0), (1, 1)) in keys
        assert len(rows) == 2

    def test_degree_five_resonance(self):
        rows = resonant_pairs(freq(2, 3), 5)
        keys = {(pair.alpha, pair.beta) for pair in rows}
        assert ((0, 2), (3, 0)) in keys and ((3, 0), (0, 2)) in keys

    def test_excludes_diagonal(self):
        rows = resonant_pairs(freq(1), 6)
        assert rows == []


class TestEigenvalueCache:
    """A FreqVector remembers eigenvalues by the series part of a key, so
    numeric and symbolic series of one order can share it."""

    def test_numeric_then_symbolic_then_numeric(self):
        order = 5
        hamiltonian = random_hamiltonian(freq(1, 2), order, seed=3, max_terms=8)
        support = [pair for pair in hamiltonian.terms if pair.degree >= 3]
        runs = (
            lambda fv: lie_normalize(hamiltonian, fv),
            lambda fv: symbolic_normalize(support, fv, order),
            lambda fv: lie_normalize(hamiltonian, fv),
        )
        shared = freq(1, 2)
        for run in runs:
            assert run(shared) == run(freq(1, 2))

    def test_a_symbolic_key_equal_to_a_numeric_key(self):
        # the constant h^k, with k the key of x over Q(i), has the key k too
        layout = _layout(1, 4, 0)
        k = 1 << layout.shifts[0] | 1 << layout.top
        ring = SymRing((((3,), (0,)),))
        x = build_series(1, 4, {((1,), (0,)): 1})
        constant = PolySeries(1, 4, ring, {make_pair((0,), (0,)): SymScalar(1, {(k,): 1})})
        shared = freq(3)
        assert partial_inverse(x, shared) == build_series(1, 4, {((1,), (0,)): Fraction(1, 3)})
        assert resonant_projection(constant, shared) == constant
        assert partial_inverse(constant, shared).is_zero
        assert partial_inverse(x, shared) == partial_inverse(x, freq(3))


# Frequency parts with unequal denominators and both signs, from a small
# pool so that drawn frequency vectors are often resonant.
PARTS = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
     Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(5, 6)]
)
FREQUENCIES = st.builds(GaussianRational, PARTS, PARTS).filter(lambda v: not v.is_zero)
# orders at the edges of the key field widths 3/4 and 4/5 bits
EDGE_ORDERS = st.sampled_from([7, 8, 15, 16])
CHARGES = settings(max_examples=40, deadline=None)


def freq_vectors(n: int):
    return st.lists(FREQUENCIES, min_size=n, max_size=n).map(FreqVector)


@st.composite
def exponent_pairs(draw, n: int, order: int):
    """A pair of degree <= order, its exponents often at the order itself."""
    sizes = st.integers(0, order)
    exps = draw(st.lists(st.one_of(sizes, st.just(order)), min_size=2 * n, max_size=2 * n))
    while sum(exps) > order:
        exps[exps.index(max(exps))] -= 1
    return make_pair(exps[:n], exps[n:])


@st.composite
def freq_and_pairs(draw):
    n = draw(st.integers(1, 3))
    order = draw(EDGE_ORDERS)
    fv = draw(freq_vectors(n))
    pairs = draw(st.lists(exponent_pairs(n, order), min_size=1, max_size=12, unique=True))
    return fv, order, pairs


def table_entry_oracle(alpha, beta, fv: FreqVector):
    """The eigenvalue and its inverse as ``_table`` stores them."""
    eig = eigenvalue_oracle(alpha, beta, fv)
    if eig.is_zero:
        return None
    inv = eig.inverse()
    return gaussian_integer(eig.a, eig.b), eig.d, gaussian_integer(inv.a, inv.b), inv.d


def resonant_pairs_oracle(fv: FreqVector, order: int) -> list:
    return sorted(
        (
            pair
            for degree in range(1, order + 1)
            for pair in monomials(fv.n, degree)
            if not pair.is_diagonal and eigenvalue_oracle(pair.alpha, pair.beta, fv).is_zero
        ),
        key=term_order,
    )


class TestIntegerCharges:
    """The integer charges over one common denominator against the
    GaussianRational sum of ``eigenvalue_oracle``."""

    def test_common_denominator(self):
        fv = FreqVector.of(gr(Fraction(1, 2)), gr(Fraction(-1, 3), Fraction(5, 4)))
        assert (fv.re, fv.im, fv.den) == ((6, -4), (0, 15), 12)

    @CHARGES
    @given(freq_and_pairs())
    def test_eigenvalue_and_resonance(self, case):
        fv, _, pairs = case
        for pair in pairs:
            eig = eigenvalue_oracle(pair.alpha, pair.beta, fv)
            assert fv.eigenvalue(pair) == eig
            assert fv.is_resonant(pair) == eig.is_zero

    @CHARGES
    @given(freq_and_pairs())
    def test_every_table_entry(self, case):
        fv, order, pairs = case
        series = build_series(fv.n, order, {(p.alpha, p.beta): 1 for p in pairs})
        table = fv._table(series)
        pair_of = _pair_reader(series.layout)
        assert table.keys() >= series.nums.keys()
        for key in series.nums:
            assert table[key] == table_entry_oracle(*pair_of(key), fv)

    @CHARGES
    @given(freq_and_pairs())
    def test_symbolic_key_shares_its_numeric_entry(self, case):
        fv, order, pairs = case
        label = pairs[0]
        ring = SymRing(((label.alpha, label.beta),))
        h = ring.indeterminate((label.alpha, label.beta))
        symbolic = PolySeries(fv.n, order, ring, {p: h for p in pairs})
        numeric = build_series(fv.n, order, {(p.alpha, p.beta): 1 for p in pairs})
        sym_table = fv._table(symbolic)
        num_table = fv._table(numeric)
        pair_of = _pair_reader(symbolic.layout)
        low = symbolic.layout.low
        assert low
        for key in symbolic.nums:
            assert sym_table[key] == table_entry_oracle(*pair_of(key), fv)
            assert sym_table[key] is num_table[key >> low]

    @CHARGES
    @given(freq_and_pairs())
    def test_top_charges_label_each_key(self, case):
        # (degree, <k, re>, <k, im>) with k = alpha - beta; the low fields
        # of a symbolic key change nothing
        fv, order, pairs = case
        label = pairs[0]
        ring = SymRing(((label.alpha, label.beta),))
        h = ring.indeterminate((label.alpha, label.beta))
        for series in (
            build_series(fv.n, order, {(p.alpha, p.beta): 1 for p in pairs}),
            PolySeries(fv.n, order, ring, {p: h * h for p in pairs}),
        ):
            charges = fv.top_charges(series)
            assert charges is fv.top_charges(series) and charges.order == order
            pair_of = _pair_reader(series.layout)
            for key in series.nums:
                pair = pair_of(key)
                degree, re, im = charges[key]
                assert degree == pair.degree
                assert GaussianRational(Fraction(re, fv.den), Fraction(im, fv.den)) == (
                    eigenvalue_oracle(pair.alpha, pair.beta, fv)
                )

    @pytest.mark.parametrize(
        "values, order, resonant",
        [
            ((1,), 7, False), ((1,), 8, True), ((1, 1, 1), 7, False), ((1, 1, 1), 6, True),
            ((1, 2), 3, True), ((1, 8), 5, False), ((1, 8), 9, True),
            ((1, gr(0, 1)), 5, False), ((1, gr(0, 1)), 6, True), ((1, -1), 2, True),
        ],
    )
    def test_top_charges_know_a_top_without_resonance(self, values, order, resonant):
        fv = freq(*values)
        charges = fv.top_charges(PolySeries.zero(fv.n, order))
        assert charges.resonant_top == resonant
        assert resonant == any(fv.is_resonant(pair) for pair in monomials(fv.n, order))
        assert charges is not fv.top_charges(PolySeries.zero(fv.n, order + 1))

    def test_bracket_sum_refuses_a_map_of_another_shape(self):
        fv = freq(1, 2)
        f = build_series(2, 6, {((1, 0), (0, 2)): 1, ((2, 1), (0, 0)): 2})
        ring = SymRing((((1, 0), (0, 2)),))
        for like in (PolySeries.zero(2, 7), PolySeries.zero(2, 5), PolySeries.zero(2, 6, ring)):
            with pytest.raises(UsageError, match="charge map"):
                bracket_sum([(f, f)], f, fv.top_charges(like))
        assert bracket_sum([(f, f)], f, fv.top_charges(f)).is_zero

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3).flatmap(
        # the brute force enumerates every monomial: n = 3 stops at order 8
        lambda n: st.tuples(freq_vectors(n), st.sampled_from([1, 2, 7, 8] + [15, 16] * (n < 3)))
    ))
    @example((FreqVector.of(gr(1, 1), gr(-1, -1)), 8))
    @example((FreqVector.of(gr(Fraction(1, 2), Fraction(1, 3)), gr(1, Fraction(2, 3))), 16))
    @example((FreqVector.of(gr(1), gr(1), gr(1)), 8))
    @example((FreqVector.of(gr(Fraction(1, 2)), gr(Fraction(-1, 3)), gr(1)), 8))
    def test_resonant_pairs_against_brute_force(self, case):
        fv, order = case
        assert resonant_pairs(fv, order) == resonant_pairs_oracle(fv, order)
