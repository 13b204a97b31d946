"""Independent oracles and builders shared by the test suite.

Everything here recomputes results through a different route than the
library code under test: dense dict arithmetic on the values (over Q(i)
or, with ``SymScalar`` arithmetic, over a ``SymRing``) instead of the series
class, Poisson brackets from partial derivatives and from the formula for
one term pair, normalization driven purely by flow conjugation, series
composition instead of reversion, the partition sum of Lagrange
inversion by enumeration, the invariant series S from unpruned powers,
dicts of Fractions for symbolic scalars, and the Akiyama-Tanigawa
tableau for Bernoulli numbers.  Tests compare library output against
these, so a shared bug would have to be implemented twice in two
different shapes to slip through.  It also holds the environment for
tests that start a child interpreter.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from pathlib import Path

import birkhoff
from birkhoff import (
    GAUSSIAN_RING,
    ExponentPair,
    FreqVector,
    GaussianRational,
    PolySeries,
    WSeries,
    exp_lie,
    make_pair,
    partial_inverse,
)

Coeff = GaussianRational

# The checkout holding this test suite, and the directory from which this
# process imported birkhoff; child interpreters run from the first and
# import from the second.
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = Path(birkhoff.__file__).resolve().parents[1]


def child_env(hash_seed: int | None = None) -> dict:
    """Environment for a child interpreter that imports the same birkhoff.

    SRC_DIR goes first on PYTHONPATH, so the child finds the package this
    process tests whatever its working directory and whether or not a copy
    is installed.
    """
    env = dict(os.environ)
    paths = [str(SRC_DIR), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def gr(re: int | Fraction, im: int | Fraction = 0) -> GaussianRational:
    return GaussianRational.of(re, im)


def build_series(n: int, order: int, entries: dict) -> PolySeries:
    """Build a numeric series from {(alpha, beta): coeff} with lax coeffs."""
    terms = {}
    for (alpha, beta), value in entries.items():
        if not isinstance(value, GaussianRational):
            value = GaussianRational.of(value)
        terms[make_pair(tuple(alpha), tuple(beta))] = value
    return PolySeries(n, order, GAUSSIAN_RING, terms)


def series_terms(series: PolySeries) -> dict:
    return {(pair.alpha, pair.beta): value for pair, value in series}


def series_like(f: PolySeries, entries: dict, order: int | None = None) -> PolySeries:
    """A series of f's dimension and ring from {(alpha, beta): value}, at f's
    order unless another is given; values are of the ring, zeros allowed."""
    terms = {make_pair(alpha, beta): value for (alpha, beta), value in entries.items()}
    return PolySeries(f.n, f.order if order is None else order, f.ring, terms)


# ---------------------------------------------------------------------------
# dense multiplication oracle


def mul_oracle(f: PolySeries, g: PolySeries) -> PolySeries:
    """Multiply via plain dict convolution, then truncate; any ring."""
    if f.n != g.n or f.order != g.order:
        raise AssertionError("oracle misuse: operand shape mismatch")
    acc: dict = {}
    for p1, v1 in f:
        for p2, v2 in g:
            alpha = tuple(a + b for a, b in zip(p1.alpha, p2.alpha))
            beta = tuple(a + b for a, b in zip(p1.beta, p2.beta))
            if sum(alpha) + sum(beta) > f.order:
                continue
            key = (alpha, beta)
            acc[key] = acc.get(key, f.ring.zero) + v1 * v2
    return series_like(f, acc)


# ---------------------------------------------------------------------------
# derivative-based Poisson bracket oracle


def _partial(series: PolySeries, var: int, side: str) -> dict:
    """Exact partial derivative of the term dict, as a plain dict."""
    out: dict = {}
    for pair, value in series:
        exps = pair.alpha if side == "x" else pair.beta
        k = exps[var]
        if k == 0:
            continue
        alpha = list(pair.alpha)
        beta = list(pair.beta)
        if side == "x":
            alpha[var] -= 1
        else:
            beta[var] -= 1
        key = (tuple(alpha), tuple(beta))
        out[key] = out.get(key, series.ring.zero) + value.scaled(Fraction(k))
    return out


def _dict_mul(d1: dict, d2: dict, zero) -> dict:
    out: dict = {}
    for (a1, b1), v1 in d1.items():
        for (a2, b2), v2 in d2.items():
            key = (
                tuple(x + y for x, y in zip(a1, a2)),
                tuple(x + y for x, y in zip(b1, b2)),
            )
            out[key] = out.get(key, zero) + v1 * v2
    return out


def poisson_oracle(f: PolySeries, g: PolySeries) -> PolySeries:
    """{f, g} assembled from eight explicit partial derivatives; any ring."""
    zero = f.ring.zero
    acc: dict = {}
    for j in range(f.n):
        df_dy = _partial(f, j, "y")
        dg_dx = _partial(g, j, "x")
        df_dx = _partial(f, j, "x")
        dg_dy = _partial(g, j, "y")
        for key, value in _dict_mul(df_dy, dg_dx, zero).items():
            acc[key] = acc.get(key, zero) + value
        for key, value in _dict_mul(df_dx, dg_dy, zero).items():
            acc[key] = acc.get(key, zero) - value
    trimmed = {
        key: value
        for key, value in acc.items()
        if sum(key[0]) + sum(key[1]) <= f.order
    }
    return series_like(f, trimmed)


def bracket_pair_count(pairs, freq: FreqVector | None = None) -> int:
    """The term pairs the product loop of sum {F, G} must multiply, counted
    on the eight explicit partial derivatives: every pair of derivative
    terms whose product has degree at most the order M without freq, and
    with freq those of degree below M or resonant at M."""
    count = 0
    for f, g in pairs:
        for j in range(f.n):
            for left, right in (
                (_partial(f, j, "y"), _partial(g, j, "x")),
                (_partial(f, j, "x"), _partial(g, j, "y")),
            ):
                for a1, b1 in left:
                    for a2, b2 in right:
                        pair = ExponentPair(
                            tuple(x + y for x, y in zip(a1, a2)),
                            tuple(x + y for x, y in zip(b1, b2)),
                        )
                        degree = pair.degree
                        count += degree < f.order or degree == f.order and (
                            freq is None or freq.is_resonant(pair)
                        )
    return count


def poisson_pairwise_oracle(f: PolySeries, g: PolySeries) -> PolySeries:
    """{f, g} term pair by term pair; any ring.

    The pair x^a1 y^b1, x^a2 y^b2 brackets to
    sum_j (b1_j a2_j - a1_j b2_j) x^(a1 + a2 - e_j) y^(b1 + b2 - e_j).
    """
    zero = f.ring.zero
    acc: dict = {}
    for (a1, b1), v1 in series_terms(f).items():
        for (a2, b2), v2 in series_terms(g).items():
            alpha = [x + y for x, y in zip(a1, a2)]
            beta = [x + y for x, y in zip(b1, b2)]
            if sum(alpha) + sum(beta) - 2 > f.order:
                continue
            for j in range(f.n):
                factor = b1[j] * a2[j] - a1[j] * b2[j]
                if not factor:
                    continue
                alpha[j] -= 1
                beta[j] -= 1
                key = (tuple(alpha), tuple(beta))
                acc[key] = acc.get(key, zero) + (v1 * v2).scaled(Fraction(factor))
                alpha[j] += 1
                beta[j] += 1
    return series_like(f, acc)


# ---------------------------------------------------------------------------
# termwise oracles: one value operation per term, GaussianRational or
# SymScalar


def add_oracle(f: PolySeries, g: PolySeries) -> PolySeries:
    """f + g by summing the term dicts value by value."""
    acc = series_terms(f)
    for key, value in series_terms(g).items():
        acc[key] = acc[key] + value if key in acc else value
    return series_like(f, acc)


def scale_oracle(f: PolySeries, q: int | Fraction) -> PolySeries:
    return series_like(f, {key: v.scaled(q) for key, v in series_terms(f).items()})


def combination_oracle(items, like: PolySeries) -> PolySeries:
    """The sum of q S over the (q, S) items, value by value in one term
    dict; a series of like's shape, any ring."""
    acc: dict = {}
    for q, series in items:
        for key, value in series_terms(series).items():
            value = value.scaled(q)
            acc[key] = acc[key] + value if key in acc else value
    return series_like(like, acc)


def exp_lie_oracle(generator: PolySeries, target: PolySeries) -> PolySeries:
    """exp(L_F) G step by step: each term {F, last term} / k is formed and
    added to the running sum on the termwise oracles, until a term is zero."""
    result = term = target
    k = 1
    while not term.is_zero:
        term = scale_oracle(poisson_oracle(generator, term), Fraction(1, k))
        result = add_oracle(result, term)
        k += 1
    return result


def eigenvalue_oracle(alpha, beta, freq: FreqVector) -> GaussianRational:
    """<alpha - beta, lambda> summed in GaussianRational arithmetic, one
    frequency at a time."""
    total = GaussianRational.of(0)
    for a, b, lam in zip(alpha, beta, freq.entries):
        k = a - b
        if k:
            total = total + lam.scaled(k)
    return total


def partial_inverse_oracle(f: PolySeries, freq: FreqVector) -> PolySeries:
    """B f: each term divided by its eigenvalue <alpha - beta, lambda>, resonant terms dropped."""
    out = {}
    for (alpha, beta), value in series_terms(f).items():
        eig = eigenvalue_oracle(alpha, beta, freq)
        if not eig.is_zero:
            out[alpha, beta] = value * eig.inverse()
    return series_like(f, out)


def resonant_projection_oracle(f: PolySeries, freq: FreqVector) -> PolySeries:
    """A f: the terms whose eigenvalue is zero."""
    return series_like(f, {
        (alpha, beta): value
        for (alpha, beta), value in series_terms(f).items()
        if eigenvalue_oracle(alpha, beta, freq).is_zero
    })


def with_order_oracle(f: PolySeries, order: int) -> PolySeries:
    """f re-truncated at (or extended to) the given order."""
    return series_like(f, {
        (alpha, beta): value
        for (alpha, beta), value in series_terms(f).items()
        if sum(alpha) + sum(beta) <= order
    }, order)


# ---------------------------------------------------------------------------
# flow-driven normalization oracle


def direct_normalize(hamiltonian: PolySeries, freq: FreqVector):
    """Normalize using only exp_lie and the projection operators.

    Degree by degree: conjugate by the generator found so far, look at the
    lowest non-resonant residue, and extend the generator with its
    preimage.  No recursion formulas are involved, so this is an
    independent check of any normalization pipeline.
    """
    order = hamiltonian.order
    n = hamiltonian.n
    generator = PolySeries.zero(n, order, hamiltonian.ring)
    for degree in range(3, order + 1):
        current = exp_lie(generator, hamiltonian) if not generator.is_zero else hamiltonian
        residue = current.grade(degree).filter_terms(
            lambda pair: not freq.is_resonant(pair)
        )
        if residue.is_zero:
            continue
        generator = generator + partial_inverse(residue, freq)
    normal_form = exp_lie(generator, hamiltonian) if not generator.is_zero else hamiltonian
    return normal_form, generator


# ---------------------------------------------------------------------------
# w-series composition oracle


def compose_wseries(outer: WSeries, inner: WSeries) -> WSeries:
    """outer(inner(w)), truncated at outer.order; inner must lack a constant."""
    ring = outer.ring
    if not inner.coefficient(0).is_zero:
        raise AssertionError("oracle misuse: inner series has a constant term")
    order = outer.order
    result = WSeries.zero(order, ring)
    power = WSeries(order, ring, {0: ring.one})
    for k in range(order + 1):
        if k > 0:
            power = power * inner.with_order(order)
        c = outer.coefficient(k)
        if not c.is_zero:
            result = result + power * WSeries(order, ring, {0: c})
    return result


def partitions(total: int, largest: int | None = None):
    """Partitions of total into non-increasing parts >= 1."""
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for head in range(min(total, largest), 0, -1):
        for rest in partitions(total - head, head):
            yield (head,) + rest


def partition_oracle(s_series: WSeries, m: int):
    """[u^m] of the inverse of u - T(u), T = s_series, m >= 1, by enumeration.

    The sum over multisets {alpha_k} with sum (k-1) alpha_k = m - 1 of
    (m - 1 + |alpha|)! / (alpha! m!) * prod T_k^{alpha_k}, one partition
    of m - 1 at a time, each product formed afresh.
    """
    ring = s_series.ring
    total = ring.zero
    for parts in partitions(m - 1):
        multiplicity: dict[int, int] = {}
        for p in parts:
            multiplicity[p + 1] = multiplicity.get(p + 1, 0) + 1
        weight = Fraction(math.factorial(m - 1 + len(parts)), math.factorial(m))
        product = ring.one
        for k, count in multiplicity.items():
            weight /= math.factorial(count)
            for _ in range(count):
                product = product * s_series.coefficient(k)
        total = total + product.scaled(weight)
    return total


# ---------------------------------------------------------------------------
# invariant-series oracle


def s_oracle(hamiltonian: PolySeries, lam: GaussianRational, wmax: int) -> WSeries:
    """S[H] through w^wmax from the defining sum, with no pruning.

    Every power H_*^m, m = 1..mmax with mmax = max(1, 2 wmax - 2), is formed
    in full at the one working order 2(wmax + mmax - 1) by plain dict
    convolution; its average is cut at w^(wmax + m - 1) and differentiated
    m - 1 times one step at a time.  Works over any coefficient ring.
    """
    mmax = max(1, 2 * wmax - 2)
    top = 2 * (wmax + mmax - 1)
    tail = {
        (pair.alpha[0], pair.beta[0]): value
        for pair, value in hamiltonian.terms.items()
        if pair.degree >= 3
    }
    lam_inv = lam.inverse()
    lam_power = GaussianRational.of(1)
    total: dict = {}
    power = dict(tail)
    for m in range(1, mmax + 1):
        piece = {
            a: value
            for (a, b), value in power.items()
            if a == b and 2 <= a <= wmax + m - 1
        }
        for _ in range(m - 1):
            piece = {k - 1: value.scaled(k) for k, value in piece.items() if k >= 1}
        for k, value in piece.items():
            term = value.scaled(Fraction((-1) ** (m - 1), math.factorial(m))) * lam_power
            total[k] = total[k] + term if k in total else term
        if m == mmax:
            break
        product: dict = {}
        for (a1, b1), v1 in power.items():
            for (a2, b2), v2 in tail.items():
                key = (a1 + a2, b1 + b2)
                if sum(key) <= top:
                    piece = v1 * v2
                    product[key] = product[key] + piece if key in product else piece
        power = product
        lam_power = lam_power * lam_inv
    return WSeries(wmax, hamiltonian.ring, total)


# ---------------------------------------------------------------------------
# polynomial oracle for SymScalar: plain dicts exponent tuple -> Fraction,
# without zero coefficients; complex numbers as (re, im) pairs of Fractions


def _nonzero(poly: dict) -> dict:
    return {exponents: coeff for exponents, coeff in poly.items() if coeff != 0}


def poly_add(p: dict, q: dict, sign: int = 1) -> dict:
    """p + sign * q."""
    out = dict(p)
    for exponents, coeff in q.items():
        out[exponents] = out.get(exponents, Fraction(0)) + sign * coeff
    return _nonzero(out)


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _nonzero(out)


def poly_scale(p: dict, q: Fraction) -> dict:
    return _nonzero({exponents: coeff * q for exponents, coeff in p.items()})


def poly_evaluate(p: dict, points: list) -> tuple[Fraction, Fraction]:
    """p at the given (re, im) pairs, one per indeterminate."""
    total_re, total_im = Fraction(0), Fraction(0)
    for exponents, coeff in p.items():
        re, im = Fraction(1), Fraction(0)
        for (x_re, x_im), power in zip(points, exponents):
            for _ in range(power):
                re, im = re * x_re - im * x_im, re * x_im + im * x_re
        total_re += coeff * re
        total_im += coeff * im
    return total_re, total_im


# ---------------------------------------------------------------------------
# Bernoulli oracle (Akiyama-Tanigawa, B1 = +1/2 convention)


def bernoulli_plus(nmax: int) -> list:
    """B_0 .. B_nmax for x/(1 - e^{-x}), i.e. B_1 = +1/2."""
    out = []
    row: list = []
    for m in range(nmax + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


# ---------------------------------------------------------------------------
# random builders


def random_coeff(rng: random.Random, imaginary: bool = False) -> GaussianRational:
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if imaginary else Fraction(0)
    return GaussianRational(re, im)


def random_series(
    n: int,
    order: int,
    seed: int,
    min_degree: int = 3,
    max_degree: int | None = None,
    max_terms: int = 6,
    imaginary: bool = False,
) -> PolySeries:
    """A small random series with exact rational coefficients."""
    rng = random.Random(seed)
    top = order if max_degree is None else max_degree
    pairs = []
    for degree in range(min_degree, top + 1):
        for alpha in _exponents(n, degree):
            for beta in _exponents(n, degree - sum(alpha)):
                if sum(alpha) + sum(beta) == degree:
                    pairs.append((alpha, beta))
    rng.shuffle(pairs)
    terms = {}
    for alpha, beta in pairs[: rng.randint(1, max_terms)]:
        value = random_coeff(rng, imaginary)
        if not value.is_zero:
            terms[(alpha, beta)] = value
    return build_series(n, order, terms)


def _exponents(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for head in range(cap + 1):
        for rest in _exponents(n - 1, cap - head):
            yield (head,) + rest


def random_hamiltonian(
    freq: FreqVector,
    order: int,
    seed: int,
    max_degree: int | None = None,
    max_terms: int = 6,
) -> PolySeries:
    """Quadratic part for freq plus a random perturbation of degree >= 3."""
    tail = random_series(freq.n, order, seed, 3, max_degree, max_terms)
    return freq.quadratic_part(order, GAUSSIAN_RING) + tail


def onedof_freq(value) -> FreqVector:
    if not isinstance(value, GaussianRational):
        value = GaussianRational.of(value)
    return FreqVector.of(value)
