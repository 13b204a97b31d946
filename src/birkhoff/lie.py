"""Degree-by-degree normalization driven by the homological equation.

Given H = H2 + H3 + H4 + ... with semisimple quadratic part
H2 = sum_j lambda_j x_j y_j, the pipeline builds for each degree m >= 3 a
right-hand side Phi_m collecting every contribution of degree m produced by
the already-chosen generator parts, then splits it:

    N_m = A Phi_m        (resonant part, kept in the normal form)
    F_m = B Phi_m        (generator part, removing the rest)

With L X = sum_{j>=3} {F_j, X}, which takes degree d to degrees above d,
the right-hand side is the degree-m part of two sums of nested brackets
(the Deprit triangle, Deprit, Celest. Mech. 1 (1969) 12-30):

    Phi_m = [sum_{k>=0} L^k H / k!  -  sum_{k>=1} L^k R / (k+1)!]_m
          = [sum_{k>=0} L^k (c_k H + d_k R)]_m,

with c_k = 1/k!, d_0 = 0 and d_k = -1/(k+1)!.  Horner's rule over the
nesting depth evaluates both sums in one table,

    W[k][d] = c_k H_d + d_k R_d + sum_{j=3}^{d-1} {F_j, W[k+1][d+2-j]},

the degree-d part of W[k] = sum_{i>=0} L^i (c_{k+i} H + d_{k+i} R), which
satisfies W[k] = c_k H + d_k R + L W[k+1]; so Phi_m = W[0][m].  The entry
W[k][d] is read only by entries W[k-1][d'] of degree d' > d, so it reaches
W[0] at degree d + k or above: the truncation order M needs it only for
k <= M - d.  One pair (j, W[k+1][d+2-j]) per j, k and d then makes
sum_d (M - d + 1)(d - 3) = C(M - 1, 3) bracket pairs.  The table is filled
in ascending d: at each d first W[0][d] = Phi_d, which gives N_d, F_d and
R_d, then W[k][d] for k = 1..M-d.  Every inner degree is below d, so each
input is final when read and each bracket is taken once.  Each entry is
one ``bracket_sum`` and one ``combination`` of at most three items: every
sum accumulates in one dict, and an entry builds its derivative lists once
however often it is bracketed.  Nothing reads R_M, which is not formed.

With ``normal_form_only`` the one entry of the top degree, W[0][M], is
bracketed given the frequencies, whose label table ``bracket_sum`` reads,
so its bracket sum keeps only resonant terms of degree M.  A degree-M term
feeds no later bracket, so the cut changes nothing else, and
N_M = A Phi_M is exact while Phi_M is not: the result holds None for the
right-hand sides and the generator, and F_M is not formed.  The series the
result holds keep no derivative lists.

The term R_j depends on the mode:

* ``kernel_corrected=True`` (default): R_j = (I - A) Phi_j = Phi_j - N_j,
  the image part of the right-hand side, taken by ``image_projection``.
  This is the exact bookkeeping: the generator part F_j solves
  {F_j, H2} = -(Phi_j - N_j), not -Phi_j, whenever Phi_j has a resonant
  component.  With this mode the single combined generator
  F = sum_m F_m reproduces the normal form through ``exp_lie`` exactly.
* ``kernel_corrected=False``: R_j = Phi_j.  This drops the resonant
  correction; it agrees with the default whenever every intermediate Phi_j
  is resonance-free, and differs otherwise (see the regression tests for a
  one-degree-of-freedom counterexample where the two modes disagree at
  degree 6).

All arithmetic is exact; the mode never changes types or tolerances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError
from .operators import (
    FreqVector,
    image_projection,
    partial_inverse,
    resonant_projection,
    validate_hamiltonian,
)
from .scalars import GAUSSIAN_RING, GaussianRational
from .series import PolySeries, bracket_sum, combination, monomials


@dataclass(frozen=True)
class NormalizationResult:
    """Output of one normalization run, graded pieces included."""

    normal_form: PolySeries
    generator: PolySeries | None
    rhs_parts: dict[int, PolySeries] | None
    resonant_parts: dict[int, PolySeries]
    generator_parts: dict[int, PolySeries] | None


def lie_normalize(
    hamiltonian: PolySeries,
    freq: FreqVector,
    kernel_corrected: bool = True,
    normal_form_only: bool = False,
) -> NormalizationResult:
    """Normalize H by the degree-by-degree recursion up to its truncation order.

    With ``normal_form_only`` the bracket sum of the top degree M keeps
    only its resonant terms, and the result holds None for the generator,
    its parts and the right-hand sides, whose degree-M parts are cut.
    """
    validate_hamiltonian(hamiltonian, freq)
    order = hamiltonian.order
    ring = hamiltonian.ring
    n = hamiltonian.n

    rhs: dict[int, PolySeries] = {}
    res: dict[int, PolySeries] = {}
    gen: dict[int, PolySeries] = {}
    seeds = {d: hamiltonian.grade(d) for d in range(3, order + 1)}
    images: dict[int, PolySeries] = {}  # images[d] = R_d
    # w[k, d]: degree d of sum_{i>=0} L^i (c_{k+i} H + d_{k+i} R)
    w: dict[tuple[int, int], PolySeries] = {}
    zero = PolySeries.zero(n, order, ring)

    def entry(k: int, d: int) -> PolySeries:
        """W[k][d] = c_k H_d + d_k R_d + sum_{j=3}^{d-1} {F_j, W[k+1][d+2-j]}."""
        weighted = [
            (Fraction(1, math.factorial(k)), seeds[d]),
            (1, bracket_sum(
                [(gen[j], w[k + 1, d + 2 - j]) for j in range(3, d)],
                zero,
                freq if normal_form_only and d == order else None,
            )),
        ]
        if k:
            weighted.append((Fraction(-1, math.factorial(k + 1)), images[d]))
        return combination(weighted, zero)

    # ascending d: every inner degree d + 2 - j is below d, so each input is final
    for d in range(3, order + 1):
        rhs[d] = phi = entry(0, d)
        res[d] = resonant_projection(phi, freq)
        if d < order or not normal_form_only:
            gen[d] = partial_inverse(phi, freq)
        if d < order:
            images[d] = image_projection(phi, freq) if kernel_corrected else phi
        for k in range(1, order - d + 1):
            w[k, d] = entry(k, d)

    normal_form = combination(
        [(1, part) for part in (freq.quadratic_part(order, ring), *res.values())], zero
    )
    if normal_form_only:
        return NormalizationResult(
            normal_form=normal_form,
            generator=None,
            rhs_parts=None,
            resonant_parts=res,
            generator_parts=None,
        )
    # the returned parts need not keep the lists of the brackets they entered
    for part in gen.values():
        part._release()
    return NormalizationResult(
        normal_form=normal_form,
        generator=combination([(1, part) for part in gen.values()], zero),
        rhs_parts=rhs,
        resonant_parts=res,
        generator_parts=gen,
    )


def exp_lie(generator: PolySeries, target: PolySeries) -> PolySeries:
    """Time-1 Lie transform: exp(L_F) G = G + {F,G} + (1/2!){F,{F,G}} + ...

    The generator must contain only terms of degree >= 3, so each bracket
    with F raises the degree by at least 1 and L_F^k G starts at degree
    g + k, g the lowest degree of G: the sum ends after K = M - g
    brackets.  Horner's rule over the nesting depth evaluates it as

        W[K] = G / K!,   W[k] = G / k! + L_F W[k+1],   exp(L_F) G = W[0],

    W[k] = sum_{i>=0} L_F^i G / (k+i)!.  W[k] reaches W[0] through k more
    brackets, so only its degrees up to M - k matter: each level is one
    ``bracket_sum`` of the one pair (F, W[k+1]) taken through degree M - k,
    and one ``combination``.
    """
    min_deg = generator.min_degree()
    if min_deg is not None and min_deg < 3:
        raise UsageError(
            f"generator has a term of degree {min_deg}; "
            "only degrees 3 and higher are allowed"
        )
    order = target.order
    depth = 0 if target.is_zero else order - target.min_degree()
    w = combination([(Fraction(1, math.factorial(depth)), target)], target)
    for k in range(depth - 1, -1, -1):
        w = combination(
            [
                (Fraction(1, math.factorial(k)), target),
                (1, bracket_sum([(generator, w)], target, through=order - k)),
            ],
            target,
        )
    return w


def random_generator(
    n: int,
    order: int,
    seed: int,
    max_degree: int | None = None,
) -> PolySeries:
    """Deterministic pseudo-random generator series with terms of degree >= 3.

    Seed 0 is reserved for the zero generator, giving every seeded sweep one
    guaranteed identity-transformation instance.
    """
    if max_degree is None:
        max_degree = order
    if max_degree > order:
        raise UsageError(
            f"max_degree {max_degree} exceeds the truncation order {order}"
        )
    if seed == 0:
        return PolySeries.zero(n, order)
    rng = random.Random(seed)
    terms = {}
    for degree in range(3, max_degree + 1):
        for pair in monomials(n, degree):
            if rng.randint(0, 2) != 0:
                continue
            num = rng.randint(-6, 6)
            if num == 0:
                continue
            den = rng.randint(1, 4)
            terms[pair] = GaussianRational.of(Fraction(num, den))
    return PolySeries(n, order, GAUSSIAN_RING, terms)


def random_symplectic_conjugate(
    hamiltonian: PolySeries,
    seed: int,
    max_degree: int | None = None,
) -> PolySeries:
    """Conjugate H by the time-1 flow of a seeded random generator."""
    gen = random_generator(hamiltonian.n, hamiltonian.order, seed, max_degree)
    return exp_lie(gen, hamiltonian)
