"""Degree-by-degree normalization driven by the homological equation.

Given H = H2 + H3 + H4 + ... with semisimple quadratic part
H2 = sum_j lambda_j x_j y_j, the pipeline builds for each degree m >= 3 a
right-hand side Phi_m collecting every contribution of degree m produced by
the already-chosen generator parts, then splits it:

    N_m = A Phi_m        (resonant part, kept in the normal form)
    F_m = B Phi_m        (generator part, removing the rest)

The recursion for Phi_m has two groups of nested brackets of generator
parts, each read off a table with one recurrence (the Deprit triangle,
Deprit, Celest. Mech. 1 (1969) 12-30):

    T[0][d] = seed_d,    T[k][d] = sum_{j>=3} {F_j, T[k-1][d+2-j]},
    Phi_m = H_m + sum_{k>=1} T1[k][m] / k!  -  sum_{k>=1} T2[k][m] / (k+1)!.

Table T1 is seeded with H_d and T2 with R_d.  Every inner degree is below m,
so each entry is final when first computed and each bracket is taken once.
Each entry is one ``bracket_sum`` and Phi_m one ``combination``: every
sum accumulates in one dict, and an entry builds its derivative lists once
however often it is bracketed.  With ``normal_form_only`` the entries of
the top degree M are bracketed given the frequencies, whose label table
``bracket_sum`` reads, so they keep only resonant terms: N_M = A Phi_M
is exact, while F_M and Phi_M are not, and the result holds None in their
place.  The series the result holds keep no derivative lists.
The seed R_j of T2 depends on the mode:

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

from .errors import InternalCheckError, UsageError
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

    With ``normal_form_only`` the entries of the top degree M keep only
    their resonant terms, and the result holds None for the generator,
    its parts and the right-hand sides, whose degree-M parts are cut.
    """
    validate_hamiltonian(hamiltonian, freq)
    order = hamiltonian.order
    ring = hamiltonian.ring
    n = hamiltonian.n

    rhs: dict[int, PolySeries] = {}
    res: dict[int, PolySeries] = {}
    gen: dict[int, PolySeries] = {}
    # t1[k, d], t2[k, d]: the sum of the k-fold brackets of degree d
    t1 = {(0, d): hamiltonian.grade(d) for d in range(3, order + 1)}
    t2: dict[tuple[int, int], PolySeries] = {}

    zero = PolySeries.zero(n, order, ring)

    def bracket_entry(table: dict, k: int, m: int) -> PolySeries:
        """T[k][m] = sum_{j>=3} {F_j, T[k-1][m+2-j]}; every inner degree is below m."""
        return bracket_sum(
            [(gen[j], table[k - 1, m + 2 - j]) for j in range(3, m - k + 1)],
            zero,
            freq if normal_form_only and m == order else None,
        )

    for m in range(3, order + 1):
        for k in range(1, m - 2):
            t1[k, m], t2[k, m] = bracket_entry(t1, k, m), bracket_entry(t2, k, m)
        weighted = [(1, t1[0, m])]
        weighted += [(Fraction(1, math.factorial(k)), t1[k, m]) for k in range(1, m - 2)]
        weighted += [(Fraction(-1, math.factorial(k + 1)), t2[k, m]) for k in range(1, m - 2)]
        acc = combination(weighted, zero)
        rhs[m] = acc
        res[m] = resonant_projection(acc, freq)
        gen[m] = partial_inverse(acc, freq)
        t2[0, m] = image_projection(acc, freq) if kernel_corrected else acc

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
    for part in (*rhs.values(), *gen.values()):
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

    Each k-fold bracket L_F^k G = {F, L_F^(k-1) G} is formed from the last,
    and the sum is one ``combination`` of them weighted 1/k!.
    The generator must contain only terms of degree >= 3, so each nested
    bracket strictly raises the minimum degree and the truncated sum is
    finite.
    """
    min_deg = generator.min_degree()
    if min_deg is not None and min_deg < 3:
        raise UsageError(
            f"generator has a term of degree {min_deg}; "
            "only degrees 3 and higher are allowed"
        )
    brackets = [target]  # brackets[k] = L_F^k G
    while not brackets[-1].is_zero:
        if len(brackets) > target.order + 2:
            raise InternalCheckError(
                "exp_lie failed to terminate within the truncation bound"
            )
        brackets.append(generator.poisson(brackets[-1]))
    return combination(
        [(Fraction(1, math.factorial(k)), term) for k, term in enumerate(brackets)], target
    )


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
