"""Multilinear bracket forms: recursion view and weighted-tree view.

The s-linear form acting on graded series g_1..g_s is defined by a recursion
mirroring the degree-by-degree normalization, with the quadratic part of the
Hamiltonian abstracted away into the partial inverse B:

    L_1(g) = g
    L_s(g_1..g_s) =
        sum_{k=1}^{s-1} 1/k! sum_{c in comps(s-1,k)}
            {B L(block_1), {B L(block_2), ..., {B L(block_k), g_s}..}}
      - sum_{k=2}^{s}   1/k! sum_{c in comps(s,k)}
            {B L(block_1), ..., {B L(block_{k-1}), R(L(block_k))}..}

where comps(v,k) are ordered compositions of v into k parts >= 1 and each
composition slices the arguments into consecutive blocks, left to right.  The
innermost slot of the first group is g_s alone.  As in the degree-by-degree
pipeline, R is identity in the plain ("printed") variant and I - A in the
kernel-corrected variant.

``form_by_recursion`` regroups both sums of L(lo, hi), the form of
g_lo .. g_{hi-1}, into two tables over block starts with one recurrence,
U[k][a] = sum_{b>a} {B L(a,b), U[k-1][b]}.  U1 is seeded with g_{hi-1} at
hi-1, U2 with R(L(c, hi)) at each lo < c < hi, and L(lo, hi) is the sum over
k of U1[k][lo] / k! - U2[k][lo] / (k+1)!.  Each B L(a, b) is computed once.

The plain variant has a closed form: a sum over full binary trees,

    L_s(g_1..g_s) = sum_{t, s leaves} mu(t) Q[t](g_1..g_s),

where Q[leaf](g) = g and Q[t1 t2] brackets B applied to the left factor
against the right factor, splitting the arguments in order.  The weight
mu(t) is the product of per-chain weights J_k read off the backslash code;
equivalently it satisfies mu(t) = J_m * prod mu(t_i) over the right-factor
decomposition.  Both weight routes are implemented and tested against each
other, as is the recursion-equals-trees identity.

The degree-m resonant contribution to the normal form is assembled from
these forms applied to tuples of homogeneous parts of H:

    N_m = sum_{s=1}^{m-2} sum_{j_1+..+j_s = m-2+2s, j_i >= 3}
              A L_s(H_{j_1}, .., H_{j_s}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .errors import UsageError
from .operators import (
    FreqVector,
    partial_inverse,
    resonant_projection,
    validate_hamiltonian,
)
from .scalars import format_rational
from .series import PolySeries
from .trees import (
    MAX_LEAVES,
    Tree,
    all_trees,
    compositions,
    format_code,
    right_factors,
    to_code,
)


@cache
def chain_weights(kmax: int) -> tuple[Fraction, ...]:
    """The weights J_1..J_kmax, returned 1-indexed as weights[k].

    Defined by J_1 = 1 and the triangular relation
    J_k = 1/(k-1)! - sum_{i=1}^{k-1} J_i / (k-i+1)!; the generating function
    identity sum_k J_k x^k = x^2 / (1 - e^{-x}) ties them to the Bernoulli
    numbers, J_{k+1} = B_k / k! with B_1 = +1/2.
    """
    if kmax < 1:
        raise UsageError(f"kmax must be positive, got {kmax}")
    weights: list[Fraction] = [Fraction(0), Fraction(1)]
    for k in range(2, kmax + 1):
        value = Fraction(1, math.factorial(k - 1))
        for i in range(1, k):
            value -= weights[i] / math.factorial(k - i + 1)
        weights.append(value)
    return tuple(weights)


def tree_weight(t: Tree) -> Fraction:
    """mu(t) as the product of J_{k_j} over the backslash code entries."""
    code = to_code(t)
    weights = chain_weights(max(code))
    product = Fraction(1)
    for k in code:
        product *= weights[k]
    return product


def tree_weight_by_factorization(t: Tree) -> Fraction:
    """mu(t) through mu(t) = J_m * prod_i mu(t_i) over right factors."""
    if t.is_leaf:
        return Fraction(1)
    factors = right_factors(t)
    m = len(factors)
    product = chain_weights(m)[m]
    for factor in factors[:-1]:
        product *= tree_weight_by_factorization(factor)
    return product


def total_tree_weight(s: int, max_leaves: int = MAX_LEAVES) -> Fraction:
    """Sum of mu over all s-leaf trees (equals 1/s; asserted in tests)."""
    return sum((tree_weight(t) for t in all_trees(s, max_leaves)), Fraction(0))


def tree_bracket(
    t: Tree, args: Sequence[PolySeries], freq: FreqVector
) -> PolySeries:
    """Q[t](g_1..g_s): nested brackets shaped by t, B on each left factor.

    The left subtree consumes the leading arguments, the right subtree the
    rest, in order.
    """
    if len(args) != t.leaf_count:
        raise UsageError(
            f"tree has {t.leaf_count} leaves but {len(args)} arguments were given"
        )
    if t.is_leaf:
        return args[0]
    split = t.left.leaf_count
    left_value = partial_inverse(tree_bracket(t.left, args[:split], freq), freq)
    right_value = tree_bracket(t.right, args[split:], freq)
    return left_value.poisson(right_value)


def form_by_trees(
    args: Sequence[PolySeries],
    freq: FreqVector,
    max_leaves: int = MAX_LEAVES,
) -> PolySeries:
    """The plain s-linear form as the mu-weighted sum over s-leaf trees."""
    args = list(args)
    if not args:
        raise UsageError("the form needs at least one argument")
    total = PolySeries.zero(args[0].n, args[0].order, args[0].ring)
    for t in all_trees(len(args), max_leaves):
        total = total + tree_bracket(t, args, freq).scale(tree_weight(t))
    return total


def form_by_recursion(
    args: Sequence[PolySeries],
    freq: FreqVector,
    kernel_corrected: bool = False,
) -> PolySeries:
    """The s-linear form by its recursion; optionally kernel-corrected.

    With ``kernel_corrected=False`` this equals ``form_by_trees`` on the same
    arguments.  With ``kernel_corrected=True`` the innermost slot of the
    correction group is stripped of its resonant part, matching the exact
    degree-by-degree pipeline.
    """
    args = list(args)
    if not args:
        raise UsageError("the form needs at least one argument")
    zero = PolySeries.zero(args[0].n, args[0].order, args[0].ring)
    forms: dict[tuple[int, int], PolySeries] = {}  # L(a, b), the form of args[a:b]
    blocks: dict[tuple[int, int], PolySeries] = {}  # B L(a, b)

    def block(a: int, b: int) -> PolySeries:
        if (a, b) not in blocks:
            blocks[a, b] = partial_inverse(lam(a, b), freq)
        return blocks[a, b]

    def next_row(row: dict[int, PolySeries], lo: int) -> dict[int, PolySeries]:
        """U[k][a] = sum_{b>a} {B L(a,b), U[k-1][b]} for lo <= a < max(row)."""
        out = {}
        for a in range(lo, max(row)):
            out[a] = zero
            for b, inner in row.items():
                if b > a and not inner.is_zero:
                    out[a] = out[a] + block(a, b).poisson(inner)
        return out

    def lam(lo: int, hi: int) -> PolySeries:
        if (lo, hi) in forms:
            return forms[lo, hi]
        acc = args[lo]
        if hi - lo > 1:
            u1 = {hi - 1: args[hi - 1]}
            u2 = {c: lam(c, hi) for c in range(lo + 1, hi)}
            if kernel_corrected:
                u2 = {c: g - resonant_projection(g, freq) for c, g in u2.items()}
            acc = zero
            for k in range(1, hi - lo):
                u1, u2 = next_row(u1, lo), next_row(u2, lo)
                acc = acc + u1[lo].scale(Fraction(1, math.factorial(k)))
                acc = acc - u2[lo].scale(Fraction(1, math.factorial(k + 1)))
        forms[lo, hi] = acc
        return acc

    return lam(0, len(args))


@dataclass(frozen=True)
class TreesResult:
    """Normal form assembled from the multilinear forms, with audit rows."""

    normal_form: PolySeries
    order: int
    freq: FreqVector
    kernel_corrected: bool
    rows: list[dict] | None


def nf_via_trees(
    hamiltonian: PolySeries,
    freq: FreqVector,
    kernel_corrected: bool = True,
    audit: bool = False,
    max_leaves: int = MAX_LEAVES,
) -> TreesResult:
    """Assemble the normal form degree by degree from the multilinear forms.

    Audit rows record, per degree, each tree's resonant contribution under
    the plain weighted-tree formula (nonzero rows only) and, in corrected
    mode, one extra row per degree holding the kernel correction (the
    difference between the corrected recursion total and the plain total).
    """
    validate_hamiltonian(hamiltonian, freq)
    order = hamiltonian.order
    if order - 2 > max_leaves:
        raise UsageError(
            f"degree {order} needs forms with up to {order - 2} arguments, "
            f"exceeding the leaf limit {max_leaves}"
        )
    ring = hamiltonian.ring
    hparts = {m: hamiltonian.grade(m) for m in range(3, order + 1)}
    normal_form = freq.quadratic_part(order, ring)
    rows: list[dict] | None = [] if audit else None

    for m in range(3, order + 1):
        plain_total = PolySeries.zero(hamiltonian.n, order, ring)
        corrected_total = PolySeries.zero(hamiltonian.n, order, ring)
        for s in range(1, m - 1):
            for comp in compositions(m - 2 + 2 * s, s, 3):
                args = [hparts[j] for j in comp]
                if any(a.is_zero for a in args):
                    continue
                if kernel_corrected:
                    corrected_total = corrected_total + resonant_projection(
                        form_by_recursion(args, freq, kernel_corrected=True), freq
                    )
                if audit or not kernel_corrected:
                    for t in all_trees(s, max_leaves):
                        piece = resonant_projection(
                            tree_bracket(t, args, freq).scale(tree_weight(t)), freq
                        )
                        if piece.is_zero:
                            continue
                        plain_total = plain_total + piece
                        if rows is not None:
                            rows.append(
                                {
                                    "degree": m,
                                    "leaves": s,
                                    "sources": list(comp),
                                    "tree": t.render(),
                                    "code": format_code(to_code(t)),
                                    "mu": format_rational(tree_weight(t)),
                                    "contribution": piece.to_json_terms(),
                                }
                            )
        total = corrected_total if kernel_corrected else plain_total
        if rows is not None and kernel_corrected:
            correction = corrected_total - plain_total
            if not correction.is_zero:
                rows.append(
                    {
                        "degree": m,
                        "kernel_correction": True,
                        "contribution": correction.to_json_terms(),
                    }
                )
        normal_form = normal_form + total

    return TreesResult(
        normal_form=normal_form,
        order=order,
        freq=freq,
        kernel_corrected=kernel_corrected,
        rows=rows,
    )
