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
pipeline, R is identity in the plain ("printed") variant and I - A
(``image_projection``) in the kernel-corrected variant.

``form_by_recursion`` evaluates the forms on equal arguments, L_s(g, .., g),
which is all the normal form needs.  Every block of c arguments then has the
form L_c, so both sums fold into two tables over leaf count r:

    U[k][r] = sum_{c=1}^{r-k} {B L_c, U[k-1][r-c]},
    L_s = sum_{k=1}^{s-1} U1[k][s] / k!  -  U2[k][s] / (k+1)!,

U1 seeded with g at r = 1 and U2 with R L_c at r = c.  Filled in ascending
s, each entry is final when first computed and each B L_c is computed once.
Each entry is one ``bracket_sum`` and L_s one ``combination``, as in the
degree-by-degree pipeline, with no table or step shared between the two.

The plain variant has a closed form: a sum over full binary trees,

    L_s(g_1..g_s) = sum_{t, s leaves} mu(t) Q[t](g_1..g_s),

where Q[leaf](g) = g and Q[t1 t2] brackets B applied to the left factor
against the right factor, splitting the arguments in order.  The weight
mu(t) is the product of per-chain weights J_k read off the backslash code;
equivalently it satisfies mu(t) = J_m * prod mu(t_i) over the right-factor
decomposition.  Both weight routes are implemented and tested against each
other, as is the recursion-equals-trees identity on equal arguments.

With H* = H - H2 and M the truncation order, the normal form is one
recursion, N = H2 + sum_{s=1}^{M-2} A L_s(H*, .., H*).  It reads the forms
only through A, so ``nf_via_trees`` asks ``form_by_recursion`` for
``top_resonant`` forms: each table entry is bracketed given the
frequencies, whose label table ``bracket_sum`` reads, and keeps only the
resonant terms of degree M (a degree-M term feeds no later bracket).  By
multilinearity its degree-m part is the sum over tuples of homogeneous
parts of H,

    N_m = sum_{s=1}^{m-2} sum_{j_1+..+j_s = m-2+2s, j_i >= 3}
              A L_s(H_{j_1}, .., H_{j_s}),

which only the audit breakdown writes out, tree by tree.
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
    image_projection,
    partial_inverse,
    resonant_projection,
    validate_hamiltonian,
)
from .scalars import format_rational
from .series import PolySeries, bracket_sum, combination, compositions
from .trees import (
    MAX_LEAVES,
    Tree,
    all_trees,
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


def total_tree_weight(s: int) -> Fraction:
    """Sum of mu over all s-leaf trees (equals 1/s; asserted in tests)."""
    return sum((tree_weight(t) for t in all_trees(s)), Fraction(0))


# The most leaves ``total_tree_weight_by_recursion`` sums over: at this
# size its O(s^3) rational operations take 0.75 s in process, and the
# whole ``trees mu-sum`` command about 0.9 s, on a 2-vCPU host.
MU_SUM_MAX_LEAVES = 100


def total_tree_weight_by_recursion(s: int) -> Fraction:
    """Sum of mu over all s-leaf trees, without enumerating them.

    mu(t) = J_m prod_i mu(t_i) over the right factors t_1..t_{m-1}, leaf
    of t, whose leaf counts add up to s - 1.  So the sum W(s) is
    sum_k J_{k+1} P[k][s-1], where P[k][r] sums prod W(c_i) over the
    compositions of r into k leaf counts: P[0][0] = 1 and
    P[k][r] = sum_c W(c) P[k-1][r-c].  This is the leaf-count table of
    ``form_by_recursion`` with numbers in place of series, O(s^3) rational
    operations.
    """
    if s < 1:
        raise UsageError(f"leaf count must be positive, got {s}")
    if s > MU_SUM_MAX_LEAVES:
        raise UsageError(f"leaf count {s} exceeds the limit of {MU_SUM_MAX_LEAVES} leaves")
    weights = chain_weights(s)
    sums = [Fraction(0)] * (s + 1)
    table = [[Fraction(0)] * s for _ in range(s)]
    table[0][0] = Fraction(1)
    for leaves in range(1, s + 1):
        r = leaves - 1
        for k in range(1, r + 1):
            table[k][r] = sum(
                (sums[c] * table[k - 1][r - c] for c in range(1, r - k + 2)), Fraction(0)
            )
        sums[leaves] = sum((weights[k + 1] * table[k][r] for k in range(r + 1)), Fraction(0))
    return sums[s]


def tree_bracket(
    t: Tree,
    args: Sequence[PolySeries],
    freq: FreqVector,
    memo: dict | None = None,
) -> PolySeries:
    """Q[t](g_1..g_s): nested brackets shaped by t, B on each left factor.

    The left subtree consumes the leading arguments, the right subtree the
    rest, in order.  Calls that share a ``memo`` dict compute Q, and B Q, of
    each subtree once per slice of arguments: it keys them by the subtree
    and the ids of its arguments, so the caller keeps those arguments alive
    while it uses the memo.
    """
    if len(args) != t.leaf_count:
        raise UsageError(
            f"tree has {t.leaf_count} leaves but {len(args)} arguments were given"
        )
    if t.is_leaf:
        return args[0]
    if memo is None:
        memo = {}
    ids = tuple(map(id, args))
    if (t, ids, False) not in memo:
        split = t.left.leaf_count
        left = (t.left, ids[:split], True)
        if left not in memo:
            memo[left] = partial_inverse(tree_bracket(t.left, args[:split], freq, memo), freq)
        right_value = tree_bracket(t.right, args[split:], freq, memo)
        memo[t, ids, False] = memo[left].poisson(right_value)
    return memo[t, ids, False]


def form_by_trees(args: Sequence[PolySeries], freq: FreqVector) -> PolySeries:
    """The plain s-linear form as the mu-weighted sum over s-leaf trees."""
    args = list(args)
    if not args:
        raise UsageError("the form needs at least one argument")
    zero = PolySeries.zero(args[0].n, args[0].order, args[0].ring)
    trees = all_trees(len(args))
    return combination([(tree_weight(t), tree_bracket(t, args, freq)) for t in trees], zero)


def form_by_recursion(
    g: PolySeries,
    smax: int,
    freq: FreqVector,
    kernel_corrected: bool = False,
    *,
    top_resonant: bool = False,
) -> list[PolySeries]:
    """[L_1(g), L_2(g, g), .., L_smax(g, .., g)] from the leaf-count tables.

    With ``kernel_corrected=False`` each form equals ``form_by_trees`` on s
    copies of g.  With ``kernel_corrected=True`` the U2 seeds are
    (I - A) L_c, stripped of their resonant part by ``image_projection``,
    matching the exact degree-by-degree pipeline.
    With ``top_resonant`` every table entry is bracketed given freq and
    keeps only the resonant terms of the truncation degree M, so the forms
    are exact below M and under A.
    """
    if smax < 1:
        raise UsageError("the form needs at least one argument")
    zero = PolySeries.zero(g.n, g.order, g.ring)
    top = freq if top_resonant else None
    forms = [zero, g]  # forms[c] = L_c
    blocks = [zero]  # blocks[c] = B L_c
    # u1[k, r], u2[k, r]: the k-fold brackets holding r leaves
    u1 = {(0, 1): g}
    u2: dict[tuple[int, int], PolySeries] = {}

    def entry(table: dict, k: int, r: int) -> PolySeries:
        """U[k][r] = sum_{c=1}^{r-k} {B L_c, U[k-1][r-c]}; every r - c is below r."""
        return bracket_sum(
            [(blocks[c], table.get((k - 1, r - c), zero)) for c in range(1, r - k + 1)], zero, top
        )

    for s in range(2, smax + 1):
        last = forms[-1]
        blocks.append(partial_inverse(last, freq))
        u2[0, s - 1] = image_projection(last, freq) if kernel_corrected else last
        for k in range(1, s):
            u1[k, s], u2[k, s] = entry(u1, k, s), entry(u2, k, s)
        weighted = [(Fraction(1, math.factorial(k)), u1[k, s]) for k in range(1, s)]
        weighted += [(Fraction(-1, math.factorial(k + 1)), u2[k, s]) for k in range(1, s)]
        forms.append(combination(weighted, zero))
    # the returned forms need not keep the lists of the brackets they entered
    return [form._release() for form in forms[1:]]


@dataclass(frozen=True)
class TreesResult:
    """Normal form assembled from the multilinear forms, with audit rows."""

    normal_form: PolySeries
    rows: list[dict] | None


def nf_via_trees(
    hamiltonian: PolySeries,
    freq: FreqVector,
    kernel_corrected: bool = True,
    audit: bool = False,
) -> TreesResult:
    """N = H2 + A sum_s L_s(H*, .., H*) with H* = H - H2, by one recursion.

    Audit rows record, per degree, each tree's resonant contribution under
    the plain weighted-tree formula (nonzero rows only) and, in corrected
    mode, one extra row per degree holding the kernel correction (the
    difference between the corrected recursion total and the plain total).
    A row's ``"contribution"`` holds that piece as a series.  Only the audit enumerates trees, so only it is bounded by ``MAX_LEAVES``.
    """
    validate_hamiltonian(hamiltonian, freq)
    order = hamiltonian.order
    if audit and order - 2 > MAX_LEAVES:
        raise UsageError(
            f"degree {order} needs forms with up to {order - 2} arguments, "
            f"exceeding the limit of {MAX_LEAVES} leaves"
        )
    tail = hamiltonian.filter_terms(lambda pair: pair.degree >= 3)
    # an order-2 input has an empty tail; L_1 of it is zero
    forms = form_by_recursion(tail, max(order - 2, 1), freq, kernel_corrected, top_resonant=True)
    zero = PolySeries.zero(hamiltonian.n, order, hamiltonian.ring)
    recursion = resonant_projection(combination([(1, form) for form in forms], zero), freq)
    rows: list[dict] | None = [] if audit else None
    if audit:
        hparts = {m: tail.grade(m) for m in range(3, order + 1)}
        # shared by every tree and composition below; hparts keeps the
        # arguments alive, so the ids in the memo keys stand for source degrees
        memo: dict = {}
        for m in range(3, order + 1):
            correction = recursion.grade(m)  # less every plain tree row
            for s in range(1, m - 1):
                for comp in compositions(m - 2 + 2 * s, s, 3):
                    args = [hparts[j] for j in comp]
                    if any(a.is_zero for a in args):
                        continue
                    for t in all_trees(s):
                        piece = resonant_projection(
                            tree_bracket(t, args, freq, memo), freq
                        ).scale(tree_weight(t))
                        if piece.is_zero:
                            continue
                        if kernel_corrected:
                            correction = correction - piece
                        rows.append(
                            {
                                "degree": m,
                                "leaves": s,
                                "sources": list(comp),
                                "tree": t.render(),
                                "code": format_code(to_code(t)),
                                "mu": format_rational(tree_weight(t)),
                                "contribution": piece,
                            }
                        )
            if kernel_corrected and not correction.is_zero:
                rows.append(
                    {
                        "degree": m,
                        "kernel_correction": True,
                        "contribution": correction,
                    }
                )

    return TreesResult(
        normal_form=freq.quadratic_part(order, hamiltonian.ring) + recursion,
        rows=rows,
    )
