"""Full binary trees and their backslash codes.

A tree is either the leaf or an ordered product (left, right) of two trees.
Trees with s leaves are counted by the Catalan number C(s-1).

The backslash code of a tree with s leaves is the integer list produced by a
depth-first walk that tracks how deep the current node sits along a chain of
right children:

    visit(leaf, c)     -> emit c
    visit((L R), c)    -> visit(L, 1); visit(R, c + 1)

starting at visit(root, 1).  A list k_1..k_s is a valid code iff

    (C1) every k_j >= 1;
    (C2) k_s >= 2 when s >= 2 (the single leaf has code [1]);
    (C3) k_1 + ... + k_j <= 2j - 1 for every j < s;
    (C4) k_1 + ... + k_s = 2s - 1.

``from_code`` validates those conditions by name and rebuilds the tree with a
stack; ``code_via_factorization`` recomputes the code independently through
the right-factor decomposition, which the tests play against the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional, Sequence

from .errors import InvalidCodeError, UsageError

# The most leaves ``all_trees`` enumerates: 16 leaves are already
# 9 694 845 trees, and each further leaf multiplies the count by about 4.
MAX_LEAVES = 16


@dataclass(frozen=True)
class Tree:
    """Full binary tree; ``left is None`` exactly for the leaf."""

    left: Optional["Tree"] = None
    right: Optional["Tree"] = None

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise UsageError("a tree node has either two children or none")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @cached_property
    def leaf_count(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.leaf_count + self.right.leaf_count

    def __mul__(self, other: "Tree") -> "Tree":
        if not isinstance(other, Tree):
            return NotImplemented
        return Tree(self, other)

    def render(self) -> str:
        """Parenthesized form with ``*`` for each leaf, e.g. ``((* *) *)``."""
        if self.is_leaf:
            return "*"
        return f"({self.left.render()} {self.right.render()})"

    def __repr__(self) -> str:
        return f"Tree[{self.render()}]"


LEAF = Tree()


def catalan_count(s: int) -> int:
    """Number of full binary trees with s leaves."""
    if s < 1:
        raise UsageError(f"leaf count must be positive, got {s}")
    return math.comb(2 * s - 2, s - 1) // s


@cache
def _all_trees(s: int) -> tuple[Tree, ...]:
    if s == 1:
        return (LEAF,)
    found: list[Tree] = []
    for k in range(1, s):
        for left in _all_trees(k):
            for right in _all_trees(s - k):
                found.append(Tree(left, right))
    return tuple(found)


def all_trees(s: int) -> tuple[Tree, ...]:
    """All full binary trees with s leaves, left leaf-count ascending."""
    if s < 1:
        raise UsageError(f"leaf count must be positive, got {s}")
    if s > MAX_LEAVES:
        raise UsageError(f"leaf count {s} exceeds the limit of {MAX_LEAVES} leaves")
    return _all_trees(s)


def right_factors(t: Tree) -> tuple[Tree, ...]:
    """Decompose t along its rightmost chain.

    The product of the result, combined right-to-left, recovers t; the last
    factor is always the leaf.
    """
    if t.is_leaf:
        return (LEAF,)
    return (t.left,) + right_factors(t.right)


def to_code(t: Tree) -> list[int]:
    """Backslash code by the depth-first chain walk."""
    out: list[int] = []

    def visit(node: Tree, chain: int) -> None:
        if node.is_leaf:
            out.append(chain)
        else:
            visit(node.left, 1)
            visit(node.right, chain + 1)

    visit(t, 1)
    return out


def code_via_factorization(t: Tree) -> list[int]:
    """Backslash code assembled from the right-factor decomposition.

    For t with factors (t_m, ..., t_2, leaf) the code is the concatenation of
    the factors' codes, leaf's code replaced by the single entry m.
    """
    if t.is_leaf:
        return [1]
    factors = right_factors(t)
    m = len(factors)
    out: list[int] = []
    for factor in factors[:-1]:
        out.extend(code_via_factorization(factor))
    out.append(m)
    return out


def validate_code(code: Sequence[int]) -> None:
    """Raise InvalidCodeError naming the violated condition, if any."""
    s = len(code)
    if s == 0:
        raise InvalidCodeError("empty code: a code must have at least one entry")
    for j, k in enumerate(code, start=1):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InvalidCodeError(
                f"entry {j} is {k!r}: every entry must be an integer >= 1"
            )
    if s == 1:
        if code[0] != 1:
            raise InvalidCodeError(
                f"single-leaf code must be [1], got [{code[0]}]"
            )
        return
    if code[-1] < 2:
        raise InvalidCodeError(
            f"last entry is {code[-1]}: the final entry must be >= 2"
        )
    partial = 0
    for j in range(1, s):
        partial += code[j - 1]
        if partial > 2 * j - 1:
            raise InvalidCodeError(
                f"prefix sum after entry {j} is {partial}, exceeding the bound {2 * j - 1}"
            )
    total = partial + code[-1]
    if total != 2 * s - 1:
        raise InvalidCodeError(
            f"entries sum to {total}; a {s}-leaf code must sum to {2 * s - 1}"
        )


def from_code(code: Sequence[int]) -> Tree:
    """Rebuild the tree whose backslash code is the given list."""
    validate_code(code)
    stack: list[Tree] = []
    for k in code:
        node = LEAF
        for _ in range(k - 1):
            node = Tree(stack.pop(), node)
        stack.append(node)
    if len(stack) != 1:
        raise InvalidCodeError("code does not assemble into a single tree")
    return stack[0]


def format_code(code: Sequence[int]) -> str:
    return "\\" + ",".join(str(k) for k in code) + "\\"


def parse_code(text: str) -> list[int]:
    body = text.strip()
    if body.startswith("\\") and body.endswith("\\") and len(body) >= 2:
        body = body[1:-1]
    if not body:
        raise InvalidCodeError("empty code: a code must have at least one entry")
    entries = []
    for piece in body.split(","):
        piece = piece.strip()
        if not piece or not piece.isdigit():
            raise InvalidCodeError(f"cannot read {piece!r} as a positive integer entry")
        entries.append(int(piece))
    return entries
