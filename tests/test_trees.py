"""Full-binary-tree tests: enumeration, the backslash codec, factorizations."""

from math import comb

import pytest

from birkhoff import (
    LEAF,
    InvalidCodeError,
    Tree,
    UsageError,
    all_trees,
    catalan_count,
    code_via_factorization,
    compositions,
    format_code,
    from_code,
    parse_code,
    right_factors,
    to_code,
    validate_code,
)
from birkhoff.trees import MAX_LEAVES


def t(*parts):
    """Left-to-right product builder; t(a, b, c) = ((a b) c)."""
    node = parts[0]
    for p in parts[1:]:
        node = Tree(node, p)
    return node


class TestTree:
    def test_leaf(self):
        assert LEAF.is_leaf
        assert LEAF.leaf_count == 1

    def test_partial_node_rejected(self):
        with pytest.raises(UsageError):
            Tree(LEAF, None)

    def test_product_and_leaf_count(self):
        prod = LEAF * (LEAF * LEAF)
        assert prod.leaf_count == 3
        assert not prod.is_leaf
        assert prod.left is LEAF

    def test_render(self):
        assert LEAF.render() == "*"
        assert (LEAF * (LEAF * LEAF)).render() == "(* (* *))"


class TestEnumeration:
    def test_catalan_counts(self):
        assert [catalan_count(s) for s in range(1, 9)] == [1, 1, 2, 5, 14, 42, 132, 429]
        assert catalan_count(10) == 4862
        assert catalan_count(11) == 16796
        assert catalan_count(s=5) == comb(8, 4) // 5

    @pytest.mark.parametrize("s", range(1, 9))
    def test_all_trees_count(self, s):
        trees = all_trees(s)
        assert len(trees) == catalan_count(s)
        assert len(set(trees)) == len(trees)
        assert all(tree.leaf_count == s for tree in trees)

    def test_max_leaves_guard(self):
        assert MAX_LEAVES == 16
        with pytest.raises(UsageError) as excinfo:
            all_trees(17)
        assert str(excinfo.value) == "leaf count 17 exceeds the limit of 16 leaves"

    def test_bad_size(self):
        with pytest.raises(UsageError):
            all_trees(0)


class TestCodec:
    def test_leaf_code(self):
        assert to_code(LEAF) == [1]

    def test_two_leaves(self):
        assert to_code(LEAF * LEAF) == [1, 2]

    def test_known_four_leaf_codes(self):
        cases = {
            (1, 1, 1, 4): LEAF * (LEAF * (LEAF * LEAF)),
            (1, 1, 2, 3): LEAF * ((LEAF * LEAF) * LEAF),
            (1, 2, 1, 3): (LEAF * LEAF) * (LEAF * LEAF),
            (1, 1, 3, 2): (LEAF * (LEAF * LEAF)) * LEAF,
            (1, 2, 2, 2): ((LEAF * LEAF) * LEAF) * LEAF,
        }
        for code, tree in cases.items():
            assert tuple(to_code(tree)) == code
            assert from_code(list(code)) == tree

    def test_deep_chain_code(self):
        # ((* (* *)) *) appears as entry 28 in an 8-leaf enumeration context
        tree = (LEAF * (LEAF * LEAF)) * LEAF
        assert to_code(tree) == [1, 1, 3, 2]

    @pytest.mark.parametrize("s", range(1, 9))
    def test_round_trip_exhaustive(self, s):
        seen = set()
        for tree in all_trees(s):
            code = to_code(tree)
            validate_code(code)
            assert len(code) == s
            assert from_code(code) == tree
            seen.add(tuple(code))
        assert len(seen) == catalan_count(s)

    @pytest.mark.parametrize("s", range(1, 8))
    def test_factorization_route_agrees(self, s):
        for tree in all_trees(s):
            assert code_via_factorization(tree) == to_code(tree)

    def test_invalid_codes_name_the_condition(self):
        with pytest.raises(InvalidCodeError, match="empty code"):
            validate_code([])
        with pytest.raises(InvalidCodeError, match="integer >= 1"):
            validate_code([1, 0, 2])
        with pytest.raises(InvalidCodeError, match="integer >= 1"):
            validate_code([1, "2"])
        with pytest.raises(InvalidCodeError, match="single-leaf"):
            validate_code([2])
        with pytest.raises(InvalidCodeError, match="final entry"):
            validate_code([2, 2, 2, 1])
        with pytest.raises(InvalidCodeError, match="prefix sum"):
            validate_code([3, 1, 1, 2])
        with pytest.raises(InvalidCodeError, match="sum to"):
            validate_code([1, 1, 2, 2])

    def test_from_code_validates(self):
        with pytest.raises(InvalidCodeError):
            from_code([1, 1])

    def test_format_and_parse(self):
        assert format_code([1, 1, 3, 2]) == "\\1,1,3,2\\"
        assert parse_code("\\1,1,3,2\\") == [1, 1, 3, 2]
        assert parse_code("1,2") == [1, 2]
        with pytest.raises(InvalidCodeError):
            parse_code("\\1,x\\")
        with pytest.raises(InvalidCodeError):
            parse_code("")


class TestRightFactors:
    def test_leaf(self):
        assert right_factors(LEAF) == (LEAF,)

    def test_known_example(self):
        # (* *)(* (* *)) splits into (* *), *, *, *
        tree = (LEAF * LEAF) * (LEAF * (LEAF * LEAF))
        factors = right_factors(tree)
        assert factors == (LEAF * LEAF, LEAF, LEAF, LEAF)

    @pytest.mark.parametrize("s", range(1, 8))
    def test_reassembly(self, s):
        for tree in all_trees(s):
            factors = right_factors(tree)
            assert sum(f.leaf_count for f in factors) == s
            node = factors[-1]
            for f in reversed(factors[:-1]):
                node = Tree(f, node)
            assert node == tree
            # every right factor's own last factor is a leaf or the chain ends
            assert all(not f.is_leaf or f is LEAF for f in factors)


class TestCompositions:
    def test_basic(self):
        assert list(compositions(7, 2, 3)) == [(3, 4), (4, 3)]
        assert list(compositions(3, 1, 3)) == [(3,)]
        assert list(compositions(2, 3, 1)) == []
        assert list(compositions(0, 0)) == [()]

    def test_counts(self):
        # compositions of m into k parts >= 1 number C(m-1, k-1)
        for m in range(1, 9):
            for k in range(1, m + 1):
                assert len(list(compositions(m, k, 1))) == comb(m - 1, k - 1)

    def test_ordering_is_deterministic(self):
        first = list(compositions(9, 3, 2))
        second = list(compositions(9, 3, 2))
        assert first == second
        assert len(set(first)) == len(first)
