"""KD-Tree shell: splits, lookups, bounds bookkeeping, validation."""

import numpy as np
import pytest

from repro import RangeQuery
from repro.core.kdtree import KDTree
from repro.core.metrics import QueryStats
from repro.core.partition import stable_partition
from repro.errors import IndexStateError


def root_of(tree):
    """The single leaf of an unsplit tree."""
    (root,) = tree.iter_leaves()
    return root


def build_two_level_tree():
    """The paper's running example data, adapted: split on (A, 6), then the
    right side on (B, 5)."""
    a = np.array([6.0, 3.0, 16.0, 13.0, 2.0, 1.0, 8.0, 19.0, 7.0, 12.0, 11.0, 4.0, 9.0, 14.0])
    b = np.array([5.0, 9.0, 4.0, 2.0, 8.0, 11.0, 7.0, 19.0, 12.0, 20.0, 3.0, 6.0, 16.0, 2.0])
    rowids = np.arange(14, dtype=np.int64)
    arrays = [a, b, rowids]
    tree = KDTree(14, 2)
    split = stable_partition(arrays, 0, 14, 0, 6.0)
    left, right = tree.split_leaf(root_of(tree), 0, 6.0, split)
    split_b = stable_partition(arrays, right.start, right.end, 1, 5.0)
    tree.split_leaf(right, 1, 5.0, split_b)
    return tree, arrays


class TestStructure:
    def test_initial_tree_is_one_piece(self):
        tree = KDTree(100, 2)
        assert tree.node_count == 0
        assert tree.leaf_count == 1
        assert tree.height() == 0
        leaves = list(tree.iter_leaves())
        assert len(leaves) == 1
        assert (leaves[0].start, leaves[0].end) == (0, 100)

    def test_split_creates_children(self):
        tree, _ = build_two_level_tree()
        assert tree.node_count == 2
        assert tree.leaf_count == 3
        assert tree.height() == 2
        starts = [leaf.start for leaf in tree.iter_leaves()]
        assert starts == sorted(starts)

    def test_split_rejects_degenerate(self):
        tree = KDTree(10, 1)
        with pytest.raises(IndexStateError):
            tree.split_leaf(root_of(tree), 0, 5.0, 0)
        with pytest.raises(IndexStateError):
            tree.split_leaf(root_of(tree), 0, 5.0, 10)

    def test_children_levels_increment(self):
        tree = KDTree(10, 2)
        left, right = tree.split_leaf(root_of(tree), 0, 5.0, 4)
        assert left.level == 1 and right.level == 1

    def test_replace_detached_node_rejected(self):
        tree = KDTree(10, 1)
        root = root_of(tree)
        tree.split_leaf(root, 0, 5.0, 4)
        # The retired root is no leaf of the tree any more.
        with pytest.raises(IndexStateError):
            tree.split_leaf(root, 0, 2.0, 2)
        assert (tree.node_count, tree.leaf_count, len(tree.arena)) == (1, 2, 3)

    def test_max_leaf_size(self):
        tree = KDTree(10, 1)
        tree.split_leaf(root_of(tree), 0, 5.0, 3)
        assert tree.max_leaf_size() == 7

    def test_zero_size_tree(self):
        tree = KDTree(0, 1)
        assert tree.max_leaf_size() == 0

    def test_negative_size_rejected(self):
        with pytest.raises(IndexStateError):
            KDTree(-1, 1)
        with pytest.raises(IndexStateError):
            KDTree(10, 0)


class TestSearch:
    def test_paper_lookup_example(self):
        # Query 6 < A <= 15 AND 0 < B <= 5 must land only in the piece
        # with A > 6 and B <= 5 (Fig. 2 of the paper).
        tree, arrays = build_two_level_tree()
        query = RangeQuery([6.0, 0.0], [15.0, 5.0])
        stats = QueryStats()
        matches = tree.search(query, stats)
        assert len(matches) == 1
        piece = matches[0].piece
        a, b = arrays[0], arrays[1]
        assert (a[piece.start : piece.end] > 6.0).all()
        assert (b[piece.start : piece.end] <= 5.0).all()
        assert stats.lookup_nodes > 0

    def test_residual_check_flags(self):
        tree, _ = build_two_level_tree()
        # Path implies A > 6 and B <= 5; query low on A is exactly 6 and
        # high on B exactly 5, so those checks can be dropped.
        query = RangeQuery([6.0, 0.0], [15.0, 5.0])
        match = tree.search(query, QueryStats())[0]
        assert not match.check_low[0]  # implied by A > 6
        assert match.check_high[0]  # A <= 15 still needs testing
        assert match.check_low[1]  # B > 0 still needs testing
        assert not match.check_high[1]  # implied by B <= 5

    def test_search_prunes_disjoint_subtrees(self):
        tree, _ = build_two_level_tree()
        query = RangeQuery([0.0, 0.0], [3.0, 30.0])  # A <= 3: left side only
        matches = tree.search(query, QueryStats())
        assert len(matches) == 1
        assert matches[0].piece.start == 0

    def test_search_covers_all_matching_pieces(self):
        tree, _ = build_two_level_tree()
        query = RangeQuery([0.0, 0.0], [30.0, 30.0])  # everything
        matches = tree.search(query, QueryStats())
        assert len(matches) == 3

    def test_search_empty_interval_on_boundary(self):
        tree, _ = build_two_level_tree()
        # A in (6, 6] is empty on the left of the root and non-empty right.
        query = RangeQuery([6.0, 0.0], [6.5, 30.0])
        matches = tree.search(query, QueryStats())
        assert all(match.piece.start >= 1 for match in matches)

    def test_iter_leaves_with_bounds_restricted(self):
        tree, _ = build_two_level_tree()
        query = RangeQuery([6.0, 0.0], [15.0, 5.0])
        restricted = list(tree.iter_leaves_with_bounds(query))
        assert len(restricted) == 1
        piece, lob, hib = restricted[0]
        assert lob[0] == 6.0
        assert hib[1] == 5.0

    def test_iter_leaves_with_bounds_all(self):
        tree, _ = build_two_level_tree()
        assert len(list(tree.iter_leaves_with_bounds())) == 3


class TestValidate:
    def test_valid_tree_passes(self):
        tree, arrays = build_two_level_tree()
        tree.validate(arrays[:2])

    def test_detects_bound_violation(self):
        tree, arrays = build_two_level_tree()
        # Corrupt: put a large A value into the left (A <= 6) piece.
        arrays[0][0] = 100.0
        with pytest.raises(IndexStateError):
            tree.validate(arrays[:2])

    def test_detects_range_corruption(self):
        tree, arrays = build_two_level_tree()
        first_leaf = next(iter(tree.iter_leaves()))
        first_leaf.start = 1  # break the tiling
        with pytest.raises(IndexStateError):
            tree.validate(arrays[:2])
