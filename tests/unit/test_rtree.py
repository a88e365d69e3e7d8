"""Unit tests for the R-tree spatial index."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.engine.index.rtree import RTree
from repro.geometry.model import Envelope


def box(min_x, min_y, max_x, max_y) -> Envelope:
    return Envelope(Fraction(min_x), Fraction(min_y), Fraction(max_x), Fraction(max_y))


def brute_force(entries, query) -> set[int]:
    return {row_id for envelope, row_id in entries if envelope.intersects(query)}


class TestInsertAndSearch:
    def test_empty_tree(self):
        tree = RTree()
        assert tree.search(box(0, 0, 10, 10)) == []
        assert tree.size == 0

    def test_single_entry(self):
        tree = RTree()
        tree.insert(box(0, 0, 1, 1), 7)
        assert tree.search(box(0, 0, 2, 2)) == [7]
        assert tree.search(box(5, 5, 6, 6)) == []

    def test_search_matches_brute_force_after_many_inserts(self):
        rng = random.Random(7)
        entries = []
        tree = RTree(max_entries=6, min_entries=3)
        for row_id in range(120):
            x, y = rng.randint(0, 100), rng.randint(0, 100)
            envelope = box(x, y, x + rng.randint(0, 10), y + rng.randint(0, 10))
            entries.append((envelope, row_id))
            tree.insert(envelope, row_id)
        assert tree.size == 120
        for _ in range(25):
            x, y = rng.randint(0, 100), rng.randint(0, 100)
            query = box(x, y, x + 15, y + 15)
            assert set(tree.search(query)) == brute_force(entries, query)

    def test_all_row_ids(self):
        tree = RTree()
        for row_id in range(20):
            tree.insert(box(row_id, row_id, row_id + 1, row_id + 1), row_id)
        assert sorted(tree.all_row_ids()) == list(range(20))

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            RTree(max_entries=3, min_entries=2)


def _check_structure(tree: RTree) -> None:
    """Capacity bound on every node and uniform leaf depth."""
    depths: set[int] = set()

    def walk(node, depth):
        assert len(node.entries) <= tree.max_entries
        if node.is_leaf:
            depths.add(depth)
        else:
            for child in node.entries:
                walk(child, depth + 1)

    walk(tree.root, 0)
    assert len(depths) <= 1


class TestQuadraticSplitMinFill:
    """Both split groups must respect the min-fill invariant.

    The original split guard counted the full remainder list instead of the
    still-unassigned entries and never protected group B, so splitting over
    duplicate envelopes (where the growth tie always favours group A) left
    one group with a single entry — an under-filled node that degrades every
    future insertion's balance.
    """

    @staticmethod
    def _min_fill_ok(tree: RTree) -> bool:
        verdict = True

        def walk(node, is_root):
            nonlocal verdict
            if not is_root and len(node.entries) < tree.min_entries:
                verdict = False
            if not node.is_leaf:
                for child in node.entries:
                    walk(child, False)

        walk(tree.root, True)
        return verdict

    def test_duplicate_envelope_splits_fill_both_groups(self):
        tree = RTree(max_entries=8, min_entries=3)
        for row_id in range(9):  # forces exactly one split of 9 equal boxes
            tree.insert(box(1, 1, 2, 2), row_id)
        assert self._min_fill_ok(tree)
        assert set(tree.search(box(1, 1, 2, 2))) == set(range(9))

    def test_degenerate_envelope_splits_fill_both_groups(self):
        tree = RTree(max_entries=4, min_entries=2)
        for row_id in range(40):
            tree.insert(box(0, 0, 0, 0), row_id)
        assert self._min_fill_ok(tree)
        _check_structure(tree)
        assert set(tree.search(box(0, 0, 0, 0))) == set(range(40))

    def test_randomized_inserts_keep_min_fill(self):
        rng = random.Random(31)
        tree = RTree(max_entries=6, min_entries=3)
        entries = []
        for row_id in range(150):
            x, y = rng.randint(-20, 20), rng.randint(-20, 20)
            width, height = rng.choice((0, 1, 4)), rng.choice((0, 1, 4))
            envelope = box(x, y, x + width, y + height)
            entries.append((envelope, row_id))
            tree.insert(envelope, row_id)
        assert self._min_fill_ok(tree)
        _check_structure(tree)
        for _ in range(20):
            x, y = rng.randint(-20, 20), rng.randint(-20, 20)
            query = box(x, y, x + 6, y + 6)
            assert set(tree.search(query)) == brute_force(entries, query)
