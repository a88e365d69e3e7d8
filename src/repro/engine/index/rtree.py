"""A small R-tree used as MiniSDB's GiST-style spatial index.

The index stores ``(envelope, row identifier)`` entries and answers
envelope-intersection queries.  It is built by incremental insertion with
quadratic-split node overflow handling, as ``CREATE INDEX`` and every later
``INSERT`` feed it row by row.

The executor uses the index as a *filter* step (candidate row ids whose
envelopes intersect the query envelope) followed by the exact predicate — the
same filter/refine architecture PostGIS's GiST index implements.  The
injected bug ``postgis_gist_index_drops_empty`` reproduces the paper's
Listing 8 by silently skipping EMPTY geometries at insertion time, so the
index path returns fewer rows than the sequential scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.geometry.model import Envelope

DEFAULT_MAX_ENTRIES = 8
DEFAULT_MIN_ENTRIES = 3


@dataclass
class RTreeEntry:
    """A leaf entry: a bounding box and the row id it belongs to."""

    envelope: Envelope
    row_id: int


@dataclass
class _Node:
    is_leaf: bool
    entries: list = field(default_factory=list)  # RTreeEntry for leaves, _Node otherwise
    envelope: Envelope | None = None

    def recompute_envelope(self) -> None:
        boxes = [
            entry.envelope for entry in self.entries if entry.envelope is not None
        ]
        if not boxes:
            self.envelope = None
            return
        box = boxes[0]
        for other in boxes[1:]:
            box = box.expanded(other)
        self.envelope = box


class RTree:
    """R-tree over :class:`Envelope` keys with integer row-id payloads."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int = DEFAULT_MIN_ENTRIES,
    ):
        if min_entries < 1 or max_entries < 2 * min_entries:
            raise ValueError("max_entries must be at least twice min_entries")
        self.max_entries = max_entries
        self.min_entries = min_entries
        self.root = _Node(is_leaf=True)
        self.size = 0

    # ------------------------------------------------------------------ build
    def insert(self, envelope: Envelope, row_id: int) -> None:
        """Insert one entry, splitting nodes on overflow."""
        entry = RTreeEntry(envelope, row_id)
        leaf = self._choose_leaf(self.root, envelope)
        leaf.entries.append(entry)
        leaf.recompute_envelope()
        self._handle_overflow(leaf)
        self._refresh_envelopes(self.root)
        self.size += 1

    # ---------------------------------------------------------------- queries
    def search(self, envelope: Envelope) -> list[int]:
        """Row ids whose stored envelope intersects the query envelope."""
        results: list[int] = []
        self._search_node(self.root, envelope, results)
        return results

    def all_row_ids(self) -> list[int]:
        """Every row id stored in the index (used by consistency checks)."""
        return [entry.row_id for entry in self._iter_leaf_entries(self.root)]

    def _iter_leaf_entries(self, node: _Node) -> Iterator[RTreeEntry]:
        if node.is_leaf:
            yield from node.entries
        else:
            for child in node.entries:
                yield from self._iter_leaf_entries(child)

    def _search_node(self, node: _Node, envelope: Envelope, results: list[int]) -> None:
        if node.envelope is not None and not node.envelope.intersects(envelope):
            return
        if node.is_leaf:
            for entry in node.entries:
                if entry.envelope.intersects(envelope):
                    results.append(entry.row_id)
        else:
            for child in node.entries:
                self._search_node(child, envelope, results)

    # ------------------------------------------------------------- internals
    def _choose_leaf(self, node: _Node, envelope: Envelope) -> _Node:
        if node.is_leaf:
            return node
        best_child = None
        best_growth = None
        for child in node.entries:
            if child.envelope is None:
                growth = envelope.area()
            else:
                growth = child.envelope.expanded(envelope).area() - child.envelope.area()
            if best_growth is None or growth < best_growth:
                best_growth = growth
                best_child = child
        return self._choose_leaf(best_child, envelope)

    def _handle_overflow(self, node: _Node) -> None:
        if len(node.entries) <= self.max_entries:
            return
        parent = self._find_parent(self.root, node)
        first, second = self._quadratic_split(node)
        if parent is None:
            new_root = _Node(is_leaf=False, entries=[first, second])
            new_root.recompute_envelope()
            self.root = new_root
        else:
            parent.entries.remove(node)
            parent.entries.extend([first, second])
            parent.recompute_envelope()
            self._handle_overflow(parent)

    def _quadratic_split(self, node: _Node) -> tuple[_Node, _Node]:
        entries = list(node.entries)

        def waste(one, two) -> float:
            combined = one.envelope.expanded(two.envelope).area()
            return float(combined - one.envelope.area() - two.envelope.area())

        seed_a, seed_b = 0, 1
        worst = None
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                current = waste(entries[i], entries[j])
                if worst is None or current > worst:
                    worst = current
                    seed_a, seed_b = i, j

        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        remaining = [e for k, e in enumerate(entries) if k not in (seed_a, seed_b)]
        for position, entry in enumerate(remaining):
            # Guttman's min-fill rule: when a group needs every entry still
            # unassigned (this one included) to reach min_entries, it gets
            # them all.  The count must be of *unassigned* entries — using
            # the full remainder list would mistime the rule and let splits
            # (e.g. over duplicate envelopes, where the growth tie always
            # favours group A) leave the other group under-filled.
            unassigned = len(remaining) - position
            if len(group_a) + unassigned <= self.min_entries:
                group_a.append(entry)
                continue
            if len(group_b) + unassigned <= self.min_entries:
                group_b.append(entry)
                continue
            growth_a = _group_envelope(group_a).expanded(entry.envelope).area()
            growth_b = _group_envelope(group_b).expanded(entry.envelope).area()
            (group_a if growth_a <= growth_b else group_b).append(entry)

        first = _Node(is_leaf=node.is_leaf, entries=group_a)
        second = _Node(is_leaf=node.is_leaf, entries=group_b)
        first.recompute_envelope()
        second.recompute_envelope()
        return first, second

    def _find_parent(self, current: _Node, target: _Node) -> _Node | None:
        if current.is_leaf:
            return None
        for child in current.entries:
            if child is target:
                return current
            found = self._find_parent(child, target)
            if found is not None:
                return found
        return None

    def _refresh_envelopes(self, node: _Node) -> None:
        if not node.is_leaf:
            for child in node.entries:
                self._refresh_envelopes(child)
        node.recompute_envelope()


def _group_envelope(entries: list) -> Envelope:
    box = entries[0].envelope
    for entry in entries[1:]:
        box = box.expanded(entry.envelope)
    return box
