"""A textbook tree edit distance, independent of the Zhang–Shasha DP.

The forest recurrence (Zhang & Shasha 1989, Lemma 3; Tai 1979), memoized
on the pair of forests and nothing else: no keyroots, no leftmost-leaf
arrays, no post-order tables.  Unit costs.  It is far slower than
:func:`repro.ted.tree_edit_distance`, but instant on the small trees the
tests compare on.
"""

from __future__ import annotations

from functools import lru_cache

from repro.ted import TreeNode


def reference_distance(tree1: TreeNode, tree2: TreeNode) -> int:
    """Unit-cost edit distance between two ordered labelled trees."""
    # Number every node of both trees; a forest is the tuple of its roots'
    # numbers, left to right.
    labels: list[str] = []
    children: list[tuple[int, ...]] = []
    sizes: list[int] = []

    def number(node: TreeNode) -> int:
        kids = tuple(number(child) for child in node.children)
        labels.append(node.label)
        children.append(kids)
        sizes.append(1 + sum(sizes[kid] for kid in kids))
        return len(labels) - 1

    root1, root2 = number(tree1), number(tree2)

    @lru_cache(maxsize=None)
    def forest_distance(f: tuple[int, ...], g: tuple[int, ...]) -> int:
        if not f:
            return sum(sizes[node] for node in g)
        if not g:
            return sum(sizes[node] for node in f)
        v, w = f[-1], g[-1]
        return min(
            # Delete v: its children take its place.
            forest_distance(f[:-1] + children[v], g) + 1,
            # Insert w.
            forest_distance(f, g[:-1] + children[w]) + 1,
            # Map v to w: the rest of the forests, and their subtrees.
            forest_distance(f[:-1], g[:-1])
            + forest_distance(children[v], children[w])
            + (labels[v] != labels[w]),
        )

    return forest_distance((root1,), (root2,))
