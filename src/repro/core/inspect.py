"""Index introspection: summaries, ASCII rendering, and Graphviz export.

Incremental indexes live or die by their *shape* — how deep the tree got,
how skewed the pieces are, where the refined regions sit.  These helpers
expose that shape for debugging, the examples, and the test suite, without
the index classes having to carry presentation code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .kdtree import KDTree

__all__ = ["TreeSummary", "summarize_tree", "render_tree", "export_dot"]


@dataclass
class TreeSummary:
    """Structural statistics of one KD-Tree."""

    n_rows: int
    n_internal: int
    n_leaves: int
    height: int
    min_leaf: int
    max_leaf: int
    mean_leaf: float
    median_leaf: float
    balance: float  # height / ceil(log2(leaves)); 1.0 is perfectly balanced
    converged_leaves: int
    dims_used: List[int]  # split counts per dimension

    def __str__(self) -> str:
        dims = ", ".join(
            f"d{dim}:{count}" for dim, count in enumerate(self.dims_used)
        )
        return (
            f"KD-Tree over {self.n_rows} rows: {self.n_internal} nodes, "
            f"{self.n_leaves} pieces (sizes {self.min_leaf}..{self.max_leaf}, "
            f"mean {self.mean_leaf:.1f}), height {self.height} "
            f"(balance {self.balance:.2f}), splits per dim [{dims}]"
        )


def summarize_tree(tree: KDTree) -> TreeSummary:
    """Compute a :class:`TreeSummary` for ``tree``."""
    sizes: List[int] = []
    converged = 0
    dims_used = [0] * tree.n_dims
    n_internal = 0
    for dim, piece in zip(tree.arena.dims, tree.arena.pieces):
        if piece is not None:
            sizes.append(piece.size)
            if piece.converged:
                converged += 1
        else:
            n_internal += 1
            dims_used[dim] += 1
    height = tree.height()
    n_leaves = len(sizes)
    ideal = max(1, int(np.ceil(np.log2(max(2, n_leaves)))))
    return TreeSummary(
        n_rows=tree.n_rows,
        n_internal=n_internal,
        n_leaves=n_leaves,
        height=height,
        min_leaf=min(sizes) if sizes else 0,
        max_leaf=max(sizes) if sizes else 0,
        mean_leaf=float(np.mean(sizes)) if sizes else 0.0,
        median_leaf=float(np.median(sizes)) if sizes else 0.0,
        balance=height / ideal if n_leaves > 1 else float(height >= 1),
        converged_leaves=converged,
        dims_used=dims_used,
    )


def render_tree(
    tree: KDTree, max_depth: int = 6, max_nodes: int = 200
) -> str:
    """ASCII rendering of the tree structure (truncated for big trees).

    Example output::

        [0,14) dim0 <= 6.0
        +-- [0,6)
        +-- [6,14) dim1 <= 5.0
            +-- [6,9)
            +-- [9,14)
    """
    lines: List[str] = []
    arena = tree.arena

    def visit(node: int, prefix: str, connector: str, depth: int) -> None:
        if len(lines) >= max_nodes:
            return
        span = f"{prefix}{connector}[{arena.los[node]},{arena.his[node]})"
        piece = arena.pieces[node]
        if piece is not None:
            state = " converged" if piece.converged else ""
            job = " (partitioning)" if piece.job is not None else ""
            lines.append(f"{span}{state}{job}")
            return
        lines.append(f"{span} dim{arena.dims[node]} <= {arena.keys[node]:g}")
        if depth >= max_depth:
            lines.append(f"{prefix}    ... (deeper levels elided)")
            return
        child_prefix = prefix + ("    " if connector else "")
        child = arena.lefts[node]
        visit(child, child_prefix, "+-- ", depth + 1)
        visit(child + 1, child_prefix, "+-- ", depth + 1)

    visit(0, "", "", 0)
    if len(lines) >= max_nodes:
        lines.append(f"... ({max_nodes}-line limit reached)")
    return "\n".join(lines)


def export_dot(tree: KDTree, name: str = "kdtree") -> str:
    """Graphviz DOT text for the tree (paste into ``dot -Tpng``)."""
    lines = [f"digraph {name} {{", "  node [shape=box, fontname=monospace];"]
    arena = tree.arena
    counter = [0]

    def visit(node: int) -> str:
        identity = f"n{counter[0]}"
        counter[0] += 1
        span = f"[{arena.los[node]},{arena.his[node]})"
        piece = arena.pieces[node]
        if piece is not None:
            label = span + ("\\nconverged" if piece.converged else "")
            lines.append(f'  {identity} [label="{label}", style=filled];')
        else:
            lines.append(
                f'  {identity} [label="dim{arena.dims[node]} <= '
                f'{arena.keys[node]:g}\\n{span}"];'
            )
            child = arena.lefts[node]
            left = visit(child)
            right = visit(child + 1)
            lines.append(f"  {identity} -> {left};")
            lines.append(f"  {identity} -> {right};")
        return identity

    visit(0)
    lines.append("}")
    return "\n".join(lines)
