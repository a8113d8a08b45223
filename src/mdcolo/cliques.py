"""Maximal clique enumeration over the feature graph.

One pivoted Bron–Kerbosch pass (Bron & Kerbosch 1973; pivoting as in Tomita,
Tanaka & Takahashi 2006).  Each call holds the clique built so far, the
candidates that would extend it, and the excluded vertices: those that would
extend it too but whose branches an earlier sibling has already searched.  The
pivot is the candidate with the most candidate neighbors, and only candidates
outside its neighborhood open a branch.  The scan for it stops at the first
candidate adjacent to all the others, so a call inside a clique intersects one
neighborhood, not one per candidate.  A call with no candidates left holds a
maximal clique exactly when nothing is excluded, so each maximal clique is
emitted once and no filter runs afterwards.  Ties break on canonical feature
order, and the output is canonically sorted.
"""

from __future__ import annotations

from .model import DynamicFeature, Pattern
from .size2 import FeatureGraph

_Adjacency = dict[DynamicFeature, frozenset[DynamicFeature]]


def _expand(
    clique: tuple[DynamicFeature, ...],
    candidates: set[DynamicFeature],
    excluded: set[DynamicFeature],
    adj: _Adjacency,
    out: list[Pattern],
) -> None:
    if not candidates:
        if not excluded and len(clique) >= 2:
            out.append(Pattern(clique))
        return
    # The first in canonical order with the most candidate neighbors.
    pivot, most, everyone = None, -1, len(candidates) - 1
    for v in sorted(candidates, key=lambda f: f.sort_key):
        n = len(adj[v] & candidates)
        if n > most:
            pivot, most = v, n
            if n == everyone:
                break
    for v in sorted(candidates - adj[pivot], key=lambda f: f.sort_key):
        _expand(clique + (v,), candidates & adj[v], excluded & adj[v], adj, out)
        candidates.discard(v)
        excluded.add(v)


def maximal_cliques(graph: FeatureGraph) -> tuple[Pattern, ...]:
    """All maximal cliques of size >= 2, canonically sorted."""
    out: list[Pattern] = []
    _expand((), set(graph.vertices), set(), graph.adjacency, out)
    return tuple(sorted(out, key=lambda p: p.sort_key))
