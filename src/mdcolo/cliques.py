"""Maximal clique enumeration over the feature graph.

The search always expands around the highest-degree vertex of the current
subgraph: its neighborhood is recursed into with the vertex accumulated, and
each non-neighbor then anchors its own branch over what remains.  A branch
whose subgraph is empty closes the accumulated clique.  The raw emission
stream can contain duplicates and non-maximal subsets, so a subset filter runs
at the end; the filtered result is exactly the set of maximal cliques with two
or more vertices.  All ties break on canonical feature order, making the
output deterministic.
"""

from __future__ import annotations

from .model import DynamicFeature, Pattern
from .size2 import FeatureGraph

_Adjacency = dict[DynamicFeature, frozenset[DynamicFeature]]


def _max_degree_vertex(vertices: set[DynamicFeature], adj: _Adjacency) -> DynamicFeature:
    return min(vertices, key=lambda v: (-len(adj[v] & vertices), v.sort_key))


def _expand(
    vertices: set[DynamicFeature],
    acc: tuple[DynamicFeature, ...],
    adj: _Adjacency,
    out: list[tuple[DynamicFeature, ...]],
) -> None:
    if not vertices:
        out.append(acc)
        return
    v_max = _max_degree_vertex(vertices, adj)
    linked = adj[v_max] & vertices
    unlinked = vertices - linked - {v_max}
    _expand(set(linked), acc + (v_max,), adj, out)
    remaining = set(unlinked)
    for v in sorted(unlinked, key=lambda f: f.sort_key):
        remaining.discard(v)
        reachable = adj[v] & (remaining | linked)
        _expand(set(reachable), acc + (v,), adj, out)


def _drop_subsumed(emitted: list[tuple[DynamicFeature, ...]]) -> list[frozenset[DynamicFeature]]:
    distinct = {frozenset(clique) for clique in emitted}
    by_size = sorted(distinct, key=len, reverse=True)
    kept: list[frozenset[DynamicFeature]] = []
    containing: dict[DynamicFeature, list[frozenset[DynamicFeature]]] = {}
    for clique in by_size:
        # A kept superset would contain every vertex of this clique, so the
        # kept cliques through its least-used vertex are enough to check.
        candidates = min((containing.get(v, []) for v in clique), key=len)
        if any(clique < other for other in candidates):
            continue
        kept.append(clique)
        for v in clique:
            containing.setdefault(v, []).append(clique)
    return kept


def maximal_cliques(graph: FeatureGraph) -> tuple[Pattern, ...]:
    """All maximal cliques of size >= 2, canonically sorted."""
    if not graph.vertices:
        return ()
    out: list[tuple[DynamicFeature, ...]] = []
    _expand(set(graph.vertices), (), graph.adjacency, out)
    kept = [clique for clique in _drop_subsumed(out) if len(clique) >= 2]
    return tuple(sorted((Pattern(clique) for clique in kept), key=lambda p: p.sort_key))
