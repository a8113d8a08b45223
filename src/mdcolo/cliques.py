"""Maximal clique enumeration over the feature graph.

One pivoted Bron–Kerbosch pass (Bron & Kerbosch 1973; pivoting as in Tomita,
Tanaka & Takahashi 2006), bit-parallel as in San Segundo, Rodríguez-Losada &
Jiménez (2011): every vertex set is an int mask of feature ranks, and a
neighborhood is one AND with the vertex's adjacency mask.  Each call holds
the clique built so far, the candidates that would extend it, and the
excluded vertices: those that would extend it too but whose branches an
earlier sibling has already searched.  The pivot is the lowest-ranked
candidate with the most candidate neighbors, and only candidates outside its
neighborhood open a branch, lowest rank first.  The scan for it stops at the
first candidate adjacent to all the others, so a call inside a clique
intersects one neighborhood, not one per candidate.  A call with no
candidates left holds a maximal clique exactly when nothing is excluded, so
each maximal clique is emitted once and no filter runs afterwards.  A rank
without edges is never a candidate.  Ranks follow canonical feature order, so
the cliques' rank tuples sort as their patterns do.
"""

from __future__ import annotations

from .model import Pattern
from .size2 import FeatureGraph, mask_bits


def _expand(
    clique: int, candidates: int, excluded: int, adjacency: list[int], out: list[int]
) -> None:
    if not candidates:
        if not excluded and clique.bit_count() >= 2:
            out.append(clique)
        return
    # The lowest rank with the most candidate neighbors, read bit by bit so
    # the scan can stop early.
    pivot, most, everyone = -1, -1, candidates.bit_count() - 1
    rest = candidates
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        n = (adjacency[v] & candidates).bit_count()
        if n > most:
            pivot, most = v, n
            if n == everyone:
                break
    for v in mask_bits(candidates & ~adjacency[pivot]):
        bit, neighbors = 1 << v, adjacency[v]
        _expand(clique | bit, candidates & neighbors, excluded & neighbors, adjacency, out)
        candidates ^= bit
        excluded |= bit


def maximal_cliques(graph: FeatureGraph) -> tuple[Pattern, ...]:
    """All maximal cliques of size >= 2, canonically sorted."""
    features, adjacency = graph
    candidates = sum(1 << r for r, neighbors in enumerate(adjacency) if neighbors)
    out: list[int] = []
    _expand(0, candidates, 0, adjacency, out)
    return tuple(
        Pattern(map(features.__getitem__, ranks)) for ranks in sorted(map(mask_bits, out))
    )
