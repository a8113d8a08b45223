"""Proximity join over dynamic instances.

Two instances of different dynamic features relate when they are within d_d
of each other (Euclidean, inclusive) and their windows differ by at most the
larger of the two features' spans (inclusive by default, strict optionally).
Candidates come from a uniform grid with cells just wider than d_d, so only
the 3x3 block of cells around an instance is ever scanned.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .model import ConfigError, DynamicFeature, DynamicInstance, MiningConfig
from .snapshots import DynamicDatasetSeries

# Canonically ordered: pair[0].sort_key < pair[1].sort_key, which also means
# pair[0].feature sorts before pair[1].feature (same-feature pairs are dropped).
NeighborPair = tuple[DynamicInstance, DynamicInstance]

# A pair whose rounded distance passes the d_d test can be a rounding error
# over d_d apart, which cells exactly d_d wide may place two cells apart.  The
# slack outweighs the rounding of x / cell for coordinates within about 1e9
# cells of the origin, so cells are never narrower than 1 / _MAX_CELLS of the
# largest coordinate (a tiny d_d would otherwise overflow x / cell).
_CELL_SLACK = 1 + 1e-6
_MAX_CELLS = 2**30

_T_INDEX = attrgetter("t_index")


class GridIndex:
    """Uniform spatial grid; every cell lists its instances sorted by t_index."""

    def __init__(self, instances: Iterable[DynamicInstance], cell_size: float):
        if not (cell_size > 0):
            raise ConfigError(f"cell size must be positive, got {cell_size}")
        self.cell_size = cell_size
        self.cells: dict[tuple[int, int], list[DynamicInstance]] = {}
        for inst in instances:
            self.cells.setdefault(self.cell_of(inst.x, inst.y), []).append(inst)
        for bucket in self.cells.values():
            bucket.sort(key=_T_INDEX)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self.cell_size), math.floor(y / self.cell_size))

    def candidates(self, cell: tuple[int, int], t_lo: int, t_hi: int) -> Iterator[DynamicInstance]:
        """Instances in the 3x3 block around `cell` with t_index in [t_lo, t_hi]."""
        cx, cy = cell
        for nx in (cx - 1, cx, cx + 1):
            for ny in (cy - 1, cy, cy + 1):
                bucket = self.cells.get((nx, ny))
                if bucket:
                    lo = bisect_left(bucket, t_lo, key=_T_INDEX)
                    yield from bucket[lo:bisect_right(bucket, t_hi, lo, key=_T_INDEX)]


def _temporal_ok(dt: int, limit: int, mode: str) -> bool:
    return dt <= limit if mode == "inclusive" else dt < limit


def neighbor_pairs(
    series: DynamicDatasetSeries,
    spans: Mapping[DynamicFeature, int],
    config: MiningConfig,
) -> tuple[NeighborPair, ...]:
    """All related instance pairs, canonically ordered and sorted.

    Every feature present in the series must have a span.
    """
    instances = [inst for inst in series.all_instances()]
    missing = {inst.feature for inst in instances} - set(spans)
    if missing:
        names = ", ".join(sorted(f.label for f in missing))
        raise ConfigError(f"no span for feature(s): {names}")
    if not instances:
        return ()

    reach = max(max(abs(inst.x), abs(inst.y)) for inst in instances)
    grid = GridIndex(instances, max(config.d_d, reach / _MAX_CELLS) * _CELL_SLACK)
    max_span = max(spans[inst.feature] for inst in instances)
    dd_sq = config.d_d * config.d_d
    mode = config.temporal_comparison
    pairs: list[NeighborPair] = []
    for a in instances:
        a_key = a.sort_key
        a_span = spans[a.feature]
        cell = grid.cell_of(a.x, a.y)
        # Superset of any admissible window range; the exact per-pair check follows.
        for b in grid.candidates(cell, a.t_index - max_span, a.t_index + max_span):
            if b.sort_key <= a_key or b.feature == a.feature:
                continue
            if not _temporal_ok(abs(a.t_index - b.t_index), max(a_span, spans[b.feature]), mode):
                continue
            if (a.x - b.x) ** 2 + (a.y - b.y) ** 2 <= dd_sq:
                pairs.append((a, b))
    pairs.sort(key=lambda p: (p[0].sort_key, p[1].sort_key))
    return tuple(pairs)
