"""The level-wise join miner, the baseline the maximal miner is compared with.

Size-k patterns grow by joining prefix-sharing prevalent size-(k-1) patterns
and their rows, starting from the pair tables.  Patterns are tuples of their
features' ranks, as the pair tables are keyed (`PairTables`), and each level
keeps its rows as tuples of instance ordinals.  A joined row survives when
its two last ordinals are a row of their pair table, checked against one set
of ordinal pairs per table, and a candidate is scored from its ordinal
columns.  A `Pattern` is built only for a result.  It reports every
prevalent pattern, so it doubles as a whole-result cross-check of
`--derive-all`.
"""

from __future__ import annotations

from itertools import combinations

from .model import MiningConfig, Pattern
from .size2 import (
    FeatureCounts, PairTables, participant_masks, participation_share, passes_prevalence,
)
from .verify import PatternResult


def join_based_mine(
    tables: PairTables, counts: FeatureCounts, config: MiningConfig
) -> list[PatternResult]:
    """Every prevalent pattern of size >= 2 with maximality flagged, grown
    level by level from `tables`, every pair table of the series."""
    features = tables.series.columns.features
    totals = [counts.get(f, 0) for f in features]

    def index(ranks: tuple[int, ...], masks: tuple[int, ...]) -> float:
        return min(map(participation_share, masks, map(totals.__getitem__, ranks)))

    # Per pair table, its rows as ordinal pairs.
    related = {key: set(zip(*table.ordinals)) for key, table in tables.items()}

    # Each prevalent pattern of the current size -> its rows as ordinal tuples
    level: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    all_prevalent: dict[tuple[int, ...], tuple[float, int]] = {}
    for key, table in tables.items():
        dpi = index(key, table.columns())
        if passes_prevalence(dpi, len(table), config):
            level[key] = list(zip(*table.ordinals))
            all_prevalent[key] = (dpi, len(table))

    while level:
        next_level: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        # Rank tuples sort as their patterns do, so the patterns that share
        # a_pat's prefix come right after it.
        patterns = sorted(level)
        for i, a_pat in enumerate(patterns):
            # a_pat's last ordinals by row prefix, built on its first join
            by_prefix: dict[tuple, list[int]] | None = None
            for j in range(i + 1, len(patterns)):
                b_pat = patterns[j]
                if a_pat[:-1] != b_pat[:-1]:
                    break
                pairs = related.get((a_pat[-1], b_pat[-1]))
                if pairs is None:
                    continue
                if by_prefix is None:
                    by_prefix = {}
                    for row in level[a_pat]:
                        by_prefix.setdefault(row[:-1], []).append(row[-1])
                rows = []
                for row in level[b_pat]:
                    for tail in by_prefix.get(row[:-1], ()):
                        if (tail, row[-1]) in pairs:
                            rows.append(row[:-1] + (tail, row[-1]))
                if not rows:
                    continue
                candidate = a_pat + (b_pat[-1],)
                dpi = index(candidate, participant_masks(zip(*rows)))
                if passes_prevalence(dpi, len(rows), config):
                    next_level[candidate] = rows
                    all_prevalent[candidate] = (dpi, len(rows))
        level = next_level

    # By anti-monotonicity, a pattern is maximal exactly when no prevalent
    # pattern one feature larger contains it.
    covered = {sub for ranks in all_prevalent for sub in combinations(ranks, len(ranks) - 1)}
    results = []
    for ranks, (dpi, rows) in sorted(all_prevalent.items()):
        pattern = Pattern(map(features.__getitem__, ranks))
        results.append(PatternResult(pattern, dpi, rows, ranks not in covered))
    return results
