"""The level-wise join miner, the baseline the maximal miner is compared with.

Size-k patterns grow by joining prefix-sharing prevalent size-(k-1) patterns
and their rows, starting from the pair tables.  Each level keeps its rows as
tuples of instance ordinals.  A joined row survives when its two last
ordinals are a row of their pair table, checked against one set of ordinal
pairs per table, and a table is built only to score a candidate.  It reports
every prevalent pattern, so it doubles as a whole-result cross-check of
`--derive-all`.
"""

from __future__ import annotations

from typing import Mapping

from .model import MiningConfig, Pattern
from .size2 import FeatureCounts, TableInstance, participation_index, passes_prevalence
from .verify import PatternResult


def join_based_mine(
    tables: Mapping[Pattern, TableInstance],
    counts: FeatureCounts,
    config: MiningConfig,
) -> list[PatternResult]:
    """Every prevalent pattern of size >= 2 with maximality flagged, grown
    level by level from `tables`, every pair table of the series."""
    # Per pair table, its rows as ordinal pairs.
    related = {pat.features: set(zip(*table.ordinals)) for pat, table in tables.items()}

    # Each prevalent pattern of the current size -> its rows as ordinal tuples
    level: dict[Pattern, list[tuple[int, ...]]] = {}
    all_prevalent: dict[Pattern, tuple[float, int]] = {}
    for pat, table in tables.items():
        dpi = participation_index(table, counts)
        if passes_prevalence(dpi, len(table), config):
            level[pat] = list(zip(*table.ordinals))
            all_prevalent[pat] = (dpi, len(table))
            # every table of the join names its rows through one series
            series = table.series

    while level:
        next_level: dict[Pattern, list[tuple[int, ...]]] = {}
        patterns = sorted(level, key=lambda p: p.sort_key)
        for i, a_pat in enumerate(patterns):
            # a_pat's last ordinals by row prefix, built on its first join
            by_prefix: dict[tuple, list[int]] | None = None
            for b_pat in patterns[i + 1:]:
                if a_pat.features[:-1] != b_pat.features[:-1]:
                    continue
                pairs = related.get((a_pat.features[-1], b_pat.features[-1]))
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
                candidate = Pattern(a_pat.features + (b_pat.features[-1],))
                table = TableInstance(candidate, tuple(map(list, zip(*rows))), series)
                dpi = participation_index(table, counts)
                if passes_prevalence(dpi, len(rows), config):
                    next_level[candidate] = rows
                    all_prevalent[candidate] = (dpi, len(rows))
        level = next_level

    results = []
    patterns = list(all_prevalent)
    for pat in patterns:
        is_max = not any(
            pat.feature_set < other.feature_set for other in patterns if other.size > pat.size
        )
        dpi, rows = all_prevalent[pat]
        results.append(PatternResult(pat, dpi, rows, is_max))
    return sorted(results, key=lambda r: r.pattern.sort_key)
