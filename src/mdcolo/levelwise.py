"""The level-wise join miner, the baseline the maximal miner is compared with.

Size-k patterns grow by joining prefix-sharing prevalent size-(k-1) patterns
and their tables, starting from the pair tables; a joined row survives when
its two last instances are themselves a pair-table row.  It reports every
prevalent pattern, so it doubles as a whole-result cross-check of
`--derive-all`.
"""

from __future__ import annotations

from itertools import combinations
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
    related = {row for table in tables.values() for row in table.rows}

    level: dict[Pattern, TableInstance] = {}
    all_prevalent: dict[Pattern, tuple[float, int]] = {}
    for pat, table in tables.items():
        dpi = participation_index(table, counts)
        if passes_prevalence(dpi, len(table), config):
            level[pat] = table
            all_prevalent[pat] = (dpi, len(table))

    while level:
        next_level: dict[Pattern, TableInstance] = {}
        patterns = sorted(level, key=lambda p: p.sort_key)
        for i, a_pat in enumerate(patterns):
            # a_pat's last instances by row prefix, built on its first join
            by_prefix: dict[tuple, list] | None = None
            for b_pat in patterns[i + 1:]:
                if a_pat.features[:-1] != b_pat.features[:-1]:
                    continue
                candidate = Pattern(a_pat.features + (b_pat.features[-1],))
                if by_prefix is None:
                    by_prefix = {}
                    for row in level[a_pat].rows:
                        by_prefix.setdefault(row[:-1], []).append(row[-1])
                rows = []
                for row in level[b_pat].rows:
                    for tail in by_prefix.get(row[:-1], ()):
                        if (tail, row[-1]) in related:
                            rows.append(row[:-1] + (tail, row[-1]))
                if not rows:
                    continue
                table = TableInstance(candidate, rows)
                dpi = participation_index(table, counts)
                if passes_prevalence(dpi, len(table), config):
                    next_level[candidate] = table
                    all_prevalent[candidate] = (dpi, len(table))
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
