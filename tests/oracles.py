"""Slow reference implementations used to cross-check the mining pipeline.

Each oracle recomputes its answer from first principles rather than through
the production code paths: the pair scan compares every instance pair
directly, the brute-force miner enumerates feature subsets over the scan's
pairs and searches rows exhaustively, the row reference lists a candidate's
table instance without any anchor, and the clique oracle is the classical
pivoted enumeration.  `cliques` runs a pivoted search too, but it picks its
pivot from the candidates only; the oracle picks it from the candidates and
the excluded vertices alike.  This module lives with the tests, outside the
package.  The level-wise baseline miner lives in `mdcolo.levelwise`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from mdcolo.model import ConfigError, DynamicFeature, MiningConfig, Pattern
from mdcolo.neighborhood import NeighborPair
from mdcolo.size2 import FeatureCounts, FeatureGraph, PairTables, TableInstance, passes_prevalence
from mdcolo.snapshots import DynamicDatasetSeries
from mdcolo.verify import PatternResult

from conftest import by_features


class CapExceededError(ConfigError):
    """The input is too large for an exhaustive oracle to finish sensibly."""


@dataclass(frozen=True)
class OracleConfig:
    """Size caps for the exhaustive oracles."""

    max_base_features: int = 8
    max_instances: int = 200
    max_windows: int = 6

    def check(self, series: DynamicDatasetSeries) -> None:
        bases = {f.base for f in series.features()}
        n_instances = len(series.instances())
        if len(bases) > self.max_base_features:
            raise CapExceededError(
                f"{len(bases)} base features exceed the oracle cap of {self.max_base_features}"
            )
        if n_instances > self.max_instances:
            raise CapExceededError(
                f"{n_instances} instances exceed the oracle cap of {self.max_instances}"
            )
        if series.window_count > self.max_windows:
            raise CapExceededError(
                f"{series.window_count} windows exceed the oracle cap of {self.max_windows}"
            )


def all_pairs_scan(
    series: DynamicDatasetSeries,
    spans: Mapping[DynamicFeature, int],
    config: MiningConfig,
) -> tuple[NeighborPair, ...]:
    """Neighbor pairs by comparing every instance pair, no index involved.

    The distance test uses the same squared-distance expression as the grid
    join so both sides of the equivalence check agree bit for bit.
    """
    instances = sorted(series.instances(), key=lambda i: i.sort_key)
    for inst in instances:
        if inst.feature not in spans:
            raise ConfigError(f"no span for feature {inst.feature.label}")
    dd_sq = config.d_d * config.d_d
    inclusive = config.temporal_comparison == "inclusive"
    out = []
    for i, a in enumerate(instances):
        for b in instances[i + 1:]:
            if a.feature == b.feature:
                continue
            dt = abs(a.t_index - b.t_index)
            limit = max(spans[a.feature], spans[b.feature])
            if not (dt <= limit if inclusive else dt < limit):
                continue
            dx = a.x - b.x
            dy = a.y - b.y
            if dx * dx + dy * dy <= dd_sq:
                out.append((a, b))
    return tuple(out)


def candidate_table_instance(clique: Pattern, size2: PairTables) -> TableInstance:
    """A candidate's table instance from its pair tables, no anchor involved:
    every combination of one ordinal per feature whose feature pairs are all
    pair-table rows.  A missing pair table means the clique never came from
    a feature graph over this data."""
    features = clique.features
    named = by_features(size2)
    # (i, j) -> the ordinal pairs of features i < j; per feature, its ordinals
    related: dict[tuple[int, int], set[tuple[int, int]]] = {}
    domains: list[set[int]] = [set() for _ in features]
    for i, j in combinations(range(clique.size), 2):
        pair = Pattern((features[i], features[j]))
        table = named.get(pair.features)
        if table is None:
            raise ValueError(
                f"no pair table for {pair.label}; "
                "candidate is not a clique over this data"
            )
        related[i, j] = set(zip(*table.ordinals))
        domains[i].update(table.ordinals[0])
        domains[j].update(table.ordinals[1])
    rows: list[tuple[int, ...]] = [()]
    for j, domain in enumerate(domains):
        rows = [
            row + (o,)
            for row in rows
            for o in sorted(domain)
            if all((prev, o) in related[i, j] for i, prev in enumerate(row))
        ]
    columns = tuple([row[i] for row in rows] for i in range(clique.size))
    return TableInstance(features, columns, table.series)


def bron_kerbosch(graph: FeatureGraph) -> tuple[Pattern, ...]:
    """Maximal cliques of size >= 2 via pivoted recursive enumeration, over
    the graph's masks turned into feature sets."""
    features = graph.features
    adj = {
        f: {g for s, g in enumerate(features) if mask >> s & 1}
        for f, mask in zip(features, graph.adjacency)
    }
    found: list[frozenset[DynamicFeature]] = []

    def recurse(r: set, p: set, x: set) -> None:
        if not p and not x:
            if len(r) >= 2:
                found.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: (len(adj[v] & p), v.sort_key))
        for v in sorted(p - adj[pivot], key=lambda f: f.sort_key):
            recurse(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    recurse(set(), set(features), set())
    return tuple(sorted((Pattern(c) for c in found), key=lambda p: p.sort_key))


def brute_force_maximal(
    series: DynamicDatasetSeries,
    spans: Mapping[DynamicFeature, int],
    counts: FeatureCounts,
    config: MiningConfig,
    caps: OracleConfig = OracleConfig(),
) -> list[PatternResult]:
    """Prevalent maximal patterns by exhaustive search, within the caps.

    Related instances come from `all_pairs_scan`, so the oracles share one
    pair test.  Feature subsets whose members include a pair with no related
    instances at all are skipped: their tables are empty by construction,
    never prevalent.  Everything else is enumerated outright.
    """
    caps.check(series)
    instances = sorted(series.instances(), key=lambda i: i.sort_key)

    related: set[tuple] = set()
    linked_features: dict[DynamicFeature, set[DynamicFeature]] = {}
    for a, b in all_pairs_scan(series, spans, config):
        related.add((a, b))
        related.add((b, a))
        linked_features.setdefault(a.feature, set()).add(b.feature)
        linked_features.setdefault(b.feature, set()).add(a.feature)

    by_feature: dict[DynamicFeature, list] = {}
    for inst in instances:
        by_feature.setdefault(inst.feature, []).append(inst)

    features = sorted(linked_features, key=lambda f: f.sort_key)
    prevalent: dict[Pattern, PatternResult] = {}

    def subsets_linked(chosen: list[DynamicFeature], rest: list[DynamicFeature]) -> None:
        if len(chosen) >= 2:
            evaluate(chosen)
        for i, f in enumerate(rest):
            if all(f in linked_features[c] for c in chosen):
                subsets_linked(chosen + [f], rest[i + 1:])

    def evaluate(feats: list[DynamicFeature]) -> None:
        row_count = 0
        participating: dict[DynamicFeature, set] = {f: set() for f in feats}
        chosen: list = []

        def search(level: int) -> None:
            nonlocal row_count
            if level == len(feats):
                row_count += 1
                for f, inst in zip(feats, chosen):
                    participating[f].add(inst)
                return
            for inst in by_feature[feats[level]]:
                if all((prev, inst) in related for prev in chosen):
                    chosen.append(inst)
                    search(level + 1)
                    chosen.pop()

        search(0)
        if row_count == 0:
            return
        ratios = [len(participating[f]) / counts[f] for f in feats]
        dpi = min(ratios)
        if passes_prevalence(dpi, row_count, config):
            pat = Pattern(feats)
            prevalent[pat] = PatternResult(pat, dpi, row_count, False)

    subsets_linked([], features)

    results = []
    for pat, res in prevalent.items():
        is_max = not any(
            pat.feature_set < other.feature_set for other in prevalent if other.size > pat.size
        )
        if is_max:
            results.append(PatternResult(pat, res.dpi, res.row_count, True))
    return sorted(results, key=lambda r: r.pattern.sort_key)
