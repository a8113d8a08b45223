"""End-to-end mining runs with stage timings and manifest assembly."""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Mapping, Sequence

from .cliques import maximal_cliques
from .model import BaseFeature, ConfigError, MiningConfig, compute_spans
from .neighborhood import Join, grid_join
from .size2 import (
    FeatureCounts,
    PairTables,
    build_feature_graph,
    feature_counts,
    pair_tables,
    prevalent_size2,
)
from .snapshots import Snapshot, DynamicDatasetSeries, diff_snapshots
from .verify import PatternResult, VerifyStats, derive_all_prevalent, verify_all


class MineOutcome:
    """Everything a mining run produced, including observability data.
    For both algorithms `results` is the maximal patterns; `derived` is every
    prevalent pattern (`derive_all` for `mdc`, always for `join`) or None."""

    __slots__ = (
        "results", "derived", "config", "algo", "stats",
        "timings_ms", "counters", "counts", "tables", "join",
    )

    def __init__(
        self, results: list[PatternResult], derived: list[PatternResult] | None,
        config: MiningConfig, algo: str, stats: VerifyStats,
        timings_ms: dict[str, float] | None = None, counters: dict[str, int] | None = None,
        counts: FeatureCounts | None = None, tables: PairTables | None = None,
        join: Join | None = None,
    ):
        self.results, self.derived, self.config = results, derived, config
        self.algo, self.stats = algo, stats
        # Each dict left out is a fresh one, never shared between outcomes.
        self.timings_ms = {} if timings_ms is None else timings_ms
        self.counters = {} if counters is None else counters
        # Instances per feature, every pair table by rank pair, and the join's codes.
        self.counts = {} if counts is None else counts
        self.tables = {} if tables is None else tables
        self.join = join

    @property
    def report_results(self) -> list[PatternResult]:
        return self.derived if self.derived is not None else self.results

    def manifest_entries(self) -> dict[str, object]:
        entries: dict[str, object] = {"algo": self.algo}
        entries["d_d"] = self.config.d_d
        entries["min_prev"] = self.config.min_prev
        entries["time_span"] = self.config.time_span
        entries["temporal_comparison"] = self.config.temporal_comparison
        entries["prevalence_comparison"] = self.config.prevalence_comparison
        entries.update(self.counters)
        sizes = Counter(res.pattern.size for res in self.report_results)
        for size in sorted(sizes):
            entries[f"patterns_size_{size}"] = sizes[size]
        entries["maximal_count"] = len(self.results)
        entries["pattern_count"] = len(self.report_results)
        entries.update(self.stats.as_manifest_entries())
        for stage, ms in self.timings_ms.items():
            entries[f"time_{stage}_ms"] = f"{ms:.3f}"
        return entries


def _life_map(lifecycles: Sequence[BaseFeature] | Mapping[str, float]) -> dict[str, float]:
    if isinstance(lifecycles, Mapping):
        return dict(lifecycles)
    return {f.id: f.life_cycle for f in lifecycles}


# The maximal miner and the level-wise baseline.
ALGOS = ("mdc", "join")


def mine_series(
    series: DynamicDatasetSeries,
    lifecycles: Sequence[BaseFeature] | Mapping[str, float],
    config: MiningConfig,
    *,
    algo: str = "mdc",
    early_abort: bool = True,
    derive_all: bool = False,
    diff_ms: float | None = None,
) -> MineOutcome:
    """Mine a dynamic dataset series end to end.

    Both algorithms start from the same join and pair tables.
    `diff_ms`, the time the caller took to diff the series from snapshots
    (for `mdcolo mine`, to read and diff the snapshot file), is reported as
    the first stage and counted in the total.
    """
    if algo not in ALGOS:
        raise ConfigError(f"algo must be 'mdc' or 'join', got {algo!r}")
    life_map = _life_map(lifecycles)
    timings: dict[str, float] = {} if diff_ms is None else {"diff": diff_ms}
    counters: dict[str, int] = {}
    stats = VerifyStats()

    t0 = time.perf_counter()
    counts = feature_counts(series)
    spans = compute_spans(counts, life_map, config.time_span)
    counters["instances"] = sum(counts.values())
    counters["windows"] = series.window_count

    join = grid_join(series, spans, config)
    counters["neighbor_pairs"] = len(join.codes)
    timings["pairs"] = (time.perf_counter() - t0) * 1000

    t1 = time.perf_counter()
    tables = pair_tables(join)
    counters["size2_tables"] = len(tables)
    derived = None
    if algo == "join":
        timings["size2"] = (time.perf_counter() - t1) * 1000
        from .levelwise import join_based_mine

        t2 = time.perf_counter()
        derived = join_based_mine(tables, counts, config)
        results = [r for r in derived if r.maximal]
        timings["mine"] = (time.perf_counter() - t2) * 1000
    else:
        prevalent2 = prevalent_size2(tables, counts, config)
        graph = build_feature_graph(prevalent2)
        counters["prevalent_pairs"] = len(prevalent2)
        timings["size2"] = (time.perf_counter() - t1) * 1000

        # The clique search and the row count recurse once per pattern
        # feature, and a pattern can hold every feature of the series.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + len(counts))
        try:
            t2 = time.perf_counter()
            cliques = maximal_cliques(graph)
            counters["cliques"] = len(cliques)
            timings["cliques"] = (time.perf_counter() - t2) * 1000

            t3 = time.perf_counter()
            results = verify_all(
                cliques, tables, counts, config,
                early_abort=early_abort, stats=stats,
            )
            timings["verify"] = (time.perf_counter() - t3) * 1000

            if derive_all:
                t4 = time.perf_counter()
                derived = derive_all_prevalent(results, tables, counts, config)
                timings["derive"] = (time.perf_counter() - t4) * 1000
        finally:
            sys.setrecursionlimit(limit)
    timings["total"] = (time.perf_counter() - t0) * 1000 + (diff_ms or 0.0)
    return MineOutcome(
        results, derived, config, algo, stats, timings, counters, counts, tables, join
    )


def mine_snapshots(
    snapshots: Sequence[Snapshot],
    lifecycles: Sequence[BaseFeature] | Mapping[str, float],
    config: MiningConfig,
    **kwargs,
) -> MineOutcome:
    """Diff a snapshot series and mine it; see mine_series for options."""
    t0 = time.perf_counter()
    series = diff_snapshots(snapshots)
    diff_ms = (time.perf_counter() - t0) * 1000
    return mine_series(series, lifecycles, config, diff_ms=diff_ms, **kwargs)
