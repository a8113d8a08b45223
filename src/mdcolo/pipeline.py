"""End-to-end mining runs with stage timings and manifest assembly."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .cliques import maximal_cliques
from .levelwise import join_based_mine
from .model import BaseFeature, ConfigError, MiningConfig, Pattern, compute_spans
from .neighborhood import neighbor_pairs
from .size2 import (
    FeatureCounts,
    TableInstance,
    build_feature_graph,
    feature_counts,
    prevalent_size2,
    size2_table_instances,
)
from .snapshots import Snapshot, DynamicDatasetSeries, diff_snapshots
from .verify import PatternResult, VerifyStats, derive_all_prevalent, verify_all


@dataclass
class MineOutcome:
    """Everything a mining run produced, including observability data."""

    results: list[PatternResult]
    derived: list[PatternResult] | None
    config: MiningConfig
    algo: str
    stats: VerifyStats
    timings_ms: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    # Instances per feature, and every pair table.
    counts: FeatureCounts = field(default_factory=dict)
    tables: dict[Pattern, TableInstance] = field(default_factory=dict)

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
        for key, value in self.counters.items():
            entries[key] = value
        sizes: dict[int, int] = {}
        for res in self.report_results:
            sizes[res.pattern.size] = sizes.get(res.pattern.size, 0) + 1
        for size in sorted(sizes):
            entries[f"patterns_size_{size}"] = sizes[size]
        entries["maximal_count"] = sum(1 for r in self.report_results if r.maximal)
        entries["pattern_count"] = len(self.report_results)
        for key, value in self.stats.as_manifest_entries().items():
            entries[key] = value
        for stage, ms in self.timings_ms.items():
            entries[f"time_{stage}_ms"] = f"{ms:.3f}"
        return entries


def _life_map(lifecycles: Sequence[BaseFeature] | Mapping[str, float]) -> dict[str, float]:
    if isinstance(lifecycles, Mapping):
        return dict(lifecycles)
    return {f.id: f.life_cycle for f in lifecycles}


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

    Both algorithms start from the same neighbor pairs and pair tables.
    `diff_ms`, the time the caller took to diff the series from snapshots,
    is reported as the first stage and counted in the total.
    """
    if algo not in ("mdc", "join"):
        raise ConfigError(f"algo must be 'mdc' or 'join', got {algo!r}")
    life_map = _life_map(lifecycles)
    timings: dict[str, float] = {} if diff_ms is None else {"diff": diff_ms}
    counters: dict[str, int] = {}
    stats = VerifyStats()

    t0 = time.perf_counter()
    spans = compute_spans(series.features(), life_map, config.time_span)
    counts = feature_counts(series)
    counters["instances"] = sum(counts.values())
    counters["windows"] = series.window_count

    pairs = neighbor_pairs(series, spans, config)
    counters["neighbor_pairs"] = len(pairs)
    timings["pairs"] = (time.perf_counter() - t0) * 1000

    t1 = time.perf_counter()
    tables = size2_table_instances(pairs)
    counters["size2_tables"] = len(tables)
    if algo == "join":
        timings["size2"] = (time.perf_counter() - t1) * 1000
        t2 = time.perf_counter()
        results = join_based_mine(tables, counts, config)
        timings["mine"] = (time.perf_counter() - t2) * 1000
        timings["total"] = (time.perf_counter() - t0) * 1000 + (diff_ms or 0.0)
        return MineOutcome(
            results, None, config, algo, stats, timings, counters, counts, tables
        )

    prevalent2 = prevalent_size2(tables, counts, config)
    graph = build_feature_graph(prevalent2)
    counters["prevalent_pairs"] = len(prevalent2)
    timings["size2"] = (time.perf_counter() - t1) * 1000

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

    derived = None
    if derive_all:
        t4 = time.perf_counter()
        derived = derive_all_prevalent([r.pattern for r in results], tables, counts, config)
        timings["derive"] = (time.perf_counter() - t4) * 1000
    timings["total"] = (time.perf_counter() - t0) * 1000 + (diff_ms or 0.0)
    return MineOutcome(
        results, derived, config, algo, stats, timings, counters, counts, tables
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
