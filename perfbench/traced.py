"""Traced in-process pass: each layer's public function timed from outside.

The pass replays what `mdcolo mine` does, in pipeline order, and records a
span (name, start, end, parent, run id) around every layer call, with the
layer's counts taken at the same boundary.  Spans stay in memory and are
written out as JSON lines when the pass ends.  The reports it writes must
equal the CLI's byte for byte; the caller compares the digests, which keeps
this sequence honest when the pipeline or CLI changes.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(
                {"run": self.run_id, "name": name, "parent": parent, "start": start, "end": end}
            )

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def traced_run(
    w, inputs: Path, out: Path, mine_s: float, tracer: Tracer
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit) for workload `w`; the
    reports go to `out` and the spans to `tracer`."""
    from mdcolo import io
    from mdcolo.cliques import maximal_cliques
    from mdcolo.model import MiningConfig, compute_spans
    from mdcolo.neighborhood import neighbor_pairs
    from mdcolo.pipeline import mine_snapshots
    from mdcolo.size2 import (
        build_feature_graph, feature_counts, participation_index, prevalent_size2,
        size2_table_instances,
    )
    from mdcolo.snapshots import diff_snapshots
    from mdcolo.verify import VerifyStats, derive_all_prevalent, verify_all

    config = MiningConfig(d_d=w.dd, min_prev=w.min_prev, time_span=3.0)
    snapshots = io.read_snapshots_csv(str(inputs / "snapshots.csv"))
    lifecycles = io.read_lifecycles_csv(str(inputs / "lifecycles.csv"))
    started = time.perf_counter()
    mine_snapshots(snapshots, lifecycles, config, derive_all=w.derive_all)
    pipeline_s = time.perf_counter() - started
    del snapshots

    out.mkdir(parents=True, exist_ok=True)
    for name in w.outputs:
        (out / name).unlink(missing_ok=True)
    span = tracer.span
    stats = VerifyStats()
    with span("traced"):
        with span("io.read"):
            snapshots = io.read_snapshots_csv(str(inputs / "snapshots.csv"))
            lifecycles = io.read_lifecycles_csv(str(inputs / "lifecycles.csv"))
        with span("mine"):
            with span("snapshots.diff"):
                series = diff_snapshots(snapshots)
            with span("neighborhood.pairs"):
                life_map = {f.id: f.life_cycle for f in lifecycles}
                feature_spans = compute_spans(series.features(), life_map, config.time_span)
                pairs = neighbor_pairs(series, feature_spans, config)
            with span("size2.tables"):
                tables = size2_table_instances(pairs)
            with span("size2.prevalent"):
                counts = feature_counts(series)
                prevalent = prevalent_size2(tables, counts, config)
                graph = build_feature_graph(prevalent)
            with span("cliques"):
                cliques = maximal_cliques(graph)
            with span("verify"):
                results = verify_all(cliques, tables, counts, config, stats=stats)
            # Where --derive-all is off, derive runs on no patterns, so
            # derive.s is the layer's fixed cost there.
            with span("derive"):
                derived = derive_all_prevalent(
                    [r.pattern for r in results] if w.derive_all else [], tables, counts, config
                )
        with span("io.write"):
            io.write_pattern_report(str(out / "patterns.txt"), derived if w.derive_all else results)
            if w.dumps:
                dpis = {pat: participation_index(t, counts) for pat, t in tables.items()}
                io.write_size2_report_csv(str(out / "size2.csv"), tables, dpis)
                rows = [row for table in tables.values() for row in table.rows]
                io.write_pairs_csv(str(out / "pairs.csv"), sorted(
                    rows, key=lambda p: (p[0].sort_key, p[1].sort_key)
                ))

    s = tracer.seconds
    instances = sum(len(window) for window in series.windows)
    accepted = len(results)
    metrics: dict[str, tuple[float, str]] = {
        "io.read_s": (s("io.read"), "s"),
        "io.write_s": (s("io.write"), "s"),
        "io.records_read": (sum(len(snap.records) for snap in snapshots) + len(lifecycles), "count"),
        "io.bytes_written": (sum(os.path.getsize(out / name) for name in w.outputs), "bytes"),
        "snapshots.diff_s": (s("snapshots.diff"), "s"),
        "snapshots.instances": (instances, "count"),
        "snapshots.windows": (series.window_count, "count"),
        "neighborhood.pairs_s": (s("neighborhood.pairs"), "s"),
        "neighborhood.pairs": (len(pairs), "count"),
        "neighborhood.pairs_per_instance": (len(pairs) / max(instances, 1), "ratio"),
        "size2.tables_s": (s("size2.tables"), "s"),
        "size2.prevalent_s": (s("size2.prevalent"), "s"),
        "size2.tables": (len(tables), "count"),
        "size2.prevalent_pairs": (len(prevalent), "count"),
        "size2.prevalent_ratio": (len(prevalent) / max(len(tables), 1), "ratio"),
        "cliques.s": (s("cliques"), "s"),
        "cliques.count": (len(cliques), "count"),
        "cliques.max_size": (max((c.size for c in cliques), default=0), "count"),
        "verify.s": (s("verify"), "s"),
        "verify.verified": (stats.verified, "count"),
        "verify.early_aborts": (stats.early_aborts, "count"),
        "verify.shared_checks": (stats.shared_checks, "count"),
        "verify.shared_skips": (stats.shared_skips, "count"),
        "verify.subsumed_skips": (stats.subsumed_skips, "count"),
        "verify.decompositions": (stats.decomposed, "count"),
        "verify.accepted": (accepted, "count"),
        "verify.accept_ratio": (accepted / max(stats.verified, 1), "ratio"),
        "verify.rows_accepted": (sum(r.row_count for r in results), "count"),
        "verify.max_pattern_size": (max((r.pattern.size for r in results), default=0), "count"),
        "derive.s": (s("derive"), "s"),
        "derive.patterns": (len(derived), "count"),
        "derive.rows": (sum(r.row_count for r in derived), "count"),
        "pipeline.s": (pipeline_s, "s"),
        "trace.overhead_s": (s("mine") - pipeline_s, "s"),
        "cli.overhead_s": (mine_s - pipeline_s - s("io.read") - s("io.write"), "s"),
    }
    return metrics
