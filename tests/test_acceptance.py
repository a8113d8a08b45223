"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
numbers (run with -s to see them); the assertions enforce the same bounds.
Criteria 2, 3 and 9 share one 100-series corpus, built once per module.
"""

from __future__ import annotations

import time

import pytest

from mdcolo import (
    GenConfig,
    MiningConfig,
    Pattern,
    diff_snapshots,
    generate,
    mine_series,
)
from mdcolo.cliques import maximal_cliques
from mdcolo.datagen import SplitMix64
from mdcolo.levelwise import join_based_mine
from mdcolo.model import compute_spans
from mdcolo.neighborhood import neighbor_pairs
from mdcolo.size2 import (
    build_feature_graph,
    feature_counts,
    participation_index,
    participation_share,
    prevalent_size2,
    size2_table_instances,
)
from mdcolo.verify import decompose
from mdcolo import cli

from oracles import (
    all_pairs_scan,
    bron_kerbosch,
    brute_force_maximal,
    candidate_table_instance,
)
from conftest import (
    BURST_EXPECTED_CLIQUES,
    BURST_EXPECTED_MAXIMAL,
    BURST_TRIPLE_ROWS,
    CONFIG,
    LIFECYCLES,
    SHOPS_EXPECTED_INSTANCES,
    burst_snapshots,
    bits,
    by_features,
    feat,
    instances_by_label,
    rank_masks,
    shops_snapshots,
)
from test_cliques import random_graph

DPI_TOL = 1e-12

LIFE_POOL = (9.0, 3.0, 30.0, 15.0, 27.0, 24.0, 12.0, 6.0)

# Sweep dataset: all churn lands on cluster sites, and the site disks are
# wide relative to the distance sweep so looser thresholds genuinely grow
# the planted patterns instead of admitting isolated noise pairs.
SWEEP_GEN = GenConfig(
    n_dynamic_instances=2000,
    cluster_count=20,
    cluster_radius=25.0,
    churn_ratio=1.0,
    life_cycles=(3.0, 6.0, 3.0, 6.0, 3.0, 6.0, 3.0, 6.0, 3.0, 6.0),
    seed=3,
)
SWEEP_DD = (15.0, 20.0, 25.0, 30.0, 35.0)
SWEEP_MIN_PREV = (0.25, 0.2, 0.15, 0.1, 0.05)

# Pruning dataset: generator defaults scaled down to 2000 events, mined at
# d_d=35 / min_prev=0.1.
PRUNING_GEN = GenConfig(
    n_dynamic_instances=2000,
    cluster_count=48,
    cluster_radius=15.0,
    churn_ratio=1.0,
    seed=1,
)
PRUNING_CONFIG = MiningConfig(d_d=35.0, min_prev=0.1, time_span=3.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def corpus_entry(i: int):
    """One seeded small series plus its mining config, within the oracle caps
    (<= 8 base features, <= 150 instances, <= 5 windows)."""
    n_features = 3 + i % 4
    gen = GenConfig(
        area=(150.0, 150.0),
        n_time_points=4 + (i // 2) % 3,
        time_span=3.0,
        n_base_features=n_features,
        life_cycles=LIFE_POOL[:n_features],
        n_dynamic_instances=60 + (i * 7) % 91,
        cluster_count=2 + i % 3,
        cluster_radius=5.0 + (i % 4),
        churn_ratio=0.35 + 0.1 * (i % 6),
        seed=1000 + i,
    )
    config = MiningConfig(
        d_d=10.0 + 2.5 * (i % 5),
        min_prev=(0.1, 0.15, 0.2, 0.3)[i % 4],
        time_span=3.0,
        temporal_comparison="strict" if i % 7 == 3 else "inclusive",
        prevalence_comparison="strict" if i % 11 == 5 else "inclusive",
    )
    snapshots, _ = generate(gen)
    return diff_snapshots(snapshots), gen.base_features(), config


@pytest.fixture(scope="module")
def corpus():
    return [corpus_entry(i) for i in range(100)]


@pytest.fixture(scope="module")
def corpus_mined(corpus):
    t0 = time.perf_counter()
    outcomes = [
        mine_series(series, feats, config, derive_all=True)
        for series, feats, config in corpus
    ]
    return outcomes, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_series():
    snapshots, _ = generate(SWEEP_GEN)
    return diff_snapshots(snapshots), SWEEP_GEN.base_features()


def result_rows(results):
    return [(r.pattern.label, r.dpi, r.row_count, r.maximal) for r in results]


def test_criterion_1_hand_built_series():
    t0 = time.perf_counter()

    # Instance derivation on the mixed add/move/remove series.
    shops = diff_snapshots(shops_snapshots())
    by_label = instances_by_label(shops)
    derived = {lbl: (i.x, i.y, i.t_index) for lbl, i in by_label.items()}
    ok = derived == SHOPS_EXPECTED_INSTANCES

    # Pair ratios and index on the two-window burst series.
    burst = diff_snapshots(burst_snapshots())
    spans = compute_spans(
        burst.features(), {f.id: f.life_cycle for f in LIFECYCLES}, CONFIG.time_span
    )
    counts = feature_counts(burst)
    tables = size2_table_instances(neighbor_pairs(burst, spans, CONFIG))
    an_bn = by_features(tables)[feat("A_new"), feat("B_new")]
    ok = ok and participation_share(an_bn.columns()[0], counts[feat("A_new")]) == 0.5
    ok = ok and participation_share(an_bn.columns()[1], counts[feat("B_new")]) == 0.5
    ok = ok and participation_index(an_bn, counts) == 0.5

    # Feature graph edge set = the prevalent pairs.
    prevalent = prevalent_size2(tables, counts, CONFIG)
    graph = build_feature_graph(prevalent)
    expected_edges = {
        "A_new,B_new", "A_new,C_new", "A_dead,B_new",
        "A_dead,B_dead", "A_dead,C_dead", "B_new,C_dead",
    }
    edges = {
        f"{graph.features[a].label},{graph.features[b].label}"
        for a, partners in enumerate(graph.adjacency) for b in bits(partners) if a < b
    }
    ok = ok and edges == expected_edges

    # Maximal cliques of that graph, canonically ordered.
    cliques = maximal_cliques(graph)
    ok = ok and [c.label for c in cliques] == BURST_EXPECTED_CLIQUES

    # Candidate assembly keeps exactly the row whose legs all relate.
    triple = Pattern((feat("A_dead"), feat("B_new"), feat("C_dead")))
    rows = candidate_table_instance(triple, tables).rows
    ok = ok and {tuple(i.label for i in row) for row in rows} == BURST_TRIPLE_ROWS

    # Full pipeline verdicts on the burst series.
    outcome = mine_series(burst, LIFECYCLES, CONFIG)
    mined = {r.pattern.label: (r.dpi, r.row_count) for r in outcome.results}
    ok = ok and mined == BURST_EXPECTED_MAXIMAL

    # A failed size-4 candidate decomposes into exactly the size-3 subsets
    # not already covered by an accepted pattern.
    failed = Pattern((feat("A_dead"), feat("B_new"), feat("C_dead"), feat("D_new")))
    mask, label = rank_masks(failed.features)
    subs = decompose(mask(failed), [mask(triple)], [])
    ok = ok and [label(s) for s in subs] == [
        "A_dead,B_new,D_new", "A_dead,C_dead,D_new", "B_new,C_dead,D_new",
    ]

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"hand-built series reproduce all expected values in {elapsed:.2f}s (< 1s)")


def test_criterion_2_exhaustive_equivalence(corpus, corpus_mined):
    outcomes, mine_elapsed = corpus_mined
    t0 = time.perf_counter()
    mismatches = 0
    total_patterns = 0
    for (series, feats, config), outcome in zip(corpus, outcomes):
        spans = compute_spans(
            series.features(), {f.id: f.life_cycle for f in feats}, config.time_span
        )
        counts = feature_counts(series)
        expected = brute_force_maximal(series, spans, counts, config)
        got = outcome.results
        total_patterns += len(expected)
        if [r.pattern.label for r in got] != [r.pattern.label for r in expected]:
            mismatches += 1
            continue
        for g, e in zip(got, expected):
            if abs(g.dpi - e.dpi) > DPI_TOL or g.row_count != e.row_count:
                mismatches += 1
                break
    elapsed = mine_elapsed + (time.perf_counter() - t0)
    ok = mismatches == 0 and elapsed < 300.0
    report(
        2,
        ok,
        f"100 seeded series match the exhaustive baseline "
        f"({total_patterns} maximal patterns, {mismatches} mismatches) in {elapsed:.1f}s (< 300s)",
    )


def test_criterion_3_derive_all_matches_level_wise(corpus, corpus_mined):
    outcomes, _ = corpus_mined
    mismatches = 0
    total = 0
    for (series, feats, config), outcome in zip(corpus, outcomes):
        spans = compute_spans(
            series.features(), {f.id: f.life_cycle for f in feats}, config.time_span
        )
        counts = feature_counts(series)
        tables = size2_table_instances(neighbor_pairs(series, spans, config))
        expected = join_based_mine(tables, counts, config)
        got = outcome.derived
        total += len(expected)
        if [r.pattern.label for r in got] != [r.pattern.label for r in expected]:
            mismatches += 1
            continue
        for g, e in zip(got, expected):
            if (
                abs(g.dpi - e.dpi) > DPI_TOL
                or g.row_count != e.row_count
                or g.maximal != e.maximal
            ):
                mismatches += 1
                break
    ok = mismatches == 0
    report(
        3,
        ok,
        f"derived prevalent sets equal the level-wise miner on all 100 series "
        f"({total} patterns, {mismatches} mismatches)",
    )


def test_criterion_4_clique_enumeration_oracle():
    rng = SplitMix64(20240817)
    t0 = time.perf_counter()
    mismatches = 0
    total_cliques = 0
    for i in range(200):
        n = 5 + i % 36
        density = 0.1 + 0.5 * (i % 41) / 40
        graph = random_graph(rng, n, density)
        got = maximal_cliques(graph)
        expected = bron_kerbosch(graph)
        total_cliques += len(expected)
        if got != expected:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(
        4,
        ok,
        f"200 random graphs (5-40 vertices, density 0.10-0.60) match the pivoted "
        f"enumerator ({total_cliques} cliques, {mismatches} mismatches) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_grid_join_oracle():
    mismatches = 0
    total_pairs = 0
    for i in range(50):
        n_features = 3 + i % 6
        gen = GenConfig(
            area=(200.0, 200.0),
            n_time_points=4 + i % 5,
            time_span=3.0,
            n_base_features=n_features,
            life_cycles=LIFE_POOL[:n_features],
            n_dynamic_instances=150 + (i * 7) % 351,
            cluster_count=2 + i % 4,
            cluster_radius=6.0 + (i % 5),
            churn_ratio=0.4 + 0.1 * (i % 5),
            seed=5000 + i,
        )
        snapshots, _ = generate(gen)
        series = diff_snapshots(snapshots)
        life_map = {f.id: f.life_cycle for f in gen.base_features()}
        for mode in ("inclusive", "strict"):
            config = MiningConfig(
                d_d=8.0 + 2.0 * (i % 7),
                min_prev=0.1,
                time_span=3.0,
                temporal_comparison=mode,
            )
            spans = compute_spans(series.features(), life_map, config.time_span)
            got = neighbor_pairs(series, spans, config)
            expected = all_pairs_scan(series, spans, config)
            total_pairs += len(expected)
            if got != expected:
                mismatches += 1
    ok = mismatches == 0
    report(
        5,
        ok,
        f"grid join equals the all-pairs scan on 50 series x 2 window modes "
        f"({total_pairs} pairs, {mismatches} mismatches)",
    )


def test_criterion_6_pruning_neutral_and_not_slower():
    snapshots, _ = generate(PRUNING_GEN)
    series = diff_snapshots(snapshots)
    feats = PRUNING_GEN.base_features()

    # Alternate the settings within each repetition, so that drift in host
    # speed reaches both alike.
    times: dict[bool, list[float]] = {False: [], True: []}
    rows: dict[bool, list] = {}
    for _ in range(3):
        for early_abort in (False, True):
            t0 = time.perf_counter()
            outcome = mine_series(series, feats, PRUNING_CONFIG, early_abort=early_abort)
            times[early_abort].append(time.perf_counter() - t0)
            rows[early_abort] = result_rows(outcome.results)

    baseline_rows = rows[False]
    identical = rows[True] == baseline_rows
    t_none, t_pruned = min(times[False]), min(times[True])
    ok = identical and t_pruned <= 1.1 * t_none
    report(
        6,
        ok,
        f"both early-abort settings agree on {len(baseline_rows)} patterns; "
        f"pruned {t_pruned:.2f}s vs unpruned {t_none:.2f}s "
        f"({t_pruned / t_none:.2f}x, allowed <= 1.10x)",
    )


def test_criterion_7_compression_widens_with_looser_thresholds(sweep_series):
    series, feats = sweep_series
    t0 = time.perf_counter()

    def sweep_point(d_d: float, min_prev: float) -> tuple[int, int]:
        config = MiningConfig(d_d=d_d, min_prev=min_prev, time_span=3.0)
        outcome = mine_series(series, feats, config, derive_all=True)
        return len(outcome.results), len(outcome.derived)

    dd_counts = [sweep_point(dd, 0.1) for dd in SWEEP_DD]
    mp_counts = [sweep_point(35.0, mp) for mp in SWEEP_MIN_PREV]
    elapsed = time.perf_counter() - t0

    all_points = dd_counts + mp_counts
    bounded = all(0 < m <= p for m, p in all_points)
    dd_ratios = [p / m for m, p in dd_counts]
    mp_ratios = [p / m for m, p in mp_counts]
    monotone = all(
        b >= a - 1e-12 for r in (dd_ratios, mp_ratios) for a, b in zip(r, r[1:])
    )
    ok = bounded and monotone and elapsed < 600.0
    report(
        7,
        ok,
        f"maximal <= prevalent at all 10 sweep points; prevalent/maximal grows "
        f"{dd_ratios[0]:.1f}->{dd_ratios[-1]:.1f} over distance and "
        f"{mp_ratios[0]:.1f}->{mp_ratios[-1]:.1f} over threshold, in {elapsed:.0f}s (< 600s)",
    )


def test_criterion_8_faster_than_level_wise_at_densest_point(sweep_series):
    series, feats = sweep_series
    config = MiningConfig(d_d=SWEEP_DD[-1], min_prev=SWEEP_MIN_PREV[-1], time_span=3.0)

    def best_of(algo: str) -> tuple[float, int]:
        times = []
        count = 0
        for _ in range(3):
            t0 = time.perf_counter()
            outcome = mine_series(series, feats, config, algo=algo)
            times.append(time.perf_counter() - t0)
            count = len(outcome.report_results)
        return min(times), count

    t_mdc, n_maximal = best_of("mdc")
    t_join, n_prevalent = best_of("join")
    ok = t_mdc < t_join
    report(
        8,
        ok,
        f"densest sweep point: maximal miner {t_mdc:.2f}s ({n_maximal} patterns) vs "
        f"level-wise {t_join:.2f}s ({n_prevalent} patterns)",
    )


def test_maximal_then_derive_beats_level_wise_at_densest_point(sweep_series):
    """The abstract's claim: mining the maximal patterns and deriving their
    subsets obtains every prevalent pattern faster than the level-wise miner."""
    series, feats = sweep_series
    config = MiningConfig(d_d=SWEEP_DD[-1], min_prev=SWEEP_MIN_PREV[-1], time_span=3.0)

    def timed(**kwargs):
        t0 = time.perf_counter()
        outcome = mine_series(series, feats, config, **kwargs)
        return outcome, time.perf_counter() - t0

    derived, t_mdc = timed(derive_all=True)
    joined, t_join = timed(algo="join")
    got = [(r.pattern, r.dpi, r.row_count) for r in derived.derived]
    expected = [(r.pattern, r.dpi, r.row_count) for r in joined.derived]
    assert got == expected
    assert t_mdc < t_join, f"maximal + derive {t_mdc:.2f}s vs level-wise {t_join:.2f}s"


def test_criterion_9_ratios_never_grow_with_pattern_size(corpus_mined):
    outcomes, _ = corpus_mined
    violations = 0
    pairs_checked = 0
    for outcome in outcomes:
        logged: dict[Pattern, dict] = {}
        for pattern, ratios in outcome.stats.ratio_log:
            logged[pattern] = ratios
        patterns = list(logged)
        for small in patterns:
            for big in patterns:
                if not small.feature_set < big.feature_set:
                    continue
                pairs_checked += 1
                for f in small.features:
                    if logged[big][f] > logged[small][f]:
                        violations += 1
    ok = violations == 0 and pairs_checked > 0
    report(
        9,
        ok,
        f"participation ratios are anti-monotone across {pairs_checked} verified "
        f"subset/superset pairs ({violations} violations)",
    )


def test_criterion_10_reports_are_deterministic(tmp_path):
    def run(args: list[str]) -> None:
        assert cli.main(args) == 0

    gen_flags = [
        "--seed", "11", "--instances", "1500", "--features", "8",
        "--clusters", "12", "--cluster-radius", "12", "--churn", "0.8",
    ]
    run(["gen", "-o", str(tmp_path / "a")] + gen_flags)
    run(["gen", "-o", str(tmp_path / "b")] + gen_flags)
    same_gen = all(
        (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()
        for suffix in (".snapshots.csv", ".lifecycles.csv", ".report.txt")
    )

    mine_flags = [
        str(tmp_path / "a.snapshots.csv"),
        "--lifecycles", str(tmp_path / "a.lifecycles.csv"),
        "--dd", "25", "--min-prev", "0.1", "--derive-all",
    ]
    run(["mine"] + mine_flags + ["-o", str(tmp_path / "m1.csv")])
    run(["mine"] + mine_flags + ["-o", str(tmp_path / "m2.csv")])
    same_mine = (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()

    ok = same_gen and same_mine
    report(
        10,
        ok,
        f"generation is seed-stable (identical={same_gen}) and pattern reports are "
        f"byte-identical across two runs (identical={same_mine})",
    )
