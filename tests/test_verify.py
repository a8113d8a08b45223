from __future__ import annotations

import tracemalloc
from itertools import combinations

import pytest

from mdcolo import DynamicInstance, MiningConfig, Pattern
from mdcolo.cliques import maximal_cliques
from mdcolo.model import compute_spans
from mdcolo.neighborhood import neighbor_pairs
from mdcolo.oracles import candidate_table_instance
from mdcolo.size2 import (
    build_feature_graph,
    feature_counts,
    prevalent_size2,
    size2_table_instances,
)
from mdcolo.verify import (
    VerifyStats,
    _PairIndex,
    candidate_summary,
    decompose,
    derive_all_prevalent,
    early_abort_check,
    verify_all,
)

from conftest import (
    BURST_EXPECTED_MAXIMAL,
    BURST_TRIPLE_ROWS,
    SHOPS_EXPECTED_MAXIMAL,
    feat,
    small_series,
)


def mining_state(series, lifecycles, config):
    life = {f.id: f.life_cycle for f in lifecycles}
    spans = compute_spans(series.features(), life, config.time_span)
    tables = size2_table_instances(neighbor_pairs(series, spans, config))
    counts = feature_counts(series)
    prevalent = prevalent_size2(tables, counts, config)
    cliques = maximal_cliques(build_feature_graph(prevalent))
    return tables, counts, prevalent, cliques


def as_result_map(results):
    return {r.pattern.label: (pytest.approx(r.dpi), r.row_count) for r in results}


def test_burst_verification_exact(burst_series, lifecycles, config):
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    results = verify_all(cliques, prevalent, counts, config)
    expected = {label: (pytest.approx(d), n) for label, (d, n) in BURST_EXPECTED_MAXIMAL.items()}
    assert as_result_map(results) == expected
    assert all(r.maximal for r in results)


def test_shops_verification_exact(shops_series, lifecycles, config):
    tables, counts, prevalent, cliques = mining_state(shops_series, lifecycles, config)
    results = verify_all(cliques, prevalent, counts, config)
    expected = {label: (pytest.approx(d), n) for label, (d, n) in SHOPS_EXPECTED_MAXIMAL.items()}
    assert as_result_map(results) == expected


def test_triple_table_rows(burst_series, lifecycles, config):
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    triple = Pattern([feat("A_dead"), feat("B_new"), feat("C_dead")])
    table = candidate_table_instance(triple, prevalent)
    got = {tuple(i.label for i in row) for row in table.rows}
    assert got == BURST_TRIPLE_ROWS


def test_summary_matches_row_tables_on_generated_series():
    checked = 0
    for seed in (0, 4):
        series, features, cfg = small_series(seed, min_prev=0.05)
        tables, counts, prevalent, cliques = mining_state(series, features, cfg)
        subs = {
            Pattern(combo)
            for clique in cliques
            for k in range(3, clique.size + 1)
            for combo in combinations(clique.features, k)
        }
        for sub in sorted(subs, key=lambda p: p.sort_key):
            table = candidate_table_instance(sub, tables)
            summary = candidate_summary(sub, tables)
            assert summary.row_count == len(table), sub.label
            for f in sub.features:
                assert summary.projections[f] == table.projection(f), (sub.label, f.label)
            checked += 1
    assert checked > 0


def test_summary_marks_only_instances_in_complete_rows():
    # a1, b1, c1, d1 relate pairwise except c1-d1, so b1 passes every
    # check at its own level yet completes no row; a2..d2 form one row.
    a1, a2, b1, b2, c1, c2, d1, d2 = (
        DynamicInstance(feat(f"{base}_new"), i, 0.0, 0.0, 0) for base in "ABCD" for i in (1, 2)
    )
    pairs = [(a1, b1), (a1, c1), (a1, d1), (b1, c1), (b1, d1)]
    pairs += list(combinations((a2, b2, c2, d2), 2))
    tables = size2_table_instances(pairs)
    pattern = Pattern([a1.feature, b1.feature, c1.feature, d1.feature])
    summary = candidate_summary(pattern, tables)
    table = candidate_table_instance(pattern, tables)
    assert summary.row_count == len(table) == 1
    for f, inst in zip(pattern.features, (a2, b2, c2, d2)):
        assert summary.projections[f] == table.projection(f) == {inst}


def test_summary_memory_does_not_grow_with_rows():
    # A complete 4-partite clique: every instance relates to every instance
    # of the other features, so the candidate has 40**4 rows.
    n = 40
    feats = [feat(label) for label in ("A_new", "B_new", "C_new", "D_new")]
    insts = {f: [DynamicInstance(f, i, 0.0, 0.0, 0) for i in range(1, n + 1)] for f in feats}
    tables = size2_table_instances(
        (a, b) for f, g in combinations(feats, 2) for a in insts[f] for b in insts[g]
    )
    tracemalloc.start()
    try:
        summary = candidate_summary(Pattern(feats), tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.row_count == n**4 == 2_560_000
    assert all(len(summary.projections[f]) == n for f in feats)
    assert peak < 4 * 1024 * 1024, f"summary peak {peak} bytes"


def test_pair_index_indexes_each_table_once(burst_series, lifecycles, config):
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    index = _PairIndex(tables)
    for pair, table in tables.items():
        partners = index.partners(pair)
        assert index.partners(pair) is partners, pair.label
        decoded = {
            (index.insts[a], index.insts[b]) for a, bs in partners.items() for b in bs
        }
        assert decoded == set(table.rows), pair.label


def test_candidate_table_requires_pair_tables(burst_series, lifecycles, config):
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    not_a_clique = Pattern([feat("A_new"), feat("B_dead")])
    with pytest.raises(ValueError, match="not a clique"):
        candidate_table_instance(not_a_clique, tables)


def test_decompose_excludes_accepted_and_pending():
    failed = Pattern([feat("A_dead"), feat("B_new"), feat("C_dead"), feat("D_new")])
    accepted = [Pattern([feat("A_dead"), feat("B_new"), feat("C_dead")])]
    subs = decompose(failed, accepted, [])
    assert [s.label for s in subs] == [
        "A_dead,B_new,D_new",
        "A_dead,C_dead,D_new",
        "B_new,C_dead,D_new",
    ]
    pending = [Pattern([feat("A_dead"), feat("B_new"), feat("D_new")])]
    assert [s.label for s in decompose(failed, accepted, pending)] == [
        "A_dead,C_dead,D_new",
        "B_new,C_dead,D_new",
    ]


def test_early_abort_check_bounds():
    cfg = MiningConfig(d_d=1.0, min_prev=0.3, time_span=1.0)
    strict = MiningConfig(
        d_d=1.0, min_prev=0.3, time_span=1.0, prevalence_comparison="strict"
    )
    a = feat("A_new")
    assert early_abort_check({a: 10}, {a: 2}, cfg)
    assert not early_abort_check({a: 10}, {a: 3}, cfg)
    assert early_abort_check({a: 10}, {a: 3}, strict)
    assert early_abort_check({}, {a: 5}, cfg)


def test_subsumed_candidates_are_skipped(burst_series, lifecycles, config):
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    triple = Pattern([feat("A_dead"), feat("B_new"), feat("C_dead")])
    inside = Pattern([feat("A_dead"), feat("B_new")])
    stats = VerifyStats()
    results = verify_all([triple, inside], prevalent, counts, config, stats=stats)
    assert [r.pattern for r in results] == [triple]
    assert stats.subsumed_skips == 1


def test_failed_triple_decomposes(burst_series, lifecycles, config):
    # At a threshold only the pair counts can reach, the triple from the
    # burst graph fails and its surviving pairs are found by decomposition.
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    tight = MiningConfig(d_d=2.0, min_prev=0.75, time_span=3.0)
    stats = VerifyStats()
    triple = Pattern([feat("A_dead"), feat("B_new"), feat("C_dead")])
    results = verify_all([triple], tables, counts, tight, stats=stats)
    assert [r.pattern.label for r in results] == ["A_dead,B_new"]
    assert stats.decomposed >= 1


def test_pruning_flags_do_not_change_results():
    for seed in range(6):
        series, features, cfg = small_series(seed, min_prev=0.15)
        tables, counts, prevalent, cliques = mining_state(series, features, cfg)
        outcomes = []
        for early_abort in (False, True):
            results = verify_all(cliques, prevalent, counts, cfg, early_abort=early_abort)
            outcomes.append(
                [(r.pattern, round(r.dpi, 12), r.row_count) for r in results]
            )
        assert outcomes[0] == outcomes[1], f"seed {seed}"


def test_disabled_pruning_never_counts(burst_series, lifecycles, config):
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    stats = VerifyStats()
    verify_all(cliques, prevalent, counts, config, early_abort=False, stats=stats)
    assert stats.early_aborts == 0


def test_derive_all_prevalent_on_burst(burst_series, lifecycles, config):
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    maximal = verify_all(cliques, prevalent, counts, config)
    derived = derive_all_prevalent([r.pattern for r in maximal], tables, counts, config)
    by_label = {r.pattern.label: r for r in derived}
    # Every pair table plus the triple: subsets of the maximal patterns.
    assert sorted(by_label) == [
        "A_dead,B_dead",
        "A_dead,B_new",
        "A_dead,B_new,C_dead",
        "A_dead,C_dead",
        "A_new,B_new",
        "A_new,C_new",
        "B_new,C_dead",
    ]
    assert by_label["A_dead,B_new"].dpi == 1.0
    assert by_label["A_dead,B_new"].maximal is False
    assert by_label["A_dead,B_new,C_dead"].maximal is True
    # Growing a pattern never raises a feature's participation.
    assert by_label["A_dead,B_new,C_dead"].dpi <= by_label["A_dead,B_new"].dpi


def test_ratio_log_is_anti_monotone():
    for seed in range(4):
        series, features, cfg = small_series(seed, min_prev=0.1)
        tables, counts, prevalent, cliques = mining_state(series, features, cfg)
        stats = VerifyStats()
        verify_all(cliques, prevalent, counts, cfg, early_abort=False, stats=stats)
        logged = stats.ratio_log
        for p, p_ratios in logged:
            for q, q_ratios in logged:
                if p.feature_set < q.feature_set:
                    for f, ratio in p_ratios.items():
                        assert q_ratios[f] <= ratio + 1e-12


def test_verify_all_empty():
    cfg = MiningConfig(d_d=1.0, min_prev=0.1, time_span=1.0)
    assert verify_all([], {}, {}, cfg) == []
