from __future__ import annotations

import tracemalloc
from itertools import combinations

import pytest

from mdcolo import DynamicDatasetSeries, DynamicInstance, MiningConfig, Pattern, size2, verify
from mdcolo.cliques import maximal_cliques
from mdcolo.model import compute_spans
from mdcolo.neighborhood import neighbor_pairs
from mdcolo.pipeline import mine_series
from mdcolo.size2 import (
    PairTables,
    TableInstance,
    build_feature_graph,
    feature_counts,
    prevalent_size2,
    size2_table_instances,
)
from mdcolo.verify import (
    VerifyStats,
    decompose,
    derive_all_prevalent,
    verify_all,
)

from oracles import candidate_table_instance
from conftest import (
    BURST_EXPECTED_MAXIMAL,
    BURST_TRIPLE_ROWS,
    SHOPS_EXPECTED_MAXIMAL,
    bits,
    by_features,
    feat,
    rank_masks,
    small_series,
    summarize,
)


def mining_state(series, lifecycles, config):
    life = {f.id: f.life_cycle for f in lifecycles}
    spans = compute_spans(series.features(), life, config.time_span)
    tables = size2_table_instances(neighbor_pairs(series, spans, config))
    counts = feature_counts(series)
    prevalent = prevalent_size2(tables, counts, config)
    cliques = maximal_cliques(build_feature_graph(prevalent))
    return tables, counts, prevalent, cliques


def ordinals(table, i):
    """The distinct ordinals in column i of the table's rows."""
    return {row[i].ordinal for row in table.rows}


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
            summary = summarize(sub, tables)
            assert summary.row_count == len(table), sub.label
            for i, f in enumerate(sub.features):
                assert bits(summary.participants[f]) == ordinals(table, i), (
                    sub.label, f.label,
                )
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
    summary = summarize(pattern, tables)
    table = candidate_table_instance(pattern, tables)
    assert summary.row_count == len(table) == 1
    for i, (f, inst) in enumerate(zip(pattern.features, (a2, b2, c2, d2))):
        assert {row[i] for row in table.rows} == {inst}
        assert bits(summary.participants[f]) == ordinals(table, i) == {inst.ordinal}


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
        summary = summarize(Pattern(feats), tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.row_count == n**4 == 2_560_000
    assert all(bits(summary.participants[f]) == set(range(1, n + 1)) for f in feats)
    assert peak < 4 * 1024 * 1024, f"summary peak {peak} bytes"


def test_summary_memo_stops_growing_at_its_cap():
    # A, B, C, D relate completely except A-C and B-D, which match ordinal
    # to ordinal.  The search takes A, B, C, D in that order; after a_i and
    # b_j only c_i and d_j remain, so the calls into the third level are
    # n**2 distinct mask pairs, each completing one row.
    n = 150
    a, b, c, d = feats = [feat(label) for label in ("A_new", "B_new", "C_new", "D_new")]
    insts = {f: [DynamicInstance(f, i, 0.0, 0.0, 0) for i in range(1, n + 1)] for f in feats}

    def complete(f, g):
        return [(x, y) for x in insts[f] for y in insts[g]]

    tables = size2_table_instances(
        complete(a, b) + list(zip(insts[a], insts[c])) + complete(a, d)
        + complete(b, c) + list(zip(insts[b], insts[d])) + complete(c, d)
    )
    assert n**2 > 4 * verify.MEMO_ENTRIES
    # Index the tables first, so that the peak is the search's own.
    for table in tables.values():
        table.pair_index()
    tracemalloc.start()
    try:
        summary = summarize(Pattern(feats), tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.row_count == n**2
    assert all(bits(summary.participants[f]) == set(range(1, n + 1)) for f in feats)
    # A memo of all n**2 + n calls peaks at about 4.4 MiB here; the capped
    # one at about 0.7 MiB.
    assert peak < 2 * 1024 * 1024, f"summary peak {peak} bytes"


def test_pair_index_indexes_each_table_once(burst_series, lifecycles, config, monkeypatch):
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    # Verify and derive read the one index of each table.
    built = []
    pair_index = size2.PairIndex
    monkeypatch.setattr(size2, "PairIndex", lambda *parts: built.append(parts) or pair_index(*parts))
    results = verify_all(cliques, tables, counts, config)
    derive_all_prevalent([r.pattern for r in results], tables, counts, config)
    assert built
    for table in tables.values():
        table.pair_index()
    assert len(built) == len(tables)
    # The same pairs in reverse order: table rows keep it, the index must not care.
    pairs = [row for table in tables.values() for row in table.rows]
    reversed_tables = size2_table_instances(reversed(pairs))
    named = by_features(tables)
    assert any(named[f].rows != t.rows for f, t in by_features(reversed_tables).items())
    for given in (tables, reversed_tables):
        for table in given.values():
            index = table.pair_index()
            assert table.pair_index() is index, table.label
            rows = {(a.ordinal, b.ordinal) for a, b in named[table.features].rows}
            forward = {(a, b) for a, mask in enumerate(index.forward) for b in bits(mask)}
            reverse = {(a, b) for b, mask in enumerate(index.reverse) for a in bits(mask)}
            assert forward == reverse == rows, table.label
            assert tuple(map(bits, table.columns())) == tuple(map(set, zip(*rows))), table.label
    assert any(clique.size > 2 for clique in cliques)
    for clique in cliques:
        summary = summarize(clique, reversed_tables)
        assert summary == summarize(clique, tables), clique.label
    table = max(tables.values(), key=len)
    reversed_columns = tuple(column[::-1] for column in table.ordinals)
    assert TableInstance(table.features, reversed_columns, table.series).rows == table.rows[::-1]


def test_early_abort_indexes_no_pair_table(monkeypatch):
    # One instance each of three pairwise related features that have 100
    # instances: the triple's bound fails at its first domain, so no pair
    # table is indexed, and the pairs it decomposes into read columns.
    feats = [feat(label) for label in ("A_new", "B_new", "C_new")]
    insts = [DynamicInstance(f, 1, 0.0, 0.0, 0) for f in feats]
    counts = {f: 100 for f in feats}
    cfg = MiningConfig(d_d=1.0, min_prev=0.5, time_span=1.0)
    built = []
    pair_index = size2.PairIndex
    monkeypatch.setattr(size2, "PairIndex", lambda *parts: built.append(parts) or pair_index(*parts))
    for early_abort, builds, aborts in ((True, 0, 1), (False, 3, 0)):
        built.clear()
        tables = size2_table_instances(combinations(insts, 2))
        stats = VerifyStats()
        results = verify_all(
            [Pattern(feats)], tables, counts, cfg, early_abort=early_abort, stats=stats
        )
        assert results == []
        assert (len(built), stats.early_aborts) == (builds, aborts), early_abort


def test_candidate_table_requires_pair_tables(burst_series, lifecycles, config):
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    not_a_clique = Pattern([feat("A_new"), feat("B_dead")])
    with pytest.raises(ValueError, match="not a clique"):
        candidate_table_instance(not_a_clique, tables)


@pytest.mark.parametrize("early_abort", [True, False])
def test_non_clique_candidate_is_a_value_error(burst_series, lifecycles, config, early_abort):
    # A_new-C_dead has no pair table; the other two pairs of the triple do.
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    not_a_clique = Pattern([feat("A_new"), feat("B_new"), feat("C_dead")])
    message = "no pair table for A_new,C_dead; candidate is not a clique over this data"
    with pytest.raises(ValueError, match=message):
        verify_all([not_a_clique], tables, counts, config, early_abort=early_abort)
    with pytest.raises(ValueError, match=message):
        derive_all_prevalent([not_a_clique], tables, counts, config)


def test_results_do_not_depend_on_the_order_of_counts():
    for seed in (0, 4):
        series, features, cfg = small_series(seed, min_prev=0.05)
        tables, counts, prevalent, cliques = mining_state(series, features, cfg)
        outcomes = []
        for given in (counts, dict(reversed(counts.items()))):
            stats = VerifyStats()
            maximal = verify_all(cliques, prevalent, given, cfg, stats=stats)
            derived = derive_all_prevalent(maximal, tables, given, cfg)
            outcomes.append((maximal, derived, stats.as_manifest_entries(), stats.ratio_log))
        assert outcomes[0] == outcomes[1], f"seed {seed}"
        assert any(r.pattern.size > 2 for r in outcomes[0][0]), f"seed {seed}"


@pytest.mark.parametrize("early_abort", [True, False])
def test_feature_without_count_is_never_prevalent(burst_series, lifecycles, config, early_abort):
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, config)
    missing = feat("C_dead")
    del counts[missing]
    stats = VerifyStats()
    results = verify_all(cliques, prevalent, counts, config, early_abort=early_abort, stats=stats)
    assert results and not any(missing in r.pattern for r in results)
    logged = [ratios[missing] for pattern, ratios in stats.ratio_log if missing in pattern]
    assert logged and all(ratio == 0.0 for ratio in logged)
    triple = Pattern([feat("A_dead"), feat("B_new"), missing])
    derived = derive_all_prevalent([triple], tables, counts, config)
    assert [r.dpi for r in derived if missing in r.pattern] == [0.0, 0.0, 0.0]


def test_early_abort_judges_a_feature_without_count_as_the_summary_does(burst_series, lifecycles):
    # Without a count C_dead's ratio is 0.0, which meets min_prev 0, so the
    # triple is prevalent; the early bound must not read the 0 total as a miss.
    cfg = MiningConfig(d_d=2.0, min_prev=0.0, time_span=3.0)
    tables, counts, prevalent, cliques = mining_state(burst_series, lifecycles, cfg)
    del counts[feat("C_dead")]
    outcomes = []
    for early_abort in (True, False):
        results = verify_all(cliques, prevalent, counts, cfg, early_abort=early_abort)
        outcomes.append([(r.pattern.label, r.dpi, r.row_count) for r in results])
    assert outcomes[0] == outcomes[1]
    assert ("A_dead,B_new,C_dead", 0.0, 1) in outcomes[0]


class KeyedOnly(PairTables):
    """Pair tables that may be read by key alone."""

    def __iter__(self):
        raise AssertionError("the table map was iterated")

    keys = values = items = __iter__


@pytest.mark.parametrize("early_abort", [True, False])
@pytest.mark.parametrize("name, expected", [
    ("burst", BURST_EXPECTED_MAXIMAL), ("shops", SHOPS_EXPECTED_MAXIMAL),
])
def test_verify_and_derive_read_tables_only_by_key(
    request, lifecycles, config, name, expected, early_abort
):
    series = request.getfixturevalue(f"{name}_series")
    tables, counts, prevalent, cliques = mining_state(series, lifecycles, config)
    keyed = KeyedOnly(tables.series)
    dict.update(keyed, tables)
    maximal = verify_all(cliques, keyed, counts, config, early_abort=early_abort)
    assert as_result_map(maximal) == {
        label: (pytest.approx(d), n) for label, (d, n) in expected.items()
    }
    derived = derive_all_prevalent(maximal, keyed, counts, config)
    assert derived == derive_all_prevalent(maximal, tables, counts, config)
    assert len(derived) > len(maximal)


def test_derive_takes_verify_results_as_patterns_give_them():
    for seed in (0, 4):
        series, features, cfg = small_series(seed, min_prev=0.05)
        tables, counts, prevalent, cliques = mining_state(series, features, cfg)
        maximal = verify_all(cliques, prevalent, counts, cfg)
        assert any(r.pattern.size > 2 for r in maximal), f"seed {seed}"
        derived = derive_all_prevalent(maximal, tables, counts, cfg)
        assert derived == derive_all_prevalent([r.pattern for r in maximal], tables, counts, cfg)
        assert len(derived) > len(maximal), f"seed {seed}"


def test_mine_summarizes_no_maximal_pattern_twice(monkeypatch):
    # Verify summarizes each maximal pattern once; derive reuses its results.
    summarized = []
    summarize_ranks = verify._summarize

    def counted(ranks, tables, misses=None):
        summarized.append(frozenset(tables.series.columns.features[r] for r in ranks))
        return summarize_ranks(ranks, tables, misses)

    monkeypatch.setattr(verify, "_summarize", counted)
    for seed in (0, 4):
        summarized.clear()
        series, features, cfg = small_series(seed, min_prev=0.05)
        outcome = mine_series(series, features, cfg, derive_all=True)
        assert any(r.pattern.size > 2 for r in outcome.results), f"seed {seed}"
        for result in outcome.results:
            assert summarized.count(result.pattern.feature_set) == 1, result.pattern.label
        assert len(summarized) > len(outcome.results)


def test_decompose_excludes_accepted_and_pending():
    failed = Pattern([feat("A_dead"), feat("B_new"), feat("C_dead"), feat("D_new")])
    mask, label = rank_masks(failed.features)
    accepted = [mask(Pattern([feat("A_dead"), feat("B_new"), feat("C_dead")]))]
    subs = decompose(mask(failed), accepted, [])
    assert [label(s) for s in subs] == [
        "A_dead,B_new,D_new",
        "A_dead,C_dead,D_new",
        "B_new,C_dead,D_new",
    ]
    pending = [mask(Pattern([feat("A_dead"), feat("B_new"), feat("D_new")]))]
    assert [label(s) for s in decompose(mask(failed), accepted, pending)] == [
        "A_dead,C_dead,D_new",
        "B_new,C_dead,D_new",
    ]


def test_early_bound_checks_anchor_then_each_feature():
    # A_new.1-3 each partner B_new.1 and C_new.1, which relate: A_new's
    # domain holds 3 instances, B_new's and C_new's 1 each, tested in turn.
    a, b, c = feats = [feat(label) for label in ("A_new", "B_new", "C_new")]
    anchors = [DynamicInstance(a, i, 0.0, 0.0, 0) for i in (1, 2, 3)]
    b1, c1 = (DynamicInstance(f, 1, 0.0, 0.0, 0) for f in (b, c))
    tables = size2_table_instances([(x, y) for x in anchors for y in (b1, c1)] + [(b1, c1)])
    cfg = MiningConfig(d_d=1.0, min_prev=0.3, time_span=1.0)
    strict = MiningConfig(
        d_d=1.0, min_prev=0.3, time_span=1.0, prevalence_comparison="strict"
    )
    cases = [
        ({a: 10, b: 1, c: 1}, cfg, 0),  # 3/10 meets 0.3
        ({a: 11, b: 1, c: 1}, cfg, 1),  # 3/11 misses
        ({a: 10, b: 1, c: 1}, strict, 1),  # 3/10 is not above 0.3
        ({a: 10, b: 4, c: 1}, cfg, 1),  # A_new passes, B_new's 1/4 misses
        ({a: 10, b: 1}, cfg, 1),  # C_new has no instances
    ]
    for counts, config, aborts in cases:
        stats = VerifyStats()
        results = verify_all([Pattern(feats)], tables, counts, config, stats=stats)
        assert stats.early_aborts == aborts, counts
        if not aborts:
            assert [r.pattern for r in results] == [Pattern(feats)]
    # A_new.i partners B_new.i and C_new.1, and only B_new.1 relates to
    # C_new.1: every B_new partners some allowed A_new, but B_new's domain,
    # 1/3, misses 0.5.  The one row gives A_new 1/3 as well, so the results
    # are the same either way.
    a_i, b_i = ([DynamicInstance(f, i, 0.0, 0.0, 0) for i in (1, 2, 3)] for f in (a, b))
    tables = size2_table_instances([*zip(a_i, b_i), *[(x, c1) for x in a_i], (b_i[0], c1)])
    counts, config = {a: 3, b: 3, c: 1}, MiningConfig(d_d=1.0, min_prev=0.5, time_span=1.0)
    outcomes = []
    for early_abort, aborts in ((True, 1), (False, 0)):
        stats = VerifyStats()
        outcomes.append(verify_all(
            [Pattern(feats)], tables, counts, config, early_abort=early_abort, stats=stats
        ))
        assert stats.early_aborts == aborts, early_abort
    assert outcomes[0] == outcomes[1]


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
    assert verify_all([], PairTables(DynamicDatasetSeries(())), {}, cfg) == []
