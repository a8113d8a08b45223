from __future__ import annotations

from itertools import combinations

from mdcolo import MiningConfig, Pattern, diff_snapshots
from mdcolo.cliques import maximal_cliques
from mdcolo.datagen import SplitMix64, feature_name
from mdcolo.model import DEAD, NEW, DynamicFeature, compute_spans
from mdcolo.neighborhood import grid_join, neighbor_pairs
from mdcolo.size2 import (
    FeatureGraph,
    build_feature_graph,
    feature_counts,
    pair_tables,
    prevalent_size2,
    size2_table_instances,
)

from oracles import bron_kerbosch
from conftest import BURST_EXPECTED_CLIQUES, bits, feat, feature_graph, planted


def test_burst_cliques_exact(burst_series, lifecycles, config):
    life = {f.id: f.life_cycle for f in lifecycles}
    spans = compute_spans(burst_series.features(), life, config.time_span)
    tables = size2_table_instances(neighbor_pairs(burst_series, spans, config))
    counts = feature_counts(burst_series)
    graph = build_feature_graph(prevalent_size2(tables, counts, config))
    cliques = maximal_cliques(graph)
    assert [c.label for c in cliques] == BURST_EXPECTED_CLIQUES


def test_empty_graph():
    assert maximal_cliques(feature_graph([])) == ()


def test_single_edge():
    graph = feature_graph([(feat("A_new"), feat("B_dead"))])
    assert [c.label for c in maximal_cliques(graph)] == ["A_new,B_dead"]


def test_isolated_vertex_never_appears():
    graph = feature_graph([(feat("A_new"), feat("B_new"))], vertices=[feat("Z_dead")])
    assert [c.label for c in maximal_cliques(graph)] == ["A_new,B_new"]


def test_triangle_with_pendant():
    a, b, c, d = feat("A_new"), feat("B_new"), feat("C_new"), feat("D_new")
    graph = feature_graph([(a, b), (a, c), (b, c), (c, d)])
    assert [cl.label for cl in maximal_cliques(graph)] == [
        "A_new,B_new,C_new",
        "C_new,D_new",
    ]


def test_complete_graph_is_one_clique():
    feats = [feat(f"{feature_name(i)}_new") for i in range(6)]
    graph = feature_graph(combinations(feats, 2))
    cliques = maximal_cliques(graph)
    assert len(cliques) == 1
    assert cliques[0].size == 6


class CountingList(list):
    """A list that counts its item lookups."""

    lookups = 0

    def __getitem__(self, index):
        self.lookups += 1
        return super().__getitem__(index)


def test_a_wide_clique_takes_a_few_lookups_per_feature():
    # The pivot scan stops at a candidate adjacent to all the others, so
    # each level of a clique's search reads a few neighborhoods, not one
    # per candidate.
    feats = [feat(f"{feature_name(i)}_new") for i in range(200)]
    graph = feature_graph(combinations(feats, 2))
    adjacency = CountingList(graph.adjacency)
    cliques = maximal_cliques(graph._replace(adjacency=adjacency))
    assert [c.features for c in cliques] == [tuple(graph.features)]
    assert adjacency.lookups <= 5 * len(feats)


def test_two_disjoint_triangles():
    f = [feat(f"{feature_name(i)}_new") for i in range(6)]
    edges = [(f[0], f[1]), (f[0], f[2]), (f[1], f[2]),
             (f[3], f[4]), (f[3], f[5]), (f[4], f[5])]
    cliques = maximal_cliques(feature_graph(edges))
    assert [c.label for c in cliques] == ["A_new,B_new,C_new", "D_new,E_new,F_new"]


def random_graph(rng: SplitMix64, n_vertices: int, density: float) -> FeatureGraph:
    vertices = [
        DynamicFeature(feature_name(i // 2), NEW if i % 2 == 0 else DEAD)
        for i in range(n_vertices)
    ]
    edges = [
        pair for pair in combinations(vertices, 2) if rng.random() < density
    ]
    return feature_graph(edges, vertices=vertices)


def test_matches_bron_kerbosch_on_random_graphs():
    rng = SplitMix64(2024)
    for trial in range(60):
        n = 4 + trial % 14
        density = 0.15 + 0.5 * (trial % 7) / 6
        graph = random_graph(rng, n, density)
        assert maximal_cliques(graph) == bron_kerbosch(graph), f"trial {trial}"
    # Larger, denser graphs, where the excluded set does most of its pruning.
    for trial in range(34):
        n = 24 + trial % 17
        density = 0.3 + 0.4 * (trial % 5) / 4
        graph = random_graph(rng, n, density)
        assert maximal_cliques(graph) == bron_kerbosch(graph), f"large trial {trial}"


def test_output_is_deterministic():
    rng = SplitMix64(7)
    graph = random_graph(rng, 12, 0.4)
    assert maximal_cliques(graph) == maximal_cliques(graph)


def test_no_clique_contains_another():
    rng = SplitMix64(99)
    for _ in range(20):
        graph = random_graph(rng, 12, 0.5)
        cliques = maximal_cliques(graph)
        for p, q in combinations(cliques, 2):
            assert not (p.feature_set < q.feature_set)
            assert not (q.feature_set < p.feature_set)


def test_every_clique_is_actually_a_clique():
    rng = SplitMix64(5)
    for _ in range(20):
        graph = random_graph(rng, 14, 0.45)
        rank = {f: r for r, f in enumerate(graph.features)}
        for clique in maximal_cliques(graph):
            for a, b in combinations(clique.features, 2):
                assert rank[b] in bits(graph.adjacency[rank[a]])


def test_graph_and_cliques_of_a_planted_co_location_build_one_pattern(monkeypatch):
    # 300 one-instance features at one point: all 44,850 pairs are
    # prevalent and form one clique, the only pattern the two stages build.
    snapshots, lifecycles = planted(300)
    series = diff_snapshots(snapshots)
    config = MiningConfig(d_d=1.0, min_prev=0.1, time_span=3.0)
    counts = feature_counts(series)
    spans = compute_spans(counts, {f.id: f.life_cycle for f in lifecycles}, config.time_span)
    prevalent = prevalent_size2(pair_tables(grid_join(series, spans, config)), counts, config)
    assert len(prevalent) == 300 * 299 // 2
    built = []
    init = Pattern.__init__
    monkeypatch.setattr(
        Pattern, "__init__", lambda self, features: built.append(1) or init(self, features)
    )
    cliques = maximal_cliques(build_feature_graph(prevalent))
    assert len(built) == 1
    assert [c.features for c in cliques] == [tuple(series.columns.features)]
