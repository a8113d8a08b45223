from __future__ import annotations

from itertools import combinations

from mdcolo import Pattern
from mdcolo.cliques import maximal_cliques
from mdcolo.datagen import SplitMix64, feature_name
from mdcolo.model import DEAD, NEW, DynamicFeature, compute_spans
from mdcolo.neighborhood import neighbor_pairs
from mdcolo.size2 import (
    FeatureGraph,
    build_feature_graph,
    feature_counts,
    prevalent_size2,
    size2_table_instances,
)

from oracles import bron_kerbosch
from conftest import BURST_EXPECTED_CLIQUES, feat


def test_burst_cliques_exact(burst_series, lifecycles, config):
    life = {f.id: f.life_cycle for f in lifecycles}
    spans = compute_spans(burst_series.features(), life, config.time_span)
    tables = size2_table_instances(neighbor_pairs(burst_series, spans, config))
    counts = feature_counts(burst_series)
    graph = build_feature_graph(prevalent_size2(tables, counts, config))
    cliques = maximal_cliques(graph)
    assert [c.label for c in cliques] == BURST_EXPECTED_CLIQUES


def test_empty_graph():
    assert maximal_cliques(FeatureGraph([])) == ()


def test_single_edge():
    graph = FeatureGraph([Pattern([feat("A_new"), feat("B_dead")])])
    assert [c.label for c in maximal_cliques(graph)] == ["A_new,B_dead"]


def test_isolated_vertex_never_appears():
    graph = FeatureGraph([Pattern([feat("A_new"), feat("B_new")])], vertices=[feat("Z_dead")])
    assert [c.label for c in maximal_cliques(graph)] == ["A_new,B_new"]


def test_triangle_with_pendant():
    a, b, c, d = feat("A_new"), feat("B_new"), feat("C_new"), feat("D_new")
    graph = FeatureGraph(Pattern(pair) for pair in [(a, b), (a, c), (b, c), (c, d)])
    assert [cl.label for cl in maximal_cliques(graph)] == [
        "A_new,B_new,C_new",
        "C_new,D_new",
    ]


def test_complete_graph_is_one_clique():
    feats = [feat(f"{feature_name(i)}_new") for i in range(6)]
    graph = FeatureGraph(Pattern(pair) for pair in combinations(feats, 2))
    cliques = maximal_cliques(graph)
    assert len(cliques) == 1
    assert cliques[0].size == 6


class CountingAdjacency(dict):
    """An adjacency that counts its neighborhood lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_a_wide_clique_takes_a_few_lookups_per_feature():
    # The pivot scan stops at a candidate adjacent to all the others, so
    # each level of a clique's search reads a few neighborhoods, not one
    # per candidate.
    feats = [feat(f"{feature_name(i)}_new") for i in range(200)]
    graph = FeatureGraph(Pattern(pair) for pair in combinations(feats, 2))
    graph.adjacency = CountingAdjacency(graph.adjacency)
    cliques = maximal_cliques(graph)
    assert [c.features for c in cliques] == [tuple(graph.vertices)]
    assert graph.adjacency.lookups <= 5 * len(feats)


def test_two_disjoint_triangles():
    f = [feat(f"{feature_name(i)}_new") for i in range(6)]
    edges = [(f[0], f[1]), (f[0], f[2]), (f[1], f[2]),
             (f[3], f[4]), (f[3], f[5]), (f[4], f[5])]
    cliques = maximal_cliques(FeatureGraph(Pattern(pair) for pair in edges))
    assert [c.label for c in cliques] == ["A_new,B_new,C_new", "D_new,E_new,F_new"]


def random_graph(rng: SplitMix64, n_vertices: int, density: float) -> FeatureGraph:
    vertices = [
        DynamicFeature(feature_name(i // 2), NEW if i % 2 == 0 else DEAD)
        for i in range(n_vertices)
    ]
    edges = [
        pair for pair in combinations(vertices, 2) if rng.random() < density
    ]
    return FeatureGraph((Pattern(pair) for pair in edges), vertices=vertices)


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
        for clique in maximal_cliques(graph):
            for a, b in combinations(clique.features, 2):
                assert b in graph.adjacency[a]
