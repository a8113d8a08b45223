"""Maximal co-location mining over the churn of spatial snapshot series.

A series of timestamped snapshots is reduced to the instances that appear or
disappear between consecutive time points.  Those dynamic instances are joined
under a spatial distance threshold and per-feature temporal reach, scored by
participation, and grown into maximal prevalent patterns.
"""

from __future__ import annotations

from .cliques import maximal_cliques
from .datagen import GenConfig, GenReport, SplitMix64, generate
from .model import (
    DEAD,
    NEW,
    BaseFeature,
    ConfigError,
    DataFormatError,
    DynamicFeature,
    DynamicInstance,
    InsufficientDataError,
    MiningConfig,
    Pattern,
    canonical_features,
    compute_spans,
    parse_feature_label,
    span_constraint,
)
from .levelwise import join_based_mine
from .neighborhood import GridIndex, neighbor_pairs
from .oracles import OracleConfig, all_pairs_scan, bron_kerbosch, brute_force_maximal
from .pipeline import MineOutcome, mine_series, mine_snapshots
from .size2 import (
    FeatureGraph,
    TableInstance,
    build_feature_graph,
    feature_counts,
    participation_index,
    participation_ratio,
    passes_prevalence,
    prevalent_size2,
    size2_table_instances,
)
from .snapshots import DynamicDatasetSeries, Snapshot, diff_snapshots
from .verify import (
    PatternResult,
    VerifyStats,
    candidate_table_instance,
    decompose,
    derive_all_prevalent,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "BaseFeature",
    "ConfigError",
    "DataFormatError",
    "DEAD",
    "DynamicDatasetSeries",
    "DynamicFeature",
    "DynamicInstance",
    "FeatureGraph",
    "GenConfig",
    "GenReport",
    "GridIndex",
    "InsufficientDataError",
    "MineOutcome",
    "MiningConfig",
    "NEW",
    "OracleConfig",
    "Pattern",
    "PatternResult",
    "Snapshot",
    "SplitMix64",
    "TableInstance",
    "VerifyStats",
    "all_pairs_scan",
    "bron_kerbosch",
    "brute_force_maximal",
    "build_feature_graph",
    "canonical_features",
    "candidate_table_instance",
    "compute_spans",
    "decompose",
    "derive_all_prevalent",
    "diff_snapshots",
    "feature_counts",
    "generate",
    "join_based_mine",
    "maximal_cliques",
    "mine_series",
    "mine_snapshots",
    "neighbor_pairs",
    "parse_feature_label",
    "participation_index",
    "participation_ratio",
    "passes_prevalence",
    "prevalent_size2",
    "size2_table_instances",
    "span_constraint",
    "verify_all",
]
