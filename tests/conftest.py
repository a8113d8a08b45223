"""Shared fixtures: two hand-checked snapshot series and a small-series factory.

The "shops" series exercises the transition diff and the temporal reach rules:
a cluster near the origin builds up over five snapshots while another cluster
around x=10 dies off.  Every expected neighbor pair was checked by hand
against the distance and window arithmetic.

The "burst" series packs one window with correlated appearances and
disappearances so that pair tables, participation ratios, the feature graph,
clique enumeration, and verification all have exact known outcomes.
"""

from __future__ import annotations

import pytest

from mdcolo import (
    BaseFeature,
    DataFormatError,
    DynamicFeature,
    MiningConfig,
    Snapshot,
    diff_snapshots,
)
from mdcolo.datagen import GenConfig, generate
from mdcolo.model import DEAD, NEW


def parse_feature_label(label: str) -> DynamicFeature:
    """Inverse of DynamicFeature.label: "A_new" -> DynamicFeature("A", "new")."""
    base, sep, kind = label.rpartition("_")
    if not sep or not base or kind not in (NEW, DEAD):
        raise DataFormatError(f"not a dynamic feature label: {label!r}")
    return DynamicFeature(base, kind)


def feat(label: str):
    return parse_feature_label(label)


def snap(t: int, *records: tuple[str, str, float, float]) -> Snapshot:
    return Snapshot(t, tuple(records))


def instances_by_label(series) -> dict:
    return {inst.label: inst for inst in series.all_instances()}


# Life cycles shared by both hand-checked series: with time span 3, "new"
# events of A reach 3 windows, of B 1 window, of C 2 windows; "dead" events
# always reach 1.
LIFECYCLES = [BaseFeature("A", 9.0), BaseFeature("B", 3.0), BaseFeature("C", 6.0)]

CONFIG = MiningConfig(d_d=2.0, min_prev=0.3, time_span=3.0)


@pytest.fixture
def lifecycles():
    return list(LIFECYCLES)


@pytest.fixture
def config():
    return CONFIG


def shops_snapshots() -> list[Snapshot]:
    return [
        snap(0, ("A", "a0", 10.0, 0.0), ("C", "c0", 400.0, 0.0), ("C", "c9", 8.5, 0.0)),
        snap(1, ("A", "a1", 0.0, 0.0), ("C", "c1", 300.0, 0.0), ("C", "c9", 8.5, 0.0)),
        snap(
            2,
            ("A", "a1", 0.0, 0.0),
            ("A", "a2", 0.0, 1.0),
            ("B", "b1", 11.5, 0.0),
            ("C", "c1", 300.0, 0.0),
            ("C", "c2", 310.0, 0.0),
        ),
        snap(
            3,
            ("A", "a1", 0.0, 0.0),
            ("A", "a2", 0.0, 1.0),
            ("A", "a3", 100.0, 0.0),
            ("B", "b1", 11.5, 0.0),
            ("C", "c1", 300.0, 0.0),
            ("C", "c2", 310.0, 0.0),
            ("C", "c3", 1.0, 0.0),
        ),
        snap(
            4,
            ("A", "a1", 0.0, 0.0),
            ("A", "a2", 0.0, 1.0),
            ("A", "a3", 100.0, 0.0),
            ("A", "a4", 200.0, 0.0),
            ("B", "b1", 11.5, 0.0),
            ("B", "b2", 0.0, 0.5),
            ("C", "c1", 300.0, 0.0),
            ("C", "c2", 310.0, 0.0),
            ("C", "c3", 1.0, 0.0),
        ),
    ]


# label -> (x, y, window) for every dynamic instance the shops series produces
SHOPS_EXPECTED_INSTANCES = {
    "A_new.1": (0.0, 0.0, 0),
    "A_new.2": (0.0, 1.0, 1),
    "A_new.3": (100.0, 0.0, 2),
    "A_new.4": (200.0, 0.0, 3),
    "A_dead.1": (10.0, 0.0, 0),
    "B_new.1": (11.5, 0.0, 1),
    "B_new.2": (0.0, 0.5, 3),
    "C_new.1": (300.0, 0.0, 0),
    "C_new.2": (310.0, 0.0, 1),
    "C_new.3": (1.0, 0.0, 2),
    "C_dead.1": (400.0, 0.0, 0),
    "C_dead.2": (8.5, 0.0, 1),
}

# All related pairs at d_d=2 with inclusive window comparison, by label.
SHOPS_EXPECTED_PAIRS = {
    ("A_new.1", "B_new.2"),
    ("A_new.1", "C_new.3"),
    ("A_new.2", "B_new.2"),
    ("A_new.2", "C_new.3"),
    ("A_dead.1", "B_new.1"),
    ("A_dead.1", "C_dead.2"),
    ("B_new.2", "C_new.3"),
}

# Strict window comparison drops every pair sitting exactly on its reach
# limit: (A_new.1, B_new.2) at |dt|=3 and both pairs of dead instances at
# |dt|=1.
SHOPS_EXPECTED_PAIRS_STRICT = {
    ("A_new.1", "C_new.3"),
    ("A_new.2", "B_new.2"),
    ("A_new.2", "C_new.3"),
    ("B_new.2", "C_new.3"),
}

# pattern label -> (row label tuples, participation index)
SHOPS_EXPECTED_TABLES = {
    "A_new,B_new": ({("A_new.1", "B_new.2"), ("A_new.2", "B_new.2")}, 0.5),
    "A_new,C_new": ({("A_new.1", "C_new.3"), ("A_new.2", "C_new.3")}, 1 / 3),
    "A_dead,B_new": ({("A_dead.1", "B_new.1")}, 0.5),
    "A_dead,C_dead": ({("A_dead.1", "C_dead.2")}, 0.5),
    "B_new,C_new": ({("B_new.2", "C_new.3")}, 1 / 3),
}

# pattern label -> (dpi, row count) for the final maximal patterns
SHOPS_EXPECTED_MAXIMAL = {
    "A_new,B_new,C_new": (1 / 3, 2),
    "A_dead,B_new": (0.5, 1),
    "A_dead,C_dead": (0.5, 1),
}


@pytest.fixture
def shops():
    return shops_snapshots()


@pytest.fixture
def shops_series(shops):
    return diff_snapshots(shops)


def burst_snapshots() -> list[Snapshot]:
    return [
        snap(
            0,
            ("A", "a1", 1.8, 0.0),
            ("A", "a2", -1.8, 0.0),
            ("B", "b0", -3.6, -0.4),
            ("C", "c1", 60.0, 60.0),
            ("C", "c2", 0.9, -1.55),
        ),
        snap(
            1,
            ("A", "a3", -0.4, 1.9),
            ("B", "b1", 0.0, 0.0),
            ("B", "b2", 3.3, 1.0),
            ("C", "c3", -0.8, 3.7),
        ),
        snap(
            2,
            ("A", "a3", -0.4, 1.9),
            ("A", "a4", 50.0, 50.0),
            ("B", "b1", 0.0, 0.0),
            ("B", "b2", 3.3, 1.0),
            ("C", "c3", -0.8, 3.7),
        ),
    ]


# pattern label -> (row label tuples, participation index); the 9 remaining
# feature pairs have empty tables.
BURST_EXPECTED_TABLES = {
    "A_new,B_new": ({("A_new.1", "B_new.1")}, 0.5),
    "A_new,C_new": ({("A_new.1", "C_new.1")}, 0.5),
    "A_dead,B_new": (
        {("A_dead.1", "B_new.1"), ("A_dead.1", "B_new.2"), ("A_dead.2", "B_new.1")},
        1.0,
    ),
    "A_dead,B_dead": ({("A_dead.2", "B_dead.1")}, 0.5),
    "A_dead,C_dead": ({("A_dead.1", "C_dead.2")}, 0.5),
    "B_new,C_dead": ({("B_new.1", "C_dead.2")}, 0.5),
}

BURST_EXPECTED_CLIQUES = [
    "A_new,B_new",
    "A_new,C_new",
    "A_dead,B_new,C_dead",
    "A_dead,B_dead",
]

# The triple keeps only the row whose B/C legs are themselves related.
BURST_TRIPLE_ROWS = {("A_dead.1", "B_new.1", "C_dead.2")}

BURST_EXPECTED_MAXIMAL = {
    "A_new,B_new": (0.5, 1),
    "A_new,C_new": (0.5, 1),
    "A_dead,B_new,C_dead": (0.5, 1),
    "A_dead,B_dead": (0.5, 1),
}


@pytest.fixture
def burst():
    return burst_snapshots()


@pytest.fixture
def burst_series(burst):
    return diff_snapshots(burst)


def small_series(seed: int, **overrides):
    """A generated series small enough for the exhaustive oracles.

    Returns (series, base features, mining config).
    """
    gen_kwargs = dict(
        area=(120.0, 120.0),
        n_time_points=5,
        time_span=3.0,
        n_base_features=4,
        life_cycles=(9.0, 3.0, 30.0, 15.0),
        n_dynamic_instances=80,
        cluster_count=3,
        cluster_radius=6.0,
        churn_ratio=0.6,
        seed=seed,
    )
    mine_kwargs = dict(d_d=12.0, min_prev=0.2, time_span=3.0)
    for key, value in overrides.items():
        if key in gen_kwargs:
            gen_kwargs[key] = value
        else:
            mine_kwargs[key] = value
    gen = GenConfig(**gen_kwargs)
    snapshots, _ = generate(gen)
    return diff_snapshots(snapshots), gen.base_features(), MiningConfig(**mine_kwargs)
