"""Domain model for dynamic co-location mining.

A snapshot series is reduced to *dynamic instances*: appearances ("new") and
disappearances ("dead") of feature instances between consecutive snapshots.
Each base feature has a life cycle that, together with the series' time span,
bounds how many transition windows one of its appearance events keeps
influencing.  Everything downstream (proximity joins, pair tables, pattern
verification) works on the types defined here.

Canonical ordering is fixed once and used everywhere: dynamic features sort by
base id, then "new" before "dead"; instances sort by feature, then ordinal.
Patterns store their features in canonical order, so two patterns built from
any permutation of the same features compare equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping


NEW = "new"
DEAD = "dead"

_KIND_RANK = {NEW: 0, DEAD: 1}


class ConfigError(ValueError):
    """Invalid configuration (thresholds, spans, generator settings)."""


class DataFormatError(ValueError):
    """Malformed input data (bad CSV, duplicate ids, missing header)."""


class InsufficientDataError(DataFormatError):
    """Input too small to be meaningful (fewer than two snapshots)."""


@dataclass(frozen=True)
class BaseFeature:
    """A feature of the underlying snapshots, e.g. a shop category.

    life_cycle is the typical duration of one instance's influence, in the
    same units as the series' time span.
    """

    id: str
    life_cycle: float

    def __post_init__(self):
        if not self.id:
            raise ConfigError("base feature id must be non-empty")
        if not (0 < self.life_cycle < math.inf):
            raise ConfigError(
                f"life cycle of {self.id!r} must be positive and finite, got {self.life_cycle}"
            )


@dataclass(frozen=True)
class DynamicFeature:
    """A base feature qualified by what happened to its instances: new or dead.

    sort_key and the hash are precomputed; features are hashed and compared
    millions of times in the join loops.
    """

    base: str
    kind: str

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ConfigError(f"kind must be {NEW!r} or {DEAD!r}, got {self.kind!r}")
        if not self.base:
            raise ConfigError("base feature id must be non-empty")
        object.__setattr__(self, "sort_key", (self.base, _KIND_RANK[self.kind]))
        object.__setattr__(self, "_hash", hash((self.base, self.kind)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def label(self) -> str:
        return f"{self.base}_{self.kind}"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class DynamicInstance:
    """One appearance or disappearance event, located in space and time.

    t_index is the transition window the event belongs to: window k covers the
    change between snapshots k and k+1.  Ordinals are 1-based and unique per
    dynamic feature within a series.
    """

    feature: DynamicFeature
    ordinal: int
    x: float
    y: float
    t_index: int

    def __post_init__(self):
        if self.ordinal < 1:
            raise ConfigError(f"ordinal must be >= 1, got {self.ordinal}")
        if self.t_index < 0:
            raise ConfigError(f"t_index must be >= 0, got {self.t_index}")
        object.__setattr__(
            self,
            "sort_key",
            (self.feature.base, _KIND_RANK[self.feature.kind], self.ordinal),
        )
        object.__setattr__(
            self, "_hash", hash((self.feature, self.ordinal, self.x, self.y, self.t_index))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def label(self) -> str:
        return f"{self.feature.label}.{self.ordinal}"

    def __str__(self) -> str:
        return self.label


def canonical_features(features: Iterable[DynamicFeature]) -> tuple[DynamicFeature, ...]:
    """Sort features canonically, rejecting duplicates."""
    feats = sorted(features, key=lambda f: f.sort_key)
    for a, b in zip(feats, feats[1:]):
        if a == b:
            raise ConfigError(f"duplicate feature {a} in pattern")
    return tuple(feats)


@dataclass(frozen=True)
class Pattern:
    """A set of at least two distinct dynamic features, canonically ordered.

    Equality and hashing see only the feature tuple, so construction order
    never matters.
    """

    features: tuple[DynamicFeature, ...]
    feature_set: frozenset = field(init=False, compare=False, repr=False)

    def __init__(self, features: Iterable[DynamicFeature]):
        feats = canonical_features(features)
        if len(feats) < 2:
            raise ConfigError(f"pattern needs at least 2 features, got {len(feats)}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "feature_set", frozenset(feats))
        object.__setattr__(self, "sort_key", tuple(f.sort_key for f in feats))
        object.__setattr__(self, "_hash", hash((feats,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.features)

    @property
    def label(self) -> str:
        return ",".join(f.label for f in self.features)

    def __str__(self) -> str:
        return self.label

    def __contains__(self, feature: DynamicFeature) -> bool:
        return feature in self.feature_set


# A feature clique is structurally just a pattern whose features are pairwise
# adjacent in some feature graph; the graph is tracked by the caller.
FeatureClique = Pattern


@dataclass(frozen=True)
class MiningConfig:
    """Thresholds and comparison modes shared by the whole pipeline.

    d_d            spatial proximity threshold (Euclidean, inclusive).
    min_prev       minimum participation index for a pattern to count.
    time_span      duration of one transition window, in life-cycle units.
    temporal_comparison    "inclusive": |dt| <= max(spans) (the default),
                           "strict":    |dt| <  max(spans).
    prevalence_comparison  "inclusive": index >= min_prev (the default),
                           "strict":    index >  min_prev.
    """

    d_d: float
    min_prev: float
    time_span: float
    temporal_comparison: str = "inclusive"
    prevalence_comparison: str = "inclusive"

    def __post_init__(self):
        if not (0 < self.d_d < math.inf):
            raise ConfigError(f"d_d must be positive and finite, got {self.d_d}")
        if not (0.0 <= self.min_prev <= 1.0):
            raise ConfigError(f"min_prev must be within [0, 1], got {self.min_prev}")
        if not (0 < self.time_span < math.inf):
            raise ConfigError(f"time_span must be positive and finite, got {self.time_span}")
        for mode in (self.temporal_comparison, self.prevalence_comparison):
            if mode not in ("inclusive", "strict"):
                raise ConfigError(f"comparison mode must be 'inclusive' or 'strict', got {mode!r}")


def span_constraint(kind: str, life_cycle: float, time_span: float) -> int:
    """Number of transition windows an event of this kind keeps influencing.

    A disappearance stops mattering after one window.  An appearance stays
    relevant for its feature's whole life cycle, measured in time spans and
    rounded up, but never less than one window.
    """
    if kind not in _KIND_RANK:
        raise ConfigError(f"kind must be {NEW!r} or {DEAD!r}, got {kind!r}")
    if not (life_cycle > 0):
        raise ConfigError(f"life cycle must be positive, got {life_cycle}")
    if not (time_span > 0):
        raise ConfigError(f"time span must be positive, got {time_span}")
    if kind == DEAD:
        return 1
    return max(1, math.ceil(life_cycle / time_span))


def compute_spans(
    features: Iterable[DynamicFeature],
    life_cycles: Mapping[str, float],
    time_span: float,
) -> dict[DynamicFeature, int]:
    """Span for every given dynamic feature, from its base feature's life cycle."""
    spans: dict[DynamicFeature, int] = {}
    for f in features:
        if f.base not in life_cycles:
            raise ConfigError(f"no life cycle given for feature {f.base!r}")
        spans[f] = span_constraint(f.kind, life_cycles[f.base], time_span)
    return spans
