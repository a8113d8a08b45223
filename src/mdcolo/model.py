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
import sys
from typing import Iterable, Mapping


NEW = "new"
DEAD = "dead"

_KIND_RANK = {NEW: 0, DEAD: 1}

# Characters that split report fields, pattern labels or lines.
REPORT_SEPARATORS = ",;|\n\r"


class ConfigError(ValueError):
    """Invalid configuration (thresholds, spans, generator settings)."""


class DataFormatError(ValueError):
    """Malformed input data (bad CSV, duplicate ids, missing header)."""


class InsufficientDataError(DataFormatError):
    """Input too small to be meaningful (fewer than two snapshots)."""


class MissingLifeCycleError(ConfigError):
    """Base features, sorted in `bases`, that have dynamic instances but no
    life cycle."""

    def __init__(self, bases: list[str]):
        super().__init__(f"no life cycle given for feature(s): {', '.join(bases)}")
        self.bases = bases


class Value:
    """Base of the slotted value types.  Objects of one class are equal when
    the slots named in `_compared` are, as a dataclass compares them, and
    hash alike; a class that precomputes `_hash` returns it instead.  The
    repr names the compared slots.  Nothing assigns a slot after `__init__`,
    which keeps the hashes valid."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"


class BaseFeature(Value):
    """A feature of the underlying snapshots, e.g. a shop category.

    life_cycle is the typical duration of one instance's influence, in the
    same units as the series' time span.  The id holds none of the reports'
    separators (REPORT_SEPARATORS), so every report line parses back.
    """

    __slots__ = _compared = ("id", "life_cycle")

    def __init__(self, id: str, life_cycle: float):
        if not id:
            raise ConfigError("base feature id must be non-empty")
        if any(c in id for c in REPORT_SEPARATORS):
            raise ConfigError(
                f"base feature id {id!r} holds a report separator, one of {REPORT_SEPARATORS!r}"
            )
        if not (0 < life_cycle < math.inf):
            raise ConfigError(
                f"life cycle of {id!r} must be positive and finite, got {life_cycle}"
            )
        self.id, self.life_cycle = id, life_cycle


class DynamicFeature(Value):
    """A base feature qualified by what happened to its instances: new or dead.

    sort_key and the hash are precomputed; features are hashed and compared
    millions of times in the join loops.
    """

    _compared = ("base", "kind")
    __slots__ = _compared + ("sort_key", "_hash")

    def __init__(self, base: str, kind: str):
        if kind not in _KIND_RANK:
            raise ConfigError(f"kind must be {NEW!r} or {DEAD!r}, got {kind!r}")
        if not base:
            raise ConfigError("base feature id must be non-empty")
        self.base, self.kind = base, kind
        self.sort_key = (base, _KIND_RANK[kind])
        self._hash = hash((base, kind))

    def __hash__(self) -> int:
        return self._hash

    @property
    def label(self) -> str:
        return f"{self.base}_{self.kind}"

    def __str__(self) -> str:
        return self.label


class DynamicInstance(Value):
    """One appearance or disappearance event, located in space and time.

    t_index is the transition window the event belongs to: window k covers the
    change between snapshots k and k+1.  Ordinals are 1-based and unique per
    dynamic feature within a series.
    """

    _compared = ("feature", "ordinal", "x", "y", "t_index")
    __slots__ = _compared + ("sort_key", "_hash")

    def __init__(self, feature: DynamicFeature, ordinal: int, x: float, y: float, t_index: int):
        if ordinal < 1:
            raise ConfigError(f"ordinal must be >= 1, got {ordinal}")
        if t_index < 0:
            raise ConfigError(f"t_index must be >= 0, got {t_index}")
        self.feature, self.ordinal, self.x, self.y, self.t_index = feature, ordinal, x, y, t_index
        self.sort_key = (feature.base, _KIND_RANK[feature.kind], ordinal)
        # Equal instances have equal sort keys, so the key's hash is theirs.
        self._hash = hash(self.sort_key)

    def __hash__(self) -> int:
        return self._hash

    @property
    def label(self) -> str:
        return f"{self.feature.label}.{self.ordinal}"

    def __str__(self) -> str:
        return self.label


def canonical_features(features: Iterable[DynamicFeature]) -> tuple[DynamicFeature, ...]:
    """Sort features canonically, rejecting duplicates: equal features are
    those with equal sort keys."""
    feats = sorted(features, key=lambda f: f.sort_key)
    for a, b in zip(feats, feats[1:]):
        if a.sort_key == b.sort_key:
            raise ConfigError(f"duplicate feature {a} in pattern")
    return tuple(feats)


class Pattern(Value):
    """A set of at least two distinct dynamic features, canonically ordered.

    Equality and hashing see only the feature tuple, so construction order
    never matters.
    """

    _compared = ("features",)
    __slots__ = _compared + ("feature_set", "sort_key", "_hash")

    def __init__(self, features: Iterable[DynamicFeature]):
        feats = canonical_features(features)
        if len(feats) < 2:
            raise ConfigError(f"pattern needs at least 2 features, got {len(feats)}")
        self.features = feats
        self.feature_set = frozenset(feats)
        self.sort_key = tuple(f.sort_key for f in feats)
        self._hash = hash((feats,))

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


class MiningConfig(Value):
    """Thresholds and comparison modes shared by the whole pipeline.

    d_d            spatial proximity threshold (Euclidean, inclusive).
    min_prev       minimum participation index for a pattern to count.
    time_span      duration of one transition window, in life-cycle units.
    temporal_comparison    "inclusive": |dt| <= max(spans) (the default),
                           "strict":    |dt| <  max(spans).
    prevalence_comparison  "inclusive": index >= min_prev (the default),
                           "strict":    index >  min_prev.
    """

    __slots__ = _compared = (
        "d_d", "min_prev", "time_span", "temporal_comparison", "prevalence_comparison"
    )

    def __init__(self, d_d: float, min_prev: float, time_span: float,
                 temporal_comparison: str = "inclusive", prevalence_comparison: str = "inclusive"):
        if not (0 < d_d < math.inf):
            raise ConfigError(f"d_d must be positive and finite, got {d_d}")
        # Below 2**-511, d_d * d_d is not a normal float, and squared
        # distances that underflow to 0 would pass for any d_d.
        if d_d < 2.0**-511:
            raise ConfigError(
                f"d_d must be at least 2**-511 so its square is a normal float, got {d_d}"
            )
        if not (0.0 <= min_prev <= 1.0):
            raise ConfigError(f"min_prev must be within [0, 1], got {min_prev}")
        if not (0 < time_span < math.inf):
            raise ConfigError(f"time_span must be positive and finite, got {time_span}")
        for mode in (temporal_comparison, prevalence_comparison):
            if mode not in ("inclusive", "strict"):
                raise ConfigError(f"comparison mode must be 'inclusive' or 'strict', got {mode!r}")
        self.d_d, self.min_prev, self.time_span = d_d, min_prev, time_span
        self.temporal_comparison = temporal_comparison
        self.prevalence_comparison = prevalence_comparison


def span_constraint(kind: str, life_cycle: float, time_span: float) -> int:
    """Number of transition windows an event of this kind keeps influencing.

    A disappearance stops mattering after one window.  An appearance stays
    relevant for its feature's whole life cycle, measured in time spans and
    rounded up, but never less than one window.  A quotient too large for a
    float saturates: such a span outlasts any series anyway.
    """
    if kind not in _KIND_RANK:
        raise ConfigError(f"kind must be {NEW!r} or {DEAD!r}, got {kind!r}")
    if not (life_cycle > 0):
        raise ConfigError(f"life cycle must be positive, got {life_cycle}")
    if not (time_span > 0):
        raise ConfigError(f"time span must be positive, got {time_span}")
    if kind == DEAD:
        return 1
    return max(1, math.ceil(min(life_cycle / time_span, sys.float_info.max)))


def compute_spans(
    features: Iterable[DynamicFeature],
    life_cycles: Mapping[str, float],
    time_span: float,
) -> dict[DynamicFeature, int]:
    """Span for every given dynamic feature, from its base feature's life
    cycle; a MissingLifeCycleError names every base feature without one,
    sorted."""
    spans: dict[DynamicFeature, int] = {}
    missing: set[str] = set()
    for f in features:
        if f.base in life_cycles:
            spans[f] = span_constraint(f.kind, life_cycles[f.base], time_span)
        else:
            missing.add(f.base)
    if missing:
        raise MissingLifeCycleError(sorted(missing))
    return spans
