"""Seeded synthetic snapshot generator with planted co-location structure.

The generator plans a budget of appearance/disappearance events and realizes
them as instance lifetimes over a snapshot series.  A configurable share of
the events (churn_ratio) happens at planted cluster sites: each site owns a
small set of (feature, kind) members and fires them together, in one window
and inside one disk, so a co-location pattern over those dynamic features is
recoverable by mining.  The rest of the events are uniform noise.

Randomness comes from an in-repo SplitMix64 generator so identical seeds give
byte-identical datasets on every platform and Python version; it computes its
stream a block of outputs at a time, the same stream as one step at a time.
Each planned disappearance gets its own instance, alive from the first
snapshot until its event; each appearance gets an instance alive from its
event to the end.
Total dynamic instances therefore equal the configured budget exactly.
Each event makes one record, shared by every snapshot it is alive in, and
one sort of those records by (feature, id) orders every snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from struct import Struct

from .model import DEAD, NEW, BaseFeature, ConfigError
from .neighborhood import MAX_COORDINATE
from .snapshots import Snapshot

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# `SplitMix64` computes `_BLOCK` outputs at a time in the 128-bit lanes of
# one int, output i of a block in the low half of lane i, from the state
# plus i + 1 gammas (lane i of `_RAMP` holds i + 1).  The high halves take
# what a shift brings down from the lane above and what a product carries
# out of the low half, and the 64-bit lane mask clears them.
_BLOCK = 512
_ONES = int.from_bytes((b"\1" + bytes(15)) * _BLOCK, "little")
_RAMP = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(1, _BLOCK + 1)), "little")
_LANE_MASK = _MASK64 * _ONES
# The low halves of a block's lanes written big-endian: the last lane first.
_LOW_HALVES = Struct(">" + "8xQ" * _BLOCK)


class SplitMix64:
    """SplitMix64: state advances by the 64-bit golden gamma, output is the
    murmur-style finalizer of the new state.  Small, fast, and stable.

    Output k is the finalizer of `seed + k * gamma`, so a block of outputs
    is computed at once, each step of the finalizer on all lanes of one int,
    and the stream is the same as one step at a time."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        # The block's outputs not yet handed out, the next one last.
        self._outputs: list[int] = []

    def _refill(self) -> None:
        m = _LANE_MASK
        z = (self._state * _ONES + _GAMMA * _RAMP) & m
        z = ((z ^ (z >> 30)) & m) * 0xBF58476D1CE4E5B9 & m
        z = ((z ^ (z >> 27)) & m) * 0x94D049BB133111EB & m
        z ^= z >> 31
        self._outputs = list(_LOW_HALVES.unpack(z.to_bytes(16 * _BLOCK, "big")))
        self._state = (self._state + _BLOCK * _GAMMA) & _MASK64

    def next_u64(self) -> int:
        if not self._outputs:
            self._refill()
        return self._outputs.pop()

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        # `random()` written out: one call per draw on the generator's hot path.
        return lo + (hi - lo) * ((self.next_u64() >> 11) * (2.0 ** -53))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]; modulo bias is irrelevant here."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in selection order."""
        if k > n:
            raise ValueError(f"cannot sample {k} of {n}")
        pool = list(range(n))
        out = []
        for _ in range(k):
            i = self.randint(0, len(pool) - 1)
            out.append(pool.pop(i))
        return out


def feature_name(index: int) -> str:
    """A, B, ..., Z, then F26, F27, ..."""
    if 0 <= index < 26:
        return chr(ord("A") + index)
    return f"F{index}"


@dataclass(frozen=True)
class GenConfig:
    area: tuple[float, float] = (1000.0, 1000.0)
    n_time_points: int = 11
    time_span: float = 3.0
    n_base_features: int = 10
    life_cycles: tuple[float, ...] = (9.0, 3.0, 30.0, 15.0, 27.0, 24.0, 30.0, 3.0, 24.0, 18.0)
    n_dynamic_instances: int = 10000
    cluster_count: int = 6
    cluster_radius: float = 10.0
    churn_ratio: float = 0.5
    seed: int = 1

    def __post_init__(self):
        if self.n_time_points < 2:
            raise ConfigError(f"need at least 2 time points, got {self.n_time_points}")
        if self.n_base_features < 1:
            raise ConfigError("need at least one base feature")
        if len(self.life_cycles) != self.n_base_features:
            raise ConfigError(
                f"{self.n_base_features} features need {self.n_base_features} life cycles, "
                f"got {len(self.life_cycles)}"
            )
        if any(not (0 < lc < math.inf) for lc in self.life_cycles):
            raise ConfigError("life cycles must be positive and finite")
        if not (0 < self.time_span < math.inf):
            raise ConfigError("time span must be positive and finite")
        if self.n_dynamic_instances < 0:
            raise ConfigError("instance budget must be >= 0")
        if not (0.0 <= self.churn_ratio <= 1.0):
            raise ConfigError(f"churn_ratio must be within [0, 1], got {self.churn_ratio}")
        if self.cluster_count < 0:
            raise ConfigError("cluster_count must be >= 0")
        if round(self.churn_ratio * self.n_dynamic_instances) > 0 and self.cluster_count == 0:
            raise ConfigError("churn_ratio > 0 needs at least one cluster site")
        w, h = self.area
        if not (0 < w <= MAX_COORDINATE and 0 < h <= MAX_COORDINATE):
            raise ConfigError(f"area sides must be in (0, {MAX_COORDINATE:g}], got {self.area}")
        if self.cluster_count > 0 and not (0 < self.cluster_radius <= min(w, h) / 2):
            raise ConfigError(
                f"cluster_radius must be within (0, {min(w, h) / 2}], got {self.cluster_radius}"
            )

    def base_features(self) -> list[BaseFeature]:
        return [
            BaseFeature(feature_name(i), lc) for i, lc in enumerate(self.life_cycles)
        ]


@dataclass(frozen=True)
class ClusterSite:
    center: tuple[float, float]
    members: tuple[tuple[str, str], ...]  # (base feature id, kind)


@dataclass(frozen=True)
class GenReport:
    config: GenConfig
    sites: tuple[ClusterSite, ...]
    cluster_events: int
    noise_events: int
    # events per (window, feature id, kind)
    event_counts: dict[tuple[int, str, str], int] = field(compare=False)

    def render(self) -> str:
        lines = ["generator report", ""]
        lines.append(f"seed: {self.config.seed}")
        lines.append(f"area: {self.config.area[0]} x {self.config.area[1]}")
        lines.append(f"time points: {self.config.n_time_points}")
        lines.append(f"instance budget: {self.config.n_dynamic_instances}")
        lines.append(f"cluster events: {self.cluster_events}")
        lines.append(f"noise events: {self.noise_events}")
        lines.append("")
        for i, site in enumerate(self.sites):
            members = " ".join(f"{base}_{kind}" for base, kind in site.members)
            lines.append(
                f"site {i}: center=({site.center[0]:.2f}, {site.center[1]:.2f}) members: {members}"
            )
        lines.append("")
        lines.append("events per window (window feature kind count):")
        for (window, base, kind), n in sorted(self.event_counts.items()):
            lines.append(f"  {window} {base} {kind} {n}")
        return "\n".join(lines) + "\n"


def _plan_sites(config: GenConfig, rng: SplitMix64) -> list[ClusterSite]:
    w, h = config.area
    r = config.cluster_radius
    sites = []
    for _ in range(config.cluster_count):
        center = (rng.uniform(r, w - r), rng.uniform(r, h - r))
        size = rng.randint(2, min(4, config.n_base_features)) if config.n_base_features >= 2 else 1
        picks = rng.sample_indices(config.n_base_features, size)
        members = tuple(
            (feature_name(i), NEW if rng.random() < 0.5 else DEAD) for i in sorted(picks)
        )
        sites.append(ClusterSite(center, members))
    return sites


def generate(config: GenConfig) -> tuple[list[Snapshot], GenReport]:
    """Generate a snapshot series realizing the configured event budget."""
    rng = SplitMix64(config.seed)
    w, h = config.area
    r = config.cluster_radius
    windows = config.n_time_points - 1
    sites = _plan_sites(config, rng)

    # (base id, kind, window, x, y)
    events: list[tuple[str, str, int, float, float]] = []
    cluster_target = round(config.churn_ratio * config.n_dynamic_instances)
    site_idx = 0
    while len(events) < cluster_target:
        site = sites[site_idx % len(sites)]
        site_idx += 1
        window = rng.randint(0, windows - 1)
        for base, kind in site.members:
            if len(events) >= cluster_target:
                break
            # Uniform disk point by rejection from the bounding square.
            while True:
                dx = rng.uniform(-r, r)
                dy = rng.uniform(-r, r)
                if dx * dx + dy * dy <= r ** 2:
                    break
            x = min(max(site.center[0] + dx, 0.0), w)
            y = min(max(site.center[1] + dy, 0.0), h)
            events.append((base, kind, window, x, y))
    cluster_events = len(events)
    names = [feature_name(i) for i in range(config.n_base_features)]
    while len(events) < config.n_dynamic_instances:
        base = names[rng.randint(0, config.n_base_features - 1)]
        kind = NEW if rng.random() < 0.5 else DEAD
        window = rng.randint(0, windows - 1)
        events.append((base, kind, window, rng.uniform(0, w), rng.uniform(0, h)))

    # Realize events as lifetimes: a disappearance in window k is an instance
    # alive for snapshots 0..k; an appearance is alive from k+1 to the end.
    counters: dict[str, int] = {}
    event_counts: dict[tuple[int, str, str], int] = {}
    lifetimes: list[tuple[tuple[str, str, float, float], int, int]] = []
    for base, kind, window, x, y in events:
        counters[base] = counters.get(base, 0) + 1
        key = (window, base, kind)
        event_counts[key] = event_counts.get(key, 0) + 1
        first, end = (0, window + 1) if kind == DEAD else (window + 1, config.n_time_points)
        lifetimes.append(((base, str(counters[base]), x, y), first, end))
    # Ids count per base, so no two records share (base, id): one sort of the
    # records puts every snapshot in its sorted order as it is filled.
    lifetimes.sort(key=itemgetter(0))
    per_snapshot: list[list[tuple[str, str, float, float]]] = [
        [] for _ in range(config.n_time_points)
    ]
    appends = [records.append for records in per_snapshot]
    for record, first, end in lifetimes:
        for append in appends[first:end]:
            append(record)

    snapshots = [Snapshot(t, tuple(records)) for t, records in enumerate(per_snapshot)]
    report = GenReport(
        config=config,
        sites=tuple(sites),
        cluster_events=cluster_events,
        noise_events=len(events) - cluster_events,
        event_counts=event_counts,
    )
    return snapshots, report
