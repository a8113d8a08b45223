"""Maximal co-location mining over the churn of spatial snapshot series.

A series of timestamped snapshots is reduced to the instances that appear or
disappear between consecutive time points.  Those dynamic instances are joined
under a spatial distance threshold and per-feature temporal reach, scored by
participation, and grown into maximal prevalent patterns.

The names below are the documented entry points and the types a run hands
back; the stages themselves are imported from their modules.
"""

from __future__ import annotations

from . import io
from .model import (
    BaseFeature,
    ConfigError,
    DataFormatError,
    DynamicFeature,
    DynamicInstance,
    InsufficientDataError,
    MiningConfig,
    Pattern,
)
from .pipeline import MineOutcome, mine_series, mine_snapshots
from .snapshots import DynamicDatasetSeries, Snapshot, diff_snapshots
from .verify import PatternResult

__version__ = "0.1.0"


def __getattr__(name: str):
    """`GenConfig` and `generate`, imported from `datagen` on first use: a
    mining run never loads the generator."""
    if name in ("GenConfig", "generate"):
        from . import datagen

        return getattr(datagen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BaseFeature",
    "ConfigError",
    "DataFormatError",
    "DynamicDatasetSeries",
    "DynamicFeature",
    "DynamicInstance",
    "GenConfig",
    "InsufficientDataError",
    "MineOutcome",
    "MiningConfig",
    "Pattern",
    "PatternResult",
    "Snapshot",
    "diff_snapshots",
    "generate",
    "io",
    "mine_series",
    "mine_snapshots",
]
