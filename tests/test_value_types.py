"""The contract of the slotted value types: constructor signatures, equality
and hashing over the compared fields, validation messages, and fresh
mutable defaults."""

from __future__ import annotations

import inspect
import math

import pytest

from mdcolo import (
    BaseFeature,
    ConfigError,
    DynamicDatasetSeries,
    DynamicFeature,
    DynamicInstance,
    MineOutcome,
    MiningConfig,
    Pattern,
    PatternResult,
    Snapshot,
)
from mdcolo.verify import VerifyStats

from conftest import feat

A, B, C = feat("A_new"), feat("B_new"), feat("C_dead")
INST = DynamicInstance(A, 1, 0.0, 0.0, 0)

# class -> (constructor parameters in order, a valid argument tuple, and per
# compared field an argument tuple that differs from it in that field only)
VALUES = {
    BaseFeature: (("id", "life_cycle"), ("A", 9.0), [("B", 9.0), ("A", 3.0)]),
    DynamicFeature: (("base", "kind"), ("A", "new"), [("B", "new"), ("A", "dead")]),
    DynamicInstance: (
        ("feature", "ordinal", "x", "y", "t_index"),
        (A, 1, 0.5, 2.0, 3),
        [(B, 1, 0.5, 2.0, 3), (A, 2, 0.5, 2.0, 3), (A, 1, 0.25, 2.0, 3),
         (A, 1, 0.5, 1.0, 3), (A, 1, 0.5, 2.0, 4)],
    ),
    Pattern: (("features",), ((A, B),), [((A, C),)]),
    MiningConfig: (
        ("d_d", "min_prev", "time_span", "temporal_comparison", "prevalence_comparison"),
        (35.0, 0.1, 3.0, "inclusive", "inclusive"),
        [(30.0, 0.1, 3.0, "inclusive", "inclusive"), (35.0, 0.2, 3.0, "inclusive", "inclusive"),
         (35.0, 0.1, 2.0, "inclusive", "inclusive"), (35.0, 0.1, 3.0, "strict", "inclusive"),
         (35.0, 0.1, 3.0, "inclusive", "strict")],
    ),
    Snapshot: (
        ("t_point", "records"),
        (0, (("A", "a1", 0.0, 1.0),)),
        [(1, (("A", "a1", 0.0, 1.0),)), (0, (("A", "a2", 0.0, 1.0),))],
    ),
    DynamicDatasetSeries: (("windows",), (((INST,), ()),), [(((INST,),),)]),
    PatternResult: (
        ("pattern", "dpi", "row_count", "maximal"),
        (Pattern((A, B)), 0.5, 3, True),
        [(Pattern((A, C)), 0.5, 3, True), (Pattern((A, B)), 0.25, 3, True),
         (Pattern((A, B)), 0.5, 4, True), (Pattern((A, B)), 0.5, 3, False)],
    ),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_signature_keeps_positional_order_and_names(cls):
    names, _, _ = VALUES[cls]
    assert tuple(inspect.signature(cls).parameters) == names


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_equal_fields_are_equal_and_hash_alike(cls):
    _, args, _ = VALUES[cls]
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_changing_one_compared_field_makes_unequal(cls):
    _, args, variants = VALUES[cls]
    base = cls(*args)
    for other in variants:
        assert base != cls(*other), other
    # Nothing of another class compares equal, even with the same fields.
    assert base != args


def test_keyword_construction_matches_positional():
    assert MiningConfig(d_d=35.0, min_prev=0.1, time_span=3.0) == MiningConfig(35.0, 0.1, 3.0)
    assert Snapshot(t_point=2, records=()) == Snapshot(2, ())


def test_pattern_equality_ignores_feature_order():
    p, q = Pattern([C, A, B]), Pattern((B, C, A))
    assert p == q and hash(p) == hash(q)
    assert p.features == (A, B, C)
    assert p.feature_set == frozenset((A, B, C))
    assert p.sort_key == tuple(f.sort_key for f in (A, B, C))


def test_precomputed_sort_keys():
    assert DynamicFeature("A", "dead").sort_key == ("A", 1)
    assert DynamicInstance(DynamicFeature("B", "new"), 7, 1.0, 2.0, 0).sort_key == ("B", 0, 7)


def test_repr_names_the_compared_fields():
    assert repr(DynamicFeature("A", "new")) == "DynamicFeature(base='A', kind='new')"
    assert repr(Pattern((B, A))) == f"Pattern(features=({A!r}, {B!r}))"


@pytest.mark.parametrize("build, message", [
    (lambda: BaseFeature("", 5.0), "base feature id must be non-empty"),
    (lambda: BaseFeature("A", 0.0), "life cycle of 'A' must be positive and finite, got 0.0"),
    (lambda: BaseFeature("A", math.inf), "life cycle of 'A' must be positive and finite, got inf"),
    (lambda: DynamicFeature("A", "gone"), "kind must be 'new' or 'dead', got 'gone'"),
    (lambda: DynamicFeature("", "new"), "base feature id must be non-empty"),
    (lambda: DynamicInstance(A, 0, 0.0, 0.0, 0), "ordinal must be >= 1, got 0"),
    (lambda: DynamicInstance(A, 1, 0.0, 0.0, -1), "t_index must be >= 0, got -1"),
    (lambda: Pattern([A]), "pattern needs at least 2 features, got 1"),
    (lambda: Pattern([A, B, A]), "duplicate feature A_new in pattern"),
    (lambda: MiningConfig(0.0, 0.1, 3.0), "d_d must be positive and finite, got 0.0"),
    (lambda: MiningConfig(math.nan, 0.1, 3.0), "d_d must be positive and finite, got nan"),
    (lambda: MiningConfig(1.0, 1.5, 3.0), "min_prev must be within [0, 1], got 1.5"),
    (lambda: MiningConfig(1.0, 0.1, math.inf), "time_span must be positive and finite, got inf"),
    (lambda: MiningConfig(1.0, 0.1, 3.0, "loose"),
     "comparison mode must be 'inclusive' or 'strict', got 'loose'"),
    (lambda: MiningConfig(1.0, 0.1, 3.0, prevalence_comparison="always"),
     "comparison mode must be 'inclusive' or 'strict', got 'always'"),
])
def test_validation_messages(build, message):
    with pytest.raises(ConfigError) as exc:
        build()
    assert str(exc.value) == message


def test_verify_stats_defaults_and_constant_counters():
    assert tuple(inspect.signature(VerifyStats).parameters) == ()
    a, b = VerifyStats(), VerifyStats()
    assert a.as_manifest_entries() == dict.fromkeys(
        ("verified_candidates", "early_aborts", "subsumed_skips", "decompositions",
         "rows_counted"), 0)
    assert a.ratio_log == [] and a.ratio_log is not b.ratio_log
    # Read by the benchmark's traced pass; always 0 and absent from manifests.
    assert a.shared_checks == a.shared_skips == 0


def test_mine_outcome_defaults_are_fresh_dicts():
    names = ("results", "derived", "config", "algo", "stats", "timings_ms", "counters",
             "counts", "tables", "join")
    assert tuple(inspect.signature(MineOutcome).parameters) == names
    config = MiningConfig(35.0, 0.1, 3.0)
    a = MineOutcome([], None, config, "mdc", VerifyStats())
    b = MineOutcome([], None, config, "mdc", VerifyStats())
    for name in ("timings_ms", "counters", "counts", "tables"):
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name), name
    assert a.join is None
    a.counters["instances"] = 1
    assert b.counters == {}
