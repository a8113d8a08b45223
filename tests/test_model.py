from __future__ import annotations

import sys

import pytest

from mdcolo import (
    BaseFeature,
    ConfigError,
    DataFormatError,
    DynamicFeature,
    DynamicInstance,
    MiningConfig,
    Pattern,
)
from mdcolo.model import (
    NEW,
    canonical_features,
    compute_spans,
    span_constraint,
)

from conftest import feat, parse_feature_label


def test_dynamic_feature_ordering_new_before_dead():
    labels = ["C_dead", "A_dead", "B_new", "A_new", "C_new"]
    feats = sorted((feat(l) for l in labels), key=lambda f: f.sort_key)
    assert [f.label for f in feats] == ["A_new", "A_dead", "B_new", "C_new", "C_dead"]


def test_feature_label_roundtrip():
    for label in ["A_new", "A_dead", "F12_new", "shop_mall_dead"]:
        assert parse_feature_label(label).label == label


def test_parse_feature_label_rejects_garbage():
    for bad in ["A", "A_fresh", "_new", "Anew"]:
        with pytest.raises(DataFormatError):
            parse_feature_label(bad)


def test_dynamic_feature_validation():
    with pytest.raises(ConfigError):
        DynamicFeature("A", "gone")
    with pytest.raises(ConfigError):
        DynamicFeature("", "new")


def test_base_feature_validation():
    with pytest.raises(ConfigError):
        BaseFeature("A", 0.0)
    with pytest.raises(ConfigError):
        BaseFeature("", 5.0)


def test_instance_labels_and_ordering():
    a2 = DynamicInstance(feat("A_new"), 2, 0.0, 0.0, 1)
    a10 = DynamicInstance(feat("A_new"), 10, 1.0, 1.0, 3)
    d1 = DynamicInstance(feat("A_dead"), 1, 0.0, 0.0, 0)
    assert a2.label == "A_new.2"
    assert str(a10) == "A_new.10"
    assert sorted([d1, a10, a2], key=lambda i: i.sort_key) == [a2, a10, d1]


def test_instance_validation():
    with pytest.raises(ConfigError):
        DynamicInstance(feat("A_new"), 0, 0.0, 0.0, 0)
    with pytest.raises(ConfigError):
        DynamicInstance(feat("A_new"), 1, 0.0, 0.0, -1)


def test_pattern_is_order_insensitive():
    p = Pattern([feat("C_dead"), feat("A_new"), feat("B_new")])
    q = Pattern([feat("B_new"), feat("C_dead"), feat("A_new")])
    assert p == q
    assert hash(p) == hash(q)
    assert p.label == "A_new,B_new,C_dead"
    assert p.size == 3
    assert feat("A_new") in p
    assert feat("A_dead") not in p


def test_pattern_rejects_duplicates_and_singletons():
    with pytest.raises(ConfigError):
        Pattern([feat("A_new"), feat("A_new")])
    with pytest.raises(ConfigError):
        Pattern([feat("A_new")])


def test_canonical_features_sorts():
    feats = canonical_features([feat("B_dead"), feat("B_new"), feat("A_dead")])
    assert [f.label for f in feats] == ["A_dead", "B_new", "B_dead"]


def test_span_constraint_values():
    # ceil(life_cycle / time_span), floored at one window; dead is always one
    assert span_constraint("new", 9.0, 3.0) == 3
    assert span_constraint("new", 10.0, 3.0) == 4
    assert span_constraint("new", 1.0, 3.0) == 1
    assert span_constraint("new", 3.0, 3.0) == 1
    assert span_constraint("dead", 30.0, 3.0) == 1


def test_span_constraint_monotone_in_life_cycle():
    spans = [span_constraint("new", lc, 3.0) for lc in (1, 2, 3, 7, 9, 10, 29, 30, 31)]
    assert spans == sorted(spans)


def test_span_constraint_saturates_instead_of_overflowing():
    # 3.0 / 5e-324 is infinite; a span past any series relates every window.
    span = span_constraint(NEW, 3.0, 5e-324)
    assert isinstance(span, int)
    assert span == span_constraint(NEW, 1e308, 0.5) >= sys.float_info.max


def test_span_constraint_validation():
    with pytest.raises(ConfigError):
        span_constraint("other", 9.0, 3.0)
    with pytest.raises(ConfigError):
        span_constraint("new", 0.0, 3.0)
    with pytest.raises(ConfigError):
        span_constraint("new", 9.0, 0.0)


def test_compute_spans(lifecycles):
    life = {f.id: f.life_cycle for f in lifecycles}
    feats = [feat("A_new"), feat("A_dead"), feat("B_new"), feat("C_new")]
    spans = compute_spans(feats, life, 3.0)
    assert {f.label: s for f, s in spans.items()} == {
        "A_new": 3,
        "A_dead": 1,
        "B_new": 1,
        "C_new": 2,
    }


def test_compute_spans_missing_feature(lifecycles):
    life = {f.id: f.life_cycle for f in lifecycles}
    with pytest.raises(ConfigError, match="D"):
        compute_spans([feat("D_new")], life, 3.0)


def test_compute_spans_names_every_missing_feature_sorted():
    # A set's order follows the string hash; the message must not.
    feats = {feat(label) for label in ("D_dead", "A_new", "C_new", "B_new", "D_new")}
    with pytest.raises(ConfigError) as exc:
        compute_spans(feats, {"A": 9.0}, 3.0)
    assert str(exc.value) == "no life cycle given for feature(s): B, C, D"


def test_mining_config_validation():
    MiningConfig(d_d=1.0, min_prev=0.0, time_span=1.0)
    MiningConfig(d_d=1.0, min_prev=1.0, time_span=1.0)
    with pytest.raises(ConfigError):
        MiningConfig(d_d=0.0, min_prev=0.5, time_span=1.0)
    with pytest.raises(ConfigError):
        MiningConfig(d_d=1.0, min_prev=1.5, time_span=1.0)
    with pytest.raises(ConfigError):
        MiningConfig(d_d=1.0, min_prev=0.5, time_span=0.0)
    with pytest.raises(ConfigError):
        MiningConfig(d_d=1.0, min_prev=0.5, time_span=1.0, temporal_comparison="loose")
    with pytest.raises(ConfigError):
        MiningConfig(d_d=1.0, min_prev=0.5, time_span=1.0, prevalence_comparison="always")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_numbers_are_rejected(value):
    with pytest.raises(ConfigError, match="finite"):
        BaseFeature("A", value)
    with pytest.raises(ConfigError, match="finite"):
        MiningConfig(d_d=value, min_prev=0.5, time_span=1.0)
    with pytest.raises(ConfigError, match="finite"):
        MiningConfig(d_d=1.0, min_prev=0.5, time_span=value)
    with pytest.raises(ConfigError):
        MiningConfig(d_d=1.0, min_prev=value, time_span=1.0)
