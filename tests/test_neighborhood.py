from __future__ import annotations

import math

import pytest

from mdcolo import ConfigError, MiningConfig
from mdcolo.model import compute_spans
from mdcolo.neighborhood import neighbor_pairs

from oracles import all_pairs_scan
from conftest import (
    SHOPS_EXPECTED_PAIRS,
    SHOPS_EXPECTED_PAIRS_STRICT,
    small_series,
)


CONFIG_SMALL = MiningConfig(d_d=5.0, min_prev=0.1, time_span=3.0)


def spans_for(series, lifecycles, config):
    life = {f.id: f.life_cycle for f in lifecycles}
    return compute_spans(series.features(), life, config.time_span)


def as_labels(pairs):
    return {(a.label, b.label) for a, b in pairs}


def test_shops_pairs_exact(shops_series, lifecycles, config):
    spans = spans_for(shops_series, lifecycles, config)
    pairs = neighbor_pairs(shops_series, spans, config)
    assert as_labels(pairs) == SHOPS_EXPECTED_PAIRS


def test_shops_pairs_strict_mode(shops_series, lifecycles, config):
    spans = spans_for(shops_series, lifecycles, config)
    strict = MiningConfig(
        d_d=config.d_d,
        min_prev=config.min_prev,
        time_span=config.time_span,
        temporal_comparison="strict",
    )
    pairs = neighbor_pairs(shops_series, spans, strict)
    assert as_labels(pairs) == SHOPS_EXPECTED_PAIRS_STRICT
    assert ("A_new.1", "B_new.2") not in as_labels(pairs)


def test_pairs_are_canonical_and_sorted(shops_series, lifecycles, config):
    spans = spans_for(shops_series, lifecycles, config)
    pairs = neighbor_pairs(shops_series, spans, config)
    for a, b in pairs:
        assert a.sort_key < b.sort_key
        assert a.feature != b.feature
    keys = [(a.sort_key, b.sort_key) for a, b in pairs]
    assert keys == sorted(keys)


def test_boundary_distance_is_inclusive():
    from mdcolo import DynamicInstance
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    a = DynamicInstance(feat("A_new"), 1, 0.0, 0.0, 0)
    b = DynamicInstance(feat("B_new"), 1, 2.0, 0.0, 0)
    series = DynamicDatasetSeries(((a, b),))
    spans = {feat("A_new"): 1, feat("B_new"): 1}
    cfg = MiningConfig(d_d=2.0, min_prev=0.1, time_span=3.0)
    assert as_labels(neighbor_pairs(series, spans, cfg)) == {("A_new.1", "B_new.1")}
    just_under = MiningConfig(d_d=1.9999999, min_prev=0.1, time_span=3.0)
    assert neighbor_pairs(series, spans, just_under) == ()


def test_pair_a_rounding_error_over_d_d_is_found():
    # 0.5 - (-7e-78) rounds to exactly d_d, so the distance test passes,
    # while the points sit in cells 1 and -1 of a grid exactly d_d wide.
    from mdcolo import DynamicInstance
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    a = DynamicInstance(feat("A_new"), 1, 0.0, 0.5, 0)
    b = DynamicInstance(feat("A_dead"), 1, 0.0, -6.895326947134782e-78, 0)
    series = DynamicDatasetSeries(((a, b),))
    spans = {a.feature: 1, b.feature: 1}
    cfg = MiningConfig(d_d=0.5, min_prev=0.1, time_span=3.0)
    assert neighbor_pairs(series, spans, cfg) == all_pairs_scan(series, spans, cfg) == ((a, b),)


def test_tiny_d_d_does_not_overflow_the_grid():
    # A d_d whose square is not a normal float is refused.  At the smallest
    # one, 2**-511, the points lie 2**512 row widths of d_d from the origin,
    # far beyond the rounding the slack covers, so rows must be wider.
    from mdcolo import DynamicInstance
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    with pytest.raises(ConfigError, match=r"at least 2\*\*-511"):
        MiningConfig(d_d=5e-324, min_prev=0.1, time_span=3.0)
    a = DynamicInstance(feat("A_new"), 1, 1.0, 2.0, 0)
    b = DynamicInstance(feat("B_new"), 1, 1.0, 2.0, 0)
    series = DynamicDatasetSeries(((a, b),))
    spans = {a.feature: 1, b.feature: 1}
    cfg = MiningConfig(d_d=2**-511, min_prev=0.1, time_span=3.0)
    assert neighbor_pairs(series, spans, cfg) == all_pairs_scan(series, spans, cfg) == ((a, b),)


def test_d_d_whose_square_underflows_is_an_error(tmp_path, capsys):
    # At d_d = 5e-324 both 1e-200 * 1e-200 and d_d * d_d round to 0, so the
    # distance test passed for points 2e123 times d_d apart: the all-pairs
    # scan kept such a pair, and the join, whose grid put the two about 1e9
    # cells apart, did not.  Such a d_d is refused, in the library and by
    # `mdcolo mine` with exit 2.
    from mdcolo import DynamicInstance
    from mdcolo.cli import main
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    message = "d_d must be at least 2**-511 so its square is a normal float, got 5e-324"
    with pytest.raises(ConfigError) as refused:
        MiningConfig(d_d=5e-324, min_prev=0.1, time_span=3.0)
    assert str(refused.value) == message
    snaps = tmp_path / "snaps.csv"
    snaps.write_text("t_point,feature,instance_id,x,y\n0,C,1,5,5\n1,C,1,5,5\n1,A,1,0,0\n"
                     "1,B,1,1e-200,0\n")
    lc = tmp_path / "lc.csv"
    lc.write_text("feature,life_cycle\nA,3\nB,3\nC,3\n")
    argv = ["mine", str(snaps), "--lifecycles", str(lc), "-o", str(tmp_path / "o")]
    assert main(argv + ["--dd", "5e-324"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"

    # From 2**-511 up, the join and the scan agree on both sides of d_d.
    a = DynamicInstance(feat("A_new"), 1, 0.0, 0.0, 0)
    b = DynamicInstance(feat("B_new"), 1, 1e-200, 0.0, 0)
    c = DynamicInstance(feat("C_new"), 1, 1e-150, 0.0, 0)
    series = DynamicDatasetSeries(((a, b, c),))
    spans = {x.feature: 1 for x in (a, b, c)}
    cfg = MiningConfig(d_d=2**-511, min_prev=0.1, time_span=3.0)
    assert neighbor_pairs(series, spans, cfg) == all_pairs_scan(series, spans, cfg) == ((a, b),)


def test_huge_coordinate_is_an_error():
    # 5e290 apart, far beyond d_d, yet both sides of the squared-distance
    # test overflow to infinity.
    from mdcolo import DynamicInstance
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    a = DynamicInstance(feat("A_new"), 1, 1e300, 0.0, 0)
    b = DynamicInstance(feat("B_new"), 1, 1.0000000005e300, 0.0, 0)
    series = DynamicDatasetSeries(((a, b),))
    cfg = MiningConfig(d_d=1e155, min_prev=0.1, time_span=3.0)
    with pytest.raises(ConfigError, match="beyond"):
        neighbor_pairs(series, {a.feature: 1, b.feature: 1}, cfg)


def test_missing_span_is_an_error(shops_series, lifecycles, config):
    spans = spans_for(shops_series, lifecycles, config)
    del spans[next(iter(spans))]
    with pytest.raises(ConfigError, match="no span"):
        neighbor_pairs(shops_series, spans, config)


def test_two_instances_with_one_name_are_an_error():
    # Instances are named by feature and ordinal everywhere downstream, so a
    # hand-built series reusing a name would have the two merged.
    from mdcolo import DynamicInstance
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    a1 = DynamicInstance(feat("A_new"), 1, 0.0, 0.0, 0)
    b1 = DynamicInstance(feat("B_new"), 1, 1.0, 0.0, 0)
    a1_again = DynamicInstance(feat("A_new"), 1, 5.0, 0.0, 1)
    with pytest.raises(ConfigError, match=r"two instances are named A_new\.1"):
        DynamicDatasetSeries(((a1, b1), (a1_again,)))


def test_partners_in_all_nine_cells_are_found_once():
    # Cells are d_d * (1 + 1e-6) wide; the anchor at (-1.5, -1.5) lies in cell
    # (-2, -2), and an offset of 0.6 along an axis crosses into the next cell.
    # Partners sorting before the anchor sit one window before it, those
    # sorting after one window after, so partners never pair with each other.
    # Decoys pair with partners but not with the anchor.
    from mdcolo import DynamicInstance
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    anchor = DynamicInstance(feat("B_new"), 1, -1.5, -1.5, 1)
    before, after, far = [], [], []
    offsets = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)]
    for i, (ox, oy) in enumerate(offsets):
        x, y = -1.5 + 0.6 * ox, -1.5 + 0.6 * oy
        if i % 2:
            before.append(DynamicInstance(feat("A_new"), len(before) + 1, x, y, 0))
        else:
            after.append(DynamicInstance(feat("C_new"), len(after) + 1, x, y, 2))
        # In a neighbouring cell but farther than d_d, or too late in time.
        if ox or oy:
            far.append(DynamicInstance(feat("D_new"), i + 1, -1.5 + 1.1 * ox, -1.5 + 1.1 * oy, 1))
        far.append(DynamicInstance(feat("E_new"), i + 1, x, y, 3))
    instances = [anchor, *before, *after, *far]
    windows = tuple(
        tuple(sorted((x for x in instances if x.t_index == t), key=lambda x: x.sort_key))
        for t in range(4)
    )
    series = DynamicDatasetSeries(windows)
    spans = {x.feature: 1 for x in instances}
    cfg = MiningConfig(d_d=1.0, min_prev=0.1, time_span=3.0)
    pairs = neighbor_pairs(series, spans, cfg)
    assert pairs == all_pairs_scan(series, spans, cfg)
    expected = tuple([(b, anchor) for b in before] + [(anchor, a) for a in after])
    assert tuple(p for p in pairs if anchor in p) == expected


@pytest.mark.parametrize("mode", ["inclusive", "strict"])
def test_pairs_only_inside_the_span_of_a_long_series(mode):
    # 2000 windows, one A_new (span 2) and one B_dead (span 1) at the same
    # point in each: every instance shares one cell, and pairs lie only
    # within the span, 2 windows apart (inclusive) or 1 (strict).
    from mdcolo import DynamicInstance
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    a_new, b_dead = feat("A_new"), feat("B_dead")
    windows = tuple(
        (DynamicInstance(a_new, t + 1, 0.0, 0.0, t), DynamicInstance(b_dead, t + 1, 0.0, 0.0, t))
        for t in range(2000)
    )
    series = DynamicDatasetSeries(windows)
    cfg = MiningConfig(d_d=1.0, min_prev=0.1, time_span=3.0, temporal_comparison=mode)
    reach = 2 if mode == "inclusive" else 1
    expected = tuple(
        (a, b)
        for a, _ in windows
        for _, b in windows[max(a.t_index - reach, 0):a.t_index + reach + 1]
    )
    assert neighbor_pairs(series, {a_new: 2, b_dead: 1}, cfg) == expected


@pytest.mark.parametrize("mode", ["inclusive", "strict"])
def test_partners_across_the_merged_forward_list(mode):
    # 4 x 4 cells of width about 1, with instances of 6 features in 40
    # windows at random.  Spans of 1 to 3 windows cut the series into 10
    # time blocks of 4 windows, so partners lie in one row, in the row above
    # and in the next block's three rows, interleaved in time.
    import random
    from operator import attrgetter

    from mdcolo import DynamicInstance
    from mdcolo.neighborhood import _CELL_SLACK
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    rng = random.Random(25)
    features = [feat(f"{b}_{k}") for b in "ABC" for k in ("new", "dead")]
    spans = dict(zip(features, (1, 1, 2, 1, 3, 1)))
    ordinals = dict.fromkeys(features, 0)
    windows = []
    for t in range(40):
        window = []
        for _ in range(rng.randrange(2, 9)):
            f = rng.choice(features)
            ordinals[f] += 1
            window.append(DynamicInstance(f, ordinals[f], rng.uniform(-2, 2), rng.uniform(-2, 2), t))
        windows.append(tuple(sorted(window, key=attrgetter("sort_key"))))
    series = DynamicDatasetSeries(tuple(windows))
    cfg = MiningConfig(d_d=1.0, min_prev=0.1, time_span=3.0, temporal_comparison=mode)
    pairs = neighbor_pairs(series, spans, cfg)
    assert pairs == all_pairs_scan(series, spans, cfg)

    def offset(a, b):
        """The step from the lower cell of the pair to the other's."""
        ca, cb = (
            (math.floor(i.x / _CELL_SLACK), math.floor(i.y / _CELL_SLACK)) for i in (a, b)
        )
        lo, hi = min(ca, cb), max(ca, cb)
        return hi[0] - lo[0], hi[1] - lo[1]

    # Related pairs lie within one cell and across each forward offset, both
    # in one window and windows apart.
    seen = {(offset(a, b), a.t_index == b.t_index) for a, b in pairs}
    forward = {(0, 0), (1, -1), (1, 0), (1, 1), (0, 1)}
    assert {(o, same) for o in forward for same in (True, False)} <= seen


def test_grid_matches_all_pairs_scan_on_generated_series():
    for seed in range(10):
        series, features, cfg = small_series(seed)
        spans = spans_for(series, features, cfg)
        assert neighbor_pairs(series, spans, cfg) == all_pairs_scan(series, spans, cfg)


def test_grid_matches_all_pairs_scan_strict_mode():
    for seed in range(5):
        series, features, cfg = small_series(
            seed, temporal_comparison="strict", d_d=9.0
        )
        spans = spans_for(series, features, cfg)
        assert neighbor_pairs(series, spans, cfg) == all_pairs_scan(series, spans, cfg)


def test_empty_series_yields_no_pairs():
    from mdcolo.snapshots import DynamicDatasetSeries

    assert neighbor_pairs(DynamicDatasetSeries(((), ())), {}, CONFIG_SMALL) == ()


def _series_of(*instances):
    from mdcolo.snapshots import DynamicDatasetSeries

    windows = max(inst.t_index for inst in instances) + 1
    return DynamicDatasetSeries(tuple(
        tuple(sorted((i for i in instances if i.t_index == t), key=lambda i: i.sort_key))
        for t in range(windows)
    ))


@pytest.mark.parametrize("mode", ["inclusive", "strict"])
def test_a_pair_max_span_apart_across_a_block_boundary(mode):
    # The largest span is 2, so time blocks are 3 windows: 0-2, 3-5, 6-8.
    # A_new.1 (window 1) and B_new.1 (window 3) lie in adjacent blocks,
    # exactly the largest span apart.  B_new.2 (window 4) is one window too
    # late for A_new.1, and B_new.3 (window 6) sits two blocks away.
    from mdcolo import DynamicInstance
    from conftest import feat

    a_new, b_new = feat("A_new"), feat("B_new")
    a = DynamicInstance(a_new, 1, 0.0, 0.0, 1)
    b = DynamicInstance(b_new, 1, 0.5, 0.0, 3)
    too_late = DynamicInstance(b_new, 2, 0.0, 0.5, 4)
    far = DynamicInstance(b_new, 3, 0.0, 0.0, 6)
    series = _series_of(a, b, too_late, far)
    spans = {a_new: 2, b_new: 1}
    cfg = MiningConfig(d_d=1.0, min_prev=0.1, time_span=3.0, temporal_comparison=mode)
    expected = ((a, b),) if mode == "inclusive" else ()
    assert neighbor_pairs(series, spans, cfg) == all_pairs_scan(series, spans, cfg) == expected


def test_a_pair_exactly_d_d_apart_across_a_row_boundary():
    # Rows are 5 * (1 + 1e-6) wide: y = -1 lies in row -1 and y = 3 in row 0.
    # (0, -1) and (3, 3) are exactly d_d = 5 apart (9 + 16 = 25), in one
    # window, in adjacent windows of one block, and in adjacent blocks (the
    # largest span is 1, so blocks are 2 windows).  The points of C_new sit
    # just over d_d from A_new's.
    from mdcolo import DynamicInstance
    from conftest import feat

    a_new, b_new, c_new = feat("A_new"), feat("B_new"), feat("C_new")
    anchors = [DynamicInstance(a_new, t // 2 + 1, 0.0, -1.0, t) for t in (0, 4, 7)]
    partners = [DynamicInstance(b_new, t // 2 + 1, 3.0, 3.0, t) for t in (0, 5, 8)]
    over = [DynamicInstance(c_new, t // 2 + 1, 3.0, 3.0000001, t) for t in (0, 5, 8)]
    series = _series_of(*anchors, *partners, *over)
    spans = {a_new: 1, b_new: 1, c_new: 1}
    cfg = MiningConfig(d_d=5.0, min_prev=0.1, time_span=3.0)
    pairs = neighbor_pairs(series, spans, cfg)
    assert pairs == all_pairs_scan(series, spans, cfg)
    assert [p for p in pairs if p[0].feature == a_new] == list(zip(anchors, partners))


def test_a_partner_in_the_next_blocks_row_below():
    # The largest span is 1, so blocks are 2 windows.  A_new.1 (window 1,
    # row 0) relates only to B_new.1 (window 2, row -1): the next block's
    # row below.  The B_new decoys of that row are too far off in x.
    from mdcolo import DynamicInstance
    from conftest import feat

    a_new, b_new = feat("A_new"), feat("B_new")
    a = DynamicInstance(a_new, 1, 4.0, 0.2, 1)
    b = DynamicInstance(b_new, 1, 4.5, -0.3, 2)
    decoys = [DynamicInstance(b_new, k + 2, x, -0.3, 2) for k, x in enumerate((2.0, 6.0))]
    series = _series_of(a, b, *decoys)
    spans = {a_new: 1, b_new: 1}
    cfg = MiningConfig(d_d=1.0, min_prev=0.1, time_span=3.0)
    assert neighbor_pairs(series, spans, cfg) == all_pairs_scan(series, spans, cfg) == ((a, b),)


def test_join_memory_is_linear_in_the_instances():
    # One A_new and one B_new per window, 3 apart in one row, and spans of
    # half the windows: the next block holds half the instances, all within
    # the largest span of the last windows of the block before.  Doubling
    # the windows may not much more than double the join's peak memory.
    import gc
    import tracemalloc

    from mdcolo import DynamicInstance
    from mdcolo.neighborhood import grid_join
    from conftest import feat

    a_new, b_new = feat("A_new"), feat("B_new")
    cfg = MiningConfig(d_d=1.0, min_prev=0.1, time_span=3.0)

    def peak(windows: int) -> int:
        series = _series_of(*(
            DynamicInstance(f, t + 1, x, 0.0, t)
            for t in range(windows) for f, x in ((a_new, 0.0), (b_new, 3.0))
        ))
        spans = {a_new: windows // 2, b_new: windows // 2}
        # Garbage collected inside the join would lower its peak.
        gc.collect()
        tracemalloc.start()
        try:
            assert grid_join(series, spans, cfg).codes == []
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1600) <= 2.5 * peak(800)
