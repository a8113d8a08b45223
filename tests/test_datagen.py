from __future__ import annotations

import hashlib
import math

import pytest

from mdcolo import ConfigError, diff_snapshots, io
from mdcolo.datagen import GenConfig, SplitMix64, feature_name, generate


# Reference outputs of the standard SplitMix64 stream, frozen so that any
# change to the constants or the finalizer shows up as a hard failure.
SPLITMIX_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
SPLITMIX_SEED1234567 = [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]


def test_splitmix_reference_vectors():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SPLITMIX_SEED0
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == SPLITMIX_SEED1234567


def test_splitmix_float_range():
    rng = SplitMix64(42)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert min(values) < 0.1 and max(values) > 0.9


def test_splitmix_randint_bounds():
    rng = SplitMix64(42)
    values = [rng.randint(3, 7) for _ in range(500)]
    assert set(values) == {3, 4, 5, 6, 7}
    with pytest.raises(ValueError):
        rng.randint(5, 4)


def test_splitmix_sample_indices():
    rng = SplitMix64(42)
    for _ in range(50):
        picks = rng.sample_indices(10, 4)
        assert len(picks) == len(set(picks)) == 4
        assert all(0 <= p < 10 for p in picks)
    with pytest.raises(ValueError):
        rng.sample_indices(3, 4)


def test_feature_names():
    assert feature_name(0) == "A"
    assert feature_name(25) == "Z"
    assert feature_name(26) == "F26"


def small_config(**overrides):
    base = dict(
        area=(200.0, 200.0),
        n_time_points=5,
        n_base_features=4,
        life_cycles=(9.0, 3.0, 30.0, 15.0),
        n_dynamic_instances=120,
        cluster_count=3,
        cluster_radius=8.0,
        churn_ratio=0.5,
        seed=1,
    )
    base.update(overrides)
    return GenConfig(**base)


def test_generation_is_deterministic():
    a, report_a = generate(small_config())
    b, report_b = generate(small_config())
    assert a == b
    assert report_a.sites == report_b.sites
    assert report_a.render() == report_b.render()


def test_different_seeds_differ():
    a, _ = generate(small_config(seed=1))
    b, _ = generate(small_config(seed=2))
    assert a != b


def test_event_budget_is_exact():
    for seed in range(10):
        config = small_config(seed=seed)
        snapshots, report = generate(config)
        series = diff_snapshots(snapshots)
        assert sum(len(w) for w in series.windows) == config.n_dynamic_instances
        assert report.cluster_events + report.noise_events == config.n_dynamic_instances
        assert report.cluster_events == round(
            config.churn_ratio * config.n_dynamic_instances
        )


def test_all_events_inside_area():
    config = small_config(seed=3)
    snapshots, _ = generate(config)
    w, h = config.area
    for snap in snapshots:
        for _, _, x, y in snap.records:
            assert 0.0 <= x <= w
            assert 0.0 <= y <= h


def test_windows_span_whole_series():
    config = small_config(seed=4)
    snapshots, _ = generate(config)
    series = diff_snapshots(snapshots)
    assert series.window_count == config.n_time_points - 1


def test_zero_churn_needs_no_sites():
    config = small_config(churn_ratio=0.0, cluster_count=0, n_dynamic_instances=50)
    snapshots, report = generate(config)
    assert report.cluster_events == 0
    assert report.noise_events == 50


def test_site_members_are_plausible():
    config = small_config(seed=9)
    _, report = generate(config)
    assert len(report.sites) == config.cluster_count
    for site in report.sites:
        assert 2 <= len(site.members) <= 4
        bases = [base for base, _ in site.members]
        assert len(bases) == len(set(bases))
        r = config.cluster_radius
        assert r <= site.center[0] <= config.area[0] - r
        assert r <= site.center[1] <= config.area[1] - r


def test_cluster_events_stay_near_their_site():
    # With 100% churn every event belongs to a site, so every dynamic
    # instance must sit inside some site's disk (up to the area clamp).
    config = small_config(churn_ratio=1.0, seed=6)
    snapshots, report = generate(config)
    series = diff_snapshots(snapshots)
    for inst in series.instances():
        dists = [
            (inst.x - sx) ** 2 + (inst.y - sy) ** 2
            for (sx, sy) in (site.center for site in report.sites)
        ]
        assert min(dists) <= config.cluster_radius ** 2 + 1e-9


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(n_time_points=1)
    with pytest.raises(ConfigError):
        small_config(life_cycles=(9.0,))
    with pytest.raises(ConfigError):
        small_config(churn_ratio=1.5)
    with pytest.raises(ConfigError):
        small_config(churn_ratio=0.5, cluster_count=0)
    with pytest.raises(ConfigError):
        small_config(cluster_radius=150.0)
    with pytest.raises(ConfigError):
        small_config(n_dynamic_instances=-1)
    # Settings generate cannot realize: infinite sides draw NaN disk offsets
    # that no rejection accepts, a huge radius overflows when squared, and
    # huge sides give coordinates beyond what mine reads.
    for unrealizable in (
        dict(area=(math.inf, math.inf), cluster_radius=math.inf),
        dict(area=(1e300, 1e300), cluster_radius=1e200),
        dict(area=(1e200, 1e200)),
        dict(life_cycles=(math.inf, 3.0, 30.0, 15.0)),
        dict(time_span=math.inf),
    ):
        with pytest.raises(ConfigError):
            small_config(**unrealizable)


def test_report_render_mentions_sites_and_counts():
    config = small_config(seed=2)
    _, report = generate(config)
    text = report.render()
    assert "seed: 2" in text
    assert "site 0:" in text
    assert "events per window" in text
    assert text.endswith("\n")


# SHA-256 of the snapshot CSV `io.write_snapshots_csv` writes for
# `generate(small_config(**overrides))`, and of `GenReport.render()`: a
# faster generator or writer must not move a byte.  Past 26 features the
# `F26...` names sort among the letters; int sides and radius keep ints in
# the generator's arithmetic and in the report.
GOLDEN = {
    "small": ({}, "ac65f4f718a288adbae3c2b562991da4ee6e504941ec09520751cb7553f7525f",
              "bfe3805a6412dfef2c2a9f53e7aaf688f843b3e1283349a03b5a67d719dff866"),
    "30 features": (
        dict(n_base_features=30, life_cycles=tuple(float(3 + i % 7) for i in range(30)),
             n_dynamic_instances=600, cluster_count=5),
        "d5c6162abab9af369a8930aa5c97f2b3c7e0d83e28ace688ec46b519e9c0ba99",
        "a7b995718fb089a2cb6474852f5667db030c978b375f104455527fc72f333383",
    ),
    "no churn": (dict(churn_ratio=0.0),
                 "392c887de7c49e808ad5cfd90e23937267e07c438f53f876fc46d9537123538f",
                 "4c890cf5a67bf695cc2c9e60ecded6a0bfe1cba6a985181fc50d29ae62f270d9"),
    "all churn": (dict(churn_ratio=1.0),
                  "d01e04fafc7f7c4a8820b79f3310b2dd4bc292a6a5e2af449607289590d01520",
                  "66a03785308f0a5c73a8d2c2836acee1c27befdd8645c5b587688b9a8fabce00"),
    "int sides": (dict(area=(200, 150), cluster_radius=8),
                  "fb3d9c7ad1d0ffb7dc405a6280f8ed0094f88353b5c558d89587cd05804c7f89",
                  "628512dfb59fc7ea6f938d3696ce8d9a3df26256917abafa9c09d23bfc8539d9"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_generated_files_are_pinned(name, tmp_path):
    overrides, snapshots_sha, report_sha = GOLDEN[name]
    snapshots, report = generate(small_config(**overrides))
    # The writer sorts, so the digest alone would not see the order generate
    # hands out.
    assert all(list(s.records) == sorted(s.records) for s in snapshots)
    path = tmp_path / "snapshots.csv"
    io.write_snapshots_csv(str(path), snapshots)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == snapshots_sha
    assert hashlib.sha256(report.render().encode("utf-8")).hexdigest() == report_sha
