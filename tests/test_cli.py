from __future__ import annotations

import pytest

from mdcolo.cli import main

from conftest import shops_snapshots
from mdcolo import BaseFeature, Snapshot, io


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def dataset(tmp_path):
    """A generated dataset on disk, plus its path prefix."""
    prefix = str(tmp_path / "data")
    code = main(
        [
            "gen", "-o", prefix,
            "--instances", "300", "--features", "4",
            "--life-cycles", "9,3,30,15",
            "--clusters", "3", "--area", "400", "400",
            "--cluster-radius", "8", "--seed", "5",
        ]
    )
    assert code == 0
    return prefix


def test_gen_writes_all_files(dataset):
    assert read_bytes(f"{dataset}.snapshots.csv").startswith(b"t_point,")
    assert read_bytes(f"{dataset}.lifecycles.csv").startswith(b"feature,")
    assert b"generator report" in read_bytes(f"{dataset}.report.txt")


def test_gen_is_deterministic(tmp_path):
    args = [
        "--instances", "200", "--features", "3", "--life-cycles", "9,3,30",
        "--clusters", "2", "--area", "300", "300", "--seed", "11",
    ]
    assert main(["gen", "-o", str(tmp_path / "one")] + args) == 0
    assert main(["gen", "-o", str(tmp_path / "two")] + args) == 0
    for suffix in (".snapshots.csv", ".lifecycles.csv", ".report.txt"):
        assert read_bytes(str(tmp_path / "one") + suffix) == read_bytes(
            str(tmp_path / "two") + suffix
        )


def test_diff_roundtrip(tmp_path):
    snaps = str(tmp_path / "snaps.csv")
    io.write_snapshots_csv(snaps, shops_snapshots())
    out = str(tmp_path / "series.csv")
    assert main(["diff", snaps, "-o", out]) == 0
    header, *rows = read_bytes(out).decode().splitlines()
    assert header == "t_index,feature,kind,ordinal,x,y"
    assert len(rows) == 12


def test_mine_end_to_end(dataset, tmp_path):
    report = str(tmp_path / "patterns.txt")
    code = main(
        [
            "mine", f"{dataset}.snapshots.csv",
            "--lifecycles", f"{dataset}.lifecycles.csv",
            "-o", report, "--dd", "35", "--min-prev", "0.1",
        ]
    )
    assert code == 0
    lines = read_bytes(report).decode().splitlines()
    assert lines, "expected at least one pattern from clustered data"
    for line in lines:
        pattern, size, dpi, rows, maximal = line.split(";")
        assert int(size) >= 2
        assert 0.0 <= float(dpi) <= 1.0
        assert int(rows) >= 1
        assert maximal in ("true", "false")
    manifest = read_bytes(f"{report}.manifest").decode()
    assert "algo: mdc" in manifest
    assert "input_sha256: " in manifest
    assert "time_total_ms: " in manifest


def test_mine_derive_all_matches_join(dataset, tmp_path):
    mdc = str(tmp_path / "mdc.txt")
    join = str(tmp_path / "join.txt")
    base = [
        f"{dataset}.snapshots.csv",
        "--lifecycles", f"{dataset}.lifecycles.csv",
        "--dd", "35", "--min-prev", "0.1",
    ]
    assert main(["mine"] + base + ["-o", mdc, "--derive-all"]) == 0
    assert main(["mine"] + base + ["-o", join, "--algo", "join"]) == 0
    assert read_bytes(mdc) == read_bytes(join)


def test_mine_seedless_report(dataset, tmp_path):
    report = str(tmp_path / "patterns.txt")
    code = main(
        [
            "mine", f"{dataset}.snapshots.csv",
            "--lifecycles", f"{dataset}.lifecycles.csv",
            "-o", report, "--seedless-report",
        ]
    )
    assert code == 0
    manifest = read_bytes(f"{report}.manifest").decode()
    assert "input" not in manifest
    assert "sha256" not in manifest
    assert "_ms: " not in manifest
    assert "algo: mdc" in manifest
    assert "time_span: " in manifest
    assert "rows_counted: " in manifest


def test_mine_accepts_and_ignores_no_prune2(dataset, tmp_path):
    outputs = []
    for name, extra in (("plain", []), ("flagged", ["--no-prune2"])):
        report = str(tmp_path / f"{name}.txt")
        code = main(
            [
                "mine", f"{dataset}.snapshots.csv",
                "--lifecycles", f"{dataset}.lifecycles.csv",
                "-o", report, "--seedless-report", *extra,
            ]
        )
        assert code == 0
        outputs.append((read_bytes(report), read_bytes(f"{report}.manifest")))
    assert outputs[0] == outputs[1]


def test_mine_optional_dumps(dataset, tmp_path):
    report = str(tmp_path / "patterns.txt")
    pairs = str(tmp_path / "pairs.csv")
    size2 = str(tmp_path / "size2.csv")
    code = main(
        [
            "mine", f"{dataset}.snapshots.csv",
            "--lifecycles", f"{dataset}.lifecycles.csv",
            "-o", report, "--pairs-dump", pairs, "--size2-report", size2,
        ]
    )
    assert code == 0
    assert read_bytes(pairs).startswith(b"feature_a,")
    assert read_bytes(size2).startswith(b"pattern,dpi,rows")


def test_join_and_mdc_write_identical_dumps(dataset, tmp_path):
    dumps = {}
    for algo in ("mdc", "join"):
        pairs = str(tmp_path / f"{algo}.pairs.csv")
        size2 = str(tmp_path / f"{algo}.size2.csv")
        code = main(
            [
                "mine", f"{dataset}.snapshots.csv",
                "--lifecycles", f"{dataset}.lifecycles.csv",
                "-o", str(tmp_path / f"{algo}.txt"), "--algo", algo,
                "--pairs-dump", pairs, "--size2-report", size2,
            ]
        )
        assert code == 0
        dumps[algo] = (read_bytes(pairs), read_bytes(size2))
    assert dumps["mdc"] == dumps["join"]
    assert dumps["mdc"][0].count(b"\n") > 1


def test_mine_empty_result(tmp_path):
    prefix = str(tmp_path / "noise")
    assert main(
        [
            "gen", "-o", prefix, "--instances", "40", "--features", "3",
            "--life-cycles", "9,3,30", "--churn", "0", "--clusters", "0",
            "--area", "100000", "100000", "--seed", "2",
        ]
    ) == 0
    report = str(tmp_path / "patterns.txt")
    code = main(
        [
            "mine", f"{prefix}.snapshots.csv",
            "--lifecycles", f"{prefix}.lifecycles.csv",
            "-o", report, "--dd", "0.5",
        ]
    )
    assert code == 0
    assert read_bytes(report) == b""
    assert "pattern_count: 0" in read_bytes(f"{report}.manifest").decode()


def test_mine_missing_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,A,a1,1.0,2.0\n")
    lc = tmp_path / "lc.csv"
    io.write_lifecycles_csv(str(lc), [BaseFeature("A", 9.0)])
    code = main(
        ["mine", str(bad), "--lifecycles", str(lc), "-o", str(tmp_path / "out.txt")]
    )
    assert code == 2
    assert "missing header" in capsys.readouterr().err


def test_mine_unknown_lifecycle_feature_exits_2(dataset, tmp_path, capsys):
    lc = tmp_path / "extra.csv"
    features = io.read_lifecycles_csv(f"{dataset}.lifecycles.csv")
    io.write_lifecycles_csv(str(lc), features + [BaseFeature("Z", 9.0)])
    code = main(
        [
            "mine", f"{dataset}.snapshots.csv", "--lifecycles", str(lc),
            "-o", str(tmp_path / "out.txt"),
        ]
    )
    assert code == 2
    assert "Z" in capsys.readouterr().err


def test_mine_lifecycle_feature_without_events(tmp_path):
    # C is present, unchanged, in both snapshots: a snapshot feature with no
    # dynamic instances, so its life cycle is known but unused.
    snaps = tmp_path / "snaps.csv"
    io.write_snapshots_csv(str(snaps), [
        Snapshot(0, (("A", "a1", 0.0, 0.0), ("C", "c1", 5.0, 5.0))),
        Snapshot(1, (("A", "a2", 0.5, 0.0), ("B", "b1", 1.0, 0.0), ("C", "c1", 5.0, 5.0))),
    ])
    lc = tmp_path / "lc.csv"
    io.write_lifecycles_csv(str(lc), [BaseFeature(f, 3.0) for f in "ABC"])
    report = str(tmp_path / "out.txt")
    code = main(["mine", str(snaps), "--lifecycles", str(lc), "--dd", "2", "-o", report])
    assert code == 0
    assert read_bytes(report) == b"A_new,A_dead,B_new;3;1.0;1;true\n"


def test_mine_missing_lifecycle_feature_exits_2(dataset, tmp_path, capsys):
    lc = tmp_path / "short.csv"
    features = io.read_lifecycles_csv(f"{dataset}.lifecycles.csv")
    io.write_lifecycles_csv(str(lc), features[:-1])
    code = main(
        [
            "mine", f"{dataset}.snapshots.csv", "--lifecycles", str(lc),
            "-o", str(tmp_path / "out.txt"),
        ]
    )
    assert code == 2
    assert "life cycle" in capsys.readouterr().err


def test_mine_nan_coordinate_exits_2(tmp_path, capsys):
    snaps = tmp_path / "snaps.csv"
    snaps.write_text("t_point,feature,instance_id,x,y\n0,A,a1,1.0,2.0\n1,A,a2,nan,2.0\n")
    lc = tmp_path / "lc.csv"
    io.write_lifecycles_csv(str(lc), [BaseFeature("A", 9.0)])
    code = main(["mine", str(snaps), "--lifecycles", str(lc), "-o", str(tmp_path / "out.txt")])
    assert code == 2
    assert f"{snaps}:3: x is not a finite number" in capsys.readouterr().err


def test_mine_non_utf8_input_exits_2(tmp_path, capsys):
    snaps = tmp_path / "snaps.csv"
    snaps.write_bytes(b"t_point,feature,instance_id,x,y\n0,A,a\xff,1.0,2.0\n")
    lc = tmp_path / "lc.csv"
    io.write_lifecycles_csv(str(lc), [BaseFeature("A", 9.0)])
    code = main(["mine", str(snaps), "--lifecycles", str(lc), "-o", str(tmp_path / "out.txt")])
    assert code == 2
    assert f"error: {snaps}: not UTF-8 text" in capsys.readouterr().err


def test_mine_directory_input_exits_2(tmp_path, capsys):
    lc = tmp_path / "lc.csv"
    io.write_lifecycles_csv(str(lc), [BaseFeature("A", 9.0)])
    code = main(["mine", str(tmp_path), "--lifecycles", str(lc), "-o", str(tmp_path / "out.txt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def write_lifecycles_text(path, features, life_cycle: str) -> None:
    path.write_text("feature,life_cycle\n" + "".join(f"{f.id},{life_cycle}\n" for f in features))


def test_mine_infinite_life_cycle_exits_2(dataset, tmp_path, capsys):
    lc = tmp_path / "inf.csv"
    write_lifecycles_text(lc, io.read_lifecycles_csv(f"{dataset}.lifecycles.csv"), "inf")
    code = main(
        [
            "mine", f"{dataset}.snapshots.csv", "--lifecycles", str(lc),
            "-o", str(tmp_path / "out.txt"),
        ]
    )
    assert code == 2
    assert f"{lc}:2: life_cycle is not a finite number" in capsys.readouterr().err


def test_mine_huge_life_cycle_finishes(dataset, tmp_path):
    # A span of ~3e8 windows over an 11-snapshot series: the join scans only
    # the windows that exist, so this mines like any long life cycle.
    lc = tmp_path / "huge.csv"
    write_lifecycles_text(lc, io.read_lifecycles_csv(f"{dataset}.lifecycles.csv"), "1e9")
    report = str(tmp_path / "patterns.txt")
    code = main(
        ["mine", f"{dataset}.snapshots.csv", "--lifecycles", str(lc), "-o", report]
    )
    assert code == 0
    assert "pattern_count: " in read_bytes(f"{report}.manifest").decode()


def test_gen_bad_life_cycle_exits_2(tmp_path, capsys):
    code = main(
        ["gen", "-o", str(tmp_path / "data"), "--features", "2", "--life-cycles", "9,abc"]
    )
    assert code == 2
    assert "error: --life-cycles: 'abc'" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path, capsys):
    code = main(["diff", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "out.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bench_sweep(tmp_path):
    spec = tmp_path / "sweep.txt"
    spec.write_text(
        "instances=120,240\n"
        "features=3\n"
        "lifecycles=9;3;30\n"
        "clusters=2\n"
        "seed=4\n"
        "area=300\n"
        "dd=20\n"
        "algos=mdc,join\n"
    )
    out = str(tmp_path / "bench.csv")
    assert main(["bench", str(spec), "-o", out]) == 0
    lines = read_bytes(out).decode().splitlines()
    assert lines[0] == "param,value,algo,maximal_count,prevalent_count,millis"
    assert len(lines) == 1 + 2 * 2
    # Same sweep point mined by both algos must agree on the counts.
    for i in (1, 3):
        mdc_row = lines[i].split(",")
        join_row = lines[i + 1].split(",")
        assert mdc_row[:2] == join_row[:2]
        assert mdc_row[3:5] == join_row[3:5]


def test_bench_rejects_unknown_key(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("warp=9\n")
    assert main(["bench", str(spec), "-o", str(tmp_path / "b.csv")]) == 2
    assert "unknown sweep key" in capsys.readouterr().err


def test_bench_bad_number_exits_2(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("instances=abc\n")
    assert main(["bench", str(spec), "-o", str(tmp_path / "b.csv")]) == 2
    assert "error: sweep key 'instances': 'abc'" in capsys.readouterr().err


def test_bench_bad_prune_exits_2(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("prune=xyz\ninstances=120\n")
    assert main(["bench", str(spec), "-o", str(tmp_path / "b.csv")]) == 2
    assert "error: sweep key 'prune': 'xyz'" in capsys.readouterr().err


def test_bench_prune_values(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("prune=p2\ninstances=120\n")
    assert main(["bench", str(spec), "-o", str(tmp_path / "b.csv")]) == 2
    assert "'p2' is not one of on, off" in capsys.readouterr().err

    # p1 (the early abort alone) is what `on` means now
    spec.write_text("prune=on,p1\ninstances=120\nalgos=mdc\n")
    out = tmp_path / "b.csv"
    assert main(["bench", str(spec), "-o", str(out)]) == 0
    _, on, p1 = out.read_text().splitlines()
    assert on.split(",")[3:5] == p1.split(",")[3:5]


def test_bench_rejects_sweeping_fixed_key(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("seed=1,2\n")
    assert main(["bench", str(spec), "-o", str(tmp_path / "b.csv")]) == 2
    assert "cannot be swept" in capsys.readouterr().err
