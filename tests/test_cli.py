from __future__ import annotations

import csv
import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdcolo import cli
from mdcolo.cli import main

from conftest import forbid_rows, shops_snapshots
from mdcolo import BaseFeature, Snapshot, io


def mdcolo_child(argv: list[str], *flags: str, **kwargs) -> subprocess.CompletedProcess:
    """`python <flags> -m mdcolo <argv>` in a child that imports this tree's
    package, with text output captured and a 30 s timeout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "mdcolo", *argv], capture_output=True, text=True,
        timeout=30, env=dict(os.environ, PYTHONPATH=path), **kwargs,
    )


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


def test_mine_join_counts_maximal_patterns_as_its_manifest(dataset, tmp_path, capsys):
    report = str(tmp_path / "join.txt")
    code = main(
        [
            "mine", f"{dataset}.snapshots.csv",
            "--lifecycles", f"{dataset}.lifecycles.csv",
            "-o", report, "--dd", "35", "--min-prev", "0.1", "--algo", "join",
        ]
    )
    assert code == 0
    manifest = dict(
        line.split(": ", 1) for line in read_bytes(f"{report}.manifest").decode().splitlines()
    )
    maximal, prevalent = manifest["maximal_count"], manifest["pattern_count"]
    assert int(maximal) < int(prevalent)
    assert capsys.readouterr().err == (
        f"{maximal} maximal pattern(s), {prevalent} prevalent in total -> {report}\n"
    )


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


def test_mine_optional_dumps(dataset, tmp_path, monkeypatch):
    # The dumps read the join's codes and the tables' ordinals, never rows.
    forbid_rows(monkeypatch)
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
    # Y and Z are in no snapshot; the error names Y's line and both, in file
    # order, after a quoted field that spans two lines.
    lc = tmp_path / "extra.csv"
    lc.write_text('feature,life_cycle\nA,9\nB,"3\n"\nZ,9\nC,30\nY,1\nD,15\n')
    code = main(
        [
            "mine", f"{dataset}.snapshots.csv", "--lifecycles", str(lc),
            "-o", str(tmp_path / "out.txt"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {lc}:5: unknown feature(s), in no snapshot: Z, Y\n"


@pytest.mark.parametrize("snapshots", ["", "0,A,1,0,0\n0,B,1,1,1\n"], ids=["header", "one"])
def test_mine_too_few_snapshots_is_the_first_error(tmp_path, capsys, snapshots):
    # Every life-cycle feature is unknown to a file without two snapshots;
    # the diff's error comes first.
    snaps = tmp_path / "snaps.csv"
    snaps.write_text("t_point,feature,instance_id,x,y\n" + snapshots)
    lc = tmp_path / "lc.csv"
    lc.write_text("feature,life_cycle\nA,3\nB,3\nC,3\n")
    assert main(["mine", str(snaps), "--lifecycles", str(lc), "-o", str(tmp_path / "o")]) == 2
    got = len(snapshots.splitlines()) // 2
    assert capsys.readouterr().err == (
        f"error: {snaps}: need at least 2 snapshots, got {got}\n"
    )


SEPARATORS = [",", ";", "|", "\n", "\r"]


def write_separator_dataset(tmp_path, sep):
    """Two snapshots of A and `A<sep>B` instances next to each other; the
    second feature's id is written quoted."""
    snaps = tmp_path / "snaps.csv"
    other = f"A{sep}B"
    io.write_snapshots_csv(str(snaps), [
        Snapshot(0, (("A", "1", 0.0, 0.0),)),
        Snapshot(1, (("A", "1", 0.0, 0.0), ("A", "2", 1.0, 0.0), (other, "1", 1.0, 1.0))),
    ])
    return snaps, other


@pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
def test_lifecycle_feature_with_a_report_separator_exits_2(tmp_path, capsys, sep):
    snaps, other = write_separator_dataset(tmp_path, sep)
    lc = tmp_path / "lc.csv"
    with open(lc, "w", encoding="utf-8", newline="") as fh:
        fh.write(f'feature,life_cycle\nA,3\n"{other}",3\n')
    assert main(["mine", str(snaps), "--lifecycles", str(lc), "-o", str(tmp_path / "o")]) == 2
    # The record ends on line 4 when its id holds a line break.
    line = 4 if sep in "\n\r" else 3
    assert capsys.readouterr().err == (
        f"error: {lc}:{line}: base feature id {other!r} holds a report separator, "
        f"one of ',;|\\n\\r'\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
def test_snapshot_feature_with_a_report_separator_exits_2(tmp_path, capsys, sep):
    # No life-cycle file can name the feature, so it has no life cycle.
    snaps, other = write_separator_dataset(tmp_path, sep)
    lc = tmp_path / "lc.csv"
    io.write_lifecycles_csv(str(lc), [BaseFeature("A", 3.0)])
    assert main(["mine", str(snaps), "--lifecycles", str(lc), "-o", str(tmp_path / "o")]) == 2
    # The record ends on line 6 when its id holds a line break, which the
    # one-line error escapes.
    line = 6 if sep in "\n\r" else 5
    shown = other.replace("\n", "\\n").replace("\r", "\\r")
    assert capsys.readouterr().err == (
        f"error: {snaps}:{line}: no life cycle given for feature(s): {shown}\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("ending", ["mine", "exit 2", "raises"])
def test_main_leaves_the_collector_as_it_found_it(
    dataset, tmp_path, monkeypatch, capsys, enabled, ending
):
    lc = f"{dataset}.lifecycles.csv"
    if ending == "exit 2":
        lc = str(tmp_path / "missing.csv")
    seen = []
    if ending == "raises":
        def boom(args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "cmd_mine", boom)
    argv = ["mine", f"{dataset}.snapshots.csv", "--lifecycles", lc, "-o", str(tmp_path / "o")]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if ending == "raises":
            with pytest.raises(RuntimeError, match="boom"):
                main(argv)
            assert seen == [False]
        else:
            assert main(argv) == (0 if ending == "mine" else 2)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


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


def test_mine_huge_coordinate_exits_2(tmp_path, capsys):
    # Squared distances between these points overflow a float.
    snaps = tmp_path / "snaps.csv"
    lc = tmp_path / "lc.csv"
    io.write_lifecycles_csv(str(lc), [BaseFeature("A", 9.0), BaseFeature("B", 9.0)])
    argv = ["mine", str(snaps), "--lifecycles", str(lc), "--dd", "1e291",
            "-o", str(tmp_path / "out.txt"), "--pairs-dump", str(tmp_path / "pairs.csv")]
    snaps.write_text(
        "t_point,feature,instance_id,x,y\n0,A,1,0.0,0.0\n1,B,1,1e300,0.0\n"
        "1,A,2,1.0000000000000001e300,5e290\n"
    )
    assert main(argv) == 2
    assert f"{snaps}:3: coordinates beyond +-1e+150: x='1e300', y='0.0'" in capsys.readouterr().err
    # Coordinates at the bound still mine: every pair is far within d_d.
    snaps.write_text(
        "t_point,feature,instance_id,x,y\n0,A,1,0.0,0.0\n1,B,1,1e150,-1e150\n"
        "1,A,2,-1e150,1e150\n"
    )
    assert main(argv) == 0
    assert read_bytes(tmp_path / "pairs.csv").count(b"\n") == 1 + 3


@pytest.mark.parametrize("command", ["mine", "diff"])
@pytest.mark.parametrize(
    "rows, line",
    [
        (["0,A,1,0,0", "0,B,2,1,1", "0,A,1,2,2", "1,A,1,0,0"], 4),
        # Interleaved t_points: the first A 1 at t=1 is no duplicate.
        (["0,A,1,0,0", "1,A,1,0,0", "0,B,2,1,1", "1,B,2,1,1", "0,A,1,2,2"], 6),
        # A quoted field spanning lines 2-3 shifts every later line by one.
        (['0,B,"b\nc",1,1', "0,A,1,0,0", "0,A,1,2,2", "1,A,1,0,0"], 5),
    ],
)
def test_duplicate_instance_exits_2_with_its_line(tmp_path, capsys, command, rows, line):
    snaps = tmp_path / "snaps.csv"
    snaps.write_text("t_point,feature,instance_id,x,y\n" + "".join(r + "\n" for r in rows))
    lc = tmp_path / "lc.csv"
    lc.write_text("feature,life_cycle\nA,3\nB,3\n")
    extra = ["--lifecycles", str(lc)] if command == "mine" else []
    assert main([command, str(snaps), "-o", str(tmp_path / "out")] + extra) == 2
    assert capsys.readouterr().err == (
        f"error: {snaps}:{line}: duplicate instance ('A', '1') in snapshot t=0\n"
    )


@pytest.mark.parametrize("command", ["mine", "diff"])
@pytest.mark.parametrize(
    "rows, message",
    [
        (["0,A,1,0,0"], "need at least 2 snapshots, got 1"),
        (["0,A,1,0,0", "2,A,1,0,0"], "snapshot t_points must be contiguous, got 0 then 2"),
    ],
)
def test_diff_errors_name_the_snapshot_file(tmp_path, capsys, command, rows, message):
    snaps = tmp_path / "snaps.csv"
    snaps.write_text("t_point,feature,instance_id,x,y\n" + "".join(r + "\n" for r in rows))
    lc = tmp_path / "lc.csv"
    lc.write_text("feature,life_cycle\nA,3\n")
    extra = ["--lifecycles", str(lc)] if command == "mine" else []
    assert main([command, str(snaps), "-o", str(tmp_path / "out")] + extra) == 2
    # A gap names the first record of the later t_point.
    where = f"{snaps}:3" if "contiguous" in message else f"{snaps}"
    assert capsys.readouterr().err == f"error: {where}: {message}\n"


@pytest.mark.parametrize("command", ["mine", "diff"])
def test_snapshot_gap_names_the_first_record_after_it(tmp_path, capsys, command):
    snaps = tmp_path / "gap.csv"
    snaps.write_text(
        "t_point,feature,instance_id,x,y\n0,A,1,0,0\n1,A,1,0,0\n0,B,1,1,1\n"
        "1,A,2,1,0\n3,A,1,0,0\n1,B,1,1,1\n3,B,1,1,1\n"
    )
    lc = tmp_path / "lc.csv"
    lc.write_text("feature,life_cycle\nA,3\nB,3\n")
    extra = ["--lifecycles", str(lc)] if command == "mine" else []
    assert main([command, str(snaps), "-o", str(tmp_path / "out")] + extra) == 2
    assert capsys.readouterr().err == (
        f"error: {snaps}:6: snapshot t_points must be contiguous, got 1 then 3\n"
    )


def test_mine_feature_without_life_cycle_names_its_first_record(tmp_path, capsys):
    # B and C change and have no life cycle; the error names both and the
    # line of B's first record, after an id that spans lines 4-5.  D never
    # changes, so it needs no life cycle.
    snaps = tmp_path / "snaps.csv"
    snaps.write_text(
        't_point,feature,instance_id,x,y\n0,A,1,0,0\n0,C,1,5,5\n0,A,"x\ny",1,1\n'
        "1,A,1,0,0\n0,B,1,2,2\n1,B,2,2,2\n1,C,2,5,5\n0,D,1,9,9\n1,D,1,9,9\n"
    )
    lc = tmp_path / "lc.csv"
    lc.write_text("feature,life_cycle\nA,3\n")
    assert main(["mine", str(snaps), "--lifecycles", str(lc), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: {snaps}:7: no life cycle given for feature(s): B, C\n"
    )
    assert not (tmp_path / "o").exists()


def test_diff_header_only_names_the_file(tmp_path, capsys):
    snaps = tmp_path / "snaps.csv"
    snaps.write_text("t_point,feature,instance_id,x,y\n")
    assert main(["diff", str(snaps), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {snaps}: need at least 2 snapshots, got 0\n"


# A field the csv module refuses: one character over its size limit.
FIELD_LIMIT = csv.field_size_limit()
OVERSIZE = "x" * (FIELD_LIMIT + 1)


@pytest.mark.parametrize("command", ["mine", "diff"])
@pytest.mark.parametrize(
    "rows, line, message",
    [
        (["0,A,1,0,0", f"0,A,{OVERSIZE},0,0", "1,A,1,0,0"], 3,
         f"field larger than field limit ({FIELD_LIMIT})"),
        # A quoted field spanning lines 2-3 shifts every later line by one.
        (['0,A,"a\nb",1.0,2.0', "0,A,2,1.0,zz"], 4, "y is not a number: 'zz'"),
    ],
)
def test_snapshot_errors_name_the_physical_line(tmp_path, capsys, command, rows, line, message):
    snaps = tmp_path / "snaps.csv"
    snaps.write_text("t_point,feature,instance_id,x,y\n" + "".join(r + "\n" for r in rows))
    lc = tmp_path / "lc.csv"
    lc.write_text("feature,life_cycle\nA,3\n")
    extra = ["--lifecycles", str(lc)] if command == "mine" else []
    assert main([command, str(snaps), "-o", str(tmp_path / "out")] + extra) == 2
    assert capsys.readouterr().err == f"error: {snaps}:{line}: {message}\n"


@pytest.mark.parametrize(
    "rows, line, message",
    [
        (["A,3", f"{OVERSIZE},3"], 3, f"field larger than field limit ({FIELD_LIMIT})"),
        # A feature id cannot hold a line break; a life cycle's field can.
        (['B,"3\n"', "C,zz"], 4, "life_cycle is not a number: 'zz'"),
        (['B,"3\n"', "A,3", "A,3"], 5, "duplicate feature 'A'"),
    ],
)
def test_lifecycle_errors_name_the_physical_line(tmp_path, capsys, rows, line, message):
    snaps = tmp_path / "snaps.csv"
    snaps.write_text("t_point,feature,instance_id,x,y\n0,A,1,0,0\n1,A,1,0,0\n")
    lc = tmp_path / "lc.csv"
    lc.write_text("feature,life_cycle\n" + "".join(r + "\n" for r in rows))
    code = main(["mine", str(snaps), "--lifecycles", str(lc), "-o", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {lc}:{line}: {message}\n"


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


NOT_REGULAR = "not a regular file; an input may be read more than once"
needs_dev_stdin = pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")


@needs_dev_stdin
@pytest.mark.parametrize("command, piped", [
    ("mine", "snapshots"), ("mine", "lifecycles"), ("diff", "snapshots"),
])
def test_a_piped_input_exits_2_before_any_read(dataset, tmp_path, command, piped):
    # `mine` and `diff` may read an input again (the csv path, an error's
    # line, the manifest's digest), which a pipe cannot give.
    files = {name: f"{dataset}.{name}.csv" for name in ("snapshots", "lifecycles")}
    text = Path(files[piped]).read_text(encoding="utf-8")
    files[piped] = "/dev/stdin"
    argv = [command, files["snapshots"], "-o", str(tmp_path / "out.txt")]
    if command == "mine":
        argv += ["--lifecycles", files["lifecycles"]]
    proc = mdcolo_child(argv, input=text)
    assert (proc.returncode, proc.stderr) == (2, f"error: /dev/stdin: {NOT_REGULAR}\n")
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("command", ["mine", "diff"])
def test_a_fifo_input_exits_2_without_blocking(dataset, tmp_path, command):
    # Nothing writes to the FIFO, so opening it would block until the timeout.
    fifo = tmp_path / "snaps.fifo"
    os.mkfifo(fifo)
    argv = [command, str(fifo), "-o", str(tmp_path / "out.txt")]
    if command == "mine":
        argv += ["--lifecycles", f"{dataset}.lifecycles.csv"]
    proc = mdcolo_child(argv)
    assert (proc.returncode, proc.stderr) == (2, f"error: {fifo}: {NOT_REGULAR}\n")


@needs_dev_stdin
def test_a_redirected_input_mines_with_its_digest(dataset, tmp_path):
    # A shell redirect makes stdin the file itself, which can be read again.
    snapshots, lifecycles = f"{dataset}.snapshots.csv", f"{dataset}.lifecycles.csv"
    with open(snapshots, "rb") as fh:
        proc = mdcolo_child([
            "mine", "/dev/stdin", "--lifecycles", lifecycles, "-o", str(tmp_path / "stdin.txt"),
        ], stdin=fh)
    assert proc.returncode == 0, proc.stderr
    assert main(["mine", snapshots, "--lifecycles", lifecycles,
                 "-o", str(tmp_path / "path.txt")]) == 0
    assert read_bytes(tmp_path / "stdin.txt") == read_bytes(tmp_path / "path.txt")
    digest = hashlib.sha256(read_bytes(snapshots)).hexdigest()
    manifest = (tmp_path / "stdin.txt.manifest").read_text(encoding="utf-8")
    assert f"input: /dev/stdin\ninput_sha256: {digest}\n" in manifest


@pytest.mark.parametrize("command, case, code", [
    ("mine", "plain", 0),
    ("mine", "quoted", 0),
    ("mine", "missing life cycle", 2),
    ("mine", "unknown life cycle", 2),
    ("diff", "quoted", 0),
])
def test_no_file_is_left_open(dataset, tmp_path, command, case, code):
    # In development mode an unclosed file warns when it is collected; the
    # set path, the csv path and the errors that read a file again close
    # every file they open.
    snapshots, lifecycles = f"{dataset}.snapshots.csv", f"{dataset}.lifecycles.csv"
    header, first, *rest = Path(snapshots).read_text(encoding="utf-8").splitlines(keepends=True)
    if case == "quoted":
        t, feature, instance_id, x, y = first.split(",")
        snapshots = str(tmp_path / "quoted.csv")
        Path(snapshots).write_text(
            header + f'{t},{feature},"{instance_id}",{x},{y}' + "".join(rest), encoding="utf-8"
        )
    elif case != "plain":
        features = io.read_lifecycles_csv(lifecycles)
        features = features[:-1] if case == "missing life cycle" else features + [
            BaseFeature("Y", 1.0)
        ]
        lifecycles = str(tmp_path / "lc.csv")
        io.write_lifecycles_csv(lifecycles, features)
    argv = [command, snapshots, "-o", str(tmp_path / "out.txt")]
    if command == "mine":
        argv += ["--lifecycles", lifecycles]
    proc = mdcolo_child(argv, "-X", "dev", "-W", "error::ResourceWarning")
    assert proc.returncode == code, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


def write_lifecycles_text(path, features, life_cycle: str) -> None:
    path.write_text("feature,life_cycle\n" + "".join(f"{f.id},{life_cycle}\n" for f in features))


def mine_error_with_life_cycle(dataset, tmp_path, capsys, life_cycle: str) -> tuple[str, str]:
    """(life-cycle CSV path, stderr) of a mine whose every life cycle reads
    `life_cycle`; the mine must exit 2."""
    lc = tmp_path / "lc.csv"
    write_lifecycles_text(lc, io.read_lifecycles_csv(f"{dataset}.lifecycles.csv"), life_cycle)
    code = main(
        [
            "mine", f"{dataset}.snapshots.csv", "--lifecycles", str(lc),
            "-o", str(tmp_path / "out.txt"),
        ]
    )
    assert code == 2
    return str(lc), capsys.readouterr().err


def test_mine_infinite_life_cycle_exits_2(dataset, tmp_path, capsys):
    lc, err = mine_error_with_life_cycle(dataset, tmp_path, capsys, "inf")
    assert f"error: {lc}:2: life_cycle is not a finite number: 'inf'" in err
    assert err.count(f"{lc}:2:") == 1


def test_mine_non_numeric_life_cycle_exits_2(dataset, tmp_path, capsys):
    lc, err = mine_error_with_life_cycle(dataset, tmp_path, capsys, "abc")
    assert f"error: {lc}:2: life_cycle is not a number: 'abc'" in err
    assert err.count(f"{lc}:2:") == 1


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


def test_mine_tiny_time_span_finishes(dataset, tmp_path):
    # Every life cycle over 1e-310 overflows a float; the spans saturate.
    report = str(tmp_path / "patterns.txt")
    code = main(
        [
            "mine", f"{dataset}.snapshots.csv",
            "--lifecycles", f"{dataset}.lifecycles.csv",
            "-o", report, "--time-span", "1e-310",
        ]
    )
    assert code == 0
    assert "pattern_count: " in read_bytes(f"{report}.manifest").decode()


def test_gen_bad_life_cycle_exits_2(tmp_path, capsys):
    code = main(
        ["gen", "-o", str(tmp_path / "data"), "--features", "2", "--life-cycles", "9,abc"]
    )
    assert code == 2
    assert "error: --life-cycles: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("settings", [
    ["--area", "inf", "inf", "--cluster-radius", "inf"],
    ["--area", "1e300", "1e300", "--cluster-radius", "1e200"],
    ["--area", "1e200", "1e200"],
    ["--life-cycles", "inf,3,3,3,3,3,3,3,3,3"],
])
def test_gen_unrealizable_settings_exit_2_writing_nothing(tmp_path, settings):
    # A subprocess with a timeout, so a generator that never ends fails fast.
    proc = mdcolo_child(["gen", "-o", "g", "--instances", "50"] + settings, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


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


def test_bench_generates_each_dataset_once_per_run(tmp_path, monkeypatch):
    # Both algos mine one dataset per sweep point; a second run generates
    # its datasets again instead of finding the first run's still held.
    from mdcolo import datagen

    generated = []
    real_generate = datagen.generate

    def counting_generate(gen):
        generated.append(gen)
        return real_generate(gen)

    monkeypatch.setattr(datagen, "generate", counting_generate)
    spec = tmp_path / "sweep.txt"
    spec.write_text("instances=120,240\nfeatures=3\nclusters=2\narea=300\nalgos=mdc,join\n")
    for _ in range(2):
        generated.clear()
        assert main(["bench", str(spec), "-o", str(tmp_path / "b.csv")]) == 0
        assert len(generated) == len(set(generated)) == 2


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


def test_bench_bad_algo_exits_2_before_mining(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("algos=mdc,foo\ninstances=120\n")
    out = tmp_path / "b.csv"
    assert main(["bench", str(spec), "-o", str(out)]) == 2
    # No sweep point was mined: the error is all of stderr.
    assert capsys.readouterr().err == "error: sweep key 'algos': 'foo' is not one of mdc, join\n"
    assert not out.exists()


def test_bench_prune_values(tmp_path, capsys):
    # Only `on` and `off` name a pruning; the old p1 and p2 exit 2 alike.
    spec = tmp_path / "sweep.txt"
    for value in ("p1", "p2"):
        spec.write_text(f"prune=on,{value}\ninstances=120\n")
        assert main(["bench", str(spec), "-o", str(tmp_path / "b.csv")]) == 2
        assert f"'{value}' is not one of on, off" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()


def test_bench_rejects_sweeping_fixed_key(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("seed=1,2\n")
    assert main(["bench", str(spec), "-o", str(tmp_path / "b.csv")]) == 2
    assert "cannot be swept" in capsys.readouterr().err
