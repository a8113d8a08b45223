"""The set-based snapshot front end against the library path.

`mdcolo diff` and `mdcolo mine` read a snapshot CSV through
`io.read_series`, which diffs a file grouped by contiguous ascending
t_points as sets of line texts while it reads it, and hands any file it
cannot be sure of to `read_snapshots_csv` and `diff_snapshots`.  Either way
a run must write what the library path writes, or fail with its message;
`mine` reads the life cycles first."""

from __future__ import annotations

import contextlib
import csv
import io as textio
import tempfile
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from mdcolo import (
    ConfigError, DataFormatError, GenConfig, MiningConfig, diff_snapshots, generate, io,
)
from mdcolo.cli import main
from mdcolo.model import compute_spans
from mdcolo.neighborhood import neighbor_pairs
from mdcolo.snapshots import DynamicDatasetSeries

from conftest import forbid_instances, forbid_snapshots

SETTINGS = settings(max_examples=150, deadline=None, database=None)

FEATURES = ["A", "B", "C,D"]
# Quoted ids, one spanning two physical lines.
IDS = ["1", "2", 'x"y', "p\nq"]
KEYS = [(f, i) for f in FEATURES for i in IDS]
# Keys that need no quotes, so that a file can take the set path.
PLAIN_KEYS = [(f, i) for f in ["A", "B", "C"] for i in ["1", "2", "x", "q"]]
# "1.0" and "1.00" are one number written two ways.
COORDS = ["0", "1.0", "1.00", "2.5", "-3", "1e2"]
BAD = ["zz", "nan", "1e300", ""]


@st.composite
def snapshot_files(
    draw, keys=KEYS, clean: bool = False
) -> tuple[str, list[list[str]], bool]:
    """Snapshot CSV text of 1-4 t_points that mostly repeat the records of
    the t_point before, grouped ascending, descending or interleaved, with
    at times a gap, a duplicate key, a bad coordinate on a key that was
    valid the t_point before, t_points written two ways, and blank rows;
    the records it wrote as text fields in file order, and whether it
    inserted blank rows.  With `clean`, t_points written as `+t` and blank
    rows come in a third of the files each, so that more files hold
    neither."""
    signs = not clean or draw(st.sampled_from(range(3))) == 0
    start = draw(st.integers(-1, 2))
    groups: list[list[list[str]]] = []
    last: dict[tuple[str, str], tuple[str, str]] = {}
    for k in range(draw(st.sampled_from([1, 2, 3, 3, 4, 4]))):
        rows = []
        for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6, unique=True)):
            if key in last and draw(st.sampled_from(range(4))):
                x, y = last[key]
            else:
                x, y = draw(st.sampled_from(COORDS)), draw(st.sampled_from(COORDS))
            rows.append([start + k, *key, x, y])
        last = {(r[1], r[2]): (r[3], r[4]) for r in rows}
        groups.append(rows)
    flat = [(k, i) for k, rows in enumerate(groups) for i in range(len(rows))]
    if flat and draw(st.sampled_from(range(8))) == 0:
        k, i = draw(st.sampled_from(flat))
        duplicate = list(groups[k][i])
        if draw(st.booleans()):
            duplicate[3] = draw(st.sampled_from(COORDS))
        groups[k].insert(draw(st.integers(0, len(groups[k]))), duplicate)
    if flat and draw(st.sampled_from(range(8))) == 0:
        k, i = draw(st.sampled_from(flat))
        groups[k][i][draw(st.sampled_from([3, 4]))] = draw(st.sampled_from(BAD))
    if len(groups) > 1 and draw(st.sampled_from(range(8))) == 0:
        for rows in groups[draw(st.integers(1, len(groups) - 1)):]:
            for row in rows:
                row[0] += 1
    for rows in groups:
        for row in rows:
            t = row[0]
            plus = signs and t >= 0 and draw(st.sampled_from(range(6))) == 0
            row[0] = f"+{t}" if plus else str(t)
    order = draw(st.sampled_from(["ascending"] * 3 + ["descending", "interleaved"]))
    if order == "descending":
        groups.reverse()
    rows = [row for group in groups for row in group]
    if order == "interleaved":
        rows = draw(st.permutations(rows))
    out = textio.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    lines = out.getvalue().splitlines(keepends=True)
    blanks = draw(st.integers(0, 2)) if not clean or draw(st.sampled_from(range(3))) == 0 else 0
    for _ in range(blanks):
        lines.insert(draw(st.integers(0, len(lines))), "\n")
    return "t_point,feature,instance_id,x,y\n" + "".join(lines), rows, blanks > 0


def set_path_serves(rows: list[list[str]], blanks: bool) -> bool:
    """Whether `io.read_series` must diff a file of these plain records
    without the csv module: no blank row, every t_point written as
    `str(int)` and grouped contiguous ascending, at least two t_points, no
    key twice in one t_point, and every record valid."""
    ts = [int(row[0]) for row in rows]
    keys = {(t, row[1], row[2]) for row, t in zip(rows, ts)}
    return (
        not blanks
        and all(row[0] == str(t) for row, t in zip(rows, ts))
        and all(b - a in (0, 1) for a, b in zip(ts, ts[1:]))
        and len(set(ts)) >= 2
        and len(keys) == len(rows)
        and all(row[3] in COORDS and row[4] in COORDS for row in rows)
    )


def library_diff(path: str, output: str) -> tuple[int, str]:
    """What `mdcolo diff` did when it read the whole file and then diffed
    it: the exit status and stderr; the series goes to `output`."""
    try:
        snapshots = io.read_snapshots_csv(path)
        with io.located(path):
            series = diff_snapshots(snapshots)
    except (ConfigError, DataFormatError) as exc:
        return 2, f"error: {exc}\n"
    io.write_series_csv(output, series)
    n = sum(len(w) for w in series.windows)
    return 0, f"{len(snapshots)} snapshots -> {series.window_count} windows, {n} dynamic instances\n"


def assert_diff_equals_the_library_path(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snaps.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = library_diff(str(path), str(Path(tmp) / "expected.csv"))
        err = textio.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["diff", str(path), "-o", str(Path(tmp) / "got.csv")])
        assert (code, err.getvalue()) == expected
        if code == 0:
            assert (Path(tmp) / "got.csv").read_bytes() == (
                Path(tmp) / "expected.csv"
            ).read_bytes()


@SETTINGS
@given(snapshot_files())
def test_diff_equals_the_library_path(drawn):
    assert_diff_equals_the_library_path(drawn[0])


# Blocks of 1 and 7 characters cut lines and t_point boundaries anywhere.
@pytest.mark.parametrize("block", [1, 7, 64])
@SETTINGS
@given(snapshot_files(PLAIN_KEYS, clean=True))
def test_plain_files_take_the_set_path(block, drawn):
    text, rows, blanks = drawn
    with mock.patch.object(io, "_BLOCK", block):
        assert_diff_equals_the_library_path(text)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snaps.csv"
            path.write_text(text, encoding="utf-8", newline="")
            streamed = io._stream(str(path))
            assert (streamed is not None) == set_path_serves(rows, blanks)


@pytest.mark.parametrize("command", ["mine", "diff"])
def test_a_later_format_error_beats_an_earlier_duplicate(tmp_path, capsys, command):
    snaps = tmp_path / "snaps.csv"
    snaps.write_text(
        "t_point,feature,instance_id,x,y\n0,A,1,0,0\n0,A,1,1,1\n0,B,1,0,0\n0,B,2,0,0\n"
        "1,A,1,0,0\n1,B,1,0,0\n1,B,2,0,0\n1,A,2,zz,0\n"
    )
    lc = tmp_path / "lc.csv"
    lc.write_text("feature,life_cycle\nA,3\nB,3\n")
    extra = ["--lifecycles", str(lc)] if command == "mine" else []
    assert main([command, str(snaps), "-o", str(tmp_path / "out")] + extra) == 2
    assert capsys.readouterr().err == f"error: {snaps}:9: x is not a number: 'zz'\n"


def test_a_life_cycle_error_beats_too_few_snapshots(tmp_path, capsys):
    snaps = tmp_path / "snaps.csv"
    snaps.write_text("t_point,feature,instance_id,x,y\n0,A,1,0,0\n0,B,1,1,1\n")
    lc = tmp_path / "lc.csv"
    lc.write_text("feature,life_cycle\nA,3\nB,zz\n")
    assert main(["mine", str(snaps), "--lifecycles", str(lc), "-o", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {lc}:3: life_cycle is not a number: 'zz'\n"


@pytest.mark.parametrize("life_cycle, extra, message", [
    ("yy", [], "{lc}:2: life_cycle is not a number: 'yy'"),
    ("3", ["--dd", "-1"], "d_d must be positive and finite, got -1.0"),
], ids=["life-cycle", "setting"])
def test_life_cycles_and_settings_beat_a_snapshot_format_error(
    tmp_path, capsys, life_cycle, extra, message
):
    snaps = tmp_path / "snaps.csv"
    snaps.write_text("t_point,feature,instance_id,x,y\n0,A,1,0,0\n1,A,1,zz,0\n")
    lc = tmp_path / "lc.csv"
    lc.write_text(f"feature,life_cycle\nA,{life_cycle}\n")
    argv = ["mine", str(snaps), "--lifecycles", str(lc), "-o", str(tmp_path / "o")]
    assert main(argv + extra) == 2
    assert capsys.readouterr().err == f"error: {message.format(lc=lc)}\n"


def test_a_grouped_file_builds_no_snapshots(tmp_path, monkeypatch):
    prefix = str(tmp_path / "data")
    assert main([
        "gen", "-o", prefix, "--instances", "300", "--features", "4",
        "--life-cycles", "9,3,30,15", "--area", "400", "400", "--seed", "5",
    ]) == 0
    grouped = f"{prefix}.snapshots.csv"
    header, *rows = Path(grouped).read_text(encoding="utf-8").splitlines(keepends=True)
    interleaved = tmp_path / "interleaved.csv"
    interleaved.write_text(header + "".join(rows[1::2] + rows[::2]), encoding="utf-8")

    def mine(path: str, report: str) -> int:
        return main([
            "mine", path, "--lifecycles", f"{prefix}.lifecycles.csv",
            "-o", str(tmp_path / report), "--pairs-dump", str(tmp_path / f"{report}.pairs"),
        ])

    forbid_snapshots(monkeypatch)
    assert mine(grouped, "grouped.txt") == 0
    # An interleaved file is read whole, into snapshots.
    with pytest.raises(AssertionError, match="snapshot t=.* was built"):
        mine(str(interleaved), "interleaved.txt")
    monkeypatch.undo()
    assert mine(str(interleaved), "interleaved.txt") == 0
    for name in ("grouped.txt", "grouped.txt.pairs"):
        assert (tmp_path / name).read_bytes() == (
            tmp_path / name.replace("grouped", "interleaved")
        ).read_bytes()
    assert (tmp_path / "grouped.txt").read_bytes()


def generated_traffic(tmp_path: Path) -> tuple[Path, Path, Path]:
    """What `mdcolo gen` and the benchmark write, as a snapshot CSV of more
    than one block, so lines and t_points straddle block cuts; the same
    records with one instance id written quoted, which the csv module
    reads; and the life-cycle CSV."""
    gen = GenConfig(area=(300.0, 300.0), n_dynamic_instances=1500, seed=4)
    snapshots, _ = generate(gen)
    plain = tmp_path / "plain.csv"
    io.write_snapshots_csv(str(plain), snapshots)
    lifecycles = tmp_path / "lc.csv"
    io.write_lifecycles_csv(str(lifecycles), gen.base_features())
    assert plain.stat().st_size > io._BLOCK
    header, first, *rest = plain.read_text(encoding="utf-8").splitlines(keepends=True)
    t, feature, instance_id, x, y = first.split(",")
    quoted = tmp_path / "quoted.csv"
    quoted.write_text(
        header + f'{t},{feature},"{instance_id}",{x},{y}' + "".join(rest), encoding="utf-8"
    )
    return plain, quoted, lifecycles


def test_generated_traffic_takes_the_set_path(tmp_path, monkeypatch):
    plain, quoted, lifecycles = generated_traffic(tmp_path)

    def mine(path, name: str) -> int:
        return main([
            "mine", str(path), "--lifecycles", str(lifecycles), "--dd", "6",
            "-o", str(tmp_path / name), "--pairs-dump", str(tmp_path / f"{name}.pairs"),
        ])

    forbid_snapshots(monkeypatch)
    assert mine(plain, "plain.txt") == 0
    with pytest.raises(AssertionError, match="snapshot t=.* was built"):
        mine(quoted, "quoted.txt")
    monkeypatch.undo()
    assert mine(quoted, "quoted.txt") == 0
    for name in ("plain.txt", "plain.txt.pairs"):
        assert (tmp_path / name).read_bytes() == (
            tmp_path / name.replace("plain", "quoted")
        ).read_bytes()
    assert (tmp_path / "plain.txt").read_bytes()


def test_generated_traffic_builds_no_instances(tmp_path, monkeypatch):
    # The diff hands over columns, and a mine, its dumps, `mdcolo diff` and
    # `mdcolo bench` read them, on either reader path and either algorithm.
    plain, quoted, lifecycles = generated_traffic(tmp_path)
    # One bench point, mined by both algorithms from generated snapshots.
    spec = tmp_path / "spec.txt"
    spec.write_text("instances=300\nfeatures=3\nclusters=2\narea=300\ndd=20\n")

    def mine(path, name: str, *extra: str) -> int:
        return main([
            "mine", str(path), "--lifecycles", str(lifecycles), "--dd", "6",
            "-o", str(tmp_path / name), "--size2-report", str(tmp_path / f"{name}.size2"),
            "--pairs-dump", str(tmp_path / f"{name}.pairs"), *extra,
        ])

    forbid_instances(monkeypatch)
    assert mine(plain, "plain.txt", "--derive-all") == 0
    assert mine(quoted, "quoted.txt", "--derive-all") == 0
    assert mine(plain, "join.txt", "--algo", "join") == 0
    assert main(["diff", str(plain), "-o", str(tmp_path / "series.csv")]) == 0
    assert main(["bench", str(spec), "-o", str(tmp_path / "bench.csv")]) == 0
    monkeypatch.undo()
    assert (tmp_path / "bench.csv").read_text().count("\n") == 3
    for suffix in ("", ".size2", ".pairs"):
        for name in ("quoted.txt", "join.txt"):
            assert (tmp_path / f"plain.txt{suffix}").read_bytes() == (
                tmp_path / f"{name}{suffix}"
            ).read_bytes()
    assert (tmp_path / "plain.txt").read_text().count("\n") > 1

    # The same files through instance objects: the series built from its
    # windows, and the dump written from instance pairs.
    series = DynamicDatasetSeries(io.read_series(str(plain))[0].windows)
    io.write_series_csv(str(tmp_path / "windows.csv"), series)
    assert (tmp_path / "windows.csv").read_bytes() == (tmp_path / "series.csv").read_bytes()
    life = {f.id: f.life_cycle for f in io.read_lifecycles_csv(str(lifecycles))}
    config = MiningConfig(d_d=6.0, min_prev=0.1, time_span=3.0)
    pairs = neighbor_pairs(series, compute_spans(series.features(), life, 3.0), config)
    io.write_pairs_csv(str(tmp_path / "instances.pairs"), pairs)
    assert (tmp_path / "instances.pairs").read_bytes() == (
        tmp_path / "plain.txt.pairs"
    ).read_bytes()
