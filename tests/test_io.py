from __future__ import annotations

import pytest

from mdcolo import (
    BaseFeature,
    DataFormatError,
    Pattern,
    PatternResult,
    diff_snapshots,
    mine_snapshots,
)
from mdcolo.model import compute_spans
from mdcolo.neighborhood import neighbor_pairs
from mdcolo.size2 import participation_index
from mdcolo import io

from conftest import burst_snapshots, feat, shops_snapshots


def test_snapshot_roundtrip(tmp_path):
    path = str(tmp_path / "snaps.csv")
    original = shops_snapshots()
    io.write_snapshots_csv(path, original)
    loaded = io.read_snapshots_csv(path)
    assert diff_snapshots(loaded) == diff_snapshots(original)


def test_snapshot_write_is_byte_stable(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    io.write_snapshots_csv(a, shops_snapshots())
    io.write_snapshots_csv(b, list(reversed(shops_snapshots())))
    assert open(a, "rb").read() == open(b, "rb").read()


def test_snapshot_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,A,a1,1.0,2.0\n")
    with pytest.raises(DataFormatError, match="missing header"):
        io.read_snapshots_csv(str(path))


def test_snapshot_bad_number_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_point,feature,instance_id,x,y\n0,A,a1,oops,2.0\n")
    with pytest.raises(DataFormatError, match=r"bad\.csv:2"):
        io.read_snapshots_csv(str(path))


def test_snapshot_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_point,feature,instance_id,x,y\n0,A,a1,1.0\n")
    with pytest.raises(DataFormatError, match=":2"):
        io.read_snapshots_csv(str(path))


def test_series_csv_bytes(tmp_path):
    # Window 0 holds every event of the t=0 -> t=1 step, window 1 only a4's
    # appearance; ordinals follow instance ids, rows the canonical order.
    path = str(tmp_path / "series.csv")
    io.write_series_csv(path, diff_snapshots(burst_snapshots()))
    assert open(path, "rb").read() == (
        b"t_index,feature,kind,ordinal,x,y\n"
        b"0,A,new,1,-0.4,1.9\n"
        b"0,A,dead,1,1.8,0.0\n"
        b"0,A,dead,2,-1.8,0.0\n"
        b"0,B,new,1,0.0,0.0\n"
        b"0,B,new,2,3.3,1.0\n"
        b"0,B,dead,1,-3.6,-0.4\n"
        b"0,C,new,1,-0.8,3.7\n"
        b"0,C,dead,1,60.0,60.0\n"
        b"0,C,dead,2,0.9,-1.55\n"
        b"1,A,new,2,50.0,50.0\n"
    )


def test_lifecycles_roundtrip(tmp_path):
    path = str(tmp_path / "lc.csv")
    features = [BaseFeature("A", 9.0), BaseFeature("B", 3.0)]
    io.write_lifecycles_csv(path, features)
    assert io.read_lifecycles_csv(path) == features


def test_lifecycles_duplicate_feature(tmp_path):
    path = tmp_path / "lc.csv"
    path.write_text("feature,life_cycle\nA,9.0\nA,3.0\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        io.read_lifecycles_csv(str(path))


def test_lifecycles_missing_header(tmp_path):
    path = tmp_path / "lc.csv"
    path.write_text("A,9.0\n")
    with pytest.raises(DataFormatError, match="missing header"):
        io.read_lifecycles_csv(str(path))


def test_pattern_report_format():
    results = [
        PatternResult(Pattern([feat("B_new"), feat("A_dead")]), 0.5, 3, True),
        PatternResult(
            Pattern([feat("A_new"), feat("B_new"), feat("C_dead")]), 1 / 3, 7, False
        ),
    ]
    text = io.format_pattern_report(results)
    lines = text.splitlines()
    assert lines == [
        f"A_new,B_new,C_dead;3;{1 / 3!r};7;false",
        "A_dead,B_new;2;0.5;3;true",
    ]
    assert text.endswith("\n")


def test_pattern_report_empty():
    assert io.format_pattern_report([]) == ""


def test_pattern_report_write(tmp_path):
    path = str(tmp_path / "report.txt")
    results = [PatternResult(Pattern([feat("A_new"), feat("B_new")]), 0.25, 4, True)]
    io.write_pattern_report(path, results)
    assert open(path, "rb").read() == b"A_new,B_new;2;0.25;4;true\n"


def test_manifest_write(tmp_path):
    path = str(tmp_path / "run.manifest")
    io.write_manifest(path, {"algo": "mdc", "d_d": 35.0, "patterns": 4})
    text = open(path, encoding="utf-8").read()
    assert text == "algo: mdc\nd_d: 35.0\npatterns: 4\n"


def test_pairs_csv(tmp_path, lifecycles, config):
    series = diff_snapshots(burst_snapshots())
    life = {f.id: f.life_cycle for f in lifecycles}
    spans = compute_spans(series.features(), life, config.time_span)
    pairs = neighbor_pairs(series, spans, config)
    path = str(tmp_path / "pairs.csv")
    io.write_pairs_csv(path, pairs)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "feature_a,ordinal_a,t_a,feature_b,ordinal_b,t_b,distance"
    assert len(lines) == len(pairs) + 1
    first = lines[1].split(",")
    assert first[0] == "A_new" and first[3] == "B_new"
    assert float(first[6]) <= config.d_d


def test_size2_report_csv(tmp_path, lifecycles, config):
    outcome = mine_snapshots(burst_snapshots(), lifecycles, config)
    tables = outcome.tables
    dpis = {pat: participation_index(t, outcome.counts) for pat, t in tables.items()}
    path = str(tmp_path / "size2.csv")
    io.write_size2_report_csv(path, tables, dpis)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "pattern,dpi,rows"
    assert any(line.startswith("A_dead|B_new,1.0,3") for line in lines)


def test_sweep_spec(tmp_path):
    path = tmp_path / "sweep.txt"
    path.write_text(
        "# sweep over instance budget\n"
        "instances=100,200,400\n"
        "dd=35\n"
        "\n"
        "algos=mdc,join\n"
    )
    spec = io.read_sweep_spec(str(path))
    assert spec == {
        "instances": ["100", "200", "400"],
        "dd": ["35"],
        "algos": ["mdc", "join"],
    }


def test_sweep_spec_errors(tmp_path):
    bad_line = tmp_path / "a.txt"
    bad_line.write_text("instances\n")
    with pytest.raises(DataFormatError):
        io.read_sweep_spec(str(bad_line))

    dup = tmp_path / "b.txt"
    dup.write_text("dd=1\ndd=2\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        io.read_sweep_spec(str(dup))

    empty = tmp_path / "c.txt"
    empty.write_text("dd=\n")
    with pytest.raises(DataFormatError):
        io.read_sweep_spec(str(empty))


HEADER = "t_point,feature,instance_id,x,y\n"


@pytest.mark.parametrize("row, message", [
    ("0,A,a1,1.0", "expected 5 columns, got 4"),
    ("0,A,a1,1.0,2.0,3.0", "expected 5 columns, got 6"),
    ("zero,A,a1,1.0,2.0", "t_point is not an integer: 'zero'"),
    ("0,,a1,1.0,2.0", "empty feature id"),
    ("0,A,,1.0,2.0", "empty instance id"),
    ("0,A,a1,oops,2.0", "x is not a number: 'oops'"),
    ("0,A,a1,1.0,", "y is not a number: ''"),
    ("0,A,a1,nan,2.0", "x is not a finite number: 'nan'"),
    ("0,A,a1,1.0,-inf", "y is not a finite number: '-inf'"),
    ("0,A,a1,-1e151,2.0", "coordinates beyond +-1e+150: x='-1e151', y='2.0'"),
    ("0,A,a1,1.0,1e300", "coordinates beyond +-1e+150: x='1.0', y='1e300'"),
    # Fields are checked in column order, so the first bad one is named.
    ("zero,,a1,oops,2.0", "t_point is not an integer: 'zero'"),
    (",A,,1e999,2.0", "t_point is not an integer: ''"),
    ("0,,,1.0,2.0", "empty feature id"),
])
def test_snapshot_record_errors_name_path_and_line(tmp_path, row, message):
    # A blank row still counts as a line.
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "0,A,a0,0.0,0.0\n\n" + row + "\n1,A,a0,0.0,0.0\n")
    with pytest.raises(DataFormatError) as exc:
        io.read_snapshots_csv(str(path))
    assert str(exc.value) == f"{path}:4: {message}"


def test_snapshot_reader_groups_interleaved_t_points(tmp_path):
    # Rows need not come grouped by t_point; blank rows are skipped.
    path = tmp_path / "snaps.csv"
    path.write_text(HEADER + "1,A,a1,1.0,2.0\n0,B,b1,3.0,4.0\n\n1,B,b2,-5.0,1e150\n0,A,a2,0,-0\n")
    snaps = io.read_snapshots_csv(str(path))
    assert [(s.t_point, s.records) for s in snaps] == [
        (0, (("B", "b1", 3.0, 4.0), ("A", "a2", 0.0, -0.0))),
        (1, (("A", "a1", 1.0, 2.0), ("B", "b2", -5.0, 1e150))),
    ]
