"""Every input the readers take ends in a report or exit status 2.

A Hypothesis strategy writes snapshot and life-cycle CSV text from a grammar
of mostly valid records (t_points 0-3, features A-D, ids 1-5, coordinates
0-20, at most 50 records), then mutates it: empty fields, wrong column
counts, integers with `_`, spaces or non-ASCII digits, `inf`, `nan`, huge
and subnormal numbers, quotes and unterminated quotes, NUL, a BOM, CRLF,
blank rows, duplicates, gaps, huge t_points and oversize fields.  `mdcolo
mine` and `mdcolo diff` run in process on each input under an alarm, so a
hang fails in seconds.  Each must exit 0, or exit 2 with one stderr line
that names the file at fault; a fixed input checks that a feature id
holding a line break is escaped in that line.  Planted co-locations of
twelve and fifteen one-instance features, whose every subset is prevalent,
and twelve features whose pairs are all prevalent with no triple, in a
complete or a Moon-Moser feature graph, run as fixed cases through both
mining routes under the same alarm."""

from __future__ import annotations

import contextlib
import csv
import io as textio
import signal
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from mdcolo import io
from mdcolo.cli import main

from conftest import pairs_only, planted

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")

# A failure prints the blob that replays its example (`@reproduce_failure`).
SETTINGS = settings(max_examples=150, deadline=None, database=None, print_blob=True)
ALARM_S = 10

KEYS = [(f, str(i)) for f in "ABCD" for i in range(1, 6)]
LIFE_CYCLES = ["1", "2.5", "3", "6", "9"]
# Integer texts: `_` and spaces, non-ASCII digits, signs and other bases.
INT_FORMS = ["1_0", " 1", "1 ", "\u0661", "\uff11", "\u00b2", "+1", "-0", "0x1", "1.0", "9" * 40,
             "9" * 5000]
# Number texts: non-finite, huge, subnormal and signed zero.
NUMBERS = ["inf", "-inf", "nan", "NaN", "1e308", "-1e308", "1e309", "5e-324", "1e-320",
           "2.2250738585072014e-308", "-0.0", "1e2"]
HUGE_T = 10**30
SNAPSHOT_HEADER = "t_point,feature,instance_id,x,y"
LIFECYCLE_HEADER = "feature,life_cycle"


class Hang(Exception):
    """A command that ran past its alarm."""


@contextlib.contextmanager
def alarm(seconds: int):
    def expire(signum, frame):
        raise Hang(f"no exit within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def coordinate(draw) -> str:
    return draw(st.sampled_from([str(draw(st.integers(0, 20))), f"{draw(st.floats(0, 20)):.3f}"]))


def snapshot_rows(draw) -> list[list[str]]:
    """2-4 t_points in ascending order, each of distinct keys that mostly
    keep the coordinates they had the t_point before."""
    rows: list[list[str]] = []
    last: dict[tuple[str, str], tuple[str, str]] = {}
    for t in range(draw(st.integers(2, 4))):
        keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=12, unique=True))
        now = {}
        for key in keys:
            if key in last and draw(st.integers(0, 3)):
                now[key] = last[key]
            else:
                now[key] = (coordinate(draw), coordinate(draw))
            rows.append([str(t), *key, *now[key]])
        last = now
    return rows


def lifecycle_rows(draw) -> list[list[str]]:
    return [[f, draw(st.sampled_from(LIFE_CYCLES))] for f in "ABCD"]


def mutate_field(draw, rows: list[list[str]], columns: list[int], values: list[str]) -> None:
    row = draw(st.sampled_from(rows))
    column = draw(st.sampled_from([c for c in columns if c < len(row)] or [0]))
    if row:
        row[column] = draw(st.sampled_from(values))


def t_point(row: list[str]) -> int:
    """The row's t_point as the grammar wrote it, or -1."""
    text = row[0] if row else ""
    return int(text) if text.isascii() and text.isdigit() and len(text) < 40 else -1


def mutate(draw, rows: list[list[str]], ints: list[int], numbers: list[int], snapshot: bool) -> str:
    """Apply one mutation to the rows of one file, in place; returns the
    mutation, which for `bom` and `crlf` the caller applies to the text."""
    kinds = ["empty", "columns", "int", "number", "quote", "unterminated", "nul", "bom", "crlf",
             "blank", "drop", "duplicate", "oversize", "shuffle"]
    kinds += ["gap", "huge_t"] if snapshot else ["unknown"]
    kind = draw(st.sampled_from(kinds))
    if not rows:
        rows.append(["0", "A", "1", "0", "0"] if snapshot else ["A", "3"])
    row = draw(st.sampled_from(rows))
    column = draw(st.integers(0, max(len(row) - 1, 0)))
    if kind == "empty" and row:
        row[column] = ""
    elif kind == "columns":
        if row and draw(st.booleans()):
            del row[column]
        else:
            row.append(draw(st.sampled_from(["", "0", "x"])))
    elif kind == "int":
        mutate_field(draw, rows, ints or numbers, INT_FORMS)
    elif kind == "number":
        mutate_field(draw, rows, numbers, NUMBERS)
    elif kind == "quote" and row:
        row[column] = draw(st.sampled_from([f'"{row[column]}"', f'{row[column]}"x', '"a,b"',
                                            '"a\nb"', '""']))
    elif kind == "unterminated" and row:
        row[column] = '"' + row[column]
    elif kind == "nul" and row:
        row[column] = draw(st.sampled_from(["\0", row[column] + "\0", "\0" + row[column]]))
    elif kind == "blank":
        rows.insert(draw(st.integers(0, len(rows))), [])
    elif kind == "drop":
        rows.remove(row)
    elif kind == "duplicate":
        copy = list(row)
        if len(copy) == 5 and draw(st.booleans()):
            copy[3] = coordinate(draw)
        rows.insert(draw(st.integers(0, len(rows))), copy)
    elif kind == "oversize" and row:
        row[column] = "9" * (csv.field_size_limit() + 1)
    elif kind == "shuffle":
        rows[:] = draw(st.permutations(rows))
    elif kind == "gap":
        cut = draw(st.integers(0, 3))
        for r in rows:
            if t_point(r) >= cut:
                r[0] = str(t_point(r) + 1)
    elif kind == "huge_t":
        for r in rows if draw(st.booleans()) else [row]:
            if t_point(r) >= 0:
                r[0] = str(t_point(r) + HUGE_T)
    elif kind == "unknown":
        rows.append(["E", "3"])
    return kind


def text(header: str, rows: list[list[str]], kinds: set[str]) -> str:
    out = header + "\n" + "".join(",".join(row) + "\n" for row in rows)
    if "crlf" in kinds:
        out = out.replace("\n", "\r\n")
    return "\ufeff" + out if "bom" in kinds else out


@st.composite
def inputs(draw) -> tuple[str, str]:
    """A snapshot CSV and a life-cycle CSV, mutated 0-3 times in all."""
    snaps, lifecycles = snapshot_rows(draw), lifecycle_rows(draw)
    snap_kinds, lifecycle_kinds = set(), set()
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 3)):
            snap_kinds.add(mutate(draw, snaps, [0, 2], [3, 4], snapshot=True))
        else:
            lifecycle_kinds.add(mutate(draw, lifecycles, [], [1], snapshot=False))
    return (
        text(SNAPSHOT_HEADER, snaps, snap_kinds),
        text(LIFECYCLE_HEADER, lifecycles, lifecycle_kinds),
    )


def run(argv: list[str]) -> tuple[int, str]:
    err = textio.StringIO()
    with alarm(ALARM_S), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(code: int, err: str, *paths: str) -> None:
    assert code in (0, 2), err
    if code == 2:
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert err.startswith(tuple(f"error: {p}" for p in paths)), err


@SETTINGS
@given(inputs(), st.sampled_from([[], [], ["--derive-all"], ["--algo", "join"]]))
def test_every_input_ends_in_a_report_or_exit_2(files, extra):
    with tempfile.TemporaryDirectory() as tmp:
        snaps, lifecycles, out = Path(tmp) / "snaps.csv", Path(tmp) / "lc.csv", Path(tmp) / "out"
        snaps.write_text(files[0], encoding="utf-8", newline="")
        lifecycles.write_text(files[1], encoding="utf-8", newline="")
        code, err = run([
            "mine", str(snaps), "--lifecycles", str(lifecycles), "-o", str(out),
            "--dd", "5", "--min-prev", "0.3", *extra,
        ])
        check(code, err, str(snaps), str(lifecycles))
        if code == 0:
            assert out.exists()
        code, err = run(["diff", str(snaps), "-o", str(out)])
        check(code, err, str(snaps))


def test_an_error_quoting_a_line_break_stays_on_one_line(tmp_path):
    # A feature id holding a line break, with dynamic instances and no life
    # cycle: the message that names it escapes the break.
    snaps, lc, out = tmp_path / "s.csv", tmp_path / "lc.csv", tmp_path / "out"
    snaps.write_text(
        SNAPSHOT_HEADER + '\n1,C,1,0.0,0.0\n2,"A\nB",1,0.0,0.0\n2,C,1,0.0,0.0\n',
        encoding="utf-8",
    )
    lc.write_text(LIFECYCLE_HEADER + "\nC,3\n", encoding="utf-8")
    code, err = run(["mine", str(snaps), "--lifecycles", str(lc), "-o", str(out), "--dd", "5"])
    assert (code, err) == (2, f"error: {snaps}:4: no life cycle given for feature(s): A\\nB\n")


@pytest.mark.parametrize("k, extra, reported", [
    pytest.param(12, [], 1, id="extra0-1"),
    pytest.param(12, ["--algo", "join"], 4083, id="extra1-4083"),
    pytest.param(15, [], 1, id="k15-extra0-1"),
    pytest.param(15, ["--algo", "join"], 32752, id="k15-extra1-32752"),
])
def test_a_planted_co_location_ends_in_one_maximal_pattern(tmp_path, k, extra, reported):
    # k one-instance features at one point: all 2^k - k - 1 of their subsets
    # of two or more features are prevalent, and the whole set is maximal.
    # The maximal route reports that one; the level-wise route reports all.
    snapshots, lifecycles = planted(k)
    snaps, lc, out = tmp_path / "snaps.csv", tmp_path / "lc.csv", tmp_path / "out"
    io.write_snapshots_csv(str(snaps), snapshots)
    io.write_lifecycles_csv(str(lc), lifecycles)
    code, err = run([
        "mine", str(snaps), "--lifecycles", str(lc), "-o", str(out),
        "--dd", "1", "--min-prev", "0.1", *extra,
    ])
    assert code == 0, err
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.endswith(";true")] == [
        ",".join(f"G{i}_new" for i in sorted(range(k), key=str)) + f";{k};1.0;1;true"
    ]
    assert len(lines) == reported


@pytest.mark.parametrize("extra", [[], ["--algo", "join"]], ids=["mdc", "join"])
@pytest.mark.parametrize("groups", [False, True], ids=["all-pairs", "moon-moser"])
def test_pairs_without_a_triple_end_in_the_pairs(tmp_path, groups, extra):
    # Twelve features whose pairs are prevalent and whose triples have no
    # row: a failed clique descends through every subset of its features,
    # and both routes report exactly the pairs, each maximal.
    k = 12
    snapshots, lifecycles = pairs_only(k, groups)
    snaps, lc, out = tmp_path / "snaps.csv", tmp_path / "lc.csv", tmp_path / "out"
    io.write_snapshots_csv(str(snaps), snapshots)
    io.write_lifecycles_csv(str(lc), lifecycles)
    code, err = run([
        "mine", str(snaps), "--lifecycles", str(lc), "-o", str(out),
        "--dd", "5", "--min-prev", "0.01", *extra,
    ])
    assert code == 0, err
    # Each feature has one instance per partner, and each takes part once.
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k) if not (groups and i // 3 == j // 3)]
    dpi = 1 / (k - 3 if groups else k - 1)
    labels = sorted(tuple(sorted((f"F{i}", f"F{j}"))) for i, j in pairs)
    assert out.read_text(encoding="utf-8") == "".join(
        f"{a}_new,{b}_new;2;{dpi!r};1;true\n" for a, b in labels
    )
    assert len(labels) == (54 if groups else 66)
