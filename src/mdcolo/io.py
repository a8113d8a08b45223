"""File formats: snapshot and series CSVs, life cycles, reports, manifests.

All writers emit LF line endings and repr-faithful floats so identical inputs
produce byte-identical files on every platform.  The CSV writers format each
row as one string and write it at once, the snapshot writer in joined chunks of
`_CHUNK` lines, so no file is held in memory; a text field is quoted as
`_field` says.  The snapshot writer formats a record that recurs at many
t_points once.  Readers report problems with one-based physical line
numbers.  `read_series` diffs a snapshot CSV grouped by t_point while it
reads it, one t_point's set of line texts against the next, and reads any
file it cannot be sure of with the csv module.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

from .model import BaseFeature, DataFormatError, MissingLifeCycleError
from .neighborhood import MAX_COORDINATE, Join, NeighborPair
from .snapshots import (
    DuplicateInstanceError,
    DynamicDatasetSeries,
    EventLog,
    Key,
    Snapshot,
    SnapshotGapError,
    SnapshotRecord,
    diff_snapshots,
)
from .verify import PatternResult

SNAPSHOT_HEADER = ["t_point", "feature", "instance_id", "x", "y"]
SERIES_HEADER = ["t_index", "feature", "kind", "ordinal", "x", "y"]
LIFECYCLE_HEADER = ["feature", "life_cycle"]
PAIRS_HEADER = ["feature_a", "ordinal_a", "t_a", "feature_b", "ordinal_b", "t_b", "distance"]
SIZE2_HEADER = ["pattern", "dpi", "rows"]
BENCH_HEADER = ["param", "value", "algo", "maximal_count", "prevalent_count", "millis"]

# The characters `read_series` reads at a time, and the lines
# `write_snapshots_csv` writes at a time.
_BLOCK = 1 << 16
_CHUNK = 256


@contextmanager
def _open_reader(path: str):
    """The file opened for reading as UTF-8; a byte that does not decode is a
    DataFormatError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc.reason}") from None


@contextmanager
def _open_csv(path: str):
    """A csv reader over the file; a record the csv module rejects, such as
    a field over its size limit, is a DataFormatError naming the file and
    line.  Errors name `reader.line_num`, the physical line a record ends
    on, so a quoted field that spans lines shifts no later line."""
    with _open_reader(path) as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None


@contextmanager
def _open_writer(path: str, header: list[str]):
    """The file opened for writing as UTF-8 with its header line written;
    yields the file's `write`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        yield fh.write


def _field(text: str) -> str:
    """`text` as one CSV field: quoted, with its quotes doubled, when it
    holds a `,`, `"`, `\\n` or `\\r`.  That is what `csv.writer` with an LF
    line terminator writes, except that csv.writer leaves a `\\r` bare and
    the csv reader then splits the record there."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


class _Fields(dict):
    """Key -> `_field(text(key))`, computed on a key's first lookup, so a
    writer quotes each feature's label once rather than once per row."""

    __slots__ = ("text",)

    def __init__(self, text: Callable[[Any], str] = str):
        self.text = text

    def __missing__(self, key) -> str:
        self[key] = field = _field(self.text(key))
        return field


def _check_header(row: list[str] | None, expected: list[str], path: str) -> None:
    if row != expected:
        raise DataFormatError(
            f"{path}:1: missing header; expected {','.join(expected)!r}, "
            f"got {','.join(row) if row else 'empty file'!r}"
        )


def _parse_float(text: str, path: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(f"{path}:{line}: {column} is not a number: {text!r}")
    if not math.isfinite(value):
        raise DataFormatError(f"{path}:{line}: {column} is not a finite number: {text!r}")
    return value


def _parse_int(text: str, path: str, line: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataFormatError(f"{path}:{line}: {column} is not an integer: {text!r}")


def _reject_snapshot_record(row: list[str], path: str, line: int) -> NoReturn:
    """Raise the DataFormatError for the first problem of a bad snapshot
    record of 5 columns, checking its fields in column order."""
    _parse_int(row[0], path, line, "t_point")
    if not row[1]:
        raise DataFormatError(f"{path}:{line}: empty feature id")
    if not row[2]:
        raise DataFormatError(f"{path}:{line}: empty instance id")
    _parse_float(row[3], path, line, "x")
    _parse_float(row[4], path, line, "y")
    raise DataFormatError(
        f"{path}:{line}: coordinates beyond +-{MAX_COORDINATE:g}: "
        f"x={row[3]!r}, y={row[4]!r}"
    )


def read_snapshots_csv(path: str) -> list[Snapshot]:
    """Snapshot CSV: t_point,feature,instance_id,x,y with a mandatory header;
    coordinates must be finite and at most MAX_COORDINATE in magnitude."""
    by_t: dict[int, list[tuple[str, str, float, float]]] = {}
    # Rows usually come grouped by t_point: look its record list up on a change.
    last_t = group = None
    with _open_csv(path) as reader:
        _check_header(next(reader, None), SNAPSHOT_HEADER, path)
        for row in reader:
            # A blank row or a wrong column count fails the unpacking; a bad
            # record is checked again field by field for its message.
            try:
                t, feature, instance_id, x, y = row
                t, x, y = int(t), float(x), float(y)
            except ValueError:
                if not row:
                    continue
                line = reader.line_num
                if len(row) != 5:
                    raise DataFormatError(f"{path}:{line}: expected 5 columns, got {len(row)}")
                _reject_snapshot_record(row, path, line)
            # NaN and infinities fail the bound too.
            if not (
                feature and instance_id
                and -MAX_COORDINATE <= x <= MAX_COORDINATE
                and -MAX_COORDINATE <= y <= MAX_COORDINATE
            ):
                _reject_snapshot_record(row, path, reader.line_num)
            if t != last_t:
                last_t, group = t, by_t.setdefault(t, [])
            group.append((feature, instance_id, x, y))
    return [Snapshot(t, tuple(records)) for t, records in sorted(by_t.items())]


def _t_point_lines(read: Callable[[int], str]) -> Iterator[list[str] | None]:
    """The record lines of a snapshot CSV after its header, one list per
    t_point, each line without its `t,` prefix.  The text is read `_BLOCK`
    characters at a time, and the whole lines of a block that belong to one
    t_point are cut with one `split` on its `"\\n{t},"`.  The first line
    names the first t_point, and each next t_point, one more, begins at the
    first line that starts with it.  Yields None and stops where the csv
    module might read the text otherwise or the t_points might not be
    contiguous and ascending: at a `"`, `\\r` or NUL, a t_point not written
    as `str(int)`, or a blank line or a line without its t_point's
    prefix."""
    # What is read but not yet cut, from the "\n" before a line on, and the
    # lines of t_point `t` cut so far.
    text, lines, t = "\n", [], None
    while True:
        block = read(_BLOCK)
        if '"' in block or "\r" in block or "\0" in block:
            yield None
            return
        text += block
        if not block and not text.endswith("\n"):
            text += "\n"
        end = text.rfind("\n")
        whole, text = text[:end], text[end:]
        try:
            while whole:
                if t is None:
                    first = whole[1:whole.find(",")]
                    t = int(first)
                    if "," not in whole or str(t) != first:
                        raise ValueError(f"not a t_point: {first!r}")
                    # A t_point too long for `str` is a ValueError too.
                    prefix, mark = f"\n{t},", f"\n{t + 1},"
                cut = whole.find(mark)
                part, whole = (whole, "") if cut < 0 else (whole[:cut], whole[cut:])
                cut_lines = part.split(prefix)
                if len(cut_lines) != part.count("\n") + 1:
                    raise ValueError(f"a line without {prefix!r}")
                del cut_lines[0]
                lines += cut_lines
                if cut >= 0:
                    yield lines
                    lines, t = [], t + 1
                    prefix, mark = mark, f"\n{t + 1},"
        except ValueError:
            yield None
            return
        if not block:
            if t is not None:
                yield lines
            return


def _stream(path: str) -> tuple[DynamicDatasetSeries, set[str]] | None:
    """The series and feature ids of a snapshot CSV whose records come
    grouped by contiguous ascending t_points, diffed t_point by t_point as
    sets of line texts; None, to read the file with the csv module, on the
    first sign that the text might not be such a file or might not be read
    so (`_t_point_lines`), at a repeated line or key, at a line that
    `read_snapshots_csv` would reject, or when the file holds fewer than two
    t_points or does not decode.  A line that t_point k+1 shares with k
    names the same record, so only the lines new to k+1 are split, parsed
    and checked, and each line of k that k+1 lacks gives back its record.
    A key among both is a moved instance, which is no event."""
    log = EventLog()
    features: set[str] = set()
    # The lines of the t_point before, and the record of each key there.
    before: set[str] = set()
    records: dict[Key, SnapshotRecord] = {}
    limit = csv.field_size_limit()
    header = ",".join(SNAPSHOT_HEADER) + "\n"
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if fh.read(len(header)) != header:
                return None
            for lines in _t_point_lines(fh.read):
                if lines is None:
                    return None
                after = set(lines)
                if len(after) != len(lines):
                    return None
                gone: dict[Key, SnapshotRecord] = {}
                for line in before - after:
                    feature, instance_id, _ = line.split(",", 2)
                    key = (feature, instance_id)
                    gone[key] = records.pop(key)
                born: list[SnapshotRecord] = []
                for line in after - before:
                    try:
                        feature, instance_id, x, y = line.split(",")
                        fx, fy = float(x), float(y)
                    except ValueError:
                        return None
                    key = (feature, instance_id)
                    # NaN and infinities fail the bound too.
                    if not (
                        feature and instance_id and len(line) <= limit
                        and -MAX_COORDINATE <= fx <= MAX_COORDINATE
                        and -MAX_COORDINATE <= fy <= MAX_COORDINATE
                    ) or key in records:
                        return None
                    records[key] = record = (feature, instance_id, fx, fy)
                    if gone.pop(key, None) is None:
                        born.append(record)
                        features.add(feature)
                log.add_t_point(born, gone.values())
                before = after
    except UnicodeDecodeError:
        return None
    if log.t_points < 2:
        return None
    return log.series(), features


def read_series(path: str) -> tuple[DynamicDatasetSeries, set[str]]:
    """The series and feature ids of a snapshot CSV.  A file that `_stream`
    can diff while it reads it is diffed so; any other file is read whole
    (`read_snapshots_csv`) and diffed by `diff_snapshots`, with the errors
    `located` names, so every error comes from the csv path."""
    streamed = _stream(path)
    if streamed is not None:
        return streamed
    snapshots = read_snapshots_csv(path)
    with located(path):
        series = diff_snapshots(snapshots)
    return series, {r[0] for snap in snapshots for r in snap.records}


def _at_record(
    path: str, message: object, wanted: Callable[[list[str]], bool], nth: int = 1
) -> DataFormatError:
    """A DataFormatError of `message` that names `path` and the line of the
    `nth` record there that `wanted` accepts, found by reading the file
    again.  The file was read once already, so every record parses."""
    with _open_csv(path) as reader:
        next(reader, None)
        lines = (reader.line_num for row in reader if row and wanted(row))
        line = next(islice(lines, nth - 1, None), None)
    where = path if line is None else f"{path}:{line}"
    return DataFormatError(f"{where}: {message}")


@contextmanager
def located(path: str):
    """Name `path` in a data error found while diffing or mining the
    snapshots read from it, and the line of the record that shows it: the
    second of a duplicate instance, the first of a t_point after a gap, or
    the first of the first feature with no life cycle.  The file is read
    again only for that."""
    try:
        yield
    except DuplicateInstanceError as exc:
        t, key = exc.t_point, exc.key
        raise _at_record(
            path, exc, lambda row: tuple(row[1:3]) == key and int(row[0]) == t, nth=2
        ) from None
    except SnapshotGapError as exc:
        raise _at_record(path, exc, lambda row: int(row[0]) == exc.t_point) from None
    except MissingLifeCycleError as exc:
        raise _at_record(path, exc, lambda row: row[1] == exc.bases[0]) from None
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def write_snapshots_csv(path: str, snapshots: Sequence[Snapshot]) -> None:
    """Each snapshot's records in sorted order, snapshots by t_point.  A
    record alive at many t_points is formatted once: its text after the
    t_point is kept by the record's value while the writer runs."""
    features = _Fields()
    texts: dict[SnapshotRecord, str] = {}
    with _open_writer(path, SNAPSHOT_HEADER) as write:
        for snap in sorted(snapshots, key=lambda s: s.t_point):
            t = f"{snap.t_point},"
            lines = []
            for record in sorted(snap.records):
                feature, instance_id, x, y = record
                # Only equal non-zero floats are sure to print alike: 0.0 and
                # -0.0, or 1 and 1.0, are equal keys with different texts.
                kept = type(x) is float and type(y) is float and x and y
                text = texts.get(record) if kept else None
                if text is None:
                    text = f"{features[feature]},{_field(instance_id)},{x!r},{y!r}\n"
                    if kept:
                        texts[record] = text
                lines.append(text)
                if len(lines) == _CHUNK:
                    write(t + t.join(lines))
                    lines.clear()
            if lines:
                write(t + t.join(lines))


def write_series_csv(path: str, series: DynamicDatasetSeries) -> None:
    """One line per instance in the order of the series' windows
    (`DynamicDatasetSeries.window_rows`, which reads a diffed series'
    columns)."""
    # The kind is `new` or `dead`, which never needs quoting.
    bases = _Fields(lambda f: f.base)
    with _open_writer(path, SERIES_HEADER) as write:
        for t, feature, ordinal, x, y in series.window_rows():
            write(f"{t},{bases[feature]},{feature.kind},{ordinal},{x!r},{y!r}\n")


def read_lifecycles_csv(path: str) -> list[BaseFeature]:
    """Life-cycle CSV: feature,life_cycle with a mandatory header."""
    features: list[BaseFeature] = []
    seen: set[str] = set()
    with _open_csv(path) as reader:
        _check_header(next(reader, None), LIFECYCLE_HEADER, path)
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(f"{path}:{line}: expected 2 columns, got {len(row)}")
            if row[0] in seen:
                raise DataFormatError(f"{path}:{line}: duplicate feature {row[0]!r}")
            seen.add(row[0])
            life_cycle = _parse_float(row[1], path, line, "life_cycle")
            try:
                features.append(BaseFeature(row[0], life_cycle))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{line}: {exc}")
    return features


def reject_unknown_features(path: str, unknown: Sequence[str]) -> NoReturn:
    """Raise the DataFormatError for the life-cycle features of the CSV at
    `path` that no snapshot holds, given in file order.  It names the line
    of the first, reading the file again only for that."""
    raise _at_record(
        path, f"unknown feature(s), in no snapshot: {', '.join(unknown)}",
        lambda row: row[0] == unknown[0],
    )


def write_lifecycles_csv(path: str, features: Sequence[BaseFeature]) -> None:
    with _open_writer(path, LIFECYCLE_HEADER) as write:
        for f in sorted(features, key=lambda f: f.id):
            write(f"{_field(f.id)},{float(f.life_cycle)!r}\n")


def write_pairs_csv(path: str, pairs: Join | Iterable[NeighborPair]) -> None:
    """Debug dump of related pairs with their actual distances, in the order
    given: a join's codes, or instance pairs.  Each instance's fields are
    formatted once, from its series' columns and one label per feature."""
    join = pairs if isinstance(pairs, Join) else Join.of_pairs(pairs)
    columns = join.series.columns
    labels = [_field(f.label) for f in columns.features]
    fields = [
        f"{labels[rank]},{ordinal},{t}"
        for rank, ordinal, t in zip(columns.ranks, columns.ordinals, columns.t_indexes)
    ]
    xs, ys, n = columns.xs, columns.ys, len(columns.ranks)
    sqrt = math.sqrt
    with _open_writer(path, PAIRS_HEADER) as write:
        for code in join.codes:
            a, b = divmod(code, n)
            dist = sqrt((xs[a] - xs[b]) ** 2 + (ys[a] - ys[b]) ** 2)
            write(f"{fields[a]},{fields[b]},{dist!r}\n")


def write_size2_report_csv(path: str, tables: Mapping, dpis: Mapping) -> None:
    """Size-2 report CSV: pattern,dpi,rows; patterns rendered as A_new|B_new.
    `tables` and `dpis` share their keys, which sort as the patterns do."""
    with _open_writer(path, SIZE2_HEADER) as write:
        for key in sorted(tables):
            table = tables[key]
            label = _field("|".join(f.label for f in table.features))
            write(f"{label},{dpis[key]!r},{len(table)}\n")


def write_bench_csv(
    path: str, rows: Iterable[tuple[str, str, str, int, int, float]]
) -> None:
    """Bench CSV: one param,value,algo,maximal_count,prevalent_count,millis
    row per mined sweep point and algorithm, millis to three decimals."""
    with _open_writer(path, BENCH_HEADER) as write:
        for param, value, algo, maximal, prevalent, ms in rows:
            write(
                f"{_field(param)},{_field(value)},{_field(algo)},"
                f"{maximal},{prevalent},{ms:.3f}\n"
            )


def format_pattern_report(results: Sequence[PatternResult]) -> str:
    """One line per pattern: pattern;size;dpi;rows;maximal, canonically sorted."""
    lines = []
    for res in sorted(results, key=lambda r: r.pattern.sort_key):
        lines.append(
            f"{res.pattern.label};{res.pattern.size};{res.dpi!r};"
            f"{res.row_count};{'true' if res.maximal else 'false'}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_pattern_report(path: str, results: Sequence[PatternResult]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_pattern_report(results))


def write_manifest(path: str, entries: Mapping[str, object]) -> None:
    """Plain-text key: value manifest, written atomically."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries.items():
            fh.write(f"{key}: {value}\n")
    os.replace(tmp, path)


def read_sweep_spec(path: str) -> dict[str, list[str]]:
    """Benchmark sweep spec: key=value lines, comma-separated value lists,
    '#' comments and blank lines ignored."""
    spec: dict[str, list[str]] = {}
    with _open_reader(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in spec:
                raise DataFormatError(f"{path}:{line_no}: duplicate key {key!r}")
            spec[key] = [v.strip() for v in value.split(",") if v.strip()]
            if not spec[key]:
                raise DataFormatError(f"{path}:{line_no}: no values for key {key!r}")
    return spec
