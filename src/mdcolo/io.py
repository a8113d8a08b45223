"""File formats: snapshot and series CSVs, life cycles, reports, manifests.

All writers emit LF line endings and repr-faithful floats so identical inputs
produce byte-identical files on every platform.  Readers report problems with
one-based line numbers.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from typing import Iterable, Mapping, Sequence

from .model import BaseFeature, DataFormatError
from .neighborhood import NeighborPair
from .size2 import TableInstance
from .snapshots import DynamicDatasetSeries, Snapshot
from .verify import PatternResult

SNAPSHOT_HEADER = ["t_point", "feature", "instance_id", "x", "y"]
SERIES_HEADER = ["t_index", "feature", "kind", "ordinal", "x", "y"]
LIFECYCLE_HEADER = ["feature", "life_cycle"]
PAIRS_HEADER = ["feature_a", "ordinal_a", "t_a", "feature_b", "ordinal_b", "t_b", "distance"]
SIZE2_HEADER = ["pattern", "dpi", "rows"]
BENCH_HEADER = ["param", "value", "algo", "maximal_count", "prevalent_count", "millis"]


@contextmanager
def _open_reader(path: str):
    """The file opened for reading as UTF-8; a byte that does not decode is a
    DataFormatError naming the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc.reason}") from None


def _open_writer(path: str):
    return open(path, "w", newline="", encoding="utf-8")


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


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


def read_snapshots_csv(path: str) -> list[Snapshot]:
    """Snapshot CSV: t_point,feature,instance_id,x,y with a mandatory header."""
    by_t: dict[int, list[tuple[str, str, float, float]]] = {}
    with _open_reader(path) as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), SNAPSHOT_HEADER, path)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise DataFormatError(f"{path}:{line}: expected 5 columns, got {len(row)}")
            t = _parse_int(row[0], path, line, "t_point")
            if not row[1]:
                raise DataFormatError(f"{path}:{line}: empty feature id")
            if not row[2]:
                raise DataFormatError(f"{path}:{line}: empty instance id")
            x = _parse_float(row[3], path, line, "x")
            y = _parse_float(row[4], path, line, "y")
            by_t.setdefault(t, []).append((row[1], row[2], x, y))
    return [Snapshot(t, tuple(records)) for t, records in sorted(by_t.items())]


def write_snapshots_csv(path: str, snapshots: Sequence[Snapshot]) -> None:
    with _open_writer(path) as fh:
        out = _writer(fh)
        out.writerow(SNAPSHOT_HEADER)
        for snap in sorted(snapshots, key=lambda s: s.t_point):
            for feature, instance_id, x, y in sorted(snap.records):
                out.writerow([snap.t_point, feature, instance_id, repr(x), repr(y)])


def write_series_csv(path: str, series: DynamicDatasetSeries) -> None:
    with _open_writer(path) as fh:
        out = _writer(fh)
        out.writerow(SERIES_HEADER)
        for window in series.windows:
            for inst in window:
                out.writerow(
                    [inst.t_index, inst.feature.base, inst.feature.kind,
                     inst.ordinal, repr(inst.x), repr(inst.y)]
                )


def read_lifecycles_csv(path: str) -> list[BaseFeature]:
    """Life-cycle CSV: feature,life_cycle with a mandatory header."""
    features: list[BaseFeature] = []
    seen: set[str] = set()
    with _open_reader(path) as fh:
        reader = csv.reader(fh)
        _check_header(next(reader, None), LIFECYCLE_HEADER, path)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(f"{path}:{line}: expected 2 columns, got {len(row)}")
            if row[0] in seen:
                raise DataFormatError(f"{path}:{line}: duplicate feature {row[0]!r}")
            seen.add(row[0])
            try:
                features.append(BaseFeature(row[0], _parse_float(row[1], path, line, "life_cycle")))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{line}: {exc}")
    return features


def write_lifecycles_csv(path: str, features: Sequence[BaseFeature]) -> None:
    with _open_writer(path) as fh:
        out = _writer(fh)
        out.writerow(LIFECYCLE_HEADER)
        for f in sorted(features, key=lambda f: f.id):
            out.writerow([f.id, repr(float(f.life_cycle))])


def write_pairs_csv(path: str, pairs: Iterable[NeighborPair]) -> None:
    """Debug dump of neighbor pairs with their actual distances."""
    with _open_writer(path) as fh:
        out = _writer(fh)
        out.writerow(PAIRS_HEADER)
        for a, b in pairs:
            dist = math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2)
            out.writerow(
                [a.feature.label, a.ordinal, a.t_index,
                 b.feature.label, b.ordinal, b.t_index, repr(dist)]
            )


def write_size2_report_csv(
    path: str, tables: Mapping, dpis: Mapping
) -> None:
    """Size-2 report CSV: pattern,dpi,rows; patterns rendered as A_new|B_new."""
    with _open_writer(path) as fh:
        out = _writer(fh)
        out.writerow(SIZE2_HEADER)
        for pattern in sorted(tables, key=lambda p: p.sort_key):
            table: TableInstance = tables[pattern]
            label = "|".join(f.label for f in pattern.features)
            out.writerow([label, repr(dpis[pattern]), len(table)])


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
