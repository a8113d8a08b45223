"""Command-line frontend: diff, mine, gen, bench.

Reports go to files, diagnostics to stderr.  Exit status 0 on success, 2 on
bad input or configuration.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import sys
import time

from . import io
from .model import ConfigError, DataFormatError, MiningConfig
from .pipeline import ALGOS, mine_series, mine_snapshots
from .size2 import participation_index


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _parse(convert, text: str, what: str):
    """`convert(text)`, or a ConfigError that names `what` and the value."""
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"{what}: {text!r} is not a valid {convert.__name__}") from None


def cmd_diff(args: argparse.Namespace) -> int:
    series, _ = io.read_series(args.input)
    io.write_series_csv(args.output, series)
    n = len(series.columns.ranks)
    # The t_points of a series are contiguous: one more than its windows.
    _info(
        f"{series.window_count + 1} snapshots -> {series.window_count} windows, "
        f"{n} dynamic instances"
    )
    return 0


def _mining_config(args: argparse.Namespace) -> MiningConfig:
    return MiningConfig(
        d_d=args.dd,
        min_prev=args.min_prev,
        time_span=args.time_span,
        temporal_comparison=args.temporal,
        prevalence_comparison=args.prevalence,
    )


def cmd_mine(args: argparse.Namespace) -> int:
    # The life cycles and settings are read first, so their errors come
    # before the snapshot file's.  One timer covers reading and diffing it.
    lifecycles = io.read_lifecycles_csv(args.lifecycles)
    config = _mining_config(args)
    started = time.perf_counter()
    series, features = io.read_series(args.input)
    diff_ms = (time.perf_counter() - started) * 1000
    unknown = [f.id for f in lifecycles if f.id not in features]
    if unknown:
        io.reject_unknown_features(args.lifecycles, unknown)

    with io.located(args.input):
        outcome = mine_series(
            series, lifecycles, config,
            algo=args.algo,
            early_abort=not args.no_prune1,
            derive_all=args.derive_all,
            diff_ms=diff_ms,
        )
    io.write_pattern_report(args.output, outcome.report_results)
    _info(
        f"{len(outcome.results)} maximal pattern(s)"
        + (f", {len(outcome.derived)} prevalent in total" if outcome.derived is not None else "")
        + f" -> {args.output}"
    )

    if args.size2_report:
        dpis = {key: participation_index(t, outcome.counts) for key, t in outcome.tables.items()}
        io.write_size2_report_csv(args.size2_report, outcome.tables, dpis)
    if args.pairs_dump:
        io.write_pairs_csv(args.pairs_dump, outcome.join)

    manifest: dict[str, object] = {"command": "mine"}
    if not args.seedless_report:
        manifest["input"] = args.input
        manifest["input_sha256"] = _sha256(args.input)
        manifest["lifecycles_sha256"] = _sha256(args.lifecycles)
    manifest["prune_early_abort"] = not args.no_prune1
    manifest.update(outcome.manifest_entries())
    if args.seedless_report:
        manifest = {
            k: v for k, v in manifest.items()
            if not (k.startswith("time_") and k.endswith("_ms"))
        }
    io.write_manifest(args.manifest or f"{args.output}.manifest", manifest)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .datagen import GenConfig, generate

    defaults = GenConfig.life_cycles
    life_cycles = (
        tuple(_parse(float, v, "--life-cycles") for v in args.life_cycles.split(","))
        if args.life_cycles
        else tuple(defaults[i % len(defaults)] for i in range(args.features))
    )
    config = GenConfig(
        area=(args.area[0], args.area[1]),
        n_time_points=args.time_points,
        time_span=args.time_span,
        n_base_features=args.features,
        life_cycles=life_cycles,
        n_dynamic_instances=args.instances,
        cluster_count=args.clusters,
        cluster_radius=args.cluster_radius,
        churn_ratio=args.churn,
        seed=args.seed,
    )
    snapshots, report = generate(config)
    io.write_snapshots_csv(f"{args.output}.snapshots.csv", snapshots)
    io.write_lifecycles_csv(f"{args.output}.lifecycles.csv", config.base_features())
    with open(f"{args.output}.report.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.render())
    _info(
        f"{report.cluster_events} cluster + {report.noise_events} noise events "
        f"-> {args.output}.snapshots.csv"
    )
    return 0


_SWEEPABLE = ("instances", "features", "dd", "min_prev", "prune")
_PRUNE_VALUES = ("on", "off")


def _bench_point(
    spec: dict[str, str], algo: str, prune: str, datasets: dict[object, list]
) -> tuple[int, int, float]:
    """Generate the dataset for one sweep point, or reuse it from `datasets`
    (GenConfig -> snapshots), and mine it; returns (maximal count, prevalent
    count, elapsed ms)."""
    from .datagen import GenConfig, generate

    def value(key: str, convert):
        return _parse(convert, spec[key], f"sweep key {key!r}")

    n_features = value("features", int)
    defaults = GenConfig.life_cycles
    life_values = (
        tuple(
            _parse(float, v, "sweep key 'lifecycles'") for v in spec["lifecycles"].split(";")
        )
        if "lifecycles" in spec
        else tuple(defaults[i % len(defaults)] for i in range(n_features))
    )
    side = value("area", float)
    gen = GenConfig(
        area=(side, side),
        n_time_points=value("time_points", int),
        time_span=value("time_span", float),
        n_base_features=n_features,
        life_cycles=life_values,
        n_dynamic_instances=value("instances", int),
        cluster_count=value("clusters", int),
        cluster_radius=value("cluster_radius", float),
        churn_ratio=value("churn", float),
        seed=value("seed", int),
    )
    if gen not in datasets:
        datasets[gen] = generate(gen)[0]
    snapshots = datasets[gen]
    config = MiningConfig(
        d_d=value("dd", float), min_prev=value("min_prev", float), time_span=gen.time_span
    )
    started = time.perf_counter()
    outcome = mine_snapshots(
        snapshots, gen.base_features(), config,
        algo=algo,
        early_abort=prune != "off",
        derive_all=(algo == "mdc"),
    )
    elapsed_ms = (time.perf_counter() - started) * 1000
    return len(outcome.results), len(outcome.report_results), elapsed_ms


_BENCH_DEFAULTS = {
    "instances": "2000", "features": "10", "dd": "35", "min_prev": "0.1",
    "time_points": "11", "time_span": "3", "area": "1000", "clusters": "6",
    "cluster_radius": "10", "churn": "0.5", "seed": "1", "prune": "on",
    "algos": "mdc,join",
}


def cmd_bench(args: argparse.Namespace) -> int:
    spec = io.read_sweep_spec(args.spec)
    for key, values in spec.items():
        if key not in _BENCH_DEFAULTS and key != "lifecycles":
            raise ConfigError(f"unknown sweep key {key!r}")
        if len(values) > 1 and key not in _SWEEPABLE and key != "algos":
            raise ConfigError(f"key {key!r} cannot be swept")
    for value in spec.get("prune", ()):
        if value not in _PRUNE_VALUES:
            raise ConfigError(
                f"sweep key 'prune': {value!r} is not one of {', '.join(_PRUNE_VALUES)}"
            )
    for value in spec.get("algos", ()):
        if value not in ALGOS:
            raise ConfigError(f"sweep key 'algos': {value!r} is not one of {', '.join(ALGOS)}")
    base = dict(_BENCH_DEFAULTS)
    for key, values in spec.items():
        if key == "algos":
            base["algos"] = ",".join(values)
        else:
            base[key] = values[0]
    algos = base["algos"].split(",")

    rows: list[tuple[str, str, str, int, int, float]] = []
    datasets: dict[object, list] = {}
    sweeps = [(k, vs) for k, vs in spec.items() if len(vs) > 1 and k != "algos"]
    if not sweeps:
        sweeps = [("dd", [base["dd"]])]
    for param, values in sweeps:
        for value in values:
            point = dict(base)
            point[param] = value
            prune = point.pop("prune")
            point.pop("algos")
            for algo in algos:
                maximal, prevalent, ms = _bench_point(point, algo, prune, datasets)
                rows.append((param, value, algo, maximal, prevalent, ms))
                _info(
                    f"{param}={value} {algo}: {maximal} maximal, "
                    f"{prevalent} prevalent, {ms:.0f} ms"
                )
    io.write_bench_csv(args.output, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdcolo",
        description="Mine maximal co-location patterns over snapshot churn.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_diff = sub.add_parser("diff", help="reduce a snapshot CSV to a dynamic series CSV")
    p_diff.add_argument("input", help="snapshot CSV (t_point,feature,instance_id,x,y)")
    p_diff.add_argument("-o", "--output", required=True, help="dynamic series CSV to write")
    p_diff.set_defaults(func=cmd_diff)

    p_mine = sub.add_parser("mine", help="mine maximal patterns from a snapshot CSV")
    p_mine.add_argument("input", help="snapshot CSV (t_point,feature,instance_id,x,y)")
    p_mine.add_argument("--lifecycles", required=True, help="CSV mapping feature,life_cycle")
    p_mine.add_argument("-o", "--output", required=True, help="pattern report to write")
    p_mine.add_argument("--manifest", help="manifest path (default: <output>.manifest)")
    p_mine.add_argument("--dd", type=float, default=35.0, help="distance threshold (default 35)")
    p_mine.add_argument("--min-prev", type=float, default=0.1,
                        help="participation index threshold (default 0.1)")
    p_mine.add_argument("--time-span", type=float, default=3.0,
                        help="duration of one window (default 3)")
    p_mine.add_argument("--algo", choices=ALGOS, default="mdc")
    p_mine.add_argument("--no-prune1", action="store_true",
                        help="disable the early participation bound")
    # Accepted and ignored: perfbench/run.py and perfbench/pin.py still pass it.
    p_mine.add_argument("--no-prune2", action="store_true", help=argparse.SUPPRESS)
    p_mine.add_argument("--derive-all", action="store_true",
                        help="report every prevalent pattern, not only maximal ones")
    p_mine.add_argument("--temporal", choices=("inclusive", "strict"), default="inclusive")
    p_mine.add_argument("--prevalence", choices=("inclusive", "strict"), default="inclusive")
    p_mine.add_argument("--pairs-dump", help="write neighbor pairs CSV here")
    p_mine.add_argument("--size2-report", help="write pair pattern CSV here")
    p_mine.add_argument("--seedless-report", action="store_true",
                        help="omit input digests and timings from the manifest")
    p_mine.set_defaults(func=cmd_mine)

    p_gen = sub.add_parser("gen", help="generate a synthetic snapshot series")
    p_gen.add_argument("-o", "--output", required=True,
                       help="output prefix (.snapshots.csv, .lifecycles.csv, .report.txt)")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--area", type=float, nargs=2, default=(1000.0, 1000.0),
                       metavar=("W", "H"))
    p_gen.add_argument("--time-points", type=int, default=11)
    p_gen.add_argument("--time-span", type=float, default=3.0)
    p_gen.add_argument("--features", type=int, default=10)
    p_gen.add_argument("--life-cycles", help="comma-separated, one per feature")
    p_gen.add_argument("--instances", type=int, default=10000)
    p_gen.add_argument("--clusters", type=int, default=6)
    p_gen.add_argument("--cluster-radius", type=float, default=10.0)
    p_gen.add_argument("--churn", type=float, default=0.5)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run parameter sweeps and record counts/timings")
    p_bench.add_argument("spec", help="sweep spec (key=v1,v2 lines)")
    p_bench.add_argument("-o", "--output", required=True, help="bench CSV to write")
    p_bench.set_defaults(func=cmd_bench)
    return parser


_ONE_LINE = str.maketrans({"\r": "\\r", "\n": "\\n"})


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command makes no reference cycles, so the cyclic collector would only
    # spend time; it is paused for the command and left as it was found.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, OSError) as exc:
        # Escaped line breaks keep a message quoting raw ids or paths on one line.
        print(f"error: {exc}".translate(_ONE_LINE), file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
