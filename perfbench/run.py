"""Benchmark of `mdcolo mine`, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 3 --seconds 25 --trace 0

One run of one workload:

1. Set-up (`setup_s`): after one untimed warm-up, generate the workload's
   dataset with `datagen.generate` and write its snapshot and life-cycle CSVs
   with the `io` writers, for at least SETUP_MIN_SECONDS; the median rep is
   reported.
2. Reference: one untimed `mdcolo mine --no-prune1 --no-prune2` child.  At the
   workload's default seed its outputs must equal the SHA-256s pinned in
   `references.json` (made and cross-checked by `pin.py`), which are then the
   reference; at any other seed its outputs are the reference.
3. Timed loop, for `--seconds` and at least MIN_MINES times: one
   `python -m mdcolo mine` child at a time, timed from spawn to exit
   (`mine_s`, the median mine), with its peak resident memory from `os.wait4`
   (`peak_rss_mb`, the median).
   Every output is checked against the reference; a child that exits non-zero
   or writes different bytes counts as failed, so failed / attempted is the
   run's failure ratio.
4. With `--trace 1`, an in-process pass (`traced.py`) calls each layer's
   public function in pipeline order and records spans and counts; an
   untraced `mine_snapshots` call gives `pipeline.s`.  The traced pass writes
   the same reports as the CLI and fails the run if any byte differs.

Host-normalised seconds.  The host lends this benchmark a share of shared
cores.  Each CPU's speed flips between a fast and a slow state (1.5x to 1.9x
slower, by kind of code) every few seconds, independently of the other CPU,
and the share of slow time drifts over minutes, so raw wall times of
unchanged code differ by more than 25% between sets of runs.  So the
benchmark and its children are pinned to one CPU, and a speed probe
(`speedprobe.py`) runs beside them on that CPU at nice 19 for the whole run:
it times a fixed chunk of record work again and again by its own CPU time,
and so measures the speed of that CPU while each set-up rep and each mine
runs.  Each timed item is reported as

    wall time * NOMINAL_CHUNK_S / mean CPU time of the chunks inside it

(an item too short to hold NEAR_CHUNKS chunks uses the NEAR_CHUNKS chunks
of its phase nearest to it in time, and the median item is reported): the
seconds it would take on a CPU where one chunk takes NOMINAL_CHUNK_S, about
the fast state of a 2-CPU Xeon container.  Per mine, log wall time against
log chunk time has correlation about 0.9 and slope 0.8 to 1.2.  The probe is
the benchmark's own code, so a change to the program moves the normalised
time as it moves the wall time.  Raw wall times and each item's chunk mean
and count are kept in the record.

The last stdout line is one JSON object: correct, attempted, failed and the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
Every sample, the seed, the workload parameters, the Python version, the git
revision, the CPU count, the load average before and after, and the probe's
chunk means go to `.perfbench/records/`; spans go to
`.perfbench/spans/`.

Seeds.  A workload is one planted dataset, so that runs with different seeds
do the same mining work: the dataset's cost swings several-fold between
generator seeds (dense: 1.0 s to 6.8 s).  `--seed` equal to the workload's
generator seed gives that dataset exactly; any other seed moves every instance
by one seed-drawn offset and renumbers instance ids by a seed-drawn bijection,
so every input byte changes while distances, and so the work, stay the same.

Which layer metric should move which end-to-end metric, on which workload:

    io, snapshots, size2, cli.overhead_s  -> mine_s on sparse
    neighborhood                          -> mine_s on sparse; no change on dense
    cliques                               -> nothing measurable (<= 2 ms)
    verify            -> mine_s and peak_rss_mb on dense, mine_s on pruned;
                         no change on sparse
    derive            -> mine_s and peak_rss_mb on pruned only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from traced import Tracer, traced_run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCES = Path(__file__).resolve().parent / "references.json"
PROBE = Path(__file__).resolve().parent / "speedprobe.py"

MIN_MINES = 3
SETUP_MIN_REPS = 3
# Long enough for a few dozen probe chunks to run beside the set-up reps.
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPS = 100
# CPU seconds of one probe chunk beside the timed work on a 2-CPU Xeon
# container in its fast state, and the fewest chunks a speed is taken from.
NOMINAL_CHUNK_S = 0.0015
NEAR_CHUNKS = 5
CHILD_TIMEOUT_S = 60.0
# Prime above every instance id the generator writes (ids count per feature).
ID_MODULUS = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    gen: dict  # GenConfig fields; gen["seed"] is the default seed
    dd: float
    min_prev: float
    derive_all: bool = False
    dumps: bool = False  # --size2-report and --pairs-dump

    @property
    def default_seed(self) -> int:
        return self.gen["seed"]

    @property
    def outputs(self) -> tuple[str, ...]:
        return ("patterns.txt",) + (("size2.csv", "pairs.csv") if self.dumps else ())

    def mine_argv(self, inputs: Path, out: Path, *extra: str) -> list[str]:
        argv = [
            sys.executable, "-m", "mdcolo", "mine", str(inputs / "snapshots.csv"),
            "--lifecycles", str(inputs / "lifecycles.csv"),
            "--dd", repr(self.dd), "--min-prev", repr(self.min_prev),
            "-o", str(out / "patterns.txt"),
        ]
        if self.derive_all:
            argv.append("--derive-all")
        if self.dumps:
            argv += ["--size2-report", str(out / "size2.csv"),
                     "--pairs-dump", str(out / "pairs.csv")]
        return argv + list(extra)


WORKLOADS = {w.name: w for w in (
    # Acceptance SWEEP_GEN at its densest point: verify builds ~617k rows for
    # patterns of up to 7 features.
    Workload("dense", dict(
        n_dynamic_instances=2000, cluster_count=20, cluster_radius=25.0, churn_ratio=1.0,
        life_cycles=(3.0, 6.0) * 5, seed=3,
    ), dd=35.0, min_prev=0.05),
    # Acceptance PRUNING_GEN: both verify prunings fire, derive rebuilds subsets.
    Workload("pruned", dict(
        n_dynamic_instances=2000, cluster_count=48, cluster_radius=15.0, churn_ratio=1.0,
        seed=1,
    ), dd=35.0, min_prev=0.1, derive_all=True),
    # Many instances, short distance: CSV, diff, join and dumps; verify < 1%.
    # 14,400 instances on 600 x 600 keep the density of 40,000 on the default
    # 1000 x 1000 at a third of the mine time, so a run holds ten mines.
    Workload("sparse", dict(
        area=(600.0, 600.0), n_dynamic_instances=14400, cluster_count=6, cluster_radius=10.0,
        churn_ratio=0.1, seed=7,
    ), dd=4.0, min_prev=0.14, dumps=True),
)}


def relocate(snapshots, seed: int):
    """Move every record by one seed-drawn offset and renumber instance ids by
    a seed-drawn bijection; pairwise distances stay the same up to rounding."""
    from mdcolo.snapshots import Snapshot

    rng = random.Random(seed)
    dx, dy = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
    a, b = rng.randrange(1, ID_MODULUS), rng.randrange(ID_MODULUS)
    return [
        Snapshot(snap.t_point, tuple(
            (feature, str((a * int(instance_id) + b) % ID_MODULUS), x + dx, y + dy)
            for feature, instance_id, x, y in snap.records
        ))
        for snap in snapshots
    ]


def make_inputs(w: Workload, seed: int, dest: Path) -> None:
    from mdcolo import GenConfig, generate, io

    gen = GenConfig(**w.gen)
    snapshots, _ = generate(gen)
    if seed != w.default_seed:
        snapshots = relocate(snapshots, seed)
    io.write_snapshots_csv(str(dest / "snapshots.csv"), snapshots)
    io.write_lifecycles_csv(str(dest / "lifecycles.csv"), gen.base_features())


@contextmanager
def speed_probe():
    """Run `speedprobe.py` on this process's CPUs for the `with` block; the
    yielded list is filled with its chunks when the block ends."""
    chunks: list[tuple[float, float, float]] = []
    proc = subprocess.Popen([sys.executable, str(PROBE)], stdout=subprocess.PIPE, text=True)
    try:
        if proc.stdout.readline() != "ready\n":
            raise RuntimeError("the speed probe did not start")
        yield chunks
        proc.terminate()
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        chunks.extend(tuple(c) for c in json.loads(out))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def chunk_means(
    windows: list[tuple[float, float]], chunks: list[tuple[float, float, float]]
) -> list[tuple[float, int]]:
    """(mean chunk CPU seconds, chunks inside) of each timed window of a
    phase: the mean of the chunks that ran inside it or, where fewer than
    NEAR_CHUNKS did, of the NEAR_CHUNKS chunks of the phase nearest to it."""
    phase = [c for c in chunks if windows[0][0] <= c[0] and c[1] <= windows[-1][1]] or chunks
    means = []
    for start, end in windows:
        inside = [cpu for s, e, cpu in phase if start <= s and e <= end]
        if len(inside) < NEAR_CHUNKS:
            middle = (start + end) / 2
            near = sorted(phase, key=lambda c: abs((c[0] + c[1]) / 2 - middle))[:NEAR_CHUNKS]
            means.append((statistics.fmean(cpu for _, _, cpu in near), len(inside)))
        else:
            means.append((statistics.fmean(inside), len(inside)))
    return means


def normalised(windows: list[tuple[float, float]], means: list[tuple[float, int]]) -> float:
    """Median host-normalised seconds of a phase's timed items."""
    return statistics.median(
        (end - start) * NOMINAL_CHUNK_S / mean for (start, end), (mean, _) in zip(windows, means)
    )


def measure_setup(w: Workload, seed: int, dest: Path) -> list[tuple[float, float]]:
    """(start, end) of each set-up rep after a warm-up."""
    make_inputs(w, seed, dest)
    windows: list[tuple[float, float]] = []
    while len(windows) < SETUP_MAX_REPS and (
        len(windows) < SETUP_MIN_REPS or windows[-1][1] - windows[0][0] < SETUP_MIN_SECONDS
    ):
        started = time.perf_counter()
        make_inputs(w, seed, dest)
        windows.append((started, time.perf_counter()))
    return windows


def run_child(argv: list[str], log: Path) -> tuple[int, tuple[float, float], float]:
    """Run one child to exit: (exit code, (spawn, exit) times, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, (started, ended), usage.ru_maxrss * 1024 / 1e6


def sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def digests(w: Workload, out: Path) -> dict[str, str | None]:
    return {name: sha256(out / name) for name in w.outputs}


def clear(w: Workload, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name in w.outputs:
        (out / name).unlink(missing_ok=True)


def load_pinned() -> dict:
    return json.loads(REFERENCES.read_text())


def reference_digests(
    w: Workload, seed: int, inputs: Path, work: Path, pinned: dict
) -> tuple[dict | None, bool]:
    """(reference digests or None, whether the unpruned miner ran cleanly and,
    at a pinned seed, wrote the pinned bytes)."""
    out = work / "reference"
    clear(w, out)
    code, _, _ = run_child(
        w.mine_argv(inputs, out, "--no-prune1", "--no-prune2"), work / "reference.log"
    )
    unpruned = digests(w, out) if code == 0 else None
    pin = pinned.get(w.name)
    if seed == w.default_seed and pin is not None:
        reference = {name: pin[name] for name in w.outputs}
        return reference, unpruned == reference
    return unpruned, unpruned is not None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(
    w: Workload, seed: int, seconds: float, trace: bool, pinned: dict, work_root: Path = WORK
) -> dict:
    """One benchmark run; returns the record whose "result" is the printed line."""
    work = work_root / "runs" / f"{w.name}-{seed}"
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    # The speed probe must run on the CPU the timed work runs on; children
    # inherit this.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    load_before = os.getloadavg()[0]

    mine_windows: list[tuple[float, float]] = []
    rss_mb: list[float] = []
    exit_codes: list[int] = []
    failed = 0
    with speed_probe() as chunks:
        setup_windows = measure_setup(w, seed, inputs)
        reference, reference_ok = reference_digests(w, seed, inputs, work, pinned)
        clear(w, out)
        started = time.perf_counter()
        while len(mine_windows) < MIN_MINES or time.perf_counter() - started < seconds:
            code, window, rss = run_child(w.mine_argv(inputs, out), work / "mine.log")
            mine_windows.append(window)
            rss_mb.append(rss)
            exit_codes.append(code)
            if code != 0 or reference is None or digests(w, out) != reference:
                failed += 1
            clear(w, out)
    setup_chunks = chunk_means(setup_windows, chunks)
    mine_chunks = chunk_means(mine_windows, chunks)
    mine_wall = [end - start for start, end in mine_windows]

    record: dict = {
        "workload": w.name,
        "params": {"gen": w.gen, "dd": w.dd, "min_prev": w.min_prev,
                   "derive_all": w.derive_all, "dumps": w.dumps},
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "revision": git_revision(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "samples": {"mine_wall_s": mine_wall, "peak_rss_mb": rss_mb,
                    "setup_wall_s": [end - start for start, end in setup_windows]},
        "chunk_means_s": {"mine": mine_chunks, "setup": setup_chunks},
        "exit_codes": exit_codes,
        "reference_ok": reference_ok,
    }
    correct = failed == 0 and reference_ok
    if trace:
        tracer = Tracer(f"{w.name}-{seed}-{time.time_ns()}")
        layers = traced_run(w, inputs, work / "traced", statistics.median(mine_wall), tracer)
        spans = work_root / "spans" / f"{tracer.run_id}.jsonl"
        tracer.write(spans)
        record["spans"] = str(spans)
        record["traced_matches_cli"] = digests(w, work / "traced") == reference
        correct = correct and record["traced_matches_cli"]
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {
            "mine_s": {"value": normalised(mine_windows, mine_chunks), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss_mb), "unit": "MB"},
            "setup_s": {"value": normalised(setup_windows, setup_chunks), "unit": "s"},
        }
    record["loadavg_1m"] = [load_before, os.getloadavg()[0]]
    record["result"] = {
        "correct": correct, "attempted": len(mine_wall), "failed": failed, "metrics": metrics,
    }
    return record


def save_record(record: dict) -> Path:
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{time.time_ns()}.json"
    )
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mdcolo" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'mdcolo'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Unwind on SIGTERM too, so that the running mine and the probe are
    # killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    record = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), load_pinned()
    )
    path = save_record(record)
    result = record["result"]
    print(f"{args.workload} seed {args.seed}: {result['attempted']} mines, "
          f"failure_ratio = {result['failed'] / result['attempted']} fraction, "
          f"correct={result['correct']}; record {path}")
    for name, values in record["samples"].items():
        q1, q2, q3 = quartiles(values)
        print(f"  {name}: median {q2:.4f} q1 {q1:.4f} q3 {q3:.4f} over {len(values)} samples")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
