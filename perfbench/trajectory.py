"""Append one entry to the bench trajectory from run records.

    python3 perfbench/trajectory.py --note "what was measured" .perfbench/records/*-trace0-*.json

The records must come from one revision.  The entry keeps, per workload and
end-to-end metric, every run's value with their median and quartiles, and
every raw mine wall time and the speed probe's chunk mean beside it, so a
later change can apply the pair and quartile rule to its own runs against
this baseline.  `claim` stays null for a baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from run import quartiles

TRAJECTORY = Path(__file__).resolve().parent / "trajectory.jsonl"


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, list[dict]] = {}
    for record in sorted(records, key=lambda r: (r["workload"], r["seed"])):
        by_workload.setdefault(record["workload"], []).append(record)
    workloads = {}
    for name, runs in by_workload.items():
        summary: dict = {
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "mine_wall_samples_s": [r["samples"]["mine_wall_s"] for r in runs],
            "mine_chunk_means_s": [r["chunk_means_s"]["mine"] for r in runs],
            "loadavg_1m": [r["loadavg_1m"] for r in runs],
        }
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            summary[metric] = {
                "unit": runs[0]["result"]["metrics"][metric]["unit"],
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                "runs": values,
            }
        workloads[name] = summary
    return workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="+", type=Path)
    parser.add_argument("--note", required=True)
    parser.add_argument("--claim", default=None, help="the gain claimed, if any")
    args = parser.parse_args()
    records = [json.loads(p.read_text()) for p in args.records]
    revisions = {r["revision"] for r in records}
    if len(revisions) != 1 or any(r["trace"] for r in records):
        print(f"error: need untraced records of one revision, got {sorted(revisions)}",
              file=sys.stderr)
        return 2
    entry = {
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "revision": revisions.pop(),
        "python": records[0]["python"],
        "nproc": records[0]["nproc"],
        "seconds": records[0]["seconds"],
        "claim": args.claim,
        "note": args.note,
        "workloads": summarize(records),
    }
    with open(TRAJECTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
