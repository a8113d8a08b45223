"""Host speed probe, run beside one benchmark run.

    python3 perfbench/speedprobe.py

It drops to the lowest priority (nice 19) and times a fixed chunk of record
work (format, parse and bucket 800 records) over and over, each chunk by its
own CPU time.  Started on the one CPU that the timed work runs on, it gets
about 1.5% of that CPU in short slices spread over the work, so the chunks
measure how fast that CPU is while the work runs.  It prints "ready" after its
first chunk.  On SIGTERM, or when its parent has gone, it prints one JSON list
of [start, end, CPU seconds] per chunk, start and end on the monotonic clock
that `time.perf_counter` reads, and exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

CHUNK_RECORDS = 800


def chunk() -> None:
    grid: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for i in range(CHUNK_RECORDS):
        line = f"F{i % 17},{i},{i * 0.37 % 500.0:.3f},{i * 0.91 % 500.0:.3f}"
        feature, instance_id, x, y = line.split(",")
        grid.setdefault((int(float(x)) // 25, int(float(y)) // 25), []).append(
            (feature, instance_id)
        )


def main() -> int:
    os.nice(19)
    parent = os.getppid()
    stopped = False

    def stop(signum, frame) -> None:
        nonlocal stopped
        stopped = True

    signal.signal(signal.SIGTERM, stop)
    chunks: list[tuple[float, float, float]] = []
    while True:
        start, cpu = time.perf_counter(), time.thread_time()
        chunk()
        chunks.append((start, time.perf_counter(), time.thread_time() - cpu))
        if len(chunks) == 1:
            print("ready", flush=True)
        if stopped or os.getppid() != parent:
            break
    json.dump(chunks, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
