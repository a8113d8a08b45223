"""Pin the reference SHA-256s of every workload's outputs at its default seed.

    python3 perfbench/pin.py

Each workload's default-seed dataset is mined by the benchmarked command and
by the unpruned miner (--no-prune1 --no-prune2); on a --derive-all workload
also by the level-wise miner (--algo join), as acceptance criterion 3 does.
The digests are written to references.json only when every output agrees.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCES, SRC, WORK, WORKLOADS, Workload, clear, digests, make_inputs, run_child


def pin(w: Workload) -> dict:
    work = WORK / "pin" / w.name
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    make_inputs(w, w.default_seed, inputs)
    routes = {"benchmarked": (), "unpruned": ("--no-prune1", "--no-prune2")}
    if w.derive_all:
        routes["level-wise"] = ("--algo", "join")
    found = {}
    for route, extra in routes.items():
        out = work / route
        clear(w, out)
        code, (started, ended), _ = run_child(
            w.mine_argv(inputs, out, *extra), work / f"{route}.log"
        )
        if code != 0:
            raise SystemExit(f"{w.name}: the {route} miner exited with {code}")
        found[route] = digests(w, out)
        print(f"{w.name}: {route} miner {ended - started:.2f} s", file=sys.stderr)
    for route, got in found.items():
        if got != found["benchmarked"]:
            raise SystemExit(f"{w.name}: the {route} miner disagrees: {got} != {found['benchmarked']}")
    return {"seed": w.default_seed, **found["benchmarked"]}


def main() -> int:
    sys.path.insert(0, str(SRC))
    references = {name: pin(w) for name, w in WORKLOADS.items()}
    REFERENCES.write_text(json.dumps(references, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
