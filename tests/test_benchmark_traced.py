"""The benchmark's traced pass in the test suite: `perfbench/traced.py`
replays the pipeline stage by stage and reads names the mine itself does not
(`table.rows`, `series.features()`, `VerifyStats.shared_checks`,
`snap.records`).  On a small `sparse` input, which writes every report, its
reports must equal the bytes `cli.main` writes for the workload's argv, and
it must give every per-layer metric `BENCHMARK.json` declares."""

from __future__ import annotations

import dataclasses
import json

from mdcolo.cli import main

from test_benchmark_references import PERFBENCH, bench  # noqa: F401  (a fixture)

# The instance count `perfbench/test_perfbench.py` gives its tiny `sparse`.
INSTANCES = 3000


def test_traced_pass_writes_the_cli_reports(bench, tmp_path):  # noqa: F811
    sparse = bench.WORKLOADS["sparse"]
    workload = dataclasses.replace(sparse, gen={**sparse.gen, "n_dynamic_instances": INSTANCES})
    assert workload.dumps
    inputs, cli_out = tmp_path / "inputs", tmp_path / "cli"
    inputs.mkdir()
    cli_out.mkdir()
    bench.make_inputs(workload, workload.default_seed, inputs)
    assert main(workload.mine_argv(inputs, cli_out)[3:]) == 0

    traced_out = tmp_path / "traced"
    metrics = bench.traced_run(workload, inputs, traced_out, 0.0, bench.Tracer("test"))
    for output in workload.outputs:
        assert (traced_out / output).read_bytes() == (cli_out / output).read_bytes(), output
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
