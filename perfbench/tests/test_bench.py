"""The benchmark end to end, on steps small enough for a unit test."""

import json
import os
import shutil
import subprocess
import sys

import layers
import run
from spans import self_times

COUNTS = (
    "switching.point_steps", "fidelity.min_fidelity.calls", "fidelity.level_pairs", "fidelity.optimizer_starts",
    "fidelity.cost_evals", "fidelity.useful_start_ratio", "moving.evolve_coherent.calls",
    "mott.gutzwiller_minimize.calls", "mott.sweeps", "mott.useful_sweep_ratio", "mott.converged_start_ratio",
    "qc.gate.calls", "qc.gate_amplitudes", "qc.shor_encode.calls",
)
SMALL_STEPS = [
    ["gate-switching", {"grid_n": 2048, "steps_per_period": 1000, "n_periods": 1, "max_csv_rows": 50}],
    ["gate-moving", {}],
    ["fidelity-curve", {"kt_list": "0,0.2"}],
    ["mott", {"lx": 6, "ly": 6, "period": 3.0}],
    ["qc-syndrome-table", {}],
    ["qc-armada", {}],
]


def test_tampered_syndrome_table_counts_as_failed(tmp_path):
    good = [["accept", {"only": "syndrome-table"}]]
    bad = [["accept", {"only": "syndrome-table", "tamper_lx_phase": 0.1}]]
    for steps, failed in ((good, 0), (bad, 1)):
        rep = run.run_rep("lattice-register", steps, 0, str(tmp_path), 0, False, 0.0)
        summary = run.summarize("lattice-register", {"reps": [rep], "setups": [rep["setup_s"]]}, False)
        assert (summary["attempted"], summary["failed"]) == (1, failed)
    assert any("criterion failed" in p for p in summary["problems"])


def test_traced_counts_repeat_for_one_seed(tmp_path):
    found = []
    for k in range(2):
        res = run.run_process(SMALL_STEPS, 5, str(tmp_path / f"r{k}"), trace=True, run_id=f"t{k}")
        assert [s["rc"] for s in res["steps"]] == [0] * len(SMALL_STEPS)
        found.append(layers.layer_metrics(res["spans"]))
    for name in COUNTS:
        assert found[0][name] == found[1][name], name
    for name in ("switching.point_steps", "fidelity.optimizer_starts", "mott.sweeps", "qc.gate.calls", "moving.evolve_coherent.calls"):
        assert found[0][name][0] > 0, name
    # the steps are the roots; every other span hangs below one of them
    spans = res["spans"]
    roots = [sp["name"] for sp in spans if sp["parent"] is None]
    assert roots == [f"cli.{s}" for s, _ in SMALL_STEPS]
    assert all(v >= -1e-9 for v in self_times(spans).values())


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    per_layer = layers.layer_metrics([])
    expected = list(per_layer) + ["cli.output_bytes", "cli.output_max_rel_dev", "bench.trace_overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == expected
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert all(units[n] == u for n, (_, u) in per_layer.items())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice-register", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
