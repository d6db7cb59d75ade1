"""coldgate benchmark: run one workload in fresh processes and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each measured process imports
``coldgate`` from ``src/`` and calls ``coldgate.cli.main`` once per step
of the workload, one call after another (a closed loop with one client),
single-threaded.  ``--trace 0`` repeats that process as often as fits in
``--seconds`` (at least once) and reports the end-to-end metrics as medians; ``--trace 1``
runs it once untraced and once traced and reports the per-layer metrics.
Every run checks each operation (exit code, criterion, outputs present and
parsable) and how far its values are from ``reference/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record and
the spans of a traced run are written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import outputs  # noqa: E402
import runrecord  # noqa: E402
from spans import median_quartiles  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 4  # extra import-only processes per untraced run
RUN_LIMIT_S = 150.0  # start no process that would end later; a run must end within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here: no program to measure."""


def load_reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as fh:
        return json.load(fh)["operations"]


def run_process(steps, seed: int, workdir: str, trace: bool = False, import_only: bool = False, run_id: str = "", deadline: float = 0.0) -> dict:
    """Spawn one measured process; returns its result with ``setup_s``."""
    os.makedirs(workdir, exist_ok=True)
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    spec = {
        "root": ROOT, "steps": steps, "seed": seed, "workdir": workdir, "trace": trace,
        "run_id": run_id, "import_only": import_only, "result": result_path,
    }
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = {k: v for k, v in os.environ.items() if k not in ("COLDGATE_OUT", "PYTHONPATH")}
    env.update(runrecord.THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    timeout = max(deadline - time.monotonic(), 1.0) if deadline else None
    with open(os.path.join(workdir, "stderr.txt"), "w+") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:  # timed out, or this process is being stopped
                proc.kill()
                proc.wait()
        if rc is None:
            return {"timed_out": True}
        err.seek(0)
        stderr = err.read()
    if rc != 0 or not os.path.exists(result_path):
        raise BenchError(f"measured process exited {rc}: {stderr.strip()[-2000:]}")
    with open(result_path) as fh:
        res = json.load(fh)
    res["setup_s"] = res["t_import"] - t_spawn
    return res


def run_rep(workload: str, steps, seed: int, base: str, index: int, trace: bool, deadline: float) -> dict:
    """One measured process plus the check of its outputs."""
    workdir = os.path.join(base, f"rep{index}")
    res = run_process(steps, seed, workdir, trace=trace, run_id=f"{workload}:{seed}:{index}", deadline=deadline)
    if res.get("timed_out"):
        res["ops"] = {name: {"ok": False, "max_rel_dev": 0.0, "problems": ["timed out"]} for _, name in operations(steps)}
        res["output_bytes"] = 0
    else:
        rcs = [s["rc"] for s in res["steps"]]
        res["ops"] = outputs.check_steps(steps, rcs, workdir, load_reference(workload))
        res["output_bytes"] = sum(outputs.output_bytes(os.path.join(workdir, str(i))) for i in range(len(steps)))
    shutil.rmtree(workdir, ignore_errors=True)
    return res


def measure(workload: str, seed: int, seconds: float, trace: bool, base: str) -> dict:
    steps = [list(s) for s in WORKLOADS[workload]]
    start = time.monotonic()
    deadline = start + 175.0
    reps, setups = [], []
    if trace:
        reps.append(run_rep(workload, steps, seed, base, 0, False, deadline))
        reps.append(run_rep(workload, steps, seed, base, 1, True, deadline))
    else:
        for k in range(SETUP_PROBES):
            setups.append(run_process([], seed, os.path.join(base, f"setup{k}"), import_only=True, deadline=deadline)["setup_s"])
        # start another process only if one more, as long as the typical
        # one so far, still ends within --seconds
        t0 = time.monotonic()
        took = []
        while True:
            t_rep = time.monotonic()
            reps.append(run_rep(workload, steps, seed, base, len(reps), False, deadline))
            now = time.monotonic()
            took.append(now - t_rep)
            typical = median_quartiles(took)[0]
            if reps[-1].get("timed_out") or now - t0 + typical > seconds or now - start + typical > RUN_LIMIT_S:
                break
    return {"reps": reps, "setups": setups, "toolchain": reps[0].get("toolchain", {})}


def summarize(workload: str, data: dict, trace: bool) -> dict:
    reps = data["reps"]
    ops = [op for rep in reps for op in rep["ops"].values()]
    failed = sum(not op["ok"] for op in ops)
    ok_reps = [r for r in reps if not r.get("timed_out")]
    table = {}
    if trace:
        untraced, traced = reps
        if traced.get("timed_out") or untraced.get("timed_out"):
            raise BenchError("a traced run timed out")
        table.update(layers.layer_metrics(traced["spans"]))
        table["cli.output_bytes"] = (traced["output_bytes"], "B")
        table["cli.output_max_rel_dev"] = (max(op["max_rel_dev"] for op in ops), "ratio")
        table["bench.trace_overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
        samples = {}
    else:
        if not ok_reps:
            raise BenchError("no measured process finished in time")
        samples = {
            "wall_s": [r["wall_s"] for r in ok_reps],
            "cpu_s": [r["cpu_s"] for r in ok_reps],
            "setup_s": data["setups"] + [r["setup_s"] for r in ok_reps],
            "peak_rss_mib": [r["peak_rss_mib"] for r in ok_reps],
        }
        for name, unit in END_TO_END.items():
            table[name] = (median_quartiles(samples[name])[0], unit)
    return {
        "workload": workload,
        "attempted": len(ops),
        "failed": failed,
        "failed_ratio": failed / len(ops),
        "table": table,
        "samples": samples,
        "problems": sorted({f"{name}: {p}" for rep in reps for name, op in rep["ops"].items() for p in op["problems"]}),
    }


def print_summary(summary: dict) -> None:
    w = summary["workload"]
    print(f"== {w}: {summary['attempted']} operations, {summary['failed']} failed, failed_ratio {summary['failed_ratio']:.4g}")
    for name, (value, unit) in summary["table"].items():
        line = f"  {name:<44} {value:>16.6g} {unit}"
        if name in summary["samples"]:
            vals = summary["samples"][name]
            _, q1, q3 = median_quartiles(vals)
            line += f"   (median of n={len(vals)}, quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    for p in summary["problems"][:20]:
        print(f"  FAILED {p}")


def write_results(summary: dict, record: dict, data: dict, trace: bool) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    w, seed = summary["workload"], record["seed"]
    doc = dict(summary, record=record, table={k: {"value": v, "unit": u} for k, (v, u) in summary["table"].items()})
    doc["reps"] = [{k: v for k, v in r.items() if k != "spans"} for r in data["reps"]]
    with open(os.path.join(RESULTS, f"{w}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    if trace and "spans" in data["reps"][-1]:
        with open(os.path.join(RESULTS, f"{w}-spans.json"), "w") as fh:
            json.dump(data["reps"][-1]["spans"], fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    # on SIGTERM, unwind through the finally blocks that stop the measured process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "coldgate", "__init__.py")):
        print(f"no coldgate sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    base = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    try:
        summaries = []
        for w in names:
            data = measure(w, args.seed, args.seconds, trace, os.path.join(base, w))
            summary = summarize(w, data, trace)
            record = runrecord.run_record(ROOT, args.seed, data["toolchain"])
            write_results(summary, record, data, trace)
            print_summary(summary)
            summaries.append(summary)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print("run record: " + json.dumps(record, sort_keys=True))
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    prefix = len(summaries) > 1
    metrics = {
        (f"{s['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
        for s in summaries
        for name, (value, unit) in s["table"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
