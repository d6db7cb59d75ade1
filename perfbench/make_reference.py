"""Write ``reference/<workload>.json``: the outputs every benchmark run is
checked against.

    python3 perfbench/make_reference.py

Runs every workload once for each of ``SEEDS``.  A field whose value is the
same for every seed (to within ``SAME``) is stored with its first value and
compared on every run; a field that changes with the seed (restart and
sampling outcomes) or is a work count in ``WORK_COUNTS`` is stored by name
only and must be present.  Run it only at a commit whose outputs are known
good.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import outputs
import run
from workloads import WORKLOADS

SEEDS = (0, 1, 2, 3)
SAME = 1e-8  # on outputs.deviation()
# counts of work done, which a faster method may change while its results
# stay within tolerance
WORK_COUNTS = {"mott": ("summary.json.sweeps",)}


def collect(workload: str, seed: int, base: str) -> dict:
    steps = [list(s) for s in WORKLOADS[workload]]
    workdir = os.path.join(base, f"{workload}-{seed}")
    res = run.run_process(steps, seed, workdir)
    fields = {}
    for i, ((scenario, _), step) in enumerate(zip(steps, res["steps"])):
        if step["rc"] != 0:
            raise SystemExit(f"{workload} seed {seed}: {scenario} exited {step['rc']} {step['error'] or ''}")
        fields.update(outputs.step_fields(scenario, os.path.join(workdir, str(i))))
    for name, f in fields.items():
        if f.get("passed") is False:
            raise SystemExit(f"{workload} seed {seed}: {name} failed")
    return fields


def build(runs: list[dict]) -> dict:
    ops = {}
    for name, first in runs[0].items():
        values, present = {}, []
        for key, value in first.items():
            counted = key in WORK_COUNTS.get(name, ())
            if not counted and all(key in r[name] and outputs.deviation(r[name][key], value) <= SAME for r in runs):
                values[key] = value
            else:
                present.append(key)
        ops[name] = {"values": values, "present": present}
    return ops


def main() -> int:
    os.makedirs(run.RESULTS, exist_ok=True)
    base = tempfile.mkdtemp(prefix="ref-", dir=run.RESULTS)
    try:
        for w in WORKLOADS:
            ops = build([collect(w, s, base) for s in SEEDS])
            doc = {"workload": w, "seeds": list(SEEDS), "operations": ops}
            with open(os.path.join(run.HERE, "reference", f"{w}.json"), "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            n_vals = sum(len(o["values"]) for o in ops.values())
            n_pres = sum(len(o["present"]) for o in ops.values())
            print(f"{w}: {n_vals} fields compared, {n_pres} checked for presence only")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
