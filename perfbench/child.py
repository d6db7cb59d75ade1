"""One measured process: import coldgate, then run a workload's steps.

Usage: python3 child.py SPEC.json

SPEC holds ``root`` (the checkout), ``steps`` ([scenario, config] pairs),
``seed``, ``workdir`` (step outputs go to ``workdir/<index>``), ``trace``,
``run_id``, ``import_only`` and ``result`` (where the result JSON goes).
The parent reads ``t_import`` against its own ``time.monotonic()`` at spawn
to get the set-up time, so nothing but the standard library is imported
before ``coldgate``.
"""

import json
import os
import resource
import sys
import time


def _write_config(path, cfg):
    with open(path, "w") as fh:
        for key, val in cfg.items():
            fh.write(f"{key}={val}\n")


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import coldgate
    from coldgate import cli

    t_import = time.monotonic()
    if not os.path.abspath(coldgate.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"coldgate imported from {coldgate.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"t_import": t_import}
    if not spec["import_only"]:
        result.update(run_steps(cli, spec))
    import runrecord

    result["toolchain"] = runrecord.toolchain()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def run_steps(cli, spec):
    calls = []
    for i, (scenario, cfg) in enumerate(spec["steps"]):
        out = os.path.join(spec["workdir"], str(i))
        argv = [scenario, "--out", out, "--seed", str(spec["seed"])]
        if cfg:
            path = os.path.join(spec["workdir"], f"{i}.cfg")
            _write_config(path, cfg)
            argv[1:1] = ["--config", path]
        calls.append(argv)

    tracer = None
    if spec["trace"]:
        import layers
        import spans

        tracer = spans.Tracer(spec["run_id"])
        undo = layers.install(tracer)

    steps = []
    t0, c0 = time.perf_counter(), time.process_time()
    for argv in calls:
        span = tracer.begin(f"cli.{argv[0]}") if tracer else None
        s0 = time.perf_counter()
        try:
            rc, error = cli.main(argv), None
        except Exception as e:  # a crash is a failed operation, not a lost run
            rc, error = None, f"{type(e).__name__}: {e}"
        steps.append({"rc": rc, "error": error, "wall_s": time.perf_counter() - s0})
        if tracer:
            tracer.end(span)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0

    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps": steps,
    }
    if tracer:
        undo()
        out["spans"] = tracer.records()
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
