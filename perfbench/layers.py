"""Traced layer boundaries of coldgate, and the per-layer metrics read
from their spans.

``install`` wraps functions of the ``switching``, ``moving``, ``fidelity``,
``mott``, ``qc`` and ``cli`` modules so each call records a span; ``traps``
and ``errors`` are not traced.  It also rebinds names other coldgate modules
imported from them (``fidelity.evolve_coherent``) and the acceptance
criteria held in ``cli.CRITERIA``.  Nothing under ``src/`` changes.

Probes read work counts off a call's arguments and result: grid points x
steps x states for the split-step kernels, sweeps and starts for the
Gutzwiller solver, level pairs and optimizer starts for ``min_fidelity``,
state sizes for QC gates.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys

from spans import outermost, self_times
from workloads import WORKLOADS, operations

TRACED_MODULES = ("switching", "moving", "fidelity", "mott", "qc")


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _args(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _propagate_probe(a, out):
    if tuple(a["channel"]) != ("b", "b"):
        return {}
    steps = int(round((a["n_periods"] + 0.1) * a["steps_per_period"]))
    return {"point_steps": a["N"] * steps * 2}  # interacting state and g=0 reference


def _precheck_probe(a, out):
    return {"point_steps": a["grid"].N * a["n_periods"] * a["steps_per_period"] * 2}


def _single_b_probe(a, out):
    return {"point_steps": a["N"] * int(round(a["n_periods"] * a["steps_per_period"]))}


def _transport_probe(a, out):
    return {"point_steps": a["N"] * int(math.ceil(2 * a["traj"].tau / a["dt"]))}


def _sweep_probe(a, out):
    lat = a["lat"]
    return {"sweeps": int(out[1]), "converged": bool(out[2]), "sites": lat.Lx * lat.Ly}


def _gate_probe(a, out):
    return {"amplitudes": int(a["reg"].state.size)}


# (module, attribute, span name, probe); probes take (bound arguments, result)
PRIVATE = [
    ("switching", "_propagate_bb_once", "switching.precheck", _precheck_probe),
    ("fidelity", "_levels", "fidelity._levels", lambda a, out: {"level_pairs": len(out[0])}),
    ("mott", "_sweep_to_convergence", "mott.sweep_to_convergence", _sweep_probe),
    ("qc", "_pair_phase", "qc._pair_phase", _gate_probe),
    ("qc", "_pair_phase_condition", "qc._pair_phase_condition", _gate_probe),
    ("cli", "transport_grid_overlap", "cli.transport_grid_overlap", _transport_probe),
    ("cli", "run_accept", "cli.run_accept", None),
    ("cli", "_write_csv", "cli.write", None),
    ("cli", "_write_json", "cli.write", None),
]
PROBES = {
    "switching.propagate": _propagate_probe,
    "switching.propagate_single_b": _single_b_probe,
    "mott.gutzwiller_minimize": lambda a, out: {"sweeps": int(out.sweeps)},
    "qc.single_qubit": _gate_probe,
}
GATES = ("qc.single_qubit", "qc._pair_phase", "qc._pair_phase_condition")
CHANNELS = ("fidelity.moving_channel", "fidelity.switching_channel", "fidelity.ideal_channel")


def traced(tracer, name, fn, probe=None):
    """``fn`` wrapped so that each call records a span named ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.end(index, {"raised": True})
            raise
        tracer.end(index)
        if probe:  # after the span is closed, so its cost stays out of it
            tracer.set_attrs(index, probe(_args(fn, args, kwargs), out))
        return out

    return wrapper


def install(tracer):
    """Wrap the layer functions; returns a function that undoes it."""
    mods = {name: importlib.import_module(f"coldgate.{name}") for name in TRACED_MODULES + ("cli",)}
    cli = mods["cli"]
    plan = []  # (owner, attribute, span name, probe)
    for short in TRACED_MODULES:
        mod = mods[short]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{short}.{attr}"
                plan.append((mod, attr, name, PROBES.get(name)))
    plan += [(mods[m], attr, name, probe) for m, attr, name, probe in PRIVATE]
    plan.append((mods["fidelity"], "minimize", "fidelity.minimize", lambda a, out: {"fun": float(out.fun), "nfev": int(out.nfev)}))
    plan.append((mods["mott"].GutzwillerState, "energy", "mott.energy", None))

    undo = []
    wrapped = {}
    for owner, attr, name, probe in plan:
        orig = owner.__dict__[attr]
        wrapped[id(orig)] = traced(tracer, name, orig, probe)
        undo.append((owner, attr, orig))
        setattr(owner, attr, wrapped[id(orig)])
    # names that other coldgate modules imported from a traced module
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("coldgate."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    criteria = list(cli.CRITERIA)
    cli.CRITERIA[:] = [(c, traced(tracer, f"cli.accept.{c}", fn)) for c, fn in criteria]

    def restore():
        cli.CRITERIA[:] = criteria
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


# -- per-layer metrics --------------------------------------------------------

# every step scenario and every acceptance criterion the workloads run
STEP_SCENARIOS = list(dict.fromkeys(scenario for steps in WORKLOADS.values() for scenario, _ in steps))
CRITERIA = list(dict.fromkeys(op for steps in WORKLOADS.values() for _, op in operations(steps) if op.startswith("accept.")))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run's spans, as name -> (value, unit).

    ``.s`` metrics are inclusive times of the outermost spans of that name;
    ``moving.s`` is self time.  Ratios and rates read 0 when the layer did
    no work in the run.
    """
    own = self_times(spans)
    named: dict[str, list] = {}
    for sp in spans:
        named.setdefault(sp["name"], []).append(sp)

    def calls(*names):
        return sum(len(named.get(n, ())) for n in names)

    def incl(*names):
        return sum(sp["end"] - sp["start"] for sp in outermost(spans, names))

    def selft(*names):
        return sum(own[sp["id"]] for n in names for sp in named.get(n, ()))

    def total(attr, *names):
        return sum(sp["attrs"].get(attr, 0) for n in names for sp in named.get(n, ()))

    m = {}
    kernels = ("switching.propagate", "switching.precheck", "switching.propagate_single_b")
    points = total("point_steps", *kernels)
    m["switching.propagate.s"] = (incl("switching.propagate"), "s")
    m["switching.precheck.s"] = (incl("switching.precheck"), "s")
    m["switching.propagate_single_b.s"] = (incl("switching.propagate_single_b"), "s")
    m["switching.point_steps"] = (points, "count")
    m["switching.ns_per_point_step"] = (_ratio(1e9 * selft(*kernels), points), "ns")

    tgo = "cli.transport_grid_overlap"
    points = total("point_steps", tgo)
    m[f"{tgo}.s"] = (incl(tgo), "s")
    m[f"{tgo}.point_steps"] = (points, "count")
    m[f"{tgo}.ns_per_point_step"] = (_ratio(1e9 * selft(tgo), points), "ns")

    starts = [sp for sp in named.get("fidelity.minimize", []) if "fun" in sp["attrs"]]  # not the ones that raised
    best: dict = {}
    for sp in starts:
        best[sp["parent"]] = min(best.get(sp["parent"], math.inf), sp["attrs"]["fun"])
    useful = sum(1 for sp in starts if sp["attrs"]["fun"] <= best[sp["parent"]] + 1e-6)
    m["fidelity.min_fidelity.calls"] = (calls("fidelity.min_fidelity"), "count")
    m["fidelity.min_fidelity.s"] = (incl("fidelity.min_fidelity"), "s")
    m["fidelity.level_pairs"] = (total("level_pairs", "fidelity._levels"), "count")
    m["fidelity.optimizer_starts"] = (calls("fidelity.minimize"), "count")
    m["fidelity.cost_evals"] = (total("nfev", "fidelity.minimize"), "count")
    m["fidelity.useful_start_ratio"] = (_ratio(useful, calls("fidelity.minimize")), "ratio")
    m["fidelity.timing_sensitivity.s"] = (incl("fidelity.timing_sensitivity"), "s")
    m["fidelity.channel.s"] = (incl(*CHANNELS), "s")

    others = [n for n in named if n.startswith("moving.") and n != "moving.evolve_coherent"]
    m["moving.evolve_coherent.calls"] = (calls("moving.evolve_coherent"), "count")
    m["moving.evolve_coherent.s"] = (incl("moving.evolve_coherent"), "s")
    m["moving.s"] = (selft(*others), "s")

    sweeps = [sp for sp in named.get("mott.sweep_to_convergence", []) if "sweeps" in sp["attrs"]]
    n_sweeps = total("sweeps", "mott.sweep_to_convergence")
    site_updates = sum(sp["attrs"]["sweeps"] * sp["attrs"]["sites"] for sp in sweeps)
    m["mott.gutzwiller_minimize.calls"] = (calls("mott.gutzwiller_minimize"), "count")
    m["mott.gutzwiller_minimize.s"] = (incl("mott.gutzwiller_minimize"), "s")
    m["mott.sweeps"] = (n_sweeps, "count")
    m["mott.us_per_site_update"] = (_ratio(1e6 * incl("mott.sweep_to_convergence"), site_updates), "us")
    m["mott.useful_sweep_ratio"] = (_ratio(total("sweeps", "mott.gutzwiller_minimize"), n_sweeps), "ratio")
    m["mott.converged_start_ratio"] = (_ratio(sum(sp["attrs"]["converged"] for sp in sweeps), calls("mott.sweep_to_convergence")), "ratio")
    m["mott.energy.s"] = (incl("mott.energy"), "s")
    m["mott.phase_classify.s"] = (incl("mott.phase_classify"), "s")

    amps = total("amplitudes", *GATES)
    m["qc.gate.calls"] = (calls(*GATES), "count")
    m["qc.gate.s"] = (incl(*GATES), "s")
    m["qc.gate_amplitudes"] = (amps, "count")
    m["qc.ns_per_gate_amplitude"] = (_ratio(1e9 * incl(*GATES), amps), "ns")
    m["qc.shor_encode.calls"] = (calls("qc.shor_encode"), "count")
    for fn in ("syndrome_table", "ft_cnot", "armada_parity_check", "random_fill"):
        m[f"qc.{fn}.s"] = (incl(f"qc.{fn}"), "s")

    for op in STEP_SCENARIOS + CRITERIA:
        m[f"cli.{op}.s"] = (incl(f"cli.{op}"), "s")
    m["cli.write.s"] = (incl("cli.write"), "s")
    return m
