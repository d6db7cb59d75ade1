"""Per-layer metrics computed from synthetic spans, and the tracing
wrapper."""

import time

import pytest

from layers import layer_metrics, traced
from spans import Tracer


def span(i, name, start, end, parent=None, **attrs):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": "r", "attrs": attrs}


def test_switching_rate_uses_kernel_self_time():
    spans = [
        span(0, "switching.propagate", 0.0, 3.0, point_steps=1000),
        span(1, "switching.precheck", 0.5, 1.5, 0, point_steps=500),
        span(2, "switching.propagate_single_b", 4.0, 4.5, point_steps=500),
    ]
    m = layer_metrics(spans)
    assert m["switching.propagate.s"] == (pytest.approx(3.0), "s")
    assert m["switching.precheck.s"][0] == pytest.approx(1.0)
    assert m["switching.point_steps"] == (2000, "count")
    # 3.5 s of kernel time over 2000 point-steps
    assert m["switching.ns_per_point_step"][0] == pytest.approx(3.5e9 / 2000)


def test_fidelity_useful_starts_are_grouped_by_call():
    spans = [
        span(0, "fidelity.min_fidelity", 0.0, 1.0),
        span(1, "fidelity._levels", 0.0, 0.1, 0, level_pairs=4),
        span(2, "fidelity.minimize", 0.1, 0.2, 0, fun=0.5, nfev=10),
        span(3, "fidelity.minimize", 0.2, 0.3, 0, fun=0.5 + 1e-7, nfev=12),
        span(4, "fidelity.minimize", 0.3, 0.4, 0, fun=0.7, nfev=8),
        span(5, "fidelity.min_fidelity", 2.0, 3.0),
        span(6, "fidelity.minimize", 2.1, 2.2, 5, fun=0.9, nfev=5),
    ]
    m = layer_metrics(spans)
    assert m["fidelity.min_fidelity.calls"][0] == 2
    assert m["fidelity.min_fidelity.s"][0] == pytest.approx(2.0)
    assert m["fidelity.level_pairs"][0] == 4
    assert m["fidelity.optimizer_starts"][0] == 4
    assert m["fidelity.cost_evals"][0] == 35
    assert m["fidelity.useful_start_ratio"][0] == pytest.approx(3 / 4)


def test_mott_ratios():
    spans = [
        span(0, "mott.gutzwiller_minimize", 0.0, 10.0, sweeps=20),
        span(1, "mott.sweep_to_convergence", 0.0, 2.0, 0, sweeps=20, converged=True, sites=100),
        span(2, "mott.sweep_to_convergence", 2.0, 6.0, 0, sweeps=40, converged=True, sites=100),
        span(3, "mott.sweep_to_convergence", 6.0, 9.0, 0, sweeps=40, converged=False, sites=100),
        span(4, "mott.energy", 9.0, 9.5, 0),
    ]
    m = layer_metrics(spans)
    assert m["mott.sweeps"][0] == 100
    assert m["mott.useful_sweep_ratio"][0] == pytest.approx(0.2)
    assert m["mott.converged_start_ratio"][0] == pytest.approx(2 / 3)
    assert m["mott.us_per_site_update"][0] == pytest.approx(9.0e6 / (100 * 100))
    assert m["mott.energy.s"][0] == pytest.approx(0.5)


def test_moving_self_time_excludes_evolve_coherent():
    spans = [
        span(0, "moving.adiabaticity_residual", 0.0, 4.0),
        span(1, "moving.evolve_coherent", 1.0, 2.0, 0),
        span(2, "moving.kinetic_phase", 5.0, 5.5),
    ]
    m = layer_metrics(spans)
    assert m["moving.evolve_coherent.calls"][0] == 1
    assert m["moving.s"][0] == pytest.approx(3.0 + 0.5)


def test_qc_gate_rate_and_idle_layers_read_zero():
    spans = [
        span(0, "cli.qc-ghz", 0.0, 1.0),
        span(1, "qc.single_qubit", 0.1, 0.2, 0, amplitudes=512),
        span(2, "qc._pair_phase", 0.2, 0.4, 0, amplitudes=1024),
        span(3, "cli.write", 0.9, 0.95, 0),
    ]
    m = layer_metrics(spans)
    assert m["qc.gate.calls"][0] == 2
    assert m["qc.gate_amplitudes"][0] == 1536
    assert m["qc.ns_per_gate_amplitude"][0] == pytest.approx(0.3e9 / 1536)
    assert m["cli.qc-ghz.s"][0] == pytest.approx(1.0)
    assert m["cli.write.s"][0] == pytest.approx(0.05)
    assert m["mott.useful_sweep_ratio"][0] == 0.0
    assert m["switching.ns_per_point_step"][0] == 0.0


def test_probe_runs_after_the_span_closes():
    def slow_probe(args, out):
        time.sleep(0.05)
        return {"n": args["x"], "out": out}

    tracer = Tracer("r")
    f = traced(tracer, "f", lambda x, y=1: x + y, slow_probe)
    assert f(2) == 3
    (rec,) = tracer.records()
    assert rec["attrs"] == {"n": 2, "out": 3}
    assert rec["end"] - rec["start"] < 0.05
