"""The names the benchmark's tracer wraps must exist.

``perfbench/layers.py`` looks its traced functions up by name; if one is
renamed or deleted, ``install`` raises and the traced benchmark run dies
before its first step.
"""

import inspect
import json
import math
import os

import pytest

import numpy as np

from coldgate import cli, fidelity, mott, qc, switching, traps

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import spans

    return layers, spans


def test_tracer_installs_and_restores(bench_modules):
    layers, spans = bench_modules
    original = fidelity.min_fidelity
    tracer = spans.Tracer("t")
    restore = layers.install(tracer)
    try:
        assert fidelity.min_fidelity is not original
        assert fidelity.min_fidelity(fidelity.ideal_channel()) == pytest.approx(1.0, abs=1e-12)
    finally:
        restore()
    assert fidelity.min_fidelity is original
    names = [sp["name"] for sp in tracer.records()]
    assert names.count("fidelity.min_fidelity") == 1
    assert names.count("fidelity._levels") == 1
    assert "fidelity.minimize" not in names


def test_tracer_reads_gutzwiller_sweeps(bench_modules):
    # the sweep probe reads ``lat`` and the (f, sweeps, converged) result of
    # each start; each start's energy is one ``mott.energy`` span
    layers, spans = bench_modules
    tracer = spans.Tracer("t")
    restore = layers.install(tracer)
    try:
        st = mott.gutzwiller_minimize(mott.BoseHubbardLattice(Lx=4, Ly=4, J=1.0, U=2.0, mu=1.0))
    finally:
        restore()
    records = tracer.records()
    sweeps = [sp for sp in records if sp["name"] == "mott.sweep_to_convergence"]
    assert len(sweeps) == 2
    for sp in sweeps:
        assert set(sp["attrs"]) == {"sweeps", "converged", "sites"}
        assert sp["attrs"]["sites"] == 16 and sp["attrs"]["sweeps"] >= 1
    assert [sp["name"] for sp in records].count("mott.energy") == 2
    (top,) = [sp for sp in records if sp["name"] == "mott.gutzwiller_minimize"]
    assert top["attrs"] == {"sweeps": st.sweeps}


def test_tracer_reads_one_sweep_run_per_certified_solve(bench_modules, tmp_path):
    # the default ``mott`` register is a certified Mott state, so only the
    # atomic start runs; the 4x4 U=2 lattice above (lambda = 12) runs both
    layers, spans = bench_modules
    tracer = spans.Tracer("t")
    restore = layers.install(tracer)
    try:
        assert cli.main(["mott", "--out", str(tmp_path)]) == 0
    finally:
        restore()
    names = [sp["name"] for sp in tracer.records()]
    assert names.count("mott.gutzwiller_minimize") == 1
    assert names.count("mott.sweep_to_convergence") == 1


def test_tracer_reads_qc_gates(bench_modules):
    # the gate probe reads ``reg.state`` of the three gate functions, and
    # ``qc.gate.*`` adds their spans, so no gate may run inside another
    layers, spans = bench_modules
    tracer = spans.Tracer("t")
    restore = layers.install(tracer)
    try:
        enc = qc.shor_encode(qc.bare_block(0.6, 0.8j))
        qc._pair_phase_condition(enc, [(0, 4, np.pi), (3, 5, 0.3)], cond=(1, 0))
    finally:
        restore()
    assert qc._pair_phase is qc._pair_phase_condition
    records = tracer.records()
    by_id = {sp["id"]: sp for sp in records}
    gates = [sp for sp in records if sp["name"] in layers.GATES]
    assert {sp["name"] for sp in gates} == set(layers.GATES)
    assert [sp["name"] for sp in gates].count("qc._pair_phase") == 3  # LX, LY, LX
    for sp in gates:
        assert sp["attrs"] == {"amplitudes": 512}
        parent = sp["parent"]
        while parent is not None:
            assert by_id[parent]["name"] not in layers.GATES
            parent = by_id[parent]["parent"]


def test_tracer_sees_ft_cnot_as_two_layers_and_one_collision(bench_modules):
    # each pulse layer is one ``single_qubit`` call, so the gate metrics
    # count layers, not sites
    layers, spans = bench_modules
    s0, s1 = qc.shor_codewords_standard()
    tracer = spans.Tracer("t")
    restore = layers.install(tracer)
    try:
        qc.ft_cnot(qc.two_block_register(s0, s1))
    finally:
        restore()
    names = [sp["name"] for sp in tracer.records()]
    assert names.count("qc.single_qubit") == 2
    assert names.count("qc._pair_phase_condition") == 1


def test_tracer_reads_transport_oracle(bench_modules):
    # the transport probe reads ``traj`` and ``dt`` of the one-row oracle;
    # the stacked ``transport_grid_overlaps`` it wraps is not traced
    layers, spans = bench_modules
    traj = traps.sine_squared_path(1.0, 0.5003, 0.5)
    tracer = spans.Tracer("t")
    restore = layers.install(tracer)
    try:
        cli.transport_grid_overlap(traj, N=128, L=24.0)
    finally:
        restore()
    (span,) = [sp for sp in tracer.records() if sp["name"] == "cli.transport_grid_overlap"]
    # N times the composition steps at the default dt, not the substeps
    dt = inspect.signature(cli.transport_grid_overlap).parameters["dt"].default
    assert span["attrs"] == {"point_steps": 128 * math.ceil(2 * traj.tau / dt)}


def test_tracer_reads_bb_propagation(bench_modules, ref_cfg):
    # the (b,b) probes read ``channel``, ``N``, ``n_periods`` and
    # ``steps_per_period`` of ``propagate``, and ``grid``, ``n_periods`` and
    # ``steps_per_period`` of the precheck's ``_propagate_bb_once``
    layers, spans = bench_modules
    tracer = spans.Tracer("t")
    restore = layers.install(tracer)
    try:
        switching.propagate(ref_cfg, ("b", "b"), n_periods=1, N=2048, steps_per_period=200)
    finally:
        restore()
    records = tracer.records()
    (top,) = [sp for sp in records if sp["name"] == "switching.propagate"]
    (pre,) = [sp for sp in records if sp["name"] == "switching.precheck"]
    assert top["attrs"] == {"point_steps": 2048 * 220 * 2}
    assert pre["attrs"] == {"point_steps": 4096 * 200 * 2}


def test_switching_reference_keys_are_returned(accept_ctx):
    # the benchmark counts a reference key that a criterion no longer
    # returns as a failed operation
    with open(os.path.join(PERFBENCH, "reference", "switching-gate.json")) as fh:
        operations = json.load(fh)["operations"]
    criteria = dict(cli.CRITERIA)
    assert sorted(operations) == ["accept.cm-analytic", "accept.switching-fidelity", "accept.switching-phase", "accept.switching-revival"]
    for op, ref in operations.items():
        passed, details = criteria[op.removeprefix("accept.")](accept_ctx)
        keys = [k.removeprefix("details.") for k in (*ref["values"], *ref["present"]) if k.startswith("details.")]
        assert bool(passed) and keys and set(keys) <= set(details)
