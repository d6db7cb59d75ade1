"""The names the benchmark's tracer wraps must exist.

``perfbench/layers.py`` looks its traced functions up by name; if one is
renamed or deleted, ``install`` raises and the traced benchmark run dies
before its first step.
"""

import os

import pytest

from coldgate import fidelity, mott

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
    assert len(sweeps) == 4
    for sp in sweeps:
        assert set(sp["attrs"]) == {"sweeps", "converged", "sites"}
        assert sp["attrs"]["sites"] == 16 and sp["attrs"]["sweeps"] >= 1
    assert [sp["name"] for sp in records].count("mott.energy") == 4
    (top,) = [sp for sp in records if sp["name"] == "mott.gutzwiller_minimize"]
    assert top["attrs"] == {"sweeps": st.sweeps}
