import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.special import gammaln

import coldgate
from coldgate import cli, moving, traps
from coldgate.errors import HierarchyViolated, PerturbationInvalid, QuadratureFailure, ValidationError


def test_coherent_solution_matches_grid_oracle():
    # two representative paths, run as one stack; the full benchmark set
    # runs in the acceptance gate
    trajs = [traps.sine_squared_path(4.0, 30.0, 0.5), traps.sine_squared_path(6.0, 25.0, 2.0)]
    assert min(cli.transport_grid_overlaps(trajs)) >= 1 - 1e-6


@pytest.mark.parametrize("dK", [0.0, 2e-3, 2e-3j])
def test_transport_criterion_oracle_catches_a_wrong_solver(monkeypatch, dK):
    # a K off by |dK| leaves the coherent state an overlap of e^{-|dK|^2},
    # 1 - 4e-6 at |dK| = 2e-3, which the grid oracle must see; the adiabaticity
    # check reads K only through e^{conj(alpha) gamma} with alpha = 0 on its
    # round trip, so it still passes, and the norm check Im beta = |K|^2 / 2
    # sees the shift as well
    evolve = moving.evolve_coherent

    def shifted(traj, t):
        ev = evolve(traj, t)
        return dataclasses.replace(ev, K=ev.K + dK)

    monkeypatch.setattr(moving, "evolve_coherent", shifted)
    ok, details = cli._c_transport_solver(cli.AcceptContext())
    assert details["adiabaticity_dev"] <= 1e-8
    if dK:
        assert not ok and details["min_overlap"] < 1 - 1e-6
        assert details["coherent_norm_dev"] > 1e-8
    else:
        assert ok and details["min_overlap"] > 1 - 1e-8
        assert details["coherent_norm_dev"] <= 1e-14


def test_adiabaticity_relation():
    traj = traps.sine_squared_path(6.0, 9.0, 1.0)
    r, pop = moving.adiabaticity_residual(traj)
    ev = moving.evolve_coherent(traj, traj.tau)
    alpha = float(np.asarray(traj.x(traj.tau))) / np.sqrt(2)
    ground = abs(ev.overlap_with_coherent(alpha)) ** 2
    assert (1.0 - ground) == pytest.approx(pop, abs=1e-8)
    assert pop == pytest.approx(-np.expm1(-(r**2) / 2), abs=1e-12)


def _ode_reference(traj, t):
    """(K, beta) at t from DOP853 on dK/ds = x e^{i(s+tau)}/sqrt2 and
    dbeta/ds = i K conj(dK/ds) - x^2/2 at rtol = atol = 1e-12."""
    tau = traj.tau

    def rhs(s, y):
        xs = float(traj.x(s))
        dK = xs * np.exp(1j * (s + tau)) / np.sqrt(2)
        db = 1j * (y[0] + 1j * y[1]) * np.conj(dK) - 0.5 * xs**2
        return [dK.real, dK.imag, db.real, db.imag]

    y = solve_ivp(rhs, (-tau, t), [0.0] * 4, method="DOP853", rtol=1e-12, atol=1e-12).y[:, -1]
    return y[0] + 1j * y[1], y[2] + 1j * y[3]


# the five oracle paths and the transport-solver criterion's path
_PATHS = cli.benchmark_trajectories() + [traps.sine_squared_path(6.0, 9.0, 1.0)]


@pytest.mark.parametrize("i", range(len(_PATHS)))
@pytest.mark.parametrize("frac", [1.0, -1 / 3], ids=["t=tau", "t=-tau/3"])
def test_evolve_coherent_matches_ode_reference(i, frac):
    traj = _PATHS[i]
    t = frac * traj.tau
    ev = moving.evolve_coherent(traj, t)
    K, beta = _ode_reference(traj, t)
    assert abs(ev.K - K) <= 1e-9 and abs(ev.beta - beta) <= 1e-9
    # Im beta = |K|^2/2 exactly, and beta integrates the K series against its
    # own derivative, so only rounding is left: at most 7.2e-15 here (the
    # DOP853 reference itself misses the bound in all 12 cases)
    assert abs(ev.beta.imag - abs(ev.K) ** 2 / 2) <= 1e-14


def test_evolve_coherent_at_start_is_ground_state():
    traj = traps.sine_squared_path(6.0, 9.0, 1.0)
    ev = moving.evolve_coherent(traj, -traj.tau)
    assert ev.K == 0 and ev.beta == 0


@pytest.mark.parametrize(
    "integral",
    [
        lambda traj: moving.evolve_coherent(traj, traj.tau),
        moving.adiabaticity_residual,
        lambda traj: moving.kinetic_phase(traj, exact=False),
    ],
    ids=["evolve_coherent", "adiabaticity_residual", "kinetic_phase"],
)
def test_unresolvable_path_raises_quadrature_failure(integral):
    traj = traps.sine_squared_path(6.0, 25.0, 1e6)  # 1e6 turns in 50 time units
    with pytest.raises(QuadratureFailure, match=f"cap of {moving.CHEB_MAX_POINTS} "):
        integral(traj)


def test_import_does_not_load_scipy_integrate():
    # every moving-trap integral is a Chebyshev sum, so no scenario needs scipy.integrate
    src = os.path.dirname(os.path.dirname(coldgate.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, coldgate.cli; sys.exit('scipy.integrate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_kinetic_phase_adiabatic_limit():
    # slow transport: the exact phase approaches the velocity-squared integral
    traj = traps.sine_squared_path(2.0, 80.0, 1.0)
    exact = moving.kinetic_phase(traj, exact=True)
    approx = moving.kinetic_phase(traj, exact=False)
    assert exact == pytest.approx(approx, abs=2e-3)


@pytest.mark.parametrize("args", [(2.0, 10.0, 0.5), (3.0, 6.0, 1.5), (1.0, 4.0, 2.5)])
def test_kinetic_phase_is_the_overlap_phase(args):
    # one-way paths, so alpha != 0 and Im(conj(alpha) gamma) enters the phase
    traj = traps.sine_squared_path(*args)
    overlap = moving.evolve_coherent(traj, traj.tau).overlap_with_coherent(float(traj.x(traj.tau)) / np.sqrt(2))
    assert 0 < abs(overlap) <= 1
    assert moving.kinetic_phase(traj) == pytest.approx(np.angle(overlap), abs=1e-12)


def test_kinetic_phase_is_finite_where_the_overlap_underflows():
    # |K|^2 / 2 is 1.1e4 here: e^{i beta} underflowed to 0 and the factor
    # e^{conj(alpha) gamma} overflowed, so the two-factor overlap was NaN
    traj = traps.sine_squared_path(37.0, 19.0, 5.5)
    ev = moving.evolve_coherent(traj, traj.tau)
    assert ev.overlap_with_coherent(float(traj.x(traj.tau)) / np.sqrt(2)) == 0
    assert -np.pi < moving.kinetic_phase(traj) <= np.pi


def test_evolution_amplitudes_normalized():
    traj = traps.sine_squared_path(3.0, 6.0, 1.0)
    ev = moving.evolve_coherent(traj, traj.tau)
    occ = ev.occupation(60)
    assert float(np.sum(occ)) == pytest.approx(1.0, abs=1e-10)
    n = np.arange(61)
    assert float(np.dot(n, occ)) == pytest.approx(abs(ev.gamma) ** 2, abs=1e-9)


def test_evolution_amplitudes_match_gammaln_form():
    traj = traps.sine_squared_path(3.0, 6.0, 1.0)
    ev = moving.evolve_coherent(traj, traj.tau)
    n = np.arange(61)
    expected = np.exp(1j * ev.beta) * np.exp(n * np.log(complex(ev.gamma)) - 0.5 * gammaln(n + 1.0))
    assert np.max(np.abs(ev.amplitudes(60) - expected)) <= 1e-14


def test_evolution_amplitudes_stay_finite_on_a_long_drag():
    # |K|^2 = 2.2e4: e^{i beta} underflowed where gamma^n / sqrt(n!) overflowed,
    # and amplitudes(1000) held 739 NaN entries; each c_n is one exponential now
    traj = traps.sine_squared_path(37.0, 19.0, 5.5)
    ev = moving.evolve_coherent(traj, traj.tau)
    assert not np.any(np.isnan(ev.amplitudes(1000)))
    # |c_n|^2 is the Poisson pmf in |K|^2, here read out to well past its mean
    k2 = abs(ev.K) ** 2
    n = np.arange(30_001)
    log_pmf = n * np.log(k2) - k2 - gammaln(n + 1.0)
    occ = ev.occupation(30_000)
    assert np.allclose(occ, np.exp(log_pmf), rtol=1e-9, atol=1e-300)
    assert float(np.sum(occ)) == pytest.approx(1.0, abs=1e-9)


def test_gaussian_density_product_against_quadrature():
    sep, w1, w2 = 1.3, 0.8, 1.4

    def n1(x):
        return np.exp(-(x**2) / w1**2) / (w1 * np.sqrt(np.pi))

    def n2(x):
        return np.exp(-((x - sep) ** 2) / w2**2) / (w2 * np.sqrt(np.pi))

    ref, _ = quad(lambda x: n1(x) * n2(x), -20, 20)
    assert moving.gaussian_density_product(sep, w1, w2) == pytest.approx(ref, rel=1e-10)


@given(st.floats(0, 5), st.floats(0.3, 3), st.floats(0.3, 3))
@settings(max_examples=50)
def test_mode_overlap_bounded(sep, w1, w2):
    ov = moving.gaussian_mode_overlap(sep, w1, w2)
    assert 0.0 < ov <= 1.0 + 1e-12


def test_mode_overlap_identical_is_one():
    assert moving.gaussian_mode_overlap(0.0, 1.2, 1.2) == pytest.approx(1.0)


def test_interaction_shift_analytic():
    a_s = 5e-3
    full = moving.interaction_shift(0.0, a_s, same_state=True)
    assert full == pytest.approx(np.sqrt(2 / np.pi) * a_s, abs=1e-12)
    # at full overlap the bosonic enhancement exactly cancels the
    # symmetrization denominator
    assert full == pytest.approx(moving.interaction_shift(0.0, a_s, same_state=False), abs=1e-14)


def test_interaction_shift_same_state_doubles_at_large_separation():
    a_s = 1e-3
    sep = 8.0
    distinct = moving.interaction_shift(sep, a_s, same_state=False)
    same = moving.interaction_shift(sep, a_s, same_state=True)
    assert same == pytest.approx(2 * distinct, rel=1e-8)


def test_collisional_phase_perturbative_matches_direct_integral():
    t1 = traps.Trajectory(tau=10.0, x=lambda t: -2.0 + 0.0 * np.asarray(t), derivs=(lambda t: 0.0 * np.asarray(t),))
    t2 = traps.Trajectory(tau=10.0, x=lambda t: 2.0 + 0.0 * np.asarray(t), derivs=(lambda t: 0.0 * np.asarray(t),))
    a_s = 1e-3
    phi = moving.collisional_phase_perturbative(t1, t2, a_s)
    expected = 20.0 * moving.interaction_shift(4.0, a_s)
    assert phi == pytest.approx(expected, rel=1e-8)


def test_collisional_phase_validity_guard():
    t1 = traps.Trajectory(tau=5.0, x=lambda t: 0.0 * np.asarray(t))
    t2 = traps.Trajectory(tau=5.0, x=lambda t: 0.0 * np.asarray(t))
    with pytest.raises(PerturbationInvalid):
        moving.collisional_phase_perturbative(t1, t2, 1.0)
    with pytest.warns(UserWarning):
        moving.collisional_phase_perturbative(t1, t2, 0.2)
    # a shift that is NaN at any sample fails the check, as does a NaN a_s
    t3 = traps.Trajectory(tau=5.0, x=lambda t: np.where(np.asarray(t) > 4.0, np.nan, 3.0))
    with pytest.raises(PerturbationInvalid):
        moving.collisional_phase_perturbative(t1, t3, 1e-3)
    with pytest.raises(ValidationError):
        moving.collisional_phase_perturbative(t1, t2, float("nan"))


def test_gate_map_reduction():
    p = moving.GatePhases(phi_a=0.3, phi_b=0.7, phi_ab=0.1, phi_aa=0.05, phi_bb=0.9)
    full, reduced = moving.gate_map(p)
    assert full["ab"] == pytest.approx(np.exp(-1j * (0.3 + 0.7)) * reduced["ab"])
    assert reduced["ba"] == reduced["ab"]
    assert reduced["bb"] == pytest.approx(np.exp(-1j * 0.9))


def test_correction_expansion_is_exact_identity():
    traj = traps.sine_squared_path(3.0, 12.0, 1.0)
    tau = traj.tau
    direct, _ = quad(lambda s: float(np.asarray(traj.x(s))) * np.cos(s + tau) / np.sqrt(2), -tau, tau, limit=400)
    directi, _ = quad(lambda s: float(np.asarray(traj.x(s))) * np.sin(s + tau) / np.sqrt(2), -tau, tau, limit=400)
    ref = direct + 1j * directi
    for order in (1, 2, 4):
        exp = moving.correction_terms(traj, order)
        assert exp.total == pytest.approx(ref, abs=1e-9)


def test_correction_expansion_hierarchy_warning():
    # a fast path has no small parameter; higher boundary terms grow
    traj = traps.sine_squared_path(5.0, 2.0, 4.0)
    with pytest.warns(HierarchyViolated):
        moving.correction_terms(traj, 4)


def test_correction_terms_past_analytic_derivatives_raises():
    # the bump carries derivatives to d2x only; differencing past them put
    # the order-3 total off by 1.1e-7 and made order 4 unresolvable
    traj = traps.gaussian_bump_path(5.0, 20.0, 3.2)
    with pytest.raises(ValidationError, match="order 3"):
        moving.correction_terms(traj, 3)
    assert moving.correction_terms(traj, 2).total == pytest.approx(moving.evolve_coherent(traj, traj.tau).K, abs=1e-12)
