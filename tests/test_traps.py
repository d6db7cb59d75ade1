import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import coldgate
from coldgate import traps
from coldgate.errors import NoMinimum, ValidationError


def test_import_does_not_load_scipy_interpolate():
    # no module needs a spline, so importing the package should not pay for scipy.interpolate
    src = os.path.dirname(os.path.dirname(coldgate.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, coldgate; sys.exit('scipy.interpolate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_lattice_potentials_theta_zero_identical():
    cfg = traps.LatticeBeamConfig(k=1.0, depth=20.0, tau_r=1.0, tau_i=2.0)
    z = np.linspace(-3, 3, 50)
    va, vb = traps.lattice_potentials(cfg, z, 0.0)
    assert np.allclose(va, vb)
    assert np.allclose(vb, 20.0 * np.sin(z) ** 2)


def test_lattice_potentials_quarter_turn_shifts_b():
    cfg = traps.LatticeBeamConfig(k=1.0, depth=8.0, tau_r=1.0, tau_i=2.0)
    z = np.linspace(-3, 3, 50)
    va, vb = traps.lattice_potentials(cfg, z, np.pi / 2)
    assert np.allclose(vb, 8.0 * np.cos(z) ** 2)
    # the mixture keeps the a-state lattice period but with reduced contrast
    assert np.all(va >= -1e-12)


def test_theta_profile_limits():
    th0 = traps.theta_profile(0.0, tau_r=1.0, tau_i=5.0)
    th_far = traps.theta_profile(50.0, tau_r=1.0, tau_i=5.0)
    assert abs(th0) < 1e-8
    assert th_far == pytest.approx(np.pi / 2, abs=1e-8)


@given(st.floats(-20, 20))
def test_theta_profile_bounded(t):
    th = float(traps.theta_profile(t, tau_r=1.5, tau_i=4.0))
    assert -1e-12 <= th <= np.pi / 2 + 1e-12


def test_harmonic_approx_cosine_well():
    well = traps.harmonic_approx(lambda x: 30.0 * (1 - np.cos(x)), 0.2, well_width=1.0)
    assert well.center == pytest.approx(0.0, abs=1e-8)
    assert well.frequency == pytest.approx(np.sqrt(30.0), rel=1e-5)
    assert well.valid


def test_harmonic_approx_no_minimum():
    with pytest.raises(NoMinimum):
        traps.harmonic_approx(lambda x: 5.0 * x, 0.0)


def test_sine_squared_path_derivatives():
    path = traps.sine_squared_path(4.0, 15.0, 2.0)
    tt = np.linspace(-14, 14, 11)
    h = 1e-5
    num_v = (np.asarray(path.x(tt + h)) - np.asarray(path.x(tt - h))) / (2 * h)
    assert np.allclose(path.velocity(tt), num_v, atol=1e-6)
    d3 = path.derivative(3)
    num3 = (np.asarray(path.derivative(2)(tt + h)) - np.asarray(path.derivative(2)(tt - h))) / (2 * h)
    assert np.allclose(d3(tt), num3, atol=1e-4)


def test_velocity_without_analytic_derivative_raises():
    path = traps.Trajectory(tau=1.0, x=np.sin)
    assert path.derivative(0) is np.sin
    with pytest.raises(ValidationError, match="order 1"):
        path.velocity(0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: traps.sine_squared_path(float("nan"), 10.0, 1.0),
        lambda: traps.sine_squared_path(4.0, float("inf"), 1.0),
        lambda: traps.sine_squared_path(4.0, 10.0, 0.0),
        lambda: traps.sine_squared_path(4.0, 10.0, float("nan")),
        lambda: traps.gaussian_bump_path(float("inf"), 20.0, 3.0),
        lambda: traps.gaussian_bump_path(2.0, float("nan"), 3.0),
        lambda: traps.gaussian_bump_path(2.0, 20.0, -1.0),
    ],
)
def test_path_rejects_nonfinite_or_nonpositive_parameters(make):
    with pytest.raises(ValidationError):
        make()


def test_switching_config_reference_values():
    cfg = traps.SwitchingConfig.rb87_microtrap()
    assert cfg.omega0 == pytest.approx(2 * cfg.omega)
    assert cfg.omega == pytest.approx(2 * np.pi * 23.4e3)
    a_x = cfg.length_si
    assert a_x == pytest.approx(np.sqrt(traps.HBAR / (traps.MASS_RB87 * cfg.omega)))
    assert cfg.x0 == pytest.approx(3 * np.sqrt(2) * a_x)
    assert cfg.g1d("bb") == pytest.approx(2 * 5.1e-9 * traps.HBAR * cfg.omega_perp)


def test_switching_config_validation():
    with pytest.raises(ValidationError):
        traps.SwitchingConfig(omega0=1.0, omega=1.0, omega_y=1.0, omega_z=1.0, x0=-1.0, a_s_bb=1e-9, a_s_ab=1e-9)
    with pytest.raises(ValidationError):
        traps.SwitchingConfig(omega0=0.0, omega=1.0, omega_y=1.0, omega_z=1.0, x0=1.0, a_s_bb=1e-9, a_s_ab=1e-9)


def test_switching_potential_window():
    cfg = traps.SwitchingConfig.rb87_microtrap()
    x = np.linspace(-3e-7, 3e-7, 7)
    before = traps.switching_potential(cfg, "b", -1e-6, x)
    during = traps.switching_potential(cfg, "b", 1e-6, x, tau=1e-4)
    after = traps.switching_potential(cfg, "b", 2e-4, x, tau=1e-4)
    assert np.allclose(before, after)
    assert np.allclose(during, 0.5 * cfg.mass * cfg.omega**2 * x**2)
    a_state = traps.switching_potential(cfg, "a", 1e-6, x, tau=1e-4)
    assert np.allclose(a_state, before)
    with pytest.raises(ValidationError):
        traps.switching_potential(cfg, "c", 0.0, x)


def test_lattice_beam_validation():
    with pytest.raises(ValidationError):
        traps.LatticeBeamConfig(k=1.0, depth=-1.0, tau_r=1.0, tau_i=1.0)
    with pytest.raises(ValidationError):
        traps.LatticeBeamConfig(k=1.0, depth=1.0, tau_r=0.0, tau_i=1.0)
