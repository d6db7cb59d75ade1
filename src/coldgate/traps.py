"""Trap potentials, trap-center trajectories and the switched-microtrap
configuration.

All gate physics downstream works in harmonic-oscillator units (m = hbar =
omega = 1); SI values only enter through configuration objects and are
converted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import NoMinimum, ValidationError

HBAR = 1.054571817e-34  # J s
MASS_RB87 = 1.44316060e-25  # kg


@dataclass(frozen=True)
class LatticeBeamConfig:
    """lin-angle-lin standing-wave lattice produced by counter-propagating
    beams with polarization angle 2*theta.

    ``depth`` is the single-beam potential scale (alpha |E0|^2) in units of
    hbar*omega of the reference well; ``k`` in units of 1/a0.
    """

    k: float
    depth: float
    tau_r: float
    tau_i: float

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValidationError("lattice depth must be >= 0")
        if self.tau_r <= 0:
            raise ValidationError("tau_r must be > 0")


def lattice_potentials(cfg: LatticeBeamConfig, z, theta):
    """State-dependent lattice potentials (V_a, V_b) at position z.

    The two circular polarization components give standing waves
    depth*sin^2(kz +/- theta); the b state sees only the sigma-plus wave
    while the a state sees the 1/4 - 3/4 mixture.
    """
    vp = cfg.depth * np.sin(cfg.k * np.asarray(z) + theta) ** 2
    vm = cfg.depth * np.sin(cfg.k * np.asarray(z) - theta) ** 2
    vb = vp
    va = (vp + 3.0 * vm) / 4.0
    return va, vb


def theta_profile(t, tau_r: float, tau_i: float):
    """Polarization-angle switching profile theta(t).

    Rises smoothly from 0 at t = 0 to pi/2 for |t| >> tau_i, with ramp time
    tau_r.
    """
    t = np.asarray(t, dtype=float)
    num = 1.0 + np.exp(-((tau_i / tau_r) ** 2))
    den = 1.0 + np.exp(np.clip((t**2 - tau_i**2) / tau_r**2, None, 700.0))
    return np.pi * (1.0 - num / den) / 2.0


@dataclass(frozen=True)
class HarmonicWell:
    center: float
    frequency: float
    depth: float
    valid: bool


def harmonic_approx(
    potential: Callable[[float], float],
    well_center_guess: float,
    well_width: float = 1.0,
    mass: float = 1.0,
    min_depth: float = 10.0,
) -> HarmonicWell:
    """Locate a well minimum near the guess and fit a harmonic frequency.

    Golden-section minimization over [guess - width, guess + width], then a
    5-point central second difference with step 1e-4 * well_width.  ``valid``
    is False when the well depth (measured to the potential value one width
    away) is below ``min_depth``.
    """
    res = minimize_scalar(
        potential,
        bracket=None,
        bounds=(well_center_guess - well_width, well_center_guess + well_width),
        method="bounded",
        options={"xatol": 1e-12},
    )
    c = float(res.x)
    h = 1e-4 * well_width
    f = [potential(c + i * h) for i in (-2, -1, 0, 1, 2)]
    curv = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    if curv <= 0:
        raise NoMinimum(f"no positive curvature at stationary point near {well_center_guess}")
    freq = float(np.sqrt(curv / mass))
    depth = float(min(potential(c - well_width), potential(c + well_width)) - f[2])
    return HarmonicWell(center=c, frequency=freq, depth=depth, valid=bool(depth > min_depth))


@dataclass
class Trajectory:
    """Trap-center path x(t) on [-tau, tau] in oscillator units, as
    closed-form callables with optional analytic derivatives; each must map
    an array of times to an array of the same shape (``moving`` samples them
    on whole Chebyshev grids)."""

    tau: float
    x: Callable[[float], float]
    dx: Callable[[float], float] | None = None
    d2x: Callable[[float], float] | None = None
    derivs: list[Callable] | None = None  # analytic derivatives, derivs[n] = d^n x/dt^n

    def velocity(self, t):
        return self.derivative(1)(t)

    def derivative(self, n: int):
        """n-th time derivative as a callable, from the analytic ones the
        path carries; ValidationError past them, since finite differences are
        not accurate enough for ``moving.correction_terms``."""
        known = self.derivs or [self.x, self.dx, self.d2x]
        if 0 <= n < len(known) and known[n] is not None:
            return known[n]
        raise ValidationError(f"this path carries no analytic derivative of order {n}")


def _check_path(amplitude, **positive):
    """Reject a non-finite path amplitude and non-finite or non-positive
    values of the named parameters."""
    if not np.isfinite(amplitude):
        raise ValidationError(f"amplitude must be finite, got {amplitude!r}")
    for name, value in positive.items():
        if not (np.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and > 0, got {value!r}")


def sine_squared_path(amplitude: float, tau: float, cycles: float = 0.5) -> Trajectory:
    """x(t) = A sin^2(c (t + tau)) with c = cycles*pi/(2 tau).

    cycles = 0.5 transports the trap by A over [-tau, tau]; integer cycles
    return it to the start (round trip).  Analytic derivatives to all
    orders.  A may have either sign; tau and cycles must be positive.
    """
    _check_path(amplitude=amplitude, tau=tau, cycles=cycles)
    c = cycles * np.pi / (2.0 * tau)
    A = amplitude

    def deriv(n):
        if n == 0:
            return lambda t: A * np.sin(c * (t + tau)) ** 2
        # d^n/dt^n [A/2 (1 - cos(2c(t+tau)))] = -A/2 (2c)^n cos(2c(t+tau) + n pi/2)
        return lambda t, _n=n: -0.5 * A * (2 * c) ** _n * np.cos(2 * c * (t + tau) + _n * np.pi / 2)

    derivs = [deriv(n) for n in range(9)]
    return Trajectory(tau=tau, x=derivs[0], dx=derivs[1], d2x=derivs[2], derivs=derivs)


def gaussian_bump_path(amplitude: float, tau: float, width: float) -> Trajectory:
    """Round-trip excursion x(t) = A exp(-t^2/(2 width^2)); A may have
    either sign, tau and width must be positive."""
    _check_path(amplitude=amplitude, tau=tau, width=width)
    A, w = amplitude, width

    def x(t):
        return A * np.exp(-np.asarray(t, dtype=float) ** 2 / (2 * w**2))

    def dx(t):
        t = np.asarray(t, dtype=float)
        return -A * t / w**2 * np.exp(-(t**2) / (2 * w**2))

    def d2x(t):
        t = np.asarray(t, dtype=float)
        return A * (t**2 / w**4 - 1.0 / w**2) * np.exp(-(t**2) / (2 * w**2))

    return Trajectory(tau=tau, x=x, dx=dx, d2x=d2x)


@dataclass(frozen=True)
class SwitchingConfig:
    """Parameters of the state-selectively switched double well (SI input).

    omega0: frequency of each initial well, omega: merged-well frequency for
    state b, omega_y/omega_z: transverse confinement, x0: half separation of
    the well minima, a_s_bb / a_s_ab: s-wave scattering lengths per channel.
    All frequencies angular (rad/s), lengths in metres.
    """

    omega0: float
    omega: float
    omega_y: float
    omega_z: float
    x0: float
    a_s_bb: float
    a_s_ab: float
    mass: float = MASS_RB87

    def __post_init__(self) -> None:
        if self.x0 <= 0:
            raise ValidationError("x0 must be > 0")
        if min(self.omega0, self.omega, self.omega_y, self.omega_z) <= 0:
            raise ValidationError("frequencies must be > 0")

    @classmethod
    def rb87_microtrap(cls) -> "SwitchingConfig":
        """Reference magnetic-microtrap parameter set: merged-well frequency
        2*pi*23.4 kHz, transverse 2*pi*150 kHz, omega0 = 2*omega,
        x0 = 3*sqrt(2)*a_x, a_s = 5.1 nm."""
        omega = 2 * np.pi * 23.4e3
        a_x = np.sqrt(HBAR / (MASS_RB87 * omega))
        return cls(
            omega0=2 * omega,
            omega=omega,
            omega_y=2 * np.pi * 150e3,
            omega_z=2 * np.pi * 150e3,
            x0=3 * np.sqrt(2) * a_x,
            a_s_bb=5.1e-9,
            a_s_ab=5.1e-9,
        )

    @property
    def omega_perp(self) -> float:
        return float(np.sqrt(self.omega_y * self.omega_z))

    @property
    def period(self) -> float:
        return 2 * np.pi / self.omega

    @property
    def length_si(self) -> float:
        """Single-particle oscillator length sqrt(hbar / (m omega)) of the
        merged well, in metres."""
        return float(np.sqrt(HBAR / (self.mass * self.omega)))

    def g1d(self, channel: str = "bb") -> float:
        """Effective 1D contact strength g = 2 a_s hbar omega_perp (SI, J m)."""
        a_s = self.a_s_bb if channel == "bb" else self.a_s_ab
        return 2.0 * a_s * HBAR * self.omega_perp


def switching_potential(cfg: SwitchingConfig, state: str, t: float, x, tau: float | None = None):
    """Single-particle switching potential w^state(x, t) in SI (J).

    Before t=0 and after t=tau both states see the mirrored double well
    built from v(x) = m omega0^2 (x - x0)^2 / 2; during (0, tau) the barrier
    is removed for state b only, leaving m omega^2 x^2 / 2.
    """
    if state not in ("a", "b"):
        raise ValidationError("state must be 'a' or 'b'")
    x = np.asarray(x, dtype=float)
    open_window = (t >= 0.0) and (tau is None or t <= tau)
    if state == "b" and open_window:
        return 0.5 * cfg.mass * cfg.omega**2 * x**2
    # mirrored double well, continuous at x = 0
    return 0.5 * cfg.mass * cfg.omega0**2 * (np.abs(x) - cfg.x0) ** 2
