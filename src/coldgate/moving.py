"""Moving-trap gate: exact coherent-state evolution, kinetic phases,
adiabaticity diagnostics and perturbative collisional phases.

Everything is in oscillator units (m = hbar = omega = 1).  A particle that
starts in the trap ground state and is dragged along x(t) stays within the
coherent-state manifold; the whole evolution is carried by two complex
numbers K and beta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import HierarchyViolated, PerturbationInvalid, QuadratureFailure, ValidationError
from .traps import Trajectory


@dataclass
class CoherentEvolution:
    """State of a dragged oscillator at time ``t``, started in |0> at ``-tau``.

    K accumulates the driving integral; beta is a complex phase accumulator
    whose imaginary part supplies the Poisson normalization e^{-|K|^2/2}.
    The physical state is the coherent state |gamma> with
    gamma = i K e^{-i(t+tau)}, times the pure phase e^{i Re(beta)}.
    """

    K: complex
    beta: complex
    tau: float
    t: float

    @property
    def gamma(self) -> complex:
        return 1j * self.K * np.exp(-1j * (self.t + self.tau))

    def amplitudes(self, n_max: int):
        """Oscillator-basis amplitudes c_n, n = 0..n_max."""
        n = np.arange(n_max + 1)
        from scipy.special import gammaln

        logfact = gammaln(n + 1.0)
        g = self.gamma
        # gamma^n / sqrt(n!) with care at gamma = 0
        if g == 0:
            vals = np.zeros(n_max + 1, dtype=complex)
            vals[0] = 1.0
        else:
            vals = np.exp(n * np.log(complex(g)) - 0.5 * logfact)
        return np.exp(1j * self.beta) * vals

    def occupation(self, n_max: int):
        """|c_n|^2; Poisson in |K|^2."""
        return np.abs(self.amplitudes(n_max)) ** 2

    def overlap_with_coherent(self, alpha: complex) -> complex:
        """<alpha|Psi> for a coherent state alpha (interaction picture)."""
        g = self.gamma
        return np.exp(1j * self.beta) * np.exp(-abs(alpha) ** 2 / 2 + np.conj(alpha) * g)

    def position_wavefunction(self, x):
        """Wavefunction on a position grid.

        The state is a displaced Gaussian, times the zero-point phase
        e^{-i(t+tau)/2} of the lab frame, so the result can be compared with
        a direct Schrodinger-picture propagation.
        """
        x = np.asarray(x, dtype=float)
        g = self.gamma
        xr, pr = np.sqrt(2) * g.real, np.sqrt(2) * g.imag
        psi = np.pi ** (-0.25) * np.exp(-0.5 * (x - xr) ** 2 + 1j * pr * x - 0.5j * xr * pr)
        phase = np.exp(1j * self.beta.real)
        phase *= np.exp(-0.5j * (self.t + self.tau))
        return phase * psi


def evolve_coherent(traj: Trajectory, t: float) -> CoherentEvolution:
    """Integrate the exact dragged-oscillator solution from -tau to t.

    dK/ds = x(s) e^{i(s+tau)} / sqrt(2)
    dbeta/ds = i K conj(dK/ds) - x(s)^2 / 2
    """
    tau = traj.tau

    def rhs(s, y):
        K = y[0] + 1j * y[1]
        xb = float(traj.x(s))
        dK = xb * np.exp(1j * (s + tau)) / np.sqrt(2)
        db = 1j * K * np.conj(dK) - 0.5 * xb**2
        return [dK.real, dK.imag, db.real, db.imag]

    sol = solve_ivp(rhs, (-tau, t), [0.0, 0.0, 0.0, 0.0], method="DOP853", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise QuadratureFailure(f"coherent evolution failed: {sol.message}")
    y = sol.y[:, -1]
    return CoherentEvolution(K=y[0] + 1j * y[1], beta=y[2] + 1j * y[3], tau=tau, t=t)


def kinetic_phase(traj: Trajectory, exact: bool = True) -> float:
    """One-particle transport phase for a round-trip trajectory.

    Exact mode: phase of the overlap of the evolved state with the
    instantaneous ground state (a Gaussian displaced to x(tau)).
    Approximate mode: (1/2) integral of xdot^2 dt.
    """
    tau = traj.tau
    if not exact:
        val, err = quad(lambda s: 0.5 * float(np.asarray(traj.velocity(s))) ** 2, -tau, tau, limit=400, epsabs=1e-12, epsrel=1e-12)
        if err > 1e-8:
            raise QuadratureFailure(f"velocity-squared integral error {err:.2e}")
        return float(val)
    ev = evolve_coherent(traj, tau)
    alpha = float(traj.x(tau)) / np.sqrt(2)
    ov = ev.overlap_with_coherent(alpha)
    return float(np.angle(ov))


def adiabaticity_residual(traj: Trajectory):
    """Modulus of int xdot e^{is} ds (units of a0) and the resulting final
    excited-state population 1 - e^{-r^2/2}."""
    tau = traj.tau

    def f(s):
        return float(np.asarray(traj.velocity(s))) * np.exp(1j * s)

    re, ere = quad(lambda s: f(s).real, -tau, tau, limit=400, epsabs=1e-12, epsrel=1e-12)
    im, eim = quad(lambda s: f(s).imag, -tau, tau, limit=400, epsabs=1e-12, epsrel=1e-12)
    r = float(np.hypot(re, im))
    return r, float(-np.expm1(-(r**2) / 2.0))


def gaussian_density_product(sep: float, w1: float, w2: float) -> float:
    """Integral of the densities of two 1D ground-state Gaussians of widths
    w1, w2 whose centers are ``sep`` apart."""
    s2 = 0.5 * (w1**2 + w2**2)
    return float(np.exp(-(sep**2) / (2 * s2)) / np.sqrt(2 * np.pi * s2))


def gaussian_mode_overlap(sep: float, w1: float, w2: float) -> float:
    """Wavefunction overlap <psi1|psi2> of two real ground-state Gaussians."""
    s2 = w1**2 + w2**2
    return float(np.sqrt(2 * w1 * w2 / s2) * np.exp(-(sep**2) / (2 * s2)))


def interaction_shift(sep_x: float, a_s: float, same_state: bool = False) -> float:
    """Mean-field energy shift of two Gaussian-localized atoms (units hbar*omega).

    Both atoms are 3D oscillator ground states of unit widths, their centers
    ``sep_x`` apart along x and aligned transversely.  Distinct internal
    states: 4 pi a_s (hbar^2/m) * integral n1 n2 d3x.  Same state:
    coefficient 8 pi / (1 + |<psi1|psi2>|^2) instead of 4 pi.
    """
    seps = (sep_x, 0.0, 0.0)
    dens = 1.0
    for d in seps:
        dens *= gaussian_density_product(d, 1.0, 1.0)
    if same_state:
        ov = 1.0
        for d in seps:
            ov *= gaussian_mode_overlap(d, 1.0, 1.0)
        coeff = 8 * np.pi / (1 + ov**2)
    else:
        coeff = 4 * np.pi
    return float(coeff * a_s * dens)


@dataclass
class GatePhases:
    """Kinetic and collisional phases of the two-atom gate (radians)."""

    phi_a: float = 0.0
    phi_b: float = 0.0
    phi_ab: float = 0.0
    phi_aa: float = 0.0
    phi_bb: float = 0.0


def collisional_phase_perturbative(traj1: Trajectory, traj2: Trajectory, a_s: float) -> float:
    """Collisional phase int dt DeltaE(t)/hbar for two dragged atoms in
    distinct internal states.

    Densities are instantaneous Gaussian ground states centered on the two
    trajectories.  Raises ValidationError for a non-finite ``a_s`` and
    PerturbationInvalid when max |DeltaE| >= 0.5 or is NaN at any of 2001
    times; warns above 0.1.
    """
    if not np.isfinite(a_s):
        raise ValidationError(f"a_s must be finite, got {a_s!r}")
    tau = min(traj1.tau, traj2.tau)

    def shift(s):
        sep = float(np.asarray(traj1.x(s))) - float(np.asarray(traj2.x(s)))
        return interaction_shift(sep, a_s)

    ts = np.linspace(-tau, tau, 2001)
    peak = float(np.max(np.abs([shift(s) for s in ts])))  # unlike max(), keeps a NaN sample
    if not peak < 0.5:  # NaN fails too
        raise PerturbationInvalid(f"max |DeltaE| = {peak:.3f} hbar*omega >= 0.5")
    if peak >= 0.1:
        warnings.warn(f"max |DeltaE| = {peak:.3f} hbar*omega above 0.1; phase is perturbative only", stacklevel=2)
    val, err = quad(shift, -tau, tau, limit=400, epsabs=1e-10, epsrel=1e-10)
    if err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureFailure(f"collisional phase integral error {err:.2e}")
    return float(val)


def gate_map(phases: GatePhases):
    """Diagonal two-atom phase table and its reduced phase-gate form.

    full[s] is the factor multiplying |s1 s2>; reduced absorbs the
    one-particle phases into the state definitions, leaving only the
    collisional parts.
    """
    p = phases
    tot = {
        "aa": 2 * p.phi_a + p.phi_aa,
        "ab": p.phi_a + p.phi_b + p.phi_ab,
        "ba": p.phi_b + p.phi_a + p.phi_ab,
        "bb": 2 * p.phi_b + p.phi_bb,
    }
    full = {s: np.exp(-1j * v) for s, v in tot.items()}
    reduced = {
        "aa": np.exp(-1j * p.phi_aa),
        "ab": np.exp(-1j * p.phi_ab),
        "ba": np.exp(-1j * p.phi_ab),
        "bb": np.exp(-1j * p.phi_bb),
    }
    return full, reduced


@dataclass
class CorrectionExpansion:
    """Integration-by-parts expansion of the endpoint driving integral K.

    boundary_terms[k] involves the k-th trajectory derivative at the
    endpoints; remainder is the leftover integral of the (N)-th derivative.
    """

    boundary_terms: list
    remainder: complex

    @property
    def total(self) -> complex:
        return complex(sum(self.boundary_terms) + self.remainder)


def correction_terms(traj: Trajectory, order: int, t: float | None = None) -> CorrectionExpansion:
    """Expand K(t, -tau) in boundary terms of increasing derivative order.

    K = (1/sqrt2) int x(s) e^{i(s+tau)} ds
      = (1/sqrt2) [ sum_k i^k (-i) (f_k(t) e^{i(t+tau)} - f_k(-tau)) + i^N R ]
    with f_k the k-th derivative of the path.  Warns HierarchyViolated when
    successive derivative max-norms do not decrease.
    """
    tau = traj.tau
    if t is None:
        t = tau
    ss = np.linspace(-tau, t, 513)
    norms = []
    terms = []
    for k in range(order):
        fk = traj.derivative(k)
        norms.append(max(abs(float(np.asarray(fk(s)))) for s in ss))
        bt = (1j**k) * (-1j) * (float(np.asarray(fk(t))) * np.exp(1j * (t + tau)) - float(np.asarray(fk(-tau)))) / np.sqrt(2)
        terms.append(bt)
    for k in range(1, len(norms)):
        if norms[k - 1] > 0 and norms[k] > norms[k - 1]:
            warnings.warn(
                f"derivative hierarchy violated at order {k}: {norms[k]:.3g} > {norms[k - 1]:.3g}",
                HierarchyViolated,
                stacklevel=2,
            )
            break
    fN = traj.derivative(order)

    def g(s):
        return float(np.asarray(fN(s))) * np.exp(1j * (s + tau)) / np.sqrt(2)

    re, _ = quad(lambda s: g(s).real, -tau, t, limit=400)
    im, _ = quad(lambda s: g(s).imag, -tau, t, limit=400)
    rem = (1j**order) * (re + 1j * im)
    return CorrectionExpansion(boundary_terms=terms, remainder=rem)
