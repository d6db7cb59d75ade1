"""Moving-trap gate: exact coherent-state evolution, kinetic phases,
adiabaticity diagnostics and perturbative collisional phases.

Everything is in oscillator units (m = hbar = omega = 1).  A particle that
starts in the trap ground state and is dragged along x(t) stays within the
coherent-state manifold; the whole evolution is carried by two complex
numbers K and beta.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy loads it lazily; load it with the module, not in the first step
from numpy.polynomial.chebyshev import chebder, chebint, chebmul

from .errors import HierarchyViolated, PerturbationInvalid, QuadratureFailure, ValidationError
from .traps import Trajectory

CHEB_TOL = 1e-12  # the last 8 Chebyshev coefficients, relative to the largest
CHEB_MAX_POINTS = 2**16 + 1


def _antiderivative(f, a: float, b: float):
    """Chebyshev series, in u = (2s - a - b)/(b - a), of F(s) = int_a^s f:
    ``chebint`` of f's interpolant at n + 1 second-kind points on [a, b],
    whose coefficients are one DCT-I (an FFT of the mirrored samples).  F(b)
    is its sum, as T_k(1) = 1 (the Clenshaw-Curtis value).  n doubles from
    32 until the last 8 coefficients are at most CHEB_TOL of the largest.
    Raises QuadratureFailure past CHEB_MAX_POINTS and OverflowError on a
    non-finite sample."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    n = 32
    while n < CHEB_MAX_POINTS:
        u = np.cos(np.pi * np.arange(n + 1) / n)
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.asarray(f(mid + half * u))
        if not np.all(np.isfinite(v)):
            raise OverflowError(f"integrand is not finite on [{a:.6g}, {b:.6g}]")
        c = np.fft.fft(np.concatenate([v, v[-2:0:-1]]))[: n + 1] / n
        c = c if np.iscomplexobj(v) else c.real
        c[[0, n]] /= 2
        if np.max(np.abs(c[-8:])) <= CHEB_TOL * np.max(np.abs(c)):
            return chebint(c, lbnd=-1, scl=half)  # all zero on an empty interval (half = 0)
        n *= 2
    raise QuadratureFailure(f"integrand on [{a:.6g}, {b:.6g}] not resolved at the cap of {CHEB_MAX_POINTS} Chebyshev points")


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
        logfact = np.array([math.lgamma(k + 1.0) for k in n])
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
        """<alpha|Psi> for a coherent state alpha (interaction picture), one
        exponential of modulus e^{-|gamma - alpha|^2/2} <= 1, so no overflow."""
        return np.exp(1j * self.beta - abs(alpha) ** 2 / 2 + np.conj(alpha) * self.gamma)

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
        return np.exp(1j * self.beta.real) * np.exp(-0.5j * (self.t + self.tau)) * psi


def evolve_coherent(traj: Trajectory, t: float) -> CoherentEvolution:
    """The exact dragged-oscillator solution from -tau to t.

    K(t) = int_{-tau}^t K'(s) ds with K'(s) = x(s) e^{i(s+tau)} / sqrt(2)
    beta(t) = int_{-tau}^t [i K(s) conj(K'(s)) - x(s)^2 / 2] ds
    K is one Chebyshev series in u (``_antiderivative``); the first term of
    beta is i int K conj(dK/du) du, exact as the integral of the product
    series.  Raises OverflowError on a non-finite beta.
    """
    tau = traj.tau
    K = _antiderivative(lambda s: traj.x(s) * np.exp(1j * (s + tau)) / np.sqrt(2), -tau, t)
    with np.errstate(over="ignore", invalid="ignore"):
        beta = 1j * chebint(chebmul(K, chebder(K).conj()), lbnd=-1).sum()
    beta -= _antiderivative(lambda s: 0.5 * traj.x(s) ** 2, -tau, t).sum()
    if not np.isfinite(beta):
        raise OverflowError(f"beta is not finite on [{-tau:.6g}, {t:.6g}]")
    return CoherentEvolution(K=complex(K.sum()), beta=complex(beta), tau=tau, t=t)


def kinetic_phase(traj: Trajectory, exact: bool = True) -> float:
    """One-particle transport phase for a round-trip trajectory.

    Exact mode: the phase Re beta + Im(conj(alpha) gamma), wrapped to
    (-pi, pi], of the overlap with the instantaneous ground state alpha =
    x(tau)/sqrt2; it stays finite where the overlap's modulus underflows.
    Approximate mode: (1/2) integral of xdot^2 dt.
    """
    tau = traj.tau
    if not exact:
        return float(_antiderivative(lambda s: 0.5 * traj.velocity(s) ** 2, -tau, tau).sum())
    ev, alpha = evolve_coherent(traj, tau), float(traj.x(tau)) / np.sqrt(2)
    return float(np.angle(np.exp(1j * (ev.beta.real + alpha * ev.gamma.imag))))


def adiabaticity_residual(traj: Trajectory):
    """Modulus of int xdot e^{is} ds (units of a0) and the resulting final
    excited-state population 1 - e^{-r^2/2}."""
    tau = traj.tau
    r = float(abs(_antiderivative(lambda s: traj.velocity(s) * np.exp(1j * s), -tau, tau).sum()))
    return r, float(-np.expm1(-(r**2) / 2.0))


def gaussian_density_product(sep, w1: float, w2: float):
    """Integral of the densities of two 1D ground-state Gaussians of widths
    w1, w2 whose centers are ``sep`` (a number or an array) apart."""
    s2 = 0.5 * (w1**2 + w2**2)
    return np.exp(-(sep**2) / (2 * s2)) / np.sqrt(2 * np.pi * s2)


def gaussian_mode_overlap(sep, w1: float, w2: float):
    """Wavefunction overlap <psi1|psi2> of two real ground-state Gaussians."""
    s2 = w1**2 + w2**2
    return np.sqrt(2 * w1 * w2 / s2) * np.exp(-(sep**2) / (2 * s2))


def interaction_shift(sep_x, a_s: float, same_state: bool = False):
    """Mean-field energy shift of two Gaussian-localized atoms (units hbar*omega).

    Both atoms are 3D oscillator ground states of unit widths, their centers
    ``sep_x`` (a number or an array) apart along x and aligned transversely.
    Distinct internal states: 4 pi a_s (hbar^2/m) * integral n1 n2 d3x.
    Same state: coefficient 8 pi / (1 + |<psi1|psi2>|^2) instead of 4 pi.
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
    return coeff * a_s * dens


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
        return interaction_shift(traj1.x(s) - traj2.x(s), a_s)

    with np.errstate(over="ignore"):  # a separation whose square overflows has zero density
        peak = float(np.max(np.abs(shift(np.linspace(-tau, tau, 2001)))))  # unlike max(), keeps a NaN sample
    if not peak < 0.5:  # NaN fails too
        raise PerturbationInvalid(f"max |DeltaE| = {peak:.3f} hbar*omega >= 0.5")
    if peak >= 0.1:
        warnings.warn(f"max |DeltaE| = {peak:.3f} hbar*omega above 0.1; phase is perturbative only", stacklevel=2)
    return float(_antiderivative(shift, -tau, tau).sum())


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
    t = tau if t is None else t
    norms, terms = [], []
    for k in range(order):
        fk = traj.derivative(k)
        norms.append(float(np.max(np.abs(fk(np.linspace(-tau, t, 513))))))
        terms.append((1j**k) * (-1j) * (float(fk(t)) * np.exp(1j * (t + tau)) - float(fk(-tau))) / np.sqrt(2))
    for k in range(1, len(norms)):
        if norms[k - 1] > 0 and norms[k] > norms[k - 1]:
            warnings.warn(
                f"derivative hierarchy violated at order {k}: {norms[k]:.3g} > {norms[k - 1]:.3g}",
                HierarchyViolated,
                stacklevel=2,
            )
            break
    fN = traj.derivative(order)
    rem = (1j**order) * complex(_antiderivative(lambda s: fN(s) * np.exp(1j * (s + tau)) / np.sqrt(2), -tau, t).sum())
    return CorrectionExpansion(boundary_terms=terms, remainder=rem)
