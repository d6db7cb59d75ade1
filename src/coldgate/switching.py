"""Sudden-switching collision gate.

The barrier of a state-selective double well is switched off for state b;
the two b atoms oscillate through each other and accumulate an interaction
phase.  Center-of-mass motion, like that of one released b atom, is
analytic (``cm_overlap_complex``).  The relative coordinate carries a
contact term g delta(x); ``propagate`` evolves it exactly in time in the
lowest even eigenpairs of that Hamiltonian, in closed form (Busch et al.
1998, in 1D: one bisection per level on ``math.lgamma``, eigenvectors in
the oscillator's even Hermite functions, which are also its g=0
reference).  Only the overlaps of the initial state with those functions
need a grid; the resolution precheck repeats the solve on 2N points with
twice the levels.  The series keeps the spectrum, so every (b,b) value
read between samples, the revival peaks included, is exact at its t.  The
(a,b) channel needs the full 2D two-particle grid and does not revive.

The grid propagations, ``propagate_ab``, ``_release_amplitudes`` and the
transport oracle of ``cli``, share one split-step kernel, ``_split_step``:
it advances a stacked batch of wavefunctions, shape (k, N) or (k, N, N),
in place with one ``numpy.fft`` transform pair per substep for the whole
batch.  The release and the transport oracle compose the Strang step to
fourth order (``_SUZUKI``), so the kernel cycles through the kinetic
factors of the composition's stages, and the caller supplies each
substep's half kick.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle

import numpy as np
import numpy.fft  # numpy loads it lazily; load it with the module, not in the first step

from .errors import ConvergenceFailure, NormLoss, ValidationError
from .traps import HBAR, SwitchingConfig


def cm_overlap_complex(omega0: float, omega: float, t, x0: float = 0.0):
    """Complex overlap <psi(0)|psi(t)> of the ground-state Gaussian of a
    well of frequency omega0 centred at ``x0`` (in units of the omega
    trap's oscillator length), released into the omega trap.  At x0 = 0
    this is the center-of-mass amplitude of the (b,b) gate; at the well
    offset it is the revival amplitude of one released b atom.

    Closed form [cos(wt) + i (w0^2+w^2)/(2 w0 w) sin(wt)]^{-1/2}, with the
    branch of the square root tracked continuously in t, times exp(E(t)).
    E is the x0^2-proportional exponent of the Gaussian overlap integral
    with Heller's packet exp(i A (x-q)^2/2 + i p (x-q) + i S) (J. Chem.
    Phys. 62, 1544 (1975)): width A_t = (i nu cos wt - sin wt) /
    (i nu sin wt + cos wt) with nu = w0/w, centre q = x0 cos wt, momentum
    p = -x0 sin wt and action S = -x0^2 sin(2wt)/4.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nu, cos, sin = omega0 / omega, np.cos(omega * t), np.sin(omega * t)
    c = (omega0**2 + omega**2) / (2 * omega0 * omega)
    z = cos + 1j * c * sin
    # z traces an ellipse at rate omega; z e^{-i omega t} stays in the right
    # half plane, so the continuous phase is omega*t plus a bounded angle
    ph = omega * t + np.angle(z * np.exp(-1j * omega * t))
    out = np.abs(z) ** (-0.5) * np.exp(-0.5j * ph)
    A = (1j * nu * cos - sin) / (1j * nu * sin + cos)
    q, p, S = x0 * cos, -x0 * sin, -(x0**2) * np.sin(2 * omega * t) / 4
    # int exp(-a x^2 + b x + e) dx = sqrt(pi/a) exp(b^2/(4a) + e); the
    # sqrt(pi/a) is the x0 = 0 factor above
    a = (nu - 1j * A) / 2
    b = nu * x0 - 1j * A * q + 1j * p
    e = -nu * x0**2 / 2 + 1j * A * q**2 / 2 - 1j * p * q + 1j * S
    out = out * np.exp(b**2 / (4 * a) + e)
    return out if out.size > 1 else complex(out[0])


def cm_overlap_analytic(omega0: float, omega: float, t):
    """|<psi_cm(0)|psi_cm(t)>|^2 = [1 + (w0^2-w^2)^2/(4 w0^2 w^2) sin^2 wt]^{-1/2}."""
    if omega0 <= 0 or omega <= 0:
        raise ValidationError("frequencies must be positive")
    t = np.asarray(t, dtype=float)
    fac = (omega0**2 - omega**2) ** 2 / (4 * omega0**2 * omega**2)
    return (1.0 + fac * np.sin(omega * t) ** 2) ** (-0.5)


def _big_omega(cfg: SwitchingConfig, t):
    w, w0 = cfg.omega, cfg.omega0
    return w**2 * w0 / (w**2 * np.cos(w * t) ** 2 + w0**2 * np.sin(w * t) ** 2)


def energy_shift_bb(cfg: SwitchingConfig, t):
    """Perturbative interaction energy shift DeltaE^{bb}(t) in joules.

    The two b atoms breathe through each other in the merged well; the shift
    peaks when they meet at the center (omega*t = pi/2 mod pi).
    """
    t = np.asarray(t, dtype=float)
    m, w, w0 = cfg.mass, cfg.omega, cfg.omega0
    Om = _big_omega(cfg, t)
    a_s = cfg.a_s_bb
    pref = a_s * HBAR * cfg.omega_perp * np.sqrt(8 * m * Om / (np.pi * HBAR))
    expo = -(2 * m * w0 / HBAR) * cfg.x0**2 * (1.0 - np.sin(w * t) ** 2 * w0 * Om / w**2)
    return pref * np.exp(expo)


@dataclass(frozen=True)
class PerturbativePhase:
    closed_form: float
    quadrature: float


def phase_per_period_perturbative(cfg: SwitchingConfig) -> PerturbativePhase:
    """Interaction phase per oscillation period phi^{bb}_T (radians).

    closed_form: saddle-point result
        8 a_s sqrt[(m w0/hbar) w_y w_z / (w0^2 + w^2 (4 x0^2 m w0/hbar - 1))]
    quadrature: integral of DeltaE^{bb}(t)/hbar over one period by the 128-point
        trapezoid rule, geometric here (Trefethen & Weideman, SIAM Rev. 56, 385).
    """
    m, w, w0 = cfg.mass, cfg.omega, cfg.omega0
    chi = 4 * cfg.x0**2 * m * w0 / HBAR
    closed = 8 * cfg.a_s_bb * np.sqrt((m * w0 / HBAR) * cfg.omega_y * cfg.omega_z / (w0**2 + w**2 * (chi - 1.0)))
    T = cfg.period
    val = T * np.mean(energy_shift_bb(cfg, np.arange(128) * (T / 128))) / HBAR
    return PerturbativePhase(closed_form=float(closed), quadrature=float(val))


@dataclass
class TwoParticleGrid:
    """Uniform 1D grid for the relative (or a single-particle) coordinate."""

    L: float
    N: int
    dt: float

    def __post_init__(self):
        positive = all(np.isfinite(v) and v > 0 for v in (self.L, self.dt))
        if self.N < 16 or not positive:
            raise ValidationError(f"bad grid: need N >= 16 and finite L, dt > 0, got N={self.N}, L={self.L}, dt={self.dt}")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def x(self):
        return (np.arange(self.N) - self.N // 2) * self.dx


# Suzuki's fourth-order composition S(p h) S(p h) S((1 - 4p) h) S(p h) S(p h) of a symmetric
# step, p = 1/(4 - 4^(1/3)) (Phys. Lett. A 146, 319 (1990)), and each stage's midpoint over h
_SUZUKI = np.array([1, 1, -(4 ** (1 / 3)), 1, 1]) / (4 - 4 ** (1 / 3))
_SUZUKI_MIDPOINTS = np.cumsum(_SUZUKI) - _SUZUKI / 2


def _split_step(psi, kick, dt, dx, n_steps, every=0, observe=None):
    """Advance the stacked batch ``psi``, of shape (k, N) or (k, N, N), in
    place by ``n_steps`` Strang substeps exp(-i dt V/2) exp(-i dt T) exp(-i dt V/2)
    with T = -(1/2) times the Laplacian on a periodic grid of spacing ``dx``.

    ``dt`` is a scalar, or a column with one step per member, shape (k, 1)
    for a (k, N) batch, so that each member advances with its own kinetic
    factor.  A composition of m substeps of different lengths passes a
    stage axis in front, shape (m, k, 1): substep j then uses the steps of
    stage j % m.  ``kick(j)`` returns the half kick exp(-i dt V/2) of
    substep j, an array that broadcasts against ``psi``; a static potential
    passes ``lambda j: half``.

    The run is cut into segments of ``every`` substeps (one segment when
    0).  A segment opens and closes with a half kick, and between substeps
    j-1 and j inside it applies kick(j-1) * kick(j); ``kick`` is called once
    per substep.  ``observe(s, psi)`` is called after each substep s that is
    a multiple of ``every`` (of ``n_steps`` when ``every`` is 0).
    """
    k2 = [(2 * np.pi * np.fft.fftfreq(n, d=dx)) ** 2 for n in psi.shape[1:]]
    expK = np.exp(-0.5j * dt * sum(np.meshgrid(*k2, indexing="ij", sparse=True)))
    # substep j takes the kinetic factor of stage j % m
    kinetic = cycle(expK if np.ndim(dt) > psi.ndim else [expK])
    # 1D members transform along their last axis, 2D members over both
    forward, inverse = (np.fft.fft, np.fft.ifft) if psi.ndim == 2 else (np.fft.fft2, np.fft.ifft2)
    seg = every or max(n_steps, 1)
    for s0 in range(0, n_steps, seg):
        s1 = min(s0 + seg, n_steps)
        half = kick(s0)
        psi *= half
        for j in range(s0 + 1, s1 + 1):
            np.multiply(forward(psi, out=psi), next(kinetic), out=psi)
            fused = half
            if j < s1:
                half = kick(j)
                fused = fused * half
            # keep the returned array: ifft2(a, out=a) returns a new one and leaves a holding neither transform
            np.multiply(inverse(psi, out=psi), fused, out=psi)
        if observe is not None and s1 % seg == 0:
            observe(s1, psi)


def _regularized_delta(x, sigma):
    return np.exp(-(x**2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))


@dataclass
class SwitchTimeSeries:
    """The (b,b) gate dynamics of ``propagate``, sampled at the times t
    (units of 1/omega, T = 2 pi).  The series keeps its ``spectrum``, so
    ``amp_init_at``, ``phase_at`` and the revival fields are exact at any t,
    not read between samples."""

    t: np.ndarray
    phase: np.ndarray
    overlap_ref: np.ndarray
    overlap_init: np.ndarray
    amp_init: np.ndarray
    period: float
    deltaT: float
    tau: float
    revival_times: np.ndarray
    spectrum: _BBSpectrum
    precheck_delta: float | None
    phase_final: float = np.nan
    revival: float = np.nan

    def phase_at(self, t: float) -> float:
        """The phase at t, on the 2 pi branch of the nearest sample."""
        p = -np.angle(self.spectrum.amplitudes(np.atleast_1d(t))[1, 0])
        near = self.phase[np.argmin(np.abs(self.t - t))]
        return float(p + 2 * np.pi * np.round((near - p) / (2 * np.pi)))

    def amp_init_at(self, t: float) -> complex:
        return complex(self.spectrum.amplitudes(np.atleast_1d(t))[0, 0])


def _bb_initial_state(cfg: SwitchingConfig, x):
    """Exchange-symmetric relative-coordinate state: both atoms in their own
    well ground states, centers 2*x0 apart (relative-oscillator units).
    ``ValidationError`` if the grid x reaches so far that x^2 overflows, or
    is so fine that the state's norm underflows or its square overflows."""
    nu0 = cfg.omega0 / cfg.omega
    mu = cfg.mass / 2.0
    a_r = np.sqrt(HBAR / (mu * cfg.omega))
    r0 = 2 * cfg.x0 / a_r
    reach = float(np.max(np.abs(x)) + abs(r0))
    if not math.isfinite(max(float(nu0), 1.0) * reach * reach):  # bounds (x - r0)^2 and nu0 (x - r0)^2
        raise ValidationError(f"a grid reaching |x| = {reach:.3g} overflows x^2")
    g = np.exp(-0.5 * nu0 * (x - r0) ** 2) + np.exp(-0.5 * nu0 * (x + r0) ** 2)
    norm2 = float(np.sum(g**2) * (x[1] - x[0]))
    if not (norm2 > 0 and math.isfinite(float(np.max(g)) ** 2 / norm2)):
        raise ValidationError(f"the initial state's norm underflows on a grid of spacing {x[1] - x[0]:.3g}")
    return g / math.sqrt(norm2), r0


# The (b,b) channel in the lowest even eigenpairs of the contact Hamiltonian
BASIS_SIZE = 32  # lowest pairs that carry the time evolution; the precheck takes twice as many
BOUND_G_MIN = -1e4  # most attractive contact whose bound state keeps its overlaps to 1e-7
SERIES_CHUNK = 1024  # samples per chunk of the amplitude series
NEWTON_STEPS = 4  # from a sampled maximum 0.03 off at 100 samples per period, 3 land within 1e-14


def _even_hermite(x, count):
    """Rows h_0, h_2, ..., h_{2 count - 2}: the even eigenfunctions of
    V = x^2/2, at x."""
    out = np.empty((count, x.size))
    prev, h = np.zeros_like(x), np.pi**-0.25 * np.exp(-0.5 * x**2)
    for n in range(2 * count - 1):
        if n % 2 == 0:
            out[n // 2] = h
        prev, h = h, np.sqrt(2.0 / (n + 1)) * x * h - np.sqrt(n / (n + 1)) * prev
    return out


def _digamma(x):
    """The digamma function psi at the points x > 0: the recurrence
    psi(x) = psi(x + 1) - 1/x up to x >= 16, then the asymptotic series
    log x - 1/(2x) - sum_k B_2k / (2k x^2k) to x^-12, whose next term is
    below 1e-17 there."""
    x = np.array(x, dtype=float)
    out = np.zeros_like(x)
    while np.any(small := x < 16):
        out[small] -= 1 / x[small]
        x[small] += 1
    z = 1 / x**2
    series = z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (1 / 240 - z * (1 / 132 - z * 691 / 32760)))))
    return out + np.log(x) - 0.5 / x - series


def _contact_levels(g, count):
    """The lowest ``count`` even levels of H = -(1/2) d^2/dx^2 + x^2/2 +
    g delta(x), g != 0, in closed form (Busch, Englert, Rzazewski & Wilkens,
    Found. Phys. 28, 549 (1998), in 1D).  The level E = 2 nu + 1/2 + 2 eps
    solves S(E) = sum_m h_2m(0)^2 / (E0_m - E) = -1/g, that is tan(pi eps)
    Gamma(nu + 1 + eps) / Gamma(nu + 1/2 + eps) = g/2 with eps in (0, 1/2)
    for g > 0 and in (-1/2, 0) for g < 0; the bound state of g < 0 solves
    Gamma(eta + 1/2) / Gamma(eta) = |g|/2 for eta = -eps, which Wendel's
    bounds place in [g^2/4, g^2/4 + 1/2].  Each level is one bisection on
    ``math.lgamma``, to adjacent doubles.

    Returns eps, the norms 1/sqrt(S'(E)) of the eigenvectors, whose
    overlaps are <h_2m|phi_nu> = h_2m(0) / ((E0_m - E_nu) sqrt(S'(E_nu))),
    and the bisection steps.  A norm is |sin pi eps| sqrt(4 R / (pi +
    sin(pi eps) cos(pi eps) (psi(nu + 1 + eps) - psi(nu + 1/2 + eps)))), R
    the Gamma ratio, or sqrt(2|g| / (psi(eta + 1/2) - psi(eta))) for the
    bound state: finite at any g, where S' grows as 1/g^2.
    """
    log_half_g, sign = math.log(abs(g) / 2), math.copysign(1.0, g)
    eta, steps = np.empty(count), 0
    for nu in range(count):
        if nu == 0 and g < 0:
            lo, hi = g * g / 4, g * g / 4 + 0.5

            def f(e):
                return math.lgamma(e + 0.5) - math.lgamma(e)
        else:
            lo, hi = 0.0, 0.5

            def f(e, nu=nu):
                return math.log(math.tan(math.pi * e)) + math.lgamma(nu + 1 + sign * e) - math.lgamma(nu + 0.5 + sign * e)

        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if f(mid) > log_half_g else (mid, hi)
            steps += 1
        eta[nu] = hi
    eps, nu = sign * eta, np.arange(count)
    k = int(g < 0)  # the bound state, if any, is level 0
    e, v = eps[k:], nu[k:]
    s, c = np.sin(np.pi * e), np.cos(np.pi * e)
    ratio = np.exp([math.lgamma(n + 1 + x) - math.lgamma(n + 0.5 + x) for n, x in zip(v, e)])
    norm = np.empty(count)
    norm[k:] = np.abs(s) * np.sqrt(4 * ratio / (np.pi + s * c * (_digamma(v + 1 + e) - _digamma(v + 0.5 + e))))
    if k:
        norm[0] = np.sqrt(2 * abs(g)) / np.sqrt(_digamma(eta[0] + 0.5) - _digamma(eta[0]))  # one root underflows at tiny g
    return eps, norm, steps


@dataclass(frozen=True)
class _BBSpectrum:
    """The (b,b) state psi0 in the lowest even eigenpairs of the contact
    Hamiltonian (energies E, amplitudes c_n = <phi_n|psi0>) and of its g=0
    reference, the oscillator's h_0, h_2, .. (E0 = 2m + 1/2, d_m =
    <h_2m|psi0>), with overlaps O = <h_2m|phi_n>; ``iterations`` counts the
    bisection steps of the levels."""

    E: np.ndarray
    c: np.ndarray
    E0: np.ndarray
    d: np.ndarray
    O: np.ndarray
    iterations: int

    @property
    def tail_weight(self) -> float:
        """How far psi0 is from being held by the bases, the larger of
        |1 - sum c_n^2| and |1 - sum d_m^2| (NaN if either is).  Two-sided:
        on a grid too coarse or too short for h_{2 BASIS_SIZE - 2} the
        reference rows are not orthonormal, and sum d_m^2 can pass 1."""
        return float(np.max(np.abs([1.0 - np.sum(self.c**2), 1.0 - np.sum(self.d**2)])))

    def amplitudes(self, t):
        """<psi0|psi(t)> and <ref(t)|psi(t)> at the times t, rows in that
        order, evaluated SERIES_CHUNK samples at a time."""
        out = np.empty((2, len(t)), dtype=complex)
        for s in range(0, len(t), SERIES_CHUNK):
            tc = t[s : s + SERIES_CHUNK, None]
            psi = self.c * np.exp(-1j * tc * self.E)  # psi(t) in the phi_n basis
            out[0, s : s + SERIES_CHUNK] = psi @ self.c
            out[1, s : s + SERIES_CHUNK] = (psi @ self.O.T * np.exp(1j * tc * self.E0)) @ self.d
        return out

    def revival_peaks(self, t, overlap, n_periods):
        """The maxima of |a(t)|^2, a = <psi0|psi(t)> = sum c_n^2 e^{-i E_n t},
        near each k T, k = 1 .. n_periods: NEWTON_STEPS Newton steps on
        d|a|^2/dt = 2 Re(a* a') from the sampled maximum of ``overlap`` at
        the times ``t`` within 0.12 T of k T, all peaks at once."""
        period = 2 * np.pi
        windows = [np.flatnonzero(np.abs(t - k * period) <= 0.12 * period) for k in range(1, n_periods + 1)]
        tp = np.array([t[w[np.argmax(overlap[w])]] for w in windows])
        w = self.c**2
        for _ in range(NEWTON_STEPS):
            rot = np.exp(-1j * np.outer(tp, self.E))
            a, a1, a2 = rot @ w, rot @ (-1j * self.E * w), rot @ (-self.E**2 * w)
            # d/dt Re(a* a') = |a'|^2 + Re(a* a'')
            tp -= np.real(np.conj(a) * a1) / (np.abs(a1) ** 2 + np.real(np.conj(a) * a2))
        return tp


def _bb_spectrum(cfg: SwitchingConfig, grid: TwoParticleGrid, g_tilde, size=BASIS_SIZE) -> _BBSpectrum:
    """``_BBSpectrum`` of the lowest ``size`` even levels of the contact
    Hamiltonian, in closed form (``_contact_levels``).  The overlaps d_m
    are the trapezoid rule of the periodic ``grid`` for the even integrand
    on x = 0 .. L/2, so N must be even; c = O^T d.  g=0 gives O = I, and a
    non-finite g makes every field NaN, which fails the checks downstream."""
    if grid.N % 2:
        raise ValidationError(f"the (b,b) quadrature grid needs an even N, got N={grid.N}")
    if g_tilde < BOUND_G_MIN:
        raise ValidationError(f"contact g = {g_tilde:.3g} binds a state near -g^2/2: need g >= {BOUND_G_MIN:g}")
    x = grid.dx * np.arange(grid.N // 2 + 1)
    w = np.full(x.size, 2 * grid.dx)
    w[[0, -1]] = grid.dx
    u0, _ = _bb_initial_state(cfg, x)
    u0 /= np.sqrt(w @ u0**2)
    E0 = 2 * np.arange(size) + 0.5
    d = _even_hermite(x, size) @ (w * u0)
    if not np.isfinite(g_tilde):
        nan = np.full(size, np.nan)
        return _BBSpectrum(nan, nan, E0, d, np.outer(nan, nan), 0)
    if g_tilde == 0:
        return _BBSpectrum(E0, d, E0, d, np.eye(size), 0)
    eps, norm, steps = _contact_levels(g_tilde, size)
    O = _even_hermite(np.zeros(1), size) * norm / (E0[:, None] - E0 - 2 * eps)  # rows h_2m(0) norm_nu / (E0_m - E_nu)
    return _BBSpectrum(E=E0 + 2 * eps, c=O.T @ d, E0=E0, d=d, O=O, iterations=steps)


def propagate(
    cfg: SwitchingConfig,
    channel: tuple = ("b", "b"),
    n_periods: int = 7,
    N: int = 4096,
    L: float = 32.0,
    steps_per_period: int = 100,
    check_convergence: bool = True,
) -> SwitchTimeSeries:
    """Evolve the (b,b) channel through ``n_periods`` oscillations.

    Only the relative coordinate is evolved (the CM motion is analytic),
    side by side with a g=0 reference, both exactly in time: the initial
    state is expanded in the lowest BASIS_SIZE even eigenpairs of the
    oscillator with the contact interaction g delta(x), known in closed
    form (``_contact_levels``), and in the oscillator's even
    eigenfunctions h_0 .. h_62 for the reference.  Its overlaps with the
    h_2m are the trapezoid rule on the periodic grid of N points (N must
    be even) and length L.  Returns the phase relative to the reference
    and the overlaps, sampled ``steps_per_period`` times a period, with
    the spectrum, which gives them exactly at any t.  The revival near
    each k T is the maximum of |<psi0|psi(t)>|^2 found by Newton's method
    from the sampled one; a fit through them gives the revival period
    shift deltaT, and tau = n_periods (T + deltaT).  So
    ``steps_per_period`` sets only the written samples, the start of each
    Newton search and the 2 pi branch of ``phase_at``; the default 100
    gives the reads of 4000 to within 1e-13.

    With ``check_convergence`` the phase after one period must agree
    within 1e-3 rad with the same solve on 2N points and with
    2 BASIS_SIZE levels, which bounds both truncations, or
    ``ConvergenceFailure`` is raised.  ``NormLoss`` is raised when the
    norm of the initial state in either basis is more than 1e-6 from 1,
    as on a grid too short or too coarse to hold h_62.  The (a,b) channel
    needs the 2D grid of ``propagate_ab``, and the (a,a) channel has no
    dynamics: both raise ``ValidationError``, as do an odd N and a contact
    below BOUND_G_MIN.
    """
    channel = tuple(channel)
    if channel in (("a", "b"), ("b", "a")):
        raise ValidationError("the (a,b) channel needs the full 2D grid: call propagate_ab")
    if channel == ("a", "a"):
        raise ValidationError("the (a,a) channel has no dynamics: both atoms stay in their wells")
    if n_periods < 1:
        raise ValidationError("n_periods must be >= 1")
    if steps_per_period < 1:
        raise ValidationError(f"steps_per_period must be >= 1, got {steps_per_period!r}")

    period = 2 * np.pi
    dt = period / steps_per_period
    grid = TwoParticleGrid(L=L, N=N, dt=dt)

    a_r = np.sqrt(HBAR / (cfg.mass / 2.0 * cfg.omega))
    g_tilde = cfg.g1d("bb") / (HBAR * cfg.omega * a_r)
    spec = _bb_spectrum(cfg, grid, g_tilde)

    n_steps = int(round((n_periods + 0.1) * steps_per_period))
    t = np.arange(n_steps + 1) * dt
    precheck_delta = None
    if check_convergence:
        p1 = float(-np.angle(spec.amplitudes(t[steps_per_period : steps_per_period + 1])[1, 0]))
        p2 = _propagate_bb_once(cfg, TwoParticleGrid(L=L, N=2 * N, dt=dt), g_tilde, 1, steps_per_period)
        precheck_delta = abs(p1 - p2)
        if not precheck_delta <= 1e-3:  # NaN fails too
            raise ConvergenceFailure(f"phase changes by {precheck_delta:.2e} rad on 2N points with {2 * BASIS_SIZE} levels")

    if not spec.tail_weight <= 1e-6:
        raise NormLoss(
            f"the initial state's norm is {spec.tail_weight:.2e} from 1 in the {len(spec.E)} lowest eigenstates"
            " of H or of its g=0 reference"
        )

    a_init, a_ref = spec.amplitudes(t)
    ov_init = np.abs(a_init) ** 2
    peaks = spec.revival_peaks(t, ov_init, n_periods)
    # peak_k ~ k (T + deltaT), fitted through the origin
    ks = np.arange(1, n_periods + 1)
    deltaT = float(ks @ peaks / (ks @ ks) - period)
    ser = SwitchTimeSeries(
        t=t,
        phase=-np.unwrap(np.angle(a_ref)),
        overlap_ref=np.abs(a_ref) ** 2,
        overlap_init=ov_init,
        amp_init=a_init,
        period=period,
        deltaT=deltaT,
        tau=n_periods * (period + deltaT),
        revival_times=peaks,
        spectrum=spec,
        precheck_delta=precheck_delta,
    )
    ser.phase_final = ser.phase_at(ser.tau)
    ser.revival = abs(ser.amp_init_at(ser.tau)) ** 2
    return ser


def _propagate_bb_once(cfg, grid, g_tilde, n_periods, steps_per_period):
    """The (b,b) phase after ``n_periods`` periods from the closed form
    with 2 BASIS_SIZE levels and overlaps on ``grid`` (the resolution
    precheck)."""
    spec = _bb_spectrum(cfg, grid, g_tilde, 2 * BASIS_SIZE)
    t = np.array([n_periods * steps_per_period * grid.dt])
    return float(-np.angle(spec.amplitudes(t)[1, 0]))


def propagate_ab(
    cfg: SwitchingConfig,
    n_periods: int = 2,
    N: int = 256,
    L: float = 24.0,
    steps_per_period: int = 1000,
    sigma_reg: float = 0.08,
) -> tuple[np.ndarray, np.ndarray]:
    """Full 2D (x1, x2) propagation of the (a,b) channel.

    The a atom stays in its double well while the b atom oscillates through
    the merged well; the joint state does not return to itself.
    Single-particle oscillator units of the merged well.  Returns the times
    t, every 4 steps, and the amplitudes there, rows <psi0|psi(t)> and
    <ref(t)|psi(t)> with ref the g=0 reference."""
    period = 2 * np.pi
    dt = period / steps_per_period
    dx = L / N
    x = (np.arange(N) - N // 2) * dx
    a_x = cfg.length_si
    x0 = cfg.x0 / a_x
    nu0 = cfg.omega0 / cfg.omega
    g2 = cfg.g1d("ab") / (HBAR * cfg.omega * a_x)

    X1, X2 = np.meshgrid(x, x, indexing="ij")
    Va = 0.5 * nu0**2 * (np.abs(X1) - x0) ** 2  # a atom keeps its double well
    Vb = 0.5 * X2**2
    V0 = Va + Vb
    V = V0 + g2 * _regularized_delta(X1 - X2, sigma_reg)

    phi_a = (nu0 / np.pi) ** 0.25 * np.exp(-0.5 * nu0 * (x + x0) ** 2)
    phi_b = (nu0 / np.pi) ** 0.25 * np.exp(-0.5 * nu0 * (x - x0) ** 2)
    psi0 = np.outer(phi_a, phi_b).astype(complex)
    psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * dx * dx)

    n_steps = int(round((n_periods + 0.1) * steps_per_period))
    every = 4
    # rows: <psi0|psi>, <ref|psi> at every 4th step
    amp = np.ones((2, n_steps // every + 1), dtype=complex)

    def observe(s, stack):
        psi, ref = stack
        amp[:, s // every] = (np.vdot(psi0, psi) * dx * dx, np.vdot(ref, psi) * dx * dx)

    stack = np.stack([psi0, psi0])
    half = np.exp(-0.5j * dt * np.stack([V, V0]))
    _split_step(stack, lambda j: half, dt, dx, n_steps, every=every, observe=observe)

    nrm = float(np.sum(np.abs(stack[0]) ** 2) * dx * dx)
    if not abs(nrm - 1.0) <= 1e-6:
        raise NormLoss(f"norm drifted to {nrm:.8f}")

    return np.arange(0, n_steps + 1, every) * dt, amp


def _release_amplitudes(nu0, x0, N, L, steps):
    """Times and amplitudes <psi(0)|psi(t)> at each of ``steps`` steps over
    one period for the ground state of a well of frequency nu0 centred at x0,
    released into the merged well V = x^2/2 (oscillator units, period 2 pi).
    A step is the fourth-order ``_SUZUKI`` composition of five Strang
    substeps, run as the stage axis of ``_split_step``'s ``dt``."""
    dt = 2 * np.pi / steps
    grid = TwoParticleGrid(L=L, N=N, dt=dt)
    x = grid.x
    psi0 = (nu0 / np.pi) ** 0.25 * np.exp(-0.5 * nu0 * (x - x0) ** 2)
    psi0 = psi0.astype(complex) / np.sqrt(np.sum(np.abs(psi0) ** 2) * grid.dx)
    amps = np.ones(steps + 1, dtype=complex)

    def observe(s, stack):
        amps[s // 5] = np.vdot(psi0, stack[0]) * grid.dx

    stages = dt * _SUZUKI[:, None, None]
    halves = np.exp(-0.25j * stages[:, 0] * x**2)
    _split_step(psi0[None].copy(), lambda j: halves[j % 5], stages, grid.dx, 5 * steps, every=5, observe=observe)
    return np.arange(steps + 1) * dt, amps


@dataclass(frozen=True)
class NetPhaseResult:
    net_phase: float
    tau: float
    phi_bb_total: float
    phi_ab_total: float


def net_phase_gate(
    cfg: SwitchingConfig,
    n: int = 7,
    variant: str = "transverse-displacement",
    series: SwitchTimeSeries | None = None,
) -> NetPhaseResult:
    """Net conditional phase after n oscillations, phi^{bb} - 2 phi^{ab}.

    In the transverse-displacement variant the a-state well is offset so
    that only b-b pairs collide and phi^{ab} = 0 identically; phi^{aa} = 0
    always (the a atoms never leave their wells).
    """
    if series is None:
        series = propagate(cfg, ("b", "b"), n_periods=n)
    phi_bb = series.phase_final
    if variant == "transverse-displacement":
        phi_ab = 0.0
    elif variant == "aligned":
        t, (_, a_ref) = propagate_ab(cfg, n_periods=min(n, 2))
        phi_ab = -np.unwrap(np.angle(a_ref))[-1] / (t[-1] / series.period) * n  # per-period extrapolation
    else:
        raise ValidationError(f"unknown variant {variant!r}")
    return NetPhaseResult(net_phase=phi_bb - 2 * phi_ab, tau=series.tau, phi_bb_total=phi_bb, phi_ab_total=phi_ab)
