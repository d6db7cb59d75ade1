"""Sudden-switching collision gate.

The barrier of a state-selective double well is switched off for state b;
the two b atoms oscillate through each other and accumulate an interaction
phase.  Center-of-mass motion, like that of one released b atom, is
analytic (``cm_overlap_complex``).  The relative coordinate carries a
regularized contact term; ``propagate`` evolves it exactly in time in the
lowest even eigenpairs of the periodic grid Hamiltonian, and its g=0
reference in those of the oscillator, the even Hermite functions in closed
form.  On even functions the grid's FFT kinetic energy is a DCT-I, so a
block LOBPCG finds the interacting pairs without forming a matrix, and the
resolution precheck repeats the solve on the 2N grid, warm-started from the
N eigenvectors.  The series keeps the spectrum, so every (b,b) value read
between samples, the revival peaks included, is the exact one at its t.
The (a,b) channel needs the full 2D two-particle grid and does not revive.

The other grid propagations, ``propagate_ab``, ``_release_amplitudes`` and
the transport oracle of ``cli``, run through one split-step kernel,
``_split_step``, which is also the test oracle of the spectral (b,b) series.
It advances a stacked batch of wavefunctions, shape (k, N) or (k, N, N), in
place with one ``numpy.fft`` transform pair per substep for the whole batch.
The release and the transport oracle compose the Strang step to fourth
order (``_SUZUKI``), so the kernel cycles through the kinetic factors of the
composition's stages, and the caller supplies each substep's half kick.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
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
    basis_size: int
    solver_iterations: int
    tail_weight: float
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
    well ground states, centers 2*x0 apart (relative-oscillator units)."""
    nu0 = cfg.omega0 / cfg.omega
    mu = cfg.mass / 2.0
    a_r = np.sqrt(HBAR / (mu * cfg.omega))
    r0 = 2 * cfg.x0 / a_r
    g = np.exp(-0.5 * nu0 * (x - r0) ** 2) + np.exp(-0.5 * nu0 * (x + r0) ** 2)
    g /= np.sqrt(np.sum(np.abs(g) ** 2) * (x[1] - x[0]))
    return g, r0


# The (b,b) channel in the lowest even eigenpairs of the grid Hamiltonian
BLOCK_SIZE = 40  # LOBPCG block, started from the even Hermite functions h_0 .. h_78
BASIS_SIZE = 32  # lowest pairs that must converge; they carry the time evolution
RESIDUAL_TOL = 1e-11  # residual bound, relative to k_max^2/2 + max V
GRAM_DROP = 1e-12  # Gram eigenvalue below which a new direction is dropped
MAX_ITERATIONS = 100
SERIES_CHUNK = 1024  # samples per chunk of the amplitude series
NEWTON_STEPS = 4  # from a sampled maximum 0.03 off at 100 samples per period, 3 land within 1e-14


class _EvenSector:
    """The even functions of a periodic grid, held as their values u at
    x = 0, dx, ..., L/2 (N/2 + 1 points) and handled in the coordinates
    y = w u, w = sqrt(dx) (1, sqrt 2, ..., sqrt 2, 1), in which the grid
    norm is the Euclidean one.  On this subspace the FFT kinetic energy is
    a DCT-I, T u = idct(k^2/2 dct(u)) with k = 2 pi q / L, q = 0 .. N/2.
    Blocks of vectors are rows, shape (m, N/2 + 1)."""

    def __init__(self, grid: TwoParticleGrid):
        if grid.N % 2:
            raise ValidationError(f"the (b,b) grid needs an even N, got N={grid.N}")
        n = grid.N // 2 + 1
        self.x = grid.dx * np.arange(n)
        self.w = np.full(n, np.sqrt(2 * grid.dx))
        self.w[[0, -1]] = np.sqrt(grid.dx)
        self.kinetic = 0.5 * (2 * np.pi / grid.L * np.arange(n)) ** 2
        # the even mirrors of BLOCK_SIZE rows and their spectra, reused by
        # every dct_diagonal call so that it allocates nothing
        self._mirror = np.empty((BLOCK_SIZE, grid.N))
        self._spec = np.empty((BLOCK_SIZE, n), dtype=complex)

    def dct_diagonal(self, Y, factor):
        """The operator that multiplies DCT-I coefficients by ``factor``,
        applied in place to the rows of Y, or to Y if it is one vector;
        returns Y.  Runs BLOCK_SIZE rows at a time through ``_dct1`` in the
        sector's two buffers."""
        rows = Y[None] if Y.ndim == 1 else Y
        for s in range(0, len(rows), BLOCK_SIZE):
            block = rows[s : s + BLOCK_SIZE]
            mirror, spec = self._mirror[: len(block)], self._spec[: len(block)]
            block /= self.w
            np.multiply(_dct1(block, mirror, spec), factor, out=block)
            np.multiply(_dct1(block, mirror, spec, "forward"), self.w, out=block)
        return Y


def _dct1(Y, mirror=None, spec=None, norm=None):
    """The DCT-I of the rows of Y, shape (m, n), as the real part of the
    rfft of their even mirrors [y, y[n-2:0:-1]] (a view of the spectrum);
    with norm="forward" the inverse, the transform divided by 2 (n - 1).
    The mirrors and the spectrum go to ``mirror`` and ``spec`` if given."""
    n = Y.shape[1]
    if mirror is None:
        mirror = np.empty((len(Y), 2 * (n - 1)))
    mirror[:, :n] = Y
    mirror[:, n:] = Y[:, n - 2 : 0 : -1]
    return np.fft.rfft(mirror, norm=norm, out=spec).real


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


def _dct_interpolate(U, n):
    """Rows of even grid functions at x = 0 .. L/2, Fourier-interpolated to
    n > U.shape[1] points on the same interval by a zero-padded DCT-I."""
    m = U.shape[1]
    coef = np.zeros((len(U), n))
    coef[:, :m] = _dct1(U)
    coef[:, m - 1] *= 0.5  # the old Nyquist term is an interior one now
    return _dct1(coef, norm="forward") * ((n - 1) / (m - 1))


def _start_block(sector: _EvenSector, start=None):
    """Orthonormal rows, in y coordinates, spanning the even Hermite
    functions h_0 .. h_{2 BLOCK_SIZE - 2} or, if given, the rows of
    ``start``: grid values at x = 0 .. L/2 on a coarser grid of the same L."""
    rows = _even_hermite(sector.x, BLOCK_SIZE) if start is None else _dct_interpolate(start, sector.x.size)
    rows *= sector.w
    return _new_directions(rows)


def _new_directions(Z, X=None):
    """The rows of Z, each scaled to norm 1, made orthonormal and orthogonal
    to the orthonormal rows X, if given.  Twice: project off X, then
    orthonormalise by an eigh of the Gram matrix, dropping the directions
    whose Gram eigenvalue is below GRAM_DROP, which lay in the span of X or
    of the other rows to within rounding.  Z itself is overwritten."""
    Z /= np.maximum(np.linalg.norm(Z, axis=1, keepdims=True), np.finfo(float).tiny)
    for _ in range(2):
        if X is not None:
            Z -= (Z @ X.T) @ X
        lam, U = np.linalg.eigh(Z @ Z.T)
        keep = lam > GRAM_DROP
        Z = (U[:, keep] / np.sqrt(lam[keep])).T @ Z
    return Z


def _lowest_eigenpairs(sector: _EvenSector, V, S):
    """The lowest eigenpairs of H = T + V on the even sector, by block
    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)) from the
    orthonormal rows S (y coordinates), preconditioned by (T + theta_max)^-1
    with theta_max the block's highest Ritz value.

    Returns the Ritz values and vectors of the block, ascending, the
    vectors as rows in y coordinates, and the number of iterations.  Raises
    ``ConvergenceFailure`` if the lowest BASIS_SIZE residual norms are not
    all below RESIDUAL_TOL (k_max^2/2 + max V) after MAX_ITERATIONS.
    """

    def apply_h(Y):
        HY = sector.dct_diagonal(Y.copy(), sector.kinetic)
        HY += V * Y
        return HY

    want = min(BASIS_SIZE, V.size)
    tol = RESIDUAL_TOL * (sector.kinetic[-1] + np.max(V))
    # S: the previous block's k rows, then the new directions.  Each array
    # is dropped as soon as it is done with, to keep the peak memory low.
    HS, k = apply_h(S), len(S)
    for iteration in range(MAX_ITERATIONS + 1):
        theta, C = np.linalg.eigh(S @ HS.T)
        m = min(BLOCK_SIZE, len(S))
        theta, C = theta[:m], C[:, :m]
        HX = C.T @ HS
        del HS
        X = C.T @ S
        R = X * -theta[:, None]
        R += HX
        res = np.sqrt(np.einsum("ij,ij->i", R, R))
        if not np.any(res[:want] > tol):
            return theta, X, iteration
        active = res > tol
        P = C[k:, active].T @ S[k:]  # the active rows' part outside the old block
        del S
        W = sector.dct_diagonal(R[active], 1.0 / (sector.kinetic + theta[-1]))
        del R
        Z = np.vstack([W, P])
        del W, P
        Z = _new_directions(Z, X)
        HS = np.vstack([HX, apply_h(Z)])
        del HX
        S, k = np.vstack([X, Z]), m
        del Z
    unconverged = int(np.sum(res[:want] > tol))
    raise ConvergenceFailure(
        f"eigensolve: {unconverged} of the lowest {want} residuals above {tol:.2e} after {MAX_ITERATIONS} iterations"
    )


@dataclass(frozen=True)
class _BBSpectrum:
    """The (b,b) state psi0 in the lowest even eigenpairs of the interacting
    grid Hamiltonian (energies E, amplitudes c_n = <phi_n|psi0>) and of its
    g=0 reference, the oscillator's h_0, h_2, .. (E0 = 2m + 1/2, d_m =
    <chi_m|psi0>), with overlaps O = <chi_m|phi_n>.  ``vectors`` is the
    interacting solve's whole block as grid values at x = 0 .. L/2, which
    warm-starts the precheck and is not kept in the series (None there);
    ``iterations`` counts the LOBPCG iterations of the interacting solve."""

    E: np.ndarray
    c: np.ndarray
    E0: np.ndarray
    d: np.ndarray
    O: np.ndarray
    vectors: np.ndarray | None
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


def _bb_spectrum(cfg: SwitchingConfig, grid: TwoParticleGrid, g_tilde, sigma_reg, start=None) -> _BBSpectrum:
    """``_BBSpectrum`` on ``grid``.  The interacting solve starts from
    ``start``, eigenvectors of a coarser grid of the same L as values at
    x = 0 .. L/2, or else from the even Hermite functions, which are also,
    in closed form, the g=0 reference.  A non-finite potential makes every
    field NaN, which fails the checks downstream."""
    sector = _EvenSector(grid)
    x = sector.x
    V = 0.5 * x**2 + g_tilde * _regularized_delta(x, sigma_reg)
    if not np.all(np.isfinite(V)):
        nan = np.full(BASIS_SIZE, np.nan)
        return _BBSpectrum(nan, nan, nan, nan, np.outer(nan, nan), np.full((BLOCK_SIZE, x.size), np.nan), 0)
    u0, _ = _bb_initial_state(cfg, x)
    y0 = sector.w * u0
    y0 /= np.linalg.norm(y0)
    E, X, iterations = _lowest_eigenpairs(sector, V, _start_block(sector, start))
    n = min(BASIS_SIZE, len(E))
    phi, chi = X[:n], sector.w * _even_hermite(x, n)
    return _BBSpectrum(
        E=E[:n], c=phi @ y0, E0=2 * np.arange(n) + 0.5, d=chi @ y0, O=chi @ phi.T, vectors=X / sector.w, iterations=iterations
    )


def propagate(
    cfg: SwitchingConfig,
    channel: tuple = ("b", "b"),
    n_periods: int = 7,
    N: int = 4096,
    L: float = 32.0,
    steps_per_period: int = 100,
    sigma_reg: float = 0.0176,
    check_convergence: bool = True,
) -> SwitchTimeSeries:
    """Evolve the (b,b) channel through ``n_periods`` oscillations.

    Only the relative coordinate is evolved (the CM motion is analytic),
    side by side with a g=0 reference, both exactly in time: the initial
    state is expanded in the lowest BASIS_SIZE even eigenpairs of the
    periodic grid Hamiltonian of N points (N must be even) and length L
    with the interacting potential, and in the oscillator's even
    eigenfunctions h_0 .. h_62, known in closed form, for the reference.
    Returns the phase relative to the reference and the overlaps, sampled
    ``steps_per_period`` times a period, with the spectrum, which gives
    them exactly at any t.  The revival near each k T is the maximum of
    |<psi0|psi(t)>|^2 found by Newton's method from the sampled one; a fit
    through them gives the revival period shift deltaT, and tau =
    n_periods (T + deltaT).  So ``steps_per_period`` sets only the written
    samples, the start of each Newton search and the 2 pi branch of
    ``phase_at``; the default 100 gives the reads of 4000 to within 1e-13.

    ``NormLoss`` is raised when the norm of the initial state in either
    basis is more than 1e-6 from 1, as on a grid too short or too coarse
    to hold h_62.  With ``check_convergence`` the phase after one
    period must agree within 1e-3 rad with the same solve on a grid of 2N
    points, or ``ConvergenceFailure`` is raised; so is an eigensolve that
    does not converge.  The (a,b) channel needs the 2D grid of
    ``propagate_ab``, and the (a,a) channel has no dynamics: both raise
    ``ValidationError``, as does an odd N.
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
    if not (np.isfinite(sigma_reg) and sigma_reg > 0):
        raise ValidationError(f"sigma_reg must be finite and > 0, got {sigma_reg!r}")

    period = 2 * np.pi
    dt = period / steps_per_period
    grid = TwoParticleGrid(L=L, N=N, dt=dt)

    a_r = np.sqrt(HBAR / (cfg.mass / 2.0 * cfg.omega))
    g_tilde = cfg.g1d("bb") / (HBAR * cfg.omega * a_r)
    spec = _bb_spectrum(cfg, grid, g_tilde, sigma_reg)

    n_steps = int(round((n_periods + 0.1) * steps_per_period))
    t = np.arange(n_steps + 1) * dt
    precheck_delta = None
    if check_convergence:
        p1 = float(-np.angle(spec.amplitudes(t[steps_per_period : steps_per_period + 1])[1, 0]))
        p2 = _propagate_bb_once(cfg, TwoParticleGrid(L=L, N=2 * N, dt=dt), g_tilde, sigma_reg, 1, steps_per_period, spec.vectors)
        precheck_delta = abs(p1 - p2)
        if not precheck_delta <= 1e-3:  # NaN fails too
            raise ConvergenceFailure(f"phase changes by {precheck_delta:.2e} rad when halving dx")

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
        spectrum=replace(spec, vectors=None),  # only the precheck needs the eigenvectors
        basis_size=len(spec.E),
        solver_iterations=spec.iterations,
        tail_weight=spec.tail_weight,
        precheck_delta=precheck_delta,
    )
    ser.phase_final = ser.phase_at(ser.tau)
    ser.revival = abs(ser.amp_init_at(ser.tau)) ** 2
    return ser


def _propagate_bb_once(cfg, grid, g_tilde, sigma_reg, n_periods, steps_per_period, start=None):
    """The (b,b) phase after ``n_periods`` periods from the spectral solve
    on ``grid`` (used by the resolution precheck); ``start`` warm-starts the
    interacting solve, as for ``_bb_spectrum``."""
    spec = _bb_spectrum(cfg, grid, g_tilde, sigma_reg, start)
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
