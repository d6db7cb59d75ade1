"""Minimum gate fidelity over internal two-atom inputs with thermal motion.

A gate channel is a table of complex numbers, a row per pair of motional
levels and a column per internal basis pair s: v_s = e^{i(theta_s -
theta_ideal_s)} * o_s, the actual phase relative to the ideal one times
the motional revival amplitude.  Motional components that fail to revive
are treated as orthogonal between channels (worst case), giving

    F(|phi>) = |sum_s w_s v_s|^2 + sum_s w_s^2 (1 - |v_s|^2),  w_s = |c_s|^2

per thermally occupied level pair, averaged with the level probabilities.
That average is the quadratic form F(w) = w^T Q w with the positive
semidefinite Q = sum_lev p_lev [Re(v v^H) + diag(1 - |v|^2)], so the
minimum over inputs is a convex quadratic program on the probability
simplex of at most four dimensions.  ``min_fidelity`` solves it exactly:
the minimizer is a stationary point on the affine hull of the face it lies
in, so solving the KKT system of each of the 2^dim - 1 faces and keeping
the non-negative solutions finds it.  A table with leading axes stacks
channels, such as ``switching_channel`` over an array of hold times; their
programs are solved together, with one ``pinv`` call per face size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .moving import evolve_coherent
from .switching import SwitchTimeSeries, cm_overlap_complex
from .traps import SwitchingConfig, Trajectory


@dataclass
class ThermalMotionalState:
    """Boltzmann occupation p of oscillator levels 0..n_max."""

    p: np.ndarray

    def __post_init__(self):
        if abs(float(np.sum(self.p)) - 1.0) > 1e-12:
            raise ValidationError("occupations not normalized")

    @property
    def n_max(self) -> int:
        return len(self.p) - 1


def thermal_state(kT: float) -> ThermalMotionalState:
    """p_n proportional to q^n, q = exp(-1/kT) with kT in units of
    hbar*omega, for n up to the smallest n_max >= 1 at which the truncated
    tail q^(n_max+1) is at most 1e-10."""
    if kT < 0:
        raise ValidationError("kT must be >= 0")
    if kT == 0:
        return ThermalMotionalState(p=np.r_[1.0])
    q = float(np.exp(-1.0 / kT))
    n = 1
    while q ** (n + 1) > 1e-10:
        n += 1
    ns = np.arange(n + 1)
    p = (1 - q) * q**ns
    p = p / p.sum()  # fold the sub-1e-10 tail back in
    return ThermalMotionalState(p=p)


@dataclass
class GateChannel:
    """Internal-basis channel description.

    basis: internal pair labels; overlaps(n1, n2) takes equal-length integer
    arrays of motional levels and returns the (pairs, basis) table of v_s
    for both atoms starting in levels n1[k], n2[k].  Leading axes, (...,
    pairs, basis), stack channels that share the basis and are solved
    together.
    """

    basis: tuple
    overlaps: Callable[[np.ndarray, np.ndarray], np.ndarray]


def ideal_channel() -> GateChannel:
    return GateChannel(basis=("aa", "ab", "ba", "bb"), overlaps=lambda n1, n2: np.ones((len(n1), 4), complex))


def _levels(rho_ext: ThermalMotionalState | None):
    """Probabilities p and levels n1, n2 of the level pairs of the thermal
    product ensemble, n1-major; the motional ground state for None."""
    p = np.ones(1) if rho_ext is None else rho_ext.p
    n1, n2 = np.divmod(np.arange(len(p) ** 2), len(p))
    return np.outer(p, p).ravel(), n1, n2


def _overlap_table(channel: GateChannel, rho_ext: ThermalMotionalState | None):
    """Level-pair probabilities p (levels,) and overlaps V (..., levels, basis)."""
    p, n1, n2 = _levels(rho_ext)
    return p, np.asarray(channel.overlaps(n1, n2), dtype=complex)


def _fidelity_matrix(channel: GateChannel, rho_ext: ThermalMotionalState | None) -> np.ndarray:
    """Q with F(w) = w^T Q w for basis weights w_s = |c_s|^2, shape
    (..., basis, basis) for a table of overlaps stacked as (..., levels,
    basis).

    Q = sum_lev p_lev [Re(v v^H) + diag(1 - |v|^2)] is a sum of positive
    semidefinite terms; with the overlaps stacked into V (levels, basis),
    Q = Re(V^T diag(p) conj(V)) + diag(p^T (1 - |V|^2)).
    """
    p, V = _overlap_table(channel, rho_ext)
    diag = p @ (1.0 - np.abs(V) ** 2)
    return np.real(np.swapaxes(V, -1, -2) @ (p[:, None] * V.conj())) + diag[..., None, :] * np.eye(V.shape[-1])


_FACES: dict = {}  # dim -> the face tables of ``_faces``


def _faces(dim: int):
    """The faces of the simplex on dim vertices, grouped by their size k =
    1 .. dim: for each k, the faces' positions in mask order (mask - 1, bit
    i of the mask set for vertex i) and their vertices (faces, k), ascending
    within a face.  Built once per dim."""
    if dim not in _FACES:
        bits = (np.arange(1, 2**dim)[:, None] >> np.arange(dim)) & 1
        size = bits.sum(axis=1)
        _FACES[dim] = [(np.flatnonzero(size == k), np.nonzero(bits[size == k])[1].reshape(-1, k)) for k in range(1, dim + 1)]
    return _FACES[dim]


def _simplex_qp_min(Q: np.ndarray):
    """(min w^T Q w, argmin w) over the probability simplex, Q symmetric PSD;
    for a stack Q (..., dim, dim), arrays of the minima (...) and minimizers
    (..., dim).

    The minimum lies in the relative interior of some face S, where it is
    a stationary point on the face's affine hull: Q_SS w_S + lam 1 = 0,
    1^T w_S = 1.  Solving that KKT system on every non-empty face and
    keeping the non-negative solutions finds it.  The systems of all faces
    of one size and all Q of the stack are solved by one ``pinv`` call: the
    solution is the last column of the pseudo-inverse, with ``lstsq``'s
    default cutoff, so a singular system (Q_SS flat along the face) gets the
    minimum-norm least-squares solution; some vertex of the minimizing set
    then still has a nonsingular system on its own face.  Of equal minima
    the face first in mask order wins.
    """
    Q = np.asarray(Q, dtype=float)
    lead, dim = Q.shape[:-2], Q.shape[-1]
    f = np.empty(lead + (2**dim - 1,))
    W = np.zeros(lead + (2**dim - 1, dim))
    for pos, S in _faces(dim):
        k = S.shape[1]
        K = np.ones(lead + (len(pos), k + 1, k + 1))
        K[..., :k, :k] = Q[..., S[:, :, None], S[:, None, :]]
        K[..., k, k] = 0.0
        ws = np.linalg.pinv(K, rcond=np.finfo(float).eps * (k + 1))[..., :k, k]  # K^+ e_k
        feasible = ws.min(axis=-1) >= -1e-12
        ws = np.clip(ws, 0.0, None)
        W[..., pos[:, None], S] = ws / ws.sum(axis=-1, keepdims=True)  # about 1 by the last KKT row, for a PSD Q
        Wk = W[..., pos, :]
        f[..., pos] = np.where(feasible, np.sum((Wk @ Q) * Wk, axis=-1), np.inf)
    best = np.argmin(f, axis=-1)[..., None]  # the first minimum in mask order
    f_min = np.take_along_axis(f, best, axis=-1)[..., 0]
    w_min = np.take_along_axis(W, best[..., None], axis=-2)[..., 0, :]
    return (f_min, w_min) if lead else (float(f_min), w_min)


def min_fidelity(channel: GateChannel, rho_ext: ThermalMotionalState | None = None):
    """Minimum of the channel fidelity over all normalized internal inputs:
    a float, or an array over the leading axes of a stacked channel.

    The input enters only through its basis weights w_s = |c_s|^2, so the
    fidelity is the convex quadratic w^T Q w (``_fidelity_matrix``) and its
    minimum over the simplex is found exactly by solving the KKT system on
    each of the 2^dim - 1 faces (``_simplex_qp_min``), for every channel of
    a stack at once.  The result is clipped to [0, 1].
    """
    f = np.clip(_simplex_qp_min(_fidelity_matrix(channel, rho_ext))[0], 0.0, 1.0)
    return float(f) if np.ndim(f) == 0 else f


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported at the first call: only the
    test oracle ``_min_fidelity_multistart`` needs it."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


def _min_fidelity_multistart(
    channel: GateChannel,
    rho_ext: ThermalMotionalState | None = None,
) -> float:
    """Test oracle for ``min_fidelity``: the best of L-BFGS-B runs from 32
    random starts, every basis state and every balanced pair, over a
    complex-state parametrization, with the fidelity evaluated level by
    level rather than through Q."""
    dim = len(channel.basis)
    p, V = _overlap_table(channel, rho_ext)

    def cost(u):
        c = u[:dim] + 1j * u[dim:]
        nrm = np.linalg.norm(c)
        if nrm < 1e-12:
            return 1.0
        w = np.abs(c / nrm) ** 2
        return float(p @ (np.abs(V @ w) ** 2 + (1.0 - np.abs(V) ** 2) @ w**2))

    rng = np.random.default_rng(7)
    starts = [rng.standard_normal(2 * dim) for _ in range(32)]
    for i in range(dim):  # basis states
        u = np.zeros(2 * dim)
        u[i] = 1.0
        starts.append(u)
    for i in range(dim):  # balanced pairs
        for j in range(i + 1, dim):
            u = np.zeros(2 * dim)
            u[i] = u[j] = 1.0
            starts.append(u)
    return float(np.clip(min(minimize(cost, u0, method="L-BFGS-B").fun for u0 in starts), 0.0, 1.0))


def _laguerre(n_max: int, x: float) -> np.ndarray:
    """The Laguerre polynomials L_0(x) ... L_{n_max}(x), by the recurrence
    L_{k+1} = ((2k + 1 - x) L_k - k L_{k-1}) / (k + 1).  Raises
    OverflowError if one leaves the float range (|L_n(x)| <= e^{x/2} for
    x >= 0, so only past x = 1419)."""
    L = [0.0, 1.0]  # L_{-1}, L_0
    for k in range(n_max):
        L.append(((2 * k + 1 - x) * L[-1] - k * L[-2]) / (k + 1))
    L = np.array(L[1:])
    if not np.isfinite(L).all():
        raise OverflowError(f"Laguerre polynomials L_n({x:.6g}), n <= {n_max}, overflow a float")
    return L


def moving_channel(
    traj_a: Trajectory,
    traj_b: Trajectory,
) -> GateChannel:
    """Channel of the moving gate: imperfection is the residual motional
    excitation left by the transport of each internal state.

    Diagonal displacement matrix elements <n|D(g)|n> = e^{-|g|^2/2} L_n(|g|^2)
    give the per-level revival amplitude; collisional/kinetic phases are
    taken at their intended values.
    """
    g2s = []
    for traj in (traj_a, traj_b):
        ev = evolve_coherent(traj, traj.tau)
        alpha_end = float(np.asarray(traj.x(traj.tau))) / np.sqrt(2)
        g2s.append(float(abs(ev.gamma - alpha_end) ** 2))

    def overlaps(n1, n2):
        n_max = max(n1.max(), n2.max())
        a, b = (np.exp(-g2 / 2) * _laguerre(n_max, g2) for g2 in g2s)
        return np.stack([a[n1] * a[n2], a[n1] * b[n2], b[n1] * a[n2], b[n1] * b[n2]], axis=1)

    return GateChannel(basis=("aa", "ab", "ba", "bb"), overlaps=overlaps)


def switching_channel(cfg: SwitchingConfig, bb_series: SwitchTimeSeries, tau) -> GateChannel:
    """Symmetrized channel of the switching gate at hold time tau, a float
    or a 1-D array of hold times, which stacks one channel per time.

    One-particle phases are absorbed by a fixed frame calibrated at the
    series' gate time ``bb_series.tau``; away from it the inter-channel
    phases drift at the channel energy differences, which is what limits
    the timing precision.  The a atom stays in its well; the released b
    atom's revival amplitude is the closed form ``cm_overlap_complex`` at
    its well offset.  The bb channel carries the interacting
    relative-coordinate amplitude of ``bb_series`` times the closed-form
    center-of-mass amplitude (offset 0), compared against the target
    collisional phase (pi).  The overlaps are those of the motional ground
    state, whatever the levels: a table (levels, basis) for a float tau,
    (hold times, levels, basis) for an array.
    """
    frame_tau = bb_series.tau
    nu = cfg.omega0 / cfg.omega
    x0 = cfg.x0 / cfg.length_si
    # one-particle frame phases, calibrated at frame_tau: the a atom is
    # stationary at energy nu/2, the b atom's phase is read off its
    # noninteracting revival amplitude
    lam_a = -0.5 * nu * frame_tau
    lam_b = float(np.angle(cm_overlap_complex(nu, 1.0, frame_tau, x0)))
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    a_aa = np.exp(-1j * nu * t)
    a_ab = np.exp(-1j * 0.5 * nu * t) * cm_overlap_complex(nu, 1.0, t, x0)
    a_bb = cm_overlap_complex(nu, 1.0, t) * bb_series.spectrum.amplitudes(t)[0]
    v_aa = a_aa * np.exp(-2j * lam_a)
    v_ab = a_ab * np.exp(-1j * (lam_a + lam_b))
    v_bb = a_bb * np.exp(-1j * (2 * lam_b + np.pi))
    rows = np.stack([v_aa, v_ab, v_bb], axis=-1).reshape(np.shape(tau) + (3,))
    return GateChannel(basis=("aa", "ab", "bb"), overlaps=lambda n1, n2: np.repeat(rows[..., None, :], len(n1), axis=-2))


@dataclass
class TimingCurve:
    offsets: np.ndarray
    fidelity: np.ndarray
    half_width: float


def timing_sensitivity(
    channel_factory: Callable[[np.ndarray], GateChannel],
    tau0: float,
    delta: float,
    n_side: int = 24,
) -> TimingCurve:
    """Sample F(tau0 + k*delta), with the atoms in their motional ground
    state, and report the half-width at which the fidelity has dropped by
    0.01 below its maximum.  ``channel_factory`` takes the array of the
    2 n_side + 1 hold times and returns their stacked channel (as
    ``switching_channel`` does), so the scan is one ``min_fidelity`` call."""
    offs = np.arange(-n_side, n_side + 1) * delta
    fs = min_fidelity(channel_factory(tau0 + offs))
    fmax = float(fs.max())
    half = float("inf")
    thresh = fmax - 0.01
    for sgn in (1, -1):
        sel = offs * sgn >= 0
        o = np.abs(offs[sel])
        f = fs[sel]
        order = np.argsort(o)
        o, f = o[order], f[order]
        below = np.flatnonzero(f < thresh)
        if below.size:
            i = below[0]
            if i == 0:
                w = o[0]
            else:
                w = o[i - 1] + (o[i] - o[i - 1]) * (f[i - 1] - thresh) / (f[i - 1] - f[i])
            half = min(half, float(w))
    return TimingCurve(offsets=offs, fidelity=fs, half_width=half)
