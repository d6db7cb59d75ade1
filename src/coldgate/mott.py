"""Zero-temperature Gutzwiller mean field for the inhomogeneous
Bose-Hubbard model.

The variational state is site-factorized, Prod_i Sum_n f_n(i)|n>_i; the
ground state follows from red-black (colour-class) sweeps of single-site
diagonalizations, with the neighbour order parameters as a self-consistent
hopping field.  The sites of one colour class share no neighbour, so each
class is diagonalized at once by one batched ``eigh``.  The sweeps run from
the atomic limit, then from ``_superfluid_start`` unless ``_mott_certified``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, ValidationError

TOL_F = 1e-8  # sweep convergence: largest amplitude change
TOL_E = 1e-10  # and largest local ground-energy change, relative to |J| (or U)
CERT_STEPS = 50  # power steps of the Mott certificate before both starts run


def superlattice(x, y, amplitude: float, period: float):
    """Superlattice offset amplitude*(sin^2(pi x/period) + sin^2(pi y/period))."""
    if not (np.isfinite(period) and period > 0):
        raise ValidationError("period must be finite and > 0")
    if not np.isfinite(amplitude):
        raise ValidationError("amplitude must be finite")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return amplitude * (np.sin(np.pi * x / period) ** 2 + np.sin(np.pi * y / period) ** 2)


@dataclass
class BoseHubbardLattice:
    """2D Bose-Hubbard problem: energies in units of J unless stated."""

    Lx: int
    Ly: int
    J: float
    U: float
    mu: float
    eps: np.ndarray | None = None
    boundary: str = "periodic"

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.J, self.U, self.mu)):
            raise ValidationError("J, U and mu must be finite")
        if self.U <= 0:
            raise ValidationError("U must be > 0")
        if self.Lx < 1 or self.Ly < 1:
            raise ValidationError("lattice dimensions must be >= 1")
        if self.boundary not in ("periodic", "open"):
            raise ValidationError("boundary must be 'periodic' or 'open'")
        if self.eps is None:
            self.eps = np.zeros((self.Lx, self.Ly))
        else:
            self.eps = np.asarray(self.eps, dtype=float)
            if self.eps.shape != (self.Lx, self.Ly):
                raise ValidationError("eps shape mismatch")
            if not np.all(np.isfinite(self.eps)):
                raise ValidationError("eps must be finite")

    @classmethod
    def with_superlattice(cls, Lx, Ly, J, U, mu, amplitude, period, boundary="periodic"):
        xs, ys = np.meshgrid(np.arange(Lx), np.arange(Ly), indexing="ij")
        eps = superlattice(xs, ys, amplitude, period)
        return cls(Lx=Lx, Ly=Ly, J=J, U=U, mu=mu, eps=eps, boundary=boundary)


@dataclass
class GutzwillerState:
    lattice: BoseHubbardLattice
    f: np.ndarray  # (Lx, Ly, n_max+1)
    converged: bool = True
    sweeps: int = 0

    @property
    def n_max(self) -> int:
        return self.f.shape[2] - 1

    @property
    def density(self):
        n = np.arange(self.n_max + 1)
        return np.einsum("ijk,k->ij", np.abs(self.f) ** 2, n)

    @property
    def order_parameter(self):
        rt = np.sqrt(np.arange(1, self.n_max + 1))
        return np.einsum("ijk,k,ijk->ij", np.conj(self.f[:, :, :-1]), rt, self.f[:, :, 1:])

    @property
    def number_variance(self):
        n = np.arange(self.n_max + 1)
        m2 = np.einsum("ijk,k->ij", np.abs(self.f) ** 2, n**2)
        return m2 - self.density**2

    @property
    def total_particles(self) -> float:
        return float(self.density.sum())

    def energy(self) -> float:
        lat = self.lattice
        n = np.arange(self.n_max + 1)
        onsite = 0.5 * lat.U * n * (n - 1)
        phi = self.order_parameter
        # each term is finite, but a sum over the sites may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            e = float(np.einsum("ijk,k->", np.abs(self.f) ** 2, onsite))
            e += float(np.sum((lat.eps - lat.mu) * self.density))
            # the sum over sites of each neighbour field visits each bond
            # twice, which supplies the hermitian-conjugate term of
            # -J sum_<ij> (bi^dag bj + h.c.)
            hop = float(np.sum(np.real(np.conj(phi) * _neighbour_field(phi, lat.boundary == "periodic"))))
        e -= lat.J * hop
        if not np.isfinite(e):
            raise OverflowError("the Gutzwiller energy is not finite")
        return e


def _neighbour_field(phi, periodic: bool):
    """Sum of ``phi`` over the four neighbours of every site, in the order
    (i+1, j), (i-1, j), (i, j+1), (i, j-1) of the tests' ``_neighbors``:
    rolls for periodic boundaries, zero padding for open ones."""
    if periodic:
        return np.roll(phi, -1, 0) + np.roll(phi, 1, 0) + np.roll(phi, -1, 1) + np.roll(phi, 1, 1)
    p = np.pad(phi, 1)
    return p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2]


def _ring_colours(length: int, periodic: bool):
    """A proper colouring of a chain, or of a ring when ``periodic``: 0, 1
    alternating, with the last site of an odd ring (length > 1) coloured 2."""
    c = np.arange(length) % 2
    if periodic and length % 2 and length > 1:
        c[-1] = 2
    return c


def _colour_classes(lat: BoseHubbardLattice):
    """(Lx, Ly) colour labels; no two distinct neighbouring sites share one.

    The checkerboard (i+j) % 2 on bipartite lattices (open boundaries or
    even periodic sides), else (a(i) + b(j)) % 3 with a and b proper
    colourings of the two rings.  A site of a periodic side of length 1 is
    its own neighbour, which no colouring can avoid."""
    periodic = lat.boundary == "periodic"
    a, b = _ring_colours(lat.Lx, periodic), _ring_colours(lat.Ly, periodic)
    k = 3 if max(a.max(), b.max()) == 2 else 2
    return (a[:, None] + b[None, :]) % k


def _atomic_limit_f(lat: BoseHubbardLattice, n_max: int):
    n = np.arange(n_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        e = 0.5 * lat.U * n * (n - 1) + (lat.eps[:, :, None] - lat.mu) * n
    if not np.all(np.isfinite(e)):
        raise OverflowError("an on-site energy U n(n-1)/2 + (eps - mu) n is not finite")
    # argmin takes the lowest n on ties
    return (np.argmin(e, axis=-1)[:, :, None] == n).astype(float)


def _mott_certified(lat: BoseHubbardLattice, n_max: int) -> bool:
    """True only if the atomic limit is linearly stable: all its particle and
    hole gaps are positive, and the Collatz-Wielandt bound on the largest
    eigenvalue of |J| X^1/2 A X^1/2 falls below 1 within CERT_STEPS power
    steps on B = |J| X A + I (the + I: no stall on a bipartite lattice)."""
    n = np.argmax(_atomic_limit_f(lat, n_max), axis=-1)
    with np.errstate(all="ignore"):
        particle = lat.U * n + lat.eps - lat.mu
        hole = np.where(n > 0, lat.mu - lat.eps - lat.U * (n - 1), np.inf)
        if np.all(particle > 0) and np.all(hole > 0):
            chi = (n + 1) / particle + n / hole
            v = np.ones(n.shape)
            for _ in range(CERT_STEPS):
                bv = abs(lat.J) * chi * _neighbour_field(v, lat.boundary == "periodic") + v
                if np.max(bv / v) - 1 < 1:
                    return True
                v = bv / np.max(bv)
    return False


def _sweep_to_convergence(lat, f, n_max, max_sweeps=4000):
    """Red-black Gauss-Seidel sweeps of the single-site problems.

    A sweep visits the colour classes of ``_colour_classes`` in turn.  No
    two sites of a class are neighbours, so each class is updated at once
    from the current order parameters: its local Hamiltonians are
    diagonalized by one batched ``eigh``.  Converged when, over a whole
    sweep, no amplitude moves by TOL_F and no local ground energy by TOL_E
    times |J| (times U where that product is 0).  Returns (f, sweeps,
    converged).
    """
    d = n_max + 1
    n = np.arange(d)
    lo, hi = np.arange(n_max), np.arange(1, d)
    rt = np.sqrt(hi)
    periodic = lat.boundary == "periodic"
    f = f.astype(complex).reshape(lat.Lx * lat.Ly, d)
    phi = np.einsum("sk,k,sk->s", np.conj(f[:, :-1]), rt, f[:, 1:])
    site_e = np.zeros(lat.Lx * lat.Ly)
    onsite = 0.5 * lat.U * n * (n - 1) + (lat.eps.reshape(-1, 1) - lat.mu) * n
    colours = _colour_classes(lat).ravel()
    classes = [np.flatnonzero(colours == c) for c in range(colours.max() + 1)]
    # scaled by U where TOL_E |J| is 0: at J = 0, or when it underflows
    tol_de = TOL_E * abs(lat.J) or TOL_E * lat.U
    for sweep in range(1, max_sweeps + 1):
        max_df = 0.0
        max_de = 0.0
        for sites in classes:
            field = _neighbour_field(phi.reshape(lat.Lx, lat.Ly), periodic).ravel()[sites]
            H = np.zeros((len(sites), d, d), dtype=complex)
            H[:, n, n] = onsite[sites]
            off = -lat.J * np.conj(field)[:, None] * rt
            H[:, lo, hi] = off
            H[:, hi, lo] = np.conj(off)
            w, v = np.linalg.eigh(H)
            g = v[:, :, 0]
            # fix the arbitrary eigenvector phase for determinism
            k = np.argmax(np.abs(g), axis=1)
            g = g * np.exp(-1j * np.angle(g[np.arange(len(sites)), k]))[:, None]
            max_df = max(max_df, float(np.max(np.abs(g - f[sites]))))
            max_de = max(max_de, float(np.max(np.abs(w[:, 0] - site_e[sites]))))
            site_e[sites] = w[:, 0]
            f[sites] = g
            phi[sites] = np.einsum("sk,k,sk->s", np.conj(g[:, :-1]), rt, g[:, 1:])
        if max_df < TOL_F and max_de < tol_de:
            return f.reshape(lat.Lx, lat.Ly, d), sweep, True
    return f.reshape(lat.Lx, lat.Ly, d), max_sweeps, False


def _superfluid_start(lat: BoseHubbardLattice, n_max: int):
    """The atomic limit plus 1e-2 at n0 - 1 and n0 + 1 at phase q_x i + q_y j,
    normalised per site: q = 0 for J >= 0, else pi (opposite neighbours), or
    pi (L - 1)/L on a periodic side of odd length L, a frustrated ring."""
    periodic = lat.boundary == "periodic"
    qx, qy = (0.0 if lat.J >= 0 else np.pi * (L - 1) / L if periodic and L % 2 else np.pi for L in (lat.Lx, lat.Ly))
    twist = 1e-2 * np.exp(1j * np.add.outer(qx * np.arange(lat.Lx), qy * np.arange(lat.Ly)))[:, :, None]
    a = _atomic_limit_f(lat, n_max)
    p = np.pad(a, ((0, 0), (0, 0), (1, 1)))
    f = a + twist * (p[:, :, :-2] + p[:, :, 2:])
    return f / np.linalg.norm(f, axis=2, keepdims=True)


def gutzwiller_minimize(lattice: BoseHubbardLattice, n_max: int = 6, max_sweeps: int = 4000) -> GutzwillerState:
    """Self-consistent Gutzwiller ground state.

    Two deterministic starts, the atomic limit and ``_superfluid_start``
    (skipped when the first converges and ``_mott_certified`` holds); the
    lowest-energy converged solution wins, ties broken by lowest total
    particle number, then by the atomic start.  The sweeps descend locally,
    so no set of starts guarantees the global minimum.  Raises NotConverged
    only if no start converges; the best non-converged state is attached to
    the exception as ``.state``.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if max_sweeps < 1:
        raise ValidationError("max_sweeps must be >= 1")
    if not np.isfinite(4 * n_max * abs(lattice.J)):
        raise OverflowError("the hopping scale 4 n_max |J| is not finite")
    best = None
    for start in (_atomic_limit_f, _superfluid_start):
        f, sweeps, ok = _sweep_to_convergence(lattice, start(lattice, n_max), n_max, max_sweeps=max_sweeps)
        st = GutzwillerState(lattice=lattice, f=f, converged=ok, sweeps=sweeps)
        if best is None and ok and _mott_certified(lattice, n_max):
            return st  # the atomic start, certified
        key = (not ok, round(st.energy(), 9), round(st.total_particles, 9))
        if best is None or key < best[0]:
            best = (key, st)
    if not best[1].converged:
        raise NotConverged(f"no Gutzwiller start converged in {max_sweeps} sweeps", state=best[1])
    return best[1]


def phase_classify(state: GutzwillerState):
    """Per-site labels, an (Lx, Ly) object array: 'MI(n)' when the order
    parameter vanishes and the density is pinned to an integer n, both to
    within 1e-3, else 'SF'."""
    tol = 1e-3
    rho = state.density
    n = np.rint(rho).astype(int)
    pinned = (np.abs(state.order_parameter) < tol) & (np.abs(rho - n) < tol)
    names = np.array(["SF"] + [f"MI({k})" for k in range(state.n_max + 1)], dtype=object)
    return names[np.where(pinned, n + 1, 0)]
