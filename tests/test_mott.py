"""The Gutzwiller solver, with the lexicographic Gauss-Seidel sweep as its
reference.

``_lexicographic_sweep`` visits the sites one at a time in row-major order,
each with its own ``eigh``, the neighbour field summed over the per-site
neighbour list ``_neighbors``.  The red-black solver updates a whole
colour class at once.  It visits the sites in another order, so its
iterates differ; on uniform lattices they reach the same fixed points.
The Mott certificate is checked against a dense eigensolve, and the
solver with it against the two-start reference ``_reference_minimize``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as hst

from coldgate import mott
from coldgate.errors import NotConverged, ValidationError


def _neighbors(lat, i, j):
    """Neighbours of site (i, j), one per bond direction; on a periodic side
    of length 1 or 2 a site repeats.  The per-site reference for
    ``mott._neighbour_field``."""
    out = []
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni, nj = i + di, j + dj
        if lat.boundary == "periodic":
            out.append((ni % lat.Lx, nj % lat.Ly))
        elif 0 <= ni < lat.Lx and 0 <= nj < lat.Ly:
            out.append((ni, nj))
    return out


def _local_hamiltonian(lat, eps_i, field, n_max):
    n = np.arange(n_max + 1)
    H = np.diag(0.5 * lat.U * n * (n - 1) + (eps_i - lat.mu) * n).astype(complex)
    off = -lat.J * np.conj(field) * np.sqrt(np.arange(1, n_max + 1))
    H[np.arange(n_max), np.arange(1, n_max + 1)] += off
    H[np.arange(1, n_max + 1), np.arange(n_max)] += np.conj(off)
    return H


def _lexicographic_sweep(lat, f, n_max, tol_f=1e-8, tol_e=1e-10, max_sweeps=4000):
    rt = np.sqrt(np.arange(1, n_max + 1))
    f = f.astype(complex).copy()
    phi = np.einsum("ijk,k,ijk->ij", np.conj(f[:, :, :-1]), rt, f[:, :, 1:])
    site_e = np.zeros((lat.Lx, lat.Ly))
    for sweep in range(1, max_sweeps + 1):
        max_df = max_de = 0.0
        for i in range(lat.Lx):
            for j in range(lat.Ly):
                field = sum(phi[ni, nj] for ni, nj in _neighbors(lat, i, j))
                w, v = np.linalg.eigh(_local_hamiltonian(lat, lat.eps[i, j], field, n_max))
                g = v[:, 0]
                k = int(np.argmax(np.abs(g)))
                g = g * np.exp(-1j * np.angle(g[k]))
                max_df = max(max_df, float(np.max(np.abs(g - f[i, j]))))
                max_de = max(max_de, abs(float(w[0]) - site_e[i, j]))
                site_e[i, j] = float(w[0])
                f[i, j] = g
                phi[i, j] = np.dot(np.conj(g[:-1]) * rt, g[1:])
        if max_df < tol_f and max_de < (tol_e * abs(lat.J) or tol_e * lat.U):
            return f, sweep, True
    return f, max_sweeps, False


def _starts(lat, n_max=6):
    """The start list of ``gutzwiller_minimize``."""
    return [mott._atomic_limit_f(lat, n_max), mott._superfluid_start(lat, n_max)]


def _random_start(lat, n_max, seed):
    f = np.random.default_rng(seed).standard_normal((lat.Lx, lat.Ly, n_max + 1))
    return f / np.linalg.norm(f, axis=2, keepdims=True)


def _reference_minimize(lat, n_max=6, sweep=_lexicographic_sweep, max_sweeps=4000):
    """Both starts, always, and the pick of ``gutzwiller_minimize``."""
    best = None
    for f0 in _starts(lat, n_max):
        f, sweeps, ok = sweep(lat, f0, n_max, max_sweeps=max_sweeps)
        st = mott.GutzwillerState(lattice=lat, f=f, converged=ok, sweeps=sweeps)
        key = (not ok, round(st.energy(), 9), round(st.total_particles, 9))
        if best is None or key < best[0]:
            best = (key, st)
    return best[1]


def _neighbour_field_loop(lat, phi):
    return np.array([[sum(phi[n] for n in _neighbors(lat, i, j)) for j in range(lat.Ly)] for i in range(lat.Lx)])


def test_superlattice_profile():
    assert mott.superlattice(0, 0, 40.0, 9.0) == pytest.approx(0.0)
    assert mott.superlattice(4.5, 0, 40.0, 9.0) == pytest.approx(40.0)
    assert mott.superlattice(4.5, 4.5, 40.0, 9.0) == pytest.approx(80.0)
    with pytest.raises(ValidationError):
        mott.superlattice(0, 0, 40.0, 0.0)


def test_lattice_validation():
    with pytest.raises(ValidationError):
        mott.BoseHubbardLattice(Lx=4, Ly=4, J=1.0, U=0.0, mu=1.0)
    with pytest.raises(ValidationError):
        mott.BoseHubbardLattice(Lx=0, Ly=4, J=1.0, U=1.0, mu=1.0)
    with pytest.raises(ValidationError):
        mott.BoseHubbardLattice(Lx=4, Ly=4, J=1.0, U=1.0, mu=1.0, boundary="twisted")
    with pytest.raises(ValidationError):
        mott.BoseHubbardLattice(Lx=4, Ly=4, J=1.0, U=1.0, mu=1.0, eps=np.zeros((3, 3)))


def test_neighbors_periodic_vs_open():
    lat = mott.BoseHubbardLattice(Lx=3, Ly=3, J=1.0, U=1.0, mu=1.0, boundary="periodic")
    assert len(_neighbors(lat, 0, 0)) == 4
    lat_o = mott.BoseHubbardLattice(Lx=3, Ly=3, J=1.0, U=1.0, mu=1.0, boundary="open")
    assert len(_neighbors(lat_o, 0, 0)) == 2
    assert len(_neighbors(lat_o, 1, 1)) == 4


def test_uniform_mott_phase():
    lat = mott.BoseHubbardLattice(Lx=4, Ly=4, J=1.0, U=30.0, mu=15.0)
    st = mott.gutzwiller_minimize(lat)
    assert np.allclose(st.density, 1.0, atol=1e-8)
    assert np.max(st.number_variance) < 1e-8
    labels = mott.phase_classify(st)
    assert all(labels[i, j] == "MI(1)" for i in range(4) for j in range(4))


def test_shallow_lattice_is_superfluid():
    lat = mott.BoseHubbardLattice(Lx=4, Ly=4, J=1.0, U=2.0, mu=1.0)
    st = mott.gutzwiller_minimize(lat)
    assert np.max(np.abs(st.order_parameter)) > 0.1
    labels = mott.phase_classify(st)
    assert "SF" in labels


def test_atomic_limit_exact():
    lat = mott.BoseHubbardLattice.with_superlattice(6, 6, J=0.0, U=30.0, mu=15.0, amplitude=40.0, period=3.0)
    st = mott.gutzwiller_minimize(lat)
    n = np.arange(st.n_max + 1)
    for i in range(6):
        for j in range(6):
            n_star = int(np.argmin(0.5 * lat.U * n * (n - 1) + (lat.eps[i, j] - lat.mu) * n))
            assert st.density[i, j] == pytest.approx(n_star, abs=1e-10)


def test_energy_not_above_atomic_start():
    lat = mott.BoseHubbardLattice(Lx=4, Ly=4, J=1.0, U=8.0, mu=4.0)
    st = mott.gutzwiller_minimize(lat)
    atomic = mott.GutzwillerState(lattice=lat, f=mott._atomic_limit_f(lat, st.n_max).astype(complex))
    assert st.energy() <= atomic.energy() + 1e-9


def test_superlattice_loading_patterns():
    # deep superlattice, mu below the offset: only the low-offset sites fill
    lat = mott.BoseHubbardLattice.with_superlattice(18, 18, J=1.0, U=30.0, mu=15.0, amplitude=40.0, period=9.0)
    st = mott.gutzwiller_minimize(lat)
    rho = st.density
    assert np.all(np.minimum(np.abs(rho), np.abs(rho - 1.0)) < 1e-3)
    assert int(np.sum(rho > 0.5)) == 36
    # raising mu over the first offset shell fills more sites
    lat2 = mott.BoseHubbardLattice.with_superlattice(18, 18, J=1.0, U=50.0, mu=27.0, amplitude=40.0, period=9.0)
    st2 = mott.gutzwiller_minimize(lat2)
    assert int(np.sum(st2.density > 0.5)) == 84


def test_density_and_variance_definitions():
    lat = mott.BoseHubbardLattice(Lx=2, Ly=2, J=0.1, U=10.0, mu=5.0)
    f = np.zeros((2, 2, 4), dtype=complex)
    f[:, :, 1] = np.sqrt(0.5)
    f[:, :, 2] = np.sqrt(0.5)
    st = mott.GutzwillerState(lattice=lat, f=f)
    assert np.allclose(st.density, 1.5)
    assert np.allclose(st.number_variance, 0.25)
    assert st.total_particles == pytest.approx(6.0)


_SHAPES = [(4, 4), (5, 5), (6, 5), (3, 3), (1, 7), (1, 8), (2, 5), (2, 6), (7, 1), (1, 1), (2, 2), (9, 18)]


@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("shape", _SHAPES)
def test_colour_classes_separate_neighbours(shape, boundary):
    lat = mott.BoseHubbardLattice(Lx=shape[0], Ly=shape[1], J=1.0, U=1.0, mu=1.0, boundary=boundary)
    c = mott._colour_classes(lat)
    assert c.shape == shape
    for i in range(lat.Lx):
        for j in range(lat.Ly):
            for n in _neighbors(lat, i, j):
                assert n == (i, j) or c[n] != c[i, j]
    odd_ring = boundary == "periodic" and any(L % 2 and L > 1 for L in shape)
    assert set(np.unique(c)) <= ({0, 1, 2} if odd_ring else {0, 1})


@pytest.mark.parametrize("boundary", ["periodic", "open"])
@pytest.mark.parametrize("shape", [(4, 4), (5, 3), (1, 6), (2, 5), (1, 1)])
def test_neighbour_field_matches_neighbors(shape, boundary):
    lat = mott.BoseHubbardLattice(Lx=shape[0], Ly=shape[1], J=1.0, U=1.0, mu=1.0, boundary=boundary)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(mott._neighbour_field(phi, boundary == "periodic"), _neighbour_field_loop(lat, phi))


@pytest.mark.parametrize(
    "lat",
    [
        mott.BoseHubbardLattice(Lx=4, Ly=4, J=1.0, U=2.0, mu=1.0),
        mott.BoseHubbardLattice(Lx=4, Ly=4, J=1.0, U=8.0, mu=4.0),
        mott.BoseHubbardLattice(Lx=5, Ly=5, J=1.0, U=8.0, mu=4.0),
        mott.BoseHubbardLattice(Lx=6, Ly=5, J=1.0, U=8.0, mu=4.0, boundary="open"),
    ],
    ids=["4x4-U2", "4x4-U8", "5x5-odd-periodic", "6x5-open"],
)
def test_every_start_matches_lexicographic_sweep(lat):
    # uniform lattices: with a superlattice offset one start can land on
    # different metastable fixed points in the two sweep orders
    for f0 in _starts(lat):
        f, _, ok = mott._sweep_to_convergence(lat, f0, 6)
        f_ref, _, ok_ref = _lexicographic_sweep(lat, f0, 6)
        assert ok and ok_ref
        e = mott.GutzwillerState(lattice=lat, f=f).energy()
        e_ref = mott.GutzwillerState(lattice=lat, f=f_ref).energy()
        assert abs(e - e_ref) <= 1e-9


def test_default_register_densities_identical():
    lat = mott.BoseHubbardLattice.with_superlattice(18, 18, J=1.0, U=30.0, mu=15.0, amplitude=40.0, period=9.0)
    st = mott.gutzwiller_minimize(lat)
    ref = _reference_minimize(lat)
    assert np.array_equal(st.density, ref.density)
    assert st.energy() == ref.energy()


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_energy_matches_bond_sum(boundary):
    lat = mott.BoseHubbardLattice(Lx=3, Ly=5, J=0.7, U=4.0, mu=2.0, boundary=boundary)
    rng = np.random.default_rng(5)
    f = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    f /= np.linalg.norm(f, axis=2, keepdims=True)
    st = mott.GutzwillerState(lattice=lat, f=f)
    phi = st.order_parameter
    hop = sum(np.real(np.conj(phi[i, j]) * phi[n]) for i in range(3) for j in range(5) for n in _neighbors(lat, i, j))
    n = np.arange(5)
    e = np.sum(np.abs(f) ** 2 * (0.5 * lat.U * n * (n - 1))) + np.sum((lat.eps - lat.mu) * st.density) - lat.J * hop
    assert st.energy() == pytest.approx(e, abs=1e-12)


def test_converged_start_beats_lower_nonconverged_one():
    # mu < 0: the atomic-limit vacuum is a fixed point and converges in one
    # sweep, while the superfluid start, cut after two sweeps (at -0.19
    # after one), already lies lower
    lat = mott.BoseHubbardLattice(Lx=4, Ly=4, J=1.0, U=2.0, mu=-1.0)
    f, _, ok = mott._sweep_to_convergence(lat, mott._superfluid_start(lat, 6), 6, max_sweeps=2)
    assert not ok
    assert mott.GutzwillerState(lattice=lat, f=f).energy() < -1.0
    st = mott.gutzwiller_minimize(lat, max_sweeps=2)
    assert st.converged and st.sweeps == 1
    assert st.energy() == 0.0


def test_not_converged_carries_best_state():
    lat = mott.BoseHubbardLattice(Lx=4, Ly=4, J=1.0, U=2.0, mu=1.0)
    with pytest.raises(NotConverged) as info:
        mott.gutzwiller_minimize(lat, max_sweeps=1)
    st = info.value.state
    assert isinstance(st, mott.GutzwillerState) and not st.converged
    energies = [mott.GutzwillerState(lattice=lat, f=mott._sweep_to_convergence(lat, f0, 6, max_sweeps=1)[0]).energy() for f0 in _starts(lat)]
    assert st.energy() == pytest.approx(min(energies), abs=1e-9)


@pytest.mark.parametrize("J", [0.0, 1e-320])
def test_energy_tolerance_never_zero(J):
    # tol_e |J| underflows to 0 at J = 1e-320; the tolerance then scales with U
    lat = mott.BoseHubbardLattice(Lx=2, Ly=2, J=J, U=2.0, mu=1.0)
    st = mott.gutzwiller_minimize(lat, max_sweeps=10)
    assert st.converged and st.sweeps == 2


@pytest.mark.parametrize("kwargs", [{"n_max": 0}, {"n_max": -1}, {"max_sweeps": -1}, {"max_sweeps": 0}])
def test_minimize_rejects_bad_budget(kwargs):
    lat = mott.BoseHubbardLattice(Lx=2, Ly=2, J=1.0, U=2.0, mu=1.0)
    with pytest.raises(ValidationError):
        mott.gutzwiller_minimize(lat, **kwargs)


@pytest.mark.parametrize("name", ["J", "U", "mu"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_lattice_rejects_nonfinite(name, value):
    kw = {"Lx": 2, "Ly": 2, "J": 1.0, "U": 2.0, "mu": 1.0, name: value}
    with pytest.raises(ValidationError):
        mott.BoseHubbardLattice(**kw)
    with pytest.raises(ValidationError):
        mott.BoseHubbardLattice(Lx=2, Ly=2, J=1.0, U=2.0, mu=1.0, eps=np.array([[0.0, value], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        mott.superlattice(0, 0, value, 9.0)
    with pytest.raises(ValidationError):
        mott.superlattice(0, 0, 40.0, value)


def test_phase_classify_labels():
    lat = mott.BoseHubbardLattice(Lx=1, Ly=4, J=0.1, U=10.0, mu=5.0)
    f = np.zeros((1, 4, 4), dtype=complex)
    f[0, 0, 0] = 1.0
    f[0, 1, 2] = 1.0
    f[0, 2, 1:3] = np.sqrt(0.5)  # phi > tol
    f[0, 3, 3] = 1.0
    st = mott.GutzwillerState(lattice=lat, f=f)
    labels = mott.phase_classify(st)
    assert list(labels[0]) == ["MI(0)", "MI(2)", "SF", "MI(3)"]
    assert labels.shape == (1, 4) and labels.dtype == object


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    lx=hst.integers(1, 5),
    ly=hst.integers(1, 5),
    boundary=hst.sampled_from(["periodic", "open"]),
    J=hst.floats(0.0, 1.0),
    U=hst.floats(1.0, 10.0),
    mu_over_u=hst.floats(-0.5, 2.5),
    n_max=hst.integers(2, 5),
)
def test_converged_sites_are_local_ground_states(lx, ly, boundary, J, U, mu_over_u, n_max):
    lat = mott.BoseHubbardLattice(Lx=lx, Ly=ly, J=J, U=U, mu=mu_over_u * U, boundary=boundary)
    try:
        st = mott.gutzwiller_minimize(lat, n_max=n_max)
    except NotConverged:
        assume(False)
    field = _neighbour_field_loop(lat, st.order_parameter)
    for i in range(lx):
        for j in range(ly):
            H = _local_hamiltonian(lat, lat.eps[i, j], field[i, j], n_max)
            g = st.f[i, j]
            assert np.linalg.norm(H @ g - np.linalg.eigvalsh(H)[0] * g) <= 1e-7


@pytest.mark.parametrize("J, energy", [(3.0, -469.889719), (6.0, -1201.616185)])
def test_default_superlattice_reaches_superfluid_branch(J, energy):
    # the random starts of seeds 0 and 2 settled in a metastable state here
    # (-469.835714 at J = 3, -1191.873074 at J = 6)
    lat = mott.BoseHubbardLattice.with_superlattice(18, 18, J=J, U=30.0, mu=15.0, amplitude=40.0, period=9.0)
    assert mott.gutzwiller_minimize(lat).energy() <= energy + 1e-6


def test_frustrated_ring_takes_twisted_start():
    # J < 0 on odd periodic sides: no phase alternates all the way round;
    # a uniform start ends at -20.745 and the best random start at -23.41
    lat = mott.BoseHubbardLattice(Lx=3, Ly=3, J=-1.0, U=2.0, mu=1.0)
    assert mott.gutzwiller_minimize(lat).energy() <= -25.289133 + 1e-6


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    lx=hst.integers(1, 5),
    ly=hst.integers(1, 5),
    boundary=hst.sampled_from(["periodic", "open"]),
    J=hst.floats(0.0, 1.0),
    negative=hst.booleans(),
    U=hst.floats(1.0, 10.0),
    mu_over_u=hst.floats(-0.5, 2.5),
    disorder=hst.booleans(),
    eps_seed=hst.integers(0, 2**16),
)
def test_starts_not_above_random_starts(lx, ly, boundary, J, negative, U, mu_over_u, disorder, eps_seed):
    # The sweeps descend to a local minimum, so no set of starts guarantees
    # the global one.  J < 0 is drawn only on bipartite lattices: on a
    # frustrated one (an odd periodic side) with disorder a random start
    # can end lower than both starts.
    frustrated = boundary == "periodic" and any(L % 2 and L > 1 for L in (lx, ly))
    if negative and not frustrated:
        J = -J
    eps = np.random.default_rng(eps_seed).uniform(0.0, 5.0, (lx, ly)) if disorder else None
    lat = mott.BoseHubbardLattice(Lx=lx, Ly=ly, J=J, U=U, mu=mu_over_u * U, eps=eps, boundary=boundary)
    try:
        st = mott.gutzwiller_minimize(lat)
    except NotConverged:
        assume(False)
    for seed in range(3):
        f, _, ok = mott._sweep_to_convergence(lat, _random_start(lat, 6, seed), 6)
        if ok:
            assert st.energy() <= mott.GutzwillerState(lattice=lat, f=f).energy() + 1e-9


def _default_superlattice(J):
    return mott.BoseHubbardLattice.with_superlattice(18, 18, J=J, U=30.0, mu=15.0, amplitude=40.0, period=9.0)


def _drawn_lattice(lx, ly, boundary, j_over_u, negative, U, mu_over_u, disorder, eps_seed):
    eps = np.random.default_rng(eps_seed).uniform(0.0, 5.0, (lx, ly)) if disorder else None
    J = -j_over_u * U if negative else j_over_u * U
    return mott.BoseHubbardLattice(Lx=lx, Ly=ly, J=J, U=U, mu=mu_over_u * U, eps=eps, boundary=boundary)


_LATTICES = dict(
    lx=hst.integers(1, 5),
    ly=hst.integers(1, 5),
    boundary=hst.sampled_from(["periodic", "open"]),
    j_over_u=hst.floats(0.0, 0.2),
    negative=hst.booleans(),
    U=hst.floats(1.0, 10.0),
    mu_over_u=hst.floats(-0.5, 3.5),
    disorder=hst.booleans(),
    eps_seed=hst.integers(0, 2**16),
)


def _dense_lambda_max(lat, n_max):
    """Largest eigenvalue of |J| X^1/2 A X^1/2, with A built column by column
    from ``_neighbour_field`` and X from the atomic-limit gaps."""
    n = np.argmax(mott._atomic_limit_f(lat, n_max), axis=-1).ravel()
    e = (lat.eps - lat.mu).ravel()
    chi = (n + 1) / (lat.U * n + e) + np.where(n > 0, n / (-e - lat.U * (n - 1)), 0.0)
    sites = lat.Lx * lat.Ly
    A = np.stack([mott._neighbour_field(col.reshape(lat.Lx, lat.Ly), lat.boundary == "periodic").ravel() for col in np.eye(sites)], axis=1)
    r = np.sqrt(chi)
    return float(np.linalg.eigvalsh(abs(lat.J) * r[:, None] * A * r[None, :])[-1])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_max=hst.integers(1, 3), **_LATTICES)
def test_mott_certificate_is_sound(n_max, **kw):
    # n_max up to 3 and mu up to 3.5 U, so the atomic limit reaches n_max
    lat = _drawn_lattice(**kw)
    if mott._mott_certified(lat, n_max):
        assert _dense_lambda_max(lat, n_max) < 1


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_max=hst.integers(1, 4), max_sweeps=hst.sampled_from([1, 3, 4000]), **_LATTICES)
def test_certified_minimize_matches_two_starts(n_max, max_sweeps, **kw):
    lat = _drawn_lattice(**kw)
    ref = _reference_minimize(lat, n_max, sweep=mott._sweep_to_convergence, max_sweeps=max_sweeps)
    try:
        st = mott.gutzwiller_minimize(lat, n_max=n_max, max_sweeps=max_sweeps)
    except NotConverged as e:
        assert not ref.converged
        st = e.state
    assert np.array_equal(st.f, ref.f)
    assert (st.sweeps, st.converged) == (ref.sweeps, ref.converged)


@pytest.mark.parametrize("J, certified", [(0.0, True), (1.0, True), (1.1, True), (1.15, True), (1.17, False), (3.0, False)])
def test_default_superlattice_certificate(J, certified):
    # lambda_max is 0.946 at J = 1.1, 0.989 at 1.15 and 1.006 at 1.17
    assert mott._mott_certified(_default_superlattice(J), 6) is certified


def test_certified_lattice_not_converged_carries_best_state():
    # the atomic start is certified but needs 2 sweeps, so both starts run
    lat = _default_superlattice(1.0)
    assert mott._mott_certified(lat, 6)
    with pytest.raises(NotConverged) as info:
        mott.gutzwiller_minimize(lat, max_sweeps=1)
    st = info.value.state
    ref = _reference_minimize(lat, sweep=mott._sweep_to_convergence, max_sweeps=1)
    assert not st.converged and np.array_equal(st.f, ref.f)
    energies = [mott.GutzwillerState(lattice=lat, f=mott._sweep_to_convergence(lat, f0, 6, max_sweeps=1)[0]).energy() for f0 in _starts(lat)]
    assert st.energy() == min(energies)


@pytest.mark.parametrize("U, mu", [(1e-300, 15.0), (30.0, 1e300), (1e300, 15.0)])
def test_mott_certificate_quiet_on_extreme_gaps(U, mu):
    lat = mott.BoseHubbardLattice.with_superlattice(6, 6, J=1.0, U=U, mu=mu, amplitude=40.0, period=9.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mott._mott_certified(lat, 6)

