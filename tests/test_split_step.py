"""The stacked split-step kernel against naive per-step Strang loops.

Each reference below advances one wavefunction at a time with
exp(-i dt V/2) exp(-i dt k^2/2) exp(-i dt V/2) and numpy's FFT; the
transport and release references compose these steps as their fourth-order
kernels do.  The kernel fuses kicks, stacks states and transforms in place,
so it agrees only to rounding.  The (b,b) channel is evolved exactly in
time in the grid Hamiltonian's eigenbasis, so there the naive loop must
converge to it as dt^2.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import fft as sfft

from coldgate import cli, moving, switching, traps
from coldgate.traps import HBAR


def _strang(psi, expV, expK, fft=np.fft.fft, ifft=np.fft.ifft):
    return expV * ifft(expK * fft(expV * psi))


SUZUKI_P = 1 / (4 - 4 ** (1 / 3))
SUZUKI = (SUZUKI_P, SUZUKI_P, 1 - 4 * SUZUKI_P, SUZUKI_P, SUZUKI_P)


def _transport_reference(traj, N=128, L=36.0, dt=0.25, coeffs=SUZUKI):
    """The grid state at t = tau and the transport oracle's overlap, from
    ceil(2 tau/dt) steps of the composition of midpoint Strang substeps
    whose lengths are ``coeffs`` times the step; the defaults are the
    oracle's."""
    tau = traj.tau
    dx = L / N
    x = (np.arange(N) - N // 2) * dx
    k = 2 * np.pi * np.fft.fftfreq(N, d=dx)
    psi = np.pi ** (-0.25) * np.exp(-0.5 * (x - float(traj.x(-tau))) ** 2)
    psi = psi.astype(complex) / np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    n_steps = int(np.ceil(2 * tau / dt))
    dt = 2 * tau / n_steps
    for s in range(n_steps):
        t = -tau + s * dt
        for c in coeffs:
            h = c * dt
            V = 0.5 * (x - float(traj.x(t + 0.5 * h))) ** 2
            psi = _strang(psi, np.exp(-0.5j * h * V), np.exp(-0.5j * h * k**2))
            t += h
    ref = moving.evolve_coherent(traj, tau).position_wavefunction(x)
    ref = ref / np.sqrt(np.sum(np.abs(ref) ** 2) * dx)
    return psi, float(np.abs(np.vdot(ref, psi) * dx) ** 2)


def test_transport_oracle_matches_naive_loop():
    traj = traps.sine_squared_path(2.0, 2.0, 0.5)
    _, expected = _transport_reference(traj)
    assert abs(cli.transport_grid_overlap(traj) - expected) <= 1e-12


def test_ragged_transport_stack_matches_one_row_runs():
    # 2 tau/dt is not an integer on any path, so each row takes its own dt,
    # and the step counts differ, so rows leave the stack one at a time
    trajs = [
        traps.sine_squared_path(2.0, 1.2345, 1.0),  # 10 steps
        traps.sine_squared_path(2.0, 2.0007, 0.5),  # 17 steps
        traps.gaussian_bump_path(1.0, 1.5003, 0.4),  # 13 steps
    ]
    assert [int(np.ceil(2 * t.tau / 0.25)) for t in trajs] == [10, 17, 13]
    dts = {2 * t.tau / np.ceil(2 * t.tau / 0.25) for t in trajs}
    assert len(dts) == 3 and 0.25 not in dts
    _, states = cli._transport_grid_states(trajs)
    overlaps = cli.transport_grid_overlaps(trajs)
    for traj, state, overlap in zip(trajs, states, overlaps):
        expected, expected_overlap = _transport_reference(traj)
        _, (alone,) = cli._transport_grid_states([traj])
        assert np.max(np.abs(state - expected)) <= 1e-12
        assert np.max(np.abs(state - alone)) <= 1e-12
        assert abs(overlap - expected_overlap) <= 1e-12
        assert abs(overlap - cli.transport_grid_overlap(traj)) <= 1e-12
    assert cli.transport_grid_overlaps([]) == []


@pytest.mark.parametrize("every", [0, 7])
def test_moving_well_kicks_match_naive_loop(every):
    # kicks drawn by substep index reproduce the state itself, whether the
    # run is one segment or is cut for observation between the stages of a step
    traj = traps.sine_squared_path(2.0, 2.0, 0.5)
    N, L, tau = 256, 36.0, traj.tau
    expected, _ = _transport_reference(traj, N=N, L=L, dt=0.1)
    dx = L / N
    x = (np.arange(N) - N // 2) * dx
    psi = np.pi ** (-0.25) * np.exp(-0.5 * (x - float(traj.x(-tau))) ** 2)
    psi = psi.astype(complex) / np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    n_steps = int(np.ceil(2 * tau / 0.1))
    dt = 2 * tau / n_steps
    stages = dt * np.reshape(SUZUKI, (-1, 1, 1))
    midpoints = dt * (np.cumsum(SUZUKI) - 0.5 * np.asarray(SUZUKI))
    seen = []

    def kick(j):
        centre = traj.x(-tau + j // 5 * dt + midpoints[j % 5])
        return np.exp(-0.25j * stages[j % 5] * (x - centre) ** 2)

    n_sub = 5 * n_steps
    switching._split_step(psi[None], kick, stages, dx, n_sub, every=every, observe=lambda s, p: seen.append(s))
    assert np.max(np.abs(psi - expected)) <= 1e-12
    assert seen == (list(range(every, n_sub + 1, every)) if every else [n_sub])


def test_release_amplitudes_match_naive_loop():
    # the 1D static path with an observation after every composed step
    N, L, steps, nu0, x0 = 256, 24.0, 400, 2.0, 3 * np.sqrt(2)
    dt, dx = 2 * np.pi / steps, L / N
    x = (np.arange(N) - N // 2) * dx
    k = 2 * np.pi * np.fft.fftfreq(N, d=dx)
    psi0 = np.exp(-0.5 * nu0 * (x - x0) ** 2).astype(complex)
    psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * dx)
    psi, expected = psi0, [1.0 + 0j]
    for _ in range(steps):
        for c in SUZUKI:
            h = c * dt
            psi = _strang(psi, np.exp(-0.25j * h * x**2), np.exp(-0.5j * h * k**2))
        expected.append(np.vdot(psi0, psi) * dx)
    t, amps = switching._release_amplitudes(nu0, x0, N, L, steps)
    assert np.array_equal(t, np.arange(steps + 1) * dt)
    assert np.max(np.abs(amps - np.asarray(expected))) <= 1e-12


def test_release_amplitudes_are_fourth_order():
    # on the offset release, halving the step cuts the deviation from the
    # closed form about 16-fold
    x0 = 3 * np.sqrt(2)
    devs = []
    for steps in (100, 200, 400):
        t, amps = switching._release_amplitudes(2.0, x0, 256, 24.0, steps)
        devs.append(np.max(np.abs(amps - switching.cm_overlap_complex(2.0, 1.0, t, x0))))
    assert devs[0] >= 12 * devs[1] and devs[1] >= 12 * devs[2]


def test_transport_oracle_is_fourth_order():
    # halving the step cuts the change of the state about 16-fold, and at
    # dt = 0.1 the state agrees with a fine Strang run on the same grid
    traj = traps.sine_squared_path(2.0, 2.0, 0.5)
    states = {h: cli._transport_grid_states([traj], N=256, dt=h)[1][0] for h in (0.4, 0.2, 0.1, 0.05)}
    for h in (0.4, 0.2):
        big = np.max(np.abs(states[h] - states[h / 2]))
        small = np.max(np.abs(states[h / 2] - states[h / 4]))
        assert big >= 12 * small
    fine, _ = _transport_reference(traj, N=256, dt=2.5e-4, coeffs=(1.0,))
    assert np.max(np.abs(states[0.1] - fine)) <= 2e-6


def test_default_transport_oracle_is_within_its_budget():
    # at the default 128 points and dt = 0.25 the oracle's own error (about
    # 7e-10) stays over 100 times below the acceptance bound of 1e-6, both
    # against the fine grid and against the exact overlap of 1
    trajs = cli.benchmark_trajectories()
    coarse = np.array(cli.transport_grid_overlaps(trajs))
    fine = np.array(cli.transport_grid_overlaps(trajs, N=256, dt=0.1))
    assert np.max(np.abs(coarse - fine)) <= 1e-8
    assert np.max(np.abs(1 - coarse)) <= 1e-8


def _bb_reference(cfg, N, L, steps_per_period, n_periods, sigma_reg=0.0176):
    """<psi0|psi>, <ref|psi> at every step, and the contact strength g."""
    dt = 2 * np.pi / steps_per_period
    dx = L / N
    x = (np.arange(N) - N // 2) * dx
    k = 2 * np.pi * np.fft.fftfreq(N, d=dx)
    g = cfg.g1d("bb") / (HBAR * cfg.omega * np.sqrt(HBAR / (cfg.mass / 2 * cfg.omega)))
    psi0, _ = switching._bb_initial_state(cfg, x)
    V0 = 0.5 * x**2
    V = V0 + g * np.exp(-(x**2) / (2 * sigma_reg**2)) / (sigma_reg * np.sqrt(2 * np.pi))
    expV, expV0, expK = np.exp(-0.5j * dt * V), np.exp(-0.5j * dt * V0), np.exp(-0.5j * dt * k**2)
    psi = ref = psi0.astype(complex)
    a_init, a_ref = [np.vdot(psi0, psi) * dx], [np.vdot(ref, psi) * dx]
    for _ in range(int(round((n_periods + 0.1) * steps_per_period))):
        psi, ref = _strang(psi, expV, expK), _strang(ref, expV0, expK)
        a_init.append(np.vdot(psi0, psi) * dx)
        a_ref.append(np.vdot(ref, psi) * dx)
    return np.asarray(a_init), np.asarray(a_ref), g


def test_naive_bb_loop_converges_to_spectral_series(ref_cfg):
    # the (b,b) series are exact in time, so the Strang loop's error over one
    # period must fall as dt^2 towards them: in the phase, in the complex
    # <psi0|psi> (whose rotation sign |a|^2 cannot see) and in |<ref|psi>|^2
    N, L = 256, 32.0
    gaps = []
    for sps in (500, 1000, 2000, 4000):
        a_init, a_ref, g = _bb_reference(ref_cfg, N, L, sps, 1)
        ser = switching.propagate(ref_cfg, ("b", "b"), n_periods=1, N=N, L=L, steps_per_period=sps, check_convergence=False)
        one = slice(0, sps + 1)
        gaps.append(
            [
                np.max(np.abs(ser.phase[one] - -np.unwrap(np.angle(a_ref[one])))),
                np.max(np.abs(ser.amp_init[one] - a_init[one])),
                np.max(np.abs(ser.overlap_init[one] - np.abs(a_init[one]) ** 2)),
                np.max(np.abs(ser.overlap_ref[one] - np.abs(a_ref[one]) ** 2)),
            ]
        )
    gaps = np.asarray(gaps)
    assert np.all(gaps[:-1] >= 3.5 * gaps[1:])
    assert np.all(gaps[-1] <= [5e-4, 5e-4, 5e-5, 1e-4])
    # the precheck's own solve lands on the phase of the main one
    grid = switching.TwoParticleGrid(L=L, N=N, dt=2 * np.pi / sps)
    p = switching._propagate_bb_once(ref_cfg, grid, g, 0.0176, 1, sps)
    assert abs(p - ser.phase[sps]) <= 1e-10


def test_even_sector_hamiltonian_matches_fft_grid():
    # on even vectors the DCT-I kinetic energy is the FFT one
    N, L = 256, 32.0
    grid = switching.TwoParticleGrid(L=L, N=N, dt=1e-3)
    k = 2 * np.pi * np.fft.fftfreq(N, d=grid.dx)
    V = 0.5 * grid.x**2 + switching._regularized_delta(grid.x, 0.0176)
    f = np.random.default_rng(3).standard_normal(N)
    f = f + f[(N - np.arange(N)) % N]  # f(x) = f(-x) on the periodic grid
    expected = np.fft.ifft(0.5 * k**2 * np.fft.fft(f)).real + V * f
    sector = switching._EvenSector(grid)
    half = (N // 2 + np.arange(N // 2 + 1)) % N  # x = 0 .. L/2
    y = sector.w * f[half]
    got = (sector.dct_diagonal(y.copy(), sector.kinetic) + V[half] * y) / sector.w
    assert np.max(np.abs(got - expected[half])) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("shape", [(2049,), (40, 2049)], ids=["vector", "block"])
def test_dct_kernels_match_scipy(shape):
    # the mirrored-rfft DCT-I against scipy's type-1 DCT pair
    grid = switching.TwoParticleGrid(L=32.0, N=4096, dt=1e-3)
    sector = switching._EvenSector(grid)
    Y = np.random.default_rng(5).standard_normal(shape)
    factor = 1.0 / (sector.kinetic + 3.0)
    expected = sfft.idct(sfft.dct(Y / sector.w, type=1) * factor, type=1) * sector.w
    got = sector.dct_diagonal(Y.copy(), factor)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    U = np.atleast_2d(Y)
    m, n = U.shape[1], 2 * U.shape[1] - 1
    coef = np.zeros((len(U), n))
    coef[:, :m] = sfft.dct(U, type=1)
    coef[:, m - 1] *= 0.5
    expected = sfft.idct(coef, type=1) * ((n - 1) / (m - 1))
    got = switching._dct_interpolate(U, n)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_dct_diagonal_allocates_less_than_a_block():
    # the mirrors and spectra live in the sector's buffers: with a new pair
    # per call the peak was 2.6 MB, with the buffers it is about 50 KB
    sector = switching._EvenSector(switching.TwoParticleGrid(L=32.0, N=4096, dt=1e-3))
    Y = np.random.default_rng(6).standard_normal((switching.BLOCK_SIZE, 2049))
    sector.dct_diagonal(Y, sector.kinetic)  # first call: numpy's FFT plan cache
    tracemalloc.start()
    try:
        for _ in range(3):
            sector.dct_diagonal(Y, 1.0 / (sector.kinetic + 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Y.nbytes


def test_ab_series_matches_naive_loop(ref_cfg):
    N, L, sps, sigma = 32, 24.0, 200, 0.08
    dt, dx = 2 * np.pi / sps, L / N
    x = (np.arange(N) - N // 2) * dx
    k = 2 * np.pi * np.fft.fftfreq(N, d=dx)
    x0, nu0 = ref_cfg.x0 / ref_cfg.length_si, ref_cfg.omega0 / ref_cfg.omega
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    V0 = 0.5 * nu0**2 * (np.abs(X1) - x0) ** 2 + 0.5 * X2**2
    g2 = ref_cfg.g1d("ab") / (HBAR * ref_cfg.omega * ref_cfg.length_si)
    V = V0 + g2 * np.exp(-((X1 - X2) ** 2) / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
    K1, K2 = np.meshgrid(k, k, indexing="ij")
    expK = np.exp(-0.5j * dt * (K1**2 + K2**2))
    expV, expV0 = np.exp(-0.5j * dt * V), np.exp(-0.5j * dt * V0)
    psi0 = np.outer(np.exp(-0.5 * nu0 * (x + x0) ** 2), np.exp(-0.5 * nu0 * (x - x0) ** 2)).astype(complex)
    psi0 /= np.sqrt(np.sum(np.abs(psi0) ** 2) * dx * dx)
    psi = ref = psi0
    a_init, a_ref = [1.0 + 0j], [1.0 + 0j]
    for s in range(1, int(round(1.1 * sps)) + 1):
        psi = _strang(psi, expV, expK, np.fft.fft2, np.fft.ifft2)
        ref = _strang(ref, expV0, expK, np.fft.fft2, np.fft.ifft2)
        if s % 4 == 0:
            a_init.append(np.vdot(psi0, psi) * dx * dx)
            a_ref.append(np.vdot(ref, psi) * dx * dx)

    ser = switching.propagate_ab(ref_cfg, n_periods=1, N=N, L=L, steps_per_period=sps, sigma_reg=sigma)
    assert len(ser.t) == len(a_init)
    assert np.max(np.abs(ser.amp_init - np.asarray(a_init))) <= 1e-10
    assert np.max(np.abs(ser.phase - -np.unwrap(np.angle(a_ref)))) <= 1e-10
    assert np.max(np.abs(ser.overlap_ref - np.abs(np.asarray(a_ref)) ** 2)) <= 1e-10
