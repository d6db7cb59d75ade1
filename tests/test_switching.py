import dataclasses
import warnings

import numpy as np
import pytest
from scipy import special

from coldgate import switching, traps
from coldgate.errors import ConvergenceFailure, NormLoss, ValidationError


def test_cm_overlap_modulus_matches_analytic():
    t = np.linspace(0, 4 * np.pi, 400)
    z = switching.cm_overlap_complex(2.0, 1.0, t)
    assert np.allclose(np.abs(z) ** 2, switching.cm_overlap_analytic(2.0, 1.0, t), atol=1e-12)


def test_cm_overlap_quarter_period_value():
    assert switching.cm_overlap_analytic(2.0, 1.0, np.pi / 2) == pytest.approx(0.8, abs=1e-12)


def test_cm_overlap_phase_continuous():
    t = np.linspace(0, 6 * np.pi, 3000)
    z = np.asarray(switching.cm_overlap_complex(2.0, 1.0, t))
    dphi = np.diff(np.angle(z))
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(dphi)) < 0.1


def test_cm_overlap_zero_point_phase_after_full_period():
    # after one period the Gaussian revives up to the e^{-i omega T/2}
    # zero-point factor
    z = switching.cm_overlap_complex(2.0, 1.0, 2 * np.pi)
    assert z == pytest.approx(-1.0 + 0j, abs=1e-12)


def test_cm_overlap_identical_frequencies_trivial():
    t = np.linspace(0, 10, 50)
    z = np.asarray(switching.cm_overlap_complex(1.0, 1.0, t))
    assert np.allclose(np.abs(z), 1.0, atol=1e-12)


def test_energy_shift_peaks_at_quarter_period(ref_cfg):
    t = np.linspace(0, ref_cfg.period / 2, 2001)
    dE = switching.energy_shift_bb(ref_cfg, t)
    assert np.all(dE >= 0)
    ipk = int(np.argmax(dE))
    assert t[ipk] == pytest.approx(ref_cfg.period / 4, rel=1e-2)


def test_perturbative_phase_closed_vs_quadrature(ref_cfg):
    pert = switching.phase_per_period_perturbative(ref_cfg)
    assert pert.quadrature == pytest.approx(pert.closed_form, rel=0.01)
    # seven periods land near (but below) the target pi
    assert 7 * pert.closed_form / np.pi == pytest.approx(0.964, abs=0.005)


def test_bb_initial_state_symmetric(ref_cfg):
    x = (np.arange(2048) - 1024) * (32.0 / 2048)
    psi, r0 = switching._bb_initial_state(ref_cfg, x)
    assert r0 == pytest.approx(6.0, rel=1e-12)
    assert np.sum(np.abs(psi) ** 2) * (x[1] - x[0]) == pytest.approx(1.0)
    # even in r (the grid's first point has no mirror partner)
    assert np.allclose(psi[1:], psi[1:][::-1], atol=1e-12)


def test_propagate_rejects_aa_channel(ref_cfg):
    with pytest.raises(ValidationError):
        switching.propagate(ref_cfg, ("a", "a"))


@pytest.mark.parametrize("channel", [("a", "b"), ("b", "a")])
def test_propagate_refers_mixed_channel_to_propagate_ab(ref_cfg, channel):
    # propagate's grid arguments do not fit the 2D grid, so it does not guess
    with pytest.raises(ValidationError, match="propagate_ab"):
        switching.propagate(ref_cfg, channel, n_periods=1, N=64)


def test_propagate_resolution_precheck(ref_cfg):
    # a grid too coarse for the overlaps must be refused: at N=64 the 33
    # points cannot hold h_62, so the norm check does (the 2N precheck moves
    # the phase by 5.7e-4 rad there, inside its 1e-3)
    with pytest.raises(NormLoss):
        switching.propagate(ref_cfg, ("b", "b"), n_periods=1, N=64, steps_per_period=200)


def _g_tilde(cfg):
    a_r = np.sqrt(traps.HBAR / (cfg.mass / 2 * cfg.omega))
    return cfg.g1d("bb") / (traps.HBAR * cfg.omega * a_r)


def _phase_after_one_period(cfg, N, L, size):
    spec = switching._bb_spectrum(cfg, switching.TwoParticleGrid(L=L, N=N, dt=1.0), _g_tilde(cfg), size)
    return float(-np.angle(spec.amplitudes(np.array([2 * np.pi]))[1, 0]))


def test_precheck_bounds_both_truncations(ref_cfg):
    # the precheck reruns the closed form on 2N points with 2 BASIS_SIZE
    # levels, so the phase it compares moves with the quadrature and with
    # the basis, and at the default box both have converged
    ser = switching.propagate(ref_cfg, ("b", "b"), n_periods=1, N=2048, steps_per_period=200)
    assert ser.precheck_delta <= 1e-12
    fine = _phase_after_one_period(ref_cfg, 2048, 32.0, 2 * switching.BASIS_SIZE)
    assert abs(_phase_after_one_period(ref_cfg, 64, 32.0, switching.BASIS_SIZE) - fine) > 1e-4
    assert abs(_phase_after_one_period(ref_cfg, 2048, 32.0, 8) - fine) > 1e-4


@pytest.mark.parametrize("N", [64, 128])
def test_tiny_grids_converge(ref_cfg, N):
    # the closed form needs no grid; the overlaps need one that holds h_62
    spec = switching._bb_spectrum(ref_cfg, switching.TwoParticleGrid(L=32.0, N=N, dt=1.0), _g_tilde(ref_cfg))
    assert len(spec.E) == switching.BASIS_SIZE
    # each level to adjacent doubles: 53 steps and one more per halving of 1/2 down to eps
    assert spec.iterations <= 64 * switching.BASIS_SIZE
    if N == 64:
        # the 33 points cannot hold h_0 .. h_62, so the norm is off and the gate refused
        with pytest.raises(NormLoss):
            switching.propagate(ref_cfg, ("b", "b"), n_periods=1, N=N, steps_per_period=200, check_convergence=False)
        return
    ser = switching.propagate(ref_cfg, ("b", "b"), n_periods=1, N=N, steps_per_period=200, check_convergence=False)
    assert len(ser.spectrum.E) == switching.BASIS_SIZE
    assert ser.spectrum.iterations == spec.iterations
    assert abs(ser.spectrum.tail_weight) <= 1e-6
    assert ser.precheck_delta is None


@pytest.mark.parametrize("N", [256, 4096, 8192])
def test_solved_reference_is_the_closed_form(ref_cfg, N):
    # at g=0 the spectrum is the oscillator's, O = I and c = d; the even
    # Hermite rows are orthonormal under the quadrature of d (8192 is the
    # precheck grid of the default N)
    grid = switching.TwoParticleGrid(L=32.0, N=N, dt=1.0)
    spec = switching._bb_spectrum(dataclasses.replace(ref_cfg, a_s_bb=0.0), grid, 0.0)
    n = switching.BASIS_SIZE
    assert np.array_equal(spec.E, 2 * np.arange(n) + 0.5) and np.array_equal(spec.E, spec.E0)
    assert np.array_equal(spec.O, np.eye(n)) and np.array_equal(spec.c, spec.d)
    x = grid.dx * np.arange(N // 2 + 1)
    w = np.full(x.size, 2 * grid.dx)
    w[[0, -1]] = grid.dx
    H = switching._even_hermite(x, n)
    assert np.max(np.abs((H * w) @ H.T - np.eye(n))) <= 1e-12


def test_propagate_runs_one_eigensolve_per_grid(ref_cfg, monkeypatch):
    # one closed-form solve of BASIS_SIZE levels on N points, and one of
    # twice the levels on the 2N precheck grid
    solves = []
    spectrum = switching._bb_spectrum

    def counted(cfg, grid, g_tilde, size=switching.BASIS_SIZE):
        solves.append((grid.N, size))
        return spectrum(cfg, grid, g_tilde, size)

    monkeypatch.setattr(switching, "_bb_spectrum", counted)
    switching.propagate(ref_cfg)
    assert solves == [(4096, 32), (8192, 64)]


def test_short_box_raises_norm_loss(ref_cfg):
    # L = 12 cuts the initial state at its centres x = +-6: the norm check
    # refuses it, and the precheck's 64 levels see the cut first
    with pytest.raises(NormLoss):
        switching.propagate(ref_cfg, L=12.0, check_convergence=False)
    with pytest.raises(ConvergenceFailure):
        switching.propagate(ref_cfg, L=12.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"steps_per_period": 0},
        {"steps_per_period": -5},
        {"L": 0.0},
        {"L": -1.0},
        {"n_periods": 0},
        {"L": np.nan},
        {"N": 65},  # the quadrature on x = 0 .. L/2 needs an even N
    ],
)
def test_propagate_rejects_bad_numbers(ref_cfg, kwargs):
    with pytest.raises(ValidationError):
        switching.propagate(ref_cfg, ("b", "b"), **{"n_periods": 1, "N": 64, **kwargs})


# x^2 overflows past |x| ~ 1.3e154 (L/2 = 1.4e154 is past it in a trap of
# omega0 = omega as in the reference trap); at L = 1e-300 the state's squared
# norm underflows to 0.  Both are refused before numpy warns, under -W error.
@pytest.mark.parametrize(
    "L, nu0, match",
    [(1e200, None, r"overflows x\^2"), (3e154, None, r"overflows x\^2"), (2.8e154, 1.0, r"overflows x\^2"), (1e-300, None, "norm underflows"), (1e-320, None, "norm underflows")],
)
def test_propagate_refuses_a_box_past_the_float_range(ref_cfg, L, nu0, match):
    cfg = ref_cfg if nu0 is None else dataclasses.replace(ref_cfg, omega0=nu0 * ref_cfg.omega)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=match):
            switching.propagate(cfg, ("b", "b"), L=L)


def test_nan_fails_precheck_and_norm_check(ref_cfg):
    # a NaN scattering length makes every level NaN
    cfg = dataclasses.replace(ref_cfg, a_s_bb=np.nan)
    with pytest.raises(ConvergenceFailure):
        switching.propagate(cfg, ("b", "b"), n_periods=1, N=128, steps_per_period=200)
    with pytest.raises(NormLoss):
        switching.propagate(cfg, ("b", "b"), n_periods=1, N=128, steps_per_period=200, check_convergence=False)


def test_contact_levels_perturbative_limit():
    # first order in g: E_nu - E0_nu = g h_2nu(0)^2
    g, n = 1e-6, 2 * switching.BASIS_SIZE
    eps, _, _ = switching._contact_levels(g, n)
    h0 = switching._even_hermite(np.zeros(1), n)[:, 0]
    assert np.max(np.abs(2 * eps - g * h0**2)) <= 1e-12


def test_contact_levels_hard_core_limit():
    # g -> infinity: the even levels fall onto the odd ones, E = 2 nu + 3/2
    eps, _, _ = switching._contact_levels(1e6, switching.BASIS_SIZE)
    assert np.max(np.abs(2 * eps - 1.0)) <= 1e-5


@pytest.mark.parametrize("g", [0.656, -0.656, 3.0, -5.0])
def test_contact_levels_solve_the_series(g):
    # the defining series summed directly, m < M, with the leading term of
    # each tail: S(E_nu) = sum h_2m(0)^2 / (E0_m - E_nu) = -1/g, and each norm
    # is 1/sqrt(S'(E_nu)); level 0 of g < 0 is the bound state
    M, count = 200_000, 8
    eps, norm, _ = switching._contact_levels(g, count)
    m = np.arange(M)
    h2 = np.exp(special.gammaln(m + 0.5) - special.gammaln(m + 1.0)) / np.pi
    gap = (2 * m + 0.5)[:, None] - (2 * np.arange(count) + 0.5 + 2 * eps)
    S = h2 @ (1 / gap) + 1 / (np.pi * np.sqrt(M))
    S1 = h2 @ (1 / gap**2) + M**-1.5 / (6 * np.pi)
    assert np.max(np.abs(g * S + 1)) <= 1e-6
    assert np.max(np.abs(norm * np.sqrt(S1) - 1)) <= 1e-8


@pytest.mark.parametrize("g", [1e-300, -1e-300, 1e300, -1e3])
def test_contact_spectrum_stays_finite_at_extreme_g(ref_cfg, g):
    # S' grows as 1/g^2 past the float range at 1e-300, eps meets 1/2 at
    # 1e300, and -1e3 binds a state near E = -2e5: the overlaps stay unit
    # columns, and at |g| = 1e-300 the spectrum is the oscillator's
    spec = switching._bb_spectrum(ref_cfg, switching.TwoParticleGrid(L=32.0, N=4096, dt=1.0), g)
    assert np.all(np.isfinite(spec.O)) and np.max(np.abs(spec.O)) <= 1 + 1e-12
    assert spec.tail_weight <= 1e-6
    if abs(g) < 1:
        assert np.max(np.abs(np.abs(spec.O) - np.eye(switching.BASIS_SIZE))) <= 1e-12


def test_digamma_matches_scipy():
    x = np.linspace(0.5, 40.0, 4001)
    assert np.max(np.abs(switching._digamma(x) - special.digamma(x))) <= 1e-14


@pytest.mark.parametrize("side", ["c", "d"])
def test_norm_check_covers_both_bases(ref_cfg, monkeypatch, side):
    # a_init is read from c = <phi_n|psi0>, a_ref also from d = <chi_m|psi0>:
    # weight lost from either expansion raises NormLoss
    solve = switching._bb_spectrum

    def lossy(*args, **kwargs):
        spec = solve(*args, **kwargs)
        return dataclasses.replace(spec, **{side: getattr(spec, side) * np.sqrt(1 - 1e-5)})

    monkeypatch.setattr(switching, "_bb_spectrum", lossy)
    with pytest.raises(NormLoss):
        switching.propagate(ref_cfg, ("b", "b"), n_periods=1, N=128, steps_per_period=200, check_convergence=False)


def test_noninteracting_reference_revives(ref_cfg):
    ser = switching.propagate(
        dataclasses.replace(ref_cfg, a_s_bb=0.0), ("b", "b"), n_periods=1, N=512, steps_per_period=500, check_convergence=False
    )
    assert abs(ser.phase_final) < 1e-9
    k = int(np.argmin(np.abs(ser.t - ser.period)))
    assert ser.overlap_init[k] > 1 - 1e-4


def test_production_gate_numbers(bb_series):
    assert bb_series.phase_final / np.pi == pytest.approx(1.0, abs=0.05)
    assert bb_series.revival >= 0.99
    assert 1e-3 <= bb_series.deltaT / bb_series.period <= 4e-3
    assert len(bb_series.revival_times) == 7


def test_series_interpolators(bb_series):
    t_mid = bb_series.t[len(bb_series.t) // 2]
    assert bb_series.phase_at(t_mid) == pytest.approx(bb_series.phase[len(bb_series.t) // 2], abs=1e-9)
    amp = bb_series.amp_init_at(bb_series.tau)
    assert abs(amp) ** 2 == pytest.approx(bb_series.revival, abs=5e-4)


def test_series_reads_are_exact_between_samples(ref_cfg, bb_series, bb_series_dense):
    # halfway between the samples of 4000 a period, around each revival and
    # the gate time, where a linear read of the amplitude sagged |a|^2 by up
    # to 2e-4; the reads are those of the default, sparser series
    spec = switching._bb_spectrum(ref_cfg, switching.TwoParticleGrid(L=32.0, N=4096, dt=1.0), _g_tilde(ref_cfg))
    dense = bb_series_dense
    dt = dense.t[1]
    near = np.concatenate([bb_series.revival_times, [bb_series.tau]])
    t = (np.round(near / dt)[:, None] + np.arange(-20, 20) + 0.5).ravel() * dt
    a_init, a_ref = spec.amplitudes(t)
    assert np.max(np.abs([bb_series.amp_init_at(s) for s in t] - a_init)) <= 1e-12
    phase = np.array([bb_series.phase_at(s) for s in t])
    assert np.max(np.abs(np.exp(-1j * phase) - a_ref / np.abs(a_ref))) <= 1e-12
    # on the branch of the neighbouring dense samples
    assert np.max(np.abs(phase - np.interp(t, dense.t, dense.phase))) <= 1e-3


def test_revival_peaks_are_dense_scan_maxima(bb_series):
    T, step = bb_series.period, 1e-5 * bb_series.period
    for k, peak in enumerate(bb_series.revival_times, 1):
        t = np.arange((k - 0.12) * T, (k + 0.12) * T, step)
        ov = np.abs(bb_series.spectrum.amplitudes(t)[0]) ** 2
        assert abs(peak - t[np.argmax(ov)]) <= step
        assert abs(bb_series.amp_init_at(peak)) ** 2 >= np.max(ov)


def test_revival_reads_do_not_depend_on_sampling(ref_cfg, bb_series):
    # steps_per_period sets only the written samples and the branch of phase_at
    coarse = switching.propagate(ref_cfg, ("b", "b"), steps_per_period=10, check_convergence=False)
    assert np.max(np.abs(coarse.revival_times - bb_series.revival_times)) <= 1e-12
    got = (coarse.tau, coarse.revival, coarse.phase_final)
    assert got == pytest.approx((bb_series.tau, bb_series.revival, bb_series.phase_final), abs=1e-12)


@pytest.mark.parametrize("g_scale", [1.0, -1.0, 0.5], ids=["production", "negated", "halved"])
def test_default_sampling_reads_as_dense_sampling(ref_cfg, bb_series, bb_series_dense, g_scale):
    # the default 100 samples per period give the reads of 4000; -1 is the
    # accept tamper, and at 0.5 the 2 pi branch of phase_at is exercised
    cfg = dataclasses.replace(ref_cfg, a_s_bb=ref_cfg.a_s_bb * g_scale)
    if g_scale == 1.0:
        sparse, dense = bb_series, bb_series_dense
    else:
        sparse = switching.propagate(cfg, check_convergence=False)
        dense = switching.propagate(cfg, steps_per_period=4000, check_convergence=False)
    assert len(sparse.t) == 711 and len(dense.t) == 28401
    for name in ("phase_final", "revival", "deltaT"):
        assert abs(getattr(sparse, name) - getattr(dense, name)) <= 1e-12
    assert np.max(np.abs(sparse.revival_times - dense.revival_times)) <= 1e-12


def _centred_overlap(omega0, omega, t):
    """The x0 = 0 closed form as written before the well offset was added."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    c = (omega0**2 + omega**2) / (2 * omega0 * omega)
    z = np.cos(omega * t) + 1j * c * np.sin(omega * t)
    ph = omega * t + np.angle(z * np.exp(-1j * omega * t))
    out = np.abs(z) ** (-0.5) * np.exp(-0.5j * ph)
    return out if out.size > 1 else complex(out[0])


def test_released_gaussian_centred_case_unchanged():
    t = np.linspace(0, 8 * np.pi, 2001)
    for nu in (0.5, 1.0, 2.0, 3.7):
        assert np.array_equal(switching.cm_overlap_complex(nu, 1.0, t), _centred_overlap(nu, 1.0, t))
        assert switching.cm_overlap_complex(nu, 1.0, 1.3, 0.0) == _centred_overlap(nu, 1.0, 1.3)


@pytest.mark.parametrize("N, steps, tol", [(1024, 200, 1e-7), (2048, 400, 1e-8)])
def test_released_gaussian_matches_grid(N, steps, tol):
    # the fourth-order split-step grid converges to the closed form as dt^4
    x0 = 3 * np.sqrt(2)
    t, amps = switching._release_amplitudes(2.0, x0, N, 24.0, steps)
    assert np.max(np.abs(switching.cm_overlap_complex(2.0, 1.0, t, x0) - amps)) <= tol


def test_released_gaussian_revives(ref_cfg):
    # the production b atom over the span the gate's timing scan reaches,
    # and a narrower, a wider and a coherent packet on either side
    nu, x0 = ref_cfg.omega0 / ref_cfg.omega, ref_cfg.x0 / ref_cfg.length_si
    t = np.linspace(0, 7.2 * 2 * np.pi, 20001)
    for nu, x0 in ((nu, x0), (0.5, 2.0), (3.0, -1.0), (1.0, 1.5)):
        assert switching.cm_overlap_complex(nu, 1.0, 0.0, x0) == pytest.approx(1.0 + 0j, abs=1e-12)
        assert switching.cm_overlap_complex(nu, 1.0, 2 * np.pi, x0) == pytest.approx(-1.0 + 0j, abs=1e-12)
        assert np.max(np.abs(switching.cm_overlap_complex(nu, 1.0, t, x0))) <= 1.0 + 1e-12


def test_released_coherent_state_overlap():
    # nu = 1 is a coherent state of |alpha|^2 = x0^2/2 with zero-point phase
    t = np.linspace(0, 3 * np.pi, 301)
    x0 = 1.5
    expected = np.exp(-0.5j * t) * np.exp(-(x0**2) / 2 * (1 - np.exp(-1j * t)))
    assert np.max(np.abs(switching.cm_overlap_complex(1.0, 1.0, t, x0) - expected)) <= 1e-12


def test_net_phase_transverse_displacement(ref_cfg, bb_series):
    res = switching.net_phase_gate(ref_cfg, n=7, variant="transverse-displacement", series=bb_series)
    assert res.phi_ab_total == 0.0
    assert res.net_phase == pytest.approx(bb_series.phase_at(bb_series.tau))
    with pytest.raises(ValidationError):
        switching.net_phase_gate(ref_cfg, variant="bogus", series=bb_series)


def test_net_phase_aligned_extrapolates_ab_phase(ref_cfg, bb_series, monkeypatch):
    # the (a,b) phase after its last sample, scaled to n periods, on a small 2D grid
    solve = switching.propagate_ab
    small = {"N": 32, "L": 24.0, "steps_per_period": 200}
    monkeypatch.setattr(switching, "propagate_ab", lambda cfg, n_periods: solve(cfg, n_periods, **small))
    res = switching.net_phase_gate(ref_cfg, n=7, variant="aligned", series=bb_series)
    t, (_, a_ref) = solve(ref_cfg, 2, **small)
    phi_ab = -np.unwrap(np.angle(a_ref))[-1] * 7 / (t[-1] / (2 * np.pi))
    assert res.phi_ab_total == pytest.approx(phi_ab, rel=1e-12)
    assert res.net_phase == pytest.approx(bb_series.phase_final - 2 * phi_ab, rel=1e-12)


def test_grid_validation():
    with pytest.raises(ValidationError):
        switching.TwoParticleGrid(L=32.0, N=8, dt=1e-3)
    for L in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValidationError):
            switching.TwoParticleGrid(L=L, N=64, dt=1e-3)
    with pytest.raises(ValidationError):
        switching.cm_overlap_analytic(-1.0, 1.0, 0.5)
