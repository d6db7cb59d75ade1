import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_laguerre

from coldgate import cli, fidelity, moving, switching, traps
from coldgate.errors import ValidationError


def test_thermal_state_zero_temperature():
    st = fidelity.thermal_state(0.0)
    assert st.p[0] == 1.0
    assert st.n_max == 0


def test_thermal_state_normalization_and_tail():
    st = fidelity.thermal_state(0.5)
    assert float(np.sum(st.p)) == pytest.approx(1.0, abs=1e-12)
    q = np.exp(-1.0 / 0.5)
    assert q ** (st.n_max + 1) <= 1e-10
    # geometric ratio
    assert st.p[1] / st.p[0] == pytest.approx(q, rel=1e-9)


def test_thermal_state_negative_kt_rejected():
    with pytest.raises(ValidationError):
        fidelity.thermal_state(-0.1)


def test_ideal_channel_is_perfect():
    assert fidelity.min_fidelity(fidelity.ideal_channel()) == pytest.approx(1.0, abs=1e-9)


def test_min_fidelity_finds_phase_conflict():
    # opposite unit phases on two channels: the balanced superposition has
    # zero fidelity
    vs = np.array([1.0, 1.0, 1.0, -1.0], dtype=complex)
    chan = fidelity.GateChannel(basis=("aa", "ab", "ba", "bb"), overlaps=lambda n1, n2: np.full((len(n1), 4), vs))
    assert fidelity.min_fidelity(chan) == pytest.approx(0.0, abs=1e-8)


def test_min_fidelity_pure_loss_channel():
    # a single channel with amplitude o < 1 and no phase error: the worst
    # input concentrates all weight there, F = o^2 + (1 - o^2) recovers the
    # incoherent floor at w = 1
    o = 0.6
    vs = np.array([1.0, 1.0, 1.0, o], dtype=complex)
    chan = fidelity.GateChannel(basis=("aa", "ab", "ba", "bb"), overlaps=lambda n1, n2: np.full((len(n1), 4), vs))
    f = fidelity.min_fidelity(chan)
    # minimize w*o + ... analytically over the two-level reduction
    ws = np.linspace(0, 1, 20001)
    ref = np.min((1 - ws + ws * o) ** 2 + ws**2 * (1 - o**2))
    assert f == pytest.approx(float(ref), abs=1e-6)


def test_moving_channel_trivial_paths_are_ideal():
    slow = traps.sine_squared_path(0.05, 60.0, 1.0)
    chan = fidelity.moving_channel(slow, slow)
    assert fidelity.min_fidelity(chan) == pytest.approx(1.0, abs=1e-6)


def test_moving_channel_monotone_in_temperature():
    traj_a = traps.sine_squared_path(0.5, 8.0, 1.0)
    traj_b = traps.sine_squared_path(6.0, 8.0, 1.0)
    chan = fidelity.moving_channel(traj_a, traj_b)
    fs = []
    for kt in (0.0, 0.1, 0.2, 0.4):
        fs.append(fidelity.min_fidelity(chan, fidelity.thermal_state(kt)))
    assert all(fs[i + 1] <= fs[i] + 1e-12 for i in range(3))


def _fidelity_curve_g2s():
    """|g|^2 of atoms a and b at the fidelity-curve defaults, where g is the
    coherent amplitude left over from the transport."""
    cfg = cli.SCENARIOS["fidelity-curve"][1]
    g2s = []
    for key in ("amplitude_a", "amplitude_b"):
        traj = traps.sine_squared_path(cfg[key], cfg["tau"], 1.0)
        g = moving.evolve_coherent(traj, traj.tau).gamma - float(traj.x(traj.tau)) / np.sqrt(2)
        g2s.append(abs(g) ** 2)
    return g2s


def test_laguerre_recurrence_matches_scipy():
    # L_0 ... L_230 (the levels of kT = 10, the kt_list cap) at both |g|^2
    for x in _fidelity_curve_g2s():
        ref = eval_laguerre(np.arange(231), x)
        got = fidelity._laguerre(230, x)
        assert got.shape == (231,)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), x


def test_moving_channel_table_at_the_kt_cap(tmp_path):
    # every one of the 231^2 level pairs of kT = 10 against the scalar
    # amplitude e^{-g/2} L_n(g) of each atom, at the fidelity-curve defaults
    cfg = cli.SCENARIOS["fidelity-curve"][1]
    chan = fidelity.moving_channel(*(traps.sine_squared_path(cfg[k], cfg["tau"], 1.0) for k in ("amplitude_a", "amplitude_b")))
    p, n1, n2 = fidelity._levels(fidelity.thermal_state(10.0))
    assert len(p) == 231**2
    a, b = (np.exp(-g / 2) * eval_laguerre(np.arange(231), g) for g in _fidelity_curve_g2s())
    ref = np.stack([a[n1] * a[n2], a[n1] * b[n2], b[n1] * a[n2], b[n1] * b[n2]], axis=1)
    assert np.max(np.abs(chan.overlaps(n1, n2) - ref)) <= 1e-12
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("kt_list=10\n")
    assert cli.main(["fidelity-curve", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "fidelity_curve.csv").read_text().splitlines()
    assert rows[1].split(",")[0] == "10"
    assert float(rows[1].split(",")[1]) == pytest.approx(0.25089116036722214, abs=1e-12)


def test_switching_channel_reference_point(ref_cfg, bb_series):
    chan = fidelity.switching_channel(ref_cfg, bb_series, bb_series.tau)
    vs = dict(zip(chan.basis, chan.overlaps(np.zeros(1, int), np.zeros(1, int))[0]))
    assert set(vs) == {"aa", "ab", "bb"}
    # frame calibration makes the one-particle channels pure-amplitude
    assert np.angle(vs["aa"]) == pytest.approx(0.0, abs=1e-9)
    assert abs(np.angle(vs["ab"])) < 1e-6
    assert abs(vs["bb"]) == pytest.approx(np.sqrt(bb_series.revival) * abs(switching.cm_overlap_complex(2.0, 1.0, bb_series.tau)), abs=5e-3)
    f = fidelity.min_fidelity(chan)
    assert f > 0.98


def test_timing_sensitivity_shape(ref_cfg, bb_series):
    def factory(tau):
        return fidelity.switching_channel(ref_cfg, bb_series, tau)

    curve = fidelity.timing_sensitivity(factory, bb_series.tau, delta=2e-3, n_side=6)
    assert len(curve.offsets) == 13
    imax = int(np.argmax(curve.fidelity))
    assert np.isfinite(curve.half_width)
    # the fidelity peaks 5.6e-3 after tau in the exact-in-time series (and
    # at the +6e-3 sample in the split-step at 16,000 steps per period), an
    # interior sample of the scan
    assert 0 < imax < len(curve.offsets) - 1
    assert abs(curve.offsets[imax]) <= 6e-3


@st.composite
def random_channels(draw):
    """A two-mode channel with 2-4 basis pairs and random overlaps |v_s| <= 1
    per level pair, and a motional state on 1-6 levels with random
    probabilities."""
    dim = draw(st.integers(2, 4))
    n_levels = draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_levels, max_size=n_levels)))
    size = n_levels * n_levels * dim
    mods = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    phases = draw(st.lists(st.floats(-np.pi, np.pi), min_size=size, max_size=size))
    v = (np.array(mods) * np.exp(1j * np.array(phases))).reshape(n_levels, n_levels, dim)
    basis = ("aa", "ab", "ba", "bb")[:dim]
    chan = fidelity.GateChannel(basis=basis, overlaps=lambda n1, n2: v[n1, n2])
    rho = fidelity.ThermalMotionalState(p=weights / weights.sum())
    return chan, rho


def _fidelity_level_by_level(chan, rho, c):
    w = np.array([abs(c[s]) ** 2 for s in chan.basis])
    f = 0.0
    for i, pi in enumerate(rho.p):
        for j, pj in enumerate(rho.p):
            vs = chan.overlaps(np.array([i]), np.array([j]))[0]
            f += pi * pj * (abs(np.dot(w, vs)) ** 2 + np.dot(w**2, 1.0 - np.abs(vs) ** 2))
    return float(f)


@given(random_channels())
@settings(max_examples=25, deadline=None)
def test_exact_min_fidelity_matches_multistart_oracle(chan_rho):
    chan, rho = chan_rho
    f = fidelity.min_fidelity(chan, rho)
    _, w = fidelity._simplex_qp_min(fidelity._fidelity_matrix(chan, rho))
    c = dict(zip(chan.basis, np.sqrt(w)))
    oracle = fidelity._min_fidelity_multistart(chan, rho)
    assert abs(f - oracle) <= 1e-9
    assert f <= oracle + 1e-12
    assert sum(abs(a) ** 2 for a in c.values()) == pytest.approx(1.0, abs=1e-12)
    assert _fidelity_level_by_level(chan, rho, c) == pytest.approx(f, abs=1e-12)


def _simplex_qp_min_loop(Q):
    """Reference for ``fidelity._simplex_qp_min``: the KKT system of each
    face in mask order, solved by ``lstsq`` one at a time; a strict < keeps
    the first minimizing face."""
    dim = len(Q)
    best_f, best_w = np.inf, None
    for mask in range(1, 2**dim):
        S = [i for i in range(dim) if mask >> i & 1]
        k = len(S)
        K = np.ones((k + 1, k + 1))
        K[:k, :k] = Q[np.ix_(S, S)]
        K[k, k] = 0.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        ws = np.linalg.lstsq(K, rhs, rcond=None)[0][:k]
        if ws.min() < -1e-12:
            continue
        ws = np.clip(ws, 0.0, None)
        w = np.zeros(dim)
        w[S] = ws / ws.sum()
        f = float(w @ Q @ w)
        if f < best_f:
            best_f, best_w = f, w
    return best_f, best_w


def _psd(draw, dim):
    """A symmetric PSD dim x dim matrix: a Gram matrix A A^T of rank 0 .. dim,
    or a multiple of the all-ones matrix."""
    if draw(st.booleans()):
        return draw(st.floats(0.0, 2.0)) * np.ones((dim, dim))
    rank = draw(st.integers(0, dim))
    A = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=dim * rank, max_size=dim * rank))).reshape(dim, rank)
    return A @ A.T


@st.composite
def psd_matrices(draw):
    return _psd(draw, draw(st.integers(1, 4)))


@st.composite
def psd_stacks(draw):
    dim = draw(st.integers(1, 4))
    return np.array([_psd(draw, dim) for _ in range(draw(st.integers(1, 5)))])


@given(psd_matrices())
@settings(max_examples=200, deadline=None)
def test_simplex_qp_min_matches_the_face_loop(Q):
    f, w = fidelity._simplex_qp_min(Q)
    f_ref, _ = _simplex_qp_min_loop(Q)
    tol = 1e-12 * max(1.0, abs(f_ref))
    assert isinstance(f, float)
    assert abs(f - f_ref) <= tol
    assert w.shape == (len(Q),) and w.min() >= 0.0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert abs(w @ Q @ w - f_ref) <= tol


@given(psd_stacks())
@settings(max_examples=50, deadline=None)
def test_simplex_qp_min_of_a_stack_is_its_members(Qs):
    f, w = fidelity._simplex_qp_min(Qs)
    assert f.shape == (len(Qs),) and w.shape == Qs.shape[:2]
    for i, Q in enumerate(Qs):
        f_i, w_i = fidelity._simplex_qp_min(Q)
        assert f[i] == f_i
        assert np.array_equal(w[i], w_i)
    # a leading axis of its own is one more stack level
    f2, w2 = fidelity._simplex_qp_min(Qs[None])
    assert np.array_equal(f2[0], f) and np.array_equal(w2[0], w)


def _scan_offsets(bb_series):
    return bb_series.tau + np.arange(-24, 25) * 1e-3


def test_switching_channel_over_an_array_is_the_stacked_channels(ref_cfg, bb_series):
    taus = _scan_offsets(bb_series)
    z = np.zeros(2, int)
    table = fidelity.switching_channel(ref_cfg, bb_series, taus).overlaps(z, z)
    ref = np.stack([fidelity.switching_channel(ref_cfg, bb_series, t).overlaps(z, z) for t in taus])
    assert table.shape == ref.shape == (len(taus), 2, 3)
    # the aa and ab columns are elementwise closed forms; the bb column sums
    # the 32 levels of the spectrum, in a matrix product whose rounding can
    # follow the number of rows
    assert np.array_equal(table[..., :2], ref[..., :2])
    assert np.max(np.abs(table - ref)) <= 32 * np.finfo(float).eps
    one = fidelity.switching_channel(ref_cfg, bb_series, taus[:1]).overlaps(z, z)
    assert one.shape == (1, 2, 3)


def test_timing_sensitivity_is_the_scalar_scan(ref_cfg, bb_series):
    calls = []

    def factory(tau):
        calls.append(np.shape(tau))
        return fidelity.switching_channel(ref_cfg, bb_series, tau)

    curve = fidelity.timing_sensitivity(factory, bb_series.tau, delta=1e-3, n_side=24)
    assert calls == [(49,)]
    ref = [fidelity.min_fidelity(fidelity.switching_channel(ref_cfg, bb_series, t)) for t in _scan_offsets(bb_series)]
    assert np.max(np.abs(curve.fidelity - ref)) <= 1e-14
