"""Scenario runner: reproduces the suite's reference figures and tables as
CSV/JSON artifacts and runs the acceptance gate.

Every scenario writes its fully resolved configuration next to its outputs,
so a run is reproducible from the artifact directory alone.  Same config
and seed give bit-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import traceback

import numpy as np

from . import fidelity, mott, moving, qc, switching, traps
from .errors import (
    ColdgateError,
    ConvergenceFailure,
    NoMinimum,
    NormLoss,
    NotConverged,
    PerturbationInvalid,
    QuadratureFailure,
    ValidationError,
)

_NONCONVERGENCE = (
    ConvergenceFailure,
    NotConverged,
    NormLoss,
    QuadratureFailure,
    NoMinimum,
)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_config_file(path: str) -> dict:
    """Flat key=value text (# comments) or a JSON object, in UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read config {path!r}: {e}") from e
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"config {path!r}: bad JSON: {e}") from e
        if not isinstance(obj, dict):
            raise ValidationError("JSON config must be an object")
        return obj
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {ln}: expected key=value")
        key, val = (p.strip() for p in line.split("=", 1))
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


def _resolve(defaults: dict, bounds: dict, overrides: dict) -> dict:
    """The defaults with the overrides applied, and the only check of scenario
    input: each key is known, has its default's type (an int widens to a float,
    a bool is refused for an int), is finite if a float, and lies in its bounds
    (lo, hi) if it has any, where None leaves that side to the library call.
    A bounds entry keyed by a tuple of keys bounds the product of their values."""
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    cfg = dict(defaults)
    for k, v in overrides.items():
        d = defaults[k]
        if isinstance(v, bool) and not isinstance(d, bool):
            raise ValidationError(f"config key {k!r}: expected {type(d).__name__}, got a bool")
        if isinstance(d, float) and isinstance(v, (int, float)):
            v = float(v)
        elif isinstance(d, str) and isinstance(v, (int, float)):
            v = str(v)  # a lone number in a key=value line decodes as JSON
        elif not isinstance(v, type(d)):
            raise ValidationError(f"config key {k!r}: expected {type(d).__name__}")
        if isinstance(v, float) and not math.isfinite(v):
            raise ValidationError(f"config key {k!r}: expected a finite number, got {v}")
        cfg[k] = v
    for key, (lo, hi) in bounds.items():
        keys = key if isinstance(key, tuple) else (key,)
        v = math.prod(cfg[k] for k in keys)
        if (lo is not None and v < lo) or (hi is not None and v > hi):
            name = " * ".join(keys)
            span = " <= ".join(str(b) for b in (lo, name, hi) if b is not None)
            raise ValidationError(f"config key {name!r}: expected {span}, got {v}")
    return cfg


# -- shared helpers --------------------------------------------------------


def _transport_grid_states(trajs, N: int = 128, L: float = 36.0, dt: float = 0.25):
    """Grid x and the split-step states at t = tau of the transport oracle,
    one row per trajectory in the order given.

    Each trajectory takes ceil(2 tau/dt) equal steps h from the trap ground
    state at x(-tau) in its moving well V = (x - xbar(t))^2/2.  A step is
    Suzuki's fourth-order composition of five midpoint Strang substeps of
    lengths p h, p h, (1 - 4p) h, p h, p h, with xbar at the midpoint of
    each substep.  The rows run as one stack, longest run first; the kernel
    advances the prefix of rows that are still running, one call per
    distinct end step, so each fixed cost of a substep is paid once for the
    whole stack.  Each row's well centres are evaluated once, at the
    midpoints of all substeps of the longest run.
    """
    dx = L / N
    x = (np.arange(N) - N // 2) * dx
    taus = np.array([float(traj.tau) for traj in trajs])
    n_steps = np.ceil(2 * taus / dt).astype(int)
    order = np.argsort(-n_steps, kind="stable")
    taus, n_steps = taus[order], n_steps[order]
    paths = [trajs[i].x for i in order]
    dts = (2 * taus / n_steps)[:, None]
    stages = switching._SUZUKI[:, None, None] * dts
    m = len(switching._SUZUKI)
    starts = np.array([float(np.asarray(path(-tau))) for path, tau in zip(paths, taus)])
    psi = np.pi ** (-0.25) * np.exp(-0.5 * (x - starts[:, None]) ** 2)
    psi = psi.astype(complex) / np.sqrt(np.sum(np.abs(psi) ** 2, axis=1, keepdims=True) * dx)
    j = np.arange(m * n_steps.max(initial=0))
    t = -taus[:, None] + (j // m + switching._SUZUKI_MIDPOINTS[j % m]) * dts
    centres = np.reshape([path(row) for path, row in zip(paths, t)], t.shape + (1,))
    quarter = 0.25 * stages

    done = 0
    for k in range(len(paths), 0, -1):
        end = n_steps[k - 1]
        if end == done:
            continue

        # V_j = (x - a_j)^2/2, so the half kick of substep j is exp(-i h_j (x - a_j)^2/4)
        def kick(j, k=k, base=m * done):
            return np.exp(-1j * (quarter[j % m, :k] * (x - centres[:k, base + j]) ** 2))

        switching._split_step(psi[:k], kick, stages[:, :k], dx, m * (end - done))
        done = end
    out = np.empty_like(psi)
    out[order] = psi
    return x, out


def transport_grid_overlaps(trajs, N: int = 128, L: float = 36.0, dt: float = 0.25) -> list[float]:
    """Independent split-step oracle for the transported-trap solver.

    Propagates the trap ground state of each trajectory on the grid (see
    ``_transport_grid_states``, which runs them all as one stack) and
    returns, in the order given, |<psi_model|psi_grid>|^2 at t = tau against
    the closed-form reconstruction of ``moving.evolve_coherent``.  The step
    is fourth order, so the defaults (128 points, dt = 0.25) keep the
    oracle's own error near 7e-10 on ``benchmark_trajectories``, over
    1,000 times below the 1e-6 bound of the acceptance check.
    """
    x, psi = _transport_grid_states(trajs, N, L, dt)
    dx = L / N
    overlaps = []
    for traj, row in zip(trajs, psi):
        ref = moving.evolve_coherent(traj, traj.tau).position_wavefunction(x)
        ref = ref / np.sqrt(np.sum(np.abs(ref) ** 2) * dx)
        overlaps.append(float(np.abs(np.vdot(ref, row) * dx) ** 2))
    return overlaps


def transport_grid_overlap(traj, N: int = 128, L: float = 36.0, dt: float = 0.25) -> float:
    """``transport_grid_overlaps`` for one trajectory."""
    return transport_grid_overlaps([traj], N, L, dt)[0]


def benchmark_trajectories():
    """Five transport paths spanning one-way, round-trip, fast and slow."""
    return [
        traps.sine_squared_path(4.0, 30.0, 0.5),
        traps.sine_squared_path(8.0, 40.0, 1.0),
        traps.sine_squared_path(2.0, 12.0, 0.5),
        traps.sine_squared_path(6.0, 25.0, 2.0),
        # width chosen so the excursion is negligible at +-tau: the solver
        # assumes the trap starts and ends at rest
        traps.gaussian_bump_path(5.0, 20.0, 3.2),
    ]


def _expected_syndrome_rows():
    """Frozen reference syndrome table (27 single-Pauli errors)."""
    text = """\
sx,1 110 00 000 a0-b1
sx,2 101 00 000 a0-b1
sx,3 011 00 000 a0-b1
sx,4 010 10 010 a0+b1
sx,5 000 11 000 a0-b1
sx,6 010 01 010 a0+b1
sx,7 000 00 110 a0-b1
sx,8 000 00 101 a0-b1
sx,9 000 00 011 a0-b1
sy,1 100 00 000 a0-b1
sy,2 111 00 000 a0-b1
sy,3 001 00 000 a0-b1
sy,4 000 01 000 a1-b0
sy,5 010 00 010 a1-b0
sy,6 000 10 000 a1-b0
sy,7 000 00 100 a0-b1
sy,8 000 00 111 a0-b1
sy,9 000 00 001 a0-b1
sz,1 010 00 000 a0+b1
sz,2 010 00 000 a0+b1
sz,3 010 00 000 a0+b1
sz,4 010 11 010 a1-b0
sz,5 010 11 010 a1+b0
sz,6 010 11 010 a1-b0
sz,7 000 00 010 a0+b1
sz,8 000 00 010 a0+b1
sz,9 000 00 010 a0+b1"""
    rows = []
    for line in text.splitlines():
        err, s1, s2, s3, res = line.split(" ")
        rows.append((err, f"{s1} {s2} {s3}", res))
    return rows


def _expected_lattice_codewords():
    """Frozen reference codewords of the lattice encoding, as GHZ-type row
    products: |0_L> rows (000-111)(001-110)(000+111), |1_L> rows
    (000+111)(100+011)(000-111), each over sqrt(8)."""

    def row(i, j, sign):
        v = np.zeros(8)
        v[i], v[j] = 1.0, sign
        return v

    zero = np.kron(np.kron(row(0, 7, -1), row(1, 6, -1)), row(0, 7, +1)) / np.sqrt(8)
    one = np.kron(np.kron(row(0, 7, +1), row(4, 3, +1)), row(0, 7, -1)) / np.sqrt(8)
    return zero.astype(complex), one.astype(complex)


_RAMSEY_PAIR_AT_PI = np.array([0.5, 0.5, -0.5, 0.5], dtype=complex)
_RAMSEY_TRIPLET_AT_PI = np.array([0, 0.5, 0, 0.5, -0.5, 0, 0.5, 0], dtype=complex)


def _bit_reversed_dft_column(a_bits):
    """DFT image of basis state a, reordered to the sweep's qubit order."""
    m = len(a_bits)
    a = int("".join(str(b) for b in a_bits), 2)
    col = np.exp(2j * np.pi * a * np.arange(2**m) / 2**m) / np.sqrt(2**m)
    # entry i moves to the index with i's m bits reversed
    return col.reshape((2,) * m).transpose(range(m - 1, -1, -1)).ravel()


# -- constructions shared by a scenario and the criterion that re-checks it --


def _mott_state(cfg):
    """The ``mott`` scenario's lattice and its Gutzwiller state, for a
    config with that scenario's keys."""
    lat = mott.BoseHubbardLattice.with_superlattice(
        cfg["lx"], cfg["ly"], J=cfg["j"], U=cfg["u"], mu=cfg["mu"],
        amplitude=cfg["amplitude"], period=cfg["period"], boundary=cfg["boundary"],
    )
    return lat, mott.gutzwiller_minimize(lat, n_max=cfg["n_max"])


def _parse_kt_list(text: str) -> list[float]:
    """Comma-separated temperatures kT/(hbar omega), each in [0, 10]: the
    level count grows about linearly with kT and the fidelity QP about as
    its cube, so kT = 10 (230 levels) takes about 1.6 s."""
    try:
        kts = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"kt_list: expected comma-separated numbers, got {text!r}") from None
    if not all(0 <= kt <= 10 for kt in kts):
        raise ValidationError(f"kt_list: every kT must lie in [0, 10], got {text!r}")
    return kts


def _min_fidelity_curve(cfg):
    """The temperatures of a ``fidelity-curve`` config and the moving gate's
    min_fidelity at each (the motional ground state at kT = 0)."""
    kts = _parse_kt_list(cfg["kt_list"])
    paths = (traps.sine_squared_path(cfg[key], cfg["tau"], 1.0) for key in ("amplitude_a", "amplitude_b"))
    chan = fidelity.moving_channel(*paths)
    return kts, [fidelity.min_fidelity(chan, fidelity.thermal_state(kt) if kt > 0 else None) for kt in kts]


def _ramsey_state(n_atoms: int, phi: float):
    """State after the Ramsey sequence at collisional phase phi on a row of
    n_atoms atoms that start in |0>."""
    return qc.ramsey_sequence(qc.LatticeRegister.basis((1, n_atoms), [0] * n_atoms), phi).state


def _ghz_fidelity(n: int) -> float:
    """Fidelity of ``qc.ghz_from_sweep(n)`` with the (n+1)-party GHZ state."""
    state = qc.ghz_from_sweep(n)
    ref = np.zeros(2 ** (n + 1), dtype=complex)
    ref[0] = ref[-1] = 1 / np.sqrt(2)
    return float(abs(np.vdot(ref, state)) ** 2)


def _qft_deviations(m: int):
    """Each m-bit input, and the max |deviation| of its sweep QFT from the
    DFT column."""
    inputs = [[int(b) for b in format(a, f"0{m}b")] for a in range(2**m)]
    return inputs, [float(np.max(np.abs(qc.sweep_qft(bits)[0] - _bit_reversed_dft_column(bits)))) for bits in inputs]


def _ftcnot_overlaps(exact_sign: bool):
    """(c, t, <c, t^c| ft_cnot |c, t>) between two Shor blocks, for the four
    logical inputs."""
    cw = qc.shor_codewords_standard()
    rows = []
    for c, t in ((0, 0), (0, 1), (1, 0), (1, 1)):
        out = qc.ft_cnot(qc.two_block_register(cw[c], cw[t]), exact_sign=exact_sign)
        # <c|<t^c|out> as cw[c]^H . out (control x target) . conj(cw[t^c])
        rows.append((c, t, cw[c].conj() @ out.state.reshape(512, 512) @ cw[t ^ c].conj()))
    return rows


def _armada_block():
    """The encoded block of the armada check, alpha|0_S> + beta|1_S>, as a
    vector and as a 3x3 register."""
    s0, s1 = qc.shor_codewords_standard()
    alpha, beta = 1 / np.sqrt(3), np.sqrt(2 / 3) * np.exp(0.4j)
    enc = alpha * s0 + beta * s1
    return enc, qc.LatticeRegister((3, 3), tuple(range(9)), (2,) * 9, enc)


# -- acceptance gate -------------------------------------------------------


class AcceptContext:
    """Caches the heavy propagations shared by several criteria."""

    def __init__(self, seed: int = 0, tamper_lx_phase: float = 0.0, tamper_g_scale: float = 1.0):
        self.seed = int(seed)
        self.lx_phase = np.pi + float(tamper_lx_phase)
        self.g_scale = float(tamper_g_scale)

    @functools.cached_property
    def cfg(self) -> traps.SwitchingConfig:
        base = traps.SwitchingConfig.rb87_microtrap()
        if self.g_scale != 1.0:
            base = dataclasses.replace(base, a_s_bb=base.a_s_bb * self.g_scale)
        return base

    @functools.cached_property
    def bb_series(self) -> switching.SwitchTimeSeries:
        return switching.propagate(self.cfg, ("b", "b"))


def _c_switching_phase(ctx: AcceptContext):
    ser = ctx.bb_series
    pert = switching.phase_per_period_perturbative(ctx.cfg)
    rel = abs(pert.quadrature - pert.closed_form) / pert.closed_form
    ok = abs(ser.phase_final - np.pi) <= 0.05 * np.pi and rel <= 0.01
    return ok, {
        "phase_final_over_pi": ser.phase_final / np.pi,
        "perturbative_closed_7T_over_pi": 7 * pert.closed_form / np.pi,
        "perturbative_quadrature_7T_over_pi": 7 * pert.quadrature / np.pi,
        "perturbative_rel_diff": rel,
    }


def _c_switching_revival(ctx: AcceptContext):
    ser = ctx.bb_series
    ratio = ser.deltaT / ser.period
    ok = ser.revival >= 0.99 and 1e-3 <= ratio <= 4e-3
    return ok, {"revival": ser.revival, "deltaT_over_T": ratio}


def _c_cm_analytic(ctx: AcceptContext):
    nu0 = ctx.cfg.omega0 / ctx.cfg.omega
    steps = 100
    t, amps = switching._release_amplitudes(nu0, 0.0, 1024, 24.0, steps)
    sel = np.linspace(0, steps, 100).astype(int)
    grid_sq = np.abs(amps[sel]) ** 2
    ana = switching.cm_overlap_analytic(nu0, 1.0, t[sel])
    dev = float(np.max(np.abs(grid_sq - ana)))
    mid = float(switching.cm_overlap_analytic(nu0, 1.0, np.pi / 2))
    ok = dev <= 1e-6 and abs(mid - 0.8) <= 1e-9
    return ok, {"max_grid_vs_analytic": dev, "value_at_quarter_period": mid}


def _c_switching_fidelity(ctx: AcceptContext):
    cfg, bb = ctx.cfg, ctx.bb_series
    chan = fidelity.switching_channel(cfg, bb, bb.tau)
    F = fidelity.min_fidelity(chan)

    def factory(tau):
        return fidelity.switching_channel(cfg, bb, tau)

    curve = fidelity.timing_sensitivity(factory, bb.tau, delta=1e-3, n_side=24)
    hw = curve.half_width / bb.period
    ok = F > 0.98 and 1e-3 / 3 <= hw <= 3e-3
    return ok, {"min_fidelity": F, "timing_half_width_over_T": hw}


def _c_transport_solver(ctx: AcceptContext):
    overlaps = transport_grid_overlaps(benchmark_trajectories())
    traj = traps.sine_squared_path(6.0, 9.0, 1.0)
    r, pop_exc = moving.adiabaticity_residual(traj)
    ev = moving.evolve_coherent(traj, traj.tau)
    alpha = float(np.asarray(traj.x(traj.tau))) / np.sqrt(2)
    ground = abs(ev.overlap_with_coherent(alpha)) ** 2
    adia_dev = abs((1.0 - ground) - pop_exc)
    ok = min(overlaps) >= 1 - 1e-6 and adia_dev <= 1e-8
    return ok, {"min_overlap": min(overlaps), "overlaps": overlaps, "adiabaticity_dev": adia_dev, "r": r}


def _c_perturbative_oracle(ctx: AcceptContext):
    a_s = 1e-2
    same = moving.interaction_shift(0.0, a_s, same_state=True)
    distinct = moving.interaction_shift(0.0, a_s, same_state=False)
    analytic = np.sqrt(2 / np.pi) * a_s
    d1 = abs(same - analytic)
    d2 = abs(same - distinct)
    ok = d1 <= 1e-10 and d2 <= 1e-12
    return ok, {"shift": same, "analytic": analytic, "analytic_dev": d1, "symmetrized_vs_distinct_dev": d2}


def _c_mott_loading(ctx: AcceptContext):
    defaults = SCENARIOS["mott"][1]
    _, st = _mott_state(defaults)
    rho = st.density
    dev_01 = float(np.max(np.minimum(np.abs(rho), np.abs(rho - 1.0))))
    var = float(np.max(st.number_variance))
    lat0, st0 = _mott_state(dict(defaults, j=0.0))
    n_star = np.argmax(mott._atomic_limit_f(lat0, st0.n_max), axis=-1)
    atomic_dev = float(np.max(np.abs(st0.density - n_star)))
    ok = dev_01 <= 1e-3 and var <= 1e-3 and atomic_dev <= 1e-10
    return ok, {
        "max_density_dev_from_01": dev_01,
        "max_number_variance": var,
        "filled_sites": int(np.sum(rho > 0.5)),
        "atomic_limit_dev": atomic_dev,
    }


def _c_syndrome_table(ctx: AcceptContext):
    alpha, beta = 0.6, 0.8j
    rows = qc.syndrome_table(alpha, beta, lx_phase=ctx.lx_phase)
    mismatches = [(g, e) for g, e in zip(rows, _expected_syndrome_rows()) if g != e]
    z0, o0 = (qc.normalized_global_phase(v) for v in qc.logical_codewords())
    ze, oe = _expected_lattice_codewords()
    cw_dev = max(float(np.max(np.abs(z0 - qc.normalized_global_phase(ze)))), float(np.max(np.abs(o0 - qc.normalized_global_phase(oe)))))
    ok = not mismatches and cw_dev <= 1e-10
    return ok, {"mismatched_rows": len(mismatches), "codeword_dev": cw_dev}


def _c_ramsey(ctx: AcceptContext):
    d_pair = float(np.max(np.abs(qc.normalized_global_phase(_ramsey_state(2, np.pi)) - _RAMSEY_PAIR_AT_PI)))
    d_trip = float(np.max(np.abs(qc.normalized_global_phase(_ramsey_state(3, np.pi)) - _RAMSEY_TRIPLET_AT_PI)))
    bright = 1.0 - abs(_ramsey_state(2, 2 * np.pi)[0]) ** 2
    etas = [0.05, 0.08, 0.12, 0.18]
    censuses = [qc.random_fill((1000, 1000), e, seed=ctx.seed + 17 + i)[1] for i, e in enumerate(etas)]
    slopes = {size: qc.cluster_scaling_exponent(etas, [c.get(size, 0) for c in censuses], 10**6) for size in (2, 3)}
    slope_ok = all(abs(s - size) / size <= 0.05 for size, s in slopes.items())
    ok = d_pair <= 1e-12 and d_trip <= 1e-12 and bright < 1e-12 and slope_ok
    return ok, {
        "pair_dev": d_pair,
        "triplet_dev": d_trip,
        "bright_prob_2pi": bright,
        "cluster_slopes": {str(k): v for k, v in slopes.items()},
    }


def _c_sweep_constructions(ctx: AcceptContext):
    ghz_fid = _ghz_fidelity(4)
    qft_dev = max(max(_qft_deviations(m)[1]) for m in range(1, 5))
    cnot_dev = max(abs(ov - 1.0) for _, _, ov in _ftcnot_overlaps(exact_sign=True))

    enc, reg9 = _armada_block()
    p_clean, post_clean = qc.armada_parity_check(enc, "spin-flip", seed=ctx.seed + 3)
    undisturbed = abs(np.vdot(enc, post_clean)) ** 2
    err = qc.apply_pauli_error(reg9, "x", 1)
    p_err, _ = qc.armada_parity_check(err.state, "spin-flip", seed=ctx.seed + 4)

    ok = (
        abs(ghz_fid - 1.0) <= 1e-12
        and qft_dev <= 1e-10
        and cnot_dev <= 1e-10
        and p_clean == (0, 0, 0)
        and undisturbed >= 1 - 1e-10
        and p_err == (1, 0, 0)
    )
    return ok, {
        "ghz4_fidelity": ghz_fid,
        "qft_max_dev": qft_dev,
        "ftcnot_max_dev": cnot_dev,
        "armada_clean_parities": list(p_clean),
        "armada_clean_fidelity": undisturbed,
        "armada_sx1_parities": list(p_err),
    }


def _c_fidelity_properties(ctx: AcceptContext):
    f_ideal = fidelity.min_fidelity(fidelity.ideal_channel())
    kts, fs = _min_fidelity_curve(SCENARIOS["fidelity-curve"][1])
    mono = all(fs[i + 1] <= fs[i] + 1e-12 for i in range(len(fs) - 1))
    ok = abs(f_ideal - 1.0) <= 1e-9 and mono
    return ok, {"ideal_fidelity": f_ideal, "kT_over_hw": kts, "fidelities": fs, "monotone": mono}


CRITERIA = [
    ("switching-phase", _c_switching_phase),
    ("switching-revival", _c_switching_revival),
    ("cm-analytic", _c_cm_analytic),
    ("switching-fidelity", _c_switching_fidelity),
    ("transport-solver", _c_transport_solver),
    ("perturbative-oracle", _c_perturbative_oracle),
    ("mott-loading", _c_mott_loading),
    ("syndrome-table", _c_syndrome_table),
    ("ramsey", _c_ramsey),
    ("sweep-constructions", _c_sweep_constructions),
    ("fidelity-properties", _c_fidelity_properties),
]


def run_accept(ctx: AcceptContext, only=None):
    """Evaluate the acceptance criteria; returns a list of result dicts."""
    names = [n for n, _ in CRITERIA]
    if only:
        bad = sorted(set(only) - set(names))
        if bad:
            raise ValidationError(f"unknown criteria: {', '.join(bad)}")
    results = []
    for name, fn in CRITERIA:
        if only and name not in only:
            continue
        try:
            passed, details = fn(ctx)
        except ColdgateError as e:
            passed, details = False, {"error": f"{type(e).__name__}: {e}"}
        results.append({"criterion": name, "passed": bool(passed), "details": details})
    return results


# -- scenarios -------------------------------------------------------------


def _scn_gate_moving(cfg, outdir, seed):
    traj = traps.sine_squared_path(cfg["amplitude"], cfg["tau"], cfg["cycles"])
    ts = np.linspace(-traj.tau, traj.tau, cfg["n_samples"])
    rows = [(t, float(np.asarray(traj.x(t))), float(np.asarray(traj.velocity(t)))) for t in ts]
    _write_csv(os.path.join(outdir, "trajectory.csv"), ["t", "x", "v"], rows)
    # first: a path whose xdot^2 overflows is out of range (exit 2), not unresolved (exit 3)
    quadrature = moving.kinetic_phase(traj, exact=False)
    r, pop = moving.adiabaticity_residual(traj)
    summary = {
        "kinetic_phase_exact": moving.kinetic_phase(traj, exact=True),
        "kinetic_phase_quadrature": quadrature,
        "adiabaticity_r": r,
        "excited_population": pop,
    }
    sep0 = cfg["separation"]
    bump = 0.5 * (sep0 - cfg["min_distance"])
    t1 = traps.sine_squared_path(bump, cfg["tau"], 1.0)
    t2 = traps.sine_squared_path(-bump, cfg["tau"], 1.0)
    shifted1 = traps.Trajectory(tau=t1.tau, x=lambda t: -sep0 / 2 + t1.x(t), dx=t1.dx, d2x=t1.d2x)
    shifted2 = traps.Trajectory(tau=t2.tau, x=lambda t: sep0 / 2 + t2.x(t), dx=t2.dx, d2x=t2.d2x)
    summary["collisional_phase_ab"] = moving.collisional_phase_perturbative(shifted1, shifted2, cfg["a_s"])
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return 0


def _scn_gate_switching(cfg, outdir, seed):
    sc = traps.SwitchingConfig.rb87_microtrap()
    ser = switching.propagate(
        sc,
        ("b", "b"),
        n_periods=cfg["n_periods"],
        N=cfg["grid_n"],
        L=cfg["grid_l"],
        steps_per_period=cfg["steps_per_period"],
        sigma_reg=cfg["sigma_reg"],
    )
    stride = -(-len(ser.t) // cfg["max_csv_rows"])  # ceiling: at most max_csv_rows rows
    rows = [
        (ser.t[i], ser.phase[i], ser.overlap_init[i], ser.overlap_ref[i])
        for i in range(0, len(ser.t), stride)
    ]
    _write_csv(os.path.join(outdir, "switching_timeseries.csv"), ["t", "phase", "overlap_init", "overlap_ref"], rows)
    pert = switching.phase_per_period_perturbative(sc)
    _write_json(
        os.path.join(outdir, "summary.json"),
        {
            "phase_final_over_pi": ser.phase_final / np.pi,
            "revival": ser.revival,
            "deltaT_over_T": ser.deltaT / ser.period,
            "tau": ser.tau,
            "perturbative_closed_per_T": pert.closed_form,
            "perturbative_quadrature_per_T": pert.quadrature,
            "basis_size": ser.basis_size,
            "solver_iterations": ser.solver_iterations,
            "tail_weight": ser.tail_weight,
            "precheck_delta": ser.precheck_delta,
        },
    )
    return 0


def _scn_mott(cfg, outdir, seed):
    lat, st = _mott_state(cfg)
    labels = mott.phase_classify(st)
    rho, var, phi = st.density, st.number_variance, np.abs(st.order_parameter)
    rows = [
        (i, j, rho[i, j], var[i, j], phi[i, j], labels[i, j])
        for i in range(lat.Lx)
        for j in range(lat.Ly)
    ]
    _write_csv(os.path.join(outdir, "density.csv"), ["i", "j", "density", "variance", "order_parameter", "label"], rows)
    _write_json(
        os.path.join(outdir, "summary.json"),
        {
            "energy": st.energy(),
            "total_particles": st.total_particles,
            "filled_sites": int(np.sum(rho > 0.5)),
            "sweeps": st.sweeps,
        },
    )
    return 0


def _scn_fidelity_curve(cfg, outdir, seed):
    kts, fs = _min_fidelity_curve(cfg)
    _write_csv(os.path.join(outdir, "fidelity_curve.csv"), ["kT_over_hbar_omega", "min_fidelity"], list(zip(kts, fs)))
    return 0


def _scn_qc_ramsey(cfg, outdir, seed):
    """Pair populations at n_phi phases from 0 to 2 pi; 2 <= n_phi <= 10000
    (4 to 5 s at the cap, as the other caps are timed in ``SCENARIOS``)."""
    rows = [(phi, *np.abs(_ramsey_state(2, float(phi))) ** 2) for phi in np.linspace(0.0, 2 * np.pi, cfg["n_phi"])]
    _write_csv(os.path.join(outdir, "ramsey_pair.csv"), ["phi", "p00", "p01", "p10", "p11"], rows)
    _write_json(
        os.path.join(outdir, "summary.json"),
        {
            f"{name}_state_at_pi": [f"{a:.12g}" for a in np.real_if_close(qc.normalized_global_phase(_ramsey_state(n, np.pi)))]
            for name, n in (("pair", 2), ("triplet", 3))
        },
    )
    return 0


def _scn_qc_syndrome_table(cfg, outdir, seed):
    rows = qc.syndrome_table(cfg["alpha"], complex(cfg["beta_re"], cfg["beta_im"]))
    _write_csv(os.path.join(outdir, "syndrome_table.csv"), ["error", "syndrome", "residual"], rows)
    with open(os.path.join(outdir, "syndrome_table.txt"), "w") as fh:
        for err, syn, res in rows:
            fh.write(f"{err} {syn} {res}\n")
    return 0


def _scn_qc_ghz(cfg, outdir, seed):
    _write_json(os.path.join(outdir, "summary.json"), {"n_parties": cfg["n"] + 1, "fidelity": _ghz_fidelity(cfg["n"])})
    return 0


def _scn_qc_qft(cfg, outdir, seed):
    """Sweep QFT against the DFT for all 2^m inputs.  The work grows as 4^m,
    so 1 <= m <= 10 (1.4 to 1.8 s at the cap, as timed in ``SCENARIOS``)."""
    inputs, devs = _qft_deviations(cfg["m"])
    rows = [("".join(map(str, b)), d) for b, d in zip(inputs, devs)]
    _write_csv(os.path.join(outdir, "qft_deviation.csv"), ["input", "max_abs_dev"], rows)
    _write_json(os.path.join(outdir, "summary.json"), {"m": cfg["m"], "max_dev": max(devs)})
    return 0


def _scn_qc_ftcnot(cfg, outdir, seed):
    rows = [
        (variant, c, t, t ^ c, float(ov.real), float(ov.imag))
        for variant, exact in (("three-quarter", True), ("quarter", False))
        for c, t, ov in _ftcnot_overlaps(exact)
    ]
    _write_csv(
        os.path.join(outdir, "ftcnot_truth_table.csv"),
        ["variant", "control", "target_in", "target_out", "amp_re", "amp_im"],
        rows,
    )
    return 0


def _scn_qc_armada(cfg, outdir, seed):
    enc, reg9 = _armada_block()
    rows = []
    for kind, pauli, atoms in (("spin-flip", "x", (0, 1, 2, 4, 5, 7, 8)), ("phase-flip", "z", (0, 1, 2, 3, 4, 5, 6))):
        for atom in atoms:
            if atom == 0:
                state, label = enc, "none"
            else:
                state, label = qc.apply_pauli_error(reg9, pauli, atom).state, f"s{pauli},{atom}"
            parities, post = qc.armada_parity_check(state, kind, seed=seed + atom)
            fid = float(abs(np.vdot(state, post)) ** 2)
            rows.append((kind, label, "".join(str(p) for p in parities), fid))
    _write_csv(os.path.join(outdir, "armada.csv"), ["kind", "error", "parities", "state_fidelity"], rows)
    return 0


def _scn_accept(cfg, outdir, seed):
    only = [s for s in str(cfg["only"]).split(",") if s] if cfg["only"] else None
    if only == []:
        raise ValidationError(f"config key 'only': names no criterion, got {cfg['only']!r}")
    ctx = AcceptContext(seed=seed, tamper_lx_phase=cfg["tamper_lx_phase"], tamper_g_scale=cfg["tamper_g_scale"])
    results = run_accept(ctx, only=only)
    all_pass = all(r["passed"] for r in results)
    _write_json(os.path.join(outdir, "accept_report.json"), {"passed": all_pass, "criteria": results})
    lines = [f"[{'PASS' if r['passed'] else 'FAIL'}] {r['criterion']}\n" for r in results]
    with open(os.path.join(outdir, "accept_summary.txt"), "w") as fh:
        fh.write("".join(lines) + f"overall: {'PASS' if all_pass else 'FAIL'}\n")
    print("".join(lines), end="")
    return 0 if all_pass else 1


# name -> (function, defaults, bounds {key: (lo, hi)}), checked by _resolve;
# a tuple of keys bounds the product of their values.  A bound is set only
# where the library call would not refuse the value itself.  A cap on a size
# keeps its scenario to seconds: wall time of one process (1.3 s of imports
# included, 2-core Xeon) with the key at its cap and the other keys at their
# defaults is n_samples 2.4 s; n_periods 3.4 s, steps_per_period 3.9 s,
# grid_n 4.4 s, max_csv_rows 1.6 s; lx or ly 2.5 s, n_max 3.9 s.  A pair at
# their single caps ran 43 s (n_periods, steps_per_period) and 10 s (lx, ly);
# at the product caps (0.3 s of imports) 6.4-6.6 s and 3.7-8.2 s (lx=ly=64).
SCENARIOS = {
    "gate-moving": (
        _scn_gate_moving,
        {"amplitude": 6.0, "tau": 25.0, "cycles": 1.0, "n_samples": 501, "separation": 12.0, "min_distance": 0.5, "a_s": 0.01},
        {"n_samples": (1, 100_000)},
    ),
    "gate-switching": (
        _scn_gate_switching,
        {"n_periods": 7, "grid_n": 4096, "grid_l": 32.0, "steps_per_period": 4000, "sigma_reg": 0.0176, "max_csv_rows": 2800},
        {
            "n_periods": (None, 100),
            "grid_n": (None, 65_536),
            "steps_per_period": (None, 100_000),
            "max_csv_rows": (1, 100_000),
            ("n_periods", "steps_per_period"): (None, 1_000_000),
        },
    ),
    "mott": (
        _scn_mott,
        {"lx": 18, "ly": 18, "j": 1.0, "u": 30.0, "mu": 15.0, "amplitude": 40.0, "period": 9.0, "boundary": "periodic", "n_max": 6},
        {"lx": (None, 128), "ly": (None, 128), "n_max": (None, 32), ("lx", "ly"): (None, 4_096)},
    ),
    "fidelity-curve": (
        _scn_fidelity_curve,
        {"amplitude_a": 0.5, "amplitude_b": 6.0, "tau": 8.0, "kt_list": "0,0.1,0.2,0.4"},
        {},
    ),
    "qc-ramsey": (_scn_qc_ramsey, {"n_phi": 33}, {"n_phi": (2, 10_000)}),
    "qc-syndrome-table": (_scn_qc_syndrome_table, {"alpha": 0.6, "beta_re": 0.0, "beta_im": 0.8}, {}),
    "qc-ghz": (_scn_qc_ghz, {"n": 4}, {}),
    "qc-qft": (_scn_qc_qft, {"m": 3}, {"m": (1, 10)}),
    "qc-ftcnot": (_scn_qc_ftcnot, {}, {}),
    "qc-armada": (_scn_qc_armada, {}, {}),
    "accept": (_scn_accept, {"only": "", "tamper_lx_phase": 0.0, "tamper_g_scale": 1.0}, {}),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="coldgate", description="Cold-collision gate scenario runner")
    ap.add_argument("scenario", choices=sorted(SCENARIOS))
    ap.add_argument("--config", default=None, help="key=value or JSON config file")
    ap.add_argument("--out", default=".", help="output directory (COLDGATE_OUT overrides)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    outdir = os.environ.get("COLDGATE_OUT", args.out)
    try:
        fn, defaults, bounds = SCENARIOS[args.scenario]
        overrides = parse_config_file(args.config) if args.config else {}
        cfg = _resolve(defaults, bounds, overrides)
        os.makedirs(outdir, exist_ok=True)
        _write_json(os.path.join(outdir, "resolved_config.json"), dict(cfg, scenario=args.scenario, seed=args.seed))
        return fn(cfg, outdir, args.seed)
    except (ValidationError, PerturbationInvalid, OverflowError) as e:
        # an interaction too strong for the perturbative model, or a path
        # whose float arithmetic overflows, is input outside the model's
        # range, not a failed gate
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except _NONCONVERGENCE as e:
        print(f"non-convergence: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except Exception:
        # a fault of the program, kept apart from a failed gate (exit 1)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
