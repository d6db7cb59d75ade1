import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coldgate
from coldgate import cli, moving, switching
from coldgate.errors import ValidationError


def test_parse_key_value_config(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# comment\nlx=6\nboundary=open\nu=12.5\n")
    cfg = cli.parse_config_file(str(p))
    assert cfg == {"lx": 6, "boundary": "open", "u": 12.5}


def test_parse_json_config(tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"n": 3}')
    assert cli.parse_config_file(str(p)) == {"n": 3}


def test_parse_config_rejects_bad_line(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("this is not a pair\n")
    with pytest.raises(ValidationError):
        cli.parse_config_file(str(p))


def test_unknown_config_key_exits_2(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("bogus=1\n")
    rc = cli.main(["qc-ghz", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_syndrome_table_scenario(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["qc-syndrome-table", "--out", str(out)])
    assert rc == 0
    lines = (out / "syndrome_table.txt").read_text().splitlines()
    assert len(lines) == 27
    assert lines[0] == "sx,1 110 00 000 a0-b1"
    assert lines[-1] == "sz,9 000 00 010 a0+b1"
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["scenario"] == "qc-syndrome-table"
    assert resolved["alpha"] == 0.6


def test_env_var_overrides_out(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("COLDGATE_OUT", str(env_dir))
    rc = cli.main(["qc-ghz", "--out", str(tmp_path / "ignored")])
    assert rc == 0
    assert (env_dir / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_mott_scenario_reproducible(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("lx=6\nly=6\nperiod=3.0\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["mott", "--config", str(cfgp), "--out", str(out), "--seed", "4"]) == 0
        outs.append((out / "density.csv").read_bytes())
    assert outs[0] == outs[1]


def test_mott_output_does_not_depend_on_seed(tmp_path):
    # at j=3 the old random restarts of seeds 0 and 1 settled in different
    # states (energies -469.835714 and -469.889719)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("j=3\n")
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        assert cli.main(["mott", "--config", str(cfgp), "--out", str(out), "--seed", seed]) == 0
        outs.append([(out / name).read_bytes() for name in ("summary.json", "density.csv")])
    assert outs[0] == outs[1]


_QFT_CSV = """\
input,max_abs_dev
000,5.5511151231257827e-17
001,8.7770836714417531e-17
010,1.0286052121357769e-16
011,4.3885418357208762e-16
100,2.6565142222620071e-16
101,8.8955752392330589e-16
110,8.8955752392330589e-16
111,1.277058133722624e-15
"""


def test_qft_scenario_csv_unchanged(tmp_path):
    # frozen output of qc-qft at its defaults
    out = tmp_path / "o"
    assert cli.main(["qc-qft", "--out", str(out)]) == 0
    assert (out / "qft_deviation.csv").read_text() == _QFT_CSV
    assert "jobs" not in json.loads((out / "resolved_config.json").read_text())


def test_nonconvergent_grid_exits_3(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("grid_n=64\nsteps_per_period=200\nn_periods=1\n")
    rc = cli.main(["gate-switching", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_eigensolve_at_iteration_cap_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(switching, "MAX_ITERATIONS", 1)
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("n_periods=1\n")
    assert cli.main(["gate-switching", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 3


def test_gate_switching_summary_reports_solver(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("grid_n=2048\nsteps_per_period=200\nn_periods=1\n")
    assert cli.main(["gate-switching", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["basis_size"] == switching.BASIS_SIZE
    assert 0 < summary["solver_iterations"] < switching.MAX_ITERATIONS
    assert abs(summary["tail_weight"]) <= 1e-6
    assert 0 <= summary["precheck_delta"] <= 1e-3


def test_gate_switching_csv_respects_max_csv_rows(tmp_path):
    # 221 samples: a floor stride of 1 wrote all of them for a cap of 150;
    # the ceiling stride 2 writes every other one
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("n_periods=1\ngrid_n=2048\nsteps_per_period=200\nmax_csv_rows=150\n")
    assert cli.main(["gate-switching", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "switching_timeseries.csv").read_text().splitlines()
    t = [float(line.split(",")[0]) for line in lines[1:]]
    assert len(t) == 111
    assert t == pytest.approx(np.arange(0, 221, 2) * 2 * np.pi / 200, abs=1e-12)


def test_accept_subset_and_fault_injection(tmp_path):
    cfgp = tmp_path / "ok.cfg"
    cfgp.write_text("only=perturbative-oracle,syndrome-table\n")
    assert cli.main(["accept", "--config", str(cfgp), "--out", str(tmp_path / "ok")]) == 0
    report = json.loads((tmp_path / "ok" / "accept_report.json").read_text())
    assert report["passed"]
    assert [c["criterion"] for c in report["criteria"]] == ["perturbative-oracle", "syndrome-table"]

    bad = tmp_path / "bad.cfg"
    bad.write_text("only=syndrome-table\ntamper_lx_phase=0.1\n")
    assert cli.main(["accept", "--config", str(bad), "--out", str(tmp_path / "bad")]) == 1
    report = json.loads((tmp_path / "bad" / "accept_report.json").read_text())
    assert not report["passed"]


def test_accept_rejects_unknown_criterion(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("only=not-a-criterion\n")
    assert cli.main(["accept", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", ["tamper_lx_phase", "tamper_g_scale"])
def test_accept_nonfinite_tamper_exits_2(tmp_path, key, value):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"only=syndrome-table\n{key}={value}\n")
    assert cli.main(["accept", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("only, g_scale", [("switching-revival", -1.0), ("switching-phase", 0.0), ("switching-phase", -1.0)])
def test_accept_negative_g_scale_is_a_tamper(tmp_path, only, g_scale):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"only={only}\ntamper_g_scale={g_scale}\n")
    assert cli.main(["accept", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 1
    if only == "switching-phase":
        # 0 made 0/0 (exit 4), and -1 a negative relative difference that always passed
        details = json.loads((tmp_path / "o" / "accept_report.json").read_text())["criteria"][0]["details"]
        assert np.isfinite(details["perturbative_rel_diff"]) and details["perturbative_rel_diff"] >= 0


@pytest.mark.parametrize("only", [",", ",,"])
def test_accept_only_naming_nothing_exits_2(tmp_path, only):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"only={only}\n")
    assert cli.main(["accept", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o" / "accept_report.json").exists()


def test_benchmark_trajectories_shapes():
    trajs = cli.benchmark_trajectories()
    assert len(trajs) == 5
    assert all(t.tau > 0 for t in trajs)


def test_nonfinite_path_parameter_exits_2(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("tau=NaN\n")
    assert cli.main(["gate-moving", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2


# kT above 10 is rejected: the level count and the QP grow too fast with it
@pytest.mark.parametrize("kt_list", ["a,b", "0,,0.1", "0.1,-0.2", "0,nan", "inf", "50,1e3", "10.5"])
def test_fidelity_curve_bad_kt_list_exits_2(tmp_path, kt_list):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"kt_list={kt_list}\n")
    assert cli.main(["fidelity-curve", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2


# each fidelity-curve key takes a value at or past its edges in about one
# draw of four; the other taus, and gate-moving's cycles, stay at or below
# 100, where one solve takes milliseconds (tau=1e4 takes about 1 s, and
# tau=6e4 about 15 s)
_EDGES = st.sampled_from([0.0, -1.0, -1e200, 1e-300, 1e200, 1e6, float("nan"), float("inf")])
_BAD_KTS = st.sampled_from([-1e-9, 10.000001, 1e200, float("nan"), float("inf")])


def _usually(strategy, edges):
    return st.one_of(strategy, strategy, strategy, edges)


@given(
    amplitude_a=_usually(st.floats(-1e4, 1e4), _EDGES),
    amplitude_b=_usually(st.floats(-1e4, 1e4), _EDGES),
    tau=_usually(st.floats(1e-3, 100.0), _EDGES),
    kt_list=_usually(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3),
        st.lists(_usually(st.floats(0.0, 10.0), _BAD_KTS), min_size=1, max_size=3),
    ).map(lambda kts: ",".join(map(repr, kts))),
)
@settings(max_examples=40, deadline=None)
def test_fidelity_curve_fuzz_exits_0_2_or_3(amplitude_a, amplitude_b, tau, kt_list):
    # a result, bad input (2) or an unresolved solve (3); never a failed
    # gate (1) or a fault of the program (4)
    cfg = {"amplitude_a": amplitude_a, "amplitude_b": amplitude_b, "tau": tau, "kt_list": kt_list}
    with tempfile.TemporaryDirectory() as d:
        cfgp = os.path.join(d, "c.json")
        with open(cfgp, "w") as fh:
            json.dump(cfg, fh)
        assert cli.main(["fidelity-curve", "--config", cfgp, "--out", os.path.join(d, "o")]) in (0, 2, 3)


def _strict_json(path):
    # json.loads accepts NaN and Infinity, which are not JSON
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


# gate-moving has seven keys, so at most two of them take an edge value,
# an int one at the bounds of n_samples or one of _EDGES
_GATE_MOVING_KEYS = {
    "amplitude": st.floats(-1e4, 1e4),
    "tau": st.floats(1e-3, 100.0),
    "cycles": st.floats(1e-3, 100.0),
    "n_samples": st.integers(1, 20),
    "separation": st.floats(-1e4, 1e4),
    "min_distance": st.floats(-1e4, 1e4),
    "a_s": st.floats(-1.0, 1.0),
}


@given(
    cfg=st.fixed_dictionaries(_GATE_MOVING_KEYS),
    edges=st.dictionaries(
        st.sampled_from(sorted(_GATE_MOVING_KEYS)), st.one_of(_EDGES, st.sampled_from([0, 1, 100_000, 100_001])), max_size=2
    ),
)
@settings(max_examples=40, deadline=None)
def test_gate_moving_fuzz_exits_0_2_or_3(cfg, edges):
    with tempfile.TemporaryDirectory() as d:
        cfgp = os.path.join(d, "c.json")
        with open(cfgp, "w") as fh:
            json.dump(dict(cfg, **edges), fh)
        rc = cli.main(["gate-moving", "--config", cfgp, "--out", os.path.join(d, "o")])
        assert rc in (0, 2, 3)
        if rc == 0:
            _strict_json(os.path.join(d, "o", "summary.json"))


@pytest.mark.parametrize(
    "lines, key",
    [
        # |K|^2 / 2 = 1.1e4: the kinetic phase was NaN, read from 0 * inf
        (["cycles=5.5", "amplitude=37", "tau=19"], "kinetic_phase_exact"),
        # the squared separation overflowed in the collision check
        (["separation=1e6", "min_distance=1e200"], "collisional_phase_ab"),
    ],
)
def test_gate_moving_extreme_path_writes_finite_json(tmp_path, lines, key):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("\n".join(lines) + "\n")
    assert cli.main(["gate-moving", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
    assert math.isfinite(_strict_json(tmp_path / "o" / "summary.json")[key])


def test_fidelity_curve_single_kt(tmp_path):
    # the lone number decodes as a JSON float, not as the list's text
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("kt_list=0.4\n")
    assert cli.main(["fidelity-curve", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "fidelity_curve.csv").read_text().splitlines()
    assert len(rows) == 2 and float(rows[1].split(",")[0]) == 0.4


@pytest.mark.parametrize(
    "line",
    [
        "j=NaN", "mu=NaN", "u=NaN", "amplitude=Infinity", "period=NaN", "n_max=-1", "n_max=0", "lx=true", "u=true",
        # finite, but an on-site energy or the hopping scale 4 n_max |J| overflows
        "mu=1e308", "u=1e308", "j=1e308",
        # every term fits a float, but the energy summed over the sites does not
        "j=1e305", "mu=1e306",
    ],
)
def test_mott_bad_input_exits_2(tmp_path, line):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(line + "\n")
    assert cli.main(["mott", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2


def test_mott_large_finite_hopping_exits_0(tmp_path):
    for j in ("1e154", "1e304"):
        cfgp = tmp_path / "c.cfg"
        cfgp.write_text(f"j={j}\n")
        assert cli.main(["mott", "--config", str(cfgp), "--out", str(tmp_path / j)]) == 0
        summary = json.loads((tmp_path / j / "summary.json").read_text())
        assert math.isfinite(summary["energy"])


def test_bool_for_int_key_exits_2(tmp_path):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("n=true\n")
    assert cli.main(["qc-ghz", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "scenario, lines",
    [
        ("qc-ghz", ["n=-1"]),
        ("qc-ghz", ["n=0"]),
        ("qc-qft", ["m=0"]),
        ("qc-qft", ["m=-2"]),
        ("qc-qft", ["m=11"]),  # the 4^m work is capped at m = 10
        ("qc-ramsey", ["n_phi=0"]),
        ("qc-ramsey", ["n_phi=-3"]),
        ("qc-ramsey", ["n_phi=10001"]),
        ("qc-syndrome-table", ["alpha=0", "beta_re=0", "beta_im=0"]),
        ("qc-syndrome-table", ["alpha=NaN"]),
        ("qc-syndrome-table", ["beta_im=Infinity"]),
    ],
)
def test_qc_bad_input_exits_2(tmp_path, scenario, lines):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("\n".join(lines) + "\n")
    assert cli.main([scenario, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "scenario, line",
    [
        ("gate-switching", "steps_per_period=0"),
        ("gate-switching", "max_csv_rows=0"),
        ("gate-switching", "max_csv_rows=-1"),
        ("gate-switching", "sigma_reg=0"),
        ("gate-switching", "sigma_reg=NaN"),
        ("gate-switching", "grid_l=NaN"),
        ("gate-switching", "grid_n=4097"),  # the even sector needs an even N
        ("gate-moving", "a_s=100"),  # outside the perturbative model
        ("gate-moving", "a_s=NaN"),  # was written into summary.json
        ("gate-moving", "a_s=Infinity"),
        ("gate-moving", "n_samples=0"),  # was a header-only trajectory.csv
        ("gate-moving", "n_samples=-3"),  # was a ValueError from linspace
        # float overflows in the path arithmetic were a traceback and exit 1
        ("gate-moving", "amplitude=1e200"),
        ("gate-moving", "tau=1e-300"),
        ("gate-moving", "cycles=1e300"),
        ("fidelity-curve", "amplitude_b=1e200"),
        # |g|^2 = 16,270 left by the transport overflows L_n up to n = 230:
        # NaN overlaps were a LinAlgError and exit 4
        ("fidelity-curve", '{"amplitude_a": 1000.0, "kt_list": "10"}'),
        ("qc-ghz", "n=30"),  # 31 sites, refused before 2^30 amplitudes are built
        ("qc-ghz", '{"n": 4'),  # malformed JSON was a traceback and exit 1
    ],
)
def test_bad_input_exits_2(tmp_path, scenario, line):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(line + "\n")
    assert cli.main([scenario, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2


_INT_KEYS = [(scn, key) for scn, (_, defaults, _) in sorted(cli.SCENARIOS.items()) for key, d in defaults.items() if type(d) is int]


# every size key at 1e9 was a hang, a MemoryError traceback with exit 1, or
# (max_csv_rows) a run to the end; it must be refused before any work
@pytest.mark.parametrize("scenario, key", _INT_KEYS, ids=[f"{s}-{k}" for s, k in _INT_KEYS])
def test_int_key_at_1e9_exits_2(tmp_path, capsys, scenario, key):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(f"{key}={10**9}\n")
    assert cli.main([scenario, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    lo, hi = cli.SCENARIOS[scenario][2].get(key, (None, None))
    if hi is not None:  # the message names the key and its bounds
        assert f"{key} <= {hi}, got {10**9}" in err


def test_defaults_lie_within_bounds():
    # a tuple of keys bounds the product of their values
    for scenario, (_, defaults, bounds) in cli.SCENARIOS.items():
        for key, (lo, hi) in bounds.items():
            v = math.prod(defaults[k] for k in (key if isinstance(key, tuple) else (key,)))
            assert (lo is None or lo <= v) and (hi is None or v <= hi), (scenario, key)
        assert cli._resolve(defaults, bounds, defaults) == defaults


_PRODUCT_CAPS = [(scn, key) for scn, (_, _, bounds) in sorted(cli.SCENARIOS.items()) for key in bounds if isinstance(key, tuple)]


@pytest.mark.parametrize("scenario, keys", _PRODUCT_CAPS, ids=[f"{s}-{'-'.join(k)}" for s, k in _PRODUCT_CAPS])
def test_keys_at_their_single_caps_exit_2(tmp_path, capsys, scenario, keys):
    # each key at its own cap is accepted, but together they set more work
    # than their product cap allows (gate-switching 43 s, mott 10 s)
    _, defaults, bounds = cli.SCENARIOS[scenario]
    caps = {k: bounds[k][1] for k in keys}
    for k, cap in caps.items():
        assert cli._resolve(defaults, bounds, {k: cap})[k] == cap
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("".join(f"{k}={cap}\n" for k, cap in caps.items()))
    assert cli.main([scenario, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and all(k in err for k in keys)
    assert f"<= {bounds[keys][1]}, got {math.prod(caps.values())}" in err


def test_import_does_not_load_scipy():
    # scipy is a test dependency only: no scenario needs it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(coldgate.__file__)))
    code = "import sys, coldgate.cli; print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def test_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    # a fault of the program is not a failed gate (exit 1)
    def broken(cfg, outdir, seed):
        raise RuntimeError("broken scenario")

    _, defaults, bounds = cli.SCENARIOS["qc-ghz"]
    monkeypatch.setitem(cli.SCENARIOS, "qc-ghz", (broken, defaults, bounds))
    assert cli.main(["qc-ghz", "--out", str(tmp_path / "o")]) == 4
    assert "RuntimeError: broken scenario" in capsys.readouterr().err


# paths spanning 2e6 time units, or turning 1e6 times, ran for over 40 s in
# adaptive ODE and quadrature calls; the capped Chebyshev rule gives up at once
@pytest.mark.parametrize(
    "scenario, line",
    [("gate-moving", "tau=1e6"), ("gate-moving", "cycles=1e6"), ("fidelity-curve", "tau=1e6")],
)
def test_unresolvable_path_exits_3(tmp_path, scenario, line):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(line + "\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(coldgate.__file__)))
    argv = [sys.executable, "-m", "coldgate.cli", scenario, "--config", str(cfgp), "--out", str(tmp_path / "o")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 3
    assert "QuadratureFailure" in proc.stderr and f"cap of {moving.CHEB_MAX_POINTS} " in proc.stderr


# both take about 1 s; while beta was a second adaptive fit, of an integrand
# that read K through a Clenshaw loop, both ran 9 s and then exited 3
@pytest.mark.parametrize("scenario", ["gate-moving", "fidelity-curve"])
def test_long_path_resolves(tmp_path, scenario):
    cfgp = tmp_path / "c.cfg"
    cfgp.write_text("tau=1e4\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(coldgate.__file__)))
    argv = [sys.executable, "-m", "coldgate.cli", scenario, "--config", str(cfgp), "--out", str(tmp_path / "o")]
    assert subprocess.run(argv, env=env, capture_output=True, timeout=20).returncode == 0


@pytest.mark.parametrize("content", [None, b"n=4 # \xff\n"], ids=["missing", "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, content):
    # both were a traceback and exit 1, which is kept for a failed gate
    cfgp = tmp_path / "c.cfg"
    if content is not None:
        cfgp.write_bytes(content)
    assert cli.main(["qc-ghz", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2


def _bit_reversed_dft_column_loop(a_bits):
    """Per-entry reordering by reversed binary strings."""
    m = len(a_bits)
    a = int("".join(str(b) for b in a_bits), 2)
    col = np.exp(2j * np.pi * a * np.arange(2**m) / 2**m) / np.sqrt(2**m)
    out = np.zeros_like(col)
    for i in range(2**m):
        out[int(format(i, f"0{m}b")[::-1], 2)] = col[i]
    return out


@pytest.mark.parametrize("m", range(1, 8))
def test_bit_reversed_dft_column_matches_loop(m):
    for a in {0, 1, 2**m - 1, (2**m) // 3, 2 ** (m - 1)}:
        bits = [int(b) for b in format(a, f"0{m}b")]
        assert np.array_equal(cli._bit_reversed_dft_column(bits), _bit_reversed_dft_column_loop(bits))
