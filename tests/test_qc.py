import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coldgate import qc
from coldgate.errors import GeometryMismatch, NonBasisSyndrome, ValidationError


# -- register basics -------------------------------------------------------


def test_basis_state_and_digits():
    reg = qc.LatticeRegister.basis((2, 2), [0, 1, 1, 0])
    assert reg.state[0b0110] == 1.0
    idx = int(np.argmax(np.abs(reg.state)))
    assert [int(d) for d in np.unravel_index(idx, reg.dims)] == [0, 1, 1, 0]


def test_partial_occupation_mask():
    mask = np.array([[1, 0], [1, 1]])
    reg = qc.LatticeRegister.basis((2, 2), [1, 0, 1], mask=mask)
    assert reg.sites == (0, 2, 3)
    assert reg.axis_of_site(2) == 1
    with pytest.raises(GeometryMismatch):
        reg.axis_of_site(1)


def test_register_capacity_cap():
    with pytest.raises(ValidationError):
        qc.LatticeRegister.basis((21,), [0] * 21)
    # the selected atom makes 21 sites; refused before any state is built
    with pytest.raises(ValidationError, match="sweep needs 21"):
        qc.sweep([np.pi] * 20)


@pytest.mark.parametrize(
    "shape, bits, dims",
    [
        ((3,), [0, 1], None),  # fewer digits than sites
        ((2,), [0, 1, 1], None),  # more digits than sites
        ((2,), [1, 2], None),  # 2 is not a qubit digit
        ((2,), [-1, 0], None),
        ((2,), [3, 0], (3, 2)),  # 3 is not a digit of a 3-level site
    ],
)
def test_basis_rejects_bad_digits(shape, bits, dims):
    with pytest.raises(ValidationError):
        qc.LatticeRegister.basis(shape, bits, dims=dims)


def test_basis_three_level_digit():
    reg = qc.LatticeRegister.basis((2,), [2, 1], dims=(3, 2))
    assert reg.state[2 * 2 + 1] == 1.0


def test_probabilities_marginal():
    reg = qc.LatticeRegister.basis((1, 2), [0, 0])
    reg = qc.single_qubit(reg, 0, "H")
    p = reg.probabilities([0])
    assert np.allclose(p, [0.5, 0.5])


def test_normalized_global_phase():
    v = np.array([0.0, 1j * 0.8, 0.6], dtype=complex)
    out = qc.normalized_global_phase(v)
    assert out[1] == pytest.approx(0.8)
    assert out[2] == pytest.approx(-0.6j)


@given(st.integers(0, 3), st.sampled_from(["H", "X", "Y", "Z"]))
@settings(max_examples=30)
def test_single_qubit_preserves_norm(site, gate):
    reg = qc.LatticeRegister.basis((2, 2), [0, 1, 0, 1])
    reg = qc.single_qubit(reg, 0, "H")
    out = qc.single_qubit(reg, site, gate)
    assert np.linalg.norm(out.state) == pytest.approx(1.0, abs=1e-12)


def test_single_qubit_on_three_level_site():
    reg = qc.LatticeRegister((1,), (0,), (3,), np.array([0, 0, 1.0]))
    out = qc.single_qubit(reg, 0, "X")
    assert out.state[2] == pytest.approx(1.0)  # |r> untouched


def test_lattice_shift_phases():
    reg = qc.LatticeRegister.basis((1, 2), [0, 1])
    out = qc.apply_lx(reg, 0.7)
    assert out.state[1] == pytest.approx(np.exp(-0.7j))
    reg10 = qc.LatticeRegister.basis((1, 2), [1, 0])
    assert qc.apply_lx(reg10, 0.7).state[2] == pytest.approx(1.0)
    with pytest.raises(GeometryMismatch):
        qc.apply_ly(qc.LatticeRegister.basis((4,), [0] * 4), 0.7)
    column = qc.LatticeRegister.basis((2, 1), [0, 1])  # one column: LY pairs, no LX pairs
    assert qc.apply_ly(column, 0.7).state[1] == pytest.approx(np.exp(-0.7j))
    assert qc.apply_lx(column, 0.7).state[1] == pytest.approx(1.0)
    grid = qc.LatticeRegister.basis((2, 2), [0, 0, 1, 1])  # per-row phases index the lower row
    assert qc.apply_ly(grid, [0.0, 0.4]).state[0b0011] == pytest.approx(np.exp(-0.8j))


def test_measure_collapse_is_seeded():
    reg = qc.single_qubit(qc.LatticeRegister.basis((1, 2), [0, 0]), 0, "H")
    out1, post1 = qc.measure(reg, [0], np.random.default_rng(5))
    out2, post2 = qc.measure(reg, [0], np.random.default_rng(5))
    assert out1 == out2
    assert np.allclose(post1.state, post2.state)
    assert abs(post1.state[int(np.argmax(np.abs(post1.state)))]) == pytest.approx(1.0)


# -- the gate engine against dense operators --------------------------------


def _tensordot_single_qubit(reg, site, U):
    """single_qubit by tensordot and moveaxis over the full tensor."""
    ax = reg.axis_of_site(site)
    Ufull = np.eye(reg.dims[ax], dtype=complex)
    Ufull[:2, :2] = U
    t = np.moveaxis(np.tensordot(Ufull, reg.state.reshape(reg.dims), axes=([1], [ax])), 0, ax)
    return t.ravel()


def _dense_single_qubit(dims, ax, U):
    """The gate on axis ax as a full matrix, a kron of identities and U."""
    ops = [np.eye(d, dtype=complex) for d in dims]
    ops[ax][:2, :2] = U
    return functools.reduce(np.kron, ops)


def _dense_pair_phase(dims, axis_pairs, cond, sign):
    """The pair phases as a full diagonal matrix: each pair multiplies by
    1 + (exp(sign i phi) - 1) P, P the kron of the two digit projectors."""
    diag = np.ones(int(np.prod(dims)), dtype=complex)
    for ax_a, ax_b, phi in axis_pairs:
        factors = [np.ones(d) for d in dims]
        factors[ax_a] = factors[ax_a] * (np.arange(dims[ax_a]) == cond[0])
        factors[ax_b] = factors[ax_b] * (np.arange(dims[ax_b]) == cond[1])
        diag *= 1 + (np.exp(sign * 1j * phi) - 1) * functools.reduce(np.kron, factors)
    return np.diag(diag)


_PHASES = st.one_of(st.just(np.pi), st.floats(-7.0, 7.0))


@st.composite
def _engine_programs(draw):
    n = draw(st.integers(1, 6))
    n_lattice = n + draw(st.integers(0, 2))
    sites = tuple(sorted(draw(st.permutations(range(n_lattice)))[:n]))
    if draw(st.booleans()):  # qubits only: the popcount path
        dims = (2,) * n
    else:
        dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n)))
    site = st.sampled_from(sites)
    digit = st.integers(0, 2)  # a digit a qubit never takes matches no pair
    gate = st.one_of(st.sampled_from(sorted(qc._NAMED_GATES)), st.integers(0, 2**32 - 1))
    phase_op = st.tuples(
        st.lists(st.tuples(site, site, _PHASES), max_size=5),
        st.tuples(digit, digit),
        st.sampled_from([-1.0, 1.0]),
    )
    layer = st.tuples(st.just("layer"), st.lists(site, unique=True), gate)  # any subset: gaps and 3-level sites
    ops = draw(st.lists(st.one_of(st.tuples(st.just("gate"), site, gate), layer, st.tuples(st.just("phase"), phase_op)), min_size=1, max_size=5))
    # each phase op runs twice, the second time from the cached pair counts
    ops = [o for op in ops for o in ((op, op) if op[0] == "phase" else (op,))]
    return n_lattice, sites, dims, draw(st.integers(0, 2**32 - 1)), ops


def _random_unitary(seed):
    z = np.random.default_rng(seed).normal(size=(2, 2, 2)) @ [1, 1j]
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@given(_engine_programs())
@settings(max_examples=150, deadline=None)
def test_engine_matches_dense_operators(program):
    n_lattice, sites, dims, seed, ops = program
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    reg = qc.LatticeRegister((n_lattice,), sites, dims, psi / np.linalg.norm(psi))
    ref = reg.state.copy()
    for op in ops:
        before, saved = reg.state, reg.state.copy()
        if op[0] == "gate":
            _, site, gate = op
            U = qc._NAMED_GATES[gate] if isinstance(gate, str) else _random_unitary(gate)
            expect = _tensordot_single_qubit(reg, site, U)
            reg = qc.single_qubit(reg, site, gate if isinstance(gate, str) else U)
            assert np.max(np.abs(reg.state - expect)) <= 1e-12
            ref = _dense_single_qubit(dims, reg.axis_of_site(site), U) @ ref
        elif op[0] == "layer":
            _, layer_sites, gate = op
            U = qc._NAMED_GATES[gate] if isinstance(gate, str) else _random_unitary(gate)
            reg = qc.single_qubit(reg, layer_sites, gate if isinstance(gate, str) else U)
            for site in layer_sites:
                ref = _dense_single_qubit(dims, reg.axis_of_site(site), U) @ ref
        else:
            pairs, cond, sign = op[1]
            reg = qc._pair_phase_condition(reg, pairs, cond=cond, sign=sign)
            axis_pairs = [(reg.axis_of_site(a), reg.axis_of_site(b), phi) for a, b, phi in pairs]
            ref = _dense_pair_phase(dims, axis_pairs, cond, sign) @ ref
            for phi in {phi for _, _, phi in pairs}:
                counts = qc._pair_counts(dims, tuple((a, b) for a, b, p in axis_pairs if p == phi), cond)
                assert counts.dtype == np.uint8 and not counts.flags.writeable
        assert np.max(np.abs(reg.state - ref)) <= 1e-12
        assert reg.state is not before and np.array_equal(before, saved)  # a new state; the input is untouched
        assert reg.sites == sites and reg.dims == dims


@pytest.mark.parametrize("dims", [(2, 2), (3, 2)])
def test_pair_counts_past_255_pairs_do_not_wrap(dims):
    reg = qc.LatticeRegister((2,), (0, 1), dims, np.full(math.prod(dims), math.prod(dims) ** -0.5))
    pairs = [(0, 1, 0.01)] * 256
    out = qc._pair_phase_condition(reg, pairs)
    ref = _dense_pair_phase(dims, pairs, (0, 1), -1.0) @ reg.state
    assert np.max(np.abs(out.state - ref)) <= 1e-12
    counts = qc._pair_counts(dims, ((0, 1),) * 256, (0, 1))
    assert counts.max() == 256 and counts.dtype == np.uint16 and not counts.flags.writeable


def test_layer_pulses_each_site_once():
    reg = qc.LatticeRegister.basis((3,), [0, 0, 0])
    with pytest.raises(ValidationError):
        qc.single_qubit(reg, [0, 2, 0], "H")


def test_pair_phase_is_the_01_condition():
    reg = qc.single_qubit(qc.single_qubit(qc.LatticeRegister.basis((1, 3), [0, 0, 0]), 0, "H"), 2, "H")
    pairs = [(0, 1, 0.3), (0, 2, np.pi), (2, 0, np.pi)]
    ref = _dense_pair_phase((2, 2, 2), pairs, (0, 1), 1.0) @ reg.state
    assert np.max(np.abs(qc._pair_phase(reg, pairs, sign=1.0).state - ref)) <= 1e-15


def test_user_states_keep_the_norm_check():
    with pytest.raises(ValidationError):
        qc.LatticeRegister((1, 2), (0, 1), (2, 2), np.array([1.0, 1.0, 0.0, 0.0]))
    s0, _ = qc.shor_codewords_standard()
    with pytest.raises(ValidationError):
        qc.two_block_register(2 * s0, s0)
    with pytest.raises(ValidationError):
        qc.bare_block(0.0, 0.0)
    with pytest.raises(ValidationError):
        qc.bare_block(np.nan, 1.0)
    with pytest.raises(ValidationError):
        qc.armada_parity_check(2 * s0, "spin-flip")


# -- Ramsey and random filling --------------------------------------------


def test_ramsey_pair_interference():
    out = qc.ramsey_sequence(qc.LatticeRegister.basis((1, 2), [0, 0]), np.pi)
    assert np.allclose(qc.normalized_global_phase(out.state), [0.5, 0.5, -0.5, 0.5], atol=1e-12)


def test_ramsey_triplet_interference():
    out = qc.ramsey_sequence(qc.LatticeRegister.basis((1, 3), [0, 0, 0]), np.pi)
    ref = np.array([0, 0.5, 0, 0.5, -0.5, 0, 0.5, 0])
    assert np.allclose(qc.normalized_global_phase(out.state), ref, atol=1e-12)


def test_ramsey_full_turn_is_dark():
    out = qc.ramsey_sequence(qc.LatticeRegister.basis((1, 2), [0, 0]), 2 * np.pi)
    assert 1.0 - abs(out.state[0]) ** 2 < 1e-12


@given(st.floats(0, 2 * np.pi))
@settings(max_examples=30)
def test_ramsey_probability_conserved(phi):
    out = qc.ramsey_sequence(qc.LatticeRegister.basis((1, 2), [0, 0]), phi)
    assert float(np.sum(np.abs(out.state) ** 2)) == pytest.approx(1.0, abs=1e-12)


def _census_by_loop(mask):
    """Maximal row runs counted one site at a time."""
    census: dict = {}
    for row in mask.reshape(-1, mask.shape[-1]):
        run = 0
        for v in np.append(row, False):
            if v:
                run += 1
            elif run:
                census[run] = census.get(run, 0) + 1
                run = 0
    return census


def test_random_fill_census():
    mask, census = qc.random_fill((2, 6), 0.5, seed=0)
    assert census == _census_by_loop(mask)
    with pytest.raises(ValidationError):
        qc.random_fill((2, 2), 1.5)


@pytest.mark.parametrize("eta,seed", [(0.0, 0), (0.05, 17), (0.3, 1), (0.9, 2), (1.0, 3)])
def test_random_fill_census_matches_loop(eta, seed):
    mask, census = qc.random_fill((40, 250), eta, seed=seed)
    assert np.array_equal(mask, np.random.default_rng(seed).random((40, 250)) < eta)
    assert census == _census_by_loop(mask)
    assert all(type(k) is int and type(v) is int for k, v in census.items())


def _random_fill_by_full_draw(shape, eta, seed):
    """``qc.random_fill`` as one ``rng.random(shape)`` draw, with the runs
    read off the first difference of each zero-padded row."""
    mask = np.random.default_rng(seed).random(shape) < eta
    rows = mask.reshape(-1, shape[-1])
    padded = np.zeros((rows.shape[0], rows.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = rows
    edges = np.diff(padded, axis=1).ravel()
    sizes, counts = np.unique(np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1), return_counts=True)
    return mask, {int(n): int(c) for n, c in zip(sizes, counts)}


@pytest.mark.parametrize(
    "shape,eta",
    [((300,), 0.4), ((5, 17), 0.3), ((63, 20), 0.5), ((64, 9), 0.5), ((130, 11), 0.2), ((3, 4, 70), 0.6), ((100, 30), 0.0), ((100, 30), 1.0)],
)
def test_random_fill_blocks_match_one_draw(shape, eta):
    # a 1-D shape, fewer than FILL_ROWS rows, one exactly and a last short block
    for seed in (0, 5):
        mask, census = qc.random_fill(shape, eta, seed=seed)
        ref_mask, ref_census = _random_fill_by_full_draw(shape, eta, seed)
        assert mask.shape == shape and mask.dtype == bool
        assert np.array_equal(mask, ref_mask)
        assert census == ref_census


def test_cluster_scaling_exponent_on_exact_counts():
    etas = np.array([0.05, 0.1, 0.2])
    n_sites = 10**6
    counts = n_sites * etas**3 * (1 - etas) ** 2
    assert qc.cluster_scaling_exponent(etas, counts, n_sites) == pytest.approx(3.0, abs=1e-9)


# -- Shor code -------------------------------------------------------------


def test_encode_decode_roundtrip():
    bare = qc.bare_block(0.6, 0.8j)
    out = qc.shor_decode(qc.shor_encode(bare))
    assert abs(np.vdot(bare.state, out.state)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_codewords_orthonormal():
    z, o = qc.logical_codewords()
    assert np.linalg.norm(z) == pytest.approx(1.0)
    assert abs(np.vdot(z, o)) < 1e-12


def test_syndrome_table_matches_reference():
    from coldgate.cli import _expected_syndrome_rows

    rows = qc.syndrome_table(0.6, 0.8j)
    assert rows == _expected_syndrome_rows()


def test_syndrome_correction_restores_state():
    alpha, beta = 0.6, 0.8j
    enc = qc.shor_encode(qc.bare_block(alpha, beta))
    err = qc.apply_pauli_error(enc, "y", 5)
    rec = qc.shor_decode_and_syndrome(err, alpha, beta)
    fixed = rec.correction @ rec.central_state
    ref = np.array([alpha, beta]) / np.linalg.norm([alpha, beta])
    assert abs(np.vdot(ref, fixed / np.linalg.norm(fixed))) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_tampered_shift_phase_breaks_syndrome():
    with pytest.raises(NonBasisSyndrome):
        qc.syndrome_table(0.6, 0.8j, lx_phase=np.pi + 0.1)


def test_two_qubit_error_is_not_a_basis_syndrome():
    enc = qc.shor_encode(qc.bare_block(1.0, 0.0))
    err = qc.apply_pauli_error(qc.apply_pauli_error(enc, "z", 4), "x", 1)
    rec = qc.shor_decode_and_syndrome(err, 1.0, 0.0)
    # an x+z pair is still correctable by the table (syndromes compose);
    # the decode must at least return a consistent record
    assert rec.syndrome.count(" ") == 2


# -- fault-tolerant CNOT and Armada ---------------------------------------


def test_ft_cnot_truth_table():
    s0, s1 = qc.shor_codewords_standard()
    cw = {0: s0, 1: s1}
    for c in (0, 1):
        for t in (0, 1):
            out = qc.ft_cnot(qc.two_block_register(cw[c], cw[t]), exact_sign=True)
            exp = qc.two_block_register(cw[c], cw[t ^ c])
            assert np.vdot(exp.state, out.state) == pytest.approx(1.0, abs=1e-10)


def test_ft_cnot_quarter_pulse_sign():
    s0, s1 = qc.shor_codewords_standard()
    cw = {0: s0, 1: s1}
    for c in (0, 1):
        for t in (0, 1):
            out = qc.ft_cnot(qc.two_block_register(cw[c], cw[t]), exact_sign=False)
            exp = qc.two_block_register(cw[c], cw[t ^ c])
            sign = -1.0 if c == 1 else 1.0
            assert np.vdot(exp.state, out.state) == pytest.approx(sign, abs=1e-10)


def test_ft_cnot_entangles_superposition():
    s0, s1 = qc.shor_codewords_standard()
    ctrl = (s0 + s1) / np.sqrt(2)
    out = qc.ft_cnot(qc.two_block_register(ctrl, s0), exact_sign=True)
    bell = (np.kron(s0, s0) + np.kron(s1, s1)) / np.sqrt(2)
    assert abs(np.vdot(bell, out.state)) ** 2 == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(GeometryMismatch):
        qc.ft_cnot(qc.LatticeRegister.basis((3, 3), [0] * 9))


def _ft_cnot_by_site(reg, exact_sign):
    """ft_cnot as one pulse per site: 9 H, the control-1 target-0 pi phase,
    9 H and, for the exact sign, 9 X."""
    for s in range(9):
        reg = qc.single_qubit(reg, s, "H")
    reg = qc._pair_phase_condition(reg, [(s, s + 9, np.pi) for s in range(9)], cond=(1, 0))
    for gate in ("H", "X") if exact_sign else ("H",):
        for s in range(9):
            reg = qc.single_qubit(reg, s, gate)
    return reg


@pytest.mark.parametrize("exact_sign", [True, False])
def test_ft_cnot_layers_match_the_per_site_sequence(exact_sign):
    rng = np.random.default_rng(7)
    psi = rng.normal(size=2**18) + 1j * rng.normal(size=2**18)
    reg = qc.LatticeRegister((6, 3), tuple(range(18)), (2,) * 18, psi / np.linalg.norm(psi))
    out = qc.ft_cnot(reg, exact_sign=exact_sign)
    assert np.max(np.abs(out.state - _ft_cnot_by_site(reg, exact_sign).state)) <= 1e-12


def test_armada_spin_flip_detection():
    s0, s1 = qc.shor_codewords_standard()
    enc = 0.6 * s0 + 0.8j * s1
    parities, post = qc.armada_parity_check(enc, "spin-flip", seed=2)
    assert parities == (0, 0, 0)
    assert abs(np.vdot(enc, post)) ** 2 == pytest.approx(1.0, abs=1e-10)
    reg = qc.LatticeRegister((3, 3), tuple(range(9)), (2,) * 9, enc)
    for atom, expect in ((1, (1, 0, 0)), (5, (0, 1, 0)), (8, (0, 0, 1))):
        err = qc.apply_pauli_error(reg, "x", atom)
        parities, post = qc.armada_parity_check(err.state, "spin-flip", seed=2)
        assert parities == expect
        assert abs(np.vdot(err.state, post)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_armada_phase_flip_detection():
    s0, s1 = qc.shor_codewords_standard()
    enc = 0.6 * s0 + 0.8j * s1
    parities, post = qc.armada_parity_check(enc, "phase-flip", seed=2)
    assert parities == (0,)
    assert abs(np.vdot(enc, post)) ** 2 == pytest.approx(1.0, abs=1e-10)
    reg = qc.LatticeRegister((3, 3), tuple(range(9)), (2,) * 9, enc)
    for atom in (1, 4, 6):
        err = qc.apply_pauli_error(reg, "z", atom)
        parities, post = qc.armada_parity_check(err.state, "phase-flip", seed=2)
        assert parities == (1,)
        assert abs(np.vdot(err.state, post)) ** 2 == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValidationError):
        qc.armada_parity_check(enc, "both")


# -- sweep constructions ---------------------------------------------------


def test_ghz_from_sweep():
    for n in (2, 4):
        state = qc.ghz_from_sweep(n)
        ref = np.zeros(2 ** (n + 1), dtype=complex)
        ref[0] = ref[-1] = 1 / np.sqrt(2)
        assert abs(np.vdot(ref, state)) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_sweep_qft_matches_dft():
    from coldgate.cli import _bit_reversed_dft_column

    for m in (1, 2, 3):
        for a in range(2**m):
            bits = [int(b) for b in format(a, f"0{m}b")]
            state, phi = qc.sweep_qft(bits)
            assert phi == 0.0
            assert np.max(np.abs(state - _bit_reversed_dft_column(bits))) < 1e-10
    with pytest.raises(ValidationError):
        qc.sweep_qft([0, 2])


def test_sweep_phase_bookkeeping():
    reg = qc.sweep([0.3, 0.7])
    t = reg.state.reshape(reg.dims)
    # the r branch carries the per-site conditional phases
    base = t[0]
    swept = t[2]
    assert swept[1, 1] / base[1, 1] == pytest.approx(np.exp(1j * 1.0))
    assert swept[0, 0] / base[0, 0] == pytest.approx(1.0)


def test_run_script_end_to_end():
    res = qc.run_script(
        """
        # prepare and interfere a pair
        INIT 1x2 00
        H 0
        H 1
        LX 3.141592653589793
        H 0
        H 1
        MEASURE 0 1
        """,
        seed=3,
    )
    out = res["measurements"][0]
    assert set(out) == {0, 1}
    with pytest.raises(ValidationError):
        qc.run_script("FROB 1")
    with pytest.raises(ValidationError):
        qc.run_script("INIT 3 01")


@pytest.mark.parametrize(
    "script",
    [
        "INIT 2 00\nH",  # no site
        "INIT 2 00\nSWEEP",  # no phases
        "INIT 2 00\nLX abc",  # not a number
        "INIT 2x 00",  # no column count
        "INIT 2 0a",  # not a digit
        "INIT 2 00\nMEASURE",  # no site to measure
        "INIT 2 00 1",  # a third argument
        "INIT 2 00\nH 0 1",  # one site per line
        "INIT 2 00\nX 0 1",
        "INIT 2 00\nZ 1 0",
        "INIT 2 00\nLX 1 2",  # one phase
        "INIT 2 00\nLY 1 2",
        "INIT 2 00\nSWEEP 1,2 3",  # one comma-separated list
        "INIT 2 00\nFROB 1",  # no such command
    ],
)
def test_run_script_names_the_malformed_line(script):
    with pytest.raises(ValidationError, match=f"script line {script.count(chr(10)) + 1}"):
        qc.run_script(script)


# -- the work buffer, the float64 view and the cached small-register operator


def _keep_gate_results(monkeypatch):
    """Wrap the gates so that every result is kept with a copy of its bits."""
    kept = []
    for name in ("single_qubit", "_pair_phase_condition", "_pair_phase"):
        gate = getattr(qc, name)

        def keep(*args, _gate=gate, **kwargs):
            out = _gate(*args, **kwargs)
            kept.append((out.state, out.state.copy()))
            return out

        monkeypatch.setattr(qc, name, keep)
    return kept


def _assert_kept(kept):
    assert kept
    for state, saved in kept:
        assert state.tobytes() == saved.tobytes()
        assert not np.shares_memory(state, qc._work_buffer(state.size, threading.get_ident()))


def test_ft_cnot_results_never_alias_the_work_buffer(monkeypatch):
    kept = _keep_gate_results(monkeypatch)
    s0, s1 = qc.shor_codewords_standard()
    out = qc.ft_cnot(qc.two_block_register(s0, s1))
    assert len(kept) == 3
    # later gates on 2^18 amplitudes run their passes through the same buffer
    qc.ft_cnot(qc.two_block_register(s1, s0), exact_sign=False)
    qc.single_qubit(out, range(18), "Y")
    _assert_kept(kept)


def test_syndrome_table_blocks_never_alias_the_work_buffer(monkeypatch):
    kept = _keep_gate_results(monkeypatch)
    rows = qc.syndrome_table(0.6, 0.8j)
    assert len(kept) > 27
    assert qc.syndrome_table(0.8, 0.6) == rows  # the same table from other 9-qubit blocks
    _assert_kept(kept)


def test_work_buffer_holds_two_sizes():
    for n in (4, 7, 10):
        qc.single_qubit(qc.LatticeRegister.basis((n,), [0] * n), range(n), "H")
    assert qc._work_buffer.cache_info().currsize == 2


def test_gates_in_threads_match_the_serial_gates():
    # more threads than cores, each running layers of one state size at once
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(6, 2**14)) + 1j * rng.normal(size=(6, 2**14))
    regs = [qc.LatticeRegister((14,), tuple(range(14)), (2,) * 14, p / np.linalg.norm(p)) for p in psi]
    pairs = [(s, s + 7, np.pi) for s in range(7)]

    def run(reg):
        for _ in range(20):
            reg = qc._pair_phase_condition(qc.single_qubit(reg, range(14), "H"), pairs)
        return reg.state

    expect = [run(reg) for reg in regs]
    got = [None] * len(regs)

    def work(i):
        got[i] = run(regs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(regs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(g is not None and g.tobytes() == e.tobytes() for g, e in zip(got, expect))


@pytest.mark.parametrize("n", [5, 9, 12])
def test_strided_state_gives_the_gates_of_its_copy(n):
    rng = np.random.default_rng(n)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    big = np.zeros(2 ** (n + 1), dtype=complex)
    big[::2] = psi / np.linalg.norm(psi)
    reg = qc.LatticeRegister((n,), tuple(range(n)), (2,) * n, big[::2])
    flat = qc.LatticeRegister((n,), tuple(range(n)), (2,) * n, big[::2].copy())
    assert not reg.state.flags.c_contiguous and flat.state.flags.c_contiguous
    pairs = [(s, s + 1, np.pi) for s in range(n - 1)] + [(0, n - 1, 0.3)]
    for gate in ("H", "Y", "R270", _random_unitary(n)):
        for sites in (range(n), [0, 2], [n - 1]):
            a, b = qc.single_qubit(reg, sites, gate).state, qc.single_qubit(flat, sites, gate).state
            assert a.tobytes() == b.tobytes()
    a, b = qc._pair_phase_condition(reg, pairs).state, qc._pair_phase_condition(flat, pairs).state
    assert a.tobytes() == b.tobytes()
    assert np.array_equal(big[::2], flat.state)  # the strided input is untouched


@pytest.mark.parametrize("name, matrix", [("X", qc.X_GATE + 0j), ("H", qc.H_GATE.real), ("Z", qc.Z_GATE.astype(complex))])
def test_real_gate_as_a_matrix_matches_its_name(name, matrix):
    rng = np.random.default_rng(3)
    psi = rng.normal(size=2**10) + 1j * rng.normal(size=2**10)
    reg = qc.LatticeRegister((10,), tuple(range(10)), (2,) * 10, psi / np.linalg.norm(psi))
    for sites in (range(10), [1, 2, 5], [9]):
        named = qc.single_qubit(reg, sites, name).state
        assert qc.single_qubit(reg, sites, matrix).state.tobytes() == named.tobytes()
        for s in sites:
            reg_s = qc.single_qubit(reg, s, name)
            assert np.max(np.abs(reg_s.state - _tensordot_single_qubit(reg, s, qc._NAMED_GATES[name]))) <= 1e-15


def test_layer_operator_is_real_for_real_gates_and_caches_the_small_operator():
    def op(gate, right, listed=(True, False, True)):
        u = tuple(np.asarray(qc._NAMED_GATES[gate], dtype=complex).ravel().tolist())
        return qc._layer_operator(u, (2, 3, 2), listed, right)

    M = op("H", 0)
    assert M.dtype == np.float64 and M.shape == (12, 12) and not M.flags.writeable
    assert op("Y", 0, (True, False, False)).dtype == np.complex128
    assert op("Y", 0).dtype == np.float64  # Y x Y is real
    K = op("H", 4)  # the small-register operator stays complex
    assert K.dtype == np.complex128 and not K.flags.writeable
    assert np.array_equal(K, np.kron(M.T, np.eye(4)))
    assert op("H", 4) is K


def test_collision_phase_runs_in_chunks(monkeypatch):
    # chunks of 5 amplitudes, the last one short, against the dense diagonal
    monkeypatch.setattr(qc, "PHASE_CHUNK", 5)
    rng = np.random.default_rng(11)
    dims = (2, 3, 2, 2)
    psi = rng.normal(size=24) + 1j * rng.normal(size=24)
    reg = qc.LatticeRegister((4,), (0, 1, 2, 3), dims, psi / np.linalg.norm(psi))
    pairs = [(0, 1, np.pi), (1, 2, 0.4), (2, 3, np.pi), (0, 3, -1.1)]
    for cond, sign in (((0, 1), -1.0), ((1, 0), 1.0), ((2, 1), -1.0)):
        out = qc._pair_phase_condition(reg, pairs, cond=cond, sign=sign)
        ref = _dense_pair_phase(dims, pairs, cond, sign) @ reg.state
        assert np.max(np.abs(out.state - ref)) <= 1e-15
