"""Exact statevector engine for lattice-parallel quantum computing.

Qubits live on 1D or 2D lattice sites (row-major site order, site 0 most
significant in the basis index).  Collisions between neighboring atoms are
ideal diagonal phase gates (lift & shift); lattice shifts LX/LY phase every
adjacent (0,1) pair along rows/columns.  On top of these the module builds
Ramsey interferometry, the 9-qubit Shor-code memory with its full syndrome
table, a fault-tolerant CNOT between blocks, Armada parity checks, and the
sweep constructions (GHZ, QFT).

Gates work on views of the flat state: a single-site gate is one matrix
product on the state viewed as (left, d, right); pair phases read digits
from the basis index and, on qubits, count matching pairs by popcount, so
a lattice shift costs a few passes however many pairs it phases.  User
states have their norm checked; gate results reuse the geometry unchecked.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryMismatch, NonBasisSyndrome, ValidationError

MAX_QUBITS = 20

H_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X_GATE = np.array([[0, 1], [1, 0]], dtype=complex)
Y_GATE = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z_GATE = np.array([[1, 0], [0, -1]], dtype=complex)
# quarter and three-quarter pulses: the quarter pulse is the Hadamard of the
# collision-gate constructions; the three-quarter pulse adds a bit flip,
# which is what removes the sign of the block CNOT
R90_GATE = H_GATE
R270_GATE = X_GATE @ H_GATE


_NAMED_GATES = {
    "H": H_GATE,
    "X": X_GATE,
    "Y": Y_GATE,
    "Z": Z_GATE,
    "R90": R90_GATE,
    "R270": R270_GATE,
}


@dataclass
class LatticeRegister:
    """Statevector register bound to lattice coordinates.

    shape: (n,) for a 1D string or (rows, cols); ``sites`` lists the
    occupied lattice sites (flattened row-major indices) in ascending order;
    ``dims`` gives the level count per occupied site (2, or 3 when the
    transport level r is enabled).  state is flat with site order =
    ``sites`` order, first site most significant.
    """

    shape: tuple
    sites: tuple
    dims: tuple
    state: np.ndarray

    def __post_init__(self):
        self.shape = tuple(self.shape)
        self.sites = tuple(self.sites)
        self.dims = tuple(self.dims)
        n_lattice = int(np.prod(self.shape))
        if any(s < 0 or s >= n_lattice for s in self.sites):
            raise GeometryMismatch("occupied site outside the lattice")
        if len(self.dims) != len(self.sites):
            raise GeometryMismatch("dims/sites length mismatch")
        if len(self.sites) > MAX_QUBITS:
            raise ValidationError(f"register capped at {MAX_QUBITS} sites")
        D = int(np.prod(self.dims)) if self.dims else 1
        self.state = np.asarray(self.state, dtype=complex).reshape(D)
        n = np.linalg.norm(self.state)
        if abs(n - 1.0) > 1e-9:
            raise ValidationError(f"state norm {n} != 1")

    # -- constructors ------------------------------------------------------

    @classmethod
    def basis(cls, shape, bits, mask=None, dims=None) -> "LatticeRegister":
        """Computational basis state; ``bits`` indexed per occupied site."""
        shape = tuple(shape) if np.iterable(shape) else (int(shape),)
        n_lattice = int(np.prod(shape))
        sites = tuple(range(n_lattice)) if mask is None else tuple(int(s) for s in np.flatnonzero(np.asarray(mask).ravel()))
        if dims is None:
            dims = (2,) * len(sites)
        bits = [int(b) for b in bits]
        if len(bits) != len(sites) or not all(0 <= b < d for b, d in zip(bits, dims)):
            raise ValidationError(f"basis needs one digit per occupied site, each below its level count {tuple(dims)}; got {bits}")
        D = int(np.prod(dims)) if dims else 1
        idx = 0
        for b, d in zip(bits, dims):
            idx = idx * d + b
        state = np.zeros(D, dtype=complex)
        state[idx] = 1.0
        return cls(shape=shape, sites=sites, dims=tuple(dims), state=state)

    def _with_state(self, state) -> "LatticeRegister":
        """Register of this geometry holding ``state``, a flat complex array
        the engine computed from this register's state: the geometry and the
        norm are not checked again."""
        reg = object.__new__(LatticeRegister)
        reg.shape, reg.sites, reg.dims, reg.state = self.shape, self.sites, self.dims, state
        return reg

    # -- geometry helpers --------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def rows(self) -> int:
        return self.shape[0] if len(self.shape) == 2 else 1

    @property
    def cols(self) -> int:
        return self.shape[-1]

    def axis_of_site(self, lattice_site: int) -> int:
        """Tensor axis of an occupied lattice site."""
        try:
            return self.sites.index(lattice_site)
        except ValueError:
            raise GeometryMismatch(f"site {lattice_site} is not occupied") from None

    # -- inspection --------------------------------------------------------

    def probabilities(self, axes):
        """Marginal distribution over the listed tensor axes."""
        t = np.abs(self.state.reshape(self.dims)) ** 2
        keep = sorted(axes)
        other = tuple(a for a in range(self.n) if a not in keep)
        return t.sum(axis=other) if other else t


def normalized_global_phase(state):
    """Rotate the global phase so the largest-magnitude amplitude is real
    positive (the convention for codeword comparisons)."""
    state = np.asarray(state, dtype=complex).ravel()
    k = int(np.argmax(np.abs(state)))
    ph = np.exp(-1j * np.angle(state[k]))
    return state * ph


# -- elementary operations -------------------------------------------------


def single_qubit(reg: LatticeRegister, lattice_site: int, gate) -> LatticeRegister:
    """Apply a 2x2 unitary (by name or matrix) to one occupied site.

    The state is viewed as (left, d, right) around the site's axis and the
    gate is one matrix product.  When fewer than 32 amplitudes lie right of
    the site, a stack of that many tiny products is slow, so the view is
    (left, d*right) times kron(U^T, 1_right) instead.
    """
    if isinstance(gate, str):
        if gate not in _NAMED_GATES:
            raise ValidationError(f"unknown gate {gate!r}")
        U = _NAMED_GATES[gate]
    else:
        U = np.asarray(gate, dtype=complex)
    ax = reg.axis_of_site(lattice_site)
    d = reg.dims[ax]
    if U.shape != (2, 2):
        raise ValidationError("single_qubit expects a 2x2 gate")
    if d == 2:
        Ufull = U
    else:  # act on the {0,1} subspace of a 3-level site
        Ufull = np.eye(d, dtype=complex)
        Ufull[:2, :2] = U
    right = math.prod(reg.dims[ax + 1 :])
    if right >= 32:
        out = Ufull @ reg.state.reshape(-1, d, right)
    else:
        out = reg.state.reshape(-1, d * right) @ np.kron(Ufull.T, np.eye(right))
    return reg._with_state(out.reshape(-1))


def _pair_phase_condition(reg: LatticeRegister, pairs_phi, cond=(0, 1), sign=-1.0) -> LatticeRegister:
    """Diagonal phase: each (site_a, site_b, phi) contributes
    exp(sign*i*phi) on basis states with digit(site_a) == cond[0] and
    digit(site_b) == cond[1].

    Digits are read from the basis index, only at the sites the pairs
    touch.  On a register of qubits, with x and y the index or its
    complement as cond asks, the pairs that share phi and the bit offset
    between their sites are counted by one popcount of x & (y shifted by
    the offset) & (their site_a bits).  The phase is looked up by count in
    a table of exp(sign*i*phi*k), which for phi = pi is the real sign (-1)^k.
    """
    idx = np.arange(reg.state.size)
    counts = {}  # phi -> per basis index, the number of pairs it phases
    if all(d == 2 for d in reg.dims) and set(cond) <= {0, 1}:
        x, y = (idx if c == 1 else ~idx for c in cond)
        masks, seen = {}, Counter()
        for sa, sb, phi in pairs_phi:
            sh_a, sh_b = (reg.n - 1 - reg.axis_of_site(s) for s in (sa, sb))
            key = (phi, sh_a - sh_b, seen[phi, sh_a, sh_b])  # a repeated pair goes in another mask
            seen[phi, sh_a, sh_b] += 1
            masks[key] = masks.get(key, 0) | 1 << sh_a
        for (phi, off, _), mask in masks.items():
            aligned = y << off if off >= 0 else y >> -off
            c = np.bitwise_count(x & aligned & mask)  # uint8, at most n
            counts[phi] = counts[phi] + c.astype(np.intp) if phi in counts else c
    else:
        strides = [math.prod(reg.dims[ax + 1 :]) for ax in range(reg.n)]

        def digit(site):
            ax = reg.axis_of_site(site)
            return (idx // strides[ax]) % reg.dims[ax]

        for sa, sb, phi in pairs_phi:
            counts[phi] = counts.get(phi, 0) + ((digit(sa) == cond[0]) & (digit(sb) == cond[1]))
    factor = 1
    for phi, cnt in counts.items():
        k = np.arange(cnt.max() + 1)
        factor = factor * ((-1.0) ** k if phi == np.pi else np.exp(sign * 1j * phi * k))[cnt]
    return reg._with_state(reg.state * factor)


# the unconditioned collision phase: (0, 1) pairs
_pair_phase = _pair_phase_condition


def _shift_pairs(reg: LatticeRegister, phases, vertical: bool):
    """(site, neighbour, phi) for every occupied pair adjacent along a row,
    or along a column when vertical; per-line phases are indexed by the
    column (row when vertical) of the neighbour."""
    occ = set(reg.sites)
    step = reg.cols if vertical else 1
    pairs = []
    for s in reg.sites:
        r, c = divmod(s, reg.cols)
        line, n_lines = (r, reg.rows) if vertical else (c, reg.cols)
        if line + 1 < n_lines and s + step in occ:
            phi = phases[line + 1] if np.iterable(phases) else phases
            pairs.append((s, s + step, float(phi)))
    return pairs


def apply_lx(reg: LatticeRegister, phases=np.pi) -> LatticeRegister:
    """Horizontal lattice shift: phase e^{-i phi} on every row-adjacent
    occupied pair with states (0, 1); empty sites contribute nothing."""
    return _pair_phase(reg, _shift_pairs(reg, phases, vertical=False))


def apply_ly(reg: LatticeRegister, phases=np.pi) -> LatticeRegister:
    """Vertical lattice shift (2D lattices only)."""
    if len(reg.shape) != 2:
        raise GeometryMismatch("apply_ly needs a 2D lattice")
    return _pair_phase(reg, _shift_pairs(reg, phases, vertical=True))


def measure(reg: LatticeRegister, lattice_sites, rng):
    """Projective measurement of the listed sites in the computational basis,
    drawing the outcome from the generator ``rng``.

    Returns (outcomes dict site->digit, collapsed register).
    """
    axes = [reg.axis_of_site(s) for s in lattice_sites]
    probs = reg.probabilities(axes)
    flat = probs.ravel()
    choice = rng.choice(flat.size, p=flat / flat.sum())
    digs = np.unravel_index(choice, probs.shape)
    t = reg.state.reshape(reg.dims)
    sl = [slice(None)] * reg.n
    for ax, dg in zip(sorted(axes), digs):
        sl[ax] = dg
    collapsed = np.zeros_like(t)
    collapsed[tuple(sl)] = t[tuple(sl)]
    collapsed = collapsed.ravel()
    collapsed /= np.linalg.norm(collapsed)
    out = {}
    for s in lattice_sites:
        pos = sorted(axes).index(reg.axis_of_site(s))
        out[s] = int(digs[pos])
    return out, reg._with_state(collapsed)


# -- Ramsey interferometry and random filling ------------------------------


def ramsey_sequence(reg: LatticeRegister, phi: float) -> LatticeRegister:
    """pi/2 pulse, lattice shift by one site, second pi/2 pulse.

    The collision phase is applied as e^{+i phi} per adjacent (0,1) pair;
    this sign reproduces the (1 + e^{i phi})/2 interference amplitudes of
    the neighboring-pair and triplet output states.
    """
    for s in reg.sites:
        reg = single_qubit(reg, s, "H")
    reg = _pair_phase(reg, _shift_pairs(reg, phi, vertical=False), sign=+1.0)
    for s in reg.sites:
        reg = single_qubit(reg, s, "H")
    return reg


def random_fill(shape, eta: float, seed=None):
    """Bernoulli(eta) site occupation and a census of maximal row clusters.

    Returns (mask, census dict cluster_size -> count).  Runs are read off
    the first difference of each zero-padded row: +1 where a run starts,
    -1 one past its end.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError("eta must be in [0, 1]")
    shape = tuple(shape) if np.iterable(shape) else (int(shape),)
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < eta
    rows = mask.reshape(-1, shape[-1])
    padded = np.zeros((rows.shape[0], rows.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = rows
    edges = np.diff(padded, axis=1).ravel()
    lengths = np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)
    sizes, counts = np.unique(lengths, return_counts=True)
    return mask, {int(n): int(c) for n, c in zip(sizes, counts)}


def cluster_scaling_exponent(etas, counts, n_sites: int):
    """Fitted exponent of cluster frequency vs filling factor.

    A maximal N-cluster occurs with probability ~ A eta^N (1-eta)^2 per
    site, so each count is Poisson with mean n_sites (1-eta)^2 A eta^N.
    The exponent N is the maximum-likelihood fit of that log-linear model,
    by Newton steps from the unweighted log-log least-squares line; unlike
    that line, it weighs each filling by its count.
    """
    etas = np.asarray(etas, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if np.any(counts <= 0):
        raise ValidationError("empty cluster counts; increase the sample")
    offset = np.log(n_sites * (1 - etas) ** 2)
    X = np.column_stack([np.ones_like(etas), np.log(etas)])
    beta = np.linalg.lstsq(X, np.log(counts) - offset, rcond=None)[0]
    for _ in range(8):  # quadratic convergence from the least-squares start
        mu = np.exp(offset + X @ beta)
        beta = beta + np.linalg.solve(X.T @ (mu[:, None] * X), X.T @ (counts - mu))
    return float(beta[1])


# -- Shor nine-qubit code --------------------------------------------------

# 3x3 block site layout (row-major):   0 1 2
#                                      3 4 5
#                                      6 7 8
# the encoding layers in order: pulses on the listed sites, or a shift
_ENCODING = (
    ("H", (0, 1, 2, 3, 5, 6, 7, 8)),  # the eight syndrome atoms
    ("LX", ()),
    ("H", (0, 2, 3, 5, 6, 8)),
    ("X", (2, 5, 8)),
    ("LY", ()),
    ("H", (3, 4, 5)),
    ("LX", ()),
    ("H", (3, 5)),
)


def _run_layers(reg: LatticeRegister, layers, lx_phase: float) -> LatticeRegister:
    for gate, sites in layers:
        if gate == "LX":
            reg = apply_lx(reg, lx_phase)
        elif gate == "LY":
            reg = apply_ly(reg, np.pi)
        for s in sites:
            reg = single_qubit(reg, s, gate)
    return reg


def bare_block(alpha: complex, beta: complex) -> LatticeRegister:
    """3x3 block with the central atom carrying alpha|0> + beta|1>, normalised;
    alpha and beta must be finite and not both zero."""
    nrm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if not (np.isfinite(nrm) and nrm > 0):
        raise ValidationError(f"alpha={alpha}, beta={beta}: need finite amplitudes, not both zero")
    state = np.zeros(512, dtype=complex)
    state[0], state[1 << (8 - 4)] = alpha / nrm, beta / nrm
    return LatticeRegister((3, 3), tuple(range(9)), (2,) * 9, state)


def shor_encode(reg: LatticeRegister, lx_phase: float = np.pi) -> LatticeRegister:
    """Encode a bare 3x3 block into the lattice Shor code.

    Pulse/shift sequence (all collision phases pi): Hadamards on the eight
    outer atoms, horizontal shift, Hadamards on the corner/edge set with bit
    flips on the right column, vertical shift, Hadamards on the middle row,
    horizontal shift, Hadamards on the middle-row edges.
    """
    if reg.shape != (3, 3) or reg.n != 9:
        raise GeometryMismatch("shor_encode needs a fully occupied 3x3 block")
    return _run_layers(reg, _ENCODING, lx_phase)


def shor_decode(reg: LatticeRegister, lx_phase: float = np.pi) -> LatticeRegister:
    """Inverse of shor_encode: its layers in reverse order (each is
    self-inverse)."""
    return _run_layers(reg, _ENCODING[::-1], lx_phase)


def logical_codewords():
    """(|0_L>, |1_L>) of the lattice code as 512-component vectors."""
    zero = shor_encode(bare_block(1.0, 0.0)).state
    one = shor_encode(bare_block(0.0, 1.0)).state
    return zero, one


_RESIDUAL_FORMS = {
    "a0+b1": np.array([[1, 0], [0, 1]], dtype=complex),
    "a0-b1": np.array([[1, 0], [0, -1]], dtype=complex),
    "a1+b0": np.array([[0, 1], [1, 0]], dtype=complex),
    "a1-b0": np.array([[0, 1], [-1, 0]], dtype=complex),
}
# the listed map M sends (alpha, beta) to the residual; the correction is its
# inverse
_CORRECTIONS = {k: np.linalg.inv(M) for k, M in _RESIDUAL_FORMS.items()}


@dataclass
class SyndromeRecord:
    syndrome: str  # bits of atoms (1,2,3, 4,6, 7,8,9) formatted "abc de fgh"
    residual: str  # one of a0+b1, a0-b1, a1+b0, a1-b0
    correction: np.ndarray = field(repr=False)
    central_state: np.ndarray = field(repr=False)


def shor_decode_and_syndrome(reg: LatticeRegister, alpha: complex, beta: complex, lx_phase: float = np.pi) -> SyndromeRecord:
    """Decode a (possibly corrupted) block and read the error syndrome.

    The eight non-central atoms must land in a deterministic basis state;
    the central qubit is classified against the four residual forms of
    (alpha, beta) up to global phase.
    """
    dec = shor_decode(reg, lx_phase)
    t = dec.state.reshape((2,) * 9)
    central_ax = 4
    probs = np.abs(t) ** 2
    marg = probs.sum(axis=central_ax)
    flat = marg.ravel()
    k = int(np.argmax(flat))
    if abs(flat[k] - 1.0) > 1e-8:
        raise NonBasisSyndrome(f"syndrome register not a basis state (p_max={flat[k]:.6f})")
    bits = list(np.unravel_index(k, (2,) * 8))
    sl = bits[:central_ax] + [slice(None)] + bits[central_ax:]
    central = np.asarray(t[tuple(sl)]).ravel()
    central = central / np.linalg.norm(central)

    v = np.array([alpha, beta], dtype=complex)
    v = v / np.linalg.norm(v)
    best = None
    for name, M in _RESIDUAL_FORMS.items():
        ov = abs(np.vdot(M @ v, central))
        if best is None or ov > best[1]:
            best = (name, ov)
    name, ov = best
    if ov**2 < 1.0 - 1e-8:
        raise NonBasisSyndrome(f"central residual matches no tabulated form (best {name}, |ov|^2={ov**2:.6f})")
    syn = "".join(str(b) for b in bits)
    return SyndromeRecord(
        syndrome=f"{syn[0:3]} {syn[3:5]} {syn[5:8]}",
        residual=name,
        correction=_CORRECTIONS[name],
        central_state=central,
    )


def apply_pauli_error(reg: LatticeRegister, kind: str, atom: int) -> LatticeRegister:
    """Single-site Pauli error; ``atom`` is 1-based as in the syndrome table."""
    if kind not in ("x", "y", "z"):
        raise ValidationError("kind must be x, y or z")
    return single_qubit(reg, atom - 1, kind.upper())


def syndrome_table(alpha: complex = 1.0, beta: complex = 0.0, lx_phase: float = np.pi):
    """All 27 single-Pauli syndromes: list of (error_label, syndrome, residual).

    The block is encoded once; each error acts on that encoded block and
    leaves it unchanged for the next one.
    """
    enc = shor_encode(bare_block(alpha, beta), lx_phase)
    rows = []
    for kind in ("x", "y", "z"):
        for atom in range(1, 10):
            err = apply_pauli_error(enc, kind, atom)
            rec = shor_decode_and_syndrome(err, alpha, beta, lx_phase)
            rows.append((f"s{kind},{atom}", rec.syndrome, rec.residual))
    return rows


# -- fault-tolerant CNOT and Armada parity checks --------------------------


def shor_codewords_standard():
    """GHZ-product Shor codewords (|0_S>, |1_S>) as 512-component vectors."""
    plus = np.zeros(8)
    plus[0] = plus[7] = 1.0
    minus = np.zeros(8)
    minus[0], minus[7] = 1.0, -1.0
    zero = np.kron(np.kron(plus, plus), plus) / np.sqrt(8)
    one = np.kron(np.kron(minus, minus), minus) / np.sqrt(8)
    return zero.astype(complex), one.astype(complex)


def two_block_register(control_state, target_state) -> LatticeRegister:
    """18-qubit register: control block on rows 0-2, target on rows 3-5."""
    state = np.kron(np.asarray(control_state).ravel(), np.asarray(target_state).ravel())
    return LatticeRegister((6, 3), tuple(range(18)), (2,) * 18, state)


def ft_cnot(reg: LatticeRegister, exact_sign: bool = True) -> LatticeRegister:
    """Transversal CNOT between two stacked 9-atom blocks.

    A pulse is applied to the control block, the blocks are moved on top of
    each other so every corresponding atom pair acquires a pi collision
    phase, and a closing pulse is applied.  With the three-quarter closing
    pulse (exact_sign=True) the logical action is exactly CNOT; with the
    quarter pulse it is CNOT with a minus sign on the control-1 branch.
    """
    if reg.shape != (6, 3) or reg.n != 18:
        raise GeometryMismatch("ft_cnot needs two stacked 3x3 blocks (6x3)")
    for s in range(9):
        reg = single_qubit(reg, s, "H")
    pairs = [(s, s + 9, np.pi) for s in range(9)]  # phase when control=1, target=0
    reg = _pair_phase_condition(reg, pairs, cond=(1, 0))
    for s in range(9):
        reg = single_qubit(reg, s, "H")
    if exact_sign:
        for s in range(9):
            reg = single_qubit(reg, s, "X")
    return reg


def armada_parity_check(block_state, kind: str = "spin-flip", seed=None):
    """Parity extraction with an armada of 3x2 Bell-pair ancillas.

    spin-flip: each row's ancilla pair collides with the first two atoms of
    that block row and returns the Z-parity of those atoms; a single bit
    flip in the probed columns flips the row parity with certainty.
    phase-flip: the block is Hadamard-rotated, a 6-atom GHZ armada collides
    with the first two rows and returns their collective parity.

    Returns (parities, post-measurement block state as a 512-vector).
    """
    block = np.asarray(block_state, dtype=complex).ravel()
    if block.size != 512:
        raise GeometryMismatch("armada_parity_check needs a 9-qubit block state")
    if kind not in ("spin-flip", "phase-flip"):
        raise ValidationError("kind must be 'spin-flip' or 'phase-flip'")
    rng = np.random.default_rng(seed)
    reg0 = LatticeRegister((3, 3), tuple(range(9)), (2,) * 9, block)

    if kind == "spin-flip":
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        anc = np.kron(np.kron(bell, bell), bell)
        # ancilla sites 9..14: rows (9,10), (11,12), (13,14)
        pairs = [(9 + 2 * row + col, 3 * row + col, np.pi) for row in range(3) for col in range(2)]
    else:
        for s in range(9):
            reg0 = single_qubit(reg0, s, "H")
        anc = np.zeros(64)
        anc[0] = anc[63] = 1 / np.sqrt(2)
        # the rotated codewords have deterministic parity only over complete
        # rows, so the GHZ armada probes the six atoms of the first two rows
        pairs = [(9 + k, k, np.pi) for k in range(6)]
    reg = LatticeRegister((5, 3), tuple(range(15)), (2,) * 15, np.kron(reg0.state, anc))
    reg = _pair_phase_condition(reg, pairs, cond=(0, 1))
    for a in range(9, 15):
        reg = single_qubit(reg, a, "H")
    out, reg = measure(reg, list(range(9, 15)), rng=rng)
    if kind == "spin-flip":
        parities = tuple((out[9 + 2 * r] + out[10 + 2 * r]) % 2 for r in range(3))
    else:
        parities = (sum(out.values()) % 2,)

    # strip the (now product) ancillas and, for phase-flip, undo the rotation
    t = reg.state.reshape(512, 64)
    col = int(np.argmax(np.linalg.norm(t, axis=0)))
    post = t[:, col]
    post = post / np.linalg.norm(post)
    if kind == "phase-flip":
        pr = reg0._with_state(post)
        for s in range(9):
            pr = single_qubit(pr, s, "H")
        post = pr.state
    return parities, post


# -- sweep constructions ---------------------------------------------------


def sweep(phases) -> LatticeRegister:
    """Sweep a selected 3-level atom across a string of N = len(phases) atoms.

    Selected atom starts in (|0> + |r>)/sqrt(2), the string in (|0>+|1>)
    per atom; transporting the |r> branch applies phase phases[j] to string
    atom j's |1> component.
    """
    phases = [float(p) for p in np.atleast_1d(phases)]
    N = len(phases)
    if N + 1 > MAX_QUBITS:  # refuse before the 2^N arrays are built
        raise ValidationError(f"register capped at {MAX_QUBITS} sites, the sweep needs {N + 1}")
    # the string's state on each branch is a product, so the phases are too
    plus = np.full(2**N, 2 ** (-N / 2), dtype=complex)
    swept = functools.reduce(np.kron, [np.exp(1j * np.array([0.0, p])) / np.sqrt(2) for p in phases], np.ones(1))
    state = np.concatenate([plus, 0 * plus, swept]) / np.sqrt(2)  # level 2 is the transport level r
    return LatticeRegister((N + 1,), tuple(range(N + 1)), (3,) + (2,) * N, state)


def ghz_from_sweep(N: int):
    """(N+1)-party GHZ state from a pi-phase sweep plus local rotations.

    Returns a 2^(N+1) statevector with the transport level relabeled |1>.
    """
    if not 1 <= N < MAX_QUBITS:  # refuse before the N phases are listed
        raise ValidationError(f"ghz_from_sweep needs 1 <= N <= {MAX_QUBITS - 1} string atoms, got {N!r}")
    reg = sweep([np.pi] * N)
    for j in range(1, N + 1):
        reg = single_qubit(reg, j, "H")
    t = reg.state.reshape(reg.dims)
    out = np.zeros((2,) * (N + 1), dtype=complex)
    out[0] = t[0]
    out[1] = t[2]
    leak = np.linalg.norm(t[1])
    if leak > 1e-12:
        raise ValidationError(f"selected atom leaked into |1> ({leak:.2e})")
    return out.ravel()


def sweep_qft(source_bits):
    """Fourier-transform phases written onto a fresh target register.

    source_bits a_1..a_m is a classical basis state; target atom j ends in
    (|0> + e^{2 pi i 0.a_j...a_m}|1>)/sqrt(2).  Returns (state over the m
    target qubits, tracked scalar phase Phi(a) = 0 in the lift & shift
    model).
    """
    a = [int(b) for b in source_bits]
    if any(b not in (0, 1) for b in a):
        raise ValidationError("source must be a computational basis state")
    m = len(a)
    amps1 = []
    for j in range(m):
        frac = sum(a[l] / 2 ** (l - j + 1) for l in range(j, m))
        amps1.append(np.exp(2j * np.pi * frac))
    state = np.array([1.0], dtype=complex)
    for j in range(m):
        state = np.kron(state, np.array([1.0, amps1[j]], dtype=complex) / np.sqrt(2))
    return state, 0.0


# -- circuit scripts -------------------------------------------------------


def run_script(text: str, seed=None):
    """Execute a line-oriented circuit script.

    Commands: INIT <n|RxC> <bits>; H j; X j; Z j; LX phi; LY phi;
    SWEEP phi1,phi2,...; MEASURE j [j ...].  '#' starts a comment.
    Returns dict with the final register and measurement outcomes.
    """
    rng = np.random.default_rng(seed)
    reg = None
    outcomes = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        cmd = parts[0].upper()
        try:
            if cmd == "INIT":
                geom = parts[1]
                shape = tuple(int(v) for v in geom.lower().split("x")) if "x" in geom.lower() else (int(geom),)
                bits = [int(c) for c in parts[2]]
                reg = LatticeRegister.basis(shape, bits)
            elif cmd in ("H", "X", "Z"):
                reg = single_qubit(reg, int(parts[1]), cmd)
            elif cmd == "LX":
                reg = apply_lx(reg, float(parts[1]))
            elif cmd == "LY":
                reg = apply_ly(reg, float(parts[1]))
            elif cmd == "SWEEP":
                phis = [float(v) for v in parts[1].split(",")]
                reg = sweep(phis)
            elif cmd == "MEASURE":
                out, reg = measure(reg, [int(v) for v in parts[1:]], rng=rng)
                outcomes.append(out)
            else:
                raise ValidationError(f"unknown command {cmd!r}")
        except (TypeError, AttributeError) as e:
            raise ValidationError(f"script line {ln}: {e}") from e
    return {"register": reg, "measurements": outcomes}
