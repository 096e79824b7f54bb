"""The one-round protocol instance, and its exact case for group-structured blocks.

An instance controls blocks of a family over a right quasigroup, a group included.
Both parties consume one rank-N maximally entangled pair and make one
simultaneous exchange of measurement outcomes.  When the controlled operators
form a subset of a projective representation of a finite group, every branch
reproduces the target unitary exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import sparse

from .algebra import FiniteGroup, ProjectiveRep, RightQuasigroup
from .errors import DimensionMismatch, NonOrthogonalProjectors, TooLarge, UnsupportedInput
from .qsim import (
    Branches,
    PureState,
    RegisterLayout,
    apply_controlled,
    apply_map,
    apply_on,
    apply_on_rows,
    fourier_gate,
    is_unitary,
    maximally_entangled,
    measure_registers,
    operator_norm,
    product_state,
    shift_gate,
)

SUPPORT_TOL = 1e-12
FLAT_ENTRY_TOL = 1e-10
ANCILLAS = ("a", "b")      # the entangled pair's halves: Alice's a, Bob's b
# largest round state, d_a * d_b * N^2 amplitudes (64 MiB), that one basis input may reach:
# an N = 72 spec with three terms needs 31 104, a compiled plan of three qubit blocks at
# N = 432 1.1 M; one at N = 2592 (40 M) is refused before any gate is built
MAX_AMPLITUDES = 1 << 22


def correction_phases(fourier: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Diagonal control-register gates of every branch (l, m), as an (N*N, d_a, d_a) stack.

    ``products[l, i]`` is l*k for the term label k of control state i, or -1
    where state i carries no term.  Branch (l, m) puts conj(sqrt(N) F[m, l*k])
    on state i, which cancels the phase any flat unitary F (all entries of
    modulus 1/sqrt(N)) left there; with the standard Fourier gate it is
    exp(-2*pi*i*m*(l*k)/N).  States without a term get phase 1.
    """
    n, d_a = products.shape
    phases = np.conj(math.sqrt(n) * fourier[np.arange(n)[:, None], products[:, None, :]])
    phases[:, :, products[0] < 0] = 1.0
    return phases.reshape(n * n, 1, d_a) * np.eye(d_a)


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Every measurement branch of one protocol run against the state it must leave.

    A branch with a-outcome l must equal row l of ``expected`` (amplitudes on
    the branches' layout), or its one row when every branch must be the same.
    """

    branches: Branches        # outcomes (l, m) of the ancillas (a, b)
    expected: np.ndarray      # (N, dim) or (1, dim)
    max_deviation: float
    uniformity_error: float   # largest |p - 1/N^2| over the branches
    l_marginals: np.ndarray   # probability of each outcome l
    cost_ebits: float


def run_record(spec: QuasigroupProtocolSpec, branches: Branches, expected: np.ndarray) -> RunRecord:
    """Check each branch against ``expected`` (see ``RunRecord``) and its probability against 1/N^2."""
    n, ls = spec.order, branches.outcomes[:, 0]
    deviations = np.linalg.norm(branches.posts - (expected if len(expected) == 1 else expected[ls]),
                                axis=1)
    uniformity = np.abs(branches.probabilities - 1.0 / (n * n))
    return RunRecord(branches=branches, expected=expected,
                     max_deviation=float(deviations.max(initial=0.0)),
                     uniformity_error=float(uniformity.max(initial=0.0)),
                     l_marginals=np.bincount(ls, weights=branches.probabilities, minlength=n),
                     cost_ebits=spec.cost_ebits())


def check_input(spec: QuasigroupProtocolSpec, state: PureState, control: str, target: str) -> None:
    """Raise DimensionMismatch unless ``control`` and ``target`` have the spec's dims, and
    UnsupportedInput if the control register has weight on its ``unsupported`` states."""
    layout, unsupported = state.layout, list(spec.unsupported)
    for name, dim in ((control, spec.d_a), (target, spec.d_b)):
        if layout.dim_of(name) != dim:
            raise DimensionMismatch(f"register {name} has dim {layout.dim_of(name)}, expected {dim}")
    if not unsupported:
        return
    axis = layout.axis(control)
    t = np.moveaxis(state.tensor(), axis, 0).reshape(layout.dims[axis], -1)
    mass = float(np.sum(np.abs(t[unsupported]) ** 2))
    if mass > SUPPORT_TOL:
        raise UnsupportedInput(
            f"input has probability {mass:.3e} on unsupported control states {unsupported}")


@dataclass(frozen=True, eq=False)
class OneRoundBlocks:
    """Block stacks of one instance of the one-round protocol with rank-N ancillas a, b.

    ``shifts[i]`` acts on a when the control reads i, ``reps[j]`` on the target
    when b reads j.  In branch (l, m), ``phases[l*N + m]`` acts on the control
    and ``undo[l]`` on the target.
    """

    shifts: np.ndarray        # (d_a, N, N)
    reps: np.ndarray          # (N, d_b, d_b)
    fourier: np.ndarray       # (N, N), on b
    phases: np.ndarray        # (N*N, d_a, d_a), diagonal
    undo: np.ndarray          # (N, d_b, d_b)


def one_round_circuit(state: PureState, blocks: OneRoundBlocks, control: str,
                      target: str) -> PureState:
    """Opening shared by every protocol: entangled pair, both controlled gates, Fourier on b.

    The ancillas a and b are appended after the input registers.  The
    corrections and the measurement are left to the caller.
    """
    full = product_state(state, maximally_entangled(blocks.fourier.shape[0], names=ANCILLAS))
    # Alice: shift the a ancilla conditioned on the control register
    full = apply_controlled(full, blocks.shifts, control, "a")
    # Bob: representation matrix on the target conditioned on the b ancilla
    full = apply_controlled(full, blocks.reps, "b", target)
    return apply_on(full, blocks.fourier, "b")


def correction_steps(blocks: OneRoundBlocks, control: str, target: str, undo_on: str) -> tuple:
    """Every branch's corrections as ``apply_controlled`` arguments, run before (a, b) is measured.

    Deferred measurement: the phases are controlled on (a, b), and the undo
    on ``undo_on``, the ancilla a or any register that holds a copy of its
    outcome l.  The caller applies them and rebinds its state after each
    gate, so no earlier state is held while the next one is built.
    """
    return (blocks.phases, ANCILLAS, control), (blocks.undo, undo_on, target)


def circuit_map(circuit, d_control: int, d_target: int) -> sparse.csr_matrix:
    """Linear map of a circuit on (control, target), from one gate-by-gate run per basis input.

    ``circuit(state, control, target)`` appends its ancillas after the input
    registers; its output on basis input j becomes column j of the map.  One
    run at a time holds no more than a run on any input state would.
    Returns the read-only CSR matrix that ``qsim.apply_map`` takes, rows over
    (control, target, ancillas), exact zeros dropped.
    """
    layout = RegisterLayout.of(("control", d_control), ("target", d_target))
    columns = [sparse.csc_matrix(circuit(PureState(layout, basis), "control", "target").amps[:, None])
               for basis in np.eye(layout.dim, dtype=complex)]
    matrix = sparse.hstack(columns, format="csr")
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.setflags(write=False)
    return matrix


def compile_round(blocks: OneRoundBlocks) -> sparse.csr_matrix:
    """The round's map on (control, target): the opening and every correction, before
    (a, b) is measured, built from the gates by ``circuit_map``."""
    def circuit(state: PureState, control: str, target: str) -> PureState:
        full = one_round_circuit(state, blocks, control, target)
        for step in correction_steps(blocks, control, target, "a"):
            full = apply_controlled(full, *step)
        return full

    return circuit_map(circuit, len(blocks.shifts), blocks.reps.shape[1])


def one_round_gates(rep: ProjectiveRep, labels, fourier: np.ndarray | None = None) -> OneRoundBlocks:
    """Every local gate of the one-round protocol as block stacks, each checked unitary.

    ``labels[i]`` is the term label k of control state i, or None for a state
    without a term (identity shift, phase 1).  Alice's shift for k sends |j>
    to lam(l, k)|l>, l = l(j, k) the left quotient (l*k = j), with lam = 1
    for a family without a factor system; branch (l, m) undoes V_l^dag.
    Since V_l^dag V_{l*k} = V_k / lam(l, k), the weight cancels and every
    branch of a group protocol is exactly the target.  Only the term,
    left-division and lam columns of each k are read.  ``fourier`` defaults
    to the standard Fourier gate.  Raises ``TooLarge`` before any gate is
    built when the round's state on one basis input, d_a * d_b * N^2
    amplitudes, exceeds ``MAX_AMPLITUDES``: every runner builds its gates here.
    """
    structure, mats = rep.structure, rep.matrices
    n = structure.order
    amplitudes = len(labels) * rep.dim * n * n
    if amplitudes > MAX_AMPLITUDES:
        raise TooLarge(
            f"the round of an order-{n} spec holds d_a * d_b * N^2 = {amplitudes} amplitudes "
            f"({amplitudes * 16 / 2 ** 30:.1f} GiB) per basis input, above the cap of "
            f"{MAX_AMPLITUDES}")
    fourier = fourier_gate(n) if fourier is None else fourier
    lam = None if rep.factor_system is None else rep.factor_system.lam
    shifts = np.zeros((len(labels), n, n), dtype=complex)
    products = np.full((n, len(labels)), -1)
    for i, k in enumerate(labels):
        if k is None:
            shifts[i] = np.eye(n)
            continue
        ldiv = structure.ldiv_column(k)
        shifts[i, ldiv, np.arange(n)] = 1.0 if lam is None else lam[ldiv, k]
        products[:, i] = structure.column(k)
    phases = correction_phases(fourier, products)
    for name, stack in (("fourier", fourier), ("shift", shifts), ("correction", phases)):
        if not is_unitary(stack):
            raise DimensionMismatch(f"a {name} gate failed the unitarity check")
    return OneRoundBlocks(shifts=shifts, reps=mats, fourier=fourier, phases=phases,
                          undo=mats.conj().transpose(0, 2, 1))


def round_state(spec: QuasigroupProtocolSpec, state: PureState, control: str, target: str,
                compiled: sparse.csr_matrix) -> PureState:
    """The state after one protocol round on ``state``, before (a, b) is measured.

    The input may contain spectator registers, but none named a or b; the
    protocol touches only ``control``, ``target`` and the two fresh rank-N
    ancillas (see ``check_input``), appended after the input's registers.
    The compiled map (``compile_round``) runs the whole round on (control, target).
    """
    check_input(spec, state, control, target)
    names = state.layout.names
    if set(ANCILLAS) & set(names):
        raise DimensionMismatch(f"input registers {names} reuse an ancilla name {ANCILLAS}")
    return apply_map(state, compiled, (control, target),
                     RegisterLayout.of(*((name, spec.order) for name in ANCILLAS)))


def run_one_round(spec: QuasigroupProtocolSpec, state: PureState, control: str, target: str,
                  compiled: sparse.csr_matrix) -> Branches:
    """Every branch of one protocol round on ``state``, from one measurement of (a, b) of
    ``round_state``; each branch's post state is final."""
    return measure_registers(round_state(spec, state, control, target, compiled), ANCILLAS)


@dataclass(frozen=True, eq=False)
class QuasigroupProtocolSpec:
    """Controlled unitary whose blocks come from a family over a right quasigroup, groups included.

    ``term_map[i]`` is the family label controlled by basis state ``|i>`` of the
    control register, or None for a state without a term; repeats are allowed
    (redundant terms).  The control register has one basis state per entry.
    States without a term are ``unsupported``: an input must carry no weight
    there.
    """

    quasigroup: RightQuasigroup
    rep: ProjectiveRep
    term_map: tuple[int | None, ...]

    def __post_init__(self):
        if self.rep.structure is not self.quasigroup:
            raise DimensionMismatch("representation must be defined over the given structure")
        active = [k for k in self.term_map if k is not None]
        if not active:
            raise DimensionMismatch("need at least one term")
        if any(not 0 <= k < self.order for k in active):
            raise DimensionMismatch("term labels must be valid elements of the structure")

    @property
    def d_a(self) -> int:
        return len(self.term_map)

    @property
    def represented(self) -> tuple[int, ...]:
        return tuple(sorted({k for k in self.term_map if k is not None}))

    @property
    def order(self) -> int:
        return self.quasigroup.order

    @property
    def d_b(self) -> int:
        return self.rep.dim

    @property
    def labels(self) -> tuple[int | None, ...]:
        """The term label of each control state, None where it has no term: the term map."""
        return self.term_map

    @property
    def unsupported(self) -> tuple[int, ...]:
        """The control states without a term."""
        return tuple(i for i, k in enumerate(self.term_map) if k is None)

    @cached_property
    def target_matrix(self) -> np.ndarray:
        """Dense control (x) target matrix, unitary through identity blocks on unsupported
        states, formed on first use and read-only."""
        out = self.embed_terms(self.term_matrices()[None])[0]
        out.setflags(write=False)
        return out

    @cached_property
    def term_blocks(self) -> np.ndarray:
        """Blocks lam(l, k) V_l^dag V_{l*k} of every outcome l and term, formed once and read-only.

        An (N, d_a, d_b, d_b) stack; entry (l, i) is the block that branch l
        applies in place of V_k, k the label of control state i, and the
        identity where state i has no term.  lam = 1 without a factor system;
        with one, lam(l, k) V_l^dag V_{l*k} = V_k.  The only place the branch
        blocks are formed.
        """
        mats, d_b = self.rep.matrices, self.d_b
        active = [i for i, k in enumerate(self.term_map) if k is not None]
        terms = [self.term_map[i] for i in active]
        products = np.stack([self.quasigroup.column(k) for k in terms], axis=1)
        blocks = np.einsum("lab,libc->liac", mats.conj().transpose(0, 2, 1), mats[products])
        if self.rep.factor_system is not None:
            blocks *= self.rep.factor_system.lam[:, terms, None, None]
        stack = np.tile(np.eye(d_b, dtype=complex), (self.order, self.d_a, 1, 1))
        stack[:, active] = blocks
        stack.setflags(write=False)
        return stack

    def embed_terms(self, blocks: np.ndarray) -> np.ndarray:
        """Block-diagonal control (x) target matrices of a (B, d_a, d_b, d_b) stack, block i on i."""
        d_a, d_b = self.d_a, self.d_b
        out = np.zeros((len(blocks), d_a, d_b, d_a, d_b), dtype=complex)
        for i in range(d_a):
            out[:, i, :, i, :] = blocks[:, i]
        return out.reshape(len(blocks), d_a * d_b, d_a * d_b)

    def term_matrices(self) -> np.ndarray:
        """(d_a, d_b, d_b) stack: V_k for each control state's label k, the identity without one."""
        mats = self.rep.matrices
        return np.stack([np.eye(self.d_b, dtype=complex) if k is None else mats[k]
                         for k in self.term_map])

    def cost_ebits(self) -> float:
        """Entanglement consumed: log2 of the structure's order, independent of the terms."""
        return math.log2(self.order)

    @cached_property
    def compiled(self) -> sparse.csr_matrix:
        """The round's read-only map with the standard Fourier gate, compiled on first use
        (``compile_round``)."""
        return compile_round(one_round_gates(self.rep, self.term_map))

    @cached_property
    def branch_stack(self) -> np.ndarray:
        """Branch unitary of every outcome l, (N, d, d), checked unitary once and read-only."""
        stack = self.embed_terms(self.term_blocks)
        if not is_unitary(stack):
            raise DimensionMismatch("a branch unitary failed the unitarity check")
        stack.setflags(write=False)
        return stack


@dataclass(frozen=True, eq=False)
class ControlledGroupUnitary(QuasigroupProtocolSpec):
    """A spec over a finite group; its representation carries the group's factor system.

    ``term_map[i]`` is the group element controlled by basis state ``|i>`` of
    the control register, or None for basis states outside the protocol's
    support; the labels are distinct.  Every branch block is V_k, so every branch
    reproduces the target.
    """

    def __post_init__(self):
        super().__post_init__()
        if not isinstance(self.quasigroup, FiniteGroup):
            raise DimensionMismatch("representation must be defined over a group")
        if len(set(self.subset)) != len(self.subset):
            raise DimensionMismatch("control labels must be distinct group elements")

    @classmethod
    def from_subset(cls, group: FiniteGroup, rep: ProjectiveRep, subset) -> "ControlledGroupUnitary":
        return cls(group, rep, tuple(sorted(int(k) for k in subset)))

    @property
    def group(self) -> FiniteGroup:
        return self.quasigroup

    @property
    def subset(self) -> tuple[int, ...]:
        return tuple(k for k in self.term_map if k is not None)


def run_exact_protocol(cgu: ControlledGroupUnitary, state: PureState,
                       control: str = "A", target: str = "B",
                       fourier: np.ndarray | None = None) -> RunRecord:
    """Simulate every branch of the protocol on the given input state (see ``run_one_round``).

    Every branch must equal the target unitary applied directly (exact
    equality, no global-phase allowance).  The standard Fourier gate uses the
    instance's cached map; a replacement gate is compiled for this call.
    """
    if fourier is None:
        compiled = cgu.compiled
    else:       # one_round_gates checks the gate unitary, after its size cap
        fourier, n = np.asarray(fourier, dtype=complex), cgu.order
        if fourier.shape != (n, n) or \
                not np.abs(np.abs(fourier) - 1 / math.sqrt(n)).max() <= FLAT_ENTRY_TOL:
            raise DimensionMismatch("replacement Fourier gate must be N x N with flat entries")
        compiled = compile_round(one_round_gates(cgu.rep, cgu.term_map, fourier))
    branches = run_one_round(cgu, state, control, target, compiled)
    return run_record(cgu, branches, apply_on(state, cgu.target_matrix, (control, target)).amps[None])


@dataclass(frozen=True, eq=False)
class HighRankControlledUnitary:
    """Controlled unitary with orthogonal projector controls of any rank."""

    projectors: tuple[np.ndarray, ...]
    group: FiniteGroup
    rep: ProjectiveRep
    subset: tuple[int, ...]

    def __post_init__(self):
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        object.__setattr__(self, "projectors", projs)
        if not projs or len(projs) != len(self.subset):
            raise DimensionMismatch("need at least one projector and one group label per projector")
        if any(not 0 <= k < self.group.order for k in self.subset):
            raise DimensionMismatch("projector labels must be elements of the group")
        d_a = projs[0].shape[0]
        total = np.zeros((d_a, d_a), dtype=complex)
        for i, p in enumerate(projs):
            if p.shape != (d_a, d_a):
                raise DimensionMismatch("projectors act on different spaces")
            if operator_norm(p @ p - p) > 1e-10 or operator_norm(p - p.conj().T) > 1e-10:
                raise NonOrthogonalProjectors(f"operator {i} is not an orthogonal projector")
            total += p
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if operator_norm(projs[i] @ projs[j]) > 1e-10:
                    raise NonOrthogonalProjectors(f"projectors {i} and {j} overlap")
        if operator_norm(total - np.eye(d_a)) > 1e-9:
            raise NonOrthogonalProjectors("projectors do not resolve the identity")

    @property
    def d_a(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def d_b(self) -> int:
        return self.rep.dim

    @cached_property
    def target_matrix(self) -> np.ndarray:
        """Dense control (x) target matrix sum_k P_k (x) V_k, formed on first use and read-only."""
        out = np.zeros((self.d_a * self.d_b,) * 2, dtype=complex)
        for p, k in zip(self.projectors, self.subset):
            out += np.kron(p, self.rep.matrices[k])
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class LiftedProtocol:
    """Reduction of high-rank projector controls to rank-1 controls on an ancilla.

    ``pre`` writes the which-projector information onto a fresh ancilla E,
    ``cgu`` is the rank-1 protocol instance on (E, target), and ``post`` is the
    inverse of ``pre``.
    """

    pre: np.ndarray
    cgu: ControlledGroupUnitary
    post: np.ndarray
    source: HighRankControlledUnitary

    @property
    def ancilla_dim(self) -> int:
        return len(self.source.projectors)


def lift_highrank(h: HighRankControlledUnitary) -> LiftedProtocol:
    """Build the pre and post local unitaries and the rank-1 protocol instance."""
    n_proj = len(h.projectors)
    pre = np.zeros((h.d_a * n_proj,) * 2, dtype=complex)
    for t, p in enumerate(h.projectors):
        pre += np.kron(p, shift_gate(n_proj, step=-t))
    if not is_unitary(pre):
        raise NonOrthogonalProjectors("projector family does not define a unitary transfer")
    cgu = ControlledGroupUnitary(h.group, h.rep, tuple(h.subset))
    return LiftedProtocol(pre=pre, cgu=cgu, post=pre.conj().T, source=h)


def run_lifted_protocol(lifted: LiftedProtocol, state: PureState,
                        control: str = "A", target: str = "B",
                        ancilla: str = "E") -> RunRecord:
    """Run pre, the rank-1 protocol on (ancilla, target), then post on every branch; each
    branch must leave the target applied to the input, with the ancilla back in |0>."""
    h = lifted.source
    layout = state.layout
    if layout.dim_of(control) != h.d_a or layout.dim_of(target) != h.d_b:
        raise DimensionMismatch("input registers do not match the controlled unitary")
    zero_e = np.zeros(lifted.ancilla_dim, dtype=complex)
    zero_e[0] = 1.0
    full = PureState(layout.extended((ancilla, lifted.ancilla_dim)), np.kron(state.amps, zero_e))
    full = apply_on(full, lifted.pre, (control, ancilla))
    exact = run_exact_protocol(lifted.cgu, full, control=ancilla, target=target).branches
    finals = apply_on_rows(exact.posts, exact.layout, lifted.post, (control, ancilla))
    expected = np.kron(apply_on(state, h.target_matrix, (control, target)).amps, zero_e)
    return run_record(lifted.cgu, replace(exact, posts=finals), expected[None])
