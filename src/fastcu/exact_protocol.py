"""Exact one-round protocol for controlled unitaries with group-structured blocks.

The controlled operators form a subset of a projective representation of a
finite group.  Both parties consume one rank-N maximally entangled pair, make
one simultaneous exchange of measurement outcomes, and every branch reproduces
the target unitary exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import FiniteGroup, ProjectiveRep
from .errors import (
    DimensionMismatch,
    MissingFactorSystem,
    NonOrthogonalProjectors,
    UnsupportedInput,
)
from .qsim import (
    PureState,
    RegisterLayout,
    apply_on,
    controlled_gate,
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


@dataclass(frozen=True, eq=False)
class ControlledGroupUnitary:
    """Controlled unitary whose blocks are representation matrices of a group.

    ``labels[i]`` is the group element controlled by basis state ``|i>`` of the
    control register, or None for basis states outside the protocol's support.
    """

    group: FiniteGroup
    rep: ProjectiveRep
    labels: tuple[int | None, ...]

    def __post_init__(self):
        if not isinstance(self.rep.structure, FiniteGroup) or self.rep.structure is not self.group:
            raise DimensionMismatch("representation must be defined over the given group")
        active = [k for k in self.labels if k is not None]
        if not active:
            raise DimensionMismatch("at least one control basis state must carry a label")
        if len(set(active)) != len(active):
            raise DimensionMismatch("control labels must be distinct group elements")
        if any(not 0 <= k < self.group.order for k in active):
            raise DimensionMismatch("control labels must be valid group elements")

    @classmethod
    def from_subset(cls, group: FiniteGroup, rep: ProjectiveRep, subset) -> "ControlledGroupUnitary":
        return cls(group, rep, tuple(sorted(int(k) for k in subset)))

    @property
    def subset(self) -> tuple[int, ...]:
        return tuple(k for k in self.labels if k is not None)

    @property
    def d_a(self) -> int:
        return len(self.labels)

    @property
    def d_b(self) -> int:
        return self.rep.dim

    def target_matrix(self) -> np.ndarray:
        """Dense control (x) target matrix; identity blocks on unsupported labels.

        The identity completion is invisible on supported inputs and keeps the
        matrix unitary.
        """
        d_b = self.d_b
        blocks = {i: self.rep.matrices[k] for i, k in enumerate(self.labels) if k is not None}
        return controlled_gate(self.d_a, blocks, d_b)

    def cost_ebits(self) -> float:
        """Entanglement consumed: log2 of the group order, independent of the subset."""
        return math.log2(self.group.order)


@dataclass(frozen=True, eq=False)
class ExactGateSet:
    """Local gates of the protocol for one controlled-group unitary."""

    shift_gates: dict[int, np.ndarray]      # per subset label, acts on Alice's ancilla
    fourier: np.ndarray                     # acts on Bob's ancilla
    corrections: dict[tuple[int, int], np.ndarray]  # per outcome pair, acts on the control


def shift_gate_for(cgu: ControlledGroupUnitary, k: int) -> np.ndarray:
    """Ancilla gate |j> -> weight(j,k) |j * k^{-1}>; the weights are factor quotients."""
    if cgu.rep.factor_system is None:
        raise MissingFactorSystem("the representation has no derived factor system")
    group, lam = cgu.group, cgu.rep.factor_system.lam
    n = group.order
    out = np.zeros((n, n), dtype=complex)
    inv = group.inverse
    for j in range(n):
        out[group.cayley[j, inv[k]], j] = lam[k, inv[j]] / lam[inv[j], j]
    return out


def correction_gate_for(cgu: ControlledGroupUnitary, outcome_l: int, outcome_m: int,
                        fourier: np.ndarray | None = None) -> np.ndarray:
    """Diagonal control-register gate cancelling the Fourier phase of branch (l, m).

    For any flat unitary in place of the Fourier gate (all entries of modulus
    1/sqrt(N)), the cancelling phase is the conjugated, rescaled entry at
    (m, l*k); with the standard Fourier gate this is exp(-2*pi*i*m*(l*k)/N).
    """
    group = cgu.group
    n = group.order
    f = fourier_gate(n) if fourier is None else fourier
    diag = np.ones(cgu.d_a, dtype=complex)
    scale = math.sqrt(n)
    for i, k in enumerate(cgu.labels):
        if k is not None:
            diag[i] = np.conj(scale * f[outcome_m, group.cayley[outcome_l, k]])
    return np.diag(diag)


def build_exact_gates(cgu: ControlledGroupUnitary) -> ExactGateSet:
    """Construct every local gate of the protocol and check unitarity."""
    n = cgu.group.order
    shifts = {k: shift_gate_for(cgu, k) for k in cgu.subset}
    fourier = fourier_gate(n)
    corrections = {(l, m): correction_gate_for(cgu, l, m)
                   for l in range(n) for m in range(n)}
    for name, gate in [("fourier", fourier), *((f"shift[{k}]", g) for k, g in shifts.items()),
                       *((f"correction{lm}", g) for lm, g in corrections.items())]:
        if not is_unitary(gate):
            raise DimensionMismatch(f"gate {name} failed the unitarity check")
    return ExactGateSet(shift_gates=shifts, fourier=fourier, corrections=corrections)


@dataclass(frozen=True, eq=False)
class ExactRunRecord:
    """All measurement branches of one protocol run against the target state."""

    branches: list            # (outcome_l, outcome_m, probability, PureState)
    target_state: PureState
    max_deviation: float
    uniformity_error: float
    cost_ebits: float

    def branch_probabilities(self) -> np.ndarray:
        return np.array([p for _, _, p, _ in self.branches])


def _check_support(state: PureState, control: str, labels) -> None:
    unsupported = [i for i, k in enumerate(labels) if k is None]
    if not unsupported:
        return
    layout = state.layout
    axis = layout.axis(control)
    t = np.moveaxis(state.tensor(), axis, 0).reshape(layout.dims[axis], -1)
    mass = float(np.sum(np.abs(t[unsupported]) ** 2))
    if mass > SUPPORT_TOL:
        raise UnsupportedInput(
            f"input has probability {mass:.3e} outside the supported control labels")


def run_exact_protocol(cgu: ControlledGroupUnitary, state: PureState,
                       control: str = "A", target: str = "B",
                       fourier: np.ndarray | None = None,
                       ancilla_names: tuple[str, str] = ("a", "b")) -> ExactRunRecord:
    """Simulate every branch of the protocol on the given input state.

    The input may contain spectator registers; the protocol touches only
    ``control``, ``target`` and two fresh rank-N ancillas.  Each branch's final
    state is compared against the target unitary applied directly (exact
    equality, no global-phase allowance).
    """
    group, rep = cgu.group, cgu.rep
    n = group.order
    layout = state.layout
    if layout.dim_of(control) != cgu.d_a:
        raise DimensionMismatch(
            f"register {control} has dim {layout.dim_of(control)}, expected {cgu.d_a}")
    if layout.dim_of(target) != cgu.d_b:
        raise DimensionMismatch(
            f"register {target} has dim {layout.dim_of(target)}, expected {cgu.d_b}")
    for name in ancilla_names:
        if name in layout.names:
            raise DimensionMismatch(f"ancilla name {name!r} collides with an input register")
    _check_support(state, control, cgu.labels)

    anc_a, anc_b = ancilla_names
    if fourier is None:
        fourier = fourier_gate(n)
    else:
        fourier = np.asarray(fourier, dtype=complex)
        if not is_unitary(fourier) or np.max(np.abs(np.abs(fourier) - 1 / math.sqrt(n))) > FLAT_ENTRY_TOL:
            raise DimensionMismatch("replacement Fourier gate must be unitary with flat entries")

    full = product_state(state, maximally_entangled(n, names=(anc_a, anc_b)))

    # Alice: shift the a ancilla conditioned on the control register
    shift_blocks = {i: shift_gate_for(cgu, k) for i, k in enumerate(cgu.labels) if k is not None}
    full = apply_on(full, controlled_gate(cgu.d_a, shift_blocks, n), (control, anc_a))
    # Bob: representation matrix on the target conditioned on the b ancilla (all j)
    rep_blocks = {j: rep.matrices[j] for j in range(n)}
    full = apply_on(full, controlled_gate(n, rep_blocks, cgu.d_b), (anc_b, target))
    full = apply_on(full, fourier, anc_b)

    target_state = apply_on(state, cgu.target_matrix(), (control, target))

    branches = []
    max_dev = 0.0
    uniformity = 0.0
    for branch in measure_registers(full, (anc_a, anc_b)):
        l, m = branch.outcome[anc_a], branch.outcome[anc_b]
        post = apply_on(branch.post_state, correction_gate_for(cgu, l, m, fourier),
                        control)
        post = apply_on(post, rep.matrices[group.inverse[l]], target)
        max_dev = max(max_dev, post.distance(target_state))
        uniformity = max(uniformity, abs(branch.probability - 1.0 / (n * n)))
        branches.append((l, m, branch.probability, post))
    return ExactRunRecord(branches=branches, target_state=target_state,
                          max_deviation=max_dev, uniformity_error=uniformity,
                          cost_ebits=cgu.cost_ebits())


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
        if len(projs) != len(self.subset):
            raise DimensionMismatch("need one group label per projector")
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

    def target_matrix(self) -> np.ndarray:
        out = np.zeros((self.d_a * self.d_b,) * 2, dtype=complex)
        for p, k in zip(self.projectors, self.subset):
            out += np.kron(p, self.rep.matrices[k])
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


@dataclass(frozen=True, eq=False)
class LiftedRunRecord:
    branches: list
    target_state: PureState
    max_deviation: float
    cost_ebits: float


def run_lifted_protocol(lifted: LiftedProtocol, state: PureState,
                        control: str = "A", target: str = "B",
                        ancilla: str = "E") -> LiftedRunRecord:
    """Run pre, the rank-1 protocol on (ancilla, target), then post on every branch."""
    h = lifted.source
    layout = state.layout
    if layout.dim_of(control) != h.d_a or layout.dim_of(target) != h.d_b:
        raise DimensionMismatch("input registers do not match the controlled unitary")
    e_dim = lifted.ancilla_dim
    full_layout = layout.extended((ancilla, e_dim))
    zero_e = np.zeros(e_dim, dtype=complex)
    zero_e[0] = 1.0
    full = PureState(full_layout, np.kron(state.amps, zero_e))
    full = apply_on(full, lifted.pre, (control, ancilla))
    record = run_exact_protocol(lifted.cgu, full, control=ancilla, target=target)

    target_state = apply_on(state, h.target_matrix(), (control, target))
    expected = PureState(full_layout, np.kron(target_state.amps, zero_e))
    branches = []
    max_dev = 0.0
    for l, m, prob, post in record.branches:
        final = apply_on(post, lifted.post, (control, ancilla))
        max_dev = max(max_dev, final.distance(expected))
        branches.append((l, m, prob, final))
    return LiftedRunRecord(branches=branches, target_state=expected,
                           max_deviation=max_dev, cost_ebits=lifted.cgu.cost_ebits())
