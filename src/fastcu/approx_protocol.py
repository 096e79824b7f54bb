"""Measured and hidden variants of the one-round protocol, with error machinery.

Both run a ``QuasigroupProtocolSpec`` (see ``exact_protocol``).  The measured
variant implements a branch unitary that depends on one party's outcome; the
hidden variant consumes shared classical randomness so neither party learns
which branch occurred, and the induced channel is the uniform mixture of the
branch unitaries.  The dilation machinery turns a certified (eta, delta) pair
into an exact operator-norm gap and a diamond-norm bound.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import sparse

from .errors import DimensionMismatch, TooLarge, UnsupportedInput
from .exact_protocol import (
    QuasigroupProtocolSpec,
    RunRecord,
    check_input,
    circuit_map,
    correction_steps,
    one_round_circuit,
    run_one_round,
    run_record,
)
from .qsim import (
    Branches,
    PureState,
    RegisterLayout,
    apply_controlled,
    apply_map,
    apply_on,
    apply_on_rows,
    basis_state,
    measure_registers,
    operator_norm,
    operator_norms,
    partial_trace,
    product_state,
    shift_gate,
    su2_quaternions,
)

RESIDUAL_CAP = 2.0 + 1e-9
# largest hidden-circuit state, d_a * d_b * N^4 amplitudes (64 MiB), that ``hidden_map``
# simulates per basis input: the N = 12 specs need at most 124 416, an N = 72 one 161 M
HIDDEN_MAX_AMPLITUDES = 1 << 22


def branch_rows(spec: QuasigroupProtocolSpec, state: PureState, control: str,
                target: str) -> np.ndarray:
    """Row l: the l-th branch unitary applied to the input, on the input's layout."""
    return apply_on_rows(state.amps[None], state.layout, spec.branch_stack, (control, target))


def run_measured_variant(spec: QuasigroupProtocolSpec, state: PureState,
                         control: str = "A", target: str = "B") -> RunRecord:
    """Simulate every branch (see ``run_one_round``) against the branch unitaries.

    Branch (l, m) must equal the l-th branch unitary applied to the input.
    """
    branches = run_one_round(spec, state, control, target, spec.compiled)
    return run_record(spec, branches, branch_rows(spec, state, control, target))


def term_gaps(requested: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Dilation gap of each control term between requested blocks and the branch blocks.

    ``requested[i]`` is the block wanted on term i and ``blocks`` a
    ``term_blocks`` stack.  With residuals E_li = requested[i] - blocks[l, i],
    the gap of term i is sqrt(lambda_max((1/N) sum_l E_li^dag E_li)), the exact
    operator norm of the difference between two dilations that differ by
    E_li / sqrt(N) in outcome block l; the worst term's gap is the gap of the
    whole controlled unitary.
    """
    residuals = requested[None] - blocks
    gram = np.einsum("liab,liac->ibc", residuals.conj(), residuals, optimize=True) / len(blocks)
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def branch_distance(requested: np.ndarray, blocks: np.ndarray) -> float:
    """Largest ||requested[i] - blocks[l, i]||_inf over outcomes l and terms i, at most 2.

    When both stacks are SU(2), the norm is the distance of their unit
    quaternions; any other family takes the largest singular value.
    """
    want = su2_quaternions(requested)
    got = None if want is None else su2_quaternions(blocks.reshape(-1, *blocks.shape[-2:]))
    if got is None:
        worst = float(operator_norms(requested[None] - blocks).max())
    else:
        worst = float(np.linalg.norm(want[None] - got.reshape(*blocks.shape[:-2], 4),
                                     axis=-1).max())
    if worst > RESIDUAL_CAP:
        raise DimensionMismatch(f"residual norm {worst:.3f} exceeds the cap of 2")
    return worst


def dilation_gap_bound(eta: float, delta: float) -> float:
    """Certified bound sqrt(eta^2 + 4 delta) on the dilation gap of an (eta, delta) family."""
    return math.sqrt(eta * eta + 4.0 * delta)


@dataclass(frozen=True)
class DilationErrorReport:
    """Exact dilation gap of the protocol channel next to its certified bounds.

    ``measured`` is the exact operator-norm distance between the two isometric
    dilations (block structure makes it the worst represented label's averaged
    residual spectrum); the certified bound is sqrt(eta^2 + 4*delta).  Doubling
    either side bounds the diamond-norm distance between the implemented and
    ideal channels.
    """

    measured: float
    certified_gap_bound: float
    diamond_bound_measured: float
    diamond_bound_certified: float
    per_k_measured: dict[int, float]


def dilation_error(spec: QuasigroupProtocolSpec, eta: float, delta_cert: float) -> DilationErrorReport:
    """Exact ||U' - V'||_inf from the term gaps of the bare blocks, with the (eta, delta) bound."""
    gaps = term_gaps(spec.term_matrices(), spec.term_blocks)
    per_k = dict(sorted((k, float(gap)) for k, gap in zip(spec.term_map, gaps) if k is not None))
    measured = max(per_k.values())
    bound = dilation_gap_bound(eta, delta_cert)
    return DilationErrorReport(
        measured=measured,
        certified_gap_bound=bound,
        diamond_bound_measured=2.0 * measured,
        diamond_bound_certified=2.0 * bound,
        per_k_measured=per_k,
    )


def dilation_pair(spec: QuasigroupProtocolSpec) -> tuple[np.ndarray, np.ndarray]:
    """Dense isometric dilations (ideal, implemented) on system (x) outcome space.

    Columns are indexed by the system space tensored with the first outcome
    ket; rows run over the full outcome register.  Used as an independent
    route to the dilation gap in tests.
    """
    n = spec.order
    d = spec.d_a * spec.d_b
    ideal = np.broadcast_to(spec.target_matrix() / math.sqrt(n), (n, d, d)).reshape(n * d, d)
    actual = spec.branch_stack.reshape(n * d, d) / math.sqrt(n)
    return ideal, actual


# --------------------------------------------------------------------------- #
#                         hidden-outcome variant                              #
# --------------------------------------------------------------------------- #


def shift_register_check(n: int) -> float:
    """Worst-case deviation of the shared-randomness relay from the ideal pointer.

    For every hypothetical outcome l and every seed r the relay must leave the
    receiving register in exactly ``|l>``: shift the sender's register down by
    l, measure it (outcome s), shift the receiver's register down by s.  The
    sender's register thus ends at r - l and the receiver's at l for every r:
    this identity is what makes the hidden variant's seeds shift-covariant.
    """
    worst = 0.0
    layout = RegisterLayout.of(("x", n), ("y", n))
    for l in range(n):
        for r in range(n):
            state = basis_state(layout, {"x": r, "y": r})
            state = apply_on(state, shift_gate(n, l), "x")
            branches = measure_registers(state, "x")
            if len(branches) != 1:
                return 2.0
            s, _, post = branches[0]
            if s != (r - l) % n:
                return 2.0
            post = apply_on(post, shift_gate(n, s), "y")
            ideal = basis_state(RegisterLayout.of(("y", n)), {"y": l})
            worst = max(worst, post.distance(ideal))
    return worst


@dataclass(frozen=True, eq=False)
class HiddenRunRecord:
    """Trajectory ensemble of the hidden-outcome circuit on one input state.

    Only shared seed 0 is simulated.  Seed r's (b, x) branches are seed 0's
    with outcome s read as s + r mod N (see ``_hidden_circuit``): the same
    probabilities and post states, held and norm-checked once in ``branches``.
    """

    branches: Branches                 # seed 0's branches of measuring (b, x)
    output_density: np.ndarray         # induced state on the input's registers, in its order
    expected_density: np.ndarray       # uniform branch mixture applied to the input
    deviation: float
    ensemble: np.ndarray               # (N, d, d) branch unitaries, one per shared seed

    @property
    def trajectories(self) -> list[tuple]:
        """(seed_r, outcome_m, outcome_s, weight, PureState) per trajectory, built on access.

        Every seed r = 0..N-1 is listed, each with its rows sorted by (m, s).
        """
        n = len(self.ensemble)
        rows = list(self.branches)
        return [row for r in range(n)
                for row in sorted(((r, m, (s + r) % n, p / n, st) for m, s, p, st in rows),
                                  key=lambda row: row[1:3])]


def run_hidden_variant(spec: QuasigroupProtocolSpec, state: PureState,
                       control: str = "A", target: str = "B") -> HiddenRunRecord:
    """Simulate the hidden-outcome circuit as pure trajectories over the shared seed.

    The two ancillas of the basic protocol are joined by a classically
    correlated pair (x, y); the branch pointer never gets measured, and the
    corrections are quantum-controlled off the unmeasured registers, which are
    discarded at the end.  The input may contain spectator registers, but
    none named a, b, x or y (the layout refuses duplicate names).  The
    spec's hidden map (``hidden_map``) runs the circuit at seed 0: seed r's
    state is seed 0's with x rolled by r, and x is traced out, so every seed
    leaves the same state on the input's registers.  The output state is one
    partial trace onto them (input order), the probability-weighted mixture
    of seed 0's (b, x) branches; it is compared with the mixture
    (1/N) sum_l U_l rho U_l^dag of the input over the branch stack U_l.
    """
    check_input(spec, state, control, target)
    n = spec.order
    full = apply_map(state, hidden_map(spec), (control, target),
                     RegisterLayout.of(*((name, n) for name in ("a", "b", "x", "y"))))
    rho_out = partial_trace(full, state.layout.names)
    rows = branch_rows(spec, state, control, target)
    expected = rows.T @ rows.conj() / n
    return HiddenRunRecord(branches=measure_registers(full, ("b", "x")), output_density=rho_out,
                           expected_density=expected, deviation=operator_norm(rho_out - expected),
                           ensemble=spec.branch_stack)


def _hidden_circuit(spec: QuasigroupProtocolSpec, state: PureState,
                    control: str, target: str) -> PureState:
    """The hidden circuit's state at shared seed 0, before (b, x) is measured.

    The one-round opening is joined by the correlated pair (x, y) = (0, 0).
    The branch pointer a shifts x down by l, x shifts y down by its own
    value, and the phases are controlled on (a, b) and V_l^dag on y.  The
    state lives on (control, target, a, b, x, y).

    Seed r would start from X_x^r X_y^r |0, 0>.  The pointer shift commutes
    with both, the relay C (y -= x) gives C X_x^r X_y^r = X_x^r C, and the
    phases and V_l^dag never touch x, so seed r's state is X_x^r times this one.
    """
    n = spec.order
    blocks = spec.compiled.blocks
    shift_powers = np.stack([shift_gate(n, l) for l in range(n)])
    seed = basis_state(RegisterLayout.of(("x", n), ("y", n)), {"x": 0, "y": 0})
    full = product_state(one_round_circuit(state, blocks, control, target), seed)
    relay = ((shift_powers, "a", "x"), (shift_powers, "x", "y"))
    for step in relay + correction_steps(blocks, control, target, "y"):
        full = apply_controlled(full, *step)
    return full


def hidden_map(spec: QuasigroupProtocolSpec) -> sparse.csr_matrix:
    """Map of the hidden circuit at seed 0 (``_hidden_circuit``), built on first use per spec.

    It takes a basis input of (control, target) to the state on
    (control, target, a, b, x, y) before (b, x) is measured; see
    ``exact_protocol.circuit_map``.  Raises ``TooLarge`` before simulating
    anything when that state would exceed ``HIDDEN_MAX_AMPLITUDES``.
    """
    if spec not in _HIDDEN_MAPS:
        amplitudes = spec.d_a * spec.d_b * spec.order ** 4
        if amplitudes > HIDDEN_MAX_AMPLITUDES:
            raise TooLarge(
                f"the hidden circuit of an order-{spec.order} spec holds d_a * d_b * N^4 = "
                f"{amplitudes} amplitudes ({amplitudes * 16 / 2 ** 30:.1f} GiB) per basis input, "
                f"above the cap of {HIDDEN_MAX_AMPLITUDES}")
        _HIDDEN_MAPS[spec] = circuit_map(partial(_hidden_circuit, spec), spec.d_a, spec.d_b)
    return _HIDDEN_MAPS[spec]


# each spec's hidden map, dropped with its spec: the map holds no reference to it
_HIDDEN_MAPS: weakref.WeakKeyDictionary[QuasigroupProtocolSpec, sparse.csr_matrix] = \
    weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class ChannelComparison:
    choi_circuit: np.ndarray
    choi_ensemble: np.ndarray
    distance: float


def hidden_variant_choi(spec: QuasigroupProtocolSpec) -> ChannelComparison:
    """Choi matrix of the hidden circuit versus the uniform branch mixture.

    Row-major vec on (A, B, Ar, Br), Ar and Br the reference halves.  The
    circuit side is read from the hidden map: column j of the map is the
    circuit on basis input j, and tracing out the ancillas pairs its columns,
    sum over ancilla values of <o, anc|circuit|j> <o', anc|circuit|j'>^*.
    The ensemble side is sum_l vec(U_l) vec(U_l)^dag / N.  Both have trace
    d.  The input control dimension must equal the number of terms so the
    channel and the mixture share one domain.
    """
    if spec.unsupported:
        raise UnsupportedInput("channel comparison needs every control state to carry a term")
    d = spec.d_a * spec.d_b
    hidden = hidden_map(spec).tocoo()
    n_anc = hidden.shape[0] // d
    # entry (o, anc; j) of the map moves to row anc, column (o, j)
    rows, cols = hidden.row % n_anc, hidden.row // n_anc * d + hidden.col
    by_ancilla = sparse.csr_matrix((hidden.data, (rows, cols)), shape=(n_anc, d * d))
    choi_circ = (by_ancilla.T @ by_ancilla.conj()).toarray()
    vecs = spec.branch_stack.reshape(spec.order, d * d)
    choi_ens = vecs.T @ vecs.conj() / spec.order
    return ChannelComparison(choi_circuit=choi_circ, choi_ensemble=choi_ens,
                             distance=operator_norm(choi_circ - choi_ens))
