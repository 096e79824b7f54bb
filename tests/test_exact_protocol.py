"""Exact controlled-group protocol: gates, branch runs, lift, cost, branch blocks."""

from __future__ import annotations

import numpy as np
import pytest

from fastcu import algebra, compiler, demos, qsim
from fastcu.approx_protocol import dilation_error, run_hidden_variant, run_measured_variant
from fastcu.errors import DimensionMismatch, NonOrthogonalProjectors, UnsupportedInput
from fastcu.exact_protocol import (
    ControlledGroupUnitary,
    HighRankControlledUnitary,
    QuasigroupProtocolSpec,
    lift_highrank,
    one_round_gates,
    run_exact_protocol,
    run_lifted_protocol,
)

RUNS = 10


def _layout(cgu):
    return qsim.RegisterLayout.of(("A", cgu.d_a), ("B", cgu.d_b))


def test_shift_gates_ordinary_rep_are_permutations(c3_diag):
    group, rep = c3_diag
    for k, gate in enumerate(one_round_gates(rep, (0, 1, 2)).shifts):
        assert np.allclose(np.abs(gate[gate != 0]), 1.0)
        want = np.zeros((3, 3))
        for j in range(3):
            want[group.cayley[j, group.inverse[k]], j] = 1.0
        assert np.allclose(gate, want)


def test_shift_gate_weights_match_factor_quotients(klein_pauli):
    """Term k's shift sends |j> to lam(l, k)|l>, l*k = j, and the weight cancels the
    factor that undoing V_l^dag leaves: lam(l, k) V_l^dag V_{l*k} = V_k."""
    group, rep = klein_pauli
    lam, mats = rep.factor_system.lam, rep.matrices
    for k, gate in enumerate(one_round_gates(rep, (0, 1, 2, 3)).shifts):
        for j in range(4):
            l = group.cayley[j, group.inverse[k]]
            assert np.flatnonzero(gate[:, j]).tolist() == [l]
            assert gate[l, j] == lam[l, k]
            assert np.abs(gate[l, j] * mats[l].conj().T @ mats[j] - mats[k]).max() <= 1e-15


def test_trivial_group_gates():
    group = algebra.group_from_cayley([[0]])
    rep = algebra.projective_rep(group, np.eye(2)[None])
    gates = one_round_gates(rep, (0,))
    assert np.allclose(gates.shifts, [[[1.0]]])
    assert np.allclose(gates.fourier, [[1.0]])
    assert np.allclose(gates.phases, [np.eye(1)])


def test_gates_all_unitary(klein_pauli):
    group, rep = klein_pauli
    gates = one_round_gates(rep, (0, 1, 3))
    assert gates.shifts.shape == (3, 4, 4) and gates.phases.shape == (16, 3, 3)
    for g in [gates.fourier, *gates.shifts, *gates.phases, *gates.undo]:
        assert qsim.is_unitary(g)


def test_group_rep_carries_factor_system(klein_pauli):
    """A representation over a group always derives its factors; none can be given or left out."""
    group, rep = klein_pauli
    again = algebra.ProjectiveRep(group, rep.matrices)
    assert np.array_equal(again.factor_system.lam, rep.factor_system.lam)
    assert algebra.ordinary_rep(group, rep.matrices).factor_system is not None
    assert algebra.ordinary_rep(group.to_right_quasigroup(), rep.matrices).factor_system is None
    with pytest.raises(TypeError):
        algebra.ProjectiveRep(group, rep.matrices, rep.factor_system)
    assert ControlledGroupUnitary.from_subset(group, again, (0, 1)).rep.factor_system is not None


@pytest.mark.parametrize("maker,cost", [
    (demos.controlled_pauli, 2.0),
    (demos.controlled_pauli_subset, 2.0),
    (demos.controlled_c3_subset, np.log2(3)),
])
def test_protocol_exact_on_random_inputs(maker, cost):
    cgu = maker()
    rng = np.random.default_rng(11)
    n = cgu.group.order
    for _ in range(RUNS):
        state = qsim.random_pure_state(_layout(cgu), rng)
        record = run_exact_protocol(cgu, state)
        assert record.max_deviation <= 1e-9
        assert record.uniformity_error <= 1e-10
        assert len(record.branches) == n * n
        assert record.cost_ebits == pytest.approx(cost, abs=1e-12)
    assert cgu.cost_ebits() == pytest.approx(cost, abs=1e-12)


def test_identity_only_subset_acts_trivially(klein_pauli):
    group, rep = klein_pauli
    cgu = ControlledGroupUnitary.from_subset(group, rep, (group.identity,))
    rng = np.random.default_rng(12)
    state = qsim.random_pure_state(_layout(cgu), rng)
    record = run_exact_protocol(cgu, state)
    for _, _, _, post in record.branches:
        assert post.distance(state) <= 1e-9
    assert record.cost_ebits == 2.0


def test_subset_closure_cost_and_exactness(klein_pauli):
    group, rep = klein_pauli
    rng = np.random.default_rng(13)
    for subset in [(0, 1, 2, 3), (0, 1, 3), (0, 2), (0,)]:
        cgu = ControlledGroupUnitary.from_subset(group, rep, subset)
        state = qsim.random_pure_state(_layout(cgu), rng)
        record = run_exact_protocol(cgu, state)
        assert record.max_deviation <= 1e-9
        assert record.cost_ebits == 2.0


def test_unsupported_input_detected(klein_pauli):
    group, rep = klein_pauli
    cgu = ControlledGroupUnitary(group, rep, (0, 1, None, 3))
    layout = qsim.RegisterLayout.of(("A", 4), ("B", 2))
    amps = np.zeros(8, dtype=complex)
    amps[2 * 2] = 1.0   # weight on the unlabeled control state
    with pytest.raises(UnsupportedInput):
        run_exact_protocol(cgu, qsim.PureState(layout, amps))
    # supported input on the same instance works
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[6] = 1 / np.sqrt(2)
    record = run_exact_protocol(cgu, qsim.PureState(layout, amps))
    assert record.max_deviation <= 1e-9


def test_alternative_flat_gate_preserves_exactness(klein_pauli):
    group, rep = klein_pauli
    cgu = ControlledGroupUnitary.from_subset(group, rep, (0, 1, 2, 3))
    rng = np.random.default_rng(14)
    state = qsim.random_pure_state(_layout(cgu), rng)
    conjugated = np.conj(qsim.fourier_gate(4))
    record = run_exact_protocol(cgu, state, fourier=conjugated)
    assert record.max_deviation <= 1e-9
    with pytest.raises(DimensionMismatch):
        run_exact_protocol(cgu, state, fourier=np.eye(4))


def test_correction_gate_consistent_with_fourier_entries(klein_pauli):
    group, rep = klein_pauli
    for labels in [(0, 1, 2, 3), (2, None, 1, 3)]:
        phases = one_round_gates(rep, labels).phases
        for l in range(4):
            for m in range(4):
                gate = phases[4 * l + m]
                assert np.array_equal(gate, np.diag(np.diag(gate)))
                for i, k in enumerate(labels):
                    want = 1.0 if k is None else np.exp(-2j * np.pi * m * group.cayley[l, k] / 4)
                    assert gate[i, i] == pytest.approx(want)


@pytest.mark.parametrize("name", ["a", "b"])
def test_input_register_named_like_an_ancilla_is_refused(klein_pauli, name):
    group, rep = klein_pauli
    cgu = ControlledGroupUnitary.from_subset(group, rep, (0, 1, 2, 3))
    layout = qsim.RegisterLayout.of(("A", 4), ("B", 2), (name, 2))
    state = qsim.random_pure_state(layout, np.random.default_rng(19))
    with pytest.raises(DimensionMismatch):
        run_exact_protocol(cgu, state)
    # the same register under another name is a spectator
    spectator = qsim.PureState(qsim.RegisterLayout.of(("A", 4), ("B", 2), ("S", 2)), state.amps)
    assert run_exact_protocol(cgu, spectator).max_deviation <= 1e-9


def test_lift_rank1_reduces_to_plain(klein_pauli):
    group, rep = klein_pauli
    projs = tuple(np.diag([1.0 if i == k else 0.0 for i in range(4)]).astype(complex)
                  for k in range(4))
    h = HighRankControlledUnitary(projs, group, rep, (0, 1, 2, 3))
    lifted = lift_highrank(h)
    rng = np.random.default_rng(15)
    state = qsim.random_pure_state(qsim.RegisterLayout.of(("A", 4), ("B", 2)), rng)
    record = run_lifted_protocol(lifted, state)
    assert record.max_deviation <= 1e-9


def test_lift_rank2_matches_dense_target():
    h = demos.highrank_pauli(rank=2)
    lifted = lift_highrank(h)
    rng = np.random.default_rng(16)
    layout = qsim.RegisterLayout.of(("A", 8), ("B", 2))
    dense = h.target_matrix
    assert h.target_matrix is dense         # formed once, on first use
    with pytest.raises(ValueError):
        dense[0, 0] = 0
    for _ in range(5):
        state = qsim.random_pure_state(layout, rng)
        record = run_lifted_protocol(lifted, state)
        assert record.max_deviation <= 1e-9
        # target state is the dense action tensored with the reset ancilla
        want = qsim.apply_on(state, dense, ("A", "B"))
        assert np.allclose(record.expected[0].reshape(-1, lifted.ancilla_dim)[:, 0],
                           want.amps)


def test_lift_single_full_projector(klein_pauli):
    group, rep = klein_pauli
    h = HighRankControlledUnitary((np.eye(3, dtype=complex),), group, rep, (1,))
    lifted = lift_highrank(h)
    rng = np.random.default_rng(17)
    state = qsim.random_pure_state(qsim.RegisterLayout.of(("A", 3), ("B", 2)), rng)
    record = run_lifted_protocol(lifted, state)
    assert record.max_deviation <= 1e-9
    # the composite acts as identity (x) X on every input
    want = qsim.apply_on(state, np.kron(np.eye(3), rep.matrices[1]), ("A", "B"))
    assert np.allclose(record.expected[0].reshape(-1, 1)[:, 0], want.amps)


def test_lift_rejects_bad_projectors(klein_pauli):
    group, rep = klein_pauli
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p_bad = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    with pytest.raises(NonOrthogonalProjectors):
        HighRankControlledUnitary((p0, p_bad), group, rep, (0, 1))
    with pytest.raises(NonOrthogonalProjectors):
        HighRankControlledUnitary((p0, p0), group, rep, (0, 1))
    p1 = np.eye(2, dtype=complex) - p0
    with pytest.raises(DimensionMismatch, match="at least one projector"):
        HighRankControlledUnitary((), group, rep, ())
    with pytest.raises(DimensionMismatch, match="elements of the group"):
        HighRankControlledUnitary((p0, p1), group, rep, (0, group.order))
    with pytest.raises(DimensionMismatch, match="elements of the group"):
        HighRankControlledUnitary((p0, p1), group, rep, (-1, 1))


def test_exactness_holds_over_hundred_inputs(klein_pauli):
    group, rep = klein_pauli
    cgu = ControlledGroupUnitary.from_subset(group, rep, (0, 1, 2, 3))
    rng = np.random.default_rng(18)
    layout = qsim.RegisterLayout.of(("A", 4), ("B", 2))
    worst = 0.0
    for _ in range(100):
        record = run_exact_protocol(cgu, qsim.random_pure_state(layout, rng))
        worst = max(worst, record.max_deviation)
    assert worst <= 1e-9


def test_cost_values(klein_pauli, c3_diag):
    group, rep = klein_pauli
    assert ControlledGroupUnitary.from_subset(group, rep, (0,)).cost_ebits() == 2.0
    g3, r3 = c3_diag
    assert ControlledGroupUnitary.from_subset(g3, r3, (0, 1)).cost_ebits() == pytest.approx(
        np.log2(3), abs=1e-12)
    trivial = algebra.group_from_cayley([[0]])
    rep1 = algebra.projective_rep(trivial, np.eye(2)[None])
    assert ControlledGroupUnitary.from_subset(trivial, rep1, (0,)).cost_ebits() == 0.0


@pytest.mark.parametrize("labels", [(0, 1, 3), (2, None, 1, 3)])
@pytest.mark.parametrize("conjugate", [False, True])
def test_exact_protocol_equals_measure_then_correct(klein_pauli, labels, conjugate):
    # reference: measure (a, b) first, then correct each branch classically
    group, rep = klein_pauli
    cgu = ControlledGroupUnitary(group, rep, labels)
    n = group.order
    fourier = qsim.fourier_gate(n)
    if conjugate:
        fourier = np.conj(fourier)
    t = qsim.random_pure_state(_layout(cgu), np.random.default_rng(16)).tensor().copy()
    t[[i for i, k in enumerate(labels) if k is None]] = 0
    state = qsim.PureState(_layout(cgu), t / np.linalg.norm(t))

    full = qsim.product_state(state, qsim.maximally_entangled(n))
    shifts = {}
    for i, k in enumerate(labels):
        if k is not None:       # |j> -> lam(l, k)|l>, l*k = j
            shifts[i] = np.zeros((n, n), dtype=complex)
            for j in range(n):
                l = group.cayley[j, group.inverse[k]]
                shifts[i][l, j] = rep.factor_system.lam[l, k]
    full = qsim.apply_on(full, qsim.controlled_gate(cgu.d_a, shifts, n), ("A", "a"))
    reps = dict(enumerate(rep.matrices))
    full = qsim.apply_on(full, qsim.controlled_gate(n, reps, cgu.d_b), ("b", "B"))
    full = qsim.apply_on(full, fourier, "b")
    want = []
    for l, m, prob, post in qsim.measure_registers(full, ("a", "b")):
        # cancel the phase the Fourier gate left on l*k
        phases = [1.0 if k is None else np.conj(2.0 * fourier[m, group.cayley[l, k]]) for k in labels]
        post = qsim.apply_on(post, np.diag(phases), "A")
        post = qsim.apply_on(post, rep.matrices[l].conj().T, "B")
        want.append((l, m, prob, post))

    got = run_exact_protocol(cgu, state, fourier=fourier).branches
    assert [g[:2] for g in got] == [w[:2] for w in want]
    for (*_, p, post), (*_, q, ref) in zip(got, want):
        assert p == pytest.approx(q, abs=1e-12)
        assert np.abs(post.amps - ref.amps).max() <= 1e-12


# --------------------------------------------------------------------------- #
#   a group instance is a spec over its group: one branch-block formula       #
# --------------------------------------------------------------------------- #


def test_spec_over_a_projective_group_rep_is_exact():
    """The Pauli group as a plain spec: the branch blocks carry lam, so every branch is V_k."""
    group, rep = demos.pauli_rep()
    spec = QuasigroupProtocolSpec(group, rep, term_map=(1, 2, 3))
    state = qsim.random_pure_state(_layout(spec), np.random.default_rng(20))
    assert run_measured_variant(spec, state).max_deviation <= 1e-9
    assert dilation_error(spec, 0.0, 0.0).measured <= 1e-12
    assert run_hidden_variant(spec, state).deviation <= 1e-9


@pytest.mark.parametrize("name", [*sorted(demos.EXACT_DEMOS), "lift"])
def test_group_branch_blocks_are_the_term_blocks(name):
    cgu = (lift_highrank(demos.highrank_pauli(rank=2)).cgu if name == "lift"
           else demos.exact_demo_instance(name))
    assert isinstance(cgu, QuasigroupProtocolSpec)
    assert cgu.term_blocks.shape == (cgu.group.order, cgu.d_a, cgu.d_b, cgu.d_b)
    assert np.abs(cgu.term_blocks - cgu.term_matrices()[None]).max() <= 1e-12
    report = compiler.error_budget(cgu.term_matrices(), cgu, 1e-6, 0.0, None)
    assert max(report.gap_target_plan, report.gap_plan_actual, report.gap_target_actual) <= 1e-12
    assert report.cost_ebits == np.log2(cgu.group.order)


def test_states_without_a_term_carry_identity_blocks(klein_pauli):
    group, rep = klein_pauli
    cgu = ControlledGroupUnitary(group, rep, (2, None, 1, 3))
    assert cgu.unsupported == (1,) and cgu.subset == (2, 1, 3)
    assert np.array_equal(cgu.term_blocks[:, 1], np.broadcast_to(np.eye(2), (4, 2, 2)))
    assert np.abs(cgu.term_blocks - cgu.term_matrices()[None]).max() <= 1e-12
    assert set(dilation_error(cgu, 0.0, 0.0).per_k_measured) == {1, 2, 3}
    padded = QuasigroupProtocolSpec(group, rep, term_map=(None, 3, None))
    assert padded.unsupported == (0, 2) and padded.labels == (None, 3, None) and padded.d_a == 3
    with pytest.raises(DimensionMismatch):
        QuasigroupProtocolSpec(group, rep, term_map=(None, None))
    with pytest.raises(DimensionMismatch):
        ControlledGroupUnitary(group, rep, (1, None, 1))
    table = group.to_right_quasigroup()
    QuasigroupProtocolSpec(table, algebra.ordinary_rep(table, rep.matrices), term_map=(0, 1))
    with pytest.raises(DimensionMismatch, match="over a group"):
        ControlledGroupUnitary(table, algebra.ordinary_rep(table, rep.matrices), (0, 1))


def test_exact_run_refuses_a_nan_amplitude():
    """A NaN input once gave a record of no branches, deviation 0 and uniformity error 0."""
    cgu = demos.controlled_pauli()
    amps = qsim.random_pure_state(_layout(cgu), np.random.default_rng(3)).amps.copy()
    amps[5] = np.nan
    with pytest.raises(DimensionMismatch):
        qsim.PureState(_layout(cgu), amps)
    with pytest.raises(DimensionMismatch):
        run_exact_protocol(cgu, qsim.PureState(_layout(cgu), amps, normalized=False))
