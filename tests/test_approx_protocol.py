"""Right-quasigroup protocol: gates, branch runs, residuals, dilation, hidden variant."""

from __future__ import annotations

import functools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastcu import algebra, approx_protocol, net, qgbuilder, qsim
from fastcu.algebra import certify_approx_rep, ordinary_rep
from fastcu.approx_protocol import (
    QuasigroupProtocolSpec,
    _hidden_circuit,
    branch_distance,
    dilation_error,
    dilation_pair,
    hidden_variant_choi,
    run_hidden_variant,
    run_measured_variant,
    shift_register_check,
    term_gaps,
)
from fastcu.errors import DimensionMismatch, TooLarge, UnsupportedInput
from fastcu.exact_protocol import one_round_circuit, one_round_gates


def exact_spec(n: int = 4, terms=(0, 2)) -> QuasigroupProtocolSpec:
    group = algebra.cyclic_group(n)
    w = np.exp(2j * np.pi / n)
    mats = np.stack([np.diag([1.0, w ** k]).astype(complex) for k in range(n)])
    q = group.to_right_quasigroup()
    return QuasigroupProtocolSpec(q, ordinary_rep(q, mats), term_map=tuple(terms))


def perturbed_spec(rng, eps: float = 0.01, terms=(0, 2)) -> QuasigroupProtocolSpec:
    group = algebra.cyclic_group(4)
    w = np.exp(2j * np.pi / 4)
    mats = np.stack([np.diag([1.0, w ** k]).astype(complex) for k in range(4)])
    for k in range(1, 4):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + h.conj().T) / 2
        vals, vecs = np.linalg.eigh(h)
        mats[k] = mats[k] @ (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T
    q = group.to_right_quasigroup()
    return QuasigroupProtocolSpec(q, ordinary_rep(q, mats), term_map=tuple(terms))


def net_spec(m: int = 1, eta: float = 1.2, terms=(3, 7)) -> QuasigroupProtocolSpec:
    fam = net.build_net(2, m)
    built = qgbuilder.assemble_quasigroup(fam, eta)
    return QuasigroupProtocolSpec(built.quasigroup,
                                  ordinary_rep(built.quasigroup, fam.matrices),
                                  term_map=tuple(terms))


def _layout(spec):
    return qsim.RegisterLayout.of(("A", spec.d_a), ("B", spec.d_b))


def _supported_state(spec, rng):
    """Random input with weight only on control states that carry a term."""
    state = qsim.random_pure_state(_layout(spec), rng)
    if not spec.unsupported:
        return state
    t = state.tensor().copy()
    t[list(spec.unsupported)] = 0
    return qsim.PureState(state.layout, t / np.linalg.norm(t))


def test_hat_gates_match_group_shift_gates():
    group = algebra.cyclic_group(5)
    w = np.exp(2j * np.pi / 5)
    mats = np.stack([np.diag([1.0, w ** k]).astype(complex) for k in range(5)])
    q = group.to_right_quasigroup()
    # for a group, left division is j * k^{-1}, and an ordinary rep has lam = 1,
    # so the group's gates and its quasigroup's gates agree
    on_group = one_round_gates(algebra.projective_rep(group, mats), tuple(range(5)))
    on_table = one_round_gates(ordinary_rep(q, mats), tuple(range(5)))
    for name in ("shifts", "phases", "undo"):
        assert np.allclose(getattr(on_group, name), getattr(on_table, name))


def test_hat_gate_columns_are_left_division_rows():
    spec = net_spec()
    q = spec.quasigroup
    for gate, k in zip(one_round_gates(spec.rep, spec.labels).shifts, spec.term_map):
        for j in range(q.order):
            col = np.flatnonzero(gate[:, j])
            assert np.array_equal(col, [q.left_div[j, k]])


def test_hat_gates_trivial_order_one():
    table = np.zeros((1, 1), dtype=int)
    q = algebra.right_quasigroup_from_table(table)
    spec = QuasigroupProtocolSpec(q, ordinary_rep(q, np.eye(2)[None]), term_map=(0,))
    assert np.allclose(one_round_gates(spec.rep, spec.labels).shifts, [[[1.0]]])
    assert np.allclose(qsim.fourier_gate(spec.order), [[1.0]])


def test_measured_variant_exact_rep_equals_target():
    spec = exact_spec()
    rng = np.random.default_rng(40)
    state = qsim.random_pure_state(_layout(spec), rng)
    record = run_measured_variant(spec, state)
    target = qsim.apply_on(state, spec.target_matrix(), ("A", "B"))
    assert record.max_deviation <= 1e-9
    for *_ , post in record.branches:
        assert post.distance(target) <= 1e-9
    assert np.allclose(record.l_marginals, 1.0 / spec.order, atol=1e-10)


def test_measured_variant_perturbed_matches_branch_unitaries():
    rng = np.random.default_rng(41)
    spec = perturbed_spec(rng)
    state = qsim.random_pure_state(_layout(spec), rng)
    record = run_measured_variant(spec, state)
    assert record.max_deviation <= 1e-9
    unitaries = spec.branch_stack
    for l, m, prob, post in record.branches:
        want = qsim.apply_on(state, unitaries[l], ("A", "B"))
        assert post.distance(want) <= 1e-9
    assert branch_distance(spec.term_matrices(), spec.term_blocks) >= 0.0


def test_measured_variant_single_term():
    rng = np.random.default_rng(42)
    spec = perturbed_spec(rng, terms=(1,))
    state = qsim.random_pure_state(_layout(spec), rng)
    record = run_measured_variant(spec, state)
    assert record.max_deviation <= 1e-9


def test_measured_variant_net_built_quasigroup():
    spec = net_spec()
    rng = np.random.default_rng(43)
    state = qsim.random_pure_state(_layout(spec), rng)
    record = run_measured_variant(spec, state)
    assert record.max_deviation <= 1e-9
    assert np.abs(record.l_marginals - 1 / 12).max() <= 1e-10


def test_unsupported_input_when_control_larger():
    group = algebra.cyclic_group(3)
    w = np.exp(2j * np.pi / 3)
    mats = np.stack([np.diag([1.0, w ** k]).astype(complex) for k in range(3)])
    q = group.to_right_quasigroup()
    spec = QuasigroupProtocolSpec(q, ordinary_rep(q, mats), term_map=(0, 1, None))
    layout = qsim.RegisterLayout.of(("A", 3), ("B", 2))
    amps = np.zeros(6, dtype=complex)
    amps[4] = 1.0   # control state 2 has no term
    with pytest.raises(UnsupportedInput):
        run_measured_variant(spec, qsim.PureState(layout, amps))


def test_redundant_terms_leave_dilation_unchanged():
    rng = np.random.default_rng(44)
    base = perturbed_spec(rng, terms=(0, 2))
    dup = QuasigroupProtocolSpec(base.quasigroup, base.rep, term_map=(0, 2, 2))
    cert = certify_approx_rep(base.rep.matrices, base.quasigroup, eta=0.5)
    a = dilation_error(base, 0.5, cert.delta_cert)
    b = dilation_error(dup, 0.5, cert.delta_cert)
    assert a.measured == pytest.approx(b.measured, abs=1e-14)
    assert a.per_k_measured == pytest.approx(b.per_k_measured)
    # the branch unitaries also respect the duplicated control state
    state = qsim.random_pure_state(qsim.RegisterLayout.of(("A", 3), ("B", 2)), rng)
    record = run_measured_variant(dup, state)
    assert record.max_deviation <= 1e-9


def test_residual_norms_capped_by_two():
    for spec in (exact_spec(), net_spec()):
        blocks = spec.term_blocks
        assert blocks.shape == (spec.order, spec.d_a, spec.d_b, spec.d_b)
        assert branch_distance(spec.term_matrices(), blocks) <= 2.0 + 1e-9
        assert set(dilation_error(spec, 0.5, 0.0).per_k_measured) == set(spec.represented)


def test_branch_family_unitary_and_exact_case():
    spec = exact_spec()
    target = spec.target_matrix()
    for u in spec.branch_stack:
        assert qsim.is_unitary(u)
        assert qsim.operator_norm(u - target) <= 1e-12


def test_dilation_exact_rep_is_zero():
    spec = exact_spec()
    report = dilation_error(spec, eta=0.3, delta_cert=0.0)
    assert report.measured == pytest.approx(0.0, abs=1e-12)
    assert report.diamond_bound_measured <= report.diamond_bound_certified


def test_dilation_all_identity_matrices():
    rng = np.random.default_rng(45)
    table = np.stack([rng.permutation(5) for _ in range(5)], axis=1)
    q = algebra.right_quasigroup_from_table(table)
    spec = QuasigroupProtocolSpec(q, ordinary_rep(q, np.stack([np.eye(2)] * 5)),
                                  term_map=(0, 3))
    report = dilation_error(spec, eta=0.1, delta_cert=0.0)
    assert report.measured == pytest.approx(0.0, abs=1e-12)


def test_dilation_measured_matches_dense_dilations_and_power_iteration():
    spec = net_spec(m=1, eta=0.9, terms=(2, 5, 9))
    cert = certify_approx_rep(spec.rep.matrices, spec.quasigroup, eta=0.9)
    report = dilation_error(spec, 0.9, cert.delta_cert)
    ideal, actual = dilation_pair(spec)
    dense_gap = qsim.operator_norm(ideal - actual)
    assert report.measured == pytest.approx(dense_gap, abs=1e-12)
    assert report.measured <= report.certified_gap_bound + 1e-12

    # power-iteration oracle for the worst represented label
    n = spec.order
    worst = 0.0
    residuals = spec.term_matrices()[None] - spec.term_blocks
    for t, k in enumerate(spec.term_map):
        e = residuals[:, t]
        h = np.einsum("lab,lac->bc", e.conj(), e) / n
        v = np.ones(h.shape[0], dtype=complex)
        for _ in range(200):
            v = h @ v
            v /= np.linalg.norm(v)
        worst = max(worst, float(np.real(np.vdot(v, h @ v))))
    assert report.measured == pytest.approx(np.sqrt(worst), abs=1e-8)


def test_shift_register_relay_exact():
    for n in (1, 2, 5, 12):
        assert shift_register_check(n) == 0.0


def test_hidden_variant_exact_rep_unitary_channel():
    spec = exact_spec()
    rng = np.random.default_rng(46)
    state = qsim.random_pure_state(_layout(spec), rng)
    record = run_hidden_variant(spec, state)
    assert record.deviation <= 1e-10
    psi = qsim.apply_on(state, spec.target_matrix(), ("A", "B")).amps
    assert qsim.operator_norm(record.output_density - np.outer(psi, psi.conj())) <= 1e-10


def test_hidden_variant_matches_branch_mixture():
    rng = np.random.default_rng(47)
    spec = perturbed_spec(rng, eps=0.15)
    state = qsim.random_pure_state(_layout(spec), rng)
    record = run_hidden_variant(spec, state)
    assert record.deviation <= 1e-10
    total = sum(w for *_ , w, _ in [(r, m, s, w, st) for r, m, s, w, st in record.trajectories])
    assert total == pytest.approx(1.0, abs=1e-10)


def test_hidden_variant_choi_small_exact():
    spec = exact_spec()
    cmp = hidden_variant_choi(spec)
    assert cmp.distance <= 1e-10
    assert np.trace(cmp.choi_ensemble).real == pytest.approx(spec.d_a * spec.d_b)


@pytest.mark.parametrize("make", [exact_spec, lambda: net_spec(eta=1.1, terms=(2, 9))],
                         ids=["exact", "N12"])
def test_hidden_variant_choi_ensemble_equals_vec_loop(make):
    spec = make()
    d = spec.d_a * spec.d_b
    want = np.zeros((d * d, d * d), dtype=complex)
    for u in spec.branch_stack:
        v = u.reshape(-1)
        want += np.outer(v, v.conj()) / spec.order
    choi = hidden_variant_choi(spec).choi_ensemble
    assert np.abs(choi - want).max() <= 1e-13
    assert np.trace(choi).real == pytest.approx(d, abs=1e-12)


@pytest.mark.parametrize("order", [("A", "B"), ("B", "A"), ("A", "S", "B")],
                         ids=["AB", "BA", "spectator"])
def test_hidden_variant_any_register_order_and_spectators(order):
    spec = net_spec(eta=1.1, terms=(2, 9))
    rng = np.random.default_rng(55)
    base = qsim.random_pure_state(_layout(spec), rng)
    spectator = qsim.random_pure_state(qsim.RegisterLayout.of(("S", 3)), rng)
    source = qsim.product_state(base, spectator) if "S" in order else base
    axes = [source.layout.axis(r) for r in order]
    layout = qsim.RegisterLayout.of(*((r, source.layout.dim_of(r)) for r in order))
    record = run_hidden_variant(spec, qsim.PureState(layout, source.tensor().transpose(axes)))
    assert record.deviation <= 1e-12

    want = run_hidden_variant(spec, base).output_density
    if "S" in order:
        want = np.kron(want, np.outer(spectator.amps, spectator.amps.conj()))
    want = want.reshape(source.layout.dims * 2).transpose(axes + [len(axes) + a for a in axes])
    assert np.abs(record.output_density - want.reshape(layout.dim, layout.dim)).max() <= 1e-12


@pytest.mark.parametrize("name", ["a", "b", "x", "y"])
def test_hidden_variant_refuses_input_register_named_like_an_ancilla(name):
    spec = exact_spec()
    layout = qsim.RegisterLayout.of(("A", spec.d_a), (name, 3), ("B", spec.d_b))
    with pytest.raises(DimensionMismatch):
        run_hidden_variant(spec, qsim.random_pure_state(layout, np.random.default_rng(56)))


def test_hidden_variant_choi_requires_full_support():
    group = algebra.cyclic_group(3)
    w = np.exp(2j * np.pi / 3)
    mats = np.stack([np.diag([1.0, w ** k]).astype(complex) for k in range(3)])
    q = group.to_right_quasigroup()
    spec = QuasigroupProtocolSpec(q, ordinary_rep(q, mats), term_map=(0, 1, None))
    with pytest.raises(UnsupportedInput):
        hidden_variant_choi(spec)


def test_hidden_variant_refuses_an_oversized_circuit_before_simulating():
    """d_a * d_b * N^4 amplitudes per basis input: N = 12 runs, N = 72 (161 M) fails at once."""
    small = net_spec(1, 1.1, (2, 9))
    rows = small.d_a * small.d_b * small.order ** 4
    assert rows == 82_944 <= approx_protocol.HIDDEN_MAX_AMPLITUDES
    assert approx_protocol.hidden_map(small).shape == (rows, small.d_a * small.d_b)
    big = net_spec(2, 0.8, (5, 17, 40))
    assert big.d_a * big.d_b * big.order ** 4 == 161_243_136
    state = qsim.random_pure_state(_layout(big), np.random.default_rng(0))
    for run in (lambda: run_hidden_variant(big, state), lambda: hidden_variant_choi(big)):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="161243136 amplitudes"):
            run()
        assert time.perf_counter() - start < 1.0


def correction_gate(spec, l, m):
    """Diagonal control gate of branch (l, m): exp(-2 pi i m (l*k) / N) per term, then 1."""
    n = spec.order
    phases = np.ones(spec.d_a, dtype=complex)
    for i, k in enumerate(spec.term_map):
        if k is not None:
            phases[i] = np.exp(-2j * np.pi * (m * int(spec.quasigroup.column(k)[l]) % n) / n)
    return np.diag(phases)


def test_correction_gate_phases():
    for spec in (exact_spec(), _spare_control_spec()):
        n = spec.order
        phases = one_round_gates(spec.rep, spec.labels).phases
        assert phases.shape == (n * n, spec.d_a, spec.d_a)
        for l in range(n):
            for m in range(n):
                assert np.abs(phases[l * n + m] - correction_gate(spec, l, m)).max() <= 1e-14


@pytest.mark.parametrize("name", ["a", "b"])
def test_measured_variant_refuses_input_register_named_like_an_ancilla(name):
    spec = exact_spec()
    layout = qsim.RegisterLayout.of(("A", spec.d_a), (name, 3), ("B", spec.d_b))
    state = qsim.random_pure_state(layout, np.random.default_rng(54))
    with pytest.raises(DimensionMismatch):
        run_measured_variant(spec, state)
    spectator = qsim.PureState(qsim.RegisterLayout.of(("A", spec.d_a), ("S", 3), ("B", spec.d_b)),
                               state.amps)
    assert run_measured_variant(spec, spectator).max_deviation <= 1e-9


# --------------------------------------------------------------------------- #
#   measure-then-correct references: the per-branch loops the deferred        #
#   simulation replaced, kept here to pin its branch order and states         #
# --------------------------------------------------------------------------- #


def _opened(spec, state, *extra):
    n = spec.order
    full = qsim.product_state(state, qsim.maximally_entangled(n), *extra)
    shifts = {}
    for i, k in enumerate(spec.term_map):
        if k is not None:
            shifts[i] = np.zeros((n, n), dtype=complex)
            shifts[i][spec.quasigroup.left_div[:, k], np.arange(n)] = 1.0
    full = qsim.apply_on(full, qsim.controlled_gate(spec.d_a, shifts, n), ("A", "a"))
    reps = dict(enumerate(spec.rep.matrices))
    full = qsim.apply_on(full, qsim.controlled_gate(n, reps, spec.d_b), ("b", "B"))
    return qsim.apply_on(full, qsim.fourier_gate(n), "b")


def measured_reference(spec, state):
    """Measure (a, b), then correct each branch with its own phase gate and V_l^dag."""
    out = []
    for l, m, prob, post in qsim.measure_registers(_opened(spec, state), ("a", "b")):
        post = qsim.apply_on(post, correction_gate(spec, l, m), "A")
        post = qsim.apply_on(post, spec.rep.matrices[l].conj().T, "B")
        out.append((l, m, prob, post))
    return out


def hidden_reference(spec, state, seed_r):
    """Measure b, then x, then relay and correct each branch with dense controlled gates."""
    n = spec.order
    seed = qsim.basis_state(qsim.RegisterLayout.of(("x", n), ("y", n)), {"x": seed_r, "y": seed_r})
    full = _opened(spec, state, seed)
    powers = {l: np.linalg.matrix_power(qsim.shift_gate(n), l) for l in range(n)}
    full = qsim.apply_on(full, qsim.controlled_gate(n, powers, n), ("a", "x"))
    vdag = qsim.controlled_gate(n, {l: spec.rep.matrices[l].conj().T for l in range(n)}, spec.d_b)
    out = []
    for m, p_m, b_post in qsim.measure_registers(full, "b"):
        corr = qsim.controlled_gate(n, {l: correction_gate(spec, l, m) for l in range(n)},
                                    spec.d_a)
        for s, p_s, x_post in qsim.measure_registers(b_post, "x"):
            st = qsim.apply_on(x_post, powers[s], "y")
            st = qsim.apply_on(st, corr, ("a", "A"))
            st = qsim.apply_on(st, vdag, ("y", "B"))
            out.append((seed_r, m, s, p_m * p_s, st))
    return out


def dense_trajectories(spec, state):
    """Rows (seed r, m, s, probability, state) of ``hidden_reference`` over every seed."""
    return [row for r in range(spec.order) for row in hidden_reference(spec, state, r)]


def hidden_state_reference(spec, state, seed_r):
    """The hidden circuit at seed r before (b, x) is measured, every controlled gate dense."""
    n = spec.order
    seed = qsim.basis_state(qsim.RegisterLayout.of(("x", n), ("y", n)), {"x": seed_r, "y": seed_r})
    full = _opened(spec, state, seed)
    powers = {l: np.linalg.matrix_power(qsim.shift_gate(n), l) for l in range(n)}
    full = qsim.apply_on(full, qsim.controlled_gate(n, powers, n), ("a", "x"))
    full = qsim.apply_on(full, qsim.controlled_gate(n, powers, n), ("x", "y"))
    corr = {l * n + m: correction_gate(spec, l, m) for l in range(n) for m in range(n)}
    full = qsim.apply_on(full, qsim.controlled_gate(n * n, corr, spec.d_a), ("a", "b", "A"))
    vdag = {l: spec.rep.matrices[l].conj().T for l in range(n)}
    return qsim.apply_on(full, qsim.controlled_gate(n, vdag, spec.d_b), ("y", "B"))


def per_seed_trajectories(spec, state):
    """The loop the x roll replaced: the simulator's hidden circuit, run and measured per seed.

    Rows are (seed r, m, s, probability, state), the gates applied exactly
    as the simulator applies them at seed 0.
    """
    n = spec.order
    blocks = one_round_gates(spec.rep, spec.labels)
    powers = np.stack([qsim.shift_gate(n, l) for l in range(n)])
    opened = one_round_circuit(state, blocks, "A", "B")
    rows = []
    for r in range(n):
        seed = qsim.basis_state(qsim.RegisterLayout.of(("x", n), ("y", n)), {"x": r, "y": r})
        full = qsim.product_state(opened, seed)
        full = qsim.apply_controlled(full, powers, "a", "x")
        full = qsim.apply_controlled(full, powers, "x", "y")
        full = qsim.apply_controlled(full, blocks.phases, ("a", "b"), "A")
        full = qsim.apply_controlled(full, blocks.undo, "y", "B")
        rows += [(r, *row) for row in qsim.measure_registers(full, ("b", "x"))]
    return rows


def _assert_same_branches(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:-2] == w[:-2]
        assert g[-2] == pytest.approx(w[-2], abs=1e-12)
        assert g[-1].layout == w[-1].layout
        assert np.abs(g[-1].amps - w[-1].amps).max() <= 1e-12


def _spare_control_spec():
    base = net_spec()
    return QuasigroupProtocolSpec(base.quasigroup, base.rep, term_map=(3, 7, None))


@pytest.mark.parametrize("make", [
    net_spec,
    lambda: net_spec(m=2, eta=0.8, terms=(5, 17, 40)),
    _spare_control_spec,
], ids=["N12", "N72-three-terms", "N12-spare-control-state"])
def test_measured_variant_equals_measure_then_correct(make):
    spec = make()
    state = _supported_state(spec, np.random.default_rng(48))
    _assert_same_branches(run_measured_variant(spec, state).branches,
                          measured_reference(spec, state))


def test_hidden_trajectories_equal_measure_then_correct():
    spec = net_spec()
    state = qsim.random_pure_state(_layout(spec), np.random.default_rng(49))
    got = run_hidden_variant(spec, state).trajectories
    want = [(r, m, s, prob / spec.order, st) for r, m, s, prob, st in dense_trajectories(spec, state)]
    _assert_same_branches(got, want)


def hidden_density_reference(spec, state, trajectories=per_seed_trajectories):
    """The per-branch loop: sum of (p / N) times each trajectory's partial trace."""
    d = spec.d_a * spec.d_b
    rho = np.zeros((d, d), dtype=complex)
    for *_, prob, st in trajectories(spec, state):
        rho += (prob / spec.order) * qsim.partial_trace(st, ("A", "B"))
    return rho


def choi_reference(spec, trajectories=per_seed_trajectories):
    """The per-branch loop over the hidden circuit fed half of a maximally entangled pair."""
    d = spec.d_a * spec.d_b
    layout = qsim.RegisterLayout.of(("A", spec.d_a), ("B", spec.d_b),
                                    ("Ar", spec.d_a), ("Br", spec.d_b))
    entangled = qsim.PureState(layout, np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d))
    choi = np.zeros((d * d, d * d), dtype=complex)
    for *_, prob, st in trajectories(spec, entangled):
        choi += (prob / spec.order) * qsim.partial_trace(st, ("A", "B", "Ar", "Br"))
    return choi * d


@pytest.mark.parametrize("make", [
    net_spec,
    lambda: perturbed_spec(np.random.default_rng(51), eps=0.15),
], ids=["N12", "perturbed"])
def test_hidden_partial_trace_per_seed_equals_branch_loop(make):
    spec = make()
    state = qsim.random_pure_state(_layout(spec), np.random.default_rng(52))
    record = run_hidden_variant(spec, state)
    assert np.abs(record.output_density - hidden_density_reference(spec, state)).max() <= 1e-12
    assert np.abs(hidden_variant_choi(spec).choi_circuit - choi_reference(spec)).max() <= 1e-12

    n = spec.order
    want = [(r, m, s, prob / n, st) for r, m, s, prob, st in per_seed_trajectories(spec, state)]
    got = record.trajectories
    _assert_same_branches(got, want)
    assert sum(row[3] for row in got) == pytest.approx(1.0, abs=1e-12)


@functools.lru_cache(maxsize=None)
def _hidden_case(name: str) -> QuasigroupProtocolSpec:
    return {"N12": net_spec, "spare-control-state": _spare_control_spec,
            "perturbed": lambda: perturbed_spec(np.random.default_rng(53), eps=0.15)}[name]()


_cyclic_exact_specs = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(
        lambda terms: exact_spec(n, tuple(terms))))


@settings(deadline=None, max_examples=16)
@given(spec=st.one_of(_cyclic_exact_specs,
                      st.sampled_from(["N12", "perturbed", "spare-control-state"]).map(_hidden_case)),
       seed=st.integers(0, 2 ** 16))
def test_hidden_record_equals_every_seed_of_the_dense_reference(spec, seed):
    state = _supported_state(spec, np.random.default_rng(seed))
    n = spec.order
    record = run_hidden_variant(spec, state)
    _assert_same_branches(record.trajectories, [(r, m, s, prob / n, st)
                                                for r, m, s, prob, st in dense_trajectories(spec, state)])
    want = hidden_density_reference(spec, state, dense_trajectories)
    assert np.abs(record.output_density - want).max() <= 1e-12
    if not spec.unsupported:
        choi = hidden_variant_choi(spec).choi_circuit
        assert np.abs(choi - choi_reference(spec, dense_trajectories)).max() <= 1e-12

    seed_zero = _hidden_circuit(spec, state, "A", "B")
    x = seed_zero.layout.axis("x")
    for r in range(n):
        want = hidden_state_reference(spec, state, r)
        assert want.layout == seed_zero.layout
        assert np.abs(np.roll(seed_zero.tensor(), r, axis=x) - want.tensor()).max() <= 1e-12


def test_branch_matrices_equal_per_label_controlled_gates():
    for spec in (net_spec(m=2, eta=0.8, terms=(5, 17, 40)), _spare_control_spec()):
        mats = spec.rep.matrices
        stack = spec.branch_stack
        for l in range(spec.order):
            blocks = {i: mats[l].conj().T @ mats[spec.quasigroup.table[l, k]]
                      for i, k in enumerate(spec.term_map) if k is not None}
            dense = qsim.controlled_gate(spec.d_a, blocks, spec.d_b)
            assert np.abs(stack[l] - dense).max() <= 1e-15


def test_max_branch_distance_equals_dense_branch_loop(monkeypatch):
    base = net_spec(m=2, eta=0.8, terms=(5, 17, 40))
    spec = QuasigroupProtocolSpec(base.quasigroup, base.rep, term_map=(5, 17, 40, None, None))
    assert spec.order == 72 and spec.unsupported == (3, 4)
    target = spec.target_matrix()
    dense = max(qsim.operator_norm(target - b) for b in spec.branch_stack)
    got = branch_distance(spec.term_matrices(), spec.term_blocks)
    assert got == pytest.approx(dense, abs=1e-12)

    # SU(2) stacks take the quaternion distance, any other family the SVD
    svd_calls = []
    norms = approx_protocol.operator_norms
    monkeypatch.setattr(approx_protocol, "operator_norms",
                        lambda stack: svd_calls.append(stack.shape) or norms(stack))
    rng = np.random.default_rng(51)
    for n_out, n_terms in ((1, 1), (40, 3), (200, 2)):
        requested = np.stack([qsim.haar_special_unitary(2, rng) for _ in range(n_terms)])
        blocks = np.stack([[qsim.haar_special_unitary(2, rng) for _ in range(n_terms)]
                           for _ in range(n_out)])
        got = branch_distance(requested, blocks)
        assert not svd_calls
        assert got == pytest.approx(float(norms(requested[None] - blocks).max()), abs=1e-12)
    requested = np.stack([qsim.haar_special_unitary(3, rng) for _ in range(2)])
    blocks = np.stack([[qsim.haar_special_unitary(3, rng) for _ in range(2)] for _ in range(5)])
    dense = max(qsim.operator_norm(w - b) for row in blocks for w, b in zip(requested, row))
    assert branch_distance(requested, blocks) == pytest.approx(dense, abs=1e-12)
    assert svd_calls == [(5, 2, 3, 3)]
    # a non-unitary input fails the SU(2) test and still meets the cap on the SVD route
    with pytest.raises(DimensionMismatch):
        branch_distance(np.eye(2, dtype=complex)[None], -2.0 * np.eye(2, dtype=complex)[None, None])
    assert len(svd_calls) == 2


@functools.lru_cache(maxsize=None)
def _word_family(m: int):
    return net.build_net(2, m)


@settings(deadline=None, max_examples=10)
@given(m=st.sampled_from([1, 2, 3]), eta=st.floats(0.3, 1.5),
       picks=st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=4))
def test_measured_gap_at_most_certified_bound(m, eta, picks):
    fam = _word_family(m)
    built = qgbuilder.assemble_quasigroup(fam, eta)
    spec = QuasigroupProtocolSpec(built.quasigroup, ordinary_rep(built.quasigroup, fam.matrices),
                                  term_map=tuple(p % fam.size for p in picks))
    delta = built.certificate.delta_cert
    report = dilation_error(spec, eta, delta)
    assert report.measured <= math.sqrt(eta * eta + 4.0 * delta) + 1e-12


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       picks=st.lists(st.integers(0, 5), min_size=1, max_size=4), spare=st.integers(0, 1))
@example(seed=0, n=3, picks=[1, 1, 2], spare=1)
def test_term_gap_equals_dense_dilation_gap(seed, n, picks, spare):
    """The term gap against arbitrary unitary blocks is the dense ||T' - V'||; triangle holds."""
    rng = np.random.default_rng(seed)
    q = algebra.right_quasigroup_from_table(np.stack([rng.permutation(n) for _ in range(n)], axis=1))
    mats = np.stack([qsim.haar_unitary(2, rng) for _ in range(n)])
    terms = tuple(p % n for p in picks)        # repeated labels included
    spec = QuasigroupProtocolSpec(q, ordinary_rep(q, mats), term_map=terms + (None,) * spare)
    # a state without a term is requested the identity, the block every branch applies there
    requested = np.stack([qsim.haar_unitary(2, rng) for _ in terms] + [np.eye(2)] * spare)
    gap = term_gaps(requested, spec.term_blocks).max()

    ideal, actual = dilation_pair(spec)
    t = qsim.controlled_gate(spec.d_a, dict(enumerate(requested)), spec.d_b)
    wanted = np.broadcast_to(t / math.sqrt(n), (n, *t.shape)).reshape(ideal.shape)
    assert gap == pytest.approx(qsim.operator_norm(wanted - actual), abs=1e-12)
    gap_tu = qsim.operator_norm(wanted - ideal)
    assert gap <= gap_tu + dilation_error(spec, 0.5, 0.0).measured + 1e-12
