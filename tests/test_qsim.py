"""Register-level simulator and channel helpers."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from fastcu import qsim
from fastcu.errors import DimensionMismatch


def test_operator_norm_identity_and_scaling():
    assert qsim.operator_norm(np.eye(5)) == pytest.approx(1.0)
    assert qsim.operator_norm(2 * np.eye(3)) == pytest.approx(2.0)


def test_operator_norm_exact_rep_combination(c3_diag):
    group, rep = c3_diag
    mats = rep.matrices
    for l in range(3):
        for k in range(3):
            j = group.cayley[l, k]
            combo = mats[l].conj().T @ mats[j] - mats[k]
            assert qsim.operator_norm(combo) < 1e-12


def test_operator_norms_batch_matches_svd():
    rng = np.random.default_rng(0)
    stack = rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2))
    got = qsim.operator_norms(stack)
    want = [np.linalg.svd(m, compute_uv=False)[0] for m in stack]
    assert np.allclose(got, want, atol=1e-12)
    stack3 = rng.normal(size=(11, 3, 3)) + 1j * rng.normal(size=(11, 3, 3))
    got3 = qsim.operator_norms(stack3)
    want3 = [np.linalg.svd(m, compute_uv=False)[0] for m in stack3]
    assert np.allclose(got3, want3, atol=1e-12)


def test_operator_norm_unitary_invariance():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for _ in range(5):
        u = qsim.haar_unitary(8, rng)
        assert qsim.operator_norm(u.conj().T @ m @ u) == pytest.approx(
            qsim.operator_norm(m), abs=1e-10)


def test_maximally_entangled_trivial_and_rank4():
    one = qsim.maximally_entangled(1)
    assert np.allclose(one.amps, [1.0])
    four = qsim.maximally_entangled(4)
    t = four.tensor()
    assert np.allclose(np.diag(t), 0.5)
    assert np.allclose(t - np.diag(np.diag(t)), 0)
    # Schmidt spectrum flat across 4 terms: 2 ebits
    probs = np.linalg.svd(t, compute_uv=False) ** 2
    assert np.allclose(probs, 0.25)
    three = qsim.maximally_entangled(3)
    ent = -sum(p * np.log2(p) for p in np.linalg.svd(three.tensor(), compute_uv=False) ** 2)
    assert ent == pytest.approx(np.log2(3), abs=1e-12)


def test_apply_on_identity_and_dimension_check():
    rng = np.random.default_rng(2)
    layout = qsim.RegisterLayout.of(("a", 3), ("b", 2), ("c", 2))
    state = qsim.random_pure_state(layout, rng)
    same = qsim.apply_on(state, np.eye(2), "b")
    assert np.allclose(same.amps, state.amps)
    with pytest.raises(DimensionMismatch):
        qsim.apply_on(state, np.eye(3), "b")


def test_apply_on_matches_dense_kron():
    rng = np.random.default_rng(3)
    layout = qsim.RegisterLayout.of(("a", 2), ("b", 2), ("c", 3))
    state = qsim.random_pure_state(layout, rng)
    f = qsim.fourier_gate(2)
    # apply twice on b and compare against the full dense operator
    out = qsim.apply_on(qsim.apply_on(state, f, "b"), f, "b")
    dense = np.kron(np.kron(np.eye(2), f @ f), np.eye(3))
    assert np.allclose(out.amps, dense @ state.amps, atol=1e-12)
    # gate on (c, a) exercises non-adjacent, reordered registers
    g = qsim.haar_unitary(6, rng)
    out2 = qsim.apply_on(state, g, ("c", "a"))
    t = state.tensor().transpose(2, 0, 1).reshape(6, 2)
    want = (g @ t).reshape(3, 2, 2).transpose(1, 2, 0).reshape(-1)
    assert np.allclose(out2.amps, want, atol=1e-12)


def test_controlled_gate_with_identity_blocks():
    rng = np.random.default_rng(4)
    layout = qsim.RegisterLayout.of(("b", 4), ("B", 2))
    state = qsim.random_pure_state(layout, rng)
    gate = qsim.controlled_gate(4, {j: np.eye(2) for j in range(4)}, 2)
    out = qsim.apply_on(state, gate, ("b", "B"))
    assert np.allclose(out.amps, state.amps)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_apply_controlled_equals_dense_controlled_gate(data):
    dims = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5), label="dims")
    names = [f"r{i}" for i in range(len(dims))]
    order = data.draw(st.permutations(range(len(dims))), label="register order")
    n_controls = data.draw(st.integers(1, len(dims) - 1), label="controls")
    n_targets = data.draw(st.integers(1, len(dims) - n_controls), label="targets")
    controls = [names[i] for i in order[:n_controls]]
    targets = [names[i] for i in order[n_controls:n_controls + n_targets]]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    layout = qsim.RegisterLayout(tuple(names), tuple(dims))
    state = qsim.random_pure_state(layout, rng)
    dc = math.prod(layout.dim_of(r) for r in controls)
    dt = math.prod(layout.dim_of(r) for r in targets)
    blocks = np.stack([qsim.haar_unitary(dt, rng) for _ in range(dc)])
    got = qsim.apply_controlled(state, blocks, controls, targets)
    dense = qsim.controlled_gate(dc, dict(enumerate(blocks)), dt)
    want = qsim.apply_on(state, dense, controls + targets)
    assert np.allclose(got.amps, want.amps, rtol=0, atol=1e-12)


def test_apply_controlled_rejects_bad_registers_and_shapes():
    layout = qsim.RegisterLayout.of(("a", 2), ("b", 3))
    state = qsim.random_pure_state(layout, np.random.default_rng(6))
    with pytest.raises(DimensionMismatch):
        qsim.apply_controlled(state, np.stack([np.eye(2)] * 2), "a", "a")
    with pytest.raises(DimensionMismatch):
        qsim.apply_controlled(state, np.stack([np.eye(3)] * 3), "a", "b")
    with pytest.raises(DimensionMismatch):
        qsim.apply_controlled(state, np.stack([np.eye(2)] * 3), "a", "b")


def test_is_unitary_on_stacks():
    rng = np.random.default_rng(7)
    stack = np.stack([qsim.haar_unitary(3, rng) for _ in range(5)])
    assert qsim.is_unitary(stack)
    stack[2] *= 1.01
    assert not qsim.is_unitary(stack)
    assert not qsim.is_unitary(np.ones(3))
    assert not qsim.is_unitary(np.ones((2, 3)))


def test_measure_enumerates_branches_exactly():
    rng = np.random.default_rng(5)
    layout = qsim.RegisterLayout.of(("a", 3), ("b", 2), ("c", 2))
    state = qsim.random_pure_state(layout, rng)
    branches = qsim.measure_registers(state, ("a", "b"))
    total = sum(p for _, _, p, _ in branches)
    assert total == pytest.approx(1.0, abs=1e-10)
    # brute-force partition of |amp|^2 over the measured indices
    t = np.abs(state.tensor()) ** 2
    for a, b, p, post_state in branches:
        assert p == pytest.approx(t[a, b, :].sum(), abs=1e-12)
        post = state.tensor()[a, b, :]
        assert np.allclose(post_state.amps, post / np.linalg.norm(post))


def _listed_branches(state, registers):
    """The list measure_registers built branch by branch before it returned arrays."""
    layout = state.layout
    axes = [layout.axis(r) for r in registers]
    dims = [layout.dims[a] for a in axes]
    t = np.moveaxis(state.tensor(), axes, range(len(axes))).reshape(math.prod(dims), -1)
    probs = np.sum(np.abs(t) ** 2, axis=1)
    reduced = layout.without(registers)
    kept = np.flatnonzero(probs > qsim.BRANCH_PROB_FLOOR)
    posts = t[kept] / np.sqrt(probs[kept])[:, None]
    values = np.stack(np.unravel_index(kept, dims), axis=1).tolist()
    return [(*v, p, qsim.PureState(reduced, post))
            for v, p, post in zip(values, probs[kept].tolist(), posts)]


def _same_outcome(got, want):
    assert got[:-1] == want[:-1]
    assert got[-1].layout == want[-1].layout
    assert np.array_equal(got[-1].amps, want[-1].amps)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_measure_arrays_equal_brute_force_slices(data):
    dims = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="dims")
    names = [f"r{i}" for i in range(len(dims))]
    order = data.draw(st.permutations(names), label="order")
    measured = order[:data.draw(st.integers(1, len(names)), label="how many")]
    if math.prod(dims[names.index(r)] for r in measured) == 1:
        dims[names.index(measured[0])] = 2     # room for an outcome of zero weight
    layout = qsim.RegisterLayout(tuple(names), tuple(dims))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    outcomes = list(itertools.product(*(range(layout.dim_of(r)) for r in measured)))
    dropped = outcomes[data.draw(st.integers(0, len(outcomes) - 1), label="dropped")]

    def slot(values):
        index = [slice(None)] * len(names)
        for r, v in zip(measured, values):
            index[layout.axis(r)] = v
        return tuple(index)

    t = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    t[slot(dropped)] = 0.0
    state = qsim.PureState(layout, t / np.linalg.norm(t))

    branches = qsim.measure_registers(state, measured)
    kept = [v for v in outcomes if np.sum(np.abs(state.tensor()[slot(v)]) ** 2)
            > qsim.BRANCH_PROB_FLOOR]
    assert dropped not in kept
    assert len(branches) == len(kept) == len(outcomes) - 1
    assert branches.layout == layout.without(measured)
    assert branches.outcomes.tolist() == [list(v) for v in kept]
    for i, v in enumerate(kept):
        piece = state.tensor()[slot(v)].reshape(-1)
        prob = np.sum(np.abs(piece) ** 2)
        assert branches.probabilities[i] == pytest.approx(prob, rel=1e-14, abs=1e-16)
        assert np.abs(branches.posts[i] - piece / math.sqrt(prob)).max() <= 1e-14

    listed = _listed_branches(state, measured)
    assert len(listed) == len(branches)
    for got, want in zip(branches, listed):
        _same_outcome(got, want)
    for i in range(-len(listed), len(listed)):
        _same_outcome(branches[i], listed[i])
    for got, want in zip(branches[::-2], listed[::-2]):
        _same_outcome(got, want)
    with pytest.raises(IndexError):
        branches[len(listed)]


def test_branches_reject_rows_off_unit_norm():
    layout = qsim.RegisterLayout.of(("a", 2))
    posts = np.array([[1.0, 0.0], [0.6, 0.8 + 1e-6]], dtype=complex)
    with pytest.raises(DimensionMismatch):
        qsim.Branches(("m",), np.array([[0], [1]]), np.array([0.5, 0.5]), posts, layout)
    with pytest.raises(DimensionMismatch):
        qsim.Branches(("m",), np.array([[0]]), np.array([1.0]), posts[:1, :1], layout)


def test_branches_check_non_contiguous_posts():
    layout = qsim.RegisterLayout.of(("a", 3))
    rng = np.random.default_rng(11)
    unit = np.stack([qsim.random_pure_state(layout, rng).amps for _ in range(4)])
    for posts in (np.asfortranarray(unit), unit[:, ::-1], unit[::2]):
        assert not posts.flags.c_contiguous
        n = len(posts)
        branches = qsim.Branches(("m",), np.arange(n)[:, None], np.full(n, 1 / n), posts, layout)
        assert branches.posts is posts
        off = posts.copy(order="F")
        off[-1] *= 1 + 1e-6
        with pytest.raises(DimensionMismatch):
            qsim.Branches(("m",), np.arange(n)[:, None], np.full(n, 1 / n), off, layout)


def _measured_input_cases():
    """(state, measured registers) per case; only "some branches dropped" has an outcome of
    zero weight."""
    rng = np.random.default_rng(12)
    layout = qsim.RegisterLayout.of(("a", 2), ("b", 3), ("c", 2))
    leading = qsim.random_pure_state(layout, rng)
    every = qsim.random_pure_state(layout, rng)
    t = qsim.random_pure_state(layout, rng).tensor().copy()
    t[:, 1] = 0.0
    dropped = qsim.PureState(layout, t / np.linalg.norm(t))
    sides = qsim.random_pure_state(
        qsim.RegisterLayout.of(("s0", 2), ("m", 3), ("s1", 2), ("n", 2), ("s2", 3)), rng)
    earlier = qsim.measure_registers(sides, "s0")
    return {
        "measured registers lead": (leading, ("a", "b")),
        "every branch kept": (every, ("c", "a")),
        "some branches dropped": (dropped, ("b",)),
        "spectators on either side": (sides, ("n", "m")),
        "post state of an earlier measurement": (earlier.state(0), ("m",)),
    }


@pytest.mark.parametrize("case", list(_measured_input_cases()))
def test_measurement_never_writes_into_its_input(case):
    state, measured = _measured_input_cases()[case]
    before = state.amps.copy()
    kept = state.layout.without(measured).names
    rho = qsim.partial_trace(state, kept)
    branches = qsim.measure_registers(state, measured)
    if case == "measured registers lead":
        assert np.shares_memory(qsim._move_axes(state.tensor(), (0, 1), (0, 1)), state.amps)
    dims = [state.layout.dim_of(r) for r in measured]
    assert (len(branches) < math.prod(dims)) == (case == "some branches dropped")
    assert not np.shares_memory(branches.posts, state.amps)
    assert state.amps.tobytes() == before.tobytes()
    assert np.array_equal(qsim.partial_trace(state, kept), rho)
    branches.posts[:] = 0.0
    assert state.amps.tobytes() == before.tobytes()


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_leading_registers_equal_the_moveaxis_route(data):
    """Gates, maps and traces on registers that lead the layout move no axis; the results
    equal the explicit ``np.moveaxis`` route bit for bit."""
    dims = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5), label="dims")
    names = [f"r{i}" for i in range(len(dims))]
    n_lead = data.draw(st.integers(1, len(dims)), label="leading registers")
    lead = names[:n_lead]
    n_controls = data.draw(st.integers(0, n_lead - 1), label="controls")
    controls, targets = lead[:n_controls], lead[n_controls:]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    layout = qsim.RegisterLayout(tuple(names), tuple(dims))
    state = qsim.random_pure_state(layout, rng)
    front = range(n_lead)
    moved = np.moveaxis(state.tensor(), front, front)
    d = math.prod(dims[:n_lead])

    dc = math.prod(dims[:n_controls])
    blocks = np.stack([qsim.haar_unitary(d // dc, rng) for _ in range(dc)])
    want = np.moveaxis((blocks @ moved.reshape(dc, d // dc, -1)).reshape(moved.shape), front, front)
    assert np.array_equal(qsim.apply_controlled(state, blocks, controls, targets).amps,
                          want.reshape(-1))

    ancillas = qsim.RegisterLayout.of(("x", data.draw(st.integers(1, 3), label="ancilla")))
    dense = rng.normal(size=(d * ancillas.dim, d)) + 1j * rng.normal(size=(d * ancillas.dim, d))
    for matrix in (dense, sparse.csr_matrix(dense)):
        out = (matrix @ moved.reshape(d, -1)).reshape(d, ancillas.dim, -1).swapaxes(1, 2)
        want = np.moveaxis(out.reshape(*moved.shape, ancillas.dim), front, front)
        got = qsim.apply_map(qsim.PureState(layout, state.amps, normalized=False), matrix, lead,
                             ancillas)
        assert np.array_equal(got.amps, want.reshape(-1))

    rows = np.stack([qsim.random_pure_state(layout, rng).amps for _ in range(3)])
    gates = np.stack([qsim.haar_unitary(d, rng) for _ in range(3)])
    shifted = range(1, 1 + n_lead)
    t = np.moveaxis(rows.reshape(-1, *dims), shifted, shifted)
    for gate in (gates[0], gates):
        out = np.moveaxis((gate @ t.reshape(3, d, -1)).reshape(t.shape), shifted, shifted)
        assert np.array_equal(qsim.apply_on_rows(rows, layout, gate, lead), out.reshape(3, -1))

    flat = moved.reshape(d, -1)
    assert np.array_equal(qsim.partial_trace(state, lead), flat @ flat.conj().T)


def test_branch_rows_are_outcome_probability_state_tuples():
    rng = np.random.default_rng(9)
    layout = qsim.RegisterLayout.of(("a", 3), ("b", 2), ("c", 2))
    branches = qsim.measure_registers(qsim.random_pure_state(layout, rng), ("c", "a"))
    n = len(branches)
    assert n == 6

    def row(i):
        return (*branches.outcomes[i].tolist(), branches.probabilities[i], branches.state(i))

    for got, want in zip([branches[i] for i in range(-n, n)], [row(i % n) for i in range(-n, n)]):
        assert got[:-1] == want[:-1] and type(got[2]) is float
        assert got[-1].layout == layout.without(("c", "a"))
        assert np.array_equal(got[-1].amps, want[-1].amps)
    for got, want in ((list(branches), range(n)), (branches[:], range(n)),
                      (branches[-2::-2], range(n)[-2::-2]), (branches[7:], [])):
        assert len(got) == len(want)
        for g, i in zip(got, want):
            assert g[:-1] == row(i)[:-1]
            assert np.array_equal(g[-1].amps, branches.posts[i])
    with pytest.raises(IndexError):
        branches[-n - 1]


def test_apply_on_rows_equals_apply_on_per_row():
    rng = np.random.default_rng(10)
    layout = qsim.RegisterLayout.of(("a", 2), ("b", 3), ("c", 2))
    states = [qsim.random_pure_state(layout, rng) for _ in range(4)]
    rows = np.stack([s.amps for s in states])
    gate = qsim.haar_unitary(4, rng)
    got = qsim.apply_on_rows(rows, layout, gate, ("c", "a"))
    for g, s in zip(got, states):
        assert np.abs(g - qsim.apply_on(s, gate, ("c", "a")).amps).max() <= 1e-14
    gates = np.stack([qsim.haar_unitary(3, rng) for _ in range(5)])
    got = qsim.apply_on_rows(states[0].amps[None], layout, gates, "b")
    assert got.shape == (5, layout.dim)
    for g, u in zip(got, gates):
        assert np.abs(g - qsim.apply_on(states[0], u, "b").amps).max() <= 1e-14


def test_measure_deterministic_register_single_branch():
    layout = qsim.RegisterLayout.of(("a", 2), ("B", 3))
    amps = np.zeros(6, dtype=complex)
    amps[0:3] = np.array([1, 1j, -1]) / np.sqrt(3)
    state = qsim.PureState(layout, amps)
    branches = qsim.measure_registers(state, "a")
    assert len(branches) == 1
    assert branches[0][0] == 0
    assert branches[0][1] == pytest.approx(1.0)


def test_norm_preservation_under_unitary_gates():
    rng = np.random.default_rng(8)
    layout = qsim.RegisterLayout.of(("a", 4), ("b", 3))
    state = qsim.random_pure_state(layout, rng)
    for _ in range(10):
        g = qsim.haar_unitary(12, rng)
        state = qsim.apply_on(state, g, ("a", "b"))
        assert abs(state.norm - 1.0) < 1e-12


def test_pure_state_norm_validation():
    layout = qsim.RegisterLayout.of(("a", 2))
    with pytest.raises(DimensionMismatch):
        qsim.PureState(layout, np.array([1.0, 1.0]))
    raw = qsim.PureState(layout, np.array([1.0, 1.0]), normalized=False)
    assert raw.norm == pytest.approx(np.sqrt(2))
