"""Compiled protocol instances: the cached circuit map against gate-by-gate runs.

Each instance runs its one-round circuit once, on the basis inputs, to build
the linear map that every later input goes through.  These tests run the same
circuit gate by gate on each input and compare branches, probabilities,
densities and the Choi matrix, check that the cached data cannot be written,
and pin the maps of the one gate builder to those of the two builders it
replaced: the group protocol's factor-quotient shifts undone by V_{l^-1}, and
the quasigroup protocol's permutation shifts undone by V_l^dag.  Specs without
a factor system keep the branch blocks V_l^dag V_{l*k} bit for bit.
"""

from __future__ import annotations

import functools
import gc
import math
import types
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastcu import algebra, approx_protocol, demos, exact_protocol, net, qgbuilder, qsim
from fastcu.algebra import ordinary_rep
from fastcu.approx_protocol import (
    QuasigroupProtocolSpec,
    _hidden_circuit,
    hidden_variant_choi,
    run_hidden_variant,
    run_measured_variant,
)
from fastcu.exact_protocol import (
    ControlledGroupUnitary,
    OneRoundBlocks,
    compile_round,
    correction_phases,
    correction_steps,
    lift_highrank,
    one_round_circuit,
    one_round_gates,
    run_exact_protocol,
    run_lifted_protocol,
)

TOL = 1e-12
ORDERS = (("A", "B"), ("B", "A"), ("B", "S", "A"))   # register orders; S is a spectator


def gate_by_gate_round(state, blocks, control, target):
    """The one-round circuit applied gate by gate on this input, then (a, b) measured."""
    full = one_round_circuit(state, blocks, control, target)
    for step in correction_steps(blocks, control, target, "a"):
        full = qsim.apply_controlled(full, *step)
    return qsim.measure_registers(full, ("a", "b"))


def assert_same_branches(got, want):
    assert got.registers == want.registers and got.layout == want.layout
    assert np.array_equal(got.outcomes, want.outcomes)
    assert np.abs(got.probabilities - want.probabilities).max() <= TOL
    assert np.abs(got.posts - want.posts).max() <= TOL


def input_state(d_a, d_b, order, rng, unsupported=()):
    """Random input on (A, B) and a dim-3 spectator S, in ``order``, zero on ``unsupported``."""
    dims = {"A": d_a, "B": d_b, "S": 3}
    layout = qsim.RegisterLayout.of(*((r, dims[r]) for r in order))
    t = qsim.random_pure_state(layout, rng).tensor().copy()
    index = [slice(None)] * len(order)
    index[order.index("A")] = list(unsupported)
    t[tuple(index)] = 0
    return qsim.PureState(layout, t / np.linalg.norm(t))


@functools.lru_cache(maxsize=None)
def exact_case(name: str) -> ControlledGroupUnitary:
    group, rep = demos.pauli_rep()
    return {"pauli-klein4": demos.controlled_pauli,
            "pauli-subset": demos.controlled_pauli_subset,
            "c3-subset": demos.controlled_c3_subset,
            "pauli-gap": lambda: ControlledGroupUnitary(group, rep, (2, None, 1, 3)),
            "lift": lambda: lift_highrank(demos.highrank_pauli(rank=2)).cgu}[name]()


@functools.lru_cache(maxsize=None)
def spec_case(name: str) -> QuasigroupProtocolSpec:
    if name == "perturbed":
        group = algebra.cyclic_group(4)
        mats = np.stack([np.diag([1.0, 1j ** k]).astype(complex) for k in range(4)])
        rng = np.random.default_rng(53)
        for k in range(1, 4):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            vals, vecs = np.linalg.eigh(h + h.conj().T)
            mats[k] = mats[k] @ (vecs * np.exp(0.1j * vals)) @ vecs.conj().T
        q = group.to_right_quasigroup()
        return QuasigroupProtocolSpec(q, ordinary_rep(q, mats), term_map=(0, 2))
    if name == "N72":
        fam = net.build_net(2, 2)
        built = qgbuilder.assemble_quasigroup(fam, 0.8)
        return QuasigroupProtocolSpec(built.quasigroup, ordinary_rep(built.quasigroup, fam.matrices),
                                      term_map=(5, 17, 40))
    fam = net.build_net(2, 1)
    built = qgbuilder.assemble_quasigroup(fam, 1.1)
    rep = ordinary_rep(built.quasigroup, fam.matrices)
    spare = (None,) if name == "N12-spare-control-state" else ()
    return QuasigroupProtocolSpec(built.quasigroup, rep, term_map=(2, 9, *spare))


def flat_unitary(n: int, rng) -> np.ndarray:
    """The Fourier gate between two random diagonal phase gates: unitary with flat entries."""
    left, right = (np.exp(2j * np.pi * rng.random(n)) for _ in range(2))
    return left[:, None] * qsim.fourier_gate(n) * right


@settings(deadline=None, max_examples=12)
@given(name=st.sampled_from(["pauli-subset", "c3-subset", "pauli-gap"]),
       replace_fourier=st.booleans(), order=st.sampled_from(ORDERS), seed=st.integers(0, 2 ** 16))
@example(name="pauli-gap", replace_fourier=True, order=("B", "S", "A"), seed=0)
def test_exact_map_equals_gate_by_gate_run(name, replace_fourier, order, seed):
    cgu = exact_case(name)
    rng = np.random.default_rng(seed)
    fourier = flat_unitary(cgu.group.order, rng) if replace_fourier else None
    unsupported = [i for i, k in enumerate(cgu.labels) if k is None]
    state = input_state(cgu.d_a, cgu.d_b, order, rng, unsupported)
    record = run_exact_protocol(cgu, state, fourier=fourier)
    assert_same_branches(record.branches,
                         gate_by_gate_round(state, one_round_gates(cgu.rep, cgu.labels, fourier),
                                            "A", "B"))
    assert record.max_deviation <= 1e-9


@settings(deadline=None, max_examples=6)
@given(order=st.sampled_from(ORDERS), seed=st.integers(0, 2 ** 16))
@example(order=("B", "S", "A"), seed=0)
def test_lifted_map_equals_gate_by_gate_run(order, seed):
    """The lifted run: control E, with A (and S) passing through as spectators."""
    lifted = lift_highrank(demos.highrank_pauli(rank=2))
    state = input_state(lifted.source.d_a, lifted.source.d_b, order, np.random.default_rng(seed))
    record = run_lifted_protocol(lifted, state)

    e0 = np.zeros(lifted.ancilla_dim, dtype=complex)
    e0[0] = 1.0
    full = qsim.PureState(state.layout.extended(("E", lifted.ancilla_dim)), np.kron(state.amps, e0))
    full = qsim.apply_on(full, lifted.pre, ("A", "E"))
    want = gate_by_gate_round(full, one_round_gates(lifted.cgu.rep, lifted.cgu.labels), "E", "B")
    posts = qsim.apply_on_rows(want.posts, want.layout, lifted.post, ("A", "E"))
    assert record.branches.layout == want.layout
    assert np.array_equal(record.branches.outcomes, want.outcomes)
    assert np.abs(record.branches.probabilities - want.probabilities).max() <= TOL
    assert np.abs(record.branches.posts - posts).max() <= TOL
    assert record.max_deviation <= 1e-9


SPEC_NAMES = ["N12", "perturbed", "N12-spare-control-state"]


@settings(deadline=None, max_examples=10)
@given(name=st.sampled_from(SPEC_NAMES), order=st.sampled_from(ORDERS), seed=st.integers(0, 2 ** 16))
@example(name="N12-spare-control-state", order=("B", "S", "A"), seed=0)
def test_measured_map_equals_gate_by_gate_run(name, order, seed):
    spec = spec_case(name)
    state = input_state(spec.d_a, spec.d_b, order, np.random.default_rng(seed),
                        spec.unsupported)
    record = run_measured_variant(spec, state)
    assert_same_branches(record.branches,
                         gate_by_gate_round(state, one_round_gates(spec.rep, spec.labels), "A", "B"))
    assert record.max_deviation <= 1e-9


@settings(deadline=None, max_examples=10)
@given(name=st.sampled_from(SPEC_NAMES), order=st.sampled_from(ORDERS), seed=st.integers(0, 2 ** 16))
@example(name="N12", order=("B", "S", "A"), seed=0)
def test_hidden_map_equals_gate_by_gate_run(name, order, seed):
    spec = spec_case(name)
    state = input_state(spec.d_a, spec.d_b, order, np.random.default_rng(seed),
                        spec.unsupported)
    record = run_hidden_variant(spec, state)
    full = _hidden_circuit(spec, state, "A", "B")
    assert_same_branches(record.branches, qsim.measure_registers(full, ("b", "x")))
    density = qsim.partial_trace(full, state.layout.names)
    assert np.abs(record.output_density - density).max() <= TOL
    assert record.deviation <= TOL


RECORD_CASES = [("exact", name) for name in (*sorted(demos.EXACT_DEMOS), "pauli-gap")] \
    + [("measured", name) for name in SPEC_NAMES] + [("lift", "lift")]


def recorded_run(kind, name, replace_fourier, order, rng):
    """One run of a record case, and the state each outcome l must leave, row l (or 0 for all)."""
    if kind == "lift":
        lifted = lift_highrank(demos.highrank_pauli(rank=2))
        h = lifted.source
        state = input_state(h.d_a, h.d_b, order, rng)
        e0 = np.eye(lifted.ancilla_dim)[0]
        want = np.kron(qsim.apply_on(state, h.target_matrix(), ("A", "B")).amps, e0)
        return lifted.cgu, run_lifted_protocol(lifted, state), want[None]
    spec = exact_case(name) if kind == "exact" else spec_case(name)
    state = input_state(spec.d_a, spec.d_b, order, rng, spec.unsupported)
    if kind == "measured":
        want = [qsim.apply_on(state, u, ("A", "B")).amps for u in spec.branch_stack]
        return spec, run_measured_variant(spec, state), np.stack(want)
    fourier = flat_unitary(spec.order, rng) if replace_fourier else None
    want = qsim.apply_on(state, spec.target_matrix(), ("A", "B")).amps
    return spec, run_exact_protocol(spec, state, fourier=fourier), want[None]


@settings(deadline=None, max_examples=24)
@given(case=st.sampled_from(RECORD_CASES), replace_fourier=st.booleans(),
       order=st.sampled_from(ORDERS), seed=st.integers(0, 2 ** 16))
@example(case=("measured", "N12-spare-control-state"), replace_fourier=False,
         order=("B", "S", "A"), seed=0)
@example(case=("exact", "pauli-gap"), replace_fourier=True, order=("B", "S", "A"), seed=0)
@example(case=("lift", "lift"), replace_fourier=False, order=("B", "S", "A"), seed=0)
def test_one_record_checks_every_branch_of_every_run(case, replace_fourier, order, seed):
    """Exact, measured and lifted runs: the record's deviation is the per-branch loop over its
    ``expected`` rows, every branch has probability 1/N^2 and every outcome l has 1/N."""
    spec, record, want = recorded_run(*case, replace_fourier, order, np.random.default_rng(seed))
    n = spec.order
    assert record.expected.shape == want.shape
    assert np.abs(record.expected - want).max() <= TOL
    assert len(record.branches) == n * n
    loop = max(float(np.linalg.norm(post.amps - record.expected[l if len(want) > 1 else 0]))
               for l, m, prob, post in record.branches)
    assert record.max_deviation == pytest.approx(loop, abs=1e-15)
    assert record.max_deviation <= 1e-9
    assert record.uniformity_error <= 1e-10
    assert np.abs(record.l_marginals - 1.0 / n).max() <= 1e-10
    assert record.cost_ebits == math.log2(n)


@pytest.mark.parametrize("name", ["N12", "perturbed"])
def test_choi_from_map_equals_gate_by_gate_run(name):
    spec = spec_case(name)
    d = spec.d_a * spec.d_b
    layout = qsim.RegisterLayout.of(("A", spec.d_a), ("B", spec.d_b),
                                    ("Ar", spec.d_a), ("Br", spec.d_b))
    entangled = qsim.PureState(layout, np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d))
    full = _hidden_circuit(spec, entangled, "A", "B")
    want = d * qsim.partial_trace(full, layout.names)
    assert np.abs(hidden_variant_choi(spec).choi_circuit - want).max() <= TOL


def test_runs_after_compilation_call_no_circuit(monkeypatch):
    """Once an instance is compiled, every run goes through its cached map."""
    cgu, spec = exact_case("pauli-subset"), spec_case("N12")
    cgu.compiled, spec.compiled, approx_protocol.hidden_map(spec)
    assert cgu.compiled is cgu.compiled
    assert approx_protocol.hidden_map(spec) is approx_protocol.hidden_map(spec)

    def refuse(*args, **kwargs):
        raise AssertionError("a compiled run called the circuit")

    for module in (exact_protocol, approx_protocol):
        monkeypatch.setattr(module, "one_round_circuit", refuse)
    monkeypatch.setattr(approx_protocol, "_hidden_circuit", refuse)
    rng = np.random.default_rng(7)
    assert run_exact_protocol(cgu, input_state(cgu.d_a, cgu.d_b, ("A", "B"), rng)).max_deviation <= 1e-9
    state = input_state(spec.d_a, spec.d_b, ("A", "B"), rng)
    assert run_measured_variant(spec, state).max_deviation <= 1e-9
    run_hidden_variant(spec, state)
    hidden_variant_choi(spec)


def test_hidden_map_is_dropped_with_its_spec():
    q = algebra.cyclic_group(3).to_right_quasigroup()
    mats = np.stack([np.diag([1.0, np.exp(2j * np.pi * k / 3)]) for k in range(3)])
    spec = QuasigroupProtocolSpec(q, ordinary_rep(q, mats), term_map=(1, 2))
    approx_protocol.hidden_map(spec)
    assert spec in approx_protocol._HIDDEN_MAPS
    gone = weakref.ref(spec)
    del spec
    gc.collect()
    assert gone() is None


def test_cached_arrays_refuse_writes():
    cgu, spec = exact_case("pauli-subset"), spec_case("N12")
    arrays = []
    for compiled in (cgu.compiled, spec.compiled):
        blocks = compiled.blocks
        arrays += [blocks.shifts, blocks.reps, blocks.fourier, blocks.phases, blocks.undo,
                   compiled.target, compiled.circuit.data, compiled.circuit.indices,
                   compiled.circuit.indptr]
    hidden = approx_protocol.hidden_map(spec)
    arrays += [spec.branch_stack, hidden.data, hidden.indices, hidden.indptr]
    for array in arrays:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0
    # the frozen stacks are copies: a writable representation stays writable, and the
    # spec's (a family's read-only matrices) shares no memory with them
    assert cgu.rep.matrices.flags.writeable
    for rep in (cgu.rep, spec.rep):
        assert not any(np.shares_memory(array, rep.matrices) for array in arrays)


def test_map_shapes_and_sparsity():
    """The measured map has N^2 rows per input dim, the hidden map N^4; both are sparse."""
    cgu, spec = exact_case("pauli-subset"), spec_case("N12")
    d = cgu.d_a * cgu.d_b
    assert cgu.compiled.circuit.shape == (d * cgu.group.order ** 2, d)
    d, n = spec.d_a * spec.d_b, spec.order
    assert spec.compiled.circuit.shape == (d * n ** 2, d)
    hidden = approx_protocol.hidden_map(spec)
    assert hidden.shape == (d * n ** 4, d)
    assert hidden.nnz <= hidden.shape[0] * d // 100


# --------------------------------------------------------------------------- #
#   the builders that one_round_gates replaced, kept here to pin its maps     #
# --------------------------------------------------------------------------- #


def reference_shift_gate_for(cgu, k):
    """Group shift |j> -> weight(j,k) |j * k^{-1}>; the weights are factor quotients."""
    group, lam = cgu.group, cgu.rep.factor_system.lam
    n = group.order
    out = np.zeros((n, n), dtype=complex)
    inv = group.inverse
    for j in range(n):
        out[group.cayley[j, inv[k]], j] = lam[k, inv[j]] / lam[inv[j], j]
    return out


def reference_exact_gates(cgu, fourier=None):
    """The group protocol's gates; the correction of branch (l, m) undoes V_{l^-1}."""
    group, n = cgu.group, cgu.group.order
    fourier = qsim.fourier_gate(n) if fourier is None else fourier
    eye = np.eye(n, dtype=complex)
    shifts = np.stack([eye if k is None else reference_shift_gate_for(cgu, k) for k in cgu.labels])
    products = np.stack([np.full(n, -1) if k is None else group.cayley[:, k] for k in cgu.labels],
                        axis=1)
    return OneRoundBlocks(shifts=shifts, reps=cgu.rep.matrices, fourier=fourier,
                          phases=correction_phases(fourier, products),
                          undo=cgu.rep.matrices[group.inverse])


def reference_left_div_permutation(quasigroup, k):
    """Permutation gate |j> -> |l(j,k)> on the ancilla; columns are left-division rows."""
    n = quasigroup.order
    out = np.zeros((n, n), dtype=complex)
    out[quasigroup.ldiv_column(k), np.arange(n)] = 1.0
    return out


def reference_quasigroup_gates(spec):
    """The quasigroup protocol's gates; the correction undoes V_l^dag."""
    n = spec.order
    fourier = qsim.fourier_gate(n)
    shifts = [np.eye(n, dtype=complex) if k is None
              else reference_left_div_permutation(spec.quasigroup, k) for k in spec.term_map]
    products = [np.full(n, -1) if k is None else spec.quasigroup.column(k) for k in spec.term_map]
    mats = spec.rep.matrices
    return OneRoundBlocks(shifts=np.stack(shifts), reps=mats, fourier=fourier,
                          phases=correction_phases(fourier, np.stack(products, axis=1)),
                          undo=mats.conj().transpose(0, 2, 1))


@pytest.mark.parametrize("name", ["pauli-klein4", "pauli-subset", "c3-subset", "pauli-gap",
                                  "lift"])
def test_one_builder_pins_the_group_protocol_maps(name):
    cgu = exact_case(name)
    want = compile_round(reference_exact_gates(cgu), cgu.target_matrix()).circuit.toarray()
    got = cgu.compiled.circuit.toarray()
    assert np.abs(got - want).max() <= 1e-15
    # c3-subset's V_{l^-1} and V_l^dag differ in the last bit; every other map is bitwise equal
    assert np.array_equal(got, want) or name == "c3-subset"
    # a replacement flat Fourier gate: the same map as the old builder's, every branch exact
    fourier = flat_unitary(cgu.group.order, np.random.default_rng(61))
    got = compile_round(one_round_gates(cgu.rep, cgu.labels, fourier), cgu.target_matrix())
    want = compile_round(reference_exact_gates(cgu, fourier), cgu.target_matrix())
    assert np.abs(got.circuit.toarray() - want.circuit.toarray()).max() <= 1e-15
    state = input_state(cgu.d_a, cgu.d_b, ("A", "B"), np.random.default_rng(62),
                        [i for i, k in enumerate(cgu.labels) if k is None])
    assert run_exact_protocol(cgu, state, fourier=fourier).max_deviation <= 1e-9


@pytest.mark.parametrize("name", ["N12", "N12-spare-control-state", "N72"])
def test_one_builder_pins_the_quasigroup_protocol_maps(name):
    spec = spec_case(name)
    want = compile_round(reference_quasigroup_gates(spec), spec.target_matrix()).circuit
    assert np.array_equal(spec.compiled.circuit.toarray(), want.toarray())


def reference_term_blocks(spec):
    """The branch blocks V_l^dag V_{l*k} of the terms, as formed before they carried lam (lam = 1
    here)."""
    mats = spec.rep.matrices
    products = np.stack([spec.quasigroup.column(k) for k in spec.term_map if k is not None], axis=1)
    return np.einsum("lab,libc->liac", mats.conj().transpose(0, 2, 1), mats[products])


@pytest.mark.parametrize("name", ["N12", "N12-spare-control-state", "N72"])
def test_specs_without_factors_keep_their_blocks_and_maps_bit_for_bit(name):
    """A spec over a family without a factor system: branch blocks, branch stack, compiled
    map and hidden map are exactly those of the factor-free formula and gates."""
    spec = spec_case(name)
    blocks = reference_term_blocks(spec)
    active = [i for i, k in enumerate(spec.term_map) if k is not None]
    assert np.array_equal(spec.term_blocks[:, active], blocks)
    assert np.array_equal(spec.term_blocks[:, list(spec.unsupported)],
                          np.broadcast_to(np.eye(spec.d_b), (spec.order, len(spec.unsupported),
                                                             spec.d_b, spec.d_b)))
    stack = [qsim.controlled_gate(spec.d_a, dict(zip(active, row)), spec.d_b) for row in blocks]
    assert np.array_equal(spec.branch_stack, np.stack(stack))
    reference = compile_round(reference_quasigroup_gates(spec), spec.target_matrix())
    got, want = spec.compiled.circuit, reference.circuit
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(want, part))
    if spec.order > 12:         # the N = 72 hidden map has 161 M rows per basis input
        return
    # the hidden circuit reads only the order and the compiled gates
    gates = types.SimpleNamespace(order=spec.order, compiled=reference)
    want = exact_protocol.circuit_map(functools.partial(_hidden_circuit, gates), spec.d_a, spec.d_b)
    got = approx_protocol.hidden_map(spec)
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(want, part))
