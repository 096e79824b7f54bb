"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines; every tolerance is fixed here, nothing is calibrated later.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import random_right_quasigroup
from fastcu import algebra, demos, net, qgbuilder, qsim
from fastcu.algebra import certify_approx_rep, cyclic_group, ordinary_rep
from fastcu.approx_protocol import (
    QuasigroupProtocolSpec,
    dilation_error,
    dilation_pair,
    hidden_variant_choi,
    shift_register_check,
)
from fastcu.compiler import CompileTargets, compile_target, normalize_su
from fastcu.exact_protocol import run_exact_protocol, run_lifted_protocol, lift_highrank
from fastcu.qgbuilder import assemble_quasigroup, hall_deficiency_witness, max_matching

MIXING_RATE = np.sqrt(5.0) / 3.0


def _report(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion:>2}: PASS  {detail}")


def _run_exact_demo(cgu, trials: int, seed: int):
    rng = np.random.default_rng(seed)
    layout = qsim.RegisterLayout.of(("A", cgu.d_a), ("B", cgu.d_b))
    worst_dev = 0.0
    worst_prob = 0.0
    n = cgu.group.order
    for _ in range(trials):
        record = run_exact_protocol(cgu, qsim.random_pure_state(layout, rng))
        assert len(record.branches) == n * n
        worst_dev = max(worst_dev, record.max_deviation)
        worst_prob = max(worst_prob, record.uniformity_error)
    return worst_dev, worst_prob


def test_criterion_1_exact_pauli_family():
    start = time.perf_counter()
    cgu = demos.controlled_pauli()
    assert cgu.d_a == 4 and cgu.d_b == 2 and cgu.group.order == 4
    worst_dev, worst_prob = _run_exact_demo(cgu, trials=50, seed=101)
    elapsed = time.perf_counter() - start
    assert worst_dev <= 1e-9
    assert worst_prob <= 1e-10
    assert cgu.cost_ebits() == 2.0
    assert elapsed < 1.0
    _report(1, f"16 branches exact (dev {worst_dev:.2e}), cost 2.0 ebits, {elapsed:.2f}s")


def test_criterion_2_exact_pauli_subset():
    start = time.perf_counter()
    cgu = demos.controlled_pauli_subset()
    assert len(cgu.subset) == 3
    worst_dev, worst_prob = _run_exact_demo(cgu, trials=50, seed=102)
    elapsed = time.perf_counter() - start
    assert worst_dev <= 1e-9
    assert worst_prob <= 1e-10
    assert cgu.cost_ebits() == 2.0
    assert elapsed < 1.0
    _report(2, f"3-term subset exact (dev {worst_dev:.2e}), cost still 2.0 ebits, {elapsed:.2f}s")


def test_criterion_3_exact_order3_subset():
    start = time.perf_counter()
    cgu = demos.controlled_c3_subset()
    worst_dev, worst_prob = _run_exact_demo(cgu, trials=50, seed=103)
    elapsed = time.perf_counter() - start
    assert worst_dev <= 1e-9
    assert worst_prob <= 1e-10
    assert abs(cgu.cost_ebits() - np.log2(3)) <= 1e-12
    assert elapsed < 1.0
    _report(3, f"9 branches exact (dev {worst_dev:.2e}), cost log2(3) ebits, {elapsed:.2f}s")


def test_criterion_4_net_sizes_and_mixing_bound():
    start = time.perf_counter()
    sizes = {}
    for m in (1, 2, 3):
        fam = net.build_net(2, m)
        sizes[m] = fam.size
        res = qsim.operator_norms(
            np.einsum("kab,kac->kbc", fam.matrices.conj(), fam.matrices) - np.eye(2))
        assert res.max() <= 1e-10
        assert fam.mixing_bound == pytest.approx(MIXING_RATE ** m, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert sizes == {1: 12, 2: 72, 3: 432}
    assert net.mixing_bound(2, 1) == pytest.approx(0.7453559925, abs=1e-9)
    assert net.mixing_bound(2, 2) == pytest.approx(0.5555555556, abs=1e-9)
    assert net.mixing_bound(2, 3) == pytest.approx(0.4140866625, abs=1e-9)
    assert elapsed < 5.0
    _report(4, f"sizes 12/72/432 exact, all unitary, bounds 0.745/0.556/0.414, {elapsed:.2f}s")


def test_criterion_5_high_rank_lift():
    h = demos.highrank_pauli(rank=2)
    assert h.d_a == 8
    lifted = lift_highrank(h)
    rng = np.random.default_rng(105)
    layout = qsim.RegisterLayout.of(("A", 8), ("B", 2))
    worst = 0.0
    for _ in range(20):
        record = run_lifted_protocol(lifted, qsim.random_pure_state(layout, rng))
        worst = max(worst, record.max_deviation)
    assert worst <= 1e-9
    _report(5, f"rank-2 projector lift exact on 20 random states (dev {worst:.2e})")


def test_criterion_6_quasigroup_build_and_recount(net_m2):
    start = time.perf_counter()
    etas = list(np.geomspace(0.3, 2.0, 16))
    idx = np.arange(net_m2.size)
    recount_checked = 0
    for i, eta in enumerate(etas):
        built = assemble_quasigroup(net_m2, eta)
        table = built.quasigroup.table
        for col in range(net_m2.size):
            assert np.array_equal(np.sort(table[:, col]), idx)
        assert built.certificate.delta_cert <= built.delta_from_matching + 1e-12
        if i % 4 == 0 or eta == etas[-1]:
            # independent exhaustive recount through LAPACK singular values
            counts = np.zeros(net_m2.size, dtype=int)
            for k in range(net_m2.size):
                lefts = net_m2.matrices[built.quasigroup.left_div[:, k]]
                res = np.linalg.svd(lefts @ net_m2.matrices[k] - net_m2.matrices,
                                    compute_uv=False)[:, 0]
                counts[k] = int(np.count_nonzero(res >= eta))
            assert built.certificate.delta_cert == counts.max() / net_m2.size
            assert np.array_equal(built.certificate.per_k_violation_count, counts)
            recount_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, f"16-point eta scan, 72 columns valid each, {recount_checked} exhaustive "
               f"recounts equal, {elapsed:.1f}s")


def _perturbed_family(group, rng, eps):
    n = group.order
    w = np.exp(2j * np.pi / n)
    mats = np.stack([np.diag([1.0, w ** k]).astype(complex) for k in range(n)])
    for k in range(1, n):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + h.conj().T) / 2
        vals, vecs = np.linalg.eigh(h)
        mats[k] = mats[k] @ (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T
    return mats


def test_criterion_7_dilation_bound_many_instances():
    rng = np.random.default_rng(107)
    checked = 0
    worst_margin = np.inf

    # degenerate exact case: measured is zero and below any bound
    group = cyclic_group(4)
    q = group.to_right_quasigroup()
    w = np.exp(2j * np.pi / 4)
    exact = np.stack([np.diag([1.0, w ** k]).astype(complex) for k in range(4)])
    spec = QuasigroupProtocolSpec(q, ordinary_rep(q, exact), term_map=(0, 2))
    report = dilation_error(spec, 0.5, 0.0)
    assert report.measured <= 1e-12
    checked += 1

    for order in (3, 4, 6):
        group = cyclic_group(order)
        q = group.to_right_quasigroup()
        for eps in (0.05, 0.2, 0.5):
            mats = _perturbed_family(group, rng, eps)
            for eta in (0.25, 0.8):
                cert = certify_approx_rep(mats, q, eta)
                spec = QuasigroupProtocolSpec(q, ordinary_rep(q, mats),
                                              term_map=tuple(range(min(2, order))))
                rep = dilation_error(spec, eta, cert.delta_cert)
                margin = rep.certified_gap_bound - rep.measured
                assert margin >= -1e-12
                assert rep.diamond_bound_measured <= rep.diamond_bound_certified + 1e-12
                worst_margin = min(worst_margin, margin)
                checked += 1

    for eta in (0.6, 0.9, 1.3):
        built = assemble_quasigroup(net.build_net(2, 1), eta)
        spec = QuasigroupProtocolSpec(built.quasigroup,
                                      ordinary_rep(built.quasigroup, built.net.matrices),
                                      term_map=(1, 4, 7))
        rep = dilation_error(spec, eta, built.certificate.delta_cert)
        assert rep.measured <= rep.certified_gap_bound + 1e-12
        worst_margin = min(worst_margin, rep.certified_gap_bound - rep.measured)
        checked += 1

    assert checked >= 20
    _report(7, f"{checked} instances, zero violations, tightest margin {worst_margin:.3f}")


def test_criterion_8_hidden_variant_channel_equality():
    fam = net.build_net(2, 1)
    built = assemble_quasigroup(fam, eta=1.1)
    spec = QuasigroupProtocolSpec(built.quasigroup,
                                  ordinary_rep(built.quasigroup, fam.matrices),
                                  term_map=(2, 9))
    assert spec.order == 12 and spec.d_a == 2 and spec.d_b == 2
    comparison = hidden_variant_choi(spec)
    assert comparison.distance <= 1e-9
    assert shift_register_check(12) == 0.0
    _report(8, f"N=12 channel Choi distance {comparison.distance:.2e}, pointer relay exact")


@pytest.fixture(scope="module")
def compiled_3x2():
    rng = np.random.default_rng(0)
    blocks = np.stack([qsim.haar_unitary(2, rng) for _ in range(3)])
    target = normalize_su(blocks)
    start = time.perf_counter()
    result = compile_target(target, CompileTargets(zeta=0.3, eta=0.3, delta=0.3))
    elapsed = time.perf_counter() - start
    return target, result, elapsed


def test_criterion_9_compile_end_to_end(compiled_3x2):
    target, result, elapsed = compiled_3x2
    plan, spec, report = result.plan, result.spec, result.report
    built = plan.built
    assert plan.zeta <= 0.3 and built.eta <= 0.3 and built.certificate.delta_cert <= 0.3
    assert report.diamond_bound_measured <= report.certified_error_bound + 1e-9

    # independent dense recomputation of the triangle chain
    ideal, actual = dilation_pair(spec)
    n, d = spec.order, spec.d_a * spec.d_b
    requested = np.zeros_like(ideal)
    tmat = np.zeros((d, d), dtype=complex)
    for i, w in enumerate(target.blocks):
        tmat[i * spec.d_b:(i + 1) * spec.d_b, i * spec.d_b:(i + 1) * spec.d_b] = w
    for l in range(n):
        requested[l * d:(l + 1) * d] = tmat / np.sqrt(n)
    tv = qsim.operator_norm(requested - actual)
    tu = qsim.operator_norm(requested - ideal)
    uv = qsim.operator_norm(ideal - actual)
    assert tv <= tu + uv + 1e-10
    assert report.gap_target_actual == pytest.approx(tv, abs=1e-9)
    assert report.gap_target_plan == pytest.approx(tu, abs=1e-9)
    assert report.gap_plan_actual == pytest.approx(uv, abs=1e-9)
    assert elapsed < 120.0
    _report(9, f"m={plan.m}: 2||T'-V'||={report.diamond_bound_measured:.4f} <= "
               f"{report.certified_error_bound:.4f}, triangle verified, {elapsed:.1f}s")


def test_criterion_10_matching_vs_witness_search():
    rng = np.random.default_rng(110)
    agreements = 0
    for _ in range(100):
        n = int(rng.integers(2, 15))
        adjacency = rng.random((n, n)) < rng.uniform(0.08, 0.85)
        graph = qgbuilder.CompatGraph(k=0, n=n, adjacency=adjacency, eta=0.5,
                                      boundary_count=0)
        t_max = max_matching(graph).matched_count
        assert hall_deficiency_witness(graph, t_max) is None
        if t_max < n:
            assert hall_deficiency_witness(graph, t_max + 1) is not None
        agreements += 1
    assert agreements == 100
    _report(10, "deficiency witness agrees with maximum matching on 100 random graphs")


def test_criterion_11_cost_identity_substitutes_asymptotics(compiled_3x2):
    # the dimension-asymptotic cost statement is not checkable at desk scale;
    # the substitute is the per-instance certificate (criterion 9) plus the
    # exact cost identity on every report, asserted here
    _, result, _ = compiled_3x2
    report = result.report
    m = result.plan.m
    assert report.cost_ebits == pytest.approx(1.0 + m * np.log2(6.0), abs=1e-12)
    for mm in (1, 2, 3):
        fam = net.build_net(2, mm)
        assert np.log2(fam.size) == pytest.approx(1.0 + mm * np.log2(6.0), abs=1e-12)
        assert fam.mixing_bound == pytest.approx(MIXING_RATE ** mm, abs=1e-12)
    _report(11, f"cost identity log2(2*6^m) holds (m={m}: {report.cost_ebits:.4f} ebits); "
                "mixing bound reported, not the unscalable metric itself")
