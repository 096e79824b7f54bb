"""Normalization, the compile pipeline and its error budget."""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest

from conftest import traced_memory
from fastcu import net, qsim
from fastcu.approx_protocol import dilation_pair
from fastcu.compiler import (
    CompileTargets,
    compile_target,
    error_budget,
    normalize_su,
)
from fastcu.errors import BudgetExhausted, DimensionMismatch, NotUnitary


def test_normalize_su_already_special():
    rng = np.random.default_rng(50)
    w = qsim.haar_special_unitary(2, rng)
    target = normalize_su(w[None])
    assert np.allclose(target.blocks[0], w)
    assert target.phases[0] == pytest.approx(0.0, abs=1e-12)


def test_normalize_su_reconstructs_diag_example():
    w = np.diag([1.0, np.exp(2j * np.pi / 3)])
    target = normalize_su(w[None])
    assert abs(np.linalg.det(target.blocks[0]) - 1.0) <= 1e-12
    recon = np.exp(1j * target.phases[0]) * target.blocks[0]
    assert np.allclose(recon, w, atol=1e-12)


def test_normalize_su_scalar_phase_absorbed():
    w = np.exp(1j * np.pi / 3) * np.eye(2)
    target = normalize_su(w[None])
    assert np.allclose(target.blocks[0], np.eye(2), atol=1e-12)


def test_normalize_su_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        normalize_su(np.ones((1, 2, 2)))


def test_compile_targets_validation():
    with pytest.raises(DimensionMismatch):
        CompileTargets(zeta=0.5, eta=None, delta=0.5)
    with pytest.raises(DimensionMismatch):
        CompileTargets(zeta=0.5, eta=0.5, delta=0.5, epsilon=0.5)
    CompileTargets(epsilon=1.0)
    CompileTargets(zeta=0.5, eta=0.5, delta=0.5)


@pytest.mark.parametrize("targets", [
    {"epsilon": math.nan}, {"epsilon": math.inf},
    {"zeta": math.nan, "eta": 0.5, "delta": 0.5}, {"zeta": 0.5, "eta": 0.5, "delta": math.nan},
    {"zeta": math.inf, "eta": math.inf, "delta": math.inf},
    {"zeta": 0.5, "eta": math.inf, "delta": 0.5},
])
def test_compile_targets_must_be_finite(targets):
    # NaN passes a "<= 0" test, and an infinite target would accept any plan
    with pytest.raises(DimensionMismatch, match="finite"):
        CompileTargets(**targets)


def test_compile_exact_family_through_degenerate_net(regular_rep_net):
    group, fam = regular_rep_net
    target = normalize_su(fam.matrices[[0, 1]])
    # permutation matrices of the XOR group are already special unitaries
    result = compile_target(target, CompileTargets(zeta=1e-6, eta=0.5, delta=1e-9),
                            net_override=fam)
    assert result.plan.zeta == pytest.approx(0.0, abs=1e-12)
    assert result.plan.built.certificate.delta_cert == 0.0
    assert result.report.gap_target_actual == pytest.approx(0.0, abs=1e-10)
    assert result.report.certified_error_bound <= 2 * (1e-6 + np.sqrt(0.25 + 4e-9)) + 1e-12


def test_compile_identity_single_term():
    target = normalize_su(np.eye(2)[None])
    result = compile_target(target, CompileTargets(zeta=0.2, eta=1.2, delta=0.4))
    assert result.plan.zeta <= 1e-12   # identity is a word times its inverse
    assert result.report.gap_target_plan <= 1e-12
    assert result.report.diamond_bound_measured <= result.report.certified_error_bound


def test_compile_seeded_targets_loose():
    rng = np.random.default_rng(51)
    blocks = np.stack([qsim.haar_special_unitary(2, rng) for _ in range(3)])
    target = normalize_su(blocks)
    result = compile_target(target, CompileTargets(zeta=0.9, eta=1.4, delta=0.5))
    report = result.report
    assert result.plan.zeta <= 0.9
    assert result.plan.built.eta <= 1.4
    assert result.plan.built.certificate.delta_cert <= 0.5
    assert report.diamond_bound_measured <= report.certified_error_bound + 1e-9
    # triangle chain by independent dense recomputation
    ideal, actual = dilation_pair(result.spec)
    n = result.spec.order
    d = result.spec.d_a * result.spec.d_b
    requested = np.zeros_like(ideal)
    tmat = np.zeros((d, d), dtype=complex)
    for i, w in enumerate(target.blocks):
        tmat[i * 2:(i + 1) * 2, i * 2:(i + 1) * 2] = w
    for l in range(n):
        requested[l * d:(l + 1) * d] = tmat / np.sqrt(n)
    tv = qsim.operator_norm(requested - actual)
    tu = qsim.operator_norm(requested - ideal)
    uv = qsim.operator_norm(ideal - actual)
    assert report.gap_target_actual == pytest.approx(tv, abs=1e-10)
    assert report.gap_target_plan == pytest.approx(tu, abs=1e-10)
    assert report.gap_plan_actual == pytest.approx(uv, abs=1e-10)
    assert tv <= tu + uv + 1e-10


def test_compile_m4_memory_stays_below_the_dense_tables():
    """The seed-0 compile at targets (0.6, 0.3, 0.4) lands at m = 4, n = 2592.

    Bounds: peak below two int16 n x n tables, kept below one.  With both
    dense tables stored, the compile peaked at 50.5 MiB and kept 26.4 MiB.
    """
    rng = np.random.default_rng(0)
    target = normalize_su(np.stack([qsim.haar_unitary(2, rng) for _ in range(3)]))
    result, peak, kept = traced_memory(
        lambda: compile_target(target, CompileTargets(0.6, 0.3, 0.4)))
    n = result.plan.built.quasigroup.order
    assert result.plan.m == 4 and n == 2592
    assert peak < 2 * n * n * 2
    assert kept < n * n * 2


def test_compile_epsilon_mode():
    rng = np.random.default_rng(52)
    blocks = np.stack([qsim.haar_special_unitary(2, rng) for _ in range(2)])
    target = normalize_su(blocks)
    result = compile_target(target, CompileTargets(epsilon=3.9))
    assert result.report.certified_error_bound <= 3.9 + 1e-9
    assert result.report.diamond_bound_measured <= result.report.certified_error_bound


def test_compile_budget_exhausted_reports_best():
    rng = np.random.default_rng(53)
    blocks = np.stack([qsim.haar_special_unitary(2, rng)])
    target = normalize_su(blocks)
    with pytest.raises(BudgetExhausted) as err:
        compile_target(target, CompileTargets(zeta=1e-6, eta=1e-6, delta=1e-9), cap=100)
    assert [(p.m, p.eta, p.accepted) for p in err.value.scan] == [(1, None, False), (2, None, False)]


def test_budget_exhausted_carries_the_scan_so_far():
    """The compile-m4 targets land at m = 4 (n = 2592); a cap one below stops the search there."""
    rng = np.random.default_rng(0)
    target = normalize_su(np.stack([qsim.haar_unitary(2, rng) for _ in range(3)]))
    goal = CompileTargets(0.6, 0.3, 0.4)
    full = compile_target(target, goal).scan_trace
    with pytest.raises(BudgetExhausted, match=r"2 \* 6\^4 exceeds the cap 2591") as err:
        compile_target(target, goal, cap=2591)
    assert len(full) == 4 and full[-1].accepted
    assert [astuple(p) for p in err.value.scan] == [astuple(p) for p in full[:3]]


def test_eta_schedule_of_each_mode():
    component = CompileTargets(zeta=0.5, eta=2.5, delta=0.4)
    assert component.eta_schedule(0.6) is None
    assert component.eta_schedule(0.5) == [(2.0, 0.4)]
    epsilon = CompileTargets(epsilon=3.0)
    assert epsilon.eta_schedule(1.5) is None
    points = epsilon.eta_schedule(0.3)
    etas = [eta for eta, _ in points]
    assert etas == sorted(etas, reverse=True) and etas[0] == pytest.approx(1.2)
    for eta, bound in points:
        assert bound >= 0 and 2 * (0.3 + np.sqrt(eta ** 2 + 4 * bound)) <= 3.0 + 1e-12


def test_compile_deterministic():
    rng = np.random.default_rng(54)
    blocks = np.stack([qsim.haar_special_unitary(2, rng) for _ in range(2)])
    target = normalize_su(blocks)
    targets = CompileTargets(zeta=0.9, eta=1.4, delta=0.5)
    a = compile_target(target, targets)
    b = compile_target(target, targets)
    assert a.plan.m == b.plan.m
    assert a.plan.built.eta == b.plan.built.eta
    assert a.plan.assignment == b.plan.assignment
    assert np.array_equal(a.plan.built.quasigroup.table, b.plan.built.quasigroup.table)
    assert a.report.gap_target_actual == b.report.gap_target_actual


def test_cost_identity_on_reports():
    rng = np.random.default_rng(55)
    blocks = np.stack([qsim.haar_special_unitary(2, rng)])
    target = normalize_su(blocks)
    result = compile_target(target, CompileTargets(zeta=1.2, eta=1.6, delta=0.6))
    m, d = result.plan.m, 2
    want = 1.0 + m * (d * (d - 1) // 2) * np.log2(6.0)
    assert result.report.cost_ebits == pytest.approx(want, abs=1e-12)


def test_lemma_advisory_positive_and_monotone():
    assert net.advisory_m(2, 0.5) >= 1
    assert net.advisory_m(2, 0.1) >= net.advisory_m(2, 0.4)


def test_error_budget_exact_plan_is_zero(regular_rep_net):
    group, fam = regular_rep_net
    target = normalize_su(fam.matrices[[1, 2]])
    result = compile_target(target, CompileTargets(zeta=1e-6, eta=0.5, delta=1e-9),
                            net_override=fam)
    report = result.report
    assert report.gap_target_plan == pytest.approx(0.0, abs=1e-12)
    assert report.gap_plan_actual == pytest.approx(0.0, abs=1e-12)
    assert report.gap_target_actual == pytest.approx(0.0, abs=1e-10)
