"""End-to-end compilation of arbitrary controlled unitaries into protocol instances.

Pipeline: normalize the controlled blocks to determinant one, grow the word
family degree until every block has a close enough element, scan the edge
threshold for a quasigroup whose certificate meets the target, and emit the
protocol spec together with a machine-checked error budget and entanglement
cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ordinary_rep
from .approx_protocol import dilation_error, dilation_gap_bound, term_gaps
from .errors import BudgetExhausted, DimensionMismatch, NetTooLarge, NotUnitary
from .exact_protocol import QuasigroupProtocolSpec
from .net import DEFAULT_CAP, NetFamily, build_net, nearest_in_net
from .qgbuilder import BuiltQuasigroup, assemble_or_reject
from .qsim import ZERO_TOL, operator_norm, operator_norms, unitarity_residuals

ETA_GRID_SIZE = 16
ETA_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class TargetControlledUnitary:
    """Controlled blocks normalized into the special unitary group.

    ``phases[i]`` is the angle removed from block i; the original unitary is
    the diagonal gate of those phases on the control register times the
    normalized one.
    """

    blocks: np.ndarray          # (M, d_b, d_b), each determinant-1
    phases: np.ndarray          # (M,)

    @property
    def d_b(self) -> int:
        return self.blocks.shape[1]

    def original_blocks(self) -> np.ndarray:
        return np.exp(1j * self.phases)[:, None, None] * self.blocks


def normalize_su(blocks) -> TargetControlledUnitary:
    """Rescale each controlled block to determinant one, recording the phases."""
    mats = np.asarray(blocks, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DimensionMismatch(f"expected a stack of square blocks, got {mats.shape}")
    bad = np.flatnonzero(unitarity_residuals(mats) > ZERO_TOL)
    if bad.size:
        raise NotUnitary(f"block {bad[0]} is not unitary")
    d = mats.shape[1]
    out = np.empty_like(mats)
    phases = np.empty(mats.shape[0])
    for i, w in enumerate(mats):
        theta = float(np.angle(np.linalg.det(w)))   # principal value in (-pi, pi]
        phases[i] = theta / d
        out[i] = np.exp(-1j * theta / d) * w
    target = TargetControlledUnitary(blocks=out, phases=phases)
    recon = float(max(operator_norm(a - b) for a, b in zip(target.original_blocks(), mats)))
    if recon > 1e-10:
        raise NotUnitary(f"phase extraction failed to reconstruct the input ({recon:.2e})")
    return target


@dataclass(frozen=True)
class CompileTargets:
    """Either the three component targets or one end-to-end error target."""

    zeta: float | None = None
    eta: float | None = None
    delta: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        component = (self.zeta, self.eta, self.delta)
        # NaN passes every "<= 0" test and an infinite target accepts anything
        if not all(math.isfinite(t) for t in (*component, self.epsilon) if t is not None):
            raise DimensionMismatch(f"targets must be finite, got {self}")
        if self.epsilon is None:
            if any(t is None or t <= 0 for t in component):
                raise DimensionMismatch("need positive zeta, eta and delta targets")
        elif any(t is not None for t in component):
            raise DimensionMismatch("give either component targets or an epsilon target")
        elif self.epsilon <= 0:
            raise DimensionMismatch("epsilon target must be positive")

    def eta_schedule(self, zeta: float) -> list[tuple[float, float]] | None:
        """The (eta, deficiency bound) points a degree of worst block error ``zeta`` tries.

        None rejects the degree on zeta.  Component targets try the eta target
        (at most 2) against the delta target: the deficiency grows as eta
        shrinks, so no smaller eta can pass.  An epsilon target tries the eta
        grid downward, each point with the largest delta that keeps
        2 (zeta + sqrt(eta^2 + 4 delta)) within epsilon, skipping those with none.
        """
        if self.epsilon is None:
            return None if zeta > self.zeta else [(min(self.eta, 2.0), self.delta)]
        budget = self.epsilon / 2.0 - zeta
        if budget <= 0:
            return None
        top, lo = min(budget, 2.0), max(zeta, ETA_FLOOR)
        grid = [g for g in np.geomspace(lo, 2.0, ETA_GRID_SIZE) if g <= top + 1e-15] \
            if lo < 2.0 else []
        if not grid or abs(grid[-1] - top) > 1e-12:
            grid.append(top)
        points = [(eta, (budget ** 2 - eta * eta) / 4.0)
                  for eta in reversed(grid) if 2.0 * (zeta + eta) <= self.epsilon]
        return [(eta, bound) for eta, bound in points if bound >= 0]


@dataclass(frozen=True, eq=False)
class CompilationPlan:
    m: int | None
    built: BuiltQuasigroup          # the family, eta and certificate
    assignment: tuple[int, ...]
    zetas: tuple[float, ...]
    zeta: float


@dataclass(frozen=True, eq=False)
class ScanTracePoint:
    """One (m, eta) point of the scan; eta and delta are None for a degree rejected on zeta."""

    m: int
    eta: float | None
    delta: float | None
    zeta: float
    cost_ebits: float
    accepted: bool


@dataclass(frozen=True, eq=False)
class CompilationReport:
    """Error budget of a compiled instance; every inequality is re-checked here.

    ``gap_target_actual`` is the exact dilation gap between the requested
    unitary and the implemented branch family; it never exceeds
    ``gap_target_plan + gap_plan_actual`` (triangle) and its double never
    exceeds the certified bound ``2 * (zeta + sqrt(eta^2 + 4 delta))``.
    """

    gap_target_plan: float          # || T' - U' ||: worst block approximation error
    gap_plan_actual: float          # || U' - V' ||: dilation gap of the protocol
    gap_target_actual: float        # || T' - V' ||: end-to-end dilation gap
    diamond_bound_measured: float   # 2 * gap_target_actual
    certified_error_bound: float    # 2 * (zeta + sqrt(eta^2 + 4 delta))
    cost_ebits: float


@dataclass(frozen=True, eq=False)
class CompileResult:
    plan: CompilationPlan
    spec: QuasigroupProtocolSpec
    report: CompilationReport
    scan_trace: tuple[ScanTracePoint, ...]


def scan_degrees(blocks: np.ndarray, targets: CompileTargets, families, attempt,
                 trace: list[ScanTracePoint]):
    """The degree search over ``families``, (m, family) pairs in order.

    At each degree the blocks' nearest elements fix zeta, and ``attempt(family,
    eta, bound) -> (result or None, worst deficiency)`` tries the points of
    ``targets.eta_schedule(zeta)``.  Each attempt, and each degree rejected on
    zeta, appends one point to ``trace``.  Returns (m, nearest, result) of the
    first accepted point, or None.
    """
    for m, fam in families:
        nearest = [nearest_in_net(w, fam) for w in blocks]
        zeta = max(r.zeta for r in nearest)
        cost = math.log2(fam.size)
        schedule = targets.eta_schedule(zeta)
        if schedule is None:
            trace.append(ScanTracePoint(m=m or 0, eta=None, delta=None, zeta=zeta,
                                        cost_ebits=cost, accepted=False))
        for eta, bound in schedule or ():
            result, worst = attempt(fam, eta, bound)
            trace.append(ScanTracePoint(m=m or 0, eta=float(eta), delta=worst, zeta=zeta,
                                        cost_ebits=cost, accepted=result is not None))
            if result is not None:
                return m, nearest, result
    return None


def compile_target(target: TargetControlledUnitary, targets: CompileTargets,
                   cap: int = DEFAULT_CAP, net_override: NetFamily | None = None) -> CompileResult:
    """Search degrees m = 1, 2, ... (``scan_degrees``) for a plan meeting the targets; raise
    BudgetExhausted, carrying the scan so far, when the cap is hit."""
    trace: list[ScanTracePoint] = []
    families = ((m, build_net(target.d_b, m, cap=cap)) for m in range(1, 64)) \
        if net_override is None else [(net_override.m, net_override)]
    try:
        found = scan_degrees(target.blocks, targets, families, assemble_or_reject, trace)
    except NetTooLarge as exc:
        raise BudgetExhausted(str(exc), scan=tuple(trace)) from None
    if found is None:
        raise BudgetExhausted("no degree within the cap met the targets", scan=tuple(trace))
    m, nearest, built = found
    zetas = tuple(r.zeta for r in nearest)
    plan = CompilationPlan(m=m, built=built, assignment=tuple(r.label for r in nearest),
                           zetas=zetas, zeta=max(zetas))
    spec = QuasigroupProtocolSpec(
        quasigroup=built.quasigroup,
        rep=ordinary_rep(built.quasigroup, built.net.matrices),
        term_map=plan.assignment,
    )
    report = error_budget(target.blocks, spec, built.eta, built.certificate.delta_cert, m)
    return CompileResult(plan=plan, spec=spec, report=report, scan_trace=tuple(trace))


def certified_bound(zeta: float, eta: float, delta: float) -> float:
    """Certified diamond-norm bound 2 * (zeta + sqrt(eta^2 + 4 delta)) of a compiled instance."""
    return 2.0 * (zeta + dilation_gap_bound(eta, delta))


def word_family_cost(d: int, m: int) -> float:
    """Cost identity log2(2 * 6^(m r)) = 1 + m r log2 6 of the degree-m word family, r = d(d-1)/2."""
    return 1.0 + m * (d * (d - 1) // 2) * math.log2(6.0)


def error_budget(blocks: np.ndarray, spec: QuasigroupProtocolSpec, eta: float,
                 delta_cert: float, m: int | None) -> CompilationReport:
    """Exact dilation gaps of a compiled instance plus the certified bound.

    ``blocks`` are the requested (normalized) blocks, one per term of
    ``spec``; ``m`` is the word degree of the family, None for a custom one.
    zeta is recomputed from the blocks, and every gap is a term gap (see
    ``term_gaps``) of the branch blocks against the requested or the bare blocks.
    """
    zeta = float(operator_norms(blocks - spec.term_matrices()).max())
    gap_uv = dilation_error(spec, eta, delta_cert).measured
    gap_tv = float(term_gaps(blocks, spec.term_blocks).max())
    bound = certified_bound(zeta, eta, delta_cert)
    cost = spec.cost_ebits()
    if m is not None and abs(cost - word_family_cost(spec.d_b, m)) > 1e-9:
        raise DimensionMismatch("cost identity violated for a word-built family")
    if gap_tv > zeta + gap_uv + 1e-9:
        raise DimensionMismatch("triangle inequality violated in the error budget")
    if 2.0 * gap_tv > bound + 1e-9:
        raise DimensionMismatch("measured error exceeded its certified bound")
    return CompilationReport(gap_target_plan=zeta, gap_plan_actual=gap_uv,
                             gap_target_actual=gap_tv, diamond_bound_measured=2.0 * gap_tv,
                             certified_error_bound=bound, cost_ebits=cost)
