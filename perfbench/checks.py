"""Independent checks of fastcu outputs, computed from raw arrays with numpy.

Nothing here calls into fastcu: tables, matrices and states are taken out of
the program's results and re-derived by singular values, sorting and dense
linear algebra.  Every function returns a list of failure messages, empty
when the output passes.
"""

from __future__ import annotations

import math

import numpy as np

LOG2_6 = math.log2(6.0)
TIE = 1e-9              # a residual this close to eta may be counted on either side
BRANCH_TOL = 1e-9       # acceptance tolerances: branch states, channels, Choi matrices
UNIFORM_TOL = 1e-10     # branch probabilities against 1/N^2
VALUE_TOL = 1e-9        # recomputed scalars against reported ones
SORT_ROWS = 256


def svd_norms(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def table_columns(table: np.ndarray) -> list[str]:
    """Every column of the product table is a permutation of 0..n-1."""
    n = table.shape[0]
    ref = np.arange(n)
    columns = table.T
    for k0 in range(0, n, SORT_ROWS):
        ok = (np.sort(columns[k0:k0 + SORT_ROWS], axis=1, kind="stable") == ref).all(axis=1)
        if not ok.all():
            return [f"table column {k0 + int(np.argmin(ok))} is not a permutation"]
    return []


def left_division(table: np.ndarray, k: int) -> np.ndarray:
    """l with l*k = j, for every j, from column k of the table."""
    n = table.shape[0]
    left = np.empty(n, dtype=np.int64)
    left[table[:, k]] = np.arange(n)
    return left


def recount(matrices: np.ndarray, table: np.ndarray, eta: float, counts: np.ndarray,
            labels) -> list[str]:
    """Violations ||V_l(j,k) V_k - V_j|| >= eta at each sampled k, by SVD.

    Residuals within TIE of eta may fall on either side in floating point, so
    the reported count must lie between the strict and the lenient recount.
    """
    failures = []
    for k in labels:
        left = left_division(table, int(k))
        res = svd_norms(matrices[left] @ matrices[k] - matrices)
        lo = int(np.count_nonzero(res >= eta + TIE))
        hi = int(np.count_nonzero(res >= eta - TIE))
        if not lo <= int(counts[k]) <= hi:
            failures.append(f"label {int(k)}: violation count {int(counts[k])}, "
                            f"SVD recount {lo}..{hi}")
    return failures


def dilation_gap(matrices: np.ndarray, table: np.ndarray, labels, blocks=None) -> float:
    """Exact dilation gap: worst averaged residual spectrum over the given labels.

    Against the family itself (``blocks`` None) this is ||U' - V'||; against
    requested blocks, one per label, it is ||T' - V'||.
    """
    n = matrices.shape[0]
    vdag = matrices.conj().transpose(0, 2, 1)
    if blocks is None:
        blocks = matrices[list(labels)]
    worst = 0.0
    for w, k in zip(blocks, labels):
        e = w[None] - vdag @ matrices[table[:, k]]
        h = np.einsum("lab,lac->bc", e.conj(), e) / n
        worst = max(worst, math.sqrt(max(0.0, float(np.linalg.eigvalsh(h)[-1]))))
    return worst


def build(b: dict, sample) -> list[str]:
    """Checks shared by a quasigroup build and a compile.

    ``b`` holds the output as plain arrays and numbers: ``table``, ``matrices``, ``eta``,
    ``counts`` (per-label violations), ``delta_cert``, ``delta_matching``,
    ``m``, ``cost_ebits``, ``measured_bound`` and ``certified_bound``.
    """
    failures = table_columns(b["table"])
    n = b["table"].shape[0]
    if not failures:
        failures += recount(b["matrices"], b["table"], b["eta"], b["counts"], sample)
    if b["delta_cert"] != int(np.max(b["counts"])) / n:
        failures.append("delta_cert is not the worst per-label violation share")
    if b["delta_cert"] > b["delta_matching"] + 1e-12:
        failures.append(f"delta_cert {b['delta_cert']} above matching delta {b['delta_matching']}")
    if b["m"] is not None and abs(b["cost_ebits"] - (1.0 + b["m"] * LOG2_6)) > VALUE_TOL:
        failures.append(f"cost {b['cost_ebits']} ebits is not 1 + {b['m']} log2 6")
    if abs(b["cost_ebits"] - math.log2(n)) > VALUE_TOL:
        failures.append(f"cost {b['cost_ebits']} ebits is not log2 of the order {n}")
    if b["measured_bound"] > b["certified_bound"] + VALUE_TOL:
        failures.append(f"measured bound {b['measured_bound']} above certified "
                        f"{b['certified_bound']}")
    return failures


def compile_result(b: dict, blocks: np.ndarray, zetas, assignment, zeta: float,
                   targets: tuple[float, float, float]) -> list[str]:
    """Compile-specific checks on top of ``build``: zeta, targets and the bound."""
    failures = []
    mats = b["matrices"]
    for i, w in enumerate(blocks):
        dist = svd_norms(mats - w[None])
        if abs(dist.min() - zetas[i]) > VALUE_TOL or abs(dist[assignment[i]] - zetas[i]) > VALUE_TOL:
            failures.append(f"block {i}: zeta {zetas[i]} but nearest SVD distance {dist.min()}")
    if abs(max(zetas) - zeta) > VALUE_TOL:
        failures.append(f"plan zeta {zeta} is not the worst block zeta {max(zetas)}")
    zt, et, dt = targets
    if zeta > zt or b["eta"] > et or b["delta_cert"] > dt:
        failures.append("accepted plan misses its targets")
    bound = 2.0 * (zeta + math.sqrt(b["eta"] ** 2 + 4.0 * b["delta_cert"]))
    if abs(bound - b["certified_bound"]) > VALUE_TOL:
        failures.append(f"certified bound {b['certified_bound']}, recomputed {bound}")
    gap = dilation_gap(mats, b["table"], assignment, blocks)
    if abs(2.0 * gap - b["measured_bound"]) > VALUE_TOL:
        failures.append(f"measured bound {b['measured_bound']}, recomputed {2.0 * gap}")
    return failures


def block_unitary(blocks, d_a: int, d_b: int) -> np.ndarray:
    """Controlled gate with ``blocks[i]`` on control |i>, identity past the last block."""
    u = np.eye(d_a * d_b, dtype=complex)
    for i, block in enumerate(blocks):
        u[i * d_b:(i + 1) * d_b, i * d_b:(i + 1) * d_b] = block
    return u


def branches(records, expected_for, n_expected: int, order: int) -> list[str]:
    """Every branch state equals its expected state; probabilities are 1/N^2.

    ``records`` are (l, m, probability, amps); ``expected_for(l)`` gives the
    expected amplitudes of branch l.
    """
    failures = []
    if len(records) != n_expected:
        failures.append(f"{len(records)} branches, expected {n_expected}")
    worst_dev = worst_prob = 0.0
    for l, _, prob, amps in records:
        worst_dev = max(worst_dev, float(np.linalg.norm(amps - expected_for(l))))
        worst_prob = max(worst_prob, abs(prob - 1.0 / (order * order)))
    if worst_dev > BRANCH_TOL:
        failures.append(f"branch deviation {worst_dev:.3e} above {BRANCH_TOL}")
    if worst_prob > UNIFORM_TOL:
        failures.append(f"branch probability off 1/N^2 by {worst_prob:.3e}")
    return failures


def mixture(unitaries, rho: np.ndarray) -> np.ndarray:
    return sum(u @ rho @ u.conj().T for u in unitaries) / len(unitaries)


def choi(unitaries) -> np.ndarray:
    """Choi matrix of the uniform mixture, row-major vec, unnormalized pair state."""
    vecs = np.stack([u.reshape(-1) for u in unitaries])
    return vecs.T @ vecs.conj() / len(unitaries)


def close(a: np.ndarray, b: np.ndarray, what: str) -> list[str]:
    """Operator-norm distance of two matrices within the branch tolerance."""
    dist = float(svd_norms(a - b))
    return [f"{what} off by {dist:.3e}"] if dist > BRANCH_TOL else []
