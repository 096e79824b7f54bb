"""Ready-made protocol instances used by the CLI demos and the test suite."""

from __future__ import annotations

import numpy as np

from .algebra import FiniteGroup, ProjectiveRep, cyclic_group, klein_four_group, projective_rep
from .errors import UnknownExample
from .exact_protocol import ControlledGroupUnitary, HighRankControlledUnitary

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli_rep() -> tuple[FiniteGroup, ProjectiveRep]:
    """The four Pauli operators as a projective representation of the XOR group on 4 labels."""
    group = klein_four_group()
    return group, projective_rep(group, np.stack(PAULI))


def controlled_pauli() -> ControlledGroupUnitary:
    """Four-term controlled-Pauli unitary on a 4 x 2 space."""
    group, rep = pauli_rep()
    return ControlledGroupUnitary.from_subset(group, rep, (0, 1, 2, 3))


def controlled_pauli_subset() -> ControlledGroupUnitary:
    """Three-term subset (identity, X, Z) of the controlled-Pauli unitary."""
    group, rep = pauli_rep()
    return ControlledGroupUnitary.from_subset(group, rep, (0, 1, 3))


def cyclic_diag_rep(n: int) -> tuple[FiniteGroup, ProjectiveRep]:
    """Ordinary qubit representation k -> diag(1, w^k) of the cyclic group of order n."""
    group = cyclic_group(n)
    w = np.exp(2j * np.pi / n)
    mats = np.stack([np.diag([1.0, w ** k]).astype(complex) for k in range(n)])
    return group, projective_rep(group, mats)


def controlled_c3_subset() -> ControlledGroupUnitary:
    """Two-term controlled unitary with blocks I and diag(1, w) over the order-3 cyclic group."""
    group, rep = cyclic_diag_rep(3)
    return ControlledGroupUnitary.from_subset(group, rep, (0, 1))


def highrank_pauli(rank: int = 2) -> HighRankControlledUnitary:
    """Controlled-Pauli unitary with four orthogonal rank-r projector controls."""
    group, rep = pauli_rep()
    d_a = 4 * rank
    projectors = []
    for k in range(4):
        p = np.zeros((d_a, d_a), dtype=complex)
        for t in range(rank):
            p[k * rank + t, k * rank + t] = 1.0
        projectors.append(p)
    return HighRankControlledUnitary(tuple(projectors), group, rep, (0, 1, 2, 3))


EXACT_DEMOS = {
    "pauli-klein4": controlled_pauli,
    "pauli-subset": controlled_pauli_subset,
    "c3-subset": controlled_c3_subset,
}


def exact_demo_instance(name: str) -> ControlledGroupUnitary:
    try:
        return EXACT_DEMOS[name]()
    except KeyError:
        raise UnknownExample(
            f"unknown demo {name!r}; choose from {sorted(EXACT_DEMOS)}") from None
