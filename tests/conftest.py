"""Shared fixtures: representative groups, representations, and small nets."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fastcu import algebra, demos, net


@pytest.fixture(scope="session")
def klein_pauli():
    return demos.pauli_rep()


@pytest.fixture(scope="session")
def c3_diag():
    return demos.cyclic_diag_rep(3)


@pytest.fixture(scope="session")
def net_m1():
    return net.build_net(2, 1)


@pytest.fixture(scope="session")
def net_m2():
    return net.build_net(2, 2)


@pytest.fixture(scope="session")
def regular_rep_net():
    """Ordinary (permutation-matrix) representation of the XOR group as a family."""
    group = algebra.klein_four_group()
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        mats[g, group.cayley[g], np.arange(n)] = 1.0
    return group, net.NetFamily.from_unitaries(mats)


def random_right_quasigroup(n: int, rng: np.random.Generator) -> algebra.RightQuasigroup:
    """Independent column permutations make a valid table by definition."""
    table = np.stack([rng.permutation(n) for _ in range(n)], axis=1)
    return algebra.right_quasigroup_from_table(table)


def traced_memory(call):
    """(result, peak bytes, kept bytes) of ``call()``, as tracemalloc sees them.

    numpy reports its array buffers to tracemalloc, so the peak and the bytes
    still held when the call returns (with its result alive) cover the tables.
    """
    tracemalloc.start()
    try:
        out = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, kept
