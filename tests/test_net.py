"""Word-built unitary families, two-level decomposition, nearest-element search."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from fastcu import algebra, net, qgbuilder, qsim
from fastcu.errors import DimensionMismatch, NetTooLarge, NotSpecial, NotUnitary


def test_base_generators_d2_exact_entries():
    gens = net.base_generators(2)
    assert len(gens) == 3
    s5 = math.sqrt(5.0)
    assert np.allclose(gens[0] * s5, [[1, 2j], [2j, 1]])
    assert np.allclose(gens[1] * s5, [[1, 2], [-2, 1]])
    assert np.allclose(gens[2] * s5, [[1 + 2j, 0], [0, 1 - 2j]])
    for g in gens:
        assert qsim.operator_norm(g.conj().T @ g - np.eye(2)) <= 1e-14
        assert abs(np.linalg.det(g) - 1.0) <= 1e-14


def test_base_generators_higher_dim_count():
    assert len(net.base_generators(3)) == 6
    assert len(net.base_generators(5)) == 12
    for g in net.base_generators(3):
        assert qsim.operator_norm(g.conj().T @ g - np.eye(3)) <= 1e-14


@pytest.mark.parametrize("m,size,bound", [
    (1, 12, 0.7453559924999299),
    (2, 72, 5.0 / 9.0),
    (3, 432, 0.41408666249996107),
])
def test_net_sizes_and_mixing_bounds(m, size, bound):
    fam = net.build_net(2, m)
    assert fam.size == size == net.net_size(2, m)
    assert fam.mixing_bound == pytest.approx(bound, abs=1e-12)
    res = qsim.operator_norms(
        np.einsum("kab,kac->kbc", fam.matrices.conj(), fam.matrices) - np.eye(2))
    assert res.max() <= 1e-10


def test_mixing_bound_decreases_and_below_one():
    bounds = [net.mixing_bound(2, m) for m in range(1, 7)]
    assert all(b < 1 for b in bounds)
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_cap_enforced():
    with pytest.raises(NetTooLarge):
        net.build_net(2, 6)
    with pytest.raises(NetTooLarge):
        net.build_net(3, 2, cap=50_000)


def test_inverses_included_and_verified():
    fam = net.build_net(2, 2)
    half = fam.size // 2
    for i in range(0, half, 7):
        prod = fam.matrix(i) @ fam.matrix(half + i)
        assert qsim.operator_norm(prod - np.eye(2)) <= 1e-12


def test_duplicates_kept_with_report():
    fam = net.build_net(2, 2)
    geom = qgbuilder.FamilyGeometry(fam)
    assert geom.class_counts.sum() == fam.size
    assert geom.n_classes < fam.size                     # e.g. V V^-1 words collide
    for cls in range(geom.n_classes):
        labels = geom.labels_of(cls)
        assert np.array_equal(geom.classes[labels], np.full(len(labels), cls))
        assert np.allclose(fam.matrices[labels], fam.matrices[labels[0]], atol=1e-12)


def _distinct_elements(m: int) -> int:
    """Reduced words over the six letters of length k <= m, k = m (mod 2); 1 for the empty word."""
    return sum(6 * 5 ** (k - 1) for k in range(1, m + 1) if k % 2 == m % 2) + (m % 2 == 0)


def _assert_one_matrix_per_class(fam: net.NetFamily) -> None:
    first = np.unique(fam.classes, return_index=True)[1]
    assert np.all(np.diff(first) > 0)                   # numbered in order of first appearance
    assert fam.matrices.tobytes() == fam.matrices[first[fam.classes]].tobytes()
    assert len({mat.tobytes() for mat in fam.matrices[first]}) == fam.n_classes


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_word_classes_are_the_distinct_elements_and_the_recount_groups(m):
    fam = net.build_net(2, m)
    assert fam.n_classes == _distinct_elements(m)
    _assert_one_matrix_per_class(fam)
    # grouping by matrix bits alone, with no classes given, finds exactly them
    reps, groups, _, _ = algebra._recount_representatives(
        qsim.su2_quaternions(fam.matrices), np.zeros(fam.size, dtype=np.int64))
    assert len(reps) == fam.n_classes
    assert np.array_equal(groups, fam.classes)


def test_d3_word_classes_carry_one_matrix():
    _assert_one_matrix_per_class(net.build_net(3, 1))


# SHA-256 prefixes of the matrix and class bytes, recorded from the build that
# kept a word sequence per label (x86-64, numpy 2.4): (d, m) alone rebuilds them
_FAMILY_HASHES = {
    (2, 1): ("6669b821bbf1a322", "2c4c770f1c0b80bd"),
    (2, 2): ("90e0630804bea258", "2a9aa2b91551a457"),
    (2, 3): ("9acd358722612a17", "e1e065326bdde4eb"),
    (2, 4): ("ee125ed5fc2ff253", "1ef171a6a7cf957e"),
    (2, 5): ("7b43e527d33d6a23", "ec8777d520ce7afa"),
    (3, 1): ("280cdec1dd872dd6", "735c68374d23984a"),
}


@pytest.mark.parametrize("d, m", sorted(_FAMILY_HASHES))
def test_word_family_matrices_and_classes_are_bitwise_fixed(d, m):
    fam = net.build_net(d, m)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (fam.matrices, fam.classes))
    assert got == _FAMILY_HASHES[d, m]
    assert fam.is_word_built and fam.mixing_bound == net.mixing_bound(d, m)


def test_from_unitaries_merges_matrices_equal_to_nine_decimals():
    rng = np.random.default_rng(36)
    mats = np.stack([qsim.haar_special_unitary(2, rng) for _ in range(3)])
    given = np.concatenate([mats, mats[1:2] * np.exp(1e-12j)])
    fam = net.NetFamily.from_unitaries(given)
    assert fam.classes.tolist() == [0, 1, 2, 1] and fam.n_classes == 3
    assert fam.matrices[3].tobytes() == mats[1].tobytes()
    assert not np.array_equal(given[3], mats[1])        # the caller's array is left alone
    _assert_one_matrix_per_class(fam)


def test_family_arrays_are_read_only():
    # a family's geometry is cached on first use, so its arrays must not change under it
    given = np.stack([np.eye(2), np.diag([1j, -1j])]).astype(complex)
    for fam in (net.build_net(2, 1), net.NetFamily.from_unitaries(given)):
        for array in (fam.matrices, fam.classes):
            with pytest.raises(ValueError):
                array[0] = array[-1]
    assert given.flags.writeable                        # the caller's array is left alone


def test_two_level_identity():
    deco = net.two_level_decompose(np.eye(4))
    assert len(deco.factors) == 6
    for f in deco.factors:
        assert np.allclose(f.block, np.eye(2))


def test_two_level_reconstructs_seeded_unitaries():
    rng = np.random.default_rng(21)
    for d in (2, 3, 4, 6):
        u = qsim.haar_special_unitary(d, rng)
        deco = net.two_level_decompose(u)
        assert len(deco.factors) == d * (d - 1) // 2
        assert qsim.operator_norm(deco.product() - u) <= 1e-10
        for f in deco.factors:
            assert abs(np.linalg.det(f.block) - 1.0) <= 1e-10
    assert [f.position for f in net.two_level_decompose(qsim.haar_special_unitary(3, rng)).factors] \
        == list(net.slot_pattern(3))


def test_two_level_d2_single_factor():
    rng = np.random.default_rng(22)
    u = qsim.haar_special_unitary(2, rng)
    deco = net.two_level_decompose(u)
    assert len(deco.factors) == 1
    assert np.allclose(deco.factors[0].block, u, atol=1e-12)


def test_two_level_input_validation():
    with pytest.raises(NotUnitary):
        net.two_level_decompose(np.ones((3, 3)))
    rng = np.random.default_rng(23)
    u = qsim.haar_unitary(3, rng)
    u = u * np.exp(0.2j)   # push the determinant off one
    with pytest.raises(NotSpecial):
        net.two_level_decompose(u)


def test_nearest_member_is_itself(net_m2):
    r = net.nearest_in_net(net_m2.matrix(17), net_m2)
    assert r.zeta == pytest.approx(0.0, abs=1e-12)
    assert r.label <= 17   # ties break toward the smallest label


def test_nearest_exhaustive_matches_brute_force(net_m2):
    u = net.two_level_decompose(np.array([
        [np.cos(np.pi / 3), 1j * np.sin(np.pi / 3)],
        [1j * np.sin(np.pi / 3), np.cos(np.pi / 3)]])).product()
    r = net.nearest_in_net(u, net_m2)
    dists = [qsim.operator_norm(u - net_m2.matrix(i)) for i in range(net_m2.size)]
    assert r.zeta == pytest.approx(min(dists), abs=1e-12)
    assert dists[r.label] == pytest.approx(min(dists), abs=1e-12)
    first = min(i for i in range(net_m2.size) if dists[i] <= min(dists) + 1e-12)
    assert r.label == first


def test_nearest_rejects_wrong_dim(net_m1):
    with pytest.raises(DimensionMismatch):
        net.nearest_in_net(np.eye(3), net_m1)


def test_advisory_degree_monotone_and_calibrated():
    worst = net.calibrated_worst_errors(max_m=4)
    assert all(worst[m] > worst[m + 1] for m in range(1, 4))
    for zeta in (0.9, 0.45, 0.2):
        assert net.advisory_m(2, zeta / 2) >= net.advisory_m(2, zeta)
        assert net.advisory_m(3, zeta) >= net.advisory_m(2, zeta)
    # the suggestion tracks the measured sweep: the first degree whose worst
    # sample error falls below the target is never more than one step away
    target = 0.5
    first_good = min(m for m, w in worst.items() if w < target)
    assert abs(net.advisory_m(2, target) - first_good) <= 1

    with pytest.raises(DimensionMismatch):
        net.advisory_m(2, 1.5)


def test_advisory_degree_fixed_by_the_seeded_sweep():
    got = [net.advisory_m(d, zeta) for d in (2, 3) for zeta in (0.05, 0.1, 0.3, 0.6)]
    assert got == [8, 7, 5, 3, 11, 9, 7, 6]


def test_degenerate_family_from_unitaries(regular_rep_net):
    _, fam = regular_rep_net
    assert fam.size == 4
    assert not fam.is_word_built
