"""Compatibility graphs, matchings, quasigroup assembly, deficiency witnesses."""

from __future__ import annotations

import functools
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from conftest import random_right_quasigroup, traced_memory
from fastcu import algebra, net, qgbuilder, qsim
from fastcu.errors import DimensionMismatch, TooLarge


def brute_force_matching(adj: np.ndarray) -> int:
    """Bitmask DP over right subsets; exact maximum matching for small graphs."""
    n = adj.shape[0]
    rows = [int(sum(1 << j for j in np.flatnonzero(r))) for r in adj]
    memo: dict[tuple[int, int], int] = {}

    def go(i: int, used: int) -> int:
        if i == n:
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        best = go(i + 1, used)
        avail = rows[i] & ~used
        while avail:
            low = avail & -avail
            best = max(best, 1 + go(i + 1, used | low))
            avail ^= low
        memo[key] = best
        return best

    return go(0, 0)


def random_graph(n: int, p: float, rng) -> qgbuilder.CompatGraph:
    adj = rng.random((n, n)) < p
    return qgbuilder.CompatGraph(k=0, n=n, adjacency=adj, eta=0.5, boundary_count=0)


def test_max_matching_against_brute_force():
    rng = np.random.default_rng(30)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        graph = random_graph(n, float(rng.uniform(0.05, 0.9)), rng)
        result = qgbuilder.max_matching(graph)
        assert result.matched_count == brute_force_matching(graph.adjacency)
        # pairs are real edges and column is a permutation
        for l, j in result.pairs.items():
            assert graph.adjacency[l, j]
        assert np.array_equal(np.sort(result.completed), np.arange(n))
        assert len(result.pairs) == result.matched_count


def test_graph_on_ordinary_group_family(regular_rep_net):
    group, fam = regular_rep_net
    for k in range(4):
        graph = qgbuilder.build_graph(fam, k, eta=0.5)
        for l in range(4):
            neighbors = np.flatnonzero(graph.adjacency[l])
            assert np.array_equal(neighbors, [group.cayley[l, k]])


def test_complete_graph_at_vacuous_threshold(net_m1):
    graph = qgbuilder.build_graph(net_m1, 0, eta=2.1)
    assert graph.adjacency.all()
    assert qgbuilder.max_matching(graph).matched_count == 12


def test_identity_labeled_element_gives_diagonal_edges(net_m2):
    # some label carries the identity matrix (a word times its inverse)
    ident = [i for i in range(net_m2.size)
             if qsim.operator_norm(net_m2.matrix(i) - np.eye(2)) < 1e-12]
    assert ident
    graph = qgbuilder.build_graph(net_m2, ident[0], eta=0.5)
    assert np.all(np.diag(graph.adjacency))


def test_empty_graph_completion_is_identity():
    graph = qgbuilder.CompatGraph(k=0, n=5, adjacency=np.zeros((5, 5), bool),
                                  eta=0.1, boundary_count=0)
    result = qgbuilder.max_matching(graph)
    assert result.matched_count == 0
    assert np.array_equal(result.completed, np.arange(5))


def test_assemble_group_family_reproduces_cayley(regular_rep_net):
    group, fam = regular_rep_net
    built = qgbuilder.assemble_quasigroup(fam, eta=0.5)
    assert np.array_equal(built.quasigroup.table, group.cayley)
    assert built.certificate.delta_cert == 0.0


def test_assemble_m2_axioms_and_recount(net_m2):
    built = qgbuilder.assemble_quasigroup(net_m2, eta=0.6)
    n = net_m2.size
    idx = np.arange(n)
    for col in range(n):
        assert np.array_equal(np.sort(built.quasigroup.table[:, col]), idx)
    # independent recount oracle through the svd-based norms
    cert = built.certificate
    recount = algebra.certify_approx_rep(net_m2.matrices, built.quasigroup, 0.6)
    assert recount.delta_cert == cert.delta_cert
    assert np.array_equal(recount.per_k_violation_count, cert.per_k_violation_count)
    assert cert.delta_cert <= built.delta_from_matching + 1e-12


@pytest.mark.parametrize("eta", [0.45, 0.8, 1.3])
def test_class_level_finish_equals_full_validation(net_m2, eta):
    built = qgbuilder.assemble_quasigroup(net_m2, eta)
    q = built.quasigroup
    ref = algebra.right_quasigroup_from_table(q.table)
    assert q.table.dtype == ref.table.dtype and q.left_div.dtype == ref.left_div.dtype
    assert np.array_equal(q.table, ref.table)
    assert np.array_equal(q.left_div, ref.left_div)
    geom = qgbuilder.FamilyGeometry(net_m2)
    assert np.array_equal(q.table.T, q.table.T[geom.class_reps][geom.classes])


def test_assemble_m4_keeps_class_rows_not_tables():
    """An m = 4 build (n = 2592, 781 classes) never holds an n x n table.

    Bounds: peak below two int16 n x n tables, kept below one.  With both
    dense tables stored, the build peaked at 49.9 MiB and kept 25.7 MiB.
    """
    fam = net.build_net(2, 4)
    n = fam.size
    built, peak, kept = traced_memory(lambda: qgbuilder.assemble_quasigroup(fam, 0.8))
    assert built.quasigroup.class_table.shape == (781, n)
    assert peak < 2 * n * n * 2
    assert kept < n * n * 2


def test_assemble_vacuous_threshold_is_exact(net_m1):
    built = qgbuilder.assemble_quasigroup(net_m1, eta=2.1)
    assert built.certificate.delta_cert == 0.0


def test_matched_counts_monotone_in_eta(net_m1):
    counts = []
    for eta in (0.3, 0.6, 1.0, 1.5, 2.1):
        built = qgbuilder.assemble_quasigroup(net_m1, eta)
        counts.append(built.matched_counts.copy())
    for a, b in zip(counts, counts[1:]):
        assert np.all(a <= b)


def test_flow_and_dense_paths_agree(net_m2):
    # class-level flow against the per-label SVD graph and its maximum matching
    for eta in (0.45, 0.8, 1.3):
        built = qgbuilder.assemble_quasigroup(net_m2, eta)
        for k in (0, 17, 40):
            graph = qgbuilder.build_graph(net_m2, k, eta)
            assert built.matched_counts[k] == qgbuilder.max_matching(graph).matched_count
            # the column's pairs below eta are genuine edges of the reference graph
            col = built.quasigroup.table[:, k]
            matched = int(graph.adjacency[np.arange(net_m2.size), col].sum())
            assert matched >= built.matched_counts[k] - graph.boundary_count


TIE_ETA = 6 * math.sqrt(2) / 5     # a residual norm of many m = 2 label pairs


@settings(deadline=None, max_examples=6)
@given(m=st.sampled_from([1, 2]), eta=st.floats(0.3, 2.1))
@example(m=2, eta=TIE_ETA)
def test_matched_counts_equal_reference_matching(net_m1, net_m2, m, eta):
    fam = net_m1 if m == 1 else net_m2
    built = qgbuilder.assemble_quasigroup(fam, eta)
    for k in range(fam.size):
        graph = qgbuilder.build_graph(fam, k, eta)
        assert built.matched_counts[k] == qgbuilder.max_matching(graph).matched_count
    assert built.certificate.delta_cert <= built.delta_from_matching + 1e-12


def _column_norms(fam: net.NetFamily, built, cls: int) -> np.ndarray:
    """SVD distances ||V_l V_k - V_{l*k}|| down class ``cls``'s column, k its first label.

    These are the column's entries of ``residual_norm_matrix(fam.matrices, k)``.
    """
    k = np.flatnonzero(fam.classes == cls)[0]
    mats = fam.matrices
    return qsim.operator_norms(mats @ mats[k] - mats[built.quasigroup.class_table[cls]])


def test_tie_threshold_matches_no_pair_on_eta(net_m2):
    built = qgbuilder.assemble_quasigroup(net_m2, TIE_ETA)
    ties = sum(qgbuilder.build_graph(net_m2, k, TIE_ETA).boundary_count
               for k in range(net_m2.size))
    assert ties > 0
    # every column is perfect, so each of its pairs is a matched pair
    assert np.all(built.matched_counts == net_m2.size)
    for cls in range(net_m2.n_classes):
        assert np.all(np.abs(_column_norms(net_m2, built, cls) - TIE_ETA) > qgbuilder.EDGE_GUARD)


@settings(deadline=None, max_examples=6)
@given(m=st.sampled_from([1, 2, 3]), eta=st.floats(0.3, 2.1))
def test_perfect_columns_lie_strictly_below_eta(m, eta):
    # a saturating flow may come from the nearest-capacity subgraph, but every
    # pair of its column is still an edge of the eta graph
    fam = _word_family(m)
    built = qgbuilder.assemble_quasigroup(fam, eta)
    geom = qgbuilder.FamilyGeometry(fam)
    for cls in range(geom.n_classes):
        if built.matched_counts[geom.class_reps[cls]] == fam.size:
            assert np.all(_column_norms(fam, built, cls) < eta - qgbuilder.EDGE_GUARD)
    # the label-level reference on every class at m <= 2, on the orbit seeds at m = 3
    seeds = [c for c in range(geom.n_classes) if c == min(geom.orbit_of(c))]
    for cls in range(geom.n_classes) if m < 3 else seeds:
        k = int(geom.class_reps[cls])
        graph = qgbuilder.build_graph(fam, k, eta)
        assert built.matched_counts[k] == qgbuilder.max_matching(graph).matched_count


def _closed_su3_family(count: int, rng) -> net.NetFamily:
    """Random SU(3) elements with their inverses, conjugates and conjugate inverses."""
    mats = []
    for _ in range(count):
        g = qsim.haar_special_unitary(3, rng)
        mats += [g, g.conj().T, g.conj(), g.T]
    return net.NetFamily.from_unitaries(np.stack(mats))


def test_dense_class_edges_for_non_su2_family():
    fam = _closed_su3_family(4, np.random.default_rng(35))
    geom = qgbuilder.FamilyGeometry(fam)
    assert geom.tree is None
    assert geom.n_classes == fam.size
    assert geom.inverse_class is not None and geom.conjugate_class is not None
    for eta in (0.8, 1.2, 1.6):
        built = qgbuilder.assemble_quasigroup(fam, eta)
        for k in range(fam.size):
            graph = qgbuilder.build_graph(fam, k, eta)
            assert built.matched_counts[k] == qgbuilder.max_matching(graph).matched_count


def test_assemble_or_reject_bail(net_m2):
    built, worst = qgbuilder.assemble_or_reject(net_m2, 0.3, delta_bound=0.2)
    assert built is None
    assert worst > 0.2
    built, worst = qgbuilder.assemble_or_reject(net_m2, 1.2, delta_bound=0.5)
    assert built is not None
    assert built.certificate.delta_cert <= 0.5


@functools.lru_cache(maxsize=None)
def _word_family(m: int):
    return net.build_net(2, m)


@settings(deadline=None, max_examples=8)
@given(m=st.sampled_from([1, 2, 3]),
       etas=st.lists(st.floats(0.3, 1.6), min_size=2, max_size=4, unique=True))
def test_matching_delta_non_increasing_in_eta(m, etas):
    # a larger eta only adds edges to every label's graph, so no matching shrinks
    fam = _word_family(m)
    etas = sorted(etas)
    builds = [qgbuilder.assemble_quasigroup(fam, eta) for eta in etas]
    deltas = [built.delta_from_matching for built in builds]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))
    for built in builds:
        assert built.certificate.delta_cert <= built.delta_from_matching


def test_hall_witness_consistency_random_graphs():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        graph = random_graph(n, float(rng.uniform(0.1, 0.7)), rng)
        t_max = qgbuilder.max_matching(graph).matched_count
        assert qgbuilder.hall_deficiency_witness(graph, t_max) is None
        if t_max < n:
            witness = qgbuilder.hall_deficiency_witness(graph, t_max + 1)
            assert witness is not None
            # the witness actually certifies the deficiency
            nbhd = set()
            for l in witness:
                nbhd.update(np.flatnonzero(graph.adjacency[l]))
            assert len(nbhd) < len(witness) - n + t_max + 1


def test_hall_witness_trivial_cases():
    full = qgbuilder.CompatGraph(k=0, n=4, adjacency=np.ones((4, 4), bool),
                                 eta=2.1, boundary_count=0)
    assert qgbuilder.hall_deficiency_witness(full, 4) is None
    empty = qgbuilder.CompatGraph(k=0, n=4, adjacency=np.zeros((4, 4), bool),
                                  eta=0.1, boundary_count=0)
    witness = qgbuilder.hall_deficiency_witness(empty, 1)
    assert witness is not None and len(witness) >= 1
    with pytest.raises(TooLarge):
        qgbuilder.hall_deficiency_witness(
            qgbuilder.CompatGraph(k=0, n=21, adjacency=np.zeros((21, 21), bool),
                                  eta=0.1, boundary_count=0), 1)


def test_expand_column_matches_reference_loop(net_m2):
    geom = qgbuilder.FamilyGeometry(net_m2)
    rng = np.random.default_rng(34)
    for eta in (0.6, 1.0):
        for cls in rng.choice(geom.n_classes, 4, replace=False):
            rep = int(geom.class_reps[int(cls)])
            lefts, rights, dists = geom.candidate_edges(rep, radius=eta + 1e-11)
            keep = dists < eta - 1e-12
            _, (fl, fr, fv) = qgbuilder._solve_class_flow(geom, lefts[keep], rights[keep])
            got = qgbuilder._expand_column(geom, fl, fr, fv)

            # reference: explicit per-entry cursor walk in sorted order
            order = np.lexsort((fr, fl))
            sfl, sfr, sfv = fl[order], fr[order], fv[order]
            n = geom.n
            want = np.full(n, -1, dtype=np.int64)
            lcur = np.zeros(geom.n_classes, dtype=int)
            rcur = np.zeros(geom.n_classes, dtype=int)
            used = np.zeros(n, dtype=bool)
            for cl, cr, f in zip(sfl, sfr, sfv):
                ll = geom.labels_of(cl)[lcur[cl]:lcur[cl] + f]
                rr = geom.labels_of(cr)[rcur[cr]:rcur[cr] + f]
                want[ll] = rr
                used[rr] = True
                lcur[cl] += f
                rcur[cr] += f
            free_l = np.flatnonzero(want < 0)
            free_r = np.flatnonzero(~used)
            want[free_l] = free_r
            assert np.array_equal(got, want)


def test_su2_quaternions_rejects_non_special():
    mats = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
    assert qgbuilder.su2_quaternions(mats) is None
    rng = np.random.default_rng(32)
    specials = np.stack([qsim.haar_special_unitary(2, rng) for _ in range(6)])
    quats = qgbuilder.su2_quaternions(specials)
    assert quats is not None
    # euclidean distance in quaternion space equals the operator-norm distance
    for i in range(6):
        for j in range(6):
            want = qsim.operator_norm(specials[i] - specials[j])
            assert np.linalg.norm(quats[i] - quats[j]) == pytest.approx(want, abs=1e-12)


def test_orbit_transport_consistency(net_m2):
    geom = qgbuilder.FamilyGeometry(net_m2)
    assert geom.inverse_class is not None
    assert geom.conjugate_class is not None
    eta = 0.7
    # derive every class column via orbits, then check each against direct solves
    sizes, columns, _, _ = qgbuilder._matching_pass(geom, eta, reject_above=None)
    rng = np.random.default_rng(33)
    n = net_m2.size
    for cls in rng.choice(geom.n_classes, 8, replace=False):
        rep = int(geom.class_reps[int(cls)])
        lefts, rights, dists = geom.candidate_edges(rep, radius=eta + 1e-11)
        keep = dists < eta - 1e-12
        size, flows = qgbuilder._solve_class_flow(geom, lefts[keep], rights[keep])
        assert size == sizes[int(cls)]
        column = columns[int(cls)]
        assert np.array_equal(np.sort(column), np.arange(n))
        # matched pairs of the stored (possibly orbit-derived) column are genuine edges
        graph = qgbuilder.build_graph(net_m2, rep, eta)
        assert qgbuilder.max_matching(graph).matched_count == size
        matched = int(graph.adjacency[np.arange(n), column].sum())
        assert matched == size


def test_symmetry_orbits_transport_candidate_edges(net_m2):
    geom = qgbuilder.FamilyGeometry(net_m2)
    # the generator alphabet is closed under the 24 axis rotations, which
    # include entrywise conjugation (a rotation by pi about the y axis)
    assert len(geom.relabels) == 24
    assert any(np.array_equal(p, geom.conjugate_class) for p in geom.relabels)
    eta = 0.9

    def edges(cls):
        lefts, rights, dists = geom.candidate_edges(int(geom.class_reps[cls]), radius=eta)
        keep = dists < eta - 1e-9
        return set(zip(lefts[keep].tolist(), rights[keep].tolist()))

    for cls in (0, 5, 17):
        base = edges(cls)
        orbit = geom.orbit_of(cls)
        assert len(orbit) > 4
        for member, transport in orbit.items():
            tl, tr = geom.transport_edges(*map(np.array, zip(*base)), transport)
            assert set(zip(tl.tolist(), tr.tolist())) == edges(member)
            assert geom.class_counts[member] == geom.class_counts[cls]


def _matched_lefts(geom, fl, fv) -> np.ndarray:
    """Left labels that ``_expand_column`` matches: the first outflow labels of each class."""
    outflow = np.bincount(fl, weights=fv, minlength=geom.n_classes)
    return np.flatnonzero(geom.label_rank < outflow[geom.classes])


@pytest.mark.parametrize("m, etas, every", [(2, (0.39, 0.6, 0.8, 1.2), 1), (3, (0.39, 0.8), 5)],
                         ids=["m2-all-classes", "m3-sampled"])
def test_orbit_transport_matches_per_member_expansion(m, etas, every):
    geom = qgbuilder.FamilyGeometry(net.build_net(2, m))
    # label maps: class c's i-th label goes to sigma[c]'s i-th label
    assert len(geom.label_maps) == len(geom.relabels)
    for sigma, labels in zip(geom.relabels, geom.label_maps):
        for c in range(geom.n_classes):
            assert np.array_equal(labels[geom.labels_of(c)], geom.labels_of(int(sigma[c])))
    ncl = geom.n_classes
    checked = transposed = 0
    for eta in etas:
        sizes, columns, worst, _ = qgbuilder._matching_pass(geom, eta, reject_above=None)
        assert len(columns) == ncl
        if eta < 0.4:
            assert worst > 0          # an imperfect matching leaves completion pairs
        seen: set[int] = set()
        for seed in range(ncl):
            if seed in seen:
                continue
            orbit = geom.orbit_of(seed)
            seen.update(orbit)
            # reference: the seed's own flow, as the pass solves it
            _, (fl, fr, fv) = qgbuilder.seed_flow(geom, eta, seed)
            seed_lefts = _matched_lefts(geom, fl, fv)
            seed_rights = columns[seed][seed_lefts].astype(np.int64)
            for member, transport in list(orbit.items())[::every]:
                tl, tr = geom.transport_edges(fl, fr, transport)
                # reference: expand the member's own transported flow
                want = qgbuilder._expand_column(geom, tl, tr, fv)
                got = columns[member]
                # the member's matched labels are the label-map images of the seed's
                ends = seed_rights if transport.transposed else seed_lefts
                matched = np.sort(transport.labels[ends])
                assert np.array_equal(matched, _matched_lefts(geom, tl, fv))
                assert len(matched) == sizes[member]
                free = np.setdiff1d(np.arange(geom.n), matched)
                assert np.array_equal(got[free], want[free])          # completion pairs
                assert np.array_equal(np.sort(geom.classes * ncl + geom.classes[got]),
                                      np.sort(geom.classes * ncl + geom.classes[want]))
                checked += 1
                transposed += transport.transposed
    assert transposed > 0
    if every == 1:
        assert checked == len(etas) * ncl


def _reference_transport_column(lefts: np.ndarray, rights: np.ndarray,
                                transport: qgbuilder.Transport, n: int) -> np.ndarray:
    """An orbit member's column as a fresh int64 array, completed by ``_complete_permutation``."""
    if transport.transposed:
        lefts, rights = rights, lefts
    column = np.full(n, -1, dtype=np.int64)
    column[transport.labels[lefts]] = transport.labels[rights]
    return column if len(lefts) == n else qgbuilder._complete_permutation(column)


@pytest.mark.parametrize("m, eta", [(3, 0.39), (3, 0.8), (4, 0.3)])
def test_transported_rows_equal_completed_reference_columns(m, eta):
    geom = qgbuilder.FamilyGeometry(net.build_net(2, m))
    sizes, columns, _, _ = qgbuilder._matching_pass(geom, eta, reject_above=None)
    assert columns.dtype == algebra.index_dtype(geom.n)
    seen: set[int] = set()
    members = completed = orbits = 0
    for seed in range(geom.n_classes):
        if seed in seen:
            continue
        orbit = geom.orbit_of(seed)
        seen.update(orbit)
        orbits += 1
        _, (fl, fr, fv) = qgbuilder.seed_flow(geom, eta, seed)
        column = qgbuilder._expand_column(geom, fl, fr, fv)
        matched = _matched_lefts(geom, fl, fv)
        for member, transport in orbit.items():
            want = column if member == seed else \
                _reference_transport_column(matched, column[matched], transport, geom.n)
            assert np.array_equal(columns[member], want.astype(columns.dtype)), (seed, member)
            members += 1
            completed += member != seed and sizes[member] < geom.n
    assert members == geom.n_classes
    if m == 4:
        # unsaturated: every member that is not its orbit's seed has free labels to complete
        assert completed == members - orbits


def test_class_flow_graph_is_scipys_canonical_csr(monkeypatch, net_m2):
    geom = qgbuilder.FamilyGeometry(net_m2)
    ncl = geom.n_classes
    counts = geom.class_counts.astype(np.int32)
    graphs = []
    solve = qgbuilder.maximum_flow
    monkeypatch.setattr(qgbuilder, "maximum_flow",
                        lambda graph, s, t: graphs.append(graph) or solve(graph, s, t))
    rng = np.random.default_rng(36)
    for eta in (0.39, 0.8, 1.3):
        for cls in (0, 7, 20):
            lefts, rights, dists = geom.candidate_edges(int(geom.class_reps[cls]), radius=eta)
            keep = np.flatnonzero(dists < eta - 1e-12)
            keep = keep[rng.permutation(len(keep))]      # edge order must not matter
            qgbuilder._solve_class_flow(geom, lefts[keep], rights[keep])
            got = graphs[-1]
            # reference: the same capacities as COO triples, converted and sorted by scipy
            l, r = lefts[keep], rights[keep]
            sink = 2 * ncl + 1
            rows = np.concatenate([np.zeros(ncl, np.int64), 1 + ncl + np.arange(ncl), 1 + l])
            cols = np.concatenate([1 + np.arange(ncl), np.full(ncl, sink), 1 + ncl + r])
            vals = np.concatenate([counts, counts, np.minimum(counts[l], counts[r])])
            want = csr_matrix((vals, (rows, cols)), shape=(sink + 1, sink + 1))
            want.sort_indices()
            assert got.has_sorted_indices and got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert got.data.dtype == np.int32


ORDER_ETAS = (0.39, 0.6, 0.8, 1.0, 1.2)


def _build_record(built) -> tuple:
    return (built.quasigroup.class_table, built.certificate.per_k_violation_count,
            built.matched_counts)


@pytest.mark.parametrize("m", [2, 3])
def test_builds_do_not_depend_on_eta_order(m):
    # one family's geometry ranks its partners once, whatever eta asks first
    runs = {}
    for name, etas in (("ascending", ORDER_ETAS), ("descending", ORDER_ETAS[::-1])):
        fam = net.build_net(2, m)
        runs[name] = {eta: _build_record(qgbuilder.assemble_quasigroup(fam, eta)) for eta in etas}
    runs["fresh"] = {eta: _build_record(qgbuilder.assemble_quasigroup(net.build_net(2, m), eta))
                     for eta in ORDER_ETAS}
    for eta in ORDER_ETAS:
        for name in ("descending", "fresh"):
            for got, want in zip(runs[name][eta], runs["ascending"][eta]):
                assert np.array_equal(got, want), (name, eta)


def _brute_force_hall(below: np.ndarray, counts: np.ndarray) -> bool:
    """Every class reaches its own label count over ``below[product, family]``, both ways."""
    return bool(np.all(below @ counts >= counts) and np.all(counts @ below >= counts))


@settings(deadline=None, max_examples=12)
@given(m=st.sampled_from([1, 2, 3]), eta=st.floats(0.3, 1.3))
def test_ranking_against_brute_force(m, eta):
    # the family is shared across examples: its rankings were built at other etas
    geom = qgbuilder.FamilyGeometry.of(_word_family(m))
    bound = eta - qgbuilder.EDGE_GUARD
    for cls in range(geom.n_classes):
        prodq, tree = geom.product_points(int(geom.class_reps[cls]))
        dists = np.linalg.norm(prodq[:, None] - geom.quats[None], axis=-1)
        assume(np.abs(dists - bound).min() > 1e-9)        # no tie within rounding of the bound
        edges = qgbuilder._nearest_capacity_edges(geom, cls, bound, lambda: (prodq, tree))
        assert (edges is not None) == _brute_force_hall(dists < bound, geom.class_counts)
        if edges is not None:
            lefts, rights = edges
            assert np.all(dists[lefts, rights] < bound)
    sizes = qgbuilder._matching_pass(geom, eta, reject_above=None)[0]
    for cls in range(geom.n_classes):
        lefts, rights, dists = geom.candidate_edges(int(geom.class_reps[cls]), radius=eta)
        keep = dists < bound
        assert sizes[cls] == qgbuilder._solve_class_flow(geom, lefts[keep], rights[keep])[0]


def test_geometry_dies_with_its_family():
    gc.disable()
    try:
        fam = net.build_net(2, 2)
        geom = qgbuilder.FamilyGeometry.of(fam)
        assert qgbuilder.FamilyGeometry.of(fam) is geom
        built = qgbuilder.assemble_quasigroup(fam, 0.8)
        assert geom.rankings
        refs = [weakref.ref(fam), weakref.ref(geom)]
        del fam, geom, built
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -0.5])
def test_non_finite_or_non_positive_eta_is_refused(net_m1, eta):
    """A NaN eta once assembled a table certified at delta 0 with an empty matching."""
    with pytest.raises(DimensionMismatch, match="positive and finite"):
        qgbuilder.assemble_quasigroup(net_m1, eta)
    with pytest.raises(DimensionMismatch, match="positive and finite"):
        qgbuilder.assemble_or_reject(net_m1, eta, 0.5)
    q = qgbuilder.assemble_quasigroup(net_m1, 1.2).quasigroup
    with pytest.raises(DimensionMismatch, match="positive and finite"):
        algebra.certify_approx_rep(net_m1.matrices, q, eta)
