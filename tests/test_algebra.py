"""Groups, factor systems, right quasigroups, and the approximation certificate."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_right_quasigroup
from fastcu import algebra, net, qgbuilder, qsim
from fastcu.errors import (
    DimensionMismatch,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotProjectiveRep,
    NotRightQuasigroup,
)


def test_klein_four_valid():
    group = algebra.klein_four_group()
    assert group.order == 4
    assert group.identity == 0
    assert np.array_equal(group.inverse, [0, 1, 2, 3])


def test_trivial_group():
    group = algebra.group_from_cayley([[0]])
    assert group.order == 1
    assert group.identity == 0


def test_no_inverse_error():
    with pytest.raises(NoInverse):
        algebra.group_from_cayley([[0, 1], [1, 1]])


def test_no_identity_error():
    # rows and columns are permutations but no two-sided identity exists
    with pytest.raises(NoIdentity):
        algebra.group_from_cayley([[1, 2, 0], [0, 1, 2], [2, 0, 1]])


def test_not_associative_error():
    # identity and self-inverses present, but (1*1)*2 != 1*(1*2)
    table = [[0, 1, 2, 3, 4],
             [1, 0, 3, 2, 4],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
    with pytest.raises((NotAssociative, NoInverse)):
        algebra.group_from_cayley(table)


def test_rows_and_columns_are_permutations():
    for group in (algebra.klein_four_group(), algebra.cyclic_group(6)):
        idx = np.arange(group.order)
        for a in range(group.order):
            assert np.array_equal(np.sort(group.cayley[a]), idx)
            assert np.array_equal(np.sort(group.cayley[:, a]), idx)


def test_pauli_factor_system_values(klein_pauli):
    group, rep = klein_pauli
    lam = rep.factor_system.lam
    # direct product oracle: X Z = lam(1,3) * V_{1*3}
    x, z = rep.matrices[1], rep.matrices[3]
    j = group.cayley[1, 3]
    prod = x @ z
    ratio = np.trace(rep.matrices[j].conj().T @ prod) / 2
    assert lam[1, 3] == pytest.approx(ratio)
    assert lam[1, 3] == pytest.approx(-1j)
    assert np.allclose(lam[group.identity, :], 1.0)
    assert np.allclose(lam[:, group.identity], 1.0)


def test_cocycle_identity_all_triples(klein_pauli, c3_diag):
    for group, rep in (klein_pauli, c3_diag):
        assert rep.factor_system.cocycle_residual(group) < 1e-9


def test_ordinary_rep_has_unit_factors(c3_diag):
    group, rep = c3_diag
    assert np.allclose(rep.factor_system.lam, 1.0, atol=1e-12)


def test_not_projective_rep_rejected():
    group = algebra.klein_four_group()
    rng = np.random.default_rng(0)
    mats = np.stack([np.eye(2)] + [qsim.haar_unitary(2, rng) for _ in range(3)])
    with pytest.raises(NotProjectiveRep):
        algebra.projective_rep(group, mats)


def test_identity_matrix_required_at_identity_label():
    group = algebra.klein_four_group()
    mats = np.stack([1j * np.eye(2), np.eye(2), np.eye(2), np.eye(2)])
    with pytest.raises(NotProjectiveRep):
        algebra.ProjectiveRep(group, mats)


def test_right_quasigroup_from_group_tables():
    for group in (algebra.klein_four_group(), algebra.cyclic_group(5)):
        q = group.to_right_quasigroup()
        assert q.order == group.order


def test_a_group_is_a_right_quasigroup():
    assert issubclass(algebra.FiniteGroup, algebra.RightQuasigroup)
    own = vars(algebra.FiniteGroup)
    assert not {"column", "ldiv_column", "mul", "inv"} & set(own)
    assert [f.name for f in dataclasses.fields(algebra.ProjectiveRep) if f.init] == \
        ["structure", "matrices"]


def _product_table(a: int, b: int) -> np.ndarray:
    """Cayley table of Z_a x Z_b, element (x, y) labeled x*b + y."""
    x, y = np.divmod(np.arange(a * b), b)
    return ((x[:, None] + x[None, :]) % a) * b + (y[:, None] + y[None, :]) % b


@settings(deadline=None, max_examples=40)
@given(kind=st.sampled_from(["cyclic", "klein", "product"]), a=st.integers(1, 6),
       b=st.integers(1, 4), data=st.data())
def test_group_columns_and_tables_agree_with_its_cayley_table(kind, a, b, data):
    """Groups given by their tables, relabeled at random: the inherited column, left-division
    and gathered tables read the Cayley table, and the plain right quasigroup of the table
    has the class rows that ``right_quasigroup_from_table`` gives it."""
    base = {"cyclic": lambda: _product_table(a, 1), "klein": lambda: _product_table(2, 2),
            "product": lambda: _product_table(a, b)}[kind]()
    n = len(base)
    perm = np.array(data.draw(st.permutations(range(n))))
    cayley = np.empty_like(base)
    cayley[perm[:, None], perm[None, :]] = perm[base]
    group = algebra.group_from_cayley(cayley)
    assert np.array_equal(group.cayley, cayley) and not group.cayley.flags.writeable
    assert np.array_equal(group.table, cayley)
    idx = np.arange(n)
    for k in range(n):
        assert np.array_equal(group.column(k), cayley[:, k])
        assert np.array_equal(group.ldiv_column(k), cayley[:, group.inverse[k]])
        assert np.array_equal(cayley[group.ldiv_column(k), k], idx)
        assert np.array_equal(group.left_div[:, k], group.ldiv_column(k))
    plain = group.to_right_quasigroup()
    ref = algebra.right_quasigroup_from_table(cayley)
    assert type(plain) is algebra.RightQuasigroup
    for name in ("class_table", "class_left_div", "classes"):
        assert np.array_equal(getattr(plain, name), getattr(ref, name))


def test_right_quasigroup_latin_square():
    latin = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    q = algebra.right_quasigroup_from_table(latin)
    assert q.order == 5


def test_right_quasigroup_bad_column_named():
    table = [[0, 1, 2], [1, 0, 2], [2, 2, 1]]
    with pytest.raises(NotRightQuasigroup, match="column 2"):
        algebra.right_quasigroup_from_table(table)


def test_class_rows_validate_and_broadcast():
    rng = np.random.default_rng(6)
    n, classes = 7, np.array([0, 2, 1, 0, 2, 2, 1])
    rows = np.stack([rng.permutation(n) for _ in range(3)])
    q = algebra.quasigroup_from_transposed(rows, classes)
    ref = algebra.right_quasigroup_from_table(rows[classes].T)
    assert q.table.dtype == ref.table.dtype
    assert np.array_equal(q.table, ref.table)
    assert np.array_equal(q.left_div, ref.left_div)


def test_class_rows_bad_row_names_first_label():
    rows = np.array([[0, 1, 2, 3], [1, 1, 2, 3]])
    with pytest.raises(NotRightQuasigroup, match="column 2 "):
        algebra.quasigroup_from_transposed(rows, np.array([0, 0, 1, 1]))
    with pytest.raises(DimensionMismatch):
        algebra.quasigroup_from_transposed(rows, np.array([0, 0, 2, 1]))


@settings(deadline=None, max_examples=60)
@given(n=st.integers(2, 12), count=st.integers(1, 9), per_chunk=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
@example(n=9, count=7, per_chunk=2, seed=37, data=None)    # two rows a chunk, the last alone
def test_left_division_in_chunks_of_rows(n, count, per_chunk, seed, data):
    """One planted duplicate, anywhere in any chunk, names the first label of its row."""
    rng = np.random.default_rng(seed)
    rows = np.stack([rng.permutation(n) for _ in range(count)])
    classes = rng.integers(0, count, n)
    classes[rng.permutation(n)[:count]] = np.arange(min(n, count))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "VALIDATE_CHUNK", per_chunk * n)
        q = algebra.quasigroup_from_transposed(rows, classes)
        assert np.array_equal(q.class_left_div, np.argsort(rows, axis=1))
        if data is None:
            bad, (y, other) = count - 1, (0, 1)
        else:
            bad = data.draw(st.sampled_from(sorted(set(classes.tolist()))))
            y, other = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                          unique=True))
        rows[bad, y] = rows[bad, other]
        first = int(np.flatnonzero(classes == bad)[0])
        with pytest.raises(NotRightQuasigroup, match=f"^column {first} "):
            algebra.quasigroup_from_transposed(rows, classes)


def test_table_entries_must_be_integers():
    with pytest.raises(DimensionMismatch, match="integers"):
        algebra.right_quasigroup_from_table([[0.7, 1.2], [1.0, 0.0]])
    with pytest.raises(DimensionMismatch, match="integers"):
        algebra.right_quasigroup_from_table([[0.0, np.nan], [1.0, 0.0]])
    with pytest.raises(DimensionMismatch, match="integers"):
        algebra.right_quasigroup_from_table(np.array([[False, True], [True, False]]))
    with pytest.raises(DimensionMismatch, match="0..1"):
        algebra.right_quasigroup_from_table([[0.0, np.inf], [1.0, 0.0]])
    # integral floats are still indices
    q = algebra.right_quasigroup_from_table([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(q.table, [[0, 1], [1, 0]])


def test_boolean_table_entries_are_refused():
    # numpy would read these mixed lists as ints, a true as 1
    for table in (json.loads("[[true, 0], [0, 1]]"), [[0, 1], (1, False)]):
        with pytest.raises(DimensionMismatch, match="boolean"):
            algebra.right_quasigroup_from_table(table)
    with pytest.raises(DimensionMismatch, match="boolean"):
        algebra.group_from_cayley(json.loads("[[0, 1], [1, false]]"))


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 24), n_rows=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_class_form_matches_the_gathered_table(n, n_rows, seed, data):
    rng = np.random.default_rng(seed)
    rows = np.stack([rng.permutation(n) for _ in range(n_rows)])
    classes = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), min_size=n, max_size=n)))
    q = algebra.quasigroup_from_transposed(rows, classes)
    table = rows[classes].T
    ref = algebra.right_quasigroup_from_table(table)
    for name in ("table", "left_div"):
        got = getattr(q, name)
        assert got.dtype == getattr(ref, name).dtype
        assert np.array_equal(got, getattr(ref, name))
        assert not got.flags.writeable
    assert np.array_equal(q.table, table)
    for k in range(n):
        for got, want in ((q.column(k), ref.table[:, k]), (q.ldiv_column(k), ref.left_div[:, k])):
            assert np.array_equal(got, want) and got.ndim == 1 and not got.flags.writeable
        for y in range(n):
            assert q.mul(y, k) == ref.mul(y, k) == table[y, k]
            assert q.ldiv(y, k) == ref.ldiv(y, k)
    # the reference keeps one class per distinct column
    assert len(ref.class_table) == len(np.unique(table.T, axis=0))
    tampered = table.copy()
    assert dataclasses.replace(q, table=tampered).table is tampered

    bad = data.draw(st.integers(0, n_rows - 1))
    if n > 1 and bad in classes:
        broken = rows.copy()
        broken[bad, 0] = broken[bad, 1]
        first = int(np.flatnonzero(classes == bad)[0])
        with pytest.raises(NotRightQuasigroup, match=f"column {first} "):
            algebra.quasigroup_from_transposed(broken, classes)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_random_permutation_columns_make_a_right_quasigroup(n, seed, data):
    rng = np.random.default_rng(seed)
    table = np.stack([rng.permutation(n) for _ in range(n)], axis=1)
    q = algebra.right_quasigroup_from_table(table)
    assert np.array_equal(q.table, table)
    labels = np.arange(n)
    for k in range(n):
        assert np.array_equal(q.left_div[table[:, k], k], labels)
    by_class = algebra.quasigroup_from_transposed(np.ascontiguousarray(table.T), labels)
    assert np.array_equal(by_class.table, q.table)
    assert np.array_equal(by_class.left_div, q.left_div)

    if n > 1:   # repeat a value its column already holds: that column is no permutation
        k = data.draw(st.integers(0, n - 1))
        y, other = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        broken = table.copy()
        broken[y, k] = table[other, k]
        with pytest.raises(NotRightQuasigroup, match=f"column {k} "):
            algebra.right_quasigroup_from_table(broken)


def test_left_division_inverts_columns():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 9):
        q = random_right_quasigroup(n, rng)
        for a in range(n):
            for y in range(n):
                assert q.left_div[q.table[y, a], a] == y
                assert q.table[q.left_div[y, a], a] == y


def test_certify_exact_rep_zero_delta(c3_diag):
    group, rep = c3_diag
    q = group.to_right_quasigroup()
    cert = algebra.certify_approx_rep(rep.matrices, q, eta=1e-6)
    assert cert.delta_cert == 0.0
    assert cert.max_residual < 1e-12


def test_certify_all_identity_matrices():
    rng = np.random.default_rng(2)
    q = random_right_quasigroup(6, rng)
    mats = np.stack([np.eye(3)] * 6)
    cert = algebra.certify_approx_rep(mats, q, eta=0.1)
    assert cert.delta_cert == 0.0


def test_certify_matches_exhaustive_double_loop():
    rng = np.random.default_rng(3)
    n = 8
    q = random_right_quasigroup(n, rng)
    mats = np.stack([qsim.haar_unitary(2, rng) for _ in range(n)])
    eta = 0.9
    cert = algebra.certify_approx_rep(mats, q, eta)
    counts = np.zeros(n, dtype=int)
    worst = 0.0
    for k in range(n):
        for j in range(n):
            l = q.left_div[j, k]
            residual = np.linalg.svd(mats[l] @ mats[k] - mats[j], compute_uv=False)[0]
            worst = max(worst, residual)
            if residual >= eta:
                counts[k] += 1
    assert np.array_equal(cert.per_k_violation_count, counts)
    assert cert.delta_cert == pytest.approx(counts.max() / n)
    assert cert.max_residual == pytest.approx(worst, abs=1e-12)


def _svd_double_loop(mats, q, eta):
    """Per-(j, k) residuals by SVD: strict and lenient counts per k, and the worst residual."""
    n = q.order
    res = np.array([[np.linalg.svd(mats[q.left_div[j, k]] @ mats[k] - mats[j],
                                   compute_uv=False)[0] for j in range(n)] for k in range(n)])
    return (np.count_nonzero(res >= eta + 1e-9, axis=1),
            np.count_nonzero(res >= eta - 1e-9, axis=1), res.max())


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 16), extra=st.integers(0, 6), copies=st.integers(0, 4),
       shared=st.booleans(), special=st.booleans(), eta=st.floats(0.05, 2.1))
@example(seed=1, extra=1, copies=1, shared=False, special=True, eta=0.7)
def test_certify_grouped_recount_matches_svd_double_loop(seed, extra, copies, shared,
                                                         special, eta):
    """Repeated matrices, shared or distinct left-division columns, both recount routes."""
    rng = np.random.default_rng(seed)
    mats = [*net.build_net(2, 1).matrices,
            *(qsim.haar_special_unitary(2, rng) for _ in range(extra))]
    mats = np.stack(mats + [mats[i] for i in rng.integers(0, len(mats), copies)])
    if not special:
        mats = mats * np.exp(0.3j)      # not special unitary: the SVD route
    if not shared:
        mats = np.concatenate([mats, mats[:1]])
    n = len(mats)
    columns = np.stack([rng.permutation(n) for _ in range(n)])
    if shared:
        # labels with equal matrices share their column, as built tables do
        _, group = np.unique(mats.reshape(n, -1), axis=0, return_inverse=True)
        group = group.ravel()
        columns = columns[np.argmax(group[None, :] == group[:, None], axis=1)]
    else:
        # the appended copy of label 0 gets a different left-division column
        columns[-1] = np.roll(columns[0], 1)
    q = algebra.right_quasigroup_from_table(columns.T)
    cert = algebra.certify_approx_rep(mats, q, eta)
    lo, hi, worst = _svd_double_loop(mats, q, eta)
    assert np.all(lo <= cert.per_k_violation_count)
    assert np.all(cert.per_k_violation_count <= hi)
    assert cert.max_residual == pytest.approx(worst, abs=1e-12)


def _elementwise_recount(quats, q, eta):
    """Per-label counts and worst residual, products by the elementwise quaternion formula."""
    counts = np.empty(q.order, dtype=np.int64)
    worst = 0.0
    for k in range(q.order):
        diff = qsim.quaternion_product(quats[q.ldiv_column(k)], quats[k]) - quats
        sq = np.einsum("jc,jc->j", diff, diff)
        counts[k] = np.count_nonzero(sq >= eta * eta)
        worst = max(worst, float(sq.max()))
    return counts, np.sqrt(worst)


@settings(deadline=None, max_examples=15)
@given(m=st.sampled_from([1, 2, 3]), eta=st.floats(0.3, 1.5))
@example(m=3, eta=0.6)
def test_matmul_recount_matches_elementwise_products_on_built_tables(m, eta):
    """The matmul products count exactly as the elementwise ones, within an ulp of residual."""
    fam = net.build_net(2, m)
    built = qgbuilder.assemble_quasigroup(fam, eta)
    counts, worst = _elementwise_recount(qsim.su2_quaternions(fam.matrices), built.quasigroup, eta)
    cert = built.certificate
    assert np.array_equal(cert.per_k_violation_count, counts)
    assert abs(cert.max_residual - worst) <= 4.5e-16


def test_certify_monotone_in_eta():
    rng = np.random.default_rng(4)
    n = 7
    q = random_right_quasigroup(n, rng)
    mats = np.stack([qsim.haar_unitary(2, rng) for _ in range(n)])
    deltas = [algebra.certify_approx_rep(mats, q, eta).delta_cert
              for eta in (0.2, 0.5, 0.9, 1.4, 2.0)]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


def test_certify_dimension_mismatch():
    rng = np.random.default_rng(5)
    q = random_right_quasigroup(4, rng)
    with pytest.raises(DimensionMismatch):
        algebra.certify_approx_rep(np.stack([np.eye(2)] * 3), q, eta=0.5)
