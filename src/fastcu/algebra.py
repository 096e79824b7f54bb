"""Right quasigroups, the finite groups among them, and projective representations.

All structures are index based: elements are the integers 0..N-1 and products
are table lookups.  Construction validates the defining axioms and derives the
auxiliary tables (identity, inverses, left division) so downstream code never
re-checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotProjectiveRep,
    NotRightQuasigroup,
)
from .qsim import ZERO_TOL, operator_norm, operator_norms, su2_quaternions, unitarity_residuals

UNIT_MODULUS_TOL = 1e-10
REP_RESIDUAL_TOL = 1e-9
IDENTITY_TOL = 1e-12
RECOUNT_CHUNK = 1 << 15     # residuals evaluated per quaternion recount chunk
VALIDATE_CHUNK = 1 << 16    # table entries per left-division scatter


def index_dtype(n: int):
    """Entry type of an order-n table: int16 covers every order this package builds."""
    return np.int16 if n < 2 ** 15 else np.int32


def _as_index_table(table, *, copy: bool = True, square: bool = True) -> np.ndarray:
    # numpy reads a list mixing bools and ints as ints, so a JSON true would pass as 1
    if isinstance(table, (list, tuple)) and any(
            isinstance(row, (list, tuple)) and bool in map(type, row) for row in table):
        raise DimensionMismatch("table entries must be integers, got a boolean")
    t = np.asarray(table)
    if t.dtype == bool or not (np.issubdtype(t.dtype, np.integer)
                               or np.issubdtype(t.dtype, np.floating)):
        raise DimensionMismatch(f"table entries must be integers, got dtype {t.dtype}")
    if t.ndim != 2 or (square and t.shape[0] != t.shape[1]):
        raise DimensionMismatch(f"expected a {'square' if square else '2-d'} table, "
                                f"got shape {t.shape}")
    n = t.shape[1]
    if n == 0 or t.shape[0] == 0:
        raise DimensionMismatch("empty table")
    if not np.issubdtype(t.dtype, np.integer):
        # NaN never equals its floor; an infinity fails the range check below
        if (t != np.floor(t)).any():
            raise DimensionMismatch("table entries must be integers")
        copy = False
    if t.min() < 0 or t.max() >= n:
        raise DimensionMismatch(f"table entries must lie in 0..{n - 1}")
    dtype = index_dtype(n)
    if t.dtype != dtype:
        return t.astype(dtype)
    return t.copy() if copy else t


def _distinct_rows(rows: np.ndarray):
    """(first, inverse): the first row index of each distinct row, and each row's group."""
    flat = np.ascontiguousarray(rows).reshape(len(rows), -1)
    bits = flat.view(np.dtype((np.void, flat.dtype.itemsize * flat.shape[1]))).ravel()
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    return first, inverse.ravel()


class _Gathered:
    """Data-descriptor field of an n x n table gathered from class rows on each read.

    Reading ``q.table`` returns ``q.class_table[q.classes].T``, fresh and
    read-only; nothing is cached.  An array passed to the constructor is
    returned as is instead.
    """

    def __set_name__(self, owner, name):
        self.slot, self.source = "_given_" + name, "class_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None         # the dataclass default: gather on read
        given = obj.__dict__[self.slot]
        if given is not None:
            return given
        out = getattr(obj, self.source)[obj.classes].T
        out.setflags(write=False)
        return out

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True, eq=False, repr=False)
class RightQuasigroup:
    """Structure where y -> y*a is a bijection for every fixed a.

    Labels whose columns are equal share a class.  Row c of ``class_table``
    holds y*a for every label a of class c, row c of ``class_left_div`` the
    unique l with l*a = j, and ``classes[a]`` is the class of label a.  The
    n x n tables ``table[y, a] = y*a`` and ``left_div[j, k]`` are gathered
    on request; ``column`` and ``ldiv_column`` read one class row.

    ``table`` and ``left_div`` stay constructor parameters so that
    ``dataclasses.replace(q, table=t)`` can plant a tampered table for
    checks to catch; a given array replaces only what that attribute reads.
    """

    order: int
    class_table: np.ndarray
    class_left_div: np.ndarray
    classes: np.ndarray
    table: np.ndarray = _Gathered()
    left_div: np.ndarray = _Gathered()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order}, classes={len(self.class_table)})"

    def column(self, k: int) -> np.ndarray:
        """y*k for every y (column k of the table), read-only."""
        return self.class_table[self.classes[k]]

    def ldiv_column(self, k: int) -> np.ndarray:
        """l(j, k) for every j (column k of the left division), read-only."""
        return self.class_left_div[self.classes[k]]

    def mul(self, y: int, a: int) -> int:
        return int(self.column(a)[y])

    def ldiv(self, j: int, k: int) -> int:
        return int(self.ldiv_column(k)[j])


def right_quasigroup_from_table(table) -> RightQuasigroup:
    """Validate each column as a permutation and left-divide it; equal columns share a class."""
    rows = _as_index_table(table, copy=False).T
    first, classes = _distinct_rows(rows)
    return quasigroup_from_transposed(rows[first], classes)


def quasigroup_from_transposed(table_t: np.ndarray, row_classes: np.ndarray) -> RightQuasigroup:
    """Build from class rows: row a of the transposed table is ``table_t[row_classes[a]]``.

    The left-division scatter proves each row is a permutation: every entry
    lies in 0..n-1, so the n entries of a row fill all n slots of its
    left-division row exactly when they are distinct, and a repeated value
    leaves a slot at its -1 initialization.  Each class row is validated and
    left-divided once; no n x n table is formed.
    """
    rows = _as_index_table(table_t, copy=False, square=False)
    n = rows.shape[1]
    row_classes = np.array(row_classes)
    if row_classes.shape != (n,) or row_classes.min() < 0 or row_classes.max() >= len(rows):
        raise DimensionMismatch(
            f"need {n} row classes in 0..{len(rows) - 1}, got shape {row_classes.shape}")
    count = len(rows)
    arange = np.arange(n, dtype=rows.dtype)
    offset_type = np.int32 if count * n < 2 ** 31 else np.int64
    left_div_rows = np.full(rows.shape, -1, dtype=rows.dtype)
    flat_div = left_div_rows.reshape(-1)
    ok = np.empty(count, dtype=bool)
    # one flat scatter per chunk of rows, entry (c, j) at j + c n; the cover test
    # stays inside the loop so that no classes x n temporary is formed
    step = max(1, VALIDATE_CHUNK // n)
    for lo in range(0, count, step):
        base = np.arange(lo * n, min(lo + step, count) * n, n, dtype=offset_type)[:, None]
        flat_div[rows[lo:lo + step] + base] = arange
        ok[lo:lo + step] = (left_div_rows[lo:lo + step] >= 0).all(axis=1)
    ok = ok[row_classes]
    if not ok.all():
        bad = int(np.argmin(ok))
        raise NotRightQuasigroup(f"column {bad} is not a permutation of 0..{n - 1}")
    for a in (rows, left_div_rows, row_classes):
        a.setflags(write=False)
    return RightQuasigroup(order=n, class_table=rows, class_left_div=left_div_rows,
                           classes=row_classes)


@dataclass(frozen=True, eq=False, repr=False, kw_only=True)
class FiniteGroup(RightQuasigroup):
    """Finite group of order N: a right quasigroup with an identity and inverses.

    Every element is its own class, so row k of ``class_table`` is column k
    of the Cayley table (row*column product) and ``classes`` is 0..N-1.
    """

    identity: int
    inverse: np.ndarray

    @property
    def cayley(self) -> np.ndarray:
        """The Cayley table, ``cayley[g, h] = g*h``: a read-only view of the class rows."""
        return self.class_table.T

    def to_right_quasigroup(self) -> RightQuasigroup:
        """The same table as a plain right quasigroup, which carries no group structure."""
        return right_quasigroup_from_table(self.cayley)


def group_from_cayley(table) -> FiniteGroup:
    """Validate a Cayley table and derive identity and inverses."""
    cayley = _as_index_table(table)
    n = cayley.shape[0]
    idx = np.arange(n)

    identity = None
    for e in range(n):
        if np.array_equal(cayley[e], idx) and np.array_equal(cayley[:, e], idx):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element in the table")

    inverse = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        right = np.flatnonzero(cayley[a] == identity)
        left = np.flatnonzero(cayley[:, a] == identity)
        both = np.intersect1d(right, left)
        if both.size == 0:
            raise NoInverse(f"element {a} has no two-sided inverse")
        inverse[a] = both[0]

    # (a*b)*c vs a*(b*c) on all triples at once; identity, inverses and
    # associativity together force every row and column to be a permutation
    lhs = cayley[cayley]      # lhs[a,b,c] = (a*b)*c
    rhs = cayley[:, cayley]   # rhs[a,b,c] = a*(b*c)
    bad = np.argwhere(lhs != rhs)
    if bad.size:
        a, b, c = (int(x) for x in bad[0])
        raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")

    q = quasigroup_from_transposed(np.ascontiguousarray(cayley.T), idx)
    inverse.setflags(write=False)
    return FiniteGroup(order=n, class_table=q.class_table, class_left_div=q.class_left_div,
                       classes=q.classes, identity=identity, inverse=inverse)


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return group_from_cayley((idx[:, None] + idx[None, :]) % n)


def klein_four_group() -> FiniteGroup:
    idx = np.arange(4)
    return group_from_cayley(idx[:, None] ^ idx[None, :])


@dataclass(frozen=True, eq=False)
class FactorSystem:
    """Unit-modulus scalars lam[g, h] relating pair products to single elements."""

    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=complex)
        object.__setattr__(self, "lam", lam)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise DimensionMismatch(f"factor table must be square, got {lam.shape}")
        off = np.abs(np.abs(lam) - 1.0)
        if off.max() > UNIT_MODULUS_TOL:
            g, h = np.unravel_index(int(np.argmax(off)), lam.shape)
            raise NotProjectiveRep(
                f"pair ({g},{h}) yields |lam| = {abs(lam[g, h]):.6f}, not a projective rep")

    def cocycle_residual(self, group: FiniteGroup) -> float:
        """Max violation of lam(g,h)*lam(g*h,k) = lam(g,h*k)*lam(h,k) over all triples."""
        lam, cay = self.lam, group.cayley
        lhs = lam[:, :, None] * lam[cay, :]
        rhs = lam[:, cay] * lam[None, :, :]
        return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True, eq=False)
class ProjectiveRep:
    """Family of unitaries indexed by a group or right quasigroup.

    Over a group the family must be a projective representation: the
    constructor derives its ``factor_system`` lam(g,h) = tr(V_{g*h}^dag V_g V_h)/d
    from the pair products and checks them against it.  A family over a plain
    right quasigroup carries no factors.
    """

    structure: RightQuasigroup
    matrices: np.ndarray
    factor_system: FactorSystem | None = field(init=False, default=None)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=complex)
        object.__setattr__(self, "matrices", mats)
        n = self.structure.order
        if mats.ndim != 3 or mats.shape[0] != n or mats.shape[1] != mats.shape[2]:
            raise DimensionMismatch(
                f"expected {n} square matrices, got array of shape {mats.shape}")
        residual = unitarity_residuals(mats)
        if residual.max() > ZERO_TOL:
            k = int(np.argmax(residual))
            raise NotProjectiveRep(f"matrix {k} is not unitary (residual {residual[k]:.2e})")
        if not isinstance(self.structure, FiniteGroup):
            return
        d, e = mats.shape[1], self.structure.identity
        if operator_norm(mats[e] - np.eye(d)) > IDENTITY_TOL:
            raise NotProjectiveRep(f"matrix at the identity label {e} is not the identity")
        prods = np.einsum("gab,hbc->ghac", mats, mats)
        at_products = mats[self.structure.cayley]
        factors = FactorSystem(np.einsum("ghab,ghab->gh", at_products.conj(), prods) / d)
        # max over pairs of || V_g V_h - lam(g,h) V_{g*h} ||_inf, the one product check
        prods -= factors.lam[:, :, None, None] * at_products
        res = float(operator_norms(prods.reshape(n * n, d, d)).max())
        if res > REP_RESIDUAL_TOL:
            raise NotProjectiveRep(f"factor system residual {res:.2e} exceeds tolerance")
        object.__setattr__(self, "factor_system", factors)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]


def projective_rep(group: FiniteGroup, matrices) -> ProjectiveRep:
    """A projective representation of ``group``, its factor system derived and checked."""
    return ProjectiveRep(group, matrices)


def ordinary_rep(structure: RightQuasigroup, matrices) -> ProjectiveRep:
    """A family over ``structure``; over a group it carries its (derived) factor system."""
    return ProjectiveRep(structure, matrices)


@dataclass(frozen=True)
class ApproxRepCertificate:
    """Counted violations of the approximate-representation condition at level eta.

    For each k, ``per_k_violation_count[k]`` counts the j with
    ``|| V_{l(j,k)} V_k - V_j ||_inf >= eta``; ``delta_cert`` is the worst
    fraction over k, so the family is an (eta, delta_cert) approximate
    representation of the quasigroup.
    """

    eta: float
    delta_cert: float
    per_k_violation_count: np.ndarray
    max_residual: float


def _recount_representatives(keys: np.ndarray, classes: np.ndarray):
    """Group the labels k whose recounts are provably identical.

    A label's residual row depends only on its matrix bits (``keys[k]``) and
    its left-division column, which labels of one class share by
    construction.  Labels are grouped by (key bits, class); labels of equal
    bits but different classes are counted apart.  Returns (reps,
    rep_index, key_id, first): ``reps`` holds the first label of each group
    in ascending order, ``rep_index[k]`` the group of label k, ``key_id[k]``
    numbers the distinct keys and ``first[u]`` is the first label with key u.
    """
    first, key_id = _distinct_rows(keys)
    groups = key_id.astype(np.int64) * (int(classes.max()) + 1) + classes
    _, group_first, group = np.unique(groups, return_index=True, return_inverse=True)
    reps, rep_index = np.unique(group_first[group.ravel()], return_inverse=True)
    return reps, rep_index.ravel(), key_id, first


def _right_multiplication(quats: np.ndarray) -> np.ndarray:
    """The 4 x 4 matrices R(q) with p @ R(q) the coordinates of the product p q."""
    w, x, y, z = quats.T
    return np.stack([np.stack([w, x, y, z], axis=-1),
                     np.stack([-x, w, z, -y], axis=-1),
                     np.stack([-y, -z, w, x], axis=-1),
                     np.stack([-z, y, -x, w], axis=-1)], axis=1)


def _quaternion_recount(quats, q: RightQuasigroup, reps, key_id, first, eta: float):
    """Violation counts and worst residual of each representative k, in quaternions.

    The products q_u q_k are formed once per distinct quaternion u, one
    matmul by the right-multiplication matrix of q_k per chunk of
    representatives, and gathered per left label l(j, k); the residual is
    |q_l q_k - q_j|, its square summed from the differences (an inner-product
    form would cancel for small residuals).
    """
    n, n_keys = len(quats), len(first)
    distinct = quats[first]
    right = _right_multiplication(quats[reps])
    eta_sq = eta * eta
    max_sq = 0.0
    rep_counts = np.empty(len(reps), dtype=np.int64)
    chunk = max(1, RECOUNT_CHUNK // n)
    for k0 in range(0, len(reps), chunk):
        sel = reps[k0:k0 + chunk]
        prods = np.matmul(distinct, right[k0:k0 + chunk]).reshape(-1, 4)
        ld = q.class_left_div[q.classes[sel]]
        diff = np.take(prods, key_id[ld] + (n_keys * np.arange(len(sel)))[:, None], axis=0)
        diff -= quats[None, :, :]
        sq = np.einsum("kjc,kjc->kj", diff, diff)
        rep_counts[k0:k0 + chunk] = np.count_nonzero(sq >= eta_sq, axis=1)
        max_sq = max(max_sq, float(sq.max()))
    return rep_counts, math.sqrt(max_sq)


def _svd_recount(mats, q: RightQuasigroup, reps, eta: float):
    """Violation counts and worst residual of each representative k, by singular values."""
    rep_counts = np.empty(len(reps), dtype=np.int64)
    max_residual = 0.0
    for i, k in enumerate(reps):
        residual = operator_norms(mats[q.ldiv_column(k)] @ mats[k] - mats)
        rep_counts[i] = np.count_nonzero(residual >= eta)
        max_residual = max(max_residual, float(residual.max()))
    return rep_counts, max_residual


def certify_approx_rep(matrices, quasigroup: RightQuasigroup, eta: float) -> ApproxRepCertificate:
    """Exhaustively recount the approximation condition over every (j, k) pair.

    Families of 2x2 special unitaries use their unit-quaternion coordinates,
    where the operator-norm residual is a Euclidean distance; everything else
    goes through singular values.  Both routes evaluate all n residuals of
    one representative per group of labels with identical recounts (equal
    matrix bits and class) and broadcast its count.
    """
    mats = np.asarray(matrices, dtype=complex)
    n = quasigroup.order
    if mats.ndim != 3 or mats.shape[0] != n or mats.shape[1] != mats.shape[2]:
        raise DimensionMismatch(
            f"need {n} square matrices for a quasigroup of order {n}, got {mats.shape}")
    if eta <= 0:
        raise DimensionMismatch(f"eta must be positive, got {eta}")
    quats = su2_quaternions(mats) if mats.shape[1] == 2 else None
    reps, rep_index, key_id, first = _recount_representatives(
        mats if quats is None else quats, quasigroup.classes)
    if quats is not None:
        rep_counts, max_residual = _quaternion_recount(quats, quasigroup, reps, key_id, first, eta)
    else:
        rep_counts, max_residual = _svd_recount(mats, quasigroup, reps, eta)
    counts = rep_counts[rep_index]
    counts.setflags(write=False)
    return ApproxRepCertificate(
        eta=float(eta),
        delta_cert=float(counts.max()) / n,
        per_k_violation_count=counts,
        max_residual=max_residual,
    )
