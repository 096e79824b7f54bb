"""Right-quasigroup assembly over a labeled unitary family.

For every fixed label k a bipartite graph connects l to j when
``|| V_l V_k - V_j ||_inf < eta``; a maximum matching, completed to a
permutation, becomes column k of the product table.  The assembled table is a
right quasigroup by construction and its (eta, delta) certificate is recounted
exhaustively afterwards.

The family's classes of equal labels index the build; every column comes from
an integer max-flow on the class graph, whose capacities are the class sizes.
The flow network is handed to scipy as a ready CSR matrix with sorted indices.
An SU(2) family first solves each flow on the nearest-capacity subgraph, which
links every class only to its nearest partners; a flow of value n there is a
maximum flow of the whole graph, and any other outcome solves the whole graph.
Isometries that permute the classes (inversion, entrywise conjugation and, for
2x2 families, the axis-permuting rotations) carry one flow to a whole orbit of
classes.  Only the orbit's seed class expands its flow into labels; every
other member gets the seed's matched label pairs through a label map (the
i-th label of class c goes to the i-th label of its image class) and then
completes its leftover labels in ascending order.  That gives each member the
same matched and free label sets, and the same completion, as expanding its
own transported flow; only the pairing of equal-matrix labels inside a class
pair can differ.
Only the source of candidate class edges depends on the family: 2x2 special
unitaries embed isometrically into unit quaternions, where the operator-norm
distance is the Euclidean distance, so a KD-tree supplies them; any other
family gets dense operator norms between class representatives.
``build_graph`` and ``max_matching`` are the per-label SVD reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching, maximum_flow
from scipy.spatial import cKDTree

from .algebra import (
    ApproxRepCertificate,
    RightQuasigroup,
    certify_approx_rep,
    index_dtype,
    quasigroup_from_transposed,
)
from .errors import AxiomViolation, DimensionMismatch, TooLarge
from .net import NetFamily
from .qsim import operator_norms, quaternion_product, su2_quaternions

EDGE_GUARD = 1e-12
WITNESS_MAX_N = 20
# partner labels a class gathers per label of its own in the nearest-capacity subgraph
NEAREST_CAPACITY = 4


def residual_norm_matrix(matrices: np.ndarray, k: int) -> np.ndarray:
    """Dense (l, j) matrix of distances between V_l V_k and V_j, by SVD."""
    mats = np.asarray(matrices, dtype=complex)
    prods = mats @ mats[k]
    n = mats.shape[0]
    return operator_norms(prods[:, None, :, :] - mats[None, :, :, :]).reshape(n, n)


@dataclass(frozen=True, eq=False)
class CompatGraph:
    """Adjacency of the per-k compatibility graph, plus threshold-band bookkeeping."""

    k: int
    n: int
    adjacency: np.ndarray        # bool (n, n), adjacency[l, j]
    eta: float
    boundary_count: int          # norms within EDGE_GUARD of eta, dropped as non-edges


def build_graph(net: NetFamily, k: int, eta: float) -> CompatGraph:
    """Evaluate all n^2 residual norms for one k and threshold strictly below eta."""
    if not 0 <= k < net.size:
        raise DimensionMismatch(f"label {k} out of range for a family of size {net.size}")
    norms = residual_norm_matrix(net.matrices, k)
    adjacency = norms < (eta - EDGE_GUARD)
    boundary = int(np.count_nonzero(np.abs(norms - eta) <= EDGE_GUARD))
    return CompatGraph(k=k, n=net.size, adjacency=adjacency, eta=float(eta),
                       boundary_count=boundary)


@dataclass(frozen=True, eq=False)
class MatchingResult:
    """Maximum matching of a compatibility graph plus its arbitrary completion."""

    pairs: dict[int, int]
    matched_count: int
    completed: np.ndarray        # permutation, completed[l] = j
    inside_threshold_count: int


def _complete_permutation(column: np.ndarray) -> np.ndarray:
    """Pair the unmatched (-1) entries with the unused targets, both ascending, in place."""
    free = column < 0
    used = np.zeros(len(column), dtype=bool)
    used[column[~free]] = True
    column[free] = np.flatnonzero(~used)
    return column


def max_matching(graph: CompatGraph) -> MatchingResult:
    """Maximum matching of one compatibility graph, completed to a permutation."""
    pair_left = maximum_bipartite_matching(csr_matrix(graph.adjacency),
                                           perm_type="column").astype(np.int64)
    matched_left = np.flatnonzero(pair_left >= 0)
    completed = _complete_permutation(pair_left.copy())
    pairs = {int(l): int(pair_left[l]) for l in matched_left}
    return MatchingResult(pairs=pairs, matched_count=len(matched_left),
                          completed=completed, inside_threshold_count=len(matched_left))


def hall_deficiency_witness(graph: CompatGraph, t: int) -> np.ndarray | None:
    """Exhaustive search for a left set S with |N(S)| < |S| - n + t.

    Such a witness exists exactly when the maximum matching is smaller than t.
    """
    n = graph.n
    if n > WITNESS_MAX_N:
        raise TooLarge(f"witness search scans 2^n subsets; n={n} exceeds {WITNESS_MAX_N}")
    row_masks = [int(sum(1 << j for j in np.flatnonzero(row))) for row in graph.adjacency]
    for subset in range(1, 1 << n):
        size = subset.bit_count()
        nbhd = 0
        s = subset
        while s:
            low = s & -s
            nbhd |= row_masks[low.bit_length() - 1]
            s ^= low
        if nbhd.bit_count() < size - n + t:
            return np.flatnonzero([(subset >> i) & 1 for i in range(n)])
    return None


# --------------------------------------------------------------------------- #
#                          class-level family geometry                        #
# --------------------------------------------------------------------------- #


def _axis_rotations():
    """The 24 rotations of R^3 that permute the coordinate axes up to sign.

    Each is (perm, signs): rotated coordinate i is ``signs[i] * v[perm[i]]``.
    """
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            rot = np.zeros((3, 3))
            rot[np.arange(3), perm] = signs
            if np.linalg.det(rot) > 0:
                out.append((np.array(perm), np.array(signs)))
    return out


def _su2_from_quaternions(quats: np.ndarray) -> np.ndarray:
    """Inverse of ``su2_quaternions``: w I + i (x X + y Y + z Z)."""
    a = quats[:, 0] + 1j * quats[:, 3]
    b = quats[:, 2] + 1j * quats[:, 1]
    return np.stack([np.stack([a, b], axis=1),
                     np.stack([-b.conj(), a.conj()], axis=1)], axis=1)


class Transport(NamedTuple):
    """A relabeling isometry carrying one class's graph to another class's graph."""

    sigma: np.ndarray        # class permutation
    labels: np.ndarray       # label permutation: i-th label of class c -> i-th label of sigma[c]
    transposed: bool         # the image graph is the transpose (inverse classes)


class FamilyGeometry:
    """Label classes, their symmetry maps and a candidate-edge source for one family.

    Labels of one class of the family carry one matrix; the per-k graph,
    matching and table column depend on k only through its class.  Isometries
    of the family cut the matchings further.  The graph of the inverse class
    is the transpose of the graph of the class.  A map that preserves
    products and distances and permutes the family's classes (with their
    multiplicities) sends the graph of a class to the class-relabeled graph
    of its image: entrywise conjugation, and for 2x2 families conjugation by
    the rotations that permute the Pauli axes up to sign.  One maximum
    matching therefore serves a whole orbit of classes.
    """

    def __init__(self, net: NetFamily):
        self.net = net
        self.n = net.size
        self.classes = net.classes
        self.n_classes = net.n_classes
        order = np.argsort(self.classes, kind="stable")
        counts = np.bincount(self.classes, minlength=self.n_classes)
        self.class_offsets = np.concatenate([[0], np.cumsum(counts)])
        self.class_labels = order            # labels grouped by class, ascending in each
        self.class_counts = counts
        self.label_rank = np.empty(self.n, dtype=np.int64)   # index of a label in its class
        self.label_rank[order] = np.arange(self.n) - np.repeat(self.class_offsets[:-1], counts)
        self.class_reps = order[self.class_offsets[:-1]]
        self.rep_matrices = net.matrices[self.class_reps]
        self.quats = su2_quaternions(self.rep_matrices)
        self.tree = cKDTree(self.quats) if self.quats is not None else None
        self.inverse_class = net.class_map(self.rep_matrices.conj().transpose(0, 2, 1))
        self.conjugate_class = net.class_map(self.rep_matrices.conj())
        candidates = [np.arange(self.n_classes), self.conjugate_class]
        if self.quats is not None:
            for perm, signs in _axis_rotations():
                rotated = self.quats.copy()
                rotated[:, 1:] = self.quats[:, 1 + perm] * signs
                candidates.append(net.class_map(_su2_from_quaternions(rotated)))
        # class permutations of the family's relabeling isometries, distinct
        unique = {c.tobytes(): c for c in candidates if c is not None}
        self.relabels = list(unique.values())
        self.label_maps = [order[self.class_offsets[sigma[self.classes]] + self.label_rank]
                           for sigma in self.relabels]

    def labels_of(self, cls: int) -> np.ndarray:
        return self.class_labels[self.class_offsets[cls]:self.class_offsets[cls + 1]]

    def orbit_of(self, cls: int) -> dict[int, Transport]:
        """Classes whose graphs derive from this one, each with its transport.

        A transport sends the edge (l, r) of this class's graph to
        (sigma[l], sigma[r]), or to (sigma[r], sigma[l]) when transposed; it
        reaches sigma[cls], or sigma[inverse[cls]].  The first transport is
        the identity, so the seed class maps to itself.
        """
        orbit: dict[int, Transport] = {}
        inv = self.inverse_class
        for sigma, labels in zip(self.relabels, self.label_maps):
            orbit.setdefault(int(sigma[cls]), Transport(sigma, labels, False))
            if inv is not None:
                orbit.setdefault(int(sigma[inv[cls]]), Transport(sigma, labels, True))
        return orbit

    @staticmethod
    def transport_edges(lefts: np.ndarray, rights: np.ndarray, transport: Transport):
        """Class-level edges of the image graph."""
        sigma = transport.sigma
        if transport.transposed:
            return sigma[rights], sigma[lefts]
        return sigma[lefts], sigma[rights]

    def product_points(self, k: int):
        """Quaternions of the products V_c V_k of every class c, with their KD-tree (SU(2) only)."""
        prodq = quaternion_product(self.quats, self.quats[self.classes[k]])
        return prodq, cKDTree(prodq)

    def candidate_edges(self, k: int, radius: float, products=None):
        """Class-level edges (cl, cr, dist) of label k's graph with dist at most radius.

        ``products`` is ``product_points(k)`` when the caller already holds it.
        """
        if self.tree is not None:
            _, ptree = products or self.product_points(k)
            pairs = self.tree.sparse_distance_matrix(ptree, radius, output_type="ndarray")
            # i indexes the static class points (right side), j the products
            return pairs["j"], pairs["i"], pairs["v"]
        reps = self.rep_matrices
        norms = operator_norms((reps @ self.net.matrices[k])[:, None] - reps[None])
        lefts, rights = np.nonzero(norms <= radius)
        return lefts, rights, norms[lefts, rights]


def _solve_class_flow(geom: FamilyGeometry, lefts: np.ndarray,
                      rights: np.ndarray) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Maximum label-level matching size via integer max-flow on the class graph.

    Returns the matching size and the positive class-to-class flow triples;
    those expand deterministically into a label-level matching because class
    capacities equal label multiplicities.
    """
    ncl = geom.n_classes
    counts = geom.class_counts.astype(np.int32)
    sink = 2 * ncl + 1
    # nodes: source 0, left classes 1..ncl, right classes ncl+1..2ncl, sink;
    # rows in node order with ascending columns, as scipy's canonical CSR
    lefts, rights = np.divmod(np.sort(lefts * ncl + rights), ncl)
    row_sizes = np.concatenate([[ncl], np.bincount(lefts, minlength=ncl),
                                np.ones(ncl, np.int64), [0]])
    indptr = np.concatenate([[0], np.cumsum(row_sizes)]).astype(np.int32)
    indices = np.concatenate([1 + np.arange(ncl), 1 + ncl + rights,
                              np.full(ncl, sink)]).astype(np.int32)
    data = np.concatenate([counts, np.minimum(counts[lefts], counts[rights]), counts])
    graph = csr_matrix((data, indices, indptr), shape=(sink + 1, sink + 1))
    graph.has_sorted_indices = True
    res = maximum_flow(graph, 0, sink)
    # forward flows leave the left classes: CSR rows 1..ncl
    flow = res.flow
    lo, hi = flow.indptr[1], flow.indptr[ncl + 1]
    rows = np.repeat(np.arange(ncl), np.diff(flow.indptr[1:ncl + 2]))
    cols, vals = flow.indices[lo:hi], flow.data[lo:hi]
    keep = (vals > 0) & (cols > ncl) & (cols < sink)
    return int(res.flow_value), (rows[keep], cols[keep].astype(np.int64) - 1 - ncl,
                                 vals[keep].astype(np.int64))


def _nearest_partners(tree: cKDTree, points: np.ndarray, counts: np.ndarray, q: int,
                      bound: float):
    """Edges (row, partner) from ``points``, classes of count ``q``, to their nearest partners.

    ``tree`` holds the partners' points, which carry the class counts.
    Partners below ``bound`` are taken nearest first until they hold
    NEAREST_CAPACITY times ``q`` labels.  Returns None when some point cannot
    gather ``q`` labels below ``bound``: its class fails Hall's condition, so
    no matching is perfect.
    """
    k = int(min(NEAREST_CAPACITY * q, len(counts)))
    dist, idx = tree.query(points, k=k, distance_upper_bound=bound)
    near = dist.reshape(len(points), k) < bound
    idx = idx.reshape(len(points), k)
    held = np.where(near, counts[np.where(near, idx, 0)], 0)
    if np.any(held.sum(axis=1) < q):
        return None
    before = np.cumsum(held, axis=1) - held          # partner labels nearer than each
    rows, cols = np.nonzero(near & (before < NEAREST_CAPACITY * q))
    return rows, idx[rows, cols]


def _nearest_capacity_edges(geom: FamilyGeometry, products, bound: float):
    """Class edges below ``bound`` from every class to its nearest partners, or None.

    Each product class V_c V_k links to its nearest family classes, and each
    family class to its nearest products, until the partners hold
    NEAREST_CAPACITY times the class's label count.  None means some class
    cannot gather its own count below ``bound``, so no flow can saturate.
    """
    prodq, ptree = products
    counts = geom.class_counts
    lefts, rights = [], []
    # classes of large count need the most partner labels: they fail Hall's test first
    for q in np.unique(counts)[::-1]:
        group = np.flatnonzero(counts == q)
        for tree, points, flip in ((geom.tree, prodq, False), (ptree, geom.quats, True)):
            found = _nearest_partners(tree, points[group], counts, int(q), bound)
            if found is None:
                return None
            rows, partners = found
            lefts.append(partners if flip else group[rows])
            rights.append(group[rows] if flip else partners)
    ncl = geom.n_classes
    return np.divmod(np.unique(np.concatenate(lefts) * ncl + np.concatenate(rights)), ncl)


def seed_flow(geom: FamilyGeometry, eta: float, cls: int):
    """Maximum flow of class ``cls``'s graph at ``eta``, as ``_solve_class_flow`` returns it.

    An SU(2) family first solves the flow on its nearest-capacity subgraph
    (``_nearest_capacity_edges``).  No flow exceeds n, so a flow of value n
    there is a maximum flow of the whole graph; any other outcome solves the
    whole graph, on the same product points.
    """
    rep = int(geom.class_reps[cls])
    bound = eta - EDGE_GUARD
    products = None
    if geom.tree is not None:
        products = geom.product_points(rep)
        edges = _nearest_capacity_edges(geom, products, bound)
        if edges is not None:
            size, flows = _solve_class_flow(geom, *edges)
            if size == geom.n:
                return size, flows
    lefts, rights, dists = geom.candidate_edges(rep, radius=eta, products=products)
    keep = dists < bound
    return _solve_class_flow(geom, lefts[keep], rights[keep])


def _expand_column(geom: FamilyGeometry, fl: np.ndarray, fr: np.ndarray,
                   fv: np.ndarray) -> np.ndarray:
    """Turn class-level flows into a completed label permutation.

    Flow f on a class pair pairs the next f unused labels of each class in
    ascending order, taking the pairs by (left, right) class on the left side
    and by (right, left) class on the right side; leftover labels complete
    ascending on both sides.
    """
    ncl = geom.n_classes
    column = np.full(geom.n, -1, dtype=np.int64)
    if len(fv):
        entry_of = np.repeat(np.arange(len(fv)), fv)
        within = np.arange(len(entry_of)) - np.repeat(np.cumsum(fv) - fv, fv)
        pos = []
        for groups, keys in ((fl, fl * ncl + fr), (fr, fr * ncl + fl)):
            order = np.argsort(keys)
            ahead = np.empty(len(fv), dtype=np.int64)
            ahead[order] = np.cumsum(fv[order]) - fv[order]     # flow of earlier pairs
            per_class = np.bincount(groups, weights=fv, minlength=ncl).astype(np.int64)
            start = ahead - (np.cumsum(per_class) - per_class)[groups] + geom.class_offsets[groups]
            pos.append(start[entry_of] + within)
        column[geom.class_labels[pos[0]]] = geom.class_labels[pos[1]]
    return _complete_permutation(column)


def _transport_column(lefts: np.ndarray, rights: np.ndarray, transport: Transport,
                      n: int) -> np.ndarray:
    """Completed column of an orbit member from the seed's matched label pairs."""
    if transport.transposed:
        lefts, rights = rights, lefts
    column = np.full(n, -1, dtype=np.int64)
    column[transport.labels[lefts]] = transport.labels[rights]
    return _complete_permutation(column)


@dataclass(frozen=True, eq=False)
class BuiltQuasigroup:
    """Assembled right quasigroup over a family, with its recounted certificate."""

    quasigroup: RightQuasigroup
    net: NetFamily
    eta: float
    certificate: ApproxRepCertificate
    matched_counts: np.ndarray

    @property
    def delta_from_matching(self) -> float:
        return float((self.quasigroup.order - self.matched_counts.min()) / self.quasigroup.order)


def _process_seed_class(geom: FamilyGeometry, eta: float, cls: int, sizes: np.ndarray,
                        columns: np.ndarray | None):
    """Solve the flow of seed class ``cls`` and fill in its orbit's unsized members.

    Returns (size, members); with ``columns`` given, row ``member`` receives
    the completed column of every member.
    """
    size, flows = seed_flow(geom, eta, cls)
    orbit = {member: transport for member, transport in geom.orbit_of(cls).items()
             if sizes[member] < 0}
    if columns is not None:
        seed = _expand_column(geom, *flows)
        # the expansion matches the first (outgoing flow) labels of each left class
        outflow = np.bincount(flows[0], weights=flows[2], minlength=geom.n_classes)
        matched = np.flatnonzero(geom.label_rank < outflow[geom.classes])
        for member, transport in orbit.items():
            columns[member] = seed if member == cls else \
                _transport_column(matched, seed[matched], transport, geom.n)
    return size, orbit


def _matching_pass(geom: FamilyGeometry, eta: float, want_columns: bool,
                   reject_above: float | None):
    """Shared core: matching size (and optionally column) per class.

    One flow solve covers a whole symmetry orbit of classes, seeded by its
    lowest class.  Returns (sizes, columns, worst_frac, complete):
    ``sizes[c]`` is class c's matching size, and ``columns`` (None unless
    wanted) is the class_table of the build, row c the completed column of
    class c in the table's index type.  An early bail on ``reject_above``
    leaves the pass incomplete, with unsized classes at -1.
    """
    n = geom.n
    sizes = np.full(geom.n_classes, -1, dtype=np.int64)
    columns = np.empty((geom.n_classes, n), dtype=index_dtype(n)) if want_columns else None
    worst = 0.0
    for cls in range(geom.n_classes):
        if sizes[cls] >= 0:
            continue
        size, orbit = _process_seed_class(geom, eta, cls, sizes, columns)
        sizes[list(orbit)] = size
        worst = max(worst, (n - size) / n)
        if reject_above is not None and worst > reject_above:
            return sizes, columns, worst, False
    return sizes, columns, worst, True


def _finish_build(geom: FamilyGeometry, eta: float, sizes, columns) -> BuiltQuasigroup:
    net, n = geom.net, geom.n
    matched_counts = sizes[geom.classes]
    try:
        # the class columns become the class rows of the quasigroup as they are
        quasigroup = quasigroup_from_transposed(columns, geom.classes)
    except Exception as exc:  # pragma: no cover - permutation columns by construction
        raise AxiomViolation(f"assembled table failed validation: {exc}") from exc
    certificate = certify_approx_rep(net.matrices, quasigroup, eta)
    if certificate.delta_cert > (n - matched_counts.min()) / n + 1e-12:
        raise AxiomViolation("recounted delta exceeds the matching-derived bound")
    matched_counts.setflags(write=False)
    return BuiltQuasigroup(quasigroup=quasigroup, net=net, eta=float(eta),
                           certificate=certificate, matched_counts=matched_counts)


def assemble_quasigroup(net: NetFamily, eta: float) -> BuiltQuasigroup:
    """Build the full product table, one maximum matching per label, and certify it.

    The certificate's delta comes from an exhaustive recount on the assembled
    table; it can only be at most the matching-derived deficiency because
    completion pairs may happen to fall below eta.
    """
    if eta <= 0:
        raise DimensionMismatch(f"eta must be positive, got {eta}")
    geom = FamilyGeometry(net)
    sizes, columns, _, _ = _matching_pass(geom, eta, want_columns=True, reject_above=None)
    return _finish_build(geom, eta, sizes, columns)


def assemble_or_reject(net: NetFamily, eta: float,
                       delta_bound: float) -> tuple[BuiltQuasigroup | None, float]:
    """Assemble unless some matching already exceeds the deficiency bound.

    Returns (built, worst_matching_deficiency); ``built`` is None exactly when
    the bound was exceeded, in which case the deficiency is a certified lower
    bound above it.
    """
    if eta <= 0:
        raise DimensionMismatch(f"eta must be positive, got {eta}")
    geom = FamilyGeometry(net)
    sizes, columns, worst, complete = _matching_pass(geom, eta, want_columns=True,
                                                     reject_above=delta_bound)
    if not complete:
        return None, worst
    return _finish_build(geom, eta, sizes, columns), worst


@dataclass(frozen=True)
class EtaScanPoint:
    eta: float
    delta_matching: float
    complete: bool


def scan_quasigroup_deltas(net: NetFamily, etas,
                           reject_above: float | None = None) -> list[EtaScanPoint]:
    """Matching-derived deficiency per eta, without building tables.

    With ``reject_above`` set, a scan point stops early once some label's
    deficiency already exceeds the threshold; the point is then marked
    incomplete and its delta is a lower bound (still above the threshold).
    """
    geom = FamilyGeometry(net)
    points = []
    for eta in etas:
        _, _, worst, complete = _matching_pass(geom, float(eta), want_columns=False,
                                               reject_above=reject_above)
        points.append(EtaScanPoint(eta=float(eta), delta_matching=worst, complete=complete))
    return points
