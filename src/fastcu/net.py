"""Word-built families of special unitaries that approximate all of SU(d).

The base alphabet is a fixed triple of SU(2) matrices (plus inverses) whose
products equidistribute rapidly.  For d > 2 the family is assembled from
two-level blocks embedded on adjacent coordinate pairs.

Slot convention
---------------
A d-dimensional element is a product of r = d(d-1)/2 embedded SU(2) blocks.
Block position ``p`` means coordinates (p, p+1), 0-indexed.  The slot order is
the Givens elimination sequence

    for column c = 0 .. d-2:  positions d-2, d-3, ..., c

read left to right in the matrix product.  This is the same sequence the
two-level decomposition emits, so replacing each factor of a decomposition by
a word gives an element of the enumerated family.  (The naive "row by
row" slot order cannot reach all of SU(d) for d >= 3: the product of a block
on (0,1) followed by blocks on (1,2) always has a vanishing corner entry.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NetTooLarge, NotSpecial, NotUnitary
from .qsim import ZERO_TOL, operator_norm, operator_norms, su2_quaternions, unitarity_residuals

MIXING_RATE = math.sqrt(5.0) / 3.0
DEFAULT_CAP = 50_000
SPECIAL_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-9

_V1 = np.array([[1, 2j], [2j, 1]], dtype=complex) / math.sqrt(5.0)
_V2 = np.array([[1, 2], [-2, 1]], dtype=complex) / math.sqrt(5.0)
_V3 = np.array([[1 + 2j, 0], [0, 1 - 2j]], dtype=complex) / math.sqrt(5.0)
_ALPHABET = (_V1, _V2, _V3, _V1.conj().T, _V2.conj().T, _V3.conj().T)


def embed_block(block: np.ndarray, position: int, d: int) -> np.ndarray:
    """Identity matrix of size d with ``block`` on coordinates (position, position+1)."""
    if not 0 <= position <= d - 2:
        raise DimensionMismatch(f"block position {position} out of range for dim {d}")
    out = np.eye(d, dtype=complex)
    out[position:position + 2, position:position + 2] = block
    return out


def base_generators(d: int) -> list[np.ndarray]:
    """Generator set: the three SU(2) matrices, embedded at every adjacent pair for d > 2."""
    if d < 2:
        raise DimensionMismatch(f"need d >= 2, got {d}")
    if d == 2:
        return [v.copy() for v in _ALPHABET[:3]]
    return [embed_block(v, pos, d) for pos in range(d - 1) for v in _ALPHABET[:3]]


def slot_pattern(d: int) -> tuple[int, ...]:
    """Block positions of the r = d(d-1)/2 slots, in matrix-product order."""
    return tuple(pos for c in range(d - 1) for pos in range(d - 2, c - 1, -1))


def enumerate_words(m: int) -> np.ndarray:
    """Products of all (2*3)^m length-m words over V1 V2 V3 then their inverses;
    the word index grows with the last factor varying fastest."""
    if m < 1:
        raise DimensionMismatch(f"word length must be >= 1, got {m}")
    stack = np.stack(_ALPHABET)
    mats = np.eye(2, dtype=complex)[None]
    for _ in range(m):
        mats = np.einsum("wab,fbc->wfac", mats, stack).reshape(-1, 2, 2)
    return mats


def _matrix_keys(mats: np.ndarray) -> list[bytes]:
    """One key per matrix: its entries rounded to 9 decimals, with -0.0 made 0.0."""
    rounded = np.round(mats, 9) + 0.0
    return [row.tobytes() for row in rounded.reshape(len(mats), -1)]


@dataclass(frozen=True, eq=False)
class NetFamily:
    """Labeled family of special unitaries; labels equal to 9 decimals are one element.

    They share a class, numbered by first appearance, and carry its first matrix bitwise.
    A word-built family has its degree ``m``; (d, m) alone determines it."""

    d: int
    matrices: np.ndarray
    m: int | None = None
    classes: np.ndarray = field(init=False, repr=False)
    n_classes: int = field(init=False, repr=False)
    _class_of_key: dict[bytes, int] = field(init=False, repr=False)

    def __post_init__(self):
        res = unitarity_residuals(self.matrices)
        if res.max() > ZERO_TOL:
            raise NotUnitary(f"element {int(res.argmax())} is not unitary")
        index: dict[bytes, int] = {}
        classes = np.array([index.setdefault(key, len(index))
                            for key in _matrix_keys(self.matrices)], dtype=np.int64)
        first = np.unique(classes, return_index=True)[1]
        matrices = self.matrices[first[classes]]
        # read-only, so that nothing derived from the family (its geometry) goes stale
        for a in (matrices, classes):
            a.setflags(write=False)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "n_classes", len(index))
        object.__setattr__(self, "_class_of_key", index)

    def class_map(self, images: np.ndarray) -> np.ndarray | None:
        """Class of each class's image, if the images permute the classes with their sizes."""
        out = np.array([self._class_of_key.get(key, -1) for key in _matrix_keys(images)],
                       dtype=np.int64)
        counts = np.bincount(self.classes)
        if (out < 0).any() or not np.array_equal(counts[out], counts):
            return None
        return out

    @property
    def size(self) -> int:
        return self.matrices.shape[0]

    def matrix(self, label: int) -> np.ndarray:
        return self.matrices[label]

    @property
    def is_word_built(self) -> bool:
        return self.m is not None

    @property
    def mixing_bound(self) -> float | None:
        return None if self.m is None else mixing_bound(self.d, self.m)

    @classmethod
    def from_unitaries(cls, matrices, d: int | None = None) -> "NetFamily":
        """One label per unitary; matrices equal to 9 decimals become one element,
        and each of its labels carries the first one's matrix."""
        mats = np.asarray(matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise DimensionMismatch(f"expected a stack of square matrices, got {mats.shape}")
        if d is not None and mats.shape[1] != d:
            raise DimensionMismatch(f"matrices have dim {mats.shape[1]}, expected {d}")
        return cls(d=mats.shape[1], matrices=mats)


def net_size(d: int, m: int) -> int:
    """Exact size of the family with inverses included: 2 * 6^(m*d(d-1)/2)."""
    return 2 * 6 ** (m * d * (d - 1) // 2)


def mixing_bound(d: int, m: int) -> float:
    """Upper bound d(d-1)/2 * (sqrt(5)/3)^m on the equidistribution rate."""
    return (d * (d - 1) / 2) * MIXING_RATE ** m


def build_net(d: int, m: int, cap: int = DEFAULT_CAP) -> NetFamily:
    """Enumerate the full word-built family of degree m in dimension d.

    Every slot assignment is listed, followed by the inverse of every element;
    identical matrices under different labels stay distinct labels of one
    class, so the size is exactly ``net_size(d, m)``.
    """
    if d < 2 or m < 1:
        raise DimensionMismatch(f"need d >= 2 and m >= 1, got d={d}, m={m}")
    # 2 * 6^k > 2^k, so a k past the cap's bit length is over it without forming 6^k
    k = m * d * (d - 1) // 2
    if k > cap.bit_length() or net_size(d, m) > cap:
        raise NetTooLarge(f"family of size 2 * 6^{k} exceeds the cap {cap}")
    total = net_size(d, m)
    word_mats = enumerate_words(m)
    pattern = slot_pattern(d)
    half = total // 2
    mats = np.empty((total, d, d), dtype=complex)
    if d == 2:
        mats[:half] = word_mats
    else:
        for label, assignment in enumerate(itertools.product(range(len(word_mats)),
                                                             repeat=len(pattern))):
            out = np.eye(d, dtype=complex)
            for slot, w in zip(pattern, assignment):
                out = out @ embed_block(word_mats[w], slot, d)
            mats[label] = out
    mats[half:] = np.conj(np.transpose(mats[:half], (0, 2, 1)))
    return NetFamily(d=d, matrices=mats, m=m)


@dataclass(frozen=True, eq=False)
class TwoLevelFactor:
    """SU(2) block on coordinates (position, position+1) inside the identity."""

    position: int
    block: np.ndarray


@dataclass(frozen=True, eq=False)
class TwoLevelDecomposition:
    factors: tuple[TwoLevelFactor, ...]
    dim: int

    def product(self) -> np.ndarray:
        out = np.eye(self.dim, dtype=complex)
        for f in self.factors:
            out = out @ embed_block(f.block, f.position, self.dim)
        return out


def two_level_decompose(u: np.ndarray) -> TwoLevelDecomposition:
    """Split a special unitary into d(d-1)/2 adjacent two-level factors.

    Givens elimination clears each column from the bottom up; the factor order
    matches ``slot_pattern(d)`` so the result plugs directly into the word net.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {u.shape}")
    d = u.shape[0]
    if unitarity_residuals(u) > ZERO_TOL:
        raise NotUnitary("input is not unitary within tolerance")
    if abs(np.linalg.det(u) - 1.0) > SPECIAL_TOL:
        raise NotSpecial(f"determinant {np.linalg.det(u):.6f} is not 1")

    m = u.copy()
    rotations: list[TwoLevelFactor] = []
    for c in range(d - 1):
        for pos in range(d - 2, c - 1, -1):
            x, y = m[pos, c], m[pos + 1, c]
            nrm = math.hypot(abs(x), abs(y))
            if nrm < 1e-15:
                g = np.eye(2, dtype=complex)
            else:
                g = np.array([[np.conj(x), np.conj(y)], [-y, x]], dtype=complex) / nrm
            m[pos:pos + 2] = g @ m[pos:pos + 2]
            rotations.append(TwoLevelFactor(pos, g))
    # the eliminations reduce m to the identity; factors of u are their adjoints
    factors = tuple(TwoLevelFactor(rot.position, rot.block.conj().T) for rot in rotations)
    deco = TwoLevelDecomposition(factors=factors, dim=d)
    err = operator_norm(deco.product() - u)
    if err > RECONSTRUCTION_TOL:
        raise NotUnitary(f"decomposition failed to reconstruct the input (error {err:.2e})")
    return deco


@dataclass(frozen=True)
class NearestResult:
    label: int
    zeta: float


def _stack_distances(stack: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Operator-norm distance from u to every stack element.

    Special-unitary 2x2 stacks use exact quaternion coordinates, where the
    operator norm of a difference is the Euclidean distance.
    """
    if u.shape == (2, 2):
        qs = su2_quaternions(stack)
        qu = su2_quaternions(u[None])
        if qs is not None and qu is not None:
            return np.linalg.norm(qs - qu[0], axis=1)
    return operator_norms(stack - u[None])


def nearest_in_net(u: np.ndarray, net: NetFamily) -> NearestResult:
    """Closest family element to ``u`` in operator norm; ties go to the smallest label."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (net.d, net.d):
        raise DimensionMismatch(f"input of shape {u.shape} does not match net dim {net.d}")
    dists = _stack_distances(net.matrices, u)
    label = int(np.argmin(dists))
    return NearestResult(label=label, zeta=float(dists[label]))


def calibrated_worst_errors(max_m: int = 4, samples: int = 200,
                            seed: int = 20240917) -> dict[int, float]:
    """Worst-case sample error of the d=2 family per degree, from the calibration sweep."""
    from .qsim import haar_special_unitary

    rng = np.random.default_rng(seed)
    targets = [haar_special_unitary(2, rng) for _ in range(samples)]
    out = {}
    for m in range(1, max_m + 1):
        full = build_net(2, m).matrices
        out[m] = max(float(_stack_distances(full, t).min()) for t in targets)
    return out


@lru_cache(maxsize=None)
def _block_error_fit(samples: int = 200, max_m: int = 4, seed: int = 20240917) -> tuple[float, float]:
    """Fit log(1/zeta_worst) ~ alpha + beta*m over the calibration sweep."""
    worst = calibrated_worst_errors(max_m, samples, seed)
    beta, alpha = np.polyfit(list(worst), [math.log(1.0 / w) for w in worst.values()], 1)
    return float(alpha), float(beta)


def advisory_m(d: int, zeta: float) -> int:
    """Suggested word degree for a target approximation error; advisory only.

    The growth constants are calibrated empirically from a seeded sweep, never
    hardcoded, and callers re-measure the achieved error rather than trusting
    the suggestion.  Per-block budget is zeta divided by the d(d-1)/2 factors.
    """
    if not 0.0 < zeta < 1.0:
        raise DimensionMismatch(f"zeta must lie in (0, 1), got {zeta}")
    alpha, beta = _block_error_fit()
    r = d * (d - 1) / 2
    needed = (math.log(r / zeta) - alpha) / beta
    return max(1, math.ceil(needed))
