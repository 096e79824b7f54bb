"""Dense statevector simulation over named registers, plus norm and SU(2) quaternion helpers.

States live on a :class:`RegisterLayout`, an ordered list of named registers of
arbitrary dimension.  Amplitudes are stored flat in row-major register order,
so the basis index of the joint ket ``|i_0, i_1, ...>`` is obtained by mixed
radix encoding with the first register most significant.  Gates are applied on
any subset of registers with identity elsewhere; measurements enumerate every
outcome branch exactly instead of sampling.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

ZERO_TOL = 1e-10
BRANCH_PROB_FLOOR = 1e-12


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a matrix."""
    m = np.asarray(matrix, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., n, n) stack.

    Batched LAPACK keeps full precision; closed-form 2x2 shortcuts lose half
    the digits exactly when the two singular values coincide, which is the
    generic case for differences of special unitaries.
    """
    stack = np.asarray(stack, dtype=complex)
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def unitarity_residuals(stack: np.ndarray) -> np.ndarray:
    """||M^dag M - I||_inf of a square matrix, or of each matrix of a (..., n, n) stack.

    The one unitarity measure of the package: a matrix is unitary when its
    residual is at most ``ZERO_TOL``.
    """
    m = np.asarray(stack, dtype=complex)
    return operator_norms(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1]))


def is_unitary(matrix: np.ndarray) -> bool:
    """Whether a matrix, or every matrix of a (..., n, n) stack, is unitary within ``ZERO_TOL``."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    return m.size == 0 or bool(np.all(unitarity_residuals(m) <= ZERO_TOL))


def su2_quaternions(stack: np.ndarray, tol: float = 1e-9) -> np.ndarray | None:
    """Unit-quaternion coordinates of a stack of SU(2) matrices, or None.

    Marginally non-special or non-2x2 stacks return None and callers fall back
    to dense norms.  For valid stacks, |q(A) - q(B)| equals ||A - B||_inf.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (2, 2):
        return None
    det = stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]
    if np.max(np.abs(det - 1.0)) > tol:
        return None
    herm = np.abs(stack[:, 1, 0] + stack[:, 0, 1].conj())
    if herm.max() > tol or np.max(np.abs(stack[:, 1, 1] - stack[:, 0, 0].conj())) > tol:
        return None
    return np.stack([stack[:, 0, 0].real, stack[:, 0, 1].imag,
                     stack[:, 0, 1].real, stack[:, 0, 0].imag], axis=1)


def quaternion_product(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Quaternion coordinates of the matrix product, batched over leading axes."""
    w1, x1, y1, z1 = (q1[..., i] for i in range(4))
    w2, x2, y2, z2 = (q2[..., i] for i in range(4))
    out = np.empty(np.broadcast_shapes(q1.shape, q2.shape), dtype=np.float64)
    out[..., 0] = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    out[..., 1] = w1 * x2 + x1 * w2 + z1 * y2 - y1 * z2
    out[..., 2] = w1 * y2 + y1 * w2 + x1 * z2 - z1 * x2
    out[..., 3] = w1 * z2 + z1 * w2 - x1 * y2 + y1 * x2
    return out


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; total dimension is the product of the parts."""

    names: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.dims):
            raise DimensionMismatch("layout names and dims differ in length")
        if len(set(self.names)) != len(self.names):
            raise DimensionMismatch(f"duplicate register names in {self.names}")
        if any(d < 1 for d in self.dims):
            raise DimensionMismatch(f"register dimensions must be >= 1, got {self.dims}")

    @classmethod
    def of(cls, *pairs: tuple[str, int]) -> "RegisterLayout":
        return cls(tuple(str(n) for n, _ in pairs), tuple(int(d) for _, d in pairs))

    @property
    def dim(self) -> int:
        return int(math.prod(self.dims))

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DimensionMismatch(f"no register named {name!r} in {self.names}") from None

    def dim_of(self, name: str) -> int:
        return self.dims[self.axis(name)]

    def without(self, names) -> "RegisterLayout":
        drop = set(names)
        keep = [(n, d) for n, d in zip(self.names, self.dims) if n not in drop]
        return RegisterLayout(tuple(n for n, _ in keep), tuple(d for _, d in keep))

    def extended(self, *pairs: tuple[str, int]) -> "RegisterLayout":
        return RegisterLayout(self.names + tuple(n for n, _ in pairs),
                              self.dims + tuple(int(d) for _, d in pairs))


@dataclass(frozen=True)
class PureState:
    """Normalized pure state on a layout; set ``normalized=False`` for raw intermediates."""

    layout: RegisterLayout
    amps: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        object.__setattr__(self, "amps", amps)
        if amps.size != self.layout.dim:
            raise DimensionMismatch(
                f"amplitude vector of length {amps.size} does not fit layout of dim {self.layout.dim}")
        if self.normalized:
            norm = math.sqrt(np.vdot(amps, amps).real)
            if abs(norm - 1.0) > ZERO_TOL:
                raise DimensionMismatch(f"state norm {norm:.3e} is not 1 within {ZERO_TOL}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tensor(self) -> np.ndarray:
        return self.amps.reshape(self.layout.dims)

    def distance(self, other: "PureState") -> float:
        """Euclidean distance between amplitude vectors, no phase alignment."""
        return float(np.linalg.norm(self.amps - other.amps))


def basis_state(layout: RegisterLayout, indices: dict[str, int]) -> PureState:
    """Computational basis ket with the given index on each register."""
    idx = 0
    for name, d in zip(layout.names, layout.dims):
        k = int(indices.get(name, 0))
        if not 0 <= k < d:
            raise DimensionMismatch(f"index {k} out of range for register {name} of dim {d}")
        idx = idx * d + k
    amps = np.zeros(layout.dim, dtype=complex)
    amps[idx] = 1.0
    return PureState(layout, amps)


def product_state(*parts: PureState) -> PureState:
    """Tensor product of states on disjoint layouts, in the given order."""
    layout = parts[0].layout
    amps = parts[0].amps
    for p in parts[1:]:
        layout = layout.extended(*zip(p.layout.names, p.layout.dims))
        amps = np.kron(amps, p.amps)
    return PureState(layout, amps, normalized=all(p.normalized for p in parts))


def maximally_entangled(n: int, names: tuple[str, str] = ("a", "b")) -> PureState:
    """Rank-n maximally entangled pair of n-dimensional registers."""
    if n < 1:
        raise DimensionMismatch(f"Schmidt rank must be >= 1, got {n}")
    layout = RegisterLayout.of((names[0], n), (names[1], n))
    amps = np.zeros((n, n), dtype=complex)
    amps[np.arange(n), np.arange(n)] = 1.0 / math.sqrt(n)
    return PureState(layout, amps.reshape(-1))


def _move_axes(tensor: np.ndarray, source, destination) -> np.ndarray:
    """``np.moveaxis(tensor, source, destination)``, or ``tensor`` itself when no axis moves.

    Gates, measurements and traces bring their registers to the front with it
    and put them back with it; the protocol runs' (control, target) lead
    their layouts already, so those calls move nothing.
    """
    source, destination = list(source), list(destination)
    return tensor if source == destination else np.moveaxis(tensor, source, destination)


def apply_controlled(state: PureState, blocks: np.ndarray, controls, targets) -> PureState:
    """Apply ``blocks[c]`` on ``targets`` wherever the joint ``controls`` register reads c.

    ``blocks`` has shape ``(dc, dt, dt)`` with dc and dt the joint dimensions
    of the control and target registers (each in the given order).  The gate
    is the block diagonal ``controlled_gate`` would build, applied as one
    batched matmul without forming that dense matrix.
    """
    controls = [controls] if isinstance(controls, str) else list(controls)
    targets = [targets] if isinstance(targets, str) else list(targets)
    if set(controls) & set(targets):
        raise DimensionMismatch(f"registers {controls} are both control and target")
    layout = state.layout
    axes = [layout.axis(r) for r in controls + targets]
    dc = math.prod(layout.dim_of(r) for r in controls)
    dt = math.prod(layout.dim_of(r) for r in targets)
    blocks = np.asarray(blocks, dtype=complex)
    if blocks.shape != (dc, dt, dt):
        raise DimensionMismatch(
            f"block stack shape {blocks.shape} does not fit controls {controls} of joint dim "
            f"{dc} and targets {targets} of joint dim {dt}")
    front = range(len(axes))
    t = _move_axes(state.tensor(), axes, front)
    out = (blocks @ t.reshape(dc, dt, -1)).reshape(t.shape)
    return PureState(layout, _move_axes(out, front, axes).reshape(-1), normalized=state.normalized)


def apply_on(state: PureState, gate: np.ndarray, registers) -> PureState:
    """Apply a gate on the named registers (in the given order), identity elsewhere."""
    return apply_controlled(state, np.asarray(gate, dtype=complex)[None], (), registers)


def apply_on_rows(rows: np.ndarray, layout: RegisterLayout, gates: np.ndarray,
                  registers) -> np.ndarray:
    """Apply gates on the named registers of every row of a (B, layout.dim) amplitude stack.

    ``gates`` is one gate for all rows or a (B, d, d) stack with one gate per
    row, d the joint dimension of ``registers`` in the given order.  A single
    row against a gate stack gives one row per gate.  Returns the new rows.
    """
    registers = [registers] if isinstance(registers, str) else list(registers)
    axes = [1 + layout.axis(r) for r in registers]
    front = range(1, 1 + len(axes))
    d = math.prod(layout.dim_of(r) for r in registers)
    t = _move_axes(np.asarray(rows, dtype=complex).reshape(-1, *layout.dims), axes, front)
    out = np.asarray(gates, dtype=complex) @ t.reshape(len(t), d, -1)
    out = _move_axes(out.reshape(len(out), *t.shape[1:]), front, axes)
    return out.reshape(len(out), -1)


def apply_map(state: PureState, matrix, registers, ancillas: RegisterLayout) -> PureState:
    """Apply a linear map from the named registers into (registers, ancillas), identity elsewhere.

    ``matrix`` (dense or scipy sparse) has shape (d * ancillas.dim, d), d the
    joint dimension of ``registers`` in the given order; its rows run over
    (registers, ancillas) in row-major order.  The result lives on the
    state's layout extended by ``ancillas``: every other register passes
    through in its own place.
    """
    registers = [registers] if isinstance(registers, str) else list(registers)
    layout = state.layout
    axes = [layout.axis(r) for r in registers]
    front = range(len(axes))
    t = _move_axes(state.tensor(), axes, front)
    d = math.prod(t.shape[:len(axes)])
    if matrix.shape != (d * ancillas.dim, d):
        raise DimensionMismatch(
            f"map of shape {matrix.shape} does not take registers {registers} of joint dim {d} "
            f"to them and ancillas of dim {ancillas.dim}")
    out = (matrix @ t.reshape(d, -1)).reshape(d, ancillas.dim, -1).swapaxes(1, 2)
    out = _move_axes(out.reshape(*t.shape, ancillas.dim), front, axes)
    return PureState(layout.extended(*zip(ancillas.names, ancillas.dims)), out.reshape(-1),
                     normalized=state.normalized)


def controlled_gate(control_dim: int, targets: dict[int, np.ndarray],
                    target_dim: int) -> np.ndarray:
    """Block-diagonal gate applying ``targets[c]`` when the control register is ``|c>``.

    Controls without an entry act as identity on the target.
    """
    out = np.zeros((control_dim * target_dim, control_dim * target_dim), dtype=complex)
    eye = np.eye(target_dim, dtype=complex)
    for c in range(control_dim):
        block = np.asarray(targets.get(c, eye), dtype=complex)
        if block.shape != (target_dim, target_dim):
            raise DimensionMismatch(
                f"controlled block for c={c} has shape {block.shape}, expected {(target_dim,)*2}")
        out[c * target_dim:(c + 1) * target_dim, c * target_dim:(c + 1) * target_dim] = block
    return out


def fourier_gate(n: int) -> np.ndarray:
    """Discrete Fourier transform with entries exp(2*pi*i*m*j/n)/sqrt(n)."""
    idx = np.arange(n)
    # integer products reduced mod n before exponentiating; phases are 2*pi periodic
    return np.exp(2j * np.pi * (np.outer(idx, idx) % n) / n) / math.sqrt(n)


def shift_gate(n: int, step: int = 1) -> np.ndarray:
    """Cyclic shift mapping ``|j>`` to ``|j - step mod n>``."""
    out = np.zeros((n, n), dtype=complex)
    out[(np.arange(n) - step) % n, np.arange(n)] = 1.0
    return out


@dataclass(frozen=True, eq=False)
class Branches(Sequence):
    """Every kept branch of one measurement, as arrays.

    Row i holds the outcome of each measured register (``outcomes[i]``, in
    ``registers`` order), its probability and its normalised post state on
    ``layout``, the measured registers removed.  All rows pass one batched
    norm check here.  Indexing and iteration give ``(*outcomes, probability,
    PureState)`` tuples, built when accessed.
    """

    registers: tuple[str, ...]
    outcomes: np.ndarray          # (B, len(registers)) int
    probabilities: np.ndarray     # (B,)
    posts: np.ndarray             # (B, layout.dim), unit rows
    layout: RegisterLayout

    def __post_init__(self):
        if self.posts.shape != (len(self.probabilities), self.layout.dim):
            raise DimensionMismatch(
                f"post states of shape {self.posts.shape} do not fit {len(self.probabilities)} "
                f"branches on a layout of dim {self.layout.dim}")
        # |z|^2 = re^2 + im^2 along each row's float64 view (a copy only for strided posts)
        pairs = np.ascontiguousarray(self.posts, dtype=complex).view(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", pairs, pairs))
        worst = float(np.abs(norms - 1.0).max(initial=0.0))
        if worst > ZERO_TOL:
            raise DimensionMismatch(f"a post state norm is off 1 by {worst:.3e}, above {ZERO_TOL}")

    def __len__(self) -> int:
        return len(self.probabilities)

    def __getitem__(self, i):
        rows = range(len(self))[i]      # negative indices, slices and IndexError as for a list
        if isinstance(rows, range):
            return [self[j] for j in rows]
        return (*self.outcomes[rows].tolist(), float(self.probabilities[rows]), self.state(rows))

    def state(self, i: int) -> PureState:
        """Post state of branch i; its norm was checked with the whole batch."""
        state = object.__new__(PureState)
        object.__setattr__(state, "layout", self.layout)
        object.__setattr__(state, "amps", self.posts[i])
        object.__setattr__(state, "normalized", True)
        return state


def measure_registers(state: PureState, registers) -> Branches:
    """Measure the named registers in the computational basis, enumerating all branches.

    Branches with probability below ``BRANCH_PROB_FLOOR`` are dropped.  Post states
    live on the layout with the measured registers removed.

    Row i of the state, with the measured registers in front, becomes post i
    in place: the copy that moving them made is the post-state array when
    every branch is kept, and otherwise the kept rows are gathered once; the
    input state is never written.  Each row is scaled by 1 / sqrt(p) on its
    float64 view, which is how numpy divides a complex row by a real number,
    so the posts equal ``row / sqrt(p)`` (``np.array_equal``).
    """
    registers = [registers] if isinstance(registers, str) else list(registers)
    layout = state.layout
    axes = [layout.axis(r) for r in registers]
    dims = [layout.dims[a] for a in axes]
    posts = _move_axes(state.tensor(), axes, range(len(axes))).reshape(math.prod(dims), -1)
    weights = np.abs(posts)
    probs = np.square(weights, out=weights).sum(axis=1)
    total = float(probs.sum())
    if abs(total - 1.0) > ZERO_TOL:
        raise DimensionMismatch(f"measurement on non-normalized state, total prob {total:.3e}")
    kept = np.flatnonzero(probs > BRANCH_PROB_FLOOR)
    if len(kept) < len(probs) or np.may_share_memory(posts, state.amps):
        posts = posts[kept]
    probs = probs[kept]
    pairs = posts.view(np.float64)
    pairs *= (1.0 / np.sqrt(probs))[:, None]
    return Branches(tuple(registers), np.stack(np.unravel_index(kept, dims), axis=1),
                    probs, posts, layout.without(registers))


def partial_trace(state: PureState, keep) -> np.ndarray:
    """Density matrix on the named registers after tracing out everything else."""
    keep = [keep] if isinstance(keep, str) else list(keep)
    layout = state.layout
    axes = [layout.axis(r) for r in keep]
    dk = math.prod(layout.dims[a] for a in axes)
    t = _move_axes(state.tensor(), axes, range(len(axes))).reshape(dk, -1)
    return t @ t.conj().T


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def haar_special_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary rescaled to determinant one."""
    u = haar_unitary(d, rng)
    det = np.linalg.det(u)
    return u * np.exp(-1j * np.angle(det) / d)


def random_pure_state(layout: RegisterLayout, rng: np.random.Generator) -> PureState:
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return PureState(layout, amps / np.linalg.norm(amps))
