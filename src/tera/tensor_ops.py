"""Dense multilinear algebra on numpy arrays.

Tensors are plain :class:`numpy.ndarray` objects in C (row-major) order, so
the first index is always the most significant one. Folding a matrix into a
higher-order tensor and unfolding it back are pure reshapes under this
convention, and the Kronecker product ``numpy.kron`` linearizes multi-indices
the same way (left factor most significant). Keeping a single linearization
convention everywhere is what makes the factored identities in this package
hold without any hidden transpositions.

The split-``k`` unfolding used throughout maps an order-``N`` tensor with mode
sizes ``(I_1, ..., I_N)`` to a matrix with ``I_1 * ... * I_k`` rows and
``I_{k+1} * ... * I_N`` columns; :class:`TensorizationScheme` records the mode
sizes, the split point, and an optional per-mode rank vector, and
:func:`parse_scheme`/:func:`format_scheme` are its text form (``a,b|c,d``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np


def _as_tuple(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class TensorizationScheme:
    """Fold/unfold contract for one matrix: mode sizes, split point, ranks.

    ``mode_sizes`` are the tensor dimensions ``(I_1, ..., I_N)``; ``split`` is
    the number of leading modes that form the matrix rows (``1 <= split < N``);
    ``ranks`` bound the per-mode factor sizes and default to the mode sizes
    themselves (the full-rank setting).
    """

    mode_sizes: tuple[int, ...]
    split: int
    ranks: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "mode_sizes", _as_tuple(self.mode_sizes))
        if self.ranks is None:
            object.__setattr__(self, "ranks", self.mode_sizes)
        else:
            object.__setattr__(self, "ranks", _as_tuple(self.ranks))
        n = len(self.mode_sizes)
        if n < 2:
            raise ValueError("a scheme needs at least two modes")
        if any(s < 2 for s in self.mode_sizes):
            raise ValueError(f"every mode size must be >= 2, got {self.mode_sizes}")
        if not 1 <= self.split < n:
            raise ValueError(f"split must satisfy 1 <= split < {n}, got {self.split}")
        if len(self.ranks) != n:
            raise ValueError("ranks must have one entry per mode")
        if any(not 1 <= r <= s for r, s in zip(self.ranks, self.mode_sizes)):
            raise ValueError(
                f"each rank must satisfy 1 <= R_i <= I_i, got ranks={self.ranks} "
                f"for modes={self.mode_sizes}"
            )

    @property
    def order(self) -> int:
        return len(self.mode_sizes)

    @property
    def rows(self) -> int:
        """Row count of the unfolded matrix."""
        return math.prod(self.mode_sizes[: self.split])

    @property
    def cols(self) -> int:
        return math.prod(self.mode_sizes[self.split :])

    @property
    def rank_rows(self) -> int:
        """Product of the ranks on the row side of the split."""
        return math.prod(self.ranks[: self.split])

    @property
    def rank_cols(self) -> int:
        return math.prod(self.ranks[self.split :])

    @property
    def full_rank(self) -> bool:
        return self.ranks == self.mode_sizes

    def num_trainable(self) -> int:
        """Trainable parameters of the adapter this scheme describes: sum of ranks."""
        return sum(self.ranks)

    def to_dict(self) -> dict:
        """JSON form, as stored in checkpoints and echoed into reports."""
        return {
            "mode_sizes": list(self.mode_sizes),
            "split": self.split,
            "ranks": list(self.ranks),
        }

    @classmethod
    def from_dict(cls, doc) -> "TensorizationScheme":
        """Inverse of :meth:`to_dict`; ValueError on anything else."""
        try:
            sizes, split, ranks = doc["mode_sizes"], doc["split"], doc["ranks"]
            ok = all(type(v) is int for v in [split, *sizes, *ranks])
        except (KeyError, TypeError):
            ok = False
        if not ok:
            raise ValueError(f"need integer mode_sizes, split and ranks, got {doc!r:.80}")
        return cls(tuple(sizes), split, tuple(ranks))

    def matches(self, j1: int, j2: int) -> bool:
        return self.rows == j1 and self.cols == j2

    @staticmethod
    def one_sided(j1: int, j2: int, mode_size: int) -> "TensorizationScheme":
        """Keep the row dimension as a single mode, factor the column dimension
        into equal modes of the given size."""
        return TensorizationScheme((j1, *equal_modes(j2, mode_size)), split=1)

    @staticmethod
    def two_sided(j1: int, j2: int, mode_size: int) -> "TensorizationScheme":
        """Factor both dimensions into equal modes of the given size."""
        left = equal_modes(j1, mode_size)
        return TensorizationScheme(left + equal_modes(j2, mode_size), split=len(left))


# The text forms of shapes and schemes, as the `tera` command and its config
# files write them. Each parser raises ValueError naming the bad text.


def parse_shape(text: str) -> tuple[int, int]:
    """``"64x64"`` -> ``(64, 64)``; both dimensions at least 2."""
    try:
        j1, j2 = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"bad shape {text!r}; expected like 64x64") from None
    if j1 < 2 or j2 < 2:
        raise ValueError(f"shape dimensions must be >= 2, got {text!r}")
    return j1, j2


def _expand_group(group, spec):
    # "64,2^3,8" -> [64, 2, 2, 2, 8]
    sizes = []
    for token in group.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty mode token in scheme {spec!r}")
        if "^" in token:
            base_s, _, count_s = token.partition("^")
            try:
                base, count = int(base_s), int(count_s)
            except ValueError:
                raise ValueError(f"bad mode token {token!r} in {spec!r}") from None
            if count < 1:
                raise ValueError(f"bad repeat count in {token!r}")
            sizes.extend([base] * count)
        else:
            try:
                sizes.append(int(token))
            except ValueError:
                raise ValueError(f"bad mode token {token!r} in {spec!r}") from None
    return sizes


def parse_scheme(spec: str, split: int | None = None) -> TensorizationScheme:
    """A full-rank scheme from its text form: mode sizes left and right of the
    split as ``a,b|c,d``, ``n^m`` for m equal modes (``64|4^3`` is one-sided).
    A bare group like ``2^24`` has no ``|`` and needs ``split``."""
    if "|" in spec:
        left_s, _, right_s = spec.partition("|")
        left = _expand_group(left_s, spec)
        mode_sizes = left + _expand_group(right_s, spec)
        split = len(left)
    else:
        mode_sizes = _expand_group(spec, spec)
        if split is None:
            raise ValueError(f"scheme {spec!r} has no '|'; pass --split as well")
    try:
        return TensorizationScheme(tuple(mode_sizes), split=split)
    except ValueError as exc:
        raise ValueError(f"invalid scheme {spec!r}: {exc}") from None


def format_scheme(scheme: TensorizationScheme) -> str:
    """Inverse of :func:`parse_scheme` on full-rank schemes: ``a,b|c,d``."""
    left = ",".join(str(m) for m in scheme.mode_sizes[: scheme.split])
    right = ",".join(str(m) for m in scheme.mode_sizes[scheme.split :])
    return f"{left}|{right}"


def equal_modes(dim: int, mode_size: int) -> tuple[int, ...]:
    """Factor ``dim`` into equal modes of size ``mode_size``.

    Raises ValueError when ``dim`` is not a perfect power of ``mode_size``.
    """
    if mode_size < 2:
        raise ValueError("mode_size must be >= 2")
    count = 0
    remaining = dim
    while remaining > 1 and remaining % mode_size == 0:
        remaining //= mode_size
        count += 1
    if remaining != 1:
        raise ValueError(f"{dim} is not a perfect power of {mode_size}")
    return (mode_size,) * count


def unfold(tensor: np.ndarray, split: int) -> np.ndarray:
    """Flatten an order-N tensor into a matrix by splitting modes at ``split``.

    The first ``split`` modes become the rows, the rest the columns, with
    row-major multi-index linearization on both sides. A pure reshape.
    """
    if not 1 <= split < tensor.ndim:
        raise ValueError(f"split must satisfy 1 <= split < {tensor.ndim}, got {split}")
    rows = math.prod(tensor.shape[:split])
    return np.reshape(tensor, (rows, -1))


def fold(matrix: np.ndarray, scheme: TensorizationScheme) -> np.ndarray:
    """Reshape a matrix into the order-N tensor described by ``scheme``.

    Inverse of :func:`unfold` at the same split.
    """
    matrix = np.asarray(matrix)
    if matrix.shape != (scheme.rows, scheme.cols):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match scheme "
            f"({scheme.rows} x {scheme.cols} from modes {scheme.mode_sizes}, "
            f"split {scheme.split})"
        )
    return np.reshape(matrix, scheme.mode_sizes)


def mode_n_product(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Contract mode ``mode`` of ``tensor`` with the columns of ``matrix``.

    ``matrix`` has shape ``(J, I_mode)``; the output replaces mode size
    ``I_mode`` with ``J`` and leaves all other modes unchanged:
    ``out[..., j, ...] = sum_i tensor[..., i, ...] * matrix[j, i]``.

    Checks its input (a negative ``mode`` counts from the end), then runs
    ``_mode_product``, the one kernel, which callers inside the package with
    shapes known to match call directly.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("mode-n product expects a 2-D matrix")
    shape = tensor.shape
    if matrix.shape[1] != shape[mode]:
        raise ValueError(
            f"matrix has {matrix.shape[1]} columns but mode {mode} has size "
            f"{shape[mode]}"
        )
    return _mode_product(tensor, matrix, range(len(shape))[mode])


def _mode_product(tensor, matrix, mode):
    """``mode_n_product`` without its checks, for a 2-D ``matrix`` whose
    columns match a non-negative ``mode``: one ``np.matmul`` of ``matrix``
    with the ``(before, I_mode, after)`` view of the tensor, or one GEMM
    when the mode is the last one; the output is C-contiguous."""
    shape = tensor.shape
    before, after = math.prod(shape[:mode]), math.prod(shape[mode + 1 :])
    if after == 1:
        out = tensor.reshape(before, shape[mode]) @ matrix.T
    else:
        out = np.matmul(matrix, tensor.reshape(before, shape[mode], after))
    return out.reshape(shape[:mode] + (matrix.shape[0],) + shape[mode + 1 :])


def kron_chain(matrices) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right.

    The left factor is most significant, ``kron_chain([a, b])[i*rows(b)+j,
    p*cols(b)+q] = a[i,p] * b[j,q]``, matching the row-major multi-index
    linearization used by :func:`unfold`.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("kron_chain needs at least one matrix")
    return reduce(np.kron, matrices)


def frobenius_norm(tensor: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(np.ravel(tensor)))


def pseudoinverse(matrix: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse, truncating singular values below
    1e-12 times the largest one."""
    return np.linalg.pinv(np.asarray(matrix, dtype=float), rcond=1e-12)


def numerical_rank(matrix: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Count of singular values above ``rel_tol`` times the largest one.

    The tolerance is relative, so the result is invariant under scaling the
    input by any nonzero constant. A zero matrix has rank 0.
    """
    return _spectrum_rank(np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False),
                          rel_tol)


def _spectrum_rank(s, rel_tol):
    # numerical_rank's rule on singular values sorted in descending order
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie strictly between 0 and 1")
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


class SpectralNormEstimate(NamedTuple):
    value: float
    converged: bool


def tensor_spectral_norm(
    tensor: np.ndarray,
    restarts: int = 16,
    tol: float = 1e-10,
    max_iters: int = 500,
    seed: int = 0,
) -> SpectralNormEstimate:
    """Best rank-1 approximation value, estimated by higher-order power iteration.

    Runs ``restarts`` power iterations from random unit-vector initializations
    and returns the largest multilinear value found. The estimate is a lower
    bound on the true spectral norm (the maximizer may be missed), which is
    the conservative direction for the expressivity-bound verifier that
    consumes it. ``converged`` is False when no restart stabilized within
    ``max_iters`` sweeps; the best iterate is still returned.

    The restarts run on the tensor over ``2**e``, the power of two just
    above its largest magnitude, so no contraction overflows and the value
    scales back exactly. They run in lockstep, as Gauss-Seidel sweeps over
    the modes: each mode's vectors are one ``(restarts, size)`` array over
    the restarts still iterating. A sweep first forms, from the vectors it
    starts with, every mode's suffix: the outer product of the later modes'
    vectors. Mode 0's update is one GEMM of the suffixes against the
    tensor's mode-0 unfolding, which all restarts share; its new vectors
    then contract that unfolding into a per-restart prefix. Each later
    mode's update is one batched matvec of the prefix against that mode's
    suffix, and the prefix then absorbs the new vectors with one batched
    vecmat. A restart leaves the arrays at the end of a sweep once its value
    stabilizes (change at most ``tol`` times the value). No sweep lowers a
    value, so only the first mode-0 update can land on a zero slice; that
    restart keeps zero vectors and leaves with value 0. Non-finite input
    raises ``ValueError``.

    For an order-2 tensor this reduces to power iteration for the largest
    singular value.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    tensor = np.asarray(tensor, dtype=float)
    if not np.isfinite(tensor).all():
        raise ValueError("tensor holds non-finite values")
    shape, order = tensor.shape, tensor.ndim
    exponent = math.frexp(float(np.abs(tensor).max(initial=0.0)))[1]
    tensor = np.ldexp(tensor, -exponent)
    unfolded = tensor.reshape(shape[0], math.prod(shape[1:]))
    rng = np.random.default_rng(seed)
    # one draw in the order of a restart-by-restart, mode-by-mode loop
    vectors = np.split(rng.standard_normal((restarts, sum(shape))),
                       np.cumsum(shape)[:-1], axis=1)
    values = np.zeros(restarts)
    converged = np.zeros(restarts, dtype=bool)
    started = np.ones(restarts, dtype=bool)
    for i, v in enumerate(vectors):
        norms = np.linalg.norm(v, axis=1)
        started &= norms > 0.0  # a zero start contributes nothing
        vectors[i] = v / np.where(norms > 0.0, norms, 1.0)[:, None]
    active = np.flatnonzero(started)
    vectors = [v[active] for v in vectors]
    value = np.zeros(active.size)  # each active restart's value after its last sweep

    for _ in range(max_iters):
        if active.size == 0:
            break
        # suffixes[m]: the outer product of the vectors of the modes after m
        suffixes = [vectors[-1]]
        for v in vectors[-2:0:-1]:
            suffixes.append((v[:, :, None] * suffixes[-1][:, None, :]).reshape(active.size, -1))
        suffixes.reverse()
        for mode in range(order):
            if mode == order - 1:
                w = prefix if mode else np.broadcast_to(tensor, (active.size, shape[0]))
            elif mode == 0:
                w = suffixes[0] @ unfolded.T
            else:
                prefix = prefix.reshape(active.size, shape[mode], -1)
                w = (prefix @ suffixes[mode][:, :, None])[..., 0]
            norms = np.sqrt(np.add.reduce(w * w, axis=1))
            zero_slice = np.count_nonzero(norms) < active.size
            v = vectors[mode] = w / (np.where(norms > 0.0, norms, 1.0) if zero_slice
                                     else norms)[:, None]
            if mode == 0 and order > 1:
                prefix = v @ unfolded
            elif mode < order - 1:
                prefix = (v[:, None, :] @ prefix)[:, 0]
        settled = np.abs(norms - value) <= tol * norms
        value = norms
        if np.count_nonzero(settled):
            values[active[settled]] = value[settled]
            converged[active[settled]] = True
            active, value = active[~settled], value[~settled]
            vectors = [v[~settled] for v in vectors]
    values[active] = value
    # converged if any restart that reached the largest value converged
    best = max(0.0, float(values.max()))
    return SpectralNormEstimate(math.ldexp(best, exponent),
                                bool(converged[values == best].any()))
