"""Adapter parameterizations for weight-update matrices.

Implements the tensor-network adapter (a frozen random Tucker-form network
scaled by trainable per-mode diagonal vectors) alongside the three baselines
it is measured against: plain low-rank (LoRA), frozen-pair low-rank with
trainable diagonals (VeRA), and Hadamard-masked low-rank (HiRA).

The four families rest on two algebras:

* A frozen network scaled by trainable d vectors (tera, tera_iden, vera).
  ``network()`` returns ``(core, factors, d_vectors)``: the delta is the core
  scaled on each mode by its d vector and mixed by the factor's transpose,
  unfolded at ``split``. A None factor is the identity (tera_iden's every
  mode, vera's rows) and costs a broadcast multiply. One base class computes
  ``deltas``, ``apply`` and ``gradients`` from that, and
  ``_design_matrices`` the ALS design matrices of a stack of d vectors.
* A trainable low-rank product A @ B (lora). HiRA is the same product under
  the element-wise mask of the frozen base weight.

All four families materialize a delta matrix that is exactly zero right after
initialization, support matrix-vector application without materializing the
delta where the structure allows it, and round-trip through JSON checkpoints
that store only trainable state plus enough provenance to regenerate the
frozen parts.

Each family is one dataclass with the same methods (``deltas``, ``apply``,
``gradients``, ``max_rank``, ``to_doc``, ``from_doc``, ``trainable_arrays``
and ``bind_trainable``); the module-level functions check their arguments
and delegate to them. ``deltas(params)`` and ``gradients(params, upstream,
out=None)`` take trainable arrays stacked on a leading members axis: a fit
trains the adapters that share one frozen network as one stack, and a
single adapter is the one-member stack of its own arrays. Only
``materialize_delta`` takes a ``path``: "mode" for every family, "kron" (the
tensor network's second materialization path) for tera alone.
``ADAPTER_TYPES`` maps a checkpoint's ``adapter_type`` to its class.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .tensor_ops import TensorizationScheme, _mode_product, kron_chain, unfold

CHECKPOINT_FORMAT_VERSION = 1

# Namespacing constants for seed derivation; changing these invalidates
# every existing checkpoint, so they are part of the file format.
_TERA_TAG = 1
_VERA_TAG = 2
_BASE_WEIGHT_TAG = 3


class CheckpointError(ValueError):
    """A checkpoint file is unreadable or inconsistent with the store or
    base weight it is being restored against."""


def _kaiming_uniform(rng, shape, fan):
    # Uniform on [-a, a] with a = sqrt(6/fan): keeps materialized deltas O(1)
    # in magnitude across schemes.
    bound = math.sqrt(6.0 / fan)
    return rng.uniform(-bound, bound, size=shape)


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def synthetic_base_weight(j1, j2, seed):
    """Deterministic stand-in for a pre-trained weight matrix.

    Entries are Gaussian with 1/sqrt(cols) scale so that products with unit
    inputs stay O(1). The array is read-only; it plays the role of the frozen
    base model.
    """
    if seed < 0:
        raise ValueError("base-weight seed must be non-negative")
    rng = np.random.default_rng(
        np.random.SeedSequence([_BASE_WEIGHT_TAG, int(seed), int(j1), int(j2)])
    )
    return _frozen(rng.standard_normal((j1, j2)) / math.sqrt(j2))


def _checksum(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Checkpoint fields. Documents come from outside the process, so every field
# a family reads is checked, and any defect raises CheckpointError.


def _field(doc, key, valid, expected):
    value = doc.get(key)
    if not valid(value):
        raise CheckpointError(f"field {key!r} must be {expected}, got {value!r:.80}")
    return value


def _int(doc, key, low=0, high=math.inf):
    return _field(doc, key, lambda v: type(v) is int and low <= v < high,
                  f"an integer in [{low}, {high})")


def _shape(doc, key):
    return _field(doc, key, lambda v: isinstance(v, list) and len(v) == 2
                  and all(type(n) is int and n > 0 for n in v), "two positive integers")


def _numbers(value):
    """Whether ``value`` is a JSON number or lists nesting only numbers; a
    boolean is none, though numpy would read it as 0 or 1."""
    if isinstance(value, list):
        return all(_numbers(v) for v in value)
    return type(value) in (int, float)


def _array(value, shape, name):
    """``value`` as a finite float array of ``shape`` (None matches any size)."""
    try:
        arr = np.array(value)
        ok = (_numbers(value) and arr.dtype.kind in "iuf" and arr.size > 0
              and arr.ndim == len(shape)
              and all(want in (None, got) for want, got in zip(shape, arr.shape)))
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise CheckpointError(f"{name} must be numbers of shape {shape}, got {value!r:.80}")
    if not np.isfinite(arr).all():
        raise CheckpointError(f"{name} holds non-finite values")
    return arr.astype(float)


def _store_seed(doc, store, family):
    """The document's master seed, checked against the store it loads into."""
    seed = _int(doc, "master_seed")
    if store is None:
        raise CheckpointError(f"{family} checkpoints need a frozen-factor store")
    if store.master_seed != seed:
        raise CheckpointError(f"store master_seed {store.master_seed} != checkpoint's {seed}")
    return seed


@dataclass(frozen=True)
class StoreEntry:
    """One shared set of frozen tensors, reused by identity across adapters."""

    core: np.ndarray
    factors: tuple


class FrozenFactorStore:
    """Deterministic registry of frozen random tensors, keyed by signature.

    Entries are derived lazily from (master_seed, signature) alone, so two
    stores with the same master seed hold bit-identical arrays no matter in
    which order entries are first requested. Every adapter built against the
    same store and signature shares the same entry object, never a copy.
    """

    def __init__(self, master_seed: int):
        if master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        self.master_seed = int(master_seed)
        self._entries = {}

    def tera_entry(self, scheme: TensorizationScheme) -> StoreEntry:
        key = ("tera", scheme.mode_sizes, scheme.ranks)
        if key not in self._entries:
            # The 0 separates mode sizes from ranks in the entropy stream so
            # e.g. (2,4|ranks 2) and (2|ranks 4,2) cannot collide.
            rng = self._rng(_TERA_TAG, *scheme.mode_sizes, 0, *scheme.ranks)
            core = _frozen(_kaiming_uniform(rng, scheme.ranks, sum(scheme.ranks)))
            factors = tuple(
                _frozen(_kaiming_uniform(rng, (r, n), r + n))
                for r, n in zip(scheme.ranks, scheme.mode_sizes)
            )
            self._entries[key] = StoreEntry(core=core, factors=factors)
        return self._entries[key]

    def vera_pair(self, j1: int, j2: int, rank: int):
        """Frozen (B, A) with B of shape (j1, rank) and A of shape (rank, j2)."""
        key = ("vera", j1, j2, rank)
        if key not in self._entries:
            rng = self._rng(_VERA_TAG, j1, j2, rank)
            b = _frozen(_kaiming_uniform(rng, (j1, rank), j1 + rank))
            a = _frozen(_kaiming_uniform(rng, (rank, j2), rank + j2))
            self._entries[key] = (b, a)
        return self._entries[key]

    def _rng(self, tag, *ints):
        return np.random.default_rng(
            np.random.SeedSequence([self.master_seed, tag, *map(int, ints)])
        )


# ---------------------------------------------------------------------------
# The frozen-network algebra, read from ``network()``, on stacks: members of
# one network carry a leading axis, and mode m's d vectors are one
# ``(members, ranks[m])`` array. A None factor is the identity: a broadcast
# multiply, never a GEMM with an identity matrix.


def _mode_sizes(core, factors):
    """The delta's tensor mode sizes: each factor's width, or the core's
    rank on an identity mode."""
    return [r if f is None else f.shape[1] for r, f in zip(core.shape, factors)]


def _stacked(arrays):
    """One adapter's arrays as a one-member stack."""
    return [x[None] for x in arrays]


def _outer(stacks):
    """Each member's flattened outer product of its vectors, built from the
    left: ``(a[:, None] * b).ravel()``, then that times the next."""
    out = stacks[0]
    for v in stacks[1:]:
        out = (out[:, :, None] * v[:, None, :]).reshape(len(v), -1)
    return out


def _scaled_core(core, d_stacks):
    """``(members,) + core.shape``: the core times each member's outer
    product of its d vectors, on the core's mode-0 split ``(ranks[0],
    rest)``: scaled by d_0 down its rows, then by the outer product of the
    other modes' d vectors (``_outer``) along them, ``(C * d_0) * (d_1 x
    d_2 ...)``. Both broadcasts run the long axis innermost."""
    d0 = d_stacks[0]
    scaled = core.reshape(len(core), -1) * d0[:, :, None]
    scaled *= _outer(d_stacks[1:])[:, None, :]
    return scaled.reshape((len(d0),) + core.shape)


def _pull(tensor, matrices):
    """The stacked ``tensor`` times ``matrices[m]`` on every mode m (one
    mode product for all members); a None matrix costs nothing."""
    for m, matrix in enumerate(matrices):
        if matrix is not None:
            tensor = _mode_product(tensor, matrix, m + 1)
    return tensor


def _scale_modes(t, factors, d_stacks, adjoint=False):
    """``t``, shared, times each member's d-scaled factor ``factor.T * d`` or,
    with ``adjoint``, its transpose ``d[:, None] * factor`` on every mode
    whose d stack is not None: one batched matmul per mode (a one-member
    stack's is its ``mode_n_product``, bit for bit). The factored modes go
    first, so an identity mode scales the mixed result, as vera's b scales
    the rows of B @ (d * A)."""
    order = t.ndim
    t = t[None]
    for m in sorted(range(order), key=lambda m: factors[m] is None):
        d, shape = d_stacks[m], t.shape
        if d is None:
            continue
        if factors[m] is None:
            t = t * d.reshape((len(d),) + (1,) * m + (-1,) + (1,) * (order - m - 1))
            continue
        mix = d[:, :, None] * factors[m] if adjoint else factors[m].T * d[:, None, :]
        before, after = math.prod(shape[1:m + 1]), math.prod(shape[m + 2:])
        if after == 1:
            t = t.reshape(len(t), before, shape[m + 1]) @ mix.transpose(0, 2, 1)
        else:
            t = np.matmul(mix[:, None], t.reshape(len(t), before, shape[m + 1], after))
        t = t.reshape((len(d),) + shape[1:m + 1] + mix.shape[1:2] + shape[m + 2:])
    return t


def _reduce_by_d_vectors(weighted, d_stacks, out=None):
    """Per member s and mode i, ``weighted[s]`` summed against every other
    mode's d vector: ``g_i[s, r] = sum of weighted[s, ..., r, ...] *
    prod_{m != i} d_m[s, r_m]``, written into ``out[i]`` when given.

    Contracting the modes before i from the left leaves a ``(ranks[i],
    rest)`` matrix, multiplied by the outer product of the d vectors after
    i: O(order * core) in all; the last mode's contraction is written
    straight into ``out[-1]``. No division by d entries, so zero d vectors
    are safe, and a zero slice of ``weighted`` gives an exactly zero entry.
    """
    members = len(weighted)
    out = [np.empty(d.shape) for d in d_stacks] if out is None else out
    suffixes = [d_stacks[-1]]  # suffixes[-1 - i]: outer product of d_{i+1..}
    for d in reversed(d_stacks[1:-1]):
        suffixes.append(_outer([d, suffixes[-1]]))
    prefix = weighted
    last = len(d_stacks) - 2
    for i, d in enumerate(d_stacks[:-1]):
        prefix = prefix.reshape(members, d.shape[1], -1)
        np.matmul(prefix, suffixes[-1 - i][..., None], out=out[i][..., None])
        # the last mode has nothing after it: its gradient is the contraction
        prefix = np.matmul(d[:, None, :], prefix, out=out[-1][:, None, :] if i == last else None)
    return out


def _design_matrices(core, factors, d_stacks, mode):
    """``(members, rows*cols, ranks[mode])`` stack of ALS design matrices,
    one per member of the stacked d vectors ``d_stacks[m]`` (shape
    ``(members, ranks[m])``): ``phi[s] @ d_stacks[mode][s]`` is member s's
    flattened delta.

    The delta is linear in one mode's d vector: scale and mix every other
    mode of the core (``_scale_modes``, that mode left as it is), then
    spread the remaining rank index over that mode's factor (an identity
    factor spreads rank b onto index b).
    """
    t = _scale_modes(core, factors, [None if m == mode else d for m, d in enumerate(d_stacks)])
    f = factors[mode]
    mix = np.eye(core.shape[mode]) if f is None else f.T  # (size, rank)
    spread = [1] * (core.ndim + 1) + [mix.shape[1]]
    spread[mode + 1] = mix.shape[0]
    t = np.expand_dims(np.moveaxis(t, mode + 1, -1), mode + 1)
    return (t * mix.reshape(spread)).reshape(len(t), -1, mix.shape[1])


class _ScaledNetwork:
    """The families whose trainable vectors scale a frozen network (tera and
    vera): everything here is read from ``network()`` and ``split``; the
    trainable arrays are the d vectors in mode order."""

    def deltas(self, params):
        """``(members, rows, cols)``: one ``_scale_modes`` for the stack."""
        core, factors, _ = self.network()
        return _scale_modes(core, factors, params).reshape((-1,) + self.shape)

    def apply(self, x):
        # Fold x over the column modes, scale and mix each down to its rank,
        # absorb the core (never copied), then expand the row modes.
        core, factors, d_vectors = self.network()
        k, order = self.split, core.ndim
        d_stacks = _stacked(d_vectors)
        z = _scale_modes(x.reshape(_mode_sizes(core, factors)[k:]), factors[k:], d_stacks[k:],
                         adjoint=True)[0]
        t = np.tensordot(core, z, axes=(tuple(range(k, order)), tuple(range(order - k))))
        return _scale_modes(t, factors[:k], d_stacks[:k]).ravel()

    def gradients(self, params, upstream, out=None):
        """Each member's gradients of ``<upstream[s], its delta>``, written
        into ``out`` when given: every upstream pulled through the factors,
        weighted by the core and summed against the other modes' d vectors."""
        core, factors, _ = self.network()
        pulled = _pull(upstream.reshape([len(upstream)] + _mode_sizes(core, factors)), factors)
        return _reduce_by_d_vectors(core * pulled, params, out=out)


def _kron_sides(adapter):
    """``(left, right)``, the Kronecker products of the row and the column
    factors' transposes: delta == left @ unfold(scaled core) @ right.T. A
    side of identity factors is None (the tensor network's factors are all
    identities or none)."""
    _, factors, _ = adapter.network()
    k = adapter.split
    return tuple(None if side[0] is None else kron_chain([f.T for f in side])
                 for side in (factors[:k], factors[k:]))


def _kron_delta(adapter):
    """The tensor network's second materialization path: the Kronecker
    sides sandwich the unfolded core scaled by the d vectors."""
    core, _, d_vectors = adapter.network()
    scaled = unfold(_scaled_core(core, _stacked(d_vectors))[0], adapter.split)
    left, right = _kron_sides(adapter)
    mixed = scaled if left is None else left @ scaled
    return mixed if right is None else mixed @ right.T


# ---------------------------------------------------------------------------
# The four families.


@dataclass(eq=False)
class TeraAdapter(_ScaledNetwork):
    """Frozen random tensor network scaled by trainable diagonal vectors.

    The delta is the split-point unfolding of the frozen core multiplied on
    every mode by diag(d) followed by the frozen factor. Only the d vectors
    train; one of them starts at zero so the initial delta vanishes exactly.
    """

    scheme: TensorizationScheme
    entry: StoreEntry
    d_vectors: list
    zero_init_mode: int
    master_seed: int
    identity_factors: bool = False

    family = "tera"

    @property
    def variant(self):
        """The family name runs and reports use: identity factors make
        ``tera_iden``."""
        return "tera_iden" if self.identity_factors else self.family

    @property
    def shape(self):
        return (self.scheme.rows, self.scheme.cols)

    @property
    def split(self):
        return self.scheme.split

    @property
    def core(self):
        return self.entry.core

    def trainable_arrays(self):
        return list(self.d_vectors)

    def bind_trainable(self, arrays):
        self.d_vectors = list(arrays)

    def network(self):
        """``(core, factors, d_vectors)``: the delta is the unfolded core
        scaled on each mode m by ``d_vectors[m]`` and mixed by
        ``factors[m].T``; a None factor is the identity."""
        if self.identity_factors:
            return self.core, (None,) * self.scheme.order, self.d_vectors
        return self.core, self.entry.factors, self.d_vectors

    def max_rank(self):
        s = self.scheme
        return min(s.rank_rows, s.rank_cols, *self.shape)

    def to_doc(self):
        return dict(
            adapter_type="tera", scheme=self.scheme.to_dict(),
            master_seed=self.master_seed, zero_init_mode=self.zero_init_mode,
            identity_factors=self.identity_factors,
            d_vectors=[d.tolist() for d in self.d_vectors],
        )

    @classmethod
    def from_doc(cls, doc, store=None, base_weight=None):
        try:
            scheme = TensorizationScheme.from_dict(doc.get("scheme"))
        except ValueError as exc:
            raise CheckpointError(f"bad scheme in checkpoint: {exc}") from exc
        master_seed = _store_seed(doc, store, "tera")
        zero_init_mode = _int(doc, "zero_init_mode", high=scheme.order)
        identity = _field(doc, "identity_factors", lambda v: type(v) is bool, "boolean")
        if identity and not scheme.full_rank:
            raise CheckpointError("identity factors require ranks equal to mode sizes")
        raw = _field(doc, "d_vectors", lambda v: isinstance(v, list)
                     and len(v) == scheme.order, f"a list of {scheme.order} vectors")
        d_vectors = [_array(d, (r,), "d vector") for d, r in zip(raw, scheme.ranks)]
        entry = store.tera_entry(scheme)
        return cls(scheme, entry, d_vectors, zero_init_mode, master_seed, identity)


@dataclass(eq=False)
class LoraAdapter:
    """Plain low-rank delta A @ B with both factors trainable."""

    a: np.ndarray  # (j1, rank)
    b: np.ndarray  # (rank, j2), zero at init so the delta starts at zero
    rank: int

    family = variant = "lora"

    @property
    def shape(self):
        return (self.a.shape[0], self.b.shape[1])

    def trainable_arrays(self):
        return [self.a, self.b]

    def bind_trainable(self, arrays):
        self.a, self.b = arrays

    def network(self):
        return None  # both factors train: no frozen network

    def deltas(self, params):
        a, b = params
        return a @ b

    def apply(self, x):
        return self.a @ (self.b @ x)

    def gradients(self, params, upstream, out=None):
        (a, b), (grad_a, grad_b) = params, out or (None, None)
        return [np.matmul(upstream, b.transpose(0, 2, 1), out=grad_a),
                np.matmul(a.transpose(0, 2, 1), upstream, out=grad_b)]

    def max_rank(self):
        return min(self.rank, *self.shape)

    def to_doc(self):
        return dict(adapter_type="lora", rank=self.rank, a=self.a.tolist(),
                    b=self.b.tolist())

    @classmethod
    def from_doc(cls, doc, store=None, base_weight=None):
        rank = _int(doc, "rank", low=1)
        a = _array(doc.get("a"), (None, rank), "a")
        return cls(a, _array(doc.get("b"), (rank, None), "b"), rank)


@dataclass(eq=False)
class VeraAdapter(_ScaledNetwork):
    """Frozen low-rank pair scaled by trainable diagonals on both sides."""

    b_frozen: np.ndarray  # (j1, rank)
    a_frozen: np.ndarray  # (rank, j2)
    b: np.ndarray  # (j1,) trainable, zero at init
    d: np.ndarray  # (rank,) trainable
    rank: int
    master_seed: int
    d_init: float = 0.1

    family = variant = "vera"
    split = 1

    @property
    def shape(self):
        return (self.b_frozen.shape[0], self.a_frozen.shape[1])

    def trainable_arrays(self):
        return [self.b, self.d]

    def bind_trainable(self, arrays):
        self.b, self.d = arrays

    def network(self):
        # A two-mode network: core B, the identity on the rows and A on the
        # columns, scaled by b and d (TeraAdapter.network's form).
        return self.b_frozen, (None, self.a_frozen), [self.b, self.d]

    def max_rank(self):
        return min(self.rank, *self.shape)

    def to_doc(self):
        return dict(
            adapter_type="vera", shape=list(self.shape), rank=self.rank,
            master_seed=self.master_seed, d_init=self.d_init,
            b=self.b.tolist(), d=self.d.tolist(),
        )

    @classmethod
    def from_doc(cls, doc, store=None, base_weight=None):
        master_seed = _store_seed(doc, store, "vera")
        j1, j2 = _shape(doc, "shape")
        rank = _int(doc, "rank", low=1)
        d_init = _field(doc, "d_init", lambda v: type(v) in (int, float)
                        and math.isfinite(v), "a finite number")
        b, d = _array(doc.get("b"), (j1,), "b"), _array(doc.get("d"), (rank,), "d")
        return cls(*store.vera_pair(j1, j2, rank), b, d, rank, master_seed, d_init)


@dataclass(eq=False)
class HiraAdapter(LoraAdapter):
    """The low-rank product masked element-wise by the frozen base weight.

    The Hadamard factor w0 lets the delta reach ranks far above the product's
    own rank. w0 is never trained and never serialized by value; checkpoints
    record a checksum plus provenance sufficient to regenerate or re-verify it.
    """

    w0: np.ndarray  # (j1, j2), frozen
    w0_provenance: dict | None = None

    family = variant = "hira"

    def deltas(self, params):
        return super().deltas(params) * self.w0

    def apply(self, x):
        # The Hadamard mask offers no factored route, so this materializes.
        return materialize_delta(self) @ x

    def gradients(self, params, upstream, out=None):
        return super().gradients(params, upstream * self.w0, out)

    def max_rank(self):
        return min(self.shape)  # the element-wise product can reach full rank

    def to_doc(self):
        w0 = dict(shape=list(self.w0.shape), checksum=_checksum(self.w0))
        return dict(super().to_doc(), adapter_type="hira",
                    w0=dict(w0, provenance=self.w0_provenance))

    @classmethod
    def from_doc(cls, doc, store=None, base_weight=None):
        meta = _field(doc, "w0", lambda v: isinstance(v, dict), "an object")
        j1, j2 = _shape(meta, "shape")
        checksum = _field(meta, "checksum", lambda v: isinstance(v, str), "a string")
        provenance = _field(meta, "provenance", lambda v: v is None or isinstance(v, dict),
                            "an object or null")
        rank = _int(doc, "rank", low=1)
        a, b = _array(doc.get("a"), (j1, rank), "a"), _array(doc.get("b"), (rank, j2), "b")
        if base_weight is not None:
            w0 = np.asarray(base_weight, dtype=float)
        elif provenance is not None and provenance.get("kind") == "synthetic":
            w0 = synthetic_base_weight(j1, j2, _int(provenance, "seed"))
        else:
            raise CheckpointError(
                "hira checkpoint has no synthetic provenance; pass base_weight"
            )
        if w0.shape != (j1, j2):
            raise CheckpointError(f"base weight shape {w0.shape} != {(j1, j2)}")
        if _checksum(w0) != checksum:
            raise CheckpointError("base weight does not match recorded checksum")
        return cls(a, b, rank, w0, provenance)


# A new family is one class with the methods above plus its entry here.
ADAPTER_TYPES = {c.family: c for c in (TeraAdapter, LoraAdapter, VeraAdapter, HiraAdapter)}


def _checked(adapter):
    if getattr(adapter, "family", None) not in ADAPTER_TYPES:
        raise TypeError(f"not an adapter: {type(adapter).__name__}")
    return adapter


def init_tera(j1, j2, scheme, store, zero_init_mode=None, identity_factors=False):
    """Build a zero-delta tensor-network adapter against a shared store.

    One d vector (by default the last mode's) starts at zeros and the rest at
    ones, which forces the materialized delta to be exactly the zero matrix.
    With identity_factors=True the frozen factor matrices are replaced by
    identities (the core stays random and shared); this requires every rank to
    equal its mode size.
    """
    if not scheme.matches(j1, j2):
        raise ValueError(
            f"scheme folds a {scheme.rows}x{scheme.cols} matrix, "
            f"but a {j1}x{j2} adapter was requested"
        )
    if identity_factors and scheme.ranks != scheme.mode_sizes:
        raise ValueError("identity factors require ranks equal to mode sizes")
    if zero_init_mode is None:
        zero_init_mode = scheme.order - 1
    if not 0 <= zero_init_mode < scheme.order:
        raise ValueError(f"zero_init_mode {zero_init_mode} out of range")
    d_vectors = [np.ones(r) for r in scheme.ranks]
    d_vectors[zero_init_mode] = np.zeros(scheme.ranks[zero_init_mode])
    return TeraAdapter(
        scheme=scheme,
        entry=store.tera_entry(scheme),
        d_vectors=d_vectors,
        zero_init_mode=zero_init_mode,
        master_seed=store.master_seed,
        identity_factors=identity_factors,
    )


def _check_rank(rank):
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")


def init_lora(j1, j2, rank, seed=0):
    _check_rank(rank)
    rng = np.random.default_rng(seed)
    a = _kaiming_uniform(rng, (j1, rank), j1 + rank)
    return LoraAdapter(a=a, b=np.zeros((rank, j2)), rank=rank)


def init_vera(j1, j2, rank, store):
    _check_rank(rank)
    b_frozen, a_frozen = store.vera_pair(j1, j2, rank)
    return VeraAdapter(
        b_frozen=b_frozen,
        a_frozen=a_frozen,
        b=np.zeros(j1),
        d=np.full(rank, VeraAdapter.d_init),
        rank=rank,
        master_seed=store.master_seed,
    )


def init_hira(j1, j2, rank, w0=None, seed=0, w0_seed=None):
    """Hadamard-masked adapter. Supply w0 directly or a w0_seed to generate a
    synthetic base weight with recorded provenance."""
    _check_rank(rank)
    if w0 is None:
        if w0_seed is None:
            raise ValueError("init_hira needs either w0 or w0_seed")
        w0 = synthetic_base_weight(j1, j2, w0_seed)
        provenance = {"kind": "synthetic", "seed": int(w0_seed)}
    else:
        if w0.shape != (j1, j2):
            raise ValueError(f"w0 has shape {w0.shape}, expected {(j1, j2)}")
        provenance = None
    rng = np.random.default_rng(seed)
    a = _kaiming_uniform(rng, (j1, rank), j1 + rank)
    return HiraAdapter(
        a=a, b=np.zeros((rank, j2)), w0=w0, rank=rank, w0_provenance=provenance
    )


def materialize_delta(adapter, path="mode"):
    """Dense delta matrix of any adapter.

    ``path`` picks the computation: "mode", for every family, is the
    family's ``deltas`` of the one-member stack of its arrays; "kron", for
    the tensor network only, forms the two Kronecker-factor matrices and
    sandwiches the scaled, unfolded core. The two must agree to 1e-10
    relative; tests enforce this.
    """
    family = _checked(adapter).family
    if path == "mode":
        return adapter.deltas(_stacked(adapter.trainable_arrays()))[0]
    if path == "kron" and family == "tera":
        return _kron_delta(adapter)
    raise ValueError(f"no materialization path {path!r} for a {family} adapter")


def apply_delta(adapter, x):
    """Delta-times-vector without forming the full delta where possible.

    The frozen-network families fold x over the column modes, scale and mix
    each of them, absorb the core, and expand the row modes. The Hadamard
    family offers no factored route, so it materializes.
    """
    x = np.asarray(x, dtype=float)
    j1, j2 = _checked(adapter).shape
    if x.shape != (j2,):
        raise ValueError(f"expected a length-{j2} vector, got shape {x.shape}")
    return adapter.apply(x)


def trainable_param_count(adapter) -> int:
    return sum(arr.size for arr in adapter.trainable_arrays())


# Pure-arithmetic counts, usable without allocating any adapter state. The
# 2^24-mode scheme has a 16M-entry core, so counting must never build one;
# the tensor-network count is TensorizationScheme.num_trainable().


def lora_param_count(j1, j2, rank) -> int:
    """Trainable count of the plain and the Hadamard-masked low-rank families."""
    _check_rank(rank)
    return rank * (j1 + j2)


def vera_param_count(j1, rank) -> int:
    _check_rank(rank)
    return j1 + rank


def vera_full_rank_param_count(j1, j2) -> int:
    # Smallest budget at which the frozen-pair family can reach a full-rank
    # delta: rank must hit min(j1, j2).
    return j1 + min(j1, j2)


def vera_rank_for_budget(j1, budget) -> int:
    """Rank that makes the frozen-pair family's budget match `budget`."""
    rank = budget - j1
    if rank < 1:
        raise ValueError(f"budget {budget} cannot be met: needs rank >= 1")
    return rank


def clone_trainable(adapter):
    """Copy of an adapter with fresh trainable arrays and shared frozen parts."""
    clone = dataclasses.replace(_checked(adapter))
    clone.bind_trainable([x.copy() for x in adapter.trainable_arrays()])
    return clone


def save_checkpoint(adapter, path):
    """Write trainable state plus frozen-part provenance as JSON.

    Floats go through repr-level JSON encoding, which round-trips 64-bit
    values exactly. Frozen tensors are regenerated at load time from seeds,
    never stored by value. Non-finite values are refused before anything is
    written: JSON has no token for them.
    """
    doc = {"format_version": CHECKPOINT_FORMAT_VERSION, **_checked(adapter).to_doc()}
    try:
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise CheckpointError(f"cannot save {adapter.family} adapter: {exc}") from exc
    with open(path, "w") as f:
        f.write(text + "\n")


def load_checkpoint(path, store=None, base_weight=None):
    """Restore an adapter from JSON.

    Families with store-resident frozen parts need `store`, and its master
    seed must match the one recorded at save time. The Hadamard family needs
    either synthetic provenance in the file or an explicit `base_weight`,
    which is verified against the recorded checksum. Any malformed or
    inconsistent document raises CheckpointError.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} does not hold a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format_version {version!r}")
    kind = doc.get("adapter_type")
    if not isinstance(kind, str) or kind not in ADAPTER_TYPES:
        raise CheckpointError(f"unknown adapter_type {kind!r}")
    return ADAPTER_TYPES[kind].from_doc(doc, store=store, base_weight=base_weight)
