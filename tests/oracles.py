"""Independent brute-force oracles shared by the test modules.

Everything here is written as plain index loops over the element-wise
definitions, deliberately avoiding the library's own vectorized paths, so a
test that compares the two is comparing genuinely independent computations.
The recovery objective's oracle is the materialized one: the delta formed in
full, where ``fit_recovery`` works in the core's coordinates.
"""

import itertools
import math

import numpy as np

from tera.adapters import materialize_delta
from tera.training import delta_gradient


def unfold_by_enumeration(tensor, split):
    """Split-k unfolding built entry by entry from multi-index linearization."""
    shape = tensor.shape
    rows = math.prod(shape[:split])
    cols = math.prod(shape[split:])
    out = np.zeros((rows, cols))
    for index in itertools.product(*(range(s) for s in shape)):
        r = 0
        for i, size in zip(index[:split], shape[:split]):
            r = r * size + i
        c = 0
        for i, size in zip(index[split:], shape[split:]):
            c = c * size + i
        out[r, c] = tensor[index]
    return out


def mode_product_by_loops(tensor, matrix, mode):
    """Mode-n product computed with explicit nested loops."""
    out_shape = list(tensor.shape)
    out_shape[mode] = matrix.shape[0]
    out = np.zeros(out_shape)
    for index in itertools.product(*(range(s) for s in out_shape)):
        total = 0.0
        for i in range(tensor.shape[mode]):
            src = list(index)
            src[mode] = i
            total += tensor[tuple(src)] * matrix[index[mode], i]
        out[index] = total
    return out


def tera_delta_by_loops(core, factors, d_vectors, split):
    """Materialized update matrix from the element-wise tensor-network sum.

    Loops over every output multi-index and every core multi-index:
    ``delta(i) = sum_r core(r) * prod_m d[m][r_m] * prod_m factors[m][r_m, i_m]``,
    then linearizes the output indices at the split point.
    """
    mode_sizes = tuple(f.shape[1] for f in factors)
    ranks = core.shape
    rows = math.prod(mode_sizes[:split])
    cols = math.prod(mode_sizes[split:])
    out = np.zeros((rows, cols))
    for index in itertools.product(*(range(s) for s in mode_sizes)):
        total = 0.0
        for r in itertools.product(*(range(s) for s in ranks)):
            term = core[r]
            for m in range(len(mode_sizes)):
                term *= d_vectors[m][r[m]] * factors[m][r[m], index[m]]
            total += term
        r_lin = 0
        for i, size in zip(index[:split], mode_sizes[:split]):
            r_lin = r_lin * size + i
        c_lin = 0
        for i, size in zip(index[split:], mode_sizes[split:]):
            c_lin = c_lin * size + i
        out[r_lin, c_lin] = total
    return out


def explicit_factors(adapter):
    """The adapter's network factors with every identity (None) spelled out
    as ``np.eye``, for the oracles that index factor entries."""
    core, factors, _ = adapter.network()
    return [np.eye(r) if f is None else f for r, f in zip(core.shape, factors)]


def vera_delta(adapter):
    """VeRA's closed form ``diag(b) @ B @ diag(d) @ A``."""
    return np.diag(adapter.b) @ adapter.b_frozen @ np.diag(adapter.d) @ adapter.a_frozen


def tera_design_by_loops(core, factors, d_vectors, split, mode):
    """Least-squares design matrix of one mode, one delta per column.

    Column ``b`` is the flattened delta with ``d_vectors[mode]`` replaced by
    the basis vector ``e_b``: the delta is linear in that vector, so the
    columns span every delta reachable by varying it alone.
    """
    columns = []
    for b in range(core.shape[mode]):
        d = [np.asarray(v, dtype=float) for v in d_vectors]
        d[mode] = np.eye(core.shape[mode])[b]
        columns.append(tera_delta_by_loops(core, factors, d, split).ravel())
    return np.stack(columns, axis=1)


def recovery_loss(adapter, task):
    """Half the squared distance from the materialized delta to the target."""
    diff = materialize_delta(adapter) - task.target
    return 0.5 * float(np.sum(diff * diff))


def recovery_gradients(adapter, task):
    """Gradients of ``recovery_loss``: the residual as the delta's upstream."""
    return delta_gradient(adapter, materialize_delta(adapter) - task.target)


def integer_tensor(rng, shape, low=-9, high=10):
    """Random tensor with small integer-valued float entries.

    Integer arithmetic below 2**53 is exact in float64 regardless of summation
    order, so results can be compared for exact equality across
    implementations.
    """
    return rng.integers(low, high, size=shape).astype(float)
