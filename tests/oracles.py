"""Independent brute-force oracles shared by the test modules.

Everything here is written as plain index loops over the element-wise
definitions, deliberately avoiding the library's own vectorized paths, so a
test that compares the two is comparing genuinely independent computations.
The recovery objective's oracle is the materialized one: the delta formed in
full, where ``fit_recovery`` works in the core's coordinates. The
expressivity verifier's oracles are its sequential forms: alternating least
squares one start after another and the power method one restart after
another, where the library stacks them; the AdamW polish it ran before its
Gauss-Newton one is kept as a reference, and so is its ALS before the
hand-over to Gauss-Newton: every sweep, then a polish that stops only where
a step does not help. The optimizer's oracle steps each
trainable array on its own, where the library steps one flat buffer. The
MLP's oracle forms every output of the last layer and the gradient with
respect to the input, where the library forms only what the loss reads; its
adapter fit's oracle forms every layer's delta and gradients on their own,
where the library forms those of layers sharing a frozen network as one
stack.
"""

import itertools
import math

import numpy as np

from tera.adapters import _design_matrices, _stacked, clone_trainable, materialize_delta
from tera.tensor_ops import SpectralNormEstimate, mode_n_product
from tera.training import (AlsResult, OptimizerConfig, _matvecs, _mlp_loss_and_grads,
                           _operator_designs, _solve_stacked, delta_gradient)


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


def least_squares_step(phi, w, previous, ridge):
    """One ALS subproblem of one start, solved by ``np.linalg.lstsq``: a
    rank-deficient ``phi`` falls back to a ridge solve, kept only when its
    residual is no larger than ``previous``'s. Returns the solution and
    whether it fell back."""
    r = phi.shape[1]
    solution, _, rank, _ = np.linalg.lstsq(phi, w, rcond=None)
    if rank == r:
        return solution, False
    candidate = np.linalg.solve(phi.T @ phi + ridge * np.eye(r), phi.T @ w)
    if np.linalg.norm(w - phi @ candidate) <= np.linalg.norm(w - phi @ previous):
        return candidate, True
    return previous.copy(), True


def als_sweeps_by_starts(adapter, target, sweeps=50, extra_starts=3, seed=0, ridge=1e-10):
    """``als_approx_error``'s sweeps, without the polish, one start after
    another and one single-member ``_design_matrices`` and ``lstsq`` per
    subproblem.

    Returns ``(value, d_vectors, ridge_fallbacks, sweep_values)`` of the
    first start whose final sweep objective is smallest.
    """
    work = clone_trainable(adapter)
    core, factors, _ = work.network()
    ranks = work.scheme.ranks
    w = np.asarray(target, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    starts = [[np.ones(r) for r in ranks]]
    for _ in range(extra_starts):
        starts.append([rng.standard_normal(r) for r in ranks])
    best_value, best_d, best_sweep_values = math.inf, None, []
    fallbacks = 0
    for start in starts:
        for d, s in zip(work.d_vectors, start):
            d[:] = s
        sweep_values = []
        for _ in range(sweeps):
            for mode in range(len(ranks)):
                phi = _design_matrices(core, factors, _stacked(work.d_vectors), mode)[0]
                solution, fell_back = least_squares_step(phi, w, work.d_vectors[mode], ridge)
                fallbacks += fell_back
                work.d_vectors[mode][:] = solution
            residual = w - phi @ solution
            sweep_values.append(float(residual @ residual))
        if sweep_values[-1] < best_value:
            best_value, best_sweep_values = sweep_values[-1], sweep_values
            best_d = [d.copy() for d in work.d_vectors]
    return best_value, best_d, fallbacks, best_sweep_values


def als_every_sweep(adapter, target, sweeps=50, extra_starts=3, polish_steps=200, seed=0,
                    ridge=1e-10):
    """``als_approx_error`` before the hand-over: the same stacked sweeps on
    the same design matrices (``_operator_designs``), all ``sweeps`` of them,
    then one Gauss-Newton polish from the best start that stops only at the
    first step that does not lower the objective, after ``polish_steps``
    steps, or at the rounding floor. Returns an ``AlsResult``."""
    core, factors, _ = adapter.network()
    design = _operator_designs(core, factors)
    ranks = adapter.scheme.ranks
    target = np.asarray(target, dtype=float)
    w_vec = target.ravel()
    rng = np.random.default_rng(seed)
    drawn = np.split(rng.standard_normal((extra_starts, sum(ranks))), np.cumsum(ranks)[:-1],
                     axis=1)
    d_stacks = [np.vstack([np.ones(r), x]) for r, x in zip(ranks, drawn)]
    ridge_fallbacks, sweep_values = 0, []
    for _ in range(sweeps):
        for mode in range(len(ranks)):
            phi = design(d_stacks, mode)
            d_stacks[mode], fell_back, _ = _solve_stacked(phi, w_vec, d_stacks[mode], ridge)
            ridge_fallbacks += fell_back
        residual = w_vec - _matvecs(phi, d_stacks[-1])
        sweep_values.append(np.einsum("sk,sk->s", residual, residual))
    sweep_values = np.array(sweep_values)
    best = int(np.argmin(sweep_values[-1]))
    best_value = float(sweep_values[-1, best])
    best_d = [d[best:best + 1] for d in d_stacks]
    floor = 64 * np.finfo(float).eps ** 2 * float(np.sum(target * target))
    last, residual, kept = phi[best], residual[best], 0
    while kept < polish_steps and best_value > floor:
        jacobian = np.hstack([design(best_d, m)[0] for m in range(len(ranks) - 1)] + [last])
        step = np.linalg.lstsq(jacobian, residual, rcond=None)[0]
        trial = [d + s for d, s in zip(best_d, np.split(step, np.cumsum(ranks)[:-1]))]
        trial_last = design(trial, len(ranks) - 1)[0]
        trial_residual = w_vec - trial_last @ trial[-1][0]
        value = float(trial_residual @ trial_residual)
        if not value < best_value:
            break
        best_value, best_d, last, residual = value, trial, trial_last, trial_residual
        kept += 1
    return AlsResult(value=best_value, d_vectors=[d[0].copy() for d in best_d],
                     ridge_fallbacks=ridge_fallbacks, sweep_values=sweep_values[:, best].tolist(),
                     polish_steps_kept=kept)


def adamw_polish(adapter, target, d_vectors, value, polish_steps=200):
    """The gradient polish ``als_approx_error`` ran before its Gauss-Newton
    polish: AdamW at lr 1e-2 from ``d_vectors`` (whose objective is
    ``value``), the delta materialized at every iterate, the best iterate
    kept, stopping at the rounding floor ``64 * eps**2 * ||target||^2``.

    Returns ``(value, d_vectors)`` of the best iterate.
    """
    work = clone_trainable(adapter)
    for d, s in zip(work.d_vectors, d_vectors):
        d[:] = s
    best_value, best_d = value, [d.copy() for d in work.d_vectors]
    floor = 64 * np.finfo(float).eps ** 2 * float(np.sum(target * target))
    if best_value <= floor:
        return best_value, best_d
    cfg = OptimizerConfig(algorithm="adamw", learning_rate=1e-2, warmup_steps=0,
                          max_steps=polish_steps)
    opt = OptimizerByArrays(cfg, work.d_vectors)
    diff = materialize_delta(work) - target
    for _ in range(polish_steps):
        step_with(opt, delta_gradient(work, 2.0 * diff))
        diff = materialize_delta(work) - target
        current = float(np.sum(diff * diff))
        if current < best_value:
            best_value, best_d = current, [d.copy() for d in work.d_vectors]
        if best_value <= floor:
            break
    return best_value, best_d


def spectral_norm_by_restarts(tensor, restarts=16, tol=1e-10, max_iters=500, seed=0):
    """``tensor_spectral_norm`` one restart after another, contracting one
    mode at a time with ``np.tensordot``, on the tensor over the power of
    two just above its largest magnitude."""
    tensor = np.asarray(tensor, dtype=float)
    exponent = math.frexp(float(np.abs(tensor).max(initial=0.0)))[1]
    tensor = np.ldexp(tensor, -exponent)
    order = tensor.ndim
    rng = np.random.default_rng(seed)

    def contract_all_but(vectors, skip):
        out = tensor
        for mode in range(order - 1, -1, -1):
            if mode != skip:
                out = np.tensordot(out, vectors[mode], axes=(mode, 0))
        return out

    best, best_converged = 0.0, False
    for _ in range(restarts):
        vectors = [rng.standard_normal(size) for size in tensor.shape]
        if any(np.linalg.norm(v) == 0.0 for v in vectors):
            continue
        vectors = [v / np.linalg.norm(v) for v in vectors]
        value, converged = 0.0, False
        for _ in range(max_iters):
            previous = value
            for mode in range(order):
                w = contract_all_but(vectors, mode)
                norm = np.linalg.norm(w)
                if norm == 0.0:  # a zero slice: this restart contributes nothing
                    value, converged = 0.0, True
                    break
                vectors[mode] = w / norm
                value = norm
            else:
                converged = abs(value - previous) <= tol * value
            if converged:
                break
        if value > best or (value == best and converged and not best_converged):
            best, best_converged = value, converged
    return SpectralNormEstimate(math.ldexp(best, exponent), best_converged)


class OptimizerByArrays:
    """``training._Optimizer`` one array at a time: it trains the given
    arrays themselves (``params``), each with its own gradient array in
    ``grads`` and its own moment buffers, in place, with linear warmup."""

    def __init__(self, cfg, arrays):
        self.cfg = cfg
        self.params = list(arrays)
        self.grads = [np.zeros_like(a) for a in self.params]
        self.t = 0
        if cfg.algorithm == "adamw":
            self._m = [np.zeros_like(a) for a in self.params]
            self._v = [np.zeros_like(a) for a in self.params]
        else:
            self._vel = [np.zeros_like(a) for a in self.params]

    def step(self):
        self.t += 1
        lr = self.cfg.learning_rate
        if self.cfg.warmup_steps > 0:
            lr *= min(1.0, self.t / self.cfg.warmup_steps)
        b1, b2 = self.cfg.betas
        wd = self.cfg.weight_decay
        if self.cfg.algorithm == "adamw":
            eps = 1e-8
            for arr, g, m, v in zip(self.params, self.grads, self._m, self._v, strict=True):
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                m_hat = m / (1 - b1**self.t)
                v_hat = v / (1 - b2**self.t)
                arr -= lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * arr)
        else:
            for arr, g, vel in zip(self.params, self.grads, self._vel, strict=True):
                vel *= b1
                vel += g
                arr -= lr * (vel + wd * arr)


def step_with(opt, grads):
    """Copy ``grads`` into the optimizer's gradient arrays, then step it."""
    for buffer, g in zip(opt.grads, grads, strict=True):
        buffer[...] = g
    opt.step()


def delta_by_scaled_factors(adapter):
    """A frozen-network adapter's delta with one ``mode_n_product`` per
    mode: each factor's transpose scaled by its d vector, the factored modes
    first, and an identity mode a broadcast multiply of the mixed result.
    The library forms a stack's deltas with one batched matmul per mode."""
    core, factors, d_vectors = adapter.network()
    t = core
    for m in sorted(range(core.ndim), key=lambda m: factors[m] is None):
        if factors[m] is None:
            t = t * d_vectors[m].reshape((-1,) + (1,) * (core.ndim - m - 1))
        else:
            t = mode_n_product(t, factors[m].T * d_vectors[m], m)
    return t.reshape(adapter.shape)


def mlp_fit_by_layers(task, adapters, cfg):
    """``fit_mlp_adapt``'s loop with its objective layer by layer: each
    layer's delta formed on its own (``delta_by_scaled_factors`` for a
    frozen network, else ``materialize_delta``) and its gradients from its
    own ``delta_gradient``, stepped by ``OptimizerByArrays`` on the
    adapters' own arrays. ``adapters`` maps layer to adapter and is trained
    in place; returns the loss curve ``[(step, loss), ...]``."""
    opt = OptimizerByArrays(cfg, [arr for a in adapters.values() for arr in a.trainable_arrays()])
    x, y = task.target_train
    curve = []
    for step in range(cfg.max_steps + 1):
        weights = list(task.base_weights)
        for layer, a in adapters.items():
            delta = materialize_delta(a) if a.network() is None else delta_by_scaled_factors(a)
            weights[layer] = weights[layer] + delta
        grads = [np.empty_like(w) for w in weights]
        loss, _ = _mlp_loss_and_grads(weights, x, y, task.n_classes, grads)
        curve.append((step, loss))
        if step < cfg.max_steps:
            step_with(opt, [g for layer, a in adapters.items()
                            for g in delta_gradient(a, grads[layer])])
    return curve


def recovery_loss(adapter, task):
    """Half the squared distance from the materialized delta to the target."""
    diff = materialize_delta(adapter) - task.target
    return 0.5 * float(np.sum(diff * diff))


def recovery_gradients(adapter, task):
    """Gradients of ``recovery_loss``: the residual as the delta's upstream."""
    return delta_gradient(adapter, materialize_delta(adapter) - task.target)


def mlp_forward(weights, x):
    """The input followed by every layer's output: tanh after each hidden
    layer, none after the last."""
    activations = [x]
    for layer, w in enumerate(weights):
        h = activations[-1] @ w.T
        if layer < len(weights) - 1:
            np.tanh(h, out=h)
        activations.append(h)
    return activations


def mlp_loss_and_grads(weights, x, y, n_classes):
    """Cross-entropy on the first ``n_classes`` outputs; gradients per weight."""
    activations = mlp_forward(weights, x)
    h = activations[-1]
    scores = h[:, :n_classes]
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = x.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
    dscores = probs.copy()
    dscores[np.arange(n), y] -= 1.0
    dscores /= n
    dh = np.zeros_like(h)
    dh[:, :n_classes] = dscores
    grads = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        out = activations[layer + 1]
        dz = dh if layer == len(weights) - 1 else dh * (1.0 - out * out)
        grads[layer] = dz.T @ activations[layer]
        dh = dz @ weights[layer]
    return loss, grads


def integer_tensor(rng, shape, low=-9, high=10):
    """Random tensor with small integer-valued float entries.

    Integer arithmetic below 2**53 is exact in float64 regardless of summation
    order, so results can be compared for exact equality across
    implementations.
    """
    return rng.integers(low, high, size=shape).astype(float)
