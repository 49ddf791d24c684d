"""Optimization of adapter parameters on desk-scale tasks.

Two synthetic tasks drive everything. Target-matrix recovery minimizes half
the squared Frobenius distance between an adapter's delta and a fixed target,
which directly instantiates the objective the expressivity bound is stated
over. Toy-MLP adaptation freezes a small pretrained network and trains only
adapter parameters against a shifted task, exercising the same workflow a
real fine-tune would.

Gradients are analytic (the tensor-network gradient follows from
multilinearity of the parameterization) and a central finite-difference
checker guards them. An alternating-least-squares estimator provides a
certified upper bound on the best achievable recovery error of the
tensor-network family, used by the expressivity-bound verifier.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adapters import (
    CheckpointError,
    FrozenFactorStore,
    TeraAdapter,
    _checked,
    _design_matrices,
    _mode_sizes,
    _outer,
    _pull,
    _reduce_by_d_vectors,
    _scaled_core,
    _stacked,
    init_hira,
    init_lora,
    init_tera,
    init_vera,
    load_checkpoint,
    materialize_delta,
    trainable_param_count,
)
from .tensor_ops import TensorizationScheme, numerical_rank

REPORT_FORMAT_VERSION = 1

# Abort when the loss blows past this multiple of its initial value.
DIVERGENCE_FACTOR = 1e6


class DivergenceError(RuntimeError):
    """Loss became non-finite or exploded; carries the partial report."""

    def __init__(self, step, loss, report=None):
        super().__init__(f"training diverged at step {step}: loss={loss!r}")
        self.step = step
        self.loss = loss
        self.report = report


# ---------------------------------------------------------------------------
# Gradients


def delta_gradient(adapter, upstream: np.ndarray):
    """Gradients of <upstream, delta> for the adapter's trainable arrays,
    in the same order as ``trainable_arrays()``: the family's ``gradients``
    of the one-member stack. An upstream gradient whose shape is not the
    delta's raises ValueError."""
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != _checked(adapter).shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} != delta shape {adapter.shape}"
        )
    return [g[0] for g in adapter.gradients(_stacked(adapter.trainable_arrays()), upstream[None])]


def tera_gradient(adapter: TeraAdapter, upstream: np.ndarray):
    """Gradients of <upstream, delta> with respect to each d vector of a
    frozen-network adapter: its ``delta_gradient``."""
    return delta_gradient(adapter, upstream)


def finite_difference_check(loss_fn, grad_fn, adapter, h: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn(adapter)`` evaluates the scalar loss at the adapter's current
    trainable state; ``grad_fn(adapter)`` returns analytic gradients matching
    ``trainable_arrays()``. Every coordinate is perturbed in place by +-h.
    The relative-error denominator is max(|analytic|, |numeric|, 1e-12).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    analytic = grad_fn(adapter)
    worst = 0.0
    for arr, grad in zip(adapter.trainable_arrays(), analytic):
        flat = arr.ravel()
        gflat = np.asarray(grad, dtype=float).ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            plus = loss_fn(adapter)
            flat[idx] = orig - h
            minus = loss_fn(adapter)
            flat[idx] = orig
            numeric = (plus - minus) / (2.0 * h)
            denom = max(abs(gflat[idx]), abs(numeric), 1e-12)
            worst = max(worst, abs(gflat[idx] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Optimizers


@dataclass
class OptimizerConfig:
    """Hyperparameters for one optimization run; echoed into every report."""

    algorithm: str = "adamw"  # "adamw" (decoupled weight decay) or "sgd-momentum"
    learning_rate: float = 1e-2
    betas: tuple = (0.9, 0.999)
    weight_decay: float = 0.0
    warmup_steps: int = 100
    max_steps: int = 1000
    seed: int = 0  # echoed into reports; no update reads it

    def __post_init__(self):
        if self.algorithm not in ("adamw", "sgd-momentum"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.max_steps < 0 or self.warmup_steps < 0:
            raise ValueError("step counts must be non-negative")
        for name in ("learning_rate", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if len(self.betas) != 2 or not all(0 <= b < 1 for b in self.betas):
            raise ValueError(f"betas must be two numbers in [0, 1), got {self.betas!r}")

    def to_dict(self):
        return dict(dataclasses.asdict(self), betas=list(self.betas))


def _views(buffer, shapes):
    """``buffer``'s last axis cut into consecutive views, each shaped as the
    leading axes followed by its shape."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[..., start:start + size].reshape(buffer.shape[:-1] + shape))
        start += size
    return views


class _Optimizer:
    """First-order updates with linear learning-rate warmup, in place.

    ``params`` are views, shaped as ``arrays``, of one float64 buffer that
    starts as their copy, and ``grads`` those of the gradient buffer the
    objective writes. A step updates the whole buffer with one sequence of
    ufuncs into two scratch buffers, element for element the per-array
    update; at ``weight_decay`` 0 the decay term, an exact zero there, is
    not formed.
    """

    def __init__(self, cfg: OptimizerConfig, arrays):
        self.cfg = cfg
        self.t = 0
        # the leading empty array keeps a fit with no arrays valid
        self._flat = np.concatenate([np.zeros(0)] + [np.ravel(a) for a in arrays])
        self._grad = np.zeros_like(self._flat)
        self._tmp, self._den = np.empty_like(self._flat), np.empty_like(self._flat)
        shapes = [np.shape(a) for a in arrays]
        self.params, self.grads = _views(self._flat, shapes), _views(self._grad, shapes)
        if cfg.algorithm == "adamw":
            self._m = np.zeros_like(self._flat)
            self._v = np.zeros_like(self._flat)
        else:
            self._vel = np.zeros_like(self._flat)

    def _lr(self):
        lr = self.cfg.learning_rate
        if self.cfg.warmup_steps > 0:
            lr *= min(1.0, self.t / self.cfg.warmup_steps)
        return lr

    def step(self):
        g, flat, tmp, den = self._grad, self._flat, self._tmp, self._den
        self.t += 1
        lr = self._lr()
        b1, b2 = self.cfg.betas
        # flat -= lr * (update + wd * flat): adamw's update is m_hat /
        # (sqrt(v_hat) + eps), sgd-momentum's the velocity
        if self.cfg.algorithm == "adamw":
            m, v = self._m, self._v
            m *= b1
            m += np.multiply(g, 1 - b1, out=tmp)
            v *= b2
            v += np.multiply(np.multiply(g, 1 - b2, out=tmp), g, out=tmp)
            np.sqrt(np.divide(v, 1 - b2**self.t, out=den), out=den)
            den += 1e-8
            update = np.divide(np.divide(m, 1 - b1**self.t, out=tmp), den, out=tmp)
        else:
            update = self._vel
            update *= b1
            update += g
        if self.cfg.weight_decay:
            update = np.add(update, np.multiply(flat, self.cfg.weight_decay, out=den), out=tmp)
        # into tmp: sgd-momentum's update is the velocity, which must not scale
        flat -= np.multiply(update, lr, out=tmp)


# ---------------------------------------------------------------------------
# Tasks


@dataclass
class RecoveryTask:
    """A fixed target matrix to approximate with an adapter delta."""

    target: np.ndarray
    kind: str
    seed: int
    detail: dict = field(default_factory=dict)

    @property
    def shape(self):
        return self.target.shape

    def describe(self):
        doc = {"kind": self.kind, "seed": self.seed, "shape": list(self.shape)}
        doc.update(self.detail)
        return doc


def gaussian_recovery_task(j1, j2, seed) -> RecoveryTask:
    """Dense standard-normal target; full rank with probability one."""
    rng = np.random.default_rng(seed)
    return RecoveryTask(target=rng.standard_normal((j1, j2)), kind="gaussian", seed=seed)


def planted_recovery_task(
    scheme: TensorizationScheme, store, seed, identity_factors=False
) -> RecoveryTask:
    """Target materialized from the adapter family itself, so zero residual is
    achievable. The planted d entries have magnitude in [0.5, 1.5] with random
    signs, keeping every mode's contribution well away from zero."""
    adapter = init_tera(
        scheme.rows, scheme.cols, scheme, store, identity_factors=identity_factors
    )
    rng = np.random.default_rng(seed)
    for d in adapter.d_vectors:
        magnitude = rng.uniform(0.5, 1.5, size=d.shape)
        sign = rng.choice((-1.0, 1.0), size=d.shape)
        d[:] = magnitude * sign
    return RecoveryTask(
        target=materialize_delta(adapter),
        kind="planted",
        seed=seed,
        detail={
            **scheme.to_dict(),
            "master_seed": store.master_seed,
            "identity_factors": identity_factors,
        },
    )


# ---------------------------------------------------------------------------
# Reports


class _Report:
    """A report dataclass whose JSON document is its fields (not copied)
    plus ``format_version``."""

    def fields(self):
        """The dataclass fields by name, as a report nested in another
        document writes them."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def to_json_dict(self):
        return {"format_version": REPORT_FORMAT_VERSION, **self.fields()}


@dataclass
class TrainReport(_Report):
    """Everything a run produced: curve, final metrics, ranks, config echo.

    ``timings`` splits the wall time into phases: ``objective_s`` (loss and
    gradients, every evaluated step), ``optimizer_s`` (the optimizer steps)
    and ``report_s`` (building this report). Like ``wall_time_seconds`` it
    goes to ``report.json`` only, never to a CSV, so reruns stay
    byte-identical. So do ``norms``: at steps ``norms["steps"]`` (0, 1, 2,
    4, ... and the last), each adapter's gradient norm and the norm of its
    trainable arrays (``norms["gradient" | "trainable"][name]``).
    """

    loss_curve: list
    final_loss: float
    wall_time_seconds: float
    trainable_param_count: int
    delta_ranks: dict
    config: dict
    metrics: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    norms: dict = field(default_factory=dict)


LOSS_COLUMNS = ("step", "loss")


def _plain(value):
    # numpy scalars and arrays are the only non-JSON values reports hold;
    # tolist() keeps a numpy bool a bool
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path, doc):
    """Write a report document: sorted keys, one-space indent, trailing
    newline. Non-finite floats are written as NaN/Infinity, because a
    diverged run's partial report records its non-finite loss."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=_plain)
        fh.write("\n")


def write_csv(path, header, rows):
    """Write a table with minimal quoting (scheme strings hold commas).
    Floats are written with repr and there are no timestamps, so reruns
    with the same config are byte-identical."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(c)) if isinstance(c, (float, np.floating)) else c
                 for c in row]
            )


def _check_divergence(step, loss, initial_loss, partial_report_fn):
    limit = DIVERGENCE_FACTOR * max(initial_loss, 1e-30)
    if not math.isfinite(loss) or loss > limit:
        raise DivergenceError(step, loss, report=partial_report_fn())


# ---------------------------------------------------------------------------
# Adapter fitting


def _rank(delta):
    # a diverged fit's delta may be non-finite, which has no SVD
    return numerical_rank(delta) if np.isfinite(delta).all() else None


class _Block:
    """The adapters a fit trains as one stack: those sharing a frozen
    ``network()`` (core and factor objects) and shape, or one adapter with
    none. ``params[i]`` and ``grads[i]``, views of the optimizer's buffers,
    stack every member's i-th trainable array and its gradient; member k's
    arrays are its rows of ``params``. Member 0's family forms the stack's
    deltas and gradients.
    """

    def __init__(self, names, adapters, params, grads):
        shapes = [x.shape for x in adapters[0].trainable_arrays()]
        self.names, self.adapters = names, adapters
        self.params, self.grads = _views(params, shapes), _views(grads, shapes)
        for k, adapter in enumerate(adapters):
            adapter.bind_trainable([p[k] for p in self.params])

    def deltas(self):
        """``(members, rows, cols)``: every member's delta."""
        return self.adapters[0].deltas(self.params)

    def backward(self, upstream):
        """Write the gradients of ``<upstream[k], member k's delta>`` into
        ``grads``."""
        self.adapters[0].gradients(self.params, upstream, out=self.grads)


def _own(adapters, cfg):
    """A fit's optimizer over ``adapters`` (name -> adapter), and its blocks."""
    groups = {}
    for name, a in adapters.items():
        network = _checked(a).network()
        key = name if network is None else (id(network[0]), *map(id, network[1]), a.shape)
        groups.setdefault(key, []).append(name)
    opt = _Optimizer(cfg, [np.stack([np.concatenate([np.ravel(x) for x in adapters[n]
                                                      .trainable_arrays()]) for n in names])
                           for names in groups.values()])
    return opt, [_Block(names, [adapters[n] for n in names], params, grads)
                 for names, params, grads in zip(groups.values(), opt.params, opt.grads)]


def _fit_adapters(adapters, opt, blocks, objective, config, summary) -> TrainReport:
    """The loop of every adapter fit, in place over ``adapters`` (name ->
    adapter, named as in ``delta_ranks``), of which ``_own`` made ``opt``
    and ``blocks``.

    Steps 0..max_steps are evaluated with one optimizer step between two.
    ``objective()`` writes the gradients into the blocks' ``grads`` and
    returns the loss and the deltas it formed, by name (empty when it formed
    none). A loss that is non-finite or above DIVERGENCE_FACTOR times step
    0's raises DivergenceError with the partial report. The report ranks the
    last evaluated deltas, materialized once here when the objective formed
    none (the rank of a non-finite delta is None), and takes its final loss
    and metrics from ``summary(deltas, loss)``. Its ``timings`` add up the
    time spent in the objective, in the optimizer and in building the report.
    """
    t0 = time.perf_counter()
    max_steps = opt.cfg.max_steps
    curve = []
    timings = {"objective_s": 0.0, "optimizer_s": 0.0}
    norms = {"steps": [], "gradient": {n: [] for n in adapters},
             "trainable": {n: [] for n in adapters}}

    def record_norms(step):
        norms["steps"].append(step)
        for key, stacks in (("gradient", opt.grads), ("trainable", opt.params)):
            for b, stack in zip(blocks, stacks):
                for name, norm in zip(b.names, np.linalg.norm(stack, axis=1)):
                    norms[key][name].append(float(norm))

    def report(loss, deltas):
        start = time.perf_counter()
        if norms["steps"][-1] != len(curve) - 1:
            record_norms(len(curve) - 1)
        deltas = deltas or {name: materialize_delta(a) for name, a in adapters.items()}
        final_loss, metrics = summary(deltas, loss)
        ranks = {name: _rank(d) for name, d in deltas.items()}
        end = time.perf_counter()
        return TrainReport(
            loss_curve=list(curve),
            final_loss=final_loss,
            wall_time_seconds=end - t0,
            trainable_param_count=sum(trainable_param_count(a) for a in adapters.values()),
            delta_ranks=ranks,
            config=config,
            metrics=metrics,
            timings=dict(timings, report_s=end - start),
            norms=norms,
        )

    for step in range(max_steps + 1):
        start = time.perf_counter()
        loss, deltas = objective()
        timings["objective_s"] += time.perf_counter() - start
        curve.append((step, loss))
        if step & (step - 1) == 0:
            record_norms(step)
        _check_divergence(step, loss, curve[0][1], lambda: report(loss, deltas))
        if step < max_steps:
            start = time.perf_counter()
            opt.step()
            timings["optimizer_s"] += time.perf_counter() - start
    return report(loss, deltas)


def _recovery_objective(block, target):
    """``fit_recovery``'s objective over its block: on the delta, or for a
    frozen network in the core's coordinates.

    There the Grams G_m = F_m F_m^T and the pulled target T~ = fold(T) x_m
    F_m are formed once. A step forms S = C * (outer product of the d
    vectors) and P = S x_m G_m - T~, the residual delta - T pulled through
    every factor, weights it by the core in place and reduces C * P to the
    gradients. Mode 0's is g_0 = C * P contracted with every other d vector,
    so <S, P> = <d_0, g_0> and the loss is (<d_0, g_0> - <S, T~> + ||T||^2)
    / 2. The delta is never formed; the expanded loss carries about eps *
    ||T||^2 of absolute rounding.
    """
    network = block.adapters[0].network()
    if network is None:
        def objective():
            delta = block.deltas()[0]
            diff = delta - target
            block.backward(diff[None])
            return 0.5 * float(np.sum(diff * diff)), {"adapter": delta}

        return objective
    core, factors, _ = network
    pulled = _pull(np.reshape(target, [1] + _mode_sizes(core, factors)), factors)
    grams = [None if f is None else f @ f.T for f in factors]
    target_sq = float(np.sum(target * target))

    def objective():
        s = _scaled_core(core, block.params)
        p = _pull(s, grams) - pulled
        p *= core
        _reduce_by_d_vectors(p, block.params, out=block.grads)
        s_p = float(np.vdot(block.params[0], block.grads[0]))
        return 0.5 * (s_p - float(np.vdot(s, pulled)) + target_sq), {}

    return objective


def fit_recovery(adapter, task: RecoveryTask, cfg: OptimizerConfig) -> TrainReport:
    """Minimize half the squared Frobenius distance to the target in place.

    Works for every adapter family. A family with a frozen network
    (``network()``: tera, tera_iden, vera) trains in the core's coordinates
    and materializes its delta once, for the report; the others materialize
    it every step. The final loss and residuals come from that delta.
    Deterministic given the adapter state, task, and config. Raises
    DivergenceError (with the partial report attached) if the loss explodes
    or becomes non-finite.
    """
    if adapter.shape != task.shape:
        raise ValueError(f"adapter shape {adapter.shape} != target {task.shape}")
    target_norm = float(np.linalg.norm(task.target))

    def summary(deltas, loss):
        diff = deltas["adapter"] - task.target
        residual = float(np.linalg.norm(diff))
        return 0.5 * float(np.sum(diff * diff)), {
            "final_residual": residual,
            "final_relative_residual": residual / max(target_norm, 1e-30)}

    config = {"task": task.describe(), "optimizer": cfg.to_dict(),
              "family": adapter.variant, "shape": list(adapter.shape)}
    adapters = {"adapter": adapter}
    opt, blocks = _own(adapters, cfg)
    return _fit_adapters(adapters, opt, blocks, _recovery_objective(blocks[0], task.target),
                         config, summary)


def ablate_schemes(schemes, families, cfg: OptimizerConfig, targets, master_seed=0,
                   target_seed=0):
    """Recovery of ``targets`` Gaussian targets (seeds ``target_seed``,
    ``target_seed + 1``, ...) by each tensor-network family at each scheme,
    every fit from a fresh adapter on one store of ``master_seed``.

    Returns one row ``(scheme, family, trainable params, mean final relative
    residual)`` per scheme and family, scheme-major. A family other than tera
    or tera_iden, or fewer than one target, raises ValueError.
    """
    if targets < 1:
        raise ValueError(f"targets must be at least 1, got {targets}")
    for family in families:
        if family not in ("tera", "tera_iden"):
            raise ValueError(f"ablation sweeps the tensor-network variants, not {family!r}")
    rows, store = [], FrozenFactorStore(master_seed)
    for scheme in schemes:
        j1, j2 = scheme.rows, scheme.cols
        for family in families:
            residuals = []
            for t in range(targets):
                adapter = build_adapter(family, j1, j2, store=store, scheme=scheme)
                task = gaussian_recovery_task(j1, j2, seed=target_seed + t)
                report = fit_recovery(adapter, task, cfg)
                residuals.append(report.metrics["final_relative_residual"])
            rows.append((scheme, family, trainable_param_count(adapter),
                         float(np.mean(residuals))))
    return rows


# ---------------------------------------------------------------------------
# Alternating least squares


@dataclass
class AlsResult:
    """Upper bound on the family's best squared recovery error.

    ``value`` is the smallest ``||target - delta||_F^2`` found across starts,
    sweeps, and a Gauss-Newton run that kept ``polish_steps_kept`` steps
    from ``value_before_polish``; the true minimum can only be lower.
    ``stop`` says how ALS ended: ``floor`` (at the rounding floor), else
    ``stalled`` when a sweep lowered the objective by less than ``64 * eps``
    relative (``last_sweep_rel_change``), which ends the sweeps, or
    ``sweeps`` when every sweep ran.
    ``svd_solves`` counts the sweep subproblems, one per start and mode,
    solved by SVD instead of the normal equations (``_solve_stacked``);
    every ridge fallback is one of them.
    """

    value: float
    d_vectors: list
    ridge_fallbacks: int
    sweep_values: list  # per-sweep objective of the best ALS start
    polish_steps_kept: int = 0
    stop: str = "sweeps"
    svd_solves: int = 0

    @property
    def value_before_polish(self):
        """The best start's objective after the last sweep that ran, where
        the Gauss-Newton run that produced ``value`` started."""
        return self.sweep_values[-1]

    @property
    def last_sweep_rel_change(self):
        """Relative drop of the objective over the best start's last sweep:
        near 0 once ALS has stalled, larger while it is still moving, as it
        often is when a hand-over probe reaches the floor. None after a
        single sweep, which has no earlier objective to compare."""
        if len(self.sweep_values) < 2:
            return None
        return _rel_drop(*self.sweep_values[-2:])


def _rel_drop(before, last):
    """The relative drop from ``before`` to ``last``, 0 where ``before`` is 0."""
    return (before - last) / before if before > 0 else 0.0


def _matvecs(a, x):
    """``a[s] @ x[s]`` for every member s of a stack of matrices and vectors."""
    return (a @ x[..., None])[..., 0]


# ALS forms its design matrices from one precomputed operator per mode while
# each holds at most this many entries (rows * cols * prod(ranks)), 512 KiB.
# Past that the GEMM costs more than forming them directly (timeit, 7 starts:
# 0.75x the direct time at 2**16 entries, 2.4x at 2**18), and memory grows.
_DESIGN_OPERATOR_MAX_ENTRIES = 1 << 16


def _operator_designs(core, factors):
    """``design(d_stacks, mode)``, equal up to rounding to
    ``_design_matrices(core, factors, d_stacks, mode)``.

    The delta is multilinear in the d vectors, so every member's design
    matrix on mode m is the outer product of its other modes' d vectors
    (``_outer``) times a fixed operator ``K_m`` of shape (product of the
    other ranks, ``rows * cols * ranks[m]``): one GEMM for the whole stack.
    Every ``K_m`` is a transpose of one ``(r_0, ..., r_{n-1}, rows * cols)``
    tensor, mode 0's design matrices on a one-hot stack over the other
    modes' ranks. Above ``_DESIGN_OPERATOR_MAX_ENTRIES`` entries per
    operator, ``design`` is ``_design_matrices`` itself.
    """
    ranks = core.shape
    if core.size * math.prod(_mode_sizes(core, factors)) > _DESIGN_OPERATOR_MAX_ENTRIES:
        return lambda d_stacks, mode: _design_matrices(core, factors, d_stacks, mode)
    members = math.prod(ranks[1:])
    grid = np.indices(ranks[1:]).reshape(len(ranks) - 1, members)
    one_hot = [np.zeros((members, ranks[0]))] + [np.eye(r)[g] for r, g in zip(ranks[1:], grid)]
    full = _design_matrices(core, factors, one_hot, 0)  # (members, rows * cols, r_0)
    full = np.moveaxis(full, -1, 0).reshape(ranks + (-1,))
    operators = [np.moveaxis(full, m, -1).reshape(-1, full.shape[-1] * r)
                 for m, r in enumerate(ranks)]

    def design(d_stacks, mode):
        others = _outer(d_stacks[:mode] + d_stacks[mode + 1:])
        return (others @ operators[mode]).reshape(len(others), -1, ranks[mode])

    return design


# A member whose Gram matrix G has ||G||_F * ||G^-1||_F above this, so
# cond(phi) above about 1e4, is solved by the SVD, not the normal equations.
_GRAM_CONDITION_LIMIT = 1e8


def _solve_stacked(phi, w, previous, ridge):
    """Least squares ``min ||w - phi[s] @ x||`` for every member s of a
    ``(members, rows, r)`` stack, from the r x r normal equations.

    Every member is solved with the inverse of its Gram matrix
    ``G = phi[s]^T phi[s]`` (one ``np.linalg.inv`` of the stack), accurate
    to about ``cond(G) * eps`` relative. Members whose estimate
    ``||G||_F * ||G^-1||_F`` is above ``_GRAM_CONDITION_LIMIT`` or not
    finite, or the whole stack when some G is exactly singular, go to
    ``_solve_by_svd`` instead. Every member that ``np.linalg.lstsq``'s rank
    rule finds deficient has cond(phi) above ``1 / (eps * max(rows, r))``,
    far past the limit, so only the SVD runs the ridge fallback. Returns the
    ``(members, r)`` solutions, the number of members that fell back and
    the number handed to the SVD.
    """
    phi_t = phi.transpose(0, 2, 1)
    gram = phi_t @ phi
    rhs = phi_t @ w
    try:
        inverse = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        solution, to_svd = np.empty_like(rhs), np.arange(len(phi))
    else:
        solution = _matvecs(inverse, rhs)
        # squared Frobenius norms; a NaN fails the test and goes to the SVD
        estimate = (np.einsum("sij,sij->s", gram, gram)
                    * np.einsum("sij,sij->s", inverse, inverse))
        to_svd = np.flatnonzero(~(estimate <= _GRAM_CONDITION_LIMIT ** 2))
    if not to_svd.size:
        return solution, 0, 0
    solution[to_svd], fell_back = _solve_by_svd(phi[to_svd], w, previous[to_svd], ridge)
    return solution, fell_back, to_svd.size


def _solve_by_svd(phi, w, previous, ridge):
    """``_solve_stacked`` for the members its normal equations cannot
    resolve, from one SVD of their stack.

    A member's rank counts the singular values above ``eps * max(rows, r)``
    times its largest one (``np.linalg.lstsq``'s ``rcond=None`` rule), and
    its solution is the minimum-norm one on those. A rank-deficient member
    falls back to a ridge solve, kept only when its residual is no larger
    than that of ``previous[s]`` (else ``previous[s]`` stays). Returns the
    ``(members, r)`` solutions and the number of members that fell back.
    """
    rows, r = phi.shape[1:]
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    kept = s > np.finfo(float).eps * max(rows, r) * s[:, :1]
    coef = np.divide(u.transpose(0, 2, 1) @ w, s, out=np.zeros_like(s), where=kept)
    solution = _matvecs(vt.transpose(0, 2, 1), coef)
    deficient = np.flatnonzero(kept.sum(axis=1) < r)
    if deficient.size:
        sub, held = phi[deficient], previous[deficient]
        sub_t = sub.transpose(0, 2, 1)
        gram = sub_t @ sub + ridge * np.eye(r)
        candidate = np.linalg.solve(gram, (sub_t @ w)[..., None])[..., 0]
        # Keep the ridge solution only when it does not undo the monotone
        # decrease an exact minimizer would give.
        better = (np.linalg.norm(w - _matvecs(sub, candidate), axis=1)
                  <= np.linalg.norm(w - _matvecs(sub, held), axis=1))
        solution[deficient] = np.where(better[:, None], candidate, held)
    return solution, deficient.size


def als_approx_error(
    adapter: TeraAdapter,
    target: np.ndarray,
    sweeps: int = 50,
    extra_starts: int = 3,
    polish_steps: int = 200,
    seed: int = 0,
) -> AlsResult:
    """Alternating least squares over the d vectors, handed over to Gauss-Newton.

    With all other modes fixed, the delta is linear in one mode's d vector,
    so each subproblem is exact least squares on that mode's design matrix
    (built as described below). Modes are swept cyclically; the objective
    is monotone non-increasing within a sweep because each update is an
    exact minimizer (rank-deficient subproblems fall back to a ridge solve
    and are kept only if they do not increase the objective). A sweep's
    objective is the last subproblem's residual ``||w - phi @ d||^2``,
    so sweeps never materialize the delta.

    Gauss-Newton runs from the first start whose sweep objective is smallest:
    minimum-norm steps with every mode's design matrix side by side as the
    Jacobian, each kept only if the objective falls strictly. It goes on
    while the step just kept cut the objective at least fourfold or by more
    than the step before, and stops at the first step that fails, after
    ``polish_steps`` kept steps, or at the rounding floor
    ``64 * eps**2 * ||target||^2`` (float64 ``eps``). It runs as a hand-over
    probe after every power-of-two sweep: a probe at the floor ends ALS with
    its result, any other is discarded and the sweeps go on from their own
    state. After the last sweep it runs as the polish, whose result is kept.
    The sweeps also end at the first one that lowers the best start's
    objective by less than ``64 * eps`` relative (``stop == "stalled"``),
    and the polish runs from there. With ``polish_steps=0`` no probe runs:
    the result is the sweeps' own, and they stall at the same sweep. The
    adapter is never mutated. A non-finite target or a negative count raises
    ``ValueError``.

    Multiple starts matter: the zero-initialized state is a stationary point
    where every subproblem for the other modes degenerates, so ALS begins
    from all-ones plus ``extra_starts`` random d assignments. The starts run
    stacked: each mode's d vectors are one ``(starts, rank)`` array, and
    ``_solve_stacked`` solves each subproblem for every start at once from
    the r x r normal equations, handing the ill-conditioned starts (every
    rank-deficient one among them) to an SVD; ``svd_solves`` counts those.

    The design matrices come from one precomputed operator per mode
    (``_operator_designs``): mode m's, for every start at once, are the
    outer product of the other modes' d vectors times a fixed
    ``(prod of the other ranks, rows * cols * ranks[m])`` operator, one
    GEMM. Each call builds the operators once, all from one evaluation of
    ``_design_matrices``, and every sweep subproblem, Gauss-Newton Jacobian
    and trial matrix then reads them. An operator holds
    ``rows * cols * prod(ranks)`` entries; above
    ``_DESIGN_OPERATOR_MAX_ENTRIES`` the design matrices are formed
    directly by ``_design_matrices``, which agrees to rounding.
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    if extra_starts < 0:
        raise ValueError("extra_starts must be >= 0")
    if polish_steps < 0:
        raise ValueError("polish_steps must be >= 0")
    if not isinstance(adapter, TeraAdapter):
        raise TypeError("alternating least squares applies to the tensor-network family")
    target = np.asarray(target, dtype=float)
    if target.shape != adapter.shape:
        raise ValueError(f"target shape {target.shape} != adapter {adapter.shape}")
    if not np.isfinite(target).all():
        raise ValueError("target holds non-finite values")

    core, factors, _ = adapter.network()
    design = _operator_designs(core, factors)
    ranks = adapter.scheme.ranks
    w_vec = target.ravel()
    rng = np.random.default_rng(seed)
    # one draw in the order of a start-by-start, mode-by-mode loop
    drawn = np.split(rng.standard_normal((extra_starts, sum(ranks))), np.cumsum(ranks)[:-1],
                     axis=1)
    d_stacks = [np.vstack([np.ones(r), x]) for r, x in zip(ranks, drawn)]
    eps = np.finfo(float).eps
    floor = 64 * eps ** 2 * float(np.sum(target * target))

    def gauss_newton(values, phi, residual):
        # The minimum-norm step absorbs the scale gauge's null space, and the
        # last mode's design matrix at a kept trial ends the next Jacobian.
        best = int(np.argmin(values))
        d, last, res = [x[best:best + 1] for x in d_stacks], phi[best], residual[best]
        value = before = float(values[best])
        kept, fast = 0, True
        while fast and kept < polish_steps and value > floor:
            jacobian = np.hstack([design(d, m)[0] for m in range(len(ranks) - 1)] + [last])
            step = np.linalg.lstsq(jacobian, res, rcond=None)[0]
            trial = [x + s for x, s in zip(d, np.split(step, np.cumsum(ranks)[:-1]))]
            trial_last = design(trial, len(ranks) - 1)[0]
            trial_res = w_vec - trial_last @ trial[-1][0]
            trial_value = float(trial_res @ trial_res)
            if not trial_value < value:
                break
            # go on while the cut value / trial_value is at least 4 or above the last
            fast = 4 * trial_value <= value or value * value > trial_value * before
            before, value, d, last, res = value, trial_value, trial, trial_last, trial_res
            kept += 1
        return best, value, d, kept

    ridge_fallbacks, svd_solves, sweep_values = 0, 0, []  # sweep_values: (starts,) per sweep
    for n in range(1, sweeps + 1):
        for mode in range(len(ranks)):
            phi = design(d_stacks, mode)
            d_stacks[mode], fell_back, to_svd = _solve_stacked(phi, w_vec, d_stacks[mode], 1e-10)
            ridge_fallbacks += fell_back
            svd_solves += to_svd
        # the last mode's phi @ solution is each start's delta after this sweep
        residual = w_vec - _matvecs(phi, d_stacks[-1])
        sweep_values.append(np.einsum("sk,sk->s", residual, residual))
        best = int(np.argmin(sweep_values[-1]))
        stalled = n > 1 and _rel_drop(sweep_values[-2][best], sweep_values[-1][best]) < 64 * eps
        if n == sweeps or stalled or (polish_steps > 0 and n & (n - 1) == 0):
            best, value, d, kept = gauss_newton(sweep_values[-1], phi, residual)
            if value <= floor or stalled:
                break
    return AlsResult(
        value=value,
        d_vectors=[x[0].copy() for x in d],
        ridge_fallbacks=ridge_fallbacks,
        sweep_values=np.array(sweep_values)[:, best].tolist(),
        polish_steps_kept=kept,
        svd_solves=svd_solves,
        stop="floor" if value <= floor else "stalled" if stalled else "sweeps",
    )


# ---------------------------------------------------------------------------
# Toy MLP adaptation


_MLP_TEACHER_TAG = 11
_MLP_DATA_TAG = 12
_MLP_INIT_TAG = 13
_MLP_ROTATION_TAG = 14


@dataclass
class MlpAdaptTask:
    """Frozen pretrained MLP plus source/target datasets.

    The target task feeds the network rotated inputs while keeping the labels
    of the unrotated ones, so a good adaptation must effectively undo an
    orthogonal rotation: a full-rank change to the first weight matrix.
    """

    base_weights: list
    n_classes: int
    source_train: tuple
    source_test: tuple
    target_train: tuple
    target_test: tuple
    seed: int
    pretrain_config: dict
    layer_sizes: tuple

    def describe(self):
        return {
            "kind": "mlp-adapt",
            "layer_sizes": list(self.layer_sizes),
            "n_classes": self.n_classes,
            "seed": self.seed,
            "pretrain": self.pretrain_config,
            "n_train": int(self.target_train[0].shape[0]),
            "n_test": int(self.target_test[0].shape[0]),
        }

    def rebuild_args(self):
        """The ``make_mlp_adapt_task`` arguments that rebuild the base weights
        bit for bit."""
        return dict(layer_sizes=list(self.layer_sizes), n_classes=self.n_classes,
                    n_train=len(self.target_train[1]), n_test=len(self.target_test[1]),
                    seed=self.seed, pretrain_steps=self.pretrain_config["steps"])


def _mlp_forward(weights, x, n_classes):
    """The input followed by every layer's output: tanh after each hidden
    layer, none after the last, which forms only its first ``n_classes``
    outputs (the only ones the loss and the predictions read)."""
    activations = [x]
    last = len(weights) - 1
    for layer, w in enumerate(weights):
        if layer < last:
            h = activations[-1] @ w.T
            np.tanh(h, out=h)
        else:
            h = activations[-1] @ w[:n_classes].T
        activations.append(h)
    return activations


def mlp_predict(weights, x, n_classes):
    return np.argmax(_mlp_forward(weights, x, n_classes)[-1], axis=1)


def mlp_accuracy(weights, data, n_classes) -> float:
    x, y = data
    return float(np.mean(mlp_predict(weights, x, n_classes) == y))


def _mlp_loss_and_grads(weights, x, y, n_classes, grads):
    """Cross-entropy on the first ``n_classes`` outputs; gradients per weight,
    written into ``grads`` (arrays shaped as the weights), which it returns.

    Only what the loss reads is formed: the last layer's first ``n_classes``
    rows, whose gradient fills those rows (the other rows are set to exactly
    zero), and no gradient with respect to the input ``x``. Each hidden
    activation becomes its layer's ``dz`` in place once nothing reads it.
    """
    activations = _mlp_forward(weights, x, n_classes)
    dscores = activations[-1]
    dscores = np.exp(dscores - dscores.max(axis=1, keepdims=True))
    dscores /= dscores.sum(axis=1, keepdims=True)
    n, rows = x.shape[0], (np.arange(x.shape[0]), y)
    loss = float(-np.mean(np.log(dscores[rows] + 1e-300)))
    dscores[rows] -= 1.0
    dscores /= n
    last = len(weights) - 1
    np.matmul(dscores.T, activations[last], out=grads[last][:n_classes])
    grads[last][n_classes:] = 0.0
    dh = dscores @ weights[last][:n_classes]
    for layer in range(last - 1, -1, -1):
        dz = activations[layer + 1]  # out, read for the last time: dh * (1 - out^2)
        dz *= dz
        np.subtract(1.0, dz, out=dz)
        dz *= dh
        np.matmul(dz.T, activations[layer], out=grads[layer])
        if layer > 0:
            dh = dz @ weights[layer]
    return loss, grads


def _train_weights(weights, data, n_classes, cfg: OptimizerConfig):
    """The full-weight loop: ``cfg.max_steps`` optimizer steps on every MLP
    weight of the list ``weights``, whose entries become the optimizer's
    views. Raises DivergenceError, without a report, on a loss that is
    non-finite or above DIVERGENCE_FACTOR times step 0's."""
    opt = _Optimizer(cfg, weights)
    weights[:] = opt.params
    x, y = data
    for step in range(cfg.max_steps):
        loss, _ = _mlp_loss_and_grads(weights, x, y, n_classes, opt.grads)
        if step == 0:
            initial_loss = loss
        _check_divergence(step, loss, initial_loss, lambda: None)
        opt.step()


def make_mlp_adapt_task(
    layer_sizes=(64, 64, 64, 64),
    n_classes=8,
    n_train=1024,
    n_test=512,
    seed=0,
    pretrain_steps=300,
) -> MlpAdaptTask:
    """Build datasets, pretrain the base MLP on the source task, freeze it.

    ``layer_sizes`` lists the layer widths, so ``len(layer_sizes) - 1`` weight
    matrices are created. Every width is at least 1, ``n_classes`` lies in
    [2, the output width], ``n_train`` and ``n_test`` are at least 1 and
    ``pretrain_steps`` is at least 0; anything else raises ValueError naming
    the argument. Labels come from a
    fixed random teacher network; the source task uses raw inputs, the
    target task rotates the inputs by a random orthogonal matrix while
    keeping the unrotated labels. Everything derives from ``seed``;
    rebuilding with the same arguments is bit-exact.
    """
    if len(layer_sizes) < 2:
        raise ValueError("layer_sizes needs at least two widths (one weight matrix)")
    if min(layer_sizes) < 1:
        raise ValueError(f"layer_sizes must be widths of at least 1, got {list(layer_sizes)}")
    if not 2 <= n_classes <= layer_sizes[-1]:
        raise ValueError(f"n_classes must be between 2 and the output width "
                         f"{layer_sizes[-1]}, got {n_classes}")
    for name, n in (("n_train", n_train), ("n_test", n_test)):
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")
    if pretrain_steps < 0:
        raise ValueError(f"pretrain_steps must be at least 0, got {pretrain_steps}")
    shapes = [(o, i) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])]

    def rng_for(tag):
        return np.random.default_rng(np.random.SeedSequence([tag, int(seed)]))

    teacher_rng = rng_for(_MLP_TEACHER_TAG)
    teacher = [
        teacher_rng.standard_normal(s) / math.sqrt(s[1]) for s in shapes
    ]
    data_rng = rng_for(_MLP_DATA_TAG)
    in_dim = layer_sizes[0]

    def labeled(n):
        x = data_rng.standard_normal((n, in_dim))
        y = mlp_predict(teacher, x, n_classes)
        return x, y

    source_train = labeled(n_train)
    source_test = labeled(n_test)
    rotation_rng = rng_for(_MLP_ROTATION_TAG)
    rotation, _ = np.linalg.qr(rotation_rng.standard_normal((in_dim, in_dim)))

    def rotated(n):
        x = data_rng.standard_normal((n, in_dim))
        y = mlp_predict(teacher, x, n_classes)
        return x @ rotation.T, y

    target_train = rotated(n_train)
    target_test = rotated(n_test)

    init_rng = rng_for(_MLP_INIT_TAG)
    weights = [init_rng.standard_normal(s) / math.sqrt(s[1]) for s in shapes]
    pretrain_cfg = OptimizerConfig(
        algorithm="adamw",
        learning_rate=1e-2,
        warmup_steps=min(100, pretrain_steps),
        max_steps=pretrain_steps,
    )
    _train_weights(weights, source_train, n_classes, pretrain_cfg)
    for w in weights:
        w.setflags(write=False)

    return MlpAdaptTask(
        base_weights=weights,
        n_classes=n_classes,
        source_train=source_train,
        source_test=source_test,
        target_train=target_train,
        target_test=target_test,
        seed=int(seed),
        pretrain_config={"steps": pretrain_steps},
        layer_sizes=tuple(layer_sizes),
    )


def build_adapter(
    family,
    j1,
    j2,
    *,
    store=None,
    scheme=None,
    rank=8,
    seed=0,
    w0=None,
    w0_seed=None,
):
    """Construct a zero-delta adapter of the named family.

    ``family`` is one of tera, tera_iden, lora, vera, hira. The tensor-network
    families default to a one-sided scheme (row dimension kept whole, column
    dimension split into modes of size 4) when no scheme is given. hira masks
    ``w0``, or else the synthetic base weight of ``w0_seed`` (``init_hira``).
    """
    if family in ("tera", "tera_iden", "vera") and store is None:
        raise ValueError(f"{family} needs a frozen-factor store")
    if family in ("tera", "tera_iden"):
        if scheme is None:
            scheme = TensorizationScheme.one_sided(j1, j2, 4)
        return init_tera(
            j1, j2, scheme, store, identity_factors=(family == "tera_iden")
        )
    if family == "lora":
        return init_lora(j1, j2, rank, seed=seed)
    if family == "vera":
        return init_vera(j1, j2, rank, store)
    if family == "hira":
        return init_hira(j1, j2, rank, w0=w0, seed=seed, w0_seed=w0_seed)
    raise ValueError(f"unknown adapter family {family!r}")


def fit_mlp_adapt(
    task: MlpAdaptTask,
    family,
    cfg: OptimizerConfig,
    *,
    store=None,
    scheme=None,
    rank=8,
    adapter_seed=0,
):
    """Train adapters on the target task with the base MLP frozen.

    Returns ``(report, adapters)`` where ``adapters`` maps layer index to the
    trained adapter. Only adapter parameters move; the base weights stay
    read-only throughout. The report records target-task accuracy before and
    after adaptation plus each delta's numerical rank. A hira adapter records
    its base weight as ``mlp_layer`` provenance, which ``load_adapter``
    rebuilds from the task. Layers whose adapters share one frozen network
    and shape train as one stack (``_Block``).
    """
    adapters = {}
    for layer, w0 in enumerate(task.base_weights):
        adapters[layer] = build_adapter(family, *w0.shape, store=store, scheme=scheme,
                                        rank=rank, seed=adapter_seed + layer, w0=w0)
        if family == "hira":
            adapters[layer].w0_provenance = {
                "kind": "mlp_layer", "layer": layer, "task": task.rebuild_args()}
    x, y = task.target_train
    base_accuracy = mlp_accuracy(task.base_weights, task.target_test, task.n_classes)
    layers = {f"layer{layer}": layer for layer in adapters}

    def adapted(deltas):
        weights = list(task.base_weights)
        for name, layer in layers.items():
            weights[layer] = weights[layer] + deltas[name]
        return weights

    named = {name: adapters[layer] for name, layer in layers.items()}
    opt, blocks = _own(named, cfg)
    # backprop writes each block's weight gradients into its upstream stack
    upstreams = [np.empty((len(b.names),) + b.adapters[0].shape) for b in blocks]
    weight_grads = [np.empty_like(w) for w in task.base_weights]
    for b, upstream in zip(blocks, upstreams):
        for name, u in zip(b.names, upstream):
            weight_grads[layers[name]] = u

    def objective():
        deltas = {name: d for b in blocks for name, d in zip(b.names, b.deltas())}
        loss, _ = _mlp_loss_and_grads(adapted(deltas), x, y, task.n_classes, weight_grads)
        for b, upstream in zip(blocks, upstreams):
            b.backward(upstream)
        return loss, deltas

    def summary(deltas, loss):
        weights = adapted(deltas)
        return loss, {
            "base_target_accuracy": base_accuracy,
            "target_test_accuracy": mlp_accuracy(weights, task.target_test, task.n_classes),
            "target_train_accuracy": mlp_accuracy(weights, task.target_train, task.n_classes),
        }

    config = {"task": task.describe(), "optimizer": cfg.to_dict(), "family": family,
              "rank": rank, "scheme": None if scheme is None else scheme.to_dict(),
              "adapter_seed": adapter_seed}
    return _fit_adapters(named, opt, blocks, objective, config, summary), adapters


def finetune_full(task: MlpAdaptTask, cfg: OptimizerConfig):
    """Unconstrained fine-tune of every weight on the target task.

    Returns ``(weights, per_layer_updates)`` where the updates are the ideal
    deltas an adapter would have to express. Used as the reference point for
    rank analysis of adapter families.
    """
    weights = [w.copy() for w in task.base_weights]
    _train_weights(weights, task.target_train, task.n_classes, cfg)
    updates = [w - b for w, b in zip(weights, task.base_weights)]
    return weights, updates


# ---------------------------------------------------------------------------
# Checkpoints with regenerated frozen parts


def load_adapter(path, tasks=None):
    """Load a checkpoint of any family through ``load_checkpoint``, with its
    frozen parts regenerated: the factor store from the recorded master seed,
    and a hira base weight of ``mlp_layer`` provenance from the rebuilt MLP
    task. ``tasks``, a dict, caches rebuilt tasks across calls. A document
    that cannot be read, rebuilt or loaded raises CheckpointError naming
    ``path``.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    doc = doc if isinstance(doc, dict) else {}
    seed = doc.get("master_seed")
    store = FrozenFactorStore(seed) if type(seed) is int and seed >= 0 else None
    w0_meta = doc.get("w0")
    provenance = w0_meta.get("provenance") if isinstance(w0_meta, dict) else None
    base_weight = None
    if isinstance(provenance, dict) and provenance.get("kind") == "mlp_layer":
        tasks = {} if tasks is None else tasks
        try:
            key = json.dumps(provenance["task"], sort_keys=True)
            if key not in tasks:
                kwargs = dict(provenance["task"])
                kwargs["layer_sizes"] = tuple(kwargs["layer_sizes"])
                tasks[key] = make_mlp_adapt_task(**kwargs)
            base_weight = tasks[key].base_weights[provenance["layer"]]
        except (KeyError, TypeError, ValueError, IndexError, DivergenceError) as exc:
            raise CheckpointError(
                f"cannot rebuild the base weight of {path}: {exc!r}") from exc
    try:
        return load_checkpoint(path, store=store, base_weight=base_weight)
    except CheckpointError as exc:
        raise CheckpointError(f"cannot load {path}: {exc}") from exc
