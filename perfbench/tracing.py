"""Span tracing of the tera modules, installed from outside the package.

The tracer replaces each traced public function at every module attribute
of the ``tera`` package that holds it (``tera.adapters.materialize_delta``,
``tera.training.materialize_delta``, ``tera.analysis.materialize_delta`` and
``tera.materialize_delta`` all point at one function), plus two methods on
their classes. Nothing under ``src/`` changes: modules look these names up
at call time, so internal calls are traced too. ``uninstall`` puts every
original back.

Spans are kept in memory as ``[span_id, parent_id, job, name, start, end]``
and written out when the run ends. Self time is a span's duration minus the
durations of its direct children. Counters that need the arguments or the
result (computed flops and bytes, store hits, verdicts) are kept beside the
spans by per-function probes.
"""

import functools
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

from tera import adapters, training

# (module, attribute, span name). The span name carries the layer prefix.
FUNCTIONS = [
    ("tera.tensor_ops", "mode_n_product", "tensor_ops.mode_n_product"),
    ("tera.tensor_ops", "numerical_rank", "tensor_ops.numerical_rank"),
    ("tera.tensor_ops", "tensor_spectral_norm", "tensor_ops.tensor_spectral_norm"),
    ("tera.tensor_ops", "pseudoinverse", "tensor_ops.pseudoinverse"),
    ("tera.tensor_ops", "kron_chain", "tensor_ops.kron_chain"),
    ("tera.adapters", "materialize_delta", "adapters.materialize_delta"),
    ("tera.adapters", "apply_delta", "adapters.apply_delta"),
    ("tera.adapters", "save_checkpoint", "adapters.checkpoint.save"),
    ("tera.adapters", "load_checkpoint", "adapters.checkpoint.load"),
    ("tera.training", "fit_recovery", "training.fit_recovery"),
    ("tera.training", "delta_gradient", "training.delta_gradient"),
    ("tera.training", "tera_gradient", "training.tera_gradient"),
    ("tera.training", "als_approx_error", "training.als_approx_error"),
    ("tera.training", "fit_mlp_adapt", "training.fit_mlp_adapt"),
    ("tera.training", "make_mlp_adapt_task", "training.make_mlp_adapt_task"),
    ("tera.analysis", "verify_expressivity_bound", "analysis.verify_expressivity_bound"),
    ("tera.analysis", "verify_rank_bound", "analysis.verify_rank_bound"),
    ("tera.analysis", "rank_report", "analysis.rank_report"),
    ("tera.cli", "main", "cli.main"),
]

# (class, method, span name). The optimizer class is private, but its step
# is the optimizer layer; every optimizer the package builds is this class.
METHODS = [
    (adapters.FrozenFactorStore, "tera_entry", "adapters.store.tera_entry"),
    (training._Optimizer, "step", "training.optimizer_step"),
]

_F8 = 8  # bytes per float64


# ---------------------------------------------------------------------------
# Computed operation and byte counts. They follow the array shapes of each
# contraction (two flops per multiply-add; bytes are every operand read plus
# every result written once), ignoring caches, so they are labelled computed.


def _mode_products(shape, mats):
    """Flops and bytes of successive mode products ``shape[i] -> mats[i][0]``."""
    shape = list(shape)
    flops = nbytes = 0
    for mode, (out_size, in_size) in mats:
        before = math.prod(shape)
        shape[mode] = out_size
        after = math.prod(shape)
        flops += 2 * out_size * before
        nbytes += _F8 * (before + out_size * in_size + after)
    return flops, nbytes


def _scaled_factor_cost(pairs):
    # ``factor * d`` for each mode: one multiply per factor entry.
    flops = sum(r * n for r, n in pairs)
    return flops, _F8 * sum(2 * r * n + r for r, n in pairs)


def _uncounted(what, adapter):
    # Only the calls the workloads make are modelled; a new one must be added
    # here rather than silently counted as zero.
    raise TypeError(f"no computed count for {what} of a {adapter.family} adapter")


def materialize_cost(adapter, path="mode"):
    j1, j2 = adapter.shape
    if isinstance(adapter, adapters.TeraAdapter) and path == "mode":
        s = adapter.scheme
        pairs = list(zip(s.ranks, s.mode_sizes))
        sf, sb = _scaled_factor_cost(pairs)
        mf, mb = _mode_products(
            s.ranks, [(i, (n, r)) for i, (r, n) in enumerate(pairs)]
        )
        return sf + mf, sb + mb
    if isinstance(adapter, adapters.VeraAdapter):
        r = adapter.rank
        flops = r * j2 + 2 * j1 * r * j2 + j1 * j2
        nbytes = _F8 * (r + 2 * r * j2 + j1 * r + 3 * j1 * j2 + j1)
        return flops, nbytes
    _uncounted(f"materialize_delta(path={path!r})", adapter)


def apply_cost(adapter):
    if not isinstance(adapter, adapters.TeraAdapter):
        _uncounted("apply_delta", adapter)
    s = adapter.scheme
    k = s.split
    pairs = list(zip(s.ranks, s.mode_sizes))
    sf, sb = _scaled_factor_cost(pairs)
    cf, cb = _mode_products(
        s.mode_sizes[k:], [(j, (r, n)) for j, (r, n) in enumerate(pairs[k:])]
    )
    core = math.prod(s.ranks)
    tf, tb = 2 * core, _F8 * (core + s.rank_cols + s.rank_rows)
    rf, rb = _mode_products(
        s.ranks[:k], [(i, (n, r)) for i, (r, n) in enumerate(pairs[:k])]
    )
    return sf + cf + tf + rf, sb + cb + tb + rb


def tera_gradient_cost(adapter):
    s = adapter.scheme
    pairs = list(zip(s.ranks, s.mode_sizes))
    pf, pb = _mode_products(
        s.mode_sizes, [(m, (r, n)) for m, (r, n) in enumerate(pairs)]
    )
    core = math.prod(s.ranks)
    # core * pulled, then per mode: scale by the other d vectors and sum.
    flops = core + s.order * s.order * core
    nbytes = _F8 * (3 * core + s.order * (2 * (s.order - 1) * core + s.order))
    return pf + flops, pb + nbytes


# ---------------------------------------------------------------------------
# Probes: (before, after). ``before(args, kwargs)`` returns a token handed to
# ``after(counters, name, args, kwargs, result, token)``.


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _computed(cost):
    def after(c, name, args, kwargs, result, token):
        flops, nbytes = cost(args, kwargs)
        c[name + ".flops_computed"] += flops
        c[name + ".bytes_computed"] += nbytes

    return after


def _store_size(args, kwargs):
    return len(args[0]._entries)


def _count_store_hit(c, name, args, kwargs, result, token):
    c[name + ".hits"] += len(args[0]._entries) == token


def _count_converged(c, name, args, kwargs, result, token):
    c[name + ".converged"] += bool(result.converged)


def _count_checkpoint_bytes(c, name, args, kwargs, result, token):
    c[name + ".bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_ridge(c, name, args, kwargs, result, token):
    c[name + ".ridge_fallbacks"] += result.ridge_fallbacks


def _count_verdict(c, name, args, kwargs, result, token):
    c[name + ".inconclusive"] += result.verdict == "inconclusive"


def _count_exit(c, name, args, kwargs, result, token):
    c[name + ".nonzero_exit"] += result != 0


PROBES = {
    "adapters.materialize_delta": (None, _computed(
        lambda a, kw: materialize_cost(a[0], _arg(a, kw, 1, "path", "mode")))),
    "adapters.apply_delta": (None, _computed(lambda a, kw: apply_cost(a[0]))),
    "training.tera_gradient": (None, _computed(lambda a, kw: tera_gradient_cost(a[0]))),
    "adapters.store.tera_entry": (_store_size, _count_store_hit),
    "tensor_ops.tensor_spectral_norm": (None, _count_converged),
    "adapters.checkpoint.save": (None, _count_checkpoint_bytes),
    "training.als_approx_error": (None, _count_ridge),
    "analysis.verify_expressivity_bound": (None, _count_verdict),
    "cli.main": (None, _count_exit),
}


class Tracer:
    """Wraps the traced functions and records spans while ``recording``."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.recording = False
        self.job = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        before, after = PROBES.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before else None
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [len(tracer.spans), parent, tracer.job, name, perf_counter(), 0.0]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[5] = perf_counter()
                tracer._stack.pop()
            if after:
                after(tracer.counters, name, args, kwargs, result, token)
            return result

        return traced

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "tera" or n.startswith("tera."))
        ]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def span_stats(self):
        """``{name: (calls, self_s, total_s)}`` aggregated over all spans."""
        child = [0.0] * len(self.spans)
        for span_id, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _, _, name, start, end in self.spans:
            s = stats[name]
            s[0] += 1
            s[1] += (end - start) - child[span_id]
            s[2] += end - start
        return stats

    def write_spans(self, path):
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,job,name,start_s,end_s\n")
            for span_id, parent, job, name, start, end in self.spans:
                fh.write(
                    f"{span_id},{parent},{job},{name},{start - t0:.9f},{end - t0:.9f}\n"
                )


# Per-layer metrics read from span statistics: span name -> statistics.
SPAN_METRICS = {
    "tensor_ops.mode_n_product": ("calls", "self_s"),
    "tensor_ops.numerical_rank": ("calls", "self_s"),
    "tensor_ops.tensor_spectral_norm": ("calls", "self_s"),
    "tensor_ops.pseudoinverse": ("self_s",),
    "tensor_ops.kron_chain": ("self_s",),
    "adapters.materialize_delta": ("calls", "self_s", "total_s"),
    "adapters.apply_delta": ("calls", "self_s", "total_s"),
    "adapters.store.tera_entry": ("calls", "self_s"),
    "training.fit_recovery": ("calls", "self_s"),
    "training.delta_gradient": ("calls", "self_s", "total_s"),
    "training.tera_gradient": ("calls", "self_s", "total_s"),
    "training.optimizer_step": ("calls", "self_s"),
    "training.als_approx_error": ("calls", "self_s", "total_s"),
    "training.fit_mlp_adapt": ("self_s",),
    "training.make_mlp_adapt_task": ("self_s",),
    "analysis.verify_expressivity_bound": ("calls", "self_s"),
    "analysis.verify_rank_bound": ("self_s",),
    "analysis.rank_report": ("self_s",),
    "cli.main": ("calls", "self_s"),
}

_STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, extra_counters):
    """Every per-layer metric as ``{name: (value, unit)}``.

    Layers the workload does not reach read 0. ``extra_counters`` holds the
    counts the benchmark takes outside spans (``cli.bytes_written``).
    """
    stats = tracer.span_stats()
    c = tracer.counters
    out = {}
    for name, fields in SPAN_METRICS.items():
        calls, self_s, total_s = stats.get(name, (0, 0.0, 0.0))
        values = {"calls": calls, "self_s": self_s, "total_s": total_s}
        for field in fields:
            out[f"{name}.{field}"] = (values[field], _STAT_UNITS[field])

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    for name in ("adapters.materialize_delta", "adapters.apply_delta",
                 "training.tera_gradient"):
        out[name + ".flops_computed"] = (c[name + ".flops_computed"], "flop")
        out[name + ".bytes_computed"] = (c[name + ".bytes_computed"], "B")
    sn = "tensor_ops.tensor_spectral_norm"
    out[sn + ".converged_ratio"] = (_ratio(c[sn + ".converged"], calls(sn)), "ratio")
    st = "adapters.store.tera_entry"
    out[st + ".hit_ratio"] = (_ratio(c[st + ".hits"], calls(st)), "ratio")
    out["adapters.checkpoint.save_s"] = (
        stats.get("adapters.checkpoint.save", (0, 0.0, 0.0))[2], "s")
    out["adapters.checkpoint.load_s"] = (
        stats.get("adapters.checkpoint.load", (0, 0.0, 0.0))[2], "s")
    out["adapters.checkpoint.bytes"] = (c["adapters.checkpoint.save.bytes"], "B")
    als = "training.als_approx_error"
    out[als + ".ridge_fallbacks"] = (c[als + ".ridge_fallbacks"], "count")
    ve = "analysis.verify_expressivity_bound"
    out[ve + ".inconclusive_ratio"] = (
        _ratio(c[ve + ".inconclusive"], calls(ve)), "ratio")
    out[ve + ".rejected_ratio"] = (
        _ratio(c[ve + ".raised.InstanceRejected"], calls(ve)), "ratio")
    out["cli.main.nonzero_exit"] = (c["cli.main.nonzero_exit"], "count")
    out["cli.bytes_written"] = (extra_counters.get("cli.bytes_written", 0), "B")
    return out
