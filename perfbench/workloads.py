"""The four benchmark workloads.

Each workload is a closed loop with one client: the next job starts when the
previous one has finished and been checked. Jobs come in cycles, and a run
stops only at a cycle boundary, so every run sees the same mix of job kinds.
A workload builds its inputs from the seed in ``setup`` (timed as set-up
time), runs one job in ``run_job`` (timed per job), and checks the job's
output in ``check`` (not timed), adding to the quality tallies there.

Sizes live in a config object so that the self-test can run every workload
at a tiny size through the same code.
"""

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tera import adapters, analysis, cli, tensor_ops, training

# Quality metrics and the workload each belongs to; elsewhere they read
# NOT_MEASURED.
QUALITY = {
    "rel_residual_tera_mean": "recovery_sweep",
    "verify_holds_fraction": "expressivity_verify",
    "planted_recovered_fraction": "expressivity_verify",
    "rank_full_fraction": "wide_scheme",
    "target_test_accuracy": "mlp_pipeline",
}
# The result line must carry every end-to-end metric on every workload, and
# a metric may never read 0, so a quality metric of another workload reads
# this constant.
NOT_MEASURED = 1.0


def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _seed_pair(rng):
    return int(rng.integers(2**31)), int(rng.integers(2**31))


def _rel_err(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _random_scalings(adapter, rng):
    # Same draw as the rank verifier: magnitudes in [0.5, 1.5], random sign.
    for d in adapter.d_vectors:
        d[:] = rng.uniform(0.5, 1.5, d.shape) * rng.choice([-1.0, 1.0], d.shape)
    return adapter


class Tally:
    """What one phase of a run measured: job times, failures, quality values.

    Quality values are kept per input instance and averaged over distinct
    instances, so an instance the loop revisits is not weighted twice.
    """

    def __init__(self):
        self.times = []
        self.failures = []
        self.values = {}
        self.counters = {}

    def record(self, key, instance, value):
        self.values.setdefault(key, {})[instance] = float(value)

    def mean(self, key):
        values = self.values.get(key)
        return sum(values.values()) / len(values) if values else float("nan")

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryConfig:
    shape: int = 64
    mode_size: int = 8
    steps: int = 1000
    pairs: int = 8


class RecoverySweep:
    """Independent ``fit_recovery`` jobs at 64x64, scheme ``64|8,8``.

    A cycle fits tera, tera_iden and vera (budget-matched) on one (target
    seed, store seed) pair, the shape of acceptance criteria 7 and 9. Stores
    and their frozen entries are built in set-up, so jobs hit the store.
    """

    name = "recovery_sweep"
    families = ("tera", "tera_iden", "vera")
    cycle = 3
    cycle_nominal_s = 0.8

    def __init__(self, config=RecoveryConfig()):
        self.cfg = config
        n = config.shape
        self.scheme = tensor_ops.TensorizationScheme.one_sided(n, n, config.mode_size)
        self.vera_rank = adapters.vera_rank_for_budget(n, self.scheme.num_trainable())
        self.opt = training.OptimizerConfig(
            learning_rate=0.05, max_steps=config.steps, seed=42
        )

    def setup(self, seed):
        rng = _rng(seed, 1)
        n = self.cfg.shape
        pool = []
        for _ in range(self.cfg.pairs):
            target_seed, store_seed = _seed_pair(rng)
            store = adapters.FrozenFactorStore(store_seed)
            store.tera_entry(self.scheme)
            store.vera_pair(n, n, self.vera_rank)
            pool.append((training.gaussian_recovery_task(n, n, target_seed), store))
        return pool

    def run_job(self, pool, i):
        task, store = pool[(i // self.cycle) % len(pool)]
        family = self.families[i % self.cycle]
        n = self.cfg.shape
        if family == "vera":
            adapter = adapters.init_vera(n, n, self.vera_rank, store)
        else:
            adapter = adapters.init_tera(
                n, n, self.scheme, store, identity_factors=family == "tera_iden"
            )
        return family, task, adapter, training.fit_recovery(adapter, task, self.opt)

    def check(self, pool, i, out, tally):
        family, task, adapter, report = out
        if isinstance(adapter, adapters.VeraAdapter):
            # Associated differently from materialize_delta's vera branch.
            delta = (adapter.b[:, None] * adapter.b_frozen) @ (
                adapter.d[:, None] * adapter.a_frozen
            )
        else:
            delta = adapters.materialize_delta(adapter, path="kron")
        recomputed = _rel_err(delta, task.target)
        reported = report.metrics["final_relative_residual"]
        if not (math.isfinite(reported) and abs(recomputed - reported) <= 1e-10):
            return (
                f"{family} residual {reported!r} != recomputed {recomputed!r}"
            )
        if family == "tera":
            tally.record("rel_residual_tera_mean", (i // self.cycle) % len(pool), reported)
        return None

    def quality(self, tally):
        return {"rel_residual_tera_mean": tally.mean("rel_residual_tera_mean")}


# ---------------------------------------------------------------------------


# 8x8 ``2,4|2,4``, the scheme of acceptance criterion 4.
EXPRESSIVITY_SCHEME = tensor_ops.TensorizationScheme((2, 4, 2, 4), 2)


@dataclass(frozen=True)
class ExpressivityConfig:
    extra_starts: int = 6
    sweeps: int = 50
    polish_steps: int = 200
    random_instances: int = 14
    planted_instances: int = 42


class ExpressivityVerify:
    """``verify_expressivity_bound(extra_starts=6)`` on 8x8 ``2,4|2,4``.

    A cycle verifies one random target and three planted targets. Random
    targets always hold (their right side is huge), so the planted ones,
    which ALS may fail to recover, carry most of the run; this keeps the
    recovered fraction steady across seeds. Rejected instances are counted,
    not skipped.

    The verifier can confirm the bound but never refute it: lhs comes from
    ALS and only upper-bounds the true minimum, so a verdict is ``holds`` or
    ``inconclusive``. An inconclusive verdict means ALS stopped above the
    optimum, which ``planted_recovered_fraction`` measures; it is not a
    failed job. What is checked is that lhs is a value some d vectors
    actually reach: for the first ``lhs_checks`` distinct instances of a
    run, ALS is rerun with the same arguments and its d vectors are
    materialized on the independent ``kron`` path.
    """

    name = "expressivity_verify"
    cycle = 4
    cycle_nominal_s = 2.6
    planted_tol = 1e-8
    lhs_checks = 8

    def __init__(self, config=ExpressivityConfig()):
        self.cfg = config

    def _als_args(self, seed):
        c = self.cfg
        return dict(sweeps=c.sweeps, extra_starts=c.extra_starts,
                    polish_steps=c.polish_steps, seed=seed)

    def setup(self, seed):
        rng = _rng(seed, 2)
        s = EXPRESSIVITY_SCHEME
        random_pool, planted_pool = [], []
        for _ in range(self.cfg.random_instances):
            master, verify_seed = _seed_pair(rng)
            store = adapters.FrozenFactorStore(master)
            adapter = adapters.init_tera(s.rows, s.cols, s, store)
            target = rng.standard_normal((s.rows, s.cols))
            random_pool.append((target, adapter, verify_seed))
        for _ in range(self.cfg.planted_instances):
            master, target_seed = _seed_pair(rng)
            store = adapters.FrozenFactorStore(master)
            task = training.planted_recovery_task(s, store, seed=target_seed)
            adapter = adapters.init_tera(s.rows, s.cols, s, store)
            planted_pool.append((task.target, adapter, target_seed))
        return {"pools": (random_pool, planted_pool), "lhs_checked": set()}

    def _instance(self, pools, i):
        """``(planted, index)`` of job ``i``'s instance in its pool."""
        c, k = divmod(i, self.cycle)
        if k == 0:
            return False, c % len(pools[0])
        return True, (c * (self.cycle - 1) + k - 1) % len(pools[1])

    def run_job(self, state, i):
        planted, index = self._instance(state["pools"], i)
        target, adapter, seed = state["pools"][planted][index]
        try:
            return analysis.verify_expressivity_bound(
                target, adapter, **self._als_args(seed)
            )
        except analysis.InstanceRejected:
            return None

    def _check_lhs(self, target, adapter, seed, lhs):
        """Recompute lhs from a rerun of ALS, materialized on the kron path."""
        als = training.als_approx_error(adapter, target, **self._als_args(seed))
        best = adapters.clone_trainable(adapter)
        for d, value in zip(best.d_vectors, als.d_vectors):
            d[:] = value
        diff = target - adapters.materialize_delta(best, path="kron")
        recomputed = float(np.sum(diff * diff))
        # Relative to the target's energy: a planted lhs is near 0, where
        # rounding alone exceeds any tolerance relative to lhs itself.
        scale = max(lhs, float(np.sum(target * target)))
        if not abs(recomputed - lhs) <= 1e-10 * scale:
            return f"lhs {lhs!r} but its d vectors reach {recomputed!r}"
        return None

    def check(self, state, i, report, tally):
        planted, index = self._instance(state["pools"], i)
        if report is None:
            tally.count("rejected", 1)
            return None
        lhs, rhs, tol = report.lhs, report.rhs, report.terms["tolerance"]
        if report.verdict not in ("holds", "inconclusive"):
            return f"verdict {report.verdict!r}"
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            return f"non-finite sides lhs={lhs!r} rhs={rhs!r}"
        if (report.verdict == "holds") != (lhs <= rhs + tol):
            return f"verdict {report.verdict} but lhs={lhs!r} rhs={rhs!r} tol={tol!r}"
        checked = state["lhs_checked"]
        if (planted, index) not in checked and len(checked) < self.lhs_checks:
            checked.add((planted, index))
            target, adapter, seed = state["pools"][planted][index]
            error = self._check_lhs(target, adapter, seed, lhs)
            if error:
                return error
        if planted:
            tally.record("planted_recovered_fraction", index,
                         report.verdict == "holds" and lhs <= self.planted_tol)
        else:
            tally.record("verify_holds_fraction", index, report.verdict == "holds")
        return None

    def quality(self, tally):
        return {
            "verify_holds_fraction": tally.mean("verify_holds_fraction"),
            "planted_recovered_fraction": tally.mean("planted_recovered_fraction"),
        }


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WideConfig:
    # Two 256x256 schemes: a few large modes, and many small ones.
    schemes: tuple = (((16, 16, 16, 16), 2), ((4,) * 8, 4))
    big: tuple = ((64, 64, 64, 64), 2)  # 4096x4096, a 134 MB core
    pool: int = 8


class WideScheme:
    """Large shapes, read path and write path.

    One job runs a rank-bound trial (a new store, so the store misses) and a
    ``tera_gradient`` at each 256x256 scheme, a factored ``apply_delta`` at
    each of them, and one at 4096x4096, which reads the whole core.
    """

    name = "wide_scheme"
    cycle = 1
    cycle_nominal_s = 0.05

    def __init__(self, config=WideConfig()):
        self.cfg = config
        self.schemes = [tensor_ops.TensorizationScheme(m, k) for m, k in config.schemes]
        self.big = tensor_ops.TensorizationScheme(*config.big)

    def _adapter(self, scheme, rng):
        store = adapters.FrozenFactorStore(int(rng.integers(2**31)))
        adapter = adapters.init_tera(scheme.rows, scheme.cols, scheme, store)
        return _random_scalings(adapter, rng)

    def setup(self, seed):
        rng = _rng(seed, 3)
        p = self.cfg.pool
        state = {"seed": int(seed), "small": [], "dense": {}}
        for s in self.schemes:
            state["small"].append((
                self._adapter(s, rng),
                [rng.standard_normal((s.rows, s.cols)) for _ in range(p)],
                [rng.standard_normal(s.cols) for _ in range(p)],
            ))
        state["big"] = self._adapter(self.big, rng)
        state["big_x"] = [rng.standard_normal(self.big.cols) for _ in range(p)]
        return state

    def run_job(self, state, i):
        k = i % self.cfg.pool
        trial_seed = state["seed"] * 1_000_003 + i
        out = []
        for s, (adapter, upstreams, xs) in zip(self.schemes, state["small"]):
            out.append((
                analysis.verify_rank_bound(s, trials=1, seed=trial_seed),
                training.tera_gradient(adapter, upstreams[k]),
                adapters.apply_delta(adapter, xs[k]),
            ))
        return out, adapters.apply_delta(state["big"], state["big_x"][k])

    def check(self, state, i, out, tally):
        small, y_big = out
        k = i % self.cfg.pool
        for j, (s, (rank_rep, grads, y)) in enumerate(zip(self.schemes, small)):
            if rank_rep.verdict != "holds" or rank_rep.lhs > rank_rep.rhs:
                return f"rank {rank_rep.lhs} above bound {rank_rep.rhs} at {s.mode_sizes}"
            tally.record("rank_full_fraction", (i, j), rank_rep.terms["full_rank_fraction"])
            adapter, _, xs = state["small"][j]
            if j not in state["dense"]:
                state["dense"][j] = adapters.materialize_delta(adapter, path="kron")
            err = _rel_err(y, state["dense"][j] @ xs[k])
            if not err <= 1e-10:
                return f"apply_delta off by {err:.3e} at {s.mode_sizes}"
            if not all(np.all(np.isfinite(g)) for g in grads):
                return f"non-finite tera_gradient at {s.mode_sizes}"
        if y_big.shape != (self.big.rows,) or not np.all(np.isfinite(y_big)):
            return "bad 4096 apply_delta output"
        return None

    def final_check(self, state):
        """Factored apply at 4096 against the materialized delta, once a run.

        The reference takes the ``kron`` path, which shares no kernel with
        ``apply_delta``; it peaks near 0.8 GB, after ``peak_rss_mb`` is read.
        """
        dense = adapters.materialize_delta(state["big"], path="kron")
        x = state["big_x"][0]
        err = _rel_err(adapters.apply_delta(state["big"], x), dense @ x)
        if not err <= 1e-10:
            return f"4096 apply_delta off by {err:.3e}"
        return None

    def quality(self, tally):
        return {"rank_full_fraction": tally.mean("rank_full_fraction")}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MlpConfig:
    layer_sizes: str = "64,64,64,64"
    scheme: str = "64|8,8"
    n_train: int = 256
    n_test: int = 2048
    pretrain_steps: int = 100
    max_steps: int = 300
    configs: int = 12


class MlpPipeline:
    """``tera.cli.main`` in-process: ``fit --task mlp``, ``rank-report`` on
    its checkpoints, and ``checkpoint inspect``.

    Jobs cycle through a dozen seeded configurations, each costing about
    the same; a config's loss CSV must match its first run byte for byte.
    """

    name = "mlp_pipeline"
    cycle = 1
    cycle_nominal_s = 0.65

    def __init__(self, config=MlpConfig(), work_dir=Path(".bench_out/mlp_work")):
        self.cfg = config
        self.work_dir = Path(work_dir)

    def setup(self, seed):
        rng = _rng(seed, 4)
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        configs = [_seed_pair(rng) for _ in range(self.cfg.configs)]
        return {"configs": configs, "reference_csv": {}}

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def run_job(self, state, i):
        task_seed, master_seed = state["configs"][i % self.cfg.configs]
        c = self.cfg
        out = self.work_dir / f"job{i}"
        fit = self._cli([
            "fit", "--task", "mlp", "--family", "tera", "--scheme", c.scheme,
            "--layer-sizes", c.layer_sizes, "--n-train", str(c.n_train),
            "--n-test", str(c.n_test), "--pretrain-steps", str(c.pretrain_steps),
            "--max-steps", str(c.max_steps), "--task-seed", str(task_seed),
            "--master-seed", str(master_seed), "--out", str(out),
        ])
        checkpoints = sorted(str(p) for p in out.glob("checkpoint_layer*.json"))
        ranks = self._cli(["rank-report", *checkpoints, "--out", str(out / "ranks")])
        inspect = self._cli(["checkpoint", "inspect", str(out / "checkpoint_layer0.json")])
        return out, (fit, ranks, inspect)

    def check(self, state, i, out, tally):
        out_dir, runs = out
        try:
            for step, (code, text) in zip(("fit", "rank-report", "inspect"), runs):
                if code != 0:
                    return f"{step} exited {code}: {text.strip()[-200:]}"
            csv = (out_dir / "loss.csv").read_bytes()
            reference = state["reference_csv"].setdefault(i % self.cfg.configs, csv)
            if csv != reference:
                return "loss.csv differs from the first run of this config"
            layers = len(self.cfg.layer_sizes.split(",")) - 1
            rows = (out_dir / "ranks" / "ranks.csv").read_text().splitlines()
            if len(rows) != layers + 1:
                return f"ranks.csv has {len(rows) - 1} rows, expected {layers}"
            if "family: tera" not in runs[2][1]:
                return "checkpoint inspect did not report the tera family"
            report = json.loads((out_dir / "report.json").read_text())
            for key in ("target_test_accuracy", "base_target_accuracy"):
                tally.record(key, i % self.cfg.configs, report["metrics"][key])
            tally.count("cli.bytes_written", sum(
                p.stat().st_size for p in out_dir.rglob("*") if p.is_file()
            ))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return None

    def quality(self, tally):
        return {"target_test_accuracy": tally.mean("target_test_accuracy")}


WORKLOADS = {
    w.name: w for w in (RecoverySweep, ExpressivityVerify, WideScheme, MlpPipeline)
}
