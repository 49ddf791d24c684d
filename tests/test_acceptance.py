"""End-to-end acceptance gate.

Ten independent checks, each asserting a headline property of the package at
a stated tolerance and wall-clock budget, and each printing a single
machine-greppable PASS/FAIL line (run with ``pytest -s`` to see them inline).
Every check is deterministic: targets, frozen stores, and optimizer seeds are
all fixed, so a green run is reproducible bit for bit.

The two comparison checks (tera vs budget-matched vera, tera vs its
identity-factor variant) average each adapter's residual over several shared
frozen-store draws per target before comparing. The draw of the frozen
factors is nuisance randomness: it is not part of either method's definition,
and averaging it out per target leaves exactly the systematic difference the
check is about. Pairing is preserved because both adapters see the same
targets and the same store seeds.
"""

import io
import time
from contextlib import redirect_stdout

import numpy as np
from scipy import stats

from tera import (
    FrozenFactorStore,
    InstanceRejected,
    OptimizerConfig,
    TensorizationScheme,
    finetune_full,
    finite_difference_check,
    fit_recovery,
    gaussian_recovery_task,
    init_hira,
    init_lora,
    init_tera,
    init_vera,
    make_mlp_adapt_task,
    materialize_delta,
    rank_report,
    trainable_param_count,
    vera_full_rank_param_count,
    vera_rank_for_budget,
    verify_expressivity_bound,
    verify_param_bound,
    verify_rank_bound,
)
from tera.cli import main as cli_main
from tera.training import RecoveryTask, planted_recovery_task

from oracles import recovery_gradients, recovery_loss, tera_delta_by_loops


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    return ok


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def test_criterion_01_parameter_counts():
    with Stopwatch() as sw:
        four_mode = TensorizationScheme((64, 64, 64, 64), split=2)
        n_four = four_mode.num_trainable()
        binary = TensorizationScheme.two_sided(4096, 4096, 2)
        n_binary = binary.num_trainable()
        n_vera = vera_full_rank_param_count(4096, 4096)
    ok = n_four == 256 and n_binary == 48 and n_vera >= 8192 and sw.seconds < 1.0
    assert report(
        1,
        ok,
        f"counts {n_four}/{n_binary}/{n_vera} "
        f"(want 256/48/>=8192) in {sw.seconds:.2f}s",
    )


def test_criterion_02_rank_bound_suite():
    full_rank_schemes = [
        TensorizationScheme((32, 4, 8), split=1),
        TensorizationScheme((4, 8, 4, 8), split=2),
        TensorizationScheme((2, 16, 16, 2), split=2),
        TensorizationScheme((4, 4, 4, 4), split=2),
        TensorizationScheme((8, 2, 4), split=1),
    ]
    reduced_schemes = [
        TensorizationScheme((4, 4, 4, 4), split=2, ranks=(2, 4, 2, 4)),
        TensorizationScheme((32, 4, 8), split=1, ranks=(16, 4, 4)),
    ]
    with Stopwatch() as sw:
        total = violations = 0
        full = full_total = 0
        for s, scheme in enumerate(full_rank_schemes):
            rep = verify_rank_bound(scheme, trials=150, seed=s)
            total += 150
            violations += rep.terms["violations"]
            full += round(rep.terms["full_rank_fraction"] * 150)
            full_total += 150
        for s, scheme in enumerate(reduced_schemes):
            rep = verify_rank_bound(scheme, trials=125, seed=100 + s)
            total += 125
            violations += rep.terms["violations"]
    fraction = full / full_total
    ok = (
        total == 1000
        and violations == 0
        and fraction >= 0.99
        and sw.seconds < 60.0
    )
    assert report(
        2,
        ok,
        f"{total - violations}/{total} bounds hold, full-rank fraction "
        f"{fraction:.4f} over {full_total} full-rank instances in {sw.seconds:.1f}s",
    )


def test_criterion_03_parameter_bound_suite():
    with Stopwatch() as sw:
        results = {}
        for dim in (64, 256, 4096):
            rep = verify_param_bound(dim, dim)
            results[dim] = rep
    all_hold = all(r.verdict == "holds" for r in results.values())
    min_4096 = results[4096].terms["min_params"]
    ok = all_hold and min_4096 == 48 and sw.seconds < 60.0
    assert report(
        3,
        ok,
        f"bound holds at 64/256/4096 squared, min params at 4096 = {min_4096} "
        f"(want 48) in {sw.seconds:.1f}s",
    )


def test_criterion_04_expressivity_suite():
    scheme = TensorizationScheme((2, 4, 2, 4), split=2)

    def verify_hard(target, adapter, seed):
        # deterministic escalation: most instances resolve at 6 starts, a few
        # alternating-least-squares swamps need more random restarts
        rep = verify_expressivity_bound(target, adapter, extra_starts=6, seed=seed)
        if rep.lhs > 1e-8:
            rep = verify_expressivity_bound(target, adapter, extra_starts=12, seed=seed)
        if rep.lhs > 1e-8:
            rep = verify_expressivity_bound(
                target, adapter, sweeps=150, extra_starts=24,
                polish_steps=800, seed=seed + 1,
            )
        return rep

    with Stopwatch() as sw:
        rng = np.random.default_rng(1234)
        verdicts = {"holds": 0, "inconclusive": 0, "violated": 0}
        done = trial = 0
        while done < 100:
            store = FrozenFactorStore(master_seed=trial)
            adapter = init_tera(8, 8, scheme, store)
            target = rng.standard_normal((8, 8))
            trial += 1
            try:
                rep = verify_expressivity_bound(
                    target, adapter, extra_starts=6, seed=trial
                )
            except InstanceRejected:
                continue
            verdicts[rep.verdict] += 1
            done += 1

        planted_ok = 0
        worst_lhs = 0.0
        for i in range(100):
            store = FrozenFactorStore(master_seed=10_000 + i)
            task = planted_recovery_task(scheme, store, seed=i)
            adapter = init_tera(8, 8, scheme, store)
            rep = verify_hard(task.target, adapter, seed=i)
            worst_lhs = max(worst_lhs, rep.lhs)
            planted_ok += rep.verdict == "holds" and rep.lhs <= 1e-8
    ok = (
        verdicts["violated"] == 0
        and planted_ok == 100
        and sw.seconds < 300.0
    )
    assert report(
        4,
        ok,
        f"random: {verdicts['holds']} hold / {verdicts['inconclusive']} "
        f"inconclusive / {verdicts['violated']} violated; planted "
        f"{planted_ok}/100 recovered (worst lhs {worst_lhs:.1e}) in {sw.seconds:.0f}s",
    )


def test_criterion_05_gradient_checks():
    scheme_pool = [
        TensorizationScheme((4, 2, 2), split=1),
        TensorizationScheme((2, 2, 2, 2), split=2),
        TensorizationScheme((4, 4), split=1),
        TensorizationScheme((2, 4, 4, 2), split=2),
    ]
    with Stopwatch() as sw:
        worst = 0.0
        checked = 0
        for i in range(50):
            family = ("tera", "lora", "vera", "hira")[i % 4]
            store = FrozenFactorStore(master_seed=300 + i)
            rng = np.random.default_rng(400 + i)
            if family == "tera":
                scheme = scheme_pool[i % len(scheme_pool)]
                adapter = init_tera(scheme.rows, scheme.cols, scheme, store)
                for d in adapter.d_vectors:
                    d[:] = rng.standard_normal(d.shape)
            elif family == "lora":
                adapter = init_lora(5, 3, rank=2, seed=i)
                adapter.b[:] = rng.standard_normal(adapter.b.shape)
            elif family == "vera":
                adapter = init_vera(5, 4, rank=3, store=store)
                adapter.b[:] = rng.standard_normal(adapter.b.shape)
            else:
                adapter = init_hira(4, 4, rank=2, w0_seed=i)
                adapter.a[:] = rng.standard_normal(adapter.a.shape)
                adapter.b[:] = rng.standard_normal(adapter.b.shape)
            task = gaussian_recovery_task(*adapter.shape, seed=500 + i)
            err = finite_difference_check(
                lambda a: recovery_loss(a, task),
                lambda a: recovery_gradients(a, task),
                adapter,
            )
            worst = max(worst, err)
            checked += 1
    ok = checked == 50 and worst < 1e-5 and sw.seconds < 60.0
    assert report(
        5,
        ok,
        f"{checked} instances across 4 families, worst relative error "
        f"{worst:.2e} (tol 1e-5) in {sw.seconds:.1f}s",
    )


def test_criterion_06_materialization_oracle():
    scheme_pool = [
        TensorizationScheme((16, 4, 4), split=1),
        TensorizationScheme((4, 4, 4, 4), split=2),
        TensorizationScheme((2, 8, 8, 2), split=2),
        TensorizationScheme((8, 2, 2, 2), split=1),
        TensorizationScheme((2, 2, 2, 2, 2, 2), split=3),
    ]
    with Stopwatch() as sw:
        worst = 0.0
        for i in range(100):
            scheme = scheme_pool[i % len(scheme_pool)]
            store = FrozenFactorStore(master_seed=700 + i)
            adapter = init_tera(scheme.rows, scheme.cols, scheme, store)
            rng = np.random.default_rng(800 + i)
            for d in adapter.d_vectors:
                d[:] = rng.standard_normal(d.shape)
            by_modes = materialize_delta(adapter, path="mode")
            by_kron = materialize_delta(adapter, path="kron")
            by_loops = tera_delta_by_loops(
                adapter.core, adapter.entry.factors, adapter.d_vectors, scheme.split
            )
            scale = max(np.linalg.norm(by_loops), 1e-30)
            worst = max(
                worst,
                np.linalg.norm(by_modes - by_loops) / scale,
                np.linalg.norm(by_kron - by_loops) / scale,
                np.linalg.norm(materialize_delta(adapter) - by_loops) / scale,
            )
    ok = worst < 1e-10 and sw.seconds < 60.0
    assert report(
        6,
        ok,
        f"100 instances, three materialization paths agree to {worst:.1e} "
        f"(tol 1e-10) in {sw.seconds:.1f}s",
    )


def test_criterion_07_budget_matched_comparison():
    scheme = TensorizationScheme.one_sided(64, 64, 8)
    cfg = OptimizerConfig(learning_rate=0.05, max_steps=1000, seed=42)
    stores_per_target = 32
    with Stopwatch() as sw:
        tera_means, vera_means = [], []
        for t in range(20):
            task = gaussian_recovery_task(64, 64, seed=t)
            tera_runs, vera_runs = [], []
            for s in range(stores_per_target):
                store = FrozenFactorStore(master_seed=1000 * t + s)
                tera = init_tera(64, 64, scheme, store)
                budget = trainable_param_count(tera)
                vera = init_vera(64, 64, vera_rank_for_budget(64, budget), store)
                assert abs(trainable_param_count(vera) - budget) <= 1
                tera_runs.append(
                    fit_recovery(tera, task, cfg).metrics["final_relative_residual"]
                )
                vera_runs.append(
                    fit_recovery(vera, task, cfg).metrics["final_relative_residual"]
                )
            tera_means.append(float(np.mean(tera_runs)))
            vera_means.append(float(np.mean(vera_runs)))
        wins = sum(t < v for t, v in zip(tera_means, vera_means))
        p_value = stats.binomtest(wins, 20, 0.5, alternative="greater").pvalue
        mean_tera = float(np.mean(tera_means))
        mean_vera = float(np.mean(vera_means))
    ok = (
        mean_tera < mean_vera
        and p_value < 0.05
        and sw.seconds < 600.0
    )
    assert report(
        7,
        ok,
        f"mean residual {mean_tera:.6f} vs {mean_vera:.6f} at 80 params each, "
        f"{wins}/20 paired wins (sign test p {p_value:.1e}) in {sw.seconds:.0f}s",
    )


def test_criterion_08_trained_rank_analysis():
    scheme = TensorizationScheme.one_sided(64, 64, 8)
    cfg = OptimizerConfig(learning_rate=0.05, max_steps=1500, seed=42)
    with Stopwatch() as sw:
        task = make_mlp_adapt_task(
            layer_sizes=(64, 64, 64, 64), n_classes=8, n_train=512, n_test=256,
            seed=0, pretrain_steps=200,
        )
        _, updates = finetune_full(
            task, OptimizerConfig(learning_rate=1e-2, max_steps=300, seed=1)
        )
        store = FrozenFactorStore(master_seed=0)
        entries = []
        for layer, ideal in enumerate(updates):
            rec = RecoveryTask(target=ideal, kind="mlp_update", seed=layer)
            tera = init_tera(64, 64, scheme, store)
            lora = init_lora(64, 64, rank=8, seed=layer)
            vera = init_vera(64, 64, rank=8, store=store)
            for adapter in (tera, lora, vera):
                fit_recovery(adapter, rec, cfg)
            entries += [
                (f"layer{layer}", "tera", tera),
                (f"layer{layer}", "lora", lora),
                (f"layer{layer}", "vera", vera),
            ]
        rep = rank_report(entries)
        ranks = {(r["layer"], r["family"]): r["rank"] for r in rep.rows}
        tera_ranks = [ranks[(f"layer{i}", "tera")] for i in range(3)]
        low_ranks = [
            ranks[(f"layer{i}", fam)] for i in range(3) for fam in ("lora", "vera")
        ]
    floor = int(np.ceil(0.95 * 64))
    ok = (
        min(tera_ranks) >= floor
        and max(low_ranks) <= 8
        and sw.seconds < 600.0
    )
    assert report(
        8,
        ok,
        f"tera ranks {tera_ranks} (floor {floor}), lora/vera max rank "
        f"{max(low_ranks)} (cap 8) in {sw.seconds:.0f}s",
    )


def test_criterion_09_initialization_ablation():
    scheme = TensorizationScheme.one_sided(64, 64, 8)
    cfg = OptimizerConfig(learning_rate=0.05, max_steps=1000, seed=42)
    stores_per_target = 8
    with Stopwatch() as sw:
        tera_means, iden_means = [], []
        for i in range(20):
            task = make_mlp_adapt_task(
                layer_sizes=(64, 64, 64, 64), n_classes=8, n_train=512,
                n_test=256, seed=i, pretrain_steps=200,
            )
            _, updates = finetune_full(
                task, OptimizerConfig(learning_rate=1e-2, max_steps=300, seed=1)
            )
            rec = RecoveryTask(target=updates[0], kind="mlp_update", seed=i)
            tera_runs, iden_runs = [], []
            for s in range(stores_per_target):
                store = FrozenFactorStore(master_seed=1000 * i + s)
                tera = init_tera(64, 64, scheme, store)
                iden = init_tera(64, 64, scheme, store, identity_factors=True)
                tera_runs.append(
                    fit_recovery(tera, rec, cfg).metrics["final_relative_residual"]
                )
                iden_runs.append(
                    fit_recovery(iden, rec, cfg).metrics["final_relative_residual"]
                )
            tera_means.append(float(np.mean(tera_runs)))
            iden_means.append(float(np.mean(iden_runs)))
        mean_tera = float(np.mean(tera_means))
        mean_iden = float(np.mean(iden_means))
    diff = mean_tera - mean_iden
    ok = mean_tera <= mean_iden and sw.seconds < 600.0
    assert report(
        9,
        ok,
        f"random factors {mean_tera:.6f} vs identity factors {mean_iden:.6f} "
        f"(difference {diff:+.6f}) over 20 paired targets in {sw.seconds:.0f}s",
    )


def test_criterion_10_csv_determinism(tmp_path):
    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        assert code == 0

    with Stopwatch() as sw:
        outputs = {}
        for tag in ("first", "second"):
            count_dir = tmp_path / f"count_{tag}"
            fit_dir = tmp_path / f"fit_{tag}"
            run([
                "param-count", "--shape", "4096x4096",
                "--scheme", "64,64|64,64", "--rank", "8",
                "--out", str(count_dir),
            ])
            run([
                "fit", "--task", "recovery", "--family", "tera",
                "--shape", "16x16", "--scheme", "16|4,4",
                "--target", "planted", "--target-seed", "3",
                "--master-seed", "7", "--max-steps", "200",
                "--lr", "0.05", "--out", str(fit_dir),
            ])
            outputs[tag] = (
                (count_dir / "param_counts.csv").read_bytes(),
                (fit_dir / "loss.csv").read_bytes(),
            )
    identical = outputs["first"] == outputs["second"]
    ok = identical and sw.seconds < 60.0
    assert report(
        10,
        ok,
        f"param-count and fit reruns byte-identical: {identical} "
        f"in {sw.seconds:.1f}s",
    )
