import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import tera.adapters
from tera.adapters import (
    FrozenFactorStore,
    StoreEntry,
    TeraAdapter,
    _design_matrices,
    clone_trainable,
    init_hira,
    init_lora,
    init_tera,
    init_vera,
    materialize_delta,
    synthetic_base_weight,
)
from tera import training
from tera.tensor_ops import TensorizationScheme
from tera.training import (
    LOSS_COLUMNS,
    AlsResult,
    DivergenceError,
    OptimizerConfig,
    als_approx_error,
    delta_gradient,
    finite_difference_check,
    fit_mlp_adapt,
    fit_recovery,
    finetune_full,
    gaussian_recovery_task,
    _Optimizer,
    make_mlp_adapt_task,
    mlp_accuracy,
    planted_recovery_task,
    tera_gradient,
    write_csv,
    write_json,
)

from oracles import (
    OptimizerByArrays,
    adamw_polish,
    als_every_sweep,
    als_sweeps_by_starts,
    least_squares_step,
    mlp_fit_by_layers,
    mlp_forward,
    mlp_loss_and_grads,
    recovery_gradients,
    recovery_loss,
    step_with,
)

SMALL = TensorizationScheme((2, 2, 2, 2), split=2)


def randomized_tera(master_seed=7, d_seed=0, scheme=SMALL):
    store = FrozenFactorStore(master_seed)
    a = init_tera(scheme.rows, scheme.cols, scheme, store)
    rng = np.random.default_rng(d_seed)
    for d in a.d_vectors:
        d[:] = rng.standard_normal(d.shape)
    return a


def count_materializations(monkeypatch):
    """Count ``training.materialize_delta`` calls: one list entry per call."""
    calls = []
    original = training.materialize_delta

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "materialize_delta", counted)
    return calls


def recovery_objective_at(adapter, target):
    """``fit_recovery``'s objective evaluated once at the adapter's state:
    its loss, the gradients it wrote, shaped as the trainable arrays, and
    the deltas it formed."""
    _, (block,) = training._own({"adapter": adapter}, OptimizerConfig())
    loss, deltas = training._recovery_objective(block, target)()
    return loss, [g[0] for g in block.grads], deltas


class TestTeraGradient:
    def test_zero_upstream_gives_zero_gradients(self):
        a = randomized_tera()
        for g in tera_gradient(a, np.zeros((4, 4))):
            assert_array_equal(g, np.zeros_like(g))

    def test_order2_identity_core_matches_hand_formula(self):
        # With an identity core the delta is sum_r d1(r) d2(r) A1[r,:]^T A2[r,:],
        # so dL/dd1(r) = d2(r) * A1[r,:] @ U @ A2[r,:]^T and symmetrically.
        rng = np.random.default_rng(3)
        a1 = rng.standard_normal((2, 3))
        a2 = rng.standard_normal((2, 4))
        entry = StoreEntry(core=np.eye(2), factors=(a1, a2))
        adapter = TeraAdapter(
            scheme=TensorizationScheme((3, 4), split=1, ranks=(2, 2)),
            entry=entry,
            d_vectors=[rng.standard_normal(2), rng.standard_normal(2)],
            zero_init_mode=1,
            master_seed=0,
        )
        upstream = rng.standard_normal((3, 4))
        g1, g2 = tera_gradient(adapter, upstream)
        for r in range(2):
            want1 = adapter.d_vectors[1][r] * a1[r] @ upstream @ a2[r]
            want2 = adapter.d_vectors[0][r] * a1[r] @ upstream @ a2[r]
            assert_allclose(g1[r], want1, rtol=1e-12)
            assert_allclose(g2[r], want2, rtol=1e-12)

    def test_zero_core_slice_gives_exactly_zero_gradient(self):
        rng = np.random.default_rng(4)
        core = rng.standard_normal((3, 3))
        core[1, :] = 0.0  # slice r_1 = 1 annihilated
        entry = StoreEntry(
            core=core, factors=(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        )
        adapter = TeraAdapter(
            scheme=TensorizationScheme((3, 3), split=1, ranks=(3, 3)),
            entry=entry,
            d_vectors=[rng.standard_normal(3), rng.standard_normal(3)],
            zero_init_mode=1,
            master_seed=0,
        )
        g1, _ = tera_gradient(adapter, rng.standard_normal((3, 3)))
        assert g1[1] == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tera_gradient(randomized_tera(), np.zeros((3, 3)))

    @pytest.mark.parametrize("family, shape, upstream", [
        # the same number of entries, so a reshape would have accepted them
        ("tera", (4, 4), (2, 8)),
        ("tera", (4, 4), (16,)),
        ("vera", (4, 8), (8, 4)),
        ("lora", (4, 8), (8, 4)),
        ("hira", (4, 8), (2, 16)),
    ])
    def test_upstream_of_another_shape_is_refused(self, family, shape, upstream):
        adapter = training.build_adapter(family, *shape, store=FrozenFactorStore(0),
                                         scheme=TensorizationScheme((4, 2, 2), split=1),
                                         rank=2, w0_seed=0)
        frozen_network = family in ("tera", "vera")
        gradients = [delta_gradient, tera_gradient] if frozen_network else [delta_gradient]
        for gradient in gradients:
            with pytest.raises(ValueError, match="upstream gradient shape"):
                gradient(adapter, np.ones(upstream))


class TestStackedGradients:
    @pytest.mark.parametrize("scheme, identity", [
        (TensorizationScheme((4, 2, 3), split=1), False),
        (TensorizationScheme((2, 4, 2, 4), split=2, ranks=(2, 2, 1, 3)), False),
        (TensorizationScheme((2, 2, 2, 2), split=2), True),
    ])
    def test_match_central_differences(self, scheme, identity):
        # three members of one network: two with random d vectors, and one
        # whose zero-init mode is still zero, whose other modes' gradients
        # are then exactly zero
        store = FrozenFactorStore(8)
        rng = np.random.default_rng(6)
        adapters = {f"m{k}": init_tera(scheme.rows, scheme.cols, scheme, store,
                                       identity_factors=identity) for k in range(3)}
        for k, a in enumerate(adapters.values()):
            for m, d in enumerate(a.d_vectors):
                if k < 2 or m != a.zero_init_mode:
                    d[:] = rng.standard_normal(d.shape)
        targets = rng.standard_normal((3, scheme.rows, scheme.cols))
        _, (block,) = training._own(adapters, OptimizerConfig())
        assert len(block.names) == 3

        def loss_fn(_):
            diff = block.deltas() - targets
            return 0.5 * float(np.sum(diff * diff))

        def grad_fn(adapter):
            block.backward(block.deltas() - targets)
            k = block.adapters.index(adapter)
            return [g[k] for g in block.grads]

        for a in block.adapters:
            assert finite_difference_check(loss_fn, grad_fn, a) < 1e-5
        zeroed = block.adapters[2]
        for m, g in enumerate(grad_fn(zeroed)):
            if m != zeroed.zero_init_mode:
                assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("family, members", [
        ("tera", 1), ("tera_iden", 1), ("lora", 1), ("vera", 1), ("hira", 1),
        ("tera", 3), ("tera_iden", 3), ("vera", 3),
    ])
    def test_blocks_are_the_one_member_functions(self, family, members):
        # a one-member block forms exactly materialize_delta and writes
        # exactly delta_gradient; a stack's rows are its members' to rounding
        rng = np.random.default_rng(12)
        store = FrozenFactorStore(4)
        named = {}
        for k in range(members):
            a = training.build_adapter(family, 4, 8, store=store, rank=3, seed=k,
                                       scheme=TensorizationScheme((4, 2, 4), split=1),
                                       w0_seed=1)
            for arr in a.trainable_arrays():
                arr[...] = rng.standard_normal(arr.shape)
            named[f"m{k}"] = a
        _, (block,) = training._own(named, OptimizerConfig())
        assert len(block.names) == members
        upstream = rng.standard_normal((members, 4, 8))
        deltas = block.deltas()
        block.backward(upstream)
        for k, a in enumerate(block.adapters):
            pairs = [(deltas[k], materialize_delta(a))] + list(zip(
                [g[k] for g in block.grads], delta_gradient(a, upstream[k]), strict=True))
            for got, want in pairs:
                if members == 1:
                    assert_array_equal(got, want)
                else:
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestFiniteDifferences:
    def loss_and_grad(self, task):
        return (
            lambda a: recovery_loss(a, task),
            lambda a: recovery_gradients(a, task),
        )

    def test_quadratic_loss_all_families(self):
        # Recovery against a zero target is the plain quadratic ||delta||^2/2.
        rng = np.random.default_rng(5)
        store = FrozenFactorStore(19)
        w0 = synthetic_base_weight(4, 6, 2)
        adapters = [
            randomized_tera(d_seed=6, scheme=TensorizationScheme((2, 2, 3, 2), 2)),
            init_lora(4, 6, 2, seed=7),
            init_vera(4, 6, 3, store),
            init_hira(4, 6, 2, w0=w0, seed=8),
        ]
        for a in adapters:
            for arr in a.trainable_arrays():
                arr[:] = rng.standard_normal(arr.shape)
            task = gaussian_recovery_task(*a.shape, seed=0)
            task.target[:] = 0.0
            loss_fn, grad_fn = self.loss_and_grad(task)
            assert finite_difference_check(loss_fn, grad_fn, a) < 1e-6

    def test_recovery_loss_random_tasks(self):
        rng = np.random.default_rng(9)
        for trial in range(3):
            a = randomized_tera(master_seed=trial, d_seed=trial + 10)
            task = gaussian_recovery_task(4, 4, seed=trial)
            loss_fn, grad_fn = self.loss_and_grad(task)
            assert finite_difference_check(loss_fn, grad_fn, a) < 1e-5

    def test_constant_loss_both_sides_zero(self):
        a = randomized_tera(d_seed=11)
        loss_fn = lambda adapter: 3.5
        grad_fn = lambda adapter: [np.zeros_like(d) for d in adapter.d_vectors]
        assert finite_difference_check(loss_fn, grad_fn, a) == 0.0

    def test_rejects_nonpositive_h(self):
        a = randomized_tera()
        with pytest.raises(ValueError):
            finite_difference_check(lambda x: 0.0, lambda x: [], a, h=0.0)


# The pools of acceptance criteria 5 and 6.
OBJECTIVE_SCHEMES = [
    TensorizationScheme((4, 2, 2), split=1),
    TensorizationScheme((2, 2, 2, 2), split=2),
    TensorizationScheme((4, 4), split=1),
    TensorizationScheme((2, 4, 4, 2), split=2),
    TensorizationScheme((16, 4, 4), split=1),
    TensorizationScheme((4, 4, 4, 4), split=2),
    TensorizationScheme((2, 8, 8, 2), split=2),
    TensorizationScheme((8, 2, 2, 2), split=1),
    TensorizationScheme((2, 2, 2, 2, 2, 2), split=3),
]


def objective_adapters():
    store = FrozenFactorStore(31)
    for scheme in OBJECTIVE_SCHEMES:
        for identity in (False, True):
            yield init_tera(scheme.rows, scheme.cols, scheme, store,
                            identity_factors=identity)
    yield init_lora(6, 5, 2, seed=1)
    yield init_vera(6, 5, 3, store)
    yield init_vera(5, 7, 9, store)  # rank above both sides
    yield init_hira(6, 5, 2, w0_seed=2)


class TestRecoveryObjective:
    """Each family's recovery objective against the materialized oracle."""

    @pytest.mark.parametrize("index", range(len(OBJECTIVE_SCHEMES) * 2 + 4))
    def test_matches_materialized_oracle(self, index):
        adapter = list(objective_adapters())[index]
        rng = np.random.default_rng(40 + index)
        for arr in adapter.trainable_arrays():
            arr[:] = rng.standard_normal(arr.shape)
        task = gaussian_recovery_task(*adapter.shape, seed=50 + index)
        loss, grads, _ = recovery_objective_at(adapter, task.target)
        scale = float(np.sum(task.target * task.target))
        assert abs(loss - recovery_loss(adapter, task)) <= 1e-12 * scale
        for got, want in zip(grads, recovery_gradients(adapter, task), strict=True):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_zero_delta_loss_is_half_the_target_energy(self):
        adapter = init_tera(16, 16, OBJECTIVE_SCHEMES[4], FrozenFactorStore(3))
        target = gaussian_recovery_task(16, 16, seed=3).target
        loss, grads, deltas = recovery_objective_at(adapter, target)
        assert loss == 0.5 * float(np.sum(target * target))
        assert deltas == {}


class TestOptimizers:
    def test_warmup_scales_first_steps(self):
        cfg = OptimizerConfig(
            algorithm="sgd-momentum",
            learning_rate=1.0,
            betas=(0.0, 0.0),
            warmup_steps=10,
            max_steps=1,
        )
        opt = _Optimizer(cfg, [np.zeros(1)])
        opt.grads[0][...] = 1.0
        opt.step()
        # first step uses lr * 1/10
        assert_allclose(opt.params[0], [-0.1])

    def test_adamw_decoupled_decay_moves_weights_without_gradient(self):
        cfg = OptimizerConfig(
            algorithm="adamw", learning_rate=0.1, weight_decay=0.5, warmup_steps=0
        )
        opt = _Optimizer(cfg, [np.array([2.0])])
        opt.step()
        # Pure decay: 2.0 - 0.1 * 0.5 * 2.0
        assert_allclose(opt.params[0], [1.9])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(algorithm="nesterov")

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", np.inf), ("learning_rate", np.nan), ("learning_rate", -1e-3),
        ("weight_decay", np.nan), ("weight_decay", -np.inf), ("weight_decay", -0.1),
        ("betas", (1.0, 0.999)), ("betas", (0.9, -0.1)), ("betas", (0.9, np.nan)),
        ("betas", (0.9,)),
    ])
    def test_bad_settings_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})

    def test_boundary_settings_accepted(self):
        OptimizerConfig(learning_rate=0.0, weight_decay=0.0, betas=(0.0, 0.0))

    SHAPES = [(5,), (3, 4), (1,), (2, 3), (7,)]

    @pytest.mark.parametrize("algorithm", ["adamw", "sgd-momentum"])
    @pytest.mark.parametrize("weight_decay, warmup_steps", [(0.0, 0), (0.05, 10)])
    def test_fused_step_matches_the_per_array_oracle(self, algorithm, weight_decay,
                                                     warmup_steps):
        # vectors and matrices in one buffer, 50 steps, bit for bit
        rng = np.random.default_rng(3)
        cfg = OptimizerConfig(algorithm=algorithm, learning_rate=0.05,
                              weight_decay=weight_decay, warmup_steps=warmup_steps)
        arrays = [rng.standard_normal(shape) for shape in self.SHAPES]
        opt = _Optimizer(cfg, arrays)
        oracle = OptimizerByArrays(cfg, [a.copy() for a in arrays])
        for _ in range(50):
            grads = [rng.standard_normal(shape) for shape in self.SHAPES]
            step_with(opt, grads)
            step_with(oracle, grads)
            for got, want in zip(opt.params, oracle.params, strict=True):
                assert_array_equal(got, want)

    def test_params_and_grads_are_views_of_one_buffer_each(self):
        # the optimizer owns copies of the arrays; a write to a gradient view
        # is what the next step reads, and a step moves the views in place
        arrays = [np.full(shape, 2.0) for shape in self.SHAPES]
        opt = _Optimizer(OptimizerConfig(algorithm="sgd-momentum", learning_rate=1.0,
                                         betas=(0.0, 0.0), warmup_steps=0), arrays)
        for views in (opt.params, opt.grads):
            assert [v.shape for v in views] == self.SHAPES
            assert len({id(v.base) for v in views}) == 1
        for i, g in enumerate(opt.grads):
            g[...] = i
        opt.step()
        for i, (param, arr) in enumerate(zip(opt.params, arrays)):
            assert_array_equal(param, 2.0 - i)
            assert_array_equal(arr, 2.0)


class TestRecoveryTasks:
    def test_generators_reproducible(self):
        t1 = gaussian_recovery_task(5, 6, seed=3)
        t2 = gaussian_recovery_task(5, 6, seed=3)
        assert_array_equal(t1.target, t2.target)

    def test_planted_target_is_realizable(self):
        store = FrozenFactorStore(5)
        task = planted_recovery_task(SMALL, store, seed=1)
        assert task.kind == "planted"
        assert task.detail["master_seed"] == 5
        # the target came from the family itself, so ALS can drive it to zero
        adapter = init_tera(4, 4, SMALL, store)
        result = als_approx_error(adapter, task.target, sweeps=40, seed=0)
        assert result.value < 1e-10


class TestFitRecovery:
    def cfg(self, **kw):
        defaults = dict(
            algorithm="adamw",
            learning_rate=1e-2,
            warmup_steps=100,
            max_steps=600,
            seed=0,
        )
        defaults.update(kw)
        return OptimizerConfig(**defaults)

    def test_zero_target_stays_at_zero_loss(self):
        a = init_tera(4, 4, SMALL, FrozenFactorStore(0))
        task = gaussian_recovery_task(4, 4, seed=0)
        task.target[:] = 0.0
        report = fit_recovery(a, task, self.cfg(max_steps=5))
        assert report.loss_curve[0] == (0, 0.0)
        assert report.final_loss == 0.0

    def test_planted_target_recovered(self):
        store = FrozenFactorStore(2)
        scheme = TensorizationScheme((4, 2, 2, 2), split=1)
        task = planted_recovery_task(scheme, store, seed=3)
        adapter = init_tera(4, 8, scheme, store)
        report = fit_recovery(adapter, task, self.cfg(max_steps=1500))
        assert report.metrics["final_relative_residual"] < 1e-3

    def test_deterministic_given_seeds(self):
        def run():
            adapter = init_tera(4, 4, SMALL, FrozenFactorStore(4))
            task = gaussian_recovery_task(4, 4, seed=5)
            return fit_recovery(adapter, task, self.cfg(max_steps=50))

        r1, r2 = run(), run()
        assert r1.loss_curve == r2.loss_curve
        assert r1.final_loss == r2.final_loss

    def test_divergence_raises_with_partial_report(self):
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(6))
        task = gaussian_recovery_task(4, 4, seed=6)
        with pytest.raises(DivergenceError) as info:
            fit_recovery(
                adapter,
                task,
                self.cfg(algorithm="sgd-momentum", learning_rate=1e4, warmup_steps=0),
            )
        assert info.value.report is not None
        assert info.value.report.loss_curve

    def test_report_fields_populated(self):
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(7))
        task = gaussian_recovery_task(4, 4, seed=7)
        report = fit_recovery(adapter, task, self.cfg(max_steps=30))
        assert len(report.loss_curve) == 31
        assert report.trainable_param_count == 8
        assert "adapter" in report.delta_ranks
        assert report.config["optimizer"]["learning_rate"] == 1e-2
        assert report.wall_time_seconds > 0

    def test_full_rank_lora_has_superset_capacity(self):
        # More parameters and an unconstrained product: plain low-rank at full
        # rank must do at least as well as the tensor-network family.
        task = gaussian_recovery_task(8, 8, seed=8)
        scheme = TensorizationScheme.one_sided(8, 8, 2)
        tera = init_tera(8, 8, scheme, FrozenFactorStore(8))
        lora = init_lora(8, 8, 8, seed=9)
        r_tera = fit_recovery(tera, task, self.cfg(max_steps=1200))
        r_lora = fit_recovery(lora, task, self.cfg(max_steps=1200))
        assert (
            r_lora.metrics["final_residual"]
            <= r_tera.metrics["final_residual"] + 1e-9
        )

    def test_shape_mismatch_rejected(self):
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(0))
        with pytest.raises(ValueError):
            fit_recovery(adapter, gaussian_recovery_task(4, 5, seed=0), self.cfg())

    @pytest.mark.parametrize("family", ["tera", "tera_iden", "lora", "vera", "hira"])
    def test_report_names_the_variant(self, family):
        scheme = TensorizationScheme((4, 2, 2), split=1)
        adapter = training.build_adapter(
            family, 4, 4, store=FrozenFactorStore(0), scheme=scheme, rank=2,
            w0=synthetic_base_weight(4, 4, 0),
        )
        task = gaussian_recovery_task(4, 4, seed=0)
        report = fit_recovery(adapter, task, self.cfg(max_steps=2))
        assert report.config["family"] == family

    @pytest.mark.parametrize("algorithm", ["adamw", "sgd-momentum"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])  # 0.0: no decay term formed
    @pytest.mark.parametrize("family", ["tera", "tera_iden", "lora", "vera", "hira"])
    def test_loss_curve_matches_the_per_array_oracle(self, monkeypatch, family, weight_decay,
                                                     algorithm):
        def fit():
            adapter = training.build_adapter(
                family, 16, 16, store=FrozenFactorStore(4),
                scheme=TensorizationScheme((4, 4, 4, 4), split=2), rank=3,
                w0=synthetic_base_weight(16, 16, 4))
            report = fit_recovery(adapter, gaussian_recovery_task(16, 16, seed=4),
                                  self.cfg(algorithm=algorithm, max_steps=200,
                                           weight_decay=weight_decay))
            return report.loss_curve, adapter.trainable_arrays()

        # the optimizer's interface: params and grads views, and step()
        curve, arrays = fit()
        monkeypatch.setattr(training, "_Optimizer", OptimizerByArrays)
        want_curve, want_arrays = fit()
        assert curve == want_curve
        for got, want in zip(arrays, want_arrays, strict=True):
            assert_array_equal(got, want)

    def test_ablation_sweeps_only_the_tensor_network_families(self):
        with pytest.raises(ValueError, match="'lora'"):
            training.ablate_schemes([SMALL], ["tera", "lora"], self.cfg(max_steps=2), 1)

    def test_report_times_its_phases(self):
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(0))
        report = fit_recovery(adapter, gaussian_recovery_task(4, 4, seed=0),
                              self.cfg(max_steps=10))
        timings = report.timings
        assert sorted(timings) == ["objective_s", "optimizer_s", "report_s"]
        assert all(t > 0 for t in timings.values())
        assert sum(timings.values()) <= report.wall_time_seconds
        assert report.to_json_dict()["timings"] == timings

    def test_one_materialization_per_evaluated_step(self, monkeypatch):
        # the tensor network trains in the core's coordinates: its delta is
        # materialized once per fit, for the report
        calls = count_materializations(monkeypatch)
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(0))
        fit_recovery(adapter, gaussian_recovery_task(4, 4, seed=0), self.cfg(max_steps=10))
        assert len(calls) == 1

    @pytest.mark.parametrize("family, expected", [
        ("tera_iden", 1), ("vera", 1), ("lora", 11), ("hira", 11)])
    def test_materializations_per_family(self, monkeypatch, family, expected):
        # a frozen network (tera_iden, vera) forms its delta once per fit,
        # for the report; lora and hira once per evaluated step 0..10, and
        # the report reuses the last
        scheme = TensorizationScheme((4, 2, 2), split=1)
        adapter = training.build_adapter(
            family, 4, 4, store=FrozenFactorStore(0), scheme=scheme, rank=2,
            w0=synthetic_base_weight(4, 4, 0),
        )
        calls, original = [], type(adapter).deltas

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(type(adapter), "deltas", counted)
        fit_recovery(adapter, gaussian_recovery_task(4, 4, seed=0), self.cfg(max_steps=10))
        assert len(calls) == expected


# The gradient-check and materialization scheme pools of acceptance criteria
# 5 and 6, reduced ranks, and identity factors.
ALS_CASES = [
    (TensorizationScheme((4, 2, 2), split=1), False),
    (TensorizationScheme((2, 2, 2, 2), split=2), False),
    (TensorizationScheme((4, 4), split=1), False),
    (TensorizationScheme((2, 4, 4, 2), split=2), False),
    (TensorizationScheme((16, 4, 4), split=1), False),
    (TensorizationScheme((4, 4, 4, 4), split=2), False),
    (TensorizationScheme((2, 8, 8, 2), split=2), False),
    (TensorizationScheme((8, 2, 2, 2), split=1), False),
    (TensorizationScheme((2, 2, 2, 2, 2, 2), split=3), False),
    (TensorizationScheme((2, 4, 2, 4), split=2, ranks=(2, 2, 1, 3)), False),
    (TensorizationScheme((2, 4, 2, 4), split=2), True),
    (TensorizationScheme((4, 2, 2), split=1), True),
]
ALS_CASE_IDS = [f"{s.mode_sizes}-split{s.split}-ranks{s.ranks}" + ("-identity" if i else "")
                for s, i in ALS_CASES]


class TestAls:
    def test_planted_reaches_zero(self):
        store = FrozenFactorStore(12)
        task = planted_recovery_task(SMALL, store, seed=2)
        adapter = init_tera(4, 4, SMALL, store)
        result = als_approx_error(adapter, task.target, sweeps=40, seed=1)
        assert result.value < 1e-8

    def test_monotone_sweeps(self):
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(13))
        task = gaussian_recovery_task(4, 4, seed=13)
        result = als_approx_error(
            adapter, task.target, sweeps=25, extra_starts=0, polish_steps=0
        )
        values = result.sweep_values
        assert len(values) == 25
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-12

    def test_polish_evaluates_each_iterate_once(self, monkeypatch):
        # A Gauss-Newton step builds the design matrices of all modes but the
        # last, whose matrix the previous trial's objective left behind, and
        # evaluates its trial with one more: order builds per step tried,
        # each one evaluation of the design helper (_operator_designs). The
        # steps kept never exceed polish_steps, and with none the result is
        # the sweeps' own. One sweep makes one Gauss-Newton run: the probe
        # after sweep 1 is the polish after the last sweep.
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(14))
        target = gaussian_recovery_task(4, 4, seed=14).target
        builds = []
        original = training._operator_designs

        def counted_designs(core, factors):
            design = original(core, factors)

            def counted(d_stacks, mode):
                builds.append(1)
                return design(d_stacks, mode)

            return counted

        monkeypatch.setattr(training, "_operator_designs", counted_designs)
        unpolished = als_approx_error(adapter, target, sweeps=1, polish_steps=0)
        sweep_builds = len(builds)
        assert sweep_builds == SMALL.order
        assert unpolished.value == unpolished.sweep_values[-1]
        assert unpolished.value_before_polish == unpolished.value
        assert unpolished.polish_steps_kept == 0
        for steps in (1, 2, 25):
            builds.clear()
            polished = als_approx_error(adapter, target, sweeps=1, polish_steps=steps)
            kept = polished.polish_steps_kept
            assert 0 <= kept <= steps
            tried, rest = divmod(len(builds) - sweep_builds, SMALL.order)
            assert rest == 0 and kept <= tried <= min(kept + 1, steps)
            assert polished.value_before_polish == unpolished.value
            assert polished.value <= unpolished.value
            assert (polished.value < unpolished.value) == (kept > 0)

    def test_polish_stops_at_the_rounding_floor(self, monkeypatch):
        # a planted target is exactly representable: once the objective is at
        # 64 eps^2 ||target||^2 the polish stops short of its step budget
        store = FrozenFactorStore(19)
        target = planted_recovery_task(SMALL, store, seed=3).target
        adapter = init_tera(4, 4, SMALL, store)
        calls = count_materializations(monkeypatch)
        result = als_approx_error(adapter, target, sweeps=50, polish_steps=200, seed=4)
        assert len(calls) < 200 + 1
        assert result.value <= 1e-8

    def test_sweeps_never_materialize(self, monkeypatch):
        # each subproblem's design matrix comes from one contraction, and a
        # sweep's objective from the last subproblem's residual; the polish's
        # Jacobian and trial objectives come from design matrices too, so
        # neither calls materialize_delta, whatever polish_steps is
        store = FrozenFactorStore(14)
        adapter = init_tera(4, 4, SMALL, store)
        targets = (gaussian_recovery_task(4, 4, seed=14).target,
                   planted_recovery_task(SMALL, store, seed=14).target)
        calls = count_materializations(monkeypatch)

        def forbidden(*args, **kwargs):
            raise AssertionError("the ALS polish left the design matrices")

        monkeypatch.setattr(training, "delta_gradient", forbidden)
        monkeypatch.setattr(training, "_Optimizer", forbidden)
        for target in targets:
            for steps in (0, 1, 7, 200, 800):
                als_approx_error(adapter, target, sweeps=3, polish_steps=steps)
        assert len(calls) == 0

    @pytest.mark.parametrize("kind", ["planted", "gaussian"])
    def test_sweep_objective_is_the_true_residual(self, kind):
        scheme = TensorizationScheme((2, 4, 2, 4), split=2)
        store = FrozenFactorStore(17)
        if kind == "planted":
            target = planted_recovery_task(scheme, store, seed=3).target
        else:
            target = gaussian_recovery_task(8, 8, seed=17).target
        adapter = init_tera(8, 8, scheme, store)
        result = als_approx_error(adapter, target, sweeps=10, polish_steps=0, seed=4)
        assert result.value == result.sweep_values[-1]
        best = clone_trainable(adapter)
        for d, value in zip(best.d_vectors, result.d_vectors):
            d[:] = value
        diff = target - materialize_delta(best, path="kron")
        scale = float(np.sum(target * target))
        assert abs(float(np.sum(diff * diff)) - result.value) <= 1e-10 * scale

    @pytest.mark.parametrize("index", range(12))
    def test_gauss_newton_polish_never_ends_above_the_adamw_oracle(self, index):
        # On planted targets, with the verifier's 50 sweeps, ALS ends at or
        # below the AdamW polish (tests/oracles.py) run from all 50 sweeps,
        # or at the rounding floor, however early Gauss-Newton took over;
        # index 5 and 9 are ALS swamps, where neither recovers the target
        # and Gauss-Newton may end a hair above AdamW. The sweeps that ran
        # are the sweeps' own.
        scheme = TensorizationScheme((2, 4, 2, 4), split=2)
        store = FrozenFactorStore(500 + index)
        target = planted_recovery_task(scheme, store, seed=index).target
        adapter = init_tera(8, 8, scheme, store)
        swept = als_approx_error(adapter, target, polish_steps=0, seed=index)
        polished = als_approx_error(adapter, target, seed=index)
        reference, _ = adamw_polish(adapter, target, swept.d_vectors, swept.value)
        ran = len(polished.sweep_values)
        assert polished.sweep_values == als_approx_error(
            adapter, target, sweeps=ran, polish_steps=0, seed=index).sweep_values
        assert (polished.value <= 1e-8) == (index not in (5, 9))
        if index in (5, 9):
            assert polished.value <= reference * (1 + 1e-3)
        else:
            floor = 64 * np.finfo(float).eps ** 2 * float(np.sum(target * target))
            assert polished.value <= max(reference, floor)

    def test_polish_takes_no_step_past_the_rounding_floor(self):
        # the last step kept is the first to reach 64 eps^2 ||target||^2: with
        # one step fewer, no probe over the same sweeps reaches the floor
        scheme = TensorizationScheme((2, 4, 2, 4), split=2)
        for index in range(6):
            store = FrozenFactorStore(700 + index)
            target = planted_recovery_task(scheme, store, seed=index).target
            adapter = init_tera(8, 8, scheme, store)
            floor = 64 * np.finfo(float).eps ** 2 * float(np.sum(target * target))
            result = als_approx_error(adapter, target, sweeps=10, seed=index)
            assert result.value <= floor < result.value_before_polish
            kept, ran = result.polish_steps_kept, len(result.sweep_values)
            one_fewer = als_approx_error(adapter, target, sweeps=ran, polish_steps=kept - 1,
                                         seed=index)
            assert one_fewer.sweep_values == result.sweep_values
            assert one_fewer.value > floor

    @pytest.mark.parametrize("kind", ["planted", "gaussian"])
    @pytest.mark.parametrize("polish_steps", [1, 200])
    def test_polished_d_vectors_reach_the_value_on_the_kron_path(self, kind, polish_steps):
        scheme = TensorizationScheme((2, 4, 2, 4), split=2)
        for index in range(4):
            store = FrozenFactorStore(40 + index)
            if kind == "planted":
                target = planted_recovery_task(scheme, store, seed=index).target
            else:
                target = gaussian_recovery_task(8, 8, seed=index).target
            adapter = init_tera(8, 8, scheme, store)
            result = als_approx_error(adapter, target, sweeps=10, polish_steps=polish_steps,
                                      seed=index)
            best = clone_trainable(adapter)
            for d, value in zip(best.d_vectors, result.d_vectors):
                d[:] = value
            diff = target - materialize_delta(best, path="kron")
            scale = float(np.sum(target * target))
            assert abs(float(np.sum(diff * diff)) - result.value) <= 1e-10 * scale

    def test_last_sweep_rel_change(self):
        def change(values):
            return AlsResult(0.0, [], 0, values).last_sweep_rel_change

        assert change([8.0, 4.0, 1.0]) == 0.75
        assert change([2.0, 2.0]) == 0.0
        assert change([0.0, 0.0]) == 0.0
        assert change([3.0]) is None

    def test_single_sweep_matches_independent_least_squares(self):
        # Order-2 network: reconstruct one cyclic sweep with closed-form basis
        # matrices built straight from the element-wise definition.
        rng = np.random.default_rng(14)
        core = rng.standard_normal((2, 2))
        a1 = rng.standard_normal((2, 4))
        a2 = rng.standard_normal((2, 4))
        entry = StoreEntry(core=core, factors=(a1, a2))
        scheme = TensorizationScheme((4, 4), split=1, ranks=(2, 2))
        adapter = TeraAdapter(
            scheme=scheme,
            entry=entry,
            d_vectors=[np.zeros(2), np.zeros(2)],
            zero_init_mode=1,
            master_seed=0,
        )
        target = rng.standard_normal((4, 4))
        result = als_approx_error(
            adapter, target, sweeps=1, extra_starts=0, polish_steps=0
        )

        w = target.ravel()
        d1, d2 = np.ones(2), np.ones(2)
        phi1 = np.stack(
            [np.outer(a1[r], (core[r] * d2) @ a2).ravel() for r in range(2)], axis=1
        )
        d1 = np.linalg.lstsq(phi1, w, rcond=None)[0]
        phi2 = np.stack(
            [np.outer(d1 @ (core[:, r, None] * a1), a2[r]).ravel() for r in range(2)],
            axis=1,
        )
        d2 = np.linalg.lstsq(phi2, w, rcond=None)[0]
        delta = np.einsum("rs,r,s,ri,sj->ij", core, d1, d2, a1, a2)
        assert_allclose(result.sweep_values[0], np.sum((target - delta) ** 2), rtol=1e-10)

    def test_ridge_fallback_counted_and_monotone(self):
        # Identical factor rows and identical core slices make the mode-0
        # subproblem rank deficient on purpose.
        rng = np.random.default_rng(15)
        core = np.ones((2, 2))
        a1 = np.ones((2, 3))
        a2 = rng.standard_normal((2, 3))
        entry = StoreEntry(core=core, factors=(a1, a2))
        scheme = TensorizationScheme((3, 3), split=1, ranks=(2, 2))
        adapter = TeraAdapter(
            scheme=scheme,
            entry=entry,
            d_vectors=[np.ones(2), np.ones(2)],
            zero_init_mode=1,
            master_seed=0,
        )
        target = rng.standard_normal((3, 3))
        result = als_approx_error(
            adapter, target, sweeps=5, extra_starts=0, polish_steps=0
        )
        assert result.ridge_fallbacks > 0
        for earlier, later in zip(result.sweep_values, result.sweep_values[1:]):
            assert later <= earlier + 1e-12

    @pytest.mark.parametrize("scheme,identity", ALS_CASES, ids=ALS_CASE_IDS)
    @pytest.mark.parametrize("kind", ["planted", "gaussian"])
    def test_stacked_starts_match_the_sequential_oracle(self, scheme, identity, kind):
        store = FrozenFactorStore(60)
        adapter = init_tera(scheme.rows, scheme.cols, scheme, store, identity_factors=identity)
        if kind == "planted":
            target = planted_recovery_task(scheme, store, seed=5, identity_factors=identity).target
        else:
            target = gaussian_recovery_task(scheme.rows, scheme.cols, seed=5).target
        result = als_approx_error(adapter, target, sweeps=6, extra_starts=3, polish_steps=0,
                                  seed=3)
        value, _, fallbacks, sweep_values = als_sweeps_by_starts(
            adapter, target, sweeps=6, extra_starts=3, seed=3)
        scale = float(np.sum(target * target))
        assert abs(result.value - value) <= 1e-10 * scale
        assert_allclose(result.sweep_values, sweep_values, rtol=0, atol=1e-10 * scale)
        assert result.ridge_fallbacks == fallbacks

    @pytest.mark.parametrize("scheme,identity", ALS_CASES, ids=ALS_CASE_IDS)
    @pytest.mark.parametrize("members", [7, 1])
    def test_operator_designs_match_the_direct_design_matrices(self, scheme, identity,
                                                               members):
        # a stack of starts, and the one member of a Gauss-Newton step, on
        # every mode: the operator's GEMM sums in another order than the
        # direct contraction, so the two agree to a few eps relative
        adapter = init_tera(scheme.rows, scheme.cols, scheme, FrozenFactorStore(62),
                            identity_factors=identity)
        core, factors, _ = adapter.network()
        assert core.size * scheme.rows * scheme.cols <= training._DESIGN_OPERATOR_MAX_ENTRIES
        design = training._operator_designs(core, factors)
        rng = np.random.default_rng(members)
        d_stacks = [rng.standard_normal((members, r)) for r in scheme.ranks]
        for mode in range(scheme.order):
            want = _design_matrices(core, factors, d_stacks, mode)
            got = design(d_stacks, mode)
            assert got.shape == want.shape == (members, scheme.rows * scheme.cols,
                                               scheme.ranks[mode])
            assert np.linalg.norm(got - want) <= 8 * np.finfo(float).eps * np.linalg.norm(want)

    @pytest.mark.parametrize("scheme,identity", ALS_CASES, ids=ALS_CASE_IDS)
    def test_direct_designs_above_the_size_limit_match_the_operators(self, monkeypatch,
                                                                     scheme, identity):
        # with the limit at 0 every design matrix is formed directly; the
        # results agree with the operator path's to 1e-10 ||T||^2
        store = FrozenFactorStore(63)
        adapter = init_tera(scheme.rows, scheme.cols, scheme, store, identity_factors=identity)
        targets = (planted_recovery_task(scheme, store, seed=4, identity_factors=identity).target,
                   gaussian_recovery_task(scheme.rows, scheme.cols, seed=4).target)
        direct_builds = []
        original = training._design_matrices

        def counted(*args):
            direct_builds.append(1)
            return original(*args)

        monkeypatch.setattr(training, "_design_matrices", counted)
        for target in targets:
            operator = als_approx_error(adapter, target, sweeps=8, seed=2)
            assert len(direct_builds) == 1  # the operators' one evaluation
            with monkeypatch.context() as patched:
                patched.setattr(training, "_DESIGN_OPERATOR_MAX_ENTRIES", 0)
                direct = als_approx_error(adapter, target, sweeps=8, seed=2)
            assert len(direct_builds) > 1
            direct_builds.clear()
            scale = float(np.sum(target * target))
            assert abs(direct.value - operator.value) <= 1e-10 * scale
            assert_allclose(direct.sweep_values, operator.sweep_values, rtol=0,
                            atol=1e-10 * scale)
            assert direct.ridge_fallbacks == operator.ridge_fallbacks

    def test_ridge_fallbacks_match_the_sequential_oracle(self):
        # identical factor rows and core slices make every start's mode-0
        # subproblem deficient
        rng = np.random.default_rng(15)
        entry = StoreEntry(core=np.ones((2, 2)),
                           factors=(np.ones((2, 3)), rng.standard_normal((2, 3))))
        scheme = TensorizationScheme((3, 3), split=1, ranks=(2, 2))
        adapter = TeraAdapter(scheme, entry, [np.ones(2), np.ones(2)], 1, 0)
        target = rng.standard_normal((3, 3))
        result = als_approx_error(adapter, target, sweeps=5, polish_steps=0, seed=2)
        ran = len(result.sweep_values)  # sweep 2 stalls
        value, _, fallbacks, _ = als_sweeps_by_starts(adapter, target, sweeps=ran, seed=2)
        assert result.stop == "stalled" and ran == 2
        assert result.ridge_fallbacks == fallbacks == 4 * ran
        assert abs(result.value - value) <= 1e-10 * float(np.sum(target * target))

    def test_stacked_solve_masks_the_ridge_fallback_per_member(self):
        # Members 1 and 3 are rank deficient (a repeated column, all zeros);
        # members 0 and 2 are solved exactly, untouched by the fallback.
        rng = np.random.default_rng(31)
        phi = rng.standard_normal((4, 12, 3))
        phi[1, :, 2] = phi[1, :, 0]
        phi[3] = 0.0
        w = rng.standard_normal(12)
        previous = rng.standard_normal((4, 3))
        solution, fell_back, to_svd = training._solve_stacked(phi, w, previous, 1e-10)
        assert fell_back == 2 and to_svd == 4
        for s in range(4):
            want, want_fell_back = least_squares_step(phi[s], w, previous[s], 1e-10)
            assert want_fell_back == (s in (1, 3))
            assert_allclose(solution[s], want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_stacked_solve_uses_the_normal_equations_on_generic_stacks(self, r):
        # Gaussian 64 x r members have cond(phi) below 10, so every member is
        # solved from its Gram matrix, to 1e-12 relative of lstsq's solution
        rng = np.random.default_rng(40 + r)
        phi = rng.standard_normal((7, 64, r))
        w = rng.standard_normal(64)
        previous = rng.standard_normal((7, r))
        solution, fell_back, to_svd = training._solve_stacked(phi, w, previous, 1e-10)
        assert fell_back == 0 and to_svd == 0
        for s in range(7):
            want, want_fell_back = least_squares_step(phi[s], w, previous[s], 1e-10)
            assert not want_fell_back
            assert np.linalg.norm(solution[s] - want) <= 1e-12 * np.linalg.norm(want)

    def test_stacked_solve_sends_an_ill_conditioned_member_to_the_svd(self):
        # member 1's columns c and 3c + e have cond(phi) near 1e6: full rank
        # by lstsq's rule, but past the Gram limit, so it alone is solved by
        # SVD and matches lstsq without falling back
        rng = np.random.default_rng(33)
        phi = rng.standard_normal((3, 64, 2))
        c = phi[1, :, 0]
        phi[1, :, 1] = 3 * c + 1e-5 * np.linalg.norm(c) * rng.standard_normal(64) / 8
        assert 1e5 < np.linalg.cond(phi[1]) < 1e7
        w = rng.standard_normal(64)
        previous = rng.standard_normal((3, 2))
        solution, fell_back, to_svd = training._solve_stacked(phi, w, previous, 1e-10)
        assert fell_back == 0 and to_svd == 1
        for s in range(3):
            want, want_fell_back = least_squares_step(phi[s], w, previous[s], 1e-10)
            assert not want_fell_back
            # an SVD solve is accurate to about cond(phi) * eps relative
            assert np.linalg.norm(solution[s] - want) <= 1e-8 * np.linalg.norm(want)

    def test_stacked_solve_sends_a_stack_with_a_singular_gram_to_the_svd(self):
        # a zero column makes member 2's Gram matrix exactly singular, so the
        # whole stack goes to _solve_by_svd, with its ridge fallback
        rng = np.random.default_rng(34)
        phi = rng.standard_normal((4, 20, 3))
        phi[2, :, 1] = 0.0
        w = rng.standard_normal(20)
        previous = rng.standard_normal((4, 3))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(phi[2].T @ phi[2])
        solution, fell_back, to_svd = training._solve_stacked(phi, w, previous, 1e-10)
        want, want_fell_back = training._solve_by_svd(phi, w, previous, 1e-10)
        assert to_svd == 4
        assert fell_back == want_fell_back == 1
        assert_array_equal(solution, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_refused(self, bad):
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(0))
        target = np.ones((4, 4))
        target[1, 2] = bad
        with pytest.raises(ValueError, match="target holds non-finite"):
            als_approx_error(adapter, target, sweeps=3)

    @pytest.mark.parametrize("scheme,identity", ALS_CASES[::3], ids=[
        f"{s.mode_sizes}-split{s.split}" + ("-identity" if i else "")
        for s, i in ALS_CASES[::3]])
    @pytest.mark.parametrize("kind", ["planted", "gaussian", "zero"])
    def test_unpolished_matches_the_every_sweep_oracle_bit_for_bit(self, scheme, identity,
                                                                    kind):
        # with polish_steps=0 no probe runs: the sweeps go on, past the
        # rounding floor too, up to the first that lowers the best start's
        # objective by less than 64 eps relative (a zero target reaches the
        # floor at sweep 1 and stalls at sweep 2) or to the last
        store = FrozenFactorStore(61)
        adapter = init_tera(scheme.rows, scheme.cols, scheme, store, identity_factors=identity)
        if kind == "planted":
            target = planted_recovery_task(scheme, store, seed=2, identity_factors=identity).target
        elif kind == "gaussian":
            target = gaussian_recovery_task(scheme.rows, scheme.cols, seed=2).target
        else:
            target = np.zeros(adapter.shape)
        result = als_approx_error(adapter, target, sweeps=40, polish_steps=0, seed=1)
        ran = len(result.sweep_values)
        changes = [als_every_sweep(adapter, target, sweeps=n, polish_steps=0,
                                   seed=1).last_sweep_rel_change for n in range(2, ran + 1)]
        assert all(change >= 64 * np.finfo(float).eps for change in changes[:-1])
        assert ran == 40 or changes[-1] < 64 * np.finfo(float).eps
        oracle = als_every_sweep(adapter, target, sweeps=ran, polish_steps=0, seed=1)
        assert result.value == oracle.value
        assert result.sweep_values == oracle.sweep_values
        assert result.ridge_fallbacks == oracle.ridge_fallbacks
        for got, want in zip(result.d_vectors, oracle.d_vectors, strict=True):
            assert_array_equal(got, want)
        assert result.polish_steps_kept == 0

    def test_planted_target_hands_over_at_a_power_of_two_sweep(self):
        # the probe that reaches the floor ends ALS: its d vectors reach the
        # value, and the sweeps before it are the sweeps' own
        scheme = TensorizationScheme((2, 4, 2, 4), split=2)
        stops = set()
        for index in range(6):
            store = FrozenFactorStore(500 + index)
            target = planted_recovery_task(scheme, store, seed=index).target
            adapter = init_tera(8, 8, scheme, store)
            result = als_approx_error(adapter, target, seed=index)
            if index == 5:  # a swamp: no probe reaches the floor
                assert result.stop in ("stalled", "sweeps")
                continue
            ran = len(result.sweep_values)
            floor = 64 * np.finfo(float).eps ** 2 * float(np.sum(target * target))
            assert result.stop == "floor" and result.value <= floor
            assert ran & (ran - 1) == 0 and ran < 50
            assert result.sweep_values == als_approx_error(
                adapter, target, sweeps=ran, polish_steps=0, seed=index).sweep_values
            best = clone_trainable(adapter)
            for d, value in zip(best.d_vectors, result.d_vectors):
                d[:] = value
            diff = target - materialize_delta(best, path="kron")
            assert float(np.sum(diff * diff)) <= 1e-10 * float(np.sum(target * target))
            stops.add(ran)
        assert 1 in stops and len(stops) > 1

    def test_planted_recoveries_match_the_every_sweep_oracle(self):
        # handing over early recovers exactly the planted targets that 50
        # sweeps and a polish without the stop rule recover
        scheme = TensorizationScheme((2, 4, 2, 4), split=2)
        recovered = []
        for index in range(16):
            store = FrozenFactorStore(800 + index)
            target = planted_recovery_task(scheme, store, seed=index).target
            adapter = init_tera(8, 8, scheme, store)
            got = als_approx_error(adapter, target, seed=index)
            want = als_every_sweep(adapter, target, seed=index)
            assert (got.value <= 1e-8) == (want.value <= 1e-8)
            recovered.append(got.value <= 1e-8)
        assert 0 < sum(recovered) < 16

    def test_random_targets_end_near_the_every_sweep_oracle(self):
        # the stop rule ends the crawl: on random targets the polish keeps a
        # step or two where the oracle's keeps dozens, for at most 1e-3 of lhs
        scheme = TensorizationScheme((2, 4, 2, 4), split=2)
        oracle_steps = []
        for index in range(4):
            adapter = init_tera(8, 8, scheme, FrozenFactorStore(41 + index))
            target = gaussian_recovery_task(8, 8, seed=1 + index).target
            got = als_approx_error(adapter, target, seed=index)
            want = als_every_sweep(adapter, target, seed=index)
            assert want.value <= got.value * (1 + 1e-12)
            assert got.value <= want.value * (1 + 1e-3)
            assert got.polish_steps_kept <= 3
            oracle_steps.append(want.polish_steps_kept)
        assert max(oracle_steps) > 20

    def test_stop_names_a_stalled_random_target(self):
        # a random target's objective stops falling long before sweep 150,
        # which ends the sweeps there, with or without the probes; after 3
        # sweeps it is still moving
        scheme = TensorizationScheme((2, 4, 2, 4), split=2)
        adapter = init_tera(8, 8, scheme, FrozenFactorStore(41))
        target = gaussian_recovery_task(8, 8, seed=1).target
        for sweeps, stop in ((150, "stalled"), (3, "sweeps")):
            result = als_approx_error(adapter, target, sweeps=sweeps)
            ran = len(result.sweep_values)
            assert result.stop == stop and (ran < sweeps) == (stop == "stalled")
            assert als_approx_error(adapter, target, sweeps=sweeps,
                                    polish_steps=0).sweep_values == result.sweep_values
            assert (result.last_sweep_rel_change < 64 * np.finfo(float).eps) == (stop == "stalled")

    def test_negative_polish_steps_refused(self):
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(0))
        with pytest.raises(ValueError, match="polish_steps"):
            als_approx_error(adapter, np.zeros((4, 4)), polish_steps=-1)

    def test_negative_extra_starts_refused(self):
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(0))
        with pytest.raises(ValueError, match="extra_starts"):
            als_approx_error(adapter, np.zeros((4, 4)), extra_starts=-1)

    def test_does_not_mutate_adapter(self):
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(16))
        before = [d.copy() for d in adapter.d_vectors]
        als_approx_error(adapter, np.zeros((4, 4)), sweeps=3)
        for d, b in zip(adapter.d_vectors, before):
            assert_array_equal(d, b)

    def test_input_validation(self):
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(0))
        with pytest.raises(ValueError):
            als_approx_error(adapter, np.zeros((4, 4)), sweeps=0)
        with pytest.raises(ValueError):
            als_approx_error(adapter, np.zeros((5, 4)))
        with pytest.raises(TypeError):
            als_approx_error(init_lora(4, 4, 2), np.zeros((4, 4)))


def tiny_task(seed=0):
    return make_mlp_adapt_task(
        layer_sizes=(16, 16, 16, 16),
        n_classes=4,
        n_train=256,
        n_test=128,
        seed=seed,
        pretrain_steps=200,
    )


class TestMlpAdapt:
    def test_task_build_is_deterministic(self):
        t1, t2 = tiny_task(), tiny_task()
        for w1, w2 in zip(t1.base_weights, t2.base_weights):
            assert_array_equal(w1, w2)
        assert_array_equal(t1.target_train[0], t2.target_train[0])

    def test_base_weights_frozen(self):
        task = tiny_task()
        with pytest.raises(ValueError):
            task.base_weights[0][0, 0] = 1.0

    def test_pretraining_learned_the_source_task(self):
        task = tiny_task()
        acc = mlp_accuracy(task.base_weights, task.source_test, task.n_classes)
        assert acc > 0.5  # 4 classes, chance = 0.25

    def test_zero_steps_keeps_base_accuracy(self):
        task = tiny_task()
        cfg = OptimizerConfig(max_steps=0, warmup_steps=0)
        report, _ = fit_mlp_adapt(
            task, "tera", cfg, store=FrozenFactorStore(0),
        )
        assert (
            report.metrics["target_test_accuracy"]
            == report.metrics["base_target_accuracy"]
        )
        assert report.loss_curve  # still non-empty: the step-0 evaluation

    @pytest.mark.parametrize("sizes, groups", [
        ((16, 16, 16, 16), 1),  # three equal layers: one stack
        ((16, 64, 64), 2),  # a (64, 16) and a (64, 64) layer
    ])
    def test_one_stacked_formation_per_group_and_evaluated_step(self, monkeypatch, sizes,
                                                                 groups):
        # steps 0..10 form each group's deltas with one _scale_modes and its
        # gradients with one reduction; no layer materializes on its own,
        # and the report's ranks reuse the final step's deltas
        task = make_mlp_adapt_task(layer_sizes=sizes, n_classes=4, n_train=32, n_test=16,
                                   pretrain_steps=5)
        counts = {}
        for name in ("_scale_modes", "_reduce_by_d_vectors"):
            original = getattr(tera.adapters, name)

            def counted(*args, original=original, name=name, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(tera.adapters, name, counted)
        calls = count_materializations(monkeypatch)
        cfg = OptimizerConfig(max_steps=10, warmup_steps=0)
        fit_mlp_adapt(task, "tera", cfg, store=FrozenFactorStore(0))
        assert counts == {"_scale_modes": 11 * groups, "_reduce_by_d_vectors": 11 * groups}
        assert calls == []

    @staticmethod
    def fit_both(task, family, cfg):
        """The fit and the per-layer oracle from identical fresh adapters:
        ``(report, adapters, oracle curve, oracle adapters)``."""
        report, adapters = fit_mlp_adapt(task, family, cfg, store=FrozenFactorStore(3),
                                         rank=3, adapter_seed=2)
        _, fresh = fit_mlp_adapt(task, family, dataclasses.replace(cfg, max_steps=0),
                                 store=FrozenFactorStore(3), rank=3, adapter_seed=2)
        return report, adapters, mlp_fit_by_layers(task, fresh, cfg), fresh

    @pytest.mark.parametrize("family", ["tera", "tera_iden", "vera"])
    def test_stacked_fit_matches_the_per_layer_oracle(self, family):
        cfg = OptimizerConfig(learning_rate=2e-2, warmup_steps=20, max_steps=150)
        report, adapters, curve, fresh = self.fit_both(tiny_task(), family, cfg)
        assert_stacked_fit_matches(report, adapters, curve, fresh)

    @pytest.mark.parametrize("sizes", [(16, 64, 64), (64, 16, 64, 16)])
    def test_mixed_shapes_match_the_per_layer_oracle(self, sizes):
        # two network groups; in (64, 16, 64, 16) layers 0 and 2 stack
        # around layer 1
        task = make_mlp_adapt_task(layer_sizes=sizes, n_classes=4, n_train=128, n_test=64,
                                   pretrain_steps=50)
        cfg = OptimizerConfig(learning_rate=2e-2, warmup_steps=20, max_steps=150)
        report, adapters, curve, fresh = self.fit_both(task, "tera", cfg)
        assert_stacked_fit_matches(report, adapters, curve, fresh)

    @pytest.mark.parametrize("family", ["lora", "hira"])
    def test_low_rank_fits_are_bitwise_the_per_layer_oracle(self, family):
        cfg = OptimizerConfig(learning_rate=2e-2, warmup_steps=20, max_steps=100)
        report, adapters, curve, fresh = self.fit_both(tiny_task(), family, cfg)
        assert report.loss_curve == curve
        for layer, a in adapters.items():
            for got, want in zip(a.trainable_arrays(), fresh[layer].trainable_arrays(),
                                 strict=True):
                assert_array_equal(got, want)

    def test_report_records_gradient_and_trainable_norms(self):
        cfg = OptimizerConfig(learning_rate=2e-2, warmup_steps=0, max_steps=10)
        report, adapters = fit_mlp_adapt(tiny_task(), "tera", cfg, store=FrozenFactorStore(0))
        norms = report.to_json_dict()["norms"]
        assert norms["steps"] == [0, 1, 2, 4, 8, 10]
        names = [f"layer{layer}" for layer in adapters]
        for key in ("gradient", "trainable"):
            assert sorted(norms[key]) == names
            assert all(len(v) == 6 for v in norms[key].values())
        for layer, a in adapters.items():
            trainable = norms["trainable"][f"layer{layer}"]
            # init: ones on every mode but the zero-init one
            scheme = a.scheme
            ones = sum(scheme.ranks) - scheme.ranks[a.zero_init_mode]
            assert trainable[0] == pytest.approx(np.sqrt(ones), rel=1e-15)
            # the last evaluated step is the adapter's final state
            final = np.concatenate(a.trainable_arrays())
            assert trainable[-1] == pytest.approx(np.linalg.norm(final), rel=1e-15)
            assert norms["gradient"][f"layer{layer}"][0] > 0

    def test_adaptation_improves_target_accuracy(self):
        task = tiny_task()
        cfg = OptimizerConfig(
            learning_rate=2e-2, warmup_steps=50, max_steps=400, seed=0
        )
        report, adapters = fit_mlp_adapt(
            task, "tera", cfg, store=FrozenFactorStore(1)
        )
        assert (
            report.metrics["target_test_accuracy"]
            > report.metrics["base_target_accuracy"] + 0.1
        )
        assert set(report.delta_ranks) == {"layer0", "layer1", "layer2"}
        assert len(adapters) == 3

    def test_finetune_full_produces_updates(self):
        task = tiny_task()
        cfg = OptimizerConfig(learning_rate=1e-2, warmup_steps=50, max_steps=300)
        weights, updates = finetune_full(task, cfg)
        assert len(updates) == 3
        assert updates[0].shape == (16, 16)
        acc = mlp_accuracy(weights, task.target_test, task.n_classes)
        base = mlp_accuracy(task.base_weights, task.target_test, task.n_classes)
        assert acc > base


def assert_stacked_fit_matches(report, adapters, curve, fresh):
    """A stacked MLP fit against the per-layer oracle: the loss curve within
    1e-12 relative, the final trainable arrays within 1e-9 relative."""
    assert [s for s, _ in report.loss_curve] == [s for s, _ in curve]
    for (_, got), (_, want) in zip(report.loss_curve, curve, strict=True):
        assert abs(got - want) <= 1e-12 * abs(want)
    for layer, a in adapters.items():
        got = np.concatenate(a.trainable_arrays())
        want = np.concatenate(fresh[layer].trainable_arrays())
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def backprop(weights, x, y, n_classes):
    """``training._mlp_loss_and_grads`` into fresh gradient arrays."""
    return training._mlp_loss_and_grads(weights, x, y, n_classes,
                                        [np.empty_like(w) for w in weights])


def random_mlp(sizes, n, n_classes, seed=0):
    """Weights drawn like the task's initialization, standard-normal inputs
    and uniform labels."""
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((o, i)) / np.sqrt(i) for i, o in zip(sizes[:-1], sizes[1:])]
    x = rng.standard_normal((n, sizes[0]))
    return weights, x, rng.integers(0, n_classes, n)


class TestMlpBackprop:
    """The trimmed pass (the last layer's ``n_classes`` rows, no input
    gradient) against the full-width oracle."""

    @pytest.mark.parametrize("sizes, n, n_classes", [
        ((64, 64, 64, 64), 256, 8),  # the benchmark's MLP fits
        ((16, 16, 16, 16), 256, 4),  # tiny_task
    ])
    def test_bitwise_the_full_width_oracle(self, sizes, n, n_classes):
        for seed in range(3):
            weights, x, y = random_mlp(sizes, n, n_classes, seed)
            loss, grads = backprop(weights, x, y, n_classes)
            want_loss, want = mlp_loss_and_grads(weights, x, y, n_classes)
            assert loss == want_loss
            for got, expected in zip(grads, want, strict=True):
                assert_array_equal(got, expected)
            assert_array_equal(training.mlp_predict(weights, x, n_classes),
                               np.argmax(mlp_forward(weights, x)[-1][:, :n_classes], axis=1))

    @pytest.mark.parametrize("sizes, n, n_classes", [
        ((64, 64, 64, 64), 512, 8),  # criteria 8 and 9
        ((32, 32, 32), 100, 5),
    ])
    def test_within_rounding_of_the_full_width_oracle(self, sizes, n, n_classes):
        # BLAS blocks the narrower products differently, so only the last
        # bits may differ
        for seed in range(3):
            weights, x, y = random_mlp(sizes, n, n_classes, seed)
            loss, grads = backprop(weights, x, y, n_classes)
            want_loss, want = mlp_loss_and_grads(weights, x, y, n_classes)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            for got, expected in zip(grads, want, strict=True):
                assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_last_layer_rows_past_n_classes_are_exactly_zero(self):
        weights, x, y = random_mlp((16, 12, 10), 40, 3)
        _, grads = backprop(weights, x, y, 3)
        assert grads[-1].shape == (10, 12)
        assert np.all(grads[-1][3:] == 0)
        assert np.all(grads[-1][:3] != 0)

    def test_weight_gradients_match_central_differences(self):
        weights, x, y = random_mlp((5, 6, 4, 6), 20, 3, seed=4)
        _, grads = backprop(weights, x, y, 3)
        h = 1e-6
        for w, grad in zip(weights, grads, strict=True):
            numeric = np.zeros_like(w)
            for index in np.ndindex(w.shape):
                orig = w[index]
                w[index] = orig + h
                plus, _ = backprop(weights, x, y, 3)
                w[index] = orig - h
                minus, _ = backprop(weights, x, y, 3)
                w[index] = orig
                numeric[index] = (plus - minus) / (2 * h)
            assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)


class TestReportIo:
    def test_loss_csv_byte_identical_across_reruns(self, tmp_path):
        def run(path):
            adapter = init_tera(4, 4, SMALL, FrozenFactorStore(20))
            task = gaussian_recovery_task(4, 4, seed=20)
            cfg = OptimizerConfig(max_steps=40, warmup_steps=10, seed=20)
            report = fit_recovery(adapter, task, cfg)
            write_csv(path, LOSS_COLUMNS, report.loss_curve)
            return path.read_bytes()

        assert run(tmp_path / "a.csv") == run(tmp_path / "b.csv")

    def test_csv_layout(self, tmp_path):
        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(21))
        task = gaussian_recovery_task(4, 4, seed=21)
        report = fit_recovery(adapter, task, OptimizerConfig(max_steps=3))
        path = tmp_path / "loss.csv"
        write_csv(path, LOSS_COLUMNS, report.loss_curve)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,loss"
        assert len(lines) == 5  # header + steps 0..3

    def test_report_json_round_trips(self, tmp_path):
        import json

        adapter = init_tera(4, 4, SMALL, FrozenFactorStore(22))
        task = gaussian_recovery_task(4, 4, seed=22)
        report = fit_recovery(adapter, task, OptimizerConfig(max_steps=3))
        path = tmp_path / "report.json"
        write_json(path, report.to_json_dict())
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["final_loss"] == report.final_loss
        assert doc["config"]["task"]["kind"] == "gaussian"
