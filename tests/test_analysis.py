import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tera import analysis, training
from tera.adapters import (
    FrozenFactorStore,
    StoreEntry,
    TeraAdapter,
    init_lora,
    init_tera,
    init_vera,
    init_hira,
    materialize_delta,
    synthetic_base_weight,
)
from tera.analysis import (
    RANK_COLUMNS,
    BoundReport,
    InstanceRejected,
    _verify_expressivity_escalated,
    multiplicative_partitions,
    numerical_rank,
    rank_report,
    verify_expressivity_bound,
    verify_param_bound,
    verify_rank_bound,
)
from tera.tensor_ops import TensorizationScheme, kron_chain, pseudoinverse, unfold
from tera.training import als_approx_error, planted_recovery_task, write_csv, write_json

from oracles import adamw_polish, als_every_sweep, spectral_norm_by_restarts

EIGHT = TensorizationScheme((2, 4, 2, 4), split=2)


class TestNumericalRank:
    def test_diag_with_zero(self):
        assert numerical_rank(np.diag([1.0, 1.0, 0.0])) == 2

    def test_product_rank(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 25))
        assert numerical_rank(m) == 3

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 4))
        assert numerical_rank(m) == numerical_rank(m * 1e-7)

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0


class TestRankBound:
    def test_reduced_ranks_bound_respected(self):
        scheme = TensorizationScheme((4, 4, 4, 4), split=2, ranks=(4, 4, 4, 4))
        report = verify_rank_bound(scheme, trials=20, seed=0)
        assert report.verdict == "holds"
        assert report.rhs == 16.0
        assert report.terms["violations"] == 0

    def test_full_ranks_generically_full(self):
        scheme = TensorizationScheme((4, 8, 4, 8), split=2)
        report = verify_rank_bound(scheme, trials=50, seed=1)
        assert report.verdict == "holds"
        assert report.terms["full_rank_fraction"] >= 0.98

    def test_rank_one_scheme(self):
        scheme = TensorizationScheme((3, 3, 3), split=1, ranks=(1, 1, 1))
        report = verify_rank_bound(scheme, trials=10, seed=2)
        assert report.verdict == "holds"
        assert report.rhs == 1.0
        assert report.terms["max_rank_observed"] <= 1

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            verify_rank_bound(EIGHT, trials=0)


def partitions_by_brute_force(n):
    # independent oracle: ordered factor tuples, deduplicated after sorting
    found = set()

    def go(remaining, acc):
        if remaining == 1:
            if acc:
                found.add(tuple(sorted(acc, reverse=True)))
            return
        for f in range(2, remaining + 1):
            if remaining % f == 0:
                go(remaining // f, acc + [f])

    go(n, [])
    return found


class TestPartitions:
    def test_small_cases(self):
        assert set(multiplicative_partitions(4)) == {(4,), (2, 2)}
        assert set(multiplicative_partitions(12)) == {
            (12,),
            (6, 2),
            (4, 3),
            (3, 2, 2),
        }
        assert multiplicative_partitions(7) == [(7,)]

    def test_matches_brute_force(self):
        for n in [2, 6, 16, 24, 30, 36, 60, 64]:
            assert set(multiplicative_partitions(n)) == partitions_by_brute_force(n)

    def test_products_and_factor_floor(self):
        for part in multiplicative_partitions(96):
            assert int(np.prod(part)) == 96
            assert all(f >= 2 for f in part)

    def test_power_of_two_count(self):
        # factorizations of 2^12 = additive partitions of 12
        assert len(multiplicative_partitions(4096)) == 77

    def test_most_factorizations_under_the_cap(self):
        # no n <= 2^16 has more, so the cap bounds the enumeration
        assert len(multiplicative_partitions(60480)) == 3079

    def test_validation(self):
        with pytest.raises(ValueError):
            multiplicative_partitions(1)
        with pytest.raises(ValueError):
            multiplicative_partitions(2**17)


class TestParamBound:
    def test_square_4096(self):
        report = verify_param_bound(4096, 4096)
        assert report.verdict == "holds"
        assert report.rhs == 8192.0
        assert report.terms["min_params"] == 48
        assert report.terms["min_scheme"]["row_modes"] == [2] * 12
        assert report.terms["equality_attained"]

    def test_rectangular(self):
        report = verify_param_bound(8, 6)
        assert report.verdict == "holds"
        # minima: 2+2+2 for 8, 3+2 for 6
        assert report.terms["min_params"] == 11
        assert report.terms["n_schemes"] == 3 * 2

    def test_prime_dimensions_equality_edge(self):
        report = verify_param_bound(7, 11)
        assert report.terms["min_params"] == 18
        assert report.lhs == report.rhs

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_param_bound(1, 4)


def eight_by_eight_adapter(master_seed=0):
    store = FrozenFactorStore(master_seed)
    return init_tera(8, 8, EIGHT, store)


class TestExpressivityBound:
    def test_planted_target_holds_with_tiny_lhs(self):
        store = FrozenFactorStore(3)
        task = planted_recovery_task(EIGHT, store, seed=0)
        adapter = init_tera(8, 8, EIGHT, store)
        report = verify_expressivity_bound(task.target, adapter, seed=0)
        assert report.verdict == "holds"
        assert report.lhs <= 1e-8
        assert report.terms["subspace_residual"] < 1e-16

    def test_escalation_matches_the_acceptance_ladder(self):
        # The CLI's sixth planted instance at its default seed stalls in an
        # ALS swamp at 3 and at 6 extra starts. Acceptance criterion 4's
        # ladder (6, 12, then 24 starts with 150 sweeps and 800 polish steps
        # at seed + 1) is the oracle: the escalated verifier stops at the
        # same rung, with the same lhs.
        rng = np.random.default_rng(0)
        for _ in range(6):
            master_seed = int(rng.integers(2**31))
            store = FrozenFactorStore(master_seed)
            target = planted_recovery_task(EIGHT, store, seed=int(rng.integers(2**31))).target
        adapter = init_tera(8, 8, EIGHT, store)
        assert verify_expressivity_bound(target, adapter, seed=master_seed).verdict != "holds"
        want = verify_expressivity_bound(target, adapter, extra_starts=6, seed=master_seed)
        assert want.lhs > 1e-8
        want = verify_expressivity_bound(target, adapter, extra_starts=12, seed=master_seed)
        got = _verify_expressivity_escalated(target, adapter, seed=master_seed)
        assert got.verdict == "holds" and got.lhs == want.lhs <= 1e-8
        assert got.terms["als_extra_starts"] == 12

    def test_sides_that_miss_the_network_are_refused(self, monkeypatch):
        adapter = eight_by_eight_adapter()
        left, right = analysis._kron_sides(adapter)
        monkeypatch.setattr(analysis, "_kron_sides", lambda a: (left, right[::-1]))
        with pytest.raises(RuntimeError, match="factored form disagrees"):
            verify_expressivity_bound(np.ones((8, 8)), adapter)

    def test_identity_factors_project_onto_everything(self):
        adapter = init_tera(8, 8, EIGHT, FrozenFactorStore(3), identity_factors=True)
        w_star = np.random.default_rng(7).standard_normal((8, 8))
        report = verify_expressivity_bound(w_star, adapter, seed=0, sweeps=2)
        assert report.terms["subspace_residual"] <= 1e-24
        assert_allclose([report.terms["left_frob_sq"], report.terms["right_frob_sq"]], 8.0)

    def test_random_targets_never_violated(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            adapter = eight_by_eight_adapter(master_seed=trial + 10)
            w_star = rng.standard_normal((8, 8))
            report = verify_expressivity_bound(w_star, adapter, seed=trial)
            assert report.verdict in ("holds", "inconclusive")
            assert report.lhs >= 0.0
            assert report.rhs >= 0.0

    def test_random_verdicts_match_the_adamw_polish_oracle(self):
        # Gauss-Newton, from where the sweeps stall or end, may end a random
        # target a hair above the AdamW polish it replaced, run after all 50
        # sweeps (tests/oracles.py), but never on the other side of rhs
        rng = np.random.default_rng(9)
        for trial in range(6):
            adapter = eight_by_eight_adapter(master_seed=trial + 30)
            w_star = rng.standard_normal((8, 8))
            report = verify_expressivity_bound(w_star, adapter, seed=trial)
            swept = als_approx_error(adapter, w_star, polish_steps=0, seed=trial)
            assert report.terms["als_value_before_polish"] == swept.value
            every = als_every_sweep(adapter, w_star, polish_steps=0, seed=trial)
            reference, _ = adamw_polish(adapter, w_star, every.d_vectors, every.value)
            assert report.verdict == (
                "holds" if reference <= report.rhs + report.terms["tolerance"] else "inconclusive")

    @pytest.mark.parametrize("planted", [True, False])
    def test_direct_design_matrices_give_the_same_verdicts(self, monkeypatch, planted):
        # above the operators' size limit ALS forms every design matrix
        # directly (a limit of 0 forces it): lhs within 1e-10 ||T||^2 of the
        # operators' lhs, the same ridge fallbacks and the same verdict
        rng = np.random.default_rng(21)
        for trial in range(4):
            store = FrozenFactorStore(trial + 50)
            adapter = init_tera(8, 8, EIGHT, store)
            if planted:
                target = planted_recovery_task(EIGHT, store, seed=trial).target
            else:
                target = rng.standard_normal((8, 8))
            operator = verify_expressivity_bound(target, adapter, seed=trial)
            with monkeypatch.context() as patched:
                patched.setattr(training, "_DESIGN_OPERATOR_MAX_ENTRIES", 0)
                direct = verify_expressivity_bound(target, adapter, seed=trial)
            assert abs(direct.lhs - operator.lhs) <= 1e-10 * float(np.sum(target * target))
            assert direct.terms["als_ridge_fallbacks"] == operator.terms["als_ridge_fallbacks"]
            assert direct.verdict == operator.verdict

    def test_subspace_residual_matches_projector_oracle(self):
        adapter = eight_by_eight_adapter(master_seed=20)
        rng = np.random.default_rng(5)
        w_star = rng.standard_normal((8, 8))
        report = verify_expressivity_bound(w_star, adapter, seed=0, sweeps=2)

        factors = adapter.entry.factors
        left = kron_chain([f.T for f in factors[:2]])
        right = kron_chain([f.T for f in factors[2:]])
        p_l = left @ pseudoinverse(left)
        p_r = right @ pseudoinverse(right)
        expected = np.linalg.norm(w_star - p_l @ w_star @ p_r) ** 2
        assert_allclose(report.terms["subspace_residual"], expected, rtol=1e-10)

    def test_orthogonal_target_residual_is_full_norm(self):
        # Reduced ranks leave a proper left subspace; a target built in its
        # orthogonal complement is killed by the projector entirely.
        scheme = TensorizationScheme((2, 4, 2, 4), split=2, ranks=(2, 2, 2, 2))
        adapter = init_tera(8, 8, scheme, FrozenFactorStore(21))
        factors = adapter.entry.factors
        left = kron_chain([f.T for f in factors[:2]])  # 8 x 4
        q, _ = np.linalg.qr(left)
        rng = np.random.default_rng(6)
        w = rng.standard_normal((8, 8))
        w_perp = w - q @ (q.T @ w)
        assert np.linalg.norm(w_perp) > 1.0  # complement is nontrivial
        report = verify_expressivity_bound(w_perp, adapter, seed=0, sweeps=2)
        assert_allclose(
            report.terms["subspace_residual"],
            np.linalg.norm(w_perp) ** 2,
            rtol=1e-8,
        )

    def test_gap_never_negative(self):
        adapter = eight_by_eight_adapter(master_seed=22)
        rng = np.random.default_rng(7)
        report = verify_expressivity_bound(
            rng.standard_normal((8, 8)), adapter, seed=0, sweeps=2
        )
        assert report.terms["gap"] >= 0.0
        assert (
            report.terms["spectral_norm_estimate"] ** 2
            <= report.terms["z_frob_sq"] + 1e-8
        )

    def test_random_target_solves_no_subproblem_by_svd(self):
        # criterion 4's first random instance: every ALS subproblem is well
        # conditioned, so the normal equations solve them all
        rng = np.random.default_rng(1234)
        for trial in itertools.count():
            adapter = init_tera(8, 8, EIGHT, FrozenFactorStore(master_seed=trial))
            target = rng.standard_normal((8, 8))
            try:
                report = verify_expressivity_bound(target, adapter, extra_starts=6,
                                                   seed=trial + 1)
            except InstanceRejected:
                continue
            break
        assert report.terms["als_svd_solves"] == 0
        assert report.terms["als_ridge_fallbacks"] == 0

    def test_svd_solves_count_the_deficient_subproblems(self):
        # the adapter of test_training.py's
        # test_ridge_fallbacks_match_the_sequential_oracle, whose mode-0
        # subproblem is deficient for every start: each fallback is an SVD
        # solve, 4 a sweep over the 2 sweeps that run before ALS stalls
        rng = np.random.default_rng(15)
        entry = StoreEntry(core=np.ones((2, 2)),
                           factors=(np.ones((2, 3)), rng.standard_normal((2, 3))))
        scheme = TensorizationScheme((3, 3), split=1, ranks=(2, 2))
        adapter = TeraAdapter(scheme, entry, [np.ones(2), np.ones(2)], 1, 0)
        target = rng.standard_normal((3, 3))
        report = verify_expressivity_bound(target, adapter, sweeps=5, polish_steps=0, seed=2)
        assert report.terms["als_stop"] == "stalled"
        assert report.terms["als_ridge_fallbacks"] == 8
        assert report.terms["als_svd_solves"] >= 8

    def test_terms_record_whether_als_was_still_moving(self):
        adapter = eight_by_eight_adapter(master_seed=24)
        w_star = np.random.default_rng(8).standard_normal((8, 8))
        args = dict(sweeps=4, polish_steps=0, seed=2)
        report = verify_expressivity_bound(w_star, adapter, **args)
        als = als_approx_error(adapter, w_star, **args)
        before, last = als.sweep_values[-2:]
        assert report.terms["als_last_sweep_rel_change"] == (before - last) / before
        assert report.terms["als_last_sweep_rel_change"] >= -1e-12
        one_sweep = verify_expressivity_bound(w_star, adapter, **dict(args, sweeps=1))
        assert one_sweep.terms["als_last_sweep_rel_change"] is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_refused(self, bad):
        w_star = np.ones((8, 8))
        w_star[3, 4] = bad
        with pytest.raises(ValueError, match="w_star holds non-finite"):
            verify_expressivity_bound(w_star, eight_by_eight_adapter(), sweeps=2)

    @pytest.mark.parametrize("planted", [True, False])
    def test_rhs_matches_the_restart_by_restart_power_method(self, monkeypatch, planted):
        # criterion 4's first instances, verified as is and with the power
        # method swapped for its restart-by-restart oracle: the same verdict
        # and convergence flag, and rhs within 1e-12 relative. rhs takes
        # ||Z||_F^2 - ||Z||_2^2, which scales the estimates' 1e-16 spread by
        # ||Z||_F^2 / gap (8e-14 relative here on random trial 0)
        rng = np.random.default_rng(1234)
        for trial in range(4):
            if planted:
                store = FrozenFactorStore(master_seed=10_000 + trial)
                target = planted_recovery_task(EIGHT, store, seed=trial).target
            else:
                store = FrozenFactorStore(master_seed=trial)
                target = rng.standard_normal((8, 8))
            adapter = init_tera(8, 8, EIGHT, store)
            seed = trial if planted else trial + 1
            got = verify_expressivity_bound(target, adapter, extra_starts=6, seed=seed)
            with monkeypatch.context() as patched:
                patched.setattr(analysis, "tensor_spectral_norm", spectral_norm_by_restarts)
                want = verify_expressivity_bound(target, adapter, extra_starts=6, seed=seed)
            assert got.verdict == want.verdict
            assert (got.terms["spectral_norm_converged"]
                    == want.terms["spectral_norm_converged"])
            assert abs(got.rhs - want.rhs) <= 1e-12 * want.rhs

    def test_inconclusive_cause(self, monkeypatch):
        # The CLI's sixth planted instance at its default seed stalls in an
        # ALS swamp at 3 extra starts; its power method converges.
        rng = np.random.default_rng(0)
        for _ in range(6):
            master_seed = int(rng.integers(2**31))
            store = FrozenFactorStore(master_seed)
            target = planted_recovery_task(EIGHT, store, seed=int(rng.integers(2**31))).target
        adapter = init_tera(8, 8, EIGHT, store)
        stalled = verify_expressivity_bound(target, adapter, seed=master_seed)
        assert stalled.verdict == "inconclusive"
        assert stalled.terms["spectral_norm_converged"]
        assert stalled.to_json_dict()["terms"]["inconclusive_cause"] == "als_stalled"
        held = verify_expressivity_bound(target, adapter, extra_starts=12, seed=master_seed)
        assert held.verdict == "holds" and held.terms["inconclusive_cause"] == "none"

        real = analysis.tensor_spectral_norm
        monkeypatch.setattr(analysis, "tensor_spectral_norm",
                            lambda z, seed: real(z, seed=seed)._replace(converged=False))
        unsettled = verify_expressivity_bound(target, adapter, seed=master_seed)
        assert unsettled.verdict == "inconclusive"
        assert unsettled.terms["inconclusive_cause"] == "spectral_not_converged"
        held = verify_expressivity_bound(target, adapter, extra_starts=12, seed=master_seed)
        assert held.terms["inconclusive_cause"] == "none"

    def test_near_zero_core_rejected(self):
        adapter = eight_by_eight_adapter(master_seed=23)
        core = adapter.entry.core
        core.setflags(write=True)
        core.flat[0] = 0.0
        core.setflags(write=False)
        with pytest.raises(InstanceRejected):
            verify_expressivity_bound(np.ones((8, 8)), adapter)

    def test_wrong_family_and_shape(self):
        with pytest.raises(TypeError):
            verify_expressivity_bound(np.ones((4, 4)), init_lora(4, 4, 2))
        with pytest.raises(ValueError):
            verify_expressivity_bound(np.ones((4, 5)), eight_by_eight_adapter())

    def test_rejected_draws_are_redrawn_up_to_ten_per_instance(self, monkeypatch):
        drawn = []
        real = analysis._verify_expressivity_escalated

        def every_other(w_star, adapter, **kwargs):
            drawn.append(adapter.master_seed)
            if len(drawn) % 2:
                raise InstanceRejected("odd draw")
            return real(w_star, adapter, **kwargs)

        monkeypatch.setattr(analysis, "_verify_expressivity_escalated", every_other)
        suite = analysis.verify_expressivity_instances(EIGHT, 2, sweeps=2)
        assert suite.rejected == 2 and len(drawn) == 4
        assert [r.instance["master_seed"] for r in suite.reports] == drawn[1::2]

        def always(w_star, adapter, **kwargs):
            drawn.append(adapter.master_seed)
            raise InstanceRejected("every draw")

        drawn.clear()
        monkeypatch.setattr(analysis, "_verify_expressivity_escalated", always)
        with pytest.raises(ValueError, match="too many rejected instances"):
            analysis.verify_expressivity_instances(EIGHT, 3, sweeps=2)
        assert len(drawn) == 30


class TestRankReport:
    def entries(self):
        store = FrozenFactorStore(30)
        tera = init_tera(8, 8, EIGHT, store)
        lora = init_lora(8, 8, 2, seed=0)
        vera = init_vera(8, 8, 3, store)
        hira = init_hira(8, 8, 2, w0=synthetic_base_weight(8, 8, 0), seed=1)
        return [
            ("layer0", "tera", tera),
            ("layer0", "lora", lora),
            ("layer0", "vera", vera),
            ("layer0", "hira", hira),
        ]

    def test_zero_init_all_zero_ranks(self):
        report = rank_report(self.entries())
        assert [row["rank"] for row in report.rows] == [0, 0, 0, 0]

    def test_structural_caps(self):
        entries = self.entries()
        rng = np.random.default_rng(8)
        for _, _, adapter in entries:
            for arr in adapter.trainable_arrays():
                arr[:] = rng.standard_normal(arr.shape)
        report = rank_report(entries)
        for row, (_, _, adapter) in zip(report.rows, entries):
            assert row["rank"] <= row["max_rank"]
            assert row["max_rank"] == adapter.max_rank()
        by_family = {row["family"]: row for row in report.rows}
        assert by_family["tera"]["max_rank"] == 8
        assert by_family["lora"]["max_rank"] == 2
        assert by_family["vera"]["max_rank"] == 3
        assert by_family["hira"]["max_rank"] == 8

    def test_lora_rank_exactly_r_when_trained(self):
        lora = init_lora(16, 16, 4, seed=2)
        rng = np.random.default_rng(9)
        lora.b[:] = rng.standard_normal(lora.b.shape)
        report = rank_report([("l", "lora", lora)])
        assert report.rows[0]["rank"] == 4

    @pytest.mark.parametrize("rel_tol", [0.0, 1.0, 2.0, -1e-8])
    def test_rel_tol_outside_unit_interval_rejected(self, rel_tol):
        # numerical_rank's rule, which rank_report counts through
        with pytest.raises(ValueError, match="rel_tol"):
            rank_report(self.entries(), rel_tol=rel_tol)
        with pytest.raises(ValueError, match="rel_tol"):
            numerical_rank(np.eye(3), rel_tol=rel_tol)

    def test_spectra_recorded(self):
        report = rank_report(self.entries())
        assert set(report.spectra) == {
            "layer0/tera",
            "layer0/lora",
            "layer0/vera",
            "layer0/hira",
        }
        assert len(report.spectra["layer0/tera"]) == 8


class TestReportIo:
    def test_rank_csv_layout(self, tmp_path):
        report = rank_report([("l0", "lora", init_lora(4, 4, 2, seed=0))])
        path = tmp_path / "ranks.csv"
        write_csv(path, RANK_COLUMNS, [[r[c] for c in RANK_COLUMNS] for r in report.rows])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "layer,family,rank,max_rank,tolerance"
        assert lines[1] == "l0,lora,0,2,1e-08"

    def test_rank_json_round_trip(self, tmp_path):
        report = rank_report([("l0", "lora", init_lora(4, 4, 2, seed=0))])
        path = tmp_path / "ranks.json"
        write_json(path, report.to_json_dict())
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["rows"][0]["family"] == "lora"

    def test_bound_report_json(self, tmp_path):
        report = verify_param_bound(8, 8)
        path = tmp_path / "bound.json"
        write_json(path, report.to_json_dict())
        doc = json.loads(path.read_text())
        assert doc["bound_id"] == "param_count_bound"
        assert doc["verdict"] == "holds"
        assert isinstance(doc["terms"]["min_params"], int)

    def test_bound_report_booleans_stay_booleans(self, tmp_path):
        store = FrozenFactorStore(3)
        adapter = init_tera(8, 8, EIGHT, store)
        target = planted_recovery_task(EIGHT, store, seed=4).target
        reports = {
            "param": verify_param_bound(8, 8),
            "expressivity": verify_expressivity_bound(
                target, adapter, sweeps=5, polish_steps=0
            ),
        }
        docs = {}
        for name, report in reports.items():
            write_json(tmp_path / name, report.to_json_dict())
            docs[name] = json.loads((tmp_path / name).read_text())
        assert docs["param"]["terms"]["equality_attained"] is True
        assert docs["expressivity"]["instance"]["identity_factors"] is False
        assert isinstance(docs["expressivity"]["terms"]["spectral_norm_converged"], bool)

    def test_write_json_plain_values_and_non_finite(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {
            "flag": np.bool_(True),
            "count": np.int64(3),
            "ratio": np.float32(0.5),
            "values": np.arange(2.0),
            "loss": float("nan"),
        })
        text = path.read_text()
        assert text.endswith("}\n")
        doc = json.loads(text)
        assert doc["flag"] is True and doc["count"] == 3 and doc["ratio"] == 0.5
        assert doc["values"] == [0.0, 1.0]
        assert np.isnan(doc["loss"])

    def test_write_csv_quotes_commas_and_reprs_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["scheme", "value"], [("4,4|4,4", np.float64(0.1)), ("x", 2)])
        assert path.read_bytes() == b'scheme,value\n"4,4|4,4",0.1\nx,2\n'

    def test_rank_bound_report_serializes(self, tmp_path):
        report = verify_rank_bound(EIGHT, trials=3, seed=0)
        write_json(tmp_path / "r.json", report.to_json_dict())
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["instance"]["scheme"]["mode_sizes"] == [2, 4, 2, 4]
