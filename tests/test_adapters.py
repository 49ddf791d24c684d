import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import tera
from tera.adapters import (
    CheckpointError,
    FrozenFactorStore,
    _design_matrices,
    _stacked,
    apply_delta,
    clone_trainable,
    init_hira,
    init_lora,
    init_tera,
    init_vera,
    load_checkpoint,
    lora_param_count,
    materialize_delta,
    save_checkpoint,
    synthetic_base_weight,
    trainable_param_count,
    vera_full_rank_param_count,
    vera_param_count,
    vera_rank_for_budget,
)
from tera.tensor_ops import TensorizationScheme, unfold

import checkpoint_docs
from checkpoint_docs import FAMILIES, MALFORMED, malformed_doc, valid_doc, write
from oracles import explicit_factors, tera_delta_by_loops, tera_design_by_loops

SMALL = TensorizationScheme((2, 2, 2, 2), split=2)


def small_adapter(master_seed=7, d_seed=None, **kwargs):
    store = FrozenFactorStore(master_seed)
    a = init_tera(4, 4, SMALL, store, **kwargs)
    if d_seed is not None:
        rng = np.random.default_rng(d_seed)
        for d in a.d_vectors:
            d[:] = rng.standard_normal(d.shape)
    return a


class TestStore:
    def test_same_seed_bit_identical(self):
        e1 = FrozenFactorStore(42).tera_entry(SMALL)
        e2 = FrozenFactorStore(42).tera_entry(SMALL)
        assert_array_equal(e1.core, e2.core)
        for f1, f2 in zip(e1.factors, e2.factors):
            assert_array_equal(f1, f2)

    def test_access_order_does_not_matter(self):
        other = TensorizationScheme((2, 3, 3), split=1)
        s1 = FrozenFactorStore(5)
        s2 = FrozenFactorStore(5)
        s1.tera_entry(SMALL)
        a = s1.tera_entry(other)
        b = s2.tera_entry(other)
        assert_array_equal(a.core, b.core)

    def test_different_seed_differs(self):
        e1 = FrozenFactorStore(1).tera_entry(SMALL)
        e2 = FrozenFactorStore(2).tera_entry(SMALL)
        assert not np.array_equal(e1.core, e2.core)

    def test_entries_are_read_only(self):
        entry = FrozenFactorStore(0).tera_entry(SMALL)
        with pytest.raises(ValueError):
            entry.core[(0,) * SMALL.order] = 1.0
        with pytest.raises(ValueError):
            entry.factors[0][0, 0] = 1.0

    def test_adapters_share_entry_by_identity(self):
        store = FrozenFactorStore(3)
        a1 = init_tera(4, 4, SMALL, store)
        a2 = init_tera(4, 4, SMALL, store)
        assert a1.entry is a2.entry
        assert a1.core is a2.core

    def test_identity_variant_shares_same_core(self):
        store = FrozenFactorStore(3)
        plain = init_tera(4, 4, SMALL, store)
        iden = init_tera(4, 4, SMALL, store, identity_factors=True)
        assert iden.entry is plain.entry
        core, factors, _ = iden.network()
        assert core is plain.core and factors == (None,) * SMALL.order

    def test_vera_pair_shapes_and_determinism(self):
        b1, a1 = FrozenFactorStore(9).vera_pair(6, 5, 3)
        b2, a2 = FrozenFactorStore(9).vera_pair(6, 5, 3)
        assert b1.shape == (6, 3) and a1.shape == (3, 5)
        assert_array_equal(b1, b2)
        assert_array_equal(a1, a2)

    def test_rejects_negative_master_seed(self):
        with pytest.raises(ValueError):
            FrozenFactorStore(-1)


class TestInit:
    def test_zero_delta_at_init_all_families(self):
        store = FrozenFactorStore(11)
        w0 = synthetic_base_weight(6, 6, 0)
        adapters = [
            init_tera(4, 4, SMALL, store),
            init_lora(6, 6, 2, seed=1),
            init_vera(6, 6, 3, store),
            init_hira(6, 6, 2, w0=w0, seed=2),
        ]
        for a in adapters:
            assert_array_equal(materialize_delta(a), np.zeros(a.shape))

    def test_zero_init_mode_default_is_last(self):
        a = small_adapter()
        assert a.zero_init_mode == SMALL.order - 1
        assert_array_equal(a.d_vectors[-1], np.zeros(2))
        for d in a.d_vectors[:-1]:
            assert_array_equal(d, np.ones(2))

    def test_zero_init_mode_configurable(self):
        a = small_adapter(zero_init_mode=0)
        assert_array_equal(a.d_vectors[0], np.zeros(2))
        assert_array_equal(materialize_delta(a), np.zeros((4, 4)))

    def test_rejects_mismatched_scheme(self):
        store = FrozenFactorStore(0)
        with pytest.raises(ValueError):
            init_tera(8, 4, SMALL, store)

    def test_rejects_identity_factors_with_reduced_ranks(self):
        scheme = TensorizationScheme((4, 4), split=1, ranks=(2, 4))
        store = FrozenFactorStore(0)
        with pytest.raises(ValueError):
            init_tera(4, 4, scheme, store, identity_factors=True)

    def test_rejects_bad_zero_init_mode(self):
        store = FrozenFactorStore(0)
        with pytest.raises(ValueError):
            init_tera(4, 4, SMALL, store, zero_init_mode=4)

    @pytest.mark.parametrize("family", ["lora", "vera", "hira"])
    @pytest.mark.parametrize("rank", [0, -1])
    def test_low_rank_families_refuse_rank_below_one(self, family, rank):
        init = {
            "lora": lambda: init_lora(4, 4, rank),
            "vera": lambda: init_vera(4, 4, rank, FrozenFactorStore(0)),
            "hira": lambda: init_hira(4, 4, rank, w0_seed=0),
        }[family]
        with pytest.raises(ValueError, match="rank"):
            init()

    def test_vera_starts_at_the_d_init_it_records(self):
        v = init_vera(4, 6, 3, FrozenFactorStore(0))
        assert_array_equal(v.d, np.full(3, v.to_doc()["d_init"]))

    def test_hira_needs_w0_or_seed(self):
        with pytest.raises(ValueError):
            init_hira(4, 4, 2)

    def test_synthetic_base_weight_deterministic_and_frozen(self):
        w1 = synthetic_base_weight(5, 7, 3)
        w2 = synthetic_base_weight(5, 7, 3)
        assert_array_equal(w1, w2)
        with pytest.raises(ValueError):
            w1[0, 0] = 0.0


class TestMaterialize:
    def test_matches_element_wise_oracle(self):
        a = small_adapter(d_seed=0)
        expected = tera_delta_by_loops(a.core, a.entry.factors, a.d_vectors, SMALL.split)
        assert_allclose(materialize_delta(a), expected, atol=1e-12)

    def test_mode_and_kronecker_paths_agree(self):
        rng = np.random.default_rng(1)
        schemes = [
            SMALL,
            TensorizationScheme((4, 2, 2), split=1),
            TensorizationScheme((2, 3, 4), split=2),
            TensorizationScheme((16, 4, 4), split=1),
            TensorizationScheme((4, 4, 4, 4), split=2, ranks=(2, 3, 2, 3)),
        ]
        for trial, scheme in enumerate(schemes):
            store = FrozenFactorStore(trial)
            a = init_tera(scheme.rows, scheme.cols, scheme, store)
            for d in a.d_vectors:
                d[:] = rng.standard_normal(d.shape)
            via_modes = materialize_delta(a, path="mode")
            via_kron = materialize_delta(a, path="kron")
            scale = max(1.0, np.abs(via_modes).max())
            assert_allclose(via_modes, via_kron, atol=1e-10 * scale)

    def test_identity_factors_all_ones_d_reduces_to_core_unfold(self):
        a = small_adapter(identity_factors=True)
        for d in a.d_vectors:
            d[:] = 1.0
        assert_allclose(
            materialize_delta(a), unfold(a.core, SMALL.split), atol=1e-14
        )

    def test_any_zero_d_vector_annihilates(self):
        for mode in range(4):
            a = small_adapter(d_seed=2)
            a.d_vectors[mode][:] = 0.0
            assert_array_equal(materialize_delta(a), np.zeros((4, 4)))

    def test_scaling_one_d_scales_delta_linearly(self):
        a = small_adapter(d_seed=3)
        base = materialize_delta(a)
        a.d_vectors[1] *= -2.5
        assert_allclose(materialize_delta(a), -2.5 * base, rtol=1e-12, atol=1e-15)

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            materialize_delta(small_adapter(), path="magic")

    @pytest.mark.parametrize("family", ["tera", "tera_iden", "lora", "vera", "hira"])
    def test_path_is_mode_or_kron_for_the_tensor_network_only(self, family):
        store = FrozenFactorStore(12)
        a = {
            "tera": lambda: small_adapter(d_seed=1),
            "tera_iden": lambda: small_adapter(d_seed=1, identity_factors=True),
            "lora": lambda: init_lora(4, 5, 2, seed=1),
            "vera": lambda: init_vera(4, 5, 3, store),
            "hira": lambda: init_hira(4, 5, 2, w0_seed=1),
        }[family]()
        mode = materialize_delta(a, path="mode")
        assert_array_equal(mode, materialize_delta(a))
        if a.family == "tera":
            assert_allclose(materialize_delta(a, path="kron"), mode, atol=1e-12)
        else:
            with pytest.raises(ValueError, match="kron"):
                materialize_delta(a, path="kron")
        with pytest.raises(ValueError, match="bogus"):
            materialize_delta(a, path="bogus")

    def test_not_an_adapter_rejected(self):
        with pytest.raises(TypeError):
            materialize_delta(np.zeros((2, 2)))


# The scheme pools of acceptance criteria 5 and 6, a reduced-rank scheme and
# identity factors (which need full ranks).
DESIGN_CASES = [
    (TensorizationScheme((4, 2, 2), split=1), False),
    (TensorizationScheme((2, 2, 2, 2), split=2), False),
    (TensorizationScheme((4, 4), split=1), False),
    (TensorizationScheme((2, 4, 4, 2), split=2), False),
    (TensorizationScheme((16, 4, 4), split=1), False),
    (TensorizationScheme((4, 4, 4, 4), split=2), False),
    (TensorizationScheme((2, 8, 8, 2), split=2), False),
    (TensorizationScheme((8, 2, 2, 2), split=1), False),
    (TensorizationScheme((2, 2, 2, 2, 2, 2), split=3), False),
    (TensorizationScheme((4, 4, 2), split=1, ranks=(2, 3, 2)), False),
    (TensorizationScheme((2, 2, 2, 2), split=2), True),
    (TensorizationScheme((4, 2, 2), split=1), True),
]


class TestDesignMatrix:
    @pytest.mark.parametrize("case", range(len(DESIGN_CASES)), ids=[
        f"{s.mode_sizes}-split{s.split}-ranks{s.ranks}" + ("-identity" if i else "")
        for s, i in DESIGN_CASES])
    def test_matches_per_basis_oracle_and_materialization(self, case):
        scheme, identity = DESIGN_CASES[case]
        a = init_tera(scheme.rows, scheme.cols, scheme, FrozenFactorStore(40 + case),
                      identity_factors=identity)
        rng = np.random.default_rng(50 + case)
        for d in a.d_vectors:
            d[:] = rng.standard_normal(d.shape)
        factors = explicit_factors(a)
        delta = materialize_delta(a).ravel()
        for mode in range(scheme.order):
            phi = _design_matrices(a.core, a.network()[1], _stacked(a.d_vectors), mode)[0]
            expected = tera_design_by_loops(a.core, factors, a.d_vectors, scheme.split, mode)
            assert phi.shape == (scheme.rows * scheme.cols, scheme.ranks[mode])
            assert np.linalg.norm(phi - expected) <= 1e-12 * np.linalg.norm(expected)
            assert np.linalg.norm(phi @ a.d_vectors[mode] - delta) <= (
                1e-12 * np.linalg.norm(delta))


class TestApplyDelta:
    def test_zero_init_gives_zero_vector(self):
        a = small_adapter()
        assert_array_equal(apply_delta(a, np.ones(4)), np.zeros(4))

    def test_basis_vector_extracts_column(self):
        a = small_adapter(d_seed=4)
        delta = materialize_delta(a)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            assert_allclose(apply_delta(a, e), delta[:, j], atol=1e-12)

    def test_factored_matches_materialized_all_families(self):
        rng = np.random.default_rng(5)
        store = FrozenFactorStore(13)
        w0 = synthetic_base_weight(6, 8, 1)
        adapters = [
            small_adapter(d_seed=6),
            init_lora(6, 8, 3, seed=7),
            init_vera(6, 8, 4, store),
            init_hira(6, 8, 3, w0=w0, seed=8),
        ]
        for a in adapters:
            for arr in a.trainable_arrays():
                arr[:] = rng.standard_normal(arr.shape)
            x = rng.standard_normal(a.shape[1])
            want = materialize_delta(a) @ x
            scale = max(1.0, np.abs(want).max())
            assert_allclose(apply_delta(a, x), want, atol=1e-10 * scale)

    def test_one_sided_scheme_single_column_mode(self):
        # Split immediately after the first mode: the column side is a single
        # mode and the row side is everything else.
        scheme = TensorizationScheme((8, 2, 2), split=2)
        store = FrozenFactorStore(17)
        a = init_tera(16, 2, scheme, store)
        rng = np.random.default_rng(9)
        for d in a.d_vectors:
            d[:] = rng.standard_normal(d.shape)
        x = rng.standard_normal(2)
        assert_allclose(apply_delta(a, x), materialize_delta(a) @ x, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_delta(small_adapter(), np.ones(5))


def merge(adapter, w0):
    """Final weight w0 + delta: merging is a plain addition for every
    family, the Hadamard one included (its delta carries its own mask)."""
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != adapter.shape:
        raise ValueError(f"base weight shape {w0.shape} != adapter {adapter.shape}")
    return w0 + materialize_delta(adapter)


class TestMerge:
    def test_zero_init_leaves_base_unchanged(self):
        a = small_adapter()
        w0 = np.arange(16.0).reshape(4, 4)
        assert_array_equal(merge(a, w0), w0)

    def test_merge_with_zero_base_is_delta(self):
        a = small_adapter(d_seed=10)
        assert_array_equal(merge(a, np.zeros((4, 4))), materialize_delta(a))

    def test_merged_product_is_sum_of_products(self):
        rng = np.random.default_rng(11)
        a = small_adapter(d_seed=12)
        w0 = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        want = w0 @ x + apply_delta(a, x)
        assert_allclose(merge(a, w0) @ x, want, atol=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge(small_adapter(), np.zeros((4, 5)))


class TestParamCounts:
    def test_tera_one_sided_64(self):
        scheme = TensorizationScheme((64, 4, 4, 4), split=1)
        store = FrozenFactorStore(0)
        a = init_tera(64, 64, scheme, store)
        assert trainable_param_count(a) == 64 + 4 + 4 + 4 == 76

    def test_tera_count_is_sum_of_ranks(self):
        scheme = TensorizationScheme((64,) * 4, split=2)
        assert scheme.num_trainable() == 256

    def test_tera_binary_modes_count(self):
        scheme = TensorizationScheme((2,) * 24, split=12)
        assert scheme.num_trainable() == 48

    def test_lora_rank_one(self):
        assert lora_param_count(4096, 4096, 1) == 8192
        a = init_lora(5, 7, 1)
        assert trainable_param_count(a) == 12

    def test_vera_counts(self):
        assert vera_param_count(4096, 4096) == 8192
        assert vera_full_rank_param_count(4096, 4096) == 8192
        store = FrozenFactorStore(0)
        assert trainable_param_count(init_vera(6, 9, 3, store)) == 9

    def test_hira_count(self):
        assert lora_param_count(6, 9, 2) == 30
        a = init_hira(6, 9, 2, w0_seed=0)
        assert trainable_param_count(a) == 30

    def test_vera_rank_for_budget(self):
        assert vera_rank_for_budget(64, 76) == 12
        with pytest.raises(ValueError):
            vera_rank_for_budget(64, 64)


class TestClone:
    def test_clone_shares_frozen_but_not_trainable(self):
        a = small_adapter(d_seed=13)
        c = clone_trainable(a)
        assert c.entry is a.entry
        c.d_vectors[0][:] = 99.0
        assert a.d_vectors[0][0] != 99.0

    def test_clone_other_families(self):
        store = FrozenFactorStore(0)
        v = init_vera(4, 4, 2, store)
        cv = clone_trainable(v)
        assert cv.b_frozen is v.b_frozen
        cv.d[:] = 5.0
        assert v.d[0] == 0.1
        h = init_hira(4, 4, 2, w0_seed=1)
        ch = clone_trainable(h)
        assert ch.w0 is h.w0


class TestCheckpoints:
    def test_tera_round_trip_bit_exact(self, tmp_path):
        a = small_adapter(master_seed=21, d_seed=14)
        path = tmp_path / "adapter.json"
        save_checkpoint(a, path)
        loaded = load_checkpoint(path, store=FrozenFactorStore(21))
        for d0, d1 in zip(a.d_vectors, loaded.d_vectors):
            assert_array_equal(d0, d1)
        assert_array_equal(materialize_delta(loaded), materialize_delta(a))
        assert loaded.zero_init_mode == a.zero_init_mode

    def test_wrong_master_seed_rejected(self, tmp_path):
        a = small_adapter(master_seed=21)
        path = tmp_path / "adapter.json"
        save_checkpoint(a, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, store=FrozenFactorStore(22))

    def test_tera_needs_store(self, tmp_path):
        path = tmp_path / "adapter.json"
        save_checkpoint(small_adapter(), path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_identity_flag_round_trips(self, tmp_path):
        a = small_adapter(master_seed=4, d_seed=15, identity_factors=True)
        path = tmp_path / "adapter.json"
        save_checkpoint(a, path)
        loaded = load_checkpoint(path, store=FrozenFactorStore(4))
        assert loaded.identity_factors
        assert_array_equal(materialize_delta(loaded), materialize_delta(a))

    def test_lora_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        a = init_lora(5, 6, 2, seed=3)
        a.b[:] = rng.standard_normal(a.b.shape)
        path = tmp_path / "lora.json"
        save_checkpoint(a, path)
        loaded = load_checkpoint(path)
        assert_array_equal(loaded.a, a.a)
        assert_array_equal(loaded.b, a.b)

    def test_vera_round_trip(self, tmp_path):
        store = FrozenFactorStore(33)
        a = init_vera(5, 6, 2, store)
        a.b[:] = 0.25
        path = tmp_path / "vera.json"
        save_checkpoint(a, path)
        loaded = load_checkpoint(path, store=FrozenFactorStore(33))
        assert_array_equal(materialize_delta(loaded), materialize_delta(a))
        assert loaded.b_frozen is store.vera_pair(5, 6, 2)[0] or np.array_equal(
            loaded.b_frozen, store.vera_pair(5, 6, 2)[0]
        )

    def test_hira_synthetic_provenance_regenerates(self, tmp_path):
        a = init_hira(5, 6, 2, w0_seed=8, seed=4)
        rng = np.random.default_rng(17)
        a.b[:] = rng.standard_normal(a.b.shape)
        path = tmp_path / "hira.json"
        save_checkpoint(a, path)
        loaded = load_checkpoint(path)
        assert_array_equal(loaded.w0, a.w0)
        assert_array_equal(materialize_delta(loaded), materialize_delta(a))

    def test_hira_external_base_requires_value_and_checksum(self, tmp_path):
        rng = np.random.default_rng(18)
        w0 = rng.standard_normal((5, 6))
        a = init_hira(5, 6, 2, w0=w0, seed=4)
        path = tmp_path / "hira.json"
        save_checkpoint(a, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        loaded = load_checkpoint(path, base_weight=w0)
        assert_array_equal(loaded.w0, w0)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, base_weight=rng.standard_normal((5, 6)))
        with pytest.raises(CheckpointError, match="base weight shape"):
            load_checkpoint(path, base_weight=w0.T)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ this is not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_document_rejected(self, tmp_path, case):
        family = MALFORMED[case][0]
        intact = write(valid_doc(family), tmp_path / "intact.json")
        assert load_checkpoint(intact, store=checkpoint_docs.store()).family == family
        bad = write(malformed_doc(case), tmp_path / "bad.json")
        with pytest.raises(CheckpointError):
            load_checkpoint(bad, store=checkpoint_docs.store())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_save_refuses_non_finite_values(self, tmp_path, family):
        for value in (np.nan, np.inf, -np.inf):
            adapter = checkpoint_docs.adapter(family)
            adapter.trainable_arrays()[-1].flat[0] = value
            path = tmp_path / f"{family}.json"
            with pytest.raises(CheckpointError):
                save_checkpoint(adapter, path)
            assert not path.exists()

    def test_unknown_format_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"format_version": 999, "adapter_type": "tera"}')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_large_scheme_checkpoint_stores_exactly_the_trainable_floats(
        self, tmp_path
    ):
        # 4096x4096 update folded as four modes of 64: the trainable state is
        # 4 vectors of 64 entries, 256 floats total, regardless of the 64^4
        # frozen core that never enters the file.
        import json

        scheme = TensorizationScheme((64,) * 4, split=2)
        store = FrozenFactorStore(2)
        a = init_tera(4096, 4096, scheme, store)
        assert trainable_param_count(a) == 256
        path = tmp_path / "big.json"
        save_checkpoint(a, path)
        doc = json.loads(path.read_text())
        stored_floats = sum(len(d) for d in doc["d_vectors"])
        assert stored_floats == 256
        assert "core" not in doc and "factors" not in doc


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is deleted breaks this
    namespace = {}
    exec("from tera import *", namespace)
    assert set(tera.__all__) <= set(namespace)
