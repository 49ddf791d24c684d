import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from tera.tensor_ops import (
    TensorizationScheme,
    equal_modes,
    fold,
    frobenius_norm,
    kron_chain,
    mode_n_product,
    pseudoinverse,
    tensor_spectral_norm,
    unfold,
)

from oracles import (
    integer_tensor,
    mode_product_by_loops,
    spectral_norm_by_restarts,
    unfold_by_enumeration,
)


class TestScheme:
    def test_defaults_ranks_to_mode_sizes(self):
        scheme = TensorizationScheme((4, 4, 4), split=1)
        assert scheme.ranks == (4, 4, 4)
        assert scheme.full_rank

    def test_row_and_col_products(self):
        scheme = TensorizationScheme((2, 3, 3, 2), split=2)
        assert scheme.rows == 6
        assert scheme.cols == 6
        assert scheme.num_trainable() == 10

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            TensorizationScheme((2, 2), split=2)
        with pytest.raises(ValueError):
            TensorizationScheme((2, 2), split=0)

    def test_rejects_mode_size_below_two(self):
        with pytest.raises(ValueError):
            TensorizationScheme((1, 4), split=1)

    def test_rejects_rank_above_mode_size(self):
        with pytest.raises(ValueError):
            TensorizationScheme((2, 4), split=1, ranks=(2, 5))

    def test_one_sided_constructor(self):
        scheme = TensorizationScheme.one_sided(64, 64, 4)
        assert scheme.mode_sizes == (64, 4, 4, 4)
        assert scheme.split == 1

    def test_two_sided_constructor(self):
        scheme = TensorizationScheme.two_sided(64, 64, 4)
        assert scheme.mode_sizes == (4, 4, 4, 4, 4, 4)
        assert scheme.split == 3

    def test_equal_modes_rejects_non_power(self):
        with pytest.raises(ValueError):
            equal_modes(48, 4)


class TestUnfoldFold:
    def test_order2_unfold_is_identity(self):
        t = np.array([[0.0, 1.0, 2.0], [10.0, 11.0, 12.0]])
        assert_array_equal(unfold(t, 1), t)

    def test_2x2x2_unfold_at_split_2(self):
        t = np.arange(8.0).reshape(2, 2, 2)
        expected = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
        assert_array_equal(unfold(t, 2), expected)

    def test_unfold_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 4, 5))
        for split in (1, 2):
            assert_array_equal(unfold(t, split), unfold_by_enumeration(t, split))

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 4, 5))
        for split in (1, 2):
            scheme = TensorizationScheme((3, 4, 5), split=split)
            assert_array_equal(fold(unfold(t, split), scheme), t)

    def test_fold_then_unfold_on_matrix(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 6))
        scheme = TensorizationScheme((2, 3, 3, 2), split=2)
        assert_array_equal(unfold(fold(m, scheme), 2), m)

    def test_fold_zero_matrix(self):
        scheme = TensorizationScheme((2, 2, 2), split=2)
        assert_array_equal(fold(np.zeros((4, 2)), scheme), np.zeros((2, 2, 2)))

    def test_fold_inverts_the_enumerated_unfold(self):
        m = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
        scheme = TensorizationScheme((2, 2, 2), split=2)
        assert_array_equal(fold(m, scheme).ravel(), np.arange(8.0))

    def test_unfold_rejects_out_of_range_split(self):
        t = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            unfold(t, 0)
        with pytest.raises(ValueError):
            unfold(t, 3)

    def test_fold_rejects_shape_mismatch(self):
        scheme = TensorizationScheme((2, 2, 2), split=1)
        with pytest.raises(ValueError):
            fold(np.zeros((4, 2)), scheme)


class TestModeProduct:
    def test_identity_leaves_tensor_unchanged(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((2, 3, 4))
        for mode, size in enumerate(t.shape):
            assert_allclose(mode_n_product(t, np.eye(size), mode), t, rtol=0, atol=0)

    def test_row_sum_example(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = mode_n_product(t, np.array([[1.0, 1.0]]), 0)
        assert_array_equal(out, np.array([[4.0, 6.0]]))

    def test_matches_nested_loop_oracle_exactly(self):
        # Integer-valued entries make the comparison exact despite different
        # summation orders.
        rng = np.random.default_rng(4)
        for shape in [(3, 3, 3), (2, 3, 4), (4, 4, 4, 4)]:
            t = integer_tensor(rng, shape)
            for mode in range(len(shape)):
                b = integer_tensor(rng, (2, shape[mode]))
                assert_array_equal(
                    mode_n_product(t, b, mode), mode_product_by_loops(t, b, mode)
                )

    @pytest.mark.parametrize("mode", [0, 2, 3])  # first, a middle, the last
    def test_non_contiguous_inputs_match_oracle(self, mode):
        rng = np.random.default_rng(6)
        # a transposed and strided view, and a transposed matrix
        t = integer_tensor(rng, (4, 6, 3, 5)).transpose(3, 0, 2, 1)[::-1, :, :, ::2]
        assert not t.flags.c_contiguous
        b = integer_tensor(rng, (t.shape[mode], 2)).T
        out = mode_n_product(t, b, mode)
        assert out.flags.c_contiguous
        assert_array_equal(out, mode_product_by_loops(t, b, mode))

    def test_unfolded_mode1_product_is_matrix_product(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((3, 3, 3))
        b = rng.standard_normal((5, 3))
        out = mode_n_product(t, b, 0)
        assert_allclose(unfold(out, 1), b @ unfold(t, 1), rtol=1e-13, atol=1e-13)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mode_n_product(np.zeros((2, 3)), np.zeros((4, 5)), 1)

    @pytest.mark.parametrize("matrix, mode, error, match", [
        (np.zeros(3), 1, ValueError, "2-D matrix"),
        (np.zeros((1, 4, 3)), 1, ValueError, "2-D matrix"),
        (np.zeros((4, 3)), 2, IndexError, ""),
        (np.zeros((4, 3)), -3, IndexError, ""),
    ])
    def test_rejects_invalid_input(self, matrix, mode, error, match):
        with pytest.raises(error, match=match):
            mode_n_product(np.zeros((2, 3)), matrix, mode)

    def test_negative_mode_counts_from_the_end(self):
        rng = np.random.default_rng(7)
        t, b = integer_tensor(rng, (2, 3, 4)), integer_tensor(rng, (5, 3))
        assert_array_equal(mode_n_product(t, b, -2), mode_n_product(t, b, 1))


def tucker_product(core, mats):
    # core x_1 mats[0] x_2 mats[1] ... as a loop of mode products
    for mode, mat in enumerate(mats):
        core = mode_n_product(core, mat, mode)
    return core


class TestKronecker:
    def test_identity_times_identity(self):
        assert_array_equal(kron_chain([np.eye(2), np.eye(3)]), np.eye(6))

    def test_row_vector_example(self):
        out = kron_chain([np.array([[1.0, 2.0]]), np.array([[0.0, 1.0]])])
        assert_array_equal(out, np.array([[0.0, 1.0, 0.0, 2.0]]))

    def test_index_convention(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 5))
        k = kron_chain([a, b])
        for i, p, j, q in [(0, 1, 2, 3), (1, 2, 0, 0), (1, 0, 3, 4)]:
            assert k[i * 4 + j, p * 5 + q] == a[i, p] * b[j, q]

    def test_unfold_of_tucker_product_is_kronecker_factored(self):
        # unfold(G x1 B1 ... xN BN, k) == (B1 kron ... Bk) G_[k] (B_{k+1} kron ... BN)^T
        rng = np.random.default_rng(7)
        core = rng.standard_normal((3, 3, 3))
        mats = [rng.standard_normal((4, 3)), rng.standard_normal((5, 3)),
                rng.standard_normal((2, 3))]
        full = tucker_product(core, mats)
        left = kron_chain(mats[:1])
        right = kron_chain(mats[1:])
        direct = left @ unfold(core, 1) @ right.T
        assert_allclose(unfold(full, 1), direct, rtol=1e-10, atol=1e-12)

    def test_unfold_kron_identity_random_split(self):
        rng = np.random.default_rng(8)
        core = rng.standard_normal((2, 3, 2, 3))
        mats = [rng.standard_normal((m, s)) for m, s in zip((3, 4, 2, 5), core.shape)]
        full = tucker_product(core, mats)
        for split in (1, 2, 3):
            direct = kron_chain(mats[:split]) @ unfold(core, split) @ kron_chain(mats[split:]).T
            assert_allclose(unfold(full, split), direct, rtol=1e-10, atol=1e-12)


class TestNorms:
    def test_zero_tensor(self):
        assert frobenius_norm(np.zeros((3, 4))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_norm_squared_is_sum_of_squares(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((4, 3, 2))
        assert_allclose(frobenius_norm(t) ** 2, np.sum(t * t), rtol=1e-12)


class TestSvdPinv:
    def test_pinv_identity(self):
        assert_allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_pinv_singular_diag(self):
        assert_allclose(
            pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14
        )

    def test_penrose_conditions(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((4, 6))
        p = pseudoinverse(a)
        scale = frobenius_norm(a)
        assert_allclose(a @ p @ a, a, atol=1e-8 * scale)
        assert_allclose(p @ a @ p, p, atol=1e-8 * frobenius_norm(p))
        assert_allclose((a @ p).T, a @ p, atol=1e-8)
        assert_allclose((p @ a).T, p @ a, atol=1e-8)


def _gaussian(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


_ZERO_SLICE = _gaussian((3, 4, 2), 3)
_ZERO_SLICE[:, 1, :] = 0.0

# The overflow regression: entry 0, above sqrt(float max), is the spectral
# norm (1.609e154), and a sum of squares through it passes the float range
# unless the tensor is scaled down first. An unscaled iteration divides by
# those infinite norms, meets the zeroed vectors as zero slices mid-sweep
# (hence the name) and returns 6.23e153, the norm of the 2x2x2 block at half
# that size, which draws the other restarts.
_MID_SWEEP_ZEROS = np.zeros((3, 3, 3, 1))
_MID_SWEEP_ZEROS[1:, 1:, 1:] = _gaussian((2, 2, 2, 1), 0)
_MID_SWEEP_ZEROS *= 0.5 * np.sqrt(np.finfo(float).max) / np.linalg.norm(_MID_SWEEP_ZEROS)
_MID_SWEEP_ZEROS[0, 0, 0, 0] = 1.2 * np.sqrt(np.finfo(float).max)

# (tensor, arguments): rank grids of acceptance criteria 5 and 6's schemes,
# reduced ranks, a matrix, one restart, a budget too small to converge, the
# zero tensor (every restart lands on a zero slice at once), a tensor with a
# zero slice, and one whose contractions overflow unless it is scaled.
LOCKSTEP_CASES = {
    **{f"grid{shape}": (_gaussian(shape, i), {"seed": i}) for i, shape in enumerate([
        (4, 2, 2), (2, 2, 2, 2), (4, 4), (2, 4, 4, 2), (16, 4, 4), (4, 4, 4, 4),
        (2, 8, 8, 2), (8, 2, 2, 2), (2, 2, 2, 2, 2, 2), (2, 4, 2, 4), (2, 2, 1, 3)])},
    "matrix": (_gaussian((5, 3), 11), {"seed": 11}),
    "one_restart": (_gaussian((2, 4, 2, 4), 12), {"restarts": 1}),
    "max_iters_2": (_gaussian((2, 4, 2, 4), 13), {"max_iters": 2}),
    "zero": (np.zeros((2, 3, 2)), {}),
    "zero_slice": (_ZERO_SLICE, {"seed": 3}),
    "mid_sweep_zeros": (_MID_SWEEP_ZEROS, {"seed": 0}),
}


class TestSpectralNorm:
    def test_matrix_case_matches_largest_singular_value(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((5, 4))
        est = tensor_spectral_norm(m, restarts=8)
        assert est.converged
        assert_allclose(est.value, np.linalg.svd(m, compute_uv=False)[0], rtol=1e-8)

    def test_scaled_rank_one_tensor(self):
        rng = np.random.default_rng(14)
        factors = [rng.standard_normal(n) for n in (3, 4, 5)]
        factors = [f / np.linalg.norm(f) for f in factors]
        t = 7.0 * np.einsum("i,j,k->ijk", *factors)
        est = tensor_spectral_norm(t)
        assert abs(est.value - 7.0) < 1e-6

    def test_never_exceeds_frobenius_norm(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            t = rng.standard_normal((2, 2, 2))
            est = tensor_spectral_norm(t, restarts=4, max_iters=100)
            assert est.value <= frobenius_norm(t) + 1e-12

    def test_zero_tensor(self):
        est = tensor_spectral_norm(np.zeros((2, 3, 2)))
        assert est.value == 0.0

    def test_contractions_past_the_float_range_find_the_largest_entry(self):
        est = tensor_spectral_norm(_MID_SWEEP_ZEROS)
        assert est.converged and est.value == _MID_SWEEP_ZEROS[0, 0, 0, 0]

    def test_rejects_zero_restarts(self):
        with pytest.raises(ValueError):
            tensor_spectral_norm(np.zeros((2, 2)), restarts=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_tensor(self, bad):
        t = np.ones((2, 3, 2))
        t[1, 0, 1] = bad
        with pytest.raises(ValueError, match="tensor holds non-finite"):
            tensor_spectral_norm(t)

    @pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
    def test_lockstep_matches_the_sequential_oracle(self, case):
        tensor, args = LOCKSTEP_CASES[case]
        got = tensor_spectral_norm(tensor, **args)
        want = spectral_norm_by_restarts(tensor, **args)
        assert got.converged == want.converged
        assert abs(got.value - want.value) <= 1e-12 * want.value
