"""Property tests of the two adapter algebras over generated instances.

Small random tensorization schemes (reduced ranks and identity factors
included), VeRA shapes with ranks below and above both sides, and the two
low-rank families, each checked against the brute-force oracles in
``oracles``. Runs are derandomized with a fixed example budget, so the suite
stays deterministic.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tera.adapters import (
    FrozenFactorStore,
    _design_matrices,
    apply_delta,
    init_hira,
    init_lora,
    init_tera,
    init_vera,
    materialize_delta,
)
from tera.tensor_ops import TensorizationScheme
from tera.training import finite_difference_check, gaussian_recovery_task

from oracles import (
    explicit_factors,
    recovery_gradients,
    recovery_loss,
    tera_delta_by_loops,
    vera_delta,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tera_adapters(draw):
    """A tera adapter on a scheme of 2-4 modes of size 2-3 with random d
    vectors: identity factors, or frozen ones at full or reduced ranks."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    split = draw(st.integers(1, len(sizes) - 1))
    kind = draw(st.sampled_from(["identity", "full", "reduced"]))
    ranks = [draw(st.integers(1, n)) for n in sizes] if kind == "reduced" else sizes
    identity = kind == "identity"
    scheme = TensorizationScheme(tuple(sizes), split, tuple(ranks))
    seed = draw(st.integers(0, 2**16))
    a = init_tera(scheme.rows, scheme.cols, scheme, FrozenFactorStore(seed),
                  identity_factors=identity)
    return _randomized(a, seed)


@st.composite
def vera_adapters(draw):
    j1, j2, rank, seed = (draw(st.integers(2, 7)), draw(st.integers(2, 7)),
                          draw(st.integers(1, 9)), draw(st.integers(0, 2**16)))
    return _randomized(init_vera(j1, j2, rank, FrozenFactorStore(seed)), seed)


@st.composite
def low_rank_adapters(draw):
    j1, j2, rank, seed = (draw(st.integers(2, 7)), draw(st.integers(2, 7)),
                          draw(st.integers(1, 4)), draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        return _randomized(init_lora(j1, j2, rank, seed=seed), seed)
    return _randomized(init_hira(j1, j2, rank, seed=seed, w0_seed=seed), seed)


def _randomized(adapter, seed):
    rng = np.random.default_rng(seed)
    for arr in adapter.trainable_arrays():
        arr[:] = rng.standard_normal(arr.shape)
    return adapter


any_adapter = st.one_of(tera_adapters(), vera_adapters(), low_rank_adapters())
network_adapter = st.one_of(tera_adapters(), vera_adapters())


def _rel(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-30)


@PROPERTY
@given(any_adapter)
def test_apply_is_delta_times_vector(a):
    x = np.random.default_rng(1).standard_normal(a.shape[1])
    assert _rel(apply_delta(a, x), materialize_delta(a) @ x) <= 1e-12


@PROPERTY
@given(tera_adapters())
def test_mode_path_equals_kron_path_and_loops(a):
    by_loops = tera_delta_by_loops(a.core, explicit_factors(a), a.d_vectors, a.split)
    assert _rel(materialize_delta(a, path="mode"), by_loops) <= 1e-12
    assert _rel(materialize_delta(a, path="kron"), by_loops) <= 1e-12


@PROPERTY
@given(network_adapter)
def test_design_matrix_times_d_is_the_delta(a):
    delta = materialize_delta(a).ravel()
    for mode, d in enumerate(a.network()[2]):
        assert _rel(a.design_matrix(mode) @ d, delta) <= 1e-12


@PROPERTY
@given(network_adapter, st.integers(1, 4))
def test_stacked_design_matrices_are_the_members_design_matrices(a, members):
    core, factors, d_vectors = a.network()
    rng = np.random.default_rng(members)
    stacks = [rng.standard_normal((members, d.size)) for d in d_vectors]
    member = a.clone()
    for mode in range(core.ndim):
        phi = _design_matrices(core, factors, stacks, mode)
        for s in range(members):
            for d, stack in zip(member.network()[2], stacks):
                d[:] = stack[s]
            assert _rel(phi[s], member.design_matrix(mode)) <= 1e-12


@PROPERTY
@given(any_adapter)
def test_grads_pass_finite_differences(a):
    task = gaussian_recovery_task(*a.shape, seed=2)
    err = finite_difference_check(lambda a: recovery_loss(a, task),
                                  lambda a: recovery_gradients(a, task), a)
    assert err < 1e-5


@PROPERTY
@given(vera_adapters())
def test_vera_delta_is_the_closed_form(a):
    assert _rel(materialize_delta(a), vera_delta(a)) <= 1e-12


@PROPERTY
@given(low_rank_adapters())
def test_low_rank_deltas(a):
    want = a.a @ a.b
    if a.family == "hira":
        want = want * a.w0
    np.testing.assert_array_equal(materialize_delta(a), want)
