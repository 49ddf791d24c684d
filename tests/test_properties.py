"""Property tests of the two adapter algebras over generated instances.

Small random tensorization schemes (reduced ranks and identity factors
included), VeRA shapes with ranks below and above both sides, and the two
low-rank families, each checked against the brute-force oracles in
``oracles``; the recovery objective in rank space against the materialized
one; the scheme and tensor reshapes against their inverses; the power
method against its restart-by-restart oracle and against itself on the
tensor times a power of two; and the CLI
against checkpoint and config documents holding a value of a wrong JSON kind
somewhere, which must exit 2 with an ``error:`` line. Runs are derandomized
with a fixed example budget, so the suite stays deterministic.
"""

import contextlib
import io
import json
import math
import tempfile
from functools import reduce
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tera.adapters import (
    FrozenFactorStore,
    _design_matrices,
    _mode_sizes,
    _pull,
    _reduce_by_d_vectors,
    _scaled_core,
    _stacked,
    apply_delta,
    init_hira,
    init_lora,
    init_tera,
    init_vera,
    materialize_delta,
)
from tera import training
from tera.cli import EXIT_CONFIG, _command_actions, build_parser, main
from tera.tensor_ops import (
    TensorizationScheme,
    fold,
    format_scheme,
    mode_n_product,
    parse_scheme,
    tensor_spectral_norm,
    unfold,
)
from tera.training import delta_gradient, finite_difference_check, gaussian_recovery_task

import checkpoint_docs
from oracles import (
    explicit_factors,
    recovery_gradients,
    recovery_loss,
    spectral_norm_by_restarts,
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
    core, factors, d_vectors = a.network()
    for mode, d in enumerate(d_vectors):
        phi = _design_matrices(core, factors, _stacked(d_vectors), mode)[0]
        assert _rel(phi @ d, delta) <= 1e-12


@PROPERTY
@given(network_adapter, st.integers(1, 4))
def test_stacked_design_matrices_are_the_members_design_matrices(a, members):
    core, factors, d_vectors = a.network()
    rng = np.random.default_rng(members)
    stacks = [rng.standard_normal((members, d.size)) for d in d_vectors]
    for mode in range(core.ndim):
        phi = _design_matrices(core, factors, stacks, mode)
        for s in range(members):
            member = [stack[s:s + 1] for stack in stacks]
            assert _rel(phi[s], _design_matrices(core, factors, member, mode)[0]) <= 1e-12


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


@PROPERTY
@given(network_adapter, st.integers(-1, 3))
def test_rank_space_recovery_matches_the_materialized_objective(a, zeroed):
    # loss within 1e-10 ||T||^2, gradients against the materialized residual's;
    # a ``zeroed`` that names a mode zeroes its d vector, which makes every
    # other mode's gradient exactly zero on both sides
    d_vectors = a.network()[2]
    if 0 <= zeroed < len(d_vectors):
        d_vectors[zeroed][:] = 0.0
    task = gaussian_recovery_task(*a.shape, seed=3)
    _, (block,) = training._own({"adapter": a}, training.OptimizerConfig())
    loss, _ = training._recovery_objective(block, task.target)()
    grads = [g[0] for g in block.grads]
    assert abs(loss - recovery_loss(a, task)) <= 1e-10 * np.sum(task.target**2)
    want = delta_gradient(a, materialize_delta(a) - task.target)
    for got, expected in zip(grads, want, strict=True):
        assert _rel(got, expected) <= 1e-10


@PROPERTY
@given(network_adapter)
def test_scaled_core_multiplies_the_d_vectors_from_the_left(a):
    # bit for bit (C * d_0) * ((d_1 x d_2) x ...), the association every
    # fit's rounding was recorded with, for each member of a stack
    core, _, d_vectors = a.network()
    stacks = [np.stack([d, 1.7 * d]) for d in d_vectors]
    for s, scaled in enumerate(_scaled_core(core, stacks)):
        rows = core * stacks[0][s].reshape((-1,) + (1,) * (core.ndim - 1))
        np.testing.assert_array_equal(
            scaled, rows * reduce(np.multiply.outer, [d[s] for d in stacks[1:]]))


@PROPERTY
@given(network_adapter, st.integers(1, 3))
def test_pull_is_the_chain_of_mode_products(a, members):
    # the kernel _pull runs against the checked public product, bit for bit:
    # an upstream stack through the factors, a core stack through the Grams
    core, factors, _ = a.network()
    rng = np.random.default_rng(members)
    grams = [None if f is None else f @ f.T for f in factors]
    for shape, matrices in ((_mode_sizes(core, factors), factors), (core.shape, grams)):
        t = rng.standard_normal((members, *shape))
        want = t
        for m, matrix in enumerate(matrices):
            if matrix is not None:
                want = mode_n_product(want, matrix, m + 1)
        np.testing.assert_array_equal(_pull(t, matrices), want)


@PROPERTY
@given(st.lists(st.integers(1, 4), min_size=2, max_size=6), st.integers(1, 3),
       st.integers(-1, 5), st.integers(0, 2**16))
def test_reduction_into_views_equals_the_fresh_one(ranks, members, zeroed, seed):
    # out= views of one buffer, contiguous as the optimizer hands them over
    # or strided member by member, get the same bits as fresh arrays; a
    # zeroed d vector included; both match the contraction spelled out by
    # einsum
    rng = np.random.default_rng(seed)
    weighted = rng.standard_normal((members, *ranks))
    d_stacks = [rng.standard_normal((members, r)) for r in ranks]
    if zeroed < len(ranks):
        d_stacks[zeroed][:] = 0.0
    fresh = _reduce_by_d_vectors(weighted, d_stacks)
    for views in (training._views(np.full(members * sum(ranks), np.nan),
                                  [(members, r) for r in ranks]),
                  training._views(np.full((members, sum(ranks)), np.nan),
                                  [(r,) for r in ranks])):
        got = _reduce_by_d_vectors(weighted, d_stacks, out=views)
        assert all(g is v for g, v in zip(got, views, strict=True))
        for g, f in zip(got, fresh, strict=True):
            np.testing.assert_array_equal(g, f)
    letters = "abcdef"[:len(ranks)]
    for i, f in enumerate(fresh):
        others = [f"s{c}" for j, c in enumerate(letters) if j != i]
        spec = f"s{letters},{','.join(others)}->s{letters[i]}"
        want = np.einsum(spec, weighted, *[d for j, d in enumerate(d_stacks) if j != i])
        np.testing.assert_allclose(f, want, rtol=1e-12, atol=1e-12 * np.abs(weighted).sum())


@st.composite
def schemes(draw):
    sizes = draw(st.lists(st.integers(2, 9), min_size=2, max_size=6))
    return TensorizationScheme(tuple(sizes), split=draw(st.integers(1, len(sizes) - 1)))


@PROPERTY
@given(schemes())
def test_scheme_spec_round_trips(scheme):
    spec = format_scheme(scheme)
    assert parse_scheme(spec) == scheme
    assert format_scheme(parse_scheme(spec)) == spec
    unsplit = ",".join(map(str, scheme.mode_sizes))
    assert parse_scheme(unsplit, split=scheme.split) == scheme


@PROPERTY
@given(st.lists(st.tuples(st.integers(2, 5), st.integers(1, 3)), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(2, 5), st.integers(1, 3)), min_size=1, max_size=3))
def test_repeat_groups_expand_in_order(left, right):
    def group(parts):
        return ",".join(f"{base}^{count}" for base, count in parts)

    def expanded(parts):
        return [base for base, count in parts for _ in range(count)]

    scheme = parse_scheme(f"{group(left)}|{group(right)}")
    assert list(scheme.mode_sizes) == expanded(left) + expanded(right)
    assert scheme.split == len(expanded(left))
    assert parse_scheme(format_scheme(scheme)) == scheme


@PROPERTY
@given(schemes(), st.integers(0, 2**16))
def test_fold_and_unfold_are_inverse(scheme, seed):
    matrix = np.random.default_rng(seed).standard_normal((scheme.rows, scheme.cols))
    tensor = fold(matrix, scheme)
    assert tensor.shape == scheme.mode_sizes
    np.testing.assert_array_equal(unfold(tensor, scheme.split), matrix)
    np.testing.assert_array_equal(fold(unfold(tensor, scheme.split), scheme), tensor)


@st.composite
def power_method_cases(draw):
    """A Gaussian tensor of order 1-5 with mode sizes 1-4, scaled by 1e-3 to
    1e3 and half of them with one slice zeroed, and the power method's
    arguments: 1-6 restarts, at most 30 sweeps and a seed."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    tensor = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(shape)
    tensor *= 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        mode = draw(st.integers(0, len(shape) - 1))
        tensor[(slice(None),) * mode + (draw(st.integers(0, shape[mode] - 1)),)] = 0.0
    return tensor, dict(restarts=draw(st.integers(1, 6)), max_iters=draw(st.integers(0, 30)),
                        seed=draw(st.integers(0, 2**16)))


@settings(PROPERTY, max_examples=500)
@given(power_method_cases())
def test_power_method_matches_the_restart_by_restart_oracle(case):
    tensor, args = case
    got = tensor_spectral_norm(tensor, **args)
    want = spectral_norm_by_restarts(tensor, **args)
    assert got.converged == want.converged
    assert abs(got.value - want.value) <= 1e-12 * want.value


@PROPERTY
@given(power_method_cases(), st.integers(-520, 520))
def test_power_method_scales_exactly_with_a_power_of_two(case, k):
    tensor, args = case
    want = tensor_spectral_norm(tensor, **args)
    got = tensor_spectral_norm(np.ldexp(tensor, k), **args)
    assert got.value == math.ldexp(want.value, k)
    assert got.converged == want.converged


def json_values(kind):
    """Small JSON values of one kind, with scalars nested one level deep."""
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    return {
        "null": st.none(),
        "boolean": st.booleans(),
        "number": st.integers() | st.floats(),
        "string": st.text(max_size=8),
        "array": st.lists(scalars, max_size=3),
        "object": st.dictionaries(st.text(max_size=5), scalars, max_size=3),
    }[kind]


def _cli(argv):
    """Exit code and standard error of ``tera`` run in-process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@PROPERTY
@given(st.data())
def test_checkpoint_with_a_wrong_kind_anywhere_exits_2(data):
    # any field, element or the document itself takes a value of another
    # JSON kind, or an object's key is dropped
    doc = checkpoint_docs.valid_doc(data.draw(st.sampled_from(checkpoint_docs.FAMILIES)))
    path = data.draw(st.sampled_from(list(checkpoint_docs.locations(doc))))
    in_object = bool(path) and isinstance(checkpoint_docs.value_at(doc, path[:-1]), dict)
    if in_object and data.draw(st.booleans()):
        change = checkpoint_docs.DROP
    else:
        old = checkpoint_docs.kind_of(checkpoint_docs.value_at(doc, path))
        kind = data.draw(st.sampled_from([k for k in checkpoint_docs.JSON_KINDS if k != old]))
        change = data.draw(json_values(kind))
    bad = checkpoint_docs.mutated(doc, path, change)
    with tempfile.TemporaryDirectory() as tmp:
        path = checkpoint_docs.write(bad, Path(tmp) / "ck.json")
        code, err = _cli(["checkpoint", "inspect", str(path)])
    assert code == EXIT_CONFIG
    assert err.startswith("error: ")


# the config is refused before anything runs, so the checkpoint need not exist
CONFIG_COMMANDS = (["param-count"], ["fit"], ["rank-report"], ["verify"], ["ablate"],
                   ["checkpoint", "inspect", "ck.json"])


def _accepted_kinds(action):
    """The JSON kinds a config value of ``action``'s flag may take (a value
    of such a kind can still be refused, like 2.5 for an integer flag)."""
    kinds = {"null"} if action.default is None else set()
    if action.nargs == 0:
        return kinds | {"boolean"}
    if action.nargs in ("*", "+"):
        return kinds | {"array"}
    if action.type in (int, float):
        return kinds | {"number", "string"}
    return kinds | {"string"}


def _config_cases():
    """(command line, key, wrong kind) for every flag of every command and
    every JSON kind its flag never takes."""
    cases = []
    for argv in CONFIG_COMMANDS:
        parser = build_parser()
        actions = _command_actions(parser, vars(parser.parse_args(argv)))
        for key in sorted(set(actions) - {"help", "config", "command", "checkpoint_command"}):
            accepted = _accepted_kinds(actions[key])
            cases += [(argv, key, kind) for kind in checkpoint_docs.JSON_KINDS
                      if kind not in accepted]
    return cases


CONFIG_CASES = _config_cases()


def _config_exits_2(argv, key, value):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({key: value}))
        code, err = _cli([*argv, "--config", str(config)])
    assert code == EXIT_CONFIG, (argv, key, value)
    assert err.startswith("error: ") and repr(key) in err


@PROPERTY
@given(st.data())
def test_config_value_of_a_wrong_kind_exits_2(data):
    argv, key, kind = data.draw(st.sampled_from(CONFIG_CASES))
    _config_exits_2(argv, key, data.draw(json_values(kind)))


def test_config_value_of_every_wrong_kind_exits_2():
    # the draws above cannot reach every case, so each gets one plain value
    plain = {"null": None, "boolean": True, "number": 2.5, "string": "x",
             "array": [1], "object": {}}
    for argv, key, kind in CONFIG_CASES:
        _config_exits_2(argv, key, plain[kind])
