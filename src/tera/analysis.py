"""Rank analysis and numerical verification of the structural bounds.

Three inequalities get checked here:

* rank bound: the numerical rank of any materialized delta is capped by the
  smaller of the two rank products on either side of the unfolding split;
* parameter-count bound: over every tensorization of a J1 x J2 matrix with
  full per-mode ranks, the trainable count never exceeds J1 + J2;
* expressivity bound: the best achievable recovery error is capped by a
  subspace-residual term plus a spectral-gap term.

The first two are exact mathematics, so "violated" there means a code bug.
The third compares two one-sided estimates (an alternating-least-squares
upper bound on the left, an overestimated right side), so the verifier can
confirm the inequality but never refute it: verdicts are "holds" or
"inconclusive", by design.
"""

from dataclasses import dataclass, field

import numpy as np

from .adapters import (
    FrozenFactorStore,
    TeraAdapter,
    _kron_sides,
    _scaled_core,
    init_tera,
    materialize_delta,
)
from .tensor_ops import (
    TensorizationScheme,
    _spectrum_rank,
    frobenius_norm,
    numerical_rank,
    pseudoinverse,
    tensor_spectral_norm,
    unfold,
)
from .training import REPORT_FORMAT_VERSION, _Report, als_approx_error, planted_recovery_task

RANK_BOUND = "rank_bound"
PARAM_BOUND = "param_count_bound"
EXPRESSIVITY_BOUND = "expressivity_bound"


class InstanceRejected(ValueError):
    """The instance cannot be certified (e.g. near-zero core entries)."""


@dataclass
class BoundReport(_Report):
    """Outcome of checking one inequality on one instance (or batch)."""

    bound_id: str
    instance: dict
    lhs: float
    rhs: float
    terms: dict
    verdict: str  # holds | violated | inconclusive
    slack: float


def verify_rank_bound(scheme: TensorizationScheme, trials: int, seed=0) -> BoundReport:
    """Check rank(delta) <= min(row-rank product, col-rank product) on random draws.

    Every trial redraws the frozen parts as well as the scaling vectors, so
    the bound is exercised across the whole family, not a single instance.
    Also tracks how often the bound is met with equality (generic full rank).

    Scaling magnitudes are drawn from sign * uniform[0.5, 1.5] rather than a
    Gaussian: genericity is about the scalings being nonzero, and near-zero
    draws would conflate it with the finite rank tolerance (the condition
    number of the delta is a product over modes, so single tiny entries can
    push true full-rank instances under any fixed relative cutoff).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    bound = min(scheme.rank_rows, scheme.rank_cols)
    attainable = min(bound, scheme.rows, scheme.cols)
    violations = 0
    full_rank_hits = 0
    max_seen = 0
    for _ in range(trials):
        store = FrozenFactorStore(int(rng.integers(2**31)))
        adapter = init_tera(scheme.rows, scheme.cols, scheme, store)
        for d in adapter.d_vectors:
            d[:] = rng.uniform(0.5, 1.5, d.shape) * rng.choice([-1.0, 1.0], d.shape)
        rank = numerical_rank(materialize_delta(adapter))
        max_seen = max(max_seen, rank)
        if rank > bound:
            violations += 1
        if rank == attainable:
            full_rank_hits += 1
    verdict = "holds" if violations == 0 else "violated"
    return BoundReport(
        bound_id=RANK_BOUND,
        instance={"scheme": scheme.to_dict(), "trials": trials, "seed": seed},
        lhs=float(max_seen),
        rhs=float(bound),
        terms={
            "violations": violations,
            "max_rank_observed": max_seen,
            "attainable_rank": attainable,
            "full_rank_fraction": full_rank_hits / trials,
        },
        verdict=verdict,
        slack=float(bound - max_seen),
    )


def multiplicative_partitions(n: int):
    """All unordered factorizations of n into integer factors >= 2.

    Returned as non-increasing tuples, (n,) included. The count grows slowly
    (a power of two yields one partition per additive partition of the
    exponent): under the cap n <= 2^16 it is at most 3,079 (n = 60,480).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > 2**16:
        raise ValueError("dimension too large to enumerate (cap 2^16)")
    out = []

    def descend(remaining, cap, prefix):
        for f in range(min(cap, remaining), 1, -1):
            if remaining % f:
                continue
            rest = remaining // f
            if rest == 1:
                out.append(prefix + (f,))
            else:
                descend(rest, f, prefix + (f,))

    descend(n, n, ())
    return out


def verify_param_bound(j1: int, j2: int) -> BoundReport:
    """Check sum(mode sizes) <= J1 + J2 over every full-rank tensorization.

    A tensorization pairs one factorization per matrix dimension; since the
    trainable count is the sum of the two sides, checking each side against
    its own dimension covers every pair without materializing the product
    set. The minimizing scheme (most aggressive factoring) is recorded.
    """
    if j1 < 2 or j2 < 2:
        raise ValueError("dimensions must be >= 2")
    sides = []
    for dim in (j1, j2):
        parts = multiplicative_partitions(dim)
        sums = [sum(p) for p in parts]
        order = np.argsort(sums)
        sides.append(
            {
                "count": len(parts),
                "min_sum": sums[order[0]],
                "min_factorization": parts[order[0]],
                "max_sum": max(sums),
                "violations": sum(1 for s in sums if s > dim),
            }
        )
    lhs = sides[0]["max_sum"] + sides[1]["max_sum"]
    rhs = j1 + j2
    min_params = sides[0]["min_sum"] + sides[1]["min_sum"]
    violations = sides[0]["violations"] + sides[1]["violations"]
    verdict = "holds" if violations == 0 and lhs <= rhs else "violated"
    return BoundReport(
        bound_id=PARAM_BOUND,
        instance={"j1": j1, "j2": j2},
        lhs=float(lhs),
        rhs=float(rhs),
        terms={
            "n_schemes": sides[0]["count"] * sides[1]["count"],
            "row_factorizations": sides[0]["count"],
            "col_factorizations": sides[1]["count"],
            "min_params": min_params,
            "min_scheme": {
                "row_modes": list(sides[0]["min_factorization"]),
                "col_modes": list(sides[1]["min_factorization"]),
            },
            "max_params": lhs,
            "equality_attained": lhs == rhs,
        },
        verdict=verdict,
        slack=float(rhs - lhs),
    )


MIN_CORE_MAGNITUDE = 1e-10


def _expressivity_convention_check(adapter: TeraAdapter, left, right):
    # The sides the bound is built from must reproduce the network before it
    # is trusted; probe with a throwaway non-zero scaling assignment.
    rng = np.random.default_rng(0)
    probe = [rng.standard_normal((1, r)) for r in adapter.scheme.ranks]
    scaled = unfold(_scaled_core(adapter.core, probe)[0], adapter.split)
    if not np.allclose(left @ scaled @ right.T, adapter.deltas(probe)[0], rtol=0, atol=1e-8):
        raise RuntimeError("factored form disagrees with mode-product form")


def verify_expressivity_bound(
    w_star,
    adapter: TeraAdapter,
    sweeps: int = 50,
    extra_starts: int = 3,
    polish_steps: int = 200,
    seed: int = 0,
) -> BoundReport:
    """Check the recovery-error bound for one target against one network.

    rhs is computed exactly from the frozen parts: a projection residual
    plus max|core| * (||Z||_F^2 - ||Z||_2^2) * ||L||_F^2 * ||M||_F^2, where
    Z is the core-normalized projection of the target and the spectral norm
    is taken of Z reshaped to the rank grid. The power-method estimate can
    only undershoot the true spectral norm, which only enlarges rhs, so the
    check stays conservative. lhs comes from alternating least squares and
    upper-bounds the true minimum, hence verdicts are holds/inconclusive.
    Two terms say why a verdict is inconclusive: ``spectral_norm_converged``
    (did the power method stabilize) and ``als_last_sweep_rel_change`` (the
    relative objective drop over ALS's last sweep: still moving, or stalled).
    ``inconclusive_cause`` names it: ``none`` for a verdict that holds,
    ``spectral_not_converged`` when the power method did not stabilize, and
    ``als_stalled`` otherwise. ``als_value_before_polish`` is lhs before
    ALS's Gauss-Newton run, ``als_polish_steps`` the steps it kept and
    ``als_stop`` why ALS ended (``AlsResult.stop``). ``als_svd_solves``
    counts the ALS subproblems too ill-conditioned for the normal equations,
    solved by SVD (``AlsResult.svd_solves``). A non-finite target
    raises ``ValueError``.
    """
    if not isinstance(adapter, TeraAdapter):
        raise TypeError("expressivity bound applies to the tensor-network family")
    w_star = np.asarray(w_star, dtype=float)
    scheme = adapter.scheme
    if w_star.shape != adapter.shape:
        raise ValueError(f"target shape {w_star.shape} != adapter shape {adapter.shape}")
    if not np.isfinite(w_star).all():
        raise ValueError("target w_star holds non-finite values")
    core = adapter.core
    min_core = float(np.min(np.abs(core)))
    if min_core < MIN_CORE_MAGNITUDE:
        raise InstanceRejected(
            f"core entry magnitude {min_core:.3e} below {MIN_CORE_MAGNITUDE:.0e}; "
            "element-wise normalization by the core would be ill-conditioned"
        )

    k = scheme.split
    # the projections below need explicit sides, identities included
    left, right = (np.eye(n) if side is None else side
                   for side, n in zip(_kron_sides(adapter), adapter.shape))
    _expressivity_convention_check(adapter, left, right)

    left_pinv = pseudoinverse(left)
    right_pinv = pseudoinverse(right)
    proj_left = left @ left_pinv
    proj_right = right @ right_pinv
    residual = w_star - proj_left @ w_star @ proj_right
    term1 = frobenius_norm(residual) ** 2

    z = (left_pinv @ w_star @ right_pinv.T) / unfold(core, k)
    z_frob_sq = frobenius_norm(z) ** 2
    estimate = tensor_spectral_norm(z.reshape(scheme.ranks), seed=seed)
    gap = max(0.0, z_frob_sq - estimate.value**2)
    g_max = float(np.max(np.abs(core)))
    l_frob_sq = frobenius_norm(left) ** 2
    m_frob_sq = frobenius_norm(right) ** 2
    rhs = term1 + g_max * gap * l_frob_sq * m_frob_sq

    als = als_approx_error(
        adapter,
        w_star,
        sweeps=sweeps,
        extra_starts=extra_starts,
        polish_steps=polish_steps,
        seed=seed,
    )
    lhs = als.value
    tolerance = 1e-8 * max(1.0, frobenius_norm(w_star) ** 2)
    verdict = "holds" if lhs <= rhs + tolerance else "inconclusive"
    if verdict == "holds":
        cause = "none"
    elif not estimate.converged:
        cause = "spectral_not_converged"
    else:
        cause = "als_stalled"
    return BoundReport(
        bound_id=EXPRESSIVITY_BOUND,
        instance={
            "shape": list(adapter.shape),
            "scheme": scheme.to_dict(),
            "master_seed": adapter.master_seed,
            "identity_factors": adapter.identity_factors,
        },
        lhs=lhs,
        rhs=rhs,
        terms={
            "subspace_residual": term1,
            "g_max": g_max,
            "z_frob_sq": z_frob_sq,
            "spectral_norm_estimate": estimate.value,
            "spectral_norm_converged": estimate.converged,
            "gap": gap,
            "left_frob_sq": l_frob_sq,
            "right_frob_sq": m_frob_sq,
            "tolerance": tolerance,
            "als_sweeps": sweeps,
            "als_extra_starts": extra_starts,
            "als_ridge_fallbacks": als.ridge_fallbacks,
            "als_svd_solves": als.svd_solves,
            "als_last_sweep_rel_change": als.last_sweep_rel_change,
            "als_value_before_polish": als.value_before_polish,
            "als_polish_steps": als.polish_steps_kept,
            "als_stop": als.stop,
            "inconclusive_cause": cause,
        },
        verdict=verdict,
        slack=rhs - lhs,
    )


def _verify_expressivity_escalated(w_star, adapter, sweeps=50, seed=0):
    """``verify_expressivity_bound``, retried up an escalation ladder until
    the verdict is "holds" or the ladder ends: ALS with 3 extra starts, then
    6, then 12, then 24 with up to 150 sweeps and 800 Gauss-Newton steps at
    ``seed + 1``. Each rung's ALS ends early at the first power-of-two sweep
    whose Gauss-Newton probe reaches the rounding floor, if one does. An
    instance that does not hold is most often an ALS swamp, which more random
    restarts get out of."""
    for rung in (dict(sweeps=sweeps, seed=seed),
                 dict(sweeps=sweeps, extra_starts=6, seed=seed),
                 dict(sweeps=sweeps, extra_starts=12, seed=seed),
                 dict(sweeps=150, extra_starts=24, polish_steps=800, seed=seed + 1)):
        report = verify_expressivity_bound(w_star, adapter, **rung)
        if report.verdict == "holds":
            break
    return report


@dataclass
class ExpressivitySuite:
    """The expressivity bound over drawn instances: the report of each
    instance kept, and how many draws were rejected."""

    reports: list
    rejected: int
    planted: bool

    def to_json_dict(self):
        counts = {verdict: sum(r.verdict == verdict for r in self.reports)
                  for verdict in ("holds", "inconclusive", "violated")}
        return {"format_version": REPORT_FORMAT_VERSION, "bound_id": EXPRESSIVITY_BOUND,
                "instances": len(self.reports), **counts, "rejected": self.rejected,
                "planted": self.planted, "reports": [r.fields() for r in self.reports]}


def verify_expressivity_instances(scheme: TensorizationScheme, instances: int,
                                  planted=False, sweeps=50, seed=0) -> ExpressivitySuite:
    """Check the expressivity bound on ``instances`` random networks of
    ``scheme``, each drawn from ``seed``'s stream with its own master seed.

    The target is Gaussian, or with ``planted`` one the network can express
    exactly. A draw the verifier rejects (``InstanceRejected``) is redrawn,
    and more than ``10 * instances`` draws raise ValueError; so does
    ``instances`` below 1. An instance that does not hold is retried up the
    escalation ladder of more ALS starts (``_verify_expressivity_escalated``).
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    rng = np.random.default_rng(seed)
    reports, rejected = [], 0
    while len(reports) < instances:
        if len(reports) + rejected >= 10 * instances:
            raise ValueError("too many rejected instances; check the scheme")
        master_seed = int(rng.integers(2**31))
        store = FrozenFactorStore(master_seed)
        adapter = init_tera(scheme.rows, scheme.cols, scheme, store)
        if planted:
            w_star = planted_recovery_task(scheme, store, seed=int(rng.integers(2**31))).target
        else:
            w_star = rng.standard_normal((scheme.rows, scheme.cols))
        try:
            reports.append(_verify_expressivity_escalated(
                w_star, adapter, sweeps=sweeps, seed=master_seed))
        except InstanceRejected:
            rejected += 1
    return ExpressivitySuite(reports, rejected, bool(planted))


RANK_COLUMNS = ("layer", "family", "rank", "max_rank", "tolerance")


@dataclass
class RankReport(_Report):
    """Numerical ranks of materialized deltas per layer and family."""

    rows: list  # dicts keyed by RANK_COLUMNS
    spectra: dict = field(default_factory=dict)  # "layer/family" -> singular values
    rel_tol: float = 1e-8


def rank_report(entries, rel_tol: float = 1e-8) -> RankReport:
    """Rank table for (layer, family, adapter) triples.

    The full singular spectrum is kept alongside each row so the tail
    profile can be plotted without re-materializing anything. Ranks follow
    ``numerical_rank``'s rule, so ``rel_tol`` must lie in (0, 1).
    """
    rows = []
    spectra = {}
    for layer, family, adapter in entries:
        delta = materialize_delta(adapter)
        svals = np.linalg.svd(delta, compute_uv=False)
        rank = _spectrum_rank(svals, rel_tol)
        values = (layer, family, rank, adapter.max_rank(), rel_tol)
        rows.append(dict(zip(RANK_COLUMNS, values)))
        spectra[f"{layer}/{family}"] = [float(s) for s in svals]
    return RankReport(rows=rows, spectra=spectra, rel_tol=rel_tol)
