"""Tensorized random adapters for parameter-efficient weight updates.

The package is organised in four layers:

- ``tensor_ops``: tensorization schemes and the dense tensor algebra
  (unfold/fold, mode products, Kronecker chains, rank and spectral
  norm estimation).
- ``adapters``: the adapter families (tera, lora, vera, hira), the
  shared frozen-factor store, materialization, and checkpoint i/o. Each
  family is one class with the methods ``deltas`` and ``gradients`` (on
  stacks of trainable arrays), ``apply``, ``max_rank``, ``to_doc`` and
  ``from_doc``, to which the module-level functions delegate.
- ``training``: analytic gradients, finite-difference checking,
  optimizers, recovery and MLP adaptation tasks, the alternating
  least squares estimator, and ``write_json``/``write_csv``, through
  which every report and table is written.
- ``analysis``: numerical verifiers for the rank, parameter-count and
  expressivity bounds, plus rank reports over trained adapters.

``tera.cli`` exposes the same functionality as a command line tool.
"""

from .tensor_ops import (
    SpectralNormEstimate,
    TensorizationScheme,
    equal_modes,
    fold,
    frobenius_norm,
    kron_chain,
    mode_n_product,
    numerical_rank,
    pseudoinverse,
    tensor_spectral_norm,
    unfold,
)
from .adapters import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    FrozenFactorStore,
    HiraAdapter,
    LoraAdapter,
    TeraAdapter,
    VeraAdapter,
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
from .training import (
    AlsResult,
    DivergenceError,
    MlpAdaptTask,
    OptimizerConfig,
    RecoveryTask,
    TrainReport,
    als_approx_error,
    build_adapter,
    delta_gradient,
    finetune_full,
    finite_difference_check,
    fit_mlp_adapt,
    fit_recovery,
    gaussian_recovery_task,
    make_mlp_adapt_task,
    mlp_accuracy,
    mlp_predict,
    planted_recovery_task,
    tera_gradient,
    write_csv,
    write_json,
)
from .analysis import (
    EXPRESSIVITY_BOUND,
    PARAM_BOUND,
    RANK_BOUND,
    BoundReport,
    InstanceRejected,
    RankReport,
    multiplicative_partitions,
    rank_report,
    verify_expressivity_bound,
    verify_param_bound,
    verify_rank_bound,
)

__version__ = "0.1.0"

__all__ = [
    # tensor_ops
    "TensorizationScheme",
    "equal_modes",
    "unfold",
    "fold",
    "mode_n_product",
    "kron_chain",
    "frobenius_norm",
    "pseudoinverse",
    "numerical_rank",
    "SpectralNormEstimate",
    "tensor_spectral_norm",
    # adapters
    "FrozenFactorStore",
    "TeraAdapter",
    "LoraAdapter",
    "VeraAdapter",
    "HiraAdapter",
    "init_tera",
    "init_lora",
    "init_vera",
    "init_hira",
    "materialize_delta",
    "apply_delta",
    "clone_trainable",
    "trainable_param_count",
    "lora_param_count",
    "vera_param_count",
    "vera_full_rank_param_count",
    "vera_rank_for_budget",
    "synthetic_base_weight",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "CHECKPOINT_FORMAT_VERSION",
    # training
    "tera_gradient",
    "delta_gradient",
    "finite_difference_check",
    "OptimizerConfig",
    "RecoveryTask",
    "gaussian_recovery_task",
    "planted_recovery_task",
    "TrainReport",
    "write_json",
    "write_csv",
    "fit_recovery",
    "DivergenceError",
    "AlsResult",
    "als_approx_error",
    "MlpAdaptTask",
    "make_mlp_adapt_task",
    "mlp_predict",
    "mlp_accuracy",
    "build_adapter",
    "fit_mlp_adapt",
    "finetune_full",
    # analysis
    "BoundReport",
    "InstanceRejected",
    "RANK_BOUND",
    "PARAM_BOUND",
    "EXPRESSIVITY_BOUND",
    "verify_rank_bound",
    "verify_param_bound",
    "verify_expressivity_bound",
    "multiplicative_partitions",
    "RankReport",
    "rank_report",
    "__version__",
]
