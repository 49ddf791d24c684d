"""Tensorization depth trades parameters against fitting accuracy.

Sweeps one-sided schemes of increasing depth on the same batch of recovery
targets (ideal fine-tune updates for a small MLP) and prints the frontier:
deeper tensorization means fewer trainable parameters and, typically, a
worse fit. The identity-factor variant is included as the initialization
ablation baseline.
"""

import numpy as np

from tera import (
    FrozenFactorStore,
    OptimizerConfig,
    TensorizationScheme,
    finetune_full,
    fit_recovery,
    init_tera,
    make_mlp_adapt_task,
)
from tera.training import RecoveryTask

targets = []
for seed in range(4):
    task = make_mlp_adapt_task(
        layer_sizes=(64, 64, 64, 64), n_classes=8, n_train=512, n_test=256,
        seed=seed, pretrain_steps=200,
    )
    _, updates = finetune_full(
        task, OptimizerConfig(learning_rate=1e-2, max_steps=300, seed=1)
    )
    targets.append(RecoveryTask(target=updates[0], kind="mlp_update", seed=seed))

schemes = [
    TensorizationScheme.one_sided(64, 64, 8),   # order 3
    TensorizationScheme.one_sided(64, 64, 4),   # order 4
    TensorizationScheme.one_sided(64, 64, 2),   # order 7
]
cfg = OptimizerConfig(learning_rate=0.05, max_steps=1000, seed=42)

print("scheme          params  residual (random)  residual (identity)")
for scheme in schemes:
    res, res_iden = [], []
    for rec in targets:
        for s in range(4):
            store = FrozenFactorStore(master_seed=1000 * rec.seed + s)
            a = init_tera(64, 64, scheme, store)
            b = init_tera(64, 64, scheme, store, identity_factors=True)
            res.append(fit_recovery(a, rec, cfg).metrics["final_relative_residual"])
            res_iden.append(fit_recovery(b, rec, cfg).metrics["final_relative_residual"])
    label = "64|" + ",".join(str(m) for m in scheme.mode_sizes[1:])
    print(f"{label:15s} {scheme.num_trainable():5d}   "
          f"{np.mean(res):.6f}           {np.mean(res_iden):.6f}")

print("\nshallower schemes fit better at the cost of more parameters; the")
print("identity-factor column shows what the random mixing buys at each depth.")
