"""Tour of the adapter families and what they cost.

Builds one adapter of each family for the same 64x64 weight, shows that every
family starts as an exact zero update, materializes a nonzero update, and
compares trainable-parameter counts at a 4096x4096 scale where the gap
between vector-based and matrix-based families becomes dramatic.
"""

import numpy as np

from tera import (
    FrozenFactorStore,
    TensorizationScheme,
    init_hira,
    init_lora,
    init_tera,
    init_vera,
    materialize_delta,
    trainable_param_count,
    vera_full_rank_param_count,
)

store = FrozenFactorStore(master_seed=0)
scheme = TensorizationScheme.one_sided(64, 64, 8)

adapters = {
    "tera": init_tera(64, 64, scheme, store),
    "lora": init_lora(64, 64, rank=8, seed=0),
    "vera": init_vera(64, 64, rank=8, store=store),
    "hira": init_hira(64, 64, rank=8, w0_seed=0),
}

print("zero initialization: every family starts as an exact zero update")
for name, adapter in adapters.items():
    delta = materialize_delta(adapter)
    print(f"  {name:5s} params {trainable_param_count(adapter):4d} "
          f"|delta|_F = {np.linalg.norm(delta):.1e}")

print("\nafter perturbing the trainable vectors the update is dense:")
tera = adapters["tera"]
rng = np.random.default_rng(1)
for d in tera.d_vectors:
    d[:] = rng.standard_normal(d.shape)
delta = materialize_delta(tera)
print(f"  tera |delta|_F = {np.linalg.norm(delta):.3f}, "
      f"nonzero entries {np.count_nonzero(delta)}/{delta.size}")

# The tensor-network parameterization pays off at scale. A 4096x4096 update
# tensorized as 64x64x64x64 trains 256 numbers; the binary tensorization
# gets to 48. A frozen-pair adapter needs r=4096 to be full-rank capable.
print("\ntrainable parameters for a 4096x4096 weight update:")
four_mode = TensorizationScheme((64, 64, 64, 64), split=2)
binary = TensorizationScheme.two_sided(4096, 4096, 2)
print(f"  tensor network, 64^4 modes : {four_mode.num_trainable():6d}")
print(f"  tensor network, 2^24 modes : {binary.num_trainable():6d}")
print(f"  frozen pair, full-rank r   : {vera_full_rank_param_count(4096, 4096):6d}")
print(f"  plain low rank r=8         : {8 * (4096 + 4096):6d}")
