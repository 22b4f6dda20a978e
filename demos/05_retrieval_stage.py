"""The retrieval stage end to end on a toy set: contrastive training with
IoU-softened temperatures, the chunk database, exact k-NN, and assembling
rank-r approximate reconstructions.
"""

import numpy as np

from retrivox import (HyperParams, ScalarGrid3, assemble_approximations, build,
                      coarsen, from_blocks, iou_temperature, knn,
                      knn_bruteforce, train_retrieval)
from retrivox.grids import MINI_LAYOUT

hp = HyperParams(batch_retrieval=8)

# The IoU-scaled temperature softens in-batch negatives that look like the
# positive: tau' rises from ~tau toward 1 as chunk IoU goes 0 -> 1.
empty = ScalarGrid3.full((8, 8, 8), 1.0)
half = ScalarGrid3(np.where(np.arange(512).reshape(8, 8, 8) % 2, 1.0, 0.0).astype(np.float32), 1.0)
print(f"tau'(identical chunks) = {iou_temperature(0.2, half, half, 10, -5):.4f}")
print(f"tau'(disjoint chunks)  = {iou_temperature(0.2, empty, half, 10, -5):.4f}")

# Eight blocky prototypes; inputs are 2x min-pooled versions.
protos = []
for p in range(8):
    v = np.ones((8, 8, 8), dtype=np.float32)
    i, j, k = p % 2, (p // 2) % 2, (p // 4) % 2
    v[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4, k * 4:(k + 1) * 4] = 0.05
    protos.append(v)
targets = np.stack(protos)
inputs = np.stack([coarsen(ScalarGrid3(t, 1.0), 2).values for t in targets])

enc, log = train_retrieval(inputs, targets, hp, seed=1, iters=250, lr=1e-3)
print(f"contrastive loss: {log[0][1]:.3f} -> {log[-1][1]:.3f}")

# Self-retrieval after training: each input finds its own target first.
ex = enc.encode_inputs(inputs)
ey = enc.encode_targets(targets)
print("recall@1:", float((np.argmax(ex @ ey.T, axis=1) == np.arange(8)).mean()))

# Database over one scene assembled from the prototypes.
layout = MINI_LAYOUT
rng = np.random.default_rng(4)
order = rng.integers(0, 8, size=(layout.n,) * 3)    # prototype of each chunk slot
scene = ScalarGrid3(from_blocks(targets[order]), 1.0)
db = build(enc, [scene], layout, scene_tags=["toy"])
print(f"database entries: {len(db)}")

# The GEMM screen plus exact re-rank returns exactly what the brute-force
# oracle does, ties included.
q = enc.encode_inputs(inputs[3:4])[0]
print("knn == oracle:", knn(db, q, 4) == knn_bruteforce(db, q, 4))

# Rank-1 assembly rebuilds the scene from retrieved chunks alone.
coarse = coarsen(scene, 2)
approx = assemble_approximations(db, enc, coarse, layout, k=2)
match = np.array_equal(approx[0].scene.values, scene.values)
print("rank-1 assembly reproduces the scene:", match)
