"""Drive every pipeline stage programmatically on a small procedural set:
scene generation, retrieval training, database build, caching, refinement,
reconstruction, evaluation, and test-time database extension.

Equivalent CLI:
    retrivox write_config --profile mini --out mini.cfg
    retrivox gen_data --config mini.cfg
    retrivox train_retrieval --config mini.cfg
    ... (build_db, cache_retrievals, train_refine, reconstruct, evaluate)
"""

import dataclasses
import sys

from retrivox import pipeline as P

# 120 refine steps at the mini profile's lr of 1e-3 leave constant fields and
# empty meshes; 5e-3 (the benchmark's setting) trains in that budget.
cfg = P.mini_config(out_dir="/tmp/retrivox_demo", n_train=16, n_test=4,
                    n_extension=4, holdout_category="sphere",
                    n_holdout_test=2, retrieval_iters=300, refine_iters=120,
                    refine_lr=5e-3, seed=3)

print("stage gen_data:", P.run_stage(cfg, "gen_data"))
print("stage train_retrieval:", P.run_stage(cfg, "train_retrieval"))
print("stage build_db:", P.run_stage(cfg, "build_db"))
print("stage cache_retrievals:", P.run_stage(cfg, "cache_retrievals"))
print("stage train_refine:", P.run_stage(cfg, "train_refine"))
print("stage reconstruct:", P.run_stage(cfg, "reconstruct"))
agg = P.run_stage(cfg, "evaluate")
print(f"test metrics: IoU {agg['iou']:.3f}, CD {agg['chamfer_l1']:.4f}, "
      f"F1 {agg['f_score']:.3f}, NC {agg['normal_consistency']:.3f}")
if agg["iou"] == 0:
    sys.exit("test IoU is 0: every reconstructed mesh is empty")

# Table-6-style extension: append held-out-category chunks with the frozen
# encoders, no retraining, and re-evaluate the held-out scenes.
hold = dataclasses.replace(cfg, eval_split="holdout")
P.run_stage(hold, "reconstruct")
before = P.run_stage(hold, "evaluate")["iou"]
print("stage extend_db:", P.run_stage(cfg, "extend_db"))
ext = dataclasses.replace(cfg, eval_split="holdout", db_variant="extended")
P.run_stage(ext, "reconstruct")
after = P.run_stage(ext, "evaluate")["iou"]
print(f"held-out IoU before extension {before:.3f} -> after {after:.3f}")
