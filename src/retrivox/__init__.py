"""retrivox: retrieval-augmented volumetric scene reconstruction.

A numpy library covering the full pipeline: dense TDF grids and chunking,
mesh/volume geometry with marching cubes, a reconstruction metric suite,
a minimal reverse-mode autodiff engine, contrastive chunk retrieval with an
exact k-NN database, patch-attention fusion, and experiment orchestration.
"""

from .grids import (ChunkLayout, HyperParams, ScalarGrid3, coarsen,
                    from_blocks, normalize_tdf, occupancy_from_points,
                    read_grid, to_blocks, upsample, windows, write_grid)
from .geometry import (TriMesh, box_mesh, cylinder_mesh, euler_characteristic,
                       load_obj, marching_cubes, marching_cubes_field,
                       mesh_to_tdf, sample_surface, save_obj, square_mesh,
                       uv_sphere_mesh, voxelize_mesh)
from .metrics import (MetricsReport, chamfer_l1, chunk_iou, evaluate_meshes,
                      f_score, normal_consistency, volumetric_iou)
from .embed import ChunkEncoderPair, iou_temperature, ntxent_loss, train_retrieval
from .retrievaldb import (ApproxReconstruction, ChunkDatabase,
                          assemble_approximations, build, extend, knn,
                          knn_bruteforce, load_db, save_db)
from .fusion import (FusionConfig, FusionModel, PatchAttentionTrace,
                     attention_scores, attention_weights, blend,
                     reconstruct_scene, refinement_loss, train_refinement)
from .pipeline import (ExperimentConfig, SceneRecord, StageError, desk_config,
                       generate_scene, load_config, mini_config, run_stage,
                       save_config)

__version__ = "0.1.0"
