"""Reconstruction evaluation: volumetric IoU, Chamfer-l1, normal consistency,
F-score, plus grid-level occupancy IoU for chunk comparison.

Surface metrics integrate over area-weighted point samples with exact
point-to-triangle nearest distances; a centroid KD-tree only prunes the
candidate triangles, every surviving candidate is evaluated exactly.  Both
meshes are sampled with the same seed, which makes every metric exactly
symmetric under argument swap.

Chamfer-l1, normal consistency and F-score project one pass,
`_surface_metrics`, that indexes, samples and queries each mesh once:
`evaluate_meshes` makes two index builds and two queries for all three.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import geometry as G
from .grids import OCCUPANCY_TDF_THRESHOLD, ScalarGrid3

DEFAULT_SAMPLES = 100_000
# triangles a distance query evaluates first, for its upper bound
_PROBE_FACES = 8


@dataclass
class MetricsReport:
    iou: float
    chamfer_l1: float
    normal_consistency: float
    f_score: float
    threshold: float
    sample_count: int
    precision: float = math.nan
    recall: float = math.nan
    accuracy: float = math.nan
    completeness: float = math.nan
    flags: dict = field(default_factory=dict)

    FIELDS = ("iou", "chamfer_l1", "normal_consistency", "f_score",
              "precision", "recall", "accuracy", "completeness")

    def to_json(self) -> str:
        payload = {k: getattr(self, k) for k in self.FIELDS}
        payload["threshold"] = self.threshold
        payload["sample_count"] = self.sample_count
        payload["flags"] = self.flags
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"{k} = {getattr(self, k):.6f}" for k in self.FIELDS]
        lines.append(f"threshold = {self.threshold:.6f}")
        lines.append(f"sample_count = {self.sample_count}")
        for k, v in sorted(self.flags.items()):
            lines.append(f"flag.{k} = {v}")
        return "\n".join(lines) + "\n"


class MeshDistanceIndex:
    """Exact nearest point-to-mesh distances with KD-tree candidate pruning.

    The tree stores triangle centroids; a query first evaluates the
    _PROBE_FACES nearest centroids' triangles exactly for an upper bound, then
    evaluates every triangle whose centroid ball could beat it.
    """

    def __init__(self, mesh: G.TriMesh):
        if mesh.is_empty:
            raise ValueError("cannot index an empty mesh")
        self.mesh = mesh
        self.a, self.b, self.c = mesh.triangle_corners()
        self.centroids = (self.a + self.b + self.c) / 3.0
        self.radii = np.maximum.reduce([
            np.linalg.norm(v - self.centroids, axis=1) for v in (self.a, self.b, self.c)])
        self.r_max = float(self.radii.max())
        self.tree = cKDTree(self.centroids)
        self.k_probe = min(_PROBE_FACES, mesh.n_faces)

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact (distance, face_index) of the closest surface point."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        n = len(points)
        if n == 0:
            return np.zeros(0), np.zeros(0, dtype=np.int64)
        _, probe = self.tree.query(points, k=self.k_probe)
        probe = probe.reshape(n, -1)
        k = probe.shape[1]
        rep = np.repeat(points, k, axis=0)
        flat = probe.ravel()
        d = G.point_triangle_distances(rep, self.a[flat], self.b[flat], self.c[flat])
        d = d.reshape(n, k)
        best = d.argmin(axis=1)
        best_d = d[np.arange(n), best]
        best_f = probe[np.arange(n), best]

        # verify: any centroid within best_d + r_max may own a closer triangle
        cand_lists = self.tree.query_ball_point(points, best_d + self.r_max + 1e-12)
        lengths = np.fromiter((len(c) for c in cand_lists), dtype=np.int64, count=n)
        if lengths.sum():
            flat_c = np.concatenate([np.asarray(c, dtype=np.int64) for c in cand_lists])
            owner = np.repeat(np.arange(n), lengths)
            d2 = G.point_triangle_distances(points[owner], self.a[flat_c],
                                            self.b[flat_c], self.c[flat_c])
            order = np.lexsort((d2, owner))
            owner_sorted = owner[order]
            first = np.searchsorted(owner_sorted, np.arange(n), side="left")
            last = np.searchsorted(owner_sorted, np.arange(n), side="right")
            has = first < last
            min_d = d2[order][first[has]]
            min_f = flat_c[order][first[has]]
            improve = min_d < best_d[has]
            upd = np.nonzero(has)[0][improve]
            best_d[upd] = min_d[improve]
            best_f[upd] = min_f[improve]
        return best_d, best_f


def _surface_metrics(pred: G.TriMesh, gt: G.TriMesh, samples: int, seed: int,
                     threshold: float = math.inf) -> dict:
    """Every surface metric from one pass: each mesh sampled with seed and
    matched once against the other's index; threshold feeds only F-score."""
    ip, ig = MeshDistanceIndex(pred), MeshDistanceIndex(gt)
    pts, f_pred = G.sample_surface_with_faces(pred, samples, seed)
    d_pred, proj_g = ig.query(pts)
    pts, f_gt = G.sample_surface_with_faces(gt, samples, seed)
    d_gt, proj_p = ip.query(pts)
    fwd = np.abs(np.einsum("ij,ij->i", pred.face_normals[f_pred], gt.face_normals[proj_g]))
    bwd = np.abs(np.einsum("ij,ij->i", gt.face_normals[f_gt], pred.face_normals[proj_p]))
    acc, comp = float(d_pred.mean()), float(d_gt.mean())
    precision = float((d_pred <= threshold).mean())
    recall = float((d_gt <= threshold).mean())
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return dict(chamfer_l1=0.5 * (acc + comp), accuracy=acc, completeness=comp,
                normal_consistency=float(0.5 * fwd.mean() + 0.5 * bwd.mean()),
                f_score=f1, precision=precision, recall=recall)


def chamfer_l1(pred: G.TriMesh, gt: G.TriMesh, samples: int = DEFAULT_SAMPLES,
               seed: int = 0) -> tuple[float, float, float]:
    """(chamfer, accuracy, completeness); accuracy integrates over pred
    samples to the gt surface, completeness the reverse."""
    if pred.is_empty or gt.is_empty:
        return math.inf, math.inf, math.inf
    m = _surface_metrics(pred, gt, samples, seed)
    return m["chamfer_l1"], m["accuracy"], m["completeness"]


def normal_consistency(pred: G.TriMesh, gt: G.TriMesh, samples: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> float:
    """Mean |n(p) . n(proj(p))| averaged over both directions, half each."""
    if pred.is_empty or gt.is_empty:
        raise ValueError("normal_consistency: empty mesh")
    return _surface_metrics(pred, gt, samples, seed)["normal_consistency"]


def f_score(pred: G.TriMesh, gt: G.TriMesh, threshold: float,
            samples: int = DEFAULT_SAMPLES, seed: int = 0) -> tuple[float, float, float]:
    """(f1, precision, recall) at the given distance threshold in meters."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if pred.is_empty or gt.is_empty:
        return 0.0, 0.0, 0.0
    m = _surface_metrics(pred, gt, samples, seed, threshold)
    return m["f_score"], m["precision"], m["recall"]


def volumetric_iou(pred: G.TriMesh, gt: G.TriMesh, voxel_size: float,
                   bounds: tuple[np.ndarray, np.ndarray]) -> float:
    """Occupancy-grid IoU over a shared voxelization; 1.0 when both empty."""
    lo = np.asarray(bounds[0], dtype=np.float64)
    hi = np.asarray(bounds[1], dtype=np.float64)
    dims = np.maximum(np.ceil((hi - lo) / voxel_size - 1e-9), 1).astype(int)
    vp = G.voxelize_mesh(pred, dims, voxel_size, lo).values > 0
    vg = G.voxelize_mesh(gt, dims, voxel_size, lo).values > 0
    union = (vp | vg).sum()
    if union == 0:
        return 1.0
    return float((vp & vg).sum() / union)


def chunk_iou(a: ScalarGrid3, b: ScalarGrid3,
              occ_threshold: float = OCCUPANCY_TDF_THRESHOLD) -> float:
    """IoU of TDF chunks binarized at the occupancy threshold; 1.0 if both empty."""
    if a.dims != b.dims:
        raise ValueError(f"chunk dims differ: {a.dims} vs {b.dims}")
    return occupancy_iou(a.values, b.values, occ_threshold)


def occupancy_iou(a_vals: np.ndarray, b_vals: np.ndarray,
                  occ_threshold: float = OCCUPANCY_TDF_THRESHOLD) -> float:
    oa = a_vals < occ_threshold
    ob = b_vals < occ_threshold
    union = (oa | ob).sum()
    if union == 0:
        return 1.0
    return float((oa & ob).sum() / union)


def pairwise_occupancy_iou(chunks: np.ndarray,
                           occ_threshold: float = OCCUPANCY_TDF_THRESHOLD) -> np.ndarray:
    """IoU matrix for a (N, V) stack of flattened TDF chunks."""
    occ = (chunks < occ_threshold).astype(np.float64)
    inter = occ @ occ.T
    sizes = occ.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    out = np.ones_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def evaluate_meshes(pred: G.TriMesh, gt: G.TriMesh, voxel_size: float,
                    bounds, threshold: float, samples: int = DEFAULT_SAMPLES,
                    seed: int = 0) -> MetricsReport:
    """Full four-metric report for one predicted/target mesh pair.

    flags["pred_open_mesh"] / flags["gt_open_mesh"] mark a mesh that the
    volumetric IoU voxelizes as a surface shell, not a solid, because it is
    not closed.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    flags = {f"{name}_open_mesh": True for name, mesh in (("pred", pred), ("gt", gt))
             if not mesh.is_empty and not mesh.is_watertight()}
    iou = volumetric_iou(pred, gt, voxel_size, bounds)
    if pred.is_empty or gt.is_empty:
        flags["empty_mesh"] = True
        return MetricsReport(iou=iou, chamfer_l1=math.inf, normal_consistency=0.0,
                             f_score=0.0, threshold=threshold, sample_count=samples,
                             flags=flags)
    return MetricsReport(iou=iou, threshold=threshold, sample_count=samples, flags=flags,
                         **_surface_metrics(pred, gt, samples, seed, threshold))


def aggregate_reports(reports: list[MetricsReport]) -> dict:
    """Mean of every metric field over per-scene reports."""
    if not reports:
        raise ValueError("no reports to aggregate")
    out = {}
    for k in MetricsReport.FIELDS:
        vals = [getattr(r, k) for r in reports]
        out[k] = float(np.mean(vals))
    out["n_scenes"] = len(reports)
    return out
