import math

import numpy as np
import pytest

from retrivox import geometry as G
from retrivox import metrics as M
from retrivox.grids import ScalarGrid3

SAMPLES = 20_000  # plenty for the fixtures here; acceptance pins its own


@pytest.fixture(scope="module")
def sphere_pair():
    gt = G.uv_sphere_mesh((0, 0, 0), 1.0, n_theta=20, n_phi=28)
    return gt, gt


def jittered(mesh, sigma, seed):
    rng = np.random.default_rng(seed)
    verts = mesh.vertices + rng.normal(scale=sigma, size=mesh.vertices.shape)
    return G.TriMesh(verts, mesh.faces)


class TestChamfer:
    def test_identical_meshes_zero(self, sphere_pair):
        cd, acc, comp = M.chamfer_l1(*sphere_pair, samples=SAMPLES, seed=3)
        assert cd < 1e-6

    def test_parallel_planes_analytic(self):
        a = G.square_mesh((0, 0, 0), (1, 0, 0), (0, 1, 0))
        b = G.square_mesh((0, 0, 0.1), (1, 0, 0), (0, 1, 0))
        cd, acc, comp = M.chamfer_l1(a, b, samples=SAMPLES, seed=5)
        assert abs(cd - 0.1) < 1e-3
        assert abs(acc - 0.1) < 1e-3 and abs(comp - 0.1) < 1e-3

    def test_swap_symmetric_exact(self):
        a = G.box_mesh((0, 0, 0), (1, 1, 1))
        b = G.uv_sphere_mesh((0.5, 0.5, 0.5), 0.8, n_theta=10, n_phi=14)
        cd1, acc1, comp1 = M.chamfer_l1(a, b, samples=SAMPLES, seed=7)
        cd2, acc2, comp2 = M.chamfer_l1(b, a, samples=SAMPLES, seed=7)
        assert cd1 == cd2
        assert acc1 == comp2 and comp1 == acc2

    def test_empty_mesh_inf(self):
        empty = G.TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        cd, _, _ = M.chamfer_l1(empty, G.box_mesh((0, 0, 0), (1, 1, 1)))
        assert math.isinf(cd)


class TestNormalConsistency:
    def test_identical_spheres_high(self, sphere_pair):
        nc = M.normal_consistency(*sphere_pair, samples=SAMPLES, seed=1)
        assert nc >= 0.999

    def test_perpendicular_planes_near_zero(self):
        a = G.square_mesh((-0.5, -0.5, 0), (1, 0, 0), (0, 1, 0))      # normal z
        b = G.square_mesh((-0.5, 0, -0.5), (1, 0, 0), (0, 0, 1))      # normal y
        nc = M.normal_consistency(a, b, samples=SAMPLES, seed=2)
        assert nc < 0.02

    def test_flipped_orientation_absolute(self):
        a = G.square_mesh((0, 0, 0), (1, 0, 0), (0, 1, 0))
        flipped = G.TriMesh(a.vertices, a.faces[:, ::-1])
        nc = M.normal_consistency(a, flipped, samples=SAMPLES, seed=3)
        assert nc > 0.999

    def test_swap_symmetric_exact(self):
        a = G.box_mesh((0, 0, 0), (1, 1, 1))
        b = G.uv_sphere_mesh((0.5, 0.5, 0.5), 0.7, n_theta=10, n_phi=14)
        assert M.normal_consistency(a, b, SAMPLES, seed=4) == \
            M.normal_consistency(b, a, SAMPLES, seed=4)


class TestFScore:
    def test_identical_one(self, sphere_pair):
        f1, p, r = M.f_score(*sphere_pair, threshold=0.01, samples=SAMPLES, seed=5)
        assert f1 == 1.0

    def test_disjoint_zero(self):
        a = G.box_mesh((0, 0, 0), (1, 1, 1))
        b = G.box_mesh((10, 10, 10), (1, 1, 1))
        f1, _, _ = M.f_score(a, b, threshold=0.5, samples=SAMPLES, seed=6)
        assert f1 == 0.0

    def test_half_threshold_offset_planes_one(self):
        thr = 0.08
        a = G.square_mesh((0, 0, 0), (1, 0, 0), (0, 1, 0))
        b = G.square_mesh((0, 0, 0.5 * thr), (1, 0, 0), (0, 1, 0))
        f1, _, _ = M.f_score(a, b, threshold=thr, samples=SAMPLES, seed=7)
        assert f1 == 1.0

    def test_swap_symmetric_exact(self):
        a = G.box_mesh((0, 0, 0), (1, 1, 1))
        b = G.uv_sphere_mesh((0.4, 0.5, 0.5), 0.7, n_theta=10, n_phi=14)
        f1a, pa, ra = M.f_score(a, b, 0.05, SAMPLES, seed=8)
        f1b, pb, rb = M.f_score(b, a, 0.05, SAMPLES, seed=8)
        assert f1a == f1b
        assert pa == rb and ra == pb

    def test_bad_threshold_raises(self):
        a = G.box_mesh((0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError):
            M.f_score(a, a, threshold=0.0)
        with pytest.raises(ValueError, match="threshold"):
            M.evaluate_meshes(a, a, 0.5, (np.zeros(3), np.ones(3)), threshold=0.0)


class TestVolumetricIoU:
    BOUNDS = (np.array([-2.0, -2, -2]), np.array([4.0, 4, 4]))

    def test_identical_one(self):
        a = G.box_mesh((0, 0, 0), (1, 1, 1))
        assert M.volumetric_iou(a, a, 0.05, self.BOUNDS) == 1.0

    def test_disjoint_zero(self):
        a = G.box_mesh((0, 0, 0), (1, 1, 1))
        b = G.box_mesh((2.5, 2.5, 2.5), (1, 1, 1))
        assert M.volumetric_iou(a, b, 0.05, self.BOUNDS) == 0.0

    def test_half_overlap_one_third(self):
        a = G.box_mesh((0, 0, 0), (1, 1, 1))
        b = G.box_mesh((0.5, 0, 0), (1, 1, 1))
        iou = M.volumetric_iou(a, b, 0.05, self.BOUNDS)
        assert abs(iou - 1.0 / 3.0) < 0.05  # one-voxel discretization slack

    def test_both_empty_one(self):
        empty = G.TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        assert M.volumetric_iou(empty, empty, 0.1, self.BOUNDS) == 1.0

    def test_swap_symmetric_exact(self):
        a = G.box_mesh((0, 0, 0), (1, 1, 1))
        b = G.box_mesh((0.3, 0.2, 0.0), (1, 1, 1))
        assert M.volumetric_iou(a, b, 0.05, self.BOUNDS) == \
            M.volumetric_iou(b, a, 0.05, self.BOUNDS)


class TestChunkIoU:
    def test_equal_nonempty_one(self):
        rng = np.random.default_rng(1)
        vals = rng.random((8, 8, 8)).astype(np.float32)
        g = ScalarGrid3(vals, 1.0)
        assert M.chunk_iou(g, g.with_values(vals)) == 1.0

    def test_empty_vs_single_voxel_zero(self):
        a = ScalarGrid3.full((8, 8, 8), 1.0)
        vb = np.ones((8, 8, 8), dtype=np.float32)
        vb[3, 3, 3] = 0.0
        assert M.chunk_iou(a, ScalarGrid3(vb, 1.0)) == 0.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.random((6, 6, 6)).astype(np.float32)
            b = rng.random((6, 6, 6)).astype(np.float32)
            got = M.chunk_iou(ScalarGrid3(a, 1.0), ScalarGrid3(b, 1.0), 0.5)
            # independent set-based count
            sa = {tuple(v) for v in np.argwhere(a < 0.5)}
            sb = {tuple(v) for v in np.argwhere(b < 0.5)}
            want = len(sa & sb) / len(sa | sb) if (sa | sb) else 1.0
            assert got == want

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            M.chunk_iou(ScalarGrid3.full((4, 4, 4), 1.0), ScalarGrid3.full((8, 8, 8), 1.0))

    def test_pairwise_matrix_matches_single(self):
        rng = np.random.default_rng(9)
        chunks = rng.random((5, 27)).astype(np.float32)
        mat = M.pairwise_occupancy_iou(chunks, 0.5)
        for i in range(5):
            for j in range(5):
                want = M.occupancy_iou(chunks[i], chunks[j], 0.5)
                assert abs(mat[i, j] - want) < 1e-12


class TestMonotonicityAndDeterminism:
    def test_jitter_degrades_monotonically(self):
        gt = G.uv_sphere_mesh((0, 0, 0), 1.0, n_theta=16, n_phi=22)
        prev_cd, prev_f1 = -1.0, 2.0
        for sigma in (0.01, 0.02, 0.05):
            pred = jittered(gt, sigma, seed=11)
            cd, _, _ = M.chamfer_l1(pred, gt, samples=SAMPLES, seed=12)
            f1, _, _ = M.f_score(pred, gt, threshold=0.02, samples=SAMPLES, seed=12)
            assert cd > prev_cd
            assert f1 < prev_f1
            prev_cd, prev_f1 = cd, f1

    def test_full_report_deterministic(self):
        gt = G.uv_sphere_mesh((0.5, 0.5, 0.5), 0.8, n_theta=12, n_phi=16)
        pred = jittered(gt, 0.02, seed=3)
        bounds = (np.array([-1.0, -1, -1]), np.array([2.0, 2, 2]))
        r1 = M.evaluate_meshes(pred, gt, 0.05, bounds, threshold=0.02,
                               samples=SAMPLES, seed=21)
        r2 = M.evaluate_meshes(pred, gt, 0.05, bounds, threshold=0.02,
                               samples=SAMPLES, seed=21)
        assert r1.to_json() == r2.to_json()

    def test_report_serialization(self):
        r = M.MetricsReport(iou=0.5, chamfer_l1=0.01, normal_consistency=0.9,
                            f_score=0.7, threshold=0.02, sample_count=100)
        text = r.to_text()
        assert "iou = 0.500000" in text
        parsed = __import__("json").loads(r.to_json())
        assert parsed["f_score"] == 0.7

    def test_aggregate_means(self):
        rs = [M.MetricsReport(iou=v, chamfer_l1=v, normal_consistency=v,
                              f_score=v, threshold=0.1, sample_count=10)
              for v in (0.2, 0.4)]
        agg = M.aggregate_reports(rs)
        assert abs(agg["iou"] - 0.3) < 1e-12


def assert_projections_of_one_pass(rep, pred, gt):
    """evaluate_meshes' single pass gives what each surface metric gives alone."""
    assert (rep.chamfer_l1, rep.accuracy, rep.completeness) == M.chamfer_l1(pred, gt, 2000, 0)
    assert rep.normal_consistency == M.normal_consistency(pred, gt, 2000, 0)
    assert (rep.f_score, rep.precision, rep.recall) == M.f_score(pred, gt, 0.02, 2000, 0)


class TestOpenMeshFlags:
    def test_shell_fallback_flagged_per_mesh(self):
        bounds = (np.zeros(3), np.ones(3))
        closed = G.box_mesh((0.2, 0.2, 0.2), (0.6, 0.6, 0.6))
        sheet = G.square_mesh((0.1, 0.1, 0.5), (0.8, 0, 0), (0, 0.8, 0))
        rep = M.evaluate_meshes(closed, closed, 0.05, bounds, threshold=0.02, samples=2000)
        assert rep.flags == {}
        ball = G.uv_sphere_mesh((0.5, 0.5, 0.5), 0.3, n_theta=10, n_phi=14)
        rep = M.evaluate_meshes(ball, closed, 0.05, bounds, threshold=0.02, samples=2000)
        assert rep.flags == {}
        assert_projections_of_one_pass(rep, ball, closed)
        # accuracy runs from pred samples to the gt surface, not the reverse
        pts, _ = G.sample_surface_with_faces(ball, 2000, 0)
        assert rep.accuracy == float(M.MeshDistanceIndex(closed).query(pts)[0].mean())
        for pred, gt, flag in ((sheet, closed, "pred_open_mesh"), (closed, sheet, "gt_open_mesh")):
            with pytest.warns(UserWarning, match="open mesh"):
                rep = M.evaluate_meshes(pred, gt, 0.05, bounds, threshold=0.02, samples=2000)
            assert rep.flags == {flag: True}
            # the flag only reports: every value is what the metric gives alone
            with pytest.warns(UserWarning):
                assert rep.iou == M.volumetric_iou(pred, gt, 0.05, bounds)
            assert_projections_of_one_pass(rep, pred, gt)
        with pytest.warns(UserWarning):
            rep = M.evaluate_meshes(sheet, sheet, 0.05, bounds, threshold=0.02, samples=2000)
        assert rep.flags == {"pred_open_mesh": True, "gt_open_mesh": True}
        assert "flag.pred_open_mesh = True" in rep.to_text()

    def test_empty_mesh_is_not_open(self):
        bounds = (np.zeros(3), np.ones(3))
        empty = G.TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        sheet = G.square_mesh((0.1, 0.1, 0.5), (0.8, 0, 0), (0, 0.8, 0))
        with pytest.warns(UserWarning):
            rep = M.evaluate_meshes(empty, sheet, 0.05, bounds, threshold=0.02, samples=2000)
        assert rep.flags == {"empty_mesh": True, "gt_open_mesh": True}


class TestDistanceIndexExactness:
    def test_index_matches_bruteforce(self):
        rng = np.random.default_rng(17)
        mesh = G.uv_sphere_mesh((0, 0, 0), 1.0, n_theta=10, n_phi=14)
        index = M.MeshDistanceIndex(mesh)
        pts = rng.uniform(-1.5, 1.5, size=(200, 3))
        d_idx, _ = index.query(pts)
        a, b, c = mesh.triangle_corners()
        for i, p in enumerate(pts):
            d_all = G.point_triangle_distances(
                np.broadcast_to(p, (mesh.n_faces, 3)), a, b, c)
            assert abs(d_idx[i] - d_all.min()) < 1e-12
