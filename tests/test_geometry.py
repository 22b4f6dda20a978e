import warnings

import numpy as np
import pytest

from retrivox import geometry as G
from retrivox import pipeline as P
from retrivox.grids import ScalarGrid3, normalize_tdf


def analytic_sphere_field(n, center, r):
    idx = np.indices((n, n, n)).astype(float) + 0.5
    return np.sqrt(((idx - np.asarray(center).reshape(3, 1, 1, 1)) ** 2).sum(0)) - r


def oracle_point_triangle(p, a, b, c):
    """Independent formulation: plane foot if barycentric-inside, else the
    nearest of the three edge segments."""
    n = np.cross(b - a, c - a)
    n = n / np.linalg.norm(n)
    proj = p - np.dot(p - a, n) * n
    M = np.stack([b - a, c - a], axis=1)
    uv, *_ = np.linalg.lstsq(M, proj - a, rcond=None)
    if uv[0] >= 0 and uv[1] >= 0 and uv.sum() <= 1:
        return abs(np.dot(p - a, n))

    def seg(s, e):
        t = np.clip(np.dot(p - s, e - s) / np.dot(e - s, e - s), 0, 1)
        return np.linalg.norm(p - (s + t * (e - s)))

    return min(seg(a, b), seg(b, c), seg(c, a))


def segment_distance(p, s, e):
    """Distance from points p (M, 3) to segments [s, e] (M, 3), lengths >= 0."""
    d = e - s
    length2 = (d * d).sum(axis=1)
    t = np.clip(((p - s) * d).sum(axis=1) / np.where(length2 == 0, 1.0, length2), 0.0, 1.0)
    return np.linalg.norm(p - (s + t[:, None] * d), axis=1)


# The per-triangle mesh -> TDF loop that the vectorized pair pass replaced,
# kept as an oracle: one (trunc + 1)-voxel padded box per triangle, its
# closest points from (M, 3) einsums with later masked writes taking
# priority, and one masked minimum into the grid.

def loop_closest_points(p, a, b, c):
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    denom = va + vb + vc
    denom = np.where(denom == 0.0, 1.0, denom)
    out = a + ab * (vb / denom)[:, None] + ac * (vc / denom)[:, None]
    m = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    t = np.where(m, (d4 - d3) / np.where(m, (d4 - d3) + (d5 - d6), 1.0), 0.0)
    out[m] = b[m] + (c - b)[m] * t[m, None]
    m = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    t = np.where(m, d2 / np.where(m, d2 - d6, 1.0), 0.0)
    out[m] = a[m] + ac[m] * t[m, None]
    m = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    t = np.where(m, d1 / np.where(m, d1 - d3, 1.0), 0.0)
    out[m] = a[m] + ab[m] * t[m, None]
    m = (d6 >= 0) & (d5 <= d6)
    out[m] = c[m]
    m = (d3 >= 0) & (d4 <= d3)
    out[m] = b[m]
    m = (d1 <= 0) & (d2 <= 0)
    out[m] = a[m]
    return out


def loop_point_triangle_distances(p, a, b, c):
    with np.errstate(invalid="ignore"):
        return np.linalg.norm(p - loop_closest_points(p, a, b, c), axis=1)


def loop_raw_distance_voxels(mesh, dims, voxel_size, origin, trunc):
    origin = np.asarray(origin, dtype=np.float64)
    raw = np.full(dims, float(trunc))
    axes = [origin[i] + (np.arange(dims[i]) + 0.5) * voxel_size for i in range(3)]
    band = (trunc + 1.0) * voxel_size
    va, vb, vc = mesh.triangle_corners()
    for t in range(mesh.n_faces):
        tri = np.stack([va[t], vb[t], vc[t]])
        lo, hi = tri.min(axis=0) - band, tri.max(axis=0) + band
        sl = [slice(int(np.searchsorted(axes[i], lo[i], side="left")),
                    int(np.searchsorted(axes[i], hi[i], side="right"))) for i in range(3)]
        if any(s.start >= s.stop for s in sl):
            continue
        g = np.meshgrid(axes[0][sl[0]], axes[1][sl[1]], axes[2][sl[2]], indexing="ij")
        pts = np.stack([x.ravel() for x in g], axis=1)
        d = loop_point_triangle_distances(pts, *(np.broadcast_to(v[t], pts.shape)
                                                 for v in (va, vb, vc)))
        block = raw[tuple(sl)]
        raw[tuple(sl)] = np.minimum(block, np.minimum(d / voxel_size, trunc).reshape(block.shape))
    return raw


def loop_mesh_to_tdf(mesh, dims, voxel_size, origin, trunc):
    raw = loop_raw_distance_voxels(mesh, dims, voxel_size, origin, trunc)
    return normalize_tdf(ScalarGrid3(raw.astype(np.float32), voxel_size, np.asarray(origin)),
                         trunc)


def random_soup(rng, n_tris, lo, hi, size):
    """Random triangles with a corner in [lo, hi)^3 and edges up to `size`."""
    a = rng.uniform(lo, hi, size=(n_tris, 1, 3))
    tris = a + rng.uniform(-size, size, size=(n_tris, 3, 3)) * (np.arange(3) > 0)[:, None]
    return G.TriMesh(tris.reshape(-1, 3), np.arange(3 * n_tris).reshape(-1, 3))


class TestTriMesh:
    def test_degenerate_faces_dropped(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]]
        faces = [[0, 1, 2], [0, 1, 3]]  # second is collinear
        mesh = G.TriMesh(verts, faces)
        assert mesh.n_faces == 1
        assert mesh.dropped_faces == 1

    def test_bad_indices_raise(self):
        with pytest.raises(ValueError):
            G.TriMesh([[0, 0, 0]], [[0, 0, 5]])

    def test_normals_unit(self):
        mesh = G.uv_sphere_mesh((0, 0, 0), 1.0)
        np.testing.assert_allclose(np.linalg.norm(mesh.face_normals, axis=1), 1.0, atol=1e-6)

    def test_primitives_watertight(self):
        assert G.box_mesh((0, 0, 0), (1, 2, 3)).is_watertight()
        assert G.uv_sphere_mesh((0, 0, 0), 1.0).is_watertight()
        assert G.cylinder_mesh((0, 0, 0), 1.0, 2.0).is_watertight()
        assert not G.square_mesh((0, 0, 0), (1, 0, 0), (0, 1, 0)).is_watertight()


class TestMeshToTdf:
    def test_plane_of_square_zero(self):
        # large square crossing voxel centers at z = 4.5 exactly
        sq = G.square_mesh((-10, -10, 4.5), (30, 0, 0), (0, 30, 0))
        tdf = G.mesh_to_tdf(sq, (8, 8, 8), 1.0, (0, 0, 0), trunc=3.0)
        np.testing.assert_allclose(tdf.values[:, :, 4], 0.0, atol=1e-7)

    def test_sphere_center_clamped(self):
        # r = 8 > trunc: the center voxel is beyond truncation
        sph = G.uv_sphere_mesh((8.0, 8.0, 8.0), 8.0)
        tdf = G.mesh_to_tdf(sph, (16, 16, 16), 1.0, (0, 0, 0), trunc=3.0)
        assert tdf.values[8, 8, 8] == 1.0

    def test_empty_mesh_raises(self):
        empty = G.TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            G.mesh_to_tdf(empty, (4, 4, 4), 1.0)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        tri = rng.uniform(2, 10, size=(3, 3))
        mesh = G.TriMesh(tri, [[0, 1, 2]])
        tdf = G.mesh_to_tdf(mesh, (12, 12, 12), 1.0, (0, 0, 0), trunc=3.0)
        for _ in range(50):
            v = rng.integers(0, 12, size=3)
            center = v + 0.5
            d = oracle_point_triangle(center.astype(float), tri[0], tri[1], tri[2])
            expect = min(d, 3.0) / 3.0
            assert abs(tdf.values[v[0], v[1], v[2]] - expect) < 1e-6


class TestVectorizedTdfPass:
    """The pair-block pass against the per-triangle loop it replaced."""

    @pytest.mark.parametrize("task, seed", [("super_resolution", 7),
                                            ("surface_reconstruction", 123)])
    def test_generated_scenes_float32_identical(self, task, seed):
        cfg = P.mini_config(task=task, seed=seed)
        dim, trunc = cfg.layout.scene_dim, cfg.hp.trunc_voxels
        for i in range(20):
            rec = P.generate_scene(cfg, "train", i)
            want = loop_mesh_to_tdf(rec.mesh, (dim,) * 3, cfg.voxel_size, (0, 0, 0), trunc)
            assert rec.gt.values.tobytes() == want.values.tobytes(), rec.name

    @pytest.mark.parametrize("trunc", [1.0, 2.5, 3.0])
    def test_float64_random_meshes(self, trunc):
        rng = np.random.default_rng(int(trunc * 10))
        for _ in range(4):
            mesh = random_soup(rng, 25, -1.0, 9.0, 3.0)
            vs = rng.uniform(0.4, 1.3)
            origin = rng.uniform(-1, 1, size=3)
            dims = tuple(int(d) for d in rng.integers(6, 14, size=3))
            got = G._raw_distance_voxels(mesh, dims, vs, origin, trunc)
            want = loop_raw_distance_voxels(mesh, dims, vs, origin, trunc)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_degenerate_and_outside_triangles(self):
        verts = np.array([[1.2, 1.1, 2.3], [6.4, 2.2, 3.1], [3.3, 6.1, 5.2],   # regular
                          [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [4.0, 4.0, 4.0],   # collinear
                          [5.5, 1.5, 6.5], [5.5, 1.5, 6.5], [7.0, 3.0, 2.0],   # repeated
                          [2.0, 5.0, 5.0], [6.0, 5.0, 5.0], [4.0, 5.0, 5.0 + 1e-6],  # sliver
                          [30.0, 30.0, 30.0], [31.0, 30.0, 30.0], [30.0, 31.0, 30.0],  # far
                          [9.5, 2.0, 2.0], [9.5, 6.0, 2.0], [9.5, 2.0, 6.0]])  # outside, in reach
        mesh = G.TriMesh(verts, np.arange(18).reshape(6, 3))
        assert mesh.n_faces == 4 and mesh.dropped_faces == 2
        dims = (8, 8, 8)
        got = G._raw_distance_voxels(mesh, dims, 1.0, (0, 0, 0), 3.0)
        want = loop_raw_distance_voxels(mesh, dims, 1.0, (0, 0, 0), 3.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert got[7, 4, 4] < 3.0   # the triangle beyond the +x face reaches in

        far = G.TriMesh(verts[12:15], [[0, 1, 2]])
        assert (G.mesh_to_tdf(far, dims, 1.0).values == 1.0).all()

    @pytest.mark.parametrize("gap", [-1e-9, 0.0, 1e-9])
    def test_cull_at_the_truncation_edge(self, gap):
        """Voxels a hair closer than trunc keep their distance; the cull
        drops only pairs that would add trunc."""
        z = 1.5 + gap   # the plane is 3 - gap voxels below the z = 4.5 centers
        mesh = G.TriMesh([[-1.0, -1.0, z], [9.0, -1.0, z], [-1.0, 9.0, z]], [[0, 1, 2]])
        got = G._raw_distance_voxels(mesh, (6, 6, 6), 1.0, (0, 0, 0), 3.0)
        want = loop_raw_distance_voxels(mesh, (6, 6, 6), 1.0, (0, 0, 0), 3.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got[:3, :3, 4], min(3.0 - gap, 3.0), rtol=0, atol=1e-12)

    def test_triangle_larger_than_one_block(self, monkeypatch):
        mesh = G.TriMesh([[-3.0, -2.0, 0.5], [20.0, 1.0, 8.0], [2.0, 19.0, 15.0]], [[0, 1, 2]])
        dims = (16, 16, 16)
        whole = G._raw_distance_voxels(mesh, dims, 1.0, (0, 0, 0), 3.0)
        monkeypatch.setattr(G, "_PAIR_BLOCK", 7)
        blocked = G._raw_distance_voxels(mesh, dims, 1.0, (0, 0, 0), 3.0)
        np.testing.assert_array_equal(blocked, whole)
        np.testing.assert_allclose(whole, loop_raw_distance_voxels(mesh, dims, 1.0, (0, 0, 0), 3.0),
                                   rtol=0, atol=1e-12)
        assert (whole < 3.0).sum() > 7 * 50

    def test_open_mesh_shell_matches_loop(self):
        rng = np.random.default_rng(8)
        meshes = [G.square_mesh((1, 1, 4.5), (6, 0, 0), (0, 6, 0)),
                  G.square_mesh((0.3, 0.7, 0.2), (7, 2, 1), (-1, 5, 6)),
                  random_soup(rng, 30, 0.0, 10.0, 2.5)]
        for mesh in meshes:
            assert not mesh.is_watertight()
            with pytest.warns(UserWarning):
                occ = G.voxelize_mesh(mesh, (10, 10, 10), 1.0, (0, 0, 0)).values
            shell = loop_raw_distance_voxels(mesh, (10, 10, 10), 1.0, (0, 0, 0), 1.0)
            np.testing.assert_array_equal(occ > 0, shell <= 0.5 * (1.0 - 1e-6))
            assert occ.sum() > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertices_raise(self, bad):
        box = G.box_mesh((0.5, 0.5, 0.5), (2.0, 2.0, 2.0))
        verts = box.vertices.copy()
        verts[5, 1] = bad
        with np.errstate(invalid="ignore"):
            mesh = G.TriMesh(verts, box.faces)
        assert mesh.n_faces < box.n_faces   # the bad faces were dropped silently
        with pytest.raises(ValueError, match="mesh_to_tdf: .*non-finite.*index 5"):
            G.mesh_to_tdf(mesh, (3, 3, 3), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="voxelize_mesh: .*non-finite.*index 5"):
                G.voxelize_mesh(mesh, (3, 3, 3), 1.0)


class TestPointTriangleDistance:
    def test_matches_loop_kernel_random(self):
        rng = np.random.default_rng(4)
        p, a, b, c = (rng.normal(size=(5000, 3)) * s for s in (3, 1, 1, 1))
        np.testing.assert_allclose(G.point_triangle_distances(p, a, b, c),
                                   loop_point_triangle_distances(p, a, b, c), rtol=0, atol=1e-12)

    def test_degenerate_triangles(self):
        """Zero-area triangles are the union of their edges; the loop kernel
        agrees wherever it is finite (it returned NaN for a == b with the
        point beside edge AC, where its zero-length edge AB won)."""
        rng = np.random.default_rng(5)
        n = 4000
        p = rng.integers(-6, 7, size=(n, 3)).astype(float) + rng.normal(size=(n, 3))
        a = rng.integers(-3, 4, size=(n, 3)).astype(float)
        b = rng.integers(-3, 4, size=(n, 3)).astype(float)
        c = rng.integers(-3, 4, size=(n, 3)).astype(float)
        kind = np.arange(n) % 5
        b[kind == 0] = a[kind == 0]
        c[kind == 1] = b[kind == 1]
        c[kind == 2] = a[kind == 2]
        b[kind == 3] = c[kind == 3] = a[kind == 3]
        c[kind == 4] = 2 * b[kind == 4] - a[kind == 4]   # collinear, exact
        p[kind == 4] = np.round(p[kind == 4])            # exact dot products
        want = np.minimum.reduce([segment_distance(p, a, b), segment_distance(p, b, c),
                                  segment_distance(p, c, a)])
        got = G.point_triangle_distances(p, a, b, c)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        old = loop_point_triangle_distances(p, a, b, c)
        finite = np.isfinite(old)
        assert (~finite).sum() > 0 and (kind[~finite] == 0).all()
        np.testing.assert_allclose(got[finite], old[finite], rtol=0, atol=1e-12)

    def test_nearly_collinear_triangles(self):
        """Rounding swamps the face formula of a triangle some 1e-15 wide
        (here it put 49 of 3000 distances up to 1.06 too far); such a
        triangle is its three edges to within its width."""
        rng = np.random.default_rng(9)
        n = 3000
        a, b = rng.uniform(-1, 1, size=(2, n, 3))
        c = a + rng.uniform(-0.5, 1.5, size=(n, 1)) * (b - a) + rng.normal(size=(n, 3)) * 1e-15
        p = (a + rng.uniform(-0.2, 1.2, size=(n, 1)) * (b - a)
             + rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-4, 0, size=(n, 1)))
        assert (0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1) < 1e-14).all()
        want = np.minimum.reduce([segment_distance(p, a, b), segment_distance(p, b, c),
                                  segment_distance(p, c, a)])
        np.testing.assert_allclose(G.point_triangle_distances(p, a, b, c), want,
                                   rtol=0, atol=1e-12)

    def test_sliver_matches_oracle(self):
        rng = np.random.default_rng(6)
        a, b = np.zeros(3), np.array([2.0, 0.0, 0.0])
        c = np.array([1.0, 1e-6, 0.0])
        for _ in range(100):
            p = rng.normal(size=3) * 2
            got = G.point_triangle_distances(p[None], a[None], b[None], c[None])[0]
            assert abs(got - oracle_point_triangle(p, a, b, c)) < 1e-10

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = rng.normal(size=(3, 3))
            p = rng.normal(size=3) * 2
            got = G.point_triangle_distances(p[None], a[None], b[None], c[None])[0]
            want = oracle_point_triangle(p, a, b, c)
            assert abs(got - want) < 1e-10


class TestMarchingCubes:
    def test_sphere_area_and_euler(self):
        field = analytic_sphere_field(28, (14.3, 13.8, 14.1), 10.0)
        mesh = G.marching_cubes_field(field, 0.0, 1.0, (0, 0, 0))
        assert abs(mesh.area - 4 * np.pi * 100) / (4 * np.pi * 100) < 0.05
        assert G.euler_characteristic(mesh) == 2
        assert mesh.is_watertight()

    def test_constant_field_empty(self):
        grid = ScalarGrid3.full((8, 8, 8), 1.0)
        assert G.marching_cubes(grid).is_empty
        assert G.marching_cubes_field(np.full((8, 8, 8), -1.0), 0.0).is_empty

    def test_world_coordinates(self):
        field = analytic_sphere_field(20, (10.2, 10.2, 10.2), 6.0)
        mesh = G.marching_cubes_field(field, 0.0, voxel_size=0.5, origin=(3.0, 4.0, 5.0))
        center_w = np.array([3.0, 4.0, 5.0]) + 10.2 * 0.5
        r = np.linalg.norm(mesh.vertices - center_w, axis=1)
        np.testing.assert_allclose(r, 6.0 * 0.5, atol=0.1)

    def test_no_nan_no_bad_indices(self):
        rng = np.random.default_rng(9)
        field = rng.normal(size=(10, 10, 10))
        mesh = G.marching_cubes_field(field, 0.0)
        assert np.isfinite(mesh.vertices).all()
        if mesh.n_faces:
            assert mesh.faces.max() < mesh.n_vertices

    def test_tdf_roundtrip_recovers_radius(self):
        center = np.array([14.3, 13.8, 14.1])
        sph = G.uv_sphere_mesh(center, 10.0, n_theta=24, n_phi=32)
        tdf = G.mesh_to_tdf(sph, (28, 28, 28), 1.0, (0, 0, 0), trunc=3.0)
        mesh = G.marching_cubes(tdf)
        r = np.linalg.norm(mesh.vertices - center, axis=1)
        assert abs(r.mean() - 10.0) < 0.5


class TestSampleSurface:
    def test_count_zero(self):
        mesh = G.box_mesh((0, 0, 0), (1, 1, 1))
        assert G.sample_surface(mesh, 0, seed=1).shape == (0, 3)

    def test_empty_mesh_raises(self):
        empty = G.TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            G.sample_surface(empty, 5, seed=1)

    def test_single_triangle_plane_and_centroid(self):
        tri = np.array([[0.0, 0, 0], [2, 0, 0], [0, 2, 0]])
        mesh = G.TriMesh(tri, [[0, 1, 2]])
        pts = G.sample_surface(mesh, 10_000, seed=4)
        assert np.abs(pts[:, 2]).max() < 1e-6
        centroid = tri.mean(axis=0)
        # LLN: sample mean within 2% of the triangle diameter of the centroid
        assert np.linalg.norm(pts.mean(axis=0) - centroid) < 0.02 * 2 * np.sqrt(2)

    def test_area_weighting_ratio(self):
        verts = np.array([[0.0, 0, 0], [3, 0, 0], [0, 2, 0],   # area 3
                          [10.0, 0, 0], [11, 0, 0], [10, 2, 0]])  # area 1
        mesh = G.TriMesh(verts, [[0, 1, 2], [3, 4, 5]])
        pts, fi = G.sample_surface_with_faces(mesh, 100_000, seed=8)
        frac = (fi == 0).mean()
        assert abs(frac - 0.75) < 0.02  # binomial bound

    def test_deterministic(self):
        mesh = G.uv_sphere_mesh((0, 0, 0), 1.0)
        a = G.sample_surface(mesh, 100, seed=12)
        b = G.sample_surface(mesh, 100, seed=12)
        np.testing.assert_array_equal(a, b)


class TestVoxelize:
    def test_cube_exact(self):
        cube = G.box_mesh((4, 4, 4), (8, 8, 8))
        occ = G.voxelize_mesh(cube, (16, 16, 16), 1.0, (0, 0, 0))
        assert occ.values.sum() == 8 ** 3
        assert occ.values[4:12, 4:12, 4:12].all()

    def test_empty_mesh_zeros(self):
        empty = G.TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        occ = G.voxelize_mesh(empty, (4, 4, 4), 1.0)
        assert occ.values.sum() == 0

    def test_sphere_volume_within_3pct(self):
        sph = G.uv_sphere_mesh((14.3, 13.8, 14.1), 10.0, n_theta=28, n_phi=40)
        occ = G.voxelize_mesh(sph, (28, 28, 28), 1.0, (0, 0, 0))
        vol = occ.values.sum()
        analytic = 4.0 / 3.0 * np.pi * 1000
        assert abs(vol - analytic) / analytic < 0.03

    def test_open_mesh_warns_shell(self):
        sq = G.square_mesh((1, 1, 4.5), (6, 0, 0), (0, 6, 0))
        with pytest.warns(UserWarning):
            occ = G.voxelize_mesh(sq, (8, 8, 8), 1.0, (0, 0, 0))
        assert occ.values.sum() > 0
        assert occ.values[:, :, 0].sum() == 0  # far layers stay empty

    def test_mc_sphere_iou_vs_analytic(self):
        n, center, r = 28, np.array([14.3, 13.8, 14.1]), 10.0
        field = analytic_sphere_field(n, center, r)
        mesh = G.marching_cubes_field(field, 0.0, 1.0, (0, 0, 0))
        vox = G.voxelize_mesh(mesh, (n, n, n), 1.0, (0, 0, 0)).values
        idx = np.indices((n, n, n)).astype(float) + 0.5
        ana = np.sqrt(((idx - center.reshape(3, 1, 1, 1)) ** 2).sum(0)) <= r
        iou = ((vox > 0) & ana).sum() / ((vox > 0) | ana).sum()
        assert iou >= 0.95


class TestObjIO:
    def test_roundtrip(self, tmp_path):
        mesh = G.cylinder_mesh((1, 2, 3), 2.0, 4.0, n_seg=12)
        path = tmp_path / "cyl.obj"
        G.save_obj(path, mesh)
        back = G.load_obj(path)
        assert back.n_faces == mesh.n_faces
        np.testing.assert_allclose(back.vertices, mesh.vertices, atol=1e-7)

    def test_fan_triangulation(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        mesh = G.load_obj(path)
        assert mesh.n_faces == 2

    def test_slash_indices(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n")
        assert G.load_obj(path).n_faces == 1
