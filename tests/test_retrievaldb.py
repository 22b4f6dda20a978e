import itertools
import re

import numpy as np
import pytest

from retrivox import embed as E
from retrivox import retrievaldb as R
from retrivox.grids import (OCCUPANCY_TDF_THRESHOLD, PAD_TDF_VALUE, ChunkLayout, HyperParams,
                            ScalarGrid3, coarsen, from_blocks, to_blocks, upsample, windows)
from tests.test_embed import make_toy_prototypes

HP = HyperParams(batch_retrieval=8)
MINI = ChunkLayout(scene_dim=32, chunk_dim=8, patch_dim=4)


def random_db(rng, n=200, dim=16, chunk_dim=4):
    db = R.ChunkDatabase(chunk_dim=chunk_dim, embed_dim=dim)
    emb = rng.normal(size=(n, dim)).astype(np.float32)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    chunks = rng.random((n, chunk_dim ** 3)).astype(np.float32)
    db.add_entries(chunks, emb, ["t"] * n)
    return db


class TestKnn:
    def test_stored_embedding_first_distance_zero(self):
        rng = np.random.default_rng(0)
        db = random_db(rng)
        hits = R.knn(db, db.embeddings[17], k=3)
        assert hits[0][0] == 17
        assert hits[0][1] == 0.0

    def test_k_equals_count_is_sorted_permutation(self):
        rng = np.random.default_rng(1)
        db = random_db(rng, n=50)
        hits = R.knn(db, rng.normal(size=16).astype(np.float32), k=50)
        ids = [h[0] for h in hits]
        assert sorted(ids) == list(range(50))
        dists = [h[1] for h in hits]
        assert all(a <= b for a, b in zip(dists, dists[1:]))

    def test_k_too_large_raises(self):
        rng = np.random.default_rng(2)
        db = random_db(rng, n=5)
        with pytest.raises(ValueError):
            R.knn(db, db.embeddings[0], k=6)

    def test_accelerator_equals_bruteforce_with_ties(self):
        rng = np.random.default_rng(3)
        db = random_db(rng, n=500)
        # deliberate exact duplicates to force distance ties
        dup_emb = db.embeddings[:40].copy()
        dup_chunks = db.chunks[:40].copy()
        db.add_entries(dup_chunks, dup_emb, ["dup"] * 40)
        db.build_index()
        for q in range(100):
            query = db.embeddings[rng.integers(0, len(db))] if q % 2 else \
                rng.normal(size=16).astype(np.float32)
            fast = R.knn(db, query, k=7)
            slow = R.knn_bruteforce(db, query, k=7)
            assert fast == slow

    def test_duplicate_tie_keeps_original_first(self):
        rng = np.random.default_rng(4)
        db = random_db(rng, n=20)
        db.add_entries(db.chunks[5:6].copy(), db.embeddings[5:6].copy(), ["copy"])
        db.build_index()
        hits = R.knn(db, db.embeddings[5], k=2)
        assert [h[0] for h in hits] == [5, 20]
        assert hits[0][1] == hits[1][1] == 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_batch_rows_equal_bruteforce_large_norms_and_ties(self, scale):
        # far queries make the screen's cancellation error larger than the
        # gaps between distances: a slack that did not grow with the norms
        # would drop true neighbours
        rng = np.random.default_rng(8)
        n, dim = 300, 16
        emb = (rng.normal(size=(n, dim)) * scale).astype(np.float32)
        emb[250:] = emb[:50]                         # exact duplicates -> ties
        db = R.ChunkDatabase(chunk_dim=2, embed_dim=dim)
        db.add_entries(np.zeros((n, 8), np.float32), emb, ["t"] * n)
        queries = np.concatenate([db.embeddings[rng.integers(0, n, size=20)],
                                  rng.normal(size=(20, dim)) * scale,
                                  rng.normal(size=(20, dim)) * scale * 1e15])
        rows, dists = R._knn_rows(db, queries, 9)
        assert rows.shape == dists.shape == (60, 9)
        for q, r, d in zip(queries, rows, dists):
            want = R.knn_bruteforce(db, q, 9)
            assert [int(i) for i in db.ids[r]] == [i for i, _ in want]
            assert d.tolist() == [x for _, x in want]

    def test_knn_after_extend_without_build_index(self):
        rng = np.random.default_rng(9)
        pair = E.ChunkEncoderPair.create(2, 4, HP, seed=0)
        db = R.ChunkDatabase(chunk_dim=4, embed_dim=pair.embed_dim)
        chunks = rng.random((100, 64)).astype(np.float32)
        db.add_entries(chunks, pair.encode_targets(chunks), ["t"] * 100)
        db.build_index()
        R.extend(db, rng.random((30, 64)).astype(np.float32) * 0.1, pair)
        assert len(db) == 130
        for q in (db.embeddings[120], db.embeddings[3], -db.embeddings[0]):
            assert R.knn(db, q, 6) == R.knn_bruteforce(db, q, 6)

    def test_non_finite_query_and_bad_k_raise(self):
        rng = np.random.default_rng(10)
        db = random_db(rng, n=30)
        q = db.embeddings[0].copy()
        q[4] = np.nan
        with pytest.raises(ValueError):
            R.knn(db, q, 3)
        with pytest.raises(ValueError):
            R._knn_rows(db, np.stack([db.embeddings[1], q]), 3)
        with pytest.raises(ValueError):
            R.knn(db, np.full(16, np.inf, np.float32), 3)
        with pytest.raises(ValueError):
            R.knn(db, db.embeddings[0], 0)
        with pytest.raises(ValueError):
            R.knn(db, np.zeros(32, np.float32), 3)


def window_chunks(values, layout):
    """Reference unfold: per-chunk slices of one window, lexicographic (i, j, k)."""
    c = layout.chunk_dim
    return [values[i * c:(i + 1) * c, j * c:(j + 1) * c, k * c:(k + 1) * c]
            for i, j, k in itertools.product(range(layout.n), repeat=3)]


def window_of(chunks, layout=MINI):
    """One window grid of its n^3 chunks (n^3, c, c, c) in (i, j, k) order."""
    n, c = layout.n, layout.chunk_dim
    return ScalarGrid3(from_blocks(np.asarray(chunks).reshape(n, n, n, c, c, c)), 1.0)


def loop_build(encoders, scenes, layout, scene_tags=None, min_occupancy=0.01):
    """Reference build: the per-chunk loop that one stacked unfold and one
    keep mask replaced."""
    if scene_tags is None:
        scene_tags = [f"scene{num}" for num in range(len(scenes))]
    c = layout.chunk_dim
    all_chunks, all_tags = [], []
    if min_occupancy > 0:
        all_chunks.append(np.ones(c ** 3, dtype=np.float32))
        all_tags.append(R.EMPTY_CHUNK_TAG)
    for scene, tag in zip(scenes, scene_tags):
        for chunk in window_chunks(scene.values, layout):
            if min_occupancy > 0:
                if (chunk < OCCUPANCY_TDF_THRESHOLD).mean() < min_occupancy:
                    continue
            all_chunks.append(chunk.ravel().astype(np.float32))
            all_tags.append(tag)
    stack = np.stack(all_chunks)
    db = R.ChunkDatabase(chunk_dim=c, embed_dim=encoders.embed_dim)
    db.add_entries(stack, encoders.encode_targets(stack), all_tags)
    db.build_index()
    return db


def assert_same_db(got, want):
    np.testing.assert_array_equal(got.ids, want.ids)
    assert got.tags == want.tags
    np.testing.assert_array_equal(got.chunks, want.chunks)
    np.testing.assert_array_equal(got.embeddings, want.embeddings)
    assert got.chunks.dtype == want.chunks.dtype == np.float32


def straddling_scenes(rng):
    """Three MINI windows whose chunks straddle the keep rule at 1%: empty,
    5 or 6 of 512 voxels occupied, or dense.  The last window is float64,
    with voxels a hair either side of the occupancy threshold that the
    float32 cast would round onto it."""
    scenes = []
    for w in range(3):
        v = np.ones((32, 32, 32), dtype=np.float32 if w < 2 else np.float64)
        for chunk in window_chunks(v, MINI):
            count = rng.choice([0, 5, 6, 40, 512])
            at = np.unravel_index(rng.choice(512, size=count, replace=False), chunk.shape)
            chunk[at] = rng.random(count) * 0.3  # chunk is a view of v
        if w == 2:
            v[::3, ::2, ::5] = OCCUPANCY_TDF_THRESHOLD + rng.choice([-1e-12, 1e-12],
                                                                    size=v[::3, ::2, ::5].shape)
        scenes.append(ScalarGrid3(v, 1.0))
    return scenes


class TestArrayPath:
    PAIR = E.ChunkEncoderPair.create(4, 8, HP, seed=0)

    @pytest.mark.parametrize("min_occupancy", [0.0, 0.01])
    def test_build_equals_per_chunk_loop(self, min_occupancy):
        scenes = straddling_scenes(np.random.default_rng(20))
        tags = ["scene-a", "scene-b", "scene-c"]
        got = R.build(self.PAIR, scenes, MINI, scene_tags=tags, min_occupancy=min_occupancy)
        want = loop_build(self.PAIR, scenes, MINI, scene_tags=tags,
                          min_occupancy=min_occupancy)
        assert_same_db(got, want)
        # the mix really straddles the rule: some chunks kept, some dropped
        assert (len(got) == 3 * 64) == (min_occupancy == 0.0)
        assert set(got.tags) >= set(tags)

    def test_unfold_values_stack_equals_per_window(self):
        rng = np.random.default_rng(21)
        stack = rng.random((2, 3, 32, 32, 32)).astype(np.float32)
        got = R.unfold_values(stack, MINI)
        assert got.shape == (6 * 64, 8, 8, 8)
        windows = stack.reshape(6, 32, 32, 32)
        want = np.concatenate([R.unfold_values(w, MINI) for w in windows])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, np.stack([c for w in windows
                                                     for c in window_chunks(w, MINI)]))

    def test_wrong_scene_shape_raises(self):
        good = ScalarGrid3(np.ones((32, 32, 32), np.float32), 1.0)
        for bad in (np.ones((16, 16, 16), np.float32), np.ones((32, 32, 16), np.float32)):
            with pytest.raises(ValueError, match="window shape"):
                R.unfold_values(bad, MINI)
            with pytest.raises(ValueError):
                R.build(self.PAIR, [good, ScalarGrid3(bad, 1.0)], MINI)
            with pytest.raises(ValueError, match="window shape"):
                R.build(self.PAIR, [ScalarGrid3(bad, 1.0)], MINI)
        with pytest.raises(ValueError, match="2 tags for 1 scenes"):
            R.build(self.PAIR, [good], MINI, scene_tags=["a", "b"])


class TestBuildAndAssemble:
    def trained_setup(self):
        rng = np.random.default_rng(0)
        x, y = make_toy_prototypes(rng, chunk_dim=8, in_dim=4)
        pair, _ = E.train_retrieval(x, y, HP, seed=1, iters=250, lr=1e-3)
        return pair, x, y

    def scene_from_protos(self, y, order):
        return window_of(y[order])

    def test_one_window_unfiltered_is_64_entries(self):
        pair, x, y = self.trained_setup()
        scene = self.scene_from_protos(y, np.zeros(64, dtype=int))
        db = R.build(pair, [scene], MINI, min_occupancy=0.0)
        assert len(db) == 64

    def test_empty_scene_set_raises(self):
        pair, _, _ = self.trained_setup()
        with pytest.raises(ValueError):
            R.build(pair, [], MINI)

    def test_db_file_roundtrip_bitexact(self, tmp_path):
        rng = np.random.default_rng(5)
        db = random_db(rng, n=33, dim=8, chunk_dim=4)
        db.tags[3] = "category-b"
        p1 = tmp_path / "db.rfdb"
        R.save_db(p1, db)
        back = R.load_db(p1)
        np.testing.assert_array_equal(back.ids, db.ids)
        assert back.tags == db.tags
        np.testing.assert_array_equal(back.embeddings, db.embeddings)
        np.testing.assert_array_equal(back.chunks, db.chunks)
        p2 = tmp_path / "again.rfdb"
        R.save_db(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_or_overlong_db_file_raises(self, tmp_path):
        rng = np.random.default_rng(6)
        db = random_db(rng, n=12, dim=8, chunk_dim=2)
        db.tags[5] = "a-longer-tag"
        path = tmp_path / "db.rfdb"
        R.save_db(path, db)
        data = path.read_bytes()
        for bad in (data[:10], data[:-1], data[:len(data) // 2], data + b"\0"):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="db.rfdb"):
                R.load_db(path)

    def test_failed_save_leaves_earlier_file(self, tmp_path):
        rng = np.random.default_rng(7)
        db = random_db(rng, n=20, dim=8, chunk_dim=2)
        path = tmp_path / "db.rfdb"
        R.save_db(path, db)
        before = path.read_bytes()
        # the second tag run fails to pack after the first run was written
        db.tags = ["a"] * 10 + ["bb"] * 10
        db.chunks = db.chunks[:15]
        with pytest.raises(ValueError):
            R.save_db(path, db)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["db.rfdb"]

    def test_rank1_assembly_reproduces_toy_scene(self):
        rng = np.random.default_rng(0)
        pair, x, y = self.trained_setup()
        order = rng.integers(0, 8, size=64)
        scene = self.scene_from_protos(y, order)
        db = R.build(pair, [scene], MINI, min_occupancy=0.01)
        # coarse input window: min-pool by 2 (mini super-resolution input)
        v = scene.values.reshape(16, 2, 16, 2, 16, 2).min(axis=(1, 3, 5))
        input_window = ScalarGrid3(v, 2.0, scene.origin)
        approxs = R.assemble_approximations(db, pair, input_window, MINI, k=2)
        assert len(approxs) == 2
        assert approxs[0].rank == 1
        np.testing.assert_array_equal(approxs[0].scene.values, scene.values)

    def test_k1_single_scene(self):
        pair, x, y = self.trained_setup()
        scene = self.scene_from_protos(y, np.arange(64) % 8)
        db = R.build(pair, [scene], MINI)
        v = scene.values.reshape(16, 2, 16, 2, 16, 2).min(axis=(1, 3, 5))
        input_window = ScalarGrid3(v, 2.0, scene.origin)
        approxs = R.assemble_approximations(db, pair, input_window, MINI, k=1)
        assert len(approxs) == 1

    def test_entry_order_permutation_invariant_assembly(self):
        pair, x, y = self.trained_setup()
        rng = np.random.default_rng(7)
        order = rng.integers(0, 8, size=64)
        scene = self.scene_from_protos(y, order)
        db = R.build(pair, [scene], MINI)
        v = scene.values.reshape(16, 2, 16, 2, 16, 2).min(axis=(1, 3, 5))
        input_window = ScalarGrid3(v, 2.0, scene.origin)
        ref = R.assemble_approximations(db, pair, input_window, MINI, k=2)

        # permute entry storage order, re-assign the same ids
        perm = rng.permutation(len(db))
        db2 = R.ChunkDatabase(chunk_dim=db.chunk_dim, embed_dim=db.embed_dim)
        db2.ids = db.ids[perm]
        db2.tags = [db.tags[i] for i in perm]
        db2.embeddings = db.embeddings[perm]
        db2.chunks = db.chunks[perm]
        db2.build_index()
        got = R.assemble_approximations(db2, pair, input_window, MINI, k=2)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g.scene.values, r.scene.values)

    def test_assembly_equals_per_slot_bruteforce(self):
        pair, x, y = self.trained_setup()
        rng = np.random.default_rng(11)
        scene = self.scene_from_protos(y, rng.integers(0, 8, size=64))
        db = R.build(pair, [scene], MINI, min_occupancy=0.0)
        v = scene.values.reshape(16, 2, 16, 2, 16, 2).min(axis=(1, 3, 5)) + 0.01
        input_window = ScalarGrid3(v, 2.0, scene.origin)
        got = R.assemble_approximations(db, pair, input_window, MINI, k=3)
        in_layout = ChunkLayout(scene_dim=16, chunk_dim=4, patch_dim=1)
        in_chunks = np.stack([c.ravel() for c in R.unfold_values(v, in_layout)])
        hits = [R.knn_bruteforce(db, e, 3) for e in pair.encode_inputs(in_chunks)]
        for r, approx in enumerate(got):
            want = window_of([db.chunk_grid(db.row_of_id(h[r][0]), 1.0).values for h in hits])
            np.testing.assert_array_equal(approx.scene.values, want.values)

    def test_non_finite_window_raises(self):
        pair, x, y = self.trained_setup()
        scene = self.scene_from_protos(y, np.arange(64) % 8)
        db = R.build(pair, [scene], MINI)
        v = scene.values.reshape(16, 2, 16, 2, 16, 2).min(axis=(1, 3, 5))
        v[3, 4, 5] = np.nan
        with pytest.raises(ValueError):
            R.assemble_approximations(db, pair, ScalarGrid3(v, 2.0, scene.origin), MINI, k=1)


class TestBlocking:
    def test_round_trip_one_window_and_batch(self):
        rng = np.random.default_rng(0)
        x = rng.random((32, 32, 32)).astype(np.float32)
        blocks = to_blocks(x, 8)
        assert blocks.shape == (4, 4, 4, 8, 8, 8)
        np.testing.assert_array_equal(from_blocks(blocks), x)
        batch = rng.random((3, 2, 16, 16, 16))
        blocks = to_blocks(batch, 4)
        assert blocks.shape == (3, 2, 4, 4, 4, 4, 4, 4)
        np.testing.assert_array_equal(from_blocks(blocks), batch)
        box = rng.random((2, 8, 8, 6))
        blocks = to_blocks(box, 2)
        assert blocks.shape == (2, 4, 4, 3, 2, 2, 2)
        np.testing.assert_array_equal(blocks[1, 3, 0, 2], box[1, 6:8, 0:2, 4:6])
        np.testing.assert_array_equal(from_blocks(blocks), box)

    def test_order_matches_unfold(self):
        rng = np.random.default_rng(1)
        batch = rng.random((2, 32, 32, 32)).astype(np.float32)
        blocks = to_blocks(batch, MINI.chunk_dim).reshape(2, 64, 8, 8, 8)
        for w in range(2):
            chunks = window_chunks(batch[w], MINI)
            for got, want, raw in zip(blocks[w], chunks, R.unfold_values(batch[w], MINI)):
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(got, raw)
        # block (i, j, k) = (0, 1, 2) of a 4^3 split sits at flat index 6
        np.testing.assert_array_equal(blocks[1, 6], batch[1, 0:8, 8:16, 16:24])

    def test_bad_shapes_raise(self):
        for values, block in ((np.zeros((8, 8, 6)), 4), (np.zeros((8, 8, 8)), 3),
                              (np.zeros((8, 8)), 2), (np.zeros((8, 8, 8)), 0)):
            with pytest.raises(ValueError):
                to_blocks(values, block)
        for blocks in (np.zeros((7, 2, 2, 2)), np.zeros((8, 2, 2, 3)), np.zeros((2, 2, 2)),
                       np.zeros((2, 2, 2, 2, 2, 3))):
            with pytest.raises(ValueError):
                from_blocks(blocks)

    def test_windows_pad_a_box_scene(self):
        scene = np.random.default_rng(3).random((9, 4, 5)).astype(np.float32)
        grid = windows(scene, 4)
        assert grid.shape == (3, 1, 2, 4, 4, 4) and grid.dtype == np.float32
        corner = np.full((4, 4, 4), PAD_TDF_VALUE, np.float32)
        corner[:1, :, :1] = scene[8:, :, 4:]
        np.testing.assert_array_equal(grid[2, 0, 1], corner)
        np.testing.assert_array_equal(from_blocks(grid)[:9, :4, :5], scene)
        with pytest.raises(ValueError):
            windows(scene, 0)

    def test_coarsen_and_upsample(self):
        rng = np.random.default_rng(4)
        v = rng.random((4, 6, 2)).astype(np.float32)
        grid = ScalarGrid3(v, 0.5, (1.0, 2.0, 3.0))
        low = coarsen(grid, 2)
        np.testing.assert_array_equal(low.values, v.reshape(2, 2, 3, 2, 1, 2).min(axis=(1, 3, 5)))
        assert low.voxel_size == 1.0 and low.origin.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            coarsen(grid, 4)
        batch = rng.random((2, 3, 2, 4)).astype(np.float32)
        up = upsample(batch, 2)
        np.testing.assert_array_equal(up, batch.repeat(2, 1).repeat(2, 2).repeat(2, 3))
        np.testing.assert_array_equal(coarsen(ScalarGrid3(up[0], 1.0), 2).values, batch[0])
        np.testing.assert_array_equal(upsample(v, 1), v)

    def test_retrieve_windows_needs_cubes(self):
        pair = E.ChunkEncoderPair.create(4, 8, HP, seed=0)
        db = R.ChunkDatabase(chunk_dim=8, embed_dim=pair.embed_dim)
        for shape in ((2, 16, 16, 8), (16, 16, 16), (2, 16, 16, 15)):
            with pytest.raises(ValueError, match=re.escape(str(shape))):
                R.retrieve_windows(db, pair, np.zeros(shape, np.float32), MINI, 1)

    def test_batched_retrieval_equals_assembly_per_window(self):
        rng = np.random.default_rng(12)
        pair = E.ChunkEncoderPair.create(4, 8, HP, seed=0)
        chunks = rng.random((40, 8 ** 3)).astype(np.float32)
        chunks[20:] = chunks[:20]                    # duplicate entries -> distance ties
        db = R.ChunkDatabase(chunk_dim=8, embed_dim=pair.embed_dim)
        db.add_entries(chunks, pair.encode_targets(chunks), ["t"] * 40)
        # five windows: 320 input chunks cross the encoder's 256-chunk batch
        wins = rng.random((5, 16, 16, 16)).astype(np.float32)
        got = R.retrieve_windows(db, pair, wins, MINI, 3)
        assert got.shape == (5, 3, 32, 32, 32)
        for w in range(5):
            approxs = R.assemble_approximations(db, pair, ScalarGrid3(wins[w], 2.0), MINI, k=3)
            assert [a.rank for a in approxs] == [1, 2, 3]
            for r, a in enumerate(approxs):
                np.testing.assert_array_equal(got[w, r], a.scene.values)
                assert a.scene.voxel_size == 1.0


class TestExtend:
    def test_zero_extension_identical_queries(self):
        rng = np.random.default_rng(0)
        x, y = make_toy_prototypes(rng)
        pair, _ = E.train_retrieval(x, y, HP, seed=1, iters=30, lr=1e-3)
        scene = window_of(y[np.arange(64) % 8])
        db = R.build(pair, [scene], MINI)
        q = db.embeddings[2]
        before = R.knn(db, q, k=4)
        R.extend(db, np.zeros((0, 8 ** 3), dtype=np.float32), pair)
        assert R.knn(db, q, k=4) == before
        assert db.version == 1

    def test_extension_appends_with_stable_ids(self):
        rng = np.random.default_rng(0)
        x, y = make_toy_prototypes(rng)
        pair, _ = E.train_retrieval(x, y, HP, seed=1, iters=30, lr=1e-3)
        scene = window_of(y[np.arange(64) % 8])
        db = R.build(pair, [scene], MINI)
        ids_before = db.ids.copy()
        n_before = len(db)
        R.extend(db, y[:3], pair, tag="newcat")
        np.testing.assert_array_equal(db.ids[:n_before], ids_before)
        assert db.tags[-1] == "newcat"
        assert len(db) == n_before + 3

    def test_chunk_dim_mismatch_raises(self):
        rng = np.random.default_rng(1)
        db = random_db(rng, n=4, chunk_dim=4)
        pair = E.ChunkEncoderPair.create(4, 8, HP, seed=0)
        with pytest.raises(ValueError):
            R.extend(db, np.zeros((2, 27), dtype=np.float32), pair)
        # 64 rows of 27 values hold 27 * 64 floats, 27 chunks' worth
        with pytest.raises(ValueError, match=r"\(64, 27\).*\(64,\).*\(4, 4, 4\)"):
            R.extend(db, np.zeros((64, 27), dtype=np.float32), pair)
        assert len(db) == 4 and db.version == 0


class TestSelectTrainingPairs:
    def test_filters_empties_keeps_one(self):
        targets = np.ones((10, 4, 4, 4), dtype=np.float32)
        targets[0, :2] = 0.0   # surface chunk
        targets[3, :1] = 0.0   # surface chunk
        inputs = np.arange(10, dtype=np.float32).reshape(10, 1, 1, 1) * np.ones((10, 2, 2, 2), np.float32)
        fi, ft = R.select_training_pairs(inputs, targets)
        # two surface chunks plus the first empty pair (index 1)
        assert len(ft) == 3
        assert fi[:, 0, 0, 0].tolist() == [0.0, 1.0, 3.0]
