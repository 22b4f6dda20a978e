import numpy as np
import pytest

from retrivox import embed as E
from retrivox import retrievaldb as R
from retrivox.grids import ChunkLayout, HyperParams, ScalarGrid3, fold, unfold
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


class TestBuildAndAssemble:
    def trained_setup(self):
        rng = np.random.default_rng(0)
        x, y = make_toy_prototypes(rng, chunk_dim=8, in_dim=4)
        pair, _ = E.train_retrieval(x, y, HP, seed=1, iters=250, lr=1e-3)
        return pair, x, y

    def scene_from_protos(self, y, order):
        layout = MINI
        chunks = [ScalarGrid3(y[i], 1.0) for i in order]
        return fold(chunks, layout)

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
            want = fold([db.chunk_grid(db.row_of_id(h[r][0]), 1.0) for h in hits], MINI)
            np.testing.assert_array_equal(approx.scene.values, want.values)

    def test_non_finite_window_raises(self):
        pair, x, y = self.trained_setup()
        scene = self.scene_from_protos(y, np.arange(64) % 8)
        db = R.build(pair, [scene], MINI)
        v = scene.values.reshape(16, 2, 16, 2, 16, 2).min(axis=(1, 3, 5))
        v[3, 4, 5] = np.nan
        with pytest.raises(ValueError):
            R.assemble_approximations(db, pair, ScalarGrid3(v, 2.0, scene.origin), MINI, k=1)


class TestExtend:
    def test_zero_extension_identical_queries(self):
        rng = np.random.default_rng(0)
        x, y = make_toy_prototypes(rng)
        pair, _ = E.train_retrieval(x, y, HP, seed=1, iters=30, lr=1e-3)
        scene = fold([ScalarGrid3(y[i % 8], 1.0) for i in range(64)], MINI)
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
        scene = fold([ScalarGrid3(y[i % 8], 1.0) for i in range(64)], MINI)
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
