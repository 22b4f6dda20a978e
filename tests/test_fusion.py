import itertools
import math

import numpy as np
import pytest

from retrivox import embed as E
from retrivox import fusion as F
from retrivox import retrievaldb as R
from retrivox import tensor as T
from retrivox.grids import PAD_TDF_VALUE, ChunkLayout, HyperParams, ScalarGrid3, from_blocks
from retrivox.retrievaldb import ApproxReconstruction

MINI = ChunkLayout(32, 8, 4)
TINY = ChunkLayout(8, 4, 2)


def tiny_config(mode="attention", k=2):
    return F.FusionConfig(layout=TINY, k=k, mode=mode, feat_channels=6,
                          base_channels=4, retr_base_channels=3, attn_dim=4,
                          C_sharpness=10.0)


def unit(v):
    return v / np.linalg.norm(v)


class TestAttentionPrimitives:
    def test_same_vector_score_one(self):
        rng = np.random.default_rng(0)
        h = unit(rng.normal(size=8))
        s = F.attention_scores(h, np.stack([h, -h]))
        assert abs(s[0] - 1.0) < 1e-12
        assert abs(s[1] + 1.0) < 1e-12

    def test_random_equals_explicit_dot(self):
        rng = np.random.default_rng(1)
        h = unit(rng.normal(size=32))
        hr = np.stack([unit(rng.normal(size=32)) for _ in range(4)])
        s = F.attention_scores(h, hr)
        for i in range(4):
            assert abs(s[i] - float(hr[i] @ h)) < 1e-6

    def test_weights_equal_scores(self):
        w = F.attention_weights(np.zeros(4), sharpness=10.0)
        np.testing.assert_allclose(w, 0.25, atol=1e-12)

    def test_weights_sharp_case(self):
        w = F.attention_weights(np.array([1.0, 0, 0, 0]), sharpness=10.0)
        want = math.exp(10) / (math.exp(10) + 3)
        assert abs(w[0] - want) < 1e-9

    def test_weights_shift_invariant(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=5)
        w1 = F.attention_weights(s, 7.0)
        w2 = F.attention_weights(s + 3.7, 7.0)
        np.testing.assert_allclose(w1, w2, atol=1e-7)

    def test_blend_saturations(self):
        rng = np.random.default_rng(3)
        p_in = rng.normal(size=6)
        p_retr = rng.normal(size=(3, 6))
        s = np.array([1.0, 0.2, -0.4])
        # c = 50: beta ~ 1, output ~ weighted retrieval sum
        out_hi = F.blend(p_in, p_retr, s, sharpness=10.0, c=50.0, d=0.0)
        w = F.attention_weights(s, 10.0)
        np.testing.assert_allclose(out_hi, (w[:, None] * p_retr).sum(0), atol=1e-6)
        # c = 0, d = -50: beta ~ 0, output ~ input
        out_lo = F.blend(p_in, p_retr, s, sharpness=10.0, c=0.0, d=-50.0)
        np.testing.assert_allclose(out_lo, p_in, atol=1e-6)

    def test_blend_permutation_invariant(self):
        rng = np.random.default_rng(4)
        p_in = rng.normal(size=6)
        p_retr = rng.normal(size=(4, 6))
        s = rng.normal(size=4)
        base = F.blend(p_in, p_retr, s, 10.0, 1.0, 0.0)
        perm = rng.permutation(4)
        out = F.blend(p_in, p_retr[perm], s[perm], 10.0, 1.0, 0.0)
        np.testing.assert_allclose(out, base, atol=1e-6)

    def test_empty_retrievals_raise(self):
        with pytest.raises(ValueError):
            F.attention_scores(np.ones(4), np.zeros((0, 4)))

    def test_sharpness_monotone_max_weight(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = rng.normal(size=4)
            prev = 0.0
            for C in (1.0, 10.0, 100.0):
                mx = F.attention_weights(s, C).max()
                assert mx >= prev - 1e-12
                prev = mx


class TestRefineForward:
    def make_batch(self, cfg, nb=2, seed=0):
        rng = np.random.default_rng(seed)
        s = cfg.layout.scene_dim
        inputs = rng.random((nb, s, s, s)).astype(np.float32)
        gts = rng.random((nb, s, s, s)).astype(np.float32)
        approx = rng.random((nb, cfg.k, s, s, s)).astype(np.float32)
        return inputs, gts, approx

    def test_output_shape_and_range(self):
        cfg = tiny_config()
        model = F.FusionModel(cfg, seed=1)
        inputs, _, approx = self.make_batch(cfg)
        with T.no_grad():
            out, trace, _ = model.refine_batch(inputs, approx)
        assert out.shape == (2, 1, 8, 8, 8)
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_trace_invariants(self):
        cfg = tiny_config(k=3)
        model = F.FusionModel(cfg, seed=2)
        inputs, _, approx = self.make_batch(cfg)
        with T.no_grad():
            _, trace, _ = model.refine_batch(inputs, approx)
        np.testing.assert_allclose(trace.weights.sum(axis=1), 1.0, atol=1e-6)
        assert (trace.beta > 0).all() and (trace.beta < 1).all()
        assert (trace.weights >= 0).all()

    def test_retrieval_permutation_leaves_output(self):
        cfg = tiny_config(k=3)
        model = F.FusionModel(cfg, seed=3)
        inputs, _, approx = self.make_batch(cfg)
        with T.no_grad():
            base, _, _ = model.refine_batch(inputs, approx)
            perm, _, _ = model.refine_batch(inputs, approx[:, [2, 0, 1]])
        np.testing.assert_allclose(perm.data, base.data, atol=1e-5)

    def test_k_mismatch_raises(self):
        cfg = tiny_config(k=2)
        model = F.FusionModel(cfg, seed=0)
        inputs, _, approx = self.make_batch(cfg)
        with pytest.raises(ValueError):
            model.refine_batch(inputs, approx[:, :1])

    @pytest.mark.parametrize("mode", ["attention", "naive"])
    def test_bad_approx_shape_raises_up_front(self, mode):
        cfg = tiny_config(mode=mode, k=2)
        model = F.FusionModel(cfg, seed=0)
        inputs, _, approx = self.make_batch(cfg)

        def no_work(x):
            raise AssertionError("f_in ran before the shape check")
        model.f_in = no_work
        for bad in (approx[:1], approx[:, :, :4, :4, :4]):
            with pytest.raises(ValueError, match=r"\(N, k, S, S, S\) = \(2, 2, 8, 8, 8\)"):
                model.refine_batch(inputs, bad)

    def test_no_retrieval_ignores_approx(self):
        cfg = tiny_config(mode="no_retrieval")
        model = F.FusionModel(cfg, seed=4)
        inputs, _, _ = self.make_batch(cfg)
        with T.no_grad():
            out, trace, _ = model.refine_batch(inputs, None)
        assert trace is None
        assert out.shape == (2, 1, 8, 8, 8)

    def test_refine_single_window_grid(self):
        cfg = tiny_config(k=2)
        model = F.FusionModel(cfg, seed=5)
        rng = np.random.default_rng(6)
        win = ScalarGrid3(rng.random((8, 8, 8)).astype(np.float32), 0.5, (1, 2, 3))
        approx = [ApproxReconstruction(r + 1, win.with_values(
            rng.random((8, 8, 8)).astype(np.float32))) for r in range(2)]
        out, trace = model.refine(win, approx)
        assert out.dims == (8, 8, 8)
        assert out.voxel_size == 0.5
        np.testing.assert_allclose(trace.weights.sum(axis=1), 1.0, atol=1e-6)


class TestDedupExactness:
    """retrieval_cells runs f_retr once per distinct chunk; the result must
    equal running it per rank on every chunk."""

    def dup_approx(self, cfg, nb=3, distinct=5, seed=0):
        rng = np.random.default_rng(seed)
        c, n = cfg.layout.chunk_dim, cfg.layout.n
        pool = rng.random((distinct, c, c, c)).astype(np.float32)
        picks = rng.integers(0, distinct, size=(nb, cfg.k, n, n, n))
        return from_blocks(pool[picks])

    def reference_cells(self, model, approx):
        """Per-rank, non-dedup cells stacked rank-major like retrieval_cells."""
        nb = approx.shape[0]
        per_rank = [model.fold_chunk_cells(model.f_retr(T.Tensor(
            model.window_chunks(approx[:, r]).astype(model.dtype))), nb)
            for r in range(approx.shape[1])]
        return T.concat(per_rank, axis=0)

    def test_cells_bitwise_equal_reference(self):
        cfg = tiny_config(k=3)
        model = F.FusionModel(cfg, seed=12)
        approx = self.dup_approx(cfg)
        with T.no_grad():
            got = model.retrieval_cells(approx)
            want = self.reference_cells(model, approx)
        assert got.shape == (3 * 3, cfg.feat_channels, 4, 4, 4)
        np.testing.assert_array_equal(got.data, want.data)

    def test_f_retr_sees_only_distinct_chunks(self):
        cfg = tiny_config(k=3)
        model = F.FusionModel(cfg, seed=12)
        approx = self.dup_approx(cfg, distinct=5)
        seen = []
        f_retr = model.f_retr

        def counting(chunks):
            seen.append(chunks.data.reshape(chunks.shape[0], -1).copy())
            return f_retr(chunks)
        model.f_retr = counting
        with T.no_grad():
            model.retrieval_cells(approx)
        # 3 windows x 3 ranks x 8 slots = 72 chunks drawn from 5 payloads
        assert len(seen) == 1
        assert len(seen[0]) == len(np.unique(seen[0], axis=0)) == 5

    def test_gradients_match_reference(self):
        cfg = tiny_config(k=3)
        model = F.FusionModel(cfg, seed=13)
        approx = self.dup_approx(cfg, seed=1)
        proj = T.Tensor(np.random.default_rng(2).standard_normal(
            (9, cfg.feat_channels, 4, 4, 4)).astype(np.float32))

        def grads(cells):
            T.backward(T.tsum(T.mul(cells, proj)))
            out = {n: p.grad.copy() for n, p in model.store.params.items()
                   if p.grad is not None}
            model.store.zero_grad()
            return out

        got = grads(model.retrieval_cells(approx))
        want = grads(self.reference_cells(model, approx))
        assert set(got) == set(want) and any(n.startswith("f_retr.") for n in got)
        for name in want:
            # duplicates' gradients are summed first: only the summation order
            # differs, so float32 agrees to a few hundred ulps of the largest entry
            np.testing.assert_allclose(got[name], want[name], rtol=1e-5,
                                       atol=1e-5 * np.abs(want[name]).max(), err_msg=name)


class TestReconstructScene:
    def setup_db(self, hp, seed=0):
        """Untrained encoders over a small database with repeated chunks."""
        rng = np.random.default_rng(seed)
        enc = E.ChunkEncoderPair.create(2, 4, hp, seed=seed)
        chunks = rng.random((12, 4 ** 3)).astype(np.float32)
        chunks[6:] = chunks[:6]
        db = R.ChunkDatabase(chunk_dim=4, embed_dim=enc.embed_dim)
        db.add_entries(chunks, enc.encode_targets(chunks), ["t"] * 12)
        return db, enc

    def per_window_refine(self, model, db, enc, values):
        """Reference: pad to whole windows of side 4 (half of TINY's 8), refine
        each window alone at x2, place it by slicing, crop."""
        dims = values.shape
        padded = np.full([-(-d // 4) * 4 for d in dims], PAD_TDF_VALUE, np.float32)
        padded[:dims[0], :dims[1], :dims[2]] = values
        out = np.empty([2 * d for d in padded.shape], np.float32)
        for i, j, l in itertools.product(*(range(d // 4) for d in padded.shape)):
            win = ScalarGrid3(padded[4 * i:4 * i + 4, 4 * j:4 * j + 4, 4 * l:4 * l + 4], 0.5)
            approx = R.assemble_approximations(db, enc, win, TINY, model.config.k)
            up = win.values.repeat(2, 0).repeat(2, 1).repeat(2, 2)
            refined, _ = model.refine(ScalarGrid3(up, 0.25), approx)
            out[8 * i:8 * i + 8, 8 * j:8 * j + 8, 8 * l:8 * l + 8] = refined.values
        return out[:2 * dims[0], :2 * dims[1], :2 * dims[2]]

    def test_batched_scene_equals_per_window_refine(self):
        cfg = tiny_config(k=2)
        model = F.FusionModel(cfg, seed=14)
        db, enc = self.setup_db(HyperParams(embed_dim=8))
        rng = np.random.default_rng(3)
        # 2x1x1 windows of side 4 at half resolution
        scene = ScalarGrid3(rng.random((8, 4, 4)).astype(np.float32), 0.5, (1.0, 2.0, 3.0))
        got, _ = F.reconstruct_scene(model, db, enc, scene, TINY, sr_factor=2)
        assert got.dims == (16, 8, 8) and got.voxel_size == 0.25
        np.testing.assert_array_equal(got.values, self.per_window_refine(model, db, enc,
                                                                         scene.values))
        np.testing.assert_array_equal(got.origin, scene.origin)
        # a box scene: 6x7x3 pads to 2x2x1 windows of side 4, the output crops to 12x14x6
        box = rng.random((6, 7, 3)).astype(np.float32)
        got, _ = F.reconstruct_scene(model, db, enc, ScalarGrid3(box, 0.5), TINY, sr_factor=2)
        assert got.dims == (12, 14, 6)
        np.testing.assert_array_equal(got.values, self.per_window_refine(model, db, enc, box))

    def test_bad_input_raises_up_front(self):
        model = F.FusionModel(tiny_config(mode="no_retrieval"), seed=0)
        vals = np.full((8, 8, 8), 0.5, np.float32)
        vals[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            F.reconstruct_scene(model, None, None, ScalarGrid3(vals, 1.0), TINY)
        with pytest.raises(ValueError, match="sr_factor 3"):
            F.reconstruct_scene(model, None, None, ScalarGrid3.full((4, 4, 4), 0.5), TINY,
                                sr_factor=3)
        with pytest.raises(ValueError, match="needs db"):
            F.reconstruct_scene(F.FusionModel(tiny_config(), seed=0), None, None,
                                ScalarGrid3.full((8, 8, 8), 0.5), TINY)


class TestRefinementLoss:
    def test_zero_lambdas_pure_recon(self):
        cfg = tiny_config()
        model = F.FusionModel(cfg, seed=0)
        hp = HyperParams(lambda_retr=0.0, lambda_attn=0.0)
        rng = np.random.default_rng(0)
        gts = np.random.default_rng(1).random((1, 8, 8, 8)).astype(np.float32)
        inputs = np.random.default_rng(2).random((1, 8, 8, 8)).astype(np.float32)
        approx = np.random.default_rng(3).random((1, 2, 8, 8, 8)).astype(np.float32)
        pred, _, aux = model.refine_batch(inputs, approx)
        loss, comps = F.refinement_loss(model, pred, gts, aux, hp, rng)
        assert comps["total"] == comps["recon"]
        T.clear_graph(loss)

    def test_pred_equals_gt_zero_recon(self):
        cfg = tiny_config()
        model = F.FusionModel(cfg, seed=0)
        hp = HyperParams()
        rng = np.random.default_rng(0)
        gts = np.random.default_rng(1).random((1, 8, 8, 8)).astype(np.float32)
        inputs = np.random.default_rng(2).random((1, 8, 8, 8)).astype(np.float32)
        approx = np.random.default_rng(3).random((1, 2, 8, 8, 8)).astype(np.float32)
        _, _, aux = model.refine_batch(inputs, approx)
        pred = T.Tensor(gts.reshape(1, 1, 8, 8, 8))
        loss, comps = F.refinement_loss(model, pred, gts, aux, hp, rng)
        assert comps["recon"] == 0.0
        T.clear_graph(loss)

    def test_full_loss_matches_finite_differences(self):
        # f64 model, every loss path active, sampled parameter coordinates
        cfg = tiny_config(k=2)
        model = F.FusionModel(cfg, seed=7, dtype=np.float64)
        hp = HyperParams(lambda_retr=0.5, lambda_attn=0.05, tau_attention=0.05)
        rng_data = np.random.default_rng(8)
        inputs = rng_data.random((1, 8, 8, 8))
        gts = rng_data.random((1, 8, 8, 8))
        approx = rng_data.random((1, 2, 8, 8, 8))

        def loss_value():
            pred, _, aux = model.refine_batch(inputs, approx)
            loss, _ = F.refinement_loss(model, pred, gts, aux, hp,
                                        np.random.default_rng(99), n_attn_patches=8)
            return loss

        loss = loss_value()
        T.backward(loss)
        grads = {n: p.grad.copy() for n, p in model.store.params.items()}
        model.store.zero_grad()

        h = 1e-5
        coord_rng = np.random.default_rng(11)
        worst = 0.0
        for name, p in model.store.params.items():
            flat = p.data.reshape(-1)
            n_check = min(3, flat.size)
            for c in coord_rng.choice(flat.size, size=n_check, replace=False):
                orig = flat[c]
                flat[c] = orig + h
                with T.no_grad():
                    fp = loss_value().item()
                flat[c] = orig - h
                with T.no_grad():
                    fm = loss_value().item()
                flat[c] = orig
                numeric = (fp - fm) / (2 * h)
                analytic = grads[name].reshape(-1)[c]
                worst = max(worst, abs(analytic - numeric) / max(1.0, abs(numeric)))
        assert worst < 1e-4, worst


class TestTraining:
    def test_loss_decreases_tiny_task(self):
        cfg = tiny_config(k=2)
        hp = HyperParams(batch_refine=4)
        rng = np.random.default_rng(0)
        records = []
        for _ in range(6):
            gt = (rng.random((8, 8, 8)) > 0.7).astype(np.float32)
            records.append(F.RefineRecord(
                input_up=gt.copy(), gt=gt,
                approx=np.stack([gt, rng.random((8, 8, 8)).astype(np.float32)])))
        model, log = F.train_refinement(records, cfg, hp, seed=1, iters=60, lr=1e-3,
                                        log_every=10)
        assert log[-1][1] < log[0][1]

    def test_missing_cache_raises(self):
        cfg = tiny_config(k=2)
        records = [F.RefineRecord(input_up=np.zeros((8, 8, 8), np.float32),
                                  gt=np.zeros((8, 8, 8), np.float32), approx=None)]
        with pytest.raises(ValueError):
            F.train_refinement(records, cfg, HyperParams(), iters=1)

    def test_no_retrieval_trains_without_cache(self):
        cfg = tiny_config(mode="no_retrieval")
        rng = np.random.default_rng(2)
        records = [F.RefineRecord(input_up=rng.random((8, 8, 8)).astype(np.float32),
                                  gt=rng.random((8, 8, 8)).astype(np.float32))
                   for _ in range(3)]
        model, log = F.train_refinement(records, cfg, HyperParams(batch_refine=2),
                                        seed=0, iters=5, lr=1e-3)
        assert len(log) >= 1

    def test_deterministic_training(self):
        cfg = tiny_config(k=2)
        hp = HyperParams(batch_refine=2)
        rng = np.random.default_rng(3)
        records = [F.RefineRecord(input_up=rng.random((8, 8, 8)).astype(np.float32),
                                  gt=rng.random((8, 8, 8)).astype(np.float32),
                                  approx=rng.random((2, 8, 8, 8)).astype(np.float32))
                   for _ in range(4)]
        m1, _ = F.train_refinement(records, cfg, hp, seed=5, iters=8, lr=1e-3)
        m2, _ = F.train_refinement(records, cfg, hp, seed=5, iters=8, lr=1e-3)
        for name in m1.store.params:
            np.testing.assert_array_equal(m1.store.params[name].data,
                                          m2.store.params[name].data)

    def test_checkpoint_roundtrip(self, tmp_path):
        cfg = tiny_config(k=2)
        model = F.FusionModel(cfg, seed=9)
        path = tmp_path / "fusion.rfc1"
        model.save(path)
        back = F.FusionModel.load(path, cfg)
        rng = np.random.default_rng(1)
        inputs = rng.random((1, 8, 8, 8)).astype(np.float32)
        approx = rng.random((1, 2, 8, 8, 8)).astype(np.float32)
        with T.no_grad():
            a, _, _ = model.refine_batch(inputs, approx)
            b, _, _ = back.refine_batch(inputs, approx)
        np.testing.assert_array_equal(a.data, b.data)
