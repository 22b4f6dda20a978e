import numpy as np
import pytest

from retrivox import tensor as T
from retrivox.nn import Conv3, Dense, TConv3


def rnd(rng, *shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape)


def scalarize(t, rng):
    """Project any tensor to a scalar with fixed random weights."""
    w = T.Tensor(rng.standard_normal(t.shape))
    return T.tsum(T.mul(t, w))


class TestForwardValues:
    def test_l2_normalize_three_four(self):
        v = T.Tensor(np.array([3.0, 4.0]))
        out = T.l2_normalize(v, axis=0)
        np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-12)

    def test_softmax_equal_scores_quarter(self):
        s = T.Tensor(np.zeros((1, 4)))
        w = T.softmax(s, axis=1, scale=10.0)
        np.testing.assert_allclose(w.data, 0.25, atol=1e-12)

    def test_softmax_empty_axis_raises(self):
        with pytest.raises(ValueError):
            T.softmax(T.Tensor(np.zeros((2, 0))), axis=1)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            T.add(T.Tensor(np.zeros(3)), T.Tensor(np.zeros(4)))
        with pytest.raises(ValueError):
            T.mul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 2))))

    def test_conv3_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        x = rnd(rng, 2, 3, 5, 5, 5)
        w = rnd(rng, 4, 3, 3, 3, 3)
        out = T.conv3(T.Tensor(x), T.Tensor(w), stride=2, pad=1).data
        # direct six-fold loop oracle at one output position
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
        expect = np.zeros(4)
        for o in range(4):
            expect[o] = np.sum(w[o] * xp[1, :, 2:5, 0:3, 4:7])
        np.testing.assert_allclose(out[1, :, 1, 0, 2], expect, rtol=1e-10)

    def test_upsample_values(self):
        x = np.arange(8, dtype=np.float64).reshape(1, 1, 2, 2, 2)
        up = T.nearest_upsample3(T.Tensor(x), 2).data
        assert up.shape == (1, 1, 4, 4, 4)
        assert up[0, 0, 0, 0, 0] == x[0, 0, 0, 0, 0]
        assert up[0, 0, 3, 3, 3] == x[0, 0, 1, 1, 1]


def direct_conv3(x, w, stride, pad):
    """Direct-sum oracle: every output voxel as one sum over its k^3 window."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0)) + ((pad, pad),) * 3)
    od = [(d + 2 * pad - k) // stride + 1 for d in x.shape[2:]]
    out = np.zeros((x.shape[0], w.shape[0], *od))
    for i, j, l in np.ndindex(*od):
        win = xp[:, :, i * stride:i * stride + k, j * stride:j * stride + k, l * stride:l * stride + k]
        out[:, :, i, j, l] = np.einsum("ncabd,ocabd->no", win, w)
    return out


class TestConvCore:
    def test_bad_stride_pad_and_bias_raise(self):
        x = T.Tensor(np.zeros((1, 2, 4, 4, 4)))
        w = T.Tensor(np.zeros((2, 2, 3, 3, 3)))
        for op in (T.conv3, T.transposed_conv3):
            with pytest.raises(ValueError, match="stride"):
                op(x, w, stride=0)
            with pytest.raises(ValueError, match="pad"):
                op(x, w, pad=-1)
            with pytest.raises(ValueError, match="bias"):
                op(x, w, T.Tensor(np.zeros(3)))

    def test_sample_bitwise_equal_alone_and_in_batch(self):
        rng = np.random.default_rng(8)
        x = rnd(rng, 5, 16, 4, 4, 4).astype(np.float32)
        w = rnd(rng, 32, 16, 3, 3, 3).astype(np.float32)
        wt = rnd(rng, 16, 8, 2, 2, 2).astype(np.float32)
        with T.no_grad():
            for op, wgt, kw in ((T.conv3, w, dict(stride=2, pad=1)),
                                (T.transposed_conv3, wt, dict(stride=2, pad=0))):
                batch = op(T.Tensor(x), T.Tensor(wgt), **kw).data
                alone = op(T.Tensor(x[3:4]), T.Tensor(wgt), **kw).data
                assert np.array_equal(alone[0], batch[3])

    def test_multi_block_conv_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        x = rnd(rng, 1, 8, 32, 32, 32).astype(np.float32)
        w = rnd(rng, 1, 8, 3, 3, 3).astype(np.float32)
        assert len(T._plane_blocks(8 * 27, (32, 32, 32), 4)) > 1
        out = T.conv3(T.Tensor(x), T.Tensor(w), stride=1, pad=1).data
        np.testing.assert_allclose(out, direct_conv3(x.astype(np.float64), w, 1, 1),
                                   rtol=1e-4, atol=1e-4)

    def test_multi_block_gradcheck(self, monkeypatch):
        monkeypatch.setattr(T, "_COL_BLOCK_BYTES", 1)
        rng = np.random.default_rng(5)

        def wrap(f):
            return lambda *ts: scalarize(f(*ts), np.random.default_rng(99))
        cases = [(lambda x, w, b: T.conv3(x, w, b, stride=2, pad=1),
                  [rnd(rng, 2, 2, 5, 4, 3), rnd(rng, 3, 2, 3, 3, 3), rnd(rng, 3)]),
                 (lambda x, w, b: T.transposed_conv3(x, w, b, stride=2, pad=1),
                  [rnd(rng, 2, 3, 3, 2, 3), rnd(rng, 3, 2, 3, 3, 3), rnd(rng, 2)])]
        for fn, inputs in cases:
            assert T.gradcheck(wrap(fn), inputs) < 1e-4

    def test_float64_stays_float64(self):
        rng = np.random.default_rng(6)
        x = T.Tensor(rnd(rng, 2, 2, 4, 4, 4), requires_grad=True)
        w = T.Tensor(rnd(rng, 2, 2, 3, 3, 3), requires_grad=True)
        for op in (T.conv3, T.transposed_conv3):
            out = op(x, w, stride=2, pad=1)
            T.backward(T.tsum(out))
            assert out.dtype == x.grad.dtype == w.grad.dtype == np.float64
            x.grad = w.grad = None


class TestBackward:
    def test_sum_gradient_ones(self):
        w = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(T.tsum(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_dot_gradient_two_w(self):
        w = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        T.backward(T.dot(w, w))
        np.testing.assert_allclose(w.grad, 2 * w.data)

    def test_fanout_accumulates(self):
        x = T.Tensor(np.array([2.0]), requires_grad=True)
        y = T.add(T.mul(x, 3.0), T.mul(x, x))  # 3x + x^2 -> 3 + 2x = 7
        T.backward(T.tsum(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_non_scalar_loss_raises(self):
        x = T.Tensor(np.zeros(3), requires_grad=True)
        out = T.mul(x, 2.0)
        with pytest.raises(ValueError):
            T.backward(out)
        T.clear_graph(out)

    def test_tape_clears_to_zero(self):
        base = T.live_tape_nodes()
        x = T.Tensor(np.ones(4), requires_grad=True)
        loss = T.mean(T.relu(T.mul(x, 2.0)))
        assert T.live_tape_nodes() > base
        T.backward(loss)
        assert T.live_tape_nodes() == base

    def test_clear_graph_without_backward(self):
        base = T.live_tape_nodes()
        x = T.Tensor(np.ones(4), requires_grad=True)
        out = T.sigmoid(T.mul(x, 0.5))
        assert T.live_tape_nodes() > base
        T.clear_graph(out)
        assert T.live_tape_nodes() == base

    def test_no_grad_creates_no_nodes(self):
        base = T.live_tape_nodes()
        x = T.Tensor(np.ones(4), requires_grad=True)
        with T.no_grad():
            T.sigmoid(T.mul(x, 0.5))
        assert T.live_tape_nodes() == base

    def test_three_layer_net_matches_fd(self):
        rng = np.random.default_rng(11)
        store = T.ParamStore()
        l1 = Dense(store, "l1", 5, 7, rng=rng, dtype=np.float64)
        l2 = Dense(store, "l2", 7, 6, rng=rng, dtype=np.float64)
        l3 = Dense(store, "l3", 6, 1, rng=rng, dtype=np.float64)
        x0 = rnd(rng, 3, 5)

        def net(x, w1, b1, w2, b2, w3, b3):
            h = T.leaky_relu(T.dense(x, w1, b1))
            h = T.sigmoid(T.dense(h, w2, b2))
            return T.mean(T.dense(h, w3, b3))

        err = T.gradcheck(net, [x0, l1.w.data, l1.b.data, l2.w.data, l2.b.data,
                                l3.w.data, l3.b.data], seed=5)
        assert err < 1e-4


# registry used both here and by the acceptance suite: one entry per op,
# (name, builder) where builder(rng) -> (fn, list_of_input_arrays)
def op_cases(rng):
    def away_from_zero(*shape):
        x = rng.uniform(0.2, 1.0, size=shape)
        return x * np.where(rng.random(shape) < 0.5, -1.0, 1.0)

    sc = np.random.default_rng(99)

    def wrap(f):
        return lambda *ts: scalarize(f(*ts), np.random.default_rng(99))

    cases = [
        ("add", lambda: (wrap(lambda a, b: T.add(a, b)), [rnd(rng, 3, 4), rnd(rng, 3, 4)])),
        ("add_scalar", lambda: (wrap(lambda a: T.add(a, 1.5)), [rnd(rng, 2, 5)])),
        ("sub", lambda: (wrap(lambda a, b: T.sub(a, b)), [rnd(rng, 4, 2), rnd(rng, 4, 2)])),
        ("mul", lambda: (wrap(lambda a, b: T.mul(a, b)), [rnd(rng, 3, 3), rnd(rng, 3, 3)])),
        ("mul_scalar", lambda: (wrap(lambda a: T.mul(a, -2.0)), [rnd(rng, 6)])),
        ("matmul", lambda: (wrap(lambda a, b: T.matmul(a, b)), [rnd(rng, 3, 4), rnd(rng, 4, 2)])),
        ("dense", lambda: (wrap(lambda x, w, b: T.dense(x, w, b)),
                           [rnd(rng, 4, 3), rnd(rng, 3, 5), rnd(rng, 5)])),
        ("conv3", lambda: (wrap(lambda x, w, b: T.conv3(x, w, b, stride=2, pad=1)),
                           [rnd(rng, 2, 2, 5, 5, 5), rnd(rng, 3, 2, 3, 3, 3), rnd(rng, 3)])),
        ("conv3_s1", lambda: (wrap(lambda x, w: T.conv3(x, w, stride=1, pad=0)),
                              [rnd(rng, 1, 3, 4, 4, 4), rnd(rng, 2, 3, 3, 3, 3)])),
        ("transposed_conv3", lambda: (wrap(lambda x, w, b: T.transposed_conv3(x, w, b, stride=2, pad=1)),
                                      [rnd(rng, 2, 3, 3, 3, 3), rnd(rng, 3, 2, 4, 4, 4), rnd(rng, 2)])),
        ("transposed_conv3_k2s2", lambda: (wrap(lambda x, w, b: T.transposed_conv3(x, w, b, stride=2, pad=0)),
                                           [rnd(rng, 2, 3, 3, 3, 3), rnd(rng, 3, 2, 2, 2, 2), rnd(rng, 2)])),
        ("relu", lambda: (wrap(T.relu), [away_from_zero(4, 4)])),
        ("leaky_relu", lambda: (wrap(T.leaky_relu), [away_from_zero(5, 3)])),
        ("sigmoid", lambda: (wrap(T.sigmoid), [rnd(rng, 4, 4)])),
        ("softmax", lambda: (wrap(lambda a: T.softmax(a, axis=1, scale=3.0)), [rnd(rng, 4, 5)])),
        ("l2_normalize", lambda: (wrap(lambda a: T.l2_normalize(a, axis=1)),
                                  [rnd(rng, 3, 6, lo=0.3, hi=1.0)])),
        ("dot", lambda: (lambda a, b: T.dot(a, b), [rnd(rng, 7), rnd(rng, 7)])),
        ("concat", lambda: (wrap(lambda a, b: T.concat([a, b], axis=1)),
                            [rnd(rng, 2, 3), rnd(rng, 2, 4)])),
        ("mean", lambda: (lambda a: T.mean(a), [rnd(rng, 3, 5)])),
        ("tsum_axis", lambda: (wrap(lambda a: T.tsum(a, axis=1)), [rnd(rng, 3, 4)])),
        ("abs_sum", lambda: (lambda a: T.abs_sum(a), [away_from_zero(4, 4)])),
        ("nearest_upsample3", lambda: (wrap(lambda a: T.nearest_upsample3(a, 2)),
                                       [rnd(rng, 1, 2, 3, 3, 3)])),
        ("max", lambda: (wrap(lambda a: T.tmax(a, axis=1)),
                         [rnd(rng, 4, 6) + np.arange(6) * 3.0])),
        ("log", lambda: (wrap(T.log), [rnd(rng, 3, 3, lo=0.5, hi=2.0)])),
        ("exp", lambda: (wrap(T.exp), [rnd(rng, 3, 3)])),
        ("gather_rows", lambda: (wrap(lambda a: T.gather_rows(a, np.array([0, 2, 2, 1]))),
                                 [rnd(rng, 4, 3)])),
        ("reshape", lambda: (wrap(lambda a: T.reshape(a, (6, 2))), [rnd(rng, 3, 4)])),
        ("transpose", lambda: (wrap(lambda a: T.transpose(a, (1, 0, 2))), [rnd(rng, 2, 3, 4)])),
        ("broadcast_to", lambda: (wrap(lambda a: T.broadcast_to(a, (4, 3, 5))),
                                  [rnd(rng, 3, 1)])),
        ("rearrange", lambda: (wrap(lambda a: T.rearrange(a, np.flipud, np.flipud)),
                               [rnd(rng, 4, 3)])),
    ]
    return cases


ALL_OP_NAMES = [name for name, _ in op_cases(np.random.default_rng(0))]


@pytest.mark.parametrize("name", ALL_OP_NAMES)
def test_op_gradcheck(name):
    for trial in range(5):
        rng = np.random.default_rng(1000 + 17 * trial)
        builder = dict(op_cases(rng))[name]
        fn, inputs = builder()
        err = T.gradcheck(fn, inputs, seed=trial)
        assert err < 1e-4, f"{name} trial {trial}: rel err {err}"


@pytest.mark.parametrize("name", ALL_OP_NAMES)
def test_op_arms_tape_only_when_needed(name):
    """No node under no_grad or without a grad-requiring input; backward
    releases every node it armed."""
    fn, inputs = dict(op_cases(np.random.default_rng(7)))[name]()
    base = T.live_tape_nodes()
    with T.no_grad():
        out = fn(*[T.Tensor(x, requires_grad=True) for x in inputs])
    assert T.live_tape_nodes() == base and not out.requires_grad
    out = fn(*[T.Tensor(x) for x in inputs])
    assert T.live_tape_nodes() == base and not out.requires_grad
    loss = fn(*[T.Tensor(x, requires_grad=True) for x in inputs])
    assert T.live_tape_nodes() > base and loss.requires_grad
    T.backward(loss)
    assert T.live_tape_nodes() == base


class TestAdam:
    def test_zero_gradient_no_motion(self):
        store = T.ParamStore()
        p = store.create("p", np.array([1.0, 2.0], dtype=np.float64))
        p.grad = np.zeros(2)
        before = p.data.copy()
        T.adam_step(store, lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_missing_grad_raises(self):
        store = T.ParamStore()
        store.create("p", np.zeros(2))
        with pytest.raises(ValueError):
            T.adam_step(store, lr=0.1)

    def test_first_step_closed_form(self):
        # constant grad g: mhat = g, vhat = g^2, delta = -lr * g / (|g| + eps)
        lr, eps, g = 1e-2, 1e-8, 0.37
        store = T.ParamStore()
        p = store.create("p", np.array([0.5], dtype=np.float64))
        p.grad = np.array([g])
        T.adam_step(store, lr=lr, eps=eps)
        expected = 0.5 - lr * g / (abs(g) + eps)
        np.testing.assert_allclose(p.data, [expected], atol=1e-8)

    def test_quadratic_bowl_monotone_descent(self):
        store = T.ParamStore()
        p = store.create("p", np.array([3.0, -2.0], dtype=np.float64))
        target = np.array([1.0, 1.0])
        prev = np.inf
        for _ in range(100):
            diff = T.sub(p, T.Tensor(target))
            loss = T.tsum(T.mul(diff, diff))
            val = loss.item()
            assert val <= prev + 1e-12
            prev = val
            T.backward(loss)
            T.adam_step(store, lr=0.05)


class TestCheckpoint:
    def test_roundtrip_bits(self, tmp_path):
        rng = np.random.default_rng(5)
        store = T.ParamStore()
        a = store.create("enc.w", rng.standard_normal((3, 4)).astype(np.float32))
        b = store.create("enc.b", rng.standard_normal(4).astype(np.float32))
        a.grad = np.ones_like(a.data)
        b.grad = np.ones_like(b.data)
        T.adam_step(store, lr=1e-3)
        path = tmp_path / "model.rfc1"
        T.save_checkpoint(store, path)

        store2 = T.ParamStore()
        store2.create("enc.w", np.zeros((3, 4), dtype=np.float32))
        store2.create("enc.b", np.zeros(4, dtype=np.float32))
        T.load_checkpoint(store2, path)
        assert store2.step == 1
        np.testing.assert_array_equal(store2.params["enc.w"].data, a.data)
        np.testing.assert_array_equal(store2.m["enc.b"], store.m["enc.b"])
        np.testing.assert_array_equal(store2.v["enc.w"], store.v["enc.w"])

    def test_shape_mismatch_raises(self, tmp_path):
        store = T.ParamStore()
        store.create("w", np.zeros((2, 2), dtype=np.float32))
        path = tmp_path / "c.rfc1"
        T.save_checkpoint(store, path)
        other = T.ParamStore()
        other.create("w", np.zeros((3, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            T.load_checkpoint(other, path)

    def test_deterministic_bytes(self, tmp_path):
        store = T.ParamStore()
        store.create("w", np.linspace(0, 1, 6, dtype=np.float32).reshape(2, 3))
        p1, p2 = tmp_path / "a.rfc1", tmp_path / "b.rfc1"
        T.save_checkpoint(store, p1)
        T.save_checkpoint(store, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_or_overlong_file_raises_and_leaves_store(self, tmp_path):
        store = T.ParamStore()
        store.create("a", np.arange(6, dtype=np.float32).reshape(2, 3))
        store.create("b", np.ones(4, dtype=np.float32))
        path = tmp_path / "c.rfc1"
        T.save_checkpoint(store, path)
        data = path.read_bytes()
        target = T.ParamStore()
        target.create("a", np.zeros((2, 3), dtype=np.float32))
        target.create("b", np.zeros(4, dtype=np.float32))
        for bad in (data[:10], data[:-1], data[:len(data) // 2], data + b"\0"):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="c.rfc1"):
                T.load_checkpoint(target, path)
            assert not target.params["a"].data.any() and target.step == 0

    def test_failed_save_leaves_earlier_file(self, tmp_path):
        store = T.ParamStore()
        store.create("w", np.ones(3, dtype=np.float32))
        path = tmp_path / "c.rfc1"
        T.save_checkpoint(store, path)
        before = path.read_bytes()
        store.m["w"] = "moments"  # fails to serialize after the first blob is written
        with pytest.raises(ValueError):
            T.save_checkpoint(store, path)
        assert path.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["c.rfc1"]


class TestDeterminism:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(21)
        x = rnd(rng, 2, 3, 8, 8, 8).astype(np.float32)
        w = rnd(rng, 4, 3, 3, 3, 3).astype(np.float32)
        a = T.conv3(T.Tensor(x), T.Tensor(w), stride=1, pad=1).data
        b = T.conv3(T.Tensor(x), T.Tensor(w), stride=1, pad=1).data
        assert np.array_equal(a, b)
