import numpy as np
import pytest

from vidact import tensor_ops as T
from vidact.tensor_ops import (AdamState, ConvParams, PReLUParams, Tensor,
                               adam_step, conv_backward, conv_forward,
                               linear_backward, linear_forward,
                               maxpool_backward, maxpool_forward,
                               prelu_backward, prelu_forward,
                               softmax_cross_entropy)

from conftest import (brute_force_conv3d, central_difference, grad_check,
                      max_rel_err)


def make_conv(kernel, bias=None, stride=(1, 1, 1), padding=(0, 0, 0)):
    kernel = np.asarray(kernel, dtype=np.float64)
    if bias is None:
        bias = np.zeros(kernel.shape[0])
    return ConvParams(Tensor(kernel), Tensor(np.asarray(bias, dtype=np.float64)),
                      stride, padding)


class TestConvForward:
    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 1, 3, 4, 5))
        params = make_conv(np.ones((1, 1, 1, 1, 1)))
        np.testing.assert_array_equal(conv_forward(x, params), x)

    def test_all_ones_sums_window(self):
        x = np.ones((1, 1, 3, 3, 3))
        params = make_conv(np.ones((1, 1, 3, 3, 3)))
        out = conv_forward(x, params)
        assert out.shape == (1, 1, 1, 1, 1)
        assert out[0, 0, 0, 0, 0] == 27.0

    def test_matches_brute_force_small(self, rng):
        x = rng.standard_normal((2, 2, 4, 4, 4))
        params = make_conv(rng.standard_normal((3, 2, 3, 3, 3)),
                           rng.standard_normal(3), padding=(1, 1, 1))
        got = conv_forward(x, params)
        want = brute_force_conv3d(x, params.kernel.data, params.bias.data,
                                  params.stride, params.padding)
        np.testing.assert_allclose(got, want, rtol=1e-6)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_brute_force_random_cases(self, seed):
        # >= 100 seeded random geometries, 2D (kd=1) and 3D mixed.
        r = np.random.default_rng(seed)
        ci = int(r.integers(1, 3))
        co = int(r.integers(1, 4))
        kd = 1 if seed % 3 == 0 else int(r.integers(1, 3))
        kh, kw = int(r.integers(1, 4)), int(r.integers(1, 4))
        d = 1 if kd == 1 and seed % 6 == 0 else int(r.integers(kd, kd + 3))
        h = int(r.integers(kh, kh + 4))
        w = int(r.integers(kw, kw + 4))
        stride = tuple(int(r.integers(1, 3)) for _ in range(3))
        padding = tuple(int(r.integers(0, 2)) for _ in range(3))
        x = r.standard_normal((int(r.integers(1, 3)), ci, d, h, w))
        params = make_conv(r.standard_normal((co, ci, kd, kh, kw)),
                           r.standard_normal(co), stride, padding)
        got = conv_forward(x, params)
        want = brute_force_conv3d(x, params.kernel.data, params.bias.data,
                                  stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_channel_mismatch_raises(self, rng):
        x = rng.standard_normal((1, 2, 4, 4, 4))
        params = make_conv(rng.standard_normal((1, 3, 3, 3, 3)))
        with pytest.raises(T.DimensionError):
            conv_forward(x, params)

    def test_kernel_larger_than_input_raises(self, rng):
        x = rng.standard_normal((1, 1, 2, 2, 2))
        params = make_conv(rng.standard_normal((1, 1, 3, 3, 3)))
        with pytest.raises(T.DimensionError):
            conv_forward(x, params)

    def test_non_finite_input_raises(self):
        x = np.full((1, 1, 3, 3, 3), np.nan)
        params = make_conv(np.ones((1, 1, 1, 1, 1)))
        with pytest.raises(T.NumericError):
            conv_forward(x, params)

    def test_2d_input_round_trips_rank(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        params = make_conv(rng.standard_normal((4, 3, 1, 3, 3)),
                           padding=(0, 1, 1))
        out = conv_forward(x, params)
        assert out.shape == (2, 4, 8, 8)


class TestConvBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        x = rng.standard_normal((1, 2, 3, 4, 4))
        params = make_conv(rng.standard_normal((2, 2, 2, 2, 2)))
        out = conv_forward(x, params)
        dx, dw, db = conv_backward(x, params, np.zeros_like(out))
        assert not dx.any() and not dw.any() and not db.any()

    def test_single_one_upstream_stamps_kernel(self, rng):
        x = rng.standard_normal((1, 1, 3, 5, 5))
        kern = rng.standard_normal((1, 1, 3, 3, 3))
        params = make_conv(kern)
        out = conv_forward(x, params)
        up = np.zeros_like(out)
        up[0, 0, 0, 1, 2] = 1.0
        dx, _, _ = conv_backward(x, params, up)
        expected = np.zeros_like(x)
        expected[0, 0, 0:3, 1:4, 2:5] = kern[0, 0]
        np.testing.assert_allclose(dx, expected)

    def test_matches_finite_differences(self, rng):
        x = rng.standard_normal((1, 2, 3, 4, 4))
        kern = rng.standard_normal((2, 2, 2, 3, 3))
        bias = rng.standard_normal(2)
        params = make_conv(kern, bias, stride=(1, 2, 1), padding=(0, 1, 1))
        out = conv_forward(x, params)
        up = np.ones_like(out)
        dx, dw, db = conv_backward(x, params, up)

        def loss_x(xv):
            return float(np.sum(conv_forward(xv, params)))

        def loss_w(wv):
            p = make_conv(wv, bias, params.stride, params.padding)
            return float(np.sum(conv_forward(x, p)))

        def loss_b(bv):
            p = make_conv(kern, bv, params.stride, params.padding)
            return float(np.sum(conv_forward(x, p)))

        assert max_rel_err(dx, central_difference(loss_x, x)) < 1e-5
        assert max_rel_err(dw, central_difference(loss_w, kern)) < 1e-5
        assert max_rel_err(db, central_difference(loss_b, bias)) < 1e-5

    def test_upstream_shape_mismatch_raises(self, rng):
        x = rng.standard_normal((1, 1, 3, 3, 3))
        params = make_conv(rng.standard_normal((1, 1, 3, 3, 3)))
        with pytest.raises(T.DimensionError):
            conv_backward(x, params, np.zeros((1, 1, 2, 2, 2)))


# Tile-boundary cases: (x shape, kernel shape, stride, padding). The last one
# pads W wider than its kernel, so some upstream positions reach only padding.
TILED_GEOMETRIES = {
    "3d_same": ((3, 2, 3, 5, 4), (3, 2, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
    "2d_rank4": ((3, 2, 5, 6), (3, 2, 1, 3, 3), (1, 1, 1), (0, 1, 1)),
    "stride2": ((3, 2, 5, 9, 6), (2, 2, 3, 3, 2), (2, 2, 2), (1, 1, 2)),
}


@pytest.fixture(scope="module", params=sorted(TILED_GEOMETRIES))
def tiled_case(request):
    """A geometry with its float64 oracles: the brute-force forward and the
    central-difference gradients of sum(conv_forward * upstream)."""
    xshape, kshape, stride, padding = TILED_GEOMETRIES[request.param]
    r = np.random.default_rng(7)
    x = r.standard_normal(xshape)
    kern = r.standard_normal(kshape)
    bias = r.standard_normal(kshape[0])
    x5 = x if x.ndim == 5 else x[:, :, None]
    out = brute_force_conv3d(x5, kern, bias, stride, padding)
    oshape = out.shape[2:]
    if x.ndim == 4:
        out = out[:, :, 0]
    up = r.standard_normal(out.shape)

    def loss(xv, kv, bv):
        return float(np.sum(conv_forward(xv, make_conv(kv, bv, stride,
                                                       padding)) * up))

    return {
        "x": x, "kern": kern, "bias": bias, "stride": stride,
        "padding": padding, "up": up, "out": out, "oshape": oshape,
        "dx": central_difference(lambda v: loss(v, kern, bias), x),
        "dw": central_difference(lambda v: loss(x, v, bias), kern),
        "db": central_difference(lambda v: loss(x, kern, v), bias),
    }


class TestConvTiles:
    TOL = {np.float64: 1e-6, np.float32: 1e-4}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("level", ["samples", "planes", "rows"])
    def test_tiled_conv_matches_oracles(self, tiled_case, monkeypatch, dtype,
                                        level):
        # Tiles of two samples, two depth planes or two output rows: batch 3
        # and 3 planes / 5 rows leave a ragged last tile.
        c = tiled_case
        n, co = c["x"].shape[0], c["kern"].shape[0]
        k = int(np.prod(c["kern"].shape[1:]))
        od, oh, ow = c["oshape"]
        per_step = {"samples": od * oh * ow * k, "planes": oh * ow * k,
                    "rows": ow * k}[level]
        monkeypatch.setattr(T, "_TILE_ELEMS", 2 * per_step)
        assert len(list(T._tiles(n, c["oshape"], k))) > 1

        params = ConvParams(Tensor(c["kern"].astype(dtype)),
                            Tensor(c["bias"].astype(dtype)),
                            c["stride"], c["padding"])
        x = c["x"].astype(dtype)
        out = conv_forward(x, params)
        dx, dw, db = conv_backward(x, params, c["up"].astype(dtype))
        tol = self.TOL[dtype]
        assert out.dtype == dx.dtype == dtype
        assert out.shape == c["out"].shape and dx.shape == x.shape
        assert dw.shape == (co,) + c["kern"].shape[1:]
        assert max_rel_err(out, c["out"]) <= tol
        assert max_rel_err(dx, c["dx"]) <= tol
        assert max_rel_err(dw, c["dw"]) <= tol
        assert max_rel_err(db, c["db"]) <= tol

    def test_columns_stay_within_tile_budget(self, rng, monkeypatch):
        # A 4->4-channel layer at the training gate's largest extent: every
        # pass (forward, dW, dX) builds each column exactly once, one bounded
        # tile at a time.
        sizes = []
        im2col = T._im2col

        def recording(*args):
            cols = im2col(*args)
            sizes.append(cols.size)
            return cols

        monkeypatch.setattr(T, "_im2col", recording)
        x = rng.standard_normal((64, 4, 8, 32, 32), dtype=np.float32)
        params = ConvParams(
            Tensor(rng.standard_normal((4, 4, 3, 3, 3)).astype(np.float32)),
            Tensor(np.zeros(4, dtype=np.float32)), (1, 1, 1), (1, 1, 1))
        out = conv_forward(x, params)
        conv_backward(x, params, np.ones_like(out))
        assert max(sizes) <= T._TILE_ELEMS
        assert sum(sizes) == 3 * 64 * (4 * 27) * (8 * 32 * 32)


class TestMaxPool:
    def test_constant_input(self):
        x = np.full((1, 1, 4, 4, 4), 7.5)
        out, _ = maxpool_forward(x, (2, 2, 2))
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2, 2), 7.5))

    def test_2x2_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out, _ = maxpool_forward(x, (2, 2))
        assert out.reshape(()) == 4.0

    def test_ties_pick_first_flat_index(self):
        x = np.zeros((1, 1, 1, 2, 2))
        _, argmax = maxpool_forward(x, (1, 2, 2))
        assert argmax[0, 0, 0, 0, 0] == 0

    def test_window_too_large_raises(self):
        with pytest.raises(T.DimensionError):
            maxpool_forward(np.zeros((1, 1, 2, 2, 2)), (3, 3, 3))

    def test_backward_matches_finite_differences(self, rng):
        # Spaced values avoid ties, where max is not differentiable.
        x = rng.permutation(np.arange(64, dtype=np.float64)).reshape(1, 1, 4, 4, 4)

        def loss(xv):
            out, _ = maxpool_forward(xv, (2, 2, 2))
            return float(np.sum(out))

        out, argmax = maxpool_forward(x, (2, 2, 2))
        dx = maxpool_backward(x.shape, argmax, np.ones_like(out))
        assert max_rel_err(dx, central_difference(loss, x)) < 1e-5

    def test_overlapping_stride(self, rng):
        x = rng.standard_normal((2, 3, 1, 5, 5))
        out, argmax = maxpool_forward(x, (1, 3, 3), (1, 1, 1))
        assert out.shape == (2, 3, 1, 3, 3)
        flat = x.reshape(2, 3, -1)
        recovered = np.take_along_axis(flat, argmax.reshape(2, 3, -1), axis=-1)
        np.testing.assert_array_equal(recovered.reshape(out.shape), out)


class TestPReLU:
    def params(self, a):
        return PReLUParams(Tensor(np.asarray(a, dtype=np.float64)))

    def test_positive_branch(self):
        x = np.array([[3.0]])
        assert prelu_forward(x, self.params([0.25]))[0, 0] == 3.0

    def test_negative_branch(self):
        x = np.array([[-2.0]])
        assert prelu_forward(x, self.params([0.25]))[0, 0] == -0.5

    def test_a_zero_is_relu(self, rng):
        x = rng.standard_normal((4, 3, 5, 5))
        out = prelu_forward(x, self.params(np.zeros(3)))
        np.testing.assert_array_equal(out, np.maximum(x, 0))

    def test_a_one_is_identity(self, rng):
        x = rng.standard_normal((4, 3, 5, 5))
        out = prelu_forward(x, self.params(np.ones(3)))
        np.testing.assert_array_equal(out, x)

    def test_backward_matches_finite_differences(self, rng):
        x = rng.standard_normal((4, 8))
        x[np.abs(x) < 1e-3] = 0.5   # keep away from the kink
        a = rng.uniform(0.1, 0.5, 8)

        dx, da = prelu_backward(x, self.params(a), np.ones_like(x))

        def loss_x(xv):
            return float(np.sum(prelu_forward(xv, self.params(a))))

        def loss_a(av):
            return float(np.sum(prelu_forward(x, self.params(av))))

        assert max_rel_err(dx, central_difference(loss_x, x)) < 1e-6
        assert max_rel_err(da, central_difference(loss_a, a)) < 1e-6

    def test_channel_mismatch_raises(self):
        with pytest.raises(T.DimensionError):
            prelu_forward(np.zeros((1, 4)), self.params([0.25]))


def where_prelu_forward(x, a):
    """The where form prelu_forward must match bit for bit."""
    av = a.reshape((1, -1) + (1,) * (x.ndim - 2))
    return np.where(x > 0, x, av * x)


def where_prelu_backward(x, a, upstream):
    av = a.reshape((1, -1) + (1,) * (x.ndim - 2))
    neg = x <= 0
    axes = (0,) + tuple(range(2, x.ndim))
    return (np.where(neg, av * upstream, upstream),
            np.sum(np.where(neg, x * upstream, 0.0), axis=axes))


class TestPReLUMatchesWhereForm:
    # Slopes: the gate's init, ReLU, a -0.0 slope, identity, negative, > 1.
    SLOPES = [0.25, 0.0, -0.0, 1.0, -0.5, 1.5, 3e-8]

    def case(self, rng, shape, x_dtype, a_dtype):
        n, c = shape[:2]
        a = np.resize(np.asarray(self.SLOPES), c).astype(a_dtype)
        x = rng.standard_normal(shape).astype(x_dtype)
        up = rng.standard_normal(shape).astype(x_dtype)
        flat_x, flat_up = x.reshape(-1), up.reshape(-1)
        picks = rng.choice(flat_x.size, size=flat_x.size // 5, replace=False)
        flat_x[picks[0::2]] = 0.0
        flat_x[picks[1::2]] = -0.0
        flat_up[rng.choice(flat_up.size, size=flat_up.size // 7)] = -0.0
        x[:, 0] = -np.abs(x[:, 0])             # an all-negative channel
        x[:, 1] = np.abs(x[:, 1]) + 0.5        # an all-positive channel ...
        up[:, 1] = -np.abs(up[:, 1])           # ... whose terms are all -0
        if c > 2:
            x[:, 2] = -0.0                     # an all -0.0 channel
            up[:, 2] = np.abs(up[:, 2])
        return x, a, up

    @pytest.mark.parametrize("x_dtype,a_dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64), (np.float64, np.float32)])
    @pytest.mark.parametrize("shape", [(5, 7), (3, 7, 2, 4, 4), (2, 3, 9),
                                       (1, 2, 1, 1, 1)])
    def test_forward_and_backward_bit_identical(self, rng, shape, x_dtype,
                                                a_dtype):
        x, a, up = self.case(rng, shape, x_dtype, a_dtype)
        params = PReLUParams(Tensor(a))
        out = prelu_forward(x, params)
        want = where_prelu_forward(x, a)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        dx, da = prelu_backward(x, params, up)
        want_dx, want_da = where_prelu_backward(x, a, up)
        assert dx.dtype == want_dx.dtype and dx.tobytes() == want_dx.tobytes()
        assert da.dtype == want_da.dtype and da.tobytes() == want_da.tobytes()

    def test_single_term_channel_sums(self):
        # One element per channel, so each slope gradient is one term: 0 from
        # x > 0 (upstream < 0), -0.0 * 3, +0.0 * 3 and an ordinary product.
        x = np.array([[2.0, -0.0, 0.0, -4.0]], dtype=np.float32)
        up = np.array([[-1.0, 3.0, 3.0, 0.5]], dtype=np.float32)
        a = np.full(4, 0.25, dtype=np.float32)
        _, da = prelu_backward(x, PReLUParams(Tensor(a)), up)
        assert da.tobytes() == where_prelu_backward(x, a, up)[1].tobytes()


class TestLinear:
    def test_identity(self, rng):
        x = rng.standard_normal((3, 5))
        out = linear_forward(x, Tensor(np.eye(5)), Tensor(np.zeros(5)))
        np.testing.assert_array_equal(out, x)

    def test_zero_weights_give_bias(self, rng):
        x = rng.standard_normal((3, 5))
        b = rng.standard_normal(4)
        out = linear_forward(x, Tensor(np.zeros((5, 4))), Tensor(b))
        np.testing.assert_array_equal(out, np.broadcast_to(b, (3, 4)))

    def test_backward_matches_finite_differences(self, rng):
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(4)
        dx, dw, db = linear_backward(x, Tensor(w), np.ones((3, 4)))

        def loss_x(xv):
            return float(np.sum(linear_forward(xv, Tensor(w), Tensor(b))))

        def loss_w(wv):
            return float(np.sum(linear_forward(x, Tensor(wv), Tensor(b))))

        def loss_b(bv):
            return float(np.sum(linear_forward(x, Tensor(w), Tensor(bv))))

        assert max_rel_err(dx, central_difference(loss_x, x)) < 1e-6
        assert max_rel_err(dw, central_difference(loss_w, w)) < 1e-6
        assert max_rel_err(db, central_difference(loss_b, b)) < 1e-6

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(T.DimensionError):
            linear_forward(np.zeros((2, 3)), Tensor(np.zeros((4, 2))),
                           Tensor(np.zeros(2)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss_is_ln_k(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 10)), np.array([0, 3, 5, 9]))
        assert loss == pytest.approx(np.log(10), abs=1e-12)

    def test_saturated_softmax(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1000.0
        loss, _ = softmax_cross_entropy(logits, np.array([2]))
        assert loss < 1e-6

    def test_grad_matches_finite_differences(self, rng):
        logits = rng.standard_normal((4, 6))
        labels = np.array([0, 2, 5, 3])
        _, grad = softmax_cross_entropy(logits, labels)

        def loss_fn(lv):
            return softmax_cross_entropy(lv, labels)[0]

        assert max_rel_err(grad, central_difference(loss_fn, logits)) < 1e-5

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((3, 7))
        labels = np.array([1, 4, 6])
        l1, _ = softmax_cross_entropy(logits, labels)
        l2, _ = softmax_cross_entropy(logits + 123.456, labels)
        assert abs(l1 - l2) <= 1e-9
        assert l1 >= 0

    def test_softmax_rows_sum_to_one(self, rng):
        logits = rng.standard_normal((5, 9))
        labels = np.zeros(5, dtype=int)
        _, grad = softmax_cross_entropy(logits, labels)
        # grad * batch + onehot == softmax rows
        rows = grad * 5
        rows[np.arange(5), labels] += 1
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))


class TestAdam:
    def test_zero_gradient_is_noop(self, rng):
        p = Tensor(rng.standard_normal((3, 3)))
        before = p.data.copy()
        state = AdamState(lr=0.001)
        for _ in range(10):
            adam_step([p], [np.zeros_like(p.data)], state)
        np.testing.assert_array_equal(p.data, before)
        assert state.step == 10

    def test_first_step_magnitude_is_lr(self):
        # With eps -> 0, bias correction makes |delta| == lr on step 1.
        p = Tensor(np.array([5.0]))
        state = AdamState(lr=0.001, eps=1e-16)
        adam_step([p], [np.array([17.3])], state)
        assert abs(p.data[0] - 5.0) == pytest.approx(0.001, rel=1e-9)

    def test_matches_scalar_reference_on_quadratic(self):
        # Independent scalar Adam simulation of f(x) = x^2 from x = 1.
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        theta, m, v = 1.0, 0.0, 0.0
        trace = []
        for t in range(1, 201):
            g = 2 * theta
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / ((v / (1 - b2**t)) ** 0.5 + eps)
            trace.append(theta)

        p = Tensor(np.array([1.0]))
        state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
        for t in range(200):
            adam_step([p], [2 * p.data], state)
            assert abs(p.data[0] - trace[t]) < 1e-12
        assert abs(p.data[0]) < 1.0

    def test_shape_mismatch_raises(self):
        p = Tensor(np.zeros(3))
        with pytest.raises(T.DimensionError):
            adam_step([p], [np.zeros(4)], AdamState())


class TestGradCheck:
    def test_prelu(self, rng):
        x = rng.standard_normal((4, 8))
        x[np.abs(x) < 1e-3] = 0.3
        a = rng.uniform(0.1, 0.5, 8)

        def fwd(xv, av):
            return prelu_forward(xv, PReLUParams(Tensor(av)))

        def bwd(xv, av, up):
            return prelu_backward(xv, PReLUParams(Tensor(av)), up)

        assert grad_check(fwd, bwd, [x, a]) < 1e-6

    def test_conv3d(self, rng):
        x = rng.standard_normal((1, 1, 3, 3, 3))
        kern = rng.standard_normal((1, 1, 2, 2, 2))
        bias = rng.standard_normal(1)

        def fwd(xv, kv, bv):
            return conv_forward(xv, make_conv(kv, bv))

        def bwd(xv, kv, bv, up):
            return conv_backward(xv, make_conv(kv, bv), up)

        assert grad_check(fwd, bwd, [x, kern, bias]) < 1e-5

    def test_linear(self, rng):
        x = rng.standard_normal((2, 4))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)

        def fwd(xv, wv, bv):
            return linear_forward(xv, Tensor(wv), Tensor(bv))

        def bwd(xv, wv, bv, up):
            return linear_backward(xv, Tensor(wv), up)

        assert grad_check(fwd, bwd, [x, w, b]) < 1e-6
