import math

import numpy as np
import pytest

from vidact import tensor_ops as T
from vidact.network import (CheckpointError, Network, NetworkSpec, SpecError,
                            TrainConfig, build_network, evaluate,
                            load_checkpoint, predict, save_checkpoint, train)
from vidact.tensor_ops import AdamState


def tiny_2d_spec(**kw):
    base = dict(mode="2d", input_shape=(1, 8, 8), encoder_channels=(2, 3),
                head_channels=(3, 4, 4), fc_width=8, num_classes=4)
    base.update(kw)
    return NetworkSpec(**base)


def tiny_3d_spec(**kw):
    base = dict(mode="3d", input_shape=(2, 8, 32, 32), encoder_channels=(2, 2),
                head_channels=(2, 2, 3), fc_width=8, num_classes=5)
    base.update(kw)
    return NetworkSpec(**base)


class TestSpecValidation:
    def test_bad_mode(self):
        with pytest.raises(SpecError):
            NetworkSpec(mode="4d")

    def test_wrong_rank_for_mode(self):
        with pytest.raises(SpecError):
            NetworkSpec(mode="2d", input_shape=(3, 16, 64, 64))
        with pytest.raises(SpecError):
            NetworkSpec(mode="3d", input_shape=(1, 64, 64))

    def test_indivisible_extent(self):
        with pytest.raises(SpecError):
            NetworkSpec(mode="3d", input_shape=(3, 16, 48, 64))
        with pytest.raises(SpecError):
            NetworkSpec(mode="2d", input_shape=(1, 12, 16))

    def test_stage_counts(self):
        with pytest.raises(SpecError):
            tiny_2d_spec(encoder_channels=(2, 3, 4))
        with pytest.raises(SpecError):
            tiny_2d_spec(head_channels=(3, 4))

    def test_full_input_shape_2d_gets_unit_depth(self):
        assert tiny_2d_spec().full_input_shape == (1, 1, 8, 8)
        assert tiny_3d_spec().full_input_shape == (2, 8, 32, 32)

    def test_spec_hash_sensitive_to_fields(self):
        a = tiny_2d_spec()
        b = tiny_2d_spec(fc_width=16)
        c = tiny_2d_spec(use_skips=False)
        assert a.spec_hash() == tiny_2d_spec().spec_hash()
        assert a.spec_hash() != b.spec_hash()
        assert a.spec_hash() != c.spec_hash()


def oracle_param_count(spec: NetworkSpec) -> int:
    """Sum layer sizes from the architecture alone.

    Conv block with c_in inputs and c_out outputs holds a
    (c_out, c_in, kd, 3, 3) kernel, a bias, and a per-channel slope.
    """
    kd = 3 if spec.mode == "3d" else 1

    def conv(c_in, c_out):
        return c_out * (c_in * kd * 9 + 2)

    c0 = spec.full_input_shape[0]
    e1, e2 = spec.encoder_channels
    h1, h2, h3 = spec.head_channels
    total = (conv(c0, e1) + conv(e1, e1)            # encoder stage 1
             + conv(e1, e2) + conv(e2, e2)          # encoder stage 2
             + conv(e2, e2) + conv(2 * e2, e2)      # decode + skip mix 1
             + conv(e2, e1) + conv(2 * e1, e1)      # decode + skip mix 2
             + conv(e1, h1) + conv(h1, h1)
             + conv(h1, h2) + conv(h2, h2)
             + conv(h2, h3) + conv(h3, h3))
    c, d, h, w = spec.full_input_shape
    dd = d // 8 if spec.mode == "3d" else 1
    flat = h3 * dd * (h // 8) * (w // 8)
    total += flat * spec.fc_width + 2 * spec.fc_width       # fc1 + its slopes
    total += spec.fc_width * spec.num_classes + spec.num_classes
    return total


class TestBuild:
    def test_logits_shape_3d(self):
        net = Network(tiny_3d_spec(), seed=0)
        x = np.random.default_rng(0).random((2, 2, 8, 32, 32),
                                            dtype=np.float32)
        assert net.forward(x).shape == (2, 5)

    def test_logits_shape_2d(self):
        net = Network(tiny_2d_spec(), seed=0)
        x = np.random.default_rng(0).random((3, 1, 8, 8), dtype=np.float32)
        assert net.forward(x).shape == (3, 4)

    @pytest.mark.parametrize("spec", [
        tiny_2d_spec(),
        tiny_3d_spec(),
        NetworkSpec(),
        NetworkSpec(mode="2d", input_shape=(1, 64, 64)),
    ], ids=["tiny2d", "tiny3d", "default3d", "default2d"])
    def test_param_count_matches_oracle(self, spec):
        assert Network(spec, seed=0).param_count() == oracle_param_count(spec)

    def test_same_seed_same_params(self):
        a = Network(tiny_2d_spec(), seed=7)
        b = Network(tiny_2d_spec(), seed=7)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_different_seed_different_params(self):
        a = Network(tiny_2d_spec(), seed=1)
        b = Network(tiny_2d_spec(), seed=2)
        assert a.enc1[0].conv.kernel.data.tobytes() != \
            b.enc1[0].conv.kernel.data.tobytes()

    def test_rows_independent_in_batch(self):
        net = Network(tiny_2d_spec(), seed=3)
        x = np.random.default_rng(3).random((1, 1, 8, 8), dtype=np.float32)
        single = net.forward(x)
        doubled = net.forward(np.concatenate([x, x]))
        np.testing.assert_allclose(doubled[0], doubled[1], atol=1e-6)
        np.testing.assert_allclose(doubled[0], single[0], atol=1e-6)

    def test_skip_ablation_changes_logits(self):
        x = np.random.default_rng(5).random((2, 1, 8, 8), dtype=np.float32)
        with_skips = Network(tiny_2d_spec(use_skips=True), seed=4).forward(x)
        without = Network(tiny_2d_spec(use_skips=False), seed=4).forward(x)
        assert not np.allclose(with_skips, without)

    def test_wrong_input_shape_rejected(self):
        net = Network(tiny_2d_spec(), seed=0)
        with pytest.raises(SpecError):
            net.forward(np.zeros((2, 1, 8, 16), dtype=np.float32))

    def test_build_network_helper(self):
        net = build_network(tiny_2d_spec(), seed=11)
        assert isinstance(net, Network)
        assert net.param_count() == oracle_param_count(tiny_2d_spec())


def loss_of(net, x, y):
    loss, _ = T.softmax_cross_entropy(net.forward(x), y)
    return loss


class TestGradients:
    def analytic_grads(self, net, x, y):
        net.zero_grads()
        logits = net.forward(x)
        _, d_logits = T.softmax_cross_entropy(logits, y)
        dx = net.backward(d_logits)
        return dx

    def test_input_gradient_full_network_2d(self):
        net = Network(tiny_2d_spec(), seed=6).astype(np.float64)
        rng = np.random.default_rng(6)
        x = rng.random((2, 1, 1, 8, 8))
        y = np.array([1, 3])
        dx = self.analytic_grads(net, x, y)
        # h small enough that a perturbation almost never crosses a PReLU
        # kink or flips a pool argmax
        h = 1e-6
        num = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            num[idx] = (loss_of(net, xp, y) - loss_of(net, xm, y)) / (2 * h)
        denom = max(np.abs(num).max(), np.abs(dx).max(), 1e-12)
        assert np.abs(dx - num).max() / denom < 1e-4

    @pytest.mark.parametrize("param_name", [
        "enc1a.kernel", "enc2b.prelu", "mix1.kernel", "head3b.bias",
        "fc1.weight", "fc1.prelu", "fc2.bias"])
    def test_parameter_gradients_2d(self, param_name):
        net = Network(tiny_2d_spec(), seed=8).astype(np.float64)
        rng = np.random.default_rng(8)
        x = rng.random((3, 1, 1, 8, 8))
        y = np.array([0, 2, 3])
        self.analytic_grads(net, x, y)
        param = dict(net.named_params())[param_name]
        flat = param.data.reshape(-1)
        grad = param.grad.reshape(-1)
        picks = rng.choice(flat.size, size=min(8, flat.size), replace=False)
        h = 1e-5
        for i in picks:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_of(net, x, y)
            flat[i] = orig - h
            lm = loss_of(net, x, y)
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            denom = max(abs(num), abs(grad[i]), 1e-10)
            assert abs(grad[i] - num) / denom < 1e-4

    def test_parameter_gradients_3d_spot_check(self):
        net = Network(tiny_3d_spec(), seed=21).astype(np.float64)
        rng = np.random.default_rng(21)
        x = rng.random((1, 2, 8, 32, 32))
        y = np.array([2])
        self.analytic_grads(net, x, y)
        for name in ("enc1a.kernel", "mix2.bias", "fc2.weight"):
            param = dict(net.named_params())[name]
            flat = param.data.reshape(-1)
            grad = param.grad.reshape(-1)
            picks = rng.choice(flat.size, size=min(4, flat.size),
                               replace=False)
            h = 1e-6
            for i in picks:
                orig = flat[i]
                flat[i] = orig + h
                lp = loss_of(net, x, y)
                flat[i] = orig - h
                lm = loss_of(net, x, y)
                flat[i] = orig
                num = (lp - lm) / (2 * h)
                denom = max(abs(num), abs(grad[i]), 1e-10)
                assert abs(grad[i] - num) / denom < 1e-4

    def test_skipless_backward_runs_and_matches_shape(self):
        net = Network(tiny_2d_spec(use_skips=False), seed=10)
        x = np.random.default_rng(10).random((2, 1, 8, 8), dtype=np.float32)
        logits = net.forward(x)
        _, d_logits = T.softmax_cross_entropy(logits, np.array([0, 1]))
        dx = net.backward(d_logits)
        assert dx.shape == (2, 1, 1, 8, 8)


def separable_dataset(n_per_class=5, classes=4, seed=0):
    """Class = quadrant of a bright 3x3 blob on a dim background."""
    rng = np.random.default_rng(seed)
    centers = [(2, 2), (2, 5), (5, 2), (5, 5)][:classes]
    xs, ys = [], []
    for c, (cy, cx) in enumerate(centers):
        for _ in range(n_per_class):
            img = rng.random((1, 8, 8)).astype(np.float32) * 0.2
            img[0, cy - 1 : cy + 2, cx - 1 : cx + 2] += 0.8
            xs.append(img)
            ys.append(c)
    order = rng.permutation(len(xs))
    return (np.stack(xs)[order], np.asarray(ys)[order])


class TestTraining:
    def test_fresh_init_loss_near_log_k(self):
        spec = tiny_2d_spec(num_classes=4)
        net = Network(spec, seed=12)
        rng = np.random.default_rng(12)
        x = rng.random((16, 1, 8, 8), dtype=np.float32)
        y = rng.integers(0, 4, 16)
        loss, _ = T.softmax_cross_entropy(net.forward(x), y)
        assert 0.5 * math.log(4) <= loss <= 2.0 * math.log(4)

    def test_overfits_small_separable_set(self):
        x, y = separable_dataset(5, 4, seed=13)
        net = Network(tiny_2d_spec(), seed=13)
        cfg = TrainConfig(lr=0.003, batch=10, epochs=100, seed=13,
                          early_stop_acc=1.0, early_stop_patience=2)
        history = train(net, x, y, cfg, x_val=x, y_val=y)
        assert history[-1]["val_acc"] == 1.0
        acc, confusion = evaluate(net, x, y)
        assert acc == 1.0
        assert np.all(confusion == np.diag([5, 5, 5, 5]))

    def test_zero_lr_is_noop_on_params(self):
        x, y = separable_dataset(2, 4, seed=14)
        net = Network(tiny_2d_spec(), seed=14)
        before = [p.data.copy() for p in net.params()]
        train(net, x, y, TrainConfig(lr=0.0, batch=4, epochs=2, seed=14))
        for prev, p in zip(before, net.params()):
            assert prev.tobytes() == p.data.tobytes()

    def test_same_seed_same_history(self):
        x, y = separable_dataset(3, 4, seed=15)
        cfg = TrainConfig(lr=0.002, batch=6, epochs=3, seed=15)
        h1 = train(Network(tiny_2d_spec(), seed=15), x, y, cfg)
        h2 = train(Network(tiny_2d_spec(), seed=15), x, y, cfg)
        assert h1 == h2

    def test_early_stop_shortens_history(self):
        x, y = separable_dataset(5, 4, seed=16)
        net = Network(tiny_2d_spec(), seed=16)
        cfg = TrainConfig(lr=0.003, batch=10, epochs=100, seed=16,
                          early_stop_acc=1.0, early_stop_patience=1)
        history = train(net, x, y, cfg, x_val=x, y_val=y)
        assert len(history) < 100

    def test_empty_training_set_rejected(self):
        net = Network(tiny_2d_spec(), seed=0)
        with pytest.raises(ValueError):
            train(net, np.zeros((0, 1, 8, 8), dtype=np.float32), [],
                  TrainConfig(epochs=1))

    def test_missing_class_warning_logged(self):
        x, y = separable_dataset(2, 2, seed=17)   # only classes 0, 1 of 4
        messages = []
        net = Network(tiny_2d_spec(), seed=17)
        train(net, x, y, TrainConfig(lr=0.001, batch=4, epochs=1, seed=17),
              log=messages.append)
        assert any("absent" in m for m in messages)


class TestEvaluatePredict:
    def setup_net(self):
        net = Network(tiny_2d_spec(), seed=18)
        rng = np.random.default_rng(18)
        x = rng.random((11, 1, 8, 8), dtype=np.float32)
        y = rng.integers(0, 4, 11)
        return net, x, y

    def test_confusion_row_sums_count_true_labels(self):
        net, x, y = self.setup_net()
        acc, confusion = evaluate(net, x, y, batch=4)
        assert confusion.sum() == 11
        for c in range(4):
            assert confusion[c].sum() == int(np.sum(y == c))
        assert acc == pytest.approx(np.trace(confusion) / 11)

    def test_predict_matches_forward_argmax(self):
        net, x, y = self.setup_net()
        labels, confs = predict(net, x, batch=3)
        expect = np.argmax(net.forward(x), axis=1)
        assert labels == list(expect)
        assert all(0.0 < c <= 1.0 for c in confs)

    def test_evaluate_empty_rejected(self):
        net, _, _ = self.setup_net()
        with pytest.raises(ValueError):
            evaluate(net, np.zeros((0, 1, 8, 8), dtype=np.float32),
                     np.zeros(0, dtype=int))


class TestCheckpoint:
    def test_roundtrip_bitwise_outputs(self, tmp_path):
        net = Network(tiny_2d_spec(), seed=19)
        path = tmp_path / "model.bin"
        save_checkpoint(net, path, epoch=7, history=[{"epoch": 0}])
        loaded, state, epoch, history = load_checkpoint(path)
        assert state is None and epoch == 7 and history == [{"epoch": 0}]
        x = np.random.default_rng(19).random((2, 1, 8, 8), dtype=np.float32)
        assert net.forward(x).tobytes() == loaded.forward(x).tobytes()

    def test_roundtrip_adam_state(self, tmp_path):
        x, y = separable_dataset(2, 4, seed=20)
        net = Network(tiny_2d_spec(), seed=20)
        params = net.params()
        state = AdamState(lr=0.002).init_like(params)
        net.zero_grads()
        _, d = T.softmax_cross_entropy(net.forward(x), y)
        net.backward(d)
        T.adam_step(params, [p.grad for p in params], state)
        path = tmp_path / "model.bin"
        save_checkpoint(net, path, state=state)
        _, loaded_state, _, _ = load_checkpoint(path)
        assert loaded_state.step == 1
        assert loaded_state.lr == 0.002
        for a, b in zip(state.m + state.v, loaded_state.m + loaded_state.v):
            assert a.astype(np.float32).tobytes() == b.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(Network(tiny_2d_spec(), seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(Network(tiny_2d_spec(), seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
