"""The action-recognition network: a 3D (or 2D, for motion-history input)
encoder-decoder with skip connections, followed by a classifier head of three
conv-pool units (six conv layers, three max pools), a flatten, and two fully
connected layers.

Data is carried as (N, C, D, H, W) internally; the 2D variant travels with
D == 1 and kernel depth 1, sharing every code path.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from . import tensor_ops as T
from .tensor_ops import Tensor, ConvParams, PReLUParams, AdamState


class SpecError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class NetworkSpec:
    mode: str = "3d"                     # "3d" or "2d"
    input_shape: tuple = (3, 16, 64, 64)  # 3d: C,D,H,W; 2d: C,H,W
    encoder_channels: tuple = (16, 32)
    head_channels: tuple = (32, 64, 128)
    fc_width: int = 256
    num_classes: int = 10
    use_skips: bool = True

    def __post_init__(self):
        if self.mode not in ("3d", "2d"):
            raise SpecError(f"mode must be 3d or 2d, got {self.mode!r}")
        want_rank = 4 if self.mode == "3d" else 3
        if len(self.input_shape) != want_rank:
            raise SpecError(
                f"{self.mode} input shape needs {want_rank} extents, "
                f"got {self.input_shape}")
        if len(self.encoder_channels) != 2 or len(self.head_channels) != 3:
            raise SpecError("expected 2 encoder stages and 3 head units")
        # 2 encoder pools (undone by the decoder) and 3 head pools, all 2x.
        need = {"3d": (8, 32, 32), "2d": (8, 8)}[self.mode]
        dims = self.input_shape[1:]
        names = ("D", "H", "W") if self.mode == "3d" else ("H", "W")
        for name, extent, div in zip(names, dims, need):
            if extent % div or extent < div:
                raise SpecError(
                    f"input axis {name}={extent} not divisible by pooling "
                    f"factor {div}")

    @property
    def full_input_shape(self) -> tuple:
        """Always 5-d (C, D, H, W) with D == 1 in 2D mode."""
        if self.mode == "3d":
            return tuple(self.input_shape)
        c, h, w = self.input_shape
        return (c, 1, h, w)

    def canonical(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def spec_hash(self) -> int:
        return int.from_bytes(
            hashlib.sha256(self.canonical().encode()).digest()[:8], "little")


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch: int = 64
    epochs: int = 100
    seed: int = 0
    # Stop once val accuracy holds >= early_stop_acc for early_stop_patience
    # consecutive epochs (0 disables; epochs stays the hard cap).
    early_stop_acc: float = 1.01
    early_stop_patience: int = 1


class ConvBlock:
    """Stride-1, pad-same convolution followed by PReLU."""

    def __init__(self, name, in_ch, out_ch, rng, kdepth=3):
        self.name = name
        kshape = (out_ch, in_ch, kdepth, 3, 3)
        fan_in = in_ch * kdepth * 9
        self.conv = ConvParams(
            kernel=Tensor((rng.standard_normal(kshape)
                           * np.sqrt(2.0 / fan_in)).astype(np.float32)),
            bias=Tensor(np.zeros(out_ch, dtype=np.float32)),
            stride=(1, 1, 1),
            padding=(kdepth // 2, 1, 1))
        self.act = PReLUParams(Tensor(np.full(out_ch, 0.25, dtype=np.float32)))
        self._x = None
        self._pre = None

    def params(self):
        return [(f"{self.name}.kernel", self.conv.kernel),
                (f"{self.name}.bias", self.conv.bias),
                (f"{self.name}.prelu", self.act.a)]

    def forward(self, x):
        self._x = x
        self._pre = T.conv_forward(x, self.conv)
        return T.prelu_forward(self._pre, self.act)

    def backward(self, up):
        d_pre, da = T.prelu_backward(self._pre, self.act, up)
        self.act.a.accumulate(da.astype(self.act.a.data.dtype))
        dx, dw, db = T.conv_backward(self._x, self.conv, d_pre)
        self.conv.kernel.accumulate(dw.astype(self.conv.kernel.data.dtype))
        self.conv.bias.accumulate(db.astype(self.conv.bias.data.dtype))
        return dx


class Pool:
    def __init__(self, window):
        self.window = window
        self._shape = None
        self._argmax = None

    def forward(self, x):
        self._shape = x.shape
        out, self._argmax = T.maxpool_forward(x, self.window)
        return out

    def backward(self, up):
        return T.maxpool_backward(self._shape, self._argmax, up)


class Upsample:
    """Nearest-neighbor upsampling, the inverse factor of a pool."""

    def __init__(self, factors):
        self.factors = factors

    def forward(self, x):
        fd, fh, fw = self.factors
        return np.repeat(np.repeat(np.repeat(x, fd, axis=2), fh, axis=3),
                         fw, axis=4)

    def backward(self, up):
        fd, fh, fw = self.factors
        n, c, d, h, w = up.shape
        v = up.reshape(n, c, d // fd, fd, h // fh, fh, w // fw, fw)
        return v.sum(axis=(3, 5, 7))


class Dense:
    def __init__(self, name, n_in, n_out, rng, prelu=False):
        self.name = name
        self.w = Tensor((rng.standard_normal((n_in, n_out))
                         * np.sqrt(2.0 / n_in)).astype(np.float32))
        self.b = Tensor(np.zeros(n_out, dtype=np.float32))
        self.act = PReLUParams(Tensor(np.full(n_out, 0.25, dtype=np.float32))) \
            if prelu else None
        self._x = None
        self._pre = None

    def params(self):
        out = [(f"{self.name}.weight", self.w), (f"{self.name}.bias", self.b)]
        if self.act is not None:
            out.append((f"{self.name}.prelu", self.act.a))
        return out

    def forward(self, x):
        self._x = x
        self._pre = T.linear_forward(x, self.w, self.b)
        if self.act is None:
            return self._pre
        return T.prelu_forward(self._pre, self.act)

    def backward(self, up):
        if self.act is not None:
            up, da = T.prelu_backward(self._pre, self.act, up)
            self.act.a.accumulate(da.astype(self.act.a.data.dtype))
        dx, dw, db = T.linear_backward(self._x, self.w, up)
        self.w.accumulate(dw.astype(self.w.data.dtype))
        self.b.accumulate(db.astype(self.b.data.dtype))
        return dx


class Network:
    """Encoder-decoder + classifier head; see module docstring for wiring."""

    def __init__(self, spec: NetworkSpec, seed: int = 0):
        self.spec = spec
        rng = np.random.default_rng(seed)
        kd = 3 if spec.mode == "3d" else 1
        pool_w = (2, 2, 2) if spec.mode == "3d" else (1, 2, 2)
        c_in = spec.full_input_shape[0]
        e1, e2 = spec.encoder_channels

        self.enc1 = [ConvBlock("enc1a", c_in, e1, rng, kd),
                     ConvBlock("enc1b", e1, e1, rng, kd)]
        self.pool1 = Pool(pool_w)
        self.enc2 = [ConvBlock("enc2a", e1, e2, rng, kd),
                     ConvBlock("enc2b", e2, e2, rng, kd)]
        self.pool2 = Pool(pool_w)
        self.up1 = Upsample(pool_w)
        self.dec1 = ConvBlock("dec1", e2, e2, rng, kd)
        self.mix1 = ConvBlock("mix1", 2 * e2, e2, rng, kd)
        self.up2 = Upsample(pool_w)
        self.dec2 = ConvBlock("dec2", e2, e1, rng, kd)
        self.mix2 = ConvBlock("mix2", 2 * e1, e1, rng, kd)

        h1, h2, h3 = spec.head_channels
        self.head = []
        self.head_pools = []
        prev = e1
        for i, ch in enumerate((h1, h2, h3)):
            self.head.append(ConvBlock(f"head{i + 1}a", prev, ch, rng, kd))
            self.head.append(ConvBlock(f"head{i + 1}b", ch, ch, rng, kd))
            self.head_pools.append(Pool(pool_w))
            prev = ch

        c, d, h, w = spec.full_input_shape
        dd = d // 8 if spec.mode == "3d" else 1
        flat = h3 * dd * (h // 8) * (w // 8)
        self.fc1 = Dense("fc1", flat, spec.fc_width, rng, prelu=True)
        self.fc2 = Dense("fc2", spec.fc_width, spec.num_classes, rng)
        self._flat_in_shape = None

    # -- parameters ---------------------------------------------------------

    def _blocks(self):
        return (self.enc1 + self.enc2 + [self.dec1, self.mix1, self.dec2,
                                         self.mix2] + self.head
                + [self.fc1, self.fc2])

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for b in self._blocks():
            out.extend(b.params())
        return out

    def params(self) -> list[Tensor]:
        return [p for _, p in self.named_params()]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params())

    def zero_grads(self):
        for p in self.params():
            p.grad = None

    # -- forward / backward -------------------------------------------------

    def _promote(self, x):
        x = np.asarray(x)
        want = self.spec.full_input_shape
        if self.spec.mode == "2d" and x.ndim == 4:
            x = x[:, :, None]
        if x.ndim != 5 or x.shape[1:] != want:
            raise SpecError(
                f"network input: batch shape {x.shape[1:]} != spec input "
                f"{want}")
        return x

    def forward(self, x) -> np.ndarray:
        x = self._promote(x)
        h = x
        for blk in self.enc1:
            h = blk.forward(h)
        s1 = h
        h = self.pool1.forward(h)
        for blk in self.enc2:
            h = blk.forward(h)
        s2 = h
        h = self.pool2.forward(h)

        h = self.dec1.forward(self.up1.forward(h))
        skip2 = s2 if self.spec.use_skips else np.zeros_like(s2)
        h = self.mix1.forward(np.concatenate([h, skip2], axis=1))
        h = self.dec2.forward(self.up2.forward(h))
        skip1 = s1 if self.spec.use_skips else np.zeros_like(s1)
        h = self.mix2.forward(np.concatenate([h, skip1], axis=1))

        for unit in range(3):
            h = self.head[2 * unit].forward(h)
            h = self.head[2 * unit + 1].forward(h)
            h = self.head_pools[unit].forward(h)
        self._flat_in_shape = h.shape
        h = h.reshape(h.shape[0], -1)
        h = self.fc1.forward(h)
        logits = self.fc2.forward(h)
        if not np.all(np.isfinite(logits)):
            raise T.NumericError("non-finite logits")
        return logits

    def backward(self, d_logits) -> np.ndarray:
        g = self.fc2.backward(d_logits)
        g = self.fc1.backward(g)
        g = g.reshape(self._flat_in_shape)
        for unit in reversed(range(3)):
            g = self.head_pools[unit].backward(g)
            g = self.head[2 * unit + 1].backward(g)
            g = self.head[2 * unit].backward(g)

        g = self.mix2.backward(g)
        e1 = self.spec.encoder_channels[0]
        g, g_s1 = g[:, :e1], g[:, e1:]
        g = self.dec2.backward(g)
        g = self.up2.backward(g)
        g = self.mix1.backward(g)
        e2 = self.spec.encoder_channels[1]
        g, g_s2 = g[:, :e2], g[:, e2:]
        g = self.dec1.backward(g)
        g = self.up1.backward(g)

        g = self.pool2.backward(g)
        if self.spec.use_skips:
            g = g + g_s2
        for blk in reversed(self.enc2):
            g = blk.backward(g)
        g = self.pool1.backward(g)
        if self.spec.use_skips:
            g = g + g_s1
        for blk in reversed(self.enc1):
            g = blk.backward(g)
        return g

    def astype(self, dtype) -> "Network":
        for p in self.params():
            p.data = p.data.astype(dtype)
        return self


def build_network(spec: NetworkSpec, seed: int = 0) -> Network:
    return Network(spec, seed)


# -- training ----------------------------------------------------------------


def evaluate(network: Network, x: np.ndarray, y: np.ndarray,
             batch: int = 64) -> tuple[float, np.ndarray]:
    """(accuracy, confusion matrix); confusion rows index the true class."""
    if len(x) == 0:
        raise ValueError("cannot evaluate on an empty set")
    k = network.spec.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    for i in range(0, len(x), batch):
        logits = network.forward(x[i : i + batch])
        pred = np.argmax(logits, axis=1)
        for t, p in zip(y[i : i + batch], pred):
            confusion[t, p] += 1
    accuracy = float(np.trace(confusion)) / len(x)
    return accuracy, confusion


def predict(network: Network, x: np.ndarray, batch: int = 64):
    """(argmax labels, softmax confidences of the winning class)."""
    labels, confs = [], []
    for i in range(0, len(x), batch):
        logits = network.forward(x[i : i + batch])
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        pred = np.argmax(logits, axis=1)
        labels.extend(int(p) for p in pred)
        confs.extend(float(probs[j, p]) for j, p in enumerate(pred))
    return labels, confs


def train(network: Network, x_train, y_train, config: TrainConfig,
          x_val=None, y_val=None, log=None) -> list[dict]:
    """Adam + softmax cross-entropy epoch loop. Returns per-epoch metrics."""
    if len(x_train) == 0:
        raise ValueError("empty training set")
    y_train = np.asarray(y_train)
    missing = set(range(network.spec.num_classes)) - set(int(v) for v in y_train)
    if missing and log:
        log(f"warning: classes absent from train split: {sorted(missing)}")
    params = network.params()
    state = AdamState(lr=config.lr).init_like(params)
    rng = np.random.default_rng(config.seed)
    history = []
    streak = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(x_train))
        losses = []
        correct = 0
        for i in range(0, len(order), config.batch):
            idx = order[i : i + config.batch]
            network.zero_grads()
            logits = network.forward(x_train[idx])
            loss, d_logits = T.softmax_cross_entropy(logits, y_train[idx])
            if not np.isfinite(loss):
                raise T.NumericError(
                    f"non-finite loss at epoch {epoch}, batch {i // config.batch}; "
                    f"param norms: "
                    f"{[float(np.abs(p.data).max()) for p in params[:4]]}")
            network.backward(d_logits)
            T.adam_step(params, [p.grad for p in params], state)
            losses.append(loss)
            correct += int(np.sum(np.argmax(logits, axis=1) == y_train[idx]))
        record = {"epoch": epoch, "train_loss": float(np.mean(losses)),
                  "train_acc": correct / len(order)}
        if x_val is not None and len(x_val):
            val_acc, _ = evaluate(network, x_val, np.asarray(y_val), config.batch)
            record["val_acc"] = val_acc
        history.append(record)
        if log:
            log(f"epoch {epoch}: " + " ".join(
                f"{k}={v:.4f}" for k, v in record.items() if k != "epoch"))
        gate = record.get("val_acc", record["train_acc"])
        streak = streak + 1 if gate >= config.early_stop_acc else 0
        if streak >= config.early_stop_patience and config.early_stop_acc <= 1.0:
            break
    return history


# -- checkpoints -------------------------------------------------------------

CHECKPOINT_MAGIC = b"A3DW"
CHECKPOINT_VERSION = 1


def save_checkpoint(network: Network, path: str | Path,
                    state: AdamState | None = None, epoch: int = 0,
                    history: list[dict] | None = None) -> None:
    spec = network.spec
    named = network.named_params()
    meta = {"spec": asdict(spec), "epoch": epoch, "history": history or []}
    meta_raw = json.dumps(meta, sort_keys=True).encode()
    parts = [CHECKPOINT_MAGIC,
             struct.pack("<HQ", CHECKPOINT_VERSION, spec.spec_hash()),
             struct.pack("<I", len(meta_raw)), meta_raw,
             struct.pack("<I", len(named))]

    def emit_array(a: np.ndarray):
        parts.append(struct.pack("<BI", a.ndim, a.size))
        parts.append(struct.pack(f"<{a.ndim}I", *a.shape))
        parts.append(np.ascontiguousarray(a, dtype="<f4").tobytes())

    for name, p in named:
        raw = name.encode()
        parts.append(struct.pack("<H", len(raw)) + raw)
        emit_array(p.data)
    if state is not None and state.m:
        parts.append(struct.pack("<BQdddd", 1, state.step, state.lr,
                                 state.beta1, state.beta2, state.eps))
        for arr in state.m + state.v:
            emit_array(arr)
    else:
        parts.append(struct.pack("<B", 0))
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path):
    """Returns (network, adam state or None, epoch, history)."""
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:4]!r}")
    try:
        version, spec_hash = struct.unpack_from("<HQ", data, 4)
        pos = 14
        (meta_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        meta = json.loads(data[pos : pos + meta_len].decode())
        pos += meta_len
        if (not isinstance(meta, dict)
                or not {"spec", "epoch", "history"} <= meta.keys()
                or not isinstance(meta["spec"], dict)):
            raise CheckpointError(
                f"{path}: metadata is not an object with a spec object, "
                "an epoch and a history")
        keys = set(meta["spec"])
        want = {f.name for f in fields(NetworkSpec)}
        if keys != want:
            raise CheckpointError(
                f"{path}: spec keys unknown {sorted(keys - want)}, "
                f"missing {sorted(want - keys)}")
        try:
            spec = NetworkSpec(**{k: tuple(v) if isinstance(v, list) else v
                                  for k, v in meta["spec"].items()})
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: bad network spec: {e}") from e
        if spec.spec_hash() != spec_hash:
            raise CheckpointError(f"{path}: spec hash mismatch")
        try:
            network = Network(spec, seed=0)
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: bad network spec: {e}") from e
        (n_params,) = struct.unpack_from("<I", data, pos)
        pos += 4

        def read_array():
            nonlocal pos
            ndim, size = struct.unpack_from("<BI", data, pos)
            pos += 5
            shape = struct.unpack_from(f"<{ndim}I", data, pos)
            pos += 4 * ndim
            nbytes = 4 * size
            if pos + nbytes > len(data):
                raise CheckpointError(f"{path}: truncated parameter payload")
            arr = np.frombuffer(data[pos : pos + nbytes], dtype="<f4")
            pos += nbytes
            return arr.reshape(shape).copy()

        named = dict(network.named_params())
        if n_params != len(named):
            raise CheckpointError(f"{path}: parameter count mismatch")
        for _ in range(n_params):
            (nlen,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos : pos + nlen].decode()
            pos += nlen
            arr = read_array()
            if name not in named or named[name].data.shape != arr.shape:
                raise CheckpointError(f"{path}: unexpected parameter {name!r}")
            named[name].data = arr
        (has_state,) = struct.unpack_from("<B", data, pos)
        pos += 1
        state = None
        if has_state:
            _, step, lr, b1, b2, eps = struct.unpack_from("<BQdddd", data, pos - 1)
            pos += 40
            state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps, step=step)
            state.m = [read_array() for _ in range(n_params)]
            state.v = [read_array() for _ in range(n_params)]
    except (struct.error, IndexError, json.JSONDecodeError,
            UnicodeDecodeError) as e:
        raise CheckpointError(f"{path}: truncated or corrupt checkpoint") from e
    return network, state, meta["epoch"], meta["history"]
