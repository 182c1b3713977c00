"""Minimal differentiable numeric engine.

Dense tensors plus the handful of ops the action-recognition network needs:
3D/2D convolution (cross-correlation convention, no kernel flip), max pooling,
PReLU, affine layers, softmax cross-entropy, and Adam. Everything operates on
plain numpy arrays; gradients are computed by explicit backward functions
rather than a tape.

Layout: conv and pool ops take 5-d (N, C, D, H, W) batches only, and raise
DimensionError on any other rank. 2D data travels with D == 1 (kernel depth
1), an axis Network._promote adds, so one code path serves both ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "ConvParams",
    "PReLUParams",
    "AdamState",
    "conv_forward",
    "conv_backward",
    "maxpool_forward",
    "maxpool_backward",
    "prelu_forward",
    "prelu_backward",
    "linear_forward",
    "linear_backward",
    "softmax_cross_entropy",
    "adam_step",
]


class DimensionError(ValueError):
    """Shape or extent mismatch between operands."""


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


@dataclass
class Tensor:
    """Dense N-d array with an optional gradient slot of the same shape."""

    data: np.ndarray
    grad: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.grad is not None and self.grad.shape != self.data.shape:
            raise DimensionError(
                f"grad shape {self.grad.shape} != data shape {self.data.shape}"
            )

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g: np.ndarray):
        if g.shape != self.data.shape:
            raise DimensionError(f"grad shape {g.shape} != data shape {self.data.shape}")
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g


@dataclass
class ConvParams:
    """Convolution kernel + bias with per-axis stride and padding.

    kernel: (out_ch, in_ch, kD, kH, kW); kD == 1 for the 2D variant.
    """

    kernel: Tensor
    bias: Tensor
    stride: tuple[int, int, int] = (1, 1, 1)
    padding: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        if self.kernel.data.ndim != 5:
            raise DimensionError(f"kernel must be rank 5, got {self.kernel.data.ndim}")
        if self.bias.data.shape != (self.kernel.data.shape[0],):
            raise DimensionError("bias length must equal out-channels")
        if any(s < 1 for s in self.stride) or any(p < 0 for p in self.padding):
            raise ValueError("stride must be >= 1 and padding >= 0")


@dataclass
class PReLUParams:
    """One learnable negative-branch slope per channel."""

    a: Tensor

    def __post_init__(self):
        if self.a.data.ndim != 1:
            raise DimensionError("PReLU slopes must be a 1-d per-channel vector")


@dataclass
class AdamState:
    """Adam moments + step counter for one list of parameter tensors."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def init_like(self, params: list[Tensor]):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.step = 0
        return self


def _rank5(x, what: str) -> np.ndarray:
    """x as an array; DimensionError unless it is 5-d (N, C, D, H, W)."""
    x = np.asarray(x)
    if x.ndim != 5:
        raise DimensionError(f"{what} must be rank 5 (N, C, D, H, W), "
                             f"got rank {x.ndim}")
    return x


def _out_extent(n: int, k: int, s: int, p: int) -> int:
    return (n + 2 * p - k) // s + 1


# Largest im2col column tile, in elements. conv_forward and conv_backward
# build one tile, use it in their GEMMs and drop it before building the next,
# so the GEMMs read their columns back from cache, and a conv call holds no
# more than one tile of columns beyond its operands. 2^20 elements is 4 MiB of
# float32, the L2 cache of the 2-core Xeon it was tuned on. Tiles of 2^19 to
# 2^22 elements ran a training step equally fast there; at 2^16 the per-tile
# overhead made it 1.6x slower.
_TILE_ELEMS = 1 << 20


def _tiles(n: int, oshape, k: int):
    """Blocks of output space whose im2col columns hold at most _TILE_ELEMS.

    k is the column length (C*kD*kH*kW) of one output position.
    Yields (samples, depth, rows) slices; every tile spans the whole output
    width. Whole samples are grouped while one fits; otherwise each sample is
    cut into runs of output depth planes, and a plane that does not fit into
    runs of output rows. One output row is the smallest tile.
    """
    od, oh, ow = oshape
    extents = (n, od, oh)
    per_step = (od * oh * ow * k, oh * ow * k, ow * k)
    axis = next(a for a in range(3) if per_step[a] <= _TILE_ELEMS or a == 2)
    step = max(1, _TILE_ELEMS // per_step[axis])
    whole = tuple(slice(0, e) for e in extents[axis + 1:])
    for outer in itertools.product(*(range(e) for e in extents[:axis])):
        head = tuple(slice(i, i + 1) for i in outer)
        for s in range(0, extents[axis], step):
            yield head + (slice(s, min(s + step, extents[axis])),) + whole


def _tile_shape(tile, ow: int) -> tuple[int, int, int, int]:
    return tuple(s.stop - s.start for s in tile) + (ow,)


def _im2col(xp: np.ndarray, kshape, stride, tile, ow: int) -> np.ndarray:
    """Columns of one output tile by slice copies.

    Returns (C*kD*kH*kW, samples*depth*rows*oW); rows follow the kernel's
    (C, kD, kH, kW) order, columns the tile's (sample, d, h, w) order.
    """
    samples, depth, rows = tile
    sd, sh, sw = stride
    c = xp.shape[1]
    cols = np.empty((c,) + tuple(kshape) + _tile_shape(tile, ow),
                    dtype=xp.dtype)
    for a, b, g in itertools.product(*map(range, kshape)):
        cols[:, a, b, g] = xp[
            samples, :,
            a + sd * depth.start : a + sd * depth.stop : sd,
            b + sh * rows.start : b + sh * rows.stop : sh,
            g : g + sw * ow : sw,
        ].swapaxes(0, 1)
    return cols.reshape(c * int(np.prod(kshape)), -1)


def _conv_geometry(x: np.ndarray, params: ConvParams):
    kern = params.kernel.data
    co, ci, kd, kh, kw = kern.shape
    n, c, d, h, w = x.shape
    if c != ci:
        raise DimensionError(f"input has {c} channels, kernel expects {ci}")
    pd, ph, pw = params.padding
    sd, sh, sw = params.stride
    if d + 2 * pd < kd or h + 2 * ph < kh or w + 2 * pw < kw:
        raise DimensionError(
            f"padded input {(d + 2 * pd, h + 2 * ph, w + 2 * pw)} smaller than "
            f"kernel {(kd, kh, kw)}"
        )
    od = _out_extent(d, kd, sd, pd)
    oh = _out_extent(h, kh, sh, ph)
    ow = _out_extent(w, kw, sw, pw)
    return (kd, kh, kw), (od, oh, ow)


def _correlate(xp: np.ndarray, wmat: np.ndarray, kshape, stride, oshape,
               bias: np.ndarray | None = None) -> np.ndarray:
    """(N, out-channels, *oshape) cross-correlation of an already padded
    input with wmat (out-channels, C*kD*kH*kW): tiled im2col, one GEMM per
    tile."""
    co = wmat.shape[0]
    n, ow = xp.shape[0], oshape[2]
    out = np.empty((n, co) + tuple(oshape), dtype=np.result_type(xp, wmat))
    for tile in _tiles(n, oshape, wmat.shape[1]):
        res = wmat @ _im2col(xp, kshape, stride, tile, ow)
        if bias is not None:
            res += bias.reshape(co, 1)
        out[tile[0], :, tile[1], tile[2]] = \
            res.reshape((co,) + _tile_shape(tile, ow)).swapaxes(0, 1)
    return out


def _spread_upstream(up: np.ndarray, kshape, stride, padding,
                     in_shape) -> np.ndarray:
    """Upstream gradient placed so that its stride-1 correlation with the
    flipped, transposed kernel is the input gradient.

    Along each axis, up[o] lands at k-1-p + s*o on a zero grid of extent
    in + k - 1. Positions that fall off the grid feed only padding and are
    dropped.
    """
    ext = tuple(e + k - 1 for e, k in zip(in_shape, kshape))
    u = np.zeros(up.shape[:2] + ext, dtype=up.dtype)
    dst, src = [slice(None)] * 2, [slice(None)] * 2
    for e, k, s, p, o in zip(ext, kshape, stride, padding, up.shape[2:]):
        lead = k - 1 - p
        first = max(0, -(lead // s))
        stop = min(o, -((lead - e) // s))
        dst.append(slice(lead + s * first, lead + s * stop, s))
        src.append(slice(first, stop))
    u[tuple(dst)] = up[tuple(src)]
    return u


def conv_forward(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Cross-correlation of x with the kernel (no flip), plus bias.

    Output extent per axis: floor((in + 2*pad - k) / stride) + 1.
    x is a 5-d (N, C, D, H, W) batch (D == 1 for 2D data); any other rank
    raises DimensionError. Columns are built and multiplied one cache-sized
    tile at a time (see _tiles).
    """
    x = _rank5(x, "conv_forward input")
    if not np.all(np.isfinite(x)):
        raise NumericError("conv_forward input contains non-finite values")
    kshape, oshape = _conv_geometry(x, params)
    kern = params.kernel.data
    pd, ph, pw = params.padding
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    return _correlate(xp, kern.reshape(kern.shape[0], -1), kshape,
                      params.stride, oshape, params.bias.data)


def conv_backward(
    x: np.ndarray, params: ConvParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of conv_forward w.r.t. input, kernel, and bias.

    dW walks conv_forward's column tiles (see _tiles): each tile's columns
    are built once and one GEMM, upstream tile @ columns.T, adds into a
    single accumulator. dX is a transposed convolution: the upstream
    gradient, spread onto the stride grid (_spread_upstream), correlated
    at stride 1 with the flipped kernel, through the same tiled
    im2col/GEMM. No column gradient is scattered back. Above stride 1 the
    spread grid is mostly zeros: dX then costs as much as at stride 1,
    sd*sh*sw times its nonzero products. The network's convolutions all run
    at stride 1. x and upstream are 5-d, as in conv_forward.
    """
    x = _rank5(x, "conv_backward input")
    kshape, oshape = _conv_geometry(x, params)
    kern = params.kernel.data
    co, ci = kern.shape[:2]
    up = np.asarray(upstream)
    if up.shape != (x.shape[0], co) + oshape:
        raise DimensionError(
            f"upstream shape {up.shape} != output shape {(x.shape[0], co) + oshape}"
        )
    up = np.ascontiguousarray(up)
    pd, ph, pw = params.padding
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    dw = np.zeros_like(kern.reshape(co, -1))
    for tile in _tiles(x.shape[0], oshape, dw.shape[1]):
        cols = _im2col(xp, kshape, params.stride, tile, oshape[2])
        upc = up[tile[0], :, tile[1], tile[2]].swapaxes(0, 1).reshape(co, -1)
        dw += upc @ cols.T
    spread = _spread_upstream(up, kshape, params.stride, params.padding,
                              x.shape[2:])
    flipped = kern[:, :, ::-1, ::-1, ::-1].swapaxes(0, 1).reshape(ci, -1)
    dx = _correlate(spread, flipped, kshape, (1, 1, 1), x.shape[2:])
    db = up.sum(axis=(0, 2, 3, 4))
    return dx.astype(x.dtype, copy=False), dw.reshape(kern.shape), db


def maxpool_forward(
    x: np.ndarray, window: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Max over non-overlapping (kD, kH, kW) windows of a 5-d batch; other
    ranks raise DimensionError. Cells past an axis's last whole window are
    not read. Returns (output, argmax) where argmax holds the flat index
    (within one N,C slice) of the winning input cell, first on ties.
    """
    x = _rank5(x, "maxpool_forward input")
    kd, kh, kw = window
    n, c, d, h, w = x.shape
    if kd > d or kh > h or kw > w:
        raise DimensionError(f"pool window {window} exceeds input extents {(d, h, w)}")
    od, oh, ow = d // kd, h // kh, w // kw
    # One slab per window position; positions enumerate in ascending flat
    # order, so argmax over axis 0 picks the first (lowest flat index) tie.
    slabs = np.empty((kd * kh * kw, n, c, od, oh, ow), dtype=x.dtype)
    offset = np.empty(kd * kh * kw, dtype=np.int64)
    for i, (a, b, g) in enumerate(itertools.product(range(kd), range(kh),
                                                    range(kw))):
        slabs[i] = x[:, :, a : kd * od : kd, b : kh * oh : kh, g : kw * ow : kw]
        offset[i] = a * h * w + b * w + g
    win = np.argmax(slabs, axis=0)
    out = np.take_along_axis(slabs, win[None], axis=0)[0]
    # The flat index of each window's first cell, plus the winner's offset.
    base = (np.arange(od)[:, None, None] * (kd * h * w)
            + np.arange(oh)[:, None] * (kh * w) + np.arange(ow) * kw)
    return out, base + offset[win]


def maxpool_backward(
    x_shape: tuple[int, ...], argmax: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """Scatter upstream gradients onto the winning input cells: x_shape, and
    argmax and upstream (of one shape), are 5-d, else DimensionError."""
    upstream = _rank5(upstream, "maxpool_backward upstream")
    if len(x_shape) != 5 or np.shape(argmax) != upstream.shape:
        raise DimensionError(f"input shape {x_shape} is not 5-d or argmax "
                             f"shape {np.shape(argmax)} != {upstream.shape}")
    n, c = x_shape[:2]
    dx = np.zeros((n * c, int(np.prod(x_shape[2:]))), dtype=upstream.dtype)
    np.add.at(dx, (np.arange(n * c)[:, None], argmax.reshape(n * c, -1)),
              upstream.reshape(n * c, -1))
    return dx.reshape(x_shape)


def _channel_view(a: np.ndarray, ndim: int) -> np.ndarray:
    return a.reshape((1, -1) + (1,) * (ndim - 2))


def _slopes(neg: np.ndarray, av: np.ndarray, dtype) -> np.ndarray:
    """The per-element slope: a (one per channel) where neg, else 1.

    Built in one array as -(neg * -a - (not neg)) rather than with a where
    pass, which is several times slower. Where neg that is -(-a - 0.0),
    which is a for every a, a slope of -0.0 included; elsewhere -(±0 - 1).
    """
    out = np.multiply(neg, -av, dtype=dtype)
    np.subtract(out, ~neg, out=out)
    np.negative(out, out=out)
    return out


def prelu_forward(x: np.ndarray, params: PReLUParams) -> np.ndarray:
    """f(y) = y for y > 0, a*y otherwise, with one slope per channel.

    Computed as x times a per-element slope (1 or a), bit-identical to
    where(x > 0, x, a*x) and several times faster than that where pass.
    """
    x = np.asarray(x)
    a = params.a.data
    if x.ndim < 2 or x.shape[1] != a.shape[0]:
        raise DimensionError(
            f"input channel extent {x.shape[1] if x.ndim >= 2 else None} != "
            f"slope count {a.shape[0]}"
        )
    av = _channel_view(a, x.ndim)
    out = _slopes(x <= 0, av, np.result_type(x, av))
    out *= x
    return out


def prelu_backward(
    x: np.ndarray, params: PReLUParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (input-grad, per-channel slope-grad): upstream times the slope
    (1 or a) and, per channel, the sum of x * upstream over x <= 0, both
    bit-identical to their where forms for finite x and upstream."""
    x = np.asarray(x)
    upstream = np.asarray(upstream)
    a = params.a.data
    if x.shape[1] != a.shape[0]:
        raise DimensionError("channel mismatch in prelu_backward")
    av = _channel_view(a, x.ndim)
    neg = x <= 0
    dx = _slopes(neg, av, np.result_type(upstream, av))
    dx *= upstream
    axes = (0,) + tuple(range(2, x.ndim))
    # x where x <= 0 (-0.0 kept), else a zero; a zero term's sign cannot
    # reach the sum, which numpy starts from +0.0.
    terms = np.minimum(0, x)
    terms *= upstream
    return dx, np.sum(terms, axis=axes)


def linear_forward(x: np.ndarray, weights: Tensor, bias: Tensor) -> np.ndarray:
    """Affine map x @ W + b with W of shape (in, out)."""
    x = np.asarray(x)
    w = weights.data
    if x.shape[-1] != w.shape[0]:
        raise DimensionError(f"input extent {x.shape[-1]} != weight rows {w.shape[0]}")
    return x @ w + bias.data


def linear_backward(
    x: np.ndarray, weights: Tensor, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.asarray(x)
    up = np.asarray(upstream)
    dx = up @ weights.data.T
    dw = x.reshape(-1, x.shape[-1]).T @ up.reshape(-1, up.shape[-1])
    db = up.reshape(-1, up.shape[-1]).sum(axis=0)
    return dx, dw, db


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over the batch, with its logit gradient.

    Stabilized by per-row max subtraction; grad = (softmax - onehot) / batch.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise DimensionError("logits must be rank 2 (batch x classes)")
    n, k = logits.shape
    if labels.shape != (n,):
        raise DimensionError("labels must be one class index per batch row")
    if np.any(labels < 0) or np.any(labels >= k):
        raise IndexError(f"label out of range [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    loss = float(-np.mean(shifted[np.arange(n), labels]
                          - np.log(expv.sum(axis=1))))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(logits.dtype)


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState) -> None:
    """One Adam update with bias correction; mutates params and state in place."""
    if not state.m:
        state.init_like(params)
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionError("params, grads, and state lists must align")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape:
            raise DimensionError(f"grad shape {g.shape} != param shape {p.data.shape}")
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p.data -= state.lr * mhat / (np.sqrt(vhat) + state.eps)

