import numpy as np
import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def brute_force_conv3d(x, kernel, bias, stride, padding):
    """Direct seven-nested-loop cross-correlation oracle.

    Intentionally independent of the library implementation: plain Python
    loops, no im2col, no FFT.
    """
    n, ci, d, h, w = x.shape
    co, ci_k, kd, kh, kw = kernel.shape
    assert ci == ci_k
    sd, sh, sw = stride
    pd, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    od = (d + 2 * pd - kd) // sd + 1
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, co, od, oh, ow), dtype=np.float64)
    for b in range(n):
        for f in range(co):
            for zd in range(od):
                for zh in range(oh):
                    for zw in range(ow):
                        acc = 0.0
                        for c in range(ci):
                            for a in range(kd):
                                for e in range(kh):
                                    for g in range(kw):
                                        acc += (
                                            xp[b, c, zd * sd + a,
                                               zh * sh + e, zw * sw + g]
                                            * kernel[f, c, a, e, g])
                        out[b, f, zd, zh, zw] = acc + bias[f]
    return out


def central_difference(f, x, h=1e-4):
    """Numerical gradient of scalar-valued f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def max_rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))


def grad_check(forward, backward, inputs, h=1e-4):
    """Max relative error between analytic and central-difference gradients.

    forward(*inputs) -> array, summed to a scalar loss;
    backward(*inputs, upstream) -> tuple of gradients, one per input.
    All arithmetic done in float64.
    """
    inputs = [np.asarray(x, dtype=np.float64) for x in inputs]
    analytic = backward(*inputs, np.ones_like(forward(*inputs)))
    worst = 0.0
    for i, g in enumerate(analytic):
        def loss(xi, i=i):
            return float(np.sum(forward(*inputs[:i], xi, *inputs[i + 1:])))
        worst = max(worst, max_rel_err(g, central_difference(loss, inputs[i],
                                                             h)))
    return worst


def flood_fill_components(mask, min_area=64, frame_index=0):
    """Labeling oracle for `motionseg.connected_components`: a per-pixel
    8-connected flood fill via an explicit stack, components ordered by the
    scan position of their first pixel."""
    from vidact.motionseg import Detection
    labels = np.zeros(mask.shape, dtype=np.int32)
    h, w = mask.shape
    detections = []
    next_label = 0
    ys, xs = np.nonzero(mask)
    for sy, sx in zip(ys, xs):
        if labels[sy, sx]:
            continue
        next_label += 1
        stack = [(sy, sx)]
        labels[sy, sx] = next_label
        pixels_y, pixels_x = [], []
        while stack:
            y, x = stack.pop()
            pixels_y.append(y)
            pixels_x.append(x)
            for ny in range(max(0, y - 1), min(h, y + 2)):
                for nx in range(max(0, x - 1), min(w, x + 2)):
                    if mask[ny, nx] and not labels[ny, nx]:
                        labels[ny, nx] = next_label
                        stack.append((ny, nx))
        area = len(pixels_y)
        if area < min_area:
            continue
        y0, y1 = min(pixels_y), max(pixels_y)
        x0, x1 = min(pixels_x), max(pixels_x)
        detections.append(Detection(box=(x0, y0, x1 - x0 + 1, y1 - y0 + 1),
                                    area=area, frame_index=frame_index))
    return detections


def flip_bits(data: bytes, bits) -> bytes:
    """data with each listed bit index (8 per byte, LSB first) inverted; a
    bit listed twice is restored."""
    out = bytearray(data)
    for i in bits:
        out[i // 8] ^= 1 << (i % 8)
    return bytes(out)
