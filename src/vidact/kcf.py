"""Kernelized correlation filter single-target tracker.

Raw grayscale features: the target window (box expanded by a padding factor)
is resampled to a fixed patch size, mean-subtracted, and Hann-windowed. Ridge
regression over all cyclic shifts is solved in the frequency domain with a
Gaussian kernel; detection is the argmax of the correlation response.

Training is deferred: `kcf_init` stores the template patch, and the filter is
solved from it only when it first detects, so a target that is re-anchored on
every frame never pays for the FFTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .motionseg import to_gray


@dataclass
class KcfConfig:
    patch_size: int = 32
    sigma: float = 0.2           # Gaussian kernel bandwidth
    lambda_: float = 1e-4        # ridge regularizer
    interp: float = 0.075        # model update rate
    padding: float = 2.0         # window size as a multiple of the box
    output_sigma_factor: float = 0.05  # label bandwidth relative to patch size

    def __post_init__(self):
        if self.lambda_ <= 0:
            raise ValueError("lambda must be > 0")
        if not 0.0 < self.interp <= 1.0:
            raise ValueError("interp must be in (0, 1]")


@dataclass
class KcfState:
    """A filter on one target. `alpha_hat` is None until the filter first
    detects; `kcf_response` then trains it from `template`."""

    template: np.ndarray         # processed feature patch, p x p
    alpha_hat: np.ndarray | None  # dual solution, frequency domain, p x p
    box: tuple[float, float, float, float]
    config: KcfConfig


def hann2d(size: int) -> np.ndarray:
    w = np.hanning(size)
    return np.outer(w, w)


def extract_patch(frame_gray: np.ndarray, box, config: KcfConfig) -> np.ndarray:
    """Padded window around the box, resampled to patch_size, zero-mean, Hann."""
    x, y, w, h = box
    cx, cy = x + w / 2.0, y + h / 2.0
    ww, wh = w * config.padding, h * config.padding
    fh, fw = frame_gray.shape
    p = config.patch_size
    ys = np.clip(np.round(np.linspace(cy - wh / 2, cy + wh / 2, p)).astype(int),
                 0, fh - 1)
    xs = np.clip(np.round(np.linspace(cx - ww / 2, cx + ww / 2, p)).astype(int),
                 0, fw - 1)
    patch = frame_gray[ys[:, None], xs[None, :]].astype(np.float64)
    patch -= patch.mean()
    return patch * hann2d(p)


def gaussian_correlation(x: np.ndarray, z: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel k(x, z_shift) for every cyclic shift of z, via FFT.

    k = exp(-max(0, ||x||^2 + ||z||^2 - 2 * xcorr(x, z)) / (sigma^2 * n)).
    """
    if x.shape != z.shape:
        raise ValueError(f"patch extents differ: {x.shape} vs {z.shape}")
    n = x.size
    corr = np.real(np.fft.ifft2(np.fft.fft2(x) * np.conj(np.fft.fft2(z))))
    d = np.maximum(0.0, np.sum(x * x) + np.sum(z * z) - 2.0 * corr)
    return np.exp(-d / (sigma * sigma * n))


def gaussian_label(size: int, sigma: float) -> np.ndarray:
    """Centered 2-D Gaussian, peak exactly 1 at (size//2, size//2)."""
    coords = np.arange(size) - size // 2
    g = np.exp(-0.5 * (coords / sigma) ** 2)
    return np.outer(g, g)


@lru_cache(maxsize=None)
def _label_hat(p: int, output_sigma_factor: float) -> np.ndarray:
    label = gaussian_label(p, output_sigma_factor * p)
    # Shift the label so the peak sits at index (0, 0): detection displacement
    # is then read directly off the response argmax.
    label = np.roll(label, (-(p // 2), -(p // 2)), axis=(0, 1))
    label_hat = np.fft.fft2(label)
    label_hat.flags.writeable = False
    return label_hat


def _train(patch: np.ndarray, config: KcfConfig) -> np.ndarray:
    label_hat = _label_hat(config.patch_size, config.output_sigma_factor)
    k_hat = np.fft.fft2(gaussian_correlation(patch, patch, config.sigma))
    return label_hat / (k_hat + config.lambda_)


def kcf_init(frame: np.ndarray, box, config: KcfConfig | None = None) -> KcfState:
    """A fresh filter on a box of an (H, W) or (C, H, W) frame.

    Checks the box and extracts the template patch; training waits until
    the filter first detects (`kcf_response`).
    """
    config = config or KcfConfig()
    x, y, w, h = box
    if w < 4 or h < 4:
        raise ValueError(f"degenerate box {box}: sides must be >= 4 px")
    gray = to_gray(frame)
    patch = extract_patch(gray, box, config)
    return KcfState(template=patch, alpha_hat=None,
                    box=tuple(float(v) for v in box), config=config)


def kcf_response(state: KcfState, patch: np.ndarray) -> np.ndarray:
    """Correlation response of the filter over all cyclic shifts of patch;
    trains the filter from its template first if it has not been."""
    if state.alpha_hat is None:
        state.alpha_hat = _train(state.template, state.config)
    k_hat = np.fft.fft2(gaussian_correlation(patch, state.template,
                                             state.config.sigma))
    return np.real(np.fft.ifft2(k_hat * state.alpha_hat))


def kcf_detect(state: KcfState, frame_gray: np.ndarray):
    """Response peak around the current box -> (displacement px, peak value)."""
    cfg = state.config
    patch = extract_patch(frame_gray, state.box, cfg)
    response = kcf_response(state, patch)
    p = cfg.patch_size
    iy, ix = np.unravel_index(np.argmax(response), response.shape)
    dy = float(iy if iy <= p // 2 else iy - p)
    dx = float(ix if ix <= p // 2 else ix - p)

    def subpixel(minus, center, plus):
        denom = minus - 2 * center + plus
        if denom >= -1e-12:
            return 0.0
        delta = 0.5 * (minus - plus) / denom
        return float(np.clip(delta, -0.5, 0.5)) if abs(delta) > 1e-6 else 0.0

    dy += subpixel(response[(iy - 1) % p, ix], response[iy, ix],
                   response[(iy + 1) % p, ix])
    dx += subpixel(response[iy, (ix - 1) % p], response[iy, ix],
                   response[iy, (ix + 1) % p])
    # Patch pixels map back to window pixels through the resampling ratio.
    x, y, w, h = state.box
    scale_x = w * cfg.padding / p
    scale_y = h * cfg.padding / p
    return dx * scale_x, dy * scale_y, float(response[iy, ix])


def kcf_update(state: KcfState, frame: np.ndarray):
    """Track one frame: detect, recenter the box, then blend the model.

    Returns (new box, peak value, lost flag). Lost means the recentered box
    left the frame entirely.
    """
    gray = to_gray(frame)
    dx, dy, peak = kcf_detect(state, gray)
    x, y, w, h = state.box
    x, y = x + dx, y + dy
    fh, fw = gray.shape
    lost = x + w <= 0 or y + h <= 0 or x >= fw or y >= fh
    state.box = (x, y, w, h)
    if not lost:
        patch = extract_patch(gray, state.box, state.config)
        alpha_hat = _train(patch, state.config)
        r = state.config.interp
        state.template = (1 - r) * state.template + r * patch
        state.alpha_hat = (1 - r) * state.alpha_hat + r * alpha_hat
    return state.box, peak, lost
