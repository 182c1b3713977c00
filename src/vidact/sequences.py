"""Turn tracked people into network inputs: one person crop per frame (the
track box cut from the RGB frame, optionally multiplied by the foreground
mask, resized to a square), and motion history images of clips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .motionseg import to_gray
from .videoio import Clip, resize_bilinear


@dataclass
class MhiImage:
    values: np.ndarray   # H x W in [0, 1]
    tau: int


class InsufficientFramesError(ValueError):
    pass


def crop_box(frame: np.ndarray, box) -> np.ndarray:
    """Crop (C, H, W) at an (x, y, w, h) box, zero-padding outside the frame."""
    x, y, w, h = (int(round(v)) for v in box)
    c, fh, fw = frame.shape
    out = np.zeros((c, h, w), dtype=frame.dtype)
    sy0, sy1 = max(0, y), min(fh, y + h)
    sx0, sx1 = max(0, x), min(fw, x + w)
    if sy0 < sy1 and sx0 < sx1:
        out[:, sy0 - y : sy1 - y, sx0 - x : sx1 - x] = frame[:, sy0:sy1, sx0:sx1]
    return out


def person_crop(frame: np.ndarray, box, out_size: int,
                mask: np.ndarray | None = None) -> np.ndarray:
    """The (C, H, W) frame cut at an (x, y, w, h) box, zero-padded outside
    the frame, times the box's cut of the binary H x W mask when one is
    given, resized to (C, out_size, out_size)."""
    crop = crop_box(frame, box)
    if mask is not None:
        crop = crop * crop_box(mask[None].astype(frame.dtype), box)
    return resize_bilinear(crop, out_size, out_size)


def compute_mhi(bs: Clip, tau: int = 16, threshold: float = 0.05) -> MhiImage:
    """Motion history image of a clip, linear decay normalized to [0, 1].

    H_t = 1 where |frame_t - frame_{t-1}| > threshold, else
    max(0, H_{t-1} - 1/tau); the last H is returned.
    """
    if bs.num_frames < 2:
        raise InsufficientFramesError(
            f"MHI needs at least 2 frames, got {bs.num_frames}")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    gray = np.stack([to_gray(f) for f in bs.frames])
    # Counted in whole frames and normalized at the end, so full decay is
    # exactly zero.
    h = np.zeros(gray.shape[1:], dtype=np.float64)
    for t in range(1, gray.shape[0]):
        moving = np.abs(gray[t] - gray[t - 1]) > threshold
        h = np.where(moving, float(tau), np.maximum(0.0, h - 1.0))
    return MhiImage(values=h / tau, tau=tau)


def subsample_time(clip: Clip, target_t: int) -> Clip:
    """Pick target_t frames at indices round(i*(T-1)/(target_t-1)).

    Endpoints are preserved bitwise. Clips shorter than target_t are padded
    by repeating the last frame.
    """
    if target_t < 1:
        raise ValueError("target_t must be >= 1")
    t = clip.num_frames
    if t < target_t:
        pad = np.repeat(clip.frames[-1:], target_t - t, axis=0)
        frames = np.concatenate([clip.frames, pad])
    elif target_t == 1:
        frames = clip.frames[:1].copy()
    else:
        idx = np.round(np.arange(target_t) * (t - 1) / (target_t - 1)).astype(int)
        frames = clip.frames[idx].copy()
    return Clip(frames, fps=clip.fps, source_id=clip.source_id,
                start_frame=clip.start_frame)
