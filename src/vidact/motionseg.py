"""Per-pixel background model, foreground masks, morphology, and
connected-component person detection for fixed-camera scenes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])


class ExtentError(ValueError):
    pass


@dataclass
class Detection:
    """Axis-aligned box (x, y, w, h) of a moving blob in one frame."""

    box: tuple[int, int, int, int]
    area: int
    frame_index: int = 0


def to_gray(frame: np.ndarray) -> np.ndarray:
    """(C, H, W) in [0,1] -> (H, W) luminance."""
    if frame.ndim == 2:
        return frame
    if frame.shape[0] == 1:
        return frame[0]
    if frame.shape[0] == 3:
        return np.tensordot(GRAY_WEIGHTS, frame, axes=1)
    raise ExtentError(f"expected 1 or 3 channels, got {frame.shape[0]}")


class BackgroundModel:
    """Exponential running-mean background over grayscale frames."""

    def __init__(self, height: int, width: int, alpha: float = 0.05,
                 threshold: float = 0.1):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.mean = np.zeros((height, width), dtype=np.float64)
        self.alpha = alpha
        self.threshold = threshold

    def _check(self, frame: np.ndarray):
        if frame.shape != self.mean.shape:
            raise ExtentError(
                f"frame extents {frame.shape} != model extents {self.mean.shape}")

    def seed(self, frame: np.ndarray) -> None:
        """Optional warm start: adopt a frame as the initial mean."""
        self._check(frame)
        self.mean = frame.astype(np.float64).copy()

    def update(self, frame: np.ndarray) -> None:
        """mean <- (1 - alpha) * mean + alpha * frame."""
        self._check(frame)
        self.mean = (1 - self.alpha) * self.mean + self.alpha * frame

    def update_masked(self, frame: np.ndarray, fg_mask: np.ndarray,
                      fg_scale: float = 0.1) -> None:
        """Selective update: foreground pixels are absorbed at a reduced
        rate so moving objects do not smear into the background."""
        self._check(frame)
        a = np.where(fg_mask, self.alpha * fg_scale, self.alpha)
        self.mean = (1 - a) * self.mean + a * frame

    def foreground_mask(self, frame: np.ndarray) -> np.ndarray:
        """Binary H x W mask of pixels deviating from the background mean."""
        self._check(frame)
        return np.abs(frame - self.mean) > self.threshold


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    h, w = mask.shape
    padded = np.zeros((h + 2 * radius, w + 2 * radius), dtype=bool)
    padded[radius : radius + h, radius : radius + w] = mask
    out = np.zeros_like(mask)
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            out |= padded[dy : dy + h, dx : dx + w]
    return out


def _erode(mask: np.ndarray, radius: int) -> np.ndarray:
    return ~_dilate(~mask, radius)


def morph(mask: np.ndarray, op: str, radius: int = 1) -> np.ndarray:
    """Opening/closing with a square structuring element of the given radius."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if op == "open":
        return _dilate(_erode(mask, radius), radius)
    if op == "close":
        return _erode(_dilate(mask, radius), radius)
    raise ValueError(f"unknown morphology op {op!r}")


def connected_components(mask: np.ndarray, min_area: int = 64,
                         frame_index: int = 0) -> list[Detection]:
    """8-connected components with tight boxes, smallest dropped.

    Run-based two-pass labeling (Wu, Otoo & Suzuki 2005). Each row's
    foreground runs come from `np.diff` over the mask padded by one column;
    runs in adjacent rows that overlap under 8-connectivity are united, the
    smaller run index winning, so every component's root is its first run.
    Areas and boxes are reduced over the runs, and detections are ordered by
    root run: the scan position of each component's first pixel.
    """
    h, w = mask.shape
    padded = np.zeros((h, w + 2), dtype=np.int8)
    padded[:, 1:-1] = np.asarray(mask, dtype=bool)
    edges = np.diff(padded, axis=1)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1]          # exclusive
    if not len(rows):
        return []
    first = np.searchsorted(rows, np.arange(h + 1)).tolist()
    s, e = starts.tolist(), ends.tolist()
    parent = list(range(len(s)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for r in range(1, h):
        i, i_stop, j, j_stop = first[r - 1], first[r], first[r], first[r + 1]
        while i < i_stop and j < j_stop:
            if s[j] <= e[i] and s[i] <= e[j]:
                ri, rj = find(i), find(j)
                if ri < rj:
                    parent[rj] = ri
                elif rj < ri:
                    parent[ri] = rj
            # The run that ends first can overlap no later run of the other row.
            if e[i] < e[j]:
                i += 1
            else:
                j += 1
    roots, label = np.unique([find(i) for i in range(len(s))],
                             return_inverse=True)
    area = np.bincount(label, weights=ends - starts).astype(np.int64)
    x0 = np.full(len(roots), w)
    np.minimum.at(x0, label, starts)
    x1 = np.zeros(len(roots), dtype=np.int64)
    np.maximum.at(x1, label, ends)
    y1 = np.zeros(len(roots), dtype=np.int64)
    np.maximum.at(y1, label, rows)
    y0 = rows[roots]
    keep = area >= min_area
    return [Detection(box=(bx, by, bw, bh), area=a, frame_index=frame_index)
            for bx, by, bw, bh, a in zip(
                x0[keep].tolist(), y0[keep].tolist(),
                (x1 - x0)[keep].tolist(), (y1 - y0 + 1)[keep].tolist(),
                area[keep].tolist())]


def detect_people(model: BackgroundModel, frame_gray: np.ndarray,
                  min_area: int = 64, morph_radius: int = 1,
                  frame_index: int = 0) -> tuple[list[Detection], np.ndarray]:
    """Mask -> open (denoise) -> close (fill) -> components. Returns both."""
    mask = model.foreground_mask(frame_gray)
    mask = morph(mask, "open", morph_radius)
    mask = morph(mask, "close", morph_radius)
    return connected_components(mask, min_area, frame_index), mask
