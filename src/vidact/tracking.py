"""Multi-target tracking: greedy IoU matching of detections to each track's
last recorded box, KCF coasting of unmatched tracks, miss-count lifecycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kcf import KcfConfig, kcf_init, kcf_update
from .motionseg import Detection


def iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


@dataclass
class Track:
    id: int
    states: list[tuple[int, tuple[float, float, float, float]]] = field(
        default_factory=list)
    misses: int = 0
    status: str = "active"
    kcf: object = None

    @property
    def box(self):
        return self.states[-1][1]

    def record(self, frame_index: int, box):
        if self.states and frame_index <= self.states[-1][0]:
            raise ValueError("frame indices must be strictly increasing")
        self.states.append((frame_index, tuple(float(v) for v in box)))


def associate(tracks: list[Track], detections: list[Detection],
              iou_threshold: float = 0.3):
    """Greedy matching in descending IoU order, ties by track then detection
    index.

    The track x detection IoU matrix is computed at once in float64, in the
    same operation order as `iou`. Returns (matches, unmatched_tracks,
    unmatched_detections) where matches pairs track list indices with
    detection list indices.
    """
    matches, used_t, used_d = [], set(), set()
    if tracks and detections:
        ax, ay, aw, ah = np.array([t.box for t in tracks],
                                  dtype=np.float64).T[:, :, None]
        bx, by, bw, bh = np.array([d.box for d in detections],
                                  dtype=np.float64).T[:, None, :]
        ix = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
        iy = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
        inter = ix * iy
        union = aw * ah + bw * bh - inter
        v = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
        ti, di = np.nonzero(v >= iou_threshold)
        order = np.lexsort((di, ti, -v[ti, di]))
        for t, d in zip(ti[order].tolist(), di[order].tolist()):
            if t in used_t or d in used_d:
                continue
            used_t.add(t)
            used_d.add(d)
            matches.append((t, d))
    unmatched_t = [i for i in range(len(tracks)) if i not in used_t]
    unmatched_d = [i for i in range(len(detections)) if i not in used_d]
    return matches, unmatched_t, unmatched_d


class MultiTracker:
    """Owns track lifecycle across a video. Ids are never reused."""

    def __init__(self, iou_threshold: float = 0.3, max_miss: int = 10,
                 min_area: int = 64, kcf_config: KcfConfig | None = None):
        self.iou_threshold = iou_threshold
        self.max_miss = max_miss
        self.min_area = min_area
        self.kcf_config = kcf_config or KcfConfig()
        self.tracks: list[Track] = []
        self.closed: list[Track] = []
        self._next_id = 1

    def step(self, frame: np.ndarray, detections: list[Detection],
             frame_index: int) -> list[Track]:
        """Advance one frame. Detections match each track's last recorded
        box; a matched track stores a fresh KCF template from its detection,
        and only unmatched tracks run KCF, to coast, training the filter
        from that template on the first such frame. Then spawn and retire
        tracks; a retired track keeps its states but drops its filter."""
        matches, unmatched_t, unmatched_d = associate(
            self.tracks, detections, self.iou_threshold)

        for ti, di in matches:
            t = self.tracks[ti]
            det = detections[di]
            t.misses = 0
            t.record(frame_index, det.box)
            # Re-anchor the filter's template on the confirmed detection box.
            try:
                t.kcf = kcf_init(frame, det.box, self.kcf_config)
            except ValueError:
                pass
        for ti in unmatched_t:
            t = self.tracks[ti]
            t.misses += 1
            if t.misses <= self.max_miss and t.kcf is not None:
                box, _, lost = kcf_update(t.kcf, frame)
                if lost:
                    t.misses = self.max_miss + 1
                else:
                    t.record(frame_index, box)
        for di in unmatched_d:
            det = detections[di]
            if det.area < self.min_area:
                continue
            track = Track(id=self._next_id)
            self._next_id += 1
            track.record(frame_index, det.box)
            try:
                track.kcf = kcf_init(frame, det.box, self.kcf_config)
            except ValueError:
                track.kcf = None
            self.tracks.append(track)

        still_active = []
        for t in self.tracks:
            if t.misses > self.max_miss:
                t.status = "closed"
                t.kcf = None
                self.closed.append(t)
            else:
                still_active.append(t)
        self.tracks = still_active
        return self.tracks

    def all_tracks(self) -> list[Track]:
        return sorted(self.closed + self.tracks, key=lambda t: t.id)


def dump_tracks(tracks: list[Track], path: str | Path) -> None:
    """JSON lines: one object per (track id, frame, box)."""
    with open(path, "w") as fh:
        for t in sorted(tracks, key=lambda t: t.id):
            for frame_index, box in t.states:
                fh.write(json.dumps({"track": t.id, "frame": frame_index,
                                     "box": [round(v, 2) for v in box]}) + "\n")
