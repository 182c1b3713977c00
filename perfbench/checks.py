"""Output checkers for the benchmark workloads.

Each checker compares what the vidact CLI wrote with a computation made
apart from the program (the generator's ground truth, the shot cuts, a
central difference) or with a property the method must have. Every checker
returns a list of problems; an empty list means the output is right. Nothing
here imports vidact: the network is used only through its public
forward/backward/params interface.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

IOU_MIN = 0.3          # a track overlaps a person at IoU >= this
COVER_MIN_FRAMES = 5   # overlapping frames that make a track cover a person
BOUNDARY_TOL = 2       # frames a shot boundary may sit from the cut
CONF_TOL = 1e-6        # summary.json rounds confidences to 6 decimals
GRAD_RTOL = 1e-3       # directional derivative agreement in float64


def iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def read_tracks(path: Path) -> dict[int, dict[int, tuple]]:
    """tracks.jsonl -> track id -> frame -> box."""
    tracks: dict[int, dict[int, tuple]] = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        tracks.setdefault(rec["track"], {})[rec["frame"]] = tuple(rec["box"])
    return tracks


def _hits(track: dict, boxes: dict, frames) -> int:
    return sum(1 for t in frames
               if t in track and iou(track[t], boxes[t]) >= IOU_MIN)


def match_people(tracks: dict, people: dict, warmup: int):
    """(problems, person id -> its track id).

    people maps person id -> frame -> ground-truth box. Each person needs one
    track that overlaps it on more than half of its visible frames from
    `warmup` on, and no track may cover two people.
    """
    problems, best = [], {}
    for pid, boxes in people.items():
        visible = [t for t in boxes if t >= warmup]
        hits = {tid: _hits(track, boxes, visible)
                for tid, track in tracks.items()}
        tid = max(hits, key=lambda k: (hits[k], -k), default=None)
        if tid is None or 2 * hits[tid] <= len(visible):
            problems.append(
                f"person {pid}: no track overlaps it on most of its "
                f"{len(visible)} visible frames "
                f"(best {hits.get(tid, 0) if tid is not None else 0})")
        else:
            best[pid] = tid
    for tid, track in tracks.items():
        covered = [pid for pid, boxes in people.items()
                   if _hits(track, boxes, boxes) >= COVER_MIN_FRAMES]
        if len(covered) > 1:
            problems.append(f"track {tid} covers people {covered}")
    return problems, best


def _confidence_problems(where: str, events: list, k: int) -> list[str]:
    return [f"{where}: confidence {e['confidence']} outside [1/{k}, 1]"
            for e in events
            if not 1.0 / k - CONF_TOL <= e["confidence"] <= 1.0 + CONF_TOL]


def check_person_events(summary: dict, tracks: dict, best: dict,
                        true_actions: dict) -> list[str]:
    """Per-person timelines of `vidact recognize`.

    Every subject's events lie in order within its track's span and carry a
    confidence in [1/k, 1]; every person in `true_actions` (person id ->
    action name) has that action as its track's dominant action.
    """
    problems = []
    k = len(summary["labels"])
    subjects = {s["id"]: s for s in summary["subjects"]}
    for sid, subject in subjects.items():
        where = f"subject {sid}"
        if sid not in tracks:
            problems.append(f"{where}: no such track")
            continue
        first, last = min(tracks[sid]), max(tracks[sid])
        pos = first
        for e in subject["events"]:
            if not pos <= e["start"] < e["end"] <= last + 1:
                problems.append(
                    f"{where}: event [{e['start']}, {e['end']}) out of order "
                    f"or outside its track's span [{first}, {last}]")
            pos = max(pos, e["end"])
        problems += _confidence_problems(where, subject["events"], k)
    for pid, action in true_actions.items():
        subject = subjects.get(best.get(pid))
        if subject is None or not subject["events"]:
            problems.append(f"person {pid}: no timeline for its track")
            continue
        durations: dict[str, int] = {}
        for e in subject["events"]:
            durations[e["action"]] = durations.get(e["action"], 0) \
                + e["end"] - e["start"]
        dominant = max(durations, key=durations.get)
        if dominant != action:
            problems.append(f"person {pid}: dominant action {dominant}, "
                            f"true action {action}")
    return problems


def check_shot_events(summary: dict, num_frames: int,
                      cuts: list[int]) -> list[str]:
    """Shot timeline of `vidact classify`: one event per shot, each boundary
    within BOUNDARY_TOL frames of its cut, events partitioning
    [0, num_frames), confidences in [1/k, 1]."""
    if len(summary["subjects"]) != 1:
        return [f"expected one shot subject, got {len(summary['subjects'])}"]
    events = summary["subjects"][0]["events"]
    problems = []
    if len(events) != len(cuts) + 1:
        problems.append(f"{len(events)} events for {len(cuts) + 1} shots")
    for i, (e, cut) in enumerate(zip(events[1:], cuts)):
        if abs(e["start"] - cut) > BOUNDARY_TOL:
            problems.append(f"shot {i + 1} starts at {e['start']}, cut at {cut}")
    pos = 0
    for e in events:
        if e["start"] != pos or e["end"] <= e["start"]:
            problems.append(f"event [{e['start']}, {e['end']}) leaves a gap "
                            f"or overlap at frame {pos}")
        pos = e["end"]
    if pos != num_frames:
        problems.append(f"events end at {pos}, video has {num_frames} frames")
    return problems + _confidence_problems("shot", events,
                                           len(summary["labels"]))


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """(mean softmax cross-entropy in float64, its gradient wrt the logits)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = len(labels)
    loss = -float(np.mean(log_probs[np.arange(n), labels]))
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def directional_derivatives(network, x: np.ndarray, y: np.ndarray,
                            seed: int, h: float = 1e-7):
    """(central difference, backward's gradient) of the loss along one
    random unit direction in parameter space. Use a float64 network.

    The step is small so that it seldom carries a PReLU input or a pooling
    winner across a kink: at h = 1e-5, 2 of 10 trained train-3d networks
    differed by 3e-4 to 5e-4, at 1e-7 by under 1e-6.
    """
    params = network.params()
    rng = np.random.default_rng(seed)
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]

    network.zero_grads()
    _, d_logits = cross_entropy(network.forward(x), y)
    network.backward(d_logits)
    analytic = sum(float(np.vdot(p.grad, d)) for p, d in zip(params, direction))

    base = [p.data for p in params]

    def loss_at(step):
        for p, b, d in zip(params, base, direction):
            p.data = b + step * d
        loss, _ = cross_entropy(network.forward(x), y)
        for p, b in zip(params, base):
            p.data = b
        return loss

    numeric = (loss_at(h) - loss_at(-h)) / (2 * h)
    return numeric, analytic


def check_gradient(numeric: float, analytic: float) -> list[str]:
    if abs(numeric - analytic) <= GRAD_RTOL * max(abs(numeric), 1e-12):
        return []
    return [f"directional derivative {numeric:.8g} (central difference) "
            f"!= {analytic:.8g} (Network.backward)"]
