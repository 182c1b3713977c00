"""Spans and counters around the calls into each vidact layer.

Run as a script, it executes the vidact CLI in this process with every call
named in LAYERS wrapped in a span, then writes the spans and counters as
JSON:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json VIDACT_ARG...

The wrappers are installed from outside the program. Each function is
replaced in every vidact module that holds it under its name, because `cli`,
`kcf`, `sequences` and `tracking` import names directly (`from .kcf import
kcf_update`); methods are replaced on their class. Spans stay in memory
until the command returns. `layer_metrics` turns the JSON into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

import numpy as np

# Layer (a vidact module) -> the public calls spanned in it.
LAYERS = {
    "tensor_ops": ("conv_forward", "conv_backward", "maxpool_forward",
                   "maxpool_backward", "prelu_forward", "prelu_backward",
                   "linear_forward", "linear_backward",
                   "softmax_cross_entropy", "adam_step"),
    "network": ("Network.forward", "Network.backward", "train", "evaluate",
                "predict", "save_checkpoint", "load_checkpoint"),
    "videoio": ("load_frame_dir", "read_clip_archive", "resize_bilinear",
                "resize_clip", "segment_into_clips", "split_dataset"),
    "motionseg": ("to_gray", "BackgroundModel.seed",
                  "BackgroundModel.foreground_mask",
                  "BackgroundModel.update_masked", "morph",
                  "connected_components", "detect_people"),
    "kcf": ("kcf_init", "kcf_update"),
    "tracking": ("MultiTracker.step", "associate", "dump_tracks"),
    "sequences": ("extract_person_sequence", "compute_mhi",
                  "subsample_time"),
    "summarize": ("smooth_predictions", "build_person_timeline",
                  "build_shot_timeline", "export"),
    "cli": ("main", "shot_boundaries"),
}


def _conv_work(a, backward: bool) -> dict:
    """FLOPs and im2col column-matrix bytes that a conv call implies by its
    shapes: forward is one GEMM over one column matrix; backward is two GEMMs
    (dW and dX) over the rebuilt column matrix and its gradient."""
    x = a["x"]
    co, ci, kd, kh, kw = a["params"].kernel.data.shape
    n, spatial = x.shape[0], x.shape[2:]
    kernel = (kd, kh, kw)[-len(spatial):]
    out = 1
    for e, k, s, p in zip(spatial, kernel, a["params"].stride[-len(spatial):],
                          a["params"].padding[-len(spatial):]):
        out *= (e + 2 * p - k) // s + 1
    k_elems = ci * kd * kh * kw
    times = 2 if backward else 1
    return {"tensor_ops.conv_flops": times * 2 * n * co * k_elems * out,
            "tensor_ops.im2col_bytes": times * n * k_elems * out
            * x.dtype.itemsize}


def _tracker_step(a, result) -> dict:
    # A track whose kcf_update result is recorded is one left unmatched this
    # frame: it has misses > 0 and a state at this frame.
    t = a["frame_index"]
    used = sum(1 for tr in a["self"].tracks
               if tr.misses > 0 and tr.states and tr.states[-1][0] == t)
    return {"kcf.updates_used": used}


# Span name -> counters derived from the call's bound arguments and result.
COUNTERS = {
    "tensor_ops.conv_forward": lambda a, r: _conv_work(a, False),
    "tensor_ops.conv_backward": lambda a, r: _conv_work(a, True),
    "network.Network.forward":
        lambda a, r: {"network.forward.samples": len(a["x"])},
    "network.predict": lambda a, r: {"network.predict.windows": len(a["x"])},
    "videoio.load_frame_dir":
        lambda a, r: {"videoio.frames_loaded": r.num_frames},
    "motionseg.detect_people":
        lambda a, r: {"motionseg.detections": len(r[0])},
    "tracking.MultiTracker.step": _tracker_step,
    "tracking.dump_tracks": lambda a, r: {
        "tracking.tracks_opened": len(a["tracks"]),
        "tracking.tracks_closed": sum(t.status == "closed"
                                      for t in a["tracks"])},
    "summarize.build_person_timeline":
        lambda a, r: {"summarize.events": len(r)},
    "summarize.build_shot_timeline":
        lambda a, r: {"summarize.events": len(r)},
}


class Recorder:
    """In-memory spans: [name index, start, end, parent span index]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments, result).items():
                    counters[key] = counters.get(key, 0) + int(value)
            return result

        return spanned

    def install(self) -> list[str]:
        """Wrap every call in LAYERS; returns the names not found."""
        import vidact
        modules = [importlib.import_module(f"vidact.{m.name}")
                   for m in pkgutil.iter_modules(vidact.__path__)]
        missing = []
        for layer, calls in LAYERS.items():
            home = importlib.import_module(f"vidact.{layer}")
            for call in calls:
                owner_name, _, attr = call.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, attr, None)
                if original is None:
                    missing.append(f"{layer}.{call}")
                    continue
                wrapped = self.wrap(f"{layer}.{call}", original)
                setattr(owner, attr, wrapped)
                if not owner_name:
                    for module in modules:
                        if getattr(module, attr, None) is original:
                            setattr(module, attr, wrapped)
        return missing

    def to_json(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counters": self.counters}


def layer_metrics(doc: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a trace: name -> (value, unit).

    `<layer>.self_s` is the time inside the layer's spans not covered by
    their child spans; `<span>.s` is the total time inside the named calls.
    """
    names = doc["names"]
    spans = np.asarray(doc["spans"], dtype=np.float64).reshape(-1, 4)
    which = spans[:, 0].astype(int)
    parent = spans[:, 3].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    child = np.zeros(len(spans))
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    total = np.bincount(which, weights=dur, minlength=len(names))
    calls = np.bincount(which, minlength=len(names))
    self_by_name = np.bincount(which, weights=dur - child,
                               minlength=len(names))
    by_name = {n: i for i, n in enumerate(names)}
    counters = doc["counters"]

    def s(*calls_):
        return float(sum(total[by_name[c]] for c in calls_ if c in by_name))

    def n(call):
        return int(calls[by_name[call]]) if call in by_name else 0

    def self_s(layer):
        return float(sum(v for name, v in zip(names, self_by_name)
                         if name.startswith(layer + ".")))

    def c(key):
        return counters.get(key, 0)

    updates = n("kcf.kcf_update")
    return {
        "tensor_ops.self_s": (self_s("tensor_ops"), "s"),
        "tensor_ops.conv_forward.s": (s("tensor_ops.conv_forward"), "s"),
        "tensor_ops.conv_forward.calls": (n("tensor_ops.conv_forward"),
                                          "count"),
        "tensor_ops.conv_backward.s": (s("tensor_ops.conv_backward"), "s"),
        "tensor_ops.maxpool.s": (s("tensor_ops.maxpool_forward",
                                   "tensor_ops.maxpool_backward"), "s"),
        "tensor_ops.prelu.s": (s("tensor_ops.prelu_forward",
                                 "tensor_ops.prelu_backward"), "s"),
        "tensor_ops.adam_step.s": (s("tensor_ops.adam_step"), "s"),
        "tensor_ops.conv_flops": (c("tensor_ops.conv_flops"),
                                  "flop-computed"),
        "tensor_ops.im2col_bytes": (c("tensor_ops.im2col_bytes"),
                                    "bytes-computed"),
        "network.self_s": (self_s("network"), "s"),
        "network.forward.s": (s("network.Network.forward"), "s"),
        "network.forward.samples": (c("network.forward.samples"), "count"),
        "network.backward.s": (s("network.Network.backward"), "s"),
        "network.predict.windows": (c("network.predict.windows"), "count"),
        "network.checkpoint.s": (s("network.save_checkpoint",
                                   "network.load_checkpoint"), "s"),
        "videoio.self_s": (self_s("videoio"), "s"),
        "videoio.load_frame_dir.s": (s("videoio.load_frame_dir"), "s"),
        "videoio.frames_loaded": (c("videoio.frames_loaded"), "count"),
        "videoio.read_clip_archive.s": (s("videoio.read_clip_archive"), "s"),
        "videoio.resize_bilinear.s": (s("videoio.resize_bilinear"), "s"),
        "videoio.resize_bilinear.calls": (n("videoio.resize_bilinear"),
                                          "count"),
        "videoio.segment_into_clips.s": (s("videoio.segment_into_clips"),
                                         "s"),
        "motionseg.self_s": (self_s("motionseg"), "s"),
        "motionseg.connected_components.s":
            (s("motionseg.connected_components"), "s"),
        "motionseg.morph.s": (s("motionseg.morph"), "s"),
        "motionseg.background.s": (s("motionseg.BackgroundModel.seed",
                                     "motionseg.BackgroundModel.foreground_mask",
                                     "motionseg.BackgroundModel.update_masked"),
                                   "s"),
        "motionseg.to_gray.s": (s("motionseg.to_gray"), "s"),
        "motionseg.to_gray.calls": (n("motionseg.to_gray"), "count"),
        "motionseg.detections": (c("motionseg.detections"), "count"),
        "kcf.self_s": (self_s("kcf"), "s"),
        "kcf.kcf_update.s": (s("kcf.kcf_update"), "s"),
        "kcf.kcf_update.calls": (updates, "count"),
        "kcf.kcf_init.s": (s("kcf.kcf_init"), "s"),
        "kcf.kcf_init.calls": (n("kcf.kcf_init"), "count"),
        "kcf.updates_used": (c("kcf.updates_used"), "count"),
        "kcf.update_used_ratio": (c("kcf.updates_used") / updates
                                  if updates else 0.0, "ratio"),
        "tracking.self_s": (self_s("tracking"), "s"),
        "tracking.associate.s": (s("tracking.associate"), "s"),
        "tracking.tracks_opened": (c("tracking.tracks_opened"), "count"),
        "tracking.tracks_closed": (c("tracking.tracks_closed"), "count"),
        "sequences.self_s": (self_s("sequences"), "s"),
        "sequences.extract_person_sequence.s":
            (s("sequences.extract_person_sequence"), "s"),
        "sequences.compute_mhi.s": (s("sequences.compute_mhi"), "s"),
        "sequences.subsample_time.s": (s("sequences.subsample_time"), "s"),
        "summarize.self_s": (self_s("summarize"), "s"),
        "summarize.export.s": (s("summarize.export"), "s"),
        "summarize.events": (c("summarize.events"), "count"),
        "cli.command.s": (s("cli.main"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.shot_boundaries.s": (s("cli.shot_boundaries"), "s"),
    }


def main(argv: list[str]) -> int:
    out, vidact_args = argv[0], argv[1:]
    recorder = Recorder()
    missing = recorder.install()
    if missing:
        print(f"tracing: not found, not spanned: {', '.join(missing)}",
              file=sys.stderr)
    import vidact.cli
    try:
        return vidact.cli.main(vidact_args)
    finally:
        with open(out, "w") as fh:
            json.dump(recorder.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
