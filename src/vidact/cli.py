"""Command-line front door for the whole pipeline.

Subcommands: gen-data, pack, train, eval, recognize (surveillance mode),
classify (whole-video mode), summarize. Exit codes: 0 success, 1 internal
error, 2 user error (a bad flag or config value, or a bad input file).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import motionseg, synth
from .config import ConfigError, PipelineConfig, load_config
from .kcf import KcfConfig
from .network import (CheckpointError, NetworkSpec, SpecError, TrainConfig,
                      build_network, evaluate, load_checkpoint, predict,
                      save_checkpoint, train)
from .sequences import compute_mhi, person_crop, subsample_time
from .summarize import (Subject, Summary, build_person_timeline,
                        build_shot_timeline, export, smooth_predictions,
                        summary_from_json)
from .tracking import MultiTracker, dump_tracks
from .videoio import (SPLIT_PRESETS, Clip, ClipArchive, FormatError,
                      StratificationError, load_frame_dir, pack_clip_archive,
                      read_clip_archive, resize_clip, split_dataset,
                      window_frames, write_pnm)


class UserError(Exception):
    """Problems the user can fix (missing files, bad flags)."""


# -- shared helpers ----------------------------------------------------------


def network_spec(cfg: PipelineConfig, variant: str) -> NetworkSpec:
    if variant == "mhi":
        return NetworkSpec(mode="2d",
                           input_shape=(1, cfg.input_size, cfg.input_size),
                           encoder_channels=cfg.channels("enc"),
                           head_channels=cfg.channels("head"),
                           fc_width=cfg.fc_width, num_classes=cfg.num_classes)
    return NetworkSpec(mode="3d",
                       input_shape=(3, cfg.input_frames, cfg.input_size,
                                    cfg.input_size),
                       encoder_channels=cfg.channels("enc"),
                       head_channels=cfg.channels("head"),
                       fc_width=cfg.fc_width, num_classes=cfg.num_classes)


def clip_to_input(clip: Clip, cfg: PipelineConfig, variant: str) -> np.ndarray:
    """One clip -> one network input sample."""
    clip = resize_clip(clip, cfg.input_size, cfg.input_size)
    if variant == "mhi":
        if clip.frames.shape[1] == 1 and clip.num_frames == 1:
            return clip.frames[0].astype(np.float32)      # pre-computed MHI
        mhi = compute_mhi(clip, tau=cfg.mhi_tau, threshold=cfg.mhi_threshold)
        return mhi.values[None].astype(np.float32)
    clip = subsample_time(clip, cfg.input_frames)
    return np.transpose(clip.frames, (1, 0, 2, 3)).astype(np.float32)


def _read_archive(path: str) -> ClipArchive:
    """The clip archive at path; one without clips is a user error."""
    archive = read_clip_archive(path)
    if not archive.clips:
        raise UserError(f"{path}: archive holds no clips")
    return archive


def archive_to_arrays(archive: ClipArchive, cfg: PipelineConfig,
                      variant: str) -> tuple[np.ndarray, np.ndarray]:
    xs = [clip_to_input(c, cfg, variant) for c in archive.clips]
    return np.stack(xs), np.asarray(archive.labels, dtype=np.int64)


def derive_bs(clip: Clip, cfg: PipelineConfig) -> Clip:
    """Background-zeroed variant via a temporal-median background model."""
    gray = np.stack([motionseg.to_gray(f) for f in clip.frames])
    model = motionseg.BackgroundModel(*gray.shape[1:], alpha=cfg.bg_alpha,
                                      threshold=cfg.bg_threshold)
    model.seed(np.median(gray, axis=0))
    frames = np.empty_like(clip.frames)
    for t in range(clip.num_frames):
        mask = model.foreground_mask(gray[t])
        mask = motionseg.morph(mask, "close", cfg.morph_radius)
        frames[t] = clip.frames[t] * mask[None]
    return Clip(frames, fps=clip.fps, source_id=clip.source_id,
                start_frame=clip.start_frame)


def shot_boundaries(energy, threshold: float) -> list[int]:
    """Shot cuts from per-pair energies: energy[t] is the mean |difference|
    of frames t and t + 1. Frame t + 1 starts a shot when energy[t] is above
    the threshold and energy[t - 1] is not, so a run of spikes (a gradual
    cut) gives only its first frame."""
    spikes = np.nonzero(np.asarray(energy) > threshold)[0]
    return [int(t) + 1 for i, t in enumerate(spikes)
            if i == 0 or t > spikes[i - 1] + 1]


def _load_model(cfg: PipelineConfig, labels_path: str | None = None):
    """The checkpoint's network, its input variant (mhi for a 2D network) and
    the label names of the archive at labels_path, else class0, class1, ..."""
    if not cfg.checkpoint:
        raise UserError("no checkpoint configured (set checkpoint=...)")
    if not Path(cfg.checkpoint).exists():
        raise UserError(f"checkpoint not found: {cfg.checkpoint}")
    network, _, _, _ = load_checkpoint(cfg.checkpoint)
    variant = "mhi" if network.spec.mode == "2d" else cfg.input_variant
    labels = (read_clip_archive(labels_path).label_names if labels_path
              else [f"class{i}" for i in range(network.spec.num_classes)])
    return network, variant, labels


# -- subcommands -------------------------------------------------------------


def cmd_gen_data(cfg: PipelineConfig, args) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    clips, labels = synth.make_action_dataset(
        args.clips_per_class, num_frames=args.frames, canvas=cfg.input_size,
        seed=cfg.seed)
    rgb = ClipArchive(label_names=list(synth.ACTIONS), clips=clips,
                      labels=labels)
    pack_clip_archive(rgb, out / "rgb.a3dc")
    bs_clips, mhi_clips = [], []
    for clip in clips:
        bs = derive_bs(clip, cfg)
        bs_clips.append(bs)
        mhi = compute_mhi(bs, tau=cfg.mhi_tau, threshold=cfg.mhi_threshold)
        mhi_clips.append(Clip(mhi.values[None, None].astype(np.float32),
                              fps=clip.fps, source_id=clip.source_id))
    pack_clip_archive(ClipArchive(list(synth.ACTIONS), bs_clips, labels),
                      out / "bs.a3dc")
    pack_clip_archive(ClipArchive(list(synth.ACTIONS), mhi_clips, labels),
                      out / "mhi.a3dc")
    print(f"wrote {len(clips)} clips per variant to {out}")
    return 0


def cmd_pack(cfg: PipelineConfig, args) -> int:
    root = Path(args.input)
    if not root.is_dir():
        raise UserError(f"not a directory: {root}")
    label_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not label_dirs:
        raise UserError(f"{root}: no label subdirectories")
    names = [p.name for p in label_dirs]
    archive = ClipArchive(label_names=names)
    for li, label_dir in enumerate(label_dirs):
        for clip_dir in sorted(p for p in label_dir.iterdir() if p.is_dir()):
            archive.clips.append(load_frame_dir(clip_dir, fps=cfg.fps).clip())
            archive.labels.append(li)
    pack_clip_archive(archive, args.output)
    print(f"packed {len(archive)} clips, {len(names)} labels -> {args.output}")
    return 0


def _split_archive(archive: ClipArchive, cfg: PipelineConfig):
    if cfg.split not in SPLIT_PRESETS:
        raise UserError(f"unknown split preset {cfg.split!r}")
    idx = list(range(len(archive)))
    return split_dataset(idx, archive.labels, SPLIT_PRESETS[cfg.split],
                         cfg.seed)


def cmd_train(cfg: PipelineConfig, args) -> int:
    archive = _read_archive(args.data)
    if cfg.num_classes < len(archive.label_names):
        raise UserError(f"archive has {len(archive.label_names)} labels but "
                        f"num_classes={cfg.num_classes}")
    variant = cfg.input_variant
    x, y = archive_to_arrays(archive, cfg, variant)
    tr, va, te = _split_archive(archive, cfg)
    print(f"split {cfg.split}: train={len(tr)} val={len(va)} test={len(te)}")
    spec = network_spec(cfg, variant)
    network = build_network(spec, seed=cfg.seed)
    tc = TrainConfig(lr=cfg.lr, batch=cfg.batch, epochs=cfg.epochs,
                     seed=cfg.seed, early_stop_acc=cfg.early_stop_acc)
    history = train(network, x[tr], y[tr], tc, x_val=x[va], y_val=y[va],
                    log=print)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = cfg.checkpoint or str(out / f"{variant}.a3dw")
    save_checkpoint(network, ckpt, epoch=len(history), history=history)
    with open(out / f"metrics_{variant}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "loss", "accuracy"])
        for rec in history:
            writer.writerow([rec["epoch"], "train",
                             f"{rec['train_loss']:.6f}",
                             f"{rec['train_acc']:.6f}"])
            if "val_acc" in rec:
                writer.writerow([rec["epoch"], "val", "",
                                 f"{rec['val_acc']:.6f}"])
    if te:
        acc, _ = evaluate(network, x[te], y[te], cfg.batch)
        print(f"test accuracy: {acc:.4f}")
    print(f"checkpoint: {ckpt}")
    return 0


def cmd_eval(cfg: PipelineConfig, args) -> int:
    network, variant, _ = _load_model(cfg)
    archive = _read_archive(args.data)
    x, y = archive_to_arrays(archive, cfg, variant)
    if args.test_split_only:
        _, _, te = _split_archive(archive, cfg)
        x, y = x[te], y[te]
    acc, confusion = evaluate(network, x, y, cfg.batch)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "confusion.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + archive.label_names)
        for name, row in zip(archive.label_names, confusion):
            writer.writerow([name] + [int(v) for v in row])
    print(f"accuracy: {acc:.4f} over {len(x)} clips")
    return 0


def _open_video(cfg: PipelineConfig, args):
    """Set-up shared by recognize and classify. Returns the model's input
    variant, the window length in frames, new_windows (each call gives an
    empty TrackWindows that turns stacked crops into the model's input and
    classifies the inputs with predict at cfg.batch), the frame directory
    opened lazily, the out-dir (created) and an empty summary. A window or
    stride under one frame, or an mhi window under two frames, is a
    ConfigError, raised before any frame is read."""
    network, variant, labels = _load_model(cfg, args.labels)
    try:
        clip_frames, stride = window_frames(cfg.fps, cfg.clip_seconds,
                                            cfg.stride_seconds)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if variant == "mhi" and clip_frames < 2:
        raise ConfigError(f"clip_seconds={cfg.clip_seconds} is {clip_frames} "
                          f"frame at {cfg.fps} fps; a motion history image "
                          f"needs windows of at least two frames")
    frames = load_frame_dir(args.input, fps=cfg.fps)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = Summary(video_id=str(args.input), fps=frames.fps, labels=labels)

    def to_input(stack: np.ndarray) -> np.ndarray:
        return clip_to_input(Clip(stack, fps=frames.fps), cfg, variant)

    def classify(xs: np.ndarray):
        return predict(network, xs, cfg.batch)

    def new_windows() -> TrackWindows:
        return TrackWindows(clip_frames, stride, cfg.batch, to_input,
                            classify)

    return variant, clip_frames, new_windows, frames, out, summary


class TrackWindows:
    """One sequence's windows, classified as its crops arrive. The crops are
    a track's person crops in recognize and the video's frames in classify.

    The windows are those `segment_into_clips` cuts from the stacked
    sequence: clip_frames long, stride apart, by index, the final partial
    window dropped. Only the crops that no finished window covers yet are
    held. A window becomes its network input as soon as it fills (to_input:
    stacked crops -> one sample), and the inputs go to classify (stacked
    inputs -> labels, confidences) in groups of `batch`: the batches that
    `predict` cuts from all of the sequence's inputs, so the results are too.
    """

    def __init__(self, clip_frames: int, stride: int, batch: int, to_input,
                 classify):
        self.clip_frames = clip_frames
        self.stride = stride
        self.batch = batch
        self.to_input = to_input
        self.classify = classify
        self.crops: list[np.ndarray] = []   # from crop index next_start on
        self.next_start = 0
        self.pushed = 0
        self.inputs: list[np.ndarray] = []  # not yet classified
        self.starts: list[int] = []         # crop index of each window
        self.preds: list[int] = []
        self.confs: list[float] = []

    def push(self, crop: np.ndarray) -> None:
        if self.pushed >= self.next_start:  # else in a gap (stride > clip)
            self.crops.append(crop)
        self.pushed += 1
        if len(self.crops) == self.clip_frames:
            self.inputs.append(self.to_input(np.stack(self.crops)))
            self.starts.append(self.next_start)
            self.next_start += self.stride
            del self.crops[:self.stride]
            if len(self.inputs) == self.batch:
                self._classify()

    def _classify(self) -> None:
        preds, confs = self.classify(np.stack(self.inputs))
        self.preds += preds
        self.confs += confs
        self.inputs.clear()

    def finish(self) -> tuple[list[int], list[float], list[int]]:
        """Labels, confidences and start crop indices of all windows, once
        no more crops will come; later calls return the same. A track that
        never filled a window gets one window of all its crops."""
        if not self.starts:
            self.inputs.append(self.to_input(np.stack(self.crops)))
            self.starts.append(0)
        self.crops.clear()
        if self.inputs:
            self._classify()
        return self.preds, self.confs, self.starts


def cmd_recognize(cfg: PipelineConfig, args) -> int:
    """Surveillance mode: detect, track and label each person.

    The video is processed one frame at a time: decode, segment, track, then
    cut a crop for each track with a state at this frame (only the crop the
    variant reads). Each track's crops feed its TrackWindows, which turns
    each window into its network input as it fills and classifies the inputs
    a full batch at a time, and classifies the rest when the track closes.
    What is held depends on the people in view, the window length and the
    batch size, not on the video's length, apart from each track's recorded
    boxes and each window's label and confidence. After the last frame,
    tracks seen in fewer than two frames are skipped and the rest become
    timelines.
    """
    variant, clip_frames, new_windows, frames, out, summary = \
        _open_video(cfg, args)
    model = motionseg.BackgroundModel(*frames.shape[1:],
                                      alpha=cfg.bg_alpha,
                                      threshold=cfg.bg_threshold)
    tracker = MultiTracker(iou_threshold=cfg.iou_threshold,
                           max_miss=cfg.max_miss, min_area=cfg.min_area,
                           kcf_config=KcfConfig(patch_size=cfg.kcf_patch,
                                                sigma=cfg.kcf_sigma,
                                                lambda_=cfg.kcf_lambda,
                                                interp=cfg.kcf_interp))
    windows: dict[int, TrackWindows] = {}
    debug_dir = Path(cfg.debug_dir) if cfg.debug_dir else None
    if debug_dir:
        debug_dir.mkdir(parents=True, exist_ok=True)
    for t, frame in enumerate(frames):
        gray = motionseg.to_gray(frame)
        if t == 0:
            model.seed(gray)
        detections, mask = motionseg.detect_people(
            model, gray, min_area=cfg.min_area,
            morph_radius=cfg.morph_radius, frame_index=t)
        if debug_dir:
            write_pnm(debug_dir / f"mask_{t:06d}.pgm",
                      (mask * 255).astype(np.uint8))
        if t >= cfg.warmup_frames:
            closed = len(tracker.closed)
            for track in tracker.step(gray, detections, t):
                if track.states[-1][0] == t:
                    if track.id not in windows:
                        windows[track.id] = new_windows()
                    windows[track.id].push(person_crop(
                        frame, track.box, cfg.input_size,
                        None if variant == "rgb" else mask))
            # A closed track gets no more crops: classify what it holds now
            # (a track seen in one frame is skipped below, so drop it).
            for track in tracker.closed[closed:]:
                if len(track.states) < 2:
                    del windows[track.id]
                else:
                    windows[track.id].finish()
        model.update_masked(gray, mask)

    tracks = tracker.all_tracks()
    dump_tracks(tracks, out / "tracks.jsonl")
    win = max(2, clip_frames)
    for track in tracks:
        if len(track.states) < 2:
            print(f"track {track.id}: too short, skipped")
            continue
        preds, confs, starts = windows[track.id].finish()
        preds = smooth_predictions(preds, cfg.smooth_window)
        first, end = track.states[0][0], track.states[-1][0] + 1
        spans = [(first + s, min(first + s + win, end)) for s in starts]
        events = build_person_timeline(preds, confs, spans, summary.labels)
        summary.subjects.append(Subject(id=track.id, kind="person",
                                        events=events))
    export(summary, "json", out / "summary.json")
    export(summary, "svg", out / "summary.svg")
    print(f"{len(summary.subjects)} person timeline(s) -> {out / 'summary.json'}")
    return 0


def cmd_classify(cfg: PipelineConfig, args) -> int:
    """Whole-video mode: label each window of the video, then split it into
    shots, each labeled by the majority of the windows centred in it.

    The video is read one frame at a time, in one pass. Each frame goes to
    one TrackWindows, which cuts the windows from frame 0, clip_frames long
    and stride apart (the final partial window dropped), and classifies
    them a full batch at a time. The mean |difference| of each consecutive
    frame pair is kept for shot_boundaries. What is held depends on the
    window length and the batch size, not on the video's length, apart from
    one energy per frame pair and each window's label and confidence. A
    video shorter than one window gives an empty summary.
    """
    _, clip_frames, new_windows, frames, out, summary = _open_video(cfg, args)
    windows = new_windows()
    energy = []
    prev = None
    for frame in frames:
        if prev is not None:
            energy.append(np.mean(np.abs(frame - prev)))
        windows.push(frame)
        prev = frame
    if windows.starts:
        preds, confs, starts = windows.finish()
        spans = [(start, start + clip_frames) for start in starts]
        bounds = shot_boundaries(energy, cfg.shot_energy_threshold)
        events = build_shot_timeline(frames.num_frames, bounds, preds, spans,
                                     confs, summary.labels)
        summary.subjects.append(Subject(id=0, kind="shot", events=events))
    else:
        print("warning: video shorter than one clip; empty summary")
    export(summary, "json", out / "summary.json")
    export(summary, "svg", out / "summary.svg")
    n_events = sum(len(s.events) for s in summary.subjects)
    print(f"{n_events} shot event(s) -> {out / 'summary.json'}")
    return 0


def cmd_summarize(cfg: PipelineConfig, args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise UserError(f"summary not found: {path}")
    summary = summary_from_json(path.read_text())
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export(summary, "svg", out / (path.stem + ".svg"))
    print(f"rendered {out / (path.stem + '.svg')}")
    return 0


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vidact",
        description="Multi-person action recognition and summarization for "
                    "fixed-camera video.")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override one config key (repeatable)")
    parser.add_argument("--out-dir", help="output directory")
    parser.add_argument("--seed", type=int, help="global random seed")
    parser.add_argument("--checkpoint", help="checkpoint path")
    parser.add_argument("--debug-dir", help="dump foreground masks here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic clip dataset")
    p.add_argument("--clips-per-class", type=int, default=50)
    p.add_argument("--frames", type=int, default=32)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pack", help="pack frame directories into an archive")
    p.add_argument("input", help="root dir: one subdir per label")
    p.add_argument("output", help="archive path (.a3dc)")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("train", help="train a model on a clip archive")
    p.add_argument("data", help="clip archive (.a3dc)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on an archive")
    p.add_argument("data", help="clip archive (.a3dc)")
    p.add_argument("--test-split-only", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("recognize",
                       help="surveillance mode: detect, track, recognize")
    p.add_argument("input", help="frame directory")
    p.add_argument("--labels", help="archive providing label names")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("classify", help="whole-video shot classification")
    p.add_argument("input", help="frame directory")
    p.add_argument("--labels", help="archive providing label names")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("summarize", help="re-render a summary JSON as SVG")
    p.add_argument("input", help="summary.json")
    p.set_defaults(func=cmd_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(f"error: --set expects K=V, got {item!r}", file=sys.stderr)
            return 2
        k, v = item.split("=", 1)
        overrides[k.strip()] = v.strip()
    if args.out_dir:
        overrides["out_dir"] = args.out_dir
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.checkpoint:
        overrides["checkpoint"] = args.checkpoint
    if args.debug_dir:
        overrides["debug_dir"] = args.debug_dir
    try:
        cfg = load_config(args.config, overrides)
        return args.func(cfg, args)
    except (ConfigError, UserError, FileNotFoundError, FormatError,
            CheckpointError, SpecError, StratificationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
