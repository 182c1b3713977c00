"""Deterministic synthetic scene and action-clip generator.

Sprites are textured patches animated by one of six motion patterns (the
action classes); scenes composite several sprites over a textured background
and come with exact per-frame ground truth (boxes, identities, actions).
Everything is a pure function of the seeds in the specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .videoio import Clip, resize_bilinear

ACTIONS = ["translate", "oscillate_arms", "bounce", "expand", "spin", "still"]


@dataclass
class SpriteSpec:
    pattern: str
    size: int = 16
    texture_seed: int = 0
    speed: float = 1.0
    start: tuple[float, float] = (24.0, 24.0)   # center (x, y)
    phase: float = 0.0
    delay: int = 0          # first frame the sprite is visible

    def __post_init__(self):
        if self.pattern not in ACTIONS:
            raise ValueError(f"unknown motion pattern {self.pattern!r}")


@dataclass
class SceneSpec:
    width: int = 128
    height: int = 96
    fps: float = 25.0
    duration: float = 4.0
    background_seed: int = 0
    sprites: list[SpriteSpec] = field(default_factory=list)
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.duration < 2.0:
            raise ValueError("scene duration must be >= 2 s")


def sprite_texture(spec: SpriteSpec) -> np.ndarray:
    """(3, s, s) texture in [0.3, 0.95], bright and anisotropic."""
    rng = np.random.default_rng(spec.texture_seed)
    s = spec.size
    tex = rng.random((3, s, s)) * 0.35 + 0.5
    # Directional ramp so rotation is visible in pixel space.
    ramp = np.linspace(-0.15, 0.15, s)
    tex += ramp[None, None, :] * rng.choice([-1.0, 1.0])
    tex += ramp[None, :, None] * rng.choice([-1.0, 1.0]) * 0.5
    return np.clip(tex, 0.3, 0.95)


def background_texture(seed: int, height: int, width: int) -> np.ndarray:
    """Smooth dim texture: low-resolution noise, bilinearly enlarged."""
    rng = np.random.default_rng(seed)
    coarse = rng.random((3, 8, 8)) * 0.2 + 0.05
    return resize_bilinear(coarse, height, width)


def _pose(spec: SpriteSpec, t: int):
    """Per-frame animation state: center offset, scale, angle, arm length."""
    s = spec.size
    dx = dy = 0.0
    scale = 1.0
    angle = 0.0
    arm = 0.0
    ph = spec.phase
    if spec.pattern == "translate":
        dx = spec.speed * t
    elif spec.pattern == "bounce":
        dy = 0.4 * s * math.sin(2 * math.pi * t / 16.0 + ph)
    elif spec.pattern == "expand":
        scale = 1.0 + 0.35 * math.sin(2 * math.pi * t / 16.0 + ph)
    elif spec.pattern == "spin":
        angle = 2 * math.pi * t / 16.0 + ph
    elif spec.pattern == "oscillate_arms":
        arm = 0.5 * s * abs(math.sin(2 * math.pi * t / 8.0 + ph))
    return dx, dy, scale, angle, arm


def render_sprite(spec: SpriteSpec, t: int):
    """(color patch (3, P, P), mask (P, P), center offset (dx, dy)),
    or None while the sprite has not appeared yet (t < delay).

    The patch is a working canvas of 2x the sprite size, centered on the
    sprite; the mask marks sprite-support pixels. Animation time starts
    at the delay frame.
    """
    if t < spec.delay:
        return None
    tex = sprite_texture(spec)
    s = spec.size
    p = 2 * s
    dx, dy, scale, angle, arm = _pose(spec, t - spec.delay)
    u = np.arange(p) - p / 2 + 0.5
    vu, vv = np.meshgrid(u, u, indexing="ij")   # vu: y, vv: x
    ca, sa = math.cos(-angle), math.sin(-angle)
    sx = (vv * ca - vu * sa) / scale
    sy = (vv * sa + vu * ca) / scale
    inside = (np.abs(sx) < s / 2) & (np.abs(sy) < s / 2)
    ix = np.clip(np.floor(sx + s / 2).astype(int), 0, s - 1)
    iy = np.clip(np.floor(sy + s / 2).astype(int), 0, s - 1)
    color = np.where(inside[None], tex[:, iy, ix], 0.0)
    mask = inside.copy()
    if arm > 0:
        arm_mask = ((np.abs(vv) >= s / 2) & (np.abs(vv) < s / 2 + arm)
                    & (np.abs(vu) < s / 6))
        mask |= arm_mask
        color = np.where(arm_mask[None], float(tex.mean()), color)
    return color, mask, (dx, dy)


def _composite(canvas: np.ndarray, color: np.ndarray, mask: np.ndarray,
               cx: float, cy: float):
    """Paste a sprite patch onto the canvas; returns its tight box or None."""
    _, h, w = canvas.shape
    p = mask.shape[0]
    x0 = int(round(cx - p / 2))
    y0 = int(round(cy - p / 2))
    sx0, sx1 = max(0, -x0), min(p, w - x0)
    sy0, sy1 = max(0, -y0), min(p, h - y0)
    if sx0 >= sx1 or sy0 >= sy1:
        return None
    sub_mask = mask[sy0:sy1, sx0:sx1]
    if not sub_mask.any():
        return None
    region = canvas[:, y0 + sy0 : y0 + sy1, x0 + sx0 : x0 + sx1]
    np.copyto(region, color[:, sy0:sy1, sx0:sx1], where=sub_mask[None])
    ys, xs = np.nonzero(sub_mask)
    bx0 = x0 + sx0 + xs.min()
    by0 = y0 + sy0 + ys.min()
    return (int(bx0), int(by0), int(xs.max() - xs.min() + 1),
            int(ys.max() - ys.min() + 1))


def generate_action_clip(sprite: SpriteSpec, num_frames: int, canvas: int = 64,
                         fps: float = 25.0, background_seed: int = 0,
                         noise_sigma: float = 0.0,
                         noise_seed: int = 0) -> tuple[Clip, int]:
    """One centered sprite acting over a textured background; returns the
    clip and its action-class index."""
    bg = background_texture(background_seed, canvas, canvas)
    rng = np.random.default_rng(noise_seed)
    frames = np.empty((num_frames, 3, canvas, canvas), dtype=np.float32)
    for t in range(num_frames):
        frame = bg.copy()
        rendered = render_sprite(sprite, t)
        if rendered is not None:
            color, mask, (dx, dy) = rendered
            _composite(frame, color, mask, sprite.start[0] + dx,
                       sprite.start[1] + dy)
        if noise_sigma > 0:
            frame = frame + rng.normal(0, noise_sigma, frame.shape)
        frames[t] = np.clip(frame, 0.0, 1.0)
    return (Clip(frames, fps=fps, source_id=f"synth/{sprite.pattern}"),
            ACTIONS.index(sprite.pattern))


@dataclass
class GroundTruth:
    """Per-frame list of (sprite id, box, action index)."""

    per_frame: list[list[tuple[int, tuple[int, int, int, int], int]]]

    def boxes_for(self, sprite_id: int) -> dict[int, tuple]:
        out = {}
        for t, entries in enumerate(self.per_frame):
            for sid, box, _ in entries:
                if sid == sprite_id:
                    out[t] = box
        return out


def generate_scene(scene: SceneSpec) -> tuple[Clip, GroundTruth]:
    num_frames = int(round(scene.fps * scene.duration))
    bg = background_texture(scene.background_seed, scene.height, scene.width)
    rng = np.random.default_rng(scene.background_seed + 1)
    frames = np.empty((num_frames, 3, scene.height, scene.width),
                      dtype=np.float32)
    truth = []
    for t in range(num_frames):
        frame = bg.copy()
        entries = []
        for sid, sprite in enumerate(scene.sprites):
            rendered = render_sprite(sprite, t)
            if rendered is None:
                continue
            color, mask, (dx, dy) = rendered
            box = _composite(frame, color, mask, sprite.start[0] + dx,
                             sprite.start[1] + dy)
            if box is not None:
                entries.append((sid, box, ACTIONS.index(sprite.pattern)))
        if scene.noise_sigma > 0:
            frame = frame + rng.normal(0, scene.noise_sigma, frame.shape)
        frames[t] = np.clip(frame, 0.0, 1.0)
        truth.append(entries)
    clip = Clip(frames, fps=scene.fps, source_id="synth/scene")
    return clip, GroundTruth(per_frame=truth)


def generate_shot_video(shots: list[SpriteSpec], frames_per_shot: int = 50,
                        canvas: int = 64, fps: float = 25.0,
                        base_seed: int = 0) -> tuple[Clip, list[int], list[int]]:
    """Concatenated single-action shots with abrupt background changes.

    Returns (video, boundaries, per-shot labels); boundary i is the first
    frame of shot i+1.
    """
    if not shots:
        raise ValueError("need at least one shot")
    pieces, labels = [], []
    for i, sprite in enumerate(shots):
        clip, label = generate_action_clip(
            sprite, frames_per_shot, canvas=canvas, fps=fps,
            background_seed=base_seed + 101 * (i + 1), noise_seed=base_seed + i)
        # Alternate overall brightness so cuts are unmistakably abrupt.
        frames = np.clip(clip.frames + 0.35 * (i % 2), 0.0, 1.0)
        pieces.append(frames)
        labels.append(label)
    video = Clip(np.concatenate(pieces), fps=fps, source_id="synth/shots")
    boundaries = [frames_per_shot * (i + 1) for i in range(len(shots) - 1)]
    return video, boundaries, labels


def iter_action_dataset(clips_per_class: int, num_frames: int = 32,
                        canvas: int = 64, seed: int = 0,
                        noise_sigma: float = 0.01):
    """Yield labeled clips covering all six actions, one at a time."""
    rng = np.random.default_rng(seed)
    for ci, action in enumerate(ACTIONS):
        for j in range(clips_per_class):
            speed = 1.0 if action == "translate" else float(rng.uniform(0.8, 1.2))
            start_x = canvas * 0.2 if action == "translate" else canvas / 2 \
                + float(rng.uniform(-3, 3))
            start_y = canvas / 2 + float(rng.uniform(-3, 3))
            sprite = SpriteSpec(
                pattern=action, size=canvas // 4,
                texture_seed=int(rng.integers(1 << 30)),
                speed=speed, start=(start_x, start_y),
                phase=float(rng.uniform(0, 2 * math.pi))
                if action != "translate" else 0.0)
            yield generate_action_clip(
                sprite, num_frames, canvas=canvas,
                background_seed=int(rng.integers(1 << 30)),
                noise_sigma=noise_sigma, noise_seed=int(rng.integers(1 << 30)))


def make_action_dataset(clips_per_class: int, num_frames: int = 32,
                        canvas: int = 64, seed: int = 0,
                        noise_sigma: float = 0.01):
    """Labeled clips covering all six actions, varied texture/phase/speed."""
    clips, labels = [], []
    for clip, label in iter_action_dataset(clips_per_class, num_frames,
                                           canvas, seed, noise_sigma):
        clips.append(clip)
        labels.append(label)
    return clips, labels
