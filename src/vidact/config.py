"""Flat key=value pipeline configuration with defaults and strict keys.

Precedence: CLI flag overrides > config file > defaults. Unknown keys are
rejected so typos fail loudly, and so are values outside the range _RANGES
states for their key.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    seed: int = 0
    fps: float = 25.0
    out_dir: str = "out"
    checkpoint: str = ""
    # motion segmentation
    bg_alpha: float = 0.05
    bg_threshold: float = 0.1
    min_area: int = 64
    morph_radius: int = 1
    warmup_frames: int = 25
    # tracking
    kcf_sigma: float = 0.2
    kcf_lambda: float = 1e-4
    kcf_interp: float = 0.075
    kcf_patch: int = 32
    iou_threshold: float = 0.3
    max_miss: int = 10
    # clips / network input
    clip_seconds: float = 1.6
    stride_seconds: float = 1.6
    input_size: int = 64
    input_frames: int = 16
    input_variant: str = "rgb"        # rgb | bs | mhi
    num_classes: int = 10
    enc_channels: str = "16,32"
    head_channels: str = "32,64,128"
    fc_width: int = 256
    # training
    lr: float = 0.001
    batch: int = 64
    epochs: int = 100
    split: str = "80/10/10"
    early_stop_acc: float = 1.01
    # sequence extraction / summarization
    mhi_tau: int = 16
    mhi_threshold: float = 0.05
    smooth_window: int = 3
    shot_energy_threshold: float = 0.15
    debug_dir: str = ""

    def channels(self, which: str) -> tuple[int, ...]:
        raw = self.enc_channels if which == "enc" else self.head_channels
        try:
            return tuple(int(v) for v in raw.split(","))
        except ValueError as e:
            raise ConfigError(f"bad channel list {raw!r}") from e


_FIELDS = {f.name: f.type for f in fields(PipelineConfig)}

# Key -> (test of the coerced value, the range it states): the library's own
# ranges, checked before any work starts so that the error names the key.
_RANGES = {
    "bg_alpha": (lambda v: 0 < v < 1, "in (0, 1)"),
    "bg_threshold": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "morph_radius": (lambda v: v >= 1, ">= 1"),
    "kcf_lambda": (lambda v: v > 0, "> 0"),
    "kcf_interp": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "kcf_patch": (lambda v: v >= 1, ">= 1"),
    "max_miss": (lambda v: v >= 0, ">= 0"),
    "input_size": (lambda v: v >= 1, ">= 1"),
    "input_frames": (lambda v: v >= 1, ">= 1"),
    "input_variant": (lambda v: v in ("rgb", "bs", "mhi"), "rgb, bs or mhi"),
    "batch": (lambda v: v >= 1, ">= 1"),
    "mhi_tau": (lambda v: v >= 1, ">= 1"),
    "smooth_window": (lambda v: v >= 1 and v % 2 == 1, "odd and >= 1"),
}


def _coerce(key: str, value: str):
    default = getattr(PipelineConfig(), key)
    if isinstance(default, int):
        return int(value)
    if isinstance(default, float):
        return float(value)
    return value


def load_config(path: str | Path | None = None,
                overrides: dict[str, str] | None = None) -> PipelineConfig:
    cfg = PipelineConfig()
    pairs = []
    if path:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            pairs.append((key, value, f"{path}:{lineno}"))
    for key, value in (overrides or {}).items():
        pairs.append((key, value, "command line"))
    for key, value, where in pairs:
        if key not in _FIELDS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            coerced = _coerce(key, str(value))
        except ValueError as e:
            raise ConfigError(f"{where}: bad value for {key}: {value!r}") from e
        ok, stated = _RANGES.get(key, (lambda v: True, ""))
        if not ok(coerced):
            raise ConfigError(f"{where}: {key} must be {stated}, got {value!r}")
        setattr(cfg, key, coerced)
    return cfg
