"""Frame/clip loading, resizing, clip segmentation, dataset splits, and the
self-describing binary clip-archive format.

Only binary PGM (P5) and PPM (P6) frames are ingested, so tests stay
bit-exact with zero codec dependencies. To export frames from a video file:

    ffmpeg -i input.mp4 frames/%06d.ppm
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ARCHIVE_MAGIC = b"A3DC"
ARCHIVE_VERSION = 1


class FormatError(ValueError):
    """Malformed or unsupported file contents."""


class CorruptionError(FormatError):
    """File structurally valid up to a point, then truncated or inconsistent."""


@dataclass
class Clip:
    """Time-major video volume (T x C x H x W), values in [0, 1]."""

    frames: np.ndarray
    fps: float = 25.0
    source_id: str = ""
    start_frame: int = 0

    def __post_init__(self):
        if self.frames.ndim != 4:
            raise FormatError(f"clip must be T x C x H x W, got shape {self.frames.shape}")
        if self.fps <= 0:
            raise FormatError("fps must be positive")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def _read_pnm_header(data: bytes, path: str):
    # Header tokens may be separated by any whitespace and '#' comments.
    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PNM header")
        return data[start:pos]

    magic = token()
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"{path}: unsupported PNM magic {magic!r}")
    try:
        width = int(token())
        height = int(token())
        maxval = int(token())
    except ValueError as e:
        raise FormatError(f"{path}: bad PNM header field") from e
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: PNM extents {width}x{height} are not "
                          f"positive")
    pos += 1  # single whitespace byte before the raster
    return magic, width, height, pos


def read_pnm(path: str | Path) -> np.ndarray:
    """Read a binary PGM/PPM file into (C, H, W) uint8."""
    path = Path(path)
    data = path.read_bytes()
    magic, width, height, offset = _read_pnm_header(data, str(path))
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    raster = data[offset : offset + need]
    if len(raster) < need:
        raise FormatError(f"{path}: raster truncated ({len(raster)} of {need} bytes)")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    return np.moveaxis(img, -1, 0)


def write_pnm(path: str | Path, image: np.ndarray) -> None:
    """Write (C, H, W) or (H, W) uint8 as binary PGM/PPM."""
    if image.ndim == 2:
        image = image[None]
    c, h, w = image.shape
    if c not in (1, 3):
        raise FormatError(f"cannot write {c}-channel image as PNM")
    magic = b"P5" if c == 1 else b"P6"
    raster = np.ascontiguousarray(np.moveaxis(image.astype(np.uint8), 0, -1))
    Path(path).write_bytes(magic + b"\n%d %d\n255\n" % (w, h) + raster.tobytes())


def _pnm_shape(path: Path) -> tuple[int, int, int]:
    """(C, H, W) from a PNM file's header. Only the first 4 KiB are read,
    unless the header runs past them."""
    with open(path, "rb") as fh:
        data = fh.read(4096)
        try:
            magic, width, height, offset = _read_pnm_header(data, str(path))
            complete = offset <= len(data)
        except FormatError:
            if len(data) < 4096:
                raise
            complete = False
        if not complete:
            data += fh.read()
            magic, width, height, _ = _read_pnm_header(data, str(path))
    return (1 if magic == b"P5" else 3), height, width


class FrameDir:
    """The PGM/PPM frames of a directory, decoded one at a time.

    Iterating yields each frame as a C-contiguous float32 (C, H, W) array in
    [0, 1], raw value / 255. A frame is read only when it is reached, so a
    truncated raster raises FormatError, naming its file, at that frame.
    """

    def __init__(self, path: Path, paths: list[Path],
                 shape: tuple[int, int, int], fps: float):
        if fps <= 0:
            raise FormatError("fps must be positive")
        self.paths = paths
        self.shape = shape
        self.fps = fps
        self.source_id = str(path)

    @property
    def num_frames(self) -> int:
        return len(self.paths)

    def __iter__(self):
        for p in self.paths:
            raw = read_pnm(p)
            if raw.shape != self.shape:
                raise FormatError(f"{p}: frame shape {raw.shape} differs "
                                  f"from first frame {self.shape}")
            frame = np.empty(self.shape, dtype=np.float32)
            frame[...] = raw
            frame /= 255.0
            yield frame

    def clip(self) -> Clip:
        """All frames stacked as one T x C x H x W clip."""
        stack = np.empty((self.num_frames,) + self.shape, dtype=np.float32)
        for i, frame in enumerate(self):
            stack[i] = frame
        return Clip(stack, fps=self.fps, source_id=self.source_id)


def load_frame_dir(path: str | Path, fps: float = 25.0) -> FrameDir:
    """Open the PGM/PPM frames of a directory, in lexicographic name order.

    Every header is parsed here, so an empty directory and frames of mixed
    shapes raise FormatError at once; the rasters are decoded only as the
    returned FrameDir is iterated (or stacked with `clip()`).

    Note the ordering is purely lexicographic: "f10.pgm" sorts before
    "f2.pgm". Zero-pad frame numbers when exporting.
    """
    path = Path(path)
    names = sorted(p for p in path.iterdir() if p.suffix in (".pgm", ".ppm"))
    if not names:
        raise FormatError(f"{path}: no PGM/PPM frames found")
    shape = _pnm_shape(names[0])
    for p in names[1:]:
        other = _pnm_shape(p)
        if other != shape:
            raise FormatError(
                f"{p}: frame shape {other} differs from first frame {shape}"
            )
    return FrameDir(path, names, shape, fps)


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Corner-aligned bilinear resize of (..., H, W); channels independent."""
    if out_h < 1 or out_w < 1:
        raise ValueError("target extents must be >= 1")
    image = np.asarray(image)
    h, w = image.shape[-2:]
    if (h, w) == (out_h, out_w):
        return image.copy()
    ys = np.linspace(0.0, h - 1, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).reshape(-1, 1)
    fx = (xs - x0).reshape(1, -1)
    tl = image[..., y0[:, None], x0[None, :]]
    tr = image[..., y0[:, None], x1[None, :]]
    bl = image[..., y1[:, None], x0[None, :]]
    br = image[..., y1[:, None], x1[None, :]]
    top = tl * (1 - fx) + tr * fx
    bot = bl * (1 - fx) + br * fx
    return (top * (1 - fy) + bot * fy).astype(image.dtype)


def resize_clip(clip: Clip, out_h: int, out_w: int) -> Clip:
    frames = resize_bilinear(clip.frames, out_h, out_w)
    return Clip(frames, fps=clip.fps, source_id=clip.source_id,
                start_frame=clip.start_frame)


def window_frames(fps: float, clip_seconds: float,
                  stride_seconds: float | None = None) -> tuple[int, int]:
    """Window length and stride in frames, each round(fps * seconds); the
    stride defaults to the window length. ValueError, naming the argument,
    when either rounds to less than one frame."""
    if stride_seconds is None:
        stride_seconds = clip_seconds
    out = []
    for name, seconds in (("clip_seconds", clip_seconds),
                          ("stride_seconds", stride_seconds)):
        frames = round(fps * seconds)
        if frames < 1:
            raise ValueError(f"{name}={seconds} is {frames} frames at "
                             f"{fps} fps; clip and stride must cover at "
                             f"least one frame")
        out.append(frames)
    return out[0], out[1]


def segment_into_clips(video: Clip, clip_seconds: float = 1.6,
                       stride_seconds: float | None = None) -> list[Clip]:
    """Fixed-length windows from frame 0, stride apart; final partial dropped."""
    clip_frames, stride = window_frames(video.fps, clip_seconds,
                                        stride_seconds)
    out = []
    start = 0
    while start + clip_frames <= video.num_frames:
        out.append(Clip(video.frames[start : start + clip_frames].copy(),
                        fps=video.fps, source_id=video.source_id,
                        start_frame=video.start_frame + start))
        start += stride
    return out


SPLIT_PRESETS = {
    "80/10/10": (0.8, 0.1, 0.1),
    "90/5/5": (0.9, 0.05, 0.05),
}


class StratificationError(ValueError):
    pass


def _allocate(targets_frac: list[float], total: int) -> list[int]:
    """Largest-remainder apportionment of `total` among classes."""
    floors = [int(t) for t in targets_frac]
    remaining = total - sum(floors)
    order = sorted(range(len(floors)),
                   key=lambda i: (-(targets_frac[i] - floors[i]), i))
    for i in order[:remaining]:
        floors[i] += 1
    return floors


def split_dataset(items: list, labels: list[int], ratios: tuple[float, float, float],
                  seed: int) -> tuple[list, list, list]:
    """Per-class stratified (train, val, test) split.

    Global val/test sizes are floor(ratio * total); they are apportioned to
    classes by largest remainder, the rest of each class goes to train.
    Shuffling within each class is deterministic in the seed.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    if len(items) != len(labels):
        raise ValueError("items and labels must align")
    by_class: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    if not by_class:
        raise StratificationError("empty dataset")
    classes = sorted(by_class)
    total = len(items)
    n_val = _allocate([ratios[1] * len(by_class[c]) for c in classes],
                      int(ratios[1] * total))
    n_test = _allocate([ratios[2] * len(by_class[c]) for c in classes],
                       int(ratios[2] * total))
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for ci, lab in enumerate(classes):
        idxs = np.array(by_class[lab])
        rng.shuffle(idxs)
        if n_val[ci] + n_test[ci] >= len(idxs):
            raise StratificationError(
                f"class {lab} too small for the requested split")
        val.extend(idxs[: n_val[ci]])
        test.extend(idxs[n_val[ci] : n_val[ci] + n_test[ci]])
        train.extend(idxs[n_val[ci] + n_test[ci] :])
    return ([items[i] for i in train], [items[i] for i in val],
            [items[i] for i in test])


@dataclass
class ClipArchive:
    """Labeled clips in the on-disk binary archive layout."""

    label_names: list[str]
    clips: list[Clip] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)

    def __len__(self):
        return len(self.clips)


def pack_clip_archive(archive: ClipArchive, path: str | Path) -> None:
    """Write the archive. Layout (all little-endian):

    magic "A3DC", u16 version, u32 clip count,
    u16 label count, per label: u16 byte length + UTF-8 name,
    per record: u16 label index, u32 T,C,H,W, f64 fps, f32[T*C*H*W] payload.
    """
    if len(archive.clips) != len(archive.labels):
        raise FormatError("clips and labels must align")
    parts = [ARCHIVE_MAGIC, struct.pack("<HI", ARCHIVE_VERSION, len(archive.clips)),
             struct.pack("<H", len(archive.label_names))]
    for name in archive.label_names:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)) + raw)
    for clip, label in zip(archive.clips, archive.labels):
        if not 0 <= label < len(archive.label_names):
            raise FormatError(f"label index {label} out of range")
        t, c, h, w = clip.frames.shape
        parts.append(struct.pack("<HIIIId", label, t, c, h, w, clip.fps))
        parts.append(np.ascontiguousarray(
            clip.frames, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_clip_archive(path: str | Path) -> ClipArchive:
    data = Path(path).read_bytes()
    if data[:4] != ARCHIVE_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    try:
        version, count = struct.unpack_from("<HI", data, 4)
        if version != ARCHIVE_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        pos = 10
        (n_labels,) = struct.unpack_from("<H", data, pos)
        pos += 2
        names = []
        for i in range(n_labels):
            (ln,) = struct.unpack_from("<H", data, pos)
            pos += 2
            if pos + ln > len(data):
                raise CorruptionError(f"{path}: truncated label name {i}")
            names.append(data[pos : pos + ln].decode("utf-8"))
            pos += ln
    except struct.error as e:
        raise CorruptionError(f"{path}: truncated archive header") from e
    except UnicodeDecodeError as e:
        raise CorruptionError(f"{path}: label name {i} is not UTF-8") from e
    archive = ClipArchive(label_names=names)
    rec_header = struct.Struct("<HIIIId")
    for i in range(count):
        try:
            label, t, c, h, w, fps = rec_header.unpack_from(data, pos)
        except struct.error as e:
            raise CorruptionError(f"{path}: truncated header of record {i}") from e
        pos += rec_header.size
        nbytes = 4 * t * c * h * w
        if pos + nbytes > len(data):
            raise CorruptionError(f"{path}: truncated payload of record {i}")
        if label >= n_labels:
            raise CorruptionError(f"{path}: record {i} label {label} out of range")
        frames = np.frombuffer(data[pos : pos + nbytes], dtype="<f4")
        pos += nbytes
        archive.clips.append(Clip(frames.reshape(t, c, h, w).copy(), fps=fps))
        archive.labels.append(label)
    return archive
