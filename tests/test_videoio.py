import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import flip_bits
from hypothesis import example, given, settings, strategies as st

from vidact.videoio import (Clip, ClipArchive, CorruptionError, FormatError,
                            StratificationError, load_frame_dir,
                            pack_clip_archive, read_clip_archive, read_pnm,
                            resize_bilinear, segment_into_clips,
                            split_dataset, window_frames, write_pnm)


class TestPnm:
    def test_pgm_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, (1, 8, 10), dtype=np.uint8)
        write_pnm(tmp_path / "a.pgm", img)
        np.testing.assert_array_equal(read_pnm(tmp_path / "a.pgm"), img)

    def test_ppm_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, (3, 6, 7), dtype=np.uint8)
        write_pnm(tmp_path / "a.ppm", img)
        np.testing.assert_array_equal(read_pnm(tmp_path / "a.ppm"), img)

    def test_malformed_header_names_file(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n8 not-a-number\n255\n")
        with pytest.raises(FormatError, match="bad.pgm"):
            read_pnm(bad)

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff")
        img = read_pnm(p)
        assert img.shape == (1, 2, 2)
        assert img[0, 1, 1] == 255

    @pytest.mark.parametrize("header", [b"P5\n0 4\n255\n",
                                        b"P6\n4 0\n255\n",
                                        b"P6\n00 3\n255\n" + bytes(9)])
    def test_extents_under_one_rejected(self, tmp_path, header):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(header)
        with pytest.raises(FormatError, match="bad.pgm.*not positive"):
            read_pnm(bad)
        with pytest.raises(FormatError, match="bad.pgm.*not positive"):
            load_frame_dir(tmp_path)

    # Netpbm header fields are ASCII decimal digits: no sign, no
    # underscores, no other digit scripts. A sign also covers extents < 0.
    @pytest.mark.parametrize("header", [
        b"P5 +4 1_0 255 " + bytes(40), b"P5\n-4 -4\n255\n",
        b"P6\n-1 3\n255\n" + bytes(9), b"P5 4 4 +255 " + bytes(16),
        b"P5 0x4 4 255 " + bytes(16), b"P5 4 4 2_55 " + bytes(16),
        "P5 \u0664 4 255 ".encode() + bytes(16),
        b"P5 4 4 255.0 " + bytes(16), b"P5 1e1 1 255 " + bytes(10)])
    def test_header_fields_only_ascii_digits(self, tmp_path, header):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(header)
        with pytest.raises(FormatError, match="bad.pgm.*bad PNM header field"):
            read_pnm(bad)
        with pytest.raises(FormatError, match="bad.pgm.*bad PNM header field"):
            load_frame_dir(tmp_path)

    def test_leading_zeros_are_digits(self, tmp_path):
        p = tmp_path / "z.pgm"
        p.write_bytes(b"P5 002 01 0255 \x07\x09")
        np.testing.assert_array_equal(read_pnm(p), [[[7, 9]]])


def pnm_like_bytes():
    """Arbitrary bytes, and bytes shaped like a PNM file with odd fields."""
    field = st.one_of(
        st.integers(-3, 6).map(lambda v: b"%d" % v),
        st.sampled_from([b"255", b"65535", b"+2", b"1_0", b"0x4", b"1e2",
                         b"\xff", b"9" * 30, b"9" * 5000]))
    sep = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# c\n", b"#",
                           b""])
    shaped = st.tuples(
        st.sampled_from([b"P5", b"P6", b"P3", b"P7", b""]), sep, field, sep,
        field, sep, st.one_of(st.just(b"255"), field),
        st.sampled_from([b"\n", b" ", b""]), st.binary(max_size=120))
    return st.one_of(st.binary(max_size=64), shaped.map(b"".join))


class TestPnmFuzz:
    """Any bytes either parse or raise FormatError, read alone or as the
    only frame of a directory."""

    @settings(max_examples=300, deadline=None)
    @given(data=pnm_like_bytes(), suffix=st.sampled_from([".pgm", ".ppm"]))
    @example(data=b"P5\n-4 -4\n255\n", suffix=".pgm")
    @example(data=b"P5 2 2 255 " + bytes(4), suffix=".pgm")
    @example(data=b"P6\n1 1\n255\n" + bytes(3), suffix=".ppm")
    def test_parse_or_format_error(self, data, suffix):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / f"f{suffix}"
            path.write_bytes(data)
            try:
                img = read_pnm(path)
            except FormatError:
                img = None
            if img is not None:
                assert img.dtype == np.uint8 and img.ndim == 3
                assert img.shape[0] in (1, 3) and min(img.shape) >= 1
            try:
                frames = load_frame_dir(d)
                decoded = list(frames)
            except FormatError:
                decoded = None
            if img is None:
                assert decoded is None
            else:
                assert len(decoded) == 1
                assert decoded[0].shape == img.shape == frames.shape
                assert (decoded[0] * 255).round().astype(np.uint8).tobytes() \
                    == img.tobytes()


class TestLoadFrameDir:
    def write_frames(self, d, count, value=128, size=(8, 8)):
        d.mkdir(exist_ok=True)
        for i in range(count):
            img = np.full((1,) + size, value, dtype=np.uint8)
            write_pnm(d / f"f{i:04d}.pgm", img)

    def test_stacks_identical_frames(self, tmp_path):
        self.write_frames(tmp_path / "v", 10)
        clip = load_frame_dir(tmp_path / "v").clip()
        assert clip.frames.shape == (10, 1, 8, 8)
        assert np.all(clip.frames == clip.frames[0, 0, 0, 0])

    def test_255_maps_to_exactly_one(self, tmp_path):
        self.write_frames(tmp_path / "v", 1, value=255)
        clip = load_frame_dir(tmp_path / "v").clip()
        assert clip.frames.max() == 1.0

    def test_lexicographic_order(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        write_pnm(d / "f2.pgm", np.full((1, 4, 4), 2, dtype=np.uint8))
        write_pnm(d / "f10.pgm", np.full((1, 4, 4), 10, dtype=np.uint8))
        clip = load_frame_dir(d).clip()
        # "f10" sorts before "f2"
        assert clip.frames[0, 0, 0, 0] == pytest.approx(10 / 255)
        assert clip.frames[1, 0, 0, 0] == pytest.approx(2 / 255)

    def test_random_ppm_frames_load_bit_exact(self, tmp_path, rng):
        d = tmp_path / "v"
        d.mkdir()
        rasters = rng.integers(0, 256, (5, 3, 6, 7), dtype=np.uint8)
        for i, raster in enumerate(rasters):
            write_pnm(d / f"f{i:04d}.ppm", raster)
        clip = load_frame_dir(d).clip()
        expected = rasters.astype(np.float32) / 255
        assert clip.frames.dtype == np.float32
        assert clip.frames.tobytes() == expected.tobytes()

    def test_mixed_sizes_rejected(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        write_pnm(d / "a.pgm", np.zeros((1, 4, 4), dtype=np.uint8))
        write_pnm(d / "b.pgm", np.zeros((1, 5, 5), dtype=np.uint8))
        with pytest.raises(FormatError, match="differs"):
            load_frame_dir(d)

    def test_empty_dir_rejected(self, tmp_path):
        (tmp_path / "v").mkdir()
        with pytest.raises(FormatError, match="no PGM"):
            load_frame_dir(tmp_path / "v")


    def test_frames_decoded_one_at_a_time(self, tmp_path, rng):
        d = tmp_path / "v"
        d.mkdir()
        rasters = rng.integers(0, 256, (4, 3, 5, 6), dtype=np.uint8)
        for i, raster in enumerate(rasters):
            write_pnm(d / f"f{i:04d}.ppm", raster)
        frames = load_frame_dir(d, fps=12.5)
        assert (frames.num_frames, frames.fps, frames.source_id) == \
            (4, 12.5, str(d))
        stacked = frames.clip()
        for t, frame in enumerate(frames):
            assert frame.shape == (3, 5, 6) and frame.dtype == np.float32
            assert frame.flags.c_contiguous
            assert frame.tobytes() == stacked.frames[t].tobytes()

    def test_truncated_raster_fails_when_reached(self, tmp_path):
        d = tmp_path / "v"
        self.write_frames(d, 5)
        bad = d / "f0003.pgm"
        bad.write_bytes(bad.read_bytes()[:-7])
        frames = load_frame_dir(d)          # headers intact: opens
        seen = 0
        with pytest.raises(FormatError, match="f0003.pgm.*truncated"):
            for _ in frames:
                seen += 1
        assert seen == 3

    def test_header_longer_than_the_first_read(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        raster = np.arange(12, dtype=np.uint8).reshape(1, 3, 4)
        comment = b"# " + b"x" * 5000 + b"\n"
        for cut in (4090, 4094, 4095, 4096, 4097):
            # the width, height or maxval token straddles the 4 KiB mark
            pad = b"#" + b"y" * (cut - 6) + b"\n"
            (d / f"a{cut}.pgm").write_bytes(
                b"P5\n" + pad + b"4 3\n255\n" + raster.tobytes())
        (d / "b.pgm").write_bytes(b"P5\n" + comment + b"4 3\n255\n"
                                  + raster.tobytes())
        frames = load_frame_dir(d)
        assert frames.shape == (1, 3, 4)
        for frame in frames:
            assert frame.tobytes() == (raster / np.float32(255)).tobytes()

    def test_mixed_sizes_rejected_before_decoding(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        write_pnm(d / "a.pgm", np.zeros((1, 4, 4), dtype=np.uint8))
        (d / "b.pgm").write_bytes(b"P5\n5 5\n255\n")   # no raster at all
        with pytest.raises(FormatError, match="b.pgm.*differs"):
            load_frame_dir(d)


class TestResize:
    def test_same_size_identity(self, rng):
        img = rng.random((3, 9, 9))
        np.testing.assert_array_equal(resize_bilinear(img, 9, 9), img)

    def test_checker_center_is_half(self):
        img = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = resize_bilinear(img, 3, 3)
        assert out[1, 1] == pytest.approx(0.5)
        # corner-aligned: corners preserved
        assert out[0, 0] == 0.0 and out[0, 2] == 1.0

    def test_constant_stays_constant(self):
        img = np.full((3, 5, 7), 0.37)
        out = resize_bilinear(img, 11, 13)
        np.testing.assert_allclose(out, 0.37)

    def test_output_within_input_range(self, rng):
        img = rng.random((1, 6, 6))
        out = resize_bilinear(img, 17, 23)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((2, 2)), 0, 3)


class TestSegment:
    def video(self, frames, fps=25.0):
        return Clip(np.zeros((frames, 1, 4, 4), dtype=np.float32), fps=fps)

    def test_basic_arithmetic(self):
        clips = segment_into_clips(self.video(100), 1.6, 1.6)
        assert len(clips) == 2
        assert all(c.num_frames == 40 for c in clips)

    def test_too_short_gives_empty(self):
        assert segment_into_clips(self.video(39), 1.6) == []

    def test_stride_smaller_than_clip(self):
        clips = segment_into_clips(self.video(100), 1.6, 0.8)
        assert [c.start_frame for c in clips] == [0, 20, 40, 60]

    def test_window_frames_rounding(self):
        assert window_frames(25.0, 1.6) == (40, 40)
        assert window_frames(25.0, 0.64, 0.04) == (16, 1)
        assert window_frames(10.0, 0.25, 0.35) == (2, 4)   # round half even

    @pytest.mark.parametrize("clip_s,stride_s,name", [
        (0.01, 1.0, "clip_seconds"), (1.0, 0.02, "stride_seconds"),
        (0.0, 0.0, "clip_seconds"), (1.0, -1.0, "stride_seconds")])
    def test_under_one_frame_rejected(self, clip_s, stride_s, name):
        with pytest.raises(ValueError, match=f"{name}=.*at least one frame"):
            window_frames(25.0, clip_s, stride_s)
        with pytest.raises(ValueError, match=name):
            segment_into_clips(self.video(10), clip_s, stride_s)

    def test_windows_within_bounds(self):
        v = self.video(77)
        for c in segment_into_clips(v, 1.0, 0.6):
            assert c.start_frame + c.num_frames <= 77


class TestSplit:
    def test_100_items_80_10_10(self):
        items = list(range(100))
        labels = [i % 2 for i in items]
        tr, va, te = split_dataset(items, labels, (0.8, 0.1, 0.1), seed=7)
        assert (len(tr), len(va), len(te)) == (80, 10, 10)

    def test_deterministic_in_seed(self):
        items = list(range(60))
        labels = [i % 3 for i in items]
        a = split_dataset(items, labels, (0.8, 0.1, 0.1), seed=42)
        b = split_dataset(items, labels, (0.8, 0.1, 0.1), seed=42)
        assert a == b

    def test_two_classes_of_ten_90_5_5(self):
        items = list(range(20))
        labels = [i // 10 for i in items]
        tr, va, te = split_dataset(items, labels, (0.9, 0.05, 0.05), seed=0)
        assert (len(tr), len(va), len(te)) == (18, 1, 1)

    def test_partition_is_disjoint_and_complete(self):
        items = list(range(83))
        labels = [i % 5 for i in items]
        tr, va, te = split_dataset(items, labels, (0.8, 0.1, 0.1), seed=3)
        assert sorted(tr + va + te) == items

    def test_stratification_within_one_item(self):
        items = list(range(200))
        labels = [i % 4 for i in items]
        tr, _, _ = split_dataset(items, labels, (0.8, 0.1, 0.1), seed=9)
        for c in range(4):
            got = sum(1 for i in tr if labels[i] == c)
            assert abs(got - 0.8 * 50) <= 1

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            split_dataset([1], [0], (0.5, 0.2, 0.2), seed=0)

    def test_too_small_class_named(self):
        with pytest.raises(StratificationError, match="class 0"):
            split_dataset([0, 1], [0, 1], (0.0, 0.5, 0.5), seed=0)


class TestArchive:
    def make(self, rng, n=3):
        clips = [Clip(rng.random((4, 3, 5, 6)).astype(np.float32), fps=25.0)
                 for _ in range(n)]
        return ClipArchive(label_names=["walk", "wave"], clips=clips,
                           labels=[i % 2 for i in range(n)])

    def test_roundtrip_bitwise(self, tmp_path, rng):
        archive = self.make(rng)
        path = tmp_path / "a.a3dc"
        pack_clip_archive(archive, path)
        back = read_clip_archive(path)
        assert back.label_names == archive.label_names
        assert back.labels == archive.labels
        for a, b in zip(archive.clips, back.clips):
            assert a.frames.tobytes() == b.frames.tobytes()
            assert a.fps == b.fps

    def test_empty_archive(self, tmp_path):
        path = tmp_path / "e.a3dc"
        pack_clip_archive(ClipArchive(label_names=["x"]), path)
        back = read_clip_archive(path)
        assert len(back) == 0 and back.label_names == ["x"]

    def test_flipped_magic_rejected(self, tmp_path, rng):
        path = tmp_path / "a.a3dc"
        pack_clip_archive(self.make(rng), path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            read_clip_archive(path)

    def test_truncated_record_names_index(self, tmp_path, rng):
        path = tmp_path / "a.a3dc"
        pack_clip_archive(self.make(rng), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CorruptionError, match="record 2"):
            read_clip_archive(path)

    @pytest.mark.parametrize("cut", range(4, 24))
    def test_cut_inside_header_names_file(self, tmp_path, rng, cut):
        path = tmp_path / "a.a3dc"
        pack_clip_archive(self.make(rng), path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CorruptionError, match="a.a3dc"):
            read_clip_archive(path)

    def test_cut_inside_last_label_name(self, tmp_path):
        path = tmp_path / "e.a3dc"
        pack_clip_archive(ClipArchive(label_names=["walk"]), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CorruptionError, match="label name 0"):
            read_clip_archive(path)

    def test_label_name_not_utf8(self, tmp_path, rng):
        path = tmp_path / "a.a3dc"
        pack_clip_archive(self.make(rng), path)
        path.write_bytes(path.read_bytes().replace(b"wave", b"wa\xffe", 1))
        with pytest.raises(CorruptionError, match="label name 1 is not UTF-8"):
            read_clip_archive(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_names_record(self, tmp_path, rng, value):
        archive = self.make(rng)
        archive.clips[1].frames[2, 0, 3, 4] = value
        path = tmp_path / "a.a3dc"
        pack_clip_archive(archive, path)
        with pytest.raises(CorruptionError, match="a.a3dc: record 1 "
                                                  "holds non-finite"):
            read_clip_archive(path)

    @pytest.mark.parametrize("fps", [np.nan, np.inf, 0.0, -25.0])
    def test_bad_fps_names_record(self, tmp_path, rng, fps):
        path = tmp_path / "a.a3dc"
        pack_clip_archive(self.make(rng), path)
        data = bytearray(path.read_bytes())
        # The last record's header ends with its f64 fps.
        at = len(data) - 4 * 4 * 3 * 5 * 6 - 8
        assert struct.unpack_from("<d", data, at) == (25.0,)
        struct.pack_into("<d", data, at, fps)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError, match="a.a3dc: record 2 fps"):
            read_clip_archive(path)

    def test_mixed_channel_counts_allowed(self, tmp_path, rng):
        clips = [Clip(rng.random((2, 3, 4, 4)).astype(np.float32)),
                 Clip(rng.random((1, 1, 4, 4)).astype(np.float32))]
        archive = ClipArchive(label_names=["a"], clips=clips, labels=[0, 0])
        path = tmp_path / "m.a3dc"
        pack_clip_archive(archive, path)
        back = read_clip_archive(path)
        assert back.clips[0].frames.shape == (2, 3, 4, 4)
        assert back.clips[1].frames.shape == (1, 1, 4, 4)


def small_archive_bytes() -> bytes:
    rng = np.random.default_rng(3)
    clips = [Clip(rng.random((2, c, 3, 4)).astype(np.float32), fps=12.5)
             for c in (1, 3, 1)]
    archive = ClipArchive(label_names=["walk", "wave"], clips=clips,
                          labels=[0, 1, 1])
    with tempfile.TemporaryDirectory() as d:
        pack_clip_archive(archive, Path(d) / "a.a3dc")
        return (Path(d) / "a.a3dc").read_bytes()


ARCHIVE = small_archive_bytes()


def damaged_archives():
    """Arbitrary bytes, the magic followed by arbitrary bytes, and a valid
    archive with bits flipped, a float overwritten, or a tail cut off."""
    flips = st.lists(st.integers(0, 8 * len(ARCHIVE) - 1), min_size=1,
                     max_size=4).map(lambda bits: flip_bits(ARCHIVE, bits))
    special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0, 1e30])
    floats = st.tuples(st.integers(0, len(ARCHIVE) - 4), special).map(
        lambda a: ARCHIVE[:a[0]] + np.float32(a[1]).tobytes()
        + ARCHIVE[a[0] + 4:])
    doubles = st.tuples(st.integers(0, len(ARCHIVE) - 8), special).map(
        lambda a: ARCHIVE[:a[0]] + struct.pack("<d", a[1])
        + ARCHIVE[a[0] + 8:])
    return st.one_of(st.binary(max_size=96),
                     st.binary(max_size=96).map(lambda b: b"A3DC" + b),
                     flips, floats, doubles,
                     st.integers(0, len(ARCHIVE) - 1).map(
                         lambda n: ARCHIVE[:n]))


class TestArchiveFuzz:
    """Any bytes either parse into finite clips with a finite, positive fps
    and labels in range, or raise FormatError naming the file."""

    @settings(max_examples=300, deadline=None)
    @given(data=damaged_archives())
    @example(data=ARCHIVE[:-1])
    @example(data=flip_bits(ARCHIVE, [100]))   # a record with a zero extent
    @example(data=ARCHIVE[:-4] + np.float32(np.nan).tobytes())
    def test_parse_or_format_error(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "f.a3dc"
            path.write_bytes(data)
            try:
                archive = read_clip_archive(path)
            except FormatError as e:
                assert str(path) in str(e)
                return
        assert data == ARCHIVE or not ARCHIVE.startswith(data)  # no prefix
        assert len(archive.clips) == len(archive.labels)
        for clip, label in zip(archive.clips, archive.labels):
            assert np.all(np.isfinite(clip.frames))
            assert np.isfinite(clip.fps) and clip.fps > 0
            assert 0 <= label < len(archive.label_names)
