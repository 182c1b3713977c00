import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import flood_fill_components
from hypothesis import given, settings, strategies as st

from vidact import cli, motionseg
from vidact.cli import main, shot_boundaries
from vidact.config import ConfigError, PipelineConfig, load_config
from vidact.network import load_checkpoint, predict
from vidact.sequences import person_crop
from vidact.summarize import Subject, Summary, build_shot_timeline, export
from vidact.synth import SceneSpec, SpriteSpec, generate_scene, \
    generate_shot_video
from vidact.videoio import (Clip, ClipArchive, load_frame_dir,
                            pack_clip_archive, read_clip_archive,
                            segment_into_clips, write_pnm)

TINY = ["--set", "input_size=32", "--set", "enc_channels=2,2",
        "--set", "head_channels=2,2,2", "--set", "fc_width=8",
        "--set", "num_classes=6", "--set", "epochs=2",
        "--set", "batch=16", "--set", "input_variant=mhi"]
RGB = ["--set", "input_variant=rgb", "--set", "input_frames=8"]


def write_frames(clip: Clip, out_dir, color=True):
    out_dir.mkdir(parents=True, exist_ok=True)
    for t in range(clip.num_frames):
        img = (clip.frames[t] * 255).astype(np.uint8)
        suffix = ".ppm" if color else ".pgm"
        write_pnm(out_dir / f"frame_{t:05d}{suffix}", img)


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.lr == 0.001 and cfg.batch == 64 and cfg.epochs == 100
        assert cfg.split == "80/10/10"

    def test_file_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nlr = 0.01  # inline\nbatch=8\n")
        cfg = load_config(path)
        assert cfg.lr == 0.01 and cfg.batch == 8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("leraning_rate=0.1\n")
        with pytest.raises(ConfigError, match="leraning_rate"):
            load_config(path)

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("batch=8\n")
        cfg = load_config(path, {"batch": "4"})
        assert cfg.batch == 4

    def test_type_coercion(self):
        cfg = load_config(None, {"epochs": "3", "bg_alpha": "0.2"})
        assert cfg.epochs == 3 and isinstance(cfg.epochs, int)
        assert cfg.bg_alpha == 0.2

    def test_bad_value_reported_with_source(self):
        with pytest.raises(ConfigError, match="command line"):
            load_config(None, {"epochs": "many"})

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)

    def test_channel_lists(self):
        cfg = PipelineConfig(enc_channels="4,8", head_channels="8,16,32")
        assert cfg.channels("enc") == (4, 8)
        assert cfg.channels("head") == (8, 16, 32)
        with pytest.raises(ConfigError):
            PipelineConfig(enc_channels="4;8").channels("enc")


class TestArgErrors:
    def test_bad_set_syntax(self, capsys):
        assert main(TINY + ["--set", "oops", "gen-data"]) == 2
        assert "K=V" in capsys.readouterr().err

    def test_unknown_set_key(self, capsys):
        assert main(["--set", "nope=1", "gen-data"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_uncoercible_seed(self, capsys):
        assert main(["--seed", "7", "--set", "epochs=soon", "gen-data"]) == 2

    @pytest.mark.parametrize("key,value", [
        ("bg_alpha", "2"), ("bg_alpha", "0"), ("bg_threshold", "0"),
        ("morph_radius", "0"), ("kcf_lambda", "0"), ("kcf_interp", "2"),
        ("kcf_patch", "0"), ("smooth_window", "2"), ("mhi_tau", "0"),
        ("input_size", "0"), ("input_frames", "0"), ("batch", "0"),
        ("max_miss", "-1"), ("bg_alpha", "nan")])
    def test_value_out_of_range(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        rc = main(TINY + ["--out-dir", str(out), "--set", f"{key}={value}",
                          "gen-data", "--clips-per-class", "1",
                          "--frames", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and "command line" in err and "must be" in err
        assert not out.exists()

    def test_value_out_of_range_names_file_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("batch=8\nsmooth_window=4\n")
        with pytest.raises(ConfigError, match="run.cfg:2: smooth_window "
                                              "must be odd and >= 1"):
            load_config(path)

    def test_edges_of_ranges_accepted(self):
        cfg = load_config(None, {"bg_threshold": "1", "kcf_interp": "1",
                                 "max_miss": "0", "smooth_window": "1",
                                 "morph_radius": "1", "kcf_patch": "1"})
        assert (cfg.bg_threshold, cfg.kcf_interp, cfg.max_miss,
                cfg.smooth_window) == (1.0, 1.0, 0, 1)


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(TINY + ["--out-dir", str(out), "gen-data",
                      "--clips-per-class", "6", "--frames", "8"])
    assert rc == 0
    return out


@pytest.fixture(scope="session")
def mhi_checkpoint(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    rc = main(TINY + ["--out-dir", str(out),
                      "train", str(dataset_dir / "mhi.a3dc")])
    assert rc == 0
    ckpt = out / "mhi.a3dw"
    assert ckpt.exists()
    return ckpt


@pytest.fixture(scope="session")
def rgb_checkpoint(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("train_rgb")
    rc = main(TINY + RGB + ["--out-dir", str(out),
                            "train", str(dataset_dir / "rgb.a3dc")])
    assert rc == 0
    return out / "rgb.a3dw"


def rewrite_metadata(ckpt, out, edit):
    """Copy a checkpoint with its JSON metadata bytes replaced by edit().

    When the new metadata parses, the header's spec hash is recomputed from
    it, so that a load fails on the spec's content, not on the hash.
    """
    data = ckpt.read_bytes()
    (n,) = struct.unpack_from("<I", data, 14)
    meta = edit(data[18 : 18 + n])
    head = data[:14]
    try:
        spec = json.loads(meta)["spec"]
    except (ValueError, KeyError, TypeError):
        pass
    else:
        digest = hashlib.sha256(json.dumps(spec, sort_keys=True).encode())
        head = head[:6] + digest.digest()[:8]
    out.write_bytes(head + struct.pack("<I", len(meta)) + meta
                    + data[18 + n :])
    return out


def edit_spec(change):
    return edit_meta(lambda meta: change(meta["spec"]))


def edit_meta(change):
    def edit(raw):
        meta = json.loads(raw)
        change(meta)
        return json.dumps(meta).encode()
    return edit


class TestGenData:
    def test_writes_three_variants(self, dataset_dir):
        for variant in ("rgb", "bs", "mhi"):
            archive = read_clip_archive(dataset_dir / f"{variant}.a3dc")
            assert len(archive) == 36
            assert archive.label_names == ["translate", "oscillate_arms",
                                           "bounce", "expand", "spin", "still"]

    def test_mhi_records_are_single_channel_images(self, dataset_dir):
        archive = read_clip_archive(dataset_dir / "mhi.a3dc")
        assert archive.clips[0].frames.shape == (1, 1, 32, 32)

    def test_deterministic_across_runs(self, dataset_dir, tmp_path):
        rc = main(TINY + ["--out-dir", str(tmp_path), "gen-data",
                          "--clips-per-class", "6", "--frames", "8"])
        assert rc == 0
        assert (tmp_path / "rgb.a3dc").read_bytes() == \
            (dataset_dir / "rgb.a3dc").read_bytes()


class TestPack:
    def test_pack_label_dirs(self, tmp_path, rng):
        root = tmp_path / "raw"
        for label in ("jump", "walk"):
            for clip in range(2):
                d = root / label / f"clip{clip}"
                d.mkdir(parents=True)
                for t in range(3):
                    write_pnm(d / f"{t:03d}.ppm",
                              (rng.random((3, 8, 8)) * 255).astype(np.uint8))
        out = tmp_path / "packed.a3dc"
        assert main(["pack", str(root), str(out)]) == 0
        archive = read_clip_archive(out)
        assert archive.label_names == ["jump", "walk"]
        assert archive.labels == [0, 0, 1, 1]
        assert archive.clips[0].frames.shape == (3, 3, 8, 8)

    def test_missing_dir_is_user_error(self, tmp_path, capsys):
        assert main(["pack", str(tmp_path / "nope"), "x.a3dc"]) == 2

    def test_empty_dir_is_user_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["pack", str(tmp_path / "empty"), "x.a3dc"]) == 2


class TestTrainEval:
    def test_train_outputs(self, mhi_checkpoint):
        out = mhi_checkpoint.parent
        metrics = (out / "metrics_mhi.csv").read_text().splitlines()
        assert metrics[0] == "epoch,split,loss,accuracy"
        assert any(row.split(",")[1] == "val" for row in metrics[1:])

    def test_eval_full_archive(self, dataset_dir, mhi_checkpoint, tmp_path,
                               capsys):
        rc = main(TINY + ["--out-dir", str(tmp_path),
                          "--checkpoint", str(mhi_checkpoint),
                          "eval", str(dataset_dir / "mhi.a3dc")])
        assert rc == 0
        assert "accuracy:" in capsys.readouterr().out
        rows = (tmp_path / "confusion.csv").read_text().splitlines()
        assert len(rows) == 7   # header + 6 classes
        total = sum(int(v) for row in rows[1:] for v in row.split(",")[1:])
        assert total == 36

    def test_eval_test_split_only(self, dataset_dir, mhi_checkpoint, tmp_path,
                                  capsys):
        rc = main(TINY + ["--out-dir", str(tmp_path),
                          "--checkpoint", str(mhi_checkpoint),
                          "eval", str(dataset_dir / "mhi.a3dc"),
                          "--test-split-only"])
        assert rc == 0
        assert "over 36 clips" not in capsys.readouterr().out

    def test_eval_without_checkpoint(self, dataset_dir, capsys):
        rc = main(TINY + ["eval", str(dataset_dir / "mhi.a3dc")])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_eval_checkpoint_path_missing(self, dataset_dir, tmp_path):
        rc = main(TINY + ["--checkpoint", str(tmp_path / "none.a3dw"),
                          "eval", str(dataset_dir / "mhi.a3dc")])
        assert rc == 2

    def test_eval_truncated_archive(self, dataset_dir, mhi_checkpoint,
                                    tmp_path, capsys):
        data = (dataset_dir / "mhi.a3dc").read_bytes()
        bad = tmp_path / "cut.a3dc"
        bad.write_bytes(data[: len(data) // 2])
        rc = main(TINY + ["--out-dir", str(tmp_path),
                          "--checkpoint", str(mhi_checkpoint),
                          "eval", str(bad)])
        assert rc == 2
        assert str(bad) in capsys.readouterr().err

    def test_eval_truncated_checkpoint(self, dataset_dir, mhi_checkpoint,
                                       tmp_path, capsys):
        data = mhi_checkpoint.read_bytes()
        bad = tmp_path / "cut.a3dw"
        bad.write_bytes(data[: len(data) // 2])
        rc = main(TINY + ["--out-dir", str(tmp_path), "--checkpoint", str(bad),
                          "eval", str(dataset_dir / "mhi.a3dc")])
        assert rc == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["size_minus_one", "size_plus_one",
                                        "nan_weight"])
    def test_eval_bad_parameter_record(self, dataset_dir, mhi_checkpoint,
                                       tmp_path, capsys, change):
        data = bytearray(mhi_checkpoint.read_bytes())
        (meta_len,) = struct.unpack_from("<I", data, 14)
        pos = 18 + meta_len + 4                  # the first parameter record
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2 + name_len
        ndim, size = struct.unpack_from("<BI", data, pos)
        if change == "nan_weight":
            struct.pack_into("<f", data, pos + 5 + 4 * ndim, np.nan)
        else:
            struct.pack_into("<I", data, pos + 1,
                             size + (1 if change == "size_plus_one" else -1))
        bad = tmp_path / "record.a3dw"
        bad.write_bytes(bytes(data))
        rc = main(TINY + ["--out-dir", str(tmp_path), "--checkpoint", str(bad),
                          "eval", str(dataset_dir / "mhi.a3dc")])
        assert rc == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_train_non_finite_pixel_is_user_error(self, dataset_dir, tmp_path,
                                                  capsys, value):
        archive = read_clip_archive(dataset_dir / "mhi.a3dc")
        archive.clips[5].frames[0, 0, 3, 3] = value
        bad = tmp_path / "nan.a3dc"
        pack_clip_archive(archive, bad)
        out = tmp_path / "out"
        rc = main(TINY + ["--out-dir", str(out), "train", str(bad)])
        assert rc == 2
        assert f"{bad}: record 5" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_input_variant_trains_nothing(self, dataset_dir, tmp_path,
                                                  capsys):
        rc = main(TINY + ["--out-dir", str(tmp_path),
                          "--set", "input_variant=foo",
                          "train", str(dataset_dir / "rgb.a3dc")])
        assert rc == 2
        assert "input_variant" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_eval_archive_cut_inside_header(self, dataset_dir, mhi_checkpoint,
                                           tmp_path, capsys):
        bad = tmp_path / "head.a3dc"
        bad.write_bytes((dataset_dir / "mhi.a3dc").read_bytes()[:8])
        rc = main(TINY + ["--out-dir", str(tmp_path),
                          "--checkpoint", str(mhi_checkpoint),
                          "eval", str(bad)])
        assert rc == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        edit_spec(lambda spec: spec.update(foo=1)),
        edit_spec(lambda spec: spec.pop("use_skips")),
        lambda raw: b"\xff" + raw[1:],
        edit_spec(lambda spec: spec.update(input_shape=5)),
        edit_spec(lambda spec: spec.update(fc_width="64")),
        edit_meta(lambda meta: meta.pop("spec")),
        edit_meta(lambda meta: meta.pop("epoch")),
        edit_meta(lambda meta: meta.pop("history")),
        lambda raw: b"[" + raw + b"]",
        edit_meta(lambda meta: meta.update(spec=5)),
        edit_meta(lambda meta: meta.update(spec=None)),
    ], ids=["unknown_spec_key", "missing_spec_key", "not_utf8",
            "input_shape_not_a_list", "fc_width_not_an_int", "no_spec",
            "no_epoch", "no_history", "metadata_is_a_list",
            "spec_is_a_number", "spec_is_null"])
    def test_eval_bad_checkpoint_metadata(self, dataset_dir, mhi_checkpoint,
                                          tmp_path, capsys, edit):
        bad = rewrite_metadata(mhi_checkpoint, tmp_path / "meta.a3dw", edit)
        rc = main(TINY + ["--out-dir", str(tmp_path), "--checkpoint", str(bad),
                          "eval", str(dataset_dir / "mhi.a3dc")])
        assert rc == 2
        assert str(bad) in capsys.readouterr().err

    def test_train_too_few_clips_per_class(self, tmp_path, capsys):
        names = [f"c{i}" for i in range(10)]
        clips = [Clip(np.zeros((1, 1, 32, 32), dtype=np.float32))
                 for _ in names]
        data = tmp_path / "tiny.a3dc"
        pack_clip_archive(ClipArchive(names, clips, list(range(10))), data)
        rc = main(TINY + ["--out-dir", str(tmp_path / "out"),
                          "--set", "num_classes=10", "train", str(data)])
        assert rc == 2
        assert "too small" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_archive_without_clips(self, mhi_checkpoint, tmp_path, capsys,
                                   command):
        data = tmp_path / "empty.a3dc"
        pack_clip_archive(ClipArchive(label_names=["a"]), data)
        rc = main(TINY + ["--out-dir", str(tmp_path / "out"),
                          "--checkpoint", str(mhi_checkpoint),
                          command, str(data)])
        assert rc == 2
        assert str(data) in capsys.readouterr().err

    def test_corrupt_archive_fails_nonzero(self, tmp_path):
        bad = tmp_path / "bad.a3dc"
        bad.write_bytes(b"garbage data, not an archive")
        rc = main(TINY + ["--out-dir", str(tmp_path), "train", str(bad)])
        assert rc in (1, 2) and rc != 0


class TestClassify:
    def shot_frames(self, tmp_path):
        shots = [SpriteSpec(pattern="spin", size=8, start=(16.0, 16.0)),
                 SpriteSpec(pattern="bounce", size=8, start=(16.0, 16.0))]
        video, bounds, labels = generate_shot_video(shots, 16, canvas=32)
        frames_dir = tmp_path / "frames"
        write_frames(video, frames_dir)
        return frames_dir, bounds, labels

    def test_classify_produces_shot_summary(self, mhi_checkpoint, tmp_path,
                                            dataset_dir):
        frames_dir, _, _ = self.shot_frames(tmp_path)
        rc = main(TINY + ["--out-dir", str(tmp_path / "out"),
                          "--checkpoint", str(mhi_checkpoint),
                          "--set", "clip_seconds=0.32",
                          "--set", "stride_seconds=0.32",
                          "classify", str(frames_dir),
                          "--labels", str(dataset_dir / "mhi.a3dc")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(doc["subjects"]) == 1
        assert doc["subjects"][0]["kind"] == "shot"
        assert len(doc["subjects"][0]["events"]) >= 1
        assert (tmp_path / "out" / "summary.svg").exists()

    def test_classify_deterministic(self, mhi_checkpoint, tmp_path,
                                    dataset_dir):
        frames_dir, _, _ = self.shot_frames(tmp_path)
        outs = []
        for name in ("a", "b"):
            rc = main(TINY + ["--out-dir", str(tmp_path / name),
                              "--checkpoint", str(mhi_checkpoint),
                              "--set", "clip_seconds=0.32",
                              "--set", "stride_seconds=0.32",
                              "classify", str(frames_dir)])
            assert rc == 0
            outs.append((tmp_path / name / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_video_shorter_than_clip(self, mhi_checkpoint, tmp_path, rng,
                                     capsys):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for t in range(4):
            write_pnm(frames_dir / f"{t:03d}.ppm",
                      (rng.random((3, 32, 32)) * 255).astype(np.uint8))
        rc = main(TINY + ["--out-dir", str(tmp_path / "out"),
                          "--checkpoint", str(mhi_checkpoint),
                          "classify", str(frames_dir)])
        assert rc == 0
        assert "shorter" in capsys.readouterr().out
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["subjects"] == []

    @pytest.mark.parametrize("header", [b"P5\n-4 -4\n255\n",
                                        b"P5\n0 4\n255\n",
                                        b"P6\n4 0\n255\n"])
    def test_frame_without_pixels_is_format_error(self, mhi_checkpoint,
                                                  tmp_path, capsys, header):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        bad = frames_dir / ("000.pgm" if header.startswith(b"P5")
                            else "000.ppm")
        bad.write_bytes(header)
        out = tmp_path / "out"
        rc = main(TINY + ["--checkpoint", str(mhi_checkpoint),
                          "--out-dir", str(out), "classify", str(frames_dir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and bad.name in err
        assert not out.exists()


def classify_whole_video(ckpt, frames_dir, cfg, path):
    """classify as it was before streaming: the whole video stacked, cut by
    segment_into_clips, classified in one predict call, energies from
    np.diff over the stack. Writes summary.json to path."""
    network, _, _, _ = load_checkpoint(ckpt)
    variant = "mhi" if network.spec.mode == "2d" else cfg.input_variant
    labels = [f"class{i}" for i in range(network.spec.num_classes)]
    video = load_frame_dir(frames_dir, fps=cfg.fps).clip()
    summary = Summary(video_id=str(frames_dir), fps=video.fps, labels=labels)
    windows = segment_into_clips(video, cfg.clip_seconds, cfg.stride_seconds)
    if windows:
        xs = np.stack([cli.clip_to_input(w, cfg, variant) for w in windows])
        preds, confs = predict(network, xs, cfg.batch)
        spans = [(w.start_frame, w.start_frame + w.num_frames)
                 for w in windows]
        energy = np.mean(np.abs(np.diff(video.frames, axis=0)),
                         axis=(1, 2, 3))
        bounds = shot_boundaries(energy, cfg.shot_energy_threshold)
        events = build_shot_timeline(video.num_frames, bounds, preds, spans,
                                     confs, labels)
        summary.subjects.append(Subject(id=0, kind="shot", events=events))
    export(summary, "json", path)


class TestClassifyStreaming:
    @staticmethod
    def config(args):
        """The config main() builds from TINY-style --set args."""
        return load_config(None, dict(a.split("=", 1) for a in args[1::2]))

    @pytest.mark.parametrize("variant", ["mhi", "rgb", "bs"])
    @pytest.mark.parametrize("stride_seconds,num_frames", [
        ("0.12", 64), ("0.32", 64), ("0.48", 64), ("0.32", 5)])
    def test_summary_matches_whole_video(self, request, tmp_path, variant,
                                         stride_seconds, num_frames):
        ckpt = request.getfixturevalue(
            "mhi_checkpoint" if variant == "mhi" else "rgb_checkpoint")
        shots = [SpriteSpec(pattern=p, size=8, start=(16.0, 16.0))
                 for p in ("spin", "bounce", "oscillate_arms", "translate")]
        video, _, _ = generate_shot_video(shots, 16, canvas=32)
        frames_dir = tmp_path / "frames"
        write_frames(Clip(video.frames[:num_frames]), frames_dir)
        sets = TINY + ["--set", f"input_variant={variant}",
                       "--set", "input_frames=8",
                       "--set", "clip_seconds=0.32",
                       "--set", f"stride_seconds={stride_seconds}"]
        out = tmp_path / "out"
        rc = main(sets + ["--checkpoint", str(ckpt), "--out-dir", str(out),
                          "classify", str(frames_dir)])
        assert rc == 0
        want = tmp_path / "want.json"
        classify_whole_video(ckpt, frames_dir, self.config(sets), want)
        assert (out / "summary.json").read_bytes() == want.read_bytes()
        doc = json.loads(want.read_text())
        assert bool(doc["subjects"]) == (num_frames > 8)

    @pytest.mark.parametrize("suffix", [".pgm", ".ppm"])
    def test_energies_match_whole_video_diff(self, mhi_checkpoint, tmp_path,
                                             monkeypatch, rng, suffix):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        channels = 1 if suffix == ".pgm" else 3
        for t in range(30):
            write_pnm(frames_dir / f"{t:03d}{suffix}",
                      rng.integers(0, 256, (channels, 37, 53), dtype=np.uint8))
        seen = []

        def spy(energy, threshold):
            seen.append(np.asarray(energy))
            return shot_boundaries(energy, threshold)

        monkeypatch.setattr(cli, "shot_boundaries", spy)
        rc = main(TINY + ["--checkpoint", str(mhi_checkpoint),
                          "--out-dir", str(tmp_path / "out"),
                          "--set", "clip_seconds=0.32",
                          "classify", str(frames_dir)])
        assert rc == 0
        video = load_frame_dir(frames_dir).clip().frames
        want = np.mean(np.abs(np.diff(video, axis=0)), axis=(1, 2, 3))
        assert seen[0].dtype == want.dtype == np.float32
        assert seen[0].tobytes() == want.tobytes()

    def test_memory_does_not_grow_with_video_length(self, mhi_checkpoint,
                                                    tmp_path):
        peaks = []
        for frames in (60, 240):
            frames_dir = three_sprite_frames(tmp_path / str(frames),
                                             duration=frames / 25.0)
            # batch=4: both runs fill whole predict batches.
            args = TINY + ["--checkpoint", str(mhi_checkpoint),
                           "--out-dir", str(tmp_path / str(frames) / "out"),
                           "--set", "batch=4",
                           "--set", "clip_seconds=0.32",
                           "--set", "stride_seconds=0.32",
                           "classify", str(frames_dir)]
            tracemalloc.start()
            try:
                assert main(args) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 240 frames of 3x96x128 float32 alone would be 35 MiB.
        assert peaks[1] < 1.25 * peaks[0], peaks


def three_sprite_frames(tmp_path, duration=2.0):
    """The frames of a 128x96 scene: two walkers and one waving actor."""
    scene = SceneSpec(width=128, height=96, duration=duration, sprites=[
        SpriteSpec(pattern="translate", size=16, speed=1.5,
                   start=(-20.0, 20.0), texture_seed=1),
        SpriteSpec(pattern="oscillate_arms", size=16, start=(64.0, 48.0),
                   texture_seed=2, delay=12),
        SpriteSpec(pattern="translate", size=16, speed=-1.5,
                   start=(150.0, 76.0), texture_seed=3)])
    video, _ = generate_scene(scene)
    frames_dir = tmp_path / "frames"
    write_frames(video, frames_dir)
    return frames_dir


class TestRecognize:
    def test_single_walker_yields_timeline(self, mhi_checkpoint, tmp_path):
        scene = SceneSpec(width=128, height=96, duration=2.0,
                          sprites=[SpriteSpec(pattern="translate", size=16,
                                              speed=2.0, start=(-40.0, 48.0))])
        video, _ = generate_scene(scene)
        frames_dir = tmp_path / "frames"
        write_frames(video, frames_dir)
        out = tmp_path / "out"
        rc = main(TINY + ["--out-dir", str(out),
                          "--checkpoint", str(mhi_checkpoint),
                          "--set", "warmup_frames=10",
                          "--set", "clip_seconds=0.32",
                          "--set", "stride_seconds=0.32",
                          "recognize", str(frames_dir)])
        assert rc == 0
        doc = json.loads((out / "summary.json").read_text())
        assert len(doc["subjects"]) >= 1
        assert doc["subjects"][0]["kind"] == "person"
        assert len(doc["subjects"][0]["events"]) >= 1
        assert (out / "tracks.jsonl").read_text().strip()

    def test_debug_masks_written(self, mhi_checkpoint, tmp_path):
        scene = SceneSpec(width=96, height=64, duration=2.0,
                          sprites=[SpriteSpec(pattern="translate", size=16,
                                              speed=2.0, start=(-40.0, 32.0))])
        video, _ = generate_scene(scene)
        frames_dir = tmp_path / "frames"
        write_frames(video, frames_dir)
        out = tmp_path / "out"
        rc = main(TINY + ["--out-dir", str(out),
                          "--checkpoint", str(mhi_checkpoint),
                          "--debug-dir", str(tmp_path / "dbg"),
                          "--set", "warmup_frames=10",
                          "recognize", str(frames_dir)])
        assert rc == 0
        masks = sorted((tmp_path / "dbg").glob("mask_*.pgm"))
        assert len(masks) == video.num_frames

    @pytest.mark.parametrize("variant", ["rgb", "mhi"])
    def test_one_crop_per_recorded_state(self, request, tmp_path, monkeypatch,
                                         variant):
        ckpt = request.getfixturevalue(f"{variant}_checkpoint")
        masked = []

        def spy(frame, box, out_size, mask=None):
            masked.append(mask is not None)
            return person_crop(frame, box, out_size, mask)

        monkeypatch.setattr(cli, "person_crop", spy)
        scene = SceneSpec(width=128, height=96, duration=2.0,
                          sprites=[SpriteSpec(pattern="translate", size=16,
                                              speed=2.0, start=(-40.0, 48.0))])
        video, _ = generate_scene(scene)
        frames_dir = tmp_path / "frames"
        write_frames(video, frames_dir)
        out = tmp_path / "out"
        rc = main(TINY + (RGB if variant == "rgb" else [])
                  + ["--out-dir", str(out), "--checkpoint", str(ckpt),
                     "--set", "warmup_frames=10",
                     "--set", "clip_seconds=0.32",
                     "--set", "stride_seconds=0.32",
                     "recognize", str(frames_dir)])
        assert rc == 0
        states = (out / "tracks.jsonl").read_text().splitlines()
        assert len(masked) == len(states) > 0
        # rgb crops are unmasked; the mhi input is built from masked crops
        assert set(masked) == {variant == "mhi"}
        doc = json.loads((out / "summary.json").read_text())
        assert doc["subjects"] and doc["subjects"][0]["events"]

    def test_outputs_match_flood_fill_labeling(self, mhi_checkpoint, tmp_path,
                                               monkeypatch):
        frames_dir = three_sprite_frames(tmp_path)

        def recognize(out):
            rc = main(TINY + ["--out-dir", str(out),
                              "--checkpoint", str(mhi_checkpoint),
                              "--set", "warmup_frames=10",
                              "--set", "clip_seconds=0.32",
                              "--set", "stride_seconds=0.32",
                              "recognize", str(frames_dir)])
            assert rc == 0
            return [(out / name).read_bytes()
                    for name in ("tracks.jsonl", "summary.json")]

        runs = recognize(tmp_path / "runs")
        monkeypatch.setattr(motionseg, "connected_components",
                            flood_fill_components)
        flood = recognize(tmp_path / "flood")
        assert runs == flood
        tracks = {json.loads(line)["track"]
                  for line in runs[0].decode().splitlines()}
        assert len(tracks) >= 3

    def test_track_seen_in_one_frame_skipped(self, mhi_checkpoint, tmp_path,
                                             capsys):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for t in range(6):
            img = np.zeros((3, 32, 32), dtype=np.uint8)
            if t == 5:
                img[:, 10:22, 10:22] = 255
            write_pnm(frames_dir / f"{t:03d}.ppm", img)
        out = tmp_path / "out"
        rc = main(TINY + ["--out-dir", str(out),
                          "--checkpoint", str(mhi_checkpoint),
                          "--set", "warmup_frames=0",
                          "recognize", str(frames_dir)])
        assert rc == 0
        assert "track 1: too short, skipped" in capsys.readouterr().out
        assert len((out / "tracks.jsonl").read_text().splitlines()) == 1
        assert json.loads((out / "summary.json").read_text())["subjects"] == []


class TestTrackWindows:
    """The streaming window buffer cuts what segment_into_clips cuts from
    the whole stacked crop list, and classifies it in predict's batches."""

    @staticmethod
    def reference(crops, clip_frames, stride):
        source = Clip(np.stack(crops), fps=25.0)
        windows = segment_into_clips(source, clip_frames / 25.0,
                                     stride / 25.0) or [source]
        return [w.frames for w in windows], [w.start_frame for w in windows]

    @staticmethod
    def run(crops, clip_frames, stride, batch, to_input):
        """Push the crops; returns the finish() results, the batches
        classified and the most crops held at once."""
        batches = []

        def classify(xs):
            batches.append(xs)
            first = sum(len(b) for b in batches) - len(xs)
            return (list(range(first, first + len(xs))),
                    [float(x.sum()) for x in xs])

        buffer = cli.TrackWindows(clip_frames, stride, batch, to_input,
                                  classify)
        held = 0
        for crop in crops:
            buffer.push(crop)
            held = max(held, len(buffer.crops))
            assert len(buffer.inputs) < batch
        return buffer.finish(), batches, held

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 40), clip_frames=st.integers(1, 12),
           stride=st.integers(1, 15), batch=st.integers(1, 6),
           seed=st.integers(0, 2**16))
    def test_matches_segment_into_clips(self, n, clip_frames, stride, batch,
                                        seed):
        rng = np.random.default_rng(seed)
        crops = list(rng.random((n, 2, 3, 3)).astype(np.float32))
        (preds, confs, starts), batches, held = self.run(
            crops, clip_frames, stride, batch, lambda f: f * 1)
        want, want_starts = self.reference(crops, clip_frames, stride)
        assert starts == want_starts
        assert preds == list(range(len(want)))
        assert confs == [float(w.sum()) for w in want]
        assert [len(b) for b in batches] == \
            [len(want[i:i + batch]) for i in range(0, len(want), batch)]
        windows = [x for b in batches for x in b]
        assert all(x.tobytes() == w.tobytes() for x, w in zip(windows, want))
        assert held <= clip_frames

    @pytest.mark.parametrize("variant", ["mhi", "rgb", "bs"])
    @pytest.mark.parametrize("clip_frames,stride", [(8, 8), (8, 3), (5, 9),
                                                    (16, 4), (50, 1)])
    def test_network_inputs_match(self, rng, variant, clip_frames, stride):
        cfg = PipelineConfig(input_size=8, input_frames=4,
                             input_variant=variant)
        crops = list(rng.random((37, 3, 8, 8)).astype(np.float32))

        def to_input(frames):
            return cli.clip_to_input(Clip(frames, fps=25.0), cfg, variant)

        (_, _, starts), batches, _ = self.run(crops, clip_frames, stride, 4,
                                              to_input)
        windows, want_starts = self.reference(crops, clip_frames, stride)
        want = np.stack([to_input(w) for w in windows])
        assert starts == want_starts
        assert np.concatenate(batches).tobytes() == want.tobytes()


class TestRecognizeStreaming:
    @pytest.mark.parametrize("variant", ["mhi", "rgb", "bs"])
    @pytest.mark.parametrize("stride_seconds", ["0.32", "0.12", "0.48"])
    def test_summary_matches_full_crop_lists(self, request, tmp_path,
                                             monkeypatch, variant,
                                             stride_seconds):
        ckpt = request.getfixturevalue(
            "mhi_checkpoint" if variant == "mhi" else "rgb_checkpoint")
        frames_dir = three_sprite_frames(tmp_path)
        args = TINY + ["--checkpoint", str(ckpt),
                       "--set", f"input_variant={variant}",
                       "--set", "input_frames=8",
                       "--set", "warmup_frames=10",
                       "--set", "clip_seconds=0.32",
                       "--set", f"stride_seconds={stride_seconds}"]

        def recognize(out):
            rc = main(args + ["--out-dir", str(out), "recognize",
                              str(frames_dir)])
            assert rc == 0
            return [(out / name).read_bytes()
                    for name in ("tracks.jsonl", "summary.json")]

        streamed = recognize(tmp_path / "streamed")

        class FullCropList:
            """Every crop of the track kept to the end, then cut into
            windows by segment_into_clips and classified in one call."""

            def __init__(self, clip_frames, stride, batch, to_input,
                         classify):
                self.to_input, self.classify = to_input, classify
                self.crops = []

            def push(self, crop):
                self.crops.append(crop)

            def finish(self):
                source = Clip(np.stack(self.crops), fps=25.0)
                windows = segment_into_clips(
                    source, 0.32, float(stride_seconds)) or [source]
                preds, confs = self.classify(
                    np.stack([self.to_input(w.frames) for w in windows]))
                return preds, confs, [w.start_frame for w in windows]

        monkeypatch.setattr(cli, "TrackWindows", FullCropList)
        assert recognize(tmp_path / "full") == streamed
        doc = json.loads(streamed[1])
        assert sum(len(s["events"]) for s in doc["subjects"]) >= 3

    def test_memory_does_not_grow_with_video_length(self, mhi_checkpoint,
                                                    tmp_path):
        peaks = []
        for frames in (60, 240):
            frames_dir = three_sprite_frames(tmp_path / str(frames),
                                             duration=frames / 25.0)
            # batch=4: both runs fill whole predict batches, whose
            # activations would otherwise grow up to the batch size.
            args = TINY + ["--checkpoint", str(mhi_checkpoint),
                           "--out-dir", str(tmp_path / str(frames) / "out"),
                           "--set", "batch=4", "--set", "warmup_frames=10",
                           "--set", "clip_seconds=0.32",
                           "--set", "stride_seconds=0.32",
                           "recognize", str(frames_dir)]
            tracemalloc.start()
            try:
                assert main(args) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 240 frames of 3x96x128 float32 alone would be 35 MiB.
        assert peaks[1] < 1.25 * peaks[0], peaks

    @pytest.mark.parametrize("command", ["recognize", "classify"])
    @pytest.mark.parametrize("key,value", [("stride_seconds", "0.01"),
                                           ("clip_seconds", "0.01")])
    def test_window_under_one_frame_is_config_error(self, mhi_checkpoint,
                                                    tmp_path, capsys,
                                                    command, key, value):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        for t in range(3):
            write_pnm(frames_dir / f"{t:03d}.ppm",
                      np.zeros((3, 16, 16), dtype=np.uint8))
        # A raster cut short: the check must come before any frame is read.
        first = frames_dir / "000.ppm"
        first.write_bytes(first.read_bytes()[:-1])
        out = tmp_path / "out"
        rc = main(TINY + ["--checkpoint", str(mhi_checkpoint),
                          "--out-dir", str(out), "--set", f"{key}={value}",
                          command, str(frames_dir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {key}={value}" in err and "one frame" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["recognize", "classify"])
    @pytest.mark.parametrize("suffix", [".pgm", ".ppm"])
    def test_one_frame_mhi_window_is_config_error(self, mhi_checkpoint,
                                                  tmp_path, capsys, command,
                                                  suffix):
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        channels = 1 if suffix == ".pgm" else 3
        for t in range(3):
            write_pnm(frames_dir / f"{t:03d}{suffix}",
                      np.zeros((channels, 16, 16), dtype=np.uint8))
        # A raster cut short: the check must come before any frame is read.
        first = frames_dir / f"000{suffix}"
        first.write_bytes(first.read_bytes()[:-1])
        out = tmp_path / "out"
        rc = main(TINY + ["--checkpoint", str(mhi_checkpoint),
                          "--out-dir", str(out),
                          "--set", "clip_seconds=0.04",
                          "--set", "stride_seconds=0.04",
                          command, str(frames_dir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: clip_seconds=0.04 is 1 frame" in err
        assert "two frames" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,outputs", [
        ("recognize", ("tracks.jsonl", "summary.json", "summary.svg")),
        ("classify", ("summary.json", "summary.svg"))])
    def test_frame_truncated_partway_is_format_error(self, mhi_checkpoint,
                                                     tmp_path, capsys,
                                                     command, outputs):
        frames_dir = three_sprite_frames(tmp_path)
        bad = sorted(frames_dir.iterdir())[23]
        bad.write_bytes(bad.read_bytes()[:-100])
        out = tmp_path / "out"
        rc = main(TINY + ["--checkpoint", str(mhi_checkpoint),
                          "--out-dir", str(out),
                          "--set", "warmup_frames=10",
                          "--set", "clip_seconds=0.32",
                          "--set", "stride_seconds=0.32",
                          command, str(frames_dir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and bad.name in err
        assert "truncated" in err
        assert not any((out / name).exists() for name in outputs)


class TestSummarize:
    def test_rerender_svg(self, tmp_path):
        doc = {"video": "v", "fps": 25.0, "labels": ["a"],
               "subjects": [{"id": 1, "kind": "person", "events": [
                   {"action": "a", "start": 0, "end": 10,
                    "confidence": 0.5}]}]}
        src = tmp_path / "summary.json"
        src.write_text(json.dumps(doc))
        rc = main(["--out-dir", str(tmp_path / "out"),
                   "summarize", str(src)])
        assert rc == 0
        assert (tmp_path / "out" / "summary.svg").read_text().startswith("<svg")

    def test_missing_input(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "nope.json")]) == 2


def pair_energies(frames):
    return np.mean(np.abs(np.diff(frames, axis=0)), axis=(1, 2, 3))


class TestShotBoundaries:
    def test_detects_single_cut(self):
        frames = np.zeros((20, 1, 8, 8), dtype=np.float32)
        frames[10:] = 0.8
        bounds = shot_boundaries(pair_energies(frames), 0.15)
        assert bounds == [10]

    def test_adjacent_spikes_collapse(self):
        frames = np.zeros((20, 1, 8, 8), dtype=np.float32)
        frames[10] = 0.5
        frames[11:] = 1.0
        bounds = shot_boundaries(pair_energies(frames), 0.15)
        assert bounds == [10]

    def test_ramp_of_four_spikes_gives_its_first_frame(self):
        frames = np.zeros((20, 1, 8, 8), dtype=np.float32)
        for i, level in enumerate((0.25, 0.5, 0.75)):
            frames[10 + i] = level
        frames[13:] = 1.0
        energy = pair_energies(frames)
        assert list(np.nonzero(energy > 0.15)[0] + 1) == [10, 11, 12, 13]
        assert shot_boundaries(energy, 0.15) == [10]

    def test_runs_apart_give_one_cut_each(self):
        energy = [0.0, 0.5, 0.5, 0.5, 0.0, 0.5, 0.0, 0.5, 0.5]
        assert shot_boundaries(energy, 0.15) == [2, 6, 8]

    def test_no_cut_in_smooth_video(self, rng):
        base = rng.random((1, 8, 8)).astype(np.float32)
        frames = np.stack([base + 0.001 * t for t in range(10)])
        assert shot_boundaries(pair_energies(frames), 0.15) == []
