import numpy as np
import pytest

from vidact.sequences import compute_mhi
from vidact.synth import (ACTIONS, SceneSpec, SpriteSpec, background_texture,
                          generate_action_clip, generate_scene,
                          generate_shot_video, make_action_dataset)


class TestActionClip:
    def test_translate_centroid_moves_exactly(self):
        sprite = SpriteSpec(pattern="translate", size=12, speed=2.0,
                            start=(16.0, 32.0), texture_seed=1)
        clip, label = generate_action_clip(sprite, 8, canvas=64)
        assert label == ACTIONS.index("translate")
        bg = generate_action_clip(
            SpriteSpec(pattern="still", size=12, start=(-100, -100)),
            1, canvas=64)[0].frames[0]
        centroids = []
        for t in range(8):
            diff = np.abs(clip.frames[t] - bg).sum(axis=0) > 0.05
            ys, xs = np.nonzero(diff)
            centroids.append(xs.mean())
        deltas = np.diff(centroids)
        np.testing.assert_allclose(deltas, 2.0, atol=0.2)

    def test_still_frames_identical_without_noise(self):
        sprite = SpriteSpec(pattern="still", size=12, start=(32.0, 32.0))
        clip, _ = generate_action_clip(sprite, 6, noise_sigma=0.0)
        for t in range(1, 6):
            np.testing.assert_array_equal(clip.frames[t], clip.frames[0])

    def test_deterministic_in_seeds(self):
        sprite = SpriteSpec(pattern="spin", size=12, texture_seed=9,
                            start=(32.0, 32.0))
        a, _ = generate_action_clip(sprite, 6, noise_sigma=0.02, noise_seed=3)
        b, _ = generate_action_clip(sprite, 6, noise_sigma=0.02, noise_seed=3)
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            SpriteSpec(pattern="moonwalk")


class TestScene:
    def test_three_sprites_three_ids(self):
        sprites = [SpriteSpec(pattern="still", size=10, start=(20.0, 20.0)),
                   SpriteSpec(pattern="bounce", size=10, start=(60.0, 40.0)),
                   SpriteSpec(pattern="spin", size=10, start=(100.0, 60.0))]
        scene = SceneSpec(width=128, height=96, duration=2.0, sprites=sprites)
        _, truth = generate_scene(scene)
        for entries in truth.per_frame:
            assert sorted(e[0] for e in entries) == [0, 1, 2]

    def test_no_noise_pixels_match_texture(self):
        sprite = SpriteSpec(pattern="still", size=8, start=(32.0, 32.0),
                            texture_seed=2)
        scene = SceneSpec(width=64, height=64, duration=2.0, sprites=[sprite],
                          noise_sigma=0.0)
        video, truth = generate_scene(scene)
        x, y, w, h = truth.per_frame[0][0][1]
        from vidact.synth import sprite_texture
        tex = sprite_texture(sprite)
        np.testing.assert_allclose(video.frames[0][:, y : y + h, x : x + w],
                                   tex, atol=1e-6)

    def test_ground_truth_boxes_tight(self):
        sprite = SpriteSpec(pattern="spin", size=10, start=(32.0, 32.0),
                            texture_seed=3)
        scene = SceneSpec(width=64, height=64, duration=2.0, sprites=[sprite],
                          noise_sigma=0.0)
        video, truth = generate_scene(scene)
        bg_scene = SceneSpec(width=64, height=64, duration=2.0, sprites=[],
                             noise_sigma=0.0)
        bg_video, _ = generate_scene(bg_scene)
        for t in range(video.num_frames):
            x, y, w, h = truth.per_frame[t][0][1]
            changed = np.abs(video.frames[t] - bg_video.frames[t]).sum(axis=0) > 0
            ys, xs = np.nonzero(changed)
            assert (xs.min(), ys.min()) == (x, y)
            assert (xs.max(), ys.max()) == (x + w - 1, y + h - 1)

    def test_delayed_sprite_absent_then_appears(self):
        sprite = SpriteSpec(pattern="bounce", size=8, start=(32.0, 32.0),
                            delay=10)
        scene = SceneSpec(width=64, height=64, duration=2.0, sprites=[sprite])
        video, truth = generate_scene(scene)
        assert all(truth.per_frame[t] == [] for t in range(10))
        assert truth.per_frame[10] != []
        # animation is anchored at the appearance frame
        undelayed, _ = generate_scene(
            SceneSpec(width=64, height=64, duration=2.0,
                      sprites=[SpriteSpec(pattern="bounce", size=8,
                                          start=(32.0, 32.0))]))
        np.testing.assert_array_equal(video.frames[10],
                                      undelayed.frames[0])

    def test_duration_validated(self):
        with pytest.raises(ValueError):
            SceneSpec(duration=1.0)

    def test_byte_determinism(self):
        scene = SceneSpec(width=64, height=64, duration=2.0,
                          sprites=[SpriteSpec(pattern="bounce", size=8,
                                              start=(30.0, 30.0))],
                          noise_sigma=0.01)
        a, _ = generate_scene(scene)
        b, _ = generate_scene(scene)
        assert a.frames.tobytes() == b.frames.tobytes()


def written_out_background(seed, height, width):
    """The corner-aligned bilinear enlargement of an 8x8 noise grid, spelled
    out: the background every generated scene and clip has been drawn on."""
    coarse = np.random.default_rng(seed).random((3, 8, 8)) * 0.2 + 0.05
    ys, xs = np.linspace(0, 7, height), np.linspace(0, 7, width)
    y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
    y1, x1 = np.minimum(y0 + 1, 7), np.minimum(x0 + 1, 7)
    fy, fx = (ys - y0)[:, None], (xs - x0)[None, :]
    top = coarse[:, y0[:, None], x0[None, :]] * (1 - fx) \
        + coarse[:, y0[:, None], x1[None, :]] * fx
    bot = coarse[:, y1[:, None], x0[None, :]] * (1 - fx) \
        + coarse[:, y1[:, None], x1[None, :]] * fx
    return top * (1 - fy) + bot * fy


@pytest.mark.parametrize("height,width", [(1, 5), (5, 1), (1, 1), (8, 8),
                                          (64, 64), (240, 320)])
def test_background_bytes_unchanged(height, width):
    got = background_texture(11, height, width)
    want = written_out_background(11, height, width)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestShotVideo:
    def shots(self):
        return [SpriteSpec(pattern="translate", size=12, speed=1.0,
                           start=(12.0, 32.0)),
                SpriteSpec(pattern="spin", size=12, start=(32.0, 32.0)),
                SpriteSpec(pattern="bounce", size=12, start=(32.0, 32.0))]

    def test_boundaries(self):
        video, bounds, labels = generate_shot_video(self.shots(), 50)
        assert bounds == [50, 100]
        assert video.num_frames == 150
        assert labels == [ACTIONS.index("translate"), ACTIONS.index("spin"),
                          ACTIONS.index("bounce")]

    def test_boundary_energy_dominates(self):
        video, bounds, _ = generate_shot_video(self.shots(), 50)
        diffs = np.mean(np.abs(np.diff(video.frames, axis=0)),
                        axis=(1, 2, 3))
        boundary_energy = min(diffs[b - 1] for b in bounds)
        in_shot = np.delete(diffs, [b - 1 for b in bounds])
        assert boundary_energy >= 5 * in_shot.max()

    def test_single_shot_no_boundaries(self):
        video, bounds, labels = generate_shot_video(self.shots()[:1], 40)
        assert bounds == [] and video.num_frames == 40

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_shot_video([])


class TestClassSeparability:
    def test_nearest_centroid_on_mhi_beats_chance(self):
        # Independent sanity floor before any network training: raw-MHI
        # nearest-centroid must clear 60% on a 6-class set (chance 16.7%).
        clips, labels = make_action_dataset(50, num_frames=32, canvas=64,
                                            seed=77)
        feats = np.stack([compute_mhi(c, tau=16).values.ravel()
                          for c in clips])
        labels = np.asarray(labels)
        train = np.arange(len(feats)) % 2 == 0
        test = ~train
        centroids = np.stack([feats[train & (labels == c)].mean(axis=0)
                              for c in range(6)])
        d = ((feats[test, None, :] - centroids[None]) ** 2).sum(axis=2)
        pred = d.argmin(axis=1)
        acc = (pred == labels[test]).mean()
        assert acc > 0.6
