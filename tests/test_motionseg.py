import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import flood_fill_components
from vidact.motionseg import (BackgroundModel, ExtentError, connected_components,
                              detect_people, morph, to_gray)
from vidact.synth import SceneSpec, SpriteSpec, generate_scene
from vidact.tracking import iou


class TestBackgroundModel:
    def test_geometric_convergence(self):
        model = BackgroundModel(4, 4, alpha=0.1)
        frame = np.ones((4, 4))
        for k in range(1, 20):
            model.update(frame)
            np.testing.assert_allclose(model.mean, 1 - 0.9**k)

    def test_alpha_validated(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                BackgroundModel(2, 2, alpha=bad)

    def test_update_with_mean_is_noop(self, rng):
        model = BackgroundModel(3, 3, alpha=0.3)
        frame = rng.random((3, 3))
        model.seed(frame)
        model.update(frame)
        np.testing.assert_allclose(model.mean, frame)

    def test_contraction_toward_input(self, rng):
        model = BackgroundModel(3, 3, alpha=0.25)
        model.seed(rng.random((3, 3)))
        frame = rng.random((3, 3))
        before = np.abs(model.mean - frame)
        model.update(frame)
        np.testing.assert_allclose(np.abs(model.mean - frame), 0.75 * before)

    def test_extent_mismatch(self):
        model = BackgroundModel(4, 4)
        with pytest.raises(ExtentError):
            model.update(np.zeros((5, 5)))


class TestForegroundMask:
    def test_frame_equals_mean_gives_empty(self, rng):
        model = BackgroundModel(4, 4)
        frame = rng.random((4, 4))
        model.seed(frame)
        assert not model.foreground_mask(frame).any()

    def test_threshold_one_always_empty(self, rng):
        model = BackgroundModel(4, 4, threshold=1.0)
        model.seed(np.zeros((4, 4)))
        assert not model.foreground_mask(rng.random((4, 4))).any()

    def test_monotone_in_threshold(self, rng):
        frame = rng.random((8, 8))
        lo = BackgroundModel(8, 8, threshold=0.2)
        hi = BackgroundModel(8, 8, threshold=0.5)
        m_lo = lo.foreground_mask(frame)
        m_hi = hi.foreground_mask(frame)
        assert not (m_hi & ~m_lo).any()

    def test_bright_square_recovered(self):
        model = BackgroundModel(32, 32, threshold=0.1)
        bg = np.full((32, 32), 0.2)
        model.seed(bg)
        frame = bg.copy()
        frame[10:18, 12:20] = 0.9
        mask = model.foreground_mask(frame)
        want = np.zeros((32, 32), dtype=bool)
        want[10:18, 12:20] = True
        np.testing.assert_array_equal(mask, want)


class TestMorph:
    def test_open_removes_isolated_pixels(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 4] = True
        assert not morph(mask, "open", 1).any()

    def test_close_fills_hole(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[2:7, 2:7] = True
        mask[4, 4] = False
        out = morph(mask, "close", 1)
        assert out[4, 4]

    def test_empty_stays_empty(self):
        mask = np.zeros((5, 5), dtype=bool)
        assert not morph(mask, "open", 1).any()
        assert not morph(mask, "close", 1).any()

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            morph(np.zeros((3, 3), dtype=bool), "open", 0)


class TestConnectedComponents:
    def test_two_squares(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[2:7, 2:7] = True
        mask[10:15, 12:17] = True
        dets = connected_components(mask, min_area=4)
        assert len(dets) == 2
        assert dets[0].box == (2, 2, 5, 5)
        assert dets[1].box == (12, 10, 5, 5)
        assert dets[0].area == 25

    def test_empty_mask(self):
        assert connected_components(np.zeros((5, 5), dtype=bool), 1) == []

    def test_diagonal_touch_is_one_component(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = mask[2, 2] = True
        dets = connected_components(mask, min_area=1)
        assert len(dets) == 1

    def test_min_area_filters(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, 0] = True
        mask[5:8, 5:8] = True
        dets = connected_components(mask, min_area=2)
        assert len(dets) == 1 and dets[0].area == 9

    def test_boxes_tight(self, rng):
        mask = rng.random((16, 16)) > 0.7
        for det in connected_components(mask, min_area=1):
            x, y, w, h = det.box
            sub = mask[y : y + h, x : x + w]
            assert sub[0].any() and sub[-1].any()
            assert sub[:, 0].any() and sub[:, -1].any()


def checkerboard(h, w):
    return (np.add.outer(np.arange(h), np.arange(w)) % 2).astype(bool)


def edge_runs(h, w):
    # Rows alternate between a full-width run and runs at both edges only.
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    mask[1::2, :2] = mask[1::2, -2:] = True
    return mask


def assert_matches_flood_fill(mask):
    for min_area in (1, 4, 64):
        got = connected_components(mask, min_area, frame_index=7)
        want = flood_fill_components(mask, min_area, frame_index=7)
        assert got == want
        assert [d.frame_index for d in got] == [7] * len(got)


class TestConnectedComponentsOracle:
    """Run-based labeling against the per-pixel flood fill: same boxes,
    areas, order and frame index."""

    @settings(max_examples=300, deadline=None)
    @given(arrays(bool, array_shapes(min_dims=2, max_dims=2, min_side=0,
                                     max_side=24)))
    @example(np.zeros((0, 7), dtype=bool))
    @example(np.zeros((7, 0), dtype=bool))
    @example(np.ones((1, 9), dtype=bool))
    @example(np.ones((9, 1), dtype=bool))
    @example(np.ones((20, 20), dtype=bool))
    @example(checkerboard(12, 13))
    @example(checkerboard(1, 8))
    @example(edge_runs(11, 10))
    def test_random_masks(self, mask):
        assert_matches_flood_fill(mask)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.floats(0.05, 0.95),
           st.integers(0, 2**32 - 1))
    def test_dense_random_masks(self, h, w, density, seed):
        r = np.random.default_rng(seed)
        assert_matches_flood_fill(r.random((h, w)) < density)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (16, 16),
                                       (15, 16)])
    def test_structured_masks(self, shape):
        h, w = shape
        for mask in (np.ones(shape, dtype=bool), checkerboard(h, w),
                     ~checkerboard(h, w), edge_runs(h, w)):
            assert_matches_flood_fill(mask)

    def test_checkerboard_is_one_component(self):
        dets = connected_components(checkerboard(10, 10), min_area=1)
        assert [(d.box, d.area) for d in dets] == [((0, 0, 10, 10), 50)]


class TestGray:
    def test_weights(self):
        frame = np.zeros((3, 1, 1))
        frame[1] = 1.0
        assert to_gray(frame)[0, 0] == pytest.approx(0.587)

    def test_gray_passthrough(self, rng):
        frame = rng.random((1, 4, 4))
        np.testing.assert_array_equal(to_gray(frame), frame[0])


class TestFullPipelineOnSyntheticScene:
    def test_moving_sprite_recovered(self):
        # Sprite enters from off-screen after the 25-frame warm-up.
        sprite = SpriteSpec(pattern="translate", size=16, speed=1.0,
                            start=(-40.0, 48.0), texture_seed=5)
        scene = SceneSpec(width=128, height=96, duration=6.0,
                          sprites=[sprite], background_seed=3)
        video, truth = generate_scene(scene)
        model = BackgroundModel(96, 128, alpha=0.05, threshold=0.1)
        model.seed(to_gray(video.frames[0]))
        hits = total = 0
        for t in range(video.num_frames):
            gray = to_gray(video.frames[t])
            dets, mask = detect_people(model, gray, min_area=64, frame_index=t)
            model.update_masked(gray, mask)
            gt = truth.per_frame[t]
            if t < 25 or not gt:
                continue
            total += 1
            if dets and max(iou(d.box, gt[0][1]) for d in dets) >= 0.7:
                hits += 1
        assert total > 50
        assert hits / total >= 0.95
