import numpy as np
import pytest

from vidact.sequences import (InsufficientFramesError, compute_mhi, crop_box,
                              person_crop, subsample_time)
from vidact.videoio import Clip


def make_clip(frames, c=3, h=32, w=32, fps=25.0, seed=0):
    rng = np.random.default_rng(seed)
    return Clip(rng.random((frames, c, h, w)).astype(np.float32), fps=fps)


class TestCrop:
    def test_inside_box_copies_pixels(self, rng):
        frame = rng.random((3, 16, 16))
        crop = crop_box(frame, (4, 6, 8, 5))
        np.testing.assert_array_equal(crop, frame[:, 6:11, 4:12])

    def test_outside_region_zero_padded(self, rng):
        frame = rng.random((3, 16, 16))
        crop = crop_box(frame, (-4, 0, 8, 8))
        assert not crop[:, :, :4].any()
        np.testing.assert_array_equal(crop[:, :, 4:], frame[:, 0:8, 0:4])


class TestPersonCrop:
    def test_output_shape(self, rng):
        frame = rng.random((3, 32, 32)).astype(np.float32)
        crop = person_crop(frame, (2, 2, 10, 10), 64)
        assert crop.shape == (3, 64, 64)
        assert crop.dtype == np.float32

    def test_covering_mask_gives_unmasked_crop(self, rng):
        frame = rng.random((3, 32, 32)).astype(np.float32)
        mask = np.zeros((32, 32), dtype=bool)
        mask[4:12, 4:12] = True
        np.testing.assert_array_equal(
            person_crop(frame, (4, 4, 8, 8), 8, mask),
            person_crop(frame, (4, 4, 8, 8), 8))

    def test_masked_leq_unmasked_pointwise(self, rng):
        frame = rng.random((3, 32, 32)).astype(np.float32)
        mask = rng.random((32, 32)) > 0.5
        masked = person_crop(frame, (2, 2, 12, 12), 12, mask)
        assert np.all(masked <= person_crop(frame, (2, 2, 12, 12), 12))
        assert not np.array_equal(masked,
                                  person_crop(frame, (2, 2, 12, 12), 12))

    def test_box_half_outside_zero_padded(self, rng):
        frame = rng.random((3, 16, 16)).astype(np.float32)
        crop = person_crop(frame, (-8, 0, 16, 16), 16)
        assert not crop[:, :, :8].any()
        np.testing.assert_array_equal(crop[:, :, 8:], frame[:, :, :8])


class TestMhi:
    def test_motion_at_final_frame_is_one(self):
        frames = np.zeros((3, 1, 8, 8), dtype=np.float32)
        frames[2, 0, 4, 4] = 1.0
        mhi = compute_mhi(Clip(frames), tau=8)
        assert mhi.values[4, 4] == 1.0

    def test_full_decay_to_zero(self):
        tau = 5
        # motion fires at t=1 (on) and t=2 (off), then tau decay steps
        frames = np.zeros((3 + tau, 1, 8, 8), dtype=np.float32)
        frames[1, 0, 3, 3] = 1.0
        mhi = compute_mhi(Clip(frames), tau=tau)
        assert mhi.values[3, 3] == 0.0

    def test_trail_increases_along_motion(self):
        # 4x4 square translating right 1 px/frame on a black background.
        frames = np.zeros((10, 1, 12, 24), dtype=np.float32)
        for t in range(10):
            frames[t, 0, 4:8, 2 + t : 6 + t] = 1.0
        mhi = compute_mhi(Clip(frames), tau=16)

        def oracle():
            h = np.zeros((12, 24))
            for t in range(1, 10):
                moving = np.abs(frames[t, 0] - frames[t - 1, 0]) > 0.05
                h = np.where(moving, 1.0, np.maximum(0, h - 1 / 16))
            return h

        np.testing.assert_allclose(mhi.values, oracle())
        # vacated columns 2..10: stamped later the further right, so the
        # history value rises along the motion direction
        trail = mhi.values[5, 2:11]
        assert np.all(np.diff(trail) >= 0)
        assert trail[0] > 0 and trail[-1] == 1.0

    def test_static_clip_all_zero(self, rng):
        frames = np.repeat(rng.random((1, 1, 8, 8)).astype(np.float32), 6,
                           axis=0)
        assert not compute_mhi(Clip(frames), tau=4).values.any()

    def test_brightness_offset_invariance(self, rng):
        frames = rng.random((6, 1, 8, 8)).astype(np.float32) * 0.5
        a = compute_mhi(Clip(frames), tau=4).values
        b = compute_mhi(Clip(frames + 0.3), tau=4).values
        np.testing.assert_allclose(a, b)

    def test_values_in_unit_interval(self, rng):
        frames = rng.random((20, 1, 8, 8)).astype(np.float32)
        v = compute_mhi(Clip(frames), tau=3).values
        assert v.min() >= 0.0 and v.max() <= 1.0

    def test_single_frame_rejected(self):
        with pytest.raises(InsufficientFramesError):
            compute_mhi(make_clip(1), tau=4)


class TestSubsampleTime:
    def test_identity_when_equal(self):
        clip = make_clip(16)
        out = subsample_time(clip, 16)
        np.testing.assert_array_equal(out.frames, clip.frames)

    def test_31_to_16_takes_even_indices(self):
        clip = make_clip(31)
        out = subsample_time(clip, 16)
        np.testing.assert_array_equal(out.frames, clip.frames[0:31:2])

    def test_pad_with_last_frame(self):
        clip = make_clip(10)
        out = subsample_time(clip, 16)
        assert out.num_frames == 16
        for t in range(10, 16):
            np.testing.assert_array_equal(out.frames[t], clip.frames[9])

    def test_endpoints_preserved_bitwise(self):
        clip = make_clip(23)
        out = subsample_time(clip, 7)
        assert out.frames[0].tobytes() == clip.frames[0].tobytes()
        assert out.frames[-1].tobytes() == clip.frames[-1].tobytes()
