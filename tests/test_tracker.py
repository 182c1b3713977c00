import copy
import itertools

import numpy as np
import pytest

from vidact import kcf
from vidact.kcf import (KcfConfig, extract_patch, gaussian_correlation,
                        gaussian_label, kcf_detect, kcf_init, kcf_update)
from vidact.motionseg import BackgroundModel, detect_people, to_gray
from vidact.synth import SceneSpec, SpriteSpec, generate_scene
from vidact.tracking import MultiTracker, Track, associate, dump_tracks, iou
from vidact.motionseg import Detection


class TestGaussianCorrelation:
    def test_self_correlation_peak_is_one(self, rng):
        x = rng.standard_normal((16, 16))
        x -= x.mean()
        k = gaussian_correlation(x, x, sigma=0.5)
        assert k[0, 0] == pytest.approx(1.0)

    def test_peak_at_circular_shift(self, rng):
        x = rng.standard_normal((16, 16))
        z = np.roll(x, (2, 3), axis=(0, 1))
        k = gaussian_correlation(z, x, sigma=0.5)
        assert np.unravel_index(np.argmax(k), k.shape) == (2, 3)

    def test_large_sigma_saturates_to_one(self, rng):
        x = rng.standard_normal((8, 8))
        z = rng.standard_normal((8, 8))
        k = gaussian_correlation(x, z, sigma=1e6)
        np.testing.assert_allclose(k, 1.0, atol=1e-9)

    def test_extent_mismatch(self, rng):
        with pytest.raises(ValueError):
            gaussian_correlation(np.zeros((8, 8)), np.zeros((4, 4)), 0.5)


class TestKcfInit:
    def frame(self, rng, h=64, w=64):
        return rng.random((1, h, w)).astype(np.float32)

    def test_self_detection_at_zero_shift(self, rng):
        frame = self.frame(rng)
        state = kcf_init(frame, (20, 20, 16, 16))
        dx, dy, peak = kcf_detect(state, to_gray(frame))
        assert (dx, dy) == (0.0, 0.0)
        assert peak > 0.5

    @pytest.mark.parametrize("seed", range(100))
    def test_self_detection_100_random_patches(self, seed):
        r = np.random.default_rng(seed)
        frame = r.random((1, 48, 48)).astype(np.float32)
        x = int(r.integers(0, 24))
        y = int(r.integers(0, 24))
        w = int(r.integers(8, 20))
        h = int(r.integers(8, 20))
        state = kcf_init(frame, (x, y, w, h))
        dx, dy, _ = kcf_detect(state, to_gray(frame))
        assert (dx, dy) == (0.0, 0.0)

    def test_degenerate_box_rejected(self, rng):
        with pytest.raises(ValueError):
            kcf_init(self.frame(rng), (5, 5, 3, 10))

    def test_lambda_validated(self):
        with pytest.raises(ValueError):
            KcfConfig(lambda_=0.0)

    def test_label_peak_is_one_at_center(self):
        label = gaussian_label(32, 3.2)
        assert label[16, 16] == 1.0
        assert label.max() == 1.0


class TestKcfTracking:
    def test_static_target_stays_put(self, rng):
        frame = rng.random((1, 64, 64)).astype(np.float32)
        state = kcf_init(frame, (24, 24, 16, 16))
        for _ in range(20):
            box, peak, lost = kcf_update(state, frame)
            assert not lost
            assert box[0] == pytest.approx(24.0)
            assert box[1] == pytest.approx(24.0)

    def test_translating_sprite_tracked_within_1px(self):
        sprite = SpriteSpec(pattern="translate", size=16, speed=1.0,
                            start=(20.0, 40.0), texture_seed=11)
        scene = SceneSpec(width=128, height=80, duration=2.0,
                          sprites=[sprite], background_seed=7)
        video, truth = generate_scene(scene)
        box0 = truth.per_frame[0][0][1]
        state = kcf_init(video.frames[0], box0)
        for t in range(1, 31):
            box, peak, lost = kcf_update(state, video.frames[t])
            assert not lost
            gt = truth.per_frame[t][0][1]
            cx = box[0] + box[2] / 2
            cy = box[1] + box[3] / 2
            gx = gt[0] + gt[2] / 2
            gy = gt[1] + gt[3] / 2
            assert abs(cx - gx) <= 1.0 and abs(cy - gy) <= 1.0

    def test_peak_drops_when_target_removed(self):
        sprite = SpriteSpec(pattern="still", size=16, start=(32.0, 32.0),
                            texture_seed=4)
        scene = SceneSpec(width=64, height=64, duration=2.0, sprites=[sprite],
                          background_seed=9)
        with_sprite, truth = generate_scene(scene)
        empty_scene = SceneSpec(width=64, height=64, duration=2.0, sprites=[],
                                background_seed=9)
        without_sprite, _ = generate_scene(empty_scene)
        state = kcf_init(with_sprite.frames[0], truth.per_frame[0][0][1])
        _, present_peak, _ = kcf_update(state, with_sprite.frames[1])
        peaks = []
        for t in range(5):
            _, peak, _ = kcf_update(state, without_sprite.frames[t])
            peaks.append(peak)
        assert min(peaks) < 0.5 * present_peak


class TestIou:
    def test_identical_boxes(self):
        assert iou((1, 2, 5, 6), (1, 2, 5, 6)) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 4, 4), (10, 10, 4, 4)) == 0.0

    def test_symmetric_and_bounded(self, rng):
        for _ in range(50):
            a = tuple(rng.integers(0, 20, 2)) + tuple(rng.integers(1, 10, 2))
            b = tuple(rng.integers(0, 20, 2)) + tuple(rng.integers(1, 10, 2))
            v1, v2 = iou(a, b), iou(b, a)
            assert v1 == v2
            assert 0.0 <= v1 <= 1.0
            if v1 == 1.0:
                assert a == b


class TestLazyKcf:
    def count_trainings(self, monkeypatch):
        calls, train = [], kcf._train

        def counting(patch, config):
            calls.append(config)
            return train(patch, config)

        monkeypatch.setattr(kcf, "_train", counting)
        return calls

    def test_init_defers_training(self, rng):
        state = kcf_init(rng.random((64, 64)), (20, 20, 16, 16))
        assert state.alpha_hat is None

    def test_matches_eager_training(self):
        sprite = SpriteSpec(pattern="translate", size=16, speed=1.5,
                            start=(30.0, 40.0), texture_seed=3)
        scene = SceneSpec(width=96, height=80, duration=2.0,
                          sprites=[sprite], background_seed=5)
        video, truth = generate_scene(scene)
        lazy = kcf_init(video.frames[0], truth.per_frame[0][0][1])
        eager = copy.deepcopy(lazy)
        eager.alpha_hat = kcf._train(eager.template, eager.config)
        for t in range(1, 8):
            assert kcf_update(lazy, video.frames[t]) == \
                kcf_update(eager, video.frames[t])
            np.testing.assert_array_equal(lazy.template, eager.template)
            np.testing.assert_array_equal(lazy.alpha_hat, eager.alpha_hat)

    def test_matched_track_never_trains(self, rng, monkeypatch):
        calls = self.count_trainings(monkeypatch)
        frame = rng.random((64, 64))
        tracker = MultiTracker(max_miss=2, min_area=1)
        for t in range(6):
            box = (10 + t, 10, 12, 12)
            tracker.step(frame, [Detection(box=box, area=144)], t)
        assert calls == []
        # The first coasting step trains the deferred filter, then blends.
        tracker.step(frame, [], 6)
        assert len(calls) == 2
        tracker.step(frame, [], 7)
        assert len(calls) == 3

    def test_label_transform_built_once_per_config(self, rng, monkeypatch):
        kcf._label_hat.cache_clear()
        labels, label = [], kcf.gaussian_label

        def counting(size, sigma):
            labels.append((size, sigma))
            return label(size, sigma)

        monkeypatch.setattr(kcf, "gaussian_label", counting)
        frame = rng.random((64, 64))
        for config in (KcfConfig(), KcfConfig(), KcfConfig(lambda_=1e-3),
                       KcfConfig(patch_size=16)):
            for box in ((8, 8, 12, 12), (20, 24, 16, 10)):
                kcf_update(kcf_init(frame, box, config), frame)
        assert sorted(size for size, _ in labels) == [16, 32]
        kcf._label_hat.cache_clear()


def make_track(tid, box, frame=0):
    t = Track(id=tid)
    t.record(frame, box)
    return t


class TestAssociate:
    def test_identical_boxes_match(self):
        tracks = [make_track(1, (5, 5, 10, 10))]
        dets = [Detection(box=(5, 5, 10, 10), area=100)]
        matches, ut, ud = associate(tracks, dets, 0.3)
        assert matches == [(0, 0)] and not ut and not ud

    def test_disjoint_no_match(self):
        tracks = [make_track(1, (0, 0, 4, 4))]
        dets = [Detection(box=(50, 50, 4, 4), area=16)]
        matches, ut, ud = associate(tracks, dets, 0.3)
        assert not matches and ut == [0] and ud == [0]

    def test_greedy_equals_brute_force_on_crossed_case(self):
        # IoU matrix {0.8, 0.6; 0.5, 0.2} realized with concrete boxes.
        def box_pair(target_iou, x):
            # two 10-wide boxes overlapping horizontally to a chosen IoU
            w = 10
            ov = target_iou * 2 * w / (1 + target_iou)
            return (x, 0, w, 10), (x + w - ov, 0, w, 10)

        t1a, d1a = box_pair(0.8, 0)
        _, d2a = box_pair(0.6, 0)
        t2 = (100, 0, 10, 10)
        d1b = (100 + 10 - 0.5 * 20 / 1.5, 0, 10, 10)   # iou 0.5 with t2
        tracks = [make_track(1, t1a), make_track(2, t2)]
        # detection 0 overlaps t1 at 0.8 and t2 at ~0; detection 1 at 0.6/0.5
        dets = [Detection(box=d1a, area=100), Detection(box=d1b, area=100)]
        m = np.array([[iou(tracks[i].box, dets[j].box) for j in range(2)]
                      for i in range(2)])
        assert m[0, 0] == pytest.approx(0.8, abs=0.02)
        assert m[1, 1] == pytest.approx(0.5, abs=0.02)
        matches, _, _ = associate(tracks, dets, 0.3)
        # brute force over the two full assignments
        best = max(itertools.permutations(range(2)),
                   key=lambda p: m[0, p[0]] + m[1, p[1]])
        assert sorted(matches) == sorted(enumerate(best))

    def test_threshold_excludes_weak_pairs(self):
        tracks = [make_track(1, (0, 0, 10, 10))]
        dets = [Detection(box=(9, 9, 10, 10), area=100)]
        assert iou(tracks[0].box, dets[0].box) < 0.3
        matches, _, _ = associate(tracks, dets, 0.3)
        assert not matches


def associate_reference(tracks, detections, iou_threshold):
    """Scalar greedy matching on `iou`: pairs sorted by (-iou, ti, di)."""
    pairs = sorted((-iou(t.box, d.box), ti, di)
                   for ti, t in enumerate(tracks)
                   for di, d in enumerate(detections)
                   if iou(t.box, d.box) >= iou_threshold)
    used_t, used_d, matches = set(), set(), []
    for _, ti, di in pairs:
        if ti not in used_t and di not in used_d:
            used_t.add(ti)
            used_d.add(di)
            matches.append((ti, di))
    return (matches, [i for i in range(len(tracks)) if i not in used_t],
            [i for i in range(len(detections)) if i not in used_d])


class TestAssociateMatchesScalarReference:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_boxes(self, seed):
        r = np.random.default_rng(seed)
        n_t, n_d = r.integers(0, 7, size=2)
        # A coarse grid makes overlaps, exact ties and zero sides common.
        dets = [Detection(box=tuple(int(v) for v in r.integers(0, 5, 4) * 4),
                          area=1) for _ in range(n_d)]
        tracks = []
        for ti in range(n_t):
            if dets and r.random() < 0.3:
                box = dets[r.integers(len(dets))].box     # an exact tie
            else:
                box = r.integers(0, 5, 4) * 4 + r.choice([0, 0.5, 0.25], 4)
            tracks.append(make_track(ti, box))
        for threshold in (0.0, 0.3, 1.0):
            assert associate(tracks, dets, threshold) == \
                associate_reference(tracks, dets, threshold)

    def test_ties_in_track_then_detection_order(self):
        box = (4, 4, 8, 8)
        tracks = [make_track(i, box) for i in range(3)]
        dets = [Detection(box=box, area=64) for _ in range(2)]
        assert associate(tracks, dets, 0.3) == ([(0, 0), (1, 1)], [2], [])

    def test_zero_area_boxes(self):
        tracks = [make_track(1, (5, 5, 0, 0)), make_track(2, (5, 5, 0, 4))]
        dets = [Detection(box=(5, 5, 0, 0), area=0),
                Detection(box=(5, 5, 4, 0), area=0)]
        for threshold in (0.0, 0.3):
            assert associate(tracks, dets, threshold) == \
                associate_reference(tracks, dets, threshold)
        # Union 0 gives IoU 0, which a threshold of 0 still admits.
        assert associate(tracks, dets, 0.0) == ([(0, 0), (1, 1)], [], [])

    @pytest.mark.parametrize("n_t,n_d", [(0, 0), (0, 3), (2, 0)])
    def test_empty_sides(self, n_t, n_d):
        tracks = [make_track(i, (i, 0, 4, 4)) for i in range(n_t)]
        dets = [Detection(box=(i, 0, 4, 4), area=16) for i in range(n_d)]
        assert associate(tracks, dets, 0.3) == \
            ([], list(range(n_t)), list(range(n_d)))


class TestTrackLifecycle:
    def test_frame_indices_strictly_increasing(self):
        t = make_track(1, (0, 0, 5, 5), frame=3)
        with pytest.raises(ValueError):
            t.record(3, (0, 0, 5, 5))

    def test_ids_never_reused(self, rng):
        frame = rng.random((1, 64, 64)).astype(np.float32)
        tracker = MultiTracker(max_miss=0, min_area=1)
        d = Detection(box=(10, 10, 12, 12), area=144)
        tracker.step(frame, [d], 0)
        tracker.step(frame, [], 1)       # misses > 0 -> closed
        tracker.step(frame, [d], 2)      # same place, new identity
        ids = [t.id for t in tracker.all_tracks()]
        assert len(ids) == len(set(ids)) == 2

    def test_miss_counting_closes_track(self, rng):
        frame = rng.random((1, 64, 64)).astype(np.float32)
        tracker = MultiTracker(max_miss=2, min_area=1)
        tracker.step(frame, [Detection(box=(10, 10, 12, 12), area=144)], 0)
        for t in range(1, 5):
            tracker.step(frame, [], t)
        assert not tracker.tracks
        assert tracker.closed[0].status == "closed"

    def test_kcf_runs_only_for_unmatched_tracks(self, rng, monkeypatch):
        calls = []

        def counting(state, frame):
            calls.append(state)
            return kcf_update(state, frame)

        monkeypatch.setattr("vidact.tracking.kcf_update", counting)
        frame = rng.random((64, 64))
        tracker = MultiTracker(max_miss=2, min_area=1)
        d = Detection(box=(10, 10, 12, 12), area=144)
        tracker.step(frame, [d], 0)          # spawns the track
        tracker.step(frame, [d], 1)          # matched: re-anchored, no KCF
        assert calls == []
        tracker.step(frame, [], 2)           # unmatched: coasts on KCF
        assert len(calls) == 1
        assert tracker.tracks[0].states[-1][0] == 2

    def test_degenerate_match_keeps_previous_filter(self, rng):
        frame = rng.random((64, 64))
        tracker = MultiTracker(iou_threshold=0.2, min_area=1)
        tracker.step(frame, [Detection(box=(10, 10, 12, 12), area=144)], 0)
        kcf = tracker.tracks[0].kcf
        box, template = kcf.box, kcf.template.copy()
        # A side under 4 px cannot re-anchor the filter; the moved frame would
        # have moved it, had KCF run for this matched track.
        tracker.step(np.roll(frame, 3, axis=1),
                     [Detection(box=(10, 10, 12, 3), area=36)], 1)
        assert tracker.tracks[0].kcf is kcf and kcf.box == box
        np.testing.assert_array_equal(kcf.template, template)
        assert tracker.tracks[0].box == (10.0, 10.0, 12.0, 3.0)

    def test_dump_tracks_jsonl(self, tmp_path):
        t = make_track(3, (1, 2, 3, 4), frame=0)
        t.record(1, (2, 2, 3, 4))
        dump_tracks([t], tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert '"track": 3' in lines[0]


class TestTwoPersonCrossing:
    def run_scene(self):
        # Distinct textures, speeds <= 2 px/frame, crossing horizontally at
        # different heights; both enter after background warm-up.
        left = SpriteSpec(pattern="translate", size=16, speed=1.5,
                          start=(-40.0, 26.0), texture_seed=21)
        right = SpriteSpec(pattern="translate", size=16, speed=-1.5,
                           start=(200.0, 54.0), texture_seed=99)
        scene = SceneSpec(width=160, height=96, duration=6.0,
                          sprites=[left, right], background_seed=17)
        return generate_scene(scene)

    def test_identities_preserved(self):
        video, truth = self.run_scene()
        model = BackgroundModel(96, 160, alpha=0.05, threshold=0.1)
        model.seed(to_gray(video.frames[0]))
        tracker = MultiTracker()
        for t in range(video.num_frames):
            gray = to_gray(video.frames[t])
            dets, mask = detect_people(model, gray, min_area=64, frame_index=t)
            model.update_masked(gray, mask)
            if t >= 25:
                tracker.step(video.frames[t], dets, t)
        tracks = [t for t in tracker.all_tracks() if len(t.states) > 20]
        assert len(tracks) == 2
        # Each long track must follow exactly one ground-truth sprite.
        switches = 0
        for track in tracks:
            owners = []
            for frame_index, box in track.states:
                gt = truth.per_frame[frame_index]
                if not gt:
                    continue
                owners.append(max(gt, key=lambda e: iou(box, e[1]))[0])
            assert owners
            if len(set(owners)) > 1:
                switches += 1
        assert switches == 0
