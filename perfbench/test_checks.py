"""Each benchmark check must reject a deliberately wrong output.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
from pathlib import Path

import numpy as np

import checks
import tracing

A_BOX, B_BOX = (10, 10, 16, 16), (100, 100, 16, 16)
PEOPLE = {0: {t: A_BOX for t in range(50)}, 1: {t: B_BOX for t in range(50)}}
CUTS = [64, 128]


def shot_summary(starts, num_frames=192, confidence=0.5):
    ends = starts[1:] + [num_frames]
    return {"labels": ["a", "b", "c"], "subjects": [{"id": 0, "kind": "shot",
            "events": [{"action": "a", "start": s, "end": e,
                        "confidence": confidence}
                       for s, e in zip(starts, ends)]}]}


def person_summary(events):
    return {"labels": ["a", "b"], "subjects": [
        {"id": 1, "kind": "person", "events": [
            {"action": a, "start": s, "end": e, "confidence": 0.9}
            for a, s, e in events]}]}


def test_tracks_that_follow_each_person_pass():
    tracks = {1: dict(PEOPLE[0]), 2: dict(PEOPLE[1])}
    problems, best = checks.match_people(tracks, PEOPLE, warmup=10)
    assert problems == [] and best == {0: 1, 1: 2}


def test_track_that_jumps_to_another_person_is_rejected():
    jumper = {t: A_BOX if t < 30 else B_BOX for t in range(50)}
    tracks = {1: jumper, 2: dict(PEOPLE[1])}
    problems, _ = checks.match_people(tracks, PEOPLE, warmup=10)
    assert any("track 1 covers people [0, 1]" in p for p in problems)


def test_person_without_a_track_on_most_frames_is_rejected():
    tracks = {1: {t: A_BOX for t in range(20)}, 2: dict(PEOPLE[1])}
    problems, _ = checks.match_people(tracks, PEOPLE, warmup=10)
    assert any(p.startswith("person 0:") for p in problems)


def test_shot_boundaries_near_the_cuts_pass():
    assert checks.check_shot_events(shot_summary([0, 64, 128]), 192, CUTS) == []
    assert checks.check_shot_events(shot_summary([0, 62, 130]), 192, CUTS) == []


def test_shot_boundary_moved_by_5_frames_is_rejected():
    problems = checks.check_shot_events(shot_summary([0, 69, 128]), 192, CUTS)
    assert problems == ["shot 1 starts at 69, cut at 64"]


def test_shot_events_must_partition_the_video():
    summary = shot_summary([0, 64, 128])
    summary["subjects"][0]["events"][1]["end"] = 120
    assert checks.check_shot_events(summary, 192, CUTS)
    assert checks.check_shot_events(shot_summary([0, 64, 128]), 200, CUTS)


def test_confidence_below_one_over_k_is_rejected():
    problems = checks.check_shot_events(
        shot_summary([0, 64, 128], confidence=0.3), 192, CUTS)
    assert len(problems) == 3 and "outside [1/3, 1]" in problems[0]


def test_events_inside_the_track_span_pass():
    tracks = {1: {t: A_BOX for t in range(10, 50)}}
    summary = person_summary([("a", 10, 30), ("b", 30, 50)])
    assert checks.check_person_events(summary, tracks, {0: 1}, {0: "a"}) == []


def test_event_outside_its_track_span_is_rejected():
    tracks = {1: {t: A_BOX for t in range(10, 50)}}
    summary = person_summary([("a", 10, 30), ("a", 30, 60)])
    problems = checks.check_person_events(summary, tracks, {0: 1}, {})
    assert problems == ["subject 1: event [30, 60) out of order or outside "
                        "its track's span [10, 49]"]


def test_wrong_dominant_action_is_rejected():
    tracks = {1: {t: A_BOX for t in range(10, 50)}}
    summary = person_summary([("a", 10, 20), ("b", 20, 50)])
    problems = checks.check_person_events(summary, tracks, {0: 1}, {0: "a"})
    assert problems == ["person 0: dominant action b, true action a"]


def test_gradient_scaled_by_1_1_is_rejected():
    from vidact.network import NetworkSpec, build_network

    spec = NetworkSpec(mode="2d", input_shape=(1, 8, 8),
                       encoder_channels=(2, 2), head_channels=(2, 2, 2),
                       fc_width=4, num_classes=3)
    network = build_network(spec, seed=3).astype(np.float64)
    rng = np.random.default_rng(3)
    x = rng.random((4, 1, 8, 8))
    y = np.array([0, 1, 2, 1])
    numeric, analytic = checks.directional_derivatives(network, x, y, seed=5)
    assert checks.check_gradient(numeric, analytic) == []
    assert checks.check_gradient(numeric, 1.1 * analytic)


def test_layer_self_time_excludes_child_spans():
    doc = {"names": ["cli.main", "kcf.kcf_update", "motionseg.to_gray"],
           "spans": [[0, 0.0, 10.0, -1], [1, 2.0, 5.0, 0], [2, 3.0, 4.0, 1],
                     [1, 6.0, 7.0, 0]],
           "counters": {"kcf.updates_used": 1}}
    m = tracing.layer_metrics(doc)
    assert m["cli.self_s"] == (6.0, "s")
    assert m["kcf.self_s"] == (3.0, "s")
    assert m["kcf.kcf_update.s"] == (4.0, "s")
    assert m["motionseg.to_gray.calls"] == (1, "count")
    assert m["kcf.update_used_ratio"] == (0.5, "ratio")


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {k: u for k, (_, u) in tracing.layer_metrics(
        {"names": [], "spans": [], "counters": {}}).items()}
    produced["trace.overhead_s"] = "s"
    assert declared == produced
