"""Benchmark of the vidact CLI on generated inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a vidact checkout: the program is imported from
./src, and the inputs, outputs and traces go under ./.perfbench_work, which
is removed when the run ends. The set-up (inputs made from the seed) is
timed from the first line of this file. Then whole rounds of the measured
`vidact` command run, each in its own process, until the next round would
take the time spent in them past S seconds. Every round's output is checked
once the rounds are done. With --trace 1, an untraced, a traced and another
untraced round run instead, and the per-layer metrics come from the traced
one. The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0   # a run must end within 180 s of its start


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


class Round(NamedTuple):
    code: int       # exit code of the vidact process
    wall: float     # its wall time, s
    rss: float      # its peak resident memory, MiB
    log: Path       # its stdout and stderr


def run_command(argv: list[str], log_path: Path) -> Round:
    """Run one child process to its end and measure it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        budget = DEADLINE_S - (t0 - START)
        timer = threading.Timer(max(budget, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    log(f"{log_path.stem}: exit {proc.returncode}, {wall:.3f} s wall, "
        f"{usage.ru_utime:.2f} s user, {usage.ru_stime:.2f} s sys, "
        f"{usage.ru_maxrss / 1024.0:.1f} MiB")
    return Round(proc.returncode, wall, usage.ru_maxrss / 1024.0, log_path)


def run_round(workload, index: int, trace_path: Path | None = None) -> Round:
    out = workload.work / f"round{index}"
    vidact = workload.argv(out)
    if trace_path is None:
        argv = [sys.executable, "-m", "vidact.cli"] + vidact
    else:
        argv = [sys.executable, str(HERE / "tracing.py"), str(trace_path)] \
            + vidact
    log_name = f"round{index}{'-traced' if trace_path else ''}.log"
    return run_command(argv, workload.work / log_name)


def warm_cpus(seconds: float = 3.0) -> None:
    """Keep every CPU busy for a moment before the first timed round.

    On virtual machines a CPU left idle for some seconds runs the next
    multi-threaded command up to a third slower; without this the first
    round of every run would pay for that, the later ones not.
    """
    spin = ("import time\nt = time.perf_counter()\n"
            f"while time.perf_counter() - t < {seconds}: pass")
    procs = [subprocess.Popen([sys.executable, "-c", spin])
             for _ in range(min(os.cpu_count() or 1, 8))]
    for proc in procs:
        proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vidact" / "__init__.py").is_file():
        log(f"no vidact sources under {SRC}; run from a checkout's root")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import vidact
    if Path(vidact.__file__).resolve().parent != (SRC / "vidact").resolve():
        log(f"vidact imported from {vidact.__file__}, not from {SRC}")
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2

    # On SIGTERM, unwind: the running child is killed and the work removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        setup_s = time.perf_counter() - START
        log(f"{args.workload} seed {args.seed}: set-up {setup_s:.3f} s")
        return measure(workload, args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, args, setup_s: float) -> int:
    import tracing

    rounds: list[Round] = []
    problems: list[str] = []
    attempted = failed = 0

    warm_cpus()
    if args.trace:
        trace_path = workload.work / "trace.json"
        rounds.append(run_round(workload, 0))
        rounds.append(run_round(workload, 1, trace_path))
        rounds.append(run_round(workload, 2))
        metrics = {}
        if rounds[1].code == 0:
            doc = json.loads(trace_path.read_text())
            for key, want in workload.expected_counters().items():
                got = doc["counters"].get(key, 0)
                if got != want:
                    problems.append(f"trace counter {key} = {got}, "
                                    f"computed {want}")
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in tracing.layer_metrics(doc).items()}
        metrics["trace.overhead_s"] = {
            "value": rounds[1].wall - (rounds[0].wall + rounds[2].wall) / 2,
            "unit": "s"}
    else:
        measured = 0.0
        while True:
            rounds.append(run_round(workload, len(rounds)))
            measured += rounds[-1].wall
            if measured * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        ok = [r for r in rounds if r.code == 0] or rounds
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": statistics.median(
                workload.items / r.wall for r in ok), "unit": "items/s"},
            "peak_rss_mib": {"value": statistics.median(r.rss for r in ok),
                             "unit": "MiB"},
        }
    # Outputs are checked after the timed rounds, which run back to back.
    for index, r in enumerate(rounds):
        attempted += workload.ops
        if r.code != 0:
            failed += workload.ops
            log(f"round {index} exited {r.code}:\n"
                f"{r.log.read_text()[-2000:]}")
            continue
        try:
            found = workload.check(workload.work / f"round{index}")
        except Exception as e:  # noqa: BLE001 - a missing or malformed output
            found = [f"output could not be checked: {e!r}"]
        problems.extend(f"round {index}: {p}" for p in found)
    for p in problems:
        log(f"check failed: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
