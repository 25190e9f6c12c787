"""bdies2d benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload for about S seconds.  Each repetition is
a fresh Python process (``rep.py``), so nothing one repetition builds can
speed up the next, just as each CLI call starts cold.  At least
``MIN_REPS`` repetitions run; no new one starts once it would likely end
past S seconds.

The host's speed drifts by tens of percent within seconds, so each
repetition also times a fixed calibration kernel (``calibrate.py``) before
its first operation and after each one, outside the timed part.
``setup_s`` and ``wall_s`` are scaled to the reference host's speed: each
raw time times ``calibrate.NOMINAL_S`` over the kernel's time next to it
(see ``calibrate.Laps``).  The raw times and the kernel's times are in the
detailed record.

With ``--trace 0`` every repetition is untraced and the result holds the
end-to-end metrics, each the median over repetitions.  With ``--trace 1``
repetitions alternate traced and untraced; the result holds the per-layer
metrics of the traced ones and the tracing overhead (median traced
``wall_s`` over median untraced ``wall_s``).

Standard output ends with two JSON lines: a detailed record (machine
facts, every metric with median, min, max and sample count, failures),
then the result ``{"correct", "attempted", "failed", "metrics"}``.  If the
program cannot be run, the benchmark prints no result and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S
from tracing import COUNT_METRICS, LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
REP_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("u_digits", "digits", "higher"),
    ("psi_digits", "digits", "higher"),
)
#: In the detailed record only.  Not every workload evaluates; solve time
#: is part of wall_s, which carries the bound; process CPU time shows
#: whether wall time includes time the process was not running.  The raw
#: times and the calibration kernel's time show how fast the host ran.
DETAIL_ONLY = (("solve_s", "s", "lower"), ("eval_s", "s", "lower"),
               ("cpu_s", "s", "lower"), ("setup_raw_s", "s", "lower"),
               ("wall_raw_s", "s", "lower"), ("calib_s", "s", "lower"))
PER_LAYER = LAYER_METRICS + (("trace.overhead", "ratio", "lower"),)


class RepError(RuntimeError):
    """A repetition could not be run to the end."""


def run_rep(workload: str, seed: int, traced: bool, scale: str,
            index: int) -> tuple:
    """One repetition in a fresh process; returns (record, seconds)."""
    work_dir = HERE / ".work" / f"{workload}-{os.getpid()}-{index}"
    # A fixed hash seed gives every repetition the same set and dict order.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed),
           "1" if traced else "0", scale, str(work_dir)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    seconds = time.monotonic() - spawned_at
    if proc.returncode != 0:
        raise RepError(f"repetition exited {proc.returncode}:\n"
                       f"{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    calib_s = record.pop("calib_s")
    record["calib_s"] = statistics.geometric_mean(calib_s)
    record["setup_raw_s"] = record.pop("ready_at") - spawned_at
    record["setup_s"] = record["setup_raw_s"] * NOMINAL_S / calib_s[0]
    return record, seconds


def summary(values: list, unit: str) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit,
            "values": values}


def aggregate(reps: list, trace: bool) -> tuple:
    """(correct, detail, metrics) of a run's repetitions."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    detail = {"samples": {"all": len(reps), "untraced": len(plain),
                          "traced": len(traced)}}
    problems = sorted({f for r in reps for f in r["failures"]})

    # Accuracy is deterministic: every repetition must agree bitwise.
    for name in ("u_digits", "psi_digits"):
        if len({r[name] for r in reps}) != 1:
            problems.append(f"{name} differs between repetitions")
    e2e = {"setup_s": summary([r["setup_s"] for r in reps], "s")}
    for name, unit, _ in END_TO_END[1:] + DETAIL_ONLY:
        e2e[name] = summary([r[name] for r in plain], unit)
    detail["end_to_end"] = e2e

    if trace:
        for name in COUNT_METRICS:
            if len({r["layers"][name] for r in traced}) != 1:
                problems.append(f"{name} differs between traced repetitions")
        layers = {name: summary([r["layers"][name] for r in traced], unit)
                  for name, unit, _ in LAYER_METRICS}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead"] = summary(
            [traced_wall / e2e["wall_s"]["median"]], "ratio")
        detail["per_layer"] = layers
        detail["traced_wall_s"] = summary([r["wall_s"] for r in traced], "s")
        chosen = layers
    else:
        chosen = e2e

    detail["problems"] = problems
    metrics = {name: {"value": chosen[name]["median"], "unit": unit}
               for name, unit, _ in (PER_LAYER if trace else END_TO_END)}
    return not problems, detail, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the benchmark's own tests")
    args = parser.parse_args(argv)
    trace = args.trace == 1

    start = time.monotonic()
    reps, longest = [], 0.0
    while True:
        # With tracing, even repetitions are traced and odd ones are not.
        traced = trace and len(reps) % 2 == 0
        try:
            record, seconds = run_rep(args.workload, args.seed, traced,
                                      args.scale, len(reps))
        except RepError as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 1
        reps.append(record)
        longest = max(longest, seconds)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed + longest > args.seconds:
            break

    correct, detail, metrics = aggregate(reps, trace)
    attempted = sum(r["ops"] for r in reps)
    failed = sum(r["failed_ops"] for r in reps)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "scale": args.scale, "elapsed_s": elapsed,
                      "machine": reps[0]["machine"], **detail}))
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
