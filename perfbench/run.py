"""The repository benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload detect-hot --seed 1 --seconds 30 --trace 0

Runs timed repetitions of the workload, each in a fresh process
(``rep.py``), until the next one would overrun ``--seconds``; at least
one always runs.  Every repetition's outputs are checked against the
stored tables (``golden.py``); a failed check ends the run with exit
code 1 and no result.

With ``--trace 0`` the result holds the end-to-end metrics: medians
over the repetitions, except the task-latency percentiles, which pool
the task latencies of all repetitions.  Every time in them is rescaled to
the speed of the box the benchmark was calibrated on, measured by a
reference load timed alongside the program (``calibrate.py``), so that
the drifting speed of a shared host cancels; the raw figures are
printed above the result.  With ``--trace 1`` every repetition is a
pair, one untraced and one traced, and the result holds the per-layer
metrics (medians over the traced ones) plus ``trace.overhead_ratio``,
the untraced over the traced throughput; the traced repetitions' span
tables go to ``.perfbench/traces/``.

The last line of standard output is the JSON result; the lines above it
repeat the figures for people, with sample counts and the tag of the
box that ran them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.rep import percentile  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Every run must end within 180 s; repetitions stop being started (and
#: a running one is killed) so that the run ends within this many.
RUN_LIMIT_S = 170.0

OUT_DIR = ROOT / ".perfbench"


class RunFailed(Exception):
    pass


def box_tag() -> Dict[str, str]:
    """nproc, CPU model, Python version and git commit of this run."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": model,
        "python": platform.python_version(),
        "commit": commit,
    }


def run_rep(workload: str, seed: int, trace: bool, deadline: float) -> Dict:
    """One repetition in a fresh process; its parsed report."""
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(OUT_DIR / f"work-{os.getpid()}"),
    ]
    if trace:
        command.append("--trace")
    # A session of its own, so that an overrun kills the repetition
    # together with the distributed workers it started.
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(
            timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group already exited
        child.communicate()
        raise RunFailed("a repetition overran the run limit") from None
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(
            f"repetition exited {child.returncode} without a report:\n"
            f"{stderr[-4000:]}"
        ) from None
    if child.returncode != 0 or not report.get("ok"):
        raise RunFailed(
            "output check failed: " + "; ".join(report.get("problems", []))
            + f"\n{stderr[-4000:]}"
        )
    return report


def measure(args) -> Dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    plain: List[Dict] = []
    traced: List[Dict] = []
    while True:
        plain.append(run_rep(args.workload, args.seed, False, deadline))
        if args.trace:
            traced.append(run_rep(args.workload, args.seed, True, deadline))
        elapsed = time.monotonic() - started
        per_rep = elapsed / len(plain)
        if elapsed + per_rep > min(args.seconds, RUN_LIMIT_S):
            break
    return {"plain": plain, "traced": traced}


def summarise(args, reps: Dict) -> Dict:
    plain, traced = reps["plain"], reps["traced"]
    everything = plain + traced
    if args.trace:
        metrics = {
            name: {
                "value": statistics.median(r["layers"][name] for r in traced),
                "unit": unit,
            }
            for name, unit, _ in PER_LAYER if name != "trace.overhead_ratio"
        }
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(r["tasks_per_s"] for r in plain)
            / statistics.median(r["tasks_per_s"] for r in traced),
            "unit": "ratio",
        }
    else:
        # Percentiles pool the task latencies of every repetition, so the
        # 99th has enough samples beyond it on the short workloads too.
        latencies = [t for r in plain for t in r["task_latency_ms"]]
        values = {
            "task_p50_ms": percentile(latencies, 50),
            "task_p99_ms": percentile(latencies, 99),
        }
        for name in ("tasks_per_s", "peak_rss_mb", "setup_s"):
            values[name] = statistics.median(r[name] for r in plain)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": True,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "metrics": metrics,
    }


def write_traces(args, reps: Dict, box: Dict) -> Path:
    traces = OUT_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{args.workload}-seed{args.seed}.json"
    payload = {
        "box": box,
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": [
            {"layers": r["layers"], "spans": r["spans"]} for r in reps["traced"]
        ],
    }
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
            "is missing); run from a full checkout", file=sys.stderr,
        )
        return 2
    box = box_tag()
    try:
        reps = measure(args)
    except RunFailed as error:
        print(f"perfbench: {args.workload} seed {args.seed}: {error}",
              file=sys.stderr)
        return 1
    result = summarise(args, reps)
    plain = reps["plain"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(plain)} tasks/repetition={plain[0]['tasks']}")
    print("box " + " ".join(f"{k}={v!r}" for k, v in box.items()))
    samples = sum(len(r["task_latency_ms"]) for r in plain)
    for name, metric in result["metrics"].items():
        note = ""
        if name in ("task_p50_ms", "task_p99_ms"):
            note = f"  (over the {samples} tasks of all repetitions)"
        elif not args.trace:
            note = f"  (median of {len(plain)} repetitions)"
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}{note}")
    raw = {
        name: statistics.median(r["raw"][name] for r in plain)
        for name in ("speed", "tasks_per_s", "setup_s")
    }
    print(f"  unscaled medians: box speed {raw['speed']:.4g} x the "
          f"calibration box, tasks_per_s {raw['tasks_per_s']:.6g} 1/s, "
          f"setup_s {raw['setup_s']:.6g} s")
    if args.trace:
        print(f"  trace tables: {write_traces(args, reps, box).relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
