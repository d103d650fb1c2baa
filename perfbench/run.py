"""holodyn benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a holodyn source checkout.  Each workload runs in a
fresh, single-threaded interpreter (``worker.py``) that imports holodyn from
``src/``.  Set-up (interpreter start, ``import holodyn``, seeded input
generation and one warm-up item) is timed from process spawn, in the worker
and in four set-up-only probes, and ``setup_s`` is their median.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with tracing off; with ``--trace 1`` it carries the per-layer
metrics of a traced run (see ``tracing.py``) and a span file is written to
``perfbench/traces/``.  The metric names and units are those declared in
``BENCHMARK.json``; a run that produces another set fails.  The line before
the result records provenance.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 4
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SOURCE)
    env["PYTHONHASHSEED"] = "0"  # same dict and set layout in every run
    return env


def run_worker(args, extra, deadline: float) -> tuple:
    """Spawn one worker; returns (set-up seconds from spawn, its result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return (result["ready"] - spawned - result["stolen"]) * result["scale"], result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="holodyn benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SOURCE / "holodyn" / "__init__.py").is_file():
        print(f"error: no holodyn sources under {SOURCE}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    launched = time.monotonic()
    deadline = launched + DEADLINE_S
    try:
        setups, probe_failures = [], []
        for _ in range(SETUP_PROBES):
            seconds, probe = run_worker(args, ["--setup-only"], deadline)
            setups.append(seconds)
            probe_failures += probe["failures"]
        seconds, result = run_worker(
            args, ["--until", repr(launched + args.seconds), "--trace", str(args.trace)],
            deadline)
        setups.append(seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match {SPEC.name}",
              file=sys.stderr)
        return 1
    failed = result["failed"] + len(probe_failures)
    for msg in probe_failures:
        print(f"FAILED set-up probe: {msg}", file=sys.stderr)
    print(json.dumps({"provenance": {**result["provenance"], "seconds": args.seconds},
                      "pass_s": result["pass_s"],
                      "item_samples": result["passes"] * result["items_per_pass"],
                      "setup_samples_s": setups}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"] + len(setups) - 1,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
