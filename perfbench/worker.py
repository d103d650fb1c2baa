"""One benchmark process: set up a workload, run its timed passes, gate every result.

Started by ``run.py`` in a fresh interpreter.  Set-up covers the import of
holodyn, the seeded input generation and one warm-up item; the process
reports the monotonic clock reading at which set-up ended, so the launcher
can time set-up from the moment it spawned the process.

A pass runs every item of the workload once and checks it.  Passes repeat
while another one fits in the time budget.  Every time is rescaled to a
reference host speed (``hostspeed.py``), and each item's time is then the
median over its runs.  In a traced run the first half of the budget runs
untraced passes and the second half traced ones; then each reproduction
check of ``holodyn.reproduce`` is timed on its own.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import SpeedTrack

# probe the host's speed from the start, so that set-up is rescaled too
SPEED = SpeedTrack()
SPEED.start()

import numpy as np  # noqa: E402

import holodyn  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MAX_ERRORS_SHOWN = 5
TRACE_DIR = Path(__file__).resolve().parent / "traces"


def run_pass(items, tracer=None) -> dict:
    """Run every item once and gate it.

    Returns the pass's wall time, each item's latency (the library call),
    cost (the call plus its gate) and window (its perf_counter readings at
    start and end, to find the host speed probes around it), and the
    failure messages.  Times leave out the probes' own time.
    """
    latencies, costs, windows, failures = [], [], [], []
    clock = SPEED.now
    t0 = clock()
    for item in items:
        start = time.perf_counter()
        ti = clock()
        try:
            if tracer is None:
                result = item.run()
            else:
                with tracer.item(item.kind, item.label):
                    result = item.run()
        except Exception as exc:  # an item that raises is a failed item
            reason = f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - ti)
        else:
            latencies.append(clock() - ti)
            reason = gate(item, result, tracer)
        costs.append(clock() - ti)
        windows.append((start, time.perf_counter()))
        if reason is not None:
            failures.append(f"{item.label}: {reason}")
    return {"wall": clock() - t0, "latencies": latencies, "costs": costs,
            "windows": windows, "failures": failures, "tracer": tracer}


def gate(item, result, tracer):
    """The item's check, untraced; a check that raises fails the item."""
    try:
        if tracer is None:
            return item.check(result)
        tracer.record_result(item.kind, result)
        with tracer.pause():
            return item.check(result)
    except Exception as exc:
        return f"gate raised {type(exc).__name__}: {exc}"


def run_passes(workload, until: float, traced: bool):
    """Repeat passes while another one, as long as the longest so far, ends
    before the ``time.monotonic()`` reading ``until`` (at least one pass)."""
    passes, longest = [], 0.0
    while not passes or time.monotonic() + longest <= until:
        begun = time.monotonic()
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        try:
            passes.append(run_pass(workload.items, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        longest = max(longest, time.monotonic() - begun)
    return passes


def median_pass(passes):
    """The pass whose wall time is the (lower) median."""
    ranked = sorted(passes, key=lambda p: p["wall"])
    return ranked[(len(ranked) - 1) // 2]


def item_medians(labels, passes, key: str, normalized: bool) -> dict:
    """Each item's median over all its runs, rescaled to the reference host
    speed or not; the median drops a slow stretch of one pass."""
    samples = {}
    for p in passes:
        for label, value, window in zip(labels, p[key], p["windows"]):
            if normalized:
                value *= SPEED.scale(*window)
            samples.setdefault(label, []).append(value)
    return {label: statistics.median(values) for label, values in samples.items()}


def end_to_end(labels, passes, normalized=True) -> dict:
    """``wall_s`` is one pass, every item with its gate, summed from
    per-item values.  The latency quantiles are taken over the runs of one
    pass, each run standing for its item's value, and read off a measured
    item ("higher" rank), so they never blend two kinds of item."""
    latency = item_medians(labels, passes, "latencies", normalized)
    latencies = [latency[label] for label in labels]
    costs = item_medians(labels, passes, "costs", normalized)

    def item_ms(q):
        return 1e3 * float(np.percentile(latencies, q, method="higher"))

    return {
        "wall_s": sum(costs[label] for label in labels),
        "item_ms_p50": item_ms(50),
        "item_ms_p90": item_ms(90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def reproduce_checks():
    """Time each reproduction check separately; returns (metrics, failures)."""
    from holodyn import reproduce

    metrics, failures = {}, []
    for name, check in reproduce.CHECKS.items():
        t0 = time.perf_counter()
        try:
            result = check()
            passed, reason = result.passed, result.detail
        except Exception as exc:
            passed, reason = False, f"{type(exc).__name__}: {exc}"
        metrics[f"reproduce.{name}.s"] = time.perf_counter() - t0
        metrics[f"reproduce.{name}.passed"] = int(passed)
        if not passed:
            failures.append(f"reproduce {name}: {reason}")
    return metrics, failures


def layer_metrics(untraced, traced):
    chosen = median_pass(traced)
    tracer = chosen["tracer"]
    metrics = tracer.layer_metrics()
    metrics["trace.wall_s"] = chosen["wall"]
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in untraced) - 1.0
    )
    failures = []
    if tracer.self_seconds() > chosen["wall"]:
        failures.append(f"self times sum to {tracer.self_seconds():.3f} s, more than the "
                        f"traced wall time {chosen['wall']:.3f} s")
    return metrics, failures, tracer


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "holodyn": holodyn.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_trace(path: Path, info: dict, metrics: dict, tracer, untraced, traced):
    t_base = tracer.spans[0]["start"] if tracer.spans else 0.0
    spans = [dict(s, id=i, start=s["start"] - t_base, end=s["end"] - t_base)
             for i, s in enumerate(tracer.spans)]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"provenance": info, "metrics": metrics,
                   "untraced_pass_s": [p["wall"] for p in untraced],
                   "traced_pass_s": [p["wall"] for p in traced],
                   "spans": spans}, fh, indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--until", type=float, default=None,
                    help="time.monotonic() reading by which the timed passes end "
                         "(default: 10 s after set-up)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    warm_failures = run_pass([workload.warmup])["failures"]
    ready = time.monotonic()
    setup = {"ready": ready, "stolen": SPEED.stolen,
             "scale": SPEED.scale(0.0, time.perf_counter())}
    if args.setup_only:
        SPEED.stop()
        print(json.dumps({**setup, "failures": warm_failures}))
        return 0

    info = provenance(args)
    until = ready + 10.0 if args.until is None else args.until
    if args.trace:
        SPEED.stop()  # layer times are raw; probes would land in their spans
        untraced = run_passes(workload, (ready + until) / 2, traced=False)
        traced = run_passes(workload, until, traced=True)
        metrics, failures, tracer = layer_metrics(untraced, traced)
        check_metrics, check_failures = reproduce_checks()
        metrics.update(check_metrics)
        failures += check_failures
        passes = untraced + traced
        extra_attempts = len(check_metrics) // 2
        write_trace(TRACE_DIR / f"{args.workload}-seed{args.seed}.json",
                    info, metrics, tracer, untraced, traced)
    else:
        passes = run_passes(workload, until, traced=False)
        SPEED.stop()
        labels = [item.label for item in workload.items]
        metrics = end_to_end(labels, passes)
        # the same figures as measured, before rescaling, and the probes
        info["raw"] = end_to_end(labels, passes, normalized=False)
        info["probes"] = {"count": len(SPEED.probes),
                          "median_ms": 1e3 * statistics.median(SPEED.probes),
                          "stolen_s": SPEED.stolen}
        failures, extra_attempts = [], 0
    item_failures = [f for p in passes for f in p["failures"]] + warm_failures
    attempted = sum(len(p["latencies"]) for p in passes) + 1 + extra_attempts
    failed = len(item_failures) + len(failures)
    for msg in (item_failures + failures)[:MAX_ERRORS_SHOWN]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        **setup,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "pass_s": [p["wall"] for p in passes],
        "items_per_pass": len(workload.items),
        "metrics": metrics,
        "provenance": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
