"""Measuring process of one benchmark run; started by ``run.py``.

Runs a closed loop of sweeps through ``cli.run_config`` for ``--seconds``
seconds and writes everything the checker and the metrics need to
``<out>/record.json``. A new sweep starts only while the previous sweep's
time still fits in the window; the first always runs.

With ``--trace 1`` each sweep runs twice on the same configs, first
untraced and then traced, so the difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time

import workloads


def _read_rows(out_dir: str) -> list:
    with open(os.path.join(out_dir, "results.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def _capture_schedules(prep_bracelet, sink: list):
    """Keep each bracelet schedule ``run_config`` builds, for the checker.

    ``results.csv`` holds no phase angles, so the full-subspace check needs
    the schedule itself. Returns a function that undoes the capture.
    """
    original = prep_bracelet.bracelet_schedule

    def capture(plan):
        sched = original(plan)
        sink.append({"tau0": sched.tau0, "layers": [list(l) for l in sched.layers],
                     "phasor": sched.phasor_kind})
        return sched

    prep_bracelet.bracelet_schedule = capture
    return lambda: setattr(prep_bracelet, "bracelet_schedule", original)


def run_sweep(cli, prep_bracelet, configs, out_dir, sweep, traced):
    calls = []
    for j, (raw, workers) in enumerate(configs):
        call_dir = os.path.join(out_dir, f"s{sweep}{'t' if traced else ''}-c{j}")
        schedules: list = []
        restore = _capture_schedules(prep_bracelet, schedules)
        try:
            t0 = time.perf_counter()
            manifest = cli.run_config(raw, call_dir, workers=workers)
            wall = time.perf_counter() - t0
        finally:
            restore()
        calls.append({"sweep": sweep, "traced": traced, "config": raw,
                      "workers": workers, "wall_s": wall, "manifest": manifest,
                      "rows": _read_rows(call_dir), "schedules": schedules})
    return calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    from blockwalk import cli, prep_bracelet

    tracer = None
    if args.trace:
        import tracer as tracing
        spill = os.path.join(args.out, "spans")
        os.makedirs(spill, exist_ok=True)
        tracer = tracing.Tracer(spill)

    # untimed: lazy imports (jsonschema in the first run_config) and a CPU
    # that was idle through set-up would otherwise land in the first sweep
    run_sweep(cli, prep_bracelet, workloads.sweep_configs(
        args.workload, args.seed, 0, tiny=True), os.path.join(args.out, "warmup"),
        0, False)

    calls, sweeps = [], []
    start = time.perf_counter()
    sweep = 0
    while True:
        configs = workloads.sweep_configs(args.workload, args.seed, sweep, args.tiny)
        t0 = time.perf_counter()
        untraced = run_sweep(cli, prep_bracelet, configs, args.out, sweep, False)
        calls += untraced
        entry = {"index": sweep, "wall_s": sum(c["wall_s"] for c in untraced)}
        if tracer is not None:
            tracer.sweep = sweep
            tracing.install(tracer)
            try:
                with tracer.root("benchmark.sweep"):
                    traced = run_sweep(cli, prep_bracelet, configs, args.out,
                                       sweep, True)
            finally:
                tracer.uninstall()
            calls += traced
            entry["traced_wall_s"] = sum(c["wall_s"] for c in traced)
        sweeps.append(entry)
        sweep += 1
        now = time.perf_counter()
        if (now - start) + (now - t0) > args.seconds:  # another would not fit
            break

    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {"sweeps": sweeps, "calls": calls, "peak_rss_mb": rss_kb / 1024.0}
    if tracer is not None:
        record["spans"] = tracer.collect()
    with open(os.path.join(args.out, "record.json"), "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
