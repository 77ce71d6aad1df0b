"""blockwalk benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload product-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/``; there
is nothing to build. Every process runs with one BLAS thread.

``--trace 0`` measures set-up time, then runs the workload's sweeps through
``cli.run_config`` untraced, checks every instance and prints the
end-to-end metrics. ``--trace 1`` runs each sweep untraced and then traced
and prints the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Lines before it give each metric's median, quartiles and sample count, the
quality figures and the environment of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"
ENV = {"OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
       "MKL_NUM_THREADS": BLAS_THREADS}

# Import blockwalk and build the smallest interesting walk, in a fresh process.
SETUP_CODE = """
import time
t0 = time.perf_counter()
from blockwalk import ctqw, subspace
ctqw.build_generator(subspace.enumerate_subspace(subspace.ring_graph(5)))
print(time.perf_counter() - t0)
"""

sys.path.insert(0, SRC)
os.environ.update(ENV)  # before numpy is imported by the checker


class BenchmarkError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ, **ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(cmd: list) -> str:
    """Run a child in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{cmd[1]} did not finish in {CHILD_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchmarkError(f"{cmd[1]} exited with {proc.returncode}")
    return out


def measure_setup() -> list:
    return [float(_run_child([sys.executable, "-c", SETUP_CODE]).split()[-1])
            for _ in range(SETUP_REPEATS)]


def environment(seed: int) -> dict:
    import numpy
    import scipy
    from blockwalk import kernels

    return {"backend": kernels.backend(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "seed": seed}


def summary(values: list) -> dict:
    """Median, first and third quartile and count of a sample."""
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def load_units() -> tuple:
    """Units of the end-to-end and of the per-layer metrics, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def evaluate(record: dict, trace: bool, setup: list) -> tuple:
    """(result line dict, detail lines) for a measured record."""
    import checks
    import tracer as tracing

    e2e_units, layer_units = load_units()
    calls = record["calls"]
    verdicts = checks.check_calls(calls)
    failures = [(c, i, p) for c, i, p in verdicts if p]
    lines = [f"FAILED call {c} instance {i}: {'; '.join(p)}" for c, i, p in failures]
    sweeps = record["sweeps"]
    first = [c for c in calls if c["sweep"] == 0 and not c["traced"]]
    qual = checks.quality(first)
    qual["failed_fraction"] = len(failures) / len(verdicts)
    lines.append("quality " + json.dumps(qual))

    if not trace:
        samples = {"wall_s": [s["wall_s"] for s in sweeps], "setup_s": setup}
        for name, vals in samples.items():
            lines.append(f"{name} {json.dumps(summary(vals))} unit={e2e_units[name]}")
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(s["wall_s"] for s in sweeps),
                  "peak_rss_mb": record["peak_rss_mb"],
                  "success_mean": qual["success_mean"]}
        units = e2e_units
    else:
        traced_calls = [c for c in calls if c["traced"]]
        values = tracing.layer_metrics(record["spans"], traced_calls, len(sweeps))
        overhead = [s["traced_wall_s"] - s["wall_s"] for s in sweeps]
        values["trace.overhead_s"] = statistics.median(overhead)
        lines.append(f"trace.overhead_s {json.dumps(summary(overhead))} unit=s "
                     f"untraced_wall_s={statistics.median(s['wall_s'] for s in sweeps)}")
        units = layer_units
    missing = set(units) - set(values)
    if missing:
        raise BenchmarkError(f"metrics not computed: {sorted(missing)}")
    result = {"correct": not failures, "attempted": len(verdicts),
              "failed": len(failures),
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    return result, lines


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="rings a few sites long, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "blockwalk", "cli.py")):
        print(f"no blockwalk sources under {SRC}", file=sys.stderr)
        return 2
    out_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        setup = [] if args.trace else measure_setup()
        cmd = [sys.executable, os.path.join(HERE, "measure.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir] + (["--tiny"] if args.tiny else [])
        _run_child(cmd)
        with open(os.path.join(out_dir, "record.json")) as fh:
            record = json.load(fh)
        result, lines = evaluate(record, bool(args.trace), setup)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run is using it
            pass
    print("env " + json.dumps(environment(args.seed)))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
