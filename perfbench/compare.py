"""Compare two sets of saved benchmark outputs, metric by metric.

    python3 perfbench/run.py ... > base-1.txt     (one file per run)
    python3 perfbench/compare.py --base base-*.txt --change change-*.txt

Each file is the standard output of one ``run.py`` run. Results whose
kernel backend differs are not compared: the command exits 1. Other
environment differences (library versions, cores, BLAS threads) are
printed as warnings. For every metric it prints both medians and quartiles;
an end-to-end metric whose change median is worse than the base median by
more than its bound is marked REGRESSED.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COMPARED_ENV = ("numpy", "scipy", "nproc", "blas_threads")


def load(path: str) -> tuple:
    """(environment, result) of one saved run."""
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return env, json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)

    base = [load(p) for p in args.base]
    change = [load(p) for p in args.change]
    envs = [e for e, _ in base + change]
    backends = {e["backend"] for e in envs}
    if len(backends) > 1:
        print(f"refusing to compare results of different backends: {sorted(backends)}",
              file=sys.stderr)
        return 1
    for key in COMPARED_ENV:
        seen = {str(e.get(key)) for e in envs}
        if len(seen) > 1:
            print(f"warning: {key} differs between results: {sorted(seen)}")

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted({k for _, r in base + change for k in r["metrics"]}):
        a = [r["metrics"][name]["value"] for _, r in base if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for _, r in change if name in r["metrics"]]
        if not a or not b:
            continue
        qa, qb = quartiles(a), quartiles(b)
        verdict = ""
        m = metrics.get(name, {})
        if "bound" in m and qa[1]:
            worse = (qb[1] - qa[1]) / abs(qa[1])
            if m["better"] == "higher":
                worse = -worse
            verdict = "REGRESSED" if worse > m["bound"] else "ok"
        print(f"{name:36s} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}] n={len(a)}"
              f"  change {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] n={len(b)}  {verdict}")
    failed = sum(r["failed"] for _, r in change)
    print(f"failed instances: base {sum(r['failed'] for _, r in base)}, change {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
