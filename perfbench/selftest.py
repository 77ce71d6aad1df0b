"""Fast self-test of the benchmark at tiny rings (about a minute).

    python3 perfbench/selftest.py

1. Every workload, traced and untraced, prints every metric BENCHMARK.json
   names, with its unit, and no other, and all its instances pass.
2. The checker counts deliberately perturbed outputs as failed.

Exits 0 when both hold.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import checks
import measure
import run
import workloads


def check_printed_metrics() -> list:
    spec = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    problems = []
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            if out.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {out.returncode}: {out.stderr}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {got} != {want}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {out.stdout}")
            print(f"ok {name} trace={trace}: {result['attempted']} instances")
    return problems


# each perturbation: (workload, what it changes, function changing one call)
def _bump(key, delta):
    def change(call):
        value = call["rows"][0][key]
        kind = int if value.isdigit() else float
        call["rows"][0][key] = repr(kind(value) + delta)
    return change


def _bump_gamma(call):
    gamma, tau = call["schedules"][0]["layers"][0]
    call["schedules"][0]["layers"][0] = [gamma + 1e-2, tau]


def _ci_excludes_estimate(call):
    row = call["rows"][0]
    row["em_ci_high"] = repr(float(row["em_estimate"]) - 1e-3)


def _error(call):
    call["manifest"]["instances"][0]["error"] = "RuntimeError: injected"


PERTURBATIONS = [
    ("product-sweep", "success off by 1e-4", _bump("success", 1e-4)),
    ("product-sweep", "tau1 moved", _bump("tau1", 1e-2)),
    ("product-sweep", "|V| off by one", _bump("subspace_size", 1)),
    ("product-sweep", "instance error", _error),
    ("bracelet-plan", "success off by -1e-4", _bump("success", -1e-4)),
    ("bracelet-plan", "phase angle moved", _bump_gamma),
    ("readout-mitigation", "EM estimate outside its interval", _ci_excludes_estimate),
    ("pulse-emulation", "emulation success above 1", _bump("emulation_success", 1.5)),
]


def check_perturbations() -> list:
    problems = []
    out_dir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    records = {}
    try:
        for name in {p[0] for p in PERTURBATIONS}:
            rec_dir = os.path.join(out_dir, name)
            os.makedirs(rec_dir)
            measure.main(["--workload", name, "--seed", "5", "--seconds", "0",
                          "--tiny", "--out", rec_dir])
            with open(os.path.join(rec_dir, "record.json")) as fh:
                records[name] = json.load(fh)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for name, what, change in PERTURBATIONS:
        calls = records[name]["calls"]
        if any(p for _, _, p in checks.check_calls(calls)):
            problems.append(f"{name}: unperturbed outputs fail the checks")
            continue
        bad = copy.deepcopy(calls[:1])
        change(bad[0])
        failed = [p for _, _, p in checks.check_calls(bad) if p]
        if len(failed) != 1:
            problems.append(f"{name}: '{what}' gave {len(failed)} failed instances, want 1")
        else:
            print(f"ok {name}: '{what}' caught: {failed[0][0]}")
    return problems


def main() -> int:
    problems = check_perturbations() + check_printed_metrics()
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
