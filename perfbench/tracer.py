"""Span recorder for the traced benchmark run.

Wrappers in this file replace blockwalk's public functions where their
callers look them up, so no program code changes. A function bound by name
in several modules (``prep_product`` imports ``run_ansatz``, ``analysis``
imports ``evolve_walk``, ``prep_bracelet`` imports ``all_orbits``) is
replaced in each of them.

Each span records its name, start, end, parent and the id of the pipeline
instance it belongs to. Hot kernels called thousands of times per instance
are not recorded one span per call: their calls, time and computed cost are
summed into the calling span's ``leaves``. Spans made in pool workers reach
the parent through one JSON-lines file per worker process.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.records: list = []
        self.sweep = None
        self._stack: list = []
        self._seq = 0
        self._owner_pid = os.getpid()
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> dict:
        self._seq += 1
        parent = self._stack[-1] if self._stack else None
        rec = {"id": f"{os.getpid()}.{self._seq}",
               "parent": parent["id"] if parent else None,
               "instance": parent["instance"] if parent else None,
               "sweep": self.sweep, "name": name, "leaves": {},
               "start": time.perf_counter()}
        self._stack.append(rec)
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()
        self.records.append(rec)

    @contextlib.contextmanager
    def root(self, name: str):
        """A span around benchmark code, such as one sweep."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, name, attrs=None, pre=None):
        """Wrap ``fn`` in a span; ``name`` may be a callable of the arguments.

        ``pre(args, kwargs)`` and ``attrs(args, kwargs, result)`` return
        dicts of counts stored on the span.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            before = pre(args, kwargs) if pre is not None else None
            rec = self._open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if before:
                rec.update(before)
            if attrs is not None:
                rec.update(attrs(args, kwargs, out))
            return out
        return wrapper

    def leaf(self, fn, name, cost=None):
        """Wrap a hot function: sum calls, seconds and cost into the caller's span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            acc = self._stack[-1]["leaves"].setdefault(name, [0, 0.0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dt
            if cost is not None:
                nbytes, flops = cost(args, kwargs)
                acc[2] += nbytes
                acc[3] += flops
            return out
        return wrapper

    def instance(self, fn):
        """Wrap ``cli._run_instance``: the root span of one pipeline instance."""
        @functools.wraps(fn)
        def wrapper(task):
            mark = len(self.records)
            rec = self._open("cli.instance")
            rec["instance"] = rec["id"]
            rec.update(ring=task["ring"], target=task["target"],
                       depth=task["depth"])
            try:
                out = fn(task)
            finally:
                self._close(rec)
            if os.getpid() != self._owner_pid:
                path = os.path.join(self.spill_dir, f"{os.getpid()}.jsonl")
                with open(path, "a") as fh:
                    for r in self.records[mark:]:
                        fh.write(json.dumps(r) + "\n")
                del self.records[mark:]
            return out
        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, owners, attr, wrapped) -> None:
        """Replace ``attr`` on every owner (module or class) by ``wrapped``."""
        for owner in owners:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def collect(self) -> list:
        """Spans from this process and from every pool worker so far."""
        out = list(self.records)
        self.records.clear()
        for fname in sorted(os.listdir(self.spill_dir)):
            path = os.path.join(self.spill_dir, fname)
            with open(path) as fh:
                out += [json.loads(line) for line in fh if line.strip()]
            os.remove(path)
        return out


# ---------------------------------------------------------------------------
# computed kernel costs (a model from array sizes, not a hardware counter)

COMPLEX_FLOPS_PER_MAC = 8  # complex multiply (6) plus complex add (2)


def csr_matvec_cost(args, kwargs):
    indptr, indices, data, x = args[:4]
    nnz, dim = len(data), len(indptr) - 1
    nbytes = (data.nbytes + indices.nbytes + indptr.nbytes
              + nnz * x.itemsize + dim * x.itemsize)
    return nbytes, COMPLEX_FLOPS_PER_MAC * nnz


def rydberg_apply_cost(args, kwargs):
    psi, diag, omega, _phi, n_atoms = args[:5]
    nbytes = 2 * psi.nbytes + diag.nbytes  # diagonal pass: read psi, diag; write out
    flops = 6 * len(psi)
    if float(omega) != 0.0:
        # per atom: read all of psi once, read and write all of out once
        nbytes += n_atoms * 3 * psi.nbytes
        flops += n_atoms * COMPLEX_FLOPS_PER_MAC * len(psi)
    return nbytes, flops


def install(tracer: Tracer) -> None:
    """Wrap every public blockwalk function the per-layer metrics need."""
    from blockwalk import (analysis, cli, ctqw, kernels, mitigation,
                           prep_bracelet, prep_product, rydberg, subspace)

    t = tracer

    def evolve_name(args, kwargs):
        gen = args[1] if len(args) > 1 else kwargs["gen"]
        method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
        if method == "auto":
            method = "dense" if gen.dim <= ctqw.DENSE_CUTOFF else "krylov"
        return f"ctqw.evolve_{method}"

    t.patch([cli], "_run_instance", t.instance(cli._run_instance))
    t.patch([cli], "run_config", t.span(cli.run_config, "cli.run_config"))
    t.patch([subspace], "enumerate_subspace", t.span(
        subspace.enumerate_subspace, "subspace.enumerate_subspace",
        attrs=lambda a, k, out: {"ring": out.n_bits}))
    t.patch([subspace, prep_bracelet], "all_orbits",
            t.span(subspace.all_orbits, "subspace.all_orbits"))
    t.patch([ctqw], "build_generator",
            t.span(ctqw.build_generator, "ctqw.build_generator"))
    # the decomposition is cached on the generator; count only computed ones
    t.patch([ctqw.WalkGenerator], "eig", t.span(
        ctqw.WalkGenerator.eig, "ctqw.eig",
        pre=lambda a, k: {"computed": getattr(a[0], "_eig", None) is None}))
    t.patch([ctqw, analysis], "evolve_walk",
            t.span(ctqw.evolve_walk, evolve_name))
    t.patch([ctqw, prep_product], "run_ansatz",
            t.span(ctqw.run_ansatz, "ctqw.run_ansatz"))
    t.patch([kernels], "csr_matvec",
            t.leaf(kernels.csr_matvec, "kernels.csr_matvec", csr_matvec_cost))
    t.patch([kernels], "rydberg_apply", t.leaf(
        kernels.rydberg_apply, "kernels.rydberg_apply", rydberg_apply_cost))

    for fn in ("split_generator", "chain_parameters", "analytic_seed"):
        t.patch([prep_product], fn,
                t.span(getattr(prep_product, fn), "prep_product.seed"))
    t.patch([prep_product], "optimize_product", t.span(
        prep_product.optimize_product, "prep_product.optimize_product",
        attrs=lambda a, k, out: {"evaluations": out.evaluations,
                                 "converged": out.converged}))

    t.patch([prep_bracelet], "reduced_walk", t.span(
        prep_bracelet.reduced_walk, "prep_bracelet.reduced_walk"))
    t.patch([prep_bracelet], "peak_scan", t.span(
        prep_bracelet.peak_scan, "prep_bracelet.peak_scan"))
    t.patch([prep_bracelet], "optimize_bracelet", t.span(
        prep_bracelet.optimize_bracelet, "prep_bracelet.optimize_bracelet",
        attrs=lambda a, k, out: {"success": float(out.success)}))
    t.patch([prep_bracelet], "prepare_bracelet", t.span(
        prep_bracelet.prepare_bracelet, "prep_bracelet.prepare_bracelet"))
    t.patch([prep_bracelet.ReducedWalk], "evolve", t.leaf(
        prep_bracelet.ReducedWalk.evolve, "prep_bracelet.reduced_evolve"))

    for fn in ("compile_program", "emulate", "sample_shots"):
        t.patch([rydberg], fn, t.span(getattr(rydberg, fn), f"rydberg.{fn}"))

    t.patch([mitigation], "em_reconstruct", t.span(
        mitigation.em_reconstruct, "mitigation.em_reconstruct",
        attrs=lambda a, k, out: {"iterations": out.iterations,
                                 "converged": out.converged}))
    t.patch([mitigation], "bootstrap_ci", t.span(
        mitigation.bootstrap_ci, "mitigation.bootstrap_ci"))
    t.patch([mitigation], "reconstruct_with_ci", t.span(
        mitigation.reconstruct_with_ci, "mitigation.reconstruct_with_ci"))
    t.patch([analysis], "fit_power_law", t.span(
        analysis.fit_power_law, "analysis.fit_power_law"))


# ---------------------------------------------------------------------------
# span analysis


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it covered by child spans.

    Children in pool workers can overlap each other; their intervals are
    merged before subtraction. Summed hot-kernel time counts as covered.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        covered += sum(acc[1] for acc in s["leaves"].values())
        out[s["id"]] = max(0.0, (s["end"] - s["start"]) - covered)
    return out


def _accepted_plans(successes: list) -> int:
    """Plans ``prepare_bracelet`` keeps: up to the first drop in success."""
    for i in range(1, len(successes)):
        if successes[i] < successes[i - 1]:
            return i
    return len(successes)


def layer_metrics(spans: list, calls: list, n_sweeps: int) -> dict:
    """Per-layer metrics, each summed over the traced sweeps and divided by
    their number. ``calls`` are the traced ``run_config`` calls.

    Every ``_s`` metric is a self time, so the layers' times add up to the
    sweep. ``cli.self_s`` is ``run_config`` time not covered by any instance;
    with one worker that is its time minus the summed instance times.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def self_s(name):
        return sum(selfs[s["id"]] for s in by_name[name]) / n_sweeps

    def count(name):
        return len(by_name[name]) / n_sweeps

    def fraction(name, key):
        group = by_name[name]
        return sum(bool(s[key]) for s in group) / len(group) if group else 0.0

    leaves = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for s in spans:
        for lname, acc in s["leaves"].items():
            tot = leaves[lname]
            for i in range(4):
                tot[i] += acc[i]

    enum = by_name["subspace.enumerate_subspace"]
    distinct = {(s["sweep"], s["ring"]) for s in enum}
    plans = defaultdict(list)
    for s in sorted(by_name["prep_bracelet.optimize_bracelet"],
                    key=lambda s: s["start"]):
        plans[s["parent"]].append(s["success"])
    peaks = sum(len(v) for v in plans.values())
    accepted = sum(_accepted_plans(v) for v in plans.values())

    run_config_s = sum(s["end"] - s["start"] for s in by_name["cli.run_config"])
    # instance time as the manifest reports it, against workers x call time
    busy = sum(i["runtime_s"] for c in calls for i in c["manifest"]["instances"])
    capacity = sum(c["workers"] * c["wall_s"] for c in calls)
    csr = leaves["kernels.csr_matvec"]
    ryd = leaves["kernels.rydberg_apply"]
    n = n_sweeps
    return {
        "subspace.enumerate_s": self_s("subspace.enumerate_subspace"),
        "subspace.enumerate_calls": count("subspace.enumerate_subspace"),
        "subspace.basis_reuse_ratio": len(distinct) / len(enum) if enum else 0.0,
        "subspace.all_orbits_s": self_s("subspace.all_orbits"),
        "ctqw.build_generator_s": self_s("ctqw.build_generator"),
        "ctqw.eig_s": self_s("ctqw.eig"),
        "ctqw.eig_calls": sum(bool(s["computed"]) for s in by_name["ctqw.eig"]) / n,
        "ctqw.evolve_dense_s": self_s("ctqw.evolve_dense"),
        "ctqw.evolve_dense_calls": count("ctqw.evolve_dense"),
        "ctqw.evolve_krylov_s": self_s("ctqw.evolve_krylov"),
        "ctqw.evolve_krylov_calls": count("ctqw.evolve_krylov"),
        "kernels.csr_matvec_calls": csr[0] / n,
        "kernels.csr_matvec_s": csr[1] / n,
        "kernels.csr_matvec_bytes": csr[2] / n,
        "kernels.csr_matvec_flops": csr[3] / n,
        "kernels.rydberg_apply_calls": ryd[0] / n,
        "kernels.rydberg_apply_s": ryd[1] / n,
        "kernels.rydberg_apply_bytes": ryd[2] / n,
        "prep_product.seed_s": self_s("prep_product.seed"),
        "prep_product.optimize_s": self_s("prep_product.optimize_product"),
        "prep_product.objective_evals": sum(
            s["evaluations"] for s in by_name["prep_product.optimize_product"]) / n,
        "prep_product.converged_fraction": fraction(
            "prep_product.optimize_product", "converged"),
        "prep_bracelet.reduced_walk_s": self_s("prep_bracelet.reduced_walk"),
        "prep_bracelet.peak_scan_s": self_s("prep_bracelet.peak_scan"),
        "prep_bracelet.optimize_s": self_s("prep_bracelet.optimize_bracelet"),
        "prep_bracelet.optimize_calls": count("prep_bracelet.optimize_bracelet"),
        "prep_bracelet.peak_yield": accepted / peaks if peaks else 0.0,
        "prep_bracelet.reduced_evolve_calls":
            leaves["prep_bracelet.reduced_evolve"][0] / n,
        "rydberg.compile_s": self_s("rydberg.compile_program"),
        "rydberg.emulate_s": self_s("rydberg.emulate"),
        "rydberg.emulate_calls": count("rydberg.emulate"),
        "rydberg.sample_shots_s": self_s("rydberg.sample_shots"),
        "mitigation.em_calls": count("mitigation.em_reconstruct"),
        "mitigation.em_s": self_s("mitigation.em_reconstruct"),
        "mitigation.em_iterations": sum(
            s["iterations"] for s in by_name["mitigation.em_reconstruct"]) / n,
        "mitigation.em_converged_fraction": fraction(
            "mitigation.em_reconstruct", "converged"),
        "mitigation.bootstrap_s": self_s("mitigation.bootstrap_ci"),
        "analysis.fit_power_law_s": self_s("analysis.fit_power_law"),
        "analysis.fit_calls": count("analysis.fit_power_law"),
        "cli.run_config_s": run_config_s / n,
        "cli.self_s": self_s("cli.run_config"),
        "cli.worker_idle_fraction": 1.0 - busy / capacity if capacity else 0.0,
    }
