"""Correctness checks on the outputs of the measured ``run_config`` calls.

Every check recomputes or bounds a reported number with code paths other
than the ones that produced it, outside the timed region. An instance that
fails any check counts as failed.
"""

from __future__ import annotations

import numpy as np

import workloads

SUCCESS_AGREEMENT = 1e-6
NORM_TOLERANCE = 1e-8
RANGE_SLACK = 1e-12       # round-off allowed outside [0, 1]
TIGHT_KRYLOV_TOL = 1e-13  # the program's Krylov runs use 1e-10


def lucas(n: int) -> int:
    """|V| of the N-ring: L_1 = 1, L_2 = 3, L_n = L_(n-1) + L_(n-2)."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class Checker:
    """Caches each ring's basis and generator across the checked instances."""

    def __init__(self):
        from blockwalk import ctqw, subspace

        self.ctqw, self.subspace = ctqw, subspace
        self._walks = {}

    def walk(self, n: int):
        if n not in self._walks:
            basis = self.subspace.enumerate_subspace(self.subspace.ring_graph(n))
            self._walks[n] = (basis, self.ctqw.build_generator(basis))
        return self._walks[n]

    # -- recomputations ------------------------------------------------------

    def product_state(self, n, z, depth, tau0, tau1, dense: bool):
        """Final state of the product schedule by the other propagation method:
        Krylov for instances the program ran dense, and Krylov at a tighter
        tolerance for instances it ran with Krylov."""
        from blockwalk import prep_product

        ctqw = self.ctqw
        basis, gen = self.walk(n)
        sched = prep_product.product_schedule(tau0, tau1, depth, n, z)
        if dense:
            return ctqw.run_ansatz(sched, gen, method="krylov")
        phasor = ctqw.phasor_for(sched, basis)

        def step(psi, tau):
            return ctqw.StateVector(basis, ctqw.expm_krylov(
                gen.matvec, psi.amplitudes, tau, tol=TIGHT_KRYLOV_TOL))

        psi = step(ctqw.zero_state(basis), sched.tau0)
        for gamma, tau in sched.layers:
            psi = step(ctqw.apply_phasor(psi, phasor, gamma), tau)
        return psi

    def bracelet_overlap(self, n, z, schedule):
        """The plan's schedule run on the full subspace, not the orbit-reduced walk."""
        ctqw, subspace = self.ctqw, self.subspace
        basis, gen = self.walk(n)
        sched = ctqw.AnsatzSchedule(
            tau0=schedule["tau0"],
            layers=tuple((float(g), float(t)) for g, t in schedule["layers"]),
            phasor_kind=schedule["phasor"])
        psi = ctqw.run_ansatz(sched, gen)
        target = subspace.bracelet_vector(subspace.dihedral_orbit(z, n), basis)
        return psi, ctqw.overlap_probability(psi, target)

    # -- per-instance check ----------------------------------------------------

    def problems(self, call: dict, i: int) -> list:
        """Reasons instance ``i`` of a ``run_config`` call failed; empty if it passed."""
        cfg = call["config"]
        inst = call["manifest"]["instances"][i]
        if inst.get("error"):
            return [f"error: {inst['error']}"]
        row = call["rows"][i]
        n = int(row["ring"])
        target = row["target"]
        z = int(target, 2)
        out = []
        if int(row["subspace_size"]) != lucas(n):
            out.append(f"|V|={row['subspace_size']} != Lucas({n})={lucas(n)}")
        if len(target) != n or not workloads.is_ring_independent(target) \
                or target.count("1") != workloads.target_weight(n):
            out.append(f"target {target} is not a weight-{workloads.target_weight(n)} "
                       f"independent set of the {n}-ring")
            return out
        success = float(row["success"])
        if not -RANGE_SLACK <= success <= 1 + RANGE_SLACK:
            out.append(f"success {success} outside [0, 1]")

        if cfg["ansatz"] == "product":
            basis, _ = self.walk(n)
            dense = len(basis) <= self.ctqw.DENSE_CUTOFF
            psi = self.product_state(n, z, int(row["depth"]), float(row["tau0"]),
                                     float(row["tau1"]), dense)
            again = self.ctqw.success_probability(psi, [basis.index_of(z)])
        else:
            # schedules are captured in call order; an instance that failed
            # before building one would shift the rest
            if len(call["schedules"]) != len(call["rows"]):
                return out + [f"{len(call['schedules'])} bracelet schedules "
                              f"captured for {len(call['rows'])} instances"]
            psi, again = self.bracelet_overlap(n, z, call["schedules"][i])
        if abs(psi.norm() - 1.0) > NORM_TOLERANCE:
            out.append(f"final-state norm {psi.norm()!r} differs from 1")
        if abs(again - success) > SUCCESS_AGREEMENT:
            out.append(f"success {success!r} but recomputed {again!r}")

        if "rydberg" in cfg["backends"] or "shots" in cfg["backends"]:
            emu = float(row["emulation_success"])
            leak = float(row["leakage"])
            if not -RANGE_SLACK <= emu <= 1 + RANGE_SLACK:
                out.append(f"emulation success {emu} outside [0, 1]")
            if not -RANGE_SLACK <= leak <= 1 + RANGE_SLACK:
                out.append(f"leakage {leak} outside [0, 1]")
        if "shots" in cfg["backends"]:
            lo, est, hi = (float(row[k]) for k in ("em_ci_low", "em_estimate", "em_ci_high"))
            if not lo <= est <= hi:
                out.append(f"EM estimate {est} outside its interval [{lo}, {hi}]")
        return out


def check_calls(calls: list) -> list:
    """(call index, instance index, problems) for every instance of every call."""
    checker = Checker()
    verdicts = []
    for c, call in enumerate(calls):
        n_inst = len(call["manifest"]["instances"])
        if len(call["rows"]) != n_inst:
            verdicts += [(c, i, ["results.csv and manifest disagree on instances"])
                         for i in range(n_inst)]
            continue
        for i in range(n_inst):
            verdicts.append((c, i, checker.problems(call, i)))
    return verdicts


def quality(calls: list) -> dict:
    """Mean walk success, pulse-level success and |EM - emulation| of ``calls``."""
    rows = [r for c in calls for r, inst in zip(c["rows"], c["manifest"]["instances"])
            if not inst.get("error")]

    def mean(values):
        values = list(values)
        return float(np.mean(values)) if values else None

    return {
        "success_mean": mean(float(r["success"]) for r in rows),
        "emulation_success_mean": mean(
            float(r["emulation_success"]) for r in rows if r.get("emulation_success")),
        "em_abs_err_mean": mean(
            abs(float(r["em_estimate"]) - float(r["emulation_success"]))
            for r in rows if r.get("em_estimate")),
    }
