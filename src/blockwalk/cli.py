"""Config-driven command-line front end.

Subcommands wrap the library modules and compose through files: schedules
and programs are JSON, shot records and traces are plain text/CSV.  The
``run`` subcommand drives the full pipeline (enumerate -> prepare ->
compile -> emulate -> sample -> mitigate -> analyze) from a single
schema-validated JSON config and writes a manifest alongside the outputs.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import operator
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import __version__, analysis, ctqw, mitigation, prep_bracelet, prep_product
from . import rydberg, subspace

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

SCHEDULE_SCHEMA_VERSION = 1
CONFIG_SCHEMA_VERSION = 1
# walk-time grid points of `quench` and `prep-bracelet`
MAX_TAU_POINTS = 100_000

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["version", "rings", "targets", "ansatz"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": CONFIG_SCHEMA_VERSION},
        "rings": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "integer", "minimum": 3,
                      "maximum": subspace.MAX_VERTICES},
        },
        "targets": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "string", "pattern": "^(half|mis|[01]+)$"},
        },
        "ansatz": {"enum": ["product", "bracelet"]},
        "depths": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "integer", "minimum": 1},
        },
        "backends": {
            "type": "array",
            "minItems": 1,
            "items": {"enum": ["ctqw", "rydberg", "shots"]},
        },
        "channel": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "p00": {"type": "number", "exclusiveMinimum": 0.5, "maximum": 1},
                "p11": {"type": "number", "exclusiveMinimum": 0.5, "maximum": 1},
            },
        },
        "shots": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "emulation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "scale": {"type": "number", "exclusiveMinimum": 0},
                "row_snap": {"type": "boolean"},
            },
        },
    },
}

# built once: jsonschema.validate would check the schema itself on every call
CONFIG_VALIDATOR = validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)

CONFIG_DEFAULTS = {
    "depths": [1],
    "backends": ["ctqw"],
    "channel": dataclasses.asdict(mitigation.STANDARD_CHANNEL),
    "shots": 1000,
    "seed": 0,
    "emulation": {"scale": 1.0, "row_snap": False},
}


class ValidationFailure(Exception):
    """Bad config, flags, or input files; maps to exit code 1."""


# ---------------------------------------------------------------------------
# helpers


_BOUND_CHECKS = {"minimum": operator.ge, "exclusiveMinimum": operator.gt,
                 "maximum": operator.le}


def _limits(bounds: dict) -> dict:
    """The JSON-schema bounds (``minimum``, ``exclusiveMinimum``,
    ``maximum``) of a schema entry."""
    return {key: bounds[key] for key in _BOUND_CHECKS if key in bounds}


def _within(value, limits: dict) -> bool:
    """Whether ``value`` meets every one of `_limits`; NaN meets none."""
    return all(_BOUND_CHECKS[key](value, bound)
               for key, bound in limits.items())


def _bounded(cast, bounds: dict):
    """argparse ``type=`` that casts a flag and checks it against JSON-schema
    bounds; argparse reports a value outside them, or a non-finite one, as a
    usage error."""
    limits = _limits(bounds)

    def parse(text: str):
        value = cast(text)
        if not (math.isfinite(value) and _within(value, limits)):
            raise argparse.ArgumentTypeError(f"{text} is outside {limits}")
        return value
    return parse


# readout fidelities take the config schema's channel bounds, as flags and
# as shot-file header values
_CHANNEL_LIMITS = {key: _limits(bounds) for key, bounds in
                   CONFIG_SCHEMA["properties"]["channel"]["properties"].items()}


def _check_ring(n: int) -> None:
    if not 3 <= n <= subspace.MAX_VERTICES:
        raise ValidationFailure(
            f"ring must have 3 to {subspace.MAX_VERTICES} sites, got {n}")


def _check_phases(n: int, values) -> None:
    """Refuse walk times and phase angles whose phases on the n-ring are
    not finite: a walk phase is tau times an eigenvalue of the generator,
    whose norm is at most n, and a phasor's entries are at most n."""
    _check_ring(n)
    for value in values:
        if not math.isfinite(value * n):
            raise ValidationFailure(
                f"{value} gives non-finite phases on the {n}-ring")


def _check_tau_grid(n: int, tau_max: float, dtau: float) -> None:
    """Refuse a walk-time grid 0, dtau, ... tau_max of more than
    MAX_TAU_POINTS points or with non-finite phases, before it is built."""
    if tau_max / dtau + 1 > MAX_TAU_POINTS:
        raise ValidationFailure(
            f"--tau-max {tau_max} at --dtau {dtau} is more than "
            f"{MAX_TAU_POINTS} walk times")
    _check_phases(n, [tau_max])


def resolve_target(n: int, spec: str) -> str:
    """Turn 'half' / 'mis' / literal bitstring into an n-bit target string."""
    if spec == "half":
        return subspace.half_target(n)
    if spec == "mis":
        return subspace.mis_target(n)
    if set(spec) <= {"0", "1"}:
        if len(spec) != n:
            raise ValidationFailure(
                f"target {spec!r} has {len(spec)} bits, ring has {n}"
            )
        return spec
    raise ValidationFailure(f"unknown target spec {spec!r}")


def schedule_to_dict(n: int, target: str, kind: str,
                     schedule: ctqw.AnsatzSchedule, success: float) -> dict:
    return {
        "schema": SCHEDULE_SCHEMA_VERSION,
        "ring": n,
        "target": target,
        "ansatz": kind,
        "tau0": schedule.tau0,
        "layers": [[float(g), float(t)] for g, t in schedule.layers],
        "phasor": schedule.phasor_kind,
        "success_ctqw": success,
    }


def schedule_from_dict(d: dict) -> tuple:
    """Returns (n, target_str, AnsatzSchedule)."""
    for key in ("schema", "ring", "target", "tau0", "layers", "phasor"):
        if key not in d:
            raise ValidationFailure(f"schedule file missing field {key!r}")
    if d["schema"] != SCHEDULE_SCHEMA_VERSION:
        raise ValidationFailure(f"unsupported schedule schema {d['schema']!r}")
    try:
        n = int(d["ring"])
        tau0 = float(d["tau0"])
        layers = tuple((float(g), float(t)) for g, t in d["layers"])
    except (TypeError, ValueError) as exc:
        raise ValidationFailure(f"bad schedule field: {exc}") from exc
    target, z = _ring_target(n, str(d["target"]))
    mask = 0
    if d["phasor"] == "local":
        mask = (~z) & ((1 << n) - 1)
    sched = ctqw.AnsatzSchedule(
        tau0=tau0,
        layers=layers,
        phasor_kind=str(d["phasor"]),
        target_mask=mask,
    )
    try:
        sched.validate()
    except ValueError as exc:
        raise ValidationFailure(f"bad schedule: {exc}") from exc
    _check_phases(n, [tau0, *(v for layer in layers for v in layer)])
    return n, target, sched


def _finite(text: str) -> float:
    """A JSON number that is finite: NaN, Infinity and overflowing literals
    are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise ValidationFailure(f"cannot read JSON {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _ring_target(n: int, spec: str) -> tuple:
    """(target string, target bits) for the n-ring, if the ring has at least
    3 sites and the target is one of its independent sets."""
    _check_ring(n)
    target = resolve_target(n, spec)
    z = subspace.str_to_bits(target)
    if z & subspace.rotate_bits(z, n, 1):
        raise ValidationFailure(
            f"target {target} is not an independent set of the {n}-ring")
    return target, z


def _ring_problem(n: int, spec: str) -> tuple:
    """(target string, target bits, basis, walk generator) for the n-ring."""
    target, z = _ring_target(n, spec)
    basis = subspace.enumerate_subspace(subspace.ring_graph(n))
    return target, z, basis, ctqw.build_generator(basis)


def _emulation_summary(full: np.ndarray, basis, z: int,
                       ideal: np.ndarray | None = None) -> dict:
    """Target population of an emulated state and its blockade leakage;
    given the ideal walk state's amplitudes, also the fidelity
    |<ideal|P emulated>|^2 of the state projected onto the subspace."""
    in_sub = rydberg.project_to_subspace(full, basis)
    mass = float(np.vdot(in_sub, in_sub).real)
    summary = {
        "success": float(np.abs(in_sub[basis.index_of(z)]) ** 2),
        "subspace_mass": mass,
        "leakage": 1.0 - mass,
    }
    if ideal is not None:
        summary["fidelity"] = float(np.abs(np.vdot(ideal, in_sub)) ** 2)
    return summary


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args) -> int:
    _check_ring(args.ring)
    basis = subspace.enumerate_subspace(subspace.ring_graph(args.ring))
    _write_text(args.out, f"ring N={args.ring}: |V| = {len(basis)}")
    return EXIT_OK


def cmd_prep_product(args) -> int:
    n = args.ring
    if (args.tau0 is None) != (args.tau1 is None):
        raise ValidationFailure("--tau0 and --tau1 must be given together")
    if args.tau0 is not None:
        _check_phases(n, [args.tau0, args.tau1])
    target, z, basis, gen = _ring_problem(n, args.target)
    if args.tau0 is not None:
        success = prep_product.evaluate_product(
            basis, gen, z, args.depth, args.tau0, args.tau1)
        tau0, tau1 = args.tau0, args.tau1
    else:
        res = prep_product.optimize_product(basis, gen, z, args.depth)
        success, tau0, tau1 = res.success, res.tau0, res.tau1
    sched = prep_product.product_schedule(tau0, tau1, args.depth, n, z)
    _write_text(args.out, json.dumps(
        schedule_to_dict(n, target, "product", sched, success), indent=2))
    return EXIT_OK


def cmd_prep_bracelet(args) -> int:
    n = args.ring
    _check_tau_grid(n, args.tau_max, args.dtau)
    target, z, _, gen = _ring_problem(n, args.target)
    orbit = subspace.dihedral_orbit(z, n)
    plan = prep_bracelet.prepare_bracelet(
        gen, orbit, tau_max=args.tau_max, dtau=args.dtau)
    sched = prep_bracelet.bracelet_schedule(plan)
    _write_text(args.out, json.dumps(
        schedule_to_dict(n, target, "bracelet", sched, plan.success), indent=2))
    return EXIT_OK


def _compile_from_args(args):
    n, target, sched = schedule_from_dict(_load_json(args.schedule))
    program = rydberg.compile_program(
        sched, n, scale=args.scale, row_snap=args.row_snap)
    return n, target, sched, program


def cmd_compile(args) -> int:
    _, _, _, program = _compile_from_args(args)
    _write_text(args.out, rydberg.program_to_json(program))
    return EXIT_OK


def cmd_emulate(args) -> int:
    if args.shots and not args.shots_out:
        raise ValidationFailure("--shots requires --shots-out FILE")
    n, target, _, program = _compile_from_args(args)
    full = rydberg.emulate(program)
    basis = subspace.enumerate_subspace(subspace.ring_graph(n))
    report = {"ring": n, "target": target}
    report.update(_emulation_summary(full, basis, subspace.str_to_bits(target)))
    if args.shots:
        shot_set = rydberg.sample_shots(
            full, n, args.shots, p00=args.p00, p11=args.p11, seed=args.seed)
        rydberg.write_shot_file(args.shots_out, shot_set)
        report["shots_file"] = args.shots_out
        report["shots"] = args.shots
    _write_text(args.out, json.dumps(report, indent=2))
    return EXIT_OK


def cmd_mitigate(args) -> int:
    try:
        shots = rydberg.read_shot_file(args.shots_file)
    except (OSError, KeyError, ValueError) as exc:
        raise ValidationFailure(
            f"cannot read shot file {args.shots_file}: {exc!r}") from exc
    _, z = _ring_target(shots.n_bits, args.target)
    basis = subspace.enumerate_subspace(subspace.ring_graph(shots.n_bits))
    channel = {"p00": shots.p00 if args.p00 is None else args.p00,
               "p11": shots.p11 if args.p11 is None else args.p11}
    for key, value in channel.items():
        if not _within(value, _CHANNEL_LIMITS[key]):
            raise ValidationFailure(
                f"{key}={value} is outside {_CHANNEL_LIMITS[key]}")
    channel = mitigation.ReadoutChannel(**channel)
    result = mitigation.reconstruct_with_ci(
        shots, basis, channel, z,
        resamples=args.resamples, seed=args.seed)
    _write_text(args.out, mitigation.result_to_json(result))
    return EXIT_OK


def cmd_analyze(args) -> int:
    import warnings

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = np.genfromtxt(args.csv, delimiter=",", names=True)
    except Exception as exc:
        raise ValidationFailure(f"{args.csv}: cannot parse CSV: {exc}") from exc
    if rows is None or rows.size == 0:
        raise ValidationFailure(f"{args.csv}: no data rows")
    names = rows.dtype.names or ()
    for col in ("subspace_size", "success"):
        if col not in names:
            raise ValidationFailure(f"{args.csv}: missing column {col!r}")
    sizes = np.atleast_1d(rows["subspace_size"]).astype(float)
    success = np.atleast_1d(rows["success"]).astype(float)
    card = (np.atleast_1d(rows["cardinality"]).astype(float)
            if "cardinality" in names else np.ones_like(sizes))
    amps = sizes * success / card
    weights = 1.0 / amps**2 if args.weights == "relative" else None
    fit = analysis.fit_power_law(sizes, amps, weights=weights)
    _write_text(args.out, json.dumps({
        "c": fit.c, "alpha": fit.alpha, "alpha_err": fit.alpha_err,
        "r_squared": fit.r_squared, "speedup_order": fit.describe_n(),
        "points": len(sizes), "weights": args.weights,
    }, indent=2))
    return EXIT_OK


def cmd_quench(args) -> int:
    n = args.ring
    _check_tau_grid(n, args.tau_max, args.dtau)
    _, z, basis, gen = _ring_problem(n, args.target)
    orbit = subspace.dihedral_orbit(z, n)
    taus = np.arange(0.0, args.tau_max + 0.5 * args.dtau, args.dtau)
    tidx = [basis.index_of(z)]
    coh_state = ctqw.StateVector(
        basis, subspace.bracelet_vector(orbit, basis).astype(complex))
    members = [ctqw.basis_state(basis, u) for u in orbit.members]
    coh = analysis.quench_coherent(coh_state, gen, taus, tidx)
    inc = analysis.quench_incoherent(members, gen, taus, tidx)
    lines = ["tau,coherent,incoherent"]
    lines += [f"{t:.6g},{a:.12g},{b:.12g}" for t, a, b in zip(taus, coh, inc)]
    _write_text(args.out, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# config-driven pipeline


def _merged_config(raw: dict) -> dict:
    # the error jsonschema.validate would raise
    exc = best_match(CONFIG_VALIDATOR.iter_errors(raw))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ValidationFailure(f"config field {path}: {exc.message}") from exc
    cfg = dict(CONFIG_DEFAULTS)
    cfg.update(raw)
    channel = dict(CONFIG_DEFAULTS["channel"])
    channel.update(raw.get("channel", {}))
    cfg["channel"] = channel
    emu = dict(CONFIG_DEFAULTS["emulation"])
    emu.update(raw.get("emulation", {}))
    cfg["emulation"] = emu
    if cfg["ansatz"] == "product" and max(cfg["depths"]) > prep_product.MAX_DEPTH:
        raise ValidationFailure(
            f"product depths above {prep_product.MAX_DEPTH} are not supported")
    if ({"rydberg", "shots"} & set(cfg["backends"])
            and max(cfg["rings"]) > rydberg.MAX_EMULATED_ATOMS):
        raise ValidationFailure(
            f"pulse emulation supports rings up to {rydberg.MAX_EMULATED_ATOMS}")
    for n in cfg["rings"]:
        for spec in cfg["targets"]:
            _ring_target(n, spec)
    return cfg


@contextlib.contextmanager
def _stage(row: dict, name: str):
    """Time one pipeline stage into ``row["stage_s"]``; an exception leaving
    it names the stage as ``row["failed_stage"]``."""
    t = time.perf_counter()
    try:
        yield
    except Exception:
        row["failed_stage"] = name
        raise
    finally:
        row["stage_s"][name] = round(time.perf_counter() - t, 3)


def _run_instance(task: dict) -> dict:
    """One (ring, target, depth) pipeline instance; pure, worker-safe.

    Stages: prepare (subspace, generator and ansatz), compile, emulate (and
    the emulated state's fidelity to the ideal walk state), and mitigate
    (shot sampling, EM fit and bootstrap).
    """
    t_start = time.perf_counter()
    cfg = task["config"]
    n, target_spec, depth = task["ring"], task["target"], task["depth"]
    out: dict = {"ring": n, "target_spec": target_spec, "depth": depth,
                 "stage_s": {}}
    try:
        with _stage(out, "prepare"):
            target, z, basis, gen = _ring_problem(n, target_spec)
            out["target"] = target
            out["subspace_size"] = len(basis)
            if cfg["ansatz"] == "product":
                res = prep_product.optimize_product(basis, gen, z, depth)
                sched = prep_product.product_schedule(
                    res.tau0, res.tau1, depth, n, z)
                out.update(tau0=res.tau0, tau1=res.tau1, j_eff=res.j_eff,
                           success=res.success, evaluations=res.evaluations,
                           converged=res.converged,
                           propagation="factored" if ctqw.factored(gen)
                           else "krylov")
            else:
                orbit = subspace.dihedral_orbit(z, n)
                plan = prep_bracelet.prepare_bracelet(gen, orbit)
                sched = prep_bracelet.bracelet_schedule(plan)
                out.update(tau_eff=plan.tau_tot, depth=plan.p,
                           success=plan.success, evaluations=plan.evaluations,
                           converged=plan.converged)
        if "rydberg" in cfg["backends"] or "shots" in cfg["backends"]:
            emu = cfg["emulation"]
            with _stage(out, "compile"):
                program = rydberg.compile_program(
                    sched, n, scale=emu["scale"], row_snap=emu["row_snap"])
            with _stage(out, "emulate"):
                full = rydberg.emulate(program)
                ideal = ctqw.run_ansatz(sched, gen).amplitudes
                summary = _emulation_summary(full, basis, z, ideal)
            out["emulation_success"] = summary["success"]
            out["leakage"] = summary["leakage"]
            out["emulation_fidelity"] = summary["fidelity"]
            out["warnings"] = list(program.waveform.warnings)
            if "shots" in cfg["backends"]:
                with _stage(out, "mitigate"):
                    seed = cfg["seed"] + task["index"]
                    ch = cfg["channel"]
                    shot_set = rydberg.sample_shots(
                        full, n, cfg["shots"], p00=ch["p00"], p11=ch["p11"],
                        seed=seed)
                    channel = mitigation.ReadoutChannel(**ch)
                    rec = mitigation.reconstruct_with_ci(
                        shot_set, basis, channel, z,
                        resamples=200, seed=seed)
                out.update(em_estimate=rec.point, em_ci_low=rec.ci_low,
                           em_ci_high=rec.ci_high, shots_seed=seed,
                           em_iterations=rec.model.iterations,
                           em_converged=rec.model.converged,
                           em_bootstrap_iterations_median=float(
                               np.median(rec.bootstrap_iterations)),
                           em_bootstrap_iterations_max=int(
                               rec.bootstrap_iterations.max()),
                           em_bootstrap_converged_fraction=float(
                               rec.bootstrap_converged.mean()),
                           em_bootstrap_rank_stopped_fraction=float(
                               rec.bootstrap_rank_stopped.mean()))
    except Exception as exc:  # isolate per-instance failures
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["runtime_s"] = round(time.perf_counter() - t_start, 3)
    return out


def _collect(future, task: dict) -> dict:
    """A pool task's row; a task whose worker raised or died (the pool then
    fails every task it still held) becomes that instance's error row, with
    runtime 0 since no worker reported one."""
    try:
        return future.result()
    except Exception as exc:
        return {"ring": task["ring"], "target_spec": task["target"],
                "depth": task["depth"], "error": f"{type(exc).__name__}: {exc}",
                "runtime_s": 0.0}


def _instance_tasks(cfg: dict) -> list:
    tasks = []
    depths = cfg["depths"] if cfg["ansatz"] == "product" else [0]
    idx = 0
    for n in cfg["rings"]:
        for target in cfg["targets"]:
            for depth in depths:
                tasks.append({"config": cfg, "ring": n, "target": target,
                              "depth": depth, "index": idx})
                idx += 1
    return tasks


_PRODUCT_COLS = ("ring", "subspace_size", "target", "depth", "tau0", "tau1",
                 "j_eff", "success")
_BRACELET_COLS = ("ring", "subspace_size", "target", "depth", "tau_eff",
                  "success")
# the manifest's per-instance facts, where an instance has them
_MANIFEST_KEYS = ("ring", "target_spec", "depth", "runtime_s", "stage_s",
                  "evaluations", "converged", "propagation", "leakage",
                  "emulation_fidelity", "warnings", "em_iterations",
                  "em_converged", "em_bootstrap_iterations_median",
                  "em_bootstrap_iterations_max",
                  "em_bootstrap_converged_fraction",
                  "em_bootstrap_rank_stopped_fraction", "error",
                  "failed_stage")
_EXTRA_COLS = ("emulation_success", "leakage", "em_estimate", "em_ci_low",
               "em_ci_high")


def _results_csv(cfg: dict, results: list) -> str:
    cols = list(_PRODUCT_COLS if cfg["ansatz"] == "product"
                else _BRACELET_COLS)
    cols += [c for c in _EXTRA_COLS if any(c in r for r in results)]
    lines = [",".join(cols)]
    for r in results:
        cells = []
        for c in cols:
            v = r.get(c, "")
            cells.append(f"{v:.12g}" if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines)


def run_config(raw: dict, out_dir: str, workers: int = 1,
               seed: int | None = None) -> dict:
    """Execute a validated config; returns the manifest dict."""
    cfg = _merged_config(raw)
    if seed is not None:
        cfg["seed"] = seed
    os.makedirs(out_dir, exist_ok=True)
    tasks = _instance_tasks(cfg)
    t0 = time.perf_counter()
    if workers > 1:
        # the pool forks all its workers at once; no more than there are tasks
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(_run_instance, t) for t in tasks]
            results = [_collect(f, t) for f, t in zip(futures, tasks)]
    else:
        results = [_run_instance(t) for t in tasks]
    csv_text = _results_csv(cfg, results)
    csv_path = os.path.join(out_dir, "results.csv")
    _write_text(csv_path, csv_text)

    fits = {}
    ok = [r for r in results if "error" not in r]
    for tgt in cfg["targets"]:
        for depth in sorted({r["depth"] for r in ok}):
            pts = [r for r in ok
                   if r["target_spec"] == tgt and r["depth"] == depth]
            if len(pts) < 3:
                continue
            sizes = np.array([r["subspace_size"] for r in pts], float)
            amps = sizes * np.array([r["success"] for r in pts])
            fit = analysis.fit_power_law(sizes, amps, weights=1.0 / amps**2)
            fits[f"{tgt}_p{depth}"] = {
                "c": fit.c, "alpha": fit.alpha, "alpha_err": fit.alpha_err,
                "r_squared": fit.r_squared,
                "speedup_order": fit.describe_n(),
            }
    if fits:
        _write_text(os.path.join(out_dir, "fits.json"),
                    json.dumps(fits, indent=2))

    import scipy

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    manifest = {
        "schema": CONFIG_SCHEMA_VERSION,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "config": cfg,
        "versions": {
            "blockwalk": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "instances": [
            {k: r.get(k) for k in _MANIFEST_KEYS if k in r}
            for r in results
        ],
        "failed_instances": sum(1 for r in results if "error" in r),
        "total_runtime_s": round(time.perf_counter() - t0, 3),
        "outputs": ["results.csv"] + (["fits.json"] if fits else []),
    }
    _write_text(os.path.join(out_dir, "manifest.json"),
                json.dumps(manifest, indent=2))
    return manifest


def cmd_run(args) -> int:
    raw = _load_json(args.config)
    manifest = run_config(raw, args.out, workers=args.workers, seed=args.seed)
    if manifest["failed_instances"]:
        sys.stderr.write(
            f"{manifest['failed_instances']} instance(s) failed; "
            "see manifest.json\n")
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blockwalk",
        description="Quantum walks on independent-set subspaces of rings.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    positive = _bounded(float, {"exclusiveMinimum": 0})
    nonnegative = _bounded(float, {"minimum": 0})
    fidelity = {k: _bounded(float, v) for k, v in _CHANNEL_LIMITS.items()}
    # flags that set a config field take its schema bounds
    fields = CONFIG_SCHEMA["properties"]
    scale = _bounded(float, fields["emulation"]["properties"]["scale"])
    seed = _bounded(int, fields["seed"])

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        return p

    p = add("enumerate", cmd_enumerate, "count independent sets of a ring")
    p.add_argument("--ring", type=int, required=True)
    p.add_argument("--out", default=None)

    p = add("prep-product", cmd_prep_product,
            "optimize a single-target schedule; writes schedule JSON")
    p.add_argument("--ring", type=int, required=True)
    p.add_argument("--target", required=True,
                   help="bitstring, or 'half' / 'mis'")
    p.add_argument("--depth", default=1, type=_bounded(
        int, {"minimum": 1, "maximum": prep_product.MAX_DEPTH}))
    p.add_argument("--tau0", type=nonnegative, default=None,
                   help="evaluate at fixed tau0 (with --tau1), no optimization")
    p.add_argument("--tau1", type=nonnegative, default=None)
    p.add_argument("--out", default=None)

    p = add("prep-bracelet", cmd_prep_bracelet,
            "plan an orbit-superposition schedule; writes schedule JSON")
    p.add_argument("--ring", type=int, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--tau-max", type=nonnegative, default=20.0)
    p.add_argument("--dtau", type=positive, default=0.02)
    p.add_argument("--out", default=None)

    p = add("compile", cmd_compile,
            "compile a schedule JSON to an analog program JSON")
    p.add_argument("--schedule", required=True)
    p.add_argument("--scale", type=scale, default=1.0)
    p.add_argument("--row-snap", action="store_true")
    p.add_argument("--out", default=None)

    p = add("emulate", cmd_emulate,
            "compile and emulate a schedule; optional shot sampling")
    p.add_argument("--schedule", required=True)
    p.add_argument("--scale", type=scale, default=1.0)
    p.add_argument("--row-snap", action="store_true")
    p.add_argument("--shots", type=_bounded(int, {"minimum": 0}), default=0)
    p.add_argument("--shots-out", default=None)
    p.add_argument("--p00", type=fidelity["p00"],
                   default=mitigation.STANDARD_CHANNEL.p00)
    p.add_argument("--p11", type=fidelity["p11"],
                   default=mitigation.STANDARD_CHANNEL.p11)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out", default=None)

    p = add("mitigate", cmd_mitigate,
            "EM readout-error reconstruction from a shot file")
    p.add_argument("--shots-file", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--p00", type=fidelity["p00"], default=None,
                   help="override channel stored in the shot file")
    p.add_argument("--p11", type=fidelity["p11"], default=None)
    p.add_argument("--resamples", type=_bounded(int, {"minimum": 1}),
                   default=mitigation.DEFAULT_RESAMPLES)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out", default=None)

    p = add("analyze", cmd_analyze,
            "power-law amplification fit from a results CSV")
    p.add_argument("--csv", required=True,
                   help="columns: subspace_size,success[,cardinality]")
    p.add_argument("--weights", choices=("relative", "unit"),
                   default="relative")
    p.add_argument("--out", default=None)

    p = add("quench", cmd_quench,
            "coherent vs incoherent free-evolution traces (CSV)")
    p.add_argument("--ring", type=int, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--tau-max", type=nonnegative, default=8.0)
    p.add_argument("--dtau", type=positive, default=0.02)
    p.add_argument("--out", default=None)

    p = add("run", cmd_run, "full pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=_bounded(int, {"minimum": 1}), default=1)
    p.add_argument("--seed", type=seed, default=None,
                   help="override the config seed")

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; map to the validation code unless
        # it was --help/--version (exit 0).
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        return args.fn(args)
    except ValidationFailure as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except Exception as exc:
        sys.stderr.write(f"runtime error: {type(exc).__name__}: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
