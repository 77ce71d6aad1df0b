"""Command-line interface: exit codes, outputs, round-trips, determinism."""

import importlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from blockwalk import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(argv):
    return cli.main(argv)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "blockwalk" in capsys.readouterr().out


def test_unknown_command_exits_one():
    assert run(["frobnicate"]) == 1


def test_enumerate_prints_count(capsys):
    assert run(["enumerate", "--ring", "7"]) == 0
    assert "|V| = 29" in capsys.readouterr().out


def test_enumerate_rejects_small_ring():
    assert run(["enumerate", "--ring", "2"]) == 1


def test_bad_target_exits_one():
    assert run(["prep-product", "--ring", "6", "--target", "banana"]) == 1
    assert run(["prep-product", "--ring", "6", "--target", "0101"]) == 1
    # dependent pair is not an independent set
    assert run(["prep-product", "--ring", "6", "--target", "110000"]) == 1


def test_prep_product_evaluate_and_schedule_roundtrip(tmp_path):
    out = tmp_path / "sched.json"
    rc = run([
        "prep-product", "--ring", "6", "--target", "half", "--depth", "1",
        "--tau0", "0.7", "--tau1", "0.55", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    n, target, sched = cli.schedule_from_dict(payload)
    assert (n, target, sched.depth) == (6, "000101", 1)
    redumped = cli.schedule_to_dict(n, target, "product", sched,
                                    payload["success_ctqw"])
    assert redumped["layers"] == payload["layers"]
    assert redumped["tau0"] == payload["tau0"]


def test_schedule_file_rejects_bad_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 99, "ring": 5}))
    assert run(["compile", "--schedule", str(bad)]) == 1


def test_prep_product_optimize(capsys):
    rc = run(["prep-product", "--ring", "5", "--target", "half",
              "--depth", "1"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["success_ctqw"] > 0.5


def test_prep_bracelet(tmp_path):
    out = tmp_path / "b.json"
    rc = run(["prep-bracelet", "--ring", "6", "--target", "half",
              "--tau-max", "6.0", "--out", str(out)])
    assert rc == 0
    body = json.loads(out.read_text())
    assert body["ansatz"] == "bracelet"
    assert body["success_ctqw"] > 0.5


def _make_schedule(tmp_path):
    sched = tmp_path / "s.json"
    assert run(["prep-product", "--ring", "5", "--target", "half",
                "--depth", "1", "--tau0", "0.66", "--tau1", "0.57",
                "--out", str(sched)]) == 0
    return sched


def test_compile_and_emulate(tmp_path, capsys):
    sched = _make_schedule(tmp_path)
    prog = tmp_path / "p.json"
    assert run(["compile", "--schedule", str(sched), "--out", str(prog)]) == 0
    body = json.loads(prog.read_text())
    assert "positions_um" in body and "channels" in body

    shots = tmp_path / "shots.txt"
    capsys.readouterr()
    assert run(["emulate", "--schedule", str(sched), "--scale", "0.8",
                "--shots", "200", "--seed", "3",
                "--shots-out", str(shots)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["success"] <= 1.0
    assert report["leakage"] < 0.1
    assert shots.exists()


@pytest.mark.parametrize("ring,target", [
    (5, "101"),      # too few bits: compiled with a wrong local mask
    (5, "00011"),    # adjacent sites: not an independent set
    (5, "10001"),    # adjacent across the wrap-around
    (5, "0010x"),    # not a bitstring
    (2, "01"),       # not a ring
])
@pytest.mark.parametrize("command", ["compile", "emulate"])
def test_schedule_file_rejects_bad_ring_or_target(tmp_path, command, ring,
                                                   target):
    sched = _make_schedule(tmp_path)
    body = json.loads(sched.read_text())
    sched.write_text(json.dumps({**body, "ring": ring, "target": target}))
    assert run([command, "--schedule", str(sched)]) == 1


@pytest.mark.parametrize("field", [
    {"ring": "x"},
    {"tau0": "abc"},
    {"tau0": -0.5},
    {"layers": [[3.14]]},
    {"layers": 5},
    {"phasor": "foo"},
], ids=["ring", "tau0", "negative-tau0", "short-layer", "layers", "phasor"])
def test_schedule_file_rejects_bad_fields(tmp_path, field):
    sched = _make_schedule(tmp_path)
    body = json.loads(sched.read_text())
    sched.write_text(json.dumps({**body, **field}))
    assert run(["compile", "--schedule", str(sched)]) == 1


def test_emulate_shots_require_outfile(tmp_path):
    sched = _make_schedule(tmp_path)
    assert run(["emulate", "--schedule", str(sched), "--shots", "50"]) == 1


def test_mitigate_pipeline(tmp_path, capsys):
    sched = _make_schedule(tmp_path)
    shots = tmp_path / "shots.txt"
    run(["emulate", "--schedule", str(sched), "--shots", "400",
         "--seed", "1", "--shots-out", str(shots)])
    capsys.readouterr()
    rc = run(["mitigate", "--shots-file", str(shots), "--target", "half",
              "--resamples", "20", "--seed", "2"])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    lo, hi = body["ci"]
    assert lo <= body["target_probability"] <= hi


@pytest.mark.parametrize("content", [
    None,
    "00101\n00000\n",
    "# n=5 p00=0.99 p11=0.93 seed=1\n00101\n0010x\n",
    "# n=5 p00=0.99 p11=0.93 seed=1\n00101\n001010\n",
    "# p00=0.99 p11=0.93 seed=1\n00101\n",
], ids=["missing", "no-header", "not-bits", "too-wide", "no-width"])
def test_mitigate_rejects_bad_shot_file(tmp_path, content):
    shots = tmp_path / "shots.txt"
    if content is not None:
        shots.write_text(content)
    assert run(["mitigate", "--shots-file", str(shots), "--target", "half",
                "--resamples", "5"]) == 1


def test_analyze_rejects_bad_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("")
    assert run(["analyze", "--csv", str(bad)]) == 1
    missing = tmp_path / "missing.csv"
    missing.write_text("foo,bar\n1,2\n")
    assert run(["analyze", "--csv", str(missing)]) == 1


def test_analyze_fits_powerlaw(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    rows = ["subspace_size,success", "11,0.5", "18,0.35", "29,0.25",
            "47,0.17", "76,0.12"]
    csv.write_text("\n".join(rows) + "\n")
    assert run(["analyze", "--csv", str(csv)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert "alpha" in body and "c" in body


def test_quench_writes_csv(tmp_path):
    out = tmp_path / "q.csv"
    assert run(["quench", "--ring", "5", "--target", "half",
                "--tau-max", "1.0", "--dtau", "0.1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau,coherent,incoherent"
    assert len(lines) == 12


CONFIG = {
    "version": 1,
    "rings": [5, 6, 7],
    "targets": ["half"],
    "ansatz": "product",
    "depths": [1],
    "backends": ["ctqw"],
}


def test_run_config_validation(tmp_path):
    cfg = tmp_path / "bad.json"
    body = dict(CONFIG)
    body["depths"] = []
    cfg.write_text(json.dumps(body))
    assert run(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_run_pipeline_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["run", "--config", str(cfg), "--out", str(out1),
                "--seed", "11"]) == 0
    assert run(["run", "--config", str(cfg), "--out", str(out2),
                "--seed", "11", "--workers", "2"]) == 0
    csv1 = (out1 / "results.csv").read_text()
    assert csv1 == (out2 / "results.csv").read_text()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["failed_instances"] == 0
    assert "config_sha256" in manifest
    for inst in manifest["instances"]:
        assert isinstance(inst["evaluations"], int) and inst["evaluations"] > 0
        assert isinstance(inst["converged"], bool)
    assert (out1 / "fits.json").exists()


def test_config_schema_is_valid():
    # the validator is built once without checking the schema itself
    cli.CONFIG_VALIDATOR.check_schema(cli.CONFIG_SCHEMA)


def _stages_fit_runtime(inst, names):
    stages = inst["stage_s"]
    assert list(stages) == names
    assert all(t >= 0.0 for t in stages.values())
    # each stage and the runtime are rounded to the millisecond
    assert sum(stages.values()) <= inst["runtime_s"] + 0.0005 * (len(names) + 1)


def test_run_manifest_records_emulation_diagnostics(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "rings": [5, 6],
                               "backends": ["ctqw", "rydberg"],
                               "emulation": {"scale": 0.8}}))
    out = tmp_path / "o"
    assert run(["run", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    rows = (out / "results.csv").read_text().splitlines()
    col = rows[0].split(",").index("leakage")
    for inst, row in zip(manifest["instances"], rows[1:]):
        assert inst["leakage"] == pytest.approx(float(row.split(",")[col]),
                                                abs=1e-12)
        assert 0.0 <= inst["leakage"] < 0.1
        # every product pi-phase layer needs two local triangles
        assert len(inst["warnings"]) == 1
        assert "split into 2 triangles" in inst["warnings"][0]
        _stages_fit_runtime(inst, ["prepare", "compile", "emulate"])
        assert "failed_stage" not in inst and "em_iterations" not in inst
    # walk-only instances carry no emulation diagnostics
    cfg.write_text(json.dumps(CONFIG))
    assert run(["run", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 0
    walk_only = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    for inst in walk_only["instances"]:
        assert "leakage" not in inst and "warnings" not in inst
        _stages_fit_runtime(inst, ["prepare"])
    # shots instances record the full-data EM fit's solver facts
    cfg.write_text(json.dumps({**CONFIG, "rings": [4],
                               "backends": ["ctqw", "rydberg", "shots"],
                               "shots": 300}))
    assert run(["run", "--config", str(cfg), "--out", str(tmp_path / "o3")]) == 0
    shots = json.loads((tmp_path / "o3" / "manifest.json").read_text())
    (inst,) = shots["instances"]
    _stages_fit_runtime(inst, ["prepare", "compile", "emulate", "mitigate"])
    assert isinstance(inst["em_iterations"], int) and inst["em_iterations"] > 0
    assert inst["em_converged"] is True

    # a failing stage is named, and the stages before it keep their times
    def broken(*args, **kwargs):
        raise RuntimeError("emulator down")

    monkeypatch.setattr(cli.rydberg, "emulate", broken)
    assert run(["run", "--config", str(cfg), "--out", str(tmp_path / "o4")]) == 2
    failed = json.loads((tmp_path / "o4" / "manifest.json").read_text())
    (inst,) = failed["instances"]
    assert inst["failed_stage"] == "emulate"
    assert "emulator down" in inst["error"]
    _stages_fit_runtime(inst, ["prepare", "compile", "emulate"])


def test_run_manifest_records_emulation_fidelity(tmp_path, monkeypatch):
    # ring 7, half target, depth 1 at scale 0.8: the long-range van der
    # Waals tails cost over half the fidelity to the ideal walk state, while
    # the blockade leaks only ~0.2% of the norm
    from blockwalk import ctqw, prep_product, subspace

    raw = {"version": 1, "ansatz": "product", "rings": [7],
           "targets": ["half"], "depths": [1],
           "backends": ["ctqw", "rydberg"], "emulation": {"scale": 0.8}}
    (inst,) = cli.run_config(raw, str(tmp_path / "o"))["instances"]
    assert inst["emulation_fidelity"] == pytest.approx(0.4620, abs=0.002)
    assert inst["leakage"] == pytest.approx(0.0017, abs=0.0002)
    assert inst["emulation_fidelity"] <= 1.0 - inst["leakage"]
    # an emulator returning the ideal walk state reads fidelity 1
    basis = subspace.enumerate_subspace(subspace.ring_graph(7))
    gen = ctqw.build_generator(basis)
    z = subspace.str_to_bits(subspace.half_target(7))
    res = prep_product.optimize_product(basis, gen, z, 1)
    sched = prep_product.product_schedule(res.tau0, res.tau1, 1, 7, z)
    full = np.zeros(1 << 7, dtype=complex)
    full[basis.states] = ctqw.run_ansatz(sched, gen).amplitudes
    monkeypatch.setattr(cli.rydberg, "emulate", lambda *a, **k: full)
    (inst,) = cli.run_config(raw, str(tmp_path / "ideal"))["instances"]
    assert inst["emulation_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert inst["leakage"] == pytest.approx(0.0, abs=1e-12)
    # walk-only instances carry no fidelity
    raw["backends"] = ["ctqw"]
    (inst,) = cli.run_config(raw, str(tmp_path / "walk"))["instances"]
    assert "emulation_fidelity" not in inst


def test_tracer_keeps_rydberg_kernel_leaf_live(tmp_path, monkeypatch):
    # perfbench wraps kernels.rydberg_apply by name; emulate must keep
    # calling it there for the pulse-emulation layer metrics to read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    spill = tmp_path / "spans"
    spill.mkdir()
    tracer = tracing.Tracer(str(spill))
    calls = []
    tracing.install(tracer)
    try:
        with tracer.root("benchmark.sweep"):
            for j, (raw, workers) in enumerate(workloads.sweep_configs(
                    "pulse-emulation", 1, 0, tiny=True)):
                t0 = time.perf_counter()
                manifest = cli.run_config(raw, str(tmp_path / f"c{j}"),
                                          workers=workers)
                calls.append({"manifest": manifest, "workers": workers,
                              "wall_s": time.perf_counter() - t0})
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.collect(), calls, 1)
    assert metrics["rydberg.emulate_calls"] == len(calls) == 1
    assert metrics["rydberg.emulate_s"] > 0.0
    assert metrics["kernels.rydberg_apply_calls"] > 0
    assert metrics["kernels.rydberg_apply_s"] > 0.0
    assert metrics["kernels.rydberg_apply_bytes"] > 0.0


def test_tracer_keeps_csr_matvec_leaf_live(tmp_path, monkeypatch):
    # perfbench wraps kernels.csr_matvec by name; Krylov walk propagation
    # must keep calling it there for the product-sweep layer metrics to read
    from blockwalk import ctqw, subspace

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracer")
    basis = subspace.enumerate_subspace(subspace.ring_graph(8))
    gen = ctqw.build_generator(basis)
    tracer = tracing.Tracer(str(tmp_path))
    tracing.install(tracer)
    originals = {}
    for owner, attr, original in tracer._patched:
        originals.setdefault((owner, attr), original)
    try:
        with tracer.root("benchmark.sweep"):
            ctqw.evolve_walk(ctqw.zero_state(basis), gen, 0.7, "krylov")
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.collect(), [], 1)
    assert metrics["ctqw.evolve_krylov_calls"] == 1
    for key in ("calls", "s", "bytes", "flops"):
        assert metrics[f"kernels.csr_matvec_{key}"] > 0
    assert originals
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original


def test_tracer_keeps_eig_live(tmp_path, monkeypatch):
    # perfbench wraps WalkGenerator.eig by name and reads its _eig cache to
    # count computed decompositions; the product objective must keep both
    from blockwalk import ctqw, prep_product, subspace

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracer")
    basis = subspace.enumerate_subspace(subspace.ring_graph(8))
    gen = ctqw.build_generator(basis)
    z = subspace.str_to_bits(subspace.half_target(8))
    tracer = tracing.Tracer(str(tmp_path))
    tracing.install(tracer)
    originals = {}
    for owner, attr, original in tracer._patched:
        originals.setdefault((owner, attr), original)
    try:
        with tracer.root("benchmark.sweep"):
            prep_product.optimize_product(basis, gen, z, 2)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.collect(), [], 1)
    assert metrics["ctqw.eig_calls"] == 1
    assert metrics["ctqw.eig_s"] > 0.0
    assert (ctqw.WalkGenerator, "eig") in originals
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original


def test_tracer_keeps_bracelet_layers_live(tmp_path, monkeypatch):
    # perfbench wraps prep_bracelet.reduced_walk, ReducedWalk.evolve and the
    # all_orbits prep_bracelet imports; the reduced walk reads its sector
    # from the generator's one decomposition, which is computed once
    from blockwalk import ctqw, prep_bracelet, subspace

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracer")
    basis = subspace.enumerate_subspace(subspace.ring_graph(5))
    gen = ctqw.build_generator(basis)
    orbit = subspace.dihedral_orbit(
        subspace.str_to_bits(subspace.half_target(5)), 5)
    tracer = tracing.Tracer(str(tmp_path))
    tracing.install(tracer)
    originals = {}
    for owner, attr, original in tracer._patched:
        originals.setdefault((owner, attr), original)
    try:
        with tracer.root("benchmark.sweep"):
            prep_bracelet.prepare_bracelet(gen, orbit)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.collect(), [], 1)
    assert metrics["prep_bracelet.reduced_walk_s"] > 0.0
    assert metrics["prep_bracelet.reduced_evolve_calls"] > 0
    assert metrics["subspace.all_orbits_s"] > 0.0
    assert metrics["ctqw.eig_calls"] == 1
    for key in ((prep_bracelet, "reduced_walk"), (prep_bracelet, "all_orbits"),
                (prep_bracelet.ReducedWalk, "evolve")):
        assert key in originals
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original


def test_run_manifest_records_walk_propagation(tmp_path, monkeypatch):
    # each product instance names the walk propagation ctqw.factored picked
    from blockwalk import ctqw

    raw = {"version": 1, "ansatz": "product", "rings": [5, 6],
           "targets": ["half"], "depths": [1], "backends": ["ctqw"]}

    def paths(out):
        manifest = cli.run_config(raw, str(tmp_path / out))
        assert json.loads((tmp_path / out / "manifest.json").read_text()) \
            == manifest
        return [inst["propagation"] for inst in manifest["instances"]]

    assert paths("factored") == ["factored", "factored"]
    monkeypatch.setattr(ctqw, "EIGEN_BLOCK_CUTOFF", 0)
    assert paths("krylov") == ["krylov", "krylov"]
    # bracelet instances run the orbit-reduced walk and record none
    raw.update(ansatz="bracelet", rings=[5])
    (inst,) = cli.run_config(raw, str(tmp_path / "b"))["instances"]
    assert "propagation" not in inst


def test_benchmark_checker_passes_tiny_sweeps(tmp_path, monkeypatch):
    # perfbench's checker recomputes each instance through program names
    # (ctqw.DENSE_CUTOFF, run_ansatz(method=), expm_krylov(tol=),
    # product_schedule, bracelet_schedule); a change that drops one fails
    # here, not only in a benchmark run
    from blockwalk import prep_bracelet

    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure = importlib.import_module("measure")
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    for name in sorted(workloads.WORKLOADS):
        calls = measure.run_sweep(
            cli, prep_bracelet, workloads.sweep_configs(name, 1, 0, tiny=True),
            str(tmp_path / name), 0, False)
        verdicts = checks.check_calls(calls)
        assert verdicts, name
        assert [v for v in verdicts if v[2]] == [], name


_RUN_INSTANCE = cli._run_instance


def _exit_on_ring_6(task):
    """Pool task that kills its worker process on ring 6."""
    if task["ring"] == 6:
        os._exit(3)
    return _RUN_INSTANCE(task)


def test_run_config_survives_dead_worker(tmp_path, monkeypatch):
    # a dead worker breaks the pool: its instance (and any the pool still
    # held) fails, but the sweep still writes its rows and manifest
    monkeypatch.setattr(cli, "_run_instance", _exit_on_ring_6)
    out = tmp_path / "o"
    manifest = cli.run_config(CONFIG, str(out), workers=2)
    assert json.loads((out / "manifest.json").read_text()) == manifest
    rings = [inst["ring"] for inst in manifest["instances"]]
    assert rings == CONFIG["rings"]
    dead = manifest["instances"][rings.index(6)]
    assert dead["error"].startswith("BrokenProcessPool")
    failed = [inst for inst in manifest["instances"] if inst.get("error")]
    assert manifest["failed_instances"] == len(failed) >= 1
    # every instance, failed or not, reports a runtime
    assert all(inst["runtime_s"] >= 0.0 for inst in manifest["instances"])
    rows = (out / "results.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == [str(n) for n in rings]


def _run_rejected(tmp_path, **overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, **overrides}))
    out = tmp_path / "o"
    rc = run(["run", "--config", str(cfg), "--out", str(out)])
    return rc, out.exists()


def test_run_config_rejects_deep_product(tmp_path):
    # depth limits are known before any instance runs: exit 1, no outputs
    assert _run_rejected(tmp_path, depths=[1, 6]) == (1, False)


@pytest.mark.parametrize("backend", ["rydberg", "shots"])
def test_run_config_rejects_emulation_above_14_atoms(tmp_path, backend):
    assert _run_rejected(tmp_path, rings=[5, 15],
                         backends=["ctqw", backend]) == (1, False)


@pytest.mark.parametrize("rings,targets", [
    ([13, 5], ["half", "10100"]),   # 5 bits on the 13-ring
    ([5], ["half", "11000"]),       # adjacent sites on the 5-ring
    ([5], ["10001"]),               # adjacent across the wrap-around
])
def test_run_config_rejects_bad_target_before_running(tmp_path, rings,
                                                      targets):
    # every (ring, target) pair is checked before any instance runs
    assert _run_rejected(tmp_path, rings=rings, targets=targets) == (1, False)


def test_run_bracelet_pipeline_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "ansatz": "bracelet"}))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["run", "--config", str(cfg), "--out", str(out2),
                "--workers", "2"]) == 0
    csv1 = (out1 / "results.csv").read_text()
    assert csv1 == (out2 / "results.csv").read_text()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["failed_instances"] == 0
    for inst in manifest["instances"]:
        assert isinstance(inst["evaluations"], int) and inst["evaluations"] > 0
        assert inst["converged"] is True


def test_missing_config_file(tmp_path):
    assert run(["run", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o")]) == 1
