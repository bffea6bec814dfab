"""Self-tests of the benchmark at smoke size (tiny grids, a few steps).

    python3 -m pytest perfbench/tests -q

Run from the root of the repository.  They drive run.py as a benchmark run does,
in subprocesses, so the tracer's rebinding never leaks into this process.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace=0, cwd=ROOT, bench=BENCH):
    argv = [sys.executable, os.path.join(bench, "run.py"), "--workload", workload,
            "--seed", "42", "--seconds", "0.01", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def _copy_bench(dest):
    shutil.copytree(BENCH, dest, ignore=shutil.ignore_patterns("out", "__pycache__"))
    return dest


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[0])


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_names_match_the_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert sorted(workloads.SMOKE) == sorted(workloads.WORKLOADS)


def test_judge_flags_a_perturbed_reference():
    ops = {"point": {"gated": {"total": 0.25}, "recorded": {"Ez": 1e-7}, "problem": None}}
    same = {"point": {"gated": {"total": 0.25}}}
    assert checks.judge(ops, same) == (1, [])
    within = {"point": {"gated": {"total": 0.25 * (1 + 1e-14)}}}
    assert checks.judge(ops, within)[1] == []
    perturbed = {"point": {"gated": {"total": 0.25 * (1 + 1e-9)}}}
    assert len(checks.judge(ops, perturbed)[1]) == 1
    extra = {**same, "other": {"gated": {"total": 1.0}}}
    assert checks.judge(ops, extra) == (2, ["other: missing from the output"])
    nan = {"point": {"gated": {"total": math.nan}, "recorded": {}, "problem": None}}
    assert len(checks.judge(nan, None)[1]) == 1
    broken = {"point": {"gated": {}, "recorded": {}, "problem": "blowup"}}
    assert checks.judge(broken, None)[1] == ["point: blowup"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result, info = _result(_run(workload))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = _units("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["env"]["tracing"] is False  # the tracer was never imported
    assert info["repetitions"] >= 1


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_traced_run_prints_every_per_layer_metric(workload):
    result, info = _result(_run(workload, trace=1))
    assert result["correct"] is True
    assert info["env"]["tracing"] is True
    assert info["missing_entry_points"] == []
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["trace.wall_s"] > 0
    assert 0 <= value["spectral.fft.self_frac"] < 1
    if workload == "gamma-sweep-32":
        # six points share one PE_H reference
        assert value["harness.pairs.ref_useful_frac"] == pytest.approx(1 / 6)
        assert value["harness.sweep.busy_s"] > 0
    if workload == "verify-all":
        assert value["bootstrap.certify.calls"] > 0
    else:
        assert value["spectral.fft.self_frac"] > 0


def test_stored_reference_is_checked_and_a_perturbed_one_fails(tmp_path):
    # a copy of the benchmark with no reference writes its values ...
    bench = _copy_bench(tmp_path / "perfbench")
    references = bench / "references.json"
    references.write_text("{}")
    _result(_run("gamma-sweep-32", bench=bench))
    with open(bench / "out" / "smoke-result-gamma-sweep-32-seed42-trace0.json",
              encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    key = workloads.reference_key("gamma-sweep-32", smoke=True)

    def store(scale):
        stored = {name: {"gated": {k: v * scale for k, v in op["gated"].items()}}
                  for name, op in ops.items()}
        references.write_text(json.dumps({"workloads": {key: {"42": stored}}}))

    # ... which, stored as the reference, pass ...
    store(1.0)
    result, info = _result(_run("gamma-sweep-32", bench=bench))
    assert info["reference"] is True and result["correct"] is True
    # ... and fail once perturbed beyond 1e-12 relative
    store(1 + 1e-9)
    result, _ = _result(_run("gamma-sweep-32", bench=bench))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_missing_entry_point_reads_null(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer

    monkeypatch.setattr(
        tracer, "ENTRY_POINTS", (("hydrostat.fields", "_raw_renamed", "fields.advect"),)
    )
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["hydrostat.fields:_raw_renamed"]
    metrics = tr.layer_metrics()
    assert metrics["fields.advect.calls"] is None
    assert metrics["fields.advect.self_s"] is None
    assert metrics["norms.accumulate.calls"] == 0


def test_uninstall_restores_the_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer
    from hydrostat import fields, solvers, spectral

    before = (spectral._raw_to_phys, fields._raw_to_phys, solvers._raw_to_phys)
    assert "advance" not in vars(solvers.NavierStokesStepper)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert fields._raw_to_phys is not before[1]
        assert "advance" in vars(solvers.NavierStokesStepper)
    finally:
        tr.uninstall()
    assert (spectral._raw_to_phys, fields._raw_to_phys, solvers._raw_to_phys) == before
    assert "advance" not in vars(solvers.NavierStokesStepper)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    _copy_bench(tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("gamma-sweep-32", cwd=tmp_path, bench=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
