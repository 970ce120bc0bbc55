"""Smoke tests of the benchmark harness on N=2 inputs.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qspec  # noqa: E402
from qspec import cli, simcore  # noqa: E402

import gate  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _pass(run: workloads.Run, work_dir: Path) -> harness.Pass:
    return harness.Pass(workloads.Workload("test", "", lambda seed: [run]), 0, work_dir)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(trace, section):
    proc = _bench("--workload", "smoke", "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # For trace 1 this includes the numpy-boundary eigh count equalling eig_hermitian's.
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_benchmark_json_lists_the_defined_workloads():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
    for workload in workloads.WORKLOADS.values():
        assert workload.batch(7) == workload.batch(7)


def test_gate_trips_on_corrupted_distribution(tmp_path):
    run = workloads.SMOKE.batch(1)[0]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(run.config))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert gate.check(out, "exact", run.config, workloads.ORACLE_GRID_POINTS) is None

    csv = out / "distribution.csv"
    lines = csv.read_text().splitlines()
    f, omega, p_exact, rest = lines[1].split(",", 3)
    lines[1] = ",".join([f, omega, repr(float(p_exact) + 1e-6), rest])
    csv.write_text("\n".join(lines) + "\n")
    assert "exceeds" in gate.check(out, "exact", run.config, workloads.ORACLE_GRID_POINTS)


def test_uncaught_error_is_classified_and_the_pass_goes_on(tmp_path):
    config = {
        "model": {"preset": "heisenberg", "N": 4},
        "observable": "total_sz",
        "ensemble": {"kind": "ground_state"},
        "prep": {"mode": "exact"},
        "qpe": {"l": 2, "delta": 0.1},
        "seed": 0,
    }
    state = _pass(workloads.Run("heisenberg", "run", config, "exact"), tmp_path)
    for _ in range(2):
        record = state.execute(0, traced=False)
        assert record["outcome"] == "uncaught"
        assert record["detail"].startswith("ZeroNormError")


def test_repeat_with_different_bytes_counts_as_nondeterministic(tmp_path):
    run = workloads.SMOKE.batch(2)[0]
    state = _pass(run, tmp_path)
    assert state.execute(0, traced=False)["outcome"] == "ok"
    outcome, digests = state.first_seen[run.key]
    state.first_seen[run.key] = (outcome, {**digests, "spectrum.csv": "0" * 64})
    assert state.execute(0, traced=False)["outcome"] == "nondeterministic"


def test_tracer_patches_every_binding_and_restores_it():
    modules = [m for name, m in sys.modules.items() if name == "qspec" or name.startswith("qspec.")]
    original = simcore.eig_hermitian
    bound = [m for m in modules if getattr(m, "eig_hermitian", None) is original]
    assert {qspec, cli} <= set(bound)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(m.eig_hermitian is not original for m in bound)
    finally:
        tracer.uninstall()
    assert all(m.eig_hermitian is original for m in bound)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "qpe_wide", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
