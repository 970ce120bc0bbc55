"""One benchmark pass in one process: repeat a workload's batch through ``qspec.cli.main``.

The pass calls ``cli.main`` in-process, the entry point ``qspec run`` and
``qspec oracle`` reach, in whole cycles of the workload's batch until the
next cycle would end past the time budget (at least one cycle runs).  Every
run is classified, gated and hashed:

* class by exit code (``ok``, ``config``, ``cap``, ``prep_exhausted``),
  ``uncaught`` for an exception escaping ``cli.main``, ``gate_failed`` when
  the artifacts fail ``gate.check`` and ``nondeterministic`` when a repeat of
  an input yields a different class or different CSV bytes;
* only ``ok`` runs count as solutions; every run's time is charged.

Untraced passes time ``speed.SpeedReference`` bursts before every run and
after the last, and report times scaled to its nominal machine speed (the
burst time is excluded from the pass's wall time; raw times are kept in
``raw``).  With tracing on, cycles alternate untraced/traced (U T T U ...) so the
tracer's overhead can be read off against the untraced cycles; the first
untraced cycle also carries the process's first-run warm-up.

Run as ``python3 perfbench/harness.py --workload NAME --seed N --seconds S
--trace 0|1 --result FILE`` with ``src`` on ``PYTHONPATH``; ``run.py`` does so.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from qspec import cli

import gate
import workloads
from speed import SpeedReference
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]

EXIT_CLASSES = {
    cli.EXIT_OK: "ok",
    cli.EXIT_CONFIG: "config",
    cli.EXIT_CAP: "cap",
    cli.EXIT_PREP: "prep_exhausted",
}
ARTIFACTS = ("distribution.csv", "spectrum.csv")
REFERENCE_SHARE = 0.05  # speed-reference time after each run, as a share of that run

# Per-layer metrics and their units: (span, statistic) pairs read off the tracer.
SPAN_METRICS = (
    ("models.build_operator", ("calls", "s")),
    ("simcore.eig_hermitian", ("calls", "s")),
    ("simcore.apply_controlled_unitary", ("calls", "s")),
    ("simcore.apply_unitary", ("calls", "self_s")),
    ("simcore.inverse_qft", ("s",)),
    ("simcore.register_distribution", ("s",)),
    ("purify.thermal_operator_state", ("calls", "self_s")),
    ("purify.base_state", ("calls",)),
    ("stateprep.run_prep_circuit", ("calls", "s", "self_s")),
    ("stateprep.choose_phi", ("s",)),
    ("stateprep.success_probability_bound", ("s",)),
    ("qpe.run_qpe", ("s", "self_s")),
    ("qpe.sample_outcomes", ("s",)),
    ("oracle.exact_outcome_distribution", ("s", "self_s")),
    ("oracle.transition_weights", ("calls",)),
    ("oracle.spectral_function", ("s", "self_s")),
    ("experiment.validate_config", ("s",)),
    ("experiment.run_experiment", ("self_s",)),
    ("experiment.write", ("s",)),
    ("cli.main", ("self_s",)),
    ("numpy.linalg.eigh", ("calls",)),
)
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Pass:
    """State of one pass: the batch, its config files, the run records and the digest ledger."""

    def __init__(self, workload: workloads.Workload, seed: int, work_dir: Path) -> None:
        self.batch = workload.batch(seed)
        self.work_dir = work_dir
        self.records: list[dict] = []
        self.first_seen: dict[str, tuple] = {}
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config_paths = []
        for index, run in enumerate(self.batch):
            path = work_dir / f"config-{index}.json"
            path.write_text(json.dumps(run.config))
            self.config_paths.append(path)

    def execute(self, index: int, traced: bool) -> dict:
        run = self.batch[index]
        out = self.work_dir / f"out-{len(self.records)}"
        argv = [run.command, "--config", str(self.config_paths[index]), "--out", str(out)]
        captured = io.StringIO()
        detail = ""
        t0 = time.perf_counter()
        try:
            with redirect_stdout(captured), redirect_stderr(captured):
                code = cli.main(argv)
            outcome = EXIT_CLASSES.get(code, f"exit_{code}")
        except Exception as exc:  # an escaping program error is counted, not fatal to the pass
            outcome = "uncaught"
            detail = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if outcome == "ok":
            detail = gate.check(out, run.gate, run.config, workloads.ORACLE_GRID_POINTS) or ""
            if detail:
                outcome = "gate_failed"
        elif not detail:
            lines = captured.getvalue().strip().splitlines()
            detail = lines[-1] if lines else ""
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ARTIFACTS
            if (out / name).is_file()
        }
        artifact_bytes = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        shutil.rmtree(out, ignore_errors=True)

        seen = self.first_seen.setdefault(run.key, (outcome, digests))
        if seen != (outcome, digests):
            detail = f"repeat differs from first run: {seen[0]} {seen[1]} vs {outcome} {digests}"
            outcome = "nondeterministic"
        record = {
            "key": run.key,
            "outcome": outcome,
            "seconds": seconds,
            "traced": traced,
            "digests": digests,
            "artifact_bytes": artifact_bytes,
            "detail": detail,
        }
        self.records.append(record)
        return record


def run_pass(workload: workloads.Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    state = Pass(workload, seed, work_dir)
    tracer = Tracer()
    reference = SpeedReference()
    reference_s = 0.0
    pattern = (False, True, True, False) if trace else (False,)
    cycle_s: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = pattern[cycle % len(pattern)]
        c0 = time.perf_counter()
        if traced:
            tracer.install()
        try:
            for index in range(len(state.batch)):
                if not trace:
                    last = state.records[-1]["seconds"] if state.records else 0.0
                    reference_s += reference.sample(REFERENCE_SHARE * last)
                state.execute(index, traced)
        finally:
            tracer.uninstall()
        cycle_s[traced].append(time.perf_counter() - c0)
        cycle += 1
        upcoming = pattern[cycle % len(pattern)]
        estimate = statistics.median(cycle_s[upcoming] or cycle_s[not upcoming])
        covered = all(cycle_s[mode] for mode in pattern)
        if covered and time.perf_counter() - start + estimate > seconds:
            break
    wall = time.perf_counter() - start - reference_s
    shutil.rmtree(work_dir, ignore_errors=True)

    records = state.records
    solved = sum(r["outcome"] == "ok" for r in records)
    failed = len(records) - solved
    wrong = [r for r in records if r["outcome"] in ("gate_failed", "nondeterministic")]
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "env": environment(),
        "attempted": len(records),
        "failed": failed,
        "outcomes": {o: sum(r["outcome"] == o for r in records) for o in sorted({r["outcome"] for r in records})},
        "correct": not wrong,
        "problems": [r["detail"] for r in wrong],
        "first_run_s": records[0]["seconds"],
        "runs": records,
    }
    if not trace:
        reference.sample(REFERENCE_SHARE * records[-1]["seconds"])
        times = [r["seconds"] for r in records]
        result["run_s_samples"] = len(times)
        result["run_s_tail"] = tail_percentile(times)
        result["speed_scale"] = reference.scale()
        result["raw"] = {"run_s": statistics.median(times), "s_per_solution": wall / max(solved, 1)}
        result["metrics"] = {
            name: (value * result["speed_scale"], "s") for name, value in result["raw"].items()
        }
        result["metrics"]["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        return result

    traced_runs = [r for r in records if r["traced"]]
    n = len(traced_runs)
    stats = {"calls": tracer.calls, "s": tracer.total_s, "self_s": tracer.self_s}
    metrics = {
        f"{span}.{stat}": (stats[stat].get(span, 0) / n, UNITS[stat])
        for span, span_stats in SPAN_METRICS
        for stat in span_stats
    }
    attempts = tracer.calls.get("stateprep.run_prep_circuit", 0)
    metrics["stateprep.accept_ratio"] = (tracer.prep_accepted / attempts if attempts else 0.0, "1")
    metrics["experiment.artifact_bytes"] = (sum(r["artifact_bytes"] for r in traced_runs) / n, "B")
    metrics["trace.overhead_frac"] = (statistics.mean(cycle_s[True]) / statistics.mean(cycle_s[False]) - 1.0, "1")
    if tracer.calls.get("numpy.linalg.eigh", 0) != tracer.calls.get("simcore.eig_hermitian", 0):
        result["correct"] = False
        result["problems"].append("numpy.linalg.eigh count differs from simcore.eig_hermitian count")
    result["metrics"] = metrics
    return result


def tail_percentile(times: list[float]) -> dict | None:
    """The highest of p50..p99 with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(times)
    for p in (99, 95, 90, 75, 50):
        if len(ordered) * (1 - p / 100) >= 10:
            return {"p": p, "value": ordered[math.ceil(p / 100 * len(ordered)) - 1]}
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"qspec imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_dir = Path(args.result).parent / f"work-{os.getpid()}"
    result = run_pass(workloads.get(args.workload), args.seed, args.seconds, bool(args.trace), work_dir)
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
