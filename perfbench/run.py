"""qspec benchmark: time to a validated spectrum, per workload, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the repository root; ``src/qspec`` is imported from this checkout
only.  Workloads are defined in ``workloads.py``.

With ``--trace 0`` the command runs one untraced pass of the workload in a
fresh process (``harness.py``) and prints the end-to-end metrics.  Set-up
time is the median over fresh interpreters, half started before the pass
and half after it, of process start until ``qspec.cli`` is imported.  All
times are scaled to a nominal machine speed measured during the pass (see
``speed.py``); the raw times are printed and recorded beside them.  With ``--trace 1`` the
pass alternates untraced and traced cycles and prints the per-layer metrics
instead.  The BLAS/OpenMP thread count is pinned to min(2, available CPUs)
in every child and recorded with the numpy, BLAS and Python versions.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the pass,
including per-run outcomes and the sha256 of every CSV written, goes to
``perfbench/out/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 5  # before the pass, and as many again after it
SETUP_PROBE = "import qspec.cli; print('ready', flush=True)"
PASS_TIMEOUT_S = 170.0  # the whole command must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def setup_samples(env: dict) -> list[float]:
    """Wall times from spawning an interpreter until ``qspec.cli`` is imported."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - t0
            probe.communicate(timeout=60)
        code = probe.returncode
        if code != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed with exit code {code}")
        samples.append(elapsed)
    return samples


def measure(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    env = child_env()
    setup = [] if trace else setup_samples(env)
    result_path = OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "harness.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--result", str(result_path),
    ]
    try:
        code = subprocess.run(command, cwd=ROOT, env=env, timeout=max(1.0, deadline - time.monotonic())).returncode
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass for {workload} did not finish in time") from exc
    if code != 0 or not result_path.is_file():
        raise BenchError(f"pass for {workload} exited with code {code}")
    result = json.loads(result_path.read_text())
    if not trace:
        setup += setup_samples(env)
        result["raw"]["setup_s"] = statistics.median(setup)
        result["metrics"]["setup_s"] = (result["raw"]["setup_s"] * result["speed_scale"], "s")
        result["setup_samples"] = setup
        result_path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def describe(result: dict) -> list[str]:
    env = result["env"]
    lines = [
        f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"threads={env['blas_threads']['OPENBLAS_NUM_THREADS']} numpy={env['numpy']} blas={env['blas']} "
        f"python={env['python']} nproc={env['nproc']}",
        f"  {result['attempted']} runs, {result['failed']} failed {result['outcomes']}, "
        f"first run {result['first_run_s']:.4f} s (counted)",
    ]
    if not result["trace"]:
        lines.append(f"  times below are scaled by {result['speed_scale']:.4f} to the nominal speed of speed.py")
    for name, (value, unit) in sorted(result["metrics"].items()):
        note = f"  (raw {result['raw'][name]:.6g} {unit})" if name in result.get("raw", {}) else ""
        if name == "run_s":
            tail = result["run_s_tail"]
            note += f"  (n={result['run_s_samples']}, " + (
                f"p{tail['p']}={tail['value']:.4f} s)" if tail else "no percentile has 10 samples beyond it)"
            )
        if name == "setup_s":
            note += f"  (median of {len(result['setup_samples'])} fresh interpreters)"
        lines.append(f"  {name} = {value:.6g} {unit}{note}")
    if not result["trace"]:
        lines.append(f"  failed_frac = {result['failed'] / result['attempted']:.6g} 1")
    lines += [f"  problem: {p}" for p in result["problems"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qspec benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, workloads.SMOKE.name, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qspec" / "cli.py").is_file():
        print(f"no qspec sources under {ROOT / 'src'}; run from a qspec checkout", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + PASS_TIMEOUT_S
            results.append(measure(name, args.seed, args.seconds, bool(args.trace), deadline))
            print("\n".join(describe(results[-1])), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    def summary(result: dict) -> dict:
        return {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        }

    if len(results) == 1:
        print(json.dumps(summary(results[0])))
    else:
        print(json.dumps({r["workload"]: summary(r) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
