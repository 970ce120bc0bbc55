"""Run the output ladder: a fixed set of ``qspec`` invocations, hashed for comparison.

Usage::

    python tools/ladder.py OUTDIR [--src SRC]

Every invocation runs ``qspec.cli.main`` in this process, with one BLAS
thread, and writes its artifacts under ``OUTDIR/<name>/``.  ``OUTDIR/manifest.json``
then holds, per invocation, the config, the exit code, the stderr line (with
the literal ``OUTDIR`` in place of that path), the sha256 of each CSV and of
``spectrum.json``, and ``report.json`` with its timings, versions and output
path removed.  ``SRC`` (default: the ``src`` directory of this checkout)
is where ``qspec`` is imported from, so two trees are compared by running
the ladder once against each and diffing the manifests::

    python tools/ladder.py /tmp/before --src /path/to/other/checkout/src
    python tools/ladder.py /tmp/after
    diff /tmp/before/manifest.json /tmp/after/manifest.json

The oracle sums its spectra on a thread pool with one worker per usable
CPU, each worker taking the next block of points.  Running the ladder once
on a single CPU and once on all of them checks that this worker count moves
no output; the two manifests must be identical::

    taskset -c 0 python tools/ladder.py /tmp/one_cpu
    python tools/ladder.py /tmp/all_cpus
    diff /tmp/one_cpu/manifest.json /tmp/all_cpus/manifest.json

The ladder (214 invocations):

* the benchmark workload configs at workload seed 1, plus the ``oracle_grid``
  config under ``run``, and the benchmark's N=2 smoke configs;
* the ``prep_circuit`` config with ``max_attempts`` 5000 at config seed 0
  (accepts at attempt 1763, in the second block of draws), 1500 at config
  seed 2 (exhausts mid-block) and ``2**63`` (a config error);
* tilted Ising (l=4, delta=0.3) and Heisenberg (planned at gamma=0.35),
  N 2-4 x infinite temperature / Gibbs beta=1 / ground state x exact /
  circuit prep x ``total_sz`` / ``staggered_sz`` x ``run`` / ``oracle``;
* ``XI + 0.7 ZZ`` with a ``1e-13 ZI`` and a ``1e-11 ZI`` observable under
  exact ``run``, circuit ``run`` and ``oracle``;
* complex Hamiltonians (Pauli sums with one Y factor per string, N 2-3)
  with ``total_sz`` and with a complex observable, in all three ensembles,
  under exact ``run``, circuit ``run`` and ``oracle``;
* a zero-span model under ``oracle`` with a linewidth below the grid step;
* ``-0.5 Z`` with ``1e-150 |1><1|`` at Gibbs beta=46 (a subnormal ``<O^2>``)
  under exact ``run``, circuit ``run`` and ``oracle``;
* a string and a bool observable coefficient under ``run``;
* ``qspec prepstudy --num-sites 6 --seed 3``, and ``prepstudy`` with the
  out-of-range seeds ``-1`` and ``2**64``;
* ``2**63`` shots under ``run``, and ``run``, ``oracle`` and ``prepstudy``
  with an ``--out`` that names an existing file (``OUTDIR/<name>/taken``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: outputs from N=7 up depend on the thread count

ENSEMBLES = {
    "infinite": {"kind": "infinite_temperature"},
    "gibbs": {"kind": "gibbs", "beta": 1.0},
    "ground": {"kind": "ground_state"},
}
ARTIFACTS = ("distribution.csv", "spectrum.csv", "spectrum.json", "prepstudy.csv")
#: Invocations under this name get ``--out OUTDIR/<name>/taken``, a file written beforehand.
OUT_IS_FILE = "out_is_file"

COMPLEX_MODELS = {
    2: [(0.8, "XY"), (0.5, "ZI"), (0.3, "IX"), (0.6, "YZ")],
    3: [(0.7, "XYI"), (0.4, "IZY"), (1.0, "ZZI"), (0.5, "XII"), (0.3, "IIZ")],
}
COMPLEX_OBSERVABLES = {
    2: [(1.0, "ZI"), (0.5, "XY")],
    3: [(1.0, "ZII"), (0.5, "IXY")],
}


def _pauli_sum(num_sites: int, terms) -> dict:
    return {"N": num_sites, "terms": [{"coefficient": c, "factors": f} for c, f in terms]}


def _config(model, observable, ensemble, prep, qpe, shots=0, seed=7) -> dict:
    return {"model": model, "observable": observable, "ensemble": ensemble,
            "prep": {"mode": prep}, "qpe": qpe, "shots": shots, "seed": seed}


def _workload_seeds(count: int) -> list[int]:
    # The benchmark's config seeds for workload seed 1.
    rng = random.Random(1)
    return [rng.getrandbits(63) for _ in range(count)]


def invocations():
    """Yield ``(name, command, config)``; prepstudy carries its arguments instead of a config."""
    ising = lambda n: {"preset": "tilted_ising", "N": n}  # noqa: E731
    bench = lambda l: {"l": l, "delta": 0.05}  # noqa: E731
    for s in _workload_seeds(2):
        yield f"qpe_wide/{s}", "run", _config(ising(6), "total_sz", ENSEMBLES["infinite"], "exact",
                                              bench(9), 20000, s)
    for s in range(4):
        yield f"prep_circuit/{s}", "run", _config(ising(6), "total_sz", ENSEMBLES["gibbs"], "circuit",
                                                  bench(5), 0, s)
    for s, budget in ((0, 5000), (2, 1500), (0, 1 << 63)):
        config = _config(ising(6), "total_sz", ENSEMBLES["gibbs"], "circuit", bench(5), 0, s)
        config["prep"]["max_attempts"] = budget
        yield f"prep_budget/{s}/{budget}", "run", config
    (s,) = _workload_seeds(1)
    yield f"eigh_dense/{s}", "run", _config(ising(10), "total_sz", ENSEMBLES["gibbs"], "exact",
                                            bench(1), 0, s)
    for command in ("oracle", "run"):
        yield f"oracle_grid/{command}/{s}", command, _config(ising(9), "total_sz", ENSEMBLES["gibbs"],
                                                             "exact", bench(1), 0, s)
    yield f"smoke/run/{s}", "run", _config(ising(2), "total_sz", ENSEMBLES["infinite"], "exact",
                                           bench(3), 100, s)
    yield f"smoke/circuit/{s}", "run", _config(ising(2), "total_sz", ENSEMBLES["gibbs"], "circuit",
                                               bench(3), 0, s)
    yield f"smoke/oracle/{s}", "oracle", _config(ising(2), "total_sz", ENSEMBLES["gibbs"], "exact",
                                                 bench(3), 0, s)

    presets = {"ising": ("tilted_ising", {"l": 4, "delta": 0.3}),
               "heisenberg": ("heisenberg", {"gamma": 0.35, "auto_plan": True})}
    for label, (preset, qpe) in presets.items():
        for n in (2, 3, 4):
            for ens, ensemble in ENSEMBLES.items():
                for prep in ("exact", "circuit"):
                    for obs in ("total_sz", "staggered_sz"):
                        config = _config({"preset": preset, "N": n}, obs, ensemble, prep, qpe, 200)
                        for command in ("run", "oracle"):
                            yield f"{label}/N{n}/{ens}/{prep}/{obs}/{command}", command, config

    model = _pauli_sum(2, [(1.0, "XI"), (0.7, "ZZ")])
    for scale in (1e-13, 1e-11):
        observable = _pauli_sum(2, [(scale, "ZI")])
        for prep, command in (("exact", "run"), ("circuit", "run"), ("exact", "oracle")):
            config = _config(model, observable, ENSEMBLES["infinite"], prep, {"l": 3, "delta": 0.3})
            yield f"small/{scale:g}/{prep}/{command}", command, config

    for n, terms in COMPLEX_MODELS.items():
        observables = {"total_sz": "total_sz", "complex_obs": _pauli_sum(n, COMPLEX_OBSERVABLES[n])}
        for obs, observable in observables.items():
            for ens, ensemble in ENSEMBLES.items():
                for prep, command in (("exact", "run"), ("circuit", "run"), ("exact", "oracle")):
                    config = _config(_pauli_sum(n, terms), observable, ensemble, prep,
                                     {"l": 4, "delta": 0.3}, 200)
                    yield f"complex/N{n}/{obs}/{ens}/{prep}/{command}", command, config

    yield "zero_span/oracle", "oracle", _config(_pauli_sum(1, [(1.0, "I")]), "total_sz",
                                                ENSEMBLES["infinite"], "exact", {"l": 3, "delta": 1e4})
    model = _pauli_sum(1, [(-0.5, "Z")])
    observable = _pauli_sum(1, [(5e-151, "I"), (-5e-151, "Z")])
    for prep, command in (("exact", "run"), ("circuit", "run"), ("exact", "oracle")):
        config = _config(model, observable, {"kind": "gibbs", "beta": 46.0}, prep, {"l": 3, "delta": 0.3})
        yield f"subnormal_m2/{prep}/{command}", command, config
    for label, coefficient in (("string", "2"), ("bool", True)):
        config = _config(_pauli_sum(2, [(1.0, "XI"), (0.7, "ZZ")]), _pauli_sum(2, [(coefficient, "ZI")]),
                         ENSEMBLES["infinite"], "exact", {"l": 3, "delta": 0.3})
        yield f"coefficient/{label}/run", "run", config
    yield "prepstudy/N6/seed3", "prepstudy", ["--num-sites", "6", "--seed", "3"]
    for seed in (-1, 1 << 64):
        yield f"prepstudy/seed{seed}", "prepstudy", ["--seed", str(seed)]
    two_level = _config(_pauli_sum(1, [(1.0, "Z")]), _pauli_sum(1, [(1.0, "X")]), ENSEMBLES["infinite"],
                        "exact", {"l": 3, "delta": 0.3})
    yield "shots/2**63/run", "run", {**two_level, "shots": 1 << 63}
    for command in ("run", "oracle"):
        yield f"{OUT_IS_FILE}/{command}", command, two_level
    yield f"{OUT_IS_FILE}/prepstudy", "prepstudy", ["--num-sites", "2", "--phi-points", "2"]


def _normalized_report(path: Path) -> dict:
    report = json.loads(path.read_text())
    report["config"].pop("output_dir", None)
    for key in ("timings", "package_version", "numpy_version", "python_version"):
        report["metadata"].pop(key, None)
    return report


def run_ladder(outdir: Path) -> dict:
    from qspec.cli import main

    manifest = {}
    for name, command, config in invocations():
        out = outdir / name
        out.mkdir(parents=True, exist_ok=True)
        target = out
        if name.startswith(f"{OUT_IS_FILE}/"):
            target = out / "taken"
            target.write_text("")
        if command == "prepstudy":
            argv = ["prepstudy", "--out", str(target), *config]
        else:
            path = out / "config.json"
            path.write_text(json.dumps(config, indent=2) + "\n")
            argv = [command, "--config", str(path), "--out", str(target)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # recorded, so one failure does not end the ladder
                code = "uncaught"
                print(f"{type(exc).__name__}: {exc}", file=err)
        stderr = err.getvalue().strip().replace(str(outdir), "OUTDIR")  # the same line from any OUTDIR
        entry = {"command": command, "config": config, "exit": code, "stderr": stderr,
                 "sha256": {artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
                            for artifact in ARTIFACTS if (out / artifact).exists()}}
        if (out / "report.json").exists():
            entry["report"] = _normalized_report(out / "report.json")
        manifest[name] = entry
        print(f"{name}: exit {code}", file=sys.stderr)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", help="directory for the artifacts and manifest.json")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory qspec is imported from (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    outdir = Path(args.outdir)
    if outdir.exists() and any(outdir.iterdir()):
        parser.error(f"{outdir} is not empty; the manifest must hash this run's artifacts only")
    manifest = run_ladder(outdir)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
