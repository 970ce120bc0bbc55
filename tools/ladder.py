"""Run the output ladder: a fixed set of ``qspec`` invocations, hashed for comparison.

Usage::

    python tools/ladder.py OUTDIR [--src SRC]
    python tools/ladder.py OUTDIR --compare BEFORE

Every invocation runs ``qspec.cli.main`` in this process, with one BLAS
thread, and writes its artifacts under ``OUTDIR/<name>/``.  ``OUTDIR/manifest.json``
then holds, per invocation, the config, the exit code, the stderr line (with
the literal ``OUTDIR`` in place of that path), the sha256 of each CSV and of
``spectrum.json``, ``report.json`` with its timings, peak RSS, versions and
output path removed, and for ``plan``, which writes no file, its stdout line.
``SRC`` (default: the ``src`` directory of this checkout) is where ``qspec``
is imported from, so two trees are compared by running the ladder once
against each and diffing the manifests::

    python tools/ladder.py /tmp/before --src /path/to/other/checkout/src
    python tools/ladder.py /tmp/after
    diff /tmp/before/manifest.json /tmp/after/manifest.json

``--compare BEFORE`` runs nothing and compares the ladder tree ``OUTDIR``
with the tree ``BEFORE``, invocation by invocation::

    python tools/ladder.py /tmp/after --compare /tmp/before

For each CSV whose hash moved it prints, per column that moved, the count
of moved rows and the largest absolute difference, and it prints every moved
number under ``report.json``'s ``distances``.  Any other change fails the
comparison (exit status 1): a missing or added invocation, exit code,
stderr or stdout line, config, other artifact, CSV header or row count,
or any other field of ``report.json`` or ``spectrum.json`` (the
``artifacts`` hashes in either may move only with their CSV).

The oracle sums its spectra on a thread pool with one worker per usable
CPU, each worker taking the next block of points.  Running the ladder once
on a single CPU and once on all of them checks that this worker count moves
no output; the two manifests must be identical::

    taskset -c 0 python tools/ladder.py /tmp/one_cpu
    python tools/ladder.py /tmp/all_cpus
    diff /tmp/one_cpu/manifest.json /tmp/all_cpus/manifest.json

The ladder (235 invocations):

* the benchmark's runs at workload seed 1, every workload's and the N=2
  smoke workload's, as ``perfbench/workloads.py`` builds them (read from its
  file, never edited);
* the ``prep_circuit`` config with ``max_attempts`` 5000 at config seed 0
  (accepts at attempt 1427, past the default budget of 1000), 1500 at config
  seed 2 (exhausts: it accepts at 3290) and ``2**63`` (a config error);
* the ``oracle_grid`` config under ``run``;
* the cap diagonal (2N + l + 1 = 22 qubits): N 1-10 at l = 21 - 2N and
  delta=0.05, exact prep, no shots, under ``run``, each N with the model,
  ensemble and observable of the diagonal test in ``tests/test_qpe.py``;
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
* ``qspec prepstudy --num-sites 6 --seed 3``, ``prepstudy`` with the
  out-of-range seeds ``-1`` and ``2**64``, with ``10**12`` angles (past
  the grid cap), and with three angles up to ``1e-13`` (P1 near ``1e-27``);
* ``I + 1e-6 X`` planned at gamma=1e-11 (l=19, phases past the ``2**18``-turn
  winding bound) under ``run``;
* ``1e6 I + Z`` with observable ``X`` at linewidth 0.01, explicit (l=3) and
  planned, under ``oracle`` (which has no register and runs) and ``run``
  (phases wind to ``2**27.6`` turns);
* tilted Ising N=11 planned at gamma=0.35 under ``run`` (past the qubit cap
  at any register, so rejected before any operator is built);
* a Gibbs ensemble with ``beta`` -1 under ``run`` (a config error on
  ``ensemble.beta``);
* ``2**63`` shots under ``run``, and ``run``, ``oracle`` and ``prepstudy``
  with an ``--out`` that names an existing file (``OUTDIR/<name>/taken``);
* ``qspec plan --omega-max 10 --gamma 0.1``, and ``plan`` with an infinite
  ``--omega-max``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: outputs from N=7 up depend on the thread count

ENSEMBLES = {
    "infinite": {"kind": "infinite_temperature"},
    "gibbs": {"kind": "gibbs", "beta": 1.0},
    "ground": {"kind": "ground_state"},
}
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
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


def _benchmark_runs() -> dict:
    """The benchmark's runs at workload seed 1, read from ``perfbench/workloads.py`` by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    return {run.key: run for w in (*workloads.WORKLOADS.values(), workloads.SMOKE) for run in w.batch(1)}


def invocations():
    """Yield ``(name, command, config)``; prepstudy and plan carry their arguments instead of a config."""
    runs = _benchmark_runs()
    for run in runs.values():
        yield run.key, run.command, run.config
    for s, budget in ((0, 5000), (2, 1500), (0, 1 << 63)):
        config = runs[f"prep_circuit/{s}"].config
        yield f"prep_budget/{s}/{budget}", "run", {**config, "prep": {**config["prep"], "max_attempts": budget}}
    (grid,) = (run for run in runs.values() if run.key.startswith("oracle_grid/"))
    yield f"oracle_grid/run/{grid.config['seed']}", "run", grid.config
    ising = lambda n: {"preset": "tilted_ising", "N": n}  # noqa: E731
    for n in range(1, 11):
        ens = ("infinite", "gibbs", "ground")[n % 3]
        # total_sz commutes with the Heisenberg model, which the ground state uses.
        model, obs = ({"preset": "heisenberg", "N": n}, "site_sz") if ens == "ground" else (ising(n), "total_sz")
        yield f"diagonal/N{n}/run", "run", _config(model, obs, ENSEMBLES[ens], "exact",
                                                   {"l": 21 - 2 * n, "delta": 0.05})

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
    yield "prepstudy/grid_cap", "prepstudy", ["--num-sites", "1", "--phi-points", str(10**12)]
    yield "prepstudy/tiny_angles", "prepstudy", ["--num-sites", "4", "--phi-max", "1e-13", "--phi-points", "3"]
    two_level = _config(_pauli_sum(1, [(1.0, "Z")]), _pauli_sum(1, [(1.0, "X")]), ENSEMBLES["infinite"],
                        "exact", {"l": 3, "delta": 0.3})
    yield "shots/2**63/run", "run", {**two_level, "shots": 1 << 63}
    yield "negative_beta/run", "run", {**two_level, "ensemble": {"kind": "gibbs", "beta": -1}}
    winding = _config(_pauli_sum(1, [(1.0, "I"), (1e-6, "X")]), "total_sz", ENSEMBLES["infinite"], "exact",
                      {"gamma": 1e-11, "auto_plan": True})
    yield "winding/planned/run", "run", winding
    # Linewidth 0.01 in both forms (2 pi / (delta * 2**3) for the explicit one).
    offset = _config(_pauli_sum(1, [(1e6, "I"), (1.0, "Z")]), _pauli_sum(1, [(1.0, "X")]), ENSEMBLES["infinite"],
                     "exact", None)
    forms = {"explicit": {"l": 3, "delta": 78.53981633974483}, "planned": {"gamma": 0.01, "auto_plan": True}}
    for form, qpe in forms.items():
        for command in ("oracle", "run"):
            yield f"offset/{form}/{command}", command, {**offset, "qpe": qpe}
    yield "cap/N11/planned/run", "run", _config({"preset": "tilted_ising", "N": 11}, "total_sz",
                                                ENSEMBLES["infinite"], "exact", {"gamma": 0.35, "auto_plan": True})
    for command in ("run", "oracle"):
        yield f"{OUT_IS_FILE}/{command}", command, two_level
    yield f"{OUT_IS_FILE}/prepstudy", "prepstudy", ["--num-sites", "2", "--phi-points", "2"]
    for omega_max in ("10", "inf"):
        yield f"plan/omega_max{omega_max}", "plan", ["--omega-max", omega_max, "--gamma", "0.1"]


def _normalized_report(path: Path) -> dict:
    report = json.loads(path.read_text())
    report["config"].pop("output_dir", None)
    for key in ("timings", "peak_rss_mb", "package_version", "numpy_version", "python_version"):
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
        elif command == "plan":
            argv = ["plan", *config]
        else:
            path = out / "config.json"
            path.write_text(json.dumps(config, indent=2) + "\n")
            argv = [command, "--config", str(path), "--out", str(target)]
        out_text, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out_text), contextlib.redirect_stderr(err):
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
        if command == "plan":  # the other commands print only the artifact path
            entry["stdout"] = out_text.getvalue().strip()
        manifest[name] = entry
        print(f"{name}: exit {code}", file=sys.stderr)
    return manifest


def _column_moves(before: Path, after: Path) -> list[str]:
    """``column: moved rows, max |diff|`` for each moved column of one CSV; raises ValueError on a reshaped one."""
    (head_a, *rows_a), (head_b, *rows_b) = (list(csv.reader(path.open())) for path in (before, after))
    if head_a != head_b or len(rows_a) != len(rows_b):
        raise ValueError(f"header or row count changed ({len(rows_a)} -> {len(rows_b)} rows)")
    moves = []
    for name, col_a, col_b in zip(head_a, zip(*rows_a), zip(*rows_b)):
        pairs = [(a, b) for a, b in zip(col_a, col_b) if a != b]
        if pairs:
            diff = max(abs(float(a) - float(b)) for a, b in pairs)
            moves.append(f"{name}: {len(pairs)} of {len(col_a)} rows moved, max |diff| {diff:.3g}")
    return moves


def _report_changes(before, after, path: str = "") -> list[tuple[str, object, object]]:
    """``(path, before, after)`` for every leaf of two ``report.json`` documents that differs."""
    if isinstance(before, dict) and isinstance(after, dict):
        return [change for key in sorted(set(before) | set(after), key=str)
                for change in _report_changes(before.get(key), after.get(key), f"{path}.{key}".lstrip("."))]
    return [] if before == after else [(path, before, after)]


def _field_changes(before, after, shas) -> list[tuple[str, object, object]]:
    """The changed leaves of two JSON documents, less ``artifacts`` digests that moved with their artifact."""
    def moved_with_artifact(path: str) -> bool:
        artifact = path.removeprefix("artifacts.")
        return artifact != path and shas[0].get(artifact) != shas[1].get(artifact)

    return [change for change in _report_changes(before, after) if not moved_with_artifact(change[0])]


def compare(before: Path, after: Path) -> int:
    """Print what moved between two ladder trees; 1 when anything beyond CSV columns and distances did."""
    manifests = [json.loads((tree / "manifest.json").read_text()) for tree in (before, after)]
    failures, moved = [], 0
    for name in sorted(set(manifests[0]) | set(manifests[1])):
        old, new = (manifest.get(name) for manifest in manifests)
        if old is None or new is None:
            failures.append(f"{name}: only in {before if new is None else after}")
            continue
        lines = [f"{key} changed" for key in ("command", "config", "exit", "stderr", "stdout")
                 if old.get(key) != new.get(key)]
        notes = []
        shas = old["sha256"], new["sha256"]
        for artifact in sorted(set(shas[0]) | set(shas[1])):
            if shas[0].get(artifact) == shas[1].get(artifact):
                continue
            if artifact not in shas[0] or artifact not in shas[1]:
                lines.append(f"{artifact} changed")
                continue
            if artifact == "spectrum.json":
                docs = [json.loads((tree / name / artifact).read_text()) for tree in (before, after)]
                if docs[0] == docs[1]:  # the bytes moved, not a field
                    lines.append(f"{artifact} changed")
                lines += [f"{artifact} {path} changed" for path, _, _ in _field_changes(*docs, shas)]
                continue
            if not artifact.endswith(".csv"):
                lines.append(f"{artifact} changed")
                continue
            try:
                moves = _column_moves(before / name / artifact, after / name / artifact)
                notes += [f"{artifact} {move}" for move in moves]
            except ValueError as exc:
                lines.append(f"{artifact}: {exc}")
        for path, a, b in _field_changes(old.get("report"), new.get("report"), shas):
            if path.startswith("distances.") and all(isinstance(v, (int, float)) for v in (a, b)):
                notes.append(f"report {path}: {a:.6e} -> {b:.6e}, |diff| {abs(a - b):.3g}")
            else:
                lines.append(f"report {path} changed")
        moved += bool(notes or lines)
        for note in notes:
            print(f"{name} {note}")
        failures += [f"{name}: {line}" for line in lines]
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{moved} of {len(manifests[1])} invocations moved; {len(failures)} failures")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", help="directory for the artifacts and manifest.json")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory qspec is imported from (default: this checkout's src)")
    parser.add_argument("--compare", metavar="BEFORE",
                        help="run nothing; compare the ladder tree OUTDIR with the ladder tree BEFORE")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(Path(args.compare), Path(args.outdir))
    sys.path.insert(0, str(Path(args.src).resolve()))
    outdir = Path(args.outdir)
    if outdir.exists() and any(outdir.iterdir()):
        parser.error(f"{outdir} is not empty; the manifest must hash this run's artifacts only")
    manifest = run_ladder(outdir)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
