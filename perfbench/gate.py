"""Correctness gate applied to the artifacts of every benchmarked run.

Each check reads only the files the CLI wrote, so it tests what a user
would receive:

* ``exact``: exact preparation makes the circuit distribution equal to the
  oracle's, so TV(p_exact, p_oracle) recomputed from ``distribution.csv``
  must be at most 1e-10.
* ``circuit``: the postselected state is not the target, so the circuit's
  outcome distribution may differ from the oracle's by up to the trace
  distance of the two pure states, sqrt(1 - fidelity_with_target).
* ``oracle``: every ``sigma`` in ``spectrum.csv`` is finite and
  non-negative, with one row per grid point.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

EXACT_TV = 1e-10


def _columns(path: Path) -> dict[str, list[float]]:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: [float(row[i]) for row in body] for i, name in enumerate(header)}


def _total_variation(p: list[float], q: list[float]) -> float:
    return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


def check(out_dir: Path, kind: str, config: dict, grid_points: int) -> str | None:
    """Return None when the artifacts pass, else a one-line reason."""
    try:
        if kind == "oracle":
            sigma = _columns(out_dir / "spectrum.csv")["sigma"]
            if len(sigma) != grid_points:
                return f"spectrum.csv has {len(sigma)} rows, grid has {grid_points}"
            bad = [s for s in sigma if not (math.isfinite(s) and s >= 0.0)]
            return f"{len(bad)} sigma values are negative or not finite" if bad else None

        dist = _columns(out_dir / "distribution.csv")
        bins = 1 << config["qpe"]["l"]
        if len(dist["p_exact"]) != bins:
            return f"distribution.csv has {len(dist['p_exact'])} rows, register has {bins}"
        tv = _total_variation(dist["p_exact"], dist["p_oracle"])
        if kind == "exact":
            limit = EXACT_TV
        else:
            report = json.loads((out_dir / "report.json").read_text())
            fidelity = report["prep"]["fidelity_with_target"]
            limit = math.sqrt(max(0.0, 1.0 - fidelity)) + EXACT_TV
        if not tv <= limit:
            return f"TV(p_exact, p_oracle) = {tv:.3e} exceeds {limit:.3e}"
        if not (out_dir / "spectrum.csv").is_file():
            return "spectrum.csv missing"
        return None
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return f"unreadable artifacts: {type(exc).__name__}: {exc}"
