"""Property: every config the validator can see either runs or fails with a documented exit.

Random small Pauli-sum configs (N <= 3, 1-4 terms, coefficients log-uniform
over the whole double range and at its edges, all three ensembles, exact and
circuit preparation, explicit or planned registers) go through ``qspec run``
and ``qspec oracle``.  Each invocation must exit with a documented code; a
failure prints exactly one line to stderr and never a traceback; and a
successful exact-prep run writes circuit and oracle distributions that agree
to 1e-10 in total variation.  Observables may carry an identity term.  No
warning is allowed: a run records a traced observable in its report instead,
and a numpy floating-point warning means a number left the double range
unchecked.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qspec.cli import main

EXIT_CODES = {0, 1, 2, 3, 4}
TV_TOL = 1e-10


def log_uniform(low_exp: float, high_exp: float, edges: list[float]):
    """Magnitudes 10**U(low_exp, high_exp), plus the given edge values."""
    spread = st.floats(low_exp, high_exp).map(lambda e: 10.0**e)
    return st.one_of(spread, st.sampled_from(edges))


# From the smallest subnormal up to the largest double, with the values where
# squares, sums over 2**N entries and products with 2**l leave the double range.
MAGNITUDES = log_uniform(
    -323.0, 308.25, [0.0, 5e-324, 2.2250738585072014e-308, 1e-154, 1e154, 1e300, 4.4e307, 1.7976931348623157e308]
)
# Linewidths around the validator's 2**-511 .. 2**511 window and its edges.
GAMMAS = log_uniform(-160.0, 160.0, [2.0**-511, 2.0**-510.9, 2.0**510.9, 2.0**511, 1e-3, 10.0])
DELTAS = log_uniform(-320.0, 308.0, [5e-324, 0.05, 0.3, 1.0, 1e20, 1e300])


@st.composite
def pauli_sums(draw, num_sites: int, identity: bool = False) -> dict:
    """Pauli sums of 1-4 terms; with ``identity``, maybe one more term on the identity string."""
    count = draw(st.integers(1, 4))
    terms = []
    for _ in range(count):
        sign = draw(st.sampled_from([1.0, -1.0]))
        factors = draw(st.text(alphabet="IXYZ", min_size=num_sites, max_size=num_sites))
        terms.append({"coefficient": sign * draw(MAGNITUDES), "factors": factors})
    if identity and draw(st.booleans()):
        sign = draw(st.sampled_from([1.0, -1.0]))
        terms.append({"coefficient": sign * draw(MAGNITUDES), "factors": "I" * num_sites})
    return {"N": num_sites, "terms": terms}


@st.composite
def configs(draw) -> dict:
    num_sites = draw(st.integers(1, 3))
    observable = draw(st.one_of(
        st.sampled_from(["total_sz", "site_sz", "staggered_sz"]),
        pauli_sums(num_sites, identity=True),
    ))
    ensemble = draw(st.sampled_from(["infinite_temperature", "ground_state", "gibbs"]))
    ensemble = {"kind": ensemble}
    if ensemble["kind"] == "gibbs":
        ensemble["beta"] = draw(st.floats(0.0, 50.0))
    prep = {"mode": draw(st.sampled_from(["exact", "circuit"]))}
    if prep["mode"] == "circuit":
        prep["max_attempts"] = draw(st.integers(1, 50))
    if draw(st.booleans()):
        qpe = {"l": draw(st.integers(1, 20)), "delta": draw(DELTAS)}
    else:
        qpe = {"gamma": draw(GAMMAS), "auto_plan": True}
    return {
        "model": draw(pauli_sums(num_sites)),
        "observable": observable,
        "ensemble": ensemble,
        "prep": prep,
        "qpe": qpe,
        "shots": draw(st.sampled_from([0, 1, 100])),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }


def invoke(argv: list[str]) -> tuple[int, str, list[str]]:
    """Exit code, stderr and warnings of one in-process ``qspec`` invocation."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, stderr.getvalue(), [str(w.message) for w in caught]


def total_variation(distribution_csv: Path) -> float:
    rows = distribution_csv.read_text().strip().splitlines()
    header = rows[0].split(",")
    table = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    p_exact = table[:, header.index("p_exact")]
    p_oracle = table[:, header.index("p_oracle")]
    return 0.5 * float(np.abs(p_exact - p_oracle).sum())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=configs())
# A planned register past the phase-winding bound: the identity term winds the
# l=19 register to 2**37.5 turns, and its run used to give TV 1.15e-9.
@example(config={
    "model": {"N": 1, "terms": [{"coefficient": 1.0, "factors": "I"}, {"coefficient": 1e-06, "factors": "X"}]},
    "observable": "total_sz", "prep": {"mode": "exact"}, "qpe": {"gamma": 1e-11, "auto_plan": True},
})
def test_cli_run_and_oracle_exit_cleanly(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        for command in ("run", "oracle"):
            out = Path(tmp) / command
            code, err, caught = invoke([command, "--config", str(path), "--out", str(out)])
            assert code in EXIT_CODES
            assert caught == []
            if code:
                assert err.count("\n") == 1 and "Traceback" not in err, err
                continue
            assert err == ""
            if command == "run" and config["prep"]["mode"] == "exact":
                tv = total_variation(out / "distribution.csv")
                assert math.isfinite(tv) and tv <= TV_TOL, tv
