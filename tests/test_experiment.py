"""Config validation, the experiment pipeline and the command-line surface."""

import ast
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import qspec
from helpers import INFINITE_TEMPERATURE, at_infinite_temperature
from qspec import cli, experiment, oracle, purify, qpe, simcore, stateprep
from qspec.cli import main
from qspec.errors import ConfigError, PrepExhaustedError, ResourceCapError
from qspec.experiment import run_experiment, validate_config, write_csv
from qspec.models import build_operator, heisenberg, observable_spec, tilted_ising
from qspec.simcore import HermitianOperator
from qspec.stateprep import acceptance_probability, choose_phi, moments, preparation_fidelity, spectral_weights

TWO_LEVEL = {
    "model": {"N": 1, "terms": [{"coefficient": 1.0, "factors": "Z"}]},
    "observable": {"N": 1, "terms": [{"coefficient": 1.0, "factors": "X"}]},
    "qpe": {"l": 3, "delta": np.pi / 4},
}


def make_config(tmp_path, **overrides):
    document = dict(TWO_LEVEL)
    document["output_dir"] = str(tmp_path / "out")
    document.update(overrides)
    return validate_config(json.dumps(document))


def csv_columns(path):
    """A CSV artifact's columns by name, each parsed as float64."""
    header, *rows = csv.reader(path.open())
    return {name: np.array([float(v) for v in column]) for name, column in zip(header, zip(*rows))}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- config validation ------------------------------------------------------------


def test_minimal_document_gets_defaults(tmp_path):
    config = make_config(tmp_path)
    assert config.ensemble.kind == "infinite_temperature"
    assert config.prep.mode == "exact"
    assert config.prep.epsilon == 0.01
    assert config.prep.max_attempts == 1000
    assert config.shots == 0
    assert config.seed == 0


def test_conflicting_qpe_settings_rejected():
    document = dict(TWO_LEVEL)
    document["qpe"] = {"l": 3, "delta": 0.5, "gamma": 0.1, "auto_plan": True}
    with pytest.raises(ConfigError, match="conflicts"):
        validate_config(json.dumps(document))


def test_negative_shots_rejected():
    document = dict(TWO_LEVEL)
    document["shots"] = -1
    with pytest.raises(ConfigError, match="shots"):
        validate_config(json.dumps(document))


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_cli_shots_past_63_bits_exit_with_one_line(tmp_path, capsys, command):
    # 2**63 shots passed validation and ended in an OverflowError from numpy's multinomial.
    path = write_config(tmp_path, dict(TWO_LEVEL, shots=1 << 63, output_dir=str(tmp_path / "never")))
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == "config error: shots: must fit in 63 bits\n"
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_cli_max_attempts_past_63_bits_exit_with_one_line(tmp_path, capsys, command):
    # Like the shot count, the attempt budget is a count that must fit a signed 64-bit integer.
    prep = {"mode": "circuit", "max_attempts": 1 << 63}
    document = dict(TWO_LEVEL, prep=prep, output_dir=str(tmp_path / "never"))
    assert main([command, "--config", str(write_config(tmp_path, document))]) == 1
    assert capsys.readouterr().err == "config error: prep.max_attempts: must fit in 63 bits\n"
    assert not (tmp_path / "never").exists()


def test_largest_63_bit_attempt_budget_validates(tmp_path):
    config = make_config(tmp_path, prep={"mode": "circuit", "max_attempts": (1 << 63) - 1})
    assert config.prep.max_attempts == (1 << 63) - 1


def test_largest_63_bit_shot_count_runs(tmp_path):
    report = run_experiment(make_config(tmp_path, shots=(1 << 63) - 1))
    assert report.empirical_distribution.shots == (1 << 63) - 1
    assert abs(report.empirical_distribution.probabilities.sum() - 1.0) <= 1e-12


def test_unknown_fields_rejected_with_path():
    document = dict(TWO_LEVEL)
    document["qpe"] = {"l": 3, "delta": 0.5, "lambda": 1}
    with pytest.raises(ConfigError, match=r"qpe\.lambda"):
        validate_config(json.dumps(document))
    with pytest.raises(ConfigError, match="frobnicate"):
        validate_config(json.dumps({**TWO_LEVEL, "frobnicate": 1}))


def test_invalid_json_rejected():
    with pytest.raises(ConfigError, match="invalid JSON"):
        validate_config("{not json")


def test_unknown_term_field_rejected_with_index():
    document = dict(TWO_LEVEL)
    document["model"] = {
        "N": 1,
        "terms": [{"coefficient": 1.0, "factors": "Z", "phase": 0.1}],
    }
    with pytest.raises(ConfigError, match=r"model\.terms\[0\]\.phase"):
        validate_config(json.dumps(document))


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("coefficient", ["2", True])
def test_cli_non_numeric_coefficient_exits_with_one_line(tmp_path, capsys, command, coefficient):
    # float() used to coerce both, and the run exited 0.
    observable = {"N": 1, "terms": [{"coefficient": coefficient, "factors": "X"}]}
    document = dict(TWO_LEVEL, observable=observable, output_dir=str(tmp_path / "never"))
    path = write_config(tmp_path, document)
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"config error: observable.terms[0].coefficient: expected a number, got {coefficient!r}\n"
    )
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"observable": {"N": 1, "terms": [{"coefficient": 1.0, "factors": 5}]}},
            "observable.terms[0].factors: expected a string, got 5",
        ),
        (
            {"observable": {"N": 1, "terms": [{"coefficient": 1.0, "factors": "X"}], "name": 5}},
            "observable.name: expected a string, got 5",
        ),
        # float() of a 401-digit JSON integer raised OverflowError, a traceback from the CLI.
        (
            {"observable": {"N": 1, "terms": [{"coefficient": "HUGE", "factors": "X"}]}},
            "observable.terms[0].coefficient: must be finite",
        ),
        ({"qpe": {"l": 3, "delta": "HUGE"}}, "qpe.delta: must be finite"),
        # Was reported under ensemble.kind, which the document got right.
        ({"ensemble": {"kind": "gibbs", "beta": -1}}, "ensemble.beta: gibbs ensemble needs a finite beta >= 0"),
    ],
    ids=["factors", "name", "huge_coefficient", "huge_delta", "negative_beta"],
)
def test_fields_are_parsed_not_coerced(overrides, message):
    text = json.dumps(dict(TWO_LEVEL, **overrides)).replace('"HUGE"', "1" + "0" * 400)
    with pytest.raises(ConfigError) as caught:
        validate_config(text)
    assert str(caught.value) == message


def test_observable_preset_and_model_preset_parse(tmp_path):
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 2},
        observable="total_sz",
        ensemble={"kind": "gibbs", "beta": 1.5},
    )
    assert config.model.num_sites == 2
    assert config.observable.name == "total_sz"
    assert config.ensemble.beta == 1.5


def test_preset_fields_the_document_omits_take_the_builder_defaults(tmp_path):
    config = make_config(tmp_path, model={"preset": "tilted_ising", "N": 3, "h": 0.2},
                         observable={"preset": "site_sz"})
    assert config.model == tilted_ising(3, h=0.2)
    assert config.observable == observable_spec("site_sz", 3)
    config = make_config(tmp_path, model={"preset": "heisenberg", "N": 3}, observable="total_sz")
    assert config.model == heisenberg(3)


def test_observable_site_out_of_range(tmp_path):
    with pytest.raises(ConfigError, match=r"observable\.site"):
        make_config(tmp_path, model={"preset": "tilted_ising", "N": 2},
                    observable={"preset": "site_sz", "site": 5})


@pytest.mark.parametrize("preset", ["total_sz", "staggered_sz"])
def test_observable_site_only_with_site_sz(tmp_path, capsys, preset):
    document = dict(TWO_LEVEL, model={"preset": "tilted_ising", "N": 2},
                    observable={"preset": preset, "site": 1}, output_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match=r"^observable\.site: only the site_sz preset"):
        validate_config(json.dumps(document))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: observable.site:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_ensemble_beta_only_for_gibbs(tmp_path):
    with pytest.raises(ConfigError, match="beta"):
        make_config(tmp_path, ensemble={"kind": "ground_state", "beta": 1.0})


# --- pipeline ----------------------------------------------------------------------


def test_two_level_run_end_to_end(tmp_path):
    config = make_config(tmp_path)
    report = run_experiment(config)
    p = report.exact_distribution.probabilities
    assert abs(p[2] - 0.5) <= 1e-12 and abs(p[6] - 0.5) <= 1e-12
    assert report.distances["exact_vs_oracle"]["total_variation"] <= 1e-10
    # Of the 4 transitions of H = Z, only the two that O = X connects carry weight.
    # Both sit on the one pair row of levels (0, 1): one kernel column.
    assert report.metadata["oracle"] == {"transitions": 4, "kept": 2, "gaps": 1}
    out = tmp_path / "out"
    assert (out / "report.json").exists()
    assert (out / "distribution.csv").exists()
    assert (out / "spectrum.csv").exists()


def test_report_records_the_package_version(tmp_path):
    run_experiment(make_config(tmp_path))
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["metadata"]["package_version"] == qspec.__version__


def test_package_root_defines_only_its_version():
    # Every name has one import path, through the module that defines it.
    docstring, *body = ast.parse(Path(qspec.__file__).read_text()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert all(isinstance(node, ast.Assign) for node in body)
    assert [target.id for node in body for target in node.targets] == ["__version__"]


#: The package's public top-level names that nothing else in the package reads:
#: its test-only surface.  A new one must be added here on purpose.
TEST_ONLY_NAMES = {
    # simcore: the gate-level reference for the doubled-register pipeline, kept in the
    # package while the benchmark's tracer wraps these names.
    "apply_controlled_unitary", "inverse_qft", "register_distribution",
}


def test_the_package_has_no_unlisted_test_only_names():
    defined, read = set(), set()
    for path in Path(qspec.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(target.id for target in targets if isinstance(target, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert {name for name in defined - read if not name.startswith("_")} == TEST_ONLY_NAMES


def test_sampled_run_is_reproducible(tmp_path):
    config = make_config(tmp_path, shots=100_000, seed=7)
    first = run_experiment(config)
    assert first.distances["empirical_vs_exact"]["total_variation"] <= 0.02
    csv_first = (tmp_path / "out" / "distribution.csv").read_bytes()
    spectrum_first = (tmp_path / "out" / "spectrum.csv").read_bytes()

    second = run_experiment(config)
    assert (tmp_path / "out" / "distribution.csv").read_bytes() == csv_first
    assert (tmp_path / "out" / "spectrum.csv").read_bytes() == spectrum_first

    def strip_timings(report):
        payload = report.to_dict()
        payload["metadata"].pop("timings")
        payload["metadata"].pop("peak_rss_mb")
        return payload

    assert strip_timings(first) == strip_timings(second)


def test_report_json_is_written_last_and_times_the_csv_write(tmp_path, monkeypatch):
    written = []
    for name in ("write_csv", "write_json"):
        writer = getattr(experiment, name)
        monkeypatch.setattr(
            experiment, name, lambda path, *a, w=writer: written.append(Path(path).name) or w(path, *a)
        )
    run_experiment(make_config(tmp_path, shots=100))
    assert written == ["distribution.csv", "spectrum.csv", "report.json"]
    metadata = json.loads((tmp_path / "out" / "report.json").read_text())["metadata"]
    timings = metadata["timings"]
    assert list(timings) == ["build_s", "prep_s", "qpe_s", "oracle_s", "write_s", "total_s"]
    assert timings["write_s"] > 0
    assert timings["total_s"] >= sum(value for key, value in timings.items() if key != "total_s")
    assert metadata["peak_rss_mb"] > 0


#: The determinism contract of ``qspec.experiment`` across BLAS thread counts:
#: the largest N at which each CSV column is byte-identical (None: every N).
THREAD_INVARIANT_UP_TO = {
    "distribution.csv": {"f": None, "omega": None, "p_exact": 6, "p_oracle": 7, "p_empirical": 6},
    "spectrum.csv": {"omega": None, "sigma": 7},
}


def test_promised_columns_are_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # N=6 is the last size at which p_exact and p_empirical are promised; p_oracle
    # and sigma are promised up to N=7, so every column is checked there, and
    # ``qspec oracle``'s 2001-point spectrum at N=7.  At N=3, l=12 the QPE's right
    # product runs by copy-a row from 2**j >= 2**N on.
    env = dict(os.environ, PYTHONPATH=str(Path(qspec.__file__).parents[1]))
    for command, num_sites, num_bits in (("run", 6, 5), ("run", 3, 12), ("oracle", 7, 5)):
        names = [name for name in THREAD_INVARIANT_UP_TO if command == "run" or name == "spectrum.csv"]
        config = tmp_path / f"config{num_sites}.json"
        config.write_text(json.dumps({
            "model": {"preset": "tilted_ising", "N": num_sites},
            "observable": "total_sz",
            "ensemble": {"kind": "gibbs", "beta": 1.0},
            "qpe": {"l": num_bits, "delta": 0.05},
            "shots": 2000,
            "seed": 3,
        }))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"N{num_sites}threads{threads}"
            env["OPENBLAS_NUM_THREADS"] = threads
            subprocess.run(
                [sys.executable, "-m", "qspec.cli", command, "--config", str(config), "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            runs.append({})
            for name in names:
                header, *rows = csv.reader((out / name).open())
                runs[-1][name] = dict(zip(header, zip(*rows)))
        for name in names:
            bounds = THREAD_INVARIANT_UP_TO[name]
            assert list(runs[0][name]) == list(bounds)
            for column, bound in bounds.items():
                if bound is None or num_sites <= bound:
                    assert runs[0][name][column] == runs[1][name][column], (command, num_sites, name, column)


def test_auto_plan_satisfies_inequalities(tmp_path):
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 2},
        observable="total_sz",
        qpe={"gamma": 0.1, "auto_plan": True},
    )
    report = run_experiment(config)
    assert report.to_dict()["config"]["qpe"] == {"gamma": 0.1, "auto_plan": True}
    plan = report.plan
    scale = plan.delta * (1 << plan.num_bits) / (2 * np.pi)
    assert scale >= 1 / plan.gamma - 1e-9
    assert scale <= ((1 << plan.num_bits) - 1) / plan.omega_max + 1e-9


def test_planned_ground_state_band_keeps_every_line_at_its_positive_gap(tmp_path):
    # The register wraps its upper half to negative frequencies in every ensemble,
    # so a ground-state plan (absorption lines only, at +gap in (0, span]) must
    # cover twice the span; a one-sided band wraps the top lines to -omega.
    config = make_config(tmp_path, model={"preset": "heisenberg", "N": 4}, observable="site_sz",
                         ensemble={"kind": "ground_state"}, qpe={"gamma": 0.35, "auto_plan": True})
    report = run_experiment(config)
    plan, oracle_dist = report.plan, report.oracle_distribution
    dim = 1 << plan.num_bits
    omega, width = oracle_dist.frequencies, 2 * np.pi / (plan.delta * dim)
    table = oracle.transition_weights(build_operator(config.model).eig, build_operator(config.observable),
                                      config.ensemble)
    strong = table.weights[:, 0] >= 0.05 * table.mass
    assert strong.sum() >= 2 and table.gaps[strong].max() > 5
    assert not (table.weights[:, 1] >= 0.05 * table.mass).any()
    for gap in table.gaps[strong]:
        # A line's leakage kernel peaks at the register bin nearest its phase.
        peak = round(plan.delta * dim * gap / (2 * np.pi)) % dim
        assert abs(omega[peak] - gap) <= width
    assert oracle_dist.probabilities[omega < 0].sum() <= 0.05
    assert report.spectrum.frequencies.max() >= table.gaps.max()


def test_circuit_prep_records_statistics(tmp_path):
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 2},
        observable="total_sz",
        prep={"mode": "circuit", "epsilon": 0.5, "max_attempts": 400},
        seed=11,
    )
    report = run_experiment(config)
    stats = report.prep_stats
    assert stats["mode"] == "circuit"
    assert stats["attempts"] >= 1
    assert 0 < stats["acceptance_probability"] < 1
    assert stats["fidelity_with_target"] > 0.8
    assert stats["predicted_p1"] >= stats["spectral_bound"] >= stats["rank_bound"]
    assert stats["traceless"] is True
    # The postselected state, not the exact target, went through phase estimation.
    assert report.distances["exact_vs_oracle"]["total_variation"] > 1e-10


def test_circuit_prep_exhaustion_raises(tmp_path):
    config = make_config(
        tmp_path,
        prep={"mode": "circuit", "epsilon": 1e-6, "max_attempts": 3},
        seed=0,
    )
    with pytest.raises(PrepExhaustedError):
        run_experiment(config)


def test_resource_cap_detected_before_running(tmp_path):
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 9},
        observable="total_sz",
        qpe={"l": 8, "delta": 0.3},
    )
    with pytest.raises(ResourceCapError):
        run_experiment(config)


def _never_built(spec):
    raise AssertionError(f"build_operator called for {spec.name or spec.num_sites}")


@pytest.mark.parametrize("qpe", [{"l": 1, "delta": 0.3}, {"gamma": 0.35, "auto_plan": True}],
                         ids=["explicit", "planned"])
def test_cli_run_rejects_a_register_past_the_cap_before_building(tmp_path, capsys, monkeypatch, qpe):
    # N=11 needs 2N + l + 1 >= 24 qubits whatever the register: the config alone
    # decides it, so no operator is compiled or decomposed first.  A planned
    # register is judged at its least size, l = 1.
    monkeypatch.setattr(experiment, "build_operator", _never_built)
    path = write_config(tmp_path, {"model": {"preset": "tilted_ising", "N": 11}, "observable": "total_sz",
                                   "qpe": qpe, "output_dir": str(tmp_path / "never")})
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "resource cap: run needs 24 qubits (2N + l + 1), cap is 22\n"
    assert not (tmp_path / "never").exists()


def test_planned_register_past_the_cap_is_rejected_once_planned(tmp_path):
    # 2N + 2 = 20 qubits pass the check before building; the planned l = 8 does not.
    config = make_config(tmp_path, model={"preset": "heisenberg", "N": 9}, observable="total_sz",
                         qpe={"gamma": 0.35, "auto_plan": True})
    with pytest.raises(ResourceCapError, match=r"^run needs 27 qubits \(2N \+ l \+ 1\), cap is 22$"):
        run_experiment(config)


def test_report_arrays_round_trip_losslessly(tmp_path):
    # Each table lives only in its CSV, whose 17 digits give back every double bit
    # for bit; report.json names each CSV by the sha256 of its bytes.
    report = run_experiment(make_config(tmp_path, shots=5000, seed=3))
    out = tmp_path / "out"
    exact = report.exact_distribution
    tables = {
        "distribution.csv": {
            "f": np.arange(1 << exact.num_bits),
            "omega": exact.frequencies,
            "p_exact": exact.probabilities,
            "p_oracle": report.oracle_distribution.probabilities,
            "p_empirical": report.empirical_distribution.probabilities,
        },
        "spectrum.csv": {"omega": report.spectrum.frequencies, "sigma": report.spectrum.values},
    }
    for name, expected in tables.items():
        columns = csv_columns(out / name)
        assert list(columns) == list(expected)
        for column, values in expected.items():
            assert columns[column].tobytes() == np.asarray(values, dtype=float).tobytes(), (name, column)
    artifacts = json.loads((out / "report.json").read_text())["artifacts"]
    assert artifacts == report.artifacts == {name: sha256(out / name) for name in tables}


def per_value_csv(columns):
    """The reference bytes of a table: each value on its own, 17 digits for a float, else ``str``."""
    lines = [",".join(columns)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
              for row in zip(*columns.values())]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("block_rows", [1, 3, 7])
@pytest.mark.parametrize("as_arrays", [True, False])
def test_csv_write_spans_blocks_to_the_per_value_bytes(tmp_path, monkeypatch, block_rows, as_arrays):
    # 20 rows span several blocks; the bytes and the digest are those of the whole
    # table formatted at once, whatever the block size.
    monkeypatch.setattr(experiment, "CSV_BLOCK_ROWS", block_rows)
    floats = np.random.default_rng(5).normal(size=11).tolist()
    floats += [0.0, -0.0, 5e-324, 1e300, 1.0, 0.1, math.inf, -math.inf, math.nan]
    columns = {
        "f": list(range(20)),
        "omega": floats,
        "distribution": [("semicircle", "uniform", "arcsine", "gaussian")[i % 4] for i in range(20)],
        "N": [6] * 20,
        "seed": [2**64 - 1] * 20,
    }
    given = {name: np.asarray(values) for name, values in columns.items()} if as_arrays else columns
    path = tmp_path / "table.csv"
    digest = experiment.write_csv(path, given)
    expected = per_value_csv(columns)
    assert path.read_bytes() == expected
    assert digest == hashlib.sha256(expected).hexdigest()
    assert experiment.write_csv(tmp_path / "empty.csv", {"omega": [], "sigma": []}) == hashlib.sha256(
        b"omega,sigma\n").hexdigest()


def test_prepstudy_csv_spans_blocks_to_the_per_value_bytes(tmp_path, monkeypatch):
    # prepstudy's table mixes float, str and int columns.
    argv = ["prepstudy", "--num-sites", "3", "--seed", "3", "--phi-points", "5"]
    assert main(argv + ["--out", str(tmp_path / "one")]) == 0
    monkeypatch.setattr(experiment, "CSV_BLOCK_ROWS", 3)
    assert main(argv + ["--out", str(tmp_path / "many")]) == 0
    data = (tmp_path / "many" / "prepstudy.csv").read_bytes()
    assert data == (tmp_path / "one" / "prepstudy.csv").read_bytes()
    header, *rows = csv.reader(data.decode().splitlines())
    assert header == ["phi", "P1", "fidelity", "distribution", "N", "seed"]
    assert len(rows) == 4 * 5
    columns = dict(zip(header, map(list, zip(*rows))))
    for name in ("phi", "P1", "fidelity"):
        columns[name] = [float(v) for v in columns[name]]
    columns["N"] = [int(v) for v in columns["N"]]
    columns["seed"] = [int(v) for v in columns["seed"]]
    assert columns["N"] == [3] * 20 and columns["seed"] == [3] * 20
    assert per_value_csv(columns) == data


REPORT_KEYS = {"schema_version", "config", "plan", "prep", "spectrum", "distances", "artifacts", "metadata"}


def _list_lengths(node):
    """The length of every JSON array in a parsed document."""
    if isinstance(node, dict):
        return [n for child in node.values() for n in _list_lengths(child)]
    if isinstance(node, list):
        return [len(node)] + [n for child in node for n in _list_lengths(child)]
    return []


def test_report_json_is_schema_2_without_per_bin_arrays(tmp_path):
    # The same run at l=3 and l=10 (8 and 1024 bins) writes a report of the same
    # shape: only the l digits, the floats and the timings differ in length.
    sizes, longest = [], []
    for num_bits in (3, 10):
        out = tmp_path / f"l{num_bits:02d}"
        report = run_experiment(make_config(tmp_path, qpe={"l": num_bits, "delta": 0.05}, shots=100,
                                            output_dir=str(out)))
        payload = json.loads((out / "report.json").read_text())
        assert set(payload) == REPORT_KEYS
        assert payload["schema_version"] == experiment.SCHEMA_VERSION == 2
        assert payload["spectrum"] == {"gamma": report.spectrum.gamma}
        assert payload["artifacts"] == {name: sha256(out / name) for name in ("distribution.csv", "spectrum.csv")}
        sizes.append((out / "report.json").stat().st_size)
        longest.append(max(_list_lengths(payload)))
    assert longest[0] == longest[1] <= 2
    # One 1024-entry array at indent 2 would add over 9 kB.
    assert abs(sizes[1] - sizes[0]) < 512


def test_circuit_run_writes_what_the_benchmark_gate_reads(tmp_path):
    # perfbench/gate.py bounds TV(p_exact, p_oracle), read from distribution.csv,
    # by sqrt(1 - prep.fidelity_with_target), read from report.json.
    document = {
        **TWO_LEVEL,
        "model": {"preset": "tilted_ising", "N": 2},
        "observable": "total_sz",
        "prep": {"mode": "circuit", "epsilon": 0.5, "max_attempts": 400},
        "seed": 11,
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", "--config", str(write_config(tmp_path, document))]) == 0
    out = tmp_path / "out"
    fidelity = json.loads((out / "report.json").read_text())["prep"]["fidelity_with_target"]
    assert isinstance(fidelity, float) and math.isfinite(fidelity)
    columns = csv_columns(out / "distribution.csv")
    assert len(columns["p_exact"]) == len(columns["p_oracle"]) == 1 << TWO_LEVEL["qpe"]["l"]
    tv = 0.5 * np.abs(columns["p_exact"] - columns["p_oracle"]).sum()
    assert 1e-10 < tv <= math.sqrt(1.0 - fidelity) + 1e-10


def test_gibbs_pipeline_stays_on_oracle(tmp_path):
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 2},
        observable="total_sz",
        ensemble={"kind": "gibbs", "beta": 2.5},
        qpe={"l": 5, "delta": 0.3},
    )
    report = run_experiment(config)
    assert report.distances["exact_vs_oracle"]["max_abs"] <= 1e-10
    assert abs(report.exact_distribution.probabilities.sum() - 1.0) <= 1e-10


def test_ground_state_metadata_reports_degeneracy(tmp_path):
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 2},
        observable="total_sz",
        ensemble={"kind": "ground_state"},
    )
    report = run_experiment(config)
    assert report.metadata["ground_state_degeneracy"] == 1


# --- each spectrum once per run ---------------------------------------------------

_ENSEMBLES = (
    {"kind": "infinite_temperature"},
    {"kind": "gibbs", "beta": 1.0},
    {"kind": "ground_state"},
)


@pytest.mark.parametrize(
    "command, ensemble, prep, expected",
    [("run", e, {"mode": "exact"}, 1) for e in _ENSEMBLES]
    + [("run", {"kind": "gibbs", "beta": 1.0}, {"mode": "circuit", "epsilon": 0.5}, 2)]
    + [("oracle", e, {"mode": "exact"}, 1) for e in _ENSEMBLES],
    ids=["exact-infinite_temperature", "exact-gibbs", "exact-ground_state", "circuit-gibbs",
         "oracle-infinite_temperature", "oracle-gibbs", "oracle-ground_state"],
)
def test_run_decomposes_each_operator_once(tmp_path, monkeypatch, command, ensemble, prep, expected):
    # H is decomposed first and once, for prep, QPE and the oracle; circuit prep
    # adds O.  ``qspec oracle`` decomposes H alone.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.copy()) or eigh(m))
    document = dict(TWO_LEVEL, model={"preset": "tilted_ising", "N": 3}, observable="total_sz",
                    ensemble=ensemble, prep=prep, qpe={"gamma": 0.5, "auto_plan": True}, seed=1,
                    output_dir=str(tmp_path / "out"))
    config = validate_config(document)
    if command == "run":
        run_experiment(config)
    else:
        assert main(["oracle", "--config", str(write_config(tmp_path, document))]) == 0
    assert len(calls) == expected
    np.testing.assert_array_equal(calls[0], build_operator(config.model).matrix)


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_hamiltonian_operator_is_freed_once_decomposed(tmp_path, monkeypatch, command):
    # Every stage reads H through its decomposition, so neither command keeps
    # H's operator, and with it H's dense matrix, past the one eigh: it is gone
    # when the circuit (run) or the spectrum sum (oracle) is entered.
    document = dict(TWO_LEVEL, model={"preset": "tilted_ising", "N": 3}, observable="total_sz",
                    ensemble={"kind": "gibbs", "beta": 1.0}, qpe={"gamma": 0.5, "auto_plan": True},
                    output_dir=str(tmp_path / "out"))
    config = validate_config(document)
    refs = []

    def recorded(spec):
        operator = build_operator(spec)
        if spec == config.model:
            refs.append(weakref.ref(operator))
        return operator

    dead_on_entry = []

    def probed(stage):
        def probe(*args, **kwargs):
            dead_on_entry.append([ref() is None for ref in refs])
            return stage(*args, **kwargs)
        return probe

    monkeypatch.setattr(experiment, "build_operator", recorded)
    monkeypatch.setattr(cli, "build_operator", recorded)
    if command == "run":
        monkeypatch.setattr(experiment, "run_qpe", probed(qpe.run_qpe))
        run_experiment(config)
    else:
        monkeypatch.setattr(cli, "spectral_function", probed(oracle.spectral_function))
        assert main(["oracle", "--config", str(write_config(tmp_path, document))]) == 0
    assert dead_on_entry == [[True]]


@pytest.mark.parametrize(
    "ensemble, prep",
    [(e, {"mode": "exact"}) for e in _ENSEMBLES]
    + [({"kind": "gibbs", "beta": 1.0}, {"mode": "circuit", "epsilon": 0.5})],
    ids=["exact-infinite_temperature", "exact-gibbs", "exact-ground_state", "circuit-gibbs"],
)
def test_run_purifies_only_for_exact_prep_and_checks_annihilation_twice(tmp_path, monkeypatch, ensemble, prep):
    # Exact prep builds the purified state once and checks it; circuit prep
    # never builds it (its fidelity is the closed form) and checks the occupied
    # spectrum instead.  The oracle reads the closed-form table, checks it and
    # never purifies.  Circuit prep once checked a third time, on the target
    # state it rebuilt for the fidelity.
    builds, checks = [], []
    build, check = purify.thermal_operator_state, purify.reject_annihilation

    def counted_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    def counted_check(*args):
        checks.append(args)
        return check(*args)

    for module in (purify, experiment, stateprep, oracle):
        if hasattr(module, "thermal_operator_state"):
            monkeypatch.setattr(module, "thermal_operator_state", counted_build)
        if hasattr(module, "reject_annihilation"):
            monkeypatch.setattr(module, "reject_annihilation", counted_check)
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 3},
        observable="total_sz",
        ensemble=ensemble,
        prep=prep,
        qpe={"gamma": 0.5, "auto_plan": True},
        seed=1,
    )
    run_experiment(config)
    assert len(builds) == (prep["mode"] == "exact")
    assert len(checks) == 2


def test_circuit_prep_builds_each_fact_once(tmp_path, monkeypatch):
    # One preparation call simulates the circuit once; one occupied spectrum
    # (one O/H overlap) gives the one moment set that feeds the angle, the
    # success bound and the closed-form fidelity, and one base state feeds
    # the circuit.
    owners = {
        "run_prep_circuit": stateprep,
        "simulate_prep_circuit": stateprep,
        "moments": stateprep,
        "spectral_weights": stateprep,
        "base_state": purify,
    }
    counts = dict.fromkeys(owners, 0)
    for name, owner in owners.items():
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (purify, experiment, stateprep, oracle):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 3},
        observable="total_sz",
        ensemble={"kind": "gibbs", "beta": 1.0},
        prep={"mode": "circuit", "epsilon": 0.5},
        qpe={"gamma": 0.5, "auto_plan": True},
        seed=1,
    )
    run_experiment(config)
    assert counts == dict.fromkeys(owners, 1)


def _closed_form_reference(config):
    """One circuit simulation and K drawn by inversion of Geometric(P1) from spawn key (1,).

    Returns the accepted attempt K (None when K passes the budget) and the
    simulation's (P1, accepted branch) with the closed-form fidelity at its angle.
    """
    triple = build_operator(config.observable), build_operator(config.model).eig, config.ensemble
    spectrum = spectral_weights(*triple)
    phi = choose_phi(moments(*spectrum), config.prep.epsilon)
    p1, post = stateprep.simulate_prep_circuit(*triple, phi)
    u = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1,))).random()
    first = max(1, math.ceil(math.log1p(-u) / math.log1p(-p1)))
    fidelity = min(preparation_fidelity(*spectrum, phi), 1.0)
    return (first if first <= config.prep.max_attempts else None), (p1, post, fidelity)


@pytest.mark.parametrize("seed", range(6))
def test_circuit_prep_matches_closed_form_reference(tmp_path, monkeypatch, seed):
    # N=3 Gibbs at the default budget: seeds 1, 3, 5 accept after 118 to 717
    # attempts, seeds 0, 2, 4 exhaust.
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 3},
        observable="total_sz",
        ensemble={"kind": "gibbs", "beta": 1.0},
        prep={"mode": "circuit"},
        seed=seed,
    )
    simulations = []
    simulate = stateprep.simulate_prep_circuit
    monkeypatch.setattr(
        stateprep, "simulate_prep_circuit", lambda *a, **k: simulations.append(1) or simulate(*a, **k)
    )
    prepared = []
    qpe = experiment.run_qpe
    monkeypatch.setattr(experiment, "run_qpe", lambda state, *a: prepared.append(state) or qpe(state, *a))

    attempts, reference = _closed_form_reference(config)
    simulations.clear()
    if attempts is None:
        with pytest.raises(PrepExhaustedError, match=f"in {config.prep.max_attempts} attempts"):
            run_experiment(config)
    else:
        stats = run_experiment(config).prep_stats
        p1, post, fidelity = reference
        assert stats["attempts"] == attempts
        assert stats["acceptance_probability"] == p1
        assert stats["fidelity_with_target"] == fidelity
        np.testing.assert_array_equal(prepared[0].amplitudes, post.amplitudes)
    assert len(simulations) == 1


def test_benchmark_prep_batch_exhausts_on_seeds_0_and_2(tmp_path):
    # The prep_circuit benchmark batch: tilted Ising N=6, total_sz, Gibbs beta=1,
    # l=5, config seeds 0-3 at the default budget (P1 = 7.92414e-4).  Seeds 0 and 2
    # need K = 1427 and 3290, past the budget, so half the batch exhausts.
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 6},
        observable="total_sz",
        ensemble={"kind": "gibbs", "beta": 1.0},
        prep={"mode": "circuit"},
        qpe={"l": 5, "delta": 0.05},
    )
    hamiltonian, observable = build_operator(config.model), build_operator(config.observable)
    outcomes = [
        stateprep.run_prep_circuit(observable, hamiltonian.eig, config.ensemble, config.prep.epsilon,
                                   seed=seed, max_attempts=config.prep.max_attempts)
        for seed in range(4)
    ]
    assert [o.stats["attempts"] for o in outcomes] == [1000, 815, 1000, 134]
    assert [o.accepted for o in outcomes] == [False, True, False, True]


# --- memory at the qubit cap ------------------------------------------------------


def test_n10_run_holds_three_matrices_the_working_array_one_propagator_and_two_blocks(tmp_path):
    # The benchmark's eigh_dense run: tilted Ising N=10, total_sz, Gibbs, exact
    # prep, l=1 (22 qubits).  The run holds three real 1024 x 1024 matrices (O,
    # H's eigenvectors V and the prepared state); H's own matrix is freed once
    # decomposed.  The circuit adds the working array, one propagator and a
    # block of the product that builds it or of the right product (76 MiB in
    # all), and the bound, 80 MiB, allows one block more.  A run that keeps H's
    # matrix (84 MiB) or a propagator built through full-size temporaries breaks it.
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 10},
        observable="total_sz",
        ensemble={"kind": "gibbs", "beta": 1.0},
        qpe={"l": 1, "delta": 0.05},
    )
    matrix = 4**10 * 8
    working = 2 * 4**10 * 16
    propagator = 4**10 * 16
    tracemalloc.start()
    try:
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * matrix + working + propagator + 2 * max(simcore._BLOCK_BYTES, qpe._BLOCK_BYTES)


def test_n10_circuit_prep_run_releases_the_observable_decomposition_before_the_circuit(tmp_path):
    # The same run with circuit prep (accepting at attempt 1391 of a 2**40 budget):
    # O's eigendecomposition serves the closed forms and the prep circuit only, so
    # the circuit holds O, V and the complex prepared state (84.7 MiB measured with
    # the working array, one propagator and a block).  The bound allows two blocks;
    # a run that keeps O's eigenvectors memoised through the circuit (92.7 MiB) breaks it.
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 10},
        observable="total_sz",
        ensemble={"kind": "gibbs", "beta": 1.0},
        prep={"mode": "circuit", "max_attempts": 1 << 40},
        qpe={"l": 1, "delta": 0.05},
    )
    matrix = 4**10 * 8
    working = 2 * 4**10 * 16
    propagator = prepared = 4**10 * 16
    tracemalloc.start()
    try:
        report = run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.prep_stats["attempts"] == 1391
    assert peak <= 2 * matrix + prepared + working + propagator + 2 * max(simcore._BLOCK_BYTES, qpe._BLOCK_BYTES)


# --- command line -----------------------------------------------------------------


def write_config(tmp_path, document):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return path


def test_cli_run_succeeds(tmp_path, capsys):
    document = dict(TWO_LEVEL)
    document["output_dir"] = str(tmp_path / "cli-out")
    path = write_config(tmp_path, document)
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "cli-out" / "report.json").exists()
    assert "run complete" in capsys.readouterr().out


def test_cli_out_and_seed_overrides(tmp_path):
    document = dict(TWO_LEVEL)
    document["output_dir"] = str(tmp_path / "ignored")
    document["shots"] = 1000
    path = write_config(tmp_path, document)
    override = tmp_path / "override"
    assert main(["run", "--config", str(path), "--out", str(override), "--seed", "42"]) == 0
    payload = json.loads((override / "report.json").read_text())
    assert payload["metadata"]["seed"] == 42
    assert not (tmp_path / "ignored").exists()


def test_cli_config_error_exit_code(tmp_path):
    path = write_config(tmp_path, {"model": {"N": 1}})
    assert main(["run", "--config", str(path)]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1


def test_cli_resource_cap_exit_code(tmp_path):
    document = {
        "model": {"preset": "tilted_ising", "N": 9},
        "observable": "total_sz",
        "qpe": {"l": 8, "delta": 0.3},
        "output_dir": str(tmp_path / "never"),
    }
    path = write_config(tmp_path, document)
    assert main(["run", "--config", str(path)]) == 2


def test_cli_prep_exhaustion_exit_code(tmp_path):
    document = dict(TWO_LEVEL)
    document["output_dir"] = str(tmp_path / "never")
    document["prep"] = {"mode": "circuit", "epsilon": 1e-6, "max_attempts": 2}
    path = write_config(tmp_path, document)
    assert main(["run", "--config", str(path)]) == 3


@pytest.mark.parametrize("epsilon", [1e-6, 1e-18])
def test_cli_prep_exhaustion_prints_a_tiny_acceptance_probability(tmp_path, capsys, epsilon):
    # P1 ~ 1.1e-7 printed as 0.000000 under a fixed six decimals.  At
    # epsilon = 1e-18 cos(phi*O) rounds to 1, yet P1 ~ 1e-19 is a positive
    # branch norm: the run exhausts (exit 3), it does not fail on a fidelity.
    document = {
        "model": {"preset": "tilted_ising", "N": 3},
        "observable": "total_sz",
        "prep": {"mode": "circuit", "epsilon": epsilon, "max_attempts": 2},
        "qpe": {"l": 3, "delta": 0.3},
        "output_dir": str(tmp_path / "never"),
    }
    path = write_config(tmp_path, document)
    assert main(["run", "--config", str(path)]) == 3
    observable, eig_h = build_operator(observable_spec("total_sz", 3)), build_operator(tilted_ising(3)).eig
    triple = observable, eig_h, INFINITE_TEMPERATURE
    phi = choose_phi(moments(*spectral_weights(*triple)), epsilon)
    p1 = stateprep.simulate_prep_circuit(*triple, phi)[0]
    assert 0 < p1 < 5e-7
    assert capsys.readouterr().err == (
        f"preparation exhausted: no acceptance in 2 attempts; exact acceptance probability is {p1:.6g}\n"
    )


_TRACED_OBSERVABLE = {
    "N": 2,
    "terms": [{"coefficient": 1.0, "factors": "ZI"}, {"coefficient": 0.5, "factors": "II"}],
}


@pytest.mark.parametrize("max_attempts, code", [(1, 3), (1000, 0)])
def test_circuit_prep_with_a_traced_observable_records_it_without_warning(
    tmp_path, capsys, max_attempts, code
):
    # Seed 1 rejects its first attempt: the failed run prints its one error
    # line and nothing else; the run that accepts records traceless: false.
    document = {
        "model": {"preset": "tilted_ising", "N": 2},
        "observable": _TRACED_OBSERVABLE,
        "prep": {"mode": "circuit", "max_attempts": max_attempts},
        "qpe": {"l": 3, "delta": 0.3},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, document)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", "--config", str(path)]) == code
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    if code:
        assert err.startswith("preparation exhausted: ") and err.count("\n") == 1
    else:
        assert err == ""
        assert json.loads((tmp_path / "out" / "report.json").read_text())["prep"]["traceless"] is False


@pytest.mark.parametrize("mode", ["exact", "circuit"])
def test_cli_package_error_exit_code(tmp_path, capsys, mode):
    # Total S^z annihilates the Heisenberg singlet: exact prep sees a zero-norm
    # state, circuit prep a zero second moment, both at rounding scale.  Both
    # are the same configuration error, on one line.
    document = {
        "model": {"preset": "heisenberg", "N": 4},
        "observable": "total_sz",
        "ensemble": {"kind": "ground_state"},
        "prep": {"mode": mode},
        "qpe": {"l": 3, "delta": 0.3},
        "output_dir": str(tmp_path / "never"),
    }
    path = write_config(tmp_path, document)
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "config error: observable: annihilates the ground_state base state\n"
    assert not (tmp_path / "never").exists()


def test_cli_oracle_rejects_an_annihilating_observable(tmp_path, capsys):
    # The oracle's table applies the same rule as prep; its spectrum would be rounding noise.
    document = {
        "model": {"preset": "heisenberg", "N": 4},
        "observable": "total_sz",
        "ensemble": {"kind": "ground_state"},
        "qpe": {"l": 3, "delta": 0.3},
        "output_dir": str(tmp_path / "never"),
    }
    path = write_config(tmp_path, document)
    assert main(["oracle", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "config error: observable: annihilates the ground_state base state\n"
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_cli_subnormal_second_moment_exits_with_one_line(tmp_path, capsys, command):
    # O = 1e-150 |1><1| passes the validator's range checks, but the Gibbs state at
    # beta = 46 leaves <O^2> subnormal.  run used to exit 4 on a NormalizationError
    # and oracle to exit 0 with a spectrum of subnormal weights.
    document = {
        "model": {"N": 1, "terms": [{"coefficient": -0.5, "factors": "Z"}]},
        "observable": {
            "N": 1,
            "terms": [{"coefficient": 5e-151, "factors": "I"}, {"coefficient": -5e-151, "factors": "Z"}],
        },
        "ensemble": {"kind": "gibbs", "beta": 46.0},
        "qpe": {"l": 3, "delta": 0.3},
        "output_dir": str(tmp_path / "never"),
    }
    path = write_config(tmp_path, document)
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "config error: observable: <O^2> = 1.05e-320 in the gibbs base state is below the normal float range\n"
    )
    assert not (tmp_path / "never").exists()


def _scaled_observable_config(tmp_path, coefficient, mode):
    document = {
        "model": {
            "N": 2,
            "terms": [{"coefficient": 1.0, "factors": "XI"}, {"coefficient": 0.7, "factors": "ZZ"}],
        },
        "observable": {"N": 2, "terms": [{"coefficient": coefficient, "factors": "ZI"}]},
        "prep": {"mode": mode, "epsilon": 0.5},
        "qpe": {"l": 3, "delta": 0.3},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    return write_config(tmp_path, document)


@pytest.mark.parametrize("command, mode", [("run", "exact"), ("run", "circuit"), ("oracle", "exact")])
def test_cli_small_observable_is_not_annihilation(tmp_path, capsys, command, mode):
    # 1e-13 ZI has <O^2> = tr(O^2)/dim = 1e-26 at infinite temperature: small, but
    # nowhere near rounding noise, so every command runs it.
    path = _scaled_observable_config(tmp_path, 1e-13, mode)
    assert main([command, "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
    if (command, mode) == ("run", "exact"):
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["distances"]["exact_vs_oracle"]["total_variation"] <= 1e-10


@pytest.mark.parametrize(
    "command, mode, coefficient, power",
    [
        # Circuit prep's fourth moment used to underflow to zero (exit 4) ...
        ("run", "circuit", 1e-100, "fourth powers"),
        ("run", "circuit", 1e-160, "squared"),
        # ... exact prep's subnormal norm drifted past its check (exit 4) ...
        ("run", "exact", 1e-157, "squared"),
        ("run", "exact", 1e-160, "squared"),
        # ... and the oracle wrote a spectrum from subnormal weights (exit 0).
        ("oracle", "exact", 1e-157, "squared"),
        ("oracle", "exact", 1e-160, "squared"),
    ],
)
def test_cli_observable_below_the_normal_range_exits_with_one_line(
    tmp_path, capsys, command, mode, coefficient, power
):
    path = _scaled_observable_config(tmp_path, coefficient, mode)
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: observable.terms: {power} ") and err.count("\n") == 1
    assert "below the normal double range" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize(
    "overrides, message",
    [
        # Two 1e308 ZZ terms overflow the compiled matrix.
        (
            {
                "model": {"N": 2, "terms": [{"coefficient": 1e308, "factors": "ZZ"}] * 2},
                "observable": "total_sz",
            },
            "config error: model.terms: ",
        ),
        # Purification squares a 1e200 observable past the double range.
        (
            {"observable": {"N": 1, "terms": [{"coefficient": 1e200, "factors": "X"}]}},
            "config error: observable.terms: ",
        ),
        # A linewidth 2 pi / (delta 2**l) near 8e299 overflows when squared ...
        ({"qpe": {"l": 3, "delta": 1e-300}}, "config error: qpe.delta: "),
        # ... or underflows to zero when it is tiny.
        ({"qpe": {"l": 3, "delta": 1e300}}, "config error: qpe.delta: "),
        # Phases past 2**18 turns round circuit and oracle apart by over 1e-10 (run);
        # the oracle has no register, and its grid step is far above that linewidth.
        ({"qpe": {"l": 3, "delta": 1e20}}, "config error: qpe.delta: "),
        # The model presets, as whole lines.  A list cannot key the preset table.
        ({"model": {"preset": []}},
         "config error: model.preset: unknown preset []; choose from ('tilted_ising', 'heisenberg')\n"),
        ({"model": {"preset": "ising", "N": 2}},
         "config error: model.preset: unknown preset 'ising'; choose from ('tilted_ising', 'heisenberg')\n"),
        ({"model": {"preset": "heisenberg", "N": 1}}, "config error: model.N: must be >= 2, got 1\n"),
    ],
    ids=["model_overflow", "observable_overflow", "linewidth_overflow", "linewidth_underflow", "phase_winding",
         "preset_not_a_string", "preset_unknown", "heisenberg_one_site"],
)
def test_cli_out_of_range_configs_exit_with_one_line(tmp_path, capsys, command, overrides, message):
    document = dict(TWO_LEVEL, output_dir=str(tmp_path / "never"), **overrides)
    path = write_config(tmp_path, document)
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "never").exists()


#: 1e6 I + Z with observable X: energies near 1e6 against a span of 2.
OFFSET_MODEL = {"N": 1, "terms": [{"coefficient": 1e6, "factors": "I"}, {"coefficient": 1.0, "factors": "Z"}]}


@pytest.mark.parametrize(
    "qpe, path",
    [({"l": 3, "delta": 2 * np.pi / (0.01 * 8)}, "qpe.delta"), ({"gamma": 0.01, "auto_plan": True}, "qpe.gamma")],
    ids=["explicit", "planned"],
)
def test_phase_winding_is_a_rule_of_run_alone(tmp_path, capsys, monkeypatch, qpe, path):
    # Linewidth 0.01 in either form: the oracle, which has no register, resolves
    # it; the circuit's register would wind phases to 2 * (1e6 + 1) / 0.01 turns.
    # The explicit form used to fail under oracle, and the planned one under run
    # only after compiling H and O and decomposing H.
    config = write_config(tmp_path, dict(TWO_LEVEL, model=OFFSET_MODEL, qpe=qpe))
    assert main(["oracle", "--config", str(config), "--out", str(tmp_path / "oracle")]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(experiment, "build_operator", _never_built)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "never")]) == 1
    assert capsys.readouterr().err == (f"config error: {path}: phases wind up to 2**27.6 turns, "
                                       "past the 2**18 that circuit and oracle resolve alike\n")
    assert not (tmp_path / "never").exists()


def test_fourth_power_bound_is_a_rule_of_circuit_prep_alone(tmp_path, capsys):
    # 1e-100 ZI: circuit preparation's fourth moment falls below the normal doubles
    # (run exits 1, above), while the oracle, which forms no fourth moment, runs.
    path = _scaled_observable_config(tmp_path, 1e-100, "circuit")
    assert main(["oracle", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_phase_winding_bound_admits_the_last_resolvable_delta(tmp_path):
    # Gaps of the two-level model reach 2 * |c| = 2: delta * 2**l * 2 / 2 pi = 2**18 is accepted,
    # and circuit and oracle still agree there within the 1e-10 acceptance tolerance.
    delta = 2.0**18 * np.pi / (1 << 3)
    config = make_config(tmp_path, qpe={"l": 3, "delta": delta})
    assert config.qpe.delta == delta
    assert run_experiment(config).distances["exact_vs_oracle"]["total_variation"] <= 1e-10
    # The bound is a rule of the circuit's register: the config is valid, its run is not.
    config = make_config(tmp_path, qpe={"l": 3, "delta": 4 * delta})
    with pytest.raises(ConfigError, match=r"^qpe.delta: phases wind up to 2\*\*20.0 turns"):
        run_experiment(config)


@pytest.mark.parametrize(
    "command, via",
    [("run", "output_dir"), ("oracle", "output_dir"), ("run", "--out"), ("oracle", "--out"), ("prepstudy", "--out")],
)
@pytest.mark.parametrize(
    "name, reason",
    [("", "expected a non-empty string"), ("out\0", "contains a NUL character"),
     ("out\ud800", "not a file name: surrogates not allowed")],
    ids=["empty", "nul", "surrogate"],
)
def test_cli_output_path_the_file_system_cannot_name_exits_with_one_line(
    tmp_path, capsys, monkeypatch, command, via, name, reason
):
    # A NUL or a lone surrogate ended in a traceback from mkdir (ValueError,
    # UnicodeEncodeError), and --out "" wrote into the working directory.
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, dict(TWO_LEVEL, output_dir=name) if via == "output_dir" else TWO_LEVEL)
    if command == "prepstudy":
        argv = ["prepstudy", "--out", name, "--num-sites", "2", "--phi-points", "2"]
    else:
        argv = [command, "--config", str(path), *(["--out", name] if via == "--out" else [])]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {via}: {reason}\n"
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command", ["run", "oracle", "prepstudy"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
def test_cli_output_dir_that_cannot_be_created_exits_with_one_line(tmp_path, capsys, command, below):
    # mkdir's FileExistsError or NotADirectoryError used to end in a traceback.
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if below else taken
    if command == "prepstudy":
        argv = ["prepstudy", "--out", str(out), "--num-sites", "2", "--phi-points", "2"]
    else:
        argv = [command, "--config", str(write_config(tmp_path, TWO_LEVEL)), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}/") and err.count("\n") == 1
    assert str(taken) in err
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run"], "qspec run: the following arguments are required: --config"),
        (["plan", "--omega-max", "abc", "--gamma", "0.1"],
         "qspec plan: argument --omega-max: invalid float value: 'abc'"),
        (["bogus"], "qspec: argument command: invalid choice: 'bogus'"),
        ([], "qspec: the following arguments are required: command"),
        (["oracle", "--config", "c.json", "--bogus"], "qspec: unrecognized arguments: --bogus"),
    ],
    ids=["run_without_config", "plan_not_a_number", "unknown_subcommand", "no_subcommand", "unknown_option"],
)
def test_cli_usage_errors_exit_one_with_one_line(capsys, argv, message):
    # argparse used to print a usage block and exit 2, the resource-cap code.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}") and captured.err.count("\n") == 1


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qspec run")


def test_cli_plan_prints_json(capsys):
    assert main(["plan", "--omega-max", "10", "--gamma", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["l"] == 7
    assert abs(payload["delta"] - 2 * np.pi / 12.8) <= 1e-12


def test_cli_plan_rejects_bad_input(capsys):
    assert main(["plan", "--omega-max", "1", "--gamma", "2"]) == 1


@pytest.mark.parametrize("omega_max, gamma", [("inf", "1"), ("nan", "1"), ("10", "nan"), ("inf", "inf")])
def test_cli_plan_rejects_non_finite_input(capsys, omega_max, gamma):
    # inf used to spin the doubling loop forever, and nan printed a NaN plan.
    assert main(["plan", "--omega-max", omega_max, "--gamma", gamma]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1


def test_cli_run_with_an_overflowing_plan_ratio_exits_one_on_the_winding_rule(tmp_path, capsys):
    # omega_max / gamma = 4e300 / 1e-150 overflows; planning used to hang here.  Every
    # register a double cannot describe winds past 2**500 turns, so run rejects it
    # before planning; only plan itself reports the overflow as a resource cap.
    document = {
        "model": {"N": 2, "terms": [{"coefficient": 1e300, "factors": "ZZ"},
                                    {"coefficient": 1.0, "factors": "XI"}]},
        "observable": "total_sz",
        "qpe": {"gamma": 1e-150, "auto_plan": True},
        "output_dir": str(tmp_path / "never"),
    }
    path = write_config(tmp_path, document)
    start = time.perf_counter()
    assert main(["run", "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: qpe.gamma: phases wind up to 2**1495.9 turns") and err.count("\n") == 1
    assert not (tmp_path / "never").exists()
    assert main(["plan", "--omega-max", "4e300", "--gamma", "1e-150"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource cap: ") and err.count("\n") == 1


def test_cli_run_with_a_planned_register_past_the_winding_bound_exits_one(tmp_path, capsys):
    # The identity term puts absolute energies near 1 against a 2e-6 span, so the
    # planned l=19 register winds phases to 2**37.5 turns; the circuit and oracle
    # used to differ by 1.15e-9 in total variation here.
    document = {
        "model": {"N": 1, "terms": [{"coefficient": 1.0, "factors": "I"}, {"coefficient": 1e-06, "factors": "X"}]},
        "observable": "total_sz",
        "qpe": {"gamma": 1e-11, "auto_plan": True},
        "output_dir": str(tmp_path / "never"),
    }
    path = write_config(tmp_path, document)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: qpe.gamma: phases wind up to 2**37.5 turns") and err.count("\n") == 1
    assert not (tmp_path / "never").exists()


def test_cli_prepstudy_writes_expected_columns(tmp_path):
    out = tmp_path / "study"
    assert main([
        "prepstudy", "--out", str(out), "--num-sites", "6", "--seed", "3",
        "--phi-max", "1.0", "--phi-points", "5",
    ]) == 0
    rows = (out / "prepstudy.csv").read_text().strip().splitlines()
    assert rows[0] == "phi,P1,fidelity,distribution,N,seed"
    assert len(rows) == 1 + 4 * 5
    fields = rows[1].split(",")
    assert fields[3] == "semicircle"
    assert fields[4] == "6"


#: Each law's unit-scale numpy draw, written out here rather than read from the package's table.
LAW_DRAWS = {
    "semicircle": lambda size, rng: 2.0 * rng.beta(1.5, 1.5, size) - 1.0,
    "uniform": lambda size, rng: rng.uniform(-1.0, 1.0, size),
    "arcsine": lambda size, rng: np.cos(np.pi * rng.random(size)),
    "gaussian": lambda size, rng: rng.normal(0.0, 1.0, size),
}


def _operator_route_prepstudy(path, num_sites, seed, phi_max=3.0, phi_points=60):
    """``prepstudy.csv`` by the dense route: per law a diagonal operator, its eigh, then the closed forms."""
    phis = np.linspace(phi_max / phi_points, phi_max, phi_points)
    kinds = list(LAW_DRAWS)
    p1, fidelity = [], []
    for index, kind in enumerate(kinds):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, index)))
        draws = LAW_DRAWS[kind](1 << num_sites, rng)
        spectrum = spectral_weights(*at_infinite_temperature(HermitianOperator(np.diag(draws - draws.mean()))))
        p1 += [acceptance_probability(*spectrum, float(phi)) for phi in phis]
        fidelity += [preparation_fidelity(*spectrum, float(phi)) for phi in phis]
    rows = len(p1)
    write_csv(path, {
        "phi": np.tile(phis, len(kinds)), "P1": p1, "fidelity": fidelity,
        "distribution": np.repeat(kinds, phis.size), "N": [num_sites] * rows, "seed": [seed] * rows,
    })


@pytest.mark.parametrize("num_sites, seed", [(6, 3), (10, 0)])
def test_cli_prepstudy_matches_the_operator_route_without_eigh(tmp_path, monkeypatch, num_sites, seed):
    # The study reads the sampled spectra directly: the same bytes as
    # diagonalizing a dense diagonal operator per law, and no eigh call.
    _operator_route_prepstudy(tmp_path / "reference.csv", num_sites, seed)

    def no_eigh(*args, **kwargs):
        raise AssertionError("prepstudy diagonalized a matrix")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    out = tmp_path / "study"
    assert main(["prepstudy", "--out", str(out), "--num-sites", str(num_sites), "--seed", str(seed)]) == 0
    assert (out / "prepstudy.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_cli_prepstudy_runs_on_angles_near_1e_13(tmp_path):
    # P1 is about 1e-27 here; the half-angle closed form stays exact, so the
    # study writes F = 1 rather than refusing the grid.
    out = tmp_path / "study"
    argv = ["prepstudy", "--out", str(out), "--num-sites", "4", "--phi-max", "1e-13", "--phi-points", "3"]
    assert main(argv) == 0
    with open(out / "prepstudy.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 4 * 3
    assert all(0 < float(row["P1"]) < 1e-26 for row in rows)
    assert all(abs(float(row["fidelity"]) - 1.0) <= 1e-12 for row in rows)


class _GridBuilt(Exception):
    pass


@pytest.mark.parametrize(
    "num_sites, points, message",
    [
        (1, 10**12, "prepstudy grid of 1000000000000 angles exceeds the cap of 2**22"),
        (1, 2**22 + 1, "prepstudy grid of 4194305 angles exceeds the cap of 2**22"),
        (12, 10**12, "12 sites exceed the dense-matrix cap of 11"),
        (11, 2**22, None),
    ],
)
def test_cli_prepstudy_caps_the_grid_before_allocating_it(tmp_path, capsys, monkeypatch, num_sites, points, message):
    # 10**12 angles used to end in an uncaught _ArrayMemoryError from
    # np.linspace, and 12 sites were rejected only after it.  The grid may
    # hold up to 2**QUBIT_CAP angles at any size: 2**22 at N=11 reaches it.
    def grid(*args, **kwargs):
        raise _GridBuilt

    monkeypatch.setattr(np, "linspace", grid)
    out = tmp_path / "study"
    argv = ["prepstudy", "--out", str(out), "--num-sites", str(num_sites), "--phi-points", str(points)]
    if message is None:
        with pytest.raises(_GridBuilt):
            main(argv)
        return
    assert main(argv) == 2
    assert capsys.readouterr().err == f"resource cap: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--num-sites", "-1"), ("--num-sites", "0"), ("--phi-max", "nan"), ("--phi-max", "inf")],
)
def test_cli_prepstudy_rejects_bad_input(tmp_path, capsys, flag, value):
    # -1 sites used to end in a traceback, 0 sites in exit 4, and a nan angle
    # wrote NaN rows with exit 0.
    out = tmp_path / "study"
    assert main(["prepstudy", "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: prepstudy") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_cli_prepstudy_rejects_a_seed_outside_64_unsigned_bits(tmp_path, capsys, seed):
    # -1 used to end in a traceback from SeedSequence, and 2**64 was accepted.
    out = tmp_path / "study"
    assert main(["prepstudy", "--out", str(out), "--seed", seed]) == 1
    assert capsys.readouterr().err == "config error: --seed must fit in 64 unsigned bits\n"
    assert not out.exists()


def test_cli_oracle_writes_spectrum(tmp_path):
    document = dict(TWO_LEVEL)
    document["output_dir"] = str(tmp_path / "oracle-out")
    path = write_config(tmp_path, document)
    assert main(["oracle", "--config", str(path)]) == 0
    rows = (tmp_path / "oracle-out" / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "omega,sigma"
    assert len(rows) > 100


@pytest.mark.parametrize(
    "overrides",
    [{}, {"model": {"preset": "tilted_ising", "N": 3}, "observable": "total_sz",
          "ensemble": {"kind": "gibbs", "beta": 1.0}, "qpe": {"gamma": 0.05, "auto_plan": True}}],
    ids=["two_level", "tilted_ising"],
)
def test_cli_oracle_grid_is_exactly_symmetric(tmp_path, overrides):
    # The oracle evaluates each line once and reads its reverse at -omega, so the
    # grid must hold every point's exact negative: 2001 points over +-reach.
    config = make_config(tmp_path, **overrides)
    path = write_config(tmp_path, {**TWO_LEVEL, **overrides, "output_dir": str(tmp_path / "oracle-out")})
    assert main(["oracle", "--config", str(path)]) == 0
    omega = csv_columns(tmp_path / "oracle-out" / "spectrum.csv")["omega"]
    assert omega.size == 2001
    assert np.all(omega == -omega[::-1])
    reach = 1.2 * build_operator(config.model).eig.span
    assert abs(omega[-1] - reach) <= np.spacing(reach) and abs(omega[0] + reach) <= np.spacing(reach)


def test_cli_oracle_spectrum_json_names_its_csv_and_holds_no_grid(tmp_path):
    path = write_config(tmp_path, {**TWO_LEVEL, "output_dir": str(tmp_path / "oracle-out")})
    assert main(["oracle", "--config", str(path)]) == 0
    out = tmp_path / "oracle-out"
    payload = json.loads((out / "spectrum.json").read_text())
    assert set(payload) == {"gamma", "ensemble", "artifacts"}
    assert payload["artifacts"] == {"spectrum.csv": sha256(out / "spectrum.csv")}
    assert payload["ensemble"] == {"kind": "infinite_temperature", "beta": None}


def test_cli_oracle_rejects_a_linewidth_below_its_grid_step(tmp_path, capsys):
    # Detunings near 2e300 on a grid of step 2.4e297 cannot resolve gamma = 1e150:
    # every sigma would read 0, so the command refuses the config instead.  A
    # zero-span model is sampled over +-1 (step 1e-3), which cannot resolve the
    # linewidth 7.9e-5 of l=3, delta=1e4 either.
    cases = [
        ({"N": 2, "terms": [{"coefficient": 1e300, "factors": "ZZ"}]},
         {"kind": "gibbs", "beta": 1.0}, {"gamma": 1e150, "auto_plan": True}, "qpe.gamma"),
        ({"N": 1, "terms": [{"coefficient": 1.0, "factors": "I"}]},
         {"kind": "infinite_temperature"}, {"l": 3, "delta": 1e4}, "qpe.delta"),
    ]
    for model, ensemble, qpe, field in cases:
        document = {
            "model": model,
            "observable": "total_sz",
            "ensemble": ensemble,
            "qpe": qpe,
            "output_dir": str(tmp_path / "oracle-out"),
        }
        path = write_config(tmp_path, document)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["oracle", "--config", str(path)]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
        assert not (tmp_path / "oracle-out").exists()
