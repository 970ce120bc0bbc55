"""Config validation, the experiment pipeline and the command-line surface."""

import ast
import csv
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import qspec
from qspec import experiment, oracle, purify, stateprep
from qspec.cli import main
from qspec.errors import ConfigError, PrepExhaustedError, ResourceCapError
from qspec.experiment import run_experiment, validate_config
from qspec.models import build_operator, heisenberg, observable_spec, tilted_ising
from qspec.stateprep import choose_phi, moments

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
    # Every attempt index must fit the uint64 arithmetic of the block draws.
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
    ],
    ids=["factors", "name", "huge_coefficient", "huge_delta"],
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
        return payload

    assert strip_timings(first) == strip_timings(second)


#: The determinism contract of ``qspec.experiment`` across BLAS thread counts:
#: the largest N at which each CSV column is byte-identical (None: every N).
THREAD_INVARIANT_UP_TO = {
    "distribution.csv": {"f": None, "omega": None, "p_exact": 6, "p_oracle": 5, "p_empirical": 6},
    "spectrum.csv": {"omega": None, "sigma": 7},
}


def test_promised_columns_are_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # N=6 is the last size at which p_exact and p_empirical are promised and
    # the first at which p_oracle is not, so p_oracle is left unchecked.
    num_sites = 6
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"preset": "tilted_ising", "N": num_sites},
        "observable": "total_sz",
        "ensemble": {"kind": "gibbs", "beta": 1.0},
        "qpe": {"l": 5, "delta": 0.05},
        "shots": 2000,
        "seed": 3,
    }))
    env = dict(os.environ, PYTHONPATH=str(Path(qspec.__file__).parents[1]))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env["OPENBLAS_NUM_THREADS"] = threads
        subprocess.run(
            [sys.executable, "-m", "qspec.cli", "run", "--config", str(config), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        runs.append({})
        for name in THREAD_INVARIANT_UP_TO:
            header, *rows = csv.reader((out / name).open())
            runs[-1][name] = dict(zip(header, zip(*rows)))
    for name, bounds in THREAD_INVARIANT_UP_TO.items():
        assert list(runs[0][name]) == list(bounds)
        for column, bound in bounds.items():
            if bound is None or num_sites <= bound:
                assert runs[0][name][column] == runs[1][name][column], (name, column)


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


def test_report_arrays_round_trip_losslessly(tmp_path):
    config = make_config(tmp_path, shots=5000, seed=3)
    report = run_experiment(config)
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    np.testing.assert_array_equal(
        np.array(payload["distribution"]["p_exact"]), report.exact_distribution.probabilities
    )
    np.testing.assert_array_equal(
        np.array(payload["spectrum"]["sigma"]), report.spectrum.values
    )
    rows = (tmp_path / "out" / "distribution.csv").read_text().strip().splitlines()
    assert rows[0] == "f,omega,p_exact,p_oracle,p_empirical"
    parsed = np.array([[float(v) for v in row.split(",")[2:]] for row in rows[1:]])
    np.testing.assert_array_equal(parsed[:, 0], report.exact_distribution.probabilities)
    np.testing.assert_array_equal(parsed[:, 1], report.oracle_distribution.probabilities)
    np.testing.assert_array_equal(parsed[:, 2], report.empirical_distribution.probabilities)


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
    "ensemble, prep, expected",
    [(e, {"mode": "exact"}, 1) for e in _ENSEMBLES]
    + [({"kind": "gibbs", "beta": 1.0}, {"mode": "circuit", "epsilon": 0.5}, 2)],
    ids=["exact-infinite_temperature", "exact-gibbs", "exact-ground_state", "circuit-gibbs"],
)
def test_run_decomposes_each_operator_once(tmp_path, monkeypatch, ensemble, prep, expected):
    # H is decomposed once for prep, QPE and the oracle; circuit prep adds O.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
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
    assert len(calls) == expected


@pytest.mark.parametrize(
    "ensemble, prep",
    [(e, {"mode": "exact"}) for e in _ENSEMBLES]
    + [({"kind": "gibbs", "beta": 1.0}, {"mode": "circuit", "epsilon": 0.5})],
    ids=["exact-infinite_temperature", "exact-gibbs", "exact-ground_state", "circuit-gibbs"],
)
def test_run_builds_the_purified_state_once(tmp_path, monkeypatch, ensemble, prep):
    # Prep builds it (circuit prep: for the fidelity, on the circuit's own base
    # state); the oracle reads the closed-form table and never purifies.
    calls = []
    build = purify.operator_state

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for module in (purify, experiment, stateprep, oracle):
        if hasattr(module, "operator_state"):
            monkeypatch.setattr(module, "operator_state", counted)
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
    assert len(calls) == 1


def test_circuit_prep_builds_each_fact_once(tmp_path, monkeypatch):
    # One preparation call simulates the circuit once; one moment set (one O/H
    # overlap) feeds the angle and the success bound, and one base state feeds
    # both the circuit and its fidelity target.
    owners = {
        "run_prep_circuit": stateprep,
        "simulate_prep_circuit": stateprep,
        "moments": stateprep,
        "_eigen_weights": stateprep,
        "base_state": purify,
        "operator_state": purify,
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


def _per_attempt_reference(config):
    """The attempt loop with one full circuit simulation and one ancilla draw per attempt.

    Returns the accepted attempt (None on exhaustion) and the last simulation's
    (P1, accepted branch, fidelity).
    """
    hamiltonian = build_operator(config.model)
    observable = build_operator(config.observable)
    phi = choose_phi(moments(observable, config.ensemble, hamiltonian), config.prep.epsilon)
    for attempt in range(config.prep.max_attempts):
        simulated = stateprep.simulate_prep_circuit(observable, phi, config.ensemble, hamiltonian)
        draw = np.random.SeedSequence(config.seed, spawn_key=(1, attempt))
        if np.random.default_rng(draw).random() < simulated[0]:
            return attempt + 1, simulated
    return None, simulated


@pytest.mark.parametrize("seed", range(6))
def test_circuit_prep_matches_per_attempt_reference(tmp_path, monkeypatch, seed):
    # N=3 Gibbs at the default budget: seeds 1, 3, 5 accept after 73 to 729
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

    attempts, reference = _per_attempt_reference(config)
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


def test_cli_prep_exhaustion_prints_a_tiny_acceptance_probability(tmp_path, capsys):
    # P1 ~ 1.1e-7 printed as 0.000000 under a fixed six decimals.
    document = {
        "model": {"preset": "tilted_ising", "N": 3},
        "observable": "total_sz",
        "prep": {"mode": "circuit", "epsilon": 1e-6, "max_attempts": 2},
        "qpe": {"l": 3, "delta": 0.3},
        "output_dir": str(tmp_path / "never"),
    }
    path = write_config(tmp_path, document)
    assert main(["run", "--config", str(path)]) == 3
    observable = build_operator(observable_spec("total_sz", 3))
    phi = choose_phi(moments(observable), 1e-6)
    p1 = stateprep.simulate_prep_circuit(observable, phi)[0]
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
        # Phases past 2**18 turns round circuit and oracle apart by over 1e-10.
        ({"qpe": {"l": 3, "delta": 1e20}}, "config error: qpe.delta: "),
    ],
    ids=["model_overflow", "observable_overflow", "linewidth_overflow", "linewidth_underflow", "phase_winding"],
)
def test_cli_out_of_range_configs_exit_with_one_line(tmp_path, capsys, command, overrides, message):
    document = dict(TWO_LEVEL, output_dir=str(tmp_path / "never"), **overrides)
    path = write_config(tmp_path, document)
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "never").exists()


def test_phase_winding_bound_admits_the_last_resolvable_delta(tmp_path):
    # Gaps of the two-level model reach 2 * |c| = 2: delta * 2**l * 2 / 2 pi = 2**18 is accepted,
    # and circuit and oracle still agree there within the 1e-10 acceptance tolerance.
    delta = 2.0**18 * np.pi / (1 << 3)
    config = make_config(tmp_path, qpe={"l": 3, "delta": delta})
    assert config.qpe.delta == delta
    assert run_experiment(config).distances["exact_vs_oracle"]["total_variation"] <= 1e-10
    with pytest.raises(ConfigError, match="qpe.delta"):
        make_config(tmp_path, qpe={"l": 3, "delta": 4 * delta})


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


def test_cli_run_with_an_overflowing_plan_ratio_exits_two(tmp_path, capsys):
    # omega_max / gamma = 4e300 / 1e-150 overflows; planning used to hang here.
    document = {
        "model": {"N": 2, "terms": [{"coefficient": 1e300, "factors": "ZZ"},
                                    {"coefficient": 1.0, "factors": "XI"}]},
        "observable": "total_sz",
        "qpe": {"gamma": 1e-150, "auto_plan": True},
        "output_dir": str(tmp_path / "never"),
    }
    path = write_config(tmp_path, document)
    start = time.perf_counter()
    assert main(["run", "--config", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("resource cap: ") and err.count("\n") == 1
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
    omega = np.array(json.loads((tmp_path / "oracle-out" / "spectrum.json").read_text())["omega"])
    assert omega.size == 2001
    assert np.all(omega == -omega[::-1])
    levels = build_operator(config.model).eig.eigenvalues
    reach = 1.2 * float(levels[-1] - levels[0])
    assert abs(omega[-1] - reach) <= np.spacing(reach) and abs(omega[0] + reach) <= np.spacing(reach)


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
