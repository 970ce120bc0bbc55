"""Config validation, the experiment pipeline and the command-line surface."""

import json
import time
import warnings

import numpy as np
import pytest

from qspec import (
    build_operator,
    choose_phi,
    experiment,
    moments,
    oracle,
    purify,
    run_experiment,
    run_prep_circuit,
    stateprep,
    validate_config,
)
from qspec.cli import main
from qspec.errors import ConfigError, PrepExhaustedError, ResourceCapError

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
    assert report.metadata["oracle"] == {"transitions": 4, "kept": 2}
    out = tmp_path / "out"
    assert (out / "report.json").exists()
    assert (out / "distribution.csv").exists()
    assert (out / "spectrum.csv").exists()


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


def test_auto_plan_satisfies_inequalities(tmp_path):
    config = make_config(
        tmp_path,
        model={"preset": "tilted_ising", "N": 2},
        observable="total_sz",
        qpe={"gamma": 0.1, "auto_plan": True},
    )
    report = run_experiment(config)
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
    # One moment set (one O/H overlap) feeds the angle and the success bound,
    # and one base state feeds both the circuit and its fidelity target.
    owners = {
        "moments": stateprep,
        "_eigen_weights": stateprep,
        "base_state": purify,
        "purify_gibbs": purify,
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
    """The runner's attempt loop with one full circuit simulation per attempt."""
    hamiltonian = build_operator(config.model)
    observable = build_operator(config.observable)
    phi = choose_phi(moments(observable, config.ensemble, hamiltonian), config.prep.epsilon)
    for attempt in range(config.prep.max_attempts):
        outcome = run_prep_circuit(
            observable,
            phi,
            config.ensemble,
            seed=np.random.SeedSequence(config.seed, spawn_key=(1, attempt)),
            hamiltonian=hamiltonian,
        )
        if outcome.accepted:
            return attempt + 1, outcome
    return None, outcome


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
    rotate = stateprep.apply_controlled_unitary
    monkeypatch.setattr(
        stateprep, "apply_controlled_unitary", lambda *a, **k: simulations.append(1) or rotate(*a, **k)
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
        assert stats["attempts"] == attempts
        assert stats["acceptance_probability"] == reference.acceptance_probability
        assert stats["fidelity_with_target"] == reference.fidelity_with_target
        np.testing.assert_array_equal(prepared[0].amplitudes, reference.post_state.amplitudes)
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


@pytest.mark.parametrize("command, mode", [("run", "exact"), ("run", "circuit"), ("oracle", "exact")])
def test_cli_small_observable_is_not_annihilation(tmp_path, capsys, command, mode):
    # 1e-13 ZI has <O^2> = tr(O^2)/dim = 1e-26 at infinite temperature: small, but
    # nowhere near rounding noise, so every command runs it.
    document = {
        "model": {
            "N": 2,
            "terms": [{"coefficient": 1.0, "factors": "XI"}, {"coefficient": 0.7, "factors": "ZZ"}],
        },
        "observable": {"N": 2, "terms": [{"coefficient": 1e-13, "factors": "ZI"}]},
        "prep": {"mode": mode, "epsilon": 0.5},
        "qpe": {"l": 3, "delta": 0.3},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    path = write_config(tmp_path, document)
    assert main([command, "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
    if (command, mode) == ("run", "exact"):
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["distances"]["exact_vs_oracle"]["total_variation"] <= 1e-10


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


def test_cli_oracle_writes_spectrum(tmp_path):
    document = dict(TWO_LEVEL)
    document["output_dir"] = str(tmp_path / "oracle-out")
    path = write_config(tmp_path, document)
    assert main(["oracle", "--config", str(path)]) == 0
    rows = (tmp_path / "oracle-out" / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "omega,sigma"
    assert len(rows) > 100


def test_cli_oracle_rejects_a_linewidth_below_its_grid_step(tmp_path, capsys):
    # Detunings near 2e300 on a grid of step 2.4e297 cannot resolve gamma = 1e150:
    # every sigma would read 0, so the command refuses the config instead.
    document = {
        "model": {"N": 2, "terms": [{"coefficient": 1e300, "factors": "ZZ"}]},
        "observable": "total_sz",
        "ensemble": {"kind": "gibbs", "beta": 1.0},
        "qpe": {"gamma": 1e150, "auto_plan": True},
        "output_dir": str(tmp_path / "oracle-out"),
    }
    path = write_config(tmp_path, document)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["oracle", "--config", str(path)]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("config error: qpe.gamma: ") and err.count("\n") == 1
    assert not (tmp_path / "oracle-out").exists()
