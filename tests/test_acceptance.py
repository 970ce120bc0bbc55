"""End-to-end acceptance checks, one test per criterion.

Each test prints one pass/fail line with its measured figure of merit, so
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
"""

import time

import numpy as np

from helpers import (
    GROUND_STATE,
    INFINITE_TEMPERATURE,
    at_infinite_temperature,
    directed_transitions,
    gibbs,
    leakage_row,
    moment_ratio_constant,
    overlap,
    preset_observable,
    random_hermitian,
    random_real_symmetric,
)
from qspec.models import build_operator, synthetic_eigenvalues, tilted_ising
from qspec.oracle import distribution_distance, exact_outcome_distribution, transition_weights
from qspec.purify import base_state, thermal_operator_state
from qspec.qpe import plan_resolution, run_qpe, sample_outcomes
from qspec.simcore import eig_hermitian
from qspec.stateprep import choose_phi, moments, preparation_fidelity, simulate_prep_circuit, spectral_weights

LAWS = ("semicircle", "uniform", "arcsine", "gaussian")
CONSTANTS = (0.5, 5 / 9, 2 / 3, 1 / 3)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_moment_ratio_constants():
    start = time.perf_counter()
    worst_exact = 0.0
    for kind, constant in zip(LAWS, CONSTANTS):
        got = moment_ratio_constant(kind)
        worst_exact = max(worst_exact, abs(got - constant))

    # Small-angle law on sampled spectra: the exactly computed ratio
    # P1/(1-F) at phi = 1e-2 must match the moment prediction
    # m2^2 / (m4 - m3^2/m2) of the same synthetic observable to 1e-3
    # (the cubic term carries the finite-sample asymmetry).
    worst_mc = 0.0
    phi = 1e-2
    for index, kind in enumerate(LAWS):
        vals = synthetic_eigenvalues(kind, 10, seed=index)
        q = np.full(vals.size, 1.0 / vals.size)
        ms = moments(vals, q)
        p1 = float(np.mean(np.sin(phi * vals / 2) ** 2))
        fidelity = preparation_fidelity(vals, q, phi)
        ratio = p1 / (1 - fidelity)
        predicted = ms.m2**2 / (ms.m4 - ms.m3**2 / ms.m2)
        worst_mc = max(worst_mc, abs(ratio - predicted))
    elapsed = time.perf_counter() - start

    passed = worst_exact <= 1e-12 and worst_mc <= 1e-3 and elapsed < 10.0
    _report(
        1,
        passed,
        f"constants off by {worst_exact:.2e} (tol 1e-12), small-angle ratio off by "
        f"{worst_mc:.2e} (tol 1e-3), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_circuit_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    presets = (
        lambda n: preset_observable("total_sz", n),
        lambda n: preset_observable("site_sz", n, 0),
        lambda n: preset_observable("staggered_sz", n),
    )
    worst = 0.0
    for instance in range(25):
        num_sites = int(rng.integers(1, 4))
        num_bits = int(rng.integers(3, 7))
        ham = random_real_symmetric(num_sites, seed=5000 + instance)
        obs = presets[instance % 3](num_sites)
        delta = float(rng.uniform(0.05, 1.0))
        prepared = thermal_operator_state(obs, ham.eig, INFINITE_TEMPERATURE)
        circuit = run_qpe(prepared, ham.eig, num_bits, delta)
        table = transition_weights(ham.eig, obs, INFINITE_TEMPERATURE)
        reference = exact_outcome_distribution(table, num_bits, delta)
        worst = max(worst, distribution_distance(circuit, reference, "max_abs"))

    # The oracle shares no purification code with the circuit, so the other
    # ensembles are checked too: Gibbs at three temperatures and the ground
    # state, each with a real and a complex (no time-reversal symmetry) H.
    ensembles = (gibbs(0.3), gibbs(1.0), gibbs(3.0), GROUND_STATE)
    worst_tv = 0.0
    for instance in range(24):
        num_sites = int(rng.integers(1, 4))
        num_bits = int(rng.integers(3, 7))
        make = random_hermitian if instance % 2 else random_real_symmetric
        ham = make(num_sites, seed=6000 + instance)
        obs = presets[instance % 3](num_sites) if instance % 4 < 2 else make(num_sites, seed=7000 + instance)
        ensemble = ensembles[(instance // 2) % 4]
        delta = float(rng.uniform(0.05, 1.0))
        circuit = run_qpe(thermal_operator_state(obs, ham.eig, ensemble), ham.eig, num_bits, delta)
        reference = exact_outcome_distribution(transition_weights(ham.eig, obs, ensemble), num_bits, delta)
        worst_tv = max(worst_tv, distribution_distance(circuit, reference))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-10 and worst_tv <= 1e-10 and elapsed < 60.0
    _report(2, passed, f"25 infinite-temperature instances, max |P_circuit - P_oracle| = {worst:.2e} "
                       f"(tol 1e-10); 24 Gibbs/ground-state instances, max TV = {worst_tv:.2e} "
                       f"(tol 1e-10), {elapsed:.1f}s (limit 60s)")


def test_criterion_3_golden_rule_identity():
    worst = 0.0
    for seed in range(10):
        num_sites = 1 + seed % 3
        ham = random_real_symmetric(num_sites, seed=300 + seed)
        obs = random_real_symmetric(num_sites, seed=400 + seed)
        eig = eig_hermitian(ham)
        # Purification route, through the actual doubled-register state.
        state = thermal_operator_state(obs, ham.eig, INFINITE_TEMPERATURE)
        matrix = state.amplitudes.reshape(obs.dim, obs.dim)
        from_state = np.abs(eig.eigenvectors.conj().T @ matrix @ eig.eigenvectors.conj()) ** 2
        # Direct matrix elements of the observable.
        elements = eig.eigenvectors.conj().T @ obs.matrix @ eig.eigenvectors
        direct = np.abs(elements) ** 2 / np.trace(obs.matrix @ obs.matrix).real
        worst = max(worst, float(np.max(np.abs(from_state - direct))))
    passed = worst <= 1e-10
    _report(3, passed, f"max weight mismatch {worst:.2e} over 10 instances (tol 1e-10)")


def test_criterion_4_kernel_bound():
    # Offsets in [-2**l, 2**l] at step 0.01.  The kernel has period 2**l, so the
    # row of one transition at fractional phase p holds it at every offset p + k:
    # in bin f = -k mod 2**l.
    worst = np.inf
    delta = 0.9
    for num_bits in range(1, 9):
        dim = 1 << num_bits
        for step in range(100):
            phase = step / 100
            row = leakage_row(2 * np.pi * phase / (delta * dim), num_bits, delta)
            shifts = np.arange(-dim, dim + 1)
            shifts = shifts[phase + shifts <= dim]
            kernel = row[-shifts % dim]
            worst = min(worst, float(np.min(kernel - np.sinc(phase + shifts) ** 2)))
    passed = worst >= -1e-12
    _report(4, passed, f"min(kernel - sinc^2) = {worst:.2e} over l in 1..8 (floor -1e-12)")


def test_criterion_5_state_prep_closed_forms():
    presets = (
        preset_observable("total_sz", 4),
        preset_observable("site_sz", 4, 1),
        preset_observable("staggered_sz", 4),
    )
    worst_consistency = 0.0
    worst_fidelity = 1.0
    for obs in presets:
        triple = at_infinite_temperature(obs)
        spectrum = spectral_weights(*triple)
        target = thermal_operator_state(*triple)
        for phi in (0.05, 0.3, 1.1):
            p1, post = simulate_prep_circuit(*triple, phi)
            fidelity = abs(overlap(target, post)) ** 2
            vals = np.real(np.linalg.eigvalsh(obs.matrix))
            p1_closed = float(np.mean(np.sin(phi * vals / 2) ** 2))
            worst_consistency = max(
                worst_consistency,
                abs(p1 - p1_closed),
                abs(fidelity - preparation_fidelity(*spectrum, phi)),
            )
        phi_star = choose_phi(moments(*spectrum), 0.01)
        worst_fidelity = min(worst_fidelity, preparation_fidelity(*spectrum, phi_star))
    passed = worst_consistency <= 1e-10 and worst_fidelity >= 1 - 0.012
    _report(
        5,
        passed,
        f"circuit vs closed form off by {worst_consistency:.2e} (tol 1e-10), "
        f"realized F at chosen angle {worst_fidelity:.5f} (floor 0.988)",
    )


def test_criterion_6_resolution_planning():
    rng = np.random.default_rng(66)
    ok = True
    for _ in range(100):
        omega = float(rng.uniform(0.2, 200.0))
        gamma = omega * 10 ** float(rng.uniform(-4, -0.01))
        plan = plan_resolution(omega, gamma)
        scale = plan.delta * (1 << plan.num_bits) / (2 * np.pi)
        ok &= scale >= 1 / gamma - 1e-9
        ok &= scale <= ((1 << plan.num_bits) - 1) / omega + 1e-9
        ok &= plan_resolution(omega, gamma / 2).num_bits - plan.num_bits <= 1
    _report(6, ok, "100 random (omega_max, gamma) pairs satisfy both inequalities; "
                   "halving gamma adds at most one bit")


def test_criterion_7_sampling_fidelity():
    ham = build_operator(tilted_ising(2))
    prepared = thermal_operator_state(preset_observable("total_sz", 2), ham.eig, INFINITE_TEMPERATURE)
    exact = run_qpe(prepared, ham.eig, 6, np.pi / 16)
    worst = 0.0
    for seed in range(20):
        empirical = sample_outcomes(exact, shots=100_000, seed=seed)
        worst = max(worst, distribution_distance(empirical, exact))
    again = sample_outcomes(exact, shots=100_000, seed=0)
    reproducible = np.array_equal(
        again.probabilities, sample_outcomes(exact, shots=100_000, seed=0).probabilities
    )
    passed = worst <= 0.02 and reproducible
    _report(7, passed, f"20 seeds at 1e5 shots, worst TV = {worst:.4f} (tol 0.02), "
                       f"seed-identical histograms: {reproducible}")


def test_criterion_8_spectral_peak_agreement():
    ham = build_operator(tilted_ising(3))
    obs = preset_observable("total_sz", 3)
    num_bits, dim = 8, 256
    span = float(np.ptp(eig_hermitian(ham).eigenvalues))
    delta = 2 * np.pi * (dim // 2 - 1) / (dim * span)  # two-sided band fits without aliasing
    gamma = 2 * np.pi / (delta * dim)
    table = transition_weights(ham.eig, obs, INFINITE_TEMPERATURE)
    dist = exact_outcome_distribution(table, num_bits, delta)

    p = dist.probabilities
    local_max_bins = {
        f for f in range(dim) if p[f] >= p[(f - 1) % dim] and p[f] >= p[(f + 1) % dim]
    }

    gaps, flat = directed_transitions(table)
    flat = flat / table.mass
    order = np.argsort(gaps)
    peaks: list[tuple[float, float]] = []
    for gap, weight in zip(gaps[order], flat[order]):
        if peaks and abs(gap - peaks[-1][0]) < 1e-9:
            peaks[-1] = (peaks[-1][0], peaks[-1][1] + weight)
        else:
            peaks.append((gap, weight))

    scale = delta * dim / (2 * np.pi)
    misses = []
    for gap, weight in peaks:
        if weight < 0.05:
            continue
        mapped = int(np.round(scale * gap)) % dim
        if not any((mapped + off) % dim in local_max_bins for off in (-1, 0, 1)):
            misses.append((gap, weight))
    passed = not misses
    checked = sum(1 for _, w in peaks if w >= 0.05)
    _report(8, passed, f"{checked} Lorentzian peaks with weight >= 0.05 all matched a local "
                       f"maximum of P(f) within one bin" if passed else f"missed peaks: {misses}")


def test_criterion_9_ensemble_limits():
    ham = build_operator(tilted_ising(3))
    pair = base_state(ham.eig, INFINITE_TEMPERATURE)
    worst_pair = float(np.max(np.abs(base_state(ham.eig, gibbs(0.0)).amplitudes - pair.amplitudes)))

    obs = preset_observable("total_sz", 3)
    num_bits, dim = 6, 64
    beta = 50.0
    eig = eig_hermitian(ham)
    line_gaps = eig.eigenvalues - eig.eigenvalues[0]
    delta = 2 * np.pi * (dim - 1) / (dim * float(line_gaps[-1]))  # one-sided lines fit
    prepared = thermal_operator_state(obs, ham.eig, gibbs(beta))
    dist = run_qpe(prepared, ham.eig, num_bits, delta)

    table = transition_weights(ham.eig, obs, gibbs(beta))
    gaps, flat = directed_transitions(table)
    flat = flat / table.mass
    scale = delta * dim / (2 * np.pi)
    concentrated = True
    lines = 0
    for line in np.unique(np.round(line_gaps, 9)):
        weight = float(flat[np.abs(gaps - line) < 1e-9].sum())
        if weight < 1e-12:
            continue
        lines += 1
        mapped = int(np.round(scale * line)) % dim
        window = [(mapped + off) % dim for off in range(-2, 3)]
        concentrated &= dist.probabilities[window].sum() >= 0.8 * weight

    passed = worst_pair <= 1e-12 and concentrated
    _report(9, passed, f"beta=0 purification off the pair state by {worst_pair:.2e} "
                       f"(tol 1e-12); {lines} ground-state lines each keep >= 80% of "
                       f"their weight within two bins at l = 6")
