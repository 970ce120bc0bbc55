"""Pauli-sum compilation, chain presets and synthetic eigenvalue laws."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspec import (
    EigenvalueDistribution,
    ModelSpec,
    PauliTerm,
    analytic_moments,
    build_operator,
    heisenberg,
    observable_spec,
    sample_eigenvalues,
    synthetic_diagonal_observable,
    tilted_ising,
)
from qspec.errors import ResourceCapError
from qspec.models import OBSERVABLE_PRESETS

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1j], [1j, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
}


def test_single_term_z_on_first_site():
    spec = ModelSpec(2, (PauliTerm(1.0, "ZI"),))
    np.testing.assert_allclose(build_operator(spec).matrix, np.diag([1, 1, -1, -1]), atol=1e-15)


def test_single_site_x():
    spec = ModelSpec(1, (PauliTerm(1.0, "X"),))
    np.testing.assert_allclose(build_operator(spec).matrix, [[0, 1], [1, 0]], atol=1e-15)


def test_transverse_ising_matches_bitwise_construction():
    # Independent oracle: matrix elements from bit arithmetic, no kron calls.
    g = 1.05
    built = build_operator(tilted_ising(3, g=g, h=0.0)).matrix
    oracle = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        z = [1 - 2 * ((b >> (2 - i)) & 1) for i in range(3)]  # site 0 most significant
        oracle[b, b] = z[0] * z[1] + z[1] * z[2]
        for i in range(3):
            flipped = b ^ (1 << (2 - i))
            oracle[flipped, b] += g
    np.testing.assert_allclose(built, oracle, atol=1e-14)


def compiled(name, num_sites, site=0):
    return build_operator(observable_spec(name, num_sites, site)).matrix


def test_total_magnetization_small_cases():
    np.testing.assert_array_equal(compiled("total_sz", 1), np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(compiled("total_sz", 2), np.diag([2.0, 0.0, 0.0, -2.0]))
    # Diagonal entry of basis state b is N - 2*popcount(b).
    for n in (3, 4):
        expected = [n - 2.0 * b.bit_count() for b in range(1 << n)]
        np.testing.assert_array_equal(compiled("total_sz", n), np.diag(expected))


def test_total_magnetization_multiplicities():
    diag = np.real(np.diag(compiled("total_sz", 3)))
    values, counts = np.unique(diag, return_counts=True)
    assert dict(zip(values, counts)) == {-3.0: 1, -1.0: 3, 1.0: 3, 3.0: 1}


def test_site_magnetization_site_convention():
    # Site 0 is the most significant qubit; staggered signs start at +1 on site 0.
    np.testing.assert_array_equal(compiled("site_sz", 2, 0), np.diag([1.0, 1.0, -1.0, -1.0]))
    np.testing.assert_array_equal(compiled("site_sz", 2, 1), np.diag([1.0, -1.0, 1.0, -1.0]))
    np.testing.assert_array_equal(compiled("staggered_sz", 2), np.diag([0.0, 2.0, -2.0, 0.0]))


def test_pauli_product_identity():
    x = build_operator(ModelSpec(1, (PauliTerm(1.0, "X"),))).matrix
    z = build_operator(ModelSpec(1, (PauliTerm(1.0, "Z"),))).matrix
    y = build_operator(ModelSpec(1, (PauliTerm(1.0, "Y"),))).matrix
    assert np.max(np.abs(x @ z - (-1j) * y)) <= 1e-12


def test_presets_compile_hermitian():
    for spec in (tilted_ising(4), heisenberg(4)):
        op = build_operator(spec)  # HermitianOperator validates on construction
        assert op.dim == 16


def test_heisenberg_matches_kron_sum():
    built = build_operator(heisenberg(2)).matrix
    expected = sum(np.kron(PAULI[a], PAULI[a]) for a in "XYZ")
    np.testing.assert_allclose(built, expected, atol=1e-14)


def kron_sum(spec):
    # Reference compile: the dense Kronecker product of every string, summed in term order.
    total = np.zeros((1 << spec.num_sites, 1 << spec.num_sites), dtype=complex)
    for term in spec.terms:
        total += term.coefficient * reduce(np.kron, [PAULI[c].astype(complex) for c in term.factors])
    return total


@st.composite
def pauli_sums(draw):
    num_sites = draw(st.integers(1, 5))
    factors = st.text(alphabet="IXYZ", min_size=num_sites, max_size=num_sites)
    coefficient = st.floats(-3.0, 3.0, allow_nan=False)
    terms = draw(st.lists(st.builds(PauliTerm, coefficient, factors), min_size=1, max_size=8))
    return ModelSpec(num_sites, tuple(terms))


@settings(max_examples=60, deadline=None)
@given(spec=pauli_sums())
def test_flip_mask_compile_equals_kron_sum(spec):
    np.testing.assert_array_equal(build_operator(spec).matrix, kron_sum(spec))


def test_flip_mask_compile_equals_kron_sum_on_presets():
    mixed = ModelSpec(
        3, (PauliTerm(0.7, "XYZ"), PauliTerm(-1.3, "YYI"), PauliTerm(0.4, "ZXY"), PauliTerm(-2.0, "YYY"))
    )
    for spec in (tilted_ising(8), heisenberg(8), observable_spec("staggered_sz", 8), mixed):
        np.testing.assert_array_equal(build_operator(spec).matrix, kron_sum(spec))


def test_real_pauli_sums_compile_to_float64():
    # A string with an even number of Y factors has real entries (i**2 = -1).
    paired = ModelSpec(2, (PauliTerm(1.0, "YY"), PauliTerm(0.5, "XZ")))
    presets = tuple(observable_spec(name, 4) for name in OBSERVABLE_PRESETS)
    for spec in (tilted_ising(4), heisenberg(4), paired) + presets:
        op = build_operator(spec)
        assert op.matrix.dtype == np.float64
        assert op.eig.eigenvectors.dtype == np.float64


def test_pauli_sums_with_imaginary_entries_stay_complex():
    odd = ModelSpec(2, (PauliTerm(1.0, "XY"), PauliTerm(1.0, "YX")))
    for spec in (odd, ModelSpec(1, (PauliTerm(1.0, "Y"),))):
        op = build_operator(spec)
        assert op.matrix.dtype == np.complex128
        assert op.eig.eigenvectors.dtype == np.complex128
        np.testing.assert_array_equal(op.matrix, kron_sum(spec))


def test_build_operator_rejects_large_chain():
    with pytest.raises(ResourceCapError):
        build_operator(tilted_ising(12))


def test_model_spec_validation():
    with pytest.raises(ValueError):
        PauliTerm(float("nan"), "Z")
    with pytest.raises(ValueError):
        PauliTerm(1.0, "ZQ")
    with pytest.raises(ValueError):
        ModelSpec(2, (PauliTerm(1.0, "Z"),))  # wrong length
    with pytest.raises(ValueError):
        ModelSpec(2, ())


def test_model_spec_round_trips_through_dict():
    spec = tilted_ising(3)
    again = ModelSpec.from_dict(spec.to_dict())
    assert again == spec


# --- synthetic observables ---------------------------------------------------


def test_gaussian_second_moment():
    op = synthetic_diagonal_observable(EigenvalueDistribution("gaussian", 1.0), 8, seed=3)
    m2 = float(np.mean(np.real(np.diag(op.matrix)) ** 2))
    assert abs(m2 - 1.0) <= 0.05


def test_uniform_fourth_moment():
    op = synthetic_diagonal_observable(EigenvalueDistribution("uniform", 1.0), 10, seed=2)
    m4 = float(np.mean(np.real(np.diag(op.matrix)) ** 4))
    assert abs(m4 - 0.2) <= 0.01  # 5% of a**4/5 = 0.2


def test_synthetic_observable_is_traceless_and_deterministic():
    dist = EigenvalueDistribution("semicircle", 2.0)
    first = synthetic_diagonal_observable(dist, 6, seed=9)
    second = synthetic_diagonal_observable(dist, 6, seed=9)
    np.testing.assert_array_equal(first.matrix, second.matrix)
    assert abs(np.trace(first.matrix)) <= 1e-10
    assert not np.array_equal(
        first.matrix, synthetic_diagonal_observable(dist, 6, seed=10).matrix
    )


def test_sampled_laws_respect_their_support():
    rng = np.random.default_rng(1)
    semi = sample_eigenvalues(EigenvalueDistribution("semicircle", 2.0), 5000, rng)
    assert np.max(np.abs(semi)) <= 2.0
    arcs = sample_eigenvalues(EigenvalueDistribution("arcsine", 1.5), 5000, rng)
    assert np.max(np.abs(arcs)) <= 1.5


def test_sampled_moments_approach_analytic_values():
    rng = np.random.default_rng(7)
    for kind in ("semicircle", "uniform", "arcsine", "gaussian"):
        dist = EigenvalueDistribution(kind, 1.0)
        draws = sample_eigenvalues(dist, 200_000, rng)
        m2, m3, m4 = analytic_moments(dist)
        assert abs(np.mean(draws**2) - m2) <= 0.05 * m2
        assert abs(np.mean(draws**4) - m4) <= 0.05 * m4
        assert m3 == 0.0


def test_distribution_validation():
    with pytest.raises(ValueError):
        EigenvalueDistribution("lognormal", 1.0)
    with pytest.raises(ValueError):
        EigenvalueDistribution("uniform", 0.0)
    with pytest.raises(ResourceCapError):
        synthetic_diagonal_observable(EigenvalueDistribution("uniform", 1.0), 12, seed=0)
