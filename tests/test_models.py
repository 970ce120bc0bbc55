"""Pauli-sum compilation, chain presets and synthetic eigenvalue laws."""

import json
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspec.errors import ResourceCapError
from qspec.experiment import validate_config
from qspec.models import (
    EIGENVALUE_LAWS,
    OBSERVABLE_PRESETS,
    ModelSpec,
    PauliTerm,
    build_operator,
    heisenberg,
    observable_spec,
    synthetic_eigenvalues,
    tilted_ising,
)
from qspec.simcore import HermitianOperator

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


def compiled(name, num_sites, site=None):
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


@pytest.mark.parametrize("name", ["total_sz", "staggered_sz"])
def test_only_site_sz_takes_a_site(name):
    # Silently dropping the site would run a different observable than the one named.
    with pytest.raises(ValueError, match=f"only the site_sz preset takes a site, not '{name}'"):
        observable_spec(name, 3, site=7)
    assert observable_spec("site_sz", 3) == observable_spec("site_sz", 3, site=0)


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


def test_real_pauli_sums_compile_in_one_matrix():
    # The float64 sum, a few index vectors of length 2**N and the Hermiticity
    # check's tile temporaries: the check, finiteness included, works in tiles.
    # A full-size boolean matrix for the finiteness check took an eighth of a
    # matrix more, a full-size transposed copy for the check two matrices, and
    # a complex128 sum with a two-temporary check five.
    num_sites = 10
    dim = 1 << num_sites
    for spec in (tilted_ising(num_sites), heisenberg(num_sites), observable_spec("total_sz", num_sites)):
        tracemalloc.start()
        try:
            build_operator(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dim * dim * 8 + 64 * dim * 8


@pytest.mark.parametrize("dtype", [float, complex])
def test_hermiticity_check_holds_no_full_size_temporary(dtype):
    # An N=10 operator from a given matrix allocates the temporaries of one
    # 128 x 128 tile of the check at a time (2.5 tiles), finiteness included; a
    # full-size boolean matrix for the finiteness check is 4 to 8 tiles.
    dim = 1 << 10
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((dim, dim)).astype(dtype)
    if dtype is complex:
        mat += 1j * rng.standard_normal((dim, dim))
    mat = np.ascontiguousarray(mat + mat.conj().T)
    tracemalloc.start()
    try:
        HermitianOperator(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * mat.itemsize * 128 * 128


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
    # The config parser is the one reader of the dict form.
    spec = tilted_ising(3)
    document = {"model": spec.to_dict(), "observable": "total_sz", "qpe": {"l": 3, "delta": 0.3}}
    assert validate_config(json.dumps(document)).model == spec


# --- synthetic observables ---------------------------------------------------


def test_gaussian_second_moment():
    vals = synthetic_eigenvalues("gaussian", 8, seed=3)
    assert abs(float(np.mean(vals**2)) - 1.0) <= 0.05


def test_uniform_fourth_moment():
    vals = synthetic_eigenvalues("uniform", 10, seed=2)
    assert abs(float(np.mean(vals**4)) - 0.2) <= 0.01  # 5% of 1/5


def test_synthetic_observable_is_traceless_and_deterministic():
    first = synthetic_eigenvalues("semicircle", 6, seed=9)
    np.testing.assert_array_equal(first, synthetic_eigenvalues("semicircle", 6, seed=9))
    assert abs(first.sum()) <= 1e-10
    assert not np.array_equal(first, synthetic_eigenvalues("semicircle", 6, seed=10))


def test_sampled_laws_respect_their_support():
    rng = np.random.default_rng(1)
    semi = EIGENVALUE_LAWS["semicircle"][2](5000, rng)
    assert np.max(np.abs(semi)) <= 1.0
    arcs = EIGENVALUE_LAWS["arcsine"][2](5000, rng)
    assert np.max(np.abs(arcs)) <= 1.0


def test_sampled_moments_approach_analytic_values():
    rng = np.random.default_rng(7)
    for m2, m4, draw in EIGENVALUE_LAWS.values():
        draws = draw(200_000, rng)
        assert abs(np.mean(draws**2) - m2) <= 0.05 * m2
        assert abs(np.mean(draws**4) - m4) <= 0.05 * m4
        assert abs(np.mean(draws**3)) <= 0.05 * m2**1.5  # every law is symmetric: odd moments are 0


def test_distribution_validation():
    with pytest.raises(KeyError):
        synthetic_eigenvalues("lognormal", 4, seed=0)
    with pytest.raises(ResourceCapError):
        synthetic_eigenvalues("uniform", 12, seed=0)
