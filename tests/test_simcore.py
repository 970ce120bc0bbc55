"""Register conventions, gates and marginals of the dense simulator core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import plus_state, random_hermitian, random_real_symmetric, random_state
from qspec import (
    HermitianOperator,
    StateVector,
    apply_controlled_unitary,
    apply_unitary,
    basis_state,
    eig_hermitian,
    inverse_qft,
    register_distribution,
    tensor_product,
)
from qspec.errors import (
    DimensionMismatchError,
    HermiticityError,
    NormalizationError,
    RegisterError,
    UnitarityError,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


# --- state vectors and tensor products -------------------------------------


def test_state_vector_rejects_wrong_length():
    with pytest.raises(DimensionMismatchError):
        StateVector(2, np.array([1.0, 0.0]))


def test_state_vector_rejects_unnormalized_when_flagged():
    with pytest.raises(NormalizationError):
        StateVector(1, np.array([1.0, 1.0]))


def test_tensor_product_basis_states():
    result = tensor_product(basis_state(1, 0), basis_state(1, 1))
    np.testing.assert_array_equal(result.amplitudes, [0, 1, 0, 0])


def test_tensor_product_plus_zero():
    result = tensor_product(plus_state(1), basis_state(1, 0))
    expected = np.array([1, 0, 1, 0]) / np.sqrt(2)
    np.testing.assert_allclose(result.amplitudes, expected, atol=1e-15)


def test_tensor_product_matches_double_loop():
    a = random_state(2, seed=11)
    b = random_state(2, seed=12)
    joint = tensor_product(a, b)
    naive = np.empty(16, dtype=complex)
    for i in range(4):
        for j in range(4):
            naive[i * 4 + j] = a.amplitudes[i] * b.amplitudes[j]
    np.testing.assert_allclose(joint.amplitudes, naive, atol=1e-15)
    assert abs(joint.norm() - a.norm() * b.norm()) < 1e-12


# --- eigendecomposition ------------------------------------------------------


def test_eigh_pauli_z():
    eig = eig_hermitian(HermitianOperator(PAULI_Z))
    np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 0]), [0, 1], atol=1e-15)
    np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 1]), [1, 0], atol=1e-15)


def test_eigh_pauli_x():
    eig = eig_hermitian(HermitianOperator(PAULI_X))
    np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-15)
    s = 1 / np.sqrt(2)
    # Eigenvectors are defined up to phase; compare component magnitudes and
    # check the eigen equation directly.
    np.testing.assert_allclose(np.abs(eig.eigenvectors), [[s, s], [s, s]], atol=1e-12)
    for k in range(2):
        v = eig.eigenvectors[:, k]
        np.testing.assert_allclose(PAULI_X @ v, eig.eigenvalues[k] * v, atol=1e-12)


def test_eigh_reconstruction_random_symmetric():
    op = random_hermitian(3, seed=5)
    eig = eig_hermitian(op)
    rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert np.max(np.abs(rebuilt - op.matrix)) <= 1e-9
    unit = eig.eigenvectors.conj().T @ eig.eigenvectors
    assert np.max(np.abs(unit - np.eye(8))) <= 1e-10


def test_eigh_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_operator_rejects_non_finite_entries():
    for bad in (np.inf, np.nan):
        with pytest.raises(HermiticityError):
            HermitianOperator(np.diag([1.0, bad]))


def test_eigh_deterministic():
    op = random_hermitian(3, seed=6)
    first = eig_hermitian(op)
    second = eig_hermitian(op)
    np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
    np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


# --- evolution: the exact propagator applied as a register unitary --------------


def test_evolve_zero_time_is_identity():
    state = random_state(2, seed=21)
    out = apply_unitary(state, random_hermitian(2, seed=22).eig.propagator(0.0), (0, 1))
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_evolve_pauli_z_quarter_period():
    # Each eigenbranch picks up exp(1j*eigenvalue*t).
    out = apply_unitary(plus_state(1), eig_hermitian(PAULI_Z).propagator(np.pi / 2), (0,))
    expected = 1j * np.array([1, -1]) / np.sqrt(2)
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)


def test_evolve_forward_backward_composes_to_identity():
    state = random_state(3, seed=23)
    eig = random_hermitian(3, seed=24).eig
    forward = apply_unitary(state, eig.propagator(0.37), range(3))
    roundtrip = apply_unitary(forward, eig.propagator(-0.37), range(3))
    assert np.max(np.abs(roundtrip.amplitudes - state.amplitudes)) <= 1e-12


def test_evolve_composition_law():
    state = random_state(2, seed=25)
    eig = random_hermitian(2, seed=26).eig
    once = apply_unitary(state, eig.propagator(0.9 + 0.4), (0, 1))
    twice = apply_unitary(apply_unitary(state, eig.propagator(0.9), (0, 1)), eig.propagator(0.4), (0, 1))
    assert np.max(np.abs(once.amplitudes - twice.amplitudes)) <= 1e-10


def test_evolve_is_diagonal_on_eigenvectors():
    ham = random_hermitian(2, seed=27)
    eig = eig_hermitian(ham)
    t = 0.61
    for k in range(4):
        state = StateVector(2, eig.eigenvectors[:, k])
        out = apply_unitary(state, eig.propagator(-t), (0, 1))
        expected = np.exp(-1j * eig.eigenvalues[k] * t) * eig.eigenvectors[:, k]
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-12


def test_evolve_register_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_unitary(random_state(2, seed=28), eig_hermitian(PAULI_Z).propagator(1.0), (0, 1))


def test_evolve_acts_only_on_its_register():
    # Propagating qubit 1 of a 3-qubit state equals the kron-expanded unitary.
    state = random_state(3, seed=29)
    eig = random_hermitian(1, seed=30).eig
    t = 0.83
    out = apply_unitary(state, eig.propagator(t), (1,))
    full = np.kron(np.kron(np.eye(2), eig.propagator(t)), np.eye(2))
    np.testing.assert_allclose(out.amplitudes, full @ state.amplitudes, atol=1e-13)


# --- controlled unitaries -------------------------------------------------------


def test_controlled_unitary_idle_when_control_zero():
    state = tensor_product(basis_state(1, 0), basis_state(1, 0))
    out = apply_controlled_unitary(state, 0, PAULI_X, (1,))
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_controlled_unitary_acts_as_cnot():
    state = tensor_product(basis_state(1, 1), basis_state(1, 0))
    out = apply_controlled_unitary(state, 0, PAULI_X, (1,))
    np.testing.assert_allclose(out.amplitudes, basis_state(2, 3).amplitudes, atol=1e-15)


def test_controlled_unitary_rejects_overlap_and_non_unitary():
    state = random_state(2, seed=31)
    with pytest.raises(RegisterError):
        apply_controlled_unitary(state, 0, PAULI_X, (0,))
    with pytest.raises(UnitarityError):
        apply_controlled_unitary(state, 0, np.array([[1.0, 0.0], [0.0, 2.0]]), (1,))
    with pytest.raises(UnitarityError):
        apply_unitary(state, np.array([[1.0, 1.0], [0.0, 1.0]]), (0,))


# --- Fourier transforms -----------------------------------------------------------


def test_inverse_qft_single_qubit_is_hadamard():
    out = inverse_qft(basis_state(1, 0), (0,))
    np.testing.assert_allclose(out.amplitudes, plus_state(1).amplitudes, atol=1e-15)


def test_inverse_qft_uniform_maps_to_zero():
    out = inverse_qft(plus_state(3), range(3))
    np.testing.assert_allclose(out.amplitudes, basis_state(3, 0).amplitudes, atol=1e-14)


def test_inverse_qft_phase_gradient_maps_to_that_frequency():
    k0 = 3
    xs = np.arange(8)
    amps = np.exp(2j * np.pi * k0 * xs / 8) / np.sqrt(8)
    state = StateVector(3, amps)
    out = inverse_qft(state, range(3))
    # Independent route: apply the 8x8 matrix directly to the input vector.
    direct = (np.exp(-2j * np.pi * np.outer(xs, xs) / 8) / np.sqrt(8)) @ amps
    np.testing.assert_allclose(out.amplitudes, direct, atol=1e-13)
    assert np.max(np.abs(out.amplitudes - basis_state(3, k0).amplitudes)) <= 1e-12


def test_inverse_qft_rejects_empty_register():
    with pytest.raises(RegisterError):
        inverse_qft(plus_state(2), ())


def dense_fourier(num_bits, sign):
    # The dense exp(sign 2 pi i x k / 2**l) / sqrt(2**l) matrix, its phases reduced exactly mod 2**l.
    dim = 1 << num_bits
    turns = np.outer(np.arange(dim), np.arange(dim)) % dim
    return np.exp(sign * 2j * np.pi * turns / dim) / np.sqrt(dim)


@pytest.mark.parametrize("num_bits", [1, 3, 10])
def test_qft_inverts_inverse_qft(num_bits):
    # The FFT-based inverse QFT is the dense sign -1 matrix; the dense sign +1 one undoes it.
    state = random_state(num_bits, seed=40 + num_bits)
    inverse = inverse_qft(state, range(num_bits))
    assert np.max(np.abs(inverse.amplitudes - dense_fourier(num_bits, -1) @ state.amplitudes)) <= 1e-12
    out = dense_fourier(num_bits, +1) @ inverse.amplitudes
    assert np.max(np.abs(out - state.amplitudes)) <= 1e-12


def dense_register_fourier(state, register, sign):
    # Reference: the dense Fourier matrix on the register, index by index.
    n, k = state.num_qubits, len(register)
    fourier = dense_fourier(k, sign)
    out = np.zeros(1 << n, dtype=complex)
    for idx, amp in enumerate(state.amplitudes):
        value = sum(((idx >> (n - 1 - q)) & 1) << (k - 1 - i) for i, q in enumerate(register))
        rest = idx
        for q in register:
            rest &= ~(1 << (n - 1 - q))
        for x in range(1 << k):
            target = rest | sum(((x >> (k - 1 - i)) & 1) << (n - 1 - q) for i, q in enumerate(register))
            out[target] += fourier[x, value] * amp
    return out


@pytest.mark.parametrize("register", [(2, 0), (1,), (0, 2, 1), (2, 1, 0)])
def test_fourier_transforms_match_dense_matrix_on_any_register(register):
    state = random_state(3, seed=45)
    inverse = inverse_qft(state, register)
    assert np.max(np.abs(inverse.amplitudes - dense_register_fourier(state, register, -1))) <= 1e-14
    roundtrip = dense_register_fourier(inverse, register, +1)
    assert np.max(np.abs(roundtrip - state.amplitudes)) <= 1e-14


# --- marginals -----------------------------------------------------------------


def test_register_distribution_bell_state():
    bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    np.testing.assert_allclose(register_distribution(bell, (0,)), [0.5, 0.5], atol=1e-15)


def test_register_distribution_product_state():
    np.testing.assert_allclose(
        register_distribution(basis_state(2, 1), (1,)), [0.0, 1.0], atol=1e-15
    )


def test_register_distribution_matches_brute_force():
    state = random_state(3, seed=50)
    for register in [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (2, 0), (0, 1, 2)]:
        probs = register_distribution(state, register)
        brute = np.zeros(1 << len(register))
        for idx, amp in enumerate(state.amplitudes):
            bits = [(idx >> (2 - q)) & 1 for q in register]
            value = int("".join(map(str, bits)), 2)
            brute[value] += abs(amp) ** 2
        np.testing.assert_allclose(probs, brute, atol=1e-14)
        assert probs.min() >= 0
        assert abs(probs.sum() - 1.0) <= 1e-10


# --- norm preservation and determinism --------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gates_preserve_norm(seed):
    state = random_state(3, seed=seed)
    ham = random_hermitian(1, seed=seed + 1)
    for out in (
        apply_unitary(state, ham.eig.propagator(1.3), (1,)),
        apply_controlled_unitary(state, 0, PAULI_X, (2,)),
        inverse_qft(state, (0, 1)),
    ):
        assert abs(out.norm() - 1.0) <= 1e-12


def test_operations_are_bit_deterministic():
    state = random_state(3, seed=60)
    ham = random_hermitian(3, seed=61)
    first = apply_unitary(state, eig_hermitian(ham).propagator(0.77), range(3))
    second = apply_unitary(state, eig_hermitian(ham).propagator(0.77), range(3))
    np.testing.assert_array_equal(first.amplitudes, second.amplitudes)


# --- dtype contract: real stays real, gate operations promote ---------------------------


def test_operator_with_zero_imaginary_part_is_stored_real():
    real = HermitianOperator(PAULI_Z)  # complex128 entries, all imaginary parts zero
    assert real.matrix.dtype == np.float64
    assert real.eig.eigenvectors.dtype == np.float64
    assert HermitianOperator(np.eye(2, dtype=int)).matrix.dtype == np.float64
    pauli_y = HermitianOperator(np.array([[0, -1j], [1j, 0]]))
    assert pauli_y.matrix.dtype == np.complex128
    assert pauli_y.eig.eigenvectors.dtype == np.complex128


def test_state_vector_keeps_real_amplitudes_real():
    assert StateVector(1, np.array([1, 0])).amplitudes.dtype == np.float64
    assert basis_state(2, 1).amplitudes.dtype == np.float64
    assert plus_state(2).amplitudes.dtype == np.float64
    assert StateVector(1, np.array([1.0 + 0j, 0.0])).amplitudes.dtype == np.complex128


def test_apply_function_on_real_eigenvectors_matches_complex_product():
    eig = random_real_symmetric(3, seed=8).eig
    assert eig.eigenvectors.dtype == np.float64
    fn = lambda lam: np.exp(0.7j * lam)  # noqa: E731
    split = eig.apply_function(fn)
    assert split.dtype == np.complex128
    vecs = eig.eigenvectors.astype(complex)
    np.testing.assert_allclose(split, (vecs * fn(eig.eigenvalues)) @ vecs.conj().T, atol=1e-14)
    assert eig.apply_function(np.cos).dtype == np.float64


def _real_state(num_qubits: int, seed: int) -> StateVector:
    amps = np.random.default_rng(seed).normal(size=1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


@pytest.mark.parametrize(
    "gate",
    [
        lambda s, u: apply_unitary(s, u, (2, 0)),
        lambda s, u: apply_controlled_unitary(s, 1, u, (2, 0)),
        lambda s, u: apply_unitary(s, eig_hermitian(np.diag([0.3, -0.1, 0.7, 0.2])).propagator(-0.9), (1, 3)),
        lambda s, u: inverse_qft(s, (3, 0, 2)),
        lambda s, u: apply_unitary(s, dense_fourier(2, +1), (1, 2)),
    ],
    ids=["apply_unitary", "controlled_unitary", "evolve", "inverse_qft", "qft"],
)
def test_gate_ops_promote_a_real_state_exactly(gate):
    unitary = eig_hermitian(random_hermitian(2, seed=6)).propagator(0.8)
    real = _real_state(4, seed=9)
    assert real.amplitudes.dtype == np.float64
    promoted = StateVector(4, real.amplitudes.astype(complex))
    out = gate(real, unitary)
    assert out.amplitudes.dtype == np.complex128
    np.testing.assert_array_equal(out.amplitudes, gate(promoted, unitary).amplitudes)
