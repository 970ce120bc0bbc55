"""Seeded random instances and compiled observable presets shared across test modules.

Also the names only the tests read: the spelled-out ensembles, basis states,
tensor products and overlaps of the gate-level reference, and the prep
study's small-angle constant.
"""

import numpy as np
from hypothesis import strategies as st

from qspec.errors import DimensionMismatchError
from qspec.models import EIGENVALUE_LAWS, ModelSpec, PauliTerm, build_operator, observable_spec
from qspec.oracle import TransitionTable, exact_outcome_distribution
from qspec.purify import EnsembleSpec, base_state, thermal_operator_state
from qspec.simcore import EigenDecomposition, HermitianOperator, StateVector, apply_controlled_unitary, apply_unitary

INFINITE_TEMPERATURE = EnsembleSpec("infinite_temperature")
GROUND_STATE = EnsembleSpec("ground_state")


def gibbs(beta: float) -> EnsembleSpec:
    return EnsembleSpec("gibbs", float(beta))


def reflected(matrix: np.ndarray) -> np.ndarray:
    """R M R, R the chain reflection: each index with its qubit order reversed."""
    rev = _reflection_order(matrix.shape[0])
    return matrix[np.ix_(rev, rev)]


def _reflection_order(dim: int) -> np.ndarray:
    """R as a permutation of the 2**bits computational indices."""
    bits = dim.bit_length() - 1
    return np.array([int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(dim)])


def reflection_sectors(matrix: np.ndarray) -> list[np.ndarray]:
    """A matrix's blocks in the sectors of the chain reflection R, written out from their formula.

    R reverses the qubit order.  With lo the states i < R(i) and pal the states
    i = R(i), a matrix equal to R M R has the even sector ``[[M[lo,lo] +
    M[lo,R lo], sqrt(2) M[lo,pal]], [sqrt(2) M[pal,lo], M[pal,pal]]]`` and the odd
    sector ``M[lo,lo] - M[lo,R lo]``.  Any other matrix, and a one-qubit one, is
    its own single sector.
    """
    rev = _reflection_order(matrix.shape[0])
    lo = np.flatnonzero(np.arange(rev.size) < rev)
    pal = np.flatnonzero(np.arange(rev.size) == rev)
    if not lo.size or not np.array_equal(matrix, reflected(matrix)):
        return [matrix]
    root2 = np.sqrt(2.0)
    near, far = matrix[np.ix_(lo, lo)], matrix[np.ix_(lo, rev[lo])]
    even = np.block([[near + far, matrix[np.ix_(lo, pal)] * root2],
                     [matrix[np.ix_(pal, lo)] * root2, matrix[np.ix_(pal, pal)]]])
    return [even, near - far]


def basis_state(num_qubits: int, index: int) -> StateVector:
    """The computational basis state ``|index>``."""
    dim = 1 << num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(dim)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def overlap(a: StateVector, b: StateVector) -> complex:
    """Inner product <a|b>."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatchError("states live on different registers")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Joint state with a's qubits more significant than b's."""
    return StateVector(
        a.num_qubits + b.num_qubits,
        np.kron(a.amplitudes, b.amplitudes),
    )


def moment_ratio_constant(kind: str) -> float:
    """The small-angle ratio P1/(1 - F) = m2^2/m4 of the law ``kind``, from its table moments."""
    m2, m4, _ = EIGENVALUE_LAWS[kind]
    return m2 * m2 / m4


def plus_state(num_qubits: int) -> StateVector:
    """Uniform superposition over all computational states."""
    dim = 1 << num_qubits
    return StateVector(num_qubits, np.full(dim, 1.0 / np.sqrt(dim)))


def random_state(num_qubits: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def at_infinite_temperature(operator: HermitianOperator) -> tuple:
    """The triple (operator, H = 0's decomposition, infinite temperature); that base state reads only H's size.

    The decomposition of the zero matrix is written down, so building the triple calls no ``eigh``.
    """
    return operator, EigenDecomposition(np.zeros(operator.dim), np.eye(operator.dim)), INFINITE_TEMPERATURE


def random_hermitian(num_qubits: int, seed: int) -> HermitianOperator:
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = (m + m.conj().T) / 2
    return HermitianOperator(m - np.trace(m) / dim * np.eye(dim))


def random_real_symmetric(num_qubits: int, seed: int) -> HermitianOperator:
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    m = rng.normal(size=(dim, dim))
    m = (m + m.T) / 2
    return HermitianOperator(m - np.trace(m) / dim * np.eye(dim))


def preset_observable(name: str, num_sites: int, site: int | None = None) -> HermitianOperator:
    """An observable preset (total_sz, site_sz, staggered_sz) compiled from its Pauli sum."""
    return build_operator(observable_spec(name, num_sites, site))


def complex_copy(operator: HermitianOperator) -> HermitianOperator:
    """The same operator with its matrix held as complex128, so it takes the complex eigh.

    The constructor stores a real matrix as float64; the copy bypasses that on
    purpose, to compare the real path against the complex one on equal entries.
    """
    twin = HermitianOperator(operator.matrix)
    object.__setattr__(twin, "matrix", operator.matrix.astype(complex))
    return twin


@st.composite
def real_pauli_sums(draw, num_sites: int) -> ModelSpec:
    """Pauli sums with an even number of Y factors per string, so every entry is real."""
    factors = st.text(alphabet="IXYZ", min_size=num_sites, max_size=num_sites).map(
        lambda f: f if f.count("Y") % 2 == 0 else f.replace("Y", "Z", 1)
    )
    coefficient = st.floats(-2.0, 2.0, allow_nan=False)
    terms = draw(st.lists(st.builds(PauliTerm, coefficient, factors), min_size=1, max_size=6))
    return ModelSpec(num_sites, tuple(terms))


def gibbs_purification(hamiltonian: HermitianOperator, beta: float) -> np.ndarray:
    """The Gibbs base state built without the ensemble populations: normalized exp(-beta*H/2).

    Eigenvalues are shifted by the ground energy before exponentiation, so a
    large beta cannot overflow, and the matrix is normalized by its own norm.
    """
    vals, vecs = np.linalg.eigh(hamiltonian.matrix)
    with np.errstate(over="ignore"):
        matrix = (vecs * np.exp(-0.5 * beta * (vals - vals[0]))) @ vecs.conj().T
    return matrix.reshape(-1) / np.linalg.norm(matrix)


def ground_pair(hamiltonian: HermitianOperator) -> np.ndarray:
    """The ground-state base state as ``kron(psi_0, psi_0*)``: the matrix psi_0 psi_0^dagger."""
    psi0 = np.linalg.eigh(hamiltonian.matrix)[1][:, 0]
    return np.kron(psi0, psi0.conj())


def purified_phase_weights(eig_h, operator, ensemble) -> np.ndarray:
    """The circuit's route to the weights: |c_nm|^2 of the purified state, entry (n, m) at gap e_n - e_m.

    ``c = V^dagger M V`` writes the doubled-register matrix M of the prepared
    state as ``V c V^dagger``, the form in which the counter-propagating
    circuit (U on copy a, -H^T on copy b: ``M -> U M U^dagger``) multiplies
    each entry by a phase.
    """
    prepared = thermal_operator_state(operator, eig_h, ensemble)
    vecs = eig_h.eigenvectors
    matrix = prepared.amplitudes.reshape(eig_h.dim, eig_h.dim)
    return np.abs(vecs.conj().T @ matrix @ vecs) ** 2


def directed_transitions(table) -> tuple[np.ndarray, np.ndarray]:
    """A pair table unfolded into its ``table.kept`` directed transitions: (gaps, weights).

    Row n <= m gives n -> m at ``+gap`` with its column-0 weight and m -> n at
    ``-gap`` with its column-1 weight; a pruned direction, which reads 0, is left out.
    """
    gaps = np.concatenate((table.gaps, -table.gaps))
    weights = np.concatenate((table.weights[:, 0], table.weights[:, 1]))
    kept = weights > 0
    return gaps[kept], weights[kept]


def dense_phase_weights(table, dim: int) -> np.ndarray:
    """A transition table's normalized weights as a (dim, dim) matrix oriented as above.

    Transition n -> m sits at ``e_m - e_n``, so it lands at (m, n): a pair
    row's column 0 at (m, n) and its column 1 at (n, m).  Pruned entries read 0.
    """
    initial, final = np.divmod(table.index, dim)
    dense = np.zeros((dim, dim))
    dense[final, initial] = table.weights[:, 0] / table.mass
    off = initial != final
    dense[initial[off], final[off]] = table.weights[off, 1] / table.mass
    return dense


def direct_transition_sum(table, points: np.ndarray, term) -> np.ndarray:
    """Sum of ``weight * term(points, gap)`` over the directed transitions, one at a time.

    The reference for ``oracle._transition_sum``: no tiles and no mirrored
    points, each transition at its own signed gap.
    """
    total = np.zeros(points.shape, dtype=complex)
    for gap, weight in zip(*directed_transitions(table)):
        total += weight * term(points, gap)
    return total


def leakage_kernel(offsets: np.ndarray, num_bits: int) -> np.ndarray:
    """Squared leakage amplitude at the given bin offsets (2**l periodic): the tests' reference kernel.

    Written through the sinc ratio sin(pi r)/(2**l sin(pi r / 2**l)) squared,
    which evaluates the removable singularity at zero offset exactly.  It
    shares no arithmetic with the split-phase form of ``exact_outcome_distribution``.
    """
    dim = 1 << num_bits
    reduced = offsets - dim * np.round(offsets / dim)
    return (np.sinc(reduced) / np.sinc(reduced / dim)) ** 2


def leakage_row(gap: float, num_bits: int, delta: float) -> np.ndarray:
    """The package's kernel over every bin: the outcome distribution of one unit-weight transition at ``gap``.

    A negative gap is the reverse direction of a pair row at ``-gap``, so it is
    read through the mirrored bins.
    """
    weights = [[1.0, 0.0]] if gap >= 0 else [[0.0, 1.0]]
    table = TransitionTable(np.array([abs(gap)]), np.array(weights), 1.0, np.array([1]), 4)
    return exact_outcome_distribution(table, num_bits, delta).probabilities


def gate_by_gate_prep(operator, eig_h, ensemble, phi):
    """The register-level prep circuit that ``simulate_prep_circuit`` replaced.

    The ancilla is appended as the least significant qubit: Hadamard, then
    ``exp(1j*phi*O)`` on copy a controlled by it, then Hadamard.  Returns the
    same ``(P1, accepted branch)`` pair.
    """
    base = base_state(eig_h, ensemble)
    ancilla = base.num_qubits
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    state = apply_unitary(tensor_product(base, basis_state(1, 0)), hadamard, (ancilla,))
    rotation = operator.eig.propagator(phi)
    state = apply_controlled_unitary(state, ancilla, rotation, range(ancilla // 2))  # copy a
    state = apply_unitary(state, hadamard, (ancilla,))
    accepted = state.amplitudes.reshape(-1, 2)[:, 1]
    p1 = float(np.linalg.norm(accepted) ** 2)
    return p1, StateVector(ancilla, accepted / np.sqrt(p1))
