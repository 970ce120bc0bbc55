"""Dense state-vector simulation on labelled qubit registers.

Conventions fixed here and relied on by every other module:

* Qubit 0 is the most significant bit of a computational index, so on
  three qubits the state ``|x=2>`` is ``|010>``.  ``tensor_product(a, b)``
  places a's qubits above b's.
* A register is a sequence of distinct qubit positions; its computational
  value is read most-significant-first along that sequence.
* ``inverse_qft`` applies the matrix ``2**(-l/2) * exp(-2j*pi*x*k / 2**l)``,
  so a phase gradient ``exp(+2j*pi*k0*x / 2**l)`` across the register maps
  onto the basis state ``|k0>``.  It is computed as an orthonormal FFT
  along the register, never as a dense Fourier matrix; phase estimation
  applies the same transform to its register axis.

Real inputs stay real.  A ``HermitianOperator`` whose entries all have an
exactly zero imaginary part stores a float64 matrix (a Y-free Pauli sum
compiles to one), so its ``eigh`` is the real-symmetric one and its
eigenvectors are real; other operators are complex128.  A ``StateVector``
keeps float64 amplitudes when given real ones.  The gate operations
(``apply_unitary``, ``apply_controlled_unitary`` and ``inverse_qft``)
always return complex128 amplitudes, promoting a real state before the
phases reach it, so no imaginary part is ever cast away.

All operations are pure functions of immutable inputs: amplitude arrays and
operator matrices are never mutated in place and identical inputs produce
bit-identical outputs.  A ``HermitianOperator`` therefore memoises its
spectral decomposition (``.eig``): every consumer of one operator object
shares a single ``eigh`` call.  Propagators are computed exactly in the
eigenbasis of their generator, never split into short steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import (
    DimensionMismatchError,
    HermiticityError,
    NormalizationError,
    RegisterError,
    UnitarityError,
)

#: Hard cap on simultaneously simulated qubits (2**22 amplitudes).
QUBIT_CAP = 22

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
NORM_TOL = 1e-10


def _dtype_of(values) -> type:
    """complex128 for complex input, float64 for everything else."""
    return complex if np.iscomplexobj(values) else float


@dataclass(frozen=True)
class StateVector:
    """Amplitudes over ``2**num_qubits`` computational states, qubit 0 most significant."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        amps = np.ascontiguousarray(self.amplitudes, dtype=_dtype_of(self.amplitudes))
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (1 << self.num_qubits,):
            raise DimensionMismatchError(
                f"expected {1 << self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        err = abs(np.linalg.norm(amps) - 1.0)
        if err > NORM_TOL:
            raise NormalizationError(f"norm deviates from 1 by {err:.3e}")

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix on a power-of-two dimension; float64 when its entries are real."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix)
        if np.iscomplexobj(mat) and not mat.imag.any():
            mat = mat.real
        mat = np.ascontiguousarray(mat, dtype=_dtype_of(mat))
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"operator matrix must be square, got {mat.shape}")
        dim = mat.shape[0]
        if dim < 1 or dim & (dim - 1):
            raise DimensionMismatchError(f"dimension {dim} is not a power of two")
        if not np.isfinite(mat).all():
            raise HermiticityError("matrix has non-finite entries")
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if dev > HERMITICITY_TOL:
            raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @cached_property
    def eig(self) -> EigenDecomposition:
        """The spectral decomposition, computed on first use and kept with the operator."""
        return eig_hermitian(self)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and a matching unitary (real orthogonal for a real operator)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def apply_function(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """The matrix ``V fn(diag) V^dagger``.

        With real V and complex ``fn`` it is built as two real products, one
        for the real and one for the imaginary part of ``fn``.
        """
        vecs, vals = self.eigenvectors, fn(self.eigenvalues)
        if np.iscomplexobj(vecs) or not np.iscomplexobj(vals):
            return (vecs * vals) @ vecs.conj().T
        out = np.empty((self.dim, self.dim), dtype=complex)
        out.real = (vecs * vals.real) @ vecs.T
        out.imag = (vecs * vals.imag) @ vecs.T
        return out

    def propagator(self, t: float) -> np.ndarray:
        """``exp(1j * t * H)`` as a dense matrix; ``propagator(-t)`` steps backward."""
        return self.apply_function(lambda lam: np.exp(1j * t * lam))


def eig_hermitian(operator: HermitianOperator | np.ndarray) -> EigenDecomposition:
    """Full spectral decomposition; rejects non-Hermitian input."""
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(np.asarray(operator))
    vals, vecs = np.linalg.eigh(operator.matrix)
    return EigenDecomposition(vals, vecs)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Joint state with a's qubits more significant than b's."""
    return StateVector(
        a.num_qubits + b.num_qubits,
        np.kron(a.amplitudes, b.amplitudes),
    )


def _as_register(register: Iterable[int], num_qubits: int) -> tuple[int, ...]:
    reg = tuple(int(q) for q in register)
    if not reg:
        raise RegisterError("empty register")
    if len(set(reg)) != len(reg):
        raise RegisterError(f"register {reg} repeats a qubit")
    for q in reg:
        if not 0 <= q < num_qubits:
            raise RegisterError(f"qubit {q} out of range for a {num_qubits}-qubit state")
    return reg


def _require_unitary(mat: np.ndarray) -> None:
    dim = mat.shape[0]
    dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(dim))))
    if dev > UNITARITY_TOL:
        raise UnitarityError(f"matrix deviates from unitary by {dev:.3e}")


def apply_unitary(
    state: StateVector,
    matrix: np.ndarray,
    register: Iterable[int],
    validate: bool = True,
) -> StateVector:
    """Apply a register-wide unitary; ``register[0]`` is the operator's most significant bit.

    Set ``validate=False`` only when the caller guarantees unitarity (for
    example a matrix built as ``V exp(i diag) V^dagger``).
    """
    reg = _as_register(register, state.num_qubits)
    k = len(reg)
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (1 << k, 1 << k):
        raise DimensionMismatchError(
            f"matrix shape {mat.shape} does not fit a {k}-qubit register"
        )
    if validate:
        _require_unitary(mat)
    psi = state.amplitudes.reshape([2] * state.num_qubits)
    moved = np.moveaxis(psi, reg, range(k))
    out = mat @ moved.reshape(1 << k, -1)
    out = np.moveaxis(out.reshape([2] * state.num_qubits), range(k), reg)
    return StateVector(state.num_qubits, out.reshape(-1))


def apply_controlled_unitary(
    state: StateVector,
    control: int,
    matrix: np.ndarray,
    target: Iterable[int],
    validate: bool = True,
) -> StateVector:
    """Multiply the control=1 branch by a unitary on ``target``.

    The control=0 branch is untouched.
    """
    n = state.num_qubits
    if not 0 <= control < n:
        raise RegisterError(f"control qubit {control} out of range")
    targets = _as_register(target, n)
    if control in targets:
        raise RegisterError("control qubit overlaps the target register")
    k = len(targets)
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (1 << k, 1 << k):
        raise DimensionMismatchError(
            f"matrix shape {mat.shape} does not fit a {k}-qubit target"
        )
    if validate:
        _require_unitary(mat)

    psi = state.amplitudes.reshape([2] * n).astype(complex)
    sel = [slice(None)] * n
    sel[control] = 1
    sel = tuple(sel)
    # Target axes inside the control=1 slice shift down by one past the control.
    shifted = tuple(q - (q > control) for q in targets)
    branch = np.moveaxis(psi[sel], shifted, range(k))
    out = mat @ branch.reshape(1 << k, -1)
    out = np.moveaxis(out.reshape([2] * (n - 1)), range(k), shifted)
    psi[sel] = out

    return StateVector(n, psi.reshape(-1))


def _fourier(amplitudes: np.ndarray) -> np.ndarray:
    """Unitary DFT ``2**(-l/2) * exp(-2j*pi*x*k / 2**l)`` along axis 0, by FFT."""
    return np.fft.fft(amplitudes, axis=0, norm="ortho")


def inverse_qft(state: StateVector, register: Iterable[int]) -> StateVector:
    """Inverse Fourier transform of the register; see the module docstring for the sign."""
    reg = _as_register(register, state.num_qubits)
    n, k = state.num_qubits, len(reg)
    psi = np.moveaxis(state.amplitudes.reshape([2] * n), reg, range(k)).reshape(1 << k, -1)
    out = _fourier(psi).reshape([2] * n)
    return StateVector(n, np.moveaxis(out, range(k), reg).reshape(-1))


def register_distribution(state: StateVector, register: Iterable[int]) -> np.ndarray:
    """Marginal outcome probabilities of the register, summed over all other qubits."""
    reg = _as_register(register, state.num_qubits)
    n = state.num_qubits
    probs = (np.abs(state.amplitudes) ** 2).reshape([2] * n)
    others = tuple(ax for ax in range(n) if ax not in reg)
    marg = probs.sum(axis=others) if others else probs
    # Remaining axes sit in ascending qubit order; permute into register order.
    order = sorted(reg)
    perm = [order.index(q) for q in reg]
    return marg.transpose(perm).reshape(-1)
