"""Dense state-vector simulation on labelled qubit registers.

Conventions fixed here and relied on by every other module:

* Qubit 0 is the most significant bit of a computational index, so on
  three qubits the state ``|x=2>`` is ``|010>``, and a Kronecker product
  ``kron(a, b)`` places a's qubits above b's.
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

The register operations (the gate operations and ``register_distribution``)
are the tests' gate-level reference; the pipeline (``qpe``, ``stateprep``)
works on the doubled-register matrix.
There is one gate engine: ``apply_controlled_unitary`` is ``apply_unitary``
of ``diag(1, U)``, and both check their matrix against ``UNITARITY_TOL``.

All operations are pure functions of immutable inputs: amplitude arrays and
operator matrices are never mutated in place and identical inputs produce
bit-identical outputs.  A ``HermitianOperator`` therefore memoises its
spectral decomposition (``.eig``), and the run decomposes H once and hands
the decomposition on: every stage takes (operator, H's decomposition,
ensemble), so H's dense matrix is freed once it is decomposed.
Propagators are computed exactly in the eigenbasis of their generator,
never split into short steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

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

#: Bytes of rows per block of a blocked matrix product (``_block_rows``).  The
#: gemm of each block packs the whole right operand again, so small blocks cost
#: time: at N=10 (2-vCPU x86 host, 2 BLAS threads) 1 MiB blocks made a
#: propagator 13 ms and the QPE's right product 31 ms slower than one product,
#: 4 MiB blocks 3 and 12 ms.
_BLOCK_BYTES = 4 << 20

#: The fewest matrix rows in a blocked product.  A one-row product goes
#: through gemv, whose bytes differ from the unblocked gemm's; blocks of 8
#: rows or more reproduce them at 1 and 2 BLAS threads.
_MIN_BLOCK_ROWS = 8


def _block_rows(row_bytes: int) -> int:
    """Rows per block of a product built in row blocks: ``_BLOCK_BYTES``, at least ``_MIN_BLOCK_ROWS``."""
    return max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // row_bytes)


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
        if not err <= NORM_TOL:
            raise NormalizationError(f"norm deviates from 1 by {err:.3e}")

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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
        # |mat - mat^dagger| is symmetric, so square tiles on and above the diagonal see
        # every deviation; each tile of mat^dagger is overwritten by the difference's modulus.
        # A non-finite entry makes its difference inf or nan, and so the tile's maximum,
        # and it is reported before a deviation found in any tile.
        dev, tile = 0.0, 128
        for s in range(0, dim, tile):
            for t in range(s, dim, tile):
                diff = np.conjugate(mat[t : t + tile, s : s + tile].T)
                with np.errstate(invalid="ignore"):  # inf - inf
                    np.subtract(mat[s : s + tile, t : t + tile], diff, out=diff)
                peak = float(np.abs(diff, out=diff).real.max())
                if not peak < np.inf:
                    raise HermiticityError("matrix has non-finite entries")
                dev = max(dev, peak)
        if dev > HERMITICITY_TOL:
            raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

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

    @property
    def span(self) -> float:
        """Width of the spectrum: the highest eigenvalue minus the lowest."""
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    def apply(self, diagonal: np.ndarray) -> np.ndarray:
        """The matrix ``V diag(diagonal) V^dagger``, built into its output in blocks of rows.

        Beside the output the heap holds one block of ``_block_rows`` rows of V,
        whose gemm gives the bytes of the unblocked product (``_MIN_BLOCK_ROWS``).
        Real V with a complex diagonal takes two real products per block; complex
        V takes ``conj(conj(V_s d) V^T)``, conjugated in place, so no conjugate
        copy of V is made.
        """
        vecs = self.eigenvectors
        out = np.empty((self.dim, self.dim), dtype=np.result_type(vecs, diagonal))
        rows = _block_rows(out.itemsize * self.dim)
        for s in range(0, self.dim, rows):
            block, dest = vecs[s : s + rows], out[s : s + rows]
            if np.iscomplexobj(vecs):
                scaled = block * diagonal
                np.matmul(np.conjugate(scaled, out=scaled), vecs.T, out=dest)
                np.conjugate(dest, out=dest)
                del scaled  # before the next block is scaled
            elif np.iscomplexobj(diagonal):
                dest.real = (block * diagonal.real) @ vecs.T
                dest.imag = (block * diagonal.imag) @ vecs.T
            else:
                np.matmul(block * diagonal, vecs.T, out=dest)
        return out

    def propagator(self, t: float) -> np.ndarray:
        """``exp(1j * t * H)`` as a dense matrix; ``propagator(-t)`` steps backward."""
        return self.apply(np.exp(1j * t * self.eigenvalues))


def eig_hermitian(operator: HermitianOperator | np.ndarray) -> EigenDecomposition:
    """Full spectral decomposition; rejects non-Hermitian input."""
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(np.asarray(operator))
    vals, vecs = np.linalg.eigh(operator.matrix)
    return EigenDecomposition(vals, vecs)


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
    if not dev <= UNITARITY_TOL:
        raise UnitarityError(f"matrix deviates from unitary by {dev:.3e}")


def apply_unitary(state: StateVector, matrix: np.ndarray, register: Iterable[int]) -> StateVector:
    """Apply a register-wide unitary; ``register[0]`` is the operator's most significant bit."""
    reg = _as_register(register, state.num_qubits)
    k = len(reg)
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (1 << k, 1 << k):
        raise DimensionMismatchError(
            f"matrix shape {mat.shape} does not fit a {k}-qubit register"
        )
    _require_unitary(mat)
    psi = state.amplitudes.reshape([2] * state.num_qubits)
    moved = np.moveaxis(psi, reg, range(k))
    out = mat @ moved.reshape(1 << k, -1)
    out = np.moveaxis(out.reshape([2] * state.num_qubits), range(k), reg)
    return StateVector(state.num_qubits, out.reshape(-1))


def apply_controlled_unitary(
    state: StateVector, control: int, matrix: np.ndarray, target: Iterable[int]
) -> StateVector:
    """Multiply the control=1 branch by a unitary on ``target``.

    This is ``apply_unitary`` of the block matrix ``diag(1, U)`` on
    ``(control, *target)``, so the control=0 branch is untouched.
    """
    mat = np.asarray(matrix, dtype=complex)
    zero = np.zeros_like(mat)
    block = np.block([[np.eye(*mat.shape), zero], [zero, mat]])
    return apply_unitary(state, block, (control, *target))


def _fourier(amplitudes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary DFT ``2**(-l/2) * exp(-2j*pi*x*k / 2**l)`` along axis 0, by FFT; ``out`` may be the input."""
    return np.fft.fft(amplitudes, axis=0, norm="ortho", out=out)


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
