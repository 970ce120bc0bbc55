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

Every preset chain is symmetric under its reflection R, which reverses the
qubit order (R**2 = 1).  ``.eig`` of a matrix equal to R H R bit for bit
runs one ``eig_hermitian`` (one ``eigh`` of a Hermitian matrix of any size)
on each of R's two sectors, of about half the dimension each, and merges
them into one ``EigenDecomposition`` in the computational basis: ascending
eigenvalues and a dense V, whose columns each have a definite parity under
R.  Any other matrix is one sector, decomposed whole by one ``eigh``; so is
a compiled chain whose float sums at an entry and at its mirror image add
the same terms in another order and miss by an ulp.  Every consumer reads
only the merged decomposition, so none knows about the sectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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


def _square_matrix(values) -> np.ndarray:
    """A contiguous square matrix, float64 when every entry's imaginary part is exactly zero."""
    mat = np.asarray(values)
    if np.iscomplexobj(mat) and not mat.imag.any():
        mat = mat.real
    mat = np.ascontiguousarray(mat, dtype=_dtype_of(mat))
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"operator matrix must be square, got {mat.shape}")
    return mat


def _upper_tiles(dim: int, tile: int = 128) -> Iterable[tuple[slice, slice]]:
    """(rows, cols) of the square tiles of a dim x dim matrix on and above its diagonal."""
    for s in range(0, dim, tile):
        for t in range(s, dim, tile):
            yield slice(s, s + tile), slice(t, t + tile)


def _mirror_lower(mat: np.ndarray) -> np.ndarray:
    """``mat`` with its strict upper triangle overwritten by the conjugate of its lower, in place."""
    for rows, cols in _upper_tiles(mat.shape[0]):
        mirrored = np.conjugate(mat[cols, rows].T)
        if rows == cols:  # a diagonal tile: its strict upper triangle only
            np.copyto(mat[rows, cols], mirrored, where=~np.tri(*mirrored.shape, dtype=bool))
        else:
            mat[rows, cols] = mirrored
    return mat


def _require_hermitian(mat: np.ndarray) -> None:
    """Reject a square matrix with a non-finite entry or more than ``HERMITICITY_TOL`` from Hermitian."""
    # |mat - mat^dagger| is symmetric, so square tiles on and above the diagonal see
    # every deviation; each tile of mat^dagger is overwritten by the difference's modulus.
    # A non-finite entry makes its difference inf or nan, and so the tile's maximum,
    # and it is reported before a deviation found in any tile.
    dev = 0.0
    for rows, cols in _upper_tiles(mat.shape[0]):
        diff = np.conjugate(mat[cols, rows].T)
        with np.errstate(invalid="ignore"):  # inf - inf
            np.subtract(mat[rows, cols], diff, out=diff)
        peak = float(np.abs(diff, out=diff).real.max())
        if not peak < np.inf:
            raise HermiticityError("matrix has non-finite entries")
        dev = max(dev, peak)
    if dev > HERMITICITY_TOL:
        raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e}")


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
        mat = _square_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        dim = mat.shape[0]
        if dim < 1 or dim & (dim - 1):
            raise DimensionMismatchError(f"dimension {dim} is not a power of two")
        _require_hermitian(mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eig(self) -> EigenDecomposition:
        """The spectral decomposition, computed on first use and kept with the operator.

        A matrix equal bit for bit to R H R, R the chain reflection, is decomposed
        in R's two sectors, one ``eig_hermitian`` each (``_reflection_eig``).  Any
        other matrix, and every one-qubit matrix (R is then the identity), is one
        sector: one ``eig_hermitian`` of the whole matrix.
        """
        split = _reflection_eig(self.matrix)
        return eig_hermitian(self) if split is None else split


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
    """One ``eigh`` of a Hermitian matrix of any size; rejects non-Hermitian input."""
    if isinstance(operator, HermitianOperator):
        mat = operator.matrix
    else:
        mat = _square_matrix(operator)
        _require_hermitian(mat)
    vals, vecs = np.linalg.eigh(mat)
    return EigenDecomposition(vals, vecs)


#: Bytes of rows per block of the reflection check and the sector split: each
#: block is gathered once or twice, so a block, not the matrix, is the temporary.
_SPLIT_BYTES = 1 << 20


@lru_cache(maxsize=None)
def _reflection(num_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R as an index map, ``R[i]`` being i with its qubit order reversed, then lo and pal (read-only).

    lo holds the states i < R(i) and pal the states i = R(i), each ascending.
    """
    index = np.arange(1 << num_qubits)
    reflected = np.zeros_like(index)
    for q in range(num_qubits):
        reflected |= ((index >> q) & 1) << (num_qubits - 1 - q)
    maps = reflected, np.flatnonzero(index < reflected), np.flatnonzero(index == reflected)
    for array in maps:
        array.setflags(write=False)
    return maps


def _reflection_eig(mat: np.ndarray) -> EigenDecomposition | None:
    """H's decomposition sector by sector under the chain reflection R; None when R H R != H or R = 1.

    ``lo`` holds the states i < R(i) and ``pal`` the states i = R(i).  In the basis
    ``(|i> +- |R i>)/sqrt(2)`` for i in lo, and ``|p>`` for p in pal, an R-symmetric H
    splits into the even sector ``[[H[lo,lo] + H[lo,R lo], sqrt(2) H[lo,pal]],
    [sqrt(2) H[pal,lo], H[pal,pal]]]`` and the odd sector ``H[lo,lo] - H[lo,R lo]``.
    ``eigh`` reads a sector's lower triangle only, and the upper one is mirrored
    from it, so each sector is exactly Hermitian: its entries sum two of H's, so
    they could deviate from Hermitian twice as far as H's.  The two spectra merge
    by a stable argsort into ascending eigenvalues, and V, dense in the
    computational basis, takes an even eigenvector ``(u_lo, u_pal)`` as
    ``u_lo/sqrt(2)`` at lo and at R lo and ``u_pal`` at pal, and an odd one w as
    ``+-w/sqrt(2)`` at lo and R lo.  The symmetry check, the split and V's
    assembly run in blocks of rows of ``_SPLIT_BYTES``, so beside V only the
    sectors and their eigenvectors are held.
    """
    dim = mat.shape[0]
    reflected, lo, pal = _reflection(dim.bit_length() - 1)
    if not lo.size:
        return None
    rows = max(1, _SPLIT_BYTES // (mat.itemsize * dim))
    # H[i, R j] == H[R i, j] for every i, j is R H R == H.
    for s in range(0, dim, rows):
        if not np.array_equal(np.take(mat[s : s + rows], reflected, axis=1), mat[reflected[s : s + rows]]):
            return None
    hi, root2, n_lo = reflected[lo], np.sqrt(2.0), lo.size
    even = np.empty((n_lo + pal.size, n_lo + pal.size), mat.dtype)
    odd = np.empty((n_lo, n_lo), mat.dtype)
    for s in range(0, n_lo, rows):
        part = slice(s, min(s + rows, n_lo))
        block = mat[lo[part]]
        near, far = np.take(block, lo, axis=1), np.take(block, hi, axis=1)
        np.add(near, far, out=even[part, :n_lo])
        np.subtract(near, far, out=odd[part])
        np.multiply(np.take(block, pal, axis=1), root2, out=even[part, n_lo:])
    block = mat[pal]
    np.multiply(np.take(block, lo, axis=1), root2, out=even[n_lo:, :n_lo])
    even[n_lo:, n_lo:] = np.take(block, pal, axis=1)
    del block, near, far
    u, w = eig_hermitian(_mirror_lower(even)), eig_hermitian(_mirror_lower(odd))
    del even, odd
    values = np.concatenate((u.eigenvalues, w.eigenvalues))
    order = np.argsort(values, kind="stable")  # column k of V holds sector column order[k]
    u, w = u.eigenvectors, w.eigenvectors
    vecs = np.empty((dim, dim), np.result_type(u, w))
    sector_rows = np.empty((min(rows, n_lo), dim), vecs.dtype)  # even sector columns, then odd
    for s in range(0, n_lo, rows):
        part = slice(s, min(s + rows, n_lo))
        src = sector_rows[: part.stop - s]
        np.divide(u[part], root2, out=src[:, : u.shape[1]])
        np.divide(w[part], root2, out=src[:, u.shape[1] :])
        vecs[lo[part]] = np.take(src, order, axis=1)
        np.negative(src[:, u.shape[1] :], out=src[:, u.shape[1] :])
        vecs[hi[part]] = np.take(src, order, axis=1)
    src = np.zeros((pal.size, dim), vecs.dtype)
    src[:, : u.shape[1]] = u[n_lo:]
    vecs[pal] = np.take(src, order, axis=1)
    return EigenDecomposition(values[order], vecs)


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
