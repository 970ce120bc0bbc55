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
on each of R's two sectors, of about half the dimension each, and keeps
them as one ``EigenDecomposition``: ascending eigenvalues, and per sector
its eigenvectors and the position of each among the eigenvalues.  Any other
matrix is one sector, decomposed whole by one ``eigh``, whose eigenvectors
are V itself.  The consumers read the sectors through the decomposition's
methods: ``apply`` (propagators and base states) forms half-size products
and folds them into the computational basis, ``to_eigenbasis`` (the
oracle's table) and ``overlaps`` (the closed forms' occupations) fold the
other matrix into the sectors first.  The circuit stays in the
computational basis; only the products that build its dense matrices run
by sector.  The dense V is assembled only when ``eigenvectors`` is read.
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


@dataclass(frozen=True, init=False, eq=False)
class EigenDecomposition:
    """Ascending eigenvalues and a matching unitary V (real orthogonal for a real operator), by sector.

    The stored form is per sector: ``sectors[a]`` holds sector a's eigenvectors
    and ``columns[a]`` the merged column, the position in ``eigenvalues``, of
    each of them.  ``EigenDecomposition(vals, vecs)`` is one sector, whose
    basis change S is 1: its matrix is V itself.  Two sectors are those of the
    chain reflection R (``_reflection_eig``).  With lo the states i < R(i) and
    pal the states i = R(i) (``_reflection``), S takes the even sector's states
    to ``(|i> + |R i>)/sqrt(2)`` for i in lo and ``|p>`` for p in pal, and the
    odd sector's to ``(|i> - |R i>)/sqrt(2)``, and V is S times the sectors'
    eigenvectors.  Each sector stores them as the rows of V they give: the
    even sector V's rows lo, then pal, at its columns, and the odd sector V's
    rows lo at its columns (an eigenvector's lo part over sqrt(2)); V's rows
    R lo are the rows lo times the sector's parity, +1 or -1.  So
    ``V = T blockdiag(sectors)``, T taking even state k to ``|lo_k> + |R lo_k>``
    or ``|pal_k>`` and odd state k to ``|lo_k> - |R lo_k>``, and the folds
    between the two bases (``_fold``, ``_fold_rows``, ``_sector_fold``) only
    add, subtract and move entries.

    ``apply``, ``overlaps`` and ``to_eigenbasis`` work on the sectors.  The
    dense V is assembled only when ``eigenvectors`` is read.
    """

    eigenvalues: np.ndarray
    sectors: tuple[np.ndarray, ...]
    columns: tuple[np.ndarray, ...]

    def __init__(self, eigenvalues: np.ndarray, *sectors: np.ndarray, columns: tuple[np.ndarray, ...] = ()):
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "sectors", sectors)
        object.__setattr__(self, "columns", columns or (np.arange(eigenvalues.shape[0]),))

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def span(self) -> float:
        """Width of the spectrum: the highest eigenvalue minus the lowest."""
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    @cached_property
    def _layout(self) -> list[slice]:
        """Where each sector sits in the sector layout: its rows, or columns, of ``T^dagger M T``."""
        edges = np.cumsum([0, *(vecs.shape[0] for vecs in self.sectors)])
        return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The dense V in the computational basis, assembled from the sectors on first use.

        One sector is V.  Two are scattered in blocks of rows of ``_SPLIT_BYTES``:
        an even column's entries at lo and at R lo are its stored rows lo, an odd
        column's are its stored rows lo and their negatives, and pal holds the
        even columns' stored rows pal and zeros at the odd columns.
        """
        if len(self.sectors) == 1:
            return self.sectors[0]
        even, odd = self.sectors
        reflected, lo, pal = _reflection(self.dim.bit_length() - 1)
        order = np.empty(self.dim, np.intp)  # column k of V holds sector column order[k], even ones first
        order[np.concatenate(self.columns)] = np.arange(self.dim)
        vecs = np.empty((self.dim, self.dim), np.result_type(even, odd))
        rows, n_lo = max(1, _SPLIT_BYTES // (vecs.itemsize * self.dim)), lo.size
        src = np.empty((min(rows, n_lo), self.dim), vecs.dtype)
        for s in range(0, n_lo, rows):
            part = slice(s, min(s + rows, n_lo))
            block = src[: part.stop - s]
            block[:, : even.shape[1]], block[:, even.shape[1] :] = even[part], odd[part]
            vecs[lo[part]] = np.take(block, order, axis=1)
            np.negative(block[:, even.shape[1] :], out=block[:, even.shape[1] :])
            vecs[reflected[lo[part]]] = np.take(block, order, axis=1)
        src = np.zeros((pal.size, self.dim), vecs.dtype)
        src[:, : even.shape[1]] = even[n_lo:]
        vecs[pal] = np.take(src, order, axis=1)
        return vecs

    def apply(self, diagonal: np.ndarray) -> np.ndarray:
        """The matrix ``V diag(diagonal) V^dagger``, built into its output in blocks of rows.

        It is ``T blockdiag(W_a d_a W_a^dagger) T^dagger``, W_a sector a's stored
        eigenvectors and d_a its part of the diagonal.  Each block of
        ``_block_rows`` rows holds every sector's product for its rows side by
        side (``_sector_product``): with one sector that block is the output's
        rows themselves, with two it is folded into the output's rows lo, R lo
        and pal (``_fold``).  Beside the output the heap holds that block and one
        product's scaled rows or one fold run's gather; no matrix of the
        output's size and no whole sector product.  One sector runs the blocked
        product ``V diag(d) V^dagger`` it always did.  A gemm of
        ``_MIN_BLOCK_ROWS`` rows or more of a large enough product gives the
        bytes of the unblocked one, and at the default block size a product is
        cut into blocks only from N=9, so no output depends on the block size.
        """
        dim, width, whole = self.dim, self.sectors[0].shape[0], len(self.sectors) == 1
        out = np.empty((dim, dim), dtype=np.result_type(*self.sectors, diagonal))
        # Beside two sectors' block come one product's scaled rows and one run of the
        # fold, so the block takes half the rows, and all three stay within a block's bytes.
        rows = _block_rows(out.itemsize * dim * len(self.sectors))
        parts = [diagonal[cols] for cols in self.columns]
        block = out if whole else np.empty((min(rows, width), dim), out.dtype)
        for s in range(0, width, rows):
            dest = block[s : s + rows] if whole else block[: min(rows, width - s)]
            for vecs, part, span in zip(self.sectors, parts, self._layout):
                if s < vecs.shape[0]:
                    _sector_product(vecs, part, s, dest[: vecs.shape[0] - s, span])
            if not whole:
                _fold(dest, s, out)
        return out

    def propagator(self, t: float) -> np.ndarray:
        """``exp(1j * t * H)`` as a dense matrix; ``propagator(-t)`` steps backward."""
        return self.apply(np.exp(1j * t * self.eigenvalues))

    def overlaps(self, vectors: np.ndarray) -> np.ndarray:
        """``X^dagger V``, the overlap ``<x_k|v_n>`` of each column of X with each eigenvector, by sector.

        One sector is ``X^dagger U``.  With two, X's rows are folded once,
        ``T^dagger X`` (``_fold_rows``), and sector a gives the columns
        ``columns[a]``: ``(T^dagger X)_a^dagger U_a``.
        """
        if len(self.sectors) == 1:
            return vectors.conj().T @ self.sectors[0]
        folded = _fold_rows(vectors)
        out = np.empty((vectors.shape[1], self.dim), np.result_type(vectors, *self.sectors))
        for vecs, cols, span in zip(self.sectors, self.columns, self._layout):
            out[:, cols] = folded[span].conj().T @ vecs
        return out

    def to_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """``V^dagger M V`` in the merged order, formed sector by sector.

        One sector is ``U^dagger M U``.  With two, M is folded once into the sector
        layout, ``F = T^dagger M T`` (``_sector_fold``), and each pair of sectors
        (a, b) gives ``U_a^dagger F_ab U_b`` at rows ``columns[a]`` and columns
        ``columns[b]``.  A block F_ab that is all zero is skipped: its product is
        exact zeros.  An R-symmetric M has exactly zero cross blocks, since each
        of their entries is a float sum minus the same sum in the other order.
        """
        if len(self.sectors) == 1:
            vecs = self.sectors[0]
            return vecs.conj().T @ matrix @ vecs
        folded = _sector_fold(matrix)
        out = np.zeros((self.dim, self.dim), np.result_type(matrix, *self.sectors))
        sectors = list(zip(self.sectors, self.columns, self._layout))
        for left, rows, row_span in sectors:
            for right, cols, col_span in sectors:
                block = folded[row_span, col_span]
                if block.any():
                    out[np.ix_(rows, cols)] = left.conj().T @ block @ right
        return out


def _sector_product(vecs: np.ndarray, diagonal: np.ndarray, start: int, dest: np.ndarray) -> None:
    """Rows ``start:`` of ``vecs diag(diagonal) vecs^dagger`` into ``dest``, as many as it has.

    Real vecs with a complex diagonal take two real products; complex vecs take
    ``conj(conj(vecs_s d) vecs^T)``, conjugated in place, so no conjugate copy
    of vecs is made.
    """
    block = vecs[start : start + dest.shape[0]]
    if np.iscomplexobj(vecs):
        scaled = block * diagonal
        np.matmul(np.conjugate(scaled, out=scaled), vecs.T, out=dest)
        np.conjugate(dest, out=dest)
    elif np.iscomplexobj(diagonal):
        dest.real = (block * diagonal.real) @ vecs.T
        dest.imag = (block * diagonal.imag) @ vecs.T
    else:
        np.matmul(block * diagonal, vecs.T, out=dest)


def eig_hermitian(operator: HermitianOperator | np.ndarray) -> EigenDecomposition:
    """One ``eigh`` of a Hermitian matrix of any size; rejects non-Hermitian input."""
    if isinstance(operator, HermitianOperator):
        mat = operator.matrix
    else:
        mat = _square_matrix(operator)
        _require_hermitian(mat)
    vals, vecs = np.linalg.eigh(mat)
    return EigenDecomposition(vals, vecs)


#: Bytes of rows per block of the reflection check, the sector split, V's
#: assembly and the fold of a matrix into the sectors: each block is gathered
#: once or twice, so a block, not the matrix, is the temporary.
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


@lru_cache(maxsize=None)
def _fold_maps(num_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The index maps of ``_fold`` (read-only): rows, mirrored rows, columns and mirrored columns.

    A block of rows in the sector layout ``[even: lo, pal | odd: lo]``, once its
    lo columns hold the sum and its odd columns the difference of the two
    sectors, has the layout ``[sum at lo | pal | difference at R lo]``.  The
    rows are the computational row of each even-sector row (lo, then pal) and
    the mirrored rows R lo; the columns are where each computational column
    sits in that layout, and the mirrored columns are those of R's image.
    """
    reflected, lo, pal = _reflection(num_qubits)
    cols = np.empty_like(reflected)
    cols[lo] = np.arange(lo.size)
    cols[pal] = lo.size + np.arange(pal.size)
    cols[reflected[lo]] = lo.size + pal.size + np.arange(lo.size)
    maps = np.concatenate((lo, pal)), reflected[lo], cols, cols[reflected]
    for array in maps:
        array.setflags(write=False)
    return maps


def _fold(block: np.ndarray, start: int, out: np.ndarray) -> None:
    """Fold rows ``start:`` of ``[E | O]``, the two sectors' products side by side, into ``out``.

    With the stored rows of V (``EigenDecomposition``), row lo_k of the output is
    ``E_k + O_k`` at lo, ``E_k - O_k`` at R lo and ``E_k`` at pal; row R lo_k is
    the same row with its columns reflected, and row pal_p is ``E_p`` at lo, at
    R lo and at pal.  In runs of rows of ``_SPLIT_BYTES``, the sum and
    difference are formed in place in the block, whose rows past the odd
    sector (pal rows) copy their lo columns into the difference's place, and
    each output row is one gather of the block's columns (``_fold_maps``), so
    a run, not the block, is the temporary.
    """
    rows, mirrored, cols, mirrored_cols = _fold_maps(out.shape[0].bit_length() - 1)
    n_lo, width = mirrored.size, rows.size
    step = max(1, _SPLIT_BYTES // (out.itemsize * out.shape[0]))
    for s in range(0, block.shape[0], step):
        part, first = block[s : s + step], start + s
        odd = max(0, min(part.shape[0], n_lo - first))  # the run's rows in the odd sector
        near, far = part[:odd, :n_lo], part[:odd, width:]
        difference = near - far
        near += far
        far[...] = difference
        del difference  # before the gathers
        part[odd:, width:] = part[odd:, :n_lo]
        out[rows[first : first + part.shape[0]]] = np.take(part, cols, axis=1)
        out[mirrored[first : first + odd]] = np.take(part[:odd], mirrored_cols, axis=1)


def _fold_rows(matrix: np.ndarray) -> np.ndarray:
    """``T^dagger X`` for a matrix X of 2**N rows: its rows in the sector layout ``[even: lo, pal | odd: lo]``.

    T maps even state k to ``|lo_k> + |R lo_k>`` or ``|pal_k>`` and odd state k to
    ``|lo_k> - |R lo_k>`` (``EigenDecomposition``), so rows lo_k and R lo_k of X
    are added (even) and subtracted (odd), in blocks of rows of ``_SPLIT_BYTES``,
    and the rows pal are copied.
    """
    reflected, lo, pal = _reflection(matrix.shape[0].bit_length() - 1)
    n_lo, width = lo.size, lo.size + pal.size
    out = np.empty_like(matrix)
    rows = max(1, _SPLIT_BYTES // (matrix.itemsize * matrix.shape[1]))
    for s in range(0, n_lo, rows):
        part = slice(s, min(s + rows, n_lo))
        near, far = matrix[lo[part]], matrix[reflected[lo[part]]]
        np.add(near, far, out=out[part])
        np.subtract(near, far, out=out[width + part.start : width + part.stop])
    out[n_lo:width] = matrix[pal]
    return out


def _sector_fold(matrix: np.ndarray) -> np.ndarray:
    """``T^dagger M T``, rows and columns in the sector layout ``[even: lo, pal | odd: lo]``.

    The rows are folded first (``_fold_rows``), then each block of rows of
    ``_SPLIT_BYTES`` has its columns lo and R lo added and subtracted, and its
    columns pal copied, in place.
    """
    reflected, lo, pal = _reflection(matrix.shape[0].bit_length() - 1)
    n_lo, width = lo.size, lo.size + pal.size
    out = _fold_rows(matrix)
    rows = max(1, _SPLIT_BYTES // (out.itemsize * out.shape[1]))
    for s in range(0, out.shape[0], rows):
        block = out[s : s + rows]
        near, far, mid = (np.take(block, index, axis=1) for index in (lo, reflected[lo], pal))
        np.add(near, far, out=block[:, :n_lo])
        block[:, n_lo:width] = mid
        np.subtract(near, far, out=block[:, width:])
    return out


def _reflection_eig(mat: np.ndarray) -> EigenDecomposition | None:
    """H's decomposition sector by sector under the chain reflection R; None when R H R != H or R = 1.

    ``lo`` holds the states i < R(i) and ``pal`` the states i = R(i).  In the basis
    ``(|i> +- |R i>)/sqrt(2)`` for i in lo, and ``|p>`` for p in pal, an R-symmetric H
    splits into the even sector ``[[H[lo,lo] + H[lo,R lo], sqrt(2) H[lo,pal]],
    [sqrt(2) H[pal,lo], H[pal,pal]]]`` and the odd sector ``H[lo,lo] - H[lo,R lo]``.
    ``eigh`` reads a sector's lower triangle only, and the upper one is mirrored
    from it, so each sector is exactly Hermitian: its entries sum two of H's, so
    they could deviate from Hermitian twice as far as H's.  The two spectra merge
    by a stable argsort into ascending eigenvalues.  Each sector keeps its
    eigenvectors as the rows of V they give (``EigenDecomposition``): an even
    eigenvector ``(u_lo, u_pal)`` as ``(u_lo/sqrt(2), u_pal)`` and an odd one w
    as ``w/sqrt(2)``, divided in place.  The symmetry check and the split run in
    blocks of rows of ``_SPLIT_BYTES``, so only the sectors and their
    eigenvectors are held, and no V.
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
    order = np.argsort(values, kind="stable")  # merged column k holds sector column order[k], even ones first
    columns = np.empty(dim, np.intp)
    columns[order] = np.arange(dim)
    u, w = u.eigenvectors, w.eigenvectors
    np.divide(u[:n_lo], root2, out=u[:n_lo])
    np.divide(w, root2, out=w)
    return EigenDecomposition(values[order], u, w, columns=(columns[: u.shape[1]], columns[u.shape[1] :]))


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
