"""Phase estimation on two counter-propagating system copies.

The phase register starts in a uniform superposition; its bit j (weight
2**j in the outcome) controls the powered step ``exp(1j*H*delta)`` on copy
a times ``exp(-1j*H^T*delta)`` on copy b, applied 2**j times: copy b
evolves under -H^T, which is -H for every real H.  The purified states of
``purify`` hold conjugated eigenvectors on copy b, which -H^T keeps as
eigenstates, so the branch labelled x accumulates
``exp(1j*delta*(e_n - e_m)*x)`` between eigenstate n of copy a and the
conjugate of eigenstate m on copy b.  After the inverse Fourier transform
the outcome f therefore concentrates near ``delta * 2**l * (e_n - e_m) / 2pi``;
positive energy differences land at small positive f and negative ones wrap
into the upper half of the register, which ``outcome_frequency`` maps back
to signed angular frequencies.

The circuit runs on one copy-a-major working array ``psi[a, x, b]`` over
copy a, the register value x and copy b.  The register starts uniform and the
controlled powers act only on the copies, so the array fills in doubling
order: ``psi[:, 0]`` is the prepared state and bit j writes
``psi[:, 2**j : 2**(j+1)]`` as ``U_j psi[:, 0 : 2**j] U_j^dagger``.  Each
distinct branch is computed once, with the gates of the full circuit in their
order.  The inverse Fourier transform is the simulator's FFT along x, in place
on the unpadded array, and the outcome marginal sums ``|psi|^2`` over both
copies, as re^2 + im^2 of the array's float view in one einsum pass in memory
order.  The circuit stays a gate-level simulation in the computational basis;
the eigenbasis is used only to exponentiate ``U_j``, so ``run_qpe`` takes H's
decomposition, not H.

Beside the returned probabilities, the heap holds one working array, one
propagator and one bounded block of the right product.  The propagator
``U_j`` is built in blocks of rows (``simcore.EigenDecomposition.apply`` of
its eigenphases) and released after its step, so the next build, the
transform and the marginal run without it.
Copy a leads, so the branches below 2**j form one ``2**N x 2**(j+N)`` matrix
``psi[:, :2**j]``, and the left product ``U_j psi`` is one gemm written
straight into ``psi[:, 2**j : 2**(j+1)]``, which it does not overlap.  The
right product by ``U_j^dagger`` then runs in place on blocks of matrices
of rows over b, so numpy's copy of the overlapping operand is at most one
block.  The matrices are the copy-a rows ``psi[a, 2**j : 2**(j+1)]`` (each a
contiguous ``2**j x 2**N`` matrix) once ``2**j >= 2**N``, and the branches
``psi[:, x]`` (each ``2**N x 2**N``) before: the fewer and larger of the two.
A block is a run of matrices of at most ``_BLOCK_BYTES``, at least one, cut
into runs of matrix rows when one matrix is larger than a blocked product's
block (``simcore._block_rows``).  A gemm over a run of at least
``simcore._MIN_BLOCK_ROWS`` matrix rows gives the bytes of the unblocked
product, so the outcome bytes do not depend on the block size.  The marginal
allocates only the probabilities; it runs numpy's own sum-of-products loop
(einsum without ``optimize``), not BLAS, so its bytes depend on no block size
and no BLAS thread count.  The working array lives in ``_circuit_marginal``
and is freed before the probabilities are checked.

Controlled powers are built by raising eigenphases once, not by repeating
gates; repeating the base step, and the gate-by-gate circuit on the full
register, are used only as consistency checks in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, NormalizationError, ResourceCapError
from .simcore import (
    NORM_TOL,
    QUBIT_CAP,
    EigenDecomposition,
    StateVector,
    _block_rows,
    _fourier,
)

#: Bytes of matrices per block of the in-place right product; a block holds at
#: least one matrix (module docstring).
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class PhaseDistribution:
    """Exact or sampled outcome probabilities of the phase register.

    A sampled distribution records its shot count; an exact one has ``shots=None``.
    """

    num_bits: int
    delta: float
    probabilities: np.ndarray
    shots: int | None = None

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (1 << self.num_bits,):
            raise DimensionMismatchError(
                f"expected {1 << self.num_bits} probabilities, got {probs.shape}"
            )
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if probs.min() < -1e-12:
            raise ValueError(f"negative probability {probs.min():.3e}")
        probs = np.maximum(probs, 0.0)
        object.__setattr__(self, "probabilities", probs)
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {probs.sum():.12f}")
        if self.shots is not None and self.shots < 1:
            raise ValueError("empirical distributions must record a positive shot count")

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Signed angular frequency of every outcome, computed once and read-only."""
        omega = outcome_frequency(np.arange(1 << self.num_bits), self.num_bits, self.delta)
        omega.flags.writeable = False
        return omega


def run_qpe(
    prepared: StateVector,
    eig_h: EigenDecomposition,
    num_bits: int,
    delta: float,
) -> PhaseDistribution:
    """Exact outcome distribution of the phase register for a prepared doubled state; ``eig_h`` is H's decomposition."""
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if num_bits < 1:
        raise ValueError("need at least one phase bit")
    if prepared.num_qubits % 2:
        raise DimensionMismatchError("prepared state must cover two equal copies")
    num_sites = prepared.num_qubits // 2
    if eig_h.dim != (1 << num_sites):
        raise DimensionMismatchError(
            f"Hamiltonian dim {eig_h.dim} does not match {num_sites}-site copies"
        )
    if prepared.num_qubits + num_bits > QUBIT_CAP:
        raise ResourceCapError(
            f"{prepared.num_qubits + num_bits} qubits exceed the {QUBIT_CAP}-qubit cap"
        )

    probs = _circuit_marginal(prepared, eig_h, num_bits, delta)
    # The condition PhaseDistribution applies, so a total it would reject fails here; so does a NaN.
    norm_err = abs(probs.sum() - 1.0)
    if not norm_err <= NORM_TOL:
        raise NormalizationError(f"register probabilities miss a total of 1 by {norm_err:.3e}")
    return PhaseDistribution(num_bits, delta, probs)


def _circuit_marginal(
    prepared: StateVector, eig: EigenDecomposition, num_bits: int, delta: float
) -> np.ndarray:
    """The circuit's outcome probabilities; the working array is freed on return."""
    dim, sys_dim = 1 << num_bits, eig.dim
    # Copy-a-major working array psi[a, x, b]: the register is uniform, the copies prepared.
    psi = np.empty((sys_dim, dim, sys_dim), dtype=complex)
    np.multiply(prepared.amplitudes.reshape(sys_dim, sys_dim), 1.0 / np.sqrt(dim), out=psi[:, 0])
    mat_rows = _block_rows(16 * sys_dim)
    for j in range(num_bits):
        # The branches with bit j set are those below 2**j with U_j applied: one gemm.
        low = 1 << j
        forward = eig.propagator(delta * low)
        np.matmul(forward, psi[:, :low].reshape(sys_dim, -1), out=psi[:, low : 2 * low].reshape(sys_dim, -1))
        # exp(-1j*H^T*t) = (U^dagger)^T on copy b; U is conjugated in place after U psi is formed.
        backward = np.conjugate(forward, out=forward).T
        # In place on the larger matrices of rows over b, the copy-a rows or the
        # branches, one block of them at a time (module docstring).
        high = psi[:, low : 2 * low]
        matrices = high if low >= sys_dim else high.swapaxes(0, 1)
        count, size = matrices.shape[:2]
        stack = max(1, _BLOCK_BYTES // (16 * size * sys_dim))
        for s in range(0, count, stack):
            for r in range(0, size, mat_rows):
                block = matrices[s : s + stack, r : r + mat_rows]
                np.matmul(block, backward, out=block)
        del forward, backward  # the next build, the transform and the marginal run without it
    register_major = psi.swapaxes(0, 1)
    _fourier(register_major, out=register_major)
    # |psi|^2 summed over both copies: re^2 + im^2 of the float view, in one pass in memory order.
    floats = psi.view(float)
    return np.einsum("axc,axc->x", floats, floats)


def sample_outcomes(
    dist: PhaseDistribution,
    shots: int,
    seed: int | np.random.SeedSequence,
) -> PhaseDistribution:
    """Multinomial draw from an exact distribution, returned as normalized counts."""
    if dist.shots is not None:
        raise ValueError("sampling requires an exact distribution")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    rng = np.random.default_rng(seed)
    pvals = dist.probabilities / dist.probabilities.sum()
    counts = rng.multinomial(shots, pvals)
    return PhaseDistribution(dist.num_bits, dist.delta, counts / shots, shots=shots)


def outcome_frequency(f, num_bits: int, delta: float):
    """Signed angular frequency of outcome f (an int or an integer array).

    The upper half of the register wraps to negative values.
    """
    dim = 1 << num_bits
    if not np.all((0 <= f) & (f < dim)):
        raise ValueError(f"outcome {f} out of range for {num_bits} bits")
    return 2.0 * math.pi * (f - dim * (f >= dim // 2)) / (delta * dim)


@dataclass(frozen=True)
class ResolutionPlan:
    """Register size and coupling time meeting a bandwidth and linewidth target.

    ``omega_max`` is a two-sided band: the register's upper half holds negative
    frequencies, so its signed range is about ``+-omega_max/2``.
    """

    num_bits: int
    delta: float
    omega_max: float
    gamma: float

    def __post_init__(self) -> None:
        dim = 1 << self.num_bits
        scale = self.delta * dim / (2.0 * math.pi)
        if scale * self.gamma < 1.0 - 1e-9:
            raise ValueError("plan does not resolve the target linewidth")
        if scale * self.omega_max > (dim - 1) * (1.0 + 1e-9):
            raise ValueError("plan does not cover the bandwidth")


def plan_resolution(omega_max: float, gamma: float) -> ResolutionPlan:
    """Smallest register with 2**l >= 1 + omega_max/gamma, delta saturating the linewidth.

    ``omega_max`` is the full two-sided band, not the largest |omega|: the
    register's signed frequencies reach about ``+-omega_max/2``, rounded up with
    its power of two (``plan_resolution(10, 0.1)`` tops out at +6.3), and a
    line beyond them wraps to the other sign.

    The register grows by at most one bit when gamma halves, matching the
    logarithmic scaling of bits with omega_max/gamma.  A ratio whose register
    a double cannot describe (the ratio itself, 2**l or gamma * 2**l
    overflows) raises ``ResourceCapError``.
    """
    if not (0 < omega_max < math.inf and 0 < gamma < math.inf):
        raise ValueError("omega_max and gamma must be positive and finite")
    if gamma >= omega_max:
        raise ValueError("gamma must be below omega_max; nothing to resolve otherwise")
    ratio = 1.0 + omega_max / gamma
    # The smallest l >= 1 with 2**l >= ratio, read off ratio = mantissa * 2**exponent.
    mantissa, exponent = math.frexp(ratio)
    num_bits = max(1, exponent - (mantissa == 0.5))
    if not math.isfinite(ratio) or num_bits > 1023 or math.frexp(gamma)[1] + num_bits > 1024:
        raise ResourceCapError(
            f"omega_max/gamma = {omega_max / gamma:.6g} needs a phase register past the double range"
        )
    delta = 2.0 * math.pi / (gamma * (1 << num_bits))
    return ResolutionPlan(num_bits, delta, omega_max, gamma)
