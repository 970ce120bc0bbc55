"""Phase estimation on two counter-propagating system copies.

The phase register starts in a uniform superposition; its bit j (weight
2**j in the outcome) controls the powered step ``(exp(1j*H*delta) on copy a)
times (exp(-1j*H*delta) on copy b)`` applied 2**j times, so the branch
labelled x accumulates ``exp(1j*delta*(e_n - e_m)*x)`` between eigenstates
n of copy a and m of copy b.  After the inverse Fourier transform the
outcome f therefore concentrates near ``delta * 2**l * (e_n - e_m) / 2pi``;
positive energy differences land at small positive f and negative ones wrap
into the upper half of the register, which ``outcome_frequency`` maps back
to signed angular frequencies.

The circuit runs on one phase-major working array ``psi[x, a, b]`` over the
register value x and the two copies.  The control=1 branches of bit j are a
strided view of it, and the controlled power acts on all of them at once as
``U_j psi conj(U_j)`` (``U_j`` on copy a, ``U_j^dagger`` on copy b), in place.
The inverse Fourier transform is the simulator's FFT along x, and the
outcome marginal sums ``|psi|^2`` over both copies.  The circuit stays a
gate-level simulation in the computational basis; the eigenbasis is used
only to exponentiate ``U_j``.

Controlled powers are built by raising eigenphases once, not by repeating
gates; repeating the base step, and the gate-by-gate circuit on the full
register, are used only as consistency checks in the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NormalizationError, ResourceCapError
from .simcore import NORM_TOL, QUBIT_CAP, HermitianOperator, StateVector, _fourier


@dataclass(frozen=True)
class PhaseDistribution:
    """Exact or sampled outcome probabilities of the phase register."""

    num_bits: int
    delta: float
    probabilities: np.ndarray
    kind: str = "exact"
    shots: int | None = None

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (1 << self.num_bits,):
            raise DimensionMismatchError(
                f"expected {1 << self.num_bits} probabilities, got {probs.shape}"
            )
        if probs.min() < -1e-12:
            raise ValueError(f"negative probability {probs.min():.3e}")
        probs = np.maximum(probs, 0.0)
        object.__setattr__(self, "probabilities", probs)
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {probs.sum():.12f}")
        if self.kind not in ("exact", "empirical"):
            raise ValueError(f"kind must be exact or empirical, got {self.kind!r}")
        if self.kind == "empirical" and (self.shots is None or self.shots < 1):
            raise ValueError("empirical distributions must record a positive shot count")

    def frequencies(self) -> np.ndarray:
        """Signed angular frequency of every outcome."""
        return np.array(
            [outcome_frequency(f, self.num_bits, self.delta) for f in range(1 << self.num_bits)]
        )


def run_qpe(
    prepared: StateVector,
    hamiltonian: HermitianOperator,
    num_bits: int,
    delta: float,
) -> PhaseDistribution:
    """Exact outcome distribution of the phase register for a prepared doubled state."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if num_bits < 1:
        raise ValueError("need at least one phase bit")
    if prepared.num_qubits % 2:
        raise DimensionMismatchError("prepared state must cover two equal copies")
    num_sites = prepared.num_qubits // 2
    if hamiltonian.dim != (1 << num_sites):
        raise DimensionMismatchError(
            f"Hamiltonian dim {hamiltonian.dim} does not match {num_sites}-site copies"
        )
    if prepared.num_qubits + num_bits > QUBIT_CAP:
        raise ResourceCapError(
            f"{prepared.num_qubits + num_bits} qubits exceed the {QUBIT_CAP}-qubit cap"
        )

    dim, sys_dim = 1 << num_bits, hamiltonian.dim
    # Phase-major working array psi[x, a, b]: the register is uniform, the copies prepared.
    psi = np.empty((dim, sys_dim, sys_dim), dtype=complex)
    psi[:] = prepared.amplitudes.reshape(sys_dim, sys_dim) * (1.0 / np.sqrt(dim))
    eig = hamiltonian.eig
    for j in range(num_bits):
        # Branches with bit j of x set: x = (hi, 1, lo) with lo < 2**j.
        branch = psi.reshape(dim >> (j + 1), 2, 1 << j, sys_dim, sys_dim)[:, 1]
        forward = eig.propagator(delta * (1 << j))
        # U on copy a and U^dagger on copy b: psi -> U psi (U^dagger)^T = U psi conj(U).
        np.matmul(forward @ branch, forward.conj(), out=branch)
    amps = _fourier(psi.reshape(dim, -1))
    del psi
    probs = (np.abs(amps) ** 2).sum(axis=1)
    norm_err = abs(math.sqrt(probs.sum()) - 1.0)
    if norm_err > NORM_TOL:
        raise NormalizationError(f"register state norm deviates from 1 by {norm_err:.3e}")
    return PhaseDistribution(num_bits, delta, probs, kind="exact")


def sample_outcomes(
    dist: PhaseDistribution,
    shots: int,
    seed: int | np.random.SeedSequence,
) -> PhaseDistribution:
    """Multinomial draw from an exact distribution, returned as normalized counts."""
    if dist.kind != "exact":
        raise ValueError("sampling requires an exact distribution")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    rng = np.random.default_rng(seed)
    pvals = dist.probabilities / dist.probabilities.sum()
    counts = rng.multinomial(shots, pvals)
    return PhaseDistribution(
        dist.num_bits, dist.delta, counts / shots, kind="empirical", shots=shots
    )


def outcome_frequency(f: int, num_bits: int, delta: float) -> float:
    """Signed angular frequency of outcome f; the upper half wraps to negative values."""
    dim = 1 << num_bits
    if not 0 <= f < dim:
        raise ValueError(f"outcome {f} out of range for {num_bits} bits")
    wrapped = f - dim if f >= dim // 2 else f
    return 2.0 * math.pi * wrapped / (delta * dim)


@dataclass(frozen=True)
class ResolutionPlan:
    """Register size and coupling time meeting a bandwidth and linewidth target."""

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
