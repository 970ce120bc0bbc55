"""Probabilistic preparation of the purified operator state.

The circuit entangles a fresh ancilla with copy a of the doubled register:
Hadamard, controlled ``U = exp(1j * phi * O)``, Hadamard, then postselection
of the ancilla on ``|1>``.  As ``qpe`` folds its phase register, the
simulation folds the ancilla into the base state's matrix B (see ``purify``):
its two branches are ``(B +- U B)/2``, U acting on copy a as a left product.
Postselection succeeds with probability ``P1 = <sin^2(phi*O/2)>`` and the
accepted branch has fidelity

    F = |<O (1 - exp(1j*phi*O))>|^2 / (<O^2> <4 sin^2(phi*O/2)>)

with the target operator state, all expectations taken in the ensemble's
base state.  Keeping the identity part in the numerator makes F exactly
``|<target|accepted>|^2`` even when the observable carries a trace or the
ensemble is at finite temperature; it reduces to ``|<O U(phi)>|^2``
whenever ``<O> = 0``.

Both branch norms are always computed exactly; the seeded Bernoulli draw
only decides which branch an end-to-end run keeps.  The circuit is
deterministic apart from that draw, so ``run_prep_circuit``, a run's one
preparation call, simulates it once and redraws only the ancilla: attempt
``k`` draws the first double of the generator at spawn key ``(1, k)`` of the
run's seed.  Building a numpy generator per attempt would cost far more than
the draw, so ``_ancilla_draws`` reproduces those draws bit for bit, ``_BLOCK``
attempts at a time, in vectorized 32- and 64-bit integer arithmetic: numpy's
``SeedSequence`` hash, its PCG64 seeding and one PCG64 step.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateAngleError, ResourceCapError, ZeroOperatorError
from .models import EigenvalueDistribution, analytic_moments
from .purify import (
    INFINITE_TEMPERATURE,
    EnsembleSpec,
    base_state,
    ensemble_populations,
    operator_state,
    reject_annihilation,
)
from .simcore import QUBIT_CAP, HermitianOperator, StateVector, overlap

TRACE_TOL = 1e-12

_PREP_KEY = 1
_BLOCK = 1024

_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants, and the PCG64 multiplier split into 64-bit halves.
_HASH_A, _HASH_A_MULT = 0x43B0D7E5, 0x931E8875
_HASH_B, _HASH_B_MULT = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


@dataclass(frozen=True)
class MomentSet:
    """Second to fourth moments of the observable in the ensemble's base state."""

    m2: float
    m3: float
    m4: float

    def __post_init__(self) -> None:
        if not self.m2 > 0:
            raise ZeroOperatorError("second moment must be positive")
        if not self.m4 > 0:
            raise ZeroOperatorError("fourth moment underflows to zero")
        if self.m4 < self.m2**2 - 1e-12 * max(1.0, self.m2**2):
            raise ValueError("moments violate m4 >= m2^2")


@dataclass(frozen=True)
class PrepOutcome:
    """Circuit preparation run until an attempt accepts or the budget is spent.

    ``post_state`` is the accepted branch (None when no attempt accepted);
    ``stats``, filled either way, is the ``prep`` record of ``report.json``.
    """

    accepted: bool
    post_state: StateVector | None
    stats: dict


@dataclass(frozen=True)
class SuccessBound:
    """Predicted acceptance at the chosen angle and its spectral lower bounds."""

    predicted_p1: float
    spectral_bound: float
    rank_bound: float
    o_max: float
    o_min: float
    rank: int


def is_traceless(operator: HermitianOperator) -> bool:
    """Whether tr(O)/dim is within ``TRACE_TOL`` of zero."""
    return bool(abs(np.trace(operator.matrix).real) / operator.dim <= TRACE_TOL)


def _eigen_weights(
    operator: HermitianOperator,
    ensemble: EnsembleSpec,
    hamiltonian: HermitianOperator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of O and their occupation probabilities in the base state."""
    eig_o = operator.eig
    if ensemble.kind == "infinite_temperature":
        return eig_o.eigenvalues, np.full(operator.dim, 1.0 / operator.dim)
    if hamiltonian is None:
        raise ValueError(f"{ensemble.kind} expectations require the Hamiltonian")
    eig_h = hamiltonian.eig
    pops = ensemble_populations(eig_h, ensemble)
    amp = eig_o.eigenvectors.conj().T @ eig_h.eigenvectors
    q = (np.abs(amp) ** 2) @ pops
    return eig_o.eigenvalues, q


def _second_moment(vals: np.ndarray, q: np.ndarray, ensemble: EnsembleSpec) -> float:
    """<O^2>; rejected when O annihilates the base state (see ``purify.M2_RTOL``)."""
    m2 = float(q @ vals**2)
    reject_annihilation(m2, float(np.mean(vals**2)), ensemble)
    return m2


def moments(
    operator: HermitianOperator,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    hamiltonian: HermitianOperator | None = None,
) -> MomentSet:
    """<O^2>, <O^3>, <O^4> in the ensemble's base state."""
    vals, q = _eigen_weights(operator, ensemble, hamiltonian)
    return MomentSet(_second_moment(vals, q, ensemble), float(q @ vals**3), float(q @ vals**4))


def acceptance_probability(
    operator: HermitianOperator,
    phi: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    hamiltonian: HermitianOperator | None = None,
) -> float:
    """Exact postselection probability <sin^2(phi*O/2)> in the base state."""
    vals, q = _eigen_weights(operator, ensemble, hamiltonian)
    return float(q @ np.sin(0.5 * phi * vals) ** 2)


def preparation_fidelity(
    operator: HermitianOperator,
    phi: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    hamiltonian: HermitianOperator | None = None,
) -> float:
    """Squared overlap of the accepted branch with the target operator state."""
    if phi == 0.0:
        raise DegenerateAngleError("fidelity is undefined at phi = 0")
    vals, q = _eigen_weights(operator, ensemble, hamiltonian)
    numerator = abs(np.sum(q * vals * (1.0 - np.exp(1j * phi * vals)))) ** 2
    m2 = _second_moment(vals, q, ensemble)
    branch = float(q @ (2.0 - 2.0 * np.cos(phi * vals)))
    if branch <= 1e-24:
        raise DegenerateAngleError("accepted branch has zero norm at this angle")
    return float(numerator / (m2 * branch))


def simulate_prep_circuit(
    operator: HermitianOperator,
    phi: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    hamiltonian: HermitianOperator | None = None,
) -> tuple[float, StateVector, float]:
    """Simulate Hadamard, controlled U = exp(1j*phi*O) on copy a, Hadamard on a fresh ancilla.

    The ancilla is folded into the base matrix B, leaving its ``|1>`` branch
    ``(B - U B)/2``.  Returns the exact, unclipped acceptance probability P1,
    the normalized accepted branch and its fidelity with the target operator state.
    """
    base = base_state(ensemble, hamiltonian, operator.num_qubits)
    n = base.num_qubits
    if n + 1 > QUBIT_CAP:
        raise ResourceCapError(f"prep circuit needs {n + 1} qubits, cap is {QUBIT_CAP}")

    matrix = base.amplitudes.reshape(operator.dim, operator.dim)
    rotation = operator.eig.apply_function(lambda v: np.exp(1j * phi * v))
    branch = (matrix - rotation @ matrix) / 2
    p1 = float(np.linalg.norm(branch) ** 2)
    if p1 <= 1e-24:
        raise DegenerateAngleError("rotation angle leaves the accepted branch empty")
    post = StateVector(n, branch.reshape(-1) / np.sqrt(p1))
    target = operator_state(operator, base, ensemble)
    fidelity = min(abs(overlap(target, post)) ** 2, 1.0)
    return p1, post, fidelity


def run_prep_circuit(
    operator: HermitianOperator,
    epsilon: float,
    ensemble: EnsembleSpec = INFINITE_TEMPERATURE,
    hamiltonian: HermitianOperator | None = None,
    *,
    seed: int,
    max_attempts: int,
) -> PrepOutcome:
    """Prepare the operator state at the angle ``choose_phi`` picks for ``epsilon``.

    The circuit is simulated once; attempt ``k`` (from 0) then draws the ancilla
    from spawn key ``(1, k)`` of ``seed`` until a draw falls below P1.  The draws
    come ``_BLOCK`` attempts at a time, the last block cut at the budget.  After
    ``max_attempts`` rejections ``accepted`` is False and ``attempts == max_attempts``.
    """
    ms = moments(operator, ensemble, hamiltonian)
    phi = choose_phi(ms, epsilon)
    bound = success_probability_bound(operator, ms, epsilon)
    p1, post, fidelity = simulate_prep_circuit(operator, phi, ensemble, hamiltonian)
    attempts, accepted = max_attempts, False
    for start in range(0, max_attempts, _BLOCK):
        below = np.flatnonzero(_ancilla_draws(seed, start, min(start + _BLOCK, max_attempts)) < p1)
        if below.size:
            attempts, accepted = start + int(below[0]) + 1, True
            break
    stats = dict(phi=phi, epsilon=epsilon, attempts=attempts, acceptance_probability=min(p1, 1.0),
                 fidelity_with_target=fidelity, **asdict(bound), traceless=is_traceless(operator))
    return PrepOutcome(accepted, post if accepted else None, stats)


def _ancilla_draws(seed: int, start: int, stop: int) -> np.ndarray:
    """Draws of attempts ``start`` to ``stop - 1``, each bit for bit the first double of
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, k)))``.

    ``hashmix`` and ``mix`` take Python ints and uint32 arrays alike, so the words
    that every attempt shares (the seed's and the key's 1) are hashed once and
    the attempt's own words per element.  Attempts from 2**32 on carry a second word.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    hash_const = _HASH_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _HASH_A_MULT & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        # _MIX_L * x - _MIX_R * y, the subtraction written as an addition mod 2**32.
        result = (_MIX_L * x & _M32) + (-_MIX_R & _M32) * y & _M32
        return result ^ result >> 16

    # The seed's little-endian 32-bit words (0 has one), which a spawn key pads
    # to the 4-word pool before the key's own words follow.
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy)) + [_PREP_KEY]
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    attempts = np.arange(start, stop, dtype=np.uint64)
    for word in entropy[4:] + [(attempts & _M32).astype(np.uint32)]:
        pool = [mix(p, hashmix(word)) for p in pool]
    if stop > 1 << 32:
        high = (attempts >> 32).astype(np.uint32)
        longer = [mix(p, hashmix(high)) for p in pool]
        pool = [np.where(high > 0, b, a) for a, b in zip(pool, longer)]

    # generate_state(4, uint64): eight hashed pool words, paired little-endian.
    hash_const, words = _HASH_B, []
    for i in range(8):
        word = pool[i % 4] ^ hash_const
        hash_const = hash_const * _HASH_B_MULT & _M32
        word = word * hash_const & _M32
        words.append((word ^ word >> 16).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (words[j] | words[j + 1] << 32 for j in range(0, 8, 2))

    # PCG64 on (hi, lo) uint64 halves mod 2**128: inc = 2*(inc_hi, inc_lo) + 1 and
    # state = inc + (seed_hi, seed_lo); then the seeding step and the draw's own step.
    inc_hi, inc_lo = inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    for _ in range(2):
        # The high word of lo * _PCG_MULT_LO from 32-bit partial products, plus the cross terms.
        lo_lo, lo_hi = lo & _M32, lo >> 32
        p00, p01 = lo_lo * (_PCG_MULT_LO & _M32), lo_lo * (_PCG_MULT_LO >> 32)
        p10, p11 = lo_hi * (_PCG_MULT_LO & _M32), lo_hi * (_PCG_MULT_LO >> 32)
        middle = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
        hi = p11 + (p01 >> 32) + (p10 >> 32) + (middle >> 32) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
        lo = lo * _PCG_MULT_LO + inc_lo
        hi = hi + inc_hi + (lo < inc_lo)
    # XSL-RR output, then the top 53 bits as a double in [0, 1).
    folded, turn = hi ^ lo, hi >> 58
    out = folded >> turn | folded << (64 - turn & 63)
    return (out >> 11) * 2.0**-53


def choose_phi(ms: MomentSet, epsilon: float) -> float:
    """Angle sqrt(epsilon * m2 / m4), where the infidelity is (epsilon/4)(1 - m3^2/(m2*m4)) to leading order."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    return math.sqrt(epsilon * ms.m2 / ms.m4)


def success_probability_bound(operator: HermitianOperator, ms: MomentSet, epsilon: float) -> SuccessBound:
    """Predicted P1 at the chosen angle and the chain of spectral lower bounds.

    ``ms`` holds O's moments in the base state.  At phi^2 = eps*m2/m4 the
    exact P1 = <sin^2(phi*O/2)> lies at most phi^4*m4/48 below phi^2*m2/4, so
    predicted_p1 = eps*m2^2/(4*m4) >= eps*m2/(4*o_max^2) >= eps*(rank/dim)*(o_min/o_max)^2/4.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    vals = operator.eig.eigenvalues
    magnitudes = np.abs(vals)
    o_max = float(magnitudes.max())  # positive: MomentSet rejects a zero second moment
    nonzero = magnitudes[magnitudes > 1e-12 * o_max]
    o_min = float(nonzero.min())
    rank = int(nonzero.size)
    return SuccessBound(
        predicted_p1=epsilon * ms.m2**2 / ms.m4 / 4,
        spectral_bound=epsilon * ms.m2 / o_max**2 / 4,
        rank_bound=epsilon * rank / operator.dim * (o_min / o_max) ** 2 / 4,
        o_max=o_max,
        o_min=o_min,
        rank=rank,
    )


def moment_ratio_constant(dist: EigenvalueDistribution) -> float:
    """The small-angle ratio P1/(1 - F) = m2^2/m4 from the law's analytic moments."""
    m2, _, m4 = analytic_moments(dist)
    return m2 * m2 / m4


def choose_phi_for_distribution(dist: EigenvalueDistribution, epsilon: float) -> float:
    """``choose_phi`` at the law's analytic moments."""
    return choose_phi(MomentSet(*analytic_moments(dist)), epsilon)
