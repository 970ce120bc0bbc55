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
whenever ``<O> = 0``.  ``preparation_fidelity`` evaluates it in half-angle
form, where neither sum cancels at small angles.

The closed forms are functions of the occupied spectrum ``(vals, q)``: O's
eigenvalues and their probabilities in the base state, which
``spectral_weights(operator, eig_h, ensemble)`` resolves once.  A run
records F at the chosen angle as ``fidelity_with_target`` from this closed
form, while P1 is the simulated branch's norm; the target state itself is
never built.  Every function that reads an operator takes (operator, H's
decomposition, ensemble) in that order, every member required: H enters
only through the decomposition the run made once.

Only the ``|1>`` branch is built; its squared norm is P1 exactly, and the
``|0>`` branch holds the rest, ``1 - P1``.  The seeded draw only decides
at which attempt an end-to-end run accepts.  The circuit is deterministic
apart from that draw, so ``run_prep_circuit``, a run's one preparation call,
simulates it once.  Repeating the preparation until the ancilla reads
``|1>`` matters only through the index K of the first accepted attempt, and
K follows the geometric law of success probability P1 exactly.  One uniform
double u, the first of the generator at spawn key ``(1,)`` of the run's
seed, gives K by inversion, ``K = max(1, ceil(log1p(-u) / log1p(-P1)))``,
since then ``P(K > k) = (1 - P1)**k``.  A seed accepts at the same attempt
whatever the budget.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateAngleError, ResourceCapError, ZeroOperatorError
from .purify import EnsembleSpec, base_state, ensemble_populations, reject_annihilation, reject_size_mismatch
from .simcore import QUBIT_CAP, EigenDecomposition, HermitianOperator, StateVector

TRACE_TOL = 1e-12

_PREP_KEY = 1
_TINY = float(np.finfo(float).tiny)  # the smallest normal double


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


def spectral_weights(
    operator: HermitianOperator,
    eig_h: EigenDecomposition,
    ensemble: EnsembleSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of O and their occupation probabilities q in the ensemble's base state.

    The closed forms' one reader of the (operator, H's decomposition,
    ensemble) triple: an O that annihilates the base state is rejected here
    (see ``purify.M2_RTOL``).  Infinite temperature occupies every eigenvalue
    evenly and reads only the size of ``eig_h``.
    """
    reject_size_mismatch(operator, eig_h)
    eig_o = operator.eig
    vals = eig_o.eigenvalues
    if ensemble.kind == "infinite_temperature":
        q = np.full(operator.dim, 1.0 / operator.dim)
    else:
        amp = eig_o.eigenvectors.conj().T @ eig_h.eigenvectors
        q = (np.abs(amp) ** 2) @ ensemble_populations(eig_h, ensemble)
    reject_annihilation(float(q @ vals**2), operator, ensemble)
    return vals, q


def moments(vals: np.ndarray, q: np.ndarray) -> MomentSet:
    """<O^2>, <O^3>, <O^4> over the eigenvalues ``vals`` occupied with probabilities ``q``."""
    return MomentSet(float(q @ vals**2), float(q @ vals**3), float(q @ vals**4))


def acceptance_probability(vals: np.ndarray, q: np.ndarray, phi: float) -> float:
    """Exact postselection probability <sin^2(phi*O/2)> over the occupied spectrum."""
    return float(q @ np.sin(0.5 * phi * vals) ** 2)


def preparation_fidelity(vals: np.ndarray, q: np.ndarray, phi: float) -> float:
    """Squared overlap of the accepted branch with the target operator state.

    Evaluated through ``1 - exp(1j*t) = -2j sin(t/2) exp(1j*t/2)`` as
    ``|<O sin(phi*O/2) exp(1j*phi*O/2)>|^2 / (<O^2> P1)``, whose sums do not
    cancel at small angles, where ``<2 - 2cos(phi*O)>`` would carry a
    relative rounding error of about ``1e-16 / (phi*O)^2``.  So it holds
    however small P1 is, and fails only when the denominator is not a
    normal double (zero included).
    """
    half = 0.5 * phi * vals
    sines = np.sin(half)
    denominator = float(q @ vals**2) * float(q @ sines**2)
    if not _TINY <= denominator < math.inf:
        raise DegenerateAngleError(f"<O^2> P1 = {denominator:.3g} is not a normal double at this angle")
    return float(abs(np.sum(q * vals * sines * np.exp(1j * half))) ** 2 / denominator)


def simulate_prep_circuit(
    operator: HermitianOperator,
    eig_h: EigenDecomposition,
    ensemble: EnsembleSpec,
    phi: float,
) -> tuple[float, StateVector]:
    """Simulate Hadamard, controlled U = exp(1j*phi*O) on copy a, Hadamard on a fresh ancilla.

    The ancilla is folded into the base matrix B, leaving its ``|1>`` branch
    ``(B - U B)/2``.  Returns the exact, unclipped acceptance probability P1
    and the normalized accepted branch.
    """
    base = base_state(eig_h, ensemble)
    n = base.num_qubits
    if n + 1 > QUBIT_CAP:
        raise ResourceCapError(f"prep circuit needs {n + 1} qubits, cap is {QUBIT_CAP}")

    matrix = base.amplitudes.reshape(operator.dim, operator.dim)
    rotation = operator.eig.propagator(phi)
    branch = (matrix - rotation @ matrix) / 2
    p1 = float(np.linalg.norm(branch) ** 2)
    if p1 <= 1e-24:
        raise DegenerateAngleError("rotation angle leaves the accepted branch empty")
    return p1, StateVector(n, branch.reshape(-1) / np.sqrt(p1))


def run_prep_circuit(
    operator: HermitianOperator,
    eig_h: EigenDecomposition,
    ensemble: EnsembleSpec,
    epsilon: float,
    *,
    seed: int,
    max_attempts: int,
) -> PrepOutcome:
    """Prepare the operator state at the angle ``choose_phi`` picks for ``epsilon``.

    The circuit is simulated once; the accepting attempt K is then one draw
    from the geometric law of P1 (module docstring), taken from spawn key
    ``(1,)`` of ``seed``.  ``accepted`` is ``K <= max_attempts`` and the
    recorded attempts are ``min(K, max_attempts)``; ``fidelity_with_target``
    is ``preparation_fidelity`` at the chosen angle.

    O is decomposed once, for the closed forms and the circuit, on a local
    handle of its matrix: the decomposition is released on return instead of
    staying memoised on the caller's operator.
    """
    operator = HermitianOperator(operator.matrix)
    vals, q = spectral_weights(operator, eig_h, ensemble)
    ms = moments(vals, q)
    phi = choose_phi(ms, epsilon)
    bound = success_probability_bound(vals, ms, epsilon)
    p1, post = simulate_prep_circuit(operator, eig_h, ensemble, phi)
    u = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_PREP_KEY,))).random()
    # At the chosen angle P1 <= predicted_p1 <= epsilon/4 < 1/4, so log1p(-P1) is finite and negative.
    first = max(1, math.ceil(math.log1p(-u) / math.log1p(-p1)))
    accepted, attempts = first <= max_attempts, min(first, max_attempts)
    fidelity = min(preparation_fidelity(vals, q, phi), 1.0)
    stats = dict(phi=phi, epsilon=epsilon, attempts=attempts, acceptance_probability=min(p1, 1.0),
                 fidelity_with_target=fidelity, **asdict(bound), traceless=is_traceless(operator))
    return PrepOutcome(accepted, post if accepted else None, stats)


def choose_phi(ms: MomentSet, epsilon: float) -> float:
    """Angle sqrt(epsilon * m2 / m4), where the infidelity is (epsilon/4)(1 - m3^2/(m2*m4)) to leading order."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    return math.sqrt(epsilon * ms.m2 / ms.m4)


def success_probability_bound(vals: np.ndarray, ms: MomentSet, epsilon: float) -> SuccessBound:
    """Predicted P1 at the chosen angle and the chain of spectral lower bounds.

    ``vals`` are O's eigenvalues, ``vals.size`` its dimension, and ``ms`` its
    moments in the base state.  At phi^2 = eps*m2/m4 the
    exact P1 = <sin^2(phi*O/2)> lies at most phi^4*m4/48 below phi^2*m2/4, so
    predicted_p1 = eps*m2^2/(4*m4) >= eps*m2/(4*o_max^2) >= eps*(rank/dim)*(o_min/o_max)^2/4.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    magnitudes = np.abs(vals)
    o_max = float(magnitudes.max())  # positive: MomentSet rejects a zero second moment
    nonzero = magnitudes[magnitudes > 1e-12 * o_max]
    o_min = float(nonzero.min())
    rank = int(nonzero.size)
    return SuccessBound(
        predicted_p1=epsilon * ms.m2**2 / ms.m4 / 4,
        spectral_bound=epsilon * ms.m2 / o_max**2 / 4,
        rank_bound=epsilon * rank / vals.size * (o_min / o_max) ** 2 / 4,
        o_max=o_max,
        o_min=o_min,
        rank=rank,
    )
