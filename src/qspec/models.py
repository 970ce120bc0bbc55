"""Spin-1/2 chain Hamiltonians and observables.

Models are written as sums of Pauli strings and compiled to dense Hermitian
matrices.  A Pauli string has one nonzero entry per column, so each term is
compiled from its X/Y flip mask, Z/Y sign mask and ``i**(#Y)`` phase in
O(2**N), never as a Kronecker product.  Chains use open boundary
conditions.  Synthetic observables are spectra only: eigenvalues drawn from
one of the four symmetric laws of ``EIGENVALUE_LAWS`` (semicircle, uniform,
arcsine, gaussian), each a unit-scale table entry of its two even moments and
its sampler, shifted traceless and sorted, with no matrix built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .simcore import HermitianOperator

#: Largest chain compiled to a dense matrix or drawn as a synthetic spectrum
#: (doubled-system use stays in cap).
MAX_SITES = 11

_PAULI = "IXYZ"
#: Exact powers i**k, k = 0..3: the phase of a string with k factors of Y.
_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string, e.g. ``0.5 * ZZI``."""

    coefficient: float
    factors: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")
        if not self.factors or any(c not in _PAULI for c in self.factors):
            raise ValueError(f"factors must be a non-empty string over IXYZ, got {self.factors!r}")


@dataclass(frozen=True)
class ModelSpec:
    """A named sum of Pauli strings on ``num_sites`` spins."""

    num_sites: int
    terms: tuple[PauliTerm, ...]
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.num_sites < 1:
            raise ValueError("num_sites must be at least 1")
        if not self.terms:
            raise ValueError("model needs at least one term")
        for term in self.terms:
            if len(term.factors) != self.num_sites:
                raise ValueError(
                    f"term {term.factors!r} does not cover {self.num_sites} sites"
                )

    def to_dict(self) -> dict:
        return {
            "N": self.num_sites,
            "name": self.name,
            "terms": [{"coefficient": t.coefficient, "factors": t.factors} for t in self.terms],
        }


def check_sites(num_sites: int) -> None:
    """Reject a chain longer than ``MAX_SITES``."""
    if num_sites > MAX_SITES:
        raise ResourceCapError(f"{num_sites} sites exceed the dense-matrix cap of {MAX_SITES}")


def build_operator(spec: ModelSpec) -> HermitianOperator:
    """Compile the Pauli sum to a dense matrix (real coefficients keep it Hermitian).

    A string with X/Y flip mask ``x``, Z/Y sign mask ``z`` and ``y`` factors
    of Y has exactly one entry per column: ``P[c ^ x, c] = i**y (-1)**|c & z|``.
    When every string has an even number of Y factors, every entry is real
    and the sum is accumulated in float64: the same float sums as the real
    part of a complex accumulation, at half its memory.
    """
    check_sites(spec.num_sites)
    n = spec.num_sites
    dim = 1 << n
    idx = np.arange(dim)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx) & 1)  # signs[c] = (-1)**popcount(c)
    real = all(term.factors.count("Y") % 2 == 0 for term in spec.terms)
    total = np.zeros((dim, dim), dtype=float if real else complex)
    for term in spec.terms:
        xmask = zmask = 0
        for site, factor in enumerate(term.factors):
            bit = 1 << (n - 1 - site)  # site 0 is the most significant qubit
            if factor in "XY":
                xmask |= bit
            if factor in "ZY":
                zmask |= bit
        phase = _I_POWERS[term.factors.count("Y") % 4]
        coefficient = term.coefficient * (phase.real if real else phase)
        total[idx ^ xmask, idx] += coefficient * signs[idx & zmask]
    return HermitianOperator(total)


def _string(num_sites: int, placed: dict[int, str]) -> str:
    return "".join(placed.get(i, "I") for i in range(num_sites))


def tilted_ising(num_sites: int, g: float = 1.05, h: float = 0.5) -> ModelSpec:
    """Nearest-neighbour ZZ chain with transverse field g and longitudinal tilt h.

    With both fields on, the chain is nonintegrable; h=0 recovers the plain
    transverse-field model.
    """
    terms = [PauliTerm(1.0, _string(num_sites, {i: "Z", i + 1: "Z"})) for i in range(num_sites - 1)]
    terms += [PauliTerm(g, _string(num_sites, {i: "X"})) for i in range(num_sites)]
    if h != 0.0:
        terms += [PauliTerm(h, _string(num_sites, {i: "Z"})) for i in range(num_sites)]
    return ModelSpec(num_sites, tuple(terms), name=f"tilted_ising(g={g},h={h})")


def heisenberg(num_sites: int, coupling: float = 1.0) -> ModelSpec:
    """Isotropic nearest-neighbour XX+YY+ZZ chain."""
    terms = []
    for i in range(num_sites - 1):
        for axis in "XYZ":
            terms.append(PauliTerm(coupling, _string(num_sites, {i: axis, i + 1: axis})))
    return ModelSpec(num_sites, tuple(terms), name=f"heisenberg(J={coupling})")


#: The model presets a configuration names: (builder, its parameters by name, the fewest sites).
MODEL_PRESETS = {
    "tilted_ising": (tilted_ising, ("g", "h"), 1),
    "heisenberg": (heisenberg, ("coupling",), 2),  # a chain with one bond at least
}


OBSERVABLE_PRESETS = ("total_sz", "site_sz", "staggered_sz")


def observable_spec(name: str, num_sites: int, site: int | None = None) -> ModelSpec:
    """The named observable preset written out as a Pauli sum; only ``site_sz`` takes a site (default 0)."""
    if site is not None and name != "site_sz":
        raise ValueError(f"only the site_sz preset takes a site, not {name!r}")
    if name == "total_sz":
        terms = tuple(PauliTerm(1.0, _string(num_sites, {i: "Z"})) for i in range(num_sites))
    elif name == "site_sz":
        site = 0 if site is None else site
        if not 0 <= site < num_sites:
            raise ValueError(f"site {site} out of range")
        terms = (PauliTerm(1.0, _string(num_sites, {site: "Z"})),)
    elif name == "staggered_sz":
        terms = tuple(
            PauliTerm((-1.0) ** i, _string(num_sites, {i: "Z"})) for i in range(num_sites)
        )
    else:
        raise ValueError(f"unknown observable preset {name!r}; choose from {OBSERVABLE_PRESETS}")
    return ModelSpec(num_sites, terms, name=name)


#: The synthetic observables' eigenvalue laws at unit scale: kind -> (m2, m4, draw(size, rng)).
#: All four are symmetric, so every odd moment is 0.  A law of scale a has moments
#: a**2 * m2 and a**4 * m4, and its P1 at angle phi is the unit law's at a * phi.
EIGENVALUE_LAWS = {
    # (x + 1) / 2 of the unit semicircle follows Beta(3/2, 3/2).
    "semicircle": (1 / 4, 1 / 8, lambda size, rng: 2.0 * rng.beta(1.5, 1.5, size) - 1.0),
    "uniform": (1 / 3, 1 / 5, lambda size, rng: rng.uniform(-1.0, 1.0, size)),
    "arcsine": (1 / 2, 3 / 8, lambda size, rng: np.cos(np.pi * rng.random(size))),
    "gaussian": (1.0, 3.0, lambda size, rng: rng.normal(0.0, 1.0, size)),
}


def synthetic_eigenvalues(kind: str, num_sites: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """Sorted spectrum of the law ``kind``: 2**N seeded i.i.d. draws, shifted traceless."""
    _, _, draw = EIGENVALUE_LAWS[kind]
    check_sites(num_sites)
    vals = draw(1 << num_sites, np.random.default_rng(seed))
    return np.sort(vals - vals.mean())
