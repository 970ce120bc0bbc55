"""Exact-diagonalization references for every circuit result.

Lorentzian spectra are evaluated in closed form from the spectral
decomposition, never by numerical time integration of the correlation
function ``<O(t) O(0)>``, which no command outputs; the frequency convention
puts the absorption peak of a transition n -> m at ``omega = e_m - e_n`` and
is locked by a two-level regression test.  The closed-form outcome
distribution, the same sum over transitions with the phase-register leakage
kernel in place of the Lorentzian, gives an independent route to the
statistics the circuit produces, which the test-suite compares bin by bin.

Every consumer reads one ``TransitionTable`` per run, built by
``transition_weights``: the observable in H's eigenbasis ``O_e = V^dagger O V``
and the ensemble populations p, computed once, give each transition n -> m
the energy difference ``e_m - e_n`` and weight ``p_n |O_e,nm|^2``.  A
transition and its reverse share ``|O_e,nm|^2`` and sit at opposite gaps, so
the table holds one row per pair of levels n <= m: the gap ``e_m - e_n >= 0``
with the absorption weight ``p_n |O_e,nm|^2`` at +gap and the emission weight
``p_m |O_e,mn|^2`` at -gap.  Each consumer's kernel is even under a flip of
both gap and argument, so it is evaluated once per gap and the emission
column is read at the mirrored point: the spectrum at ``-omega``, the
phase-register distribution at bin ``-f``.  The oracle shares no
purification code with the circuit, only its inputs: H's decomposition,
which a run makes once and hands to both, the ensemble populations p of
``purify.ensemble_populations``, from which ``purify.base_state`` also
builds the circuit's base state, and the annihilation rule
``purify.reject_annihilation``.  Since circuit and oracle
read the same p, the test suite checks p against an independent purification.

``O_e`` is formed by H's sectors (``simcore.EigenDecomposition.to_eigenbasis``):
O is folded once into the sector basis of the chain reflection R, and each
pair of sectors gives one half-size product, scattered into the merged
order; a block of the folded O that is all zero, such as the cross blocks
of an R-symmetric O like ``total_sz``, is skipped, so its weights are exact
zeros.  An O that breaks R, such as ``site_sz``, keeps all four blocks, and
an H that is one sector gives ``V^dagger O V`` in one product.  The oracle
still shares only H's decomposition with the circuit, and no dense V is
assembled.

The table is pruned: of its T = 4**N directed transitions it drops every one
whose weight is at most ``2**-60 * sum(w) / T``, and a pair row goes once both
of its directions are dropped.  The dropped mass is then at most ``2**-60`` of
the total, so each oracle probability moves by at most ``2**-60`` and each
spectrum value by at most ``2**-60 * sum(w) / gamma``.  In a
reflection-symmetric model about half of the transitions carry weight that
symmetry makes exactly zero: exact zeros when O is R-symmetric too (its
cross blocks are skipped), and otherwise rounding far below that threshold.

Both sums run on one sorted grid that holds each point's negative, in
1 MiB tiles of 32 points by 4096 pairs, or more points when there are fewer
pairs (``TILE``: each numpy call and each product covers many elements, and a
tile fits a core's L2), on a thread pool when there is more than one block of
points (``_transition_sum``).  Each kernel sets its own numpy error state, so
no worker copies the caller's context.  The sums do not move by a bit with
the number of CPUs, only with the BLAS thread count, as the table's products do.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError
from .purify import EnsembleSpec, ensemble_populations, reject_annihilation, reject_size_mismatch
from .qpe import PhaseDistribution
from .simcore import EigenDecomposition, HermitianOperator


@dataclass(frozen=True)
class SpectrumTable:
    """Spectral function values on a frequency grid."""

    frequencies: np.ndarray
    values: np.ndarray
    gamma: float

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)
        if freqs.shape != vals.shape:
            raise DimensionMismatchError("frequency and value grids differ in length")
        if not np.all(np.isfinite(vals)):
            raise ValueError("spectrum contains non-finite values")


#: The pruning share of the module docstring: the bound on the dropped mass.
PRUNE_SHARE = 2.0**-60

#: Shape (points, pairs) of one tile of ``_transition_sum``: 2**17 doubles
#: (1 MiB).  Each kernel pass is one numpy call per tile, so a larger tile pays
#: less dispatch per element, and 32 points make the product with the weights a
#: taller matrix one; the tile still fits a 2 MiB per-core L2.  On the N=9
#: ``qspec oracle`` table (66045 pairs, 2001 points; 2-vCPU x86 host, 2 BLAS
#: threads, medians of 48 runs) two workers summed it in 185 ms and one in
#: 284 ms, against 236 and 293 ms for (8, 2**13); (16, 2**13) and (48, 2**12)
#: read about the same, (64, 2**11) and (32, 2**13) slower.  Fewer pairs than a
#: tile row leave room for more points.  The second worker's gain assumes an
#: idle second CPU: after a multithreaded BLAS call, such as the table's
#: products, OpenBLAS's idle threads busy-wait for 0.1-0.2 s and hold it, so in
#: ``qspec oracle`` at N=9 the whole spectrum took 0.19-0.23 s at 2 BLAS
#: threads against 0.165-0.178 s at 1.
TILE = (32, 1 << 12)


@dataclass(frozen=True)
class TransitionTable:
    """The pairs of levels n <= m of one run that carry weight, in closed form.

    Row k is the pair at flat position ``index = n * dim + m``: ``gaps`` holds
    ``e_m - e_n >= 0`` and ``weights`` its two directions, column 0 the
    transition n -> m at +gap with ``p_n |O_nm|^2`` and column 1 the reverse
    m -> n at -gap with ``p_m |O_mn|^2`` (O in H's eigenbasis, p the ensemble
    populations).  A pruned direction and the diagonal's reverse read 0.
    ``mass`` is the weight sum over all ``total`` directed transitions before
    pruning, and ``kept`` counts the directed transitions that survive it.
    """

    gaps: np.ndarray
    weights: np.ndarray
    mass: float
    index: np.ndarray
    total: int

    @property
    def kept(self) -> int:
        return int(np.count_nonzero(self.weights))


def transition_weights(
    eig_h: EigenDecomposition,
    operator: HermitianOperator,
    ensemble: EnsembleSpec,
) -> TransitionTable:
    """The run's one transition table: O in H's eigenbasis once, by H's sectors, pruned by mass.

    ``eig_h`` is H's decomposition, the one the circuit reads too; ``O_e`` is its
    ``to_eigenbasis`` of O (module docstring).

    The circuit's phase register sees these weights directly.  The purified
    state's matrix (see ``purify``) is ``M = O V diag(sqrt(p)) V^dagger =
    V c V^dagger`` with ``c = O_e diag(sqrt(p))``, and with -H^T on copy b
    each ``c_mn`` turns with the gap ``e_m - e_n``, so the register sees
    ``|c_mn|^2 = p_n |O_nm|^2`` there: the spectral weight of n -> m.

    A transition is dropped only when its weight is at most ``PRUNE_SHARE``
    times the mean weight, so the pruned mass is at most ``PRUNE_SHARE`` of
    the total; a pair row is dropped when both of its transitions are.  The
    mass is ``<O^2>`` in the base state, and an observable that annihilates
    the base state is rejected (``purify.reject_annihilation``).
    """
    reject_size_mismatch(operator, eig_h)
    levels = eig_h.eigenvalues
    pops = ensemble_populations(eig_h, ensemble)
    # |O_nm|^2 in one array, squared and then weighted in place.
    weights = np.abs(eig_h.to_eigenbasis(operator.matrix))
    np.square(weights, out=weights)
    np.multiply(weights, pops[:, None], out=weights)  # the transition n -> m at [n, m]
    mass = float(weights.sum())
    reject_annihilation(mass, operator, ensemble)
    # One pass, no sort: the weights above PRUNE_SHARE of their mean, and the
    # pairs n <= m (levels ascending, so gaps >= 0) with either direction kept.
    cut = PRUNE_SHARE * mass / weights.size
    live = weights > cut
    index = np.flatnonzero(np.triu(live | live.T))
    initial, final = np.divmod(index, eig_h.dim)
    pairs = np.empty((index.size, 2))
    pairs[:, 0] = weights.reshape(-1)[index]
    pairs[:, 1] = weights[final, initial]
    pairs[pairs <= cut] = 0.0
    pairs[initial == final, 1] = 0.0
    return TransitionTable(
        gaps=levels[final] - levels[initial],
        weights=pairs,
        mass=mass,
        index=index,
        total=weights.size,
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mirror(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of the points and their negatives, and where each point sits in it."""
    grid, where = np.unique(np.concatenate((points, -points)), return_inverse=True)
    return grid, where[: points.size]


def _transition_sum(
    table: TransitionTable,
    grid: np.ndarray,
    kernel: Callable[[np.ndarray, slice, np.ndarray], None],
) -> np.ndarray:
    """Real sum over kept transitions of ``weight * kernel(point, gap)`` at every grid point.

    The kernel satisfies ``kernel(p, -g) == kernel(-p, g)``, so a reverse
    transition at -gap contributes the pair's kernel at -p.  ``grid`` is
    sorted and holds the negative of each of its points (``_mirror`` builds
    one, or a caller knows it in closed form), so ``grid[::-1] == -grid``:
    the kernel runs once on the grid, each tile meets both weight columns in
    one product, and ``S = out[:, 0] + out[::-1, 1]``.
    ``kernel(block, pairs, out)`` fills the (points, pairs) tile ``out`` in
    place for the table rows in the slice ``pairs``, one ``TILE`` at a time,
    in a buffer that stays in cache while each block of points meets every
    block of pairs in turn.  The tile's size sets the loop's speed: each
    kernel pass is one numpy call per tile, and the tile's points are the
    rows of its product with the weights, so a larger tile pays less dispatch
    per element and gives a taller product.  Its rows are capped at the grid's
    point count, so a short grid allocates only the rows it uses.  Each
    worker's tile starts on a 64-byte line, so the loop's speed does not
    depend on where the heap puts the buffer.  The kernel sets the numpy
    error state it needs itself, so a pool worker needs no copy of the
    caller's context.

    The pool has one worker per usable CPU and at most one per block of points;
    when that is one, the calling thread sums every block and no pool starts.
    Each worker takes the next block of points from a shared counter until
    none is left, so a slow CPU holds up only the blocks it has taken, sums
    its tiles in its own row of the tile buffer and writes only that block's
    rows of the sum.  Each row meets the same kernel calls and products, on
    the same tile shapes and in the same order, whichever worker takes it:
    the result's bytes do not depend on the worker count.  Once every worker
    is done, the first worker's exception, in worker order, is raised here.
    """
    out = np.zeros((grid.size, 2))
    pairs = table.gaps.size
    cols = min(max(pairs, 1), TILE[1])
    rows = max(1, min(TILE[0] * TILE[1] // cols, grid.size))  # a short grid allocates only its rows
    blocks = range(0, grid.size, rows)
    workers = max(1, min(_usable_cpus(), len(blocks)))  # one, even for no points
    # Each worker's row a whole number of 64-byte lines, from the first line boundary.
    size = -(-rows * cols // 8) * 8
    raw = np.empty(workers * size + 8)
    skip = -raw.ctypes.data % 64 // raw.itemsize
    buffers = raw[skip : skip + workers * size].reshape(workers, size)
    starts = iter(blocks)  # shared: each next() hands one block to one worker

    def run(part: int) -> None:
        for row in starts:
            block = grid[row : row + rows]
            for start in range(0, pairs, cols):
                span = slice(start, min(start + cols, pairs))
                tile = buffers[part, : block.size * (span.stop - start)].reshape(block.size, -1)
                kernel(block, span, tile)
                out[row : row + rows] += tile @ table.weights[span]

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(run, part) for part in range(workers)]
        for future in futures:
            future.result()
    return out[:, 0] + out[::-1, 1]


def spectral_function(table: TransitionTable, omega_grid: np.ndarray, gamma: float) -> SpectrumTable:
    """Lorentzian-broadened spectrum, summed in closed form over transitions.

    Each transition n -> m contributes weight ``p_n |O_nm|^2`` under a
    Lorentzian of half-width gamma centred at ``omega = e_m - e_n``; this is
    the half-line Fourier-Laplace transform of ``<O(t) O(0)>``.  The
    Lorentzian is evaluated as ``(1/gamma) / (1 + (x/gamma)**2)`` for every
    gamma, with ``1/gamma`` computed once and ``x/gamma`` as a product with it:
    a detuning ratio or square past the double range is inf, and the term
    then takes its exact limit 0.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    omega = np.asarray(omega_grid, dtype=float)
    height = 1.0 / gamma

    def kernel(block, pairs, out):
        with np.errstate(over="ignore"):
            np.subtract(block[:, None], table.gaps[pairs], out=out)
            np.multiply(out, height, out=out)
            np.square(out, out=out)
            np.add(1.0, out, out=out)
            np.divide(height, out, out=out)

    grid, where = _mirror(omega)
    return SpectrumTable(omega, _transition_sum(table, grid, kernel)[where], gamma)


def exact_outcome_distribution(table: TransitionTable, num_bits: int, delta: float) -> PhaseDistribution:
    """Closed-form phase-register distribution: the table's weights times kernel leakage.

    A transition at phase ``p = delta * 2**l * gap / 2pi`` leaks into bin f
    with ``sin^2(pi frac) / (2**l sin(pi r / 2**l))^2``, where
    ``frac = p - round(p)`` and ``r = frac + j`` for the integer
    ``j = round(p) - f`` wrapped into the register.  This is the package's one
    leakage kernel, the squared sinc ratio ``(sinc(r) / sinc(r / 2**l))**2``,
    with its numerator ``sin^2(pi r) = sin^2(pi frac)`` computed once per
    pair; ``r`` never carries the phase's integer part.  The kernel is even,
    so ``_transition_sum`` sums it on the lattice ``-2**(l-1) ... 2**(l-1)``,
    which holds each signed bin ``f - 2**l [f >= 2**(l-1)]`` and its negative.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if num_bits < 1:
        raise ValueError("need at least one phase bit")
    dim, half = 1 << num_bits, 1 << (num_bits - 1)
    frac = delta * dim * table.gaps / (2.0 * math.pi)  # the phase p, then p - round(p) in place
    nearest = np.round(frac)
    frac -= nearest
    hit = nearest - dim * np.floor(nearest / dim)  # the bin with j = 0
    del nearest
    numerator = np.sin(np.pi * frac)
    numerator *= numerator / dim**2
    # Near a zero offset the split form divides two vanishing squares; there the
    # j = 0 entry takes the unsplit sinc ratio, 1 to a few ulp for |frac| < sqrt(eps).
    near = np.flatnonzero(np.abs(frac) < 2.0**-26)
    unsplit = (np.sinc(frac[near]) / np.sinc(frac[near] / dim)) ** 2

    def kernel(block, pairs, out):
        np.subtract(hit[pairs], block[:, None], out=out)  # from -half to below dim + half
        np.subtract(out, dim, out=out, where=out >= half)  # j, wrapped into the register
        first, stop = np.searchsorted(near, (pairs.start, pairs.stop))
        cols = near[first:stop] - pairs.start
        hits, which = np.nonzero(out[:, cols] == 0)
        out += frac[pairs]
        out *= np.pi / dim
        np.sin(out, out=out)
        np.square(out, out=out)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at the hits, replaced below
            np.divide(numerator[pairs], out, out=out)
        out[hits, cols[which]] = unsplit[first:stop][which]

    signed = np.roll(np.arange(-half, half), half)  # the signed bin of each f
    probs = _transition_sum(table, np.arange(-half, half + 1, dtype=float), kernel)[signed + half]
    return PhaseDistribution(num_bits, delta, probs / table.mass)


def distribution_distance(p, q, metric: str = "total_variation") -> float:
    """Total-variation or max-abs distance between two outcome distributions."""
    pv = np.asarray(getattr(p, "probabilities", p), dtype=float)
    qv = np.asarray(getattr(q, "probabilities", q), dtype=float)
    if pv.shape != qv.shape:
        raise DimensionMismatchError(f"length mismatch {pv.shape} vs {qv.shape}")
    for name, vec in (("p", pv), ("q", qv)):
        if not abs(vec.sum() - 1.0) <= 1e-6:
            raise ValueError(f"{name} is not normalized (sums to {vec.sum():.9f})")
    if metric == "total_variation":
        return float(0.5 * np.abs(pv - qv).sum())
    if metric == "max_abs":
        return float(np.max(np.abs(pv - qv)))
    raise ValueError(f"unknown metric {metric!r}; use total_variation or max_abs")
