"""Single-atom reduced density matrices assembled from block amplitudes.

Tracing the pure joint state over the field and the other atom leaves a
2x2 matrix in the {|+>, |->} basis: two populations and one coherence.
The coherence couples field sectors whose photon numbers differ by l, so
it is a sum over products of amplitudes from adjacent blocks n and n+l.
The second atom obeys the same formulas with x2 and x3 interchanged.

reduced_states is the one route from a block spectrum to these states.
It never builds the amplitude table of the whole grid: it evolves and
reduces one cache-sized chunk of times at a time, on every core, into
preallocated outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .blocks import (
    amplitudes_into,
    check_norm,
    check_phase_conditioning,
    chunk_rows,
    evolution_factors,
    map_chunks,
)
from .errors import InvalidParameterError, TruncationError
from .params import FockWeights


class AtomId(Enum):
    FIRST = 1
    SECOND = 2


@dataclass(frozen=True)
class ReducedAtomState:
    """2x2 single-atom density matrix: populations of |+> and |-> plus the
    |+><-| coherence, at one time (scalars) or over a grid (arrays).  The
    coherence is complex: reduced_states builds it purely imaginary, as the
    model makes it, and the oracle's partial trace genuinely complex."""

    p_plus: float | np.ndarray
    p_minus: float | np.ndarray
    coh: complex | np.ndarray


def reduced_states(
    weights: FockWeights,
    spectrum: tuple[np.ndarray, np.ndarray],
    grid: np.ndarray,
    l: int,
    atoms: Iterable[AtomId],
) -> dict[AtomId, ReducedAtomState]:
    """Reduced state of each atom over the grid, as arrays of length nT.

    ``spectrum`` is the (vals, vecs) pair of ``eigen_table`` for blocks
    n = 0..n_max of ``weights``.  Each population is one contraction over
    the photon index against the weights; the coherence pairs blocks n and
    n + l, so indices beyond the truncation contribute nothing to it.

    The (4, nT, N) amplitude table of ``evolve_grid`` is never built: the
    grid is cut into ``chunk_rows(N)`` time points at a time, and each
    chunk is evolved (the kernel of ``evolve_grid``) and reduced into the
    preallocated outputs while its amplitudes are still in cache.  Chunks
    run on every core (``map_chunks``), each worker with one scratch block
    for amplitudes, phases and trig values, so memory beyond the outputs
    does not grow with the grid, and the result is bitwise the same for
    any chunking.

    The phase conditioning is checked over the whole grid before any chunk
    runs (InvalidParameterError), and the amplitude norm over every chunk
    (InternalConsistencyError).  TruncationError is raised when the
    spectrum does not span n = 0..n_max, or when the trace strays from 1
    by more than ten times the configured tail mass, which signals a
    cutoff chosen too small for the requested amplitude.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    atoms = tuple(atoms)
    vals = spectrum[0]
    check_phase_conditioning(vals, grid)
    nt, n = grid.size, vals.shape[0]
    if n != weights.n_max + 1:
        raise TruncationError(f"spectrum covers {n} blocks, need {weights.n_max + 1}")
    rows = chunk_rows(n)
    out = {atom: np.empty((3, nt)) for atom in atoms}
    norm_devs = np.zeros(-(-nt // rows))
    factors = evolution_factors(spectrum)

    def fill(start: int, stop: int, scratch: np.ndarray) -> None:
        x, phase, trig = scratch.reshape(3, 4, rows, n)[:, :, : stop - start]
        norm_devs[start // rows] = amplitudes_into(factors, grid[start:stop], x, phase, trig)
        for atom in atoms:  # products in the trig rows, free once x is written
            _reduce_into(weights, x, l, atom, out[atom][:, start:stop], scratch[8:10])

    map_chunks(nt, rows, (12, rows * n), fill)
    check_norm(float(norm_devs.max(initial=0.0)))
    states = {}
    for atom, (p_plus, p_minus, coh_im) in out.items():
        _check_trace(weights, p_plus, p_minus)
        states[atom] = ReducedAtomState(p_plus, p_minus, 1j * coh_im)
    return states


def _reduce_into(
    weights: FockWeights,
    x: np.ndarray,
    l: int,
    atom: AtomId,
    out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Kernel of reduced_states: write p_plus, p_minus and the imaginary
    part of the coherence at the nT times of x (4, nT, N) into out (3, nT),
    using scratch (2, >= nT * N) for the elementwise products: in
    reduced_states, the trig rows, which amplitudes_into is done with."""
    c = weights.c
    x1, x2, x3, x4 = x
    if atom is AtomId.SECOND:
        x2, x3 = x3, x2
    nt, n = x1.shape
    m = max(n - l, 0)
    a, b = (s[: nt * n].reshape(nt, n) for s in scratch)
    w = c * c
    for u, v, dest in ((x1, x2, out[0]), (x3, x4, out[1])):
        np.multiply(u, u, out=a)
        np.multiply(v, v, out=b)
        np.matmul(np.add(a, b, out=a), w, out=dest)
    a, b = (s[: nt * m].reshape(nt, m) for s in scratch)
    np.multiply(x2[:, l:], x4[:, :m], out=a)
    np.multiply(x3[:, :m], x1[:, l:], out=b)
    np.matmul(np.subtract(a, b, out=a), c[l:] * c[:m], out=out[2])


def _check_trace(weights: FockWeights, p_plus: np.ndarray, p_minus: np.ndarray) -> None:
    trace_dev = float(np.max(np.abs(p_plus + p_minus - 1.0), initial=0.0))
    if trace_dev > 10.0 * weights.cutoff_eps:
        raise TruncationError(
            f"reduced trace deviates from 1 by {trace_dev:.3e}, beyond "
            "10*cutoff_eps; increase the truncation"
        )


def swap_transform(g: float, T: float) -> tuple[float, float]:
    """Relabeling that exchanges the two atoms: measuring time in units of
    the atom-2 coupling maps (g, T) to (1/g, g*T), so atom-1 observables
    of one configuration equal atom-2 observables of the transformed one.

    Public API: it states the model's atom-exchange symmetry, and a caller
    can use it to read one atom's dynamics off a scan of the other."""
    if not (g > 0.0 and math.isfinite(g)):
        raise InvalidParameterError(f"g must be > 0, got {g}")
    return 1.0 / g, g * T
