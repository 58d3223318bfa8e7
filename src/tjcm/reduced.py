"""Single-atom reduced density matrices assembled from block amplitudes.

Tracing the pure joint state over the field and the other atom leaves a
2x2 matrix in the {|+>, |->} basis: two populations and one coherence.
The coherence couples field sectors whose photon numbers differ by l, so
it is a sum over products of amplitudes from adjacent blocks n and n+l.
The second atom obeys the same formulas with x2 and x3 interchanged.

reduced_states is the one route from the model parameters to these
states.  It diagonalizes the blocks of the weights' photon-number window
itself (params.FockWeights.window) and never builds the amplitude
table of the whole grid: it evolves and reduces one cache-sized chunk of
times at a time, on every core, into the columns of one output array.
max_deviation compares two such states.
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
    eigen_table,
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
    """2x2 single-atom density matrix over a set of times: populations of
    |+> and |->, and the real and imaginary parts of the |+><-| coherence,
    each an array over the times or one scalar for all of them (the model
    makes the coherence purely imaginary: reduced_states gives coh_re 0.0)."""

    p_plus: float | np.ndarray
    p_minus: float | np.ndarray
    coh_re: float | np.ndarray
    coh_im: float | np.ndarray


def max_deviation(a: ReducedAtomState, b: ReducedAtomState) -> float:
    """Largest entrywise distance between two states of one atom over their
    times: the larger of |dp_plus|, |dp_minus| and the modulus of the
    coherence difference."""
    return float(max(
        np.max(np.abs(a.p_plus - b.p_plus)),
        np.max(np.abs(a.p_minus - b.p_minus)),
        np.max(np.hypot(a.coh_re - b.coh_re, a.coh_im - b.coh_im)),
    ))


def reduced_states(
    weights: FockWeights,
    l: int,
    g: float,
    grid: np.ndarray,
    atoms: Iterable[AtomId],
) -> dict[AtomId, ReducedAtomState]:
    """Reduced state of each atom over the grid, as arrays of length nT,
    with the scalar coh_re = 0.0, for transition parameter l and coupling
    ratio g.

    The blocks n = n_min..n_max of ``weights`` are diagonalized once
    (``eigen_table``), with n_min, pop = c_n^2 and pair = c_n c_{n+l} from
    ``weights.window(l)``.  A population contracts two squared amplitudes,
    squared once for both atoms, against pop; the coherence pairs blocks n
    and n + l against pair, so indices past the truncation add nothing.
    The blocks below n_min carry at most 1e-8 * cutoff_eps of either
    weight, and every amplitude has modulus <= 1, so leaving them out
    moves no entry of a state by more than that.  At T = 0 the trace is
    the window mass sum pop, a few eps from 1; the observables clamp an
    inversion past 1 as rounding.

    No (4, nT, N) amplitude table over the whole grid is built: chunks of
    the grid (``map_chunks``) are evolved (``amplitudes_into``) and reduced
    into their columns of one output array, three rows per atom plus one
    of amplitude-norm deviations, while their amplitudes are in cache.
    Each worker has one scratch block for amplitudes, phases and trig
    values, so memory beyond the outputs does not grow with the grid, and
    the result is bitwise the same for any chunking.

    The coupling and the phase conditioning over the whole grid are
    checked before any chunk runs (InvalidParameterError), and the
    amplitude norm over every chunk (InternalConsistencyError).
    TruncationError is raised when the trace strays from 1 by more than
    ten times the configured tail mass, which signals a cutoff chosen too
    small for the requested amplitude.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    atoms = tuple(atoms)
    n_min, pop, pair = weights.window(l)
    spectrum = eigen_table(weights.n_max, l, g, n_min)
    check_phase_conditioning(spectrum[0], grid)
    n, m = pop.size, pair.size
    factors = evolution_factors(spectrum)

    def fill(t: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
        x, phase, trig = scratch.reshape(3, 4, -1, n)[:, :, : t.size]
        out[-1] = amplitudes_into(factors, t, x, phase, trig)
        # squares in the phase rows and sums in the trig rows, free once x is written
        sq = np.multiply(x, x, out=phase)
        a = scratch[8, : t.size * n].reshape(t.size, n)
        u, v = (s[: t.size * m].reshape(t.size, m) for s in scratch[8:10])
        for k, atom in enumerate(atoms):
            i2, i3 = (1, 2) if atom is AtomId.FIRST else (2, 1)  # atom 2: x2 <-> x3
            x1, x2, x3, x4 = x[0], x[i2], x[i3], x[3]
            p_plus, p_minus, coh_im = out[3 * k : 3 * k + 3]
            np.matmul(np.add(sq[0], sq[i2], out=a), pop, out=p_plus)
            np.matmul(np.add(sq[i3], sq[3], out=a), pop, out=p_minus)
            np.multiply(x2[:, l:], x4[:, :m], out=u)
            np.multiply(x3[:, :m], x1[:, l:], out=v)
            np.matmul(np.subtract(u, v, out=u), pair, out=coh_im)

    out = map_chunks(grid, n, 12, 3 * len(atoms) + 1, fill)
    check_norm(float(out[-1].max(initial=0.0)))
    states = {}
    for k, atom in enumerate(atoms):
        p_plus, p_minus, coh_im = out[3 * k : 3 * k + 3]
        trace_dev = float(np.max(np.abs(p_plus + p_minus - 1.0), initial=0.0))
        if trace_dev > 10.0 * weights.cutoff_eps:
            raise TruncationError(
                f"reduced trace deviates from 1 by {trace_dev:.3e}, beyond "
                "10*cutoff_eps; increase the truncation"
            )
        states[atom] = ReducedAtomState(p_plus, p_minus, 0.0, coh_im)
    return states


def swap_transform(g: float, T: float) -> tuple[float, float]:
    """Relabeling that exchanges the two atoms: measuring time in units of
    the atom-2 coupling maps (g, T) to (1/g, g*T), so atom-1 observables
    of one configuration equal atom-2 observables of the transformed one.

    Public API: it states the model's atom-exchange symmetry, and a caller
    can use it to read one atom's dynamics off a scan of the other."""
    if not (g > 0.0 and math.isfinite(g)):
        raise InvalidParameterError(f"g must be > 0, got {g}")
    return 1.0 / g, g * T
