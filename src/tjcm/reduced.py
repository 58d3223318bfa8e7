"""Single-atom reduced density matrices assembled from block amplitudes.

Tracing the pure joint state over the field and the other atom leaves a
2x2 matrix in the {|+>, |->} basis: two populations and one coherence.
The coherence couples field sectors whose photon numbers differ by l, so
it is a sum over products of amplitudes from adjacent blocks n and n+l.
The second atom obeys the same formulas with x2 and x3 interchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, TruncationError
from .params import FockWeights


class AtomId(Enum):
    FIRST = 1
    SECOND = 2


@dataclass(frozen=True)
class ReducedAtomState:
    """2x2 single-atom density matrix: populations of |+> and |-> plus the
    |+><-| coherence, at one time (scalars) or over a grid (arrays).  The
    coherence is complex: reduce_arrays builds it purely imaginary, as the
    model makes it, and the oracle's partial trace genuinely complex."""

    p_plus: float | np.ndarray
    p_minus: float | np.ndarray
    coh: complex | np.ndarray


def reduce_arrays(
    weights: FockWeights,
    x: np.ndarray,
    l: int,
    atom: AtomId,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced density matrix of one atom over a grid of times.

    ``x`` has shape (4, nT, n_max + 1) as produced by ``evolve_grid``.
    Returns (p_plus, p_minus, coh) arrays of length nT; each is one
    contraction over the photon index against the weights.  The coherence
    pairs blocks n and n + l, so indices beyond the truncation contribute
    nothing to it.

    Raises TruncationError when ``x`` does not span n = 0..n_max, or when
    the trace strays from 1 by more than ten times the configured tail
    mass, which signals a cutoff chosen too small for the requested
    amplitude.
    """
    if x.shape[-1] != weights.n_max + 1:
        raise TruncationError(
            f"amplitude table covers {x.shape[-1]} indices, need {weights.n_max + 1}"
        )
    c = weights.c
    x1, x2, x3, x4 = x
    if atom is AtomId.SECOND:
        x2, x3 = x3, x2
    w = c * c
    p_plus = (x1 * x1 + x2 * x2) @ w
    p_minus = (x3 * x3 + x4 * x4) @ w
    m = max(c.size - l, 0)
    coh_im = (x2[:, l:] * x4[:, :m] - x3[:, :m] * x1[:, l:]) @ (c[l:] * c[:m])
    trace_dev = float(np.max(np.abs(p_plus + p_minus - 1.0), initial=0.0))
    if trace_dev > 10.0 * weights.cutoff_eps:
        raise TruncationError(
            f"reduced trace deviates from 1 by {trace_dev:.3e}, beyond "
            "10*cutoff_eps; increase the truncation"
        )
    return p_plus, p_minus, 1j * coh_im


def swap_transform(g: float, T: float) -> tuple[float, float]:
    """Relabeling that exchanges the two atoms: measuring time in units of
    the atom-2 coupling maps (g, T) to (1/g, g*T), so atom-1 observables
    of one configuration equal atom-2 observables of the transformed one."""
    if not (g > 0.0 and math.isfinite(g)):
        raise InvalidParameterError(f"g must be > 0, got {g}")
    return 1.0 / g, g * T
