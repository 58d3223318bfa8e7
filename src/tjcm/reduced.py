"""Single-atom reduced density matrices assembled from block amplitudes.

Tracing the pure joint state over the field and the other atom leaves a
2x2 matrix in the {|+>, |->} basis: two populations and one coherence,
which couples blocks n and n+l; the second atom obeys the same formulas
with components 2 and 3 interchanged.  reduced_states is the one route
from the model parameters to these states: it diagonalizes the blocks of
the weights' window (params.FockWeights.window) and evaluates the
inversion and the coherence as real cosine and sine sums on one grid plan
(blocks.trig_sum), with the equal and opposite frequencies of the +-
symmetric block spectra merged.
max_deviation compares two such states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .blocks import check_phase_conditioning, check_spectrum, eigen_table, grid_plan, trig_sum
from .errors import InternalConsistencyError, InvalidParameterError, TruncationError
from .params import FockWeights

# the eigenvalue pairs k < k2 of a block: 01 02 03 12 13 23
_PAIRS = np.triu_indices(4, 1)
# |(sz, sy)| / trace - 1 from rounding: measured at most 1.3e-15
_BLOCH_TOL = 1e-13


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
    """Reduced state of each atom over a uniform time grid from T = 0, as
    arrays of length nT, with the scalar coh_re = 0.0, for transition
    parameter l and coupling ratio g.  At g = 0 atom 2 is frozen and atom
    1 is the one-atom l-photon Jaynes-Cummings model; scan.run_scan takes
    its jcm_* baseline there, at l = 1.

    The blocks n = n_min..n_max of ``weights`` are diagonalized once
    (``eigen_table``), with n_min, pop = c_n^2 and pair = c_n c_{n+l} from
    ``weights.window(l)``.  Block n's spectrum is taken +- symmetric,
    w = (-s1, -s2, s2, s1) with 2 s1 = w_3 - w_0 and 2 s2 = w_2 - w_1 in
    long double (check_spectrum bounds the asymmetry).  Its amplitudes are
    psi_b = sum_k R_bk exp(-i w_k T), R_bk = <v_k|e1> v_bk, so atom 1's
    inversion, pop against |psi_0|^2 + |psi_1|^2 - |psi_2|^2 - |psi_3|^2 with

        |psi_b|^2 = sum_k R_bk^2 + sum_{k<k'} 2 R_bk R_bk' cos((w_k - w_k') T),

    is a cosine sum over 4 frequencies per block (01 and 23 share s1 - s2,
    02 and 13 share s1 + s2), and its coherence, pairing blocks n + l
    and n against pair (none past the truncation),

        coh_im = sum_{k,k'} c(k, k') sin((w_k'(n) - w_k(n+l)) T),
        c(k, k') = R_0(n+l,k) R_2(n,k') + R_1(n+l,k) R_3(n,k'),

    a sine sum over 8 per pair: k < 2 with c(k, k') - c(3 - k, 3 - k'),
    whose frequency is opposite; atom 2 swaps components 1 and 2.  Both
    ``trig_sum`` calls, each over both atoms' rows, share one ``grid_plan``.
    The blocks evolve unitarily, so the trace is the window mass S =
    sum pop at every time and p_plus, p_minus = (S +- sz) / 2.  At T = 0
    p_minus comes from psi_b(0) = sum_k R_bk instead, at about 1e-32, and
    p_plus is S - p_minus; the sine sums are 0 there.  The blocks below
    n_min carry at most 1e-8 * cutoff_eps of either weight and every
    amplitude has modulus <= 1, so leaving them out moves no entry by
    more than that.

    The grid (uniform, from T = 0), coupling and phase conditioning are
    checked before any sum runs (InvalidParameterError), and so are the
    spectrum's orthonormality and symmetry (InternalConsistencyError).
    TruncationError is raised when S strays from 1 by more than ten times
    the configured tail mass, a cutoff too small for the amplitude; with
    every block norm within 5 _NORM_TOL of 1 (check_spectrum), the true
    trace is then within 10 cutoff_eps + 2e-14 of 1 at all times.
    InternalConsistencyError is raised when a Bloch vector (sz, 2 coh_im)
    leaves the ball of radius S (1 + _BLOCH_TOL), as a faulty row can.
    """
    plan = grid_plan(grid)
    atoms = tuple(atoms)
    n_min, pop, pair = weights.window(l)
    vals, vecs = eigen_table(weights.n_max, l, g, n_min)
    # g and l move the spectrum only where g > 0, and l cannot go below 1
    check_phase_conditioning(vals, grid, ("t_max", "alpha") + ("g",) * (g > 0) + ("l",) * (l > 1))
    check_spectrum(vals, vecs)
    mass = math.fsum(pop)
    if not abs(mass - 1.0) <= 10.0 * weights.cutoff_eps:
        raise TruncationError(
            f"reduced trace deviates from 1 by {abs(mass - 1.0):.3e}, beyond "
            "10*cutoff_eps; increase the truncation"
        )
    if not atoms:
        return {}
    m = pair.size
    r = vecs[:, :1, :] * vecs  # r[n, b, k] = <v_k|e1> v_bk
    # (-s1, -s2, s2, s1), in long double
    w = vals.astype(np.longdouble)
    w[:, 2:] -= w[:, 1::-1]
    w[:, 2:] /= 2
    w[:, :2] = -w[:, :1:-1]
    k, k2 = _PAIRS
    two_rr = 2.0 * r[:, :, k] * r[:, :, k2]  # (N, 4, 6), pairs 01 02 03 12 13 23
    two_rr[:, :, :2] += two_rr[:, :, :3:-1]  # 01 + 23 at s1 - s2, 02 + 13 at s1 + s2
    r_sq = np.einsum("nbk,nbk->nb", r, r)  # sum_k R_bk^2
    comps = [(1, 2) if atom is AtomId.FIRST else (2, 1) for atom in atoms]  # atom 2: 1 <-> 2
    sz = trig_sum((w[:, k[:4]] - w[:, k2[:4]]).ravel(),
                  [(pop[:, None] * ((two_rr[:, 0, :4] + two_rr[:, i2, :4])
                                    - (two_rr[:, i3, :4] + two_rr[:, 3, :4]))).ravel()
                   for i2, i3 in comps], plan)
    sz += np.array([pop @ ((r_sq[:, 0] + r_sq[:, i2]) - (r_sq[:, i3] + r_sq[:, 3]))
                    for i2, i3 in comps])[:, None]
    # (k, k') and (3 - k, 3 - k') have opposite frequencies: keep k < 2
    coh = []
    for i2, i3 in comps:
        full = r[l:, 0, :, None] * r[:m, i3, None, :] + r[l:, i2, :, None] * r[:m, 3, None, :]
        coh.append((pair[:, None, None] * (full[:, :2] - full[:, :1:-1, ::-1])).ravel())
    coh = trig_sum((w[:m, None, :] - w[l:, :2, None]).ravel(), coh, plan, sine=True)
    # p_minus at T = 0, the first time (if any), from psi_b(0) = sum_k R_bk
    sq = r.sum(axis=2) ** 2
    states = {}
    for atom, (_, i3), row, c in zip(atoms, comps, sz, coh):
        p_plus = np.multiply(c, 2.0)  # sy, then |(sz, sy)|, then p_plus
        radius = float(np.hypot(row, p_plus, out=p_plus).max(initial=0.0))
        if not radius <= mass * (1.0 + _BLOCH_TOL):
            raise InternalConsistencyError(f"reduced Bloch vector of atom {atom.value} reaches "
                                           f"{radius:.17g}, beyond its trace {mass:.17g}")
        np.add(mass, row, out=p_plus)
        p_plus *= 0.5
        p_minus = np.subtract(mass, row, out=row)
        p_minus *= 0.5
        p_minus[:1] = pop @ (sq[:, i3] + sq[:, 3])
        p_plus[:1] = mass - p_minus[:1]
        states[atom] = ReducedAtomState(p_plus, p_minus, 0.0, c)
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
