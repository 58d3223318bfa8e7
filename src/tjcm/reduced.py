"""Single-atom reduced density matrices assembled from block amplitudes.

Tracing the pure joint state over the field and the other atom leaves a
2x2 matrix in the {|+>, |->} basis: two populations and one coherence,
which couples blocks n and n+l; the second atom obeys the same formulas
with components 2 and 3 interchanged.  reduced_states is the one route
from the model parameters to these states: it takes the spectrum of the
blocks of the weights' window (params.FockWeights.window) from
blocks.block_spectrum, and evaluates the inversion and the coherence as
real cosine and sine sums on one grid plan (transform.trig_sum), with the
equal and opposite frequencies of the +- symmetric block spectra merged.
max_deviation compares two such states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from . import transform
from .blocks import block_spectrum
from .errors import InternalConsistencyError, InvalidParameterError, TruncationError, real_number
from .params import FockWeights

# |(sz, sy)| / trace - 1 from rounding: measured at most 1.3e-15
_BLOCH_TOL = 1e-13


class AtomId(Enum):
    FIRST = 1
    SECOND = 2


@dataclass(frozen=True)
class ReducedAtomState:
    """Unnormalized 2x2 single-atom density matrix over a set of times, in
    Pauli form: rho = [[trace + sz, sx + i sy], [sx - i sy, trace - sz]] / 2
    in the {|+>, |->} basis, each field an array over the times or one
    scalar for all of them (reduced_states gives the scalars sx = 0.0, as
    the model's coherence is purely imaginary, and trace = the window
    mass).  The channels are those of rho / trace (observables.bloch).
    sy is 2 Im rho_{+-}, which is -tr(rho sigma_y) for the standard
    sigma_y = [[0, -i], [i, 0]] in this basis: (|+> + i|->) / sqrt(2)
    reads sy = -1.  Only the printed sign of sy depends on it; entropies,
    witnesses and max_deviation do not."""

    trace: float | np.ndarray
    sx: float | np.ndarray
    sy: float | np.ndarray
    sz: float | np.ndarray


def max_deviation(a: ReducedAtomState, b: ReducedAtomState) -> float:
    """Largest entrywise distance between two unnormalized states of one
    atom over their times: the larger of the populations' |dtrace +- dsz|
    and the coherence's |dsx + i dsy|, over 2."""
    dtr, dsz = a.trace - b.trace, a.sz - b.sz
    return 0.5 * float(max(
        np.max(np.abs(dtr + dsz)),
        np.max(np.abs(dtr - dsz)),
        np.max(np.hypot(a.sx - b.sx, a.sy - b.sy)),
    ))


def reduced_states(
    weights: FockWeights,
    l: int,
    g: float,
    grid: np.ndarray,
    atoms: Iterable[AtomId],
) -> dict[AtomId, ReducedAtomState]:
    """Reduced state of each atom over a uniform time grid from T = 0, sy
    and sz as arrays of length nT, for transition parameter l and coupling
    ratio g.  At g = 0 atom 2 is frozen and atom 1 is the one-atom l-photon
    Jaynes-Cummings model; scan.run_scan takes its jcm_* baseline there,
    at l = 1.

    The blocks n = n_min..n_max of ``weights`` (n_min, pop = c_n^2 and
    pair = c_n c_{n+l} from ``weights.window(l)``) take their spectrum
    from ``block_spectrum``: the eigenvalues w = (-s1, -s2, s2, s1) in long
    double and the SVD u1 = (c, s), v1 and v2 = sign(g^2 - 1) (-v1[1],
    v1[0]) of their coupling C, which give the amplitudes psi = (x1, i x2,
    i x3, x4) as

        x1 = c^2 cos s1 T + s^2 cos s2 T,    x4 = c s (cos s1 T - cos s2 T),
        (x2, x3) = -(c sin s1 T v1 - s sin s2 T v2).

    So atom 1's inversion sz, pop against x1^2 + x2^2 - x3^2 - x4^2, is a
    constant plus a cosine sum over 4 frequencies per block (s1 - s2,
    s1 + s2, 2 s1, 2 s2), and its coherence sy / 2, pair against
    x2(n + l) x4(n) - x3(n) x1(n + l) (none past the truncation), a sine
    sum over the 8 frequencies s_i(n + l) +- s_j(n) per pair; every
    coefficient is a product of c, s and the entries of v1 and v2.  Atom 2
    swaps components 1 and 2.  Both ``trig_sum`` calls, each over both
    atoms' rows, share one ``grid_plan``.  At g = 1, sigma2 = 0 and the v2
    term drops out, so a +-tiny s2 enters only through cos s2 T, at
    second order.  The blocks evolve unitarily, so the trace is the
    window mass S = sum pop at every time; at T = 0, psi = e1, so
    sz is S, set exactly, and the sine sums are 0.  The blocks below n_min
    carry at most 1e-8 * cutoff_eps of either weight and every amplitude
    has modulus <= 1, so leaving them out moves no entry by more than that.

    The grid (uniform, from T = 0), coupling and phase conditioning are
    checked before any sum runs (InvalidParameterError), and so is the
    spectrum (block_spectrum; InternalConsistencyError).  TruncationError
    is raised when S strays from 1 by more than ten times the configured
    tail mass, a cutoff too small for the amplitude; u1 and v1 are unit
    vectors within 2 eps, so every block norm is within 4 eps < _NORM_TOL
    of 1 (at g = 1 up to s^2 sin^2 s2 T, second order in s2), and the true
    trace within 10 cutoff_eps + _NORM_TOL of 1 at all times.
    InternalConsistencyError is raised when a Bloch vector (sz, sy)
    leaves the ball of radius S (1 + _BLOCH_TOL), as a faulty row can.
    """
    plan = transform.grid_plan(grid)
    g, atoms = real_number(g, "g"), tuple(atoms)
    n_min, pop, pair = weights.window(l)
    w, c, s, (v1_1, v1_2) = block_spectrum(weights.n_max, l, g, n_min)
    # g and l move the spectrum only where g > 0, and l cannot go below 1
    transform.check_phase_conditioning(w, grid,
                                       ("t_max", "alpha") + ("g",) * (g > 0) + ("l",) * (l > 1))
    mass = math.fsum(pop)
    if not abs(mass - 1.0) <= 10.0 * weights.cutoff_eps:
        raise TruncationError(
            f"reduced trace deviates from 1 by {abs(mass - 1.0):.3e}, beyond "
            "10*cutoff_eps; increase the truncation"
        )
    if not atoms:
        return {}
    m = pair.size
    cc, ss, cs = c * c, s * s, c * s
    sign = np.sign(g * g - 1.0)  # v2 = sign (-v1[1], v1[0]); 0 at g = 1
    inv, inv_0, coh = [], [], []
    for atom in atoms:
        # v1 = (e, o) and v2 = (f, h) on the atom's components 1 and 2
        t = sign if atom is AtomId.FIRST else -sign  # atom 2: 1 <-> 2
        e, o = (v1_1, v1_2) if atom is AtomId.FIRST else (v1_2, v1_1)
        f, h = -t * o, t * e
        delta, cross, t2 = e * e - o * o, (2.0 * t) * cs * e * o, t * t
        # cos (s1 -+ s2) T, cos 2 s1 T, cos 2 s2 T, and the constant
        inv.append((pop[:, None] * np.stack([
            2.0 * cc * ss + cross, 2.0 * cc * ss - cross,
            0.5 * cc * ((cc - ss) - delta), 0.5 * ss * ((ss - cc) + t2 * delta)], axis=1)).ravel())
        inv_0.append(pop @ (0.5 * ((cc - ss) ** 2 + (cc - t2 * ss) * delta)))
        cu, su, eu, fu = c[l:], s[l:], e[l:], f[l:]  # block n + l
        cd, sd, od, hd = c[:m], s[:m], o[:m], h[:m]  # block n
        # sin (s1(n + l) -+ s1(n)) T ... in the order of the frequencies below
        coh.append((0.5 * pair[:, None] * np.stack([
            -cu * cd * (eu * sd + cu * od), cu * sd * (eu * cd + cu * hd),
            cu * sd * (eu * cd - cu * hd), cu * cd * (cu * od - eu * sd),
            su * cd * (fu * sd - su * od), su * sd * (su * hd - fu * cd),
            -su * sd * (fu * cd + su * hd), su * cd * (fu * sd + su * od)], axis=1)).ravel())
    s1, s2 = w[:, 3], w[:, 2]  # as w_0 - w_1, w_0 - w_2, w_0 - w_3 and w_1 - w_2
    sz = transform.trig_sum(np.stack([s2 - s1, -s1 - s2, -2 * s1, -2 * s2], axis=1).ravel(), inv, plan)
    sz += np.array(inv_0)[:, None]
    # w_k'(n) - w_k(n + l), k < 2: s1(n + l) - s1(n), - s2(n), + s2(n), + s1(n),
    # then the same from s2(n + l)
    coh = transform.trig_sum((w[:m, None, :] - w[l:, :2, None]).ravel(), coh, plan, sine=True)
    states = {}
    for atom, row, sy in zip(atoms, sz, coh):
        sy *= 2.0
        radius = float(np.hypot(row, sy).max(initial=0.0))
        if not radius <= mass * (1.0 + _BLOCH_TOL):
            raise InternalConsistencyError(f"reduced Bloch vector of atom {atom.value} reaches "
                                           f"{radius:.17g}, beyond its trace {mass:.17g}")
        row[:1] = mass  # psi(0) = e1: the pure initial state
        states[atom] = ReducedAtomState(trace=mass, sx=0.0, sy=sy, sz=row)
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
