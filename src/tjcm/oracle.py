"""Brute-force verification path for the analytic pipeline.

Integrates the Schroedinger equation on the full (atom1 x atom2 x field)
product space with fixed-step RK4, walked once over a uniform time grid
(walk_grid), and extracts single-atom states by a direct partial trace.
Deliberately ignorant of the 4x4 block structure: it shares only the
weight table, the reduced-state types and transition_strength (tested on
its own against exact factorials), so agreement with the analytic route
is evidence rather than tautology.

Every operator is a polynomial in H, so it vanishes between the
connected components of H's nonzeros: held dense on each component, the
stack of blocks is the smallest storage closed under products.  The
components come from the nonzeros of H alone, by label propagation, not
from the block basis; since H conserves excitation number they stay
small, while a general H would merge them into one.  H, P and its
squarings are (K, s, s) stacks over the components' index (K, s),
padded to the largest component s by a slot coupled to nothing.  A
product is one stacked np.matmul, and the state is held gathered onto
the components as a (K, s, 1) stack, scattered back at each sample.

State layout: amp[s1, s2, n] with s = 0 for |+> and 1 for |->, flattened
C-order into a vector of length 4 (n_f + 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import transition_strength
from .errors import InvalidParameterError, StepSizeError, TruncationError
from .params import FockWeights
from .reduced import AtomId, ReducedAtomState

NORM_DRIFT_TOL = 1e-7
PHASE_TOL = 1e-9
DT_MAX = 1e-3
_LAM_MAX = (0.5 * np.finfo(float).max) ** 0.2


def _components(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected components of the graph on range(dim) with the edges
    (rows[i], cols[i]), as an index (K, s): row k lists component k's
    nodes in ascending order, padded with dim to the largest size s.
    Components come in the order of their smallest nodes, which label
    propagation with pointer jumping finds as each node's label."""
    label = np.arange(dim)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # a hand-rolled np.unique, which would import numpy.ma on first use
    order = np.argsort(label, kind="stable")
    comp = np.searchsorted(np.flatnonzero(label == np.arange(dim)), label[order])
    sizes = np.bincount(comp)
    index = np.full((sizes.size, sizes.max(initial=0)), dim)
    index[comp, np.arange(dim) - (np.cumsum(sizes) - sizes)[comp]] = order
    return index


@dataclass(frozen=True)
class JointHamiltonian:
    """Real symmetric interaction matrix on the product space, as dense
    blocks over the connected components of its nonzeros: blocks[k] is H
    on the nodes index[k], whose pad slots dim are coupled to nothing."""

    l: int
    g: float
    n_f: int
    index: np.ndarray
    blocks: np.ndarray

    @property
    def dim(self) -> int:
        return 4 * (self.n_f + 1)

    @cached_property
    def norm_inf(self) -> float:
        """||H||_inf, the largest absolute row sum."""
        return float(np.abs(self.blocks).sum(axis=2).max(initial=0.0))


def build_joint_hamiltonian(l: int, g: float, n_f: int) -> JointHamiltonian:
    """Interaction Hamiltonian on the truncated product space.

    Couples |+, s2, n> to |-, s2, n+l> with weight sqrt((n+l)!/n!) for
    atom 1 and the corresponding atom-2 pairs with the same weight times g.
    """
    if not isinstance(l, int) or l < 1:
        raise InvalidParameterError(f"l must be an integer >= 1, got {l}")
    if not (g >= 0.0 and math.isfinite(g)):
        raise InvalidParameterError(f"g must be >= 0, got {g}")
    if n_f < l:
        raise TruncationError(
            f"n_f = {n_f} cannot host any l = {l} transition (need >= {l})"
        )
    n1 = n_f + 1
    n = np.arange(n_f + 1 - l)
    f = transition_strength(n.astype(float), l)
    # (letters s1 s2 before, after, weight) with letter index 2 s1 + s2:
    # atom 1 takes ++ -> -+ and +- -> --, atom 2 takes ++ -> +- and -+ -> --
    flips = ((0, 2, 1.0), (1, 3, 1.0), (0, 1, g), (2, 3, g))
    lower = np.concatenate([a * n1 + n for a, _, _ in flips])
    upper = np.concatenate([b * n1 + n + l for _, b, _ in flips])
    weights = np.concatenate([w * f for _, _, w in flips])
    # each (row, column) appears once, as each coupling flips one atom
    nonzero = weights != 0.0
    lower, upper, weights = lower[nonzero], upper[nonzero], weights[nonzero]
    index = _components(4 * n1, lower, upper)
    # each node's flat position (component, slot) in index; the pad's is moot
    at = np.empty(4 * n1 + 1, dtype=np.int64)
    at[index] = np.arange(index.size).reshape(index.shape)
    k, i = np.divmod(at[lower], index.shape[1])
    j = at[upper] % index.shape[1]
    blocks = np.zeros(index.shape + index.shape[1:])
    blocks[k, i, j] = blocks[k, j, i] = weights
    return JointHamiltonian(l=l, g=g, n_f=n_f, index=index, blocks=blocks)


def initial_state(weights: FockWeights, h: JointHamiltonian) -> np.ndarray:
    """Both atoms excited, field in the weighted Fock superposition."""
    if h.n_f < weights.n_max + 2 * h.l:
        raise TruncationError(
            f"n_f = {h.n_f} too small: need >= n_max + 2l = {weights.n_max + 2 * h.l}"
        )
    psi = np.zeros(h.dim, dtype=complex)
    psi[: weights.n_max + 1] = weights.c
    return psi


def suggest_dt(weights: FockWeights, h: JointHamiltonian, t_total: float) -> float:
    """Step size keeping the weighted RK4 phase error below PHASE_TOL.

    A block with base photon number n has spectral radius at most
    lam(n) = sqrt((1 + g^2)(f1^2 + f2^2)); the accumulated RK4 phase error
    of a mode of frequency lam over time T is about T lam^5 dt^4 / 120.
    Weighting lam^5 by the initial photon distribution bounds the error
    actually visible in reduced-state entries, which is what the
    cross-path tolerance constrains.  Capped by DT_MAX and by a stability
    margin against the full matrix norm.  A lam beyond _LAM_MAX, whose
    fifth power would overflow, is refused with InvalidParameterError.
    """
    c = weights.c
    n = np.arange(c.size, dtype=float)
    f1 = transition_strength(n, h.l)
    f2 = transition_strength(n + h.l, h.l)
    lam = np.sqrt((1.0 + h.g * h.g) * (f1 * f1 + f2 * f2))
    if not lam.max() <= _LAM_MAX:
        raise InvalidParameterError(
            f"block frequency bound {lam.max():.3e} exceeds {_LAM_MAX:.3e}, beyond "
            "which the RK4 step-size estimate overflows; lower g, l or alpha"
        )
    lam5 = float(np.sum(c * c * lam ** 5))
    dt_acc = (120.0 * PHASE_TOL / (max(t_total, 1e-12) * lam5)) ** 0.25
    return min(DT_MAX, dt_acc, 0.1 / h.norm_inf)


def walk_grid(
    h: JointHamiltonian, psi0: np.ndarray, step: float, counts, dt: float
):
    """Yield psi at the times step * counts along one trajectory, for
    non-decreasing integer counts >= 0.

    Classic fixed-step RK4 for d psi / dT = -i H psi: one grid step is
    m = ceil(step / dt) RK4 steps of size step / m, applied as
    P = R(-i (step / m) H)^m with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
    the RK4 stability polynomial.  P is built once, by binary powering,
    and so are its squarings P^(2^j) up to the largest gap; an interval of
    d grid steps then costs popcount(d) stacked block products.  No
    renormalization is applied: the norm drift is itself a diagnostic
    (trace_trajectory checks it).  The requested dt must respect the
    stability margin dt <= 0.5 / ||H||_inf.
    """
    if h.norm_inf > 0.0 and dt > 0.5 / h.norm_inf:
        raise StepSizeError(f"dt = {dt} exceeds stability margin {0.5 / h.norm_inf:.3e}")
    counts = np.asarray(counts)
    gaps = np.diff(counts, prepend=0)
    if counts.dtype.kind != "i" or np.any(gaps < 0) or not step >= 0.0:
        raise InvalidParameterError("grid step counts must be non-decreasing integers "
                                    ">= 0 and the step >= 0: no backward evolution")
    m = max(1, math.ceil(step / dt))
    z = -1j * (step / m)
    eye = np.eye(h.index.shape[1])
    r = eye + (z / 4.0) * h.blocks
    for d in (3.0, 2.0, 1.0):
        r = eye + (z / d) * (h.blocks @ r)
    powers = _squarings(_power(_squarings(r, m), m, eye), int(gaps.max(initial=0)))
    # psi gathered onto the components, padded by the slot dim, which
    # every operator maps to 0 from 0
    x = np.append(np.asarray(psi0, dtype=complex), 0.0)[h.index][..., None]
    for d in gaps:
        x = _power(powers, int(d), x)
        psi = np.empty(h.dim + 1, dtype=complex)
        psi[h.index] = x[..., 0]
        yield psi[:-1]


def _squarings(p: np.ndarray, n: int) -> list[np.ndarray]:
    """p^(2^j) for the bits j of n."""
    out = [p] if n else []
    for _ in range(1, n.bit_length()):
        out.append(out[-1] @ out[-1])
    return out


def _power(squares: list[np.ndarray], n: int, x: np.ndarray) -> np.ndarray:
    """p^n x, with squares the squarings of p up to n's bits."""
    for j, sq in enumerate(squares):
        if n >> j & 1:
            x = sq @ x
    return x


def trace_trajectory(
    h: JointHamiltonian, psi0: np.ndarray, step: float, counts, dt: float
) -> dict[AtomId, ReducedAtomState]:
    """Reduced states of both atoms at the times step * counts of one
    trajectory (walk_grid), by direct partial trace into arrays over the
    times: psi as rows (s1, s2) by photon number is a 4 x (n_f + 1) matrix
    A, and each atom's 2x2 state is the trace of A A^H over the other atom,
    64 kB of states at a time by one stacked product.  A norm_drift beyond
    NORM_DRIFT_TOL raises StepSizeError."""
    out = np.empty((2, 4, np.size(counts)))
    walk, rows = walk_grid(h, psi0, step, counts, dt), max(1, 2**16 // (16 * h.dim))
    for lo in range(0, out.shape[2], rows):
        amp = np.array(list(itertools.islice(walk, rows))).reshape(-1, 4, h.n_f + 1)
        rho = (amp @ amp.conj().transpose(0, 2, 1)).reshape(-1, 2, 2, 2, 2)
        for dest, r in zip(out[..., lo:lo + len(rho)],
                           (rho.trace(axis1=2, axis2=4), rho.trace(axis1=1, axis2=3))):
            dest[:] = ((r[:, 0, 0] + r[:, 1, 1]).real, 2.0 * r[:, 0, 1].real,
                       2.0 * r[:, 0, 1].imag, (r[:, 0, 0] - r[:, 1, 1]).real)
    states = {atom: ReducedAtomState(*values) for atom, values in zip(AtomId, out)}
    drift = norm_drift(states[AtomId.FIRST])
    if drift > NORM_DRIFT_TOL:
        raise StepSizeError(
            f"state norm deviates from 1 by {drift:.3e} > {NORM_DRIFT_TOL}; reduce dt")
    return states


def norm_drift(state: ReducedAtomState) -> float:
    """max | ||psi|| - 1 | over the times of a traced state, read off its
    trace ||psi||^2."""
    return float(np.max(np.abs(np.sqrt(state.trace) - 1.0), initial=0.0))
