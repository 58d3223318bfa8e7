"""Brute-force verification path for the analytic pipeline.

Integrates the Schroedinger equation on the full (atom1 x atom2 x field)
product space with fixed-step RK4 and extracts single-atom states by a
direct partial trace.  The m fixed steps of one interval are applied as
R(-ihH)^m, with R the RK4 stability polynomial, by binary powering of
the sparse one-step operator.  Deliberately ignorant of the 4x4 block
structure: it shares only the weight table, the reduced-state types and
transition_strength (tested on its own against exact factorials), so
agreement with the analytic route is evidence rather than tautology.

State layout: amp[s1, s2, n] with s = 0 for |+> and 1 for |->, flattened
C-order into a vector of length 4 (n_f + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from .blocks import transition_strength
from .errors import InvalidParameterError, StepSizeError, TruncationError
from .params import FockWeights
from .reduced import AtomId, ReducedAtomState

NORM_DRIFT_TOL = 1e-7
PHASE_TOL = 1e-9
DT_MAX = 1e-3


@dataclass(frozen=True)
class JointHamiltonian:
    """Sparse real symmetric interaction matrix on the product space."""

    l: int
    g: float
    n_f: int
    matrix: sparse.csr_matrix

    @property
    def dim(self) -> int:
        return 4 * (self.n_f + 1)

    @cached_property
    def norm_inf(self) -> float:
        """||H||_inf, the largest absolute row sum."""
        return float(np.abs(self.matrix).sum(axis=1).max())


def _index(s1: int, s2: int, n: int, n_f: int) -> int:
    return (s1 * 2 + s2) * (n_f + 1) + n


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
    rows, cols, vals = [], [], []

    def put(i: int, j: int, v: float) -> None:
        rows.extend((i, j))
        cols.extend((j, i))
        vals.extend((v, v))

    for n in range(n_f + 1 - l):
        f = transition_strength(n, l)
        for s2 in (0, 1):
            put(_index(1, s2, n + l, n_f), _index(0, s2, n, n_f), f)
        for s1 in (0, 1):
            put(_index(s1, 1, n + l, n_f), _index(s1, 0, n, n_f), g * f)
    dim = 4 * (n_f + 1)
    m = sparse.csr_matrix(
        sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    )
    return JointHamiltonian(l=l, g=g, n_f=n_f, matrix=m)


def initial_state(weights: FockWeights, h: JointHamiltonian) -> np.ndarray:
    """Both atoms excited, field in the weighted Fock superposition."""
    if h.n_f < weights.n_max + 2 * h.l:
        raise TruncationError(
            f"n_f = {h.n_f} too small: need >= n_max + 2l = {weights.n_max + 2 * h.l}"
        )
    psi = np.zeros(h.dim, dtype=complex)
    psi[: weights.n_max + 1] = weights.c
    return psi


def suggest_dt(
    weights: FockWeights,
    h: JointHamiltonian,
    t_total: float,
    phase_tol: float = PHASE_TOL,
) -> float:
    """Step size keeping the weighted RK4 phase error below phase_tol.

    A block with base photon number n has spectral radius at most
    lam(n) = sqrt((1 + g^2)(f1^2 + f2^2)); the accumulated RK4 phase error
    of a mode of frequency lam over time T is about T lam^5 dt^4 / 120.
    Weighting lam^5 by the initial photon distribution bounds the error
    actually visible in reduced-state entries, which is what the
    cross-path tolerance constrains.  Capped by DT_MAX and by a stability
    margin against the full matrix norm.
    """
    c = weights.c
    lam5 = 0.0
    for n in range(c.size):
        f1 = transition_strength(n, h.l)
        f2 = transition_strength(n + h.l, h.l)
        lam = math.sqrt((1.0 + h.g * h.g) * (f1 * f1 + f2 * f2))
        lam5 += c[n] * c[n] * lam ** 5
    dt_acc = (120.0 * phase_tol / (max(t_total, 1e-12) * lam5)) ** 0.25
    return min(DT_MAX, dt_acc, 0.1 / h.norm_inf)


def rk4_evolve(h: JointHamiltonian, psi0: np.ndarray, T: float, dt: float) -> np.ndarray:
    """Classic fixed-step RK4 for d psi / dT = -i H psi.

    The m = ceil(T / dt) steps of size T / m are applied as P^m psi0, with
    P = R(-i step H) and R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the RK4
    stability polynomial, by binary powering: about log2(m) sparse
    products instead of 4m matvecs.  H conserves excitation number, so
    every power of P stays on H's invariant subspaces, as sparse as P.
    No renormalization is applied: the norm drift is itself a diagnostic,
    and a drift beyond NORM_DRIFT_TOL raises StepSizeError.  The requested
    dt must respect the stability margin dt <= 0.5 / ||H||_inf.
    """
    norm_inf = h.norm_inf
    if norm_inf > 0.0 and dt > 0.5 / norm_inf:
        raise StepSizeError(
            f"dt = {dt} exceeds stability margin {0.5 / norm_inf:.3e}"
        )
    if T < 0.0:
        raise InvalidParameterError("backward oracle evolution not supported")
    psi = np.asarray(psi0, dtype=complex).copy()
    if T == 0.0:
        return psi
    steps = max(1, math.ceil(T / dt))
    z = -1j * (T / steps)
    m = h.matrix
    eye = sparse.identity(h.dim, format="csr")
    p = eye + (z / 4.0) * m
    for d in (3.0, 2.0, 1.0):
        p = eye + (z / d) * (m @ p)
    k = steps
    while k:
        if k & 1:
            psi = p @ psi
        k >>= 1
        if k:
            p = p @ p
    drift = abs(float(np.linalg.norm(psi)) - 1.0)
    if drift > NORM_DRIFT_TOL:
        raise StepSizeError(
            f"norm drifted by {drift:.3e} > {NORM_DRIFT_TOL}; reduce dt"
        )
    return psi


def sample_states(
    h: JointHamiltonian,
    psi0: np.ndarray,
    times: np.ndarray,
    dt: float,
):
    """Yield (T, psi) at each requested time along one trajectory.

    Times must be non-decreasing; integration continues from the previous
    sample with one rk4_evolve per interval, so each interval keeps its own
    step size and costs about log2(steps) sparse products.
    """
    times = np.asarray(times, dtype=float)
    if times.size and np.any(np.diff(times) < 0.0):
        raise InvalidParameterError("sample times must be non-decreasing")
    psi = np.asarray(psi0, dtype=complex).copy()
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            psi = rk4_evolve(h, psi, t - t_prev, dt)
            t_prev = t
        yield float(t), psi


def partial_trace_atom(psi: np.ndarray, n_f: int, atom: AtomId) -> ReducedAtomState:
    """Single-atom state from the joint vector by direct partial trace."""
    norm_dev = abs(float(np.linalg.norm(psi)) - 1.0)
    if norm_dev > NORM_DRIFT_TOL:
        raise InvalidParameterError(
            f"state norm deviates from 1 by {norm_dev:.3e}"
        )
    amp = np.asarray(psi).reshape(2, 2, n_f + 1)
    if atom is AtomId.SECOND:
        amp = amp.transpose(1, 0, 2)
    p_plus = float(np.sum(np.abs(amp[0]) ** 2))
    p_minus = float(np.sum(np.abs(amp[1]) ** 2))
    coh = complex(np.sum(amp[0] * np.conj(amp[1])))
    return ReducedAtomState(p_plus=p_plus, p_minus=p_minus, coh=coh)


def excitation_expectation(psi: np.ndarray, n_f: int, l: int) -> float:
    """Expectation of the conserved excitation number
    n + (l/2)(sz1 + sz2 + 2); constant along exact trajectories."""
    amp = np.asarray(psi).reshape(2, 2, n_f + 1)
    n = np.arange(n_f + 1, dtype=float)
    out = 0.0
    for s1 in (0, 1):
        for s2 in (0, 1):
            sz_sum = (1.0 - 2.0 * s1) + (1.0 - 2.0 * s2)
            weight = n + 0.5 * l * (sz_sum + 2.0)
            out += float(np.sum(np.abs(amp[s1, s2]) ** 2 * weight))
    return out
