"""Brute-force verification path for the analytic pipeline.

Integrates the Schroedinger equation on the full (atom1 x atom2 x field)
product space with fixed-step RK4 and extracts single-atom states by a
direct partial trace.  The m fixed steps of one interval are applied as
R(-ihH)^m, with R the RK4 stability polynomial, by binary powering of
the one-step operator.  Deliberately ignorant of the 4x4 block
structure: it shares only the weight table, the reduced-state types and
transition_strength (tested on its own against exact factorials), so
agreement with the analytic route is evidence rather than tautology.

Operators are numpy arrays of values on one CSR sparsity pattern S, the
fixed point of S <- S | pattern(S S) seeded with pattern(I + H).  S is
found from the nonzeros of H alone; since H conserves excitation number,
it stays as sparse as one RK4 step, while a general H would only make it
denser.  Because S is closed under products, H, I, the one-step operator
and all its powers live on S, and the plan of the product S S (which
pairs of slots meet in which output slot) is computed once, symbolically
(Gustavson, ACM TOMS 4 (1978) 250).  A numeric product is then one
gather-multiply and one segmented sum, and so is a matvec.

State layout: amp[s1, s2, n] with s = 0 for |+> and 1 for |->, flattened
C-order into a vector of length 4 (n_f + 1).
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class ClosedPattern:
    """CSR sparsity pattern S with pattern(S S) = S, plus the plan of S S.

    Slot k holds entry (rows[k], indices[k]); slots are sorted by row, then
    column.  The product of two operators on S sums a[left[q]] * b[right[q]]
    over the pairs q in [starts[k], starts[k + 1]) into slot k.  Every row
    holds its diagonal, so no row and no output segment is empty.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    left: np.ndarray
    right: np.ndarray
    starts: np.ndarray

    @property
    def dim(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return self.indices.size

    def identity(self) -> np.ndarray:
        return (self.rows == self.indices).astype(float)

    def slots(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Slot of each entry (rows[i], cols[i]), all of which lie on S."""
        return np.searchsorted(self.rows * self.dim + self.indices, rows * self.dim + cols)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Values on S of the product of the operators with values a, b."""
        return np.add.reduceat(a[self.left] * b[self.right], self.starts)

    def matvec(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The operator with values a applied to the vector x."""
        return np.add.reduceat(a * x[self.indices], self.indptr[:-1])


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal sorted keys (a
    hand-rolled np.unique, which would import numpy.ma on first use)."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def close_pattern(dim: int, rows: np.ndarray, cols: np.ndarray) -> ClosedPattern:
    """Smallest pattern closed under products that holds the diagonal and
    the given entries, found by repeated expand-sort-compress products."""
    keys = np.sort(np.concatenate([np.arange(dim) * (dim + 1), rows * dim + cols]))
    keys = keys[_run_starts(keys)]
    while True:
        slot_rows, indices = np.divmod(keys, dim)
        indptr = np.zeros(dim + 1, dtype=np.int64)
        np.cumsum(np.bincount(slot_rows, minlength=dim), out=indptr[1:])
        # every pair of slots (a, b) with column(a) == row(b): slot a once
        # per slot of row column(a), and b running along that row
        counts = np.diff(indptr)[indices]
        first = np.cumsum(counts) - counts
        left = np.repeat(np.arange(keys.size), counts)
        right = np.arange(left.size) + np.repeat(indptr[indices] - first, counts)
        out = slot_rows[left] * dim + indices[right]
        order = np.argsort(out, kind="stable")
        out = out[order]
        starts = _run_starts(out)
        # the diagonal puts S inside pattern(S S): equal sizes mean a fixed point
        if starts.size == keys.size:
            return ClosedPattern(indptr, indices, slot_rows, left[order], right[order], starts)
        keys = out[starts]


@dataclass(frozen=True)
class JointHamiltonian:
    """Real symmetric interaction matrix on the product space, as values
    on the product-closed pattern of its nonzeros."""

    l: int
    g: float
    n_f: int
    pattern: ClosedPattern
    values: np.ndarray

    @property
    def dim(self) -> int:
        return 4 * (self.n_f + 1)

    @cached_property
    def norm_inf(self) -> float:
        """||H||_inf, the largest absolute row sum."""
        return float(np.add.reduceat(np.abs(self.values), self.pattern.indptr[:-1]).max())


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
    nonzero = np.tile(weights != 0.0, 2)
    rows = np.concatenate([upper, lower])[nonzero]
    cols = np.concatenate([lower, upper])[nonzero]
    pattern = close_pattern(4 * n1, rows, cols)
    values = np.zeros(pattern.nnz)
    values[pattern.slots(rows, cols)] = np.tile(weights, 2)[nonzero]
    return JointHamiltonian(l=l, g=g, n_f=n_f, pattern=pattern, values=values)


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
    margin against the full matrix norm.
    """
    c = weights.c
    n = np.arange(c.size, dtype=float)
    f1 = transition_strength(n, h.l)
    f2 = transition_strength(n + h.l, h.l)
    lam = np.sqrt((1.0 + h.g * h.g) * (f1 * f1 + f2 * f2))
    lam5 = float(np.sum(c * c * lam ** 5))
    dt_acc = (120.0 * PHASE_TOL / (max(t_total, 1e-12) * lam5)) ** 0.25
    return min(DT_MAX, dt_acc, 0.1 / h.norm_inf)


def rk4_evolve(h: JointHamiltonian, psi0: np.ndarray, T: float, dt: float) -> np.ndarray:
    """Classic fixed-step RK4 for d psi / dT = -i H psi.

    The m = ceil(T / dt) steps of size T / m are applied as P^m psi0, with
    P = R(-i step H) and R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the RK4
    stability polynomial, by binary powering: about log2(m) products
    instead of 4m matvecs.  P and its powers are polynomials in H, so they
    all live on H's closed pattern.  No renormalization is applied: the
    norm drift is itself a diagnostic, and a drift beyond NORM_DRIFT_TOL
    raises StepSizeError.  The requested dt must respect the stability
    margin dt <= 0.5 / ||H||_inf.
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
    pattern = h.pattern
    eye = pattern.identity()
    p = eye + (z / 4.0) * h.values
    for d in (3.0, 2.0, 1.0):
        p = eye + (z / d) * pattern.matmul(h.values, p)
    k = steps
    while k:
        if k & 1:
            psi = pattern.matvec(p, psi)
        k >>= 1
        if k:
            p = pattern.matmul(p, p)
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
    step size and costs about log2(steps) products on the closed pattern.
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
