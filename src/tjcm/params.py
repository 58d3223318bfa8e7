"""Model configuration and coherent-field amplitude tables.

The field starts in a coherent state with real amplitude ``alpha``; its
Fock-basis amplitudes C_n = alpha^n / sqrt(n!) * exp(-alpha^2 / 2) carry
Poissonian weight C_n^2.  All dynamics below a tail mass of ``cutoff_eps``
is dropped, so every downstream sum over photon number is finite.  The
table always starts at n = 0; the analytic sums start later, at
``FockWeights.window``, past a lower tail of at most ``WINDOW_FRACTION *
cutoff_eps`` of the weight, and take their weights from it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, integer_at_least, real_number

DEFAULT_CUTOFF_EPS = 1e-12
# The reduced trace, the window mass, is checked against 10 * cutoff_eps,
# and the weight table's own rounding moves it by up to 1.1e-14 (alpha
# 0-30): below this floor cutoff_eps asks for less than that rounding.
_MIN_CUTOFF_EPS = 1e-15
# Share of cutoff_eps that the lower photon-number window may drop.
WINDOW_FRACTION = 1e-8

# Hard stop for the tail search; Poissonian mass at alpha <= 30 is long gone
# by here, so hitting it means cutoff_eps was set below machine resolution.
_MAX_FOCK_INDEX = 20_000


def truncation_floor(alpha: float) -> int:
    """Minimum truncation index, padded so sums shifted by n+l and n+2l
    still see the full coherent tail."""
    return math.ceil(alpha * alpha + 10.0 * alpha + 20.0)


def _check_cutoff_eps(cutoff_eps: float) -> None:
    if not (0.0 < cutoff_eps < 1.0):
        raise InvalidParameterError(f"cutoff_eps must lie in (0, 1), got {cutoff_eps}")
    if cutoff_eps < _MIN_CUTOFF_EPS:
        raise InvalidParameterError(f"cutoff_eps={cutoff_eps} is below {_MIN_CUTOFF_EPS:.0e}, where the "
                                    "weight table's own rounding can exceed 10*cutoff_eps")


def _vacuum_amplitude(alpha: float) -> float:
    """C_0 = exp(-alpha^2 / 2), with alpha^2 taken exactly.

    Rounding alpha * alpha alone moves C_0 by up to 2e-14 relative at
    alpha = 12, and C_n^2 by twice that: enough to push the total weight
    below 1 - cutoff_eps for cutoff_eps = 1e-14.  The rounding error of the
    square is recovered exactly from the integer ratios of alpha and of
    the rounded square.  A subnormal C_0 would start the recurrence from
    fewer than 53 significant bits, so it is refused like an underflow.
    """
    sq = alpha * alpha
    num, den = alpha.as_integer_ratio()
    sq_num, sq_den = sq.as_integer_ratio()
    sq_err = (num * num * sq_den - sq_num * den * den) / (den * den * sq_den)
    c0 = math.exp(-0.5 * sq) * math.exp(-0.5 * sq_err)
    if c0 < sys.float_info.min:
        raise InvalidParameterError(f"alpha={alpha} is too large: exp(-alpha^2/2) = {c0:.3e} is "
                                    f"below the smallest normal double {sys.float_info.min:.3e}")
    return c0


def _amplitude_table(alpha: float, cutoff_eps: float) -> list[float]:
    """C_0..C_{n_max} by the stable recurrence C_{n+1} = C_n * alpha /
    sqrt(n + 1); direct evaluation of alpha^n / sqrt(n!) overflows long
    before the recurrence loses accuracy.

    n_max is the smallest index whose excluded tail mass
    sum_{n > n_max} C_n^2 falls below cutoff_eps, floored at
    ``truncation_floor(alpha)``.  Past the Poisson mode the terms fall at
    least geometrically, with ratio alpha^2 / (m + 2) or less beyond
    C_{m+1}^2, so the tail beyond m is at most
    C_{m+1}^2 / (1 - alpha^2 / (m + 2)).  Stopping on that bound, rather
    than on 1 minus the running mass, cannot stall on the rounding of the
    mass.
    """
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise InvalidParameterError(f"alpha must be >= 0, got {alpha}")
    _check_cutoff_eps(cutoff_eps)
    lam = alpha * alpha
    c = [_vacuum_amplitude(alpha)]
    m = 0
    while True:
        c_next = c[m] * alpha / math.sqrt(m + 1.0)
        ratio = lam / (m + 2.0)
        if ratio < 1.0 and c_next * c_next < cutoff_eps * (1.0 - ratio):
            break
        if m >= _MAX_FOCK_INDEX:
            raise InvalidParameterError(f"cutoff_eps={cutoff_eps} is below the resolvable tail mass")
        c.append(c_next)
        m += 1
    for m in range(m, truncation_floor(alpha)):
        c.append(c[m] * alpha / math.sqrt(m + 1.0))
    return c


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration of the two-atom multiphoton model.

    alpha       coherent field amplitude (real, >= 0)
    g           coupling ratio of atom 2 to atom 1 (> 0); g = 1 is the
                symmetric case
    l           photons exchanged per atomic flip (integer >= 1)
    cutoff_eps  Fock tail mass dropped by the truncation
    n_max       derived truncation index
    weights     derived coherent_weights(alpha, cutoff_eps), not compared

    Energies are measured in units of the atom-1 coupling, times in units
    of its inverse; resonance (atomic splitting = 2 l field quanta) is
    assumed throughout, so only the interaction part of the Hamiltonian
    enters the dynamics.  alpha, g and cutoff_eps are kept as Python floats.
    """

    alpha: float
    g: float
    l: int
    cutoff_eps: float = DEFAULT_CUTOFF_EPS
    n_max: int = field(init=False)
    weights: FockWeights = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "l", integer_at_least(self.l, 1, "l"))
        for name in ("alpha", "g", "cutoff_eps"):
            object.__setattr__(self, name, real_number(getattr(self, name), name))
        if not (self.g > 0.0 and math.isfinite(self.g)):
            raise InvalidParameterError(f"g must be > 0, got {self.g}")
        weights = coherent_weights(self.alpha, self.cutoff_eps)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "n_max", weights.n_max)


@dataclass(frozen=True)
class FockWeights:
    """Truncated table of real field amplitudes c[n] for n = 0..n_max; the
    analytic sums over it start at window(l)."""

    c: np.ndarray
    cutoff_eps: float = DEFAULT_CUTOFF_EPS
    # window(l) of each l asked for, read-only, formed once
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_cutoff_eps(self.cutoff_eps)
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise InvalidParameterError("weights must be a non-empty 1-d table")
        if np.any(c < 0.0):
            raise InvalidParameterError("amplitudes must be non-negative")
        mass = float(np.sum(c * c))
        if not (1.0 - self.cutoff_eps <= mass <= 1.0 + 1e-12):
            raise InvalidParameterError(f"total weight {mass} outside [1 - cutoff_eps, 1]")
        object.__setattr__(self, "c", c)

    @property
    def n_max(self) -> int:
        return self.c.size - 1

    def window(self, l: int) -> tuple[int, np.ndarray, np.ndarray]:
        """(n_min, pop, pair): the first base photon number that the analytic
        sums keep, the largest n with sum_{k<n} c_k^2 and sum_{k<n} c_k c_{k+l}
        both at most WINDOW_FRACTION * cutoff_eps, and their weights c_n^2 and
        c_n c_{n+l} from n_min on.  Every amplitude of a block has modulus
        <= 1, so the two sums bound what starting a population or a coherence
        sum (pairs n, n + l) at n_min instead of 0 can change.  The window
        keeps n_max.  Formed once per l; the arrays are read-only."""
        if l not in self._windows:
            bound = WINDOW_FRACTION * self.cutoff_eps
            c = self.c
            pop = c * c
            pair = c * np.concatenate([c[l:], np.zeros(min(l, c.size))])  # c_{n+l} = 0 past n_max
            n_min = int(min(np.searchsorted(np.cumsum(pop), bound, side="right"),
                            np.searchsorted(np.cumsum(pair), bound, side="right"), self.n_max))
            pop, pair = pop[n_min:], pair[n_min:][:-l]
            pop.flags.writeable = pair.flags.writeable = False
            self._windows[l] = n_min, pop, pair
        return self._windows[l]


def coherent_weights(alpha: float, cutoff_eps: float = DEFAULT_CUTOFF_EPS) -> FockWeights:
    """Coherent-state amplitude table C_0..C_{n_max}, truncated where its
    excluded tail mass falls below cutoff_eps, floored at
    ``truncation_floor(alpha)``.

    The truncation keeps the dropped tail below cutoff_eps, so a total
    weight short of 1 - cutoff_eps is the recurrence's own rounding, and a
    cutoff_eps that fine is refused as such.
    """
    alpha, cutoff_eps = real_number(alpha, "alpha"), real_number(cutoff_eps, "cutoff_eps")
    c = np.array(_amplitude_table(alpha, cutoff_eps))
    mass = float(np.sum(c * c))
    if mass < 1.0 - cutoff_eps:
        raise InvalidParameterError(f"cutoff_eps={cutoff_eps} is finer than the weight table's "
                                    f"rounding at alpha={alpha}: its total weight falls "
                                    f"{1.0 - mass:.2e} short of 1")
    return FockWeights(c=c, cutoff_eps=cutoff_eps)
