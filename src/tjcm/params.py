"""Model configuration and coherent-field amplitude tables.

The field starts in a coherent state with real amplitude ``alpha``; its
Fock-basis amplitudes C_n = alpha^n / sqrt(n!) * exp(-alpha^2 / 2) carry
Poissonian weight C_n^2.  All dynamics below a tail mass of ``cutoff_eps``
is dropped, so every downstream sum over photon number is finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

DEFAULT_CUTOFF_EPS = 1e-12

# Hard stop for the tail search; Poissonian mass at alpha <= 30 is long gone
# by here, so hitting it means cutoff_eps was set below machine resolution.
_MAX_FOCK_INDEX = 20_000


def truncation_floor(alpha: float) -> int:
    """Minimum truncation index, padded so sums shifted by n+l and n+2l
    still see the full coherent tail."""
    return math.ceil(alpha * alpha + 10.0 * alpha + 20.0)


def _check_alpha_eps(alpha: float, cutoff_eps: float) -> None:
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise InvalidParameterError(f"alpha must be >= 0, got {alpha}")
    if not (0.0 < cutoff_eps < 1.0):
        raise InvalidParameterError(
            f"cutoff_eps must lie in (0, 1), got {cutoff_eps}"
        )


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
        raise InvalidParameterError(
            f"alpha={alpha} is too large: exp(-alpha^2/2) = {c0:.3e} is below "
            f"the smallest normal double {sys.float_info.min:.3e}"
        )
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
    _check_alpha_eps(alpha, cutoff_eps)
    lam = alpha * alpha
    c = [_vacuum_amplitude(alpha)]
    m = 0
    while True:
        c_next = c[m] * alpha / math.sqrt(m + 1.0)
        ratio = lam / (m + 2.0)
        if ratio < 1.0 and c_next * c_next < cutoff_eps * (1.0 - ratio):
            break
        if m >= _MAX_FOCK_INDEX:
            raise InvalidParameterError(
                f"cutoff_eps={cutoff_eps} is below the resolvable tail mass"
            )
        c.append(c_next)
        m += 1
    for m in range(m, truncation_floor(alpha)):
        c.append(c[m] * alpha / math.sqrt(m + 1.0))
    return c


def fock_cutoff(alpha: float, cutoff_eps: float) -> int:
    """Truncation index n_max of the coherent amplitude table: where its
    excluded tail mass falls below cutoff_eps, floored at
    ``truncation_floor(alpha)``."""
    return len(_amplitude_table(alpha, cutoff_eps)) - 1


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration of the two-atom multiphoton model.

    alpha       coherent field amplitude (real, >= 0)
    g           coupling ratio of atom 2 to atom 1 (> 0); g = 1 is the
                symmetric case
    l           photons exchanged per atomic flip (integer >= 1)
    cutoff_eps  Fock tail mass dropped by the truncation
    n_max       derived truncation index

    Energies are measured in units of the atom-1 coupling, times in units
    of its inverse; resonance (atomic splitting = 2 l field quanta) is
    assumed throughout, so only the interaction part of the Hamiltonian
    enters the dynamics.
    """

    alpha: float
    g: float
    l: int
    cutoff_eps: float = DEFAULT_CUTOFF_EPS
    n_max: int = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.l, int) or self.l < 1:
            raise InvalidParameterError(f"l must be an integer >= 1, got {self.l}")
        if not (self.g > 0.0 and math.isfinite(self.g)):
            raise InvalidParameterError(f"g must be > 0, got {self.g}")
        object.__setattr__(self, "n_max", fock_cutoff(self.alpha, self.cutoff_eps))


@dataclass(frozen=True)
class FockWeights:
    """Truncated table of real field amplitudes c[n] for n = 0..n_max."""

    c: np.ndarray
    cutoff_eps: float = DEFAULT_CUTOFF_EPS

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise InvalidParameterError("weights must be a non-empty 1-d table")
        if np.any(c < 0.0):
            raise InvalidParameterError("amplitudes must be non-negative")
        mass = float(np.sum(c * c))
        if not (1.0 - self.cutoff_eps <= mass <= 1.0 + 1e-12):
            raise InvalidParameterError(
                f"total weight {mass} outside [1 - cutoff_eps, 1]"
            )
        object.__setattr__(self, "c", c)

    @property
    def n_max(self) -> int:
        return self.c.size - 1


def coherent_weights(alpha: float, cutoff_eps: float = DEFAULT_CUTOFF_EPS) -> FockWeights:
    """Coherent-state amplitude table C_0..C_{n_max}, truncated at
    ``fock_cutoff``.

    The truncation keeps the dropped tail below cutoff_eps, so a total
    weight short of 1 - cutoff_eps is the recurrence's own rounding, and a
    cutoff_eps that fine is refused as such.
    """
    c = np.array(_amplitude_table(alpha, cutoff_eps))
    mass = float(np.sum(c * c))
    if mass < 1.0 - cutoff_eps:
        raise InvalidParameterError(
            f"cutoff_eps={cutoff_eps} is finer than the weight table's rounding at "
            f"alpha={alpha}: its total weight falls {1.0 - mass:.2e} short of 1"
        )
    return FockWeights(c=c, cutoff_eps=cutoff_eps)
