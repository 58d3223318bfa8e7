"""Diagnostics of a single-atom state, at one time or over a grid.

Everything here is a function of the Bloch vector (sx, sy, sz) alone, and
accepts scalars or arrays of matching shape for its components.
Information entropies are Shannon entropies (in nats) of the two-outcome
measurement distributions (1 +- m)/2; the entropy-squeezing witness for a
Pauli axis k is

    E_k = exp H(k) - 2 / sqrt(exp H(z))

which is negative only for states squeezed in the information-entropy
sense.  The variance witness F_k = (1 - <k>^2) - |<z>| is its
uncertainty-relation counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import InvalidParameterError
from .reduced import ReducedAtomState

LN2 = math.log(2.0)

Axis = Literal["x", "y"]


@dataclass(frozen=True)
class BlochVector:
    sx: float | np.ndarray
    sy: float | np.ndarray
    sz: float | np.ndarray

    def norm(self) -> float | np.ndarray:
        return np.sqrt(self.sx * self.sx + self.sy * self.sy + self.sz * self.sz)


def bloch(state: ReducedAtomState) -> BlochVector:
    """Bloch components of a 2x2 density matrix: sz from the populations,
    sx and sy from the coherence."""
    return BlochVector(
        sx=2.0 * state.coh.real,
        sy=2.0 * state.coh.imag,
        sz=state.p_plus - state.p_minus,
    )


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p ln p, continued by its limit 0 at p = 0 (where the log sees 1)."""
    return p * np.log(p + (p == 0.0))


def binary_entropy_of_mean(m: float | np.ndarray) -> float | np.ndarray:
    """Shannon entropy, in nats, of the two-outcome distribution with mean m.

    Symmetric under m -> -m, zero at m = +-1, ln 2 at m = 0.  Inputs a hair
    outside [-1, 1] (roundoff) are clamped; anything worse is rejected.
    """
    m = np.asarray(m, dtype=float)
    if (abs(m) > 1.0 + 1e-12).any():
        raise InvalidParameterError(
            f"mean {m.flat[np.argmax(abs(m))]} outside [-1, 1]"
        )
    p = np.minimum(np.maximum(0.5 * (1.0 + m), 0.0), 1.0)
    # from +0.0, so that a pure state gives +0 rather than -0
    return 0.0 - _xlogx(p) - _xlogx(1.0 - p)


def _axis_mean(b: BlochVector, axis: Axis) -> float | np.ndarray:
    if axis == "x":
        return b.sx
    if axis == "y":
        return b.sy
    raise InvalidParameterError(f"axis must be 'x' or 'y', got {axis!r}")


def entropy_squeezing(b: BlochVector, axis: Axis) -> float | np.ndarray:
    """Entropy-squeezing witness E_axis; negative values are nonclassical.

    Bounded by 1 - sqrt(2) ~ -0.4142 (pure transverse eigenstates) below
    and 2 - sqrt(2) (maximally mixed state) above.
    """
    dh_k = np.exp(binary_entropy_of_mean(_axis_mean(b, axis)))
    dh_z = np.exp(binary_entropy_of_mean(b.sz))
    return dh_k - 2.0 / np.sqrt(dh_z)


def variance_squeezing(b: BlochVector, axis: Axis) -> float | np.ndarray:
    """Variance witness F_axis = (1 - <axis>^2) - |<z>|; negative values
    signal squeezing by the uncertainty-relation criterion.  Blind for any
    state with <z> = 0."""
    mk = _axis_mean(b, axis)
    return (1.0 - mk * mk) - np.abs(b.sz)


def von_neumann(b: BlochVector) -> float | np.ndarray:
    """Von Neumann entropy of the 2x2 state with Bloch vector b, in nats.

    The eigenvalues are (1 +- r)/2 with r = |b|, so this is just the
    binary entropy of r; r is clamped to 1 before the evaluation.
    """
    return binary_entropy_of_mean(np.minimum(b.norm(), 1.0))


def eur_residual(b: BlochVector) -> float | np.ndarray:
    """Slack of the three-axis entropic uncertainty relation
    H(x) + H(y) + H(z) >= ln 4; non-negative for every physical state."""
    return (
        binary_entropy_of_mean(b.sx)
        + binary_entropy_of_mean(b.sy)
        + binary_entropy_of_mean(b.sz)
        - 2.0 * LN2
    )

