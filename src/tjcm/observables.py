"""Diagnostics of a single-atom state, at one time or over a grid.

Everything here is a function of the Bloch vector (sx, sy, sz) alone, and
accepts scalars or arrays of matching shape for its components.  Its sy
carries the package's sign, 2 Im rho_{+-} (reduced.ReducedAtomState):
-<sigma_y> for the standard sigma_y = [[0, -i], [i, 0]] in the {|+>, |->}
basis; every quantity here is even in sy.
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
from dataclasses import dataclass, field
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
    _entropies: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def norm(self) -> float | np.ndarray:
        return np.sqrt(self.sx * self.sx + self.sy * self.sy + self.sz * self.sz)

    def entropy(self, axis: Literal["x", "y", "z"]) -> float | np.ndarray:
        """binary_entropy_of_mean along "x", "y" or "z", formed once per vector."""
        if axis not in self._entropies:
            if axis not in ("x", "y", "z"):
                raise InvalidParameterError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
            self._entropies[axis] = binary_entropy_of_mean(getattr(self, "s" + axis))
        return self._entropies[axis]


def bloch(state: ReducedAtomState) -> BlochVector:
    """Bloch vector (sx, sy, sz) / trace of the normalized state rho / tr rho,
    which every channel reads; a trace <= 0 is refused.  A vector that
    rounding carries past the sphere (by 2 eps where a frozen atom's
    inversion, a float64 dot, rounds past its trace, an fsum) is divided by
    its norm until norm() <= 1; one beyond 1 + 1e-12 is refused."""
    if not np.all(np.greater(state.trace, 0.0)):
        raise InvalidParameterError(f"reduced state trace must be > 0, got {np.min(state.trace)}")
    b = BlochVector(sx=state.sx / state.trace, sy=state.sy / state.trace,
                    sz=state.sz / state.trace)
    while np.any((norm := b.norm()) > 1.0):  # each pass takes it down by an ulp or more
        if not np.all(norm <= 1.0 + 1e-12):
            raise InvalidParameterError(f"Bloch vector norm {np.max(norm)!r} is beyond 1")
        b = BlochVector(*(v / np.maximum(norm, 1.0) for v in (b.sx, b.sy, b.sz)))
    return b


def _xlogx(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x ln x into out (not x), continued by 0 at x = 0 (where the log sees 1)."""
    return np.multiply(np.log(np.add(x, x == 0.0, out=out), out=out), x, out=out)


def binary_entropy_of_mean(m: float | np.ndarray) -> float | np.ndarray:
    """Shannon entropy, in nats, of the two-outcome distribution with mean m.

    Symmetric under m -> -m, zero at m = +-1, ln 2 at m = 0.  Inputs a hair
    outside [-1, 1] (roundoff) are clamped; anything beyond 1e-12 is
    rejected.  Evaluated in place, with two working arrays beside the result.
    """
    m = np.asarray(m, dtype=float)
    p = np.abs(m, out=np.empty_like(m))
    if (p > 1.0 + 1e-12).any():
        raise InvalidParameterError(f"mean {m.flat[np.argmax(p)]} outside [-1, 1]")
    np.minimum(np.maximum(np.multiply(np.add(1.0, m, out=p), 0.5, out=p), 0.0, out=p), 1.0, out=p)
    q = np.subtract(1.0, p, out=np.empty_like(p))
    h = _xlogx(p, np.empty_like(p))
    np.subtract(0.0, h, out=h)  # from +0.0, so that a pure state gives +0, not -0
    h -= _xlogx(q, p)
    return h[()]


def _transverse(axis: Axis) -> Axis:
    if axis not in ("x", "y"):
        raise InvalidParameterError(f"axis must be 'x' or 'y', got {axis!r}")
    return axis


def entropy_squeezing(b: BlochVector, axis: Axis) -> float | np.ndarray:
    """Entropy-squeezing witness E_axis; negative values are nonclassical.

    Bounded by 1 - sqrt(2) ~ -0.4142 (pure transverse eigenstates) below
    and 2 - sqrt(2) (maximally mixed state) above.
    """
    dh_k = np.exp(b.entropy(_transverse(axis)))
    dh_z = np.exp(b.entropy("z"))
    return dh_k - 2.0 / np.sqrt(dh_z)


def variance_squeezing(b: BlochVector, axis: Axis) -> float | np.ndarray:
    """Variance witness F_axis = (1 - <axis>^2) - |<z>|; negative values
    signal squeezing by the uncertainty-relation criterion.  Blind for any
    state with <z> = 0."""
    mk = getattr(b, "s" + _transverse(axis))
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
    return b.entropy("x") + b.entropy("y") + b.entropy("z") - 2.0 * LN2

