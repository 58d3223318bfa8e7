"""Single-atom comparison baseline and the strong-field approximation.

The one-atom resonant model is exactly solvable: starting excited against
field level n, the amplitudes are cos(T sqrt(n+1)) on |+, n> and
-i sin(T sqrt(n+1)) on |-, n+1>.  The two-atom symmetric case admits a
strong-field (alpha >> 1) approximation for the transverse coherence in
terms of the block frequencies w_n = sqrt(4n + 6); both live here as
references against the exact two-atom pipeline.
"""

from __future__ import annotations

import numpy as np

from .observables import BlochVector, entropy_squeezing
from .params import FockWeights


def _times(T: float | np.ndarray) -> np.ndarray:
    """T with a trailing axis, so each (T, n) phase matrix contracts
    against a weight vector over n."""
    return np.asarray(T, dtype=float)[..., None]


def jcm_bloch(weights: FockWeights, T: float | np.ndarray) -> BlochVector:
    """Bloch vector of the single-atom model at scaled time(s) T:

        sz = sum_n C_n^2 cos(2 T sqrt(n+1))
        sy = 2 sum_n C_n C_{n+1} cos(T sqrt(n+2)) sin(T sqrt(n+1))

    and sx = 0 for the excited-state start.  Components have the shape
    of T.
    """
    c = weights.c
    t = _times(T)
    root = np.sqrt(np.arange(1.0, c.size + 1.0))  # sqrt(n + 1)
    sz = np.cos(2.0 * t * root) @ (c * c)
    sy = 2.0 * ((np.cos(t * root[1:]) * np.sin(t * root[:-1])) @ (c[:-1] * c[1:]))
    return BlochVector(sx=np.zeros_like(sz), sy=sy, sz=sz)


def jcm_entropy_squeezing(weights: FockWeights, T: float | np.ndarray) -> float | np.ndarray:
    """Transverse entropy-squeezing witness of the single-atom baseline."""
    return entropy_squeezing(jcm_bloch(weights, T), "y")


def tjcm_harmonic_sy(weights: FockWeights, T: float | np.ndarray) -> float | np.ndarray:
    """Strong-field approximation to the transverse coherence of the
    symmetric two-atom model (g = 1, l = 1):

        sy ~ sum_n C_n C_{n+1} { sin[T(w_n - w_{n+1})] / 2
             + sin[T(w_n + w_{n+1}) / 2] cos[T(w_n - w_{n+1}) / 2] }

    with w_n = sqrt(4n + 6).  Valid when the photon distribution is sharply
    peaked (alpha >> 1); evaluable for any weights.  Has the shape of T.
    """
    c = weights.c
    t = _times(T)
    n = np.arange(c.size - 1.0)
    wn = np.sqrt(4.0 * n + 6.0)
    wn1 = np.sqrt(4.0 * n + 10.0)
    terms = (
        0.5 * np.sin(t * (wn - wn1))
        + np.sin(t * (wn + wn1) / 2.0) * np.cos(t * (wn - wn1) / 2.0)
    )
    return terms @ (c[:-1] * c[1:])
