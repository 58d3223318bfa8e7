"""Single-atom comparison baseline and the strong-field approximation.

The one-atom resonant model is exactly solvable: starting excited against
field level n, the amplitudes are cos(T sqrt(n+1)) on |+, n> and
-i sin(T sqrt(n+1)) on |-, n+1>.  The two-atom symmetric case admits a
strong-field (alpha >> 1) approximation for the transverse coherence in
terms of the block frequencies w_n = sqrt(4n + 6); both live here as
references against the exact two-atom pipeline.  Both stream their
times in chunks (blocks.map_chunks), so no (T, n) phase matrix over the
whole grid exists, and both sum over n = n_min..n_max with
n_min = weights.window(1): the terms below it carry at most
1e-8 * cutoff_eps of the population and pair weight, and no term exceeds
twice its weight, so no output moves by more than twice that.
"""

from __future__ import annotations

import numpy as np

from .blocks import map_chunks
from .observables import BlochVector
from .params import FockWeights


def jcm_bloch(weights: FockWeights, T: float | np.ndarray) -> BlochVector:
    """Bloch vector of the single-atom model at scaled time(s) T:

        sz = sum_n C_n^2 cos(2 T sqrt(n+1))
        sy = 2 sum_n C_n C_{n+1} cos(T sqrt(n+2)) sin(T sqrt(n+1))

    and the scalar sx = 0.0 for the excited-state start, as in
    reduced_states.  sz and sy have the shape of T.
    """
    n_min = weights.window(1)
    c = weights.c[n_min:]
    root = np.sqrt(np.arange(n_min + 1.0, weights.n_max + 2.0))  # sqrt(n + 1)
    pop, pair = c * c, c[:-1] * c[1:]

    def fill(t, scratch, out):
        t = t[:, None]
        a = scratch[0, : t.size * pop.size].reshape(t.size, pop.size)
        np.matmul(np.cos(np.multiply(2.0 * t, root, out=a), out=a), pop, out=out[0])
        a, b = (s[: t.size * pair.size].reshape(t.size, pair.size) for s in scratch)
        np.cos(np.multiply(t, root[1:], out=a), out=a)
        np.sin(np.multiply(t, root[:-1], out=b), out=b)
        np.matmul(np.multiply(a, b, out=a), pair, out=out[1])

    sz, sy = (ch.reshape(np.shape(T))[()] for ch in map_chunks(T, c.size, 2, 2, fill))
    return BlochVector(sx=0.0, sy=2.0 * sy, sz=sz)


def tjcm_harmonic_sy(weights: FockWeights, T: float | np.ndarray) -> float | np.ndarray:
    """Strong-field approximation to the transverse coherence of the
    symmetric two-atom model (g = 1, l = 1):

        sy ~ sum_n C_n C_{n+1} { sin[T(w_n - w_{n+1})] / 2
             + sin[T(w_n + w_{n+1}) / 2] cos[T(w_n - w_{n+1}) / 2] }

    with w_n = sqrt(4n + 6).  Valid when the photon distribution is sharply
    peaked (alpha >> 1); evaluable for any weights.  Has the shape of T.
    """
    n_min = weights.window(1)
    c = weights.c[n_min:]
    n = np.arange(n_min, weights.n_max, dtype=float)
    wn = np.sqrt(4.0 * n + 6.0)
    wn1 = np.sqrt(4.0 * n + 10.0)
    diff, total, pair = wn - wn1, wn + wn1, c[:-1] * c[1:]

    def fill(t, scratch, out):
        t = t[:, None]
        a, b, e = (s[: t.size * diff.size].reshape(t.size, diff.size) for s in scratch)
        np.multiply(t, diff, out=a)
        np.cos(np.divide(a, 2.0, out=b), out=b)
        np.multiply(np.sin(a, out=a), 0.5, out=a)
        np.sin(np.divide(np.multiply(t, total, out=e), 2.0, out=e), out=e)
        np.add(a, np.multiply(e, b, out=e), out=a)
        np.matmul(a, pair, out=out[0])

    return map_chunks(T, diff.size, 3, 1, fill)[0].reshape(np.shape(T))[()]
