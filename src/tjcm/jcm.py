"""Single-atom comparison baseline and the strong-field approximation.

The one-atom resonant model is exactly solvable: starting excited against
field level n, the amplitudes are cos(T sqrt(n+1)) on |+, n> and
-i sin(T sqrt(n+1)) on |-, n+1>.  The two-atom symmetric case admits a
strong-field (alpha >> 1) approximation for the transverse coherence in
terms of the block frequencies w_n = sqrt(4n + 6); both live here as
references against the exact two-atom pipeline.  Both stream their
times in chunks (blocks.map_chunks), so no (T, n) phase matrix over the
whole grid exists.  Both sum over n = n_min..n_max, with n_min and the
weights C_n^2 and C_n C_{n+1} from weights.window(1): the terms below it
carry at most 1e-8 * cutoff_eps of the population and pair weight, and no
term exceeds twice its weight, so no output moves by more than twice that.
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

    and sx = 0.0 for the excited-state start, as in reduced_states; sz and sy
    have the shape of T.  Both read one table C, S = cos, sin(T sqrt(n+1)):
    sz = sum_n C_n^2 (C - S)(C + S) and sy = 2 sum_n C_n C_{n+1} C[n+1] S[n].
    """
    n_min, pop, pair = weights.window(1)
    root = np.sqrt(np.arange(n_min + 1.0, weights.n_max + 2.0))  # sqrt(n + 1)
    n, m = pop.size, pair.size

    def fill(t, scratch, out):
        cos, sin, a = (s[: t.size * n].reshape(t.size, n) for s in scratch)
        np.cos(np.multiply(t[:, None], root, out=sin), out=cos)
        np.sin(sin, out=sin)
        b = scratch[2, : t.size * m].reshape(t.size, m)
        np.matmul(np.multiply(cos[:, 1:], sin[:, :-1], out=b), pair, out=out[1])
        np.subtract(cos, sin, out=a)
        np.matmul(np.multiply(np.add(cos, sin, out=cos), a, out=a), pop, out=out[0])

    sz, sy = (ch.reshape(np.shape(T))[()] for ch in map_chunks(T, n, 3, 2, fill))
    return BlochVector(sx=0.0, sy=2.0 * sy, sz=sz)


def tjcm_harmonic_sy(weights: FockWeights, T: float | np.ndarray) -> float | np.ndarray:
    """Strong-field approximation to the transverse coherence of the
    symmetric two-atom model (g = 1, l = 1):

        sy ~ sum_n C_n C_{n+1} { sin[T(w_n - w_{n+1})] / 2
             + sin[T(w_n + w_{n+1}) / 2] cos[T(w_n - w_{n+1}) / 2] }

    with w_n = sqrt(4n + 6).  Valid when the photon distribution is sharply
    peaked (alpha >> 1); evaluable for any weights.  Has the shape of T.
    Evaluated in the sum form sum_n C_n C_{n+1} [sin T(w_n - w_{n+1}) +
    sin T w_n + sin T w_{n+1}] / 2, where one sin(T w_n) table serves n and n + 1.
    """
    n_min, _, pair = weights.window(1)
    w = np.sqrt(4.0 * np.arange(n_min, weights.n_max + 1.0) + 6.0)
    diff, n, m = w[:-1] - w[1:], w.size, pair.size

    def fill(t, scratch, out):
        a = scratch[0, : t.size * n].reshape(t.size, n)
        b = scratch[1, : t.size * m].reshape(t.size, m)
        np.sin(np.multiply(t[:, None], w, out=a), out=a)
        np.sin(np.multiply(t[:, None], diff, out=b), out=b)
        np.add(np.add(b, a[:, :-1], out=b), a[:, 1:], out=b)
        np.matmul(b, pair, out=out[0])

    return 0.5 * map_chunks(T, n, 2, 1, fill)[0].reshape(np.shape(T))[()]
