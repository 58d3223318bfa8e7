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

from .blocks import chunk_rows, map_chunks
from .observables import BlochVector
from .params import FockWeights


def _streamed(T: float | np.ndarray, cols: int, buffers: int, fill) -> np.ndarray:
    """One reference channel over the times T, evaluated in row chunks on
    every core (blocks.map_chunks), so no (T, n) phase matrix over the
    whole grid exists.  ``fill(t, bufs, out)`` writes the values at the
    chunk's times t (r, 1) into out (r,), using ``buffers`` scratch
    matrices (r, cols).  Returns the channel with the shape of T."""
    t = np.asarray(T, dtype=float)
    times = t.reshape(-1)
    out = np.empty(times.size)
    rows = chunk_rows(cols)

    def make_worker():
        scratch = np.empty((buffers, rows * cols))

        def chunk(start: int, stop: int) -> None:
            r = stop - start
            bufs = [b[: r * cols].reshape(r, cols) for b in scratch]
            fill(times[start:stop, None], bufs, out[start:stop])

        return chunk

    map_chunks(times.size, rows, make_worker)
    return out.reshape(t.shape)[()]


def jcm_bloch(weights: FockWeights, T: float | np.ndarray) -> BlochVector:
    """Bloch vector of the single-atom model at scaled time(s) T:

        sz = sum_n C_n^2 cos(2 T sqrt(n+1))
        sy = 2 sum_n C_n C_{n+1} cos(T sqrt(n+2)) sin(T sqrt(n+1))

    and sx = 0 for the excited-state start.  Components have the shape
    of T.
    """
    c = weights.c
    root = np.sqrt(np.arange(1.0, c.size + 1.0))  # sqrt(n + 1)
    pop, pair = c * c, c[:-1] * c[1:]

    def fill_sz(t, bufs, out):
        (a,) = bufs
        np.matmul(np.cos(np.multiply(2.0 * t, root, out=a), out=a), pop, out=out)

    def fill_sy(t, bufs, out):
        a, b = bufs
        np.cos(np.multiply(t, root[1:], out=a), out=a)
        np.sin(np.multiply(t, root[:-1], out=b), out=b)
        np.matmul(np.multiply(a, b, out=a), pair, out=out)

    sz = _streamed(T, c.size, 1, fill_sz)
    sy = 2.0 * _streamed(T, c.size - 1, 2, fill_sy)
    return BlochVector(sx=np.zeros_like(sz), sy=sy, sz=sz)


def tjcm_harmonic_sy(weights: FockWeights, T: float | np.ndarray) -> float | np.ndarray:
    """Strong-field approximation to the transverse coherence of the
    symmetric two-atom model (g = 1, l = 1):

        sy ~ sum_n C_n C_{n+1} { sin[T(w_n - w_{n+1})] / 2
             + sin[T(w_n + w_{n+1}) / 2] cos[T(w_n - w_{n+1}) / 2] }

    with w_n = sqrt(4n + 6).  Valid when the photon distribution is sharply
    peaked (alpha >> 1); evaluable for any weights.  Has the shape of T.
    """
    c = weights.c
    n = np.arange(c.size - 1.0)
    wn = np.sqrt(4.0 * n + 6.0)
    wn1 = np.sqrt(4.0 * n + 10.0)
    diff, total, pair = wn - wn1, wn + wn1, c[:-1] * c[1:]

    def fill(t, bufs, out):
        a, b, e = bufs
        np.multiply(t, diff, out=a)
        np.cos(np.divide(a, 2.0, out=b), out=b)
        np.multiply(np.sin(a, out=a), 0.5, out=a)
        np.sin(np.divide(np.multiply(t, total, out=e), 2.0, out=e), out=e)
        np.add(a, np.multiply(e, b, out=e), out=a)
        np.matmul(a, pair, out=out)

    return _streamed(T, c.size - 1, 3, fill)
