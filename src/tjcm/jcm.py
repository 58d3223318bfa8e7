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


def _streamed(T: float | np.ndarray, cols: int, buffers: int, channels: int, fill) -> list:
    """Reference channels over the times T, evaluated in row chunks on
    every core (blocks.map_chunks), so no (T, n) phase matrix over the
    whole grid exists.  ``fill(t, scratch, out)`` writes the ``channels``
    values at the chunk's times t (r, 1) into out (channels, r), using
    the rows of scratch (buffers, >= r * cols) as matrices (r, <= cols).
    Returns the channels, each with the shape of T."""
    times = np.asarray(T, dtype=float).reshape(-1)
    out = np.empty((channels, times.size))
    rows = chunk_rows(cols)

    def chunk(start: int, stop: int, scratch: np.ndarray) -> None:
        fill(times[start:stop, None], scratch, out[:, start:stop])

    map_chunks(times.size, rows, (buffers, rows * cols), chunk)
    return [channel.reshape(np.shape(T))[()] for channel in out]


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

    def fill(t, scratch, out):
        a = scratch[0, : t.size * pop.size].reshape(t.size, pop.size)
        np.matmul(np.cos(np.multiply(2.0 * t, root, out=a), out=a), pop, out=out[0])
        a, b = (s[: t.size * pair.size].reshape(t.size, pair.size) for s in scratch)
        np.cos(np.multiply(t, root[1:], out=a), out=a)
        np.sin(np.multiply(t, root[:-1], out=b), out=b)
        np.matmul(np.multiply(a, b, out=a), pair, out=out[1])

    sz, sy = _streamed(T, c.size, buffers=2, channels=2, fill=fill)
    return BlochVector(sx=np.zeros_like(sz), sy=2.0 * sy, sz=sz)


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

    def fill(t, scratch, out):
        a, b, e = (s[: t.size * diff.size].reshape(t.size, diff.size) for s in scratch)
        np.multiply(t, diff, out=a)
        np.cos(np.divide(a, 2.0, out=b), out=b)
        np.multiply(np.sin(a, out=a), 0.5, out=a)
        np.sin(np.divide(np.multiply(t, total, out=e), 2.0, out=e), out=e)
        np.add(a, np.multiply(e, b, out=e), out=a)
        np.matmul(a, pair, out=out[0])

    return _streamed(T, diff.size, buffers=3, channels=1, fill=fill)[0]
