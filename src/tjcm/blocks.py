"""Excitation-conserving 4x4 blocks of the interaction Hamiltonian.

With both atoms initially excited and the field in a number state |n>, the
interaction couples only the four product states

    |+,+,n>,  |+,-,n+l>,  |-,+,n+l>,  |-,-,n+2l>

so the joint dynamics factorizes into independent 4x4 blocks labelled by
the base photon number n.  All blocks are diagonalized at once by a
batched cyclic Jacobi eigensolver; the evolution amplitudes (x1, x2, x3,
x4) of the initial basis vector follow from the eigenpairs, in real
arithmetic: the outer two are cosine sums and the middle two sine sums.

Long grids are streamed rather than evolved whole: chunk_rows sizes a
chunk of time points to stay in cache, and map_chunks runs the chunks on
every core in the process's affinity mask, each worker thread with one
scratch array it allocates once (reduced.reduced_states and the jcm
references stream this way).  numpy releases the GIL inside each array
operation, so the workers overlap.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from typing import Callable

import numpy as np

from .errors import ContractViolationError, InternalConsistencyError, InvalidParameterError

_NORM_TOL = 1e-10
_EPS = np.finfo(float).eps
# phase error bound max|w|*max|T|*eps: the accuracy verify promises (STATE_DEV_TOL)
_PHASE_COND_TOL = 1e-8
_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 50
# Streaming: amplitudes per component in one chunk, and worker threads
# (every CPU in the process's affinity mask).
_CHUNK_ELEMS = 16384
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1


def transition_strength(n: int | np.ndarray, l: int) -> float | np.ndarray:
    """Matrix element sqrt((n+l)! / n!) of the l-photon ladder operator, for
    an int or a float array of n, accumulated as the product
    (n+1)(n+2)...(n+l) (never a full factorial, which would overflow)."""
    p = 1.0
    for k in range(1, l + 1):
        p = p * (n + k)
    return np.sqrt(p)


def block_matrices(n_max: int, l: int, g: float) -> np.ndarray:
    """Interaction blocks for base photon numbers 0..n_max, shape (N, 4, 4).

    Atom 1 couples |+,+,n> to |-,+,n+l> (and |+,-,n+l> to |-,-,n+2l>)
    with unit weight; atom 2 couples the corresponding pair with weight g.
    g = 0 is allowed as the decoupling limit (atom 2 frozen, atom 1
    Rabi-flops alone), which makes a convenient structural check.
    """
    if not isinstance(n_max, int) or n_max < 0:
        raise InvalidParameterError(f"n_max must be an integer >= 0, got {n_max}")
    if not isinstance(l, int) or l < 1:
        raise InvalidParameterError(f"l must be an integer >= 1, got {l}")
    if not (g >= 0.0 and math.isfinite(g)):
        raise InvalidParameterError(f"g must be >= 0, got {g}")
    n = np.arange(n_max + 1, dtype=float)
    f1 = transition_strength(n, l)
    f2 = transition_strength(n + l, l)
    h = np.zeros((n.size, 4, 4))
    for (i, j), f in (((0, 1), g * f1), ((0, 2), f1), ((1, 3), f2), ((2, 3), g * f2)):
        h[:, i, j] = h[:, j, i] = f
    return h


def jacobi_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigensolver for a stack of real symmetric 4x4 matrices.

    Each matrix is swept until its off-diagonal Frobenius norm drops below
    _JACOBI_TOL relative to its norm; a converged matrix takes no further
    rotations, so every matrix gets the arithmetic it would get alone.
    Rotation-based, so degenerate eigenvalues (the symmetric-coupling case
    has a double zero) need no special handling.  Returns (vals (N, 4),
    vecs (N, 4, 4)): eigenvalues ascending, orthonormal eigenvectors as
    columns, each signed so that its largest-magnitude entry is positive.
    """
    a = np.array(h, dtype=float)
    if a.ndim != 3 or a.shape[1:] != (4, 4) or not np.array_equal(a, a.transpose(0, 2, 1)):
        raise ContractViolationError("blocks must be a stack of symmetric 4x4 matrices")
    v = np.broadcast_to(np.eye(4), a.shape).copy()
    scale = np.maximum(np.linalg.norm(a, axis=(1, 2)), 1.0)
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2, axis=(1, 2)) * 2.0)
        live = off > _JACOBI_TOL * scale
        if not live.any():
            break
        for p, q in itertools.combinations(range(4), 2):
            # one two-sided rotation zeroing a[p, q] in every live block
            # where it is nonzero, accumulated into v
            idx = np.flatnonzero(live & (a[:, p, q] != 0.0))
            s_a, s_v = a[idx], v[idx]
            apq, app, aqq = s_a[:, p, q].copy(), s_a[:, p, p].copy(), s_a[:, q, q].copy()
            # libm atan2, not np.arctan2: on an AVX-512 Xeon numpy's SIMD
            # arctan2 differs from libm in the last bit on about 7% of
            # inputs, and using it changed every spectrum and moved the
            # benchmark's default-seed sweep outputs 6.2e-13 from their
            # reference (62% of its 1e-12 gate).  np.cos/np.sin matched
            # math.cos/math.sin on all 1e6 inputs tested.
            y, x = (2.0 * apq).tolist(), (aqq - app).tolist()
            phi = 0.5 * np.array(list(map(math.atan2, y, x)))
            c, s = np.cos(phi), np.sin(phi)
            s_a[:, p, p] = c * c * app + s * s * aqq - 2.0 * s * c * apq
            s_a[:, q, q] = s * s * app + c * c * aqq + 2.0 * s * c * apq
            s_a[:, p, q] = s_a[:, q, p] = 0.0
            rest = [i for i in range(4) if i != p and i != q]
            aip, aiq = s_a[:, rest, p], s_a[:, rest, q]
            c, s = c[:, None], s[:, None]
            s_a[:, rest, p] = s_a[:, p, rest] = c * aip - s * aiq
            s_a[:, rest, q] = s_a[:, q, rest] = c * aiq + s * aip
            vip, viq = s_v[:, :, p].copy(), s_v[:, :, q].copy()
            s_v[:, :, p] = c * vip - s * viq
            s_v[:, :, q] = s * vip + c * viq
            a[idx], v[idx] = s_a, s_v
    else:
        raise InternalConsistencyError("Jacobi sweeps failed to converge")
    diag = np.diagonal(a, axis1=1, axis2=2)
    order = np.argsort(diag, axis=1, kind="stable")
    vals = np.take_along_axis(diag, order, axis=1)
    vecs = np.take_along_axis(v, order[:, None, :], axis=2)
    pivot = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=1)[:, None, :], axis=1)
    vecs *= np.where(pivot < 0.0, -1.0, 1.0)
    return vals, vecs


def eigen_table(n_max: int, l: int, g: float) -> tuple[np.ndarray, np.ndarray]:
    """Block spectrum (vals (N, 4), vecs (N, 4, 4)) for every base photon
    number 0..n_max, all blocks diagonalized at once."""
    return jacobi_eigh(block_matrices(n_max, l, g))


def chunk_rows(n_blocks: int) -> int:
    """Time points per chunk when a grid over n_blocks blocks is streamed:
    about _CHUNK_ELEMS amplitudes per component, so a worker's buffers stay
    cache-sized, rounded down to a multiple of 8 (at least 8).  Chunks that
    start on multiples of 8 keep OpenBLAS's per-row matrix-vector results
    bitwise equal to one product over the whole grid."""
    return max(8, _CHUNK_ELEMS // max(n_blocks, 1) // 8 * 8)


def map_chunks(
    size: int, rows: int, scratch_shape: tuple[int, ...], fill: Callable[..., None]
) -> None:
    """Run range(size) in chunks of ``rows`` on every available core.

    Chunks are dealt round-robin to min(_WORKERS, chunk count) workers.
    Each worker allocates one scratch array of ``scratch_shape`` and calls
    fill(start, stop, scratch) for each of its chunks; chunks write
    disjoint slices of preallocated outputs, so they share nothing
    mutable.  The calling thread is worker 0 (one worker runs inline); the
    first exception raised by any worker is re-raised here after every
    worker has stopped.
    """
    starts = range(0, size, rows)
    workers = max(1, min(_WORKERS, len(starts)))
    errors: list[Exception] = []

    def work(k: int) -> None:
        try:
            scratch = np.empty(scratch_shape)
            for start in starts[k::workers]:
                if errors:
                    return
                fill(start, min(start + rows, size), scratch)
        except Exception as exc:  # handed to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(1, workers)]
    for t in threads:
        t.start()
    try:
        work(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def check_phase_conditioning(vals: np.ndarray, t_grid: np.ndarray) -> None:
    """Refuse a grid whose phase error bound max|w| * max|T| * eps exceeds
    _PHASE_COND_TOL."""
    cond = np.abs(vals).max(initial=0.0) * np.abs(t_grid).max(initial=0.0) * _EPS
    if cond > _PHASE_COND_TOL:
        raise InvalidParameterError(
            f"phase conditioning max|w|*max|T|*eps = {cond:.3e} exceeds "
            f"{_PHASE_COND_TOL:.0e}; lower t_max, alpha, g or l"
        )


def check_norm(norm_dev: float) -> None:
    """Refuse amplitudes whose norm strays from 1 by more than _NORM_TOL."""
    if norm_dev > _NORM_TOL:
        raise InternalConsistencyError(
            f"amplitude norm deviates from 1 by {norm_dev:.3e}"
        )


def evolution_factors(spectrum: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
    """The spectrum as amplitudes_into reads it, eigenvalue index k first
    and photon index n last, so every contraction's inner loop runs along
    n: vals (4, N), overlaps <v_k|e1> (4, N), and the basis components of
    the eigenvectors that feed (x1, x4) and (x2, x3), each (2, 4, N)."""
    vals, vecs = spectrum
    return (
        np.ascontiguousarray(vals.T),
        np.ascontiguousarray(vecs[:, 0, :].T),
        np.ascontiguousarray(vecs[:, (0, 3), :].transpose(1, 2, 0)),
        np.ascontiguousarray(vecs[:, (1, 2), :].transpose(1, 2, 0)),
    )


def amplitudes_into(
    factors: tuple[np.ndarray, ...],
    t: np.ndarray,
    x: np.ndarray,
    phase: np.ndarray,
    trig: np.ndarray,
) -> float:
    """Kernel of evolve_grid: fill x (4, len(t), N) with (x1, x2, x3, x4)
    at the times t, from the evolution_factors of the spectrum, using
    phase and trig (4, len(t), N) as scratch, and return
    max |x1^2 + x2^2 + x3^2 + x4^2 - 1|.  No checks."""
    vals, overlap, outer, inner = factors
    np.multiply(-t[None, :, None], vals[:, None, :], out=phase)  # exp(-i w T) = exp(i phase)
    np.cos(phase, out=trig)
    np.einsum("ktn,kn,jkn->jtn", trig, overlap, outer, out=x[::3])
    np.sin(phase, out=trig)
    np.einsum("ktn,kn,jkn->jtn", trig, overlap, inner, out=x[1:3])
    norm = np.einsum("jtn,jtn->tn", x, x, out=phase[0])
    return max(float(norm.max(initial=1.0)) - 1.0, 1.0 - float(norm.min(initial=1.0)))


def evolve_grid(spectrum: tuple[np.ndarray, np.ndarray], t_grid: np.ndarray) -> np.ndarray:
    """Evolution amplitudes for many blocks and times at once.

    spectrum is the (vals (N, 4), vecs (N, 4, 4)) pair of eigen_table.
    Returns an array of shape (4, len(t_grid), N) holding (x1, x2, x3, x4).
    The amplitude vector of block n at time T is
    sum_k exp(-i w_k T) <v_k|e1> v_k.  The bipartite coupling makes
    components 1 and 4 real by construction (cosine sums) and 2 and 3
    imaginary (sine sums); x holds those real and imaginary parts, computed
    in real arithmetic.  A grid whose phase error bound
    max|w| * max|T| * eps exceeds _PHASE_COND_TOL is refused.  Reduced
    states do not come from this table: reduced.reduced_states streams the
    same kernel (amplitudes_into) over chunks of the grid.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    vals = spectrum[0]
    check_phase_conditioning(vals, t_grid)
    nt, n = t_grid.size, vals.shape[0]
    x = np.empty((4, nt, n))
    phase, trig = np.empty((2, 4, nt, n))
    check_norm(amplitudes_into(evolution_factors(spectrum), t_grid, x, phase, trig))
    return x


def closed_form_x(n: int, T: float | np.ndarray) -> np.ndarray:
    """Closed-form amplitudes (x1, x2, x3, x4) for the single-photon
    symmetric case (l = 1, g = 1), where the block spectrum is
    {0, 0, +w, -w} with w = sqrt(4n + 6):

        x1 = [(n+1) cos(wT) + (n+2)] / (2n+3)
        x2 = x3 = -sqrt(n+1) sin(wT) / w
        x4 = sqrt((n+1)(n+2)) [cos(wT) - 1] / (2n+3)

    Returns an array of shape (4,) + shape(T).  Kept as an independent
    validation reference for the numerical path.
    """
    if not isinstance(n, int) or n < 0:
        raise InvalidParameterError(f"n must be an integer >= 0, got {n}")
    w = math.sqrt(4.0 * n + 6.0)
    T = np.asarray(T, dtype=float)
    c, s = np.cos(T * w), np.sin(T * w)
    x1 = ((n + 1.0) * c + (n + 2.0)) / (2.0 * n + 3.0)
    x23 = -math.sqrt(n + 1.0) / w * s
    x4 = math.sqrt((n + 1.0) * (n + 2.0)) / (2.0 * n + 3.0) * (c - 1.0)
    return np.stack([x1, x23, x23, x4])
