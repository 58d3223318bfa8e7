"""Excitation-conserving 4x4 blocks of the interaction Hamiltonian.

With both atoms initially excited and the field in a number state |n>, the
interaction couples only the four product states

    |+,+,n>,  |+,-,n+l>,  |-,+,n+l>,  |-,-,n+2l>

so the joint dynamics factorizes into independent 4x4 blocks labelled by
the base photon number n.  Each block is diagonalized once; the evolution
amplitudes (x1, x2, x3, x4) of the initial basis vector follow from the
eigenpairs.  The two middle amplitudes are purely imaginary and the outer
two purely real, which is enforced rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, InternalConsistencyError, InvalidParameterError

_CROSS_TERM_TOL = 1e-10
_NORM_TOL = 1e-10


def transition_strength(n: int, l: int) -> float:
    """Matrix element sqrt((n+l)! / n!) of the l-photon ladder operator,
    accumulated as a product of l consecutive integers (never a full
    factorial, which would overflow)."""
    p = 1.0
    for k in range(n + 1, n + l + 1):
        p *= k
    return math.sqrt(p)


@dataclass(frozen=True)
class InteractionBlock:
    """Real symmetric 4x4 interaction matrix for base photon number n,
    in units of the atom-1 coupling."""

    n: int
    h: np.ndarray


@dataclass(frozen=True)
class EigenBlock:
    """Eigendecomposition of one interaction block.

    eigvals are sorted ascending; eigvecs holds orthonormal eigenvectors
    as columns, each signed so its largest-magnitude entry is positive.
    """

    n: int
    eigvals: np.ndarray
    eigvecs: np.ndarray


def build_block(n: int, l: int, g: float) -> InteractionBlock:
    """Interaction block for base photon number n.

    Atom 1 couples |+,+,n> to |-,+,n+l> (and |+,-,n+l> to |-,-,n+2l>)
    with unit weight; atom 2 couples the corresponding pair with weight g.
    g = 0 is allowed as the decoupling limit (atom 2 frozen, atom 1
    Rabi-flops alone), which makes a convenient structural check.
    """
    if not isinstance(n, int) or n < 0:
        raise InvalidParameterError(f"n must be an integer >= 0, got {n}")
    if not isinstance(l, int) or l < 1:
        raise InvalidParameterError(f"l must be an integer >= 1, got {l}")
    if not (g >= 0.0 and math.isfinite(g)):
        raise InvalidParameterError(f"g must be >= 0, got {g}")
    f1 = transition_strength(n, l)
    f2 = transition_strength(n + l, l)
    h = np.array(
        [
            [0.0, g * f1, f1, 0.0],
            [g * f1, 0.0, 0.0, f2],
            [f1, 0.0, 0.0, g * f2],
            [0.0, f2, g * f2, 0.0],
        ]
    )
    return InteractionBlock(n=n, h=h)


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One two-sided Jacobi rotation zeroing a[p, q], accumulated into v."""
    apq = a[p, q]
    if apq == 0.0:
        return
    phi = 0.5 * math.atan2(2.0 * apq, a[q, q] - a[p, p])
    c, s = math.cos(phi), math.sin(phi)
    app, aqq = a[p, p], a[q, q]
    a[p, p] = c * c * app + s * s * aqq - 2.0 * s * c * apq
    a[q, q] = s * s * app + c * c * aqq + 2.0 * s * c * apq
    a[p, q] = a[q, p] = 0.0
    for i in range(a.shape[0]):
        if i != p and i != q:
            aip, aiq = a[i, p], a[i, q]
            a[i, p] = a[p, i] = c * aip - s * aiq
            a[i, q] = a[q, i] = c * aiq + s * aip
    for i in range(v.shape[0]):
        vip, viq = v[i, p], v[i, q]
        v[i, p] = c * vip - s * viq
        v[i, q] = s * vip + c * viq


def jacobi_eigh(h: np.ndarray, tol: float = 1e-14, max_sweeps: int = 50):
    """Cyclic Jacobi eigensolver for a small real symmetric matrix.

    Sweeps until the off-diagonal Frobenius norm drops below tol relative
    to the matrix norm.  Rotation-based, so degenerate eigenvalues (the
    symmetric-coupling case has a double zero) need no special handling.
    Returns (eigenvalues, eigenvector columns), unsorted.
    """
    a = np.array(h, dtype=float)
    dim = a.shape[0]
    v = np.eye(dim)
    scale = max(float(np.linalg.norm(a)), 1.0)
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2)) * 2.0)
        if off <= tol * scale:
            return np.diag(a).copy(), v
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                _jacobi_rotate(a, v, p, q)
    raise InternalConsistencyError("Jacobi sweeps failed to converge")


def diagonalize_block(block: InteractionBlock) -> EigenBlock:
    """Eigendecomposition of an interaction block with a deterministic
    convention: eigenvalues ascending, each eigenvector signed so that its
    largest-magnitude component is positive."""
    h = np.asarray(block.h, dtype=float)
    if h.shape != (4, 4) or not np.array_equal(h, h.T):
        raise ContractViolationError("block matrix must be symmetric 4x4")
    vals, vecs = jacobi_eigh(h)
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for k in range(4):
        col = vecs[:, k]
        if col[np.argmax(np.abs(col))] < 0.0:
            vecs[:, k] = -col
    return EigenBlock(n=block.n, eigvals=vals, eigvecs=vecs)


def eigen_table(n_max: int, l: int, g: float) -> list[EigenBlock]:
    """Diagonalized blocks for every base photon number 0..n_max."""
    return [diagonalize_block(build_block(n, l, g)) for n in range(n_max + 1)]


def evolve_grid(blocks: Sequence[EigenBlock], t_grid: np.ndarray) -> np.ndarray:
    """Evolution amplitudes for many blocks and times at once.

    Returns an array of shape (4, len(t_grid), len(blocks)) holding
    (x1, x2, x3, x4).  The amplitude vector of block n at time T is
    sum_k exp(-i w_k T) <v_k|e1> v_k; the bipartite coupling pattern makes
    components 1 and 4 real and components 2 and 3 imaginary, which is
    checked here and reported as an internal-consistency failure if broken.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    vals = np.stack([b.eigvals for b in blocks])  # (N, 4)
    vecs = np.stack([b.eigvecs for b in blocks])  # (N, 4, 4)
    overlap = vecs[:, 0, :]  # <v_k|e1>, shape (N, 4)
    phases = np.exp(-1j * t_grid[:, None, None] * vals[None, :, :])
    amp = np.einsum("tnk,nk,njk->tnj", phases, overlap, vecs)
    cross = max(
        float(np.max(np.abs(amp[..., 0].imag))),
        float(np.max(np.abs(amp[..., 3].imag))),
        float(np.max(np.abs(amp[..., 1].real))),
        float(np.max(np.abs(amp[..., 2].real))),
    )
    if cross > _CROSS_TERM_TOL:
        raise InternalConsistencyError(
            f"cross amplitude {cross:.3e} exceeds {_CROSS_TERM_TOL}; block malformed"
        )
    x = np.stack([amp[..., 0].real, amp[..., 1].imag, amp[..., 2].imag, amp[..., 3].real])
    norm_dev = float(np.max(np.abs(np.sum(x * x, axis=0) - 1.0)))
    if norm_dev > _NORM_TOL:
        raise InternalConsistencyError(
            f"amplitude norm deviates from 1 by {norm_dev:.3e}"
        )
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
