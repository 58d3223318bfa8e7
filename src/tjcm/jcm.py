"""Single-atom comparison baseline and the strong-field approximation.

The one-atom resonant model is exactly solvable: starting excited against
field level n, the amplitudes are cos(T sqrt(n+1)) on |+, n> and
-i sin(T sqrt(n+1)) on |-, n+1>.  The two-atom symmetric case admits a
strong-field (alpha >> 1) approximation for the transverse coherence in
terms of the block frequencies w_n = sqrt(4n + 6); both live here as
references against the exact two-atom pipeline.  Each is a real cosine
or sine sum over known frequencies, evaluated on a uniform grid from T = 0 by
blocks.trig_sum, so no (T, n) phase matrix over the grid exists.  Both
sum over n = n_min..n_max, with n_min and the
weights C_n^2 and C_n C_{n+1} from weights.window(1): the terms below it
carry at most 1e-8 * cutoff_eps of the population and pair weight, and no
term exceeds twice its weight, so no output moves by more than twice that.
"""

from __future__ import annotations

import numpy as np

from .blocks import grid_plan, trig_sum
from .observables import BlochVector
from .params import FockWeights


def jcm_bloch(weights: FockWeights, T: float | np.ndarray) -> BlochVector:
    """Bloch vector of the single-atom model at scaled time(s) T:

        sz = sum_n C_n^2 cos(2 T sqrt(n+1))
        sy = 2 sum_n C_n C_{n+1} cos(T sqrt(n+2)) sin(T sqrt(n+1))

    and sx = 0.0 for the excited-state start, as in reduced_states; sz and sy
    have the shape of T, a uniform grid from T = 0 (or the one time 0).  sy is evaluated as
    sum_n C_n C_{n+1} [sin T(sqrt(n+1) + sqrt(n+2)) + sin T(sqrt(n+1) - sqrt(n+2))],
    so sz is a cosine sum at the frequencies 2 sqrt(n+1) and sy a sine sum
    at sqrt(n+1) +- sqrt(n+2), both on one grid_plan.
    """
    n_min, pop, pair = weights.window(1)
    # sqrt(n + 1), in long double so that sums of roots enter exactly
    root = np.sqrt(np.arange(n_min + 1.0, weights.n_max + 2.0)).astype(np.longdouble)
    sz = trig_sum(2.0 * root, pop, plan := grid_plan(T))
    sy = trig_sum(np.concatenate([root[:-1] + root[1:], root[:-1] - root[1:]]),
                  np.concatenate([pair, pair]), plan, sine=True)
    return BlochVector(sx=0.0, sy=sy.reshape(np.shape(T))[()], sz=sz.reshape(np.shape(T))[()])


def tjcm_harmonic_sy(weights: FockWeights, T: float | np.ndarray) -> float | np.ndarray:
    """Strong-field approximation to the transverse coherence of the
    symmetric two-atom model (g = 1, l = 1):

        sy ~ sum_n C_n C_{n+1} { sin[T(w_n - w_{n+1})] / 2
             + sin[T(w_n + w_{n+1}) / 2] cos[T(w_n - w_{n+1}) / 2] }

    with w_n = sqrt(4n + 6).  Valid when the photon distribution is sharply
    peaked (alpha >> 1); evaluable for any weights.  Has the shape of T, a
    uniform grid from T = 0 (or the one time 0).  Evaluated in the sum form
    sum_n C_n C_{n+1} [sin T(w_n - w_{n+1}) + sin T w_n + sin T w_{n+1}] / 2,
    one sine sum at w_n, w_{n+1} and w_n - w_{n+1}.
    """
    n_min, _, pair = weights.window(1)
    w = np.sqrt(4.0 * np.arange(n_min, weights.n_max + 1.0) + 6.0)
    sy = trig_sum(np.concatenate([w[:-1] - w[1:], w[:-1], w[1:]]),
                  np.concatenate([pair, pair, pair]), T, sine=True)
    return 0.5 * sy.reshape(np.shape(T))[()]
