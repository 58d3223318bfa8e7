"""Strong-field approximation to the symmetric two-atom coherence.

The two-atom symmetric case admits a strong-field (alpha >> 1)
approximation for the transverse coherence in terms of the block
frequencies w_n = sqrt(4n + 6), kept here as a reference against the
exact two-atom pipeline.  It is a real sine sum over known frequencies,
evaluated on a uniform grid from T = 0 by transform.trig_sum, so no (T, n)
phase matrix over the grid exists.  It sums over n = n_min..n_max, with
n_min and the weights C_n C_{n+1} from weights.window(1): the terms below
it carry at most 1e-8 * cutoff_eps of the pair weight, and no term exceeds
twice its weight, so no output moves by more than twice that.

The one-atom Jaynes-Cummings baseline needs no code of its own: at g = 0
atom 2 is frozen and atom 1 is that model, so reduced.reduced_states
gives it (see scan.run_scan).
"""

from __future__ import annotations

import numpy as np

from . import transform
from .params import FockWeights


def tjcm_harmonic_sy(weights: FockWeights, T: np.ndarray) -> np.ndarray:
    """Strong-field approximation to the transverse coherence of the
    symmetric two-atom model (g = 1, l = 1):

        sy ~ sum_n C_n C_{n+1} { sin[T(w_n - w_{n+1})] / 2
             + sin[T(w_n + w_{n+1}) / 2] cos[T(w_n - w_{n+1}) / 2] }

    with w_n = sqrt(4n + 6).  Valid when the photon distribution is sharply
    peaked (alpha >> 1); evaluable for any weights.  T is a uniform grid
    from T = 0, as reduced_states takes it.  Evaluated in the sum form
    sum_n C_n C_{n+1} [sin T(w_n - w_{n+1}) + sin T w_n + sin T w_{n+1}] / 2,
    one sine sum at w_n, w_{n+1} and w_n - w_{n+1}, after the phase
    conditioning of those frequencies on T is checked
    (InvalidParameterError).
    """
    n_min, _, pair = weights.window(1)
    w = np.sqrt(4.0 * np.arange(n_min, weights.n_max + 1.0) + 6.0)
    freqs = np.concatenate([w[:-1] - w[1:], w[:-1], w[1:]])
    transform.check_phase_conditioning(freqs, T, ("t_max", "alpha"))
    sy = transform.trig_sum(freqs, np.concatenate([pair, pair, pair]), T, sine=True)
    return 0.5 * sy
