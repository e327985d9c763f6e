"""Pointwise algebraic operations on (0,2) tensors: the J-pair projection
and hermitization.

Components are plain arrays.  The (i, j) pair is the last two axes; any
leading axes are a batch.
"""

import numpy as np

from .errors import ShapeMismatchError


def jtensor_contract(T, J):
    """Contract a (0,2) tensor with the J-invariance projector (times two):

        T_ij + J^a_i J^b_j T_ab

    over the last two axes of T.  Hermitian (J-invariant) inputs come back
    doubled, anti-invariant ones are annihilated.
    """
    t = np.asarray(T, dtype=float)
    j = np.asarray(J, dtype=float)
    if t.shape[-1] != j.shape[-1]:
        raise ShapeMismatchError(f"jtensor_contract got shapes {t.shape} and {j.shape}")
    return t + j.T @ t @ j


def hermitize(T, J):
    """Project a (0,2) tensor onto its symmetric J-invariant (hermitian) part:

        T_ij -> (1/4) T_ab (d^a_i d^b_j + d^a_j d^b_i + J^a_i J^b_j + J^a_j J^b_i)

    Idempotent; fixes tensors that are already symmetric hermitian and
    kills skew or anti-invariant parts.
    """
    t = np.asarray(T, dtype=float)
    if t.shape[-1] != np.shape(J)[-1] or t.shape[-2] != t.shape[-1]:
        raise ShapeMismatchError(f"hermitize got shapes {t.shape} and {np.shape(J)}")
    return 0.25 * jtensor_contract(t + np.swapaxes(t, -1, -2), J)

