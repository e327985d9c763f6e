import numpy as np
import pytest

from kahlerlab.errors import ShapeMismatchError
from kahlerlab.models import standard_J
from kahlerlab.tensors import hermitize, jtensor_contract


def _hermitize_oracle(T, J):
    """Direct four-term loop evaluation of the projection formula."""
    d = T.shape[0]
    out = np.zeros((d, d))
    delta = np.eye(d)
    for i in range(d):
        for j in range(d):
            acc = 0.0
            for a in range(d):
                for b in range(d):
                    acc += T[a, b] * (delta[a, i] * delta[b, j]
                                      + delta[a, j] * delta[b, i]
                                      + J[a, i] * J[b, j] + J[a, j] * J[b, i])
            out[i, j] = acc / 4.0
    return out


def _conjugated_J(rng, n):
    """A complex structure that is not a signed permutation, so that the
    index placement of J (J versus its transpose) matters."""
    P = rng.normal(size=(2 * n, 2 * n)) + 2 * n * np.eye(2 * n)
    return P @ standard_J(n) @ np.linalg.inv(P)


def _jcontract_oracle(T, J):
    """Direct loop evaluation of T_ij + J^a_i J^b_j T_ab."""
    d = T.shape[0]
    return np.array([[T[i, j] + sum(J[a, i] * J[b, j] * T[a, b]
                                    for a in range(d) for b in range(d))
                      for j in range(d)] for i in range(d)])


def test_hermitize_fixed_point_and_kernel(rng):
    J = standard_J(2)
    sym_herm = hermitize(rng.normal(size=(4, 4)), J)
    assert np.allclose(hermitize(sym_herm, J), sym_herm, atol=1e-14)
    skew = rng.normal(size=(4, 4))
    skew = skew - skew.T
    assert np.max(np.abs(hermitize(skew, J))) < 1e-14


def test_hermitize_against_loop_oracle(rng):
    J = standard_J(2)
    for _ in range(5):
        T = rng.normal(size=(4, 4))
        got = hermitize(T, J)
        assert np.allclose(got, _hermitize_oracle(T, J), atol=1e-13)
        # output is symmetric and anticommutes with J
        assert np.allclose(got, got.T)
        assert np.max(np.abs(J.T @ got + got @ J)) <= 1e-12
    # a stack of tensors is projected slice by slice
    J = _conjugated_J(rng, 2)
    stack = rng.normal(size=(7, 4, 4))
    got = hermitize(stack, J)
    assert got.shape == stack.shape
    for T, h in zip(stack, got):
        assert np.allclose(h, _hermitize_oracle(T, J), atol=1e-13)


def test_hermitize_idempotent_property(rng):
    J = standard_J(3)
    for _ in range(10):
        T = rng.normal(size=(6, 6))
        once = hermitize(T, J)
        assert np.max(np.abs(hermitize(once, J) - once)) < 1e-12


def test_hermitize_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        hermitize(np.zeros((4, 4)), standard_J(3))


def test_jtensor_contract(rng):
    J = standard_J(2)
    g = np.eye(4)
    assert np.allclose(jtensor_contract(g, J), 2 * g)
    omega = g @ J  # fundamental two-form, J-invariant
    assert np.allclose(jtensor_contract(omega, J), _jcontract_oracle(omega, J))
    assert np.allclose(jtensor_contract(omega, J), 2 * omega, atol=1e-13)
    # anti-invariant part is annihilated
    T = rng.normal(size=(4, 4))
    anti = 0.5 * (T - np.einsum("ai,bj,ab->ij", J, J, T))
    assert np.max(np.abs(jtensor_contract(anti, J))) < 1e-13
    # a stack of tensors is contracted slice by slice
    Jc = _conjugated_J(rng, 2)
    stack = rng.normal(size=(5, 4, 4))
    got = jtensor_contract(stack, Jc)
    assert got.shape == stack.shape
    for T, c in zip(stack, got):
        assert np.allclose(c, _jcontract_oracle(T, Jc), atol=1e-12)
    with pytest.raises(ShapeMismatchError):
        jtensor_contract(np.zeros((4, 4)), standard_J(3))
