import numpy as np
import pytest

from kahlerlab.errors import InsufficientJetError, SingularMetricError
from kahlerlab.geometry import (MetricJet, christoffels, covariant_derivative,
                                riemann, riemann_symmetry_residuals, verify_kahler)
from kahlerlab.jets import fd_gradient, fd_hessian, jet_eval
from kahlerlab.models import flat_model, product_model, standard_J
from kahlerlab.prolongation import constant_curvature_tensor


def test_christoffels_flat_and_scaled(flat2):
    mj = flat2.metric_jet(flat2.point(np.zeros(4)), order=1)
    assert np.max(np.abs(christoffels(mj))) == 0.0
    scaled = MetricJet(mj.point, 3.7 * mj.g, 3.7 * mj.dg)
    assert np.max(np.abs(christoffels(scaled))) == 0.0


def test_christoffels_fs_origin_with_fd_oracle(fs2):
    # the chart metric expands as 4(Id + O(|z|^2)), so dg(0) = 0 and Gamma(0) = 0
    mj = fs2.metric_jet(fs2.point(np.zeros(4)), order=1)
    assert np.max(np.abs(christoffels(mj))) < 1e-14
    fd_dg = fd_gradient(fs2.metric_fn(), [0.0] * 4)
    assert np.max(np.abs(fd_dg)) < 1e-9


def test_fd_jets_cross_validate_exact_jets(fs2, rng):
    # invariant: central-difference jets of the closed form agree with the
    # exact jets of the dual-number backend
    fn = fs2.metric_fn()
    for _ in range(3):
        x = rng.uniform(-0.7, 0.7, 4)
        j = jet_eval(fn, list(x), 2)
        assert np.max(np.abs(fd_gradient(fn, list(x)) - j.derivatives(1))) < 1e-6
        assert np.max(np.abs(fd_hessian(fn, list(x)) - j.derivatives(2))) < 1e-5


def test_christoffels_singular_metric():
    mj = MetricJet(np.zeros(4), np.zeros((4, 4)), np.zeros((4, 4, 4)))
    with pytest.raises(SingularMetricError):
        christoffels(mj)


def test_riemann_flat_zero(flat2, rng):
    mj = flat2.metric_jet(flat2.point(rng.uniform(-1, 1, 4)), order=2)
    assert np.max(np.abs(riemann(mj))) == 0.0


def test_riemann_fs_equals_constant_curvature_model(fs2, rng):
    # the chart metric is normalized to holomorphic sectional curvature 1,
    # so its curvature must equal the constant-curvature model tensor
    J = fs2.j_matrix()
    for _ in range(10):
        p = fs2.point(rng.uniform(-0.8, 0.8, 4))
        mj = fs2.metric_jet(p, order=2)
        K = constant_curvature_tensor(mj.g, J)
        assert np.max(np.abs(riemann(mj) - K)) < 1e-7


def test_riemann_pullback_has_constant_curvature(ga_diag, rng):
    # pullbacks by biholomorphisms keep the constant-curvature identity
    J = ga_diag.j_matrix()
    for _ in range(5):
        p = ga_diag.point(rng.uniform(-0.6, 0.6, 4))
        mj = ga_diag.metric_jet(p, order=2)
        K = constant_curvature_tensor(mj.g, J)
        assert np.max(np.abs(riemann(mj) - K)) < 1e-7


def test_riemann_product_of_flats(rng):
    prod = product_model([flat_model(2), flat_model(2)], [2.0, -1.0])
    mj = prod.metric_jet(prod.point(rng.uniform(-1, 1, 8)), order=2)
    assert np.max(np.abs(riemann(mj))) == 0.0


def test_riemann_symmetries_and_missing_jets(fs2, rng):
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    mj = fs2.metric_jet(p, order=2)
    res = riemann_symmetry_residuals(mj, fs2.j_matrix())
    assert all(v < 1e-9 for v in res.values())
    only_first = MetricJet(mj.point, mj.g, mj.dg)
    with pytest.raises(InsufficientJetError):
        riemann(only_first)


def test_covariant_derivative_metric_and_J(fs2, rng):
    g_fn = fs2.metric_fn()
    j_fn = fs2.j_fn()
    for _ in range(3):
        x = list(rng.uniform(-0.6, 0.6, 4))
        nab_g = covariant_derivative(g_fn, g_fn, x, 1, ("l", "l"))
        assert np.max(np.abs(nab_g)) < 1e-12
        nab_J = covariant_derivative(j_fn, g_fn, x, 1, ("u", "l"))
        assert np.max(np.abs(nab_J)) < 1e-12


def test_covariant_derivative_leibniz_scalar_times_metric(fs2, rng):
    # nabla(f g) = df tensor g for parallel g
    g_fn = fs2.metric_fn()

    def f(xs):
        return 1.0 + xs[0] * xs[1] + xs[2]

    def fg(xs):
        gm = g_fn(xs)
        fv = f(xs)
        return [[entry * fv for entry in row] for row in gm]

    x = list(rng.uniform(-0.5, 0.5, 4))
    got = covariant_derivative(fg, g_fn, x, 1, ("l", "l"))
    df = jet_eval(f, x, 1).derivatives(1)
    gm = np.array(g_fn(x), dtype=float)
    assert np.max(np.abs(got - np.einsum("ij,k->ijk", gm, df))) < 1e-12


def test_ricci_identity_for_second_derivatives(fs2, ga_diag, rng):
    # T_ij,kl - T_ij,lk = R^r_ikl T_rj + R^r_jkl T_ir, checked on a
    # genuinely nonparallel tensor field (the second metric of the pair)
    x = list(rng.uniform(-0.5, 0.5, 4))
    T_fn = ga_diag.metric_fn()
    g_fn = fs2.metric_fn()
    d2 = covariant_derivative(T_fn, g_fn, x, 2, ("l", "l"))
    comm = d2 - np.einsum("ijlk->ijkl", d2)
    mj = fs2.metric_jet(fs2.point(x), order=2)
    R = riemann(mj)
    T = np.array(T_fn(x), dtype=float)
    rhs = np.einsum("rikl,rj->ijkl", R, T) + np.einsum("rjkl,ir->ijkl", R, T)
    assert np.max(np.abs(comm - rhs)) < 1e-10


def test_covariant_derivative_order_validation(fs2):
    with pytest.raises(InsufficientJetError):
        covariant_derivative(fs2.metric_fn(), fs2.metric_fn(),
                             [0.0] * 4, 4, ("l", "l"))


def test_verify_kahler_pass_and_fail(flat2, fs2, rng):
    pts = [list(rng.uniform(-0.5, 0.5, 4)) for _ in range(5)]
    assert verify_kahler(flat2.metric_fn(), flat2.j_fn(), pts).passed
    assert verify_kahler(fs2.metric_fn(), fs2.j_fn(), pts).passed
    # break J: flip the sign of one block so J^2 != -Id
    J_bad = standard_J(2)
    J_bad[0, 1] = 1.0

    def bad_j(xs):
        return [[float(J_bad[i, j]) for j in range(4)] for i in range(4)]

    rep = verify_kahler(flat2.metric_fn(), bad_j, pts)
    assert not rep.passed
    assert rep.residuals["J_squared"] > 0.5


def test_verify_kahler_all_models_property(fs2, flat2, torus2, rng):
    # curvature symmetries + compatibility at >= 20 points per model
    for model in (fs2, flat2, torus2):
        rep = model.verify(rng, count=20, tol=1e-9)
        assert rep.passed, rep.residuals


def test_metric_jet_invariants(fs2, rng):
    mj = fs2.metric_jet(fs2.point(rng.uniform(-0.5, 0.5, 4)), order=3)
    assert np.allclose(mj.g, mj.g.T)
    # partial arrays are symmetric in the derivative indices
    assert np.allclose(mj.d2g, np.einsum("ijlk->ijkl", mj.d2g))
    for perm in ("ijlkm", "ijklm", "ijmlk"):
        assert np.allclose(mj.d3g, np.einsum(f"{perm}->ijklm", mj.d3g))
    assert mj.order == 3
    mj.check_nondegenerate()
    jjet = jet_eval(fs2.j_fn(), [0.0] * 4, 1)
    assert np.max(np.abs(jjet.const @ jjet.const + np.eye(4))) < 1e-14
    assert np.max(np.abs(jjet.derivatives(1))) == 0.0
