import numpy as np
import pytest

from kahlerlab.errors import InsufficientJetError, SingularMetricError
from kahlerlab.geometry import (christoffel_jet, christoffels, cov_derivatives, riemann,
                                riemann_symmetry_residuals, verify_kahler)
from kahlerlab.hproj import geom
from kahlerlab.jets import jet_eval
from kahlerlab.models import (KahlerModel, flat_model, fubini_study, product_model,
                              standard_J)
from kahlerlab.prolongation import constant_curvature_tensor
from conftest import passed
from oracles import (christoffels_from_partials, fd_gradient, fd_hessian,
                     pullback_metric_oracle, riemann_from_partials)


def _partials(model, x, order):
    """The metric jet of a model at chart-c0 coordinates x."""
    return jet_eval(model.metric_fn(), list(x), order)


def _riemann_at(model, p):
    return riemann(geom(model, p, 2)["gamma"])


def _nabla(T_fn, g_fn, x, order, variance):
    """Exact components of nabla^order T at x (derivative indices last)."""
    gamma = christoffel_jet(jet_eval(g_fn, x, order))
    return cov_derivatives(jet_eval(T_fn, x, order), variance, gamma, order)[-1].const


def test_christoffels_flat_and_scaled(flat2):
    j = _partials(flat2, np.zeros(4), 1)
    assert np.max(np.abs(christoffels(j.const, j.derivatives(1)))) == 0.0
    assert np.max(np.abs(christoffels(3.7 * j.const, 3.7 * j.derivatives(1)))) == 0.0


def test_christoffels_fs_origin_with_fd_oracle(fs2):
    # the chart metric expands as 4(Id + O(|z|^2)), so dg(0) = 0 and Gamma(0) = 0
    j = _partials(fs2, np.zeros(4), 1)
    assert np.max(np.abs(christoffels(j.const, j.derivatives(1)))) < 1e-14
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
    with pytest.raises(SingularMetricError):
        christoffels(np.zeros((4, 4)), np.zeros((4, 4, 4)))


def test_geom_refuses_a_near_singular_metric(flat2):
    # rows (1, 1 - 1e-14) and (1 - 1e-14, 1): invertible in floats, but |det g|
    # is 1e-14 of the product of the row norms, below the 1e-12 floor
    eps = 1e-14
    g = np.eye(4)
    g[:2, :2] = [[1.0, 1.0 - eps], [1.0 - eps, 1.0]]
    for metric in (g, np.zeros((4, 4))):
        model = KahlerModel("flat", 2, flat2.charts, "c0", {"c0": lambda xs, m=metric: m},
                            {"c0": standard_J(2)})
        with pytest.raises(SingularMetricError):
            geom(model, model.point(np.zeros(4)), 2)


def test_riemann_flat_zero(flat2, rng):
    assert np.max(np.abs(_riemann_at(flat2, flat2.point(rng.uniform(-1, 1, 4))))) == 0.0


def test_riemann_fs_equals_constant_curvature_model(fs2, rng):
    # the chart metric is normalized to holomorphic sectional curvature 1,
    # so its curvature must equal the constant-curvature model tensor
    J = fs2.j_matrix()
    for _ in range(10):
        p = fs2.point(rng.uniform(-0.8, 0.8, 4))
        K = constant_curvature_tensor(fs2.metric_at(p), J)
        assert np.max(np.abs(_riemann_at(fs2, p) - K)) < 1e-7


def test_riemann_pullback_has_constant_curvature(ga_diag, rng):
    # pullbacks by biholomorphisms keep the constant-curvature identity
    J = ga_diag.j_matrix()
    for _ in range(5):
        p = ga_diag.point(rng.uniform(-0.6, 0.6, 4))
        K = constant_curvature_tensor(ga_diag.metric_at(p), J)
        assert np.max(np.abs(_riemann_at(ga_diag, p) - K)) < 1e-7


def test_riemann_product_of_flats(rng):
    prod = product_model([flat_model(2), flat_model(2)], [2.0, -1.0])
    assert np.max(np.abs(_riemann_at(prod, prod.point(rng.uniform(-1, 1, 8))))) == 0.0


def test_riemann_symmetries_and_missing_jets(fs2, rng):
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    res = riemann_symmetry_residuals(fs2.metric_at(p), _riemann_at(fs2, p), fs2.j_matrix())
    assert all(v < 1e-9 for v in res.values())
    only_first = christoffel_jet(_partials(fs2, p.coords, 1))
    with pytest.raises(InsufficientJetError):
        riemann(only_first)


def test_covariant_derivative_metric_and_J(fs2, rng):
    g_fn = fs2.metric_fn()
    j_fn = fs2.j_fn()
    for _ in range(3):
        x = list(rng.uniform(-0.6, 0.6, 4))
        nab_g = _nabla(g_fn, g_fn, x, 1, ("l", "l"))
        assert np.max(np.abs(nab_g)) < 1e-12
        nab_J = _nabla(j_fn, g_fn, x, 1, ("u", "l"))
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
    got = _nabla(fg, g_fn, x, 1, ("l", "l"))
    df = jet_eval(f, x, 1).derivatives(1)
    gm = np.array(g_fn(x), dtype=float)
    assert np.max(np.abs(got - np.einsum("ij,k->ijk", gm, df))) < 1e-12


def test_ricci_identity_for_second_derivatives(fs2, ga_diag, rng):
    # T_ij,kl - T_ij,lk = R^r_ikl T_rj + R^r_jkl T_ir, checked on a
    # genuinely nonparallel tensor field (the second metric of the pair)
    x = list(rng.uniform(-0.5, 0.5, 4))
    T_fn = ga_diag.metric_fn()
    g_fn = fs2.metric_fn()
    d2 = _nabla(T_fn, g_fn, x, 2, ("l", "l"))
    comm = d2 - np.einsum("ijlk->ijkl", d2)
    R = _riemann_at(fs2, fs2.point(x))
    T = np.array(T_fn(x), dtype=float)
    rhs = np.einsum("rikl,rj->ijkl", R, T) + np.einsum("rjkl,ir->ijkl", R, T)
    assert np.max(np.abs(comm - rhs)) < 1e-10


def test_verify_kahler_pass_and_fail(flat2, fs2, rng):
    pts = [list(rng.uniform(-0.5, 0.5, 4)) for _ in range(5)]
    assert passed(verify_kahler(flat2.metric_fn(), flat2.j_fn(), pts))
    assert passed(verify_kahler(fs2.metric_fn(), fs2.j_fn(), pts))
    # break J: flip the sign of one block so J^2 != -Id
    J_bad = standard_J(2)
    J_bad[0, 1] = 1.0

    def bad_j(xs):
        return [[float(J_bad[i, j]) for j in range(4)] for i in range(4)]

    rep = verify_kahler(flat2.metric_fn(), bad_j, pts)
    assert not passed(rep)
    assert rep.residuals["J_squared"] > 0.5


def test_verify_kahler_all_models_property(fs2, flat2, torus2, rng):
    # curvature symmetries + compatibility at >= 20 points per model
    for model in (fs2, flat2, torus2):
        rep = model.verify(rng, count=20, tol=1e-9)
        assert passed(rep), rep.residuals


def test_metric_jet_invariants(fs2, rng):
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    gjet = geom(fs2, p, 3)["g"]
    g, d2g, d3g = gjet.const, gjet.derivatives(2), gjet.derivatives(3)
    assert np.allclose(g, g.T)
    # partial arrays are symmetric in the derivative indices
    assert np.allclose(d2g, np.einsum("ijlk->ijkl", d2g))
    for perm in ("ijlkm", "ijklm", "ijmlk"):
        assert np.allclose(d3g, np.einsum(f"{perm}->ijklm", d3g))
    assert gjet.space.order == 3
    jjet = jet_eval(fs2.j_fn(), [0.0] * 4, 1)
    assert np.max(np.abs(jjet.const @ jjet.const + np.eye(4))) < 1e-14
    assert np.max(np.abs(jjet.derivatives(1))) == 0.0


def _curvature_cases():
    rng = np.random.default_rng(30)
    cases = [pytest.param(n, None, id=f"fs-n{n}") for n in (2, 3, 4)]
    cases.append(pytest.param(3, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)),
                              id="random-n3"))
    cases.append(pytest.param(3, np.diag([2.0, 1.0, 1.0, 0.5]).astype(complex),
                              id="diag211h-n3"))
    return cases


@pytest.mark.parametrize("n,A", _curvature_cases())
def test_connection_and_curvature_match_partials_oracle(n, A):
    # Gamma and R from the package's connection jet against the float
    # formulas on the metric partials, on jets of the complex-formula metric
    rng = np.random.default_rng(n)
    for chart in ("c0", "c1"):
        fn = pullback_metric_oracle(n, int(chart[1:]), A)
        for _ in range(2):
            gjet = jet_eval(fn, list(rng.uniform(-0.6, 0.6, 2 * n)), 2)
            g, dg, d2g = gjet.const, gjet.derivatives(1), gjet.derivatives(2)
            gam_ref = christoffels_from_partials(g, dg)
            assert (np.max(np.abs(christoffels(g, dg) - gam_ref))
                    <= 1e-12 * np.max(np.abs(gam_ref)))
            R_ref = riemann_from_partials(g, dg, d2g)
            R = riemann(christoffel_jet(gjet))
            assert np.max(np.abs(R - R_ref)) <= 1e-12 * np.max(np.abs(R_ref))


@pytest.mark.parametrize("second", ["flat", "fs"])
def test_product_curvature_is_block_diagonal(second, rng):
    # R of fs x flat and fs x fs is the direct sum of the factors' R
    factors = [fubini_study(2), flat_model(2) if second == "flat" else fubini_study(2)]
    prod = product_model(factors)
    x = rng.uniform(-0.5, 0.5, 8)
    R = _riemann_at(prod, prod.point(x))
    expect = np.zeros_like(R)
    for b, f in enumerate(factors):
        blk = slice(4 * b, 4 * b + 4)
        expect[blk, blk, blk, blk] = _riemann_at(f, f.point(x[blk]))
    assert np.max(np.abs(R - expect)) <= 1e-12 * max(np.max(np.abs(expect)), 1.0)
