import numpy as np
import pytest

from kahlerlab.errors import SingularMetricError
from kahlerlab.geometry import cov_step_jet, riemann
from kahlerlab.hproj import (PairSolution, SolutionField, c_identity_check,
                             curvature_condition, geom, hermitian_symmetric_basis,
                             hpr_residual, lambda_least_squares, pair_a_jet)
from kahlerlab.jets import Jet, jet_einsum, jet_eval, jet_matrix_inverse
from kahlerlab.models import (KahlerModel, flat_model, flat_torus, fubini_study,
                              product_model, pullback_fs, rescale_model, standard_J)
from kahlerlab.tensors import hermitize
from conftest import traced_peak
from oracles import (CNum, ExplicitSolution, TrivialSolution, curvature_condition_einsum,
                     fd_gradient, killing_residual, zero_vec_jet)


class CombinationSolution(SolutionField):
    """Exact linear combination of solution fields over one model."""

    def __init__(self, terms):
        super().__init__(terms[0][1].model)
        self.terms = terms

    def _combine(self, name, point, order):
        acc = None
        for c, s in self.terms:
            j = getattr(s, name)(point, order) * c
            acc = j if acc is None else acc + j
        return acc

    def a_jet(self, point, order):
        return self._combine("a_jet", point, order)

    def lam_jet(self, point, order):
        return self._combine("lam_jet", point, order)


class PsiSolution(SolutionField):
    """Solution induced by an infinitesimal transformation u:

        a_u = L_u g - trace(g^-1 L_u g)/(2(n+1)) * g
    """

    def __init__(self, model, u_fn, B=None):
        super().__init__(model, B)
        self.u_fn = u_fn

    def a_jet(self, point, order):
        g = geom(self.model, point, order + 1)
        u = jet_eval(self.u_fn, list(point.coords), order + 1)
        ulow = jet_einsum("ia,a->i", g["g"], u)
        du = cov_step_jet(ulow, ("l",), g["gamma"])  # u_i,j at order
        lie = Jet(du.space, du.coef + np.swapaxes(du.coef, -1, -2))
        tr = jet_einsum("ij,ij->", g["ginv"].truncate(du.space.order), lie)
        coeff = 1.0 / (2.0 * (self.model.n + 1))
        return lie - jet_einsum(",ij->ij", tr * coeff, g["g"].truncate(du.space.order))


def gbar_from_a(g_model, a, point):
    """Invert the comparison-tensor construction:

        gbar^-1 = (det a / det g)^(1/2) g^-1 a g^-1   (matrix form)

    Returns the (0,2) metric matrix. Degenerate `a` is rejected.
    """
    a = np.asarray(a, dtype=float)
    g = geom(g_model, point, 0)["g"].const
    det_ratio = float(np.linalg.det(a)) / float(np.linalg.det(g))
    if abs(det_ratio) < 1e-12:
        raise SingularMetricError("comparison tensor is degenerate; "
                                  "add a multiple of g before inverting")
    if det_ratio < 0.0:
        raise SingularMetricError(f"det a / det g = {det_ratio:.3e} < 0; "
                                  "no metric of matching signature exists")
    ginv = np.linalg.inv(g)
    gbar_inv = np.sqrt(det_ratio) * ginv @ a @ ginv
    return np.linalg.inv(gbar_inv)


def lambda_from_a(g_model, a_fn, point):
    """lambda_k = (1/4) d_k (g^ij a_ij) for an explicit tensor field a_fn."""
    gi = geom(g_model, point, 1)["ginv"]
    a = jet_eval(a_fn, list(point.coords), 1)
    tr = jet_einsum("ij,ij->", gi, a)
    return 0.25 * tr.gradient().const


def _a_pair_oracle(g, gbar, n):
    """Direct matrix evaluation of the comparison-tensor formula."""
    ratio = np.linalg.det(gbar) / np.linalg.det(g)
    return ratio ** (1.0 / (2 * (n + 1))) * g @ np.linalg.inv(gbar) @ g


def test_a_from_pair_identity(fs2, rng):
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    a = pair_a_jet(fs2, fs2, p, 0).const
    assert np.allclose(a, fs2.metric_at(p), atol=1e-12)


def test_a_from_pair_scaled_metric(fs2, rng):
    c = 2.4
    scaled = rescale_model(fs2, c)
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    a = pair_a_jet(fs2, scaled, p, 0).const
    g = fs2.metric_at(p)
    assert np.allclose(a, c ** (-1.0 / 3.0) * g, atol=1e-12)
    assert np.allclose(a, _a_pair_oracle(g, c * g, 2), atol=1e-12)


def test_a_from_pair_matches_oracle_and_symmetry(fs2, ga_diag, rng):
    J = fs2.j_matrix()
    for _ in range(5):
        p = fs2.point(rng.uniform(-0.6, 0.6, 4))
        a = pair_a_jet(fs2, ga_diag, p, 0).const
        oracle = _a_pair_oracle(fs2.metric_at(p), ga_diag.metric_at(p), 2)
        assert np.max(np.abs(a - oracle)) < 1e-12
        assert np.allclose(a, a.T)
        assert np.max(np.abs(J.T @ a + a @ J)) < 1e-12


def test_a_from_pair_nonconstant_trace(fs2, ga_diag):
    p0 = fs2.point([0.1, -0.2, 0.3, 0.05])
    p1 = fs2.point([0.4, 0.3, -0.2, 0.1])
    tr = []
    for p in (p0, p1):
        tr.append(np.trace(np.linalg.inv(fs2.metric_at(p)) @ pair_a_jet(fs2, ga_diag, p, 0).const))
    assert abs(tr[0] - tr[1]) > 1e-3


def test_negative_determinant_ratio_rejected(fs2, rng):
    # J-compatible metrics have an even count of negative eigenvalues, so a
    # negative ratio can only enter through a hand-built comparison tensor
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    bad_a = np.diag([1.0, 1.0, 1.0, -1.0])
    with pytest.raises(SingularMetricError):
        gbar_from_a(fs2, bad_a, p)
    # mixed-signature flat pairs still have a positive ratio and a real root
    gp = flat_model(2)
    gm = flat_model(2, diag=[1.0, -1.0])
    a = pair_a_jet(gp, gm, gp.point(rng.uniform(-1, 1, 4)), 0).const
    assert np.isfinite(a).all()

    # hand-built constant metrics: one negative axis flips the sign of
    # det gbar, a zero axis makes it singular; both are rejected
    def const_model(diag):
        g = np.diag(diag)
        return KahlerModel("flat", 2, gp.charts, "c0", {"c0": lambda xs: g},
                           {"c0": standard_J(2)})

    p = gp.point(rng.uniform(-1, 1, 4))
    for diag in ([-1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]):
        with pytest.raises(SingularMetricError):
            pair_a_jet(gp, const_model(diag), p, 2)
    a = pair_a_jet(gp, const_model([-1.0, -1.0, 1.0, 1.0]), p, 2)
    assert np.allclose(a.const, np.diag([-1.0, -1.0, 1.0, 1.0]))


def test_geometry_inverts_the_metric_once(monkeypatch):
    # a model of its own: the geometry memo spans every model of the session
    from kahlerlab import geometry, hproj
    fs2 = fubini_study(2)
    calls = []

    def counted(a):
        calls.append(a.space.order)
        return jet_matrix_inverse(a)

    monkeypatch.setattr(hproj, "jet_matrix_inverse", counted)
    monkeypatch.setattr(geometry, "jet_matrix_inverse", counted)
    hit = hproj.geom(fs2, fs2.point([0.1, -0.2, 0.3, 0.05]), 3)
    assert calls == [3]
    assert hit["gamma"].space.order == 2


def test_gbar_round_trips(fs2, ga_diag, rng):
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    g = fs2.metric_at(p)
    assert np.allclose(gbar_from_a(fs2, g, p), g, atol=1e-12)
    a = pair_a_jet(fs2, ga_diag, p, 0).const
    gbar = gbar_from_a(fs2, a, p)
    assert np.max(np.abs(gbar - ga_diag.metric_at(p))) < 1e-10
    # scaled example: a = c^{-1/(n+1)} g  ->  gbar = c g
    c = 1.7
    a_c = c ** (-1.0 / 3.0) * g
    assert np.max(np.abs(gbar_from_a(fs2, a_c, p) - c * g)) < 1e-10
    with pytest.raises(SingularMetricError):
        gbar_from_a(fs2, np.zeros((4, 4)), p)


def test_hpr_residual_trivial_and_pair(fs2, pair_sol, rng):
    triv = TrivialSolution(fs2, 1.0)
    for _ in range(5):
        p = fs2.point(rng.uniform(-0.7, 0.7, 4))
        assert np.max(np.abs(hpr_residual(fs2, triv, p))) < 1e-14
        assert np.max(np.abs(hpr_residual(fs2, pair_sol, p))) < 1e-7


def test_hpr_residual_detects_wrong_lambda(fs2, ga_diag, rng):
    sol = PairSolution(fs2, ga_diag)
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))

    def bad_lam(point, order):
        lam = sol.lam_jet(point, order)
        lam.coef[0, 0] += 1e-2
        return lam

    bad = ExplicitSolution(fs2, sol.a_jet, lam_builder=bad_lam)
    assert np.max(np.abs(hpr_residual(fs2, bad, p))) > 1e-3


def test_lambda_from_a_and_least_squares(fs2, ga_diag, pair_sol, rng):
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    lam_g = lambda_from_a(fs2, fs2.metric_fn(), p)
    assert np.max(np.abs(lam_g)) < 1e-13
    scaled_fn = rescale_model(fs2, 3.0).metric_fn()
    assert np.max(np.abs(lambda_from_a(fs2, scaled_fn, p))) < 1e-12
    lam = lambda_from_a(fs2, ga_diag.metric_fn(), p)
    # oracle route: a-field evaluated through the pair machinery
    assert np.max(np.abs(lam - 0.0)) >= 0.0  # lambda of gbar itself, not the pair
    lam_pair = pair_sol.lam_at(p)
    lam_ls = lambda_least_squares(fs2, pair_sol, p)
    assert np.max(np.abs(lam_pair - lam_ls)) < 1e-7
    assert np.max(np.abs(lam_pair)) > 1e-4


def test_killing_residual_unitary_generator(fs2, rng):
    # u from a skew-hermitian generator X integrates to isometries
    X = 1j * np.array([[0.3, 0.1 + 0.2j, 0.0],
                       [0.1 - 0.2j, -0.1, 0.4j],
                       [0.0, -0.4j, 0.2]])
    assert np.allclose(X + X.conj().T, 0, atol=1e-12)

    def u_fn(xs):
        z = [CNum(xs[0], xs[1]), CNum(xs[2], xs[3])]
        hom = [CNum(1.0, 0.0)] + z
        w = [sum((CNum(X[m, l].real, X[m, l].imag) * hom[l] for l in range(3)),
                 CNum(0.0, 0.0)) for m in range(3)]
        out = []
        for i in range(2):
            u = w[i + 1] - z[i] * w[0]
            out.extend([u.re, u.im])
        return out

    for _ in range(3):
        p = fs2.point(rng.uniform(-0.5, 0.5, 4))
        res = killing_residual(fs2, u_fn, p)
        assert np.max(np.abs(res)) < 1e-12
        # and the induced candidate solution vanishes: L_u g = 0
        assert np.max(np.abs(PsiSolution(fs2, u_fn).a_jet(p, 0).const)) < 1e-12


def test_killing_residual_violations(fs2, rng):
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    zero = lambda xs: [0.0, 0.0, 0.0, 0.0]
    assert np.max(np.abs(killing_residual(fs2, zero, p))) == 0.0
    const = lambda xs: [1.0, 0.0, 0.0, 0.0]
    assert np.max(np.abs(killing_residual(fs2, const, p))) > 1e-3


def test_killing_property_of_lambda_bar(fs2, pair_sol, rng):
    # nabla(lbar) antisymmetrizes for a verified solution
    for _ in range(5):
        p = fs2.point(rng.uniform(-0.6, 0.6, 4))
        g = geom(fs2, p, 1)
        dlam = cov_step_jet(pair_sol.lam_jet(p, 1), ("l",), g["gamma"]).const
        kb = g["J"].T @ dlam
        assert np.max(np.abs(kb + kb.T)) < 1e-7
        # gradient fields on the curved model are not Killing
        sym = dlam + dlam.T
        assert np.max(np.abs(sym)) > 1e-3


def test_psi_nonunitary_generator_solves_system(fs2, rng):
    # X with a nontrivial hermitian part generates genuinely projective flows
    X = np.diag([0.5, 0.0, -0.2]).astype(complex)

    def u_fn(xs):
        z = [CNum(xs[0], xs[1]), CNum(xs[2], xs[3])]
        hom = [CNum(1.0, 0.0)] + z
        w = [sum((CNum(X[m, l].real, X[m, l].imag) * hom[l] for l in range(3)),
                 CNum(0.0, 0.0)) for m in range(3)]
        out = []
        for i in range(2):
            u = w[i + 1] - z[i] * w[0]
            out.extend([u.re, u.im])
        return out

    psi = PsiSolution(fs2, u_fn)
    nonzero = 0.0
    for _ in range(3):
        p = fs2.point(rng.uniform(-0.5, 0.5, 4))
        assert np.max(np.abs(hpr_residual(fs2, psi, p))) < 1e-6
        nonzero = max(nonzero, np.max(np.abs(psi.a_jet(p, 0).const)))
    assert nonzero > 1e-3


def test_psi_matches_finite_flow_derivative(fs2, rng):
    # oracle: the infinitesimal construction equals minus the t-derivative at
    # 0 of the comparison tensor of (g, flow_t^* g), computed by central
    # differences of pullbacks under exp(tX)
    def expm(M):
        out = np.eye(M.shape[0], dtype=complex)
        term = np.eye(M.shape[0], dtype=complex)
        for k in range(1, 18):
            term = term @ M / k
            out = out + term
        return out

    X = np.array([[0.5, 0.2 - 0.1j, 0.0],
                  [0.0, 0.0, 0.3j],
                  [0.1, 0.0, -0.2]])

    def u_fn(xs):
        z = [CNum(xs[0], xs[1]), CNum(xs[2], xs[3])]
        hom = [CNum(1.0, 0.0)] + z
        w = [sum((CNum(X[m, l].real, X[m, l].imag) * hom[l] for l in range(3)),
                 CNum(0.0, 0.0)) for m in range(3)]
        out = []
        for i in range(2):
            u = w[i + 1] - z[i] * w[0]
            out.extend([u.re, u.im])
        return out

    eps = 1e-4
    plus = PairSolution(fs2, pullback_fs(expm(eps * X)))
    minus = PairSolution(fs2, pullback_fs(expm(-eps * X)))
    for _ in range(3):
        p = fs2.point(rng.uniform(-0.4, 0.4, 4))
        da_dt = (plus.a_jet(p, 0).const - minus.a_jet(p, 0).const) / (2 * eps)
        a_u = PsiSolution(fs2, u_fn).a_jet(p, 0).const
        assert np.max(np.abs(a_u + da_dt)) < 1e-6


def test_psi_linearity(fs2, rng):
    def mk(coeffs):
        def u(xs):
            return [coeffs[0] * xs[0] * xs[1], coeffs[1] * xs[2],
                    coeffs[2] * xs[3] * xs[3], coeffs[3]]
        return u

    u1, u2 = mk([1.0, 0.5, -0.3, 0.2]), mk([-0.7, 0.1, 0.9, -1.1])
    al, be = 1.3, -0.4

    def combo(xs):
        a = u1(xs)
        b = u2(xs)
        return [al * x + be * y for x, y in zip(a, b)]

    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    lhs, a1, a2 = (PsiSolution(fs2, u).a_jet(p, 0).const for u in (combo, u1, u2))
    rhs = al * a1 + be * a2
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def _field_curvature_condition(model, sol, p):
    """The curvature condition on a field's a and nabla lambda at p."""
    g = geom(model, p, 2)
    dlam = cov_step_jet(sol.lam_jet(p, 1), ("l",), g["gamma"]).const
    return curvature_condition(sol.a_jet(p, 0).const, dlam, riemann(g["gamma"]),
                               g["g"].const, g["J"])


def test_integrability_residual(fs2, flat2, pair_sol, rng):
    for _ in range(3):
        p = fs2.point(rng.uniform(-0.6, 0.6, 4))
        assert np.max(np.abs(_field_curvature_condition(fs2, pair_sol, p))) < 1e-6
        # nabla lambda substituted from the prolonged system: mu g + B a
        g = geom(fs2, p, 2)
        a = pair_sol.a_jet(p, 0).const
        dlam = float(pair_sol.mu_jet(p, 0).const) * g["g"].const + pair_sol.B * a
        assert np.max(np.abs(curvature_condition(a, dlam, riemann(g["gamma"]),
                                                 g["g"].const, g["J"]))) < 1e-6
    # flat, constant hermitian a, lambda = 0: exactly zero
    from kahlerlab.jets import jet_space
    basis = hermitian_symmetric_basis(flat2.j_matrix())
    a0 = basis[1]

    def const_a(point, order):
        return Jet.constant(jet_space(4, order), a0)

    sol = ExplicitSolution(flat2, const_a,
                           lam_builder=lambda pt, order: zero_vec_jet(flat2, order))
    p = flat2.point(rng.uniform(-1, 1, 4))
    assert np.max(np.abs(_field_curvature_condition(flat2, sol, p))) == 0.0


def test_integrability_detects_random_violation(fs2, ga_diag, rng):
    from kahlerlab.jets import jet_space
    a0 = hermitize(rng.normal(size=(4, 4)), fs2.j_matrix())

    def const_a(point, order):
        return Jet.constant(jet_space(4, order), a0)

    def rand_lam(point, order):
        sp = jet_space(4, order)
        coef = np.zeros((sp.ncoef, 4))
        coef[0] = rng.normal(size=4)
        return Jet(sp, coef)

    sol = ExplicitSolution(fs2, const_a, lam_builder=rand_lam)
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    assert np.max(np.abs(_field_curvature_condition(fs2, sol, p))) > 1e-3


def _curvature_inputs(rng, d, count):
    """A batch of symmetric a, general dlam, a curvature-shaped R and a
    metric hermitian for the standard J in real dimension d."""
    J = standard_J(d // 2)
    m = rng.normal(size=(d, d))
    gm = hermitize(m @ m.T, J) + d * np.eye(d)
    a = rng.normal(size=(count, d, d))
    dlam = rng.normal(size=(count, d, d))
    return a + np.swapaxes(a, -1, -2), dlam, rng.normal(size=(d,) * 4), gm, J


@pytest.mark.parametrize("d,count", [(4, 9), (8, 25), (12, 49)])
def test_curvature_condition_matches_the_einsum_oracle(d, count, rng):
    # a general dlam, and B a as the constraint rows pass it; batched and single
    a, dlam, R, gm, J = _curvature_inputs(rng, d, count)
    for dl in (dlam, -0.25 * a):
        ref = curvature_condition_einsum(a, dl, R, gm, J)
        got = curvature_condition(a, dl, R, gm, J)
        assert got.shape == ref.shape == (count,) + (d,) * 4
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        one = curvature_condition(a[1], dl[1], R, gm, J)
        assert np.max(np.abs(one - ref[1])) <= 1e-13 * np.max(np.abs(ref[1]))


def test_curvature_condition_peaks_below_twice_its_output(rng):
    # tracemalloc counts numpy's array buffers, not resident memory: this
    # bounds the call's own allocations (the output and every temporary) on
    # the 49-state fiber at d = 12, where the einsum form peaked at 4x
    a, _, R, gm, J = _curvature_inputs(rng, 12, 49)
    dl = -0.25 * a
    peak, out = traced_peak(curvature_condition, a, dl, R, gm, J)
    assert peak <= 2 * out.nbytes


def test_c_identity_for_independent_pullbacks(fs2, rng):
    solA = PairSolution(fs2, pullback_fs(np.diag([2.0, 1.0, 1.0])))
    solB = PairSolution(fs2, pullback_fs(np.diag([1.0, 3.0, 1.0])))
    warn = []
    for _ in range(5):
        p = fs2.point(rng.uniform(-0.5, 0.5, 4))
        assert c_identity_check(fs2, solA, solB, p, warn) < 1e-6
    assert warn == []
    # against the trivial solution the trace-free parts vanish: exact zero
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    assert c_identity_check(fs2, solA, TrivialSolution(fs2, 1.0), p) == 0.0
    # self-pairing: same bilinear on both sides
    assert c_identity_check(fs2, solA, solA, p, warn) < 1e-12
    assert warn  # hypothesis violation reported


def test_solution_space_linearity(fs2, ga_diag, pair_sol, rng):
    triv = TrivialSolution(fs2, 1.0)
    combo = CombinationSolution([(0.7, pair_sol), (-1.3, triv)])
    for _ in range(3):
        p = fs2.point(rng.uniform(-0.6, 0.6, 4))
        r = hpr_residual(fs2, combo, p)
        r1 = hpr_residual(fs2, pair_sol, p)
        r2 = hpr_residual(fs2, triv, p)
        assert np.max(np.abs(r - 0.7 * r1 + 1.3 * r2)) < 1e-12
        assert np.max(np.abs(r)) < 1e-7


def test_lemma2_anticommutation_invariants(fs2, pair_sol, rng):
    J = fs2.j_matrix()
    for _ in range(5):
        p = fs2.point(rng.uniform(-0.6, 0.6, 4))
        a = pair_sol.a_jet(p, 0).const
        assert np.max(np.abs(J.T @ a + a @ J)) < 1e-7
        g = geom(fs2, p, 1)
        dlam = cov_step_jet(pair_sol.lam_jet(p, 1), ("l",), g["gamma"]).const
        assert np.max(np.abs(J.T @ dlam + dlam @ J)) < 1e-7


def test_gradient_consistency_of_lambda_scalar(fs2, pair_sol, rng):
    # lambda_i is the gradient of the quarter-trace scalar: cross-check by
    # finite differences of the scalar values
    def lam_sc(xs):
        return float(pair_sol.lambda_scalar_jet(
            fs2.point([float(v) for v in xs]), 0).const)

    p = fs2.point(rng.uniform(-0.4, 0.4, 4))
    fd = fd_gradient(lam_sc, list(p.coords), step=1e-3)
    assert np.max(np.abs(fd - pair_sol.lam_at(p))) < 1e-7


def test_hermitian_symmetric_basis_dimension():
    from kahlerlab.models import standard_J
    for n in (2, 3):
        basis = hermitian_symmetric_basis(standard_J(n))
        assert len(basis) == n * n


def test_random_complex_pullback_solves_system(fs2, rng):
    # a generic invertible complex matrix, not diagonal and not normal
    w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    A = np.eye(3) + 0.4 * w
    sol = PairSolution(fs2, pullback_fs(A), B=None)
    from kahlerlab.prolongation import estimate_B
    worst = 0.0
    Bs = []
    for _ in range(5):
        p = fs2.point(rng.uniform(-0.4, 0.4, 4))
        worst = max(worst, float(np.max(np.abs(hpr_residual(fs2, sol, p)))))
        Bs.append(estimate_B(fs2, sol, p)[0])
    assert worst < 1e-7
    assert abs(np.mean(Bs) + 0.25) < 1e-6
    assert np.max(Bs) - np.min(Bs) < 1e-8


def test_pair_solution_on_cp3(rng):
    # dimension-independence: the whole first-order layer on CP(3)
    fs3 = fubini_study(3)
    gbar = pullback_fs(np.diag([2.0, 1.0, 1.5, 1.0]))
    sol = PairSolution(fs3, gbar)
    p = fs3.point(rng.uniform(-0.4, 0.4, 6))
    assert np.max(np.abs(hpr_residual(fs3, sol, p))) < 1e-7
    from kahlerlab.prolongation import estimate_B
    B, fit = estimate_B(fs3, sol, p)
    assert abs(B + 0.25) < 1e-6 and fit < 1e-8


def test_is_verified_solution_and_json_export(fs2, pair_sol, rng):
    from kahlerlab.hproj import solution_to_json
    pts = [fs2.point(rng.uniform(-0.5, 0.5, 4)) for _ in range(4)]
    worst = max(float(np.max(np.abs(hpr_residual(fs2, pair_sol, p)))) for p in pts)
    assert worst < 1e-7
    payload = solution_to_json(pair_sol, pts)
    assert payload["chart"] == "c0" and len(payload["grid"]) == 4
    entry = payload["grid"][0]
    assert np.array(entry["a"]).shape == (4, 4)
    assert len(entry["lambda"]) == 4
    assert isinstance(entry["mu"], float)


# -- memoized jets: one entry per point, lower orders served by truncation -----

MEMO_MODELS = {
    "fs": lambda: fubini_study(2),
    "pullback": lambda: pullback_fs(np.diag([2.0, 1.0, 1.0]) + 0.3j * np.eye(3, k=1)),
    "flat": lambda: flat_model(2, [1.0, -2.0]),
    "torus": lambda: flat_torus(2, 1.0),
    "product": lambda: product_model([fubini_study(2), flat_model(2)], [1.0, 2.0]),
}


def _same_jet(a, b):
    return a.space is b.space and np.array_equal(a.coef, b.coef)


@pytest.mark.parametrize("kind", sorted(MEMO_MODELS))
def test_geom_serves_lower_orders_exactly(kind, rng):
    # the order-q part of a memoized order-p entry is the order-q evaluation, bit for bit
    model = MEMO_MODELS[kind]()
    p = model.sample_points(rng, 1)[0]
    for top in (1, 2, 3):
        for q in range(top):
            model._geom_memo.clear()
            geom(model, p, top)
            served = geom(model, p, q)
            model._geom_memo.clear()
            fresh = geom(model, p, q)
            assert _same_jet(served["g"], fresh["g"]) and _same_jet(served["ginv"], fresh["ginv"])
            assert (q == 0 and served["gamma"] is None and fresh["gamma"] is None
                    or _same_jet(served["gamma"], fresh["gamma"]))


def test_pair_a_jet_serves_lower_orders_exactly(fs2, ga_diag, rng, monkeypatch):
    from kahlerlab import hproj
    builds = []
    monkeypatch.setattr(hproj, "pair_a_jet", lambda *a: builds.append(a[-1]) or pair_a_jet(*a))
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    for top in range(1, 5):
        for q in range(top):
            fs2._geom_memo.clear()
            ga_diag._geom_memo.clear()
            sol = PairSolution(fs2, ga_diag)
            sol.a_jet(p, top)
            served = sol.with_B(-0.25).a_jet(p, q)     # with_B copies share the memo
            assert builds[-1] == top
            fs2._geom_memo.clear()
            ga_diag._geom_memo.clear()
            fresh = PairSolution(fs2, ga_diag).a_jet(p, q)
            assert _same_jet(served, fresh)


def test_memoized_jets_are_read_only(fs2, ga_diag, rng):
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    sol = PairSolution(fs2, ga_diag)
    served = [geom(fs2, p, 2)["g"], geom(fs2, p, 1)["gamma"], geom(fs2, p, 0)["ginv"],
              sol.a_jet(p, 2), sol.a_jet(p, 0)]
    for jet in served:
        with pytest.raises(ValueError):
            jet.coef[0] = 0.0


def test_geom_memo_holds_one_entry_per_point_within_its_bound(rng):
    from kahlerlab import hproj
    fs2 = fubini_study(2)
    for k in range(5):
        p = fs2.point(rng.uniform(-0.5, 0.5, 4))
        for order in (0, 2, 1, 3):
            geom(fs2, p, order)
        assert len(fs2._geom_memo) == k + 1     # one entry per point, not per order
    for _ in range(hproj._MEMO_BOUND + 100):
        geom(fs2, fs2.point(rng.uniform(-0.5, 0.5, 4)), 0)
        assert len(fs2._geom_memo) <= hproj._MEMO_BOUND + 1


def test_geom_memo_dies_with_its_model(rng):
    # no module-level dict holds a model: once its last reference is gone,
    # the model and its memo are collected
    import gc
    import weakref
    model = fubini_study(2)
    geom(model, model.point(rng.uniform(-0.5, 0.5, 4)), 2)
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_rescaled_model_has_its_own_geom_memo(rng):
    # a copy that shared the memo would serve the original metric at the same point
    fs2 = fubini_study(2)
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    g = geom(fs2, p, 2)["g"]
    scaled = geom(rescale_model(fs2, 3.0), p, 2)["g"]
    assert np.array_equal(scaled.coef, 3.0 * g.coef)
