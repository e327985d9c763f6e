import numpy as np
import pytest

from kahlerlab.errors import (InvalidInputError, NoProjectorError,
                              ProjectorConsistencyError)
from kahlerlab.prolongation import (ProlongedState, extended_residual,
                                    Segment, transport_states)
from kahlerlab.spectral import (ExtendedOperator, L_product,
                                PolynomialSolution, build_L,
                                eigenstructure_report, eval_poly, hat_J,
                                hat_metric, hessian_mu_check, make_projector,
                                minimal_poly, renormalize_to_minus_one)
from oracles import TrivialSolution


@pytest.fixture(scope="module")
def renorm(fs2, pair_sol):
    model, sol = renormalize_to_minus_one(fs2, pair_sol)
    return model, sol


def test_build_L_identity_and_zero(renorm, rng):
    model, sol = renorm
    p = model.point(rng.uniform(-0.5, 0.5, 4))
    triv = TrivialSolution(model, 1.0, B=-1.0)
    assert np.allclose(build_L(model, triv, p).matrix, np.eye(6), atol=1e-12)
    zero = TrivialSolution(model, 0.0, B=-1.0)
    assert np.max(np.abs(build_L(model, zero, p).matrix)) == 0.0


def test_L_invariants(renorm, rng):
    model, sol = renorm
    for _ in range(5):
        p = model.point(rng.uniform(-0.6, 0.6, 4))
        L = build_L(model, sol, p)
        assert np.max(np.abs(L.matrix[:2, 2:])) > 1e-6  # off-diagonal blocks live
        assert L.selfadjoint_residual(model.metric_at(p)) < 1e-10
        assert L.jcommute_residual(model.j_matrix()) < 1e-10


def test_triple_round_trip(renorm, rng):
    model, sol = renorm
    p = model.point(rng.uniform(-0.5, 0.5, 4))
    L = build_L(model, sol, p)
    # the triple read back off the block shape
    m = L.matrix
    assert np.max(np.abs(model.metric_at(p) @ m[2:, 2:] - sol.a_jet(p, 0).const)) < 1e-12
    assert np.max(np.abs(m[0, 2:] - sol.lam_jet(p, 0).const)) < 1e-12
    assert abs(m[0, 0] - float(sol.mu_jet(p, 0).const)) < 1e-12


def test_product_with_identity(renorm, rng):
    model, sol = renorm
    p = model.point(rng.uniform(-0.5, 0.5, 4))
    L = build_L(model, sol, p)
    ident = build_L(model, TrivialSolution(model, 1.0, B=-1.0), p)
    prod, triple, conds = L_product(model, L, ident, p)
    assert conds["closed"]
    assert np.allclose(prod.matrix, L.matrix, atol=1e-12)
    assert np.max(np.abs(triple.a - sol.a_jet(p, 0).const)) < 1e-12


def test_product_powers_are_solutions(renorm, rng):
    model, sol = renorm
    pts = [model.point(rng.uniform(-0.5, 0.5, 4)) for _ in range(4)]
    for k, coeffs in ((2, [1.0, 0.0, 0.0]), (3, [1.0, 0.0, 0.0, 0.0])):
        powered = PolynomialSolution(model, sol, coeffs)
        for p in pts:
            r1, r2, r3 = extended_residual(model, powered, p)
            assert np.max(np.abs(r1)) < 1e-5
            assert np.max(np.abs(r2)) < 1e-5
            assert np.max(np.abs(r3)) < 1e-5


def test_product_conditions_hold_for_powers(renorm, rng):
    model, sol = renorm
    p = model.point(rng.uniform(-0.5, 0.5, 4))
    L = build_L(model, sol, p)
    Lk = ExtendedOperator(L.matrix @ L.matrix, p, 2)
    _, _, conds = L_product(model, L, Lk, p)
    assert conds["cond_mixed"] < 1e-8
    assert conds["cond_isotropy"] < 1e-8


def test_product_non_closure_flagged(renorm, rng):
    model, sol = renorm
    p = model.point(rng.uniform(-0.4, 0.4, 4))
    # a second operator from an unrelated (non-solution) triple
    fake = ProlongedState(np.eye(4) * 0.5, np.array([0.3, -0.2, 0.1, 0.4]), 0.7)
    from kahlerlab.spectral import hat_metric
    gm = model.metric_at(p)
    m = np.zeros((6, 6))
    m[0, 0] = m[1, 1] = fake.mu
    m[0, 2:] = fake.lam
    m[1, 2:] = model.j_matrix().T @ fake.lam
    ginv = np.linalg.inv(gm)
    m[2:, 0] = ginv @ fake.lam
    m[2:, 1] = ginv @ (model.j_matrix().T @ fake.lam)
    m[2:, 2:] = ginv @ fake.a
    L2 = ExtendedOperator(m, p, 2)
    L1 = build_L(model, sol, p)
    _, _, conds = L_product(model, L1, L2, p)
    assert not conds["closed"]


def test_minimal_poly_identity_and_projector():
    class Dummy:
        pass

    ident = np.eye(6)
    mp = minimal_poly(ident)
    assert mp.degree == 1
    assert np.allclose(mp.coefficients, [1.0, -1.0])
    proj = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    mp2 = minimal_poly(proj)
    assert mp2.degree == 2
    assert np.allclose(mp2.coefficients, [1.0, -1.0, 0.0])  # t^2 - t


def test_minimal_poly_is_annihilating_and_constant(renorm, rng):
    model, sol = renorm
    p = model.point(rng.uniform(-0.5, 0.5, 4))
    q = model.point(rng.uniform(-0.5, 0.5, 4))
    L1, L2 = build_L(model, sol, p), build_L(model, sol, q)
    mp1, mp2 = minimal_poly(L1), minimal_poly(L2)
    assert mp1.degree == mp2.degree
    assert np.max(np.abs(mp1.coefficients - mp2.coefficients)) < 1e-5
    # oracle: the minimal polynomial annihilates the operator
    assert np.max(np.abs(eval_poly(mp1.coefficients, L1.matrix))) < 1e-8


def test_minimal_poly_ambiguity_warning():
    # two clusters separated by ~5x tol: resolvable but ill-conditioned
    m = np.diag([0.0, 5e-6, 1.0, 1.0])
    mp = minimal_poly(m, tol=1e-6)
    assert mp.warning is not None and "10x" in mp.warning
    assert mp.ambiguous
    # cleanly separated spectrum carries no warning
    clean = minimal_poly(np.diag([0.0, 0.5, 1.0, 1.0]))
    assert clean.warning is None and not clean.ambiguous


def test_minimal_poly_complex_spectrum():
    # rotation block: conjugate eigenvalue pair -> one real quadratic factor
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = -1.0, 1.0
    m[2, 2] = m[3, 3] = 2.0
    mp = minimal_poly(m)
    assert mp.degree == 3
    assert not np.iscomplexobj(mp.coefficients)
    assert np.max(np.abs(eval_poly(mp.coefficients, m))) < 1e-10


def test_make_projector_on_existing_projector():
    P0 = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    P, coeffs = make_projector(ExtendedOperator(P0, None, 2))
    assert np.allclose(P.matrix, P0, atol=1e-12)


def test_make_projector_with_a_complex_pair(rng):
    # a rotation block (eigenvalues 0.5 +- 0.8i) and two real eigenvalues in a
    # random basis: the projector onto the largest real one is the
    # eigendecomposition's, and the pair is one cluster of multiplicity 2
    D = np.zeros((4, 4))
    D[:2, :2] = [[0.5, -0.8], [0.8, 0.5]]
    D[2, 2], D[3, 3] = 2.0, -1.0
    S = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    Sinv = np.linalg.inv(S)
    P, _ = make_projector(ExtendedOperator(S @ D @ Sinv, None, 1))
    assert np.max(np.abs(P.matrix - S[:, 2:3] @ Sinv[2:3])) < 1e-10
    clusters = minimal_poly(S @ D @ Sinv).clusters
    assert sorted(cnt for c, cnt, e in clusters if abs(c.imag) > 1e-12) == [2]


def test_make_projector_rejects_identity():
    with pytest.raises(NoProjectorError):
        make_projector(ExtendedOperator(np.eye(6), None, 2))


def test_make_projector_refuses_ambiguous_clustering():
    m = np.diag([0.0, 5e-6, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NoProjectorError, match="ambiguous"):
        make_projector(ExtendedOperator(m, None, 2))


def test_projector_pipeline_eigenstructure(renorm, rng):
    model, sol = renorm
    p = model.point(rng.uniform(-0.4, 0.4, 4))
    pts = [model.point(rng.uniform(-0.7, 0.7, 4)) for _ in range(30)]
    mu_max = max(float(sol.mu_jet(x, 0).const) for x in pts)
    L = build_L(model, sol, p)
    P, coeffs = make_projector(L, target=mu_max)
    assert np.max(np.abs(P.matrix @ P.matrix - P.matrix)) < 1e-8
    proj = PolynomialSolution(model, sol, coeffs)
    interior = None
    for x in pts:
        mu = float(proj.mu_jet(x, 0).const)
        if 0.05 < mu < 0.95:
            interior = x
            break
    assert interior is not None
    rep = eigenstructure_report(model, proj, interior)
    assert rep.case == "interior"
    n = model.n
    # multiplicity table: {1 x 2k, 0 x (2n-2k-2), (1-mu) x 2}
    got = dict((round(v, 5), m) for v, m in rep.eigenvalues)
    assert got.get(round(1.0 - rep.mu, 5)) == 2
    ones = sum(m for v, m in rep.eigenvalues if abs(v - 1.0) <= 1e-5)
    zeros = sum(m for v, m in rep.eigenvalues if abs(v) <= 1e-5)
    assert ones == 2 * rep.k
    assert zeros == 2 * n - 2 * rep.k - 2
    assert ones % 2 == 0 and zeros % 2 == 0
    assert rep.lambda_angle < 1e-4
    # scalar-component Hessian identity
    assert np.max(np.abs(hessian_mu_check(model, proj, interior))) < 1e-5
    # the projector's own extended operator has even-dimensional eigenspaces
    Lp = build_L(model, proj, interior)
    w = np.linalg.eigvals(Lp.matrix).real
    assert np.sum(np.abs(w - 1.0) < 1e-6) % 2 == 0
    assert np.sum(np.abs(w) < 1e-6) % 2 == 0


def test_eigenstructure_critical_point_case(renorm, rng):
    # (g, 0, 1) is the identity projector solution: mu = 1 everywhere, all
    # eigenvalues 1 (the critical-point branch of the classification)
    model, _ = renorm
    p = model.point(rng.uniform(-0.4, 0.4, 4))
    rep = eigenstructure_report(model, TrivialSolution(model, 1.0, B=-1.0), p)
    assert rep.case == "mu_one"
    assert rep.eigenvalues == [(1.0, 4)]
    assert rep.k == 2


def test_eigenstructure_rejects_bad_mu(renorm, rng):
    model, sol = renorm
    p = model.point(rng.uniform(-0.4, 0.4, 4))
    bad = TrivialSolution(model, -3.0, B=-1.0)  # mu = -3 outside [0, 1]
    with pytest.raises(ProjectorConsistencyError):
        eigenstructure_report(model, bad, p)


def test_hessian_mu_trivial_solution(renorm, rng):
    model, _ = renorm
    p = model.point(rng.uniform(-0.5, 0.5, 4))
    triv = TrivialSolution(model, 1.0, B=-1.0)  # (g, 0, 1)
    assert np.max(np.abs(hessian_mu_check(model, triv, p))) < 1e-12


def test_eigenvalue_constancy_along_transport(renorm, rng):
    model, sol = renorm
    base = model.point(np.zeros(4))
    tgt = model.point(rng.uniform(-0.4, 0.4, 4))
    st = ProlongedState(sol.a_jet(base, 0).const, sol.lam_jet(base, 0).const,
                        float(sol.mu_jet(base, 0).const))
    moved = transport_states(model, -1.0, [Segment("c0", base.coords, tgt.coords)],
                             [st], step=1e-3)[0]
    L0 = build_L(model, sol, base).matrix
    m1 = np.zeros((6, 6))
    gm = model.metric_at(tgt)
    ginv = np.linalg.inv(gm)
    J = model.j_matrix()
    m1[0, 0] = m1[1, 1] = moved.mu
    m1[0, 2:] = moved.lam
    m1[1, 2:] = J.T @ moved.lam
    m1[2:, 0] = ginv @ moved.lam
    m1[2:, 1] = ginv @ (J.T @ moved.lam)
    m1[2:, 2:] = ginv @ moved.a
    e0 = np.sort(np.linalg.eigvals(L0).real)
    e1 = np.sort(np.linalg.eigvals(m1).real)
    assert np.max(np.abs(e0 - e1)) < 1e-5


def test_polynomial_solution_needs_minus_one(fs2, pair_sol):
    with pytest.raises(InvalidInputError):
        PolynomialSolution(fs2, pair_sol, [1.0, 0.0])


def test_renormalized_metric_is_positive(renorm, rng):
    # with the constant pinned to -1 the carrying metric must be Riemannian
    model, _ = renorm
    for _ in range(5):
        p = model.point(rng.uniform(-0.7, 0.7, 4))
        assert np.min(np.linalg.eigvalsh(model.metric_at(p))) > 0.0


def test_hat_blocks():
    gm = np.diag([2.0, 2.0, 3.0, 3.0])
    gh = hat_metric(gm)
    assert gh.shape == (6, 6) and gh[0, 0] == 1.0 and gh[5, 5] == 3.0
    from kahlerlab.models import standard_J
    jh = hat_J(standard_J(2))
    assert np.allclose(jh @ jh, -np.eye(6))
