import numpy as np
import pytest

from kahlerlab.errors import InvalidInputError, OutOfDomainError, ProportionalSolutionError
from kahlerlab.geometry import riemann
from kahlerlab.hproj import curvature_condition, geom
from kahlerlab.jets import Jet, jet_space
from kahlerlab.models import (flat_torus, fubini_study, product_model, pullback_fs,
                              rescale_model)
from kahlerlab import prolongation
from kahlerlab.prolongation import (ROW_FLOOR, SVD_TOL, MobilityConfig, ProlongedState,
                                    Segment, TannoSolution, constant_curvature_tensor,
                                    degree_of_mobility, estimate_B,
                                    extended_residual, fiber_basis,
                                    frobenius_complete, kernel_certificate,
                                    lattice_loops, laplace_identity_residual,
                                    rectangle_loop, tanno_residual,
                                    transport_states)
from kahlerlab.tensors import hermitize
from conftest import traced_peak
from oracles import (ExplicitSolution, TrivialSolution, fiber_frame_reference,
                     oracle_geometry, rhs_einsum, stage_matrices_reference,
                     stepwise_transport, zero_vec_jet)


def _packed(states):
    """A list of ProlongedState as the rows of one matrix."""
    return prolongation._pack(*prolongation._stack(states))


def _field_state(sol, p):
    """The fiber state (a, lambda, mu) of a solution field at p."""
    return ProlongedState(sol.a_jet(p, 0).const, sol.lam_jet(p, 0).const,
                          sol.mu_jet(p, 0).const)


def _curvature_B_condition(model, B, sol, p):
    """The curvature condition on a field's a at p, with nabla lambda = B a."""
    g = geom(model, p, 2)
    a = sol.a_jet(p, 0).const
    return curvature_condition(a, B * a, riemann(g["gamma"]), g["g"].const, g["J"])


def test_extended_residual_trivial_solution(fs2, rng):
    for B in (1.0, -0.25, 0.0):
        triv = TrivialSolution(fs2, 1.0, B=B)
        p = fs2.point(rng.uniform(-0.6, 0.6, 4))
        r1, r2, r3 = extended_residual(fs2, triv, p)
        assert np.max(np.abs(r1)) < 1e-14
        assert np.max(np.abs(r2)) == 0.0
        assert np.max(np.abs(r3)) == 0.0


def test_extended_residual_pair_with_fitted_mu(fs2, pair_sol, rng):
    for _ in range(5):
        p = fs2.point(rng.uniform(-0.6, 0.6, 4))
        r1, r2, r3 = extended_residual(fs2, pair_sol, p)
        assert np.max(np.abs(r1)) < 1e-6
        assert np.max(np.abs(r2)) < 1e-6
        assert np.max(np.abs(r3)) < 1e-6


def test_extended_residual_tracks_mu_perturbation(fs2, pair_sol, rng):
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    eps = 1e-2

    def mu_pert(point, order):
        return pair_sol.mu_jet(point, order) + eps

    pert = ExplicitSolution(fs2, pair_sol.a_jet, lam_builder=pair_sol.lam_jet,
                            mu_builder=mu_pert, B=-0.25)
    _, r2, _ = extended_residual(fs2, pert, p)
    gm = fs2.metric_at(p)
    assert abs(np.max(np.abs(r2)) - eps * np.max(np.abs(gm))) < 1e-6


def test_estimate_B_constancy_on_pair(fs2, pair_sol, rng):
    values = []
    for _ in range(10):
        p = fs2.point(rng.uniform(-0.7, 0.7, 4))
        B, fit = estimate_B(fs2, pair_sol, p)
        values.append(B)
        assert fit < 1e-10
    assert abs(np.mean(values) + 0.25) < 1e-5
    assert np.max(values) - np.min(values) < 1e-4


def test_estimate_B_rejects_proportional(fs2, rng):
    triv = TrivialSolution(fs2, 2.0, B=-0.25)
    with pytest.raises(ProportionalSolutionError):
        estimate_B(fs2, triv, fs2.point(rng.uniform(-0.5, 0.5, 4)))


def test_estimate_B_flat_torus_constant_solution(torus2, rng):
    from kahlerlab.hproj import hermitian_symmetric_basis
    a0 = hermitian_symmetric_basis(torus2.j_matrix())[1]

    def const_a(point, order):
        return Jet.constant(jet_space(4, order), a0)

    sol = ExplicitSolution(torus2, const_a,
                           lam_builder=lambda pt, o: zero_vec_jet(torus2, o))
    B, fit = estimate_B(torus2, sol, torus2.point(rng.uniform(-0.3, 0.3, 4)))
    assert B == 0.0 and fit == 0.0


def test_curvature_condition_and_gform_equivalence(fs2, pair_sol, rng):
    # residual of the compatibility condition == contraction with R + 4BK
    B = -0.25
    for _ in range(3):
        p = fs2.point(rng.uniform(-0.6, 0.6, 4))
        res = _curvature_B_condition(fs2, B, pair_sol, p)
        assert np.max(np.abs(res)) < 1e-6
        g = geom(fs2, p, 2)
        R = riemann(g["gamma"])
        G = R + 4.0 * B * constant_curvature_tensor(g["g"].const, g["J"])
        a = pair_sol.a_jet(p, 0).const
        gform = (np.einsum("ia,ajkl->ijkl", a, G)
                 + np.einsum("ja,aikl->ijkl", a, G))
        assert np.max(np.abs(res - gform)) < 1e-10
        # wrong constant leaves a visible residual
        assert np.max(np.abs(_curvature_B_condition(fs2, 1.0, pair_sol, p))) > 1e-2


def test_constant_curvature_tensor_properties(fs2, rng):
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    gm = fs2.metric_at(p)
    J = fs2.j_matrix()
    K = constant_curvature_tensor(gm, J)
    Klow = np.einsum("ia,ajkl->ijkl", gm, K)
    assert np.max(np.abs(Klow + np.einsum("jikl->ijkl", Klow))) < 1e-12
    assert np.max(np.abs(Klow - np.einsum("klij->ijkl", Klow))) < 1e-12
    bianchi = (Klow + np.einsum("iklj->ijkl", Klow) + np.einsum("iljk->ijkl", Klow))
    assert np.max(np.abs(bianchi)) < 1e-12
    for _ in range(5):
        v = rng.normal(size=4)
        Jv = J @ v
        Kv = np.einsum("ijkl,j,k,l->i", K, Jv, v, Jv)
        H = (gm @ Kv) @ v / (v @ gm @ v) ** 2
        assert abs(H - 1.0) < 1e-12


def test_transport_trivial_state_follows_metric(fs2, rng):
    B = -0.25
    p0 = fs2.point(np.zeros(4))
    p1 = fs2.point(rng.uniform(-0.5, 0.5, 4))
    st = ProlongedState(fs2.metric_at(p0), np.zeros(4), -B)
    out = transport_states(fs2, B, [Segment("c0", p0.coords, p1.coords)], [st], step=1e-3)[0]
    assert np.max(np.abs(out.a - fs2.metric_at(p1))) < 1e-10
    assert np.max(np.abs(out.lam)) < 1e-12
    assert abs(out.mu + B) < 1e-12


def test_transport_matches_field_solution(fs2, pair_sol, rng):
    base = fs2.point(np.array([0.05, -0.1, 0.2, 0.1]))
    target = fs2.point(rng.uniform(-0.5, 0.5, 4))
    st = _field_state(pair_sol, base)
    out = transport_states(fs2, -0.25, [Segment("c0", base.coords, target.coords)],
                           [st], step=1e-3)[0]
    ref = _field_state(pair_sol, target)
    assert np.max(np.abs(out.a - ref.a)) < 1e-6
    assert np.max(np.abs(out.lam - ref.lam)) < 1e-6
    assert abs(out.mu - ref.mu) < 1e-6


def test_transport_linearity_and_zero_state(fs2, pair_sol, rng):
    B = -0.25
    base = fs2.point(np.zeros(4))
    tgt = rng.uniform(-0.4, 0.4, 4)
    seg = [Segment("c0", base.coords, tgt)]
    s1 = _field_state(pair_sol, base)
    s2 = ProlongedState(fs2.metric_at(base), np.zeros(4), -B)
    al, be = 0.6, -1.7
    combo = ProlongedState(al * s1.a + be * s2.a, al * s1.lam + be * s2.lam,
                           al * s1.mu + be * s2.mu)
    o1, o2, oc = transport_states(fs2, B, seg, [s1, s2, combo], step=2e-3)
    assert np.max(np.abs(oc.a - al * o1.a - be * o2.a)) < 1e-10
    assert np.max(np.abs(oc.lam - al * o1.lam - be * o2.lam)) < 1e-10
    assert abs(oc.mu - al * o1.mu - be * o2.mu) < 1e-10
    zero = ProlongedState(np.zeros((4, 4)), np.zeros(4), 0.0)
    oz = transport_states(fs2, B, seg, [zero], step=5e-3)[0]
    assert np.max(np.abs(oz.a)) == 0.0 and np.max(np.abs(oz.lam)) == 0.0
    assert oz.mu == 0.0


def test_transport_path_independence(fs2, pair_sol, rng):
    B = -0.25
    base = fs2.point(np.zeros(4))
    tgt = np.array([0.3, -0.2, 0.25, 0.15])
    mid = np.array([0.35, 0.3, -0.1, 0.0])
    # a field solution, and a pure-a fiber direction (kernel element on this
    # model, where the compatibility constraints vanish identically)
    states = [_field_state(pair_sol, base), fiber_basis(fs2)[0]]
    for st in states:
        direct = transport_states(fs2, B, [Segment("c0", base.coords, tgt)], [st],
                                  step=1e-3)[0]
        via = transport_states(fs2, B, [Segment("c0", base.coords, mid),
                                        Segment("c0", mid, tgt)], [st], step=1e-3)[0]
        assert np.max(np.abs(direct.a - via.a)) < 1e-5
        assert np.max(np.abs(direct.lam - via.lam)) < 1e-5
        assert abs(direct.mu - via.mu) < 1e-5


def test_transport_domain_error(fs2, rng):
    st = ProlongedState(fs2.metric_at(fs2.point(np.zeros(4))), np.zeros(4), 0.25)
    with pytest.raises(OutOfDomainError):
        transport_states(fs2, -0.25, [Segment("c0", np.zeros(4), np.full(4, 9.0))],
                         [st], step=0.05)


def test_transport_domain_error_reports_the_start_of_the_failing_segment(fs2):
    # the sample is the last point transport reached, inside the chart, with
    # the states carried there along the segments before the failing one
    segments = [Segment("c0", np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0])),
                Segment("c0", np.array([1.0, 0.0, 0.0, 0.0]), np.array([5.0, 0.0, 0.0, 0.0]))]
    states = prolongation._stack(fiber_basis(fs2))
    with pytest.raises(OutOfDomainError) as err:
        prolongation._transport_batch(fs2, -0.25, segments, *states, 2e-3)
    point, *carried = err.value.last_sample
    assert np.array_equal(point, segments[1].x0) and fs2.chart("c0").contains(point)
    ref = prolongation._transport_batch(fs2, -0.25, segments[:1], *states, 2e-3)
    assert all(np.array_equal(c, r) for c, r in zip(carried, ref))


def test_frobenius_completion_matches_pair_jets(fs2, pair_sol, rng):
    # jets completed from the fiber state agree with the closed-form field
    p = fs2.point(rng.uniform(-0.4, 0.4, 4))
    st = _field_state(pair_sol, p)
    a_j, lam_j, mu_j = frobenius_complete(fs2, -0.25, p, st, 2)
    a_ref = pair_sol.a_jet(p, 2)
    lam_ref = pair_sol.lam_jet(p, 2)
    mu_ref = pair_sol.mu_jet(p, 2)
    assert np.max(np.abs(a_j.coef - a_ref.coef)) < 1e-9
    assert np.max(np.abs(lam_j.coef - lam_ref.coef)) < 1e-9
    assert np.max(np.abs(mu_j.coef - mu_ref.coef)) < 1e-9


def _taylor_at(jet, dx):
    """A jet's Taylor polynomial evaluated at the displacement dx."""
    monomials = np.prod(np.asarray(dx) ** np.array(jet.space.exponents), axis=1)
    return np.tensordot(monomials, jet.coef, axes=1)


def test_curved_transport_matches_the_frobenius_series(fs2):
    # the order-p Taylor series of the solution through a fiber state, read
    # off the system's right-hand side with no RK4, against RK4 transport
    # along the line from p to p + h u: their gap is the series' truncation
    # error O(h^(p+1)), so halving h divides it by about 16 at p = 3
    rng = np.random.default_rng(3)
    B = -0.25
    basis = prolongation._stack(fiber_basis(fs2))
    st = ProlongedState(*(np.tensordot(rng.normal(size=9), x, axes=1) for x in basis))
    p = fs2.point(rng.uniform(-0.3, 0.3, 4))
    u = rng.normal(size=4)
    u /= np.linalg.norm(u)

    def gap(order, h):
        series = frobenius_complete(fs2, B, p, st, order)
        seg = Segment("c0", p.coords, p.coords + h * u)
        ref = transport_states(fs2, B, [seg], [st], step=1e-3)[0]
        return max(np.max(np.abs(_taylor_at(jet, h * u) - r))
                   for jet, r in zip(series, (ref.a, ref.lam, ref.mu)))

    gaps = [gap(3, h) for h in (0.08, 0.04, 0.02)]
    assert all(12.0 <= coarse / fine <= 20.0 for coarse, fine in zip(gaps, gaps[1:])), gaps
    assert gap(5, 0.02) < 1e-7


@pytest.mark.parametrize("name", ["fs2", "fs4", "tori3"])
def test_fiber_basis_is_the_frame_bit_for_bit(name, fs2):
    # the cached frame holds the bytes a fresh hermitian basis gives
    model = {"fs2": fs2, "fs4": fubini_study(4), "tori3": _tori3()}[name]
    basis = fiber_basis(model)
    assert _packed(basis).tobytes() == fiber_frame_reference(model.j_matrix()).tobytes()
    assert not basis[0].a.flags.writeable


def test_fiber_basis_dimension(fs2, torus2):
    assert len(fiber_basis(fs2)) == 9
    assert len(fiber_basis(torus2)) == 9


def test_mobility_flat_torus(torus2, rng):
    report = degree_of_mobility(torus2, 0.0, torus2.point(np.zeros(4)))
    assert report.dimension == 4
    assert report.warning is None
    # oracle: constant hermitian symmetric forms have real dimension n^2
    from kahlerlab.hproj import hermitian_symmetric_basis
    assert len(hermitian_symmetric_basis(torus2.j_matrix())) == 4
    for st in report.basis:
        assert np.max(np.abs(st.lam)) < 1e-8
        assert abs(st.mu) < 1e-8
    _assert_certified(torus2, report, rng)


def test_mobility_sweep_picks_zero_for_torus(torus2, rng):
    cfg = MobilityConfig(step=5e-3)
    report = degree_of_mobility(torus2, None, torus2.point(np.zeros(4)), cfg)
    assert report.B == 0.0
    assert report.dimension == 4
    assert "sweep" in report.warning
    _assert_certified(torus2, report, rng)


def _assert_certified(model, report, rng, count=2):
    fresh = [report.base_point.coords + rng.uniform(-0.2, 0.2, model.dim)
             for _ in range(count)]
    cert = kernel_certificate(model, report.B, report.base_point, report.basis, fresh)
    assert cert <= 1e-8


@pytest.mark.parametrize("name", ["fs2", "torus2"])
def test_certificate_rejects_the_full_fiber_at_B_zero(name, fs2, torus2, rng):
    # the true dimension at B = 0 is 1 on FS n = 2 and 4 on the torus
    model = {"fs2": fs2, "torus2": torus2}[name]
    base = model.point(np.zeros(4))
    fresh = [rng.uniform(-0.2, 0.2, 4) for _ in range(3)]
    assert kernel_certificate(model, 0.0, base, fiber_basis(model), fresh) > 1e-2


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c", [2.0, -3.0])
def test_sweep_finds_B_of_rescaled_fs(n, c):
    # c g has constant holomorphic curvature with B = -1/(4c); the old
    # five-value sweep returned dimension 1 at B = 0 here
    model = rescale_model(fubini_study(n), c)
    report = degree_of_mobility(model, None)
    assert report.dimension == (n + 1) ** 2
    assert abs(report.B + 1.0 / (4.0 * c)) <= 1e-9
    assert report.stabilized and "sweep" in report.warning


@pytest.mark.parametrize("name", ["fs2", "torus2"])
@pytest.mark.parametrize("c", [2.0, -3.0])
def test_rescaling_maps_B_to_B_over_c(name, c, fs2, torus2):
    model = {"fs2": fs2, "torus2": torus2}[name]
    cfg = MobilityConfig(step=5e-3)
    ref = degree_of_mobility(model, None, config=cfg)
    scaled = degree_of_mobility(rescale_model(model, c), None, config=cfg)
    assert scaled.dimension == ref.dimension
    assert abs(scaled.B - ref.B / c) <= 1e-9


def test_truncated_stream_is_not_stabilized(torus2):
    report = degree_of_mobility(torus2, 0.0, config=MobilityConfig(max_batches=2))
    assert report.stabilized is False
    assert len(report.constraint_history) == 2
    assert "truncated" in report.warning


def test_basis_grid_and_certificate_start_at_the_base_point(fs2, rng):
    cfg = MobilityConfig(step=2e-3)
    base = fs2.point(np.array([0.15, -0.1, 0.05, 0.2]))
    report = degree_of_mobility(fs2, -0.25, base, cfg)
    assert report.base_point is base
    grid = prolongation.mobility_basis_grid(fs2, report, [base.coords])
    assert grid[0]["states"] == [s.to_dict() for s in report.basis]
    _assert_certified(fs2, report, rng)


def test_kernel_basis_ignores_row_order(torus2, monkeypatch):
    # the torus kernels are degenerate and exact: an SVD basis of them moves
    # at O(1), and every singular value at round-off, when the constraint
    # rows come in another order; the report must not move at all
    models = [torus2, product_model([torus2] * 3)]
    reports = [degree_of_mobility(m, 0.0) for m in models]
    rows = prolongation._constraint_rows
    monkeypatch.setattr(prolongation, "_constraint_rows",
                        lambda *args: rows(*args)[::-1])
    for model, report in zip(models, reports):
        reversed_rows = degree_of_mobility(model, 0.0)
        for field in ("singular_values", "gap", "dimension", "constraint_history"):
            assert getattr(reversed_rows, field) == getattr(report, field), field
        assert np.max(np.abs(_packed(report.basis) - _packed(reversed_rows.basis))) <= 1e-12
        # the kernel is exact to round-off: no gap, and zeros past the rank
        rank = len(report.singular_values) - report.dimension
        assert report.gap is None
        assert report.singular_values[rank:] == [0.0] * report.dimension
        assert min(report.singular_values[:rank]) > 1.0


def test_row_norms_keep_numpy_sums_without_a_raw_sized_temporary(rng):
    raw = rng.normal(size=(25, 4096)).T       # one column per state, as the rows come
    peak, norms = traced_peak(prolongation._row_norms, raw)
    assert np.array_equal(norms, np.linalg.norm(raw, axis=1))
    assert peak <= 4 * raw.shape[0] * raw.itemsize


def test_canonical_basis_depends_on_the_subspace_only(rng):
    kernel = np.linalg.qr(rng.normal(size=(25, 6)))[0].T
    rotation = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    basis = prolongation._canonical_basis(kernel)
    assert np.max(np.abs(basis @ basis.T - np.eye(6))) <= 1e-14
    assert np.max(np.abs(basis.T @ basis - kernel.T @ kernel)) <= 1e-14
    assert np.max(np.abs(prolongation._canonical_basis(rotation @ kernel) - basis)) <= 1e-12


def test_mobility_fs_off_origin_base(fs2):
    # the estimate must not depend on the base point
    cfg = MobilityConfig(step=2e-3)
    base = fs2.point(np.array([0.15, -0.1, 0.05, 0.2]))
    report = degree_of_mobility(fs2, -0.25, base, cfg)
    assert report.dimension == 9
    assert report.warning is None


def test_mobility_pullback_model(ga_diag, rng):
    # the pullback metric is isometric to the projective one (pullback by a
    # biholomorphism), so it has the same constant and the same full kernel
    cfg = MobilityConfig(step=2e-3)
    report = degree_of_mobility(ga_diag, -0.25, ga_diag.point(np.zeros(4)), cfg)
    assert report.dimension == 9
    _assert_certified(ga_diag, report, rng)


def test_unitary_pullback_has_the_mobility_of_fs(rng):
    # a unitary U is an isometry of Fubini-Study, so pullback_fs(U) has the
    # full kernel at B = -1/4, and the pencil sweep finds that constant
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    model = pullback_fs(U)
    assert degree_of_mobility(model, -0.25).dimension == 9
    report = degree_of_mobility(model, None)
    assert report.dimension == 9 and abs(report.B + 0.25) <= 1e-12


def test_mobility_anisotropic_torus(rng):
    from kahlerlab.models import flat_torus
    tor = flat_torus(2, [2.0, 1.0, 0.8, 1.5])
    report = degree_of_mobility(tor, 0.0, tor.point(np.zeros(4)),
                                MobilityConfig(step=5e-3))
    assert report.dimension == 4
    assert all(np.max(np.abs(s.lam)) < 1e-8 for s in report.basis)
    _assert_certified(tor, report, rng)


def test_mobility_cp3_attains_fiber_bound(rng):
    # dimension-independence of the rank procedure: (n+1)^2 = 16 on CP(3)
    from kahlerlab.models import fubini_study
    fs3 = fubini_study(3)
    cfg = MobilityConfig(step=4e-3)
    report = degree_of_mobility(fs3, -0.25, fs3.point(np.zeros(6)), cfg)
    assert report.dimension == 16
    _assert_certified(fs3, report, rng)


def test_lattice_and_rectangle_loops(torus2):
    loops = lattice_loops(torus2, torus2.point(np.zeros(4)))
    assert len(loops) == 4
    assert all(np.array_equal(loop[0].x1 - loop[0].x0, e)
               for loop, e in zip(loops, np.diag(torus2.periods)))
    rect = rectangle_loop("c0", np.zeros(4), 0, 1, 0.3)
    assert len(rect) == 4
    assert all(np.array_equal(a.x1, b.x0) for a, b in zip(rect, rect[1:]))
    assert np.array_equal(rect[0].x0, rect[3].x1)


def test_batched_geometry_matches_pointwise(fs2, rng):
    from kahlerlab.prolongation import _geo_floats_batch
    X = rng.uniform(-0.6, 0.6, size=(7, 4))
    G, GAM = _geo_floats_batch(fs2, "c0", X)
    for b in range(7):
        gm, gamma = oracle_geometry(fs2.metric_fn("c0"), X[b])
        assert np.max(np.abs(G[b] - gm)) < 1e-14
        assert np.max(np.abs(GAM[b] - gamma)) < 1e-13


def test_batched_geometry_python_call_budget(ga_diag, rng):
    # one order-1 geometry evaluation is a fixed count of Python-level calls
    # (package and numpy wrappers alike), whatever the number of points; the
    # table product and per-variable seeding made 146 of them (numpy 2.4)
    import sys
    X = rng.uniform(-0.5, 0.5, size=(15, 4))
    prolongation._geo_floats_batch(ga_diag, "c0", X)    # jet spaces built
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        prolongation._geo_floats_batch(ga_diag, "c0", X)
    finally:
        sys.setprofile(None)
    assert len(calls) <= 100, sorted(calls)


def test_int_cond_rows_match_residual_operator(fs2, pair_sol, rng):
    from kahlerlab.prolongation import _int_cond_rows
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    g = geom(fs2, p, 2)
    R = riemann(g["gamma"])
    a = pair_sol.a_jet(p, 0).const
    rows = _int_cond_rows(g["g"].const, g["J"], R, -0.25, a[None])
    direct = _curvature_B_condition(fs2, -0.25, pair_sol, p)
    assert np.max(np.abs(rows[:, 0] - direct.ravel())) < 1e-12


def test_tanno_residual_cases(fs2, flat2, pair_sol, rng):
    const_f = lambda xs: 1.37
    p = fs2.point(rng.uniform(-0.4, 0.4, 4))
    assert np.max(np.abs(tanno_residual(fs2, const_f, -0.25, p))) == 0.0

    def quad(xs):
        return xs[0] * xs[0] - 0.5 * xs[1] * xs[3] + 2.0 * xs[2] + 0.3

    pf = flat2.point(rng.uniform(-1, 1, 4))
    assert np.max(np.abs(tanno_residual(flat2, quad, 0.0, pf))) < 1e-14


def test_tanno_solution_validation_and_const(fs2, rng):
    with pytest.raises(InvalidInputError):
        TannoSolution(fs2, lambda xs: 1.0, 0.0)
    kappa = -0.25
    c = 0.8
    sol = TannoSolution(fs2, lambda xs: c, kappa)
    p = fs2.point(rng.uniform(-0.5, 0.5, 4))
    # a = -2 c g, lambda = 0, mu = 2 kappa c
    assert np.max(np.abs(sol.a_jet(p, 0).const + 2 * c * fs2.metric_at(p))) < 1e-12
    assert np.max(np.abs(sol.lam_jet(p, 0).const)) == 0.0
    r1, r2, r3 = extended_residual(fs2, sol, p)
    assert np.max(np.abs(r1)) < 1e-12
    assert np.max(np.abs(r2)) < 1e-12
    assert np.max(np.abs(r3)) == 0.0


def test_laplace_identity(fs2, pair_sol, rng):
    for _ in range(3):
        p = fs2.point(rng.uniform(-0.5, 0.5, 4))
        assert np.max(np.abs(laplace_identity_residual(fs2, pair_sol, p))) < 1e-5
        # a wrong constant shifts the residual by 4 (B - B') (n+1) lambda
        wrong = laplace_identity_residual(fs2, pair_sol, p, B=0.25)
        lam = pair_sol.lam_at(p)
        assert np.max(np.abs(wrong - 4.0 * (-0.5) * 3 * lam)) < 1e-5
    triv = TrivialSolution(fs2, 1.0, B=-0.25)
    assert np.max(np.abs(laplace_identity_residual(fs2, triv, p))) < 1e-12


def test_prolonged_state_pack_roundtrip(rng):
    st = ProlongedState(rng.normal(size=(4, 4)), rng.normal(size=4), 0.3)
    a, lam, mu = prolongation._unpack(_packed([st]), 4)
    assert np.allclose(a[0], st.a)
    assert np.allclose(lam[0], st.lam)
    assert mu[0] == st.mu


def _fs_products():
    from kahlerlab.models import flat_model, fubini_study, product_model
    return {"fs_x_flat": product_model([fubini_study(2), flat_model(2)]),
            "fs_x_fs": product_model([fubini_study(2), fubini_study(2)])}


@pytest.mark.parametrize("name", ["fs_x_flat", "fs_x_fs"])
def test_mobility_product_with_curved_factor(name, rng):
    # (a, lambda, mu) = (g, 0, -B) solves the prolonged system on every
    # model (g is parallel), so it must lie in the returned kernel; at
    # B != 0 a product has no other solution
    model = _fs_products()[name]
    B = -0.25
    base = model.point(np.zeros(8))
    cfg = MobilityConfig(step=5e-3)
    report = degree_of_mobility(model, B, base, cfg)
    assert report.dimension == 1
    # the stop rule fires at the fifth of 33 batches
    assert report.stabilized and report.constraint_history == [15, 19, 24, 24, 24]
    K = _packed(report.basis)
    v = _packed([ProlongedState(model.metric_at(base), np.zeros(8), -B)])[0]
    coef, *_ = np.linalg.lstsq(K.T, v, rcond=None)
    assert np.linalg.norm(K.T @ coef - v) < 1e-10 * np.linalg.norm(v)
    _assert_certified(model, report, rng)


@pytest.mark.parametrize("name", ["fs_x_flat", "fs_x_fs"])
def test_transport_product_with_curved_factor(name):
    # the metric solution is parallel, so it comes back around every loop;
    # the planes mix the two factors and lie inside the curved one
    model = _fs_products()[name]
    B = -0.25
    center = np.array([0.1, -0.05, 0.2, 0.0, 0.1, 0.05, -0.1, 0.15])
    st = ProlongedState(model.metric_at(model.point(center)), np.zeros(8), -B)
    for i, j in ((0, 2), (1, 5), (4, 7)):
        out = transport_states(model, B, rectangle_loop("c0", center, i, j, 0.3), [st],
                               step=5e-3)[0]
        assert np.max(np.abs(out.a - st.a)) < 1e-8
        assert np.max(np.abs(out.lam)) < 1e-8
        assert abs(out.mu - st.mu) < 1e-8


@pytest.mark.parametrize("name,B,dim", [("fs2", -0.25, 9), ("fs2", 0.0, 1),
                                        ("torus2", 0.0, 4), ("fs_x_flat", -0.25, 1)])
def test_full_batch_queue_keeps_the_early_stopped_kernel(name, B, dim, fs2, torus2):
    # the stop rule ends the stream after a few of its batches; the whole
    # queue, stacked and cut by the same rule, has the reported rank, and
    # every batch of it leaves the reported basis
    model = {"fs2": fs2, "torus2": torus2, "fs_x_flat": _fs_products()["fs_x_flat"]}[name]
    cfg = MobilityConfig(step=5e-3) if name == "fs_x_flat" else MobilityConfig()
    base = model.point(np.zeros(model.dim))
    report = degree_of_mobility(model, B, base, cfg)
    assert report.dimension == dim
    basis = fiber_basis(model)
    fiber = prolongation._stack(basis)
    kernel = prolongation._stack(report.basis)
    rows = []
    for batch in prolongation._constraint_batches(model, base, cfg):
        raw = prolongation._constraint_rows(model, B, batch, base, fiber, cfg.step)
        norms = np.linalg.norm(raw, axis=1)
        keep = norms > ROW_FLOOR
        rows.append(raw[keep] / norms[keep, None])
        left = prolongation._constraint_rows(model, B, batch, base, kernel, cfg.step)
        assert np.max(np.abs(left)) <= 1e-10
    sv = np.linalg.svd(np.concatenate(rows), compute_uv=False)
    rank = int(np.sum(sv > SVD_TOL * sv.max(initial=0.0)))    # no rows at all on FS
    assert rank == len(basis) - report.dimension


def test_geometry_leaves_models_untouched(rng):
    # models are immutable: evaluating their geometry adds no attribute
    # (fresh models, so no earlier test has touched them)
    from kahlerlab.models import flat_torus, fubini_study
    from kahlerlab.prolongation import _geo_floats, _geo_floats_batch
    for model in (flat_torus(2), fubini_study(2)):
        before = set(vars(model))
        x = rng.uniform(-0.3, 0.3, 4)
        _geo_floats(model, "c0", x)
        gm, gamma = oracle_geometry(model.metric_fn("c0"), x)
        G, GAM = _geo_floats_batch(model, "c0", x[None])
        assert set(vars(model)) == before
        assert np.max(np.abs(G[0] - gm)) < 1e-14 and np.max(np.abs(GAM[0] - gamma)) < 1e-13


def _tori3():
    return product_model([flat_torus(2, 1.0) for _ in range(3)])


@pytest.mark.parametrize("d", [4, 8, 12])
@pytest.mark.parametrize("batch", [1, "N"])
def test_rhs_matches_einsum_oracle(d, batch, rng):
    N = 1 if batch == 1 else (d // 2 + 1) ** 2
    gm = rng.normal(size=(d, d))
    args = (gm + gm.T, rng.normal(size=(d, d)), rng.normal(size=(d, d, d)),
            rng.normal(size=d), -0.25, rng.normal(size=(N, d, d)),
            rng.normal(size=(N, d)), rng.normal(size=N))
    for got, ref in zip(prolongation._rhs(*args), rhs_einsum(*args)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _transport_model(name, flat2, torus2, ga_diag):
    return {"torus": torus2, "tori3": _tori3(), "flat": flat2, "fs2": fubini_study(2),
            "fs4": fubini_study(4), "pullback": ga_diag,
            "fs_x_flat": _fs_products()["fs_x_flat"]}[name]


@pytest.mark.parametrize("name,B", [("torus", 0.0), ("tori3", 0.0), ("flat", -0.25),
                                    ("fs2", -0.25), ("fs4", -0.25), ("pullback", -0.25),
                                    ("fs_x_flat", -0.25)])
@pytest.mark.parametrize("raw", [True, False])
@pytest.mark.parametrize("batch", [1, "N"])
def test_squared_transport_matches_stepwise(name, B, raw, batch, flat2, torus2, ga_diag,
                                            rng):
    # the segment propagators against one RK4 step after another: a segment
    # of many step blocks, then one shorter than a block (and, on a torus, a
    # lattice loop); raw states (not hermitian) are projected onto the fiber
    # at entry, so they go where their hermitian parts go
    model = _transport_model(name, flat2, torus2, ga_diag)
    x1 = rng.uniform(-0.4, 0.4, model.dim)
    short = 0.5 * prolongation._STEP_BLOCK * 2e-3
    segments = [Segment("c0", np.zeros(model.dim), x1),
                Segment("c0", x1, x1 + short * rng.uniform(-1.0, 1.0, model.dim)
                        / np.sqrt(model.dim))]
    if model.periods is not None:
        segments += lattice_loops(model, model.point(segments[-1].x1))[0]
    N = 1 if batch == 1 else len(fiber_basis(model))
    a, lam, mu = (rng.normal(size=(N, model.dim, model.dim)),
                  rng.normal(size=(N, model.dim)), rng.normal(size=N))
    herm = hermitize(a, model.j_matrix())
    got = prolongation._transport_batch(model, B, segments, a if raw else herm, lam, mu, 2e-3)
    ref = stepwise_transport(model, B, segments, herm, lam, mu, 2e-3)
    scale = max(np.max(np.abs(r)) for r in ref)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) <= 1e-12 * scale


def test_transport_is_fourth_order(fs2):
    # the endpoint error against a run at h/8 drops by 2^4 when h halves,
    # within the bounds of the hplanar rk4_ratio check
    seg = [Segment("c0", np.zeros(4), np.array([0.5, -0.3, 0.2, 0.4]))]
    states = prolongation._stack(fiber_basis(fs2))
    h = seg[0].length / 8

    def run(step):
        return _packed([ProlongedState(*s) for s in zip(*prolongation._transport_batch(
            fs2, -0.25, seg, *states, step))])

    ref = run(h / 8)
    err_h, err_h2 = (np.max(np.abs(run(step) - ref)) for step in (h, h / 2))
    assert err_h2 > 1e-9
    assert 12.0 <= err_h / err_h2 <= 20.0


def test_transport_builds_stages_once_per_block(fs2, flat2, monkeypatch):
    # with J's tables built, the geometry reaches the stage matrices through
    # the table only: _rhs runs once per segment, for the B-terms, on the
    # frame states alone (no stage axis), so neither a call per step or per
    # block nor an _rhs on every (stage, state) pair comes back, whatever
    # the step; a constant segment builds one step the same way
    st = fiber_basis(fs2)[0]
    seg = Segment("c0", np.zeros(4), np.array([0.3, -0.2, 0.1, 0.25]))
    transport_states(fs2, -0.25, [seg], [st], step=0.05)          # builds the C rows
    shapes = []
    rhs = prolongation._rhs

    def counted(*args):
        out = rhs(*args)
        shapes.append(out[0].shape)
        return out

    monkeypatch.setattr(prolongation, "_rhs", counted)
    N = len(fiber_basis(fs2))
    for step in (0.05, 2e-3, seg.length / prolongation._STEP_BLOCK):
        shapes.clear()
        transport_states(fs2, -0.25, [seg], [st], step=step)
        assert shapes == [(N, 4, 4)]
    shapes.clear()
    transport_states(flat2, -0.25, [seg, seg], [st], step=2e-3)
    assert shapes == [(N, 4, 4)] * 2


@pytest.mark.parametrize("d,J", [(4, "standard"), (8, "standard"), (12, "standard"),
                                 (4, "conjugated")])
def test_tabulated_stage_matrices_match_the_per_state_reference(d, J, rng):
    # A_B + phi T against the right-hand side on every (stage, basis state)
    # pair, at random symmetric g, random Gamma and xdot, and B != 0; a
    # conjugated J has no 0 / +-1 pattern for the probe covectors to lean on
    from kahlerlab.models import standard_J
    Jm = standard_J(d // 2)
    if J == "conjugated":
        P = np.eye(d) + 0.3 * rng.normal(size=(d, d))
        Jm = P @ Jm @ np.linalg.inv(P)
    tables = prolongation._fiber_tables(Jm)
    G = rng.normal(size=(5, d, d))
    G, GAM, xdot = G + np.swapaxes(G, 1, 2), rng.normal(size=(5, d, d, d)), rng.normal(size=d)
    B = -0.3
    A_B = tables.b_term(xdot, B)
    for curved, gam in ((True, GAM), (False, np.zeros_like(GAM))):
        got = prolongation._stage_matrices(tables, G, gam, xdot, A_B, curved)
        ref = stage_matrices_reference(G, Jm, gam, xdot, B)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_fiber_tables_are_built_once_per_J_and_read_only(fs2, ga_diag, monkeypatch):
    # one entry per J (FS n = 2 and a pullback share theirs): its 2d g rows
    # with the entry, its d^2 C rows on the first curved segment only, one
    # frame for the whole B sweep; and nothing the cache holds can be
    # written or keeps a model alive
    import gc
    import weakref
    prolongation._tables_by_bytes.cache_clear()
    built, herm = [], []
    tabulate, basis = prolongation._FiberTables._tabulate, prolongation.hermitian_symmetric_basis
    monkeypatch.setattr(prolongation._FiberTables, "_tabulate",
                        lambda self, *args: built.append(args[:2]) or tabulate(self, *args))
    monkeypatch.setattr(prolongation, "hermitian_symmetric_basis",
                        lambda J: herm.append(1) or basis(J))
    seg = Segment("c0", np.zeros(4), np.array([0.3, -0.2, 0.1, 0.25]))
    report = degree_of_mobility(fs2, None, config=MobilityConfig(max_batches=3))
    for model in (fs2, ga_diag, fs2):
        transport_states(model, -0.25, [seg], fiber_basis(model)[:2], step=2e-3)
    assert herm == [1] and built == [(0, 8), (8, 24)] and report.dimension == 9
    assert prolongation._tables_by_bytes.cache_info().currsize == 1
    tables = prolongation._fiber_tables(fs2.j_matrix())
    arrays = [tables.J, tables.frame, tables.g_rows, tables.c_rows(), *tables.states]
    assert not any(arr.flags.writeable for arr in arrays)
    model = fubini_study(2)
    ref = weakref.ref(model)
    transport_states(model, -0.25, [seg], fiber_basis(model)[:1], step=2e-3)
    del model
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", ["torus", "tori3"])
def test_mobility_kernel_matches_stepwise(name, torus2, monkeypatch, rng):
    model = torus2 if name == "torus" else _tori3()
    base = model.point(np.zeros(model.dim))

    def projector(report):
        q, _ = np.linalg.qr(_packed(report.basis).T)
        return q @ q.T

    propagated = degree_of_mobility(model, 0.0, base)
    _assert_certified(model, propagated, rng)
    monkeypatch.setattr(prolongation, "_transport_batch", stepwise_transport)
    stepwise = degree_of_mobility(model, 0.0, base)
    assert propagated.dimension == stepwise.dimension == model.n ** 2
    assert propagated.constraint_history == stepwise.constraint_history
    assert np.max(np.abs(projector(propagated) - projector(stepwise))) <= 1e-10


def test_certificate_of_a_non_finite_state_is_non_finite(fs2, rng):
    # max(worst, nan) keeps worst: the certificate must not pass a NaN state
    base = fs2.point(np.zeros(4))
    fresh = [rng.uniform(-0.2, 0.2, 4) for _ in range(3)]
    basis = fiber_basis(fs2)                   # the whole kernel at B = -1/4
    bad = ProlongedState(basis[0].a * np.nan, basis[0].lam, basis[0].mu)
    assert kernel_certificate(fs2, -0.25, base, basis[:2], fresh) <= 1e-8
    assert np.isnan(kernel_certificate(fs2, -0.25, base, [bad], fresh))
    assert np.isnan(kernel_certificate(fs2, -0.25, base, [basis[1], bad], fresh))
