"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); a test
failure marks the criterion red.  Runtime limits are asserted where the
criterion states one.
"""

import json
import time

import numpy as np
import pytest

from kahlerlab.cli import main as cli_main
from kahlerlab.curves import (ORDER_STEPS, ORDER_T_END, integrate_hplanar_batch,
                              killing_integral_drift, line_deviation, rk4_order_ratio)
from kahlerlab.geometry import riemann
from kahlerlab.hproj import (PairSolution, c_identity_check, geom, hpr_residual,
                             lambda_scalar_field)
from kahlerlab.jets import Jet, jet_einsum
from kahlerlab.models import (flat_model, flat_torus, fubini_study,
                              product_model, pullback_fs)
from kahlerlab import prolongation
from kahlerlab.prolongation import (MobilityConfig,
                                    constant_curvature_tensor,
                                    degree_of_mobility, estimate_B,
                                    extended_residual, kernel_certificate,
                                    TannoSolution, laplace_identity_residual,
                                    tanno_residual)
from kahlerlab.spectral import (L_product, PolynomialSolution, build_L,
                                eigenstructure_report, hessian_mu_check,
                                make_projector, minimal_poly,
                                renormalize_to_minus_one)
from conftest import passed
from oracles import killing_residual

B_FS = -0.25
N_COMPLEX = 2


@pytest.fixture(scope="module")
def fs():
    return fubini_study(N_COMPLEX)


@pytest.fixture(scope="module")
def pair(fs):
    gbar = pullback_fs(np.diag([2.0, 1.0, 1.0]))
    return PairSolution(fs, gbar, B=B_FS)


@pytest.fixture(scope="module")
def renorm(fs, pair):
    return renormalize_to_minus_one(fs, pair)


def _announce(num, label, ok, detail, elapsed, limit=None):
    status = "PASS" if ok else "FAIL"
    budget = f" [{elapsed:.1f}s / {limit:.0f}s]" if limit else f" [{elapsed:.1f}s]"
    print(f"[{status}] criterion {num:2d} {label}: {detail}{budget}")
    assert ok, f"criterion {num} failed: {detail}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded runtime: {elapsed:.1f}s"


def test_criterion_01_kahler_verification(fs):
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    tol = 1e-8
    worst = 0.0
    models = [flat_model(2), fs,
              product_model([flat_model(2), flat_model(2), flat_model(2)],
                            [1.0, 2.0, 0.5])]
    ok = True
    for model in models:
        for chart in sorted(model.charts):
            rep = model.verify(rng, count=20, tol=tol, chart=chart)
            worst = max(worst, max(rep.residuals.values()))
            ok = ok and passed(rep)
    _announce(1, "Kähler verification", ok and worst < tol,
              f"max residual {worst:.2e} < 1e-8", time.monotonic() - t0, 5.0)


def test_criterion_02_constant_holomorphic_curvature(fs):
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        p = fs.point(rng.uniform(-0.8, 0.8, 4))
        g = geom(fs, p, 2)
        R = riemann(g["gamma"])
        G = R + 4.0 * B_FS * constant_curvature_tensor(g["g"].const, g["J"])
        worst = max(worst, float(np.max(np.abs(G))))
    _announce(2, "constant holomorphic curvature", worst < 1e-7,
              f"max |R + 4BK| = {worst:.2e} < 1e-7", time.monotonic() - t0, 10.0)


def lambda_bar_field(model, sol):
    """The raised J-rotated 1-form of a solution as a jet-evaluable vector
    field (the candidate Killing direction)."""

    def v(xs):
        if isinstance(xs[0], Jet):
            pt = model.point([x.const for x in xs])
            order = xs[0].space.order
            g = geom(model, pt, order)
            lam = sol.lam_jet(pt, order)
            lbar = jet_einsum("ai,a->i", g["J"], lam)
            up = jet_einsum("ia,a->i", g["ginv"].truncate(lbar.space.order), lbar)
            return [up[i] for i in range(model.dim)]
        pt = model.point([float(x) for x in xs])
        return list(sol.lambda_bar_vector_at(pt))

    return v


def test_criterion_03_hprojective_pair(fs, pair):
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    pts = [fs.point(rng.uniform(-0.7, 0.7, 4)) for _ in range(20)]
    worst_hpr = max(float(np.max(np.abs(hpr_residual(fs, pair, p)))) for p in pts)
    lam_max = max(float(np.max(np.abs(pair.lam_at(p)))) for p in pts)
    vf = lambda_bar_field(fs, pair)
    worst_kill = max(float(np.max(np.abs(killing_residual(fs, vf, p))))
                     for p in pts)
    ok = worst_hpr < 1e-7 and lam_max > 1e-4 and worst_kill < 1e-7
    _announce(3, "h-projective pair", ok,
              f"hpr {worst_hpr:.2e} < 1e-7, |lambda| {lam_max:.2e} > 0, "
              f"killing {worst_kill:.2e} < 1e-7", time.monotonic() - t0, 10.0)


def test_criterion_04_B_estimation(fs, pair):
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    values = [estimate_B(fs, pair, fs.point(rng.uniform(-0.7, 0.7, 4)))[0]
              for _ in range(10)]
    spread = float(np.max(values) - np.min(values))
    err = abs(float(np.mean(values)) - (-0.25))
    ok = err < 1e-4 and spread < 1e-4
    _announce(4, "B estimation and constancy", ok,
              f"B = {np.mean(values):+.6f} (err {err:.1e} < 1e-4), "
              f"spread {spread:.1e} < 1e-4", time.monotonic() - t0)


def test_criterion_05_degree_of_mobility(fs):
    t0 = time.monotonic()
    rng = np.random.default_rng(105)
    cfg = MobilityConfig(step=2e-3)

    # the kernel certificate re-imposes the constraint rows at fresh points
    # (and, on a torus, around a lattice loop from each): a wrong kernel fails
    rep_fs = degree_of_mobility(fs, B_FS, fs.point(np.zeros(4)), cfg)
    fresh = [rng.uniform(-0.25, 0.25, 4) for _ in range(10)]
    ver_fs = kernel_certificate(fs, rep_fs.B, rep_fs.base_point, rep_fs.basis, fresh)

    torus = flat_torus(2, 1.0)
    rep_t = degree_of_mobility(torus, 0.0, torus.point(np.zeros(4)), cfg)
    lam_t = max(float(np.max(np.abs(s.lam))) for s in rep_t.basis)
    ver_t = kernel_certificate(torus, rep_t.B, rep_t.base_point, rep_t.basis,
                               [rng.uniform(-0.3, 0.3, 4) for _ in range(10)])

    prod = product_model([flat_torus(2, 1.0), flat_torus(2, 1.0),
                          flat_torus(2, 1.0)])
    rep_p = degree_of_mobility(prod, 0.0, prod.point(np.zeros(12)), cfg)
    # the three block-scaling solutions must lie in the kernel span
    kernel = prolongation._pack(*prolongation._stack(rep_p.basis))
    block_err = 0.0
    for fi in range(3):
        a = np.zeros((12, 12))
        a[4 * fi:4 * fi + 4, 4 * fi:4 * fi + 4] = np.eye(4)
        target = prolongation._pack(a[None], np.zeros((1, 12)), np.zeros(1))[0]
        coef, *_ = np.linalg.lstsq(kernel.T, target, rcond=None)
        block_err = max(block_err, float(np.max(np.abs(kernel.T @ coef - target))))

    elapsed = time.monotonic() - t0
    ok = (rep_fs.dimension == 9 and ver_fs < 1e-5
          and rep_t.dimension == 4 and lam_t < 1e-8 and ver_t < 1e-5
          and rep_p.dimension >= 3 and block_err < 1e-8)
    _announce(5, "degree of mobility", ok,
              f"FS dim {rep_fs.dimension} (=9, certificate {ver_fs:.1e}), "
              f"torus dim {rep_t.dimension} (=4, |lam| {lam_t:.1e}, "
              f"certificate {ver_t:.1e}), "
              f"product dim {rep_p.dimension} (>=3, blocks {block_err:.1e})",
              elapsed, 60.0)


def test_criterion_06_extended_operator_algebra(fs, pair, renorm):
    t0 = time.monotonic()
    rng = np.random.default_rng(106)
    model, sol = renorm
    pts = [model.point(rng.uniform(-0.6, 0.6, 4)) for _ in range(5)]
    sq = PolynomialSolution(model, sol, [1.0, 0.0, 0.0])
    worst_sq = 0.0
    for p in pts:
        r1, r2, r3 = extended_residual(model, sq, p)
        worst_sq = max(worst_sq, float(np.max(np.abs(r1))),
                       float(np.max(np.abs(r2))), float(np.max(np.abs(r3))))
    L = build_L(model, sol, pts[0])
    _, _, conds = L_product(model, L, L, pts[0])
    mp1 = minimal_poly(build_L(model, sol, pts[1]))
    mp2 = minimal_poly(build_L(model, sol, pts[2]))
    dist = (float(np.max(np.abs(mp1.coefficients - mp2.coefficients)))
            if mp1.degree == mp2.degree else float("inf"))
    ok = (worst_sq < 1e-5 and conds["cond_mixed"] < 1e-8
          and conds["cond_isotropy"] < 1e-8 and dist < 1e-5)
    _announce(6, "extended-operator algebra", ok,
              f"L^2 residual {worst_sq:.2e} < 1e-5, closure "
              f"({conds['cond_mixed']:.1e}, {conds['cond_isotropy']:.1e}) < 1e-8, "
              f"minpoly distance {dist:.2e} < 1e-5", time.monotonic() - t0, 10.0)


def test_criterion_07_projector_eigenstructure(renorm):
    t0 = time.monotonic()
    rng = np.random.default_rng(107)
    model, sol = renorm
    pts = [model.point(rng.uniform(-0.7, 0.7, 4)) for _ in range(40)]
    mu_max = max(float(sol.mu_jet(p, 0).const) for p in pts)
    L = build_L(model, sol, pts[0])
    P, coeffs = make_projector(L, target=mu_max)
    proj = PolynomialSolution(model, sol, coeffs)
    interior = next(p for p in pts
                    if 0.05 < float(proj.mu_jet(p, 0).const) < 0.95)
    rep = eigenstructure_report(model, proj, interior)
    n = model.n
    ones = sum(m for v, m in rep.eigenvalues if abs(v - 1.0) <= 1e-5)
    mids = sum(m for v, m in rep.eigenvalues if abs(v - (1.0 - rep.mu)) <= 1e-5)
    zeros = sum(m for v, m in rep.eigenvalues if abs(v) <= 1e-5)
    mult_ok = (ones == 2 * rep.k and mids == 2
               and zeros == 2 * n - 2 * rep.k - 2
               and ones + mids + zeros == 2 * n)
    hess = float(np.max(np.abs(hessian_mu_check(model, proj, interior))))
    ok = mult_ok and rep.lambda_angle < 1e-4 and hess < 1e-5
    _announce(7, "projector eigenstructure", ok,
              f"multiplicities (1x{ones}, mid x{mids}, 0x{zeros}) at mu={rep.mu:.3f}, "
              f"angle {rep.lambda_angle:.1e} < 1e-4, hessian {hess:.2e} < 1e-5",
              time.monotonic() - t0)


def test_criterion_08_tanno_equivalence(fs, pair):
    t0 = time.monotonic()
    rng = np.random.default_rng(108)
    pts = [fs.point(rng.uniform(-0.6, 0.6, 4)) for _ in range(8)]
    f_fn = lambda_scalar_field(fs, pair)
    worst_t = max(float(np.max(np.abs(tanno_residual(fs, f_fn, B_FS, p))))
                  for p in pts)
    worst_l = max(float(np.max(np.abs(laplace_identity_residual(fs, pair, p))))
                  for p in pts)
    ext = TannoSolution(fs, f_fn, B_FS)
    gm0 = fs.metric_at(pts[0])
    worst_rt = 0.0
    for p in pts[:5]:
        g = fs.metric_at(p)
        da = pair.a_jet(p, 0).const - ext.a_jet(p, 0).const
        dl = pair.lam_jet(p, 0).const - ext.lam_jet(p, 0).const
        dm = float(pair.mu_jet(p, 0).const - ext.mu_jet(p, 0).const)
        tt = float(np.sum(g * g) + B_FS ** 2)
        proj = (float(np.sum(da * g)) + dm * (-B_FS)) / tt
        worst_rt = max(worst_rt, float(np.max(np.abs(da - proj * g))),
                       float(np.max(np.abs(dl))), abs(dm - proj * (-B_FS)))
    ok = worst_t < 1e-5 and worst_rt < 1e-6 and worst_l < 1e-5
    _announce(8, "Tanno equivalence", ok,
              f"residual {worst_t:.2e} < 1e-5, round trip {worst_rt:.2e} < 1e-6, "
              f"contracted identity {worst_l:.2e} < 1e-5",
              time.monotonic() - t0, 10.0)


def test_criterion_09_hplanar_curves(fs):
    t0 = time.monotonic()
    rng = np.random.default_rng(109)
    count = 10
    x0s = [fs.point(rng.uniform(-0.3, 0.3, 4)) for _ in range(count)]
    v0s = [rng.uniform(-0.7, 0.7, 4) for _ in range(count)]
    als = [float(rng.uniform(-0.3, 0.3)) for _ in range(count)]
    bes = [float(rng.uniform(-0.5, 0.5)) for _ in range(count)]
    # the order check's ladder, from curve 0's data, rides in the same batch
    k = len(ORDER_STEPS)
    batch = integrate_hplanar_batch(fs, x0s + x0s[:1] * k, v0s + v0s[:1] * k,
                                    als + als[:1] * k, bes + bes[:1] * k,
                                    [1.0] * count + [ORDER_T_END] * k,
                                    [1e-3] * count + list(ORDER_STEPS))
    curves, ladder = batch[:count], batch[count:]
    worst = max(line_deviation(fs, c, x0s[i], v0s[i])
                for i, c in enumerate(curves))
    ratio = rk4_order_ratio([c.X[-1] for c in ladder])
    ok = worst < 1e-6 and 12.0 <= ratio <= 20.0
    _announce(9, "h-planar curves", ok,
              f"max line deviation {worst:.2e} < 1e-6, RK4 ratio {ratio:.1f} in [12, 20]",
              time.monotonic() - t0, 20.0)


def test_criterion_10_killing_integral(fs, pair):
    t0 = time.monotonic()
    rng = np.random.default_rng(110)
    vf = lambda pt: pair.lambda_bar_vector_at(pt)
    x0s = [fs.point(rng.uniform(-0.25, 0.25, 4)) for _ in range(5)]
    v0s = [rng.uniform(-0.7, 0.7, 4) for _ in range(5)]
    geos = integrate_hplanar_batch(fs, x0s, v0s, [0.0] * 5, [0.0] * 5, 1.0, 2e-3)
    worst = max(killing_integral_drift(fs, geo, vf, stride=25) for geo in geos)
    _announce(10, "Killing integral", worst < 1e-7,
              f"max drift {worst:.2e} < 1e-7", time.monotonic() - t0, 5.0)


def test_criterion_11_c_identity(fs):
    t0 = time.monotonic()
    rng = np.random.default_rng(111)
    solA = PairSolution(fs, pullback_fs(np.diag([2.0, 1.0, 1.0])))
    solB = PairSolution(fs, pullback_fs(np.diag([1.0, 3.0, 1.0])))
    warn = []
    worst = max(c_identity_check(fs, solA, solB,
                                 fs.point(rng.uniform(-0.6, 0.6, 4)), warn)
                for _ in range(10))
    ok = worst < 1e-6 and not warn
    _announce(11, "compatibility endpoint identity", ok,
              f"max |c| = {worst:.2e} < 1e-6", time.monotonic() - t0)


def test_criterion_12_determinism(tmp_path):
    t0 = time.monotonic()
    A = [[[2, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
         [[0, 0], [0, 0], [1, 0]]]
    a_path = tmp_path / "A.json"
    a_path.write_text(json.dumps(A))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = cli_main(["hpr-check", "--n", "2", "--A-file", str(a_path),
                         "--samples", "4", "--seed", "42", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    outs2 = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        code = cli_main(["mobility", "--model", "torus", "--n", "2", "--B", "0",
                         "--seed", "9", "--out", str(out)])
        assert code == 0
        outs2.append(out.read_bytes())
    ok = outs[0] == outs[1] and outs2[0] == outs2[1]
    _announce(12, "determinism", ok, "repeated runs byte-identical",
              time.monotonic() - t0)
