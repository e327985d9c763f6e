import numpy as np
import pytest

from kahlerlab.curves import (ORDER_STEPS, ORDER_T_END, CurveSample, energy_drift,
                              hplanarity_defect, integrate_hplanar,
                              integrate_hplanar_batch, killing_integral_drift,
                              line_deviation,
                              reparametrization_invariance_check, rk4_order_ratio)
from kahlerlab.errors import (InvalidInputError, OutOfDomainError,
                              UnsupportedModelError)
from kahlerlab.hproj import geom
from kahlerlab.models import ChartPoint, flat_model, fubini_study, pullback_fs
from oracles import (curve_defects, oracle_geometry, pairing_drift,
                     projective_line_deviation)


def test_flat_straight_line(flat2):
    x0 = flat2.point([0.1, 0.2, -0.3, 0.4])
    v0 = np.array([0.3, -0.2, 0.5, 0.1])
    c = integrate_hplanar(flat2, x0, v0, 0.0, 0.0, 1.0, 1e-2)
    assert np.max(np.abs(c.X[-1] - (x0.coords + v0))) < 1e-10
    assert line_deviation(flat2, c, x0, v0) < 1e-10


def test_flat_complex_line_membership(flat2):
    x0 = flat2.point([0.0, 0.0, 0.2, -0.1])
    v0 = np.array([1.0, 0.5, -0.2, 0.3])
    c = integrate_hplanar(flat2, x0, v0, alpha=0.2, beta=0.8, t_end=1.0, step=1e-3)
    assert line_deviation(flat2, c, x0, v0) < 1e-8
    assert np.nanmax(hplanarity_defect(flat2, c)) < 1e-6


def test_fs_curves_stay_on_projective_line(fs2, rng):
    for _ in range(3):
        x0 = fs2.point(rng.uniform(-0.3, 0.3, 4))
        v0 = rng.uniform(-0.7, 0.7, 4)
        c = integrate_hplanar(fs2, x0, v0, alpha=lambda t: 0.2 * np.sin(t),
                              beta=lambda t: 0.3 * np.cos(2 * t),
                              t_end=1.0, step=2e-3)
        assert line_deviation(fs2, c, x0, v0) < 1e-6
        assert np.nanmax(hplanarity_defect(fs2, c)) < 1e-6


def test_geodesics_are_planar_and_conserve_energy(fs2, rng):
    x0 = fs2.point(rng.uniform(-0.3, 0.3, 4))
    v0 = rng.uniform(-0.8, 0.8, 4)
    c = integrate_hplanar(fs2, x0, v0, 0.0, 0.0, 1.0, 1e-3)
    assert line_deviation(fs2, c, x0, v0) < 1e-8
    assert energy_drift(fs2, c) < 1e-8


def _non_planar_curve(step=1e-3):
    ts = np.arange(0, 1.0001, step)
    X = np.stack([np.sin(ts), ts, 0.3 * np.cos(2 * ts), 0.1 * ts], axis=1)
    V = np.stack([np.cos(ts), np.ones_like(ts), -0.6 * np.sin(2 * ts),
                  np.full_like(ts, 0.1)], axis=1)
    return CurveSample(ts, ["c0"] * len(ts), X, V)


@pytest.mark.parametrize("step", [1e-3, 3e-3, 7e-3])
def test_accelerations_skip_the_shorter_last_step(fs2, step):
    # t_end = 1 is not a multiple of 3e-3 or 7e-3: the last step is shorter
    # (1e-3, 6e-3), and no stencil across it has one spacing.  Every other
    # covariant acceleration is the right-hand side alpha v + beta J v.
    from kahlerlab.curves import _accelerations
    x0 = fs2.point([0.1, -0.2, 0.05, 0.15])
    c = integrate_hplanar(fs2, x0, [0.3, 0.1, -0.2, 0.4], 0.2, -0.3, t_end=1.0, step=step)
    acc = _accelerations(fs2, c)
    V = c.V[2:-2]
    err = np.linalg.norm(acc - (0.2 * V - 0.3 * V @ fs2.j_matrix().T), axis=1)
    even = np.abs(np.diff(c.times) - step) < 1e-12
    assert np.array_equal(np.isnan(err), ~(even[:-3] & even[1:-2] & even[2:-1] & even[3:]))
    assert np.isnan(err[-1]) == (step != 1e-3)
    assert np.nanmax(err) < 1e-7


def test_non_planar_curve_detected(fs2):
    bad = _non_planar_curve()
    assert np.nanmax(hplanarity_defect(fs2, bad)) > 1e-3
    assert line_deviation(fs2, bad, ChartPoint("c0", bad.X[0]), bad.V[0]) > 1e-3
    passed, d1, d2 = reparametrization_invariance_check(fs2, bad)
    assert passed and np.nanmax(d1) > 1e-3 and d2 > 1e-3


def test_reparametrization_invariance_planar(fs2, rng):
    x0 = fs2.point(rng.uniform(-0.2, 0.2, 4))
    v0 = rng.uniform(-0.6, 0.6, 4)
    c = integrate_hplanar(fs2, x0, v0, 0.1, 0.4, 1.0, 1e-3)
    passed, d1, d2 = reparametrization_invariance_check(fs2, c)
    assert passed and np.nanmax(d1) < 1e-6 and d2 < 1e-6
    line = integrate_hplanar(flat_model(2), flat_model(2).point([0.0] * 4),
                             np.array([1.0, 0, 0, 0]), 0.0, 0.0, 1.0, 1e-2)
    passed, d1, d2 = reparametrization_invariance_check(flat_model(2), line)
    assert passed and np.nanmax(d1) < 1e-8



@pytest.mark.parametrize("case", ["chart_switch", "zero_velocity", "non_planar"])
def test_whole_curve_checks_match_per_sample_reference(fs2, case):
    # the defect, both maxima of the reparametrization check and the two
    # pairing drifts against the one-sample-at-a-time reference: a curve
    # whose stencils straddle a chart switch (NaN rows), one with a sample
    # at v = 0 (defect 0), and a non-planar one
    if case == "chart_switch":
        c = integrate_hplanar(fs2, fs2.point([0.0] * 4), np.array([1.2, 0, 0, 0]),
                              0.1, 0.3, 3.0, 1e-2)
    else:
        c = _non_planar_curve(5e-3)
        if case == "zero_velocity":
            c.V[100] = 0.0
    ref, ref_worst = curve_defects(fs2, c)
    got = hplanarity_defect(fs2, c)
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    assert np.isnan(ref).any() == (case == "chart_switch")
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)
    if case == "zero_velocity":
        assert got[98] == ref[98] == 0.0
    passed, base, worst = reparametrization_invariance_check(fs2, c)
    assert np.array_equal(base, got, equal_nan=True)
    assert worst == pytest.approx(ref_worst, rel=1e-9, abs=1e-12)
    assert (np.nanmax(ref) > 1e-3) == (case != "chart_switch")
    field = lambda pt: np.cos(pt.coords) * (1 + int(pt.chart[1:]))
    for stride in (1, 7):
        assert energy_drift(fs2, c, stride) == pytest.approx(
            pairing_drift(fs2, c, lambda idx: c.V[idx], stride), rel=1e-9, abs=1e-12)
        assert killing_integral_drift(fs2, c, field, stride) == pytest.approx(
            pairing_drift(fs2, c, lambda idx: field(ChartPoint(c.charts[idx], c.X[idx])),
                          stride), rel=1e-9, abs=1e-12)

def _reference_integrate(model, x0, v0, alpha, beta, t_end, step):
    """Per-point RK4 loop with single-point geometry and chart switching,
    for constant or time-dependent alpha and beta: the reference for the
    lockstep batch.  Returns (charts, coords)."""
    chart, x, v = x0.chart, np.array(x0.coords, dtype=float), np.array(v0, dtype=float)
    charts, coords = [chart], [x]

    def acc(xx, vv, t):
        _, gamma = oracle_geometry(model.metric_fn(chart), xx)
        a, b = (c(t) if callable(c) else c for c in (alpha, beta))
        return (-np.einsum("ijk,j,k->i", gamma, vv, vv)
                + a * vv + b * (model.j_matrix(chart) @ vv))

    for s in range(int(np.ceil(t_end / step))):
        t, h = s * step, min(step, t_end - s * step)
        k1x, k1v = v, acc(x, v, t)
        k2x, k2v = v + h / 2 * k1v, acc(x + h / 2 * k1x, v + h / 2 * k1v, t + h / 2)
        k3x, k3v = v + h / 2 * k2v, acc(x + h / 2 * k2x, v + h / 2 * k2v, t + h / 2)
        k4x, k4v = v + h * k3v, acc(x + h * k3x, v + h * k3v, t + h)
        x = x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if not model.chart(chart).contains(x, 0.05):
            pt, v = model.rechart(ChartPoint(chart, x), v)
            chart, x = pt.chart, pt.coords
        charts.append(chart)
        coords.append(x)
    return charts, np.stack(coords)


def test_batch_switches_charts_per_curve(fs2, ga_diag):
    # curve A runs far enough to switch from c0 to c1; curve B stays in c0.
    # The pullback's chart metrics differ, so a curve evaluated in another
    # curve's chart shows there.
    # The second batch runs both curves twice more, each with its own step and
    # end time (partial last steps included), so curves drop out at
    # different ticks and the rest tick on; the last two curves' coefficients
    # depend on t, so each curve's own stage times show.
    for model in (fs2, ga_diag):
        x0s = [model.point([0.0] * 4), model.point([0.1, -0.05, 0.2, 0.0])] * 2
        v0s = [np.array([1.2, 0.0, 0.0, 0.0]), np.array([0.5, 0.2, -0.1, 0.3])] * 2
        alphas = [0.0, -0.2, lambda t: 0.3 * np.sin(2 * t), lambda t: np.polyval([0.5, -0.2], t)]
        betas = [0.0, 0.4, lambda t: np.polyval([0.3, -0.6, 0.1], t), lambda t: 0.4 * np.cos(t)]
        for t_ends, steps in (([3.0] * 2, [1e-2] * 2),
                              ([3.0, 1.234, 2.5, 0.77], [1e-2, 2e-2, 2.5e-2, 3e-3])):
            k = len(steps)
            batch = integrate_hplanar_batch(model, x0s[:k], v0s[:k], alphas[:k],
                                            betas[:k], t_ends, steps)
            for b, curve in enumerate(batch):
                charts, coords = _reference_integrate(model, x0s[b], v0s[b], alphas[b],
                                                      betas[b], t_ends[b], steps[b])
                assert list(curve.charts) == charts
                assert np.max(np.abs(curve.X - coords)) < 1e-12
                assert curve.times[-1] == pytest.approx(t_ends[b], abs=1e-12)
            assert set(batch[0].charts) == {"c0", "c1"}
            assert set(batch[1].charts) == {"c0"}


def test_killing_integral_drift(fs2, pair_sol, rng):
    vf = lambda pt: pair_sol.lambda_bar_vector_at(pt)
    x0 = fs2.point(rng.uniform(-0.2, 0.2, 4))
    v0 = rng.uniform(-0.7, 0.7, 4)
    geo = integrate_hplanar(fs2, x0, v0, 0.0, 0.0, 1.0, 2e-3)
    assert killing_integral_drift(fs2, geo, vf, stride=20) < 1e-7
    assert killing_integral_drift(fs2, geo, lambda pt: np.zeros(4)) == 0.0
    # a gradient field is not Killing: visible drift
    vf2 = lambda pt: geom(fs2, pt, 0)["ginv"].const @ pair_sol.lam_at(pt)
    assert killing_integral_drift(fs2, geo, vf2, stride=20) > 1e-4


def test_rk4_order(fs2, rng):
    k = len(ORDER_STEPS)
    ladder = integrate_hplanar_batch(fs2, [fs2.point([0.1, 0.0, -0.1, 0.2])] * k,
                                     [np.array([0.5, -0.3, 0.2, 0.4])] * k, [0.1] * k,
                                     [0.2] * k, ORDER_T_END, ORDER_STEPS)
    ratio = rk4_order_ratio([c.X[-1] for c in ladder])
    assert 12.0 <= ratio <= 20.0


def test_rk4_order_ratio_reads_the_ladder():
    # endpoints e0 + c h^4 give 16; with c = 1e-5 the finest difference is
    # round-off and the ratio moves up to the coarse triple; equal endpoints
    # give 0.0
    e0 = np.array([0.3, -0.2, 0.1, 0.4])
    assert rk4_order_ratio([e0 + h ** 4 for h in ORDER_STEPS]) == pytest.approx(16.0, rel=1e-6)
    assert rk4_order_ratio([e0 + 1e-5 * h ** 4 for h in ORDER_STEPS]) == pytest.approx(16.0, rel=1e-2)
    assert rk4_order_ratio([e0] * len(ORDER_STEPS)) == 0.0


def test_chart_switching_long_geodesic(fs2):
    c = integrate_hplanar(fs2, fs2.point([0.0] * 4), np.array([1.2, 0, 0, 0]),
                          0.0, 0.0, 3.0, 1e-3)
    assert set(c.charts) == {"c0", "c1"}
    assert energy_drift(fs2, c) < 1e-8


def test_out_of_domain(flat2):
    with pytest.raises(OutOfDomainError) as err:
        integrate_hplanar(flat2, flat2.point([0.0] * 4),
                          np.array([30.0, 0, 0, 0]), 0.0, 0.0, 1.0, 1e-2)
    assert err.value.last_sample is not None
    # in a batch, the error carries the sample of the curve that left
    with pytest.raises(OutOfDomainError) as err:
        integrate_hplanar_batch(flat2, [flat2.point([0.0] * 4)] * 2,
                                [np.array([0.1, 0, 0, 0]), np.array([0, 30.0, 0, 0])],
                                [0.0, 0.0], [0.0, 0.0], 1.0, 1e-2)
    last = err.value.last_sample
    assert np.array_equal(last.V[0], [0, 30.0, 0, 0])
    assert len(last) > 1 and last.X[-1, 1] > 0


def test_torus_wrapping_keeps_curve_inside(torus2):
    c = integrate_hplanar(torus2, torus2.point([0.0] * 4),
                          np.array([1.0, 0.3, 0.0, 0.0]), 0.0, 0.0, 2.0, 1e-2)
    assert np.max(np.abs(c.X)) <= 0.5 + 1e-12


def test_line_deviation_unsupported_model(torus2):
    c = integrate_hplanar(torus2, torus2.point([0.0] * 4),
                          np.array([0.3, 0.0, 0.0, 0.0]), 0.0, 0.0, 1.0, 1e-2)
    with pytest.raises(UnsupportedModelError):
        line_deviation(torus2, c, ChartPoint(c.charts[0], c.X[0]), c.V[0])


def test_curve_sample_validation_and_csv(tmp_path, flat2):
    with pytest.raises(InvalidInputError):
        CurveSample([0.0, 0.0], ["c0"] * 2, np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(InvalidInputError):
        CurveSample([0.0, 1.0], ["c0"] * 2, np.zeros((2, 4)), np.zeros((3, 4)))
    c = integrate_hplanar(flat2, flat2.point([0.0] * 4),
                          np.array([1.0, 0, 0, 0]), 0.0, 0.0, 0.1, 1e-2)
    path = tmp_path / "curve.csv"
    c.export_csv(path, extras={"defect": np.zeros(len(c))})
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,chart,x0,x1,x2,x3,v0,v1,v2,v3,defect"
    assert len(lines) == len(c) + 1


def test_invalid_inputs(flat2):
    with pytest.raises(InvalidInputError):
        integrate_hplanar(flat2, flat2.point([0.0] * 4), np.zeros(4))
    with pytest.raises(InvalidInputError):
        integrate_hplanar(flat2, flat2.point([0.0] * 4), np.ones(4), step=-1.0)
    x0, v0 = flat2.point([0.0] * 4), np.ones(4)
    with pytest.raises(InvalidInputError):
        integrate_hplanar_batch(flat2, [], [], [], [])
    with pytest.raises(InvalidInputError):
        integrate_hplanar_batch(flat2, [x0, x0], [v0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(InvalidInputError):
        integrate_hplanar_batch(flat2, [x0], [v0], [0.0, 0.0], [0.0])
    with pytest.raises(InvalidInputError):
        integrate_hplanar_batch(flat2, [x0, x0], [v0, np.zeros(4)], [0.0] * 2, [0.0] * 2)
    with pytest.raises(InvalidInputError):
        integrate_hplanar(flat2, x0, v0, t_end=-1.0)
    with pytest.raises(InvalidInputError):    # one step per curve, one of them zero
        integrate_hplanar_batch(flat2, [x0, x0], [v0, v0], [0.0] * 2, [0.0] * 2, 1.0, [1e-2, 0.0])
    with pytest.raises(InvalidInputError):    # two curves, three steps
        integrate_hplanar_batch(flat2, [x0, x0], [v0, v0], [0.0] * 2, [0.0] * 2, 1.0, [1e-2] * 3)
    with pytest.raises(InvalidInputError):    # two curves, one end time
        integrate_hplanar_batch(flat2, [x0, x0], [v0, v0], [0.0] * 2, [0.0] * 2, [1.0], 1e-2)


def test_poly_coefficient_builtin(fs2, rng):
    beta = lambda t: np.polyval([0.2, -0.4, 0.1], t)
    assert abs(beta(0.5) - (0.1 - 0.2 + 0.05)) < 1e-15
    x0 = fs2.point(rng.uniform(-0.2, 0.2, 4))
    v0 = rng.uniform(-0.5, 0.5, 4)
    c = integrate_hplanar(fs2, x0, v0, lambda t: np.polyval([0.1, 0.2], t), beta, 0.5, 2e-3)
    assert line_deviation(fs2, c, x0, v0) < 1e-7


@pytest.mark.parametrize("A", [None, np.diag([2.0, 1.0, 1.0]) + 0.3j * np.eye(3, k=1)])
def test_line_deviation_matches_per_sample_lift(A, rng):
    # samples scattered over every chart, off the line, against the
    # one-sample-at-a-time complex lift
    model = fubini_study(2) if A is None else pullback_fs(A)
    charts = ["c0", "c1", "c2"] * 5
    curve = CurveSample(np.arange(len(charts)) * 0.1, charts,
                        rng.uniform(-1.5, 1.5, (len(charts), 4)), np.zeros((len(charts), 4)))
    for x0 in (ChartPoint("c0", rng.uniform(-0.5, 0.5, 4)),
               ChartPoint("c2", rng.uniform(-0.5, 0.5, 4))):
        v0 = rng.uniform(-1.0, 1.0, 4)
        got = line_deviation(model, curve, x0, v0, per_sample=True)
        ref = projective_line_deviation(curve, x0, v0)
        assert np.min(ref) > 1e-3
        assert np.max(np.abs(got - ref)) < 1e-14
