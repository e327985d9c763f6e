"""Curve integration on model manifolds: the second-order planar-curve ODE

    xdd^i + Gamma^i_jk xd^j xd^k = alpha(t) xd^i + beta(t) J^i_j xd^j

(alpha = beta = 0 gives geodesics), membership tests for the complex-line /
projective-line images such curves must trace out, and first-integral
monitoring along geodesics.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OutOfDomainError, UnsupportedModelError
from .models import ChartPoint, homogeneous_map, standard_J
from .prolongation import _geo_floats_batch

MARGIN = 0.05   # the integrator re-charts a curve this close to its chart's edge
# The order check's ladder, finest first: every step its round-off fallback reaches.
ORDER_T_END = 0.5
ORDER_STEPS = (1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2)


@dataclass
class CurveSample:
    """A sampled curve: strictly increasing times (T,), the chart of each
    sample (T,), coordinates X (T, d) and velocities V (T, d)."""

    times: np.ndarray
    charts: np.ndarray
    X: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise InvalidInputError("sample times must be strictly increasing")
        self.charts = np.asarray(self.charts, dtype=object)
        self.X, self.V = np.asarray(self.X, dtype=float), np.asarray(self.V, dtype=float)
        if not (len(self.times) == len(self.charts) == len(self.X) == len(self.V)):
            raise InvalidInputError("times, charts, X and V must align")

    def __len__(self):
        return len(self.times)

    def export_csv(self, path, extras=None):
        """Write t, chart, coordinates, velocities (and optional extra
        per-sample columns) to a CSV file."""
        d = self.V.shape[1]
        cols = (["t", "chart"] + [f"x{i}" for i in range(d)]
                + [f"v{i}" for i in range(d)])
        extras = extras or {}
        cols += list(extras.keys())
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for idx in range(len(self)):
                row = ([f"{self.times[idx]:.12g}", self.charts[idx]]
                       + [f"{c:.17g}" for c in self.X[idx]]
                       + [f"{c:.17g}" for c in self.V[idx]])
                row += [f"{extras[k][idx]:.6e}" for k in extras]
                w.writerow(row)


def rk4_step(f, y, h):
    """One classical RK4 step of y' = f(c, y) for a tuple of arrays y.

    ``c`` is the stage's offset within the step as a fraction of h: 0, 1/2
    or 1.
    """
    k1 = f(0.0, y)
    k2 = f(0.5, tuple(u + h / 2 * k for u, k in zip(y, k1)))
    k3 = f(0.5, tuple(u + h / 2 * k for u, k in zip(y, k2)))
    k4 = f(1.0, tuple(u + h * k for u, k in zip(y, k3)))
    return tuple(u + h / 6 * (s1 + 2 * s2 + 2 * s3 + s4)
                 for u, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4))


def integrate_hplanar(model, x0: ChartPoint, v0, alpha=0.0, beta=0.0, t_end=1.0, step=1e-3):
    """RK4 integration of the planar-curve ODE from (x0, v0): a batch of one
    (see ``integrate_hplanar_batch``)."""
    return integrate_hplanar_batch(model, [x0], [v0], [alpha], [beta], t_end, step)[0]


def integrate_hplanar_batch(model, x0s, v0s, alphas, betas, t_end=1.0, step=1e-3):
    """Lockstep RK4 for a batch of curves.  Returns a list of CurveSample.

    ``t_end`` and ``step`` are one value, or one per curve: a curve ticks at
    its own step and drops out after ceil(t_end / step) steps.  Each RK4
    stage evaluates the geometry in one batched call per chart that holds
    ticking curves.  An alpha or beta is a number, read from one array of
    them, or a function of t, called once per stage.  After every step a
    curve on a torus is wrapped into the fundamental domain; elsewhere a
    curve that leaves the MARGIN-shrunk box of its chart is re-charted
    through the transition maps.  If no chart covers it, an out-of-domain
    error carrying its last valid sample is raised.
    """
    nb = len(x0s)
    if nb == 0:
        raise InvalidInputError("a batch needs at least one curve")
    if not len(v0s) == len(alphas) == len(betas) == nb:
        raise InvalidInputError("x0s, v0s, alphas and betas must have equal lengths")
    if any(np.ndim(v) and np.shape(v) != (nb,) for v in (t_end, step)):
        raise InvalidInputError("t_end and step must be one value or one per curve")
    t_ends, steps = np.full(nb, t_end, dtype=float), np.full(nb, step, dtype=float)
    if not (np.all(steps > 0) and np.all(t_ends >= 0)):
        raise InvalidInputError("step must be positive and t_end not negative")
    V = np.stack([np.asarray(v, dtype=float) for v in v0s])
    if np.any(np.linalg.norm(V, axis=1) == 0.0):
        raise InvalidInputError("initial velocity must be nonzero")
    X = np.stack([p.coords for p in x0s]).astype(float)
    charts = np.array([p.chart for p in x0s], dtype=object)
    # row 0 alpha, row 1 beta: the numbers, and a 0 where a function of t goes
    coefs = np.array([[0.0 if callable(c) else float(c) for c in cs] for cs in (alphas, betas)])
    calls = [(k, b, c) for k, cs in enumerate((alphas, betas)) for b, c in enumerate(cs)
             if callable(c)]
    nsteps = np.ceil(t_ends / steps).astype(int)
    # row k holds every curve after its k-th step (a curve done ticking stays put)
    hist_c = np.empty((int(np.max(nsteps)) + 1, nb), dtype=object)
    hist_X = np.empty((len(hist_c),) + X.shape)
    hist_V = np.empty_like(hist_X)
    hist_c[0], hist_X[0], hist_V[0] = charts, X, V

    def sample(b, k):
        """Curve b through its k-th step, in rows of its own."""
        tk = np.arange(k) * steps[b]
        return CurveSample(np.concatenate([[0.0], tk + np.minimum(steps[b], t_ends[b] - tk)]),
                           hist_c[:k + 1, b].copy(), hist_X[:k + 1, b].copy(),
                           hist_V[:k + 1, b].copy())

    def f(c, y):
        XX, VV = y
        for k, i, fn in live:
            ab[k, i] = fn(t[i] + c * h[i, 0])
        out = np.empty_like(VV)
        for chart, idx in groups:
            _, GAM = _geo_floats_batch(model, chart, XX[idx])
            Vc = VV[idx]
            al, be = ab[:, idx]
            out[idx] = (-np.einsum("bijk,bj,bk->bi", GAM, Vc, Vc)
                        + al[:, None] * Vc
                        + be[:, None] * (Vc @ model.j_matrix(chart).T))
        return VV, out

    drop = 0            # the next tick at which a curve drops out
    for s in range(int(np.max(nsteps))):
        if s == drop:       # the ticking curves, their numbers and callables
            act = np.flatnonzero(nsteps > s)
            drop = np.min(nsteps[act])
            ab = coefs[:, act]
            live = [(k, np.searchsorted(act, b), fn) for k, b, fn in calls if nsteps[b] > s]
            regroup = True
        if regroup:         # after a curve dropped out or changed chart
            groups = [(c, np.flatnonzero(charts[act] == c)) for c in np.unique(charts[act])]
            regroup = False
        t = s * steps[act]
        h = np.minimum(steps[act], t_ends[act] - t)[:, None]
        X[act], V[act] = rk4_step(f, (X[act], V[act]), h)
        for chart, idx in groups:
            if model.periods is not None:
                X[act[idx]] = model.wrap(ChartPoint(chart, X[act[idx]])).coords
                continue
            for i in idx[~model.chart(chart).contains(X[act[idx]], MARGIN)]:
                b = act[i]
                pt, vv = model.rechart(ChartPoint(chart, X[b]), V[b])
                if not model.chart(pt.chart).contains(pt.coords):
                    raise OutOfDomainError(f"curve {b} left the atlas at t={t[i] + h[i, 0]:.4f}",
                                           last_sample=sample(b, s))
                charts[b], X[b], V[b] = pt.chart, pt.coords, vv
                regroup = True
        hist_c[s + 1], hist_X[s + 1], hist_V[s + 1] = charts, X, V
    return [sample(b, nsteps[b]) for b in range(nb)]


# -- defect and membership tests ----------------------------------------------

def _wedge_defect(acc, V, JV):
    """Smallest singular value of column-normalized [acc | v | Jv], row by row.

    The acceleration column norm is floored at a fraction of |v|^2 (the
    natural scale of the quadratic connection term) so that a vanishing
    covariant acceleration — a geodesic — reads as dependent rather than
    as amplified noise.  A row with |v| < 1e-14 reads 0, one without an
    acceleration (NaN) reads NaN.
    """
    # row norms as sqrt(v . v) by matmul: the bits of np.linalg.norm(v), which
    # norm(V, axis=1) and einsum do not always reproduce
    vn = np.sqrt(np.matmul(V[:, None, :], V[:, :, None]))[:, 0, 0]
    an = np.sqrt(np.matmul(acc[:, None, :], acc[:, :, None]))[:, 0, 0]
    out = np.where(np.isnan(an), np.nan, 0.0)
    ok = ~np.isnan(an) & (vn >= 1e-14)
    vn, an = vn[ok, None], an[ok, None]
    cols = np.stack([acc[ok] / np.maximum(an, 1e-2 * vn * vn),
                     V[ok] / vn, JV[ok] / vn], axis=2)
    out[ok] = np.linalg.svd(cols, compute_uv=False)[:, -1]
    return out


# Samples per geometry call along a curve: bounds the (terms, points, d, d)
# jet temporaries of a whole-curve call, and so the peak memory.
_GEOMETRY_BLOCK = 128


def _geometry_along(model, curve, idxs):
    """Metric and connection at selected samples, batched chart by chart in
    blocks of ``_GEOMETRY_BLOCK`` samples: two arrays aligned with ``idxs``."""
    charts, X = curve.charts[idxs], curve.X[idxs]
    d = X.shape[1]
    gms, gammas = np.empty((len(idxs), d, d)), np.empty((len(idxs), d, d, d))
    for chart in np.unique(charts):
        pos = np.flatnonzero(charts == chart)
        for lo in range(0, len(pos), _GEOMETRY_BLOCK):
            block = pos[lo:lo + _GEOMETRY_BLOCK]
            gms[block], gammas[block] = _geo_floats_batch(model, chart, X[block])
    return gms, gammas


def _accelerations(model, curve):
    """Covariant accelerations dv/dt + Gamma(v, v) at samples 2..len-3, with
    dv/dt from a 4th-order central difference at the first spacing h
    (independent of the integrator's own right-hand side).  NaN rows where
    the stencil straddles a chart switch, or where one of its four spacings
    is not h up to the rounding of the times, as at the shorter last step of
    a curve whose end time is not a multiple of its step."""
    if len(curve) < 5:
        raise InvalidInputError("defect needs at least 5 samples")
    V, charts, times = curve.V, curve.charts, curve.times
    h = float(times[1] - times[0])
    dv = (V[:-4] - 8 * V[1:-3] + 8 * V[3:-1] - V[4:]) / (12 * h)
    _, gammas = _geometry_along(model, curve, np.arange(2, len(curve) - 2))
    acc = dv + np.einsum("bijk,bj,bk->bi", gammas, V[2:-2], V[2:-2])
    uneven = np.abs(np.diff(times) - h) > 16 * np.finfo(float).eps * np.max(np.abs(times))
    acc[(charts[:-4] != charts[2:-2]) | (charts[4:] != charts[2:-2])
        | uneven[:-3] | uneven[1:-2] | uneven[2:-1] | uneven[3:]] = np.nan
    return acc


def _j_velocities(model, curve):
    """J v at every sample, with the J of the sample's chart."""
    JV = np.empty_like(curve.V)
    for chart in np.unique(curve.charts):
        at = curve.charts == chart
        JV[at] = curve.V[at] @ model.j_matrix(chart).T
    return JV


def hplanarity_defect(model, curve):
    """Per-sample planarity defect at samples 2..len-3: the smallest singular
    value of the column-normalized matrix [acc | v | Jv], where the
    acceleration is recovered from the samples by finite differences.  Zero
    iff the three are dependent; NaN where the stencil straddles a chart
    switch.
    """
    return _wedge_defect(_accelerations(model, curve), curve.V[2:-2],
                         _j_velocities(model, curve)[2:-2])


LINE_KINDS = ("flat", "fs", "pullback")


def check_line_notion(model):
    """Raise unless ``line_deviation`` has a line notion for the model's kind."""
    if model.kind not in LINE_KINDS:
        raise UnsupportedModelError(f"no line notion for model kind {model.kind!r}; "
                                    f"line checks exist for {', '.join(LINE_KINDS)}")


def line_deviation(model, curve, x0: ChartPoint, v0, per_sample=False):
    """Distance of the curve from the plane/line its initial data spans.

    Flat models: euclidean distance from the real 2-plane through x0
    spanned by {v0, J v0}.  Projective models (including pullbacks): the
    samples are lifted to normalized realified homogeneous coordinates, one
    chart at a time, and measured against the complex 2-plane (J acting as
    multiplication by i) spanned by the lifts of (x0, v0).  Returns the max
    over samples, or the per-sample array when asked.
    """
    check_line_notion(model)
    v0 = np.asarray(v0, dtype=float)
    if model.kind == "flat":
        def lift(chart, X):
            return X - x0.coords
        span = [v0]
    else:
        def lift(chart, X):
            P, w0 = homogeneous_map(model.n, int(chart[1:]))
            W = X @ P.T + w0
            return W / np.linalg.norm(W, axis=-1, keepdims=True)
        span = [lift(x0.chart, x0.coords), homogeneous_map(model.n, int(x0.chart[1:]))[0] @ v0]
    J = standard_J(len(span[0]) // 2)
    q, _ = np.linalg.qr(np.stack(span + [J @ u for u in span], axis=1))
    vals = np.empty(len(curve))
    for chart in np.unique(curve.charts):
        idx = curve.charts == chart
        W = lift(chart, curve.X[idx])
        vals[idx] = np.linalg.norm(W - (W @ q) @ q.T, axis=1)
    return vals if per_sample else float(np.max(vals))


def _pairing_drift(model, curve, stride, other):
    """Max drift of g(v, w) over every stride-th sample and the last one,
    w the rows ``other`` gives for those samples' indices."""
    idxs = np.unique(np.append(np.arange(0, len(curve), max(1, stride)), len(curve) - 1))
    gms, _ = _geometry_along(model, curve, idxs)
    vals = np.matmul(np.matmul(curve.V[idxs][:, None], gms), other(idxs)[:, :, None])[:, 0, 0]
    return float(np.max(np.abs(vals - vals[0])))


def killing_integral_drift(model, curve, v_field, stride=1):
    """Max drift of g(curve velocity, v) along a geodesic sample.

    ``stride`` monitors every stride-th sample (the pairing is smooth, so a
    moderate stride loses nothing at these tolerances).  ``v_field`` is
    called once per monitored sample, with its chart point.
    """
    return _pairing_drift(model, curve, stride, lambda idxs: np.stack(
        [v_field(ChartPoint(curve.charts[i], curve.X[i])) for i in idxs]))


def energy_drift(model, curve, stride=1):
    """Max drift of g(v, v) along the curve (conserved for geodesics)."""
    return _pairing_drift(model, curve, stride, lambda idxs: curve.V[idxs])


def reparametrization_invariance_check(model, curve, tol=1e-6):
    """Planarity is a property of the image, not the parametrization.

    The curve is reparametrized by the smooth monotone map
    s -> s^2 (3 - 2s) of the unit interval and the defect is recomputed on
    the reparametrized copy; the check passes iff both defects are below
    tolerance or both above.  Returns (passed, defects, reparam_defect):
    the curve's per-sample defects as ``hplanarity_defect`` gives them, and
    the worst defect of the copy.
    """
    acc, V = _accelerations(model, curve), curve.V[2:-2]
    JV = _j_velocities(model, curve)[2:-2]
    defects = _wedge_defect(acc, V, JV)

    t_end, t = float(curve.times[-1]), curve.times[2:-2]
    # invert t = t_end * s^2 (3 - 2 s) for s in [0, 1], every sample at once
    lo, hi = np.zeros(len(t)), np.ones(len(t))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = t_end * mid * mid * (3 - 2 * mid) < t
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    s = 0.5 * (lo + hi)
    tds = t_end * (6 * s - 6 * s * s)
    tdds = t_end * (6 - 12 * s)
    keep = ~np.isnan(acc[:, 0]) & (np.abs(tds) >= 1e-8)
    td, tdd = tds[keep, None], tdds[keep, None]
    worst = float(np.max(_wedge_defect(td * td * acc[keep] + tdd * V[keep],
                                       td * V[keep], td * JV[keep]), initial=0.0))
    passed = (float(np.nanmax(defects)) <= tol) == (worst <= tol)
    return passed, defects, worst


def rk4_order_ratio(ends):
    """Endpoint step-halving ratio |e(h) - e(h/2)| / |e(h/2) - e(h/4)|;
    close to 16 for a 4th-order integrator, from the endpoints of one curve
    integrated over ORDER_T_END at each of ORDER_STEPS.

    A finer difference within 16 ulp of the endpoint is round-off, and a
    ratio of round-off says nothing about the order, so h grows by 4 from the
    finest triple while it is, up to the coarsest.  A finer difference of
    exactly 0 gives 0.0, not a non-number.
    """
    for k in range(0, len(ends) - 2, 2):
        fine, half, coarse = ends[k:k + 3]
        e1 = np.linalg.norm(coarse - half)
        e2 = np.linalg.norm(half - fine)
        noise = 16 * np.finfo(float).eps * max(1.0, np.linalg.norm(fine))
        if e2 > noise:
            break
    return float(e1 / e2) if e2 > 0.0 else 0.0
