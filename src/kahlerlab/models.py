"""Closed-form Kähler model manifolds with exact jets.

All models use real chart coordinates (x_1, y_1, ..., x_n, y_n) with
z_k = x_k + i*y_k and the standard complex structure acting blockwise as
the 2x2 rotation.  The projective-space metric and its linear pullbacks
g_A come from one formula on homogeneous coordinates: the Kähler potential
log|A hom(z)|^2, realified, gives

    g = (4 / s^2) (s P^T P - (U U^T + J^T U U^T J)),
    W = P x + w0,   s = |W|^2,   U = P^T W,

where (P, w0) = homogeneous_map(n, k, A): P is the realified A[:, cols] of
the chart's affine columns, w0 the realified column of its unit slot, A = I
for the projective metric.  Chart transitions divide the same W (A = I) by
the target chart's slot.  The factor 4 pins the holomorphic sectional
curvature to 1, the convention of every curvature check in the package.  A
metric function takes the list of d chart coordinates (floats, or scalar
jets of one jet space) and returns one array, or one Jet with payload
(..., d, d); a constant metric returns its stored read-only array.
"""

import copy
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, InvalidInputError, OutOfDomainError,
                     UnsupportedDimensionError, UnsupportedModelError)
from .geometry import verify_kahler
from .jets import Jet, jet_eval, jet_space
from .tensors import jtensor_contract


@dataclass(frozen=True, eq=False)
class Chart:
    """A named coordinate box [lo, hi]; lo and hi are kept as read-only
    float arrays."""

    name: str
    dim: int
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if self.dim % 2 != 0 or self.dim < 4:
            raise UnsupportedDimensionError(
                f"chart dimension must be even and >= 4, got {self.dim}")
        if len(self.lo) != self.dim or len(self.hi) != self.dim:
            raise InvalidInputError("domain box does not match dimension")
        for side in ("lo", "hi"):
            box = np.array(getattr(self, side), dtype=float)
            box.flags.writeable = False
            object.__setattr__(self, side, box)

    def contains(self, coords, margin=0.0):
        """Whether a point (each row of a stack) lies in the shrunk box."""
        c = np.asarray(coords, dtype=float)
        return (np.all(c >= self.lo + margin, axis=-1)
                & np.all(c <= self.hi - margin, axis=-1))


@dataclass(frozen=True, slots=True)
class ChartPoint:
    chart: str
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))


def standard_J(n):
    """Block-diagonal complex structure: J(dx_k) = dy_k, J(dy_k) = -dx_k."""
    J = np.zeros((2 * n, 2 * n))
    for k in range(n):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


class KahlerModel:
    """A model manifold: named charts, a metric function per chart with exact
    jets, a constant complex structure per chart, and transition maps.

    Its geometry is fixed at construction.  The one thing that changes is
    the memo of ``hproj.geom``, keyed by chart and point coordinates and
    bounded there, so the memo lives and dies with its model.
    """

    def __init__(self, kind, n, charts, default_chart, metric_fns, j_mats,
                 transitions=None, periods=None, sample_halfwidth=0.9, params=None):
        self.kind = kind
        self.n = n
        self.dim = 2 * n
        self.charts = charts
        self.default_chart = default_chart
        self._metric_fns = metric_fns
        self._j_mats = j_mats
        self._transitions = transitions or {}
        self.periods = None if periods is None else np.asarray(periods, dtype=float)
        self.sample_halfwidth = sample_halfwidth
        self.params = params or {}
        self._geom_memo = {}

    # -- chart plumbing ------------------------------------------------
    def chart(self, name=None):
        return self.charts[name or self.default_chart]

    def point(self, coords, chart=None):
        return ChartPoint(chart or self.default_chart, np.asarray(coords, dtype=float))

    def metric_fn(self, chart=None):
        return self._metric_fns[chart or self.default_chart]

    def j_matrix(self, chart=None):
        return self._j_mats[chart or self.default_chart]

    def j_fn(self, chart=None):
        J = self.j_matrix(chart)
        return lambda xs: J

    def transition_targets(self, chart):
        return sorted(t for (s, t) in self._transitions if s == chart)

    def transition(self, src, dst):
        try:
            return self._transitions[(src, dst)]
        except KeyError:
            raise OutOfDomainError(f"no transition {src} -> {dst}") from None

    def wrap(self, point: ChartPoint) -> ChartPoint:
        """Reduce torus coordinates (rows of a stack) to the fundamental domain."""
        if self.periods is None:
            return point
        p = self.periods
        c = (point.coords + p / 2.0) % p - p / 2.0
        return ChartPoint(point.chart, c)

    def rechart(self, point: ChartPoint, velocity=None):
        """Move a point (and optionally a tangent vector) to the chart whose
        coordinates are smallest in magnitude."""
        best = (float(np.max(np.abs(point.coords))), point, velocity)
        for dst in self.transition_targets(point.chart):
            try:
                jac_jet = jet_eval(self.transition(point.chart, dst), list(point.coords), 1)
            except ZeroDivisionError:
                continue
            y = jac_jet.const
            m = float(np.max(np.abs(y)))
            if m < best[0]:
                v = None if velocity is None else jac_jet.derivatives(1) @ velocity
                best = (m, ChartPoint(dst, y), v)
        return (best[1], best[2]) if velocity is not None else best[1]

    # -- metric values -------------------------------------------------
    def metric_at(self, point: ChartPoint) -> np.ndarray:
        return np.array(self.metric_fn(point.chart)(list(point.coords)), dtype=float)

    # -- sampling and verification ----------------------------------------
    def sample_points(self, rng, count, chart=None):
        chart = chart or self.default_chart
        w = self.sample_halfwidth
        return [ChartPoint(chart, rng.uniform(-w, w, size=self.dim))
                for _ in range(count)]

    def verify(self, rng=None, points=None, count=20, tol=1e-9, chart=None):
        if points is None:
            points = self.sample_points(rng or np.random.default_rng(0), count, chart)
        chart = points[0].chart
        return verify_kahler(self.metric_fn(chart), self.j_fn(chart),
                             [list(p.coords) for p in points], tol=tol)

    def descriptor(self):
        """kind, n and the parameters ``model_from_descriptor`` rebuilds it from."""
        return {"kind": self.kind, "n": self.n, **self.params}


# -- constructors -----------------------------------------------------------

def flat_model(n, diag=None):
    """Flat C^n (optionally with a constant signature diag per complex axis)."""
    if n < 2:
        raise UnsupportedDimensionError("flat model needs n >= 2")
    diag = [1.0] * n if diag is None else [float(d) for d in diag]
    if len(diag) != n or any(d == 0 for d in diag):
        raise InvalidInputError("diag must give one nonzero weight per complex axis")
    chart = Chart("c0", 2 * n, (-10.0,) * (2 * n), (10.0,) * (2 * n))
    return KahlerModel("flat", n, {"c0": chart}, "c0", {"c0": _constant_metric_fn(diag)},
                       {"c0": standard_J(n)}, sample_halfwidth=1.0,
                       params={"diag": diag})


def _constant_metric_fn(diag):
    """Metric function of the constant metric with weight diag[k] on the k-th
    complex axis: every call returns the same read-only array."""
    g = np.diag(np.repeat(np.asarray(diag, dtype=float), 2))
    g.flags.writeable = False
    return lambda xs: g


def _realify(a):
    """The real (2m, 2k) matrix of a complex (m, k) matrix acting on
    interleaved (re, im) coordinates."""
    r = np.empty((2 * a.shape[0], 2 * a.shape[1]))
    r[0::2, 0::2], r[0::2, 1::2] = a.real, -a.imag
    r[1::2, 0::2], r[1::2, 1::2] = a.imag, a.real
    return r


def _coordinate_jet(xs):
    """The d chart coordinates as one jet with payload (..., d): the seeding
    jet of ``Jet.variables``, or a stack of other scalar jets; floats become
    an order-0 jet."""
    stacked = getattr(xs, "stacked", None)
    if stacked is not None:
        return stacked
    if isinstance(xs[0], Jet):
        return Jet(xs[0].space, np.stack([x.coef for x in xs], axis=-1))
    return Jet(jet_space(len(xs), 0), np.asarray(xs, dtype=float)[None])


def _times(X, M):
    """The jet of X @ M over X's last payload axis, one Taylor coefficient
    at a time: one product over all coefficients lets BLAS pick its kernel
    by their count, and the low-order coefficients of jets of different
    orders would then differ in the last bit."""
    coef = X.coef.reshape(X.coef.shape[0], -1, X.coef.shape[-1])
    return Jet(X.space, np.matmul(coef, M).reshape(X.coef.shape[:-1] + M.shape[-1:]))


def homogeneous_map(n, chart_index, A=None):
    """(P, w0) of the realified map x -> W = P x + w0 from affine chart
    `chart_index` of CP(n) to homogeneous coordinates, followed by the linear
    map A (None: the identity): P is the realified A[:, cols] of the chart's
    affine columns, w0 the realified column of its unit slot."""
    A = np.eye(n + 1) if A is None else A
    cols = [m for m in range(n + 1) if m != chart_index]
    return _realify(A[:, cols]), _realify(A[:, [chart_index]])[:, 0]


def _pullback_metric_fn(n, chart_index, A):
    """Metric function of f_A^* (projective metric) in affine chart `chart_index`,
    from the homogeneous formula of the module docstring.

    ``A`` is a complex (n+1)x(n+1) matrix or None for the identity map.
    """
    P, w0 = homogeneous_map(n, chart_index, A)
    PtP = P.T @ P
    J = standard_J(n)

    def fn(xs):
        X = _coordinate_jet(xs)
        sp = X.space
        W = _times(X, P.T) + w0
        U = _times(W, P)
        r = Jet(sp, (W * W).coef.sum(axis=-1)).reciprocal()[..., None]
        V = r * U                                   # U / s, so V V^T = U U^T / s^2
        VV = Jet(sp, jtensor_contract((V[..., :, None] * V[..., None, :]).coef, J))
        g = 4.0 * (r[..., None] * PtP - VV)
        return g if isinstance(xs[0], Jet) else g.const

    return fn


def _transition(n, src, dst):
    """Chart map c{src} -> c{dst}: the homogeneous coordinates W of the point
    divided by their slot `dst`, as (re, im) pairs on realified jets.  Raises
    ZeroDivisionError where that slot vanishes."""
    P, w0 = homogeneous_map(n, src)
    keep = [m for m in range(n + 1) if m != dst]

    def fn(xs):
        X = _coordinate_jet(xs)
        W = _times(X, P.T) + w0
        re, im = W[..., 0::2], W[..., 1::2]
        a, b = re[..., keep], im[..., keep]
        c, d = re[..., dst:dst + 1], im[..., dst:dst + 1]
        r = (c * c + d * d).reciprocal()
        # (a + ib) conj(c + id) / |c + id|^2
        coef = np.stack([((a * c - b * -d) * r).coef, ((a * -d + b * c) * r).coef], axis=-1)
        u = Jet(W.space, coef.reshape(coef.shape[:-2] + (2 * n,)))
        return u if isinstance(xs[0], Jet) else u.const

    return fn


def _projective(kind, n, chart_index, A=None):
    """CP(n) with the pullback of the projective metric under the linear map
    A (None: the identity, the projective metric itself), the affine charts
    c0..cn and default chart c{chart_index}.  The one constructor of the
    projective family: it validates n, the chart index and A."""
    if A is not None and A.shape != (n + 1, n + 1):
        raise InvalidInputError("A must be square")
    if n < 2:
        raise UnsupportedDimensionError("projective model needs n >= 2 (real dim >= 4)")
    if not 0 <= chart_index <= n:
        raise InvalidInputError(f"chart_index must be in 0..{n}, got {chart_index}")
    params = {"chart_index": chart_index}
    if A is not None:
        if abs(np.linalg.det(A)) < 1e-12 * max(np.linalg.norm(A), 1.0) ** (n + 1):
            raise InvalidInputError("A must be invertible")
        params["A"] = [[[float(v.real), float(v.imag)] for v in row] for row in A]
    names = [f"c{k}" for k in range(n + 1)]
    return KahlerModel(kind, n, {c: Chart(c, 2 * n, (-4.0,) * (2 * n), (4.0,) * (2 * n))
                                 for c in names},
                       names[chart_index],
                       {c: _pullback_metric_fn(n, k, A) for k, c in enumerate(names)},
                       {c: standard_J(n) for c in names},
                       transitions={(names[i], names[j]): _transition(n, i, j)
                                    for i in range(n + 1) for j in range(n + 1) if i != j},
                       params=params)


def fubini_study(n, chart_index=0):
    """Projective space CP(n) with the invariant metric, holomorphic
    sectional curvature normalized to 1 (g(0) = 4*Id in every affine chart)."""
    return _projective("fs", n, chart_index)


def pullback_fs(A, chart_index=0):
    """Pullback of the projective metric under the linear map with matrix A."""
    A = np.asarray(A, dtype=complex)
    return _projective("pullback", len(A) - 1 if A.ndim else 0, chart_index, A)


def product_model(factors, weights=None):
    """Block product of Kähler models with constant positive/negative weights."""
    if len(factors) < 2:
        raise InvalidInputError("product needs at least two factors")
    weights = [1.0] * len(factors) if weights is None else [float(w) for w in weights]
    if len(weights) != len(factors):
        raise InvalidInputError("one weight per factor")
    if any(w == 0.0 for w in weights):
        raise InvalidInputError("weights must be nonzero")
    n = sum(f.n for f in factors)
    dims = [f.dim for f in factors]
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    lo = np.concatenate([f.chart().lo for f in factors])
    hi = np.concatenate([f.chart().hi for f in factors])
    chart = Chart("c0", 2 * n, lo, hi)

    factor_fns = [f.metric_fn() for f in factors]
    spans = list(zip(offsets[:-1], offsets[1:]))

    def fn(xs):
        """The factor blocks written into one coefficient array: a Jet if
        any factor depends on the coordinates, else an array."""
        parts = [w * ffn(xs[a:b]) for ffn, w, (a, b) in zip(factor_fns, weights, spans)]
        space = next((p.space for p in parts if isinstance(p, Jet)), None)
        coefs = [p.coef if isinstance(p, Jet) else np.asarray(p)[None] for p in parts]
        lead = np.broadcast_shapes(*(c.shape[1:-2] for c in coefs))
        out = np.zeros((1 if space is None else space.ncoef,) + lead + (2 * n, 2 * n))
        for c, (a, b) in zip(coefs, spans):
            out[:len(c), ..., a:b, a:b] = c
        return out[0] if space is None else Jet(space, out)

    J = np.zeros((2 * n, 2 * n))
    for fi, f in enumerate(factors):
        a, b = offsets[fi], offsets[fi + 1]
        J[a:b, a:b] = f.j_matrix()
    periods = None
    if all(f.periods is not None for f in factors):
        periods = np.concatenate([f.periods for f in factors])
    return KahlerModel("product", n, {"c0": chart}, "c0", {"c0": fn}, {"c0": J},
                       periods=periods,
                       sample_halfwidth=min(f.sample_halfwidth for f in factors),
                       params={"weights": weights,
                               "factors": [f.descriptor() for f in factors]})


def flat_torus(n, periods=1.0):
    """Flat torus: flat metric plus a period lattice (closedness as metadata);
    numerics operate on the fundamental domain."""
    if n < 2:
        raise UnsupportedDimensionError("torus model needs n >= 2")
    periods = np.asarray(periods, dtype=float)
    if periods.shape not in ((), (1,), (2 * n,)) or np.any(periods <= 0):
        raise InvalidInputError(f"periods must be positive, one or {2 * n} of them")
    periods = periods * np.ones(2 * n)
    half = periods / 2.0
    chart = Chart("c0", 2 * n, -half, half)
    return KahlerModel("torus", n, {"c0": chart}, "c0", {"c0": _constant_metric_fn([1.0] * n)},
                       {"c0": standard_J(n)}, periods=periods,
                       sample_halfwidth=float(np.min(half)) * 0.9,
                       params={"periods": periods.tolist()})


def rescale_model(model, c):
    """The same manifold with metric multiplied by the nonzero constant c; its
    descriptor records the accumulated scale."""
    if c == 0.0:
        raise InvalidInputError("scale must be nonzero")
    scaled = copy.copy(model)
    scaled._geom_memo = {}
    scaled._metric_fns = {name: (lambda xs, _f=base_fn: c * _f(xs))
                          for name, base_fn in model._metric_fns.items()}
    scaled.params = {**model.params, "scale": c * model.params.get("scale", 1.0)}
    return scaled


def _floats(v):
    return [float(x) for x in v]


def _field(desc, key, convert, *default):
    """convert(desc[key]), or the default when the key is absent and one is
    given.  A missing or malformed key raises ConfigError naming it."""
    if key not in desc:
        if default:
            return default[0]
        raise ConfigError(f"model {desc.get('kind')!r} needs the key {key!r}")
    try:
        return convert(desc[key])
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"model key {key!r} is malformed: {exc}") from None


# the keys each kind reads besides kind, n and scale
_KIND_KEYS = {"fs": {"chart_index"}, "pullback": {"chart_index", "A"}, "flat": {"diag"},
              "torus": {"periods"}, "product": {"factors", "weights"}}


def model_from_descriptor(desc):
    """Build the model a descriptor describes: the output of ``descriptor()``,
    a config-file model or the CLI's model flags.  A pullback takes n from
    its matrix and a product from its factors; ``scale`` rescales any kind.
    A key the kind does not read, or an ``n`` that disagrees with the model
    built, is refused."""
    if not isinstance(desc, dict):
        raise ConfigError(f"a model descriptor is a JSON object, got {desc!r}")
    kind = desc.get("kind")
    if kind not in _KIND_KEYS:
        raise UnsupportedModelError(f"unknown model kind {kind!r}")
    unread = sorted(set(desc) - _KIND_KEYS[kind] - {"kind", "n", "scale"})
    if unread:
        raise ConfigError(f"model {kind!r} does not read {', '.join(map(repr, unread))}")
    n = _field(desc, "n", operator.index, 2)
    if kind in ("fs", "pullback"):
        A = _field(desc, "A", complex_matrix_from_pairs) if kind == "pullback" else None
        model = _projective(kind, n if A is None else len(A) - 1,
                            _field(desc, "chart_index", operator.index, 0), A)
    elif kind == "flat":
        model = flat_model(n, _field(desc, "diag", _floats, None))
    elif kind == "torus":
        model = flat_torus(n, _field(desc, "periods", lambda v: np.asarray(v, dtype=float), 1.0))
    else:
        model = product_model([model_from_descriptor(f) for f in _field(desc, "factors", list)],
                              _field(desc, "weights", _floats, None))
    if "n" in desc and n != model.n:
        raise ConfigError(f"model {kind!r} has n = {model.n}, not the n = {n} given")
    scale = _field(desc, "scale", float, None)
    return model if scale is None else rescale_model(model, scale)


def complex_matrix_from_pairs(rows):
    """Rows of [re, im] pairs (row-major) -> complex ndarray."""
    return np.array([[complex(entry[0], entry[1]) for entry in row] for row in rows])
