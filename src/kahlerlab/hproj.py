"""h-projective solution layer.

A solution field packages the pair (a_ij, lambda_i) — plus the scalar mu
once a coupling constant B is fixed — as exact jet-evaluable fields on a
model manifold:

  * the comparison tensor of a metric pair
        a_ij = (det gbar / det g)^(1/(2(n+1))) g_ia gbar^ab g_bj,
  * its 1-form  lambda_k = (1/4) d_k (g^ij a_ij)  (a gradient),
  * the scalar  mu = (g^ij lambda_i,j - B tr a) / 2n.

The first-order system these should satisfy is

    a_ij,k = lambda_i g_jk + lambda_j g_ik - lbar_i J_jk - lbar_j J_ik,

with lbar_i = J^a_i lambda_a and J_jk = g_ja J^a_k; `hpr_residual` measures
its defect.  Every field and residual reads the metric, inverse-metric and
connection jets at a point from `geom`, whose memo each model owns.  That
memo, and a pair solution's a-jet memo, hold one entry per point at the
highest order asked there and serve lower orders by truncation.
Everything here is pointwise-parallel.
"""

import numpy as np

from .errors import InvalidInputError, ShapeMismatchError, SingularMetricError
from .geometry import christoffel_jet, cov_step_jet
from .jets import Jet, jet_einsum, jet_eval, jet_logdet, jet_matrix_inverse
from .tensors import hermitize


# -- geometry at a point -----------------------------------------------------

_MEMO_BOUND = 512
_DET_FLOOR = 1e-12


def _highest_order(memo, key, order, build):
    """The jets memoized at ``key``, built by ``build(order)`` when absent or
    of lower order than ``order``.  An entry keeps the highest order asked
    at its key, so a caller truncates it to the order it asked for: the
    order-q coefficients of an order-p jet are the order-q jet (see jets).
    A memo past _MEMO_BOUND entries is emptied before it grows."""
    hit = memo.get(key)
    if hit is None or hit[0] < order:
        if len(memo) > _MEMO_BOUND:
            memo.clear()
        hit = memo[key] = (order, build(order))
    return hit[1]


def _read_only(jet):
    """``jet`` with its coefficients made read-only, so that a caller writing
    into a memoized jet (or a truncation of one) fails instead of corrupting it."""
    jet.coef.flags.writeable = False
    return jet


def _geom_entry(model, point, order):
    gjet = jet_eval(model.metric_fn(point.chart), list(point.coords), order)
    det = abs(float(np.linalg.det(gjet.const)))
    scale = float(np.prod(np.linalg.norm(gjet.const, axis=1)))
    if det <= _DET_FLOOR * max(scale, 1e-300):
        raise SingularMetricError(f"|det g| = {det:.3e} below threshold")
    ginv = _read_only(jet_matrix_inverse(gjet))
    gamma = _read_only(christoffel_jet(gjet, ginv)) if order >= 1 else None
    return _read_only(gjet), ginv, gamma


def geom(model, point, order):
    """Jets of the metric, its inverse and (order >= 1) the connection, one
    order lower, at a chart point, with the chart's J.  Memoized in the
    model, one entry per chart and point at the highest order asked there;
    a lower order is served by truncating that entry.  The jets' coefficients
    are read-only.  A metric whose |det| is below _DET_FLOOR times the
    product of its row norms raises SingularMetricError."""
    key = (point.chart, point.coords.tobytes())
    gjet, ginv, gamma = _highest_order(model._geom_memo, key, order,
                                       lambda p: _geom_entry(model, point, p))
    return {"g": gjet.truncate(order), "ginv": ginv.truncate(order),
            "gamma": gamma.truncate(order - 1) if order >= 1 else None,
            "J": model.j_matrix(point.chart)}


# -- solution fields --------------------------------------------------------

class SolutionField:
    """Base class: jet-evaluable (a, lambda, mu) fields over one model.

    Subclasses implement ``a_jet``; the 1-form and scalar default to the
    quarter-trace gradient and the g-trace fit, which is exact for any
    actual solution of the first-order system.
    """

    def __init__(self, model, B=None):
        self.model = model
        self.B = B

    # - jets -
    def a_jet(self, point, order) -> Jet:
        raise NotImplementedError

    def lambda_scalar_jet(self, point, order) -> Jet:
        a = self.a_jet(point, order)
        ginv = geom(self.model, point, order)["ginv"]
        return jet_einsum("ij,ij->", ginv, a) * 0.25

    def lam_jet(self, point, order) -> Jet:
        return self.lambda_scalar_jet(point, order + 1).gradient()

    def mu_jet(self, point, order) -> Jet:
        if self.B is None:
            raise InvalidInputError("mu requires the coupling constant B; "
                                    "call with_B() first")
        g = geom(self.model, point, order + 1)
        lam = self.lam_jet(point, order + 1)
        dlam = cov_step_jet(lam, ("l",), g["gamma"])
        tr_dlam = jet_einsum("ij,ij->", g["ginv"].truncate(dlam.space.order), dlam)
        tr_a = jet_einsum("ij,ij->", g["ginv"].truncate(order),
                          self.a_jet(point, order))
        return (tr_dlam.truncate(order) - tr_a * self.B) * (1.0 / self.model.dim)

    # - values -
    def lam_at(self, point):
        return self.lam_jet(point, 0).const

    def lambda_bar_vector_at(self, point):
        """lbar^i = g^ia J^b_a lambda_b (the Killing direction)."""
        g = geom(self.model, point, 0)
        return g["ginv"].const @ (g["J"].T @ self.lam_at(point))

    def with_B(self, B):
        import copy
        dup = copy.copy(self)
        dup.B = float(B)
        return dup


class PairSolution(SolutionField):
    """Comparison-tensor solution built from two Kähler metrics on the same
    charts and complex structure.

    The a-jet at a point is built once, at the highest order asked there,
    and a lower order is served by truncating it.  The memo is bounded,
    its jets are read-only, and ``with_B`` copies share it: a does not
    depend on B."""

    def __init__(self, g_model, gbar_model, B=None):
        super().__init__(g_model, B)
        if gbar_model.dim != g_model.dim:
            raise ShapeMismatchError("metric pair must share the dimension")
        self.gbar_model = gbar_model
        self._a_memo = {}

    def a_jet(self, point, order):
        key = (point.chart, point.coords.tobytes())
        return _highest_order(self._a_memo, key, order, lambda p: _read_only(
            pair_a_jet(self.model, self.gbar_model, point, p))).truncate(order)


# -- pointwise constructions ------------------------------------------------

def pair_a_jet(g_model, gbar_model, point, order):
    """Jet of the comparison tensor of the pair (g, gbar) at a point."""
    n = g_model.n
    gjet = geom(g_model, point, order)["g"].truncate(order)
    gbar = jet_eval(gbar_model.metric_fn(point.chart), list(point.coords), order)
    sign_g, logdet_g = jet_logdet(gjet)
    sign_gbar, logdet_gbar = jet_logdet(gbar)
    if sign_g != sign_gbar:
        raise SingularMetricError(
            "det gbar / det g < 0: the metrics do not have the same signature, "
            "the comparison tensor is undefined")
    factor = ((logdet_gbar - logdet_g) * (1.0 / (2.0 * (n + 1)))).exp()
    gbar_inv = jet_matrix_inverse(gbar)
    core = jet_einsum("ia,aj->ij", jet_einsum("ia,ab->ib", gjet, gbar_inv), gjet)
    return jet_einsum(",ij->ij", factor, core)


def lambda_least_squares(model, sol, point):
    """Cross-fit of lambda minimizing the first-order residual at a point.

    Independent of the trace formula; disagreement flags a pair that is not
    actually h-projectively equivalent.
    """
    g = geom(model, point, 1)
    da = cov_step_jet(sol.a_jet(point, 1), ("l", "l"), g["gamma"]).const
    d = model.dim
    # design matrix: residual is linear in lambda, one column per basis covector
    M = first_order_rhs(np.eye(d), g["g"].const, g["J"]).reshape(d, -1).T
    lam, *_ = np.linalg.lstsq(M, da.ravel(), rcond=None)
    return lam


# -- the two equations -------------------------------------------------------

def first_order_rhs(lam, gm, J):
    """Right-hand side of the first-order system,

        lambda_i g_jk + lambda_j g_ik - lbar_i J_jk - lbar_j J_ik,

    with lbar_i = J^a_i lambda_a and J_jk = g_ja J^a_k.  Leading axes of
    ``lam`` are a batch; returns (..., i, j, k).
    """
    lbar = lam @ J
    Jlow = gm @ J
    return (np.einsum("...i,jk->...ijk", lam, gm) + np.einsum("...j,ik->...ijk", lam, gm)
            - np.einsum("...i,jk->...ijk", lbar, Jlow)
            - np.einsum("...j,ik->...ijk", lbar, Jlow))


def curvature_condition(a, dlam, R, gm, J):
    """Defect of the curvature compatibility condition

        a_ia R^a_jkl + a_ja R^a_ikl
          - Jproj[ dl_li g_jk + dl_lj g_ik - dl_ki g_jl - dl_kj g_il ]

    with dl = nabla lambda and Jproj the J-pair projection on (i, j).  Leading
    axes of ``a`` and ``dlam`` are a batch; returns (..., i, j, k, l).

    The projected bracket is Q + swap_ij(Q) - swap_kl(Q) - swap_ij(swap_kl(Q))
    with Q_ijkl = dl_li g_jk + (dl J)_li (J^T g)_jk, so the defect is
    Y + swap_ij(Y) with Y = a_ia R^a_jkl - Q_ijkl + Q_ijlk.  Y is one matmul
    of [a | dl^T | (dl J)^T] against [R; E(g); E(J^T g)] (see ``_kl_skew``),
    and the i <-> j sum is taken in place one row i at a time: the peak
    memory is the output plus about 2/d of it.
    """
    a = np.asarray(a, dtype=float)
    dlam = np.asarray(dlam, dtype=float)
    gm = np.asarray(gm, dtype=float)
    J = np.asarray(J, dtype=float)
    d = gm.shape[-1]
    left = np.concatenate(np.broadcast_arrays(
        a, np.swapaxes(dlam, -1, -2), np.swapaxes(dlam @ J, -1, -2)), axis=-1)
    right = np.concatenate([np.reshape(R, (d, d ** 3)), _kl_skew(gm), _kl_skew(J.T @ gm)])
    out = (left.reshape(-1, 3 * d) @ right).reshape(left.shape[:-1] + (d,) * 3)
    del left, right     # the i <-> j sum below needs only the output
    for i in range(d):
        row = out[..., i, i:, :, :] + out[..., i:, i, :, :]
        out[..., i, i:, :, :] = row
        out[..., i:, i, :, :] = row
    return out


def _kl_skew(v):
    """E[m, (j, k, l)] = v_jl delta_km - v_jk delta_lm as a (d, d^3) matrix,
    so that (u @ E)_jkl = u_k v_jl - u_l v_jk."""
    d = v.shape[0]
    m = np.arange(d)
    e = np.zeros((d,) * 4)
    e[m, :, :, m] = -v
    e[m, :, m, :] += v
    return e.reshape(d, d ** 3)


# -- residuals ---------------------------------------------------------------

def hpr_residual(model, sol, point):
    """Defect of the first-order h-projective system at a point: returns

        a_ij,k - lambda_i g_jk - lambda_j g_ik + lbar_i J_jk + lbar_j J_ik
    """
    g = geom(model, point, 1)
    da = cov_step_jet(sol.a_jet(point, 1), ("l", "l"), g["gamma"]).const
    return da - first_order_rhs(sol.lam_jet(point, 0).const, g["g"].const, g["J"])


def c_identity_check(model, sol_a, sol_b, point, warn=None):
    """Max |c_il| for the trace-free cross-commutator of two solutions:

        c_il = ahat^r_i (nabla Lhat)_rl - Ahat^r_l (nabla lhat)_ri

    built from the trace-free parts of (a, nabla lambda) of each solution.
    Near-zero certifies the pointwise compatibility identity of independent
    solution pairs; a warning flag is reported when {g, a, A} fail the
    linear-independence hypothesis at the point.
    """
    g = geom(model, point, 1)
    gm, ginv = g["g"].const, g["ginv"].const
    d = model.dim

    def tracefree_parts(sol):
        a = sol.a_jet(point, 0).const
        dl = cov_step_jet(sol.lam_jet(point, 1), ("l",), g["gamma"]).const
        a_tf = a - (np.einsum("ij,ij->", ginv, a) / d) * gm
        dl_tf = dl - (np.einsum("ij,ij->", ginv, dl) / d) * gm
        return a_tf, dl_tf

    a_tf, dla = tracefree_parts(sol_a)
    A_tf, dlA = tracefree_parts(sol_b)
    c = a_tf @ ginv @ dlA - dla @ ginv @ A_tf
    stack = np.stack([gm.ravel(),
                      sol_a.a_jet(point, 0).const.ravel(),
                      sol_b.a_jet(point, 0).const.ravel()])
    if warn is not None and np.linalg.matrix_rank(stack, tol=1e-8) < 3:
        warn.append(f"solutions not independent of g at {point.coords.tolist()}")
    return float(np.max(np.abs(c)))


def lambda_scalar_field(model, sol):
    """The quarter-trace scalar of a solution as a jet-evaluable function
    (suitable for the scalar-equation operations)."""

    def f(xs):
        if isinstance(xs[0], Jet):
            pt = model.point([x.const for x in xs])
            return sol.lambda_scalar_jet(pt, xs[0].space.order)
        pt = model.point([float(x) for x in xs])
        return float(sol.lambda_scalar_jet(pt, 0).const)

    return f


def solution_to_json(sol, points):
    """Serialize a solution field on a sample grid: chart, grid coordinates,
    and component arrays for a, lambda (and mu when a constant is set)."""
    grid = []
    for p in points:
        entry = {"point": p.coords.tolist(),
                 "a": sol.a_jet(p, 0).const.tolist(),
                 "lambda": sol.lam_jet(p, 0).const.tolist()}
        if sol.B is not None:
            entry["mu"] = float(sol.mu_jet(p, 0).const)
        grid.append(entry)
    return {"chart": points[0].chart, "B": sol.B, "grid": grid}


def hermitian_symmetric_basis(J):
    """Orthonormal basis (in the Frobenius sense) of symmetric J-invariant
    (0,2) tensors, as an (n^2, d, d) stack on a d = 2n-dimensional space."""
    d = J.shape[0]
    i, j = np.triu_indices(d)
    cands = np.zeros((len(i), d, d))
    cands[np.arange(len(i)), i, j] = cands[np.arange(len(i)), j, i] = 1.0
    M = hermitize(cands, J).reshape(len(i), -1)
    _, s, vt = np.linalg.svd(M, full_matrices=False)
    return vt[:int(np.sum(s > 1e-9 * s[0]))].reshape(-1, d, d)
