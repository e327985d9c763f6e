"""Frobenius prolongation of the h-projective system, and everything that
rides on it: linear transport, coupling-constant estimation, local mobility
rank estimation and the third-order scalar equation.

The prolonged system in the unknowns (a_ij, lambda_i, mu) reads

    a_ij,k  = lambda_i g_jk + lambda_j g_ik - lbar_i J_jk - lbar_j J_ik
    lam_i,j = mu g_ij + B a_ij
    mu_,i   = 2 B lambda_i

with a real constant B.  The fiber has real dimension n^2 + 2n + 1
= (n+1)^2; every operation below is linear in the fiber variables, and a
state vanishing at one point vanishes along every curve (the basis of the
rank procedure in ``degree_of_mobility``).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .errors import (InsufficientJetError, InvalidInputError, OutOfDomainError,
                     ProportionalSolutionError)
from .geometry import christoffels, cov_derivatives, cov_step_jet, riemann
from .hproj import (SolutionField, curvature_condition, first_order_rhs, geom,
                    hermitian_symmetric_basis, hpr_residual)
from .jets import Jet, jet_einsum, jet_eval, jet_space
from .tensors import hermitize


# -- prolonged states ---------------------------------------------------------

@dataclass
class ProlongedState:
    """One fiber vector (a, lambda, mu) of the prolonged system at a point."""

    a: np.ndarray
    lam: np.ndarray
    mu: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        self.mu = float(self.mu)

    def projected(self, J):
        return ProlongedState(hermitize(self.a, J), self.lam, self.mu)

    def to_dict(self):
        return {"a": self.a.tolist(), "lambda": self.lam.tolist(), "mu": self.mu}


def _pack(a, lam, mu):
    """Fiber states as the rows of one matrix: a (row-major), lambda, mu;
    any leading axes of the states are kept."""
    return np.concatenate([a.reshape(a.shape[:-2] + (-1,)), lam, mu[..., None]], axis=-1)


def _unpack(P, d):
    """The (a, lambda, mu) batch whose rows ``_pack`` made."""
    return P[:, :d * d].reshape(-1, d, d), P[:, d * d:-1], P[:, -1]


def fiber_dimension(n):
    return (n + 1) ** 2


def fiber_basis(model):
    """Basis of the prolonged fiber: hermitian symmetric a's, the lambda
    directions, and mu.  Length (n+1)^2; the states are read-only views of
    the cached fiber frame (``_fiber_tables``)."""
    basis = [ProlongedState(*state)
             for state in zip(*_fiber_tables(model.j_matrix()).states)]
    if len(basis) != fiber_dimension(model.n):
        raise InvalidInputError("hermitian basis has unexpected dimension")
    return basis


def _readonly(arr):
    arr.flags.writeable = False
    return arr


class _FiberTables:
    """The fiber frame of one complex structure J, and the prolonged
    connection tabulated in its coordinates.

    The frame is the fiber basis as the packed rows of one (N, d^2 + d + 1)
    matrix E: orthonormal, so ``P @ E.T`` gives the fiber coordinates of
    packed states P, projected onto the fiber (a hermitized), and ``C @ E``
    the packed states of coordinates C.

    ``_rhs`` is linear in the state, and apart from its B-terms bilinear in
    the state and the features phi = [g xdot, g J xdot, vec C] of the
    geometry along x' = xdot, C = xdot.Gamma.  So the stage matrix of
    ``_step_matrices`` at a point is A = A_B + phi T, where A_B holds the
    B-terms and depends on xdot alone (``b_term``), and the table T depends
    on J alone: its row f is ``_rhs`` at B = 0 on the frame states, in
    fiber coordinates, under a probe geometry whose features are the unit
    vector e_f.  g xdot and g J xdot reach only the derivatives of the
    lambda and mu states, the last d + 1 rows of A, so the 2d g rows keep
    the entries of those rows only: the flattened N x N matrix from
    ``tail`` on.  The g rows are built with the entry and the d^2 C rows
    on the first curved segment, d rows per ``_rhs`` call, so no temporary
    holds every feature.  Every array is read-only.
    """

    def __init__(self, J):
        d = J.shape[0]
        herm = hermitian_symmetric_basis(J).reshape(-1, d * d)
        frame = np.zeros((len(herm) + d + 1, d * d + d + 1))
        frame[:len(herm), :d * d] = herm
        frame[len(herm):, d * d:] = np.eye(d + 1)
        self.J, self.frame = J, _readonly(frame)
        self.states = _unpack(self.frame, d)
        # probe velocity e_0, and the covectors w with w @ [e_0, J e_0] = 1:
        # the metric e_i w[0] has g xdot = e_i, g J xdot = 0; e_i w[1] the reverse
        self._xdot = np.eye(d)[0]
        W = np.stack([self._xdot, J[:, 0]], axis=1)
        self._w = np.linalg.solve(W.T @ W, W.T)
        self.tail = len(herm) * len(frame)
        self.g_rows = _readonly(self._tabulate(0, 2 * d, self.tail))
        self._c_rows = None

    def _tabulate(self, start, stop, first=0):
        """Rows start..stop of T, from entry ``first`` of their flattened
        N x N matrices on."""
        d = self.J.shape[0]
        out = np.empty((stop - start, len(self.frame) ** 2 - first))
        for lo in range(start, stop, d):
            feats = range(lo, min(lo + d, stop))
            gm = np.zeros((len(feats), 1, d, d))
            gamma = np.zeros((len(feats), 1, d, d, d))
            for k, f in enumerate(feats):
                if f < 2 * d:                        # g xdot or g J xdot = e_i
                    gm[k, 0, f % d] = self._w[f // d]
                else:                                # C = xdot.Gamma = e_a e_i^T
                    a, i = divmod(f - 2 * d, d)
                    gamma[k, 0, a, 0, i] = 1.0
            da, dlam, dmu = _rhs(gm, self.J, gamma, self._xdot, 0.0, *self.states)
            rows = self.coordinates(da, dlam, dmu).reshape(len(feats), -1)
            out[lo - start:lo - start + len(feats)] = rows[:, first:]
        return out

    def coordinates(self, da, dlam, dmu):
        """Derivatives of the frame states, packed, in fiber coordinates:
        (..., N, N), row m that of state m."""
        return _pack(da, dlam, np.broadcast_to(dmu, dlam.shape[:-1])) @ self.frame.T

    def c_rows(self):
        """The C rows of T, built on first use."""
        if self._c_rows is None:
            d = self.J.shape[0]
            self._c_rows = _readonly(self._tabulate(2 * d, 2 * d + d * d))
        return self._c_rows

    def b_term(self, xdot, B):
        """A_B: the stage matrix of the B-terms, which need no geometry."""
        d = len(xdot)
        return self.coordinates(*_rhs(np.zeros((d, d)), self.J, np.zeros((d, d, d)),
                                      xdot, B, *self.states))


@lru_cache(maxsize=1)
def _tables_by_bytes(d, raw):
    return _FiberTables(np.frombuffer(raw).reshape(d, d))


def _fiber_tables(J):
    """The ``_FiberTables`` of J, from a cache keyed by its bytes, so that no
    model is held.  It keeps the last J only: an op transports under one J,
    and the C rows at d = 12 hold 2.8 MB."""
    return _tables_by_bytes(J.shape[0], np.ascontiguousarray(J, dtype=float).tobytes())


# -- residuals of the prolonged system ---------------------------------------

def extended_residual(model, sol, point, B=None):
    """Residual triple of the prolonged system at a point.

    Returns (r1, r2, r3): the first-order defect (d,d,d), the
    nabla-lambda defect (d,d) and the d-mu defect (d,).
    """
    B = sol.B if B is None else B
    if B is None:
        raise InvalidInputError("extended_residual needs the constant B")
    g = geom(model, point, 1)
    gm = g["g"].const
    a = sol.a_jet(point, 0).const
    lam = sol.lam_jet(point, 0).const
    mu = float(sol.mu_jet(point, 0).const)
    r1 = hpr_residual(model, sol, point)
    dlam = cov_step_jet(sol.lam_jet(point, 1), ("l",), g["gamma"]).const
    r2 = dlam - mu * gm - B * a
    dmu = sol.mu_jet(point, 1).gradient().const
    r3 = dmu - 2.0 * B * lam
    return r1, r2, r3


def estimate_B(model, sol, point, rel_floor=1e-8):
    """Least-squares coupling constant from the trace-free proportionality

        dlam_ij - (tr dlam / 2n) g_ij  =  B (a_ij - (2/n) lam_sc g_ij)

    Returns (B, fit_residual).  Solutions proportional to g are rejected.
    """
    g = geom(model, point, 1)
    gm, ginv = g["g"].const, g["ginv"].const
    d = model.dim
    a = sol.a_jet(point, 0).const
    lam_sc = float(sol.lambda_scalar_jet(point, 0).const)
    t = a - (2.0 / model.n) * lam_sc * gm
    t_norm = np.linalg.norm(t)
    if t_norm <= rel_floor * max(np.linalg.norm(a), 1.0):
        raise ProportionalSolutionError(
            "solution is proportional to the metric; B is not determined")
    dlam = cov_step_jet(sol.lam_jet(point, 1), ("l",), g["gamma"]).const
    lhs = dlam - (np.einsum("ij,ij->", ginv, dlam) / d) * gm
    B = float(np.sum(lhs * t) / np.sum(t * t))
    return B, float(np.max(np.abs(lhs - B * t)))


def constant_curvature_tensor(gm, J):
    """Algebraic curvature tensor with holomorphic sectional curvature 1:

        K^a_jkl = (1/4)(d^a_k g_jl - d^a_l g_jk
                        + J^a_k J_jl - J^a_l J_jk + 2 J^a_j J_kl)
    """
    gm = np.asarray(gm, dtype=float)
    J = np.asarray(J, dtype=float)
    d = gm.shape[0]
    delta = np.eye(d)
    Jlow = gm @ J
    return 0.25 * (np.einsum("ak,jl->ajkl", delta, gm)
                   - np.einsum("al,jk->ajkl", delta, gm)
                   + np.einsum("ak,jl->ajkl", J, Jlow)
                   - np.einsum("al,jk->ajkl", J, Jlow)
                   + 2.0 * np.einsum("aj,kl->ajkl", J, Jlow))


# -- segments and transport ----------------------------------------------------

@dataclass
class Segment:
    """The straight segment x(t) = x0 + t (x1 - x0), t in [0, 1], inside one
    chart."""

    chart: str
    x0: np.ndarray
    x1: np.ndarray

    @property
    def length(self):
        return float(np.linalg.norm(self.x1 - self.x0))


def rectangle_loop(chart, center, axis_i, axis_j, side):
    """Four segments around a coordinate-plane rectangle."""
    center = np.asarray(center, dtype=float)
    e_i = np.zeros_like(center)
    e_j = np.zeros_like(center)
    e_i[axis_i] = side
    e_j[axis_j] = side
    corners = [center, center + e_i, center + e_i + e_j, center + e_j, center]
    return [Segment(chart, corners[k], corners[k + 1]) for k in range(4)]


def lattice_loops(model, base_point):
    """Closed loops of a periodic model: straight runs over one period."""
    if model.periods is None:
        return []
    return [[Segment(base_point.chart, base_point.coords, base_point.coords + e)]
            for e in np.diag(model.periods)]


def _geo_floats(model, chart, x):
    """(g, Gamma) at one chart point: a batch of one."""
    G, GAM = _geo_floats_batch(model, chart, np.asarray(x, dtype=float)[None])
    return G[0], GAM[0]


def _geo_floats_batch(model, chart, X):
    """(g, Gamma) stacked over a batch of chart points X of shape (B, d).

    One metric evaluation on order-1 coordinate jets with payload (B,)
    gives g and its partials for the whole batch; a constant metric comes
    back as an array and has Gamma = 0.
    """
    B_, d = X.shape
    gjet = model.metric_fn(chart)(Jet.variables(jet_space(d, 1), X))
    if not isinstance(gjet, Jet):
        return (np.broadcast_to(gjet, (B_, d, d)),
                np.broadcast_to(np.zeros((d, d, d)), (B_, d, d, d)))
    return gjet.const, christoffels(gjet.const, gjet.derivatives(1))


def _rhs(gm, J, gamma, xdot, B, a, lam, mu):
    """Derivative of the states (a, lam, mu) along x' = xdot under the
    geometry (gm, gamma).  Leading axes broadcast as in matmul: geometry of
    shape (S, 1, d, d) and (S, 1, d, d, d) against N states gives (S, N, ...)
    derivatives, except dmu, which needs no geometry."""
    gx = gm @ xdot
    Jx = (gm @ J) @ xdot
    lbar = lam @ J
    C = xdot @ gamma                                # C_ai = Gamma^a_ki xdot^k
    u = lam[..., :, None] * gx[..., None, :] - lbar[..., :, None] * Jx[..., None, :]
    da = u + np.swapaxes(u, -1, -2) + np.swapaxes(C, -1, -2) @ a + a @ C
    dlam = mu[..., None] * gx + B * (a @ xdot) + (lam[..., None, :] @ C)[..., 0, :]
    dmu = 2.0 * B * (lam @ xdot)
    return da, dlam, dmu


# Steps per block of a segment propagator: bounds the (stages, N, N)
# temporaries of one block, and so the peak memory.
_STEP_BLOCK = 32


def _stage_matrices(tables, G, GAM, xdot, A_B, curved):
    """The stage matrices A_B + phi T (see ``_FiberTables``) at a stack of
    stage points with geometry G, GAM, (S, N, N): the C features times the C
    rows when ``curved`` (Gamma != 0), and the g features times the g rows
    into the last d + 1 rows of each matrix."""
    S, N = len(G), len(tables.frame)
    A = ((xdot @ GAM).reshape(S, -1) @ tables.c_rows() if curved
         else np.zeros((S, N * N)))
    A += A_B.reshape(-1)
    A[:, tables.tail:] += np.concatenate([G @ xdot, (G @ tables.J) @ xdot],
                                         axis=1) @ tables.g_rows
    return A.reshape(S, N, N)


def _step_matrices(tables, G, GAM, xdot, A_B, h):
    """The RK4 step matrices, in fiber coordinates, of the k steps whose
    2k + 1 stage points carry the geometry G, GAM, on a segment with
    velocity xdot and B-terms A_B.

    The system is linear, so a stage is the matrix A whose row m is the
    derivative of fiber basis state m, in fiber coordinates: y' = y A for a
    row of coordinates y.  One RK4 step is then y -> y M with
    M = I + h/6 (A_0 + 2 K_2 + 2 K_3 + K_4), K_2 = A_h + h/2 A_0 A_h,
    K_3 = A_h + h/2 K_2 A_h and K_4 = A_1 + h K_3 A_1.  The stage matrices
    of the k + 1 step ends and of the k half steps come from one
    ``_stage_matrices`` call each; A_0 and A_1 are contiguous views of the
    ends.
    """
    curved = bool(GAM.any())
    ends = _stage_matrices(tables, G[::2], GAM[::2], xdot, A_B, curved)
    half = _stage_matrices(tables, G[1::2], GAM[1::2], xdot, A_B, curved)
    A0, A1 = ends[:-1], ends[1:]
    K = A0 @ half
    K *= h / 2
    K += half                           # K_2
    M = 2.0 * K
    M += A0
    P = K @ half
    P *= h / 2
    P += half                           # K_3
    np.multiply(P, 2.0, out=K)
    M += K
    np.matmul(P, A1, out=K)
    K *= h
    K += A1                             # K_4
    M += K
    M *= h / 6
    M.reshape(len(M), -1)[:, ::M.shape[1] + 1] += 1.0     # + I
    return M


def _tree_product(M):
    """M[0] @ M[1] @ ... @ M[-1], multiplied pairwise: log2(k) batched
    products in place of k - 1 single ones."""
    while len(M) > 1:
        pairs = M[:-1:2] @ M[1::2]
        M = np.concatenate([pairs, M[-1:]]) if len(M) % 2 else pairs
    return M[0]


def _transport_batch(model, B, segments, a, lam, mu, step):
    """RK4 transport of a batch of states along a list of segments.

    The states enter as fiber coordinates (so a is hermitized once, at
    entry) and leave as states.  Along each segment, the geometry at every
    RK4 stage point is one batched evaluation, and its velocity x1 - x0 is
    the same at every stage.  The segment's propagator is the product of
    its step matrices (``_step_matrices``, from J's cached connection table
    ``_fiber_tables``), built _STEP_BLOCK steps at a time and multiplied as
    a pairwise tree, each block's product joining the running one; it is
    applied to the coordinates once.  When every stage point sees the same
    g and Gamma vanishes (a constant metric), every step is the same
    matrix, built from the first three stage points and raised to the step
    count.  The B-terms of the stage matrices depend on the velocity
    alone, so they are built once per segment.  A segment that leaves its
    chart raises ``OutOfDomainError`` with its start point and the states
    there.
    """
    tables = _fiber_tables(model.j_matrix(segments[0].chart))
    frame = tables.frame
    d = model.dim
    coords = _pack(a, lam, mu) @ frame.T
    for seg in segments:
        nsteps = max(1, int(np.ceil(seg.length / step)))
        h = 1.0 / nsteps
        ts = np.minimum(np.arange(2 * nsteps + 1) * (h / 2.0), 1.0)
        xdot = seg.x1 - seg.x0
        X = seg.x0 + ts[:, None] * xdot
        if model.periods is None and not model.chart(seg.chart).contains(X).all():
            raise OutOfDomainError(f"transport left chart {seg.chart}",
                                   last_sample=(seg.x0,) + _unpack(coords @ frame, d))
        G, GAM = _geo_floats_batch(model, seg.chart, X)
        A_B = tables.b_term(xdot, B)
        if not GAM.any() and (G == G[0]).all():
            M = _step_matrices(tables, G[:3], GAM[:3], xdot, A_B, h)[0]
            coords = coords @ np.linalg.matrix_power(M, nsteps)
            continue
        prop = np.eye(len(frame))
        for s in range(0, nsteps, _STEP_BLOCK):
            block = slice(2 * s, 2 * min(s + _STEP_BLOCK, nsteps) + 1)
            prop = prop @ _tree_product(_step_matrices(tables, G[block], GAM[block], xdot,
                                                       A_B, h))
        coords = coords @ prop
    return _unpack(coords @ frame, d)


def _stack(states):
    """A list of ProlongedState as the (a, lambda, mu) batch arrays."""
    return (np.stack([s.a for s in states]), np.stack([s.lam for s in states]),
            np.array([s.mu for s in states]))


def transport_states(model, B, segments, states, step=1e-3):
    """Batched transport of a list of ProlongedState along the same path
    (list of segments) at a fixed step."""
    a, lam, mu = _transport_batch(model, B, segments, *_stack(states), step)
    return [ProlongedState(a[i], lam[i], mu[i]) for i in range(len(states))]


def frobenius_complete(model, B, point, state: ProlongedState, order):
    """Taylor coefficients of the solution field through a fiber state.

    Degree r+1 coefficients are read off the system's right-hand side at
    degree r; integrability of the system makes the construction
    independent of the index choices.
    """
    d = model.dim
    sp = jet_space(d, order)
    a_jet = Jet.constant(sp, state.a)
    lam_jet = Jet.constant(sp, state.lam)
    mu_jet = Jet.constant(sp, np.asarray(state.mu))
    if order == 0:
        return a_jet, lam_jet, mu_jet
    g = geom(model, point, order)
    gjet, gamma, J = g["g"], g["gamma"], g["J"]
    Jlow_jet = jet_einsum("ja,ak->jk", gjet, J)

    for r in range(order):
        Fa, Fl, Fm = _coordinate_rhs_jets(gjet, Jlow_jet, gamma, J, B,
                                          a_jet, lam_jet, mu_jet)
        for pos, e in enumerate(sp.exponents):
            if sum(e) != r + 1:
                continue
            k = next(i for i, ek in enumerate(e) if ek > 0)
            em = list(e)
            em[k] -= 1
            src = Fa.space.index[tuple(em)]
            a_jet.coef[pos] = Fa.coef[src][..., k] / e[k]
            lam_jet.coef[pos] = Fl.coef[src][..., k] / e[k]
            mu_jet.coef[pos] = Fm.coef[src][..., k] / e[k]
    return a_jet, lam_jet, mu_jet


def _coordinate_rhs_jets(gjet, Jlow_jet, gamma, J, B, a_jet, lam_jet, mu_jet):
    """Coordinate derivatives (not covariant) of the fiber as jets; the last
    payload axis is the derivative direction."""
    lbar = jet_einsum("ai,a->i", J, lam_jet)
    t1 = jet_einsum("i,jk->ijk", lam_jet, gjet)
    t2 = Jet(t1.space, np.swapaxes(t1.coef, 1, 2))
    t3 = jet_einsum("i,jk->ijk", lbar, Jlow_jet)
    t4 = Jet(t3.space, np.swapaxes(t3.coef, 1, 2))
    cov_a = t1 + t2 - t3 - t4
    corr_a = (jet_einsum("aki,aj->ijk", gamma, a_jet)
              + jet_einsum("akj,ia->ijk", gamma, a_jet))
    Fa = cov_a + corr_a
    Fl = (jet_einsum(",ik->ik", mu_jet, gjet) + a_jet * B
          + jet_einsum("aki,a->ik", gamma, lam_jet))
    Fm = lam_jet * (2.0 * B)
    return Fa, Fl, Fm


# -- local mobility estimation ---------------------------------------------

ROW_FLOOR = 1e-7   # shorter constraint rows are dropped before normalization
SVD_TOL = 1e-8     # singular values above SVD_TOL times the largest make the rank
LOOP_SIDE = 0.3    # side of each coordinate-plane rectangle loop
N_TRANSPORT_POINTS = 4   # random curvature-condition points near the base point


@dataclass
class MobilityConfig:
    step: float = 2e-3
    max_batches: int = 64
    seed: int = 0


@dataclass
class MobilityReport:
    B: float
    dimension: int
    basis: list         # prolonged states at base_point
    constraint_history: list
    singular_values: list
    gap: float          # None where no cut is above round-off (see degree_of_mobility)
    base_point: object
    stabilized: bool    # the rank stop rule fired before the batches ran out
    warning: str = None
    scope: str = "local mobility estimate"

    def to_dict(self, include_basis=True):
        out = {
            "B": self.B,
            "dimension": self.dimension,
            "constraint_history": self.constraint_history,
            "singular_values": self.singular_values,
            "gap": self.gap,
            "warning": self.warning,
            "scope": self.scope,
        }
        if include_basis:
            out["basis"] = [s.to_dict() for s in self.basis]
        return out


def _int_cond_rows(gm, J, R, B, a_stack):
    """The curvature condition at nabla lambda = B a, one column per state."""
    res = curvature_condition(a_stack, B * a_stack, R, gm, J)
    return res.reshape(res.shape[0], -1).T


def _constraint_rows(model, B, batch, start, states, step):
    """Raw rows of one constraint batch on a batch of states (a, lambda, mu)
    at the chart point ``start``, one column per state.

    ``("point", x)``: the curvature condition at x, on the states carried
    there along the line from ``start`` (not moved when x is ``start``).
    ``("loop", segments)``: the closure defect around a loop from ``start``.
    """
    kind, payload = batch
    if kind == "loop":
        return (_pack(*_transport_batch(model, B, payload, *states, step))
                - _pack(*states)).T
    a = states[0]
    if not np.array_equal(payload, start.coords):
        seg = Segment(start.chart, start.coords, payload)
        a = _transport_batch(model, B, [seg], *states, step)[0]
    g = geom(model, model.point(payload, start.chart), 2)
    return _int_cond_rows(g["g"].const, g["J"], riemann(g["gamma"]), B, a)


def _row_norms(raw):
    """Euclidean norms of the rows of ``raw``, summed one state column at a
    time: no temporary the size of ``raw``, and the same sums, in the same
    order, as ``np.linalg.norm(raw, axis=1)``."""
    sq = np.zeros(raw.shape[0])
    for col in raw.T:
        sq += col * col
    return np.sqrt(sq)


def _canonical_order(rows):
    """``rows`` sorted by their bytes, so the stacked constraint matrix, and
    every singular value of it, does not depend on the order a batch
    computes its rows in."""
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    return rows[np.argsort(keys, kind="stable")]


def _canonical_basis(kernel):
    """An orthonormal basis of the row space of ``kernel`` that depends on
    the subspace only: Gram-Schmidt on the columns of its projector K^T K in
    fiber-basis order, keeping residuals above 1/(2 sqrt N).  None of the
    subspace is missed: a projector whose N columns are all that short has
    trace at most 1/4."""
    P = kernel.T @ kernel
    out = np.zeros((0, P.shape[0]))
    for col in P.T:
        if len(out) == len(kernel):
            break
        for _ in range(2):          # Gram-Schmidt twice keeps it orthogonal
            col = col - out.T @ (out @ col)
        norm = np.linalg.norm(col)
        if norm > 0.5 / np.sqrt(len(P)):
            out = np.vstack([out, col / norm])
    return out


def _pencil_candidates(model, base_point):
    """Candidate coupling constants, largest multiplicity first.

    On hermitian a the curvature condition at the base point is affine in B,
    rows(a) = L(a) - B T(a), so an admissible B is an eigenvalue of the
    pencil (L, T), read off the least-squares map T^+ L.  That adds spurious
    values (0 always: a = g is in the kernels of L and T), so the constraint
    stream has to confirm each candidate."""
    g = geom(model, base_point, 2)
    gm, J = g["g"].const, g["J"]
    herm = _fiber_tables(J).states[0][:-(len(J) + 1)]
    L = _int_cond_rows(gm, J, riemann(g["gamma"]), 0.0, herm)
    T = -_int_cond_rows(gm, J, np.zeros((gm.shape[0],) * 4), 1.0, herm)
    w = np.linalg.eigvals(np.linalg.lstsq(T, L, rcond=None)[0])
    real = np.sort(w.real[np.abs(w.imag) <= 1e-8 * np.maximum(1.0, np.abs(w.real))])
    cuts = np.flatnonzero(np.diff(real) > 1e-8 * np.maximum(1.0, np.abs(real[1:])))
    clusters = sorted(np.split(real, cuts + 1), key=len, reverse=True)  # ties by value
    return [float(np.mean(c)) + 0.0 for c in clusters]    # + 0.0 turns -0.0 into 0.0


def _constraint_batches(model, base_point, config):
    """The constraint batch queue of ``degree_of_mobility``, in order: the
    curvature condition at the base point, closure around each lattice
    loop, then the coordinate-plane rectangles interleaved with the
    curvature condition at random points near the base point."""
    rng = np.random.default_rng(config.seed)
    d = model.dim
    batches = [("point", base_point.coords)]
    batches += [("loop", loop) for loop in lattice_loops(model, base_point)]
    planes = [("loop", rectangle_loop(base_point.chart, base_point.coords,
                                      i, j, LOOP_SIDE))
              for i in range(d) for j in range(i + 1, d)]
    points = [("point", base_point.coords + rng.uniform(-0.25, 0.25, d))
              for _ in range(N_TRANSPORT_POINTS)]
    batches += [b for pair in zip_longest(planes, points) for b in pair if b is not None]
    return batches


def degree_of_mobility(model, B, base_point=None, config=None):
    """Estimate the dimension of the local solution space of the prolonged
    system at a coupling constant B.

    Starting from the full (n+1)^2-dimensional fiber, linear constraints are
    imposed in batches (see ``_constraint_rows``): the curvature condition
    at the base point and at transported sample points, and transport
    closure around lattice and rectangle loops (``_constraint_batches``).
    Batches accumulate
    until the rank is the same three times in a row (``stabilized``); the
    kernel of the stacked constraint matrix is returned as a basis of
    prolonged states at the base point.  Each batch's unit rows are stacked
    in a canonical order, and singular values at or below the round-off
    floor N eps s_0 (N the fiber dimension, s_0 the largest) are reported
    as 0.0, with no ``gap`` across the cut: nothing in the report depends
    on the order of the rows.

    With B None, each candidate of the curvature pencil at the base point
    is run in turn, largest multiplicity first, and the largest kernel is
    kept; a candidate that keeps the whole fiber ends the search.
    """
    config = config or MobilityConfig()
    if base_point is None:
        base_point = model.point(np.zeros(model.dim))
    if B is None:
        best = None
        for cand in _pencil_candidates(model, base_point):
            rep = degree_of_mobility(model, cand, base_point, config)
            if best is None or rep.dimension > best.dimension:
                best = rep
            if best.dimension == fiber_dimension(model.n):
                break
        tag = "B chosen by sweep over the curvature pencil"
        best.warning = f"{best.warning}; {tag}" if best.warning else tag
        return best
    basis = fiber_basis(model)
    N = len(basis)
    states = _stack(basis)
    batches = _constraint_batches(model, base_point, config)

    rows = []
    history = []
    sv = np.array([])
    rank = stable = 0
    stabilized = False
    for batch in batches[:config.max_batches]:
        raw = _constraint_rows(model, B, batch, base_point, states, config.step)
        norms = _row_norms(raw)
        keep = norms > ROW_FLOOR
        if np.any(keep):
            kept = raw[keep]
            kept /= norms[keep, None]
            rows.append(_canonical_order(kept))
        if rows:
            sv = np.linalg.svd(np.concatenate(rows, axis=0), compute_uv=False)
        new_rank = int(np.sum(sv > SVD_TOL * sv[0])) if rows else 0
        history.append(new_rank)
        stable = stable + 1 if new_rank == rank else 0
        rank = new_rank
        if stable >= 2 and len(history) >= 3:
            stabilized = True
            break
    warning = None
    if not stabilized:
        warning = ("constraint batches truncated at max_batches"
                   if len(batches) > config.max_batches
                   else "rank did not stabilize over the configured batches")

    dim = N - rank
    if rows:
        M = np.concatenate(rows, axis=0)
        # the kernel needs all N rows of vt; the unused U stays thin when M
        # is tall (thousands of rows on a curved product)
        _, s, vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
        kernel = vt[rank:]
    else:
        s, kernel = sv, np.eye(N)
    # the ratio across the rank cut; None at rank 0, at full rank, and where
    # the values past the cut are round-off (at or below the floor)
    floor = N * np.finfo(float).eps * sv[0] if len(sv) else 0.0
    gap = float(s[rank - 1] / s[rank]) if 0 < rank < len(s) and s[rank] > floor else None

    coef = _canonical_basis(kernel)
    J = model.j_matrix(base_point.chart)
    basis = [ProlongedState(np.einsum("n,nij->ij", row, states[0]), row @ states[1],
                            float(row @ states[2])).projected(J) for row in coef]
    return MobilityReport(B=B, dimension=dim, basis=basis,
                          constraint_history=history,
                          singular_values=[float(x) if x > floor else 0.0 for x in sv],
                          gap=gap, base_point=base_point, stabilized=stabilized,
                          warning=warning)


def mobility_basis_grid(model, report: MobilityReport, points, step=2e-3):
    """Kernel basis states transported from the report's base point onto
    sample points (coordinates in its chart), JSON-ready."""
    base = report.base_point
    grid = []
    for x in points:
        pt = model.point(x, base.chart)
        seg = Segment(base.chart, base.coords, pt.coords)
        if seg.length == 0.0:
            states = report.basis
        else:
            states = transport_states(model, report.B, [seg], report.basis, step=step)
        grid.append({"point": pt.coords.tolist(),
                     "states": [s.to_dict() for s in states]})
    return grid


def kernel_certificate(model, B, base_point, states, points, step=2e-3):
    """Worst raw residual of prolonged states at ``base_point`` on fresh
    batches of the rows ``degree_of_mobility`` builds its kernel from: the
    curvature condition at each point after transport from the base point
    and, on a periodic model, closure around one lattice loop from there
    (direction k mod d at the k-th point).  Nothing is completed from the
    system under test, so a wrong kernel fails: the full fiber of FS n = 2
    or of a flat 2-torus at B = 0 scores above 1, and a non-finite residual
    makes the result non-finite."""
    if not states:
        return 0.0
    states = _stack(states)
    worst = 0.0
    for k, x in enumerate(points):
        pt = model.point(x, base_point.chart)
        seg = Segment(pt.chart, base_point.coords, pt.coords)
        moved = _transport_batch(model, B, [seg], *states, step)
        batches = [("point", pt.coords)]
        if model.periods is not None:
            batches.append(("loop", lattice_loops(model, pt)[k % model.dim]))
        for batch in batches:
            rows = _constraint_rows(model, B, batch, pt, moved, step)
            worst = float(np.max([worst, rows.max(), -rows.min()]))   # NaN stays NaN
    return worst


# -- third-order scalar equation ---------------------------------------------

def scalar_third_cov(model, f_fn, point):
    """(f, f_i, f_ij, f_ijk) exact covariant derivatives of a scalar field."""
    g = geom(model, point, 3)
    if g["g"].space.order < 3:
        raise InsufficientJetError("third covariant derivative needs order-3 jets")
    f_jet = jet_eval(f_fn, list(point.coords), 3)
    return (float(f_jet.const),) + tuple(
        j.const for j in cov_derivatives(f_jet, (), g["gamma"], 3))


def tanno_residual(model, f_fn, kappa, point):
    """Residual of the third-order equation

        f_,ijk = kappa (2 f_,k g_ij + f_,i g_jk + f_,j g_ik
                        - fbar_,i J_jk - fbar_,j J_ik)
    """
    g = geom(model, point, 3)
    gm = g["g"].const
    _, df, _, d3f = scalar_third_cov(model, f_fn, point)
    rhs = kappa * (2.0 * np.einsum("k,ij->ijk", df, gm) + first_order_rhs(df, gm, g["J"]))
    return d3f - rhs


class TannoSolution(SolutionField):
    """Prolonged solution built from a scalar field satisfying the
    third-order equation:  a = (1/kappa) hess f - 2 f g,  lambda = df,
    mu = 2 kappa f,  with B = kappa."""

    def __init__(self, model, f_fn, kappa):
        if kappa == 0.0:
            raise InvalidInputError(
                "kappa must be nonzero (flat quadratic scalars are handled by "
                "tanno_residual only)")
        super().__init__(model, float(kappa))
        self.f_fn = f_fn
        self.kappa = float(kappa)

    def _f_jet(self, point, order):
        return jet_eval(self.f_fn, list(point.coords), order)

    def a_jet(self, point, order):
        g = geom(self.model, point, order + 1)
        f = self._f_jet(point, order + 2)
        hess = cov_step_jet(cov_step_jet(f, (), g["gamma"]), ("l",), g["gamma"])
        return (hess * (1.0 / self.kappa)
                - jet_einsum(",ij->ij", f.truncate(order) * 2.0,
                             g["g"].truncate(order)))

    def lam_jet(self, point, order):
        return self._f_jet(point, order + 1).gradient()

    def mu_jet(self, point, order):
        return self._f_jet(point, order) * (2.0 * self.kappa)


def laplace_identity_residual(model, sol, point, B=None):
    """Residual of the contracted third-order identity

        (Delta lam_sc)_,k = 4 B (n+1) lam_k

    where Delta is the scalar Laplacian g^ij (.)_,ij; computed from exact
    order-3 jets of the quarter-trace scalar.
    """
    B = sol.B if B is None else B
    if B is None:
        raise InvalidInputError("laplace identity needs B")
    g = geom(model, point, 3)
    df, _, d3f = (j.const for j in cov_derivatives(
        sol.lambda_scalar_jet(point, 3), (), g["gamma"], 3))
    lhs = np.einsum("ij,ijk->k", g["ginv"].const, d3f)
    return lhs - 4.0 * B * (model.n + 1) * df

