"""Test-only reference formulas, independent of the code under test.

The metric references are the entry-by-entry complex formulas: the
affine-chart projective metric

    g = 4 Re(h),   h_ij = (delta_ij s - conj(z_i) z_j) / s^2,   s = 1 + |z|^2,

and the pullback g_A = D^* h(u) D, where u is the image A hom(z) renormalized
into the affine chart farthest from its coordinate hyperplane and D is the
complex Jacobian of that chart map.  They run on CNum pairs of floats or
jets and return nested lists, so ``jet_eval`` gives their exact jets.

The connection reference is the closed-form complex Christoffel symbol of
the projective metric, the same in every affine chart:

    Gamma^i_jk = -(delta^i_j conj(z_k) + delta^i_k conj(z_j)) / (1 + |z|^2),

and that of a pullback is its transform under the holomorphic chart map u
of the linear map, Gamma = Du^-1 (Gamma_FS(u)(Du ., Du .) + D^2 u), with Du
and D^2 u written out from the complex derivatives of u.

The float connection and curvature references work from the metric and its
partials at one point: Gamma from the first-kind symbols raised with g^-1,
and R from Gamma and its partials d_l Gamma^i_jk, which differentiate that
formula by hand (d g^-1 = -g^-1 dg g^-1).  They take no jets and share no
code with the package's connection.

The line reference lifts each sample of a curve on its own to homogeneous
coordinates with complex numbers, the way ``line_deviation`` worked before
it lifted whole curves through the realified chart map.

The h-planar curve references work one sample at a time: the wedge defect
of [acc | v | Jv] with the covariant acceleration from a finite difference
and ``oracle_geometry``, its reparametrized copy, and the metric pairing
along a curve, the way the package computed them before it took whole
curves as arrays.

The transport reference is the prolonged system's right-hand side along a
curve, written index by index with einsum, and ``stepwise_transport``, which
takes one classical RK4 step of it after another on the states themselves,
hermitizing a after every step, the way the package transported before it
built a propagator per segment.  ``stage_matrices_reference`` evaluates that
right-hand side on every fiber basis state at every stage point, and
``fiber_frame_reference`` builds the frame anew each time, the way the
package did before it tabulated the connection once per complex structure.

The curvature-condition reference is the defect's former kernel: the two
a R terms and the four bracket terms as einsum outer products, with the
J-pair projection applied to the bracket laid out (k, l, i, j).

The jet-arithmetic references build the Leibniz pairs of a jet space from its
exponent dict in a double loop and add the terms up with ``np.add.at``;
inverses come from Newton's iteration X <- X (2 - A X), and determinants
from LU with partial pivoting on the value part, over those products.
``padded`` lifts a jet to a higher order, so that the package's table
recurrence can be run on an order-1 jet and compared with its order-1 case.

The jet-derivative references are the package's former ones:
``stacked_partials`` differentiates one variable at a time from a shift
table built from the exponent dict and stacks the partials on a trailing
axis, and ``factorial_derivatives`` reads the order-r partials off the
degree-r coefficients times alpha!.

``CNum`` is a complex number over generic real scalars (floats, arrays or
jets), so complex chart formulas run on jets; it divides through ``recip``,
since a Jet has no division operator.  ``fd_gradient`` and
``fd_hessian`` are 4th-order central differences: a derivative backend that
shares nothing with the jets.

The reference solution fields are exact by construction: the metric itself
(c g, 0, -c B), and a field of caller-supplied jet builders.  They feed the
package's residuals, which must vanish on them, or show a planted defect.
``killing_residual`` is the Lie derivative of the metric along a vector field.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from kahlerlab.geometry import cov_step_jet
from kahlerlab.hproj import SolutionField, geom, hermitian_symmetric_basis
from kahlerlab.jets import Jet, jet_einsum, jet_eval, jet_space
from kahlerlab.prolongation import _geo_floats_batch
from kahlerlab.tensors import hermitize, jtensor_contract


class CNum:
    """Complex number over generic real scalars (float, array or Jet).

    Only the rational operations needed by the chart formulas.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0.0):
        self.re = re
        self.im = im

    def conj(self):
        return CNum(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        other = _as_cnum(other)
        return CNum(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return CNum(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_as_cnum(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_cnum(other)
        return CNum(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_cnum(other)
        inv = recip(other.abs2())
        num = self * other.conj()
        return CNum(num.re * inv, num.im * inv)

    def __rtruediv__(self, other):
        return _as_cnum(other) / self


def recip(x):
    """1/x of a float, an array or a Jet (which has no division operator)."""
    return x.reciprocal() if isinstance(x, Jet) else 1.0 / x


def _as_cnum(x):
    if isinstance(x, CNum):
        return x
    if isinstance(x, complex):
        return CNum(x.real, x.imag)
    return CNum(x, 0.0)


# -- finite differences --------------------------------------------------------

_FD4 = (np.array([-2.0, -1.0, 1.0, 2.0]), np.array([1.0, -8.0, 8.0, -1.0]) / 12.0)


def fd_gradient(fn, x, step=1e-4):
    """4th-order central first partials of fn (vector -> array) at x."""
    x = np.asarray(x, dtype=float)
    offs, weights = _FD4
    cols = []
    for v in range(len(x)):
        acc = 0.0
        for o, w in zip(offs, weights):
            xp = x.copy()
            xp[v] += o * step
            acc = acc + w * np.asarray(fn(list(xp)), dtype=float)
        cols.append(acc / step)
    return np.stack(cols, axis=-1)


def fd_hessian(fn, x, step=1e-3):
    """4th-order central second partials (gradient of the FD gradient)."""
    return fd_gradient(lambda y: fd_gradient(fn, y, step), x, step)


# -- reference solution fields -------------------------------------------------

def zero_vec_jet(model, order):
    """The zero 1-form as a jet of the given order."""
    sp = jet_space(model.dim, order)
    return Jet(sp, np.zeros((sp.ncoef, model.dim)))


class TrivialSolution(SolutionField):
    """The metric itself, scaled: (c*g, 0, -c*B)."""

    def __init__(self, model, c=1.0, B=None):
        super().__init__(model, B)
        self.c = float(c)

    def a_jet(self, point, order):
        return geom(self.model, point, order)["g"].truncate(order) * self.c

    def lam_jet(self, point, order):
        return zero_vec_jet(self.model, order)

    def mu_jet(self, point, order):
        return Jet.constant(jet_space(self.model.dim, order), -self.c * self.B)


class ExplicitSolution(SolutionField):
    """Solution with caller-supplied jet builders; an omitted builder falls
    back to the quarter-trace lambda or the g-trace mu fit."""

    def __init__(self, model, a_builder, lam_builder=None, mu_builder=None, B=None):
        super().__init__(model, B)
        self._a = a_builder
        self._lam = lam_builder
        self._mu = mu_builder

    def a_jet(self, point, order):
        return self._a(point, order)

    def lam_jet(self, point, order):
        if self._lam is None:
            return super().lam_jet(point, order)
        return self._lam(point, order)

    def mu_jet(self, point, order):
        if self._mu is None:
            return super().mu_jet(point, order)
        return self._mu(point, order)


def killing_residual(model, v_fn, point):
    """Lie derivative of the metric along the vector field v (v_i,j + v_j,i)."""
    g = geom(model, point, 1)
    v = jet_eval(v_fn, list(point.coords), 1)
    vlow = jet_einsum("ia,a->i", g["g"], v)
    dv = cov_step_jet(vlow, ("l",), g["gamma"]).const
    return dv + dv.T


def _to_cnums(xs):
    return [CNum(xs[2 * k], xs[2 * k + 1]) for k in range(len(xs) // 2)]


def _mag(x):
    v = x.const if isinstance(x, Jet) else x
    return abs(float(np.asarray(v).flat[0]))


def _cnum(c):
    return CNum(float(c.real), float(c.imag))


def hermitian_to_real(h, scale=1.0):
    """Realify a hermitian matrix of CNum entries into a (2n, 2n) metric block."""
    n = len(h)
    g = [[None] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            re, im = h[i][j].re * scale, h[i][j].im * scale
            g[2 * i][2 * j] = re
            g[2 * i + 1][2 * j + 1] = re
            g[2 * i][2 * j + 1] = im
            g[2 * i + 1][2 * j] = -1.0 * im
    return g


def fs_hermitian(z):
    """Affine-chart projective metric, hermitian part (before the factor 4)."""
    n = len(z)
    s = 1.0
    for zk in z:
        s = s + zk.abs2()
    inv_s2 = recip(s * s)
    h = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            num = (CNum(s, 0.0) if i == j else CNum(0.0, 0.0)) - z[i].conj() * z[j]
            h[i][j] = num * inv_s2
    return h


def pullback_metric_oracle(n, chart_index, A=None):
    """Metric function of the pullback of the projective metric under the
    linear map A (None: the projective metric) in affine chart chart_index."""

    def fn(xs):
        z = _to_cnums(xs)
        if A is None:
            return hermitian_to_real(fs_hermitian(z), 4.0)
        it = iter(z)
        hom = [CNum(1.0, 0.0) if m == chart_index else next(it) for m in range(n + 1)]
        w = [sum((_cnum(A[m, l]) * hom[l] for l in range(n + 1)), CNum(0.0, 0.0))
             for m in range(n + 1)]
        t = max(range(n + 1), key=lambda m: _mag(w[m].abs2()))
        piv = w[t]
        rows = [m for m in range(n + 1) if m != t]
        cols = [l for l in range(n + 1) if l != chart_index]
        u = [w[m] / piv for m in rows]
        # du_m/dz_l = (A_ml w_t - w_m A_tl) / w_t^2
        piv2 = piv * piv
        D = [[(_cnum(A[m, l]) * piv - w[m] * _cnum(A[t, l])) / piv2 for l in cols]
             for m in rows]
        h = fs_hermitian(u)
        ha = [[sum((h[m][mp] * D[m][l] * D[mp][lp].conj()
                    for m in range(n) for mp in range(n)), CNum(0.0, 0.0))
               for lp in range(n)] for l in range(n)]
        return hermitian_to_real(ha, 4.0)

    return fn


def fs_christoffel_oracle(x):
    """Real Gamma[i, j, k] of the projective metric at affine coordinates x,
    from the complex closed form: Gamma(u, v) is the complex bilinear form
    applied to the complex vectors of u and v, read back as (re, im) pairs."""
    z = np.asarray(x[0::2]) + 1j * np.asarray(x[1::2])
    n = len(z)
    eye = np.eye(n)
    gc = -(np.einsum("ij,k->ijk", eye, z.conj()) + np.einsum("ik,j->ijk", eye, z.conj()))
    gc /= 1.0 + np.vdot(z, z).real
    basis = np.zeros((2 * n, n), dtype=complex)   # complex vector of each real axis
    basis[0::2] = eye
    basis[1::2] = 1j * eye
    w = np.einsum("ijk,bj,ck->ibc", gc, basis, basis)
    out = np.empty((2 * n, 2 * n, 2 * n))
    out[0::2], out[1::2] = w.real, w.imag
    return out


def pullback_christoffel_oracle(A, chart_index, x):
    """Real Gamma[i, j, k] of the pullback of the projective metric under A
    at affine coordinates x of chart ``chart_index``, by the transformation
    law of the connection under the local isometry x -> u, where u is the
    image w = A hom(z) in the affine chart of its largest slot t:

        Gamma = Du^-1 (Gamma_FS(u)(Du ., Du .) + D^2 u).

    u is holomorphic, so its real partials are its complex ones, times i
    along each y axis: du_m/dz_l = (A_ml - u_m A_tl) / w_t, and
    d^2 u_m / dz_j dz_k = -(du_m/dz_k A_tj + du_m/dz_j A_tk) / w_t."""
    n = len(A) - 1
    z = np.asarray(x[0::2]) + 1j * np.asarray(x[1::2])
    w = A @ np.insert(z, chart_index, 1.0)
    t = int(np.argmax(np.abs(w)))
    rows = [m for m in range(n + 1) if m != t]
    cols = [l for l in range(n + 1) if l != chart_index]
    u, at = w[rows] / w[t], A[t, cols]
    D = (A[np.ix_(rows, cols)] - np.outer(u, at)) / w[t]
    D2 = -(np.einsum("mk,j->mjk", D, at) + np.einsum("mj,k->mjk", D, at)) / w[t]
    axis = np.tile([1.0, 1j], n)              # d/dx_l = d/dz_l, d/dy_l = i d/dz_l
    var = np.repeat(np.arange(n), 2)
    Dc = D[:, var] * axis
    D2c = D2[:, var][:, :, var] * np.outer(axis, axis)

    def real(c):                              # complex rows -> interleaved (re, im) rows
        out = np.empty((2 * n,) + c.shape[1:])
        out[0::2], out[1::2] = c.real, c.imag
        return out

    Du, D2u = real(Dc), real(D2c)
    gfs = fs_christoffel_oracle(real(u[:, None])[:, 0])
    T = np.einsum("abc,bj,ck->ajk", gfs, Du, Du) + D2u
    return np.linalg.solve(Du, T.reshape(2 * n, -1)).reshape(T.shape)


def projective_line_deviation(curve, x0, v0):
    """Per-sample distance of a curve in CP(n) from the complex line of its
    initial data: each sample on its own is lifted to normalized homogeneous
    coordinates (1 in the chart's slot) and projected with a complex QR."""
    def lift(chart, coords):
        z = coords[0::2] + 1j * coords[1::2]
        hom = np.insert(z, int(chart[1:]), 1.0)
        return hom / np.linalg.norm(hom)

    dv = np.insert(v0[0::2] + 1j * v0[1::2], int(x0.chart[1:]), 0.0)
    q, _ = np.linalg.qr(np.stack([lift(x0.chart, x0.coords), dv], axis=1))
    return np.array([np.linalg.norm(w - q @ (q.conj().T @ w))
                     for w in map(lift, curve.charts, curve.X)])


def _lower(dg):
    # lower[a,j,k] = d_j g_ak + d_k g_aj - d_a g_jk, dg[i,j,k] = d_k g_ij
    return np.einsum("akj->ajk", dg) + dg - np.einsum("jka->ajk", dg)


def christoffels_from_partials(g, dg):
    """Gamma[i,j,k] = Gamma^i_jk at one point."""
    return 0.5 * np.einsum("ia,ajk->ijk", np.linalg.inv(g), _lower(dg))


def riemann_from_partials(g, dg, d2g):
    """R[i,j,k,l] = R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj
    + Gamma^i_ka Gamma^a_lj - Gamma^i_la Gamma^a_kj at one point."""
    ginv = np.linalg.inv(g)
    dlower = np.einsum("akjl->ajkl", d2g) + d2g - np.einsum("jkal->ajkl", d2g)
    dginv = -np.einsum("ib,bcl,ca->ial", ginv, dg, ginv)
    dgam = 0.5 * (np.einsum("ial,ajk->ijkl", dginv, _lower(dg))
                  + np.einsum("ia,ajkl->ijkl", ginv, dlower))    # d_l Gamma^i_jk
    gam = christoffels_from_partials(g, dg)
    return (np.einsum("iljk->ijkl", dgam) - np.einsum("ikjl->ijkl", dgam)
            + np.einsum("ika,alj->ijkl", gam, gam) - np.einsum("ila,akj->ijkl", gam, gam))


def oracle_geometry(metric_fn, x):
    """(g, Gamma) at one point from an order-1 jet of ``metric_fn``."""
    j = jet_eval(metric_fn, list(x), 1)
    return j.const, christoffels_from_partials(j.const, j.derivatives(1))



# -- h-planar curve checks ----------------------------------------------------

def wedge_defect(accel, v, J):
    """Smallest singular value of column-normalized [accel | v | Jv] at one
    sample; the acceleration column norm is floored at 1e-2 |v|^2, and
    |v| < 1e-14 gives 0."""
    vn = float(np.linalg.norm(v))
    if vn < 1e-14:
        return 0.0
    cols = np.stack([accel / max(float(np.linalg.norm(accel)), 1e-2 * vn * vn),
                     v / vn, (J @ v) / vn], axis=1)
    return float(np.linalg.svd(cols, compute_uv=False)[-1])


def curve_defects(model, curve):
    """The per-sample wedge defects at samples 2..len-3 (NaN where samples
    idx-2, idx and idx+2 do not share a chart) and the worst defect of the
    curve reparametrized by t = t_end s^2 (3 - 2 s), one sample at a time.
    The covariant acceleration is the 4th-order central difference of the
    velocities plus Gamma(v, v) from ``oracle_geometry``; the
    reparametrization inverts the cubic by bisection and applies the chain
    rule, skipping samples where dt/ds < 1e-8."""
    h, t_end, V = curve.times[1] - curve.times[0], curve.times[-1], curve.V
    defects, worst = np.full(len(curve) - 4, np.nan), 0.0
    for idx in range(2, len(curve) - 2):
        chart = curve.charts[idx]
        if set(curve.charts[idx - 2:idx + 3:2]) != {chart}:
            continue
        dv = (V[idx - 2] - 8 * V[idx - 1] + 8 * V[idx + 1] - V[idx + 2]) / (12 * h)
        _, gamma = oracle_geometry(model.metric_fn(chart), curve.X[idx])
        acc = dv + np.einsum("ijk,j,k->i", gamma, V[idx], V[idx])
        J = model.j_matrix(chart)
        defects[idx - 2] = wedge_defect(acc, V[idx], J)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = t_end * mid * mid * (3 - 2 * mid) < curve.times[idx]
            lo, hi = (mid, hi) if below else (lo, mid)
        s = 0.5 * (lo + hi)
        td, tdd = t_end * (6 * s - 6 * s * s), t_end * (6 - 12 * s)
        if abs(td) >= 1e-8:
            worst = max(worst, wedge_defect(td * td * acc + tdd * V[idx], td * V[idx], J))
    return defects, worst


def pairing_drift(model, curve, other, stride):
    """Max drift of g(v, other(idx)) over every stride-th sample and the
    last, one sample at a time with the metric from ``oracle_geometry``."""
    idxs = list(range(0, len(curve), stride))
    if idxs[-1] != len(curve) - 1:
        idxs.append(len(curve) - 1)
    vals = [curve.V[idx] @ oracle_geometry(model.metric_fn(curve.charts[idx]), curve.X[idx])[0]
            @ other(idx) for idx in idxs]
    return max(abs(val - vals[0]) for val in vals)

def rhs_einsum(gm, J, gamma, xdot, B, a, lam, mu):
    """d/dt of a batch of fiber states (a, lambda, mu) along a curve with
    velocity xdot, index by index:

        a_ij'  = lam_i gx_j + lam_j gx_i - lbar_i Jx_j - lbar_j Jx_i
                 + C^a_i a_aj + C^a_j a_ia
        lam_i' = mu gx_i + B a_ik xdot^k + C^a_i lam_a
        mu'    = 2 B lam_k xdot^k

    with gx = g xdot, Jx = g J xdot, lbar = lam J and C^a_i = Gamma^a_ki xdot^k.
    """
    gx = gm @ xdot
    Jx = (gm @ J) @ xdot
    lbar = lam @ J
    C = np.einsum("aki,k->ai", gamma, xdot)
    da = (np.einsum("ni,j->nij", lam, gx) + np.einsum("nj,i->nij", lam, gx)
          - np.einsum("ni,j->nij", lbar, Jx) - np.einsum("nj,i->nij", lbar, Jx)
          + np.einsum("ai,naj->nij", C, a) + np.einsum("aj,nia->nij", C, a))
    dlam = (np.einsum("n,i->ni", mu, gx) + B * np.einsum("nik,k->ni", a, xdot)
            + np.einsum("ai,na->ni", C, lam))
    dmu = 2.0 * B * (lam @ xdot)
    return da, dlam, dmu


def stepwise_transport(model, B, segments, a, lam, mu, step):
    """Reference transport: one RK4 step of ``rhs_einsum`` after another,
    with the geometry at every stage point and a hermitized after every
    step.  Takes and returns the batch arrays of ``_transport_batch``."""
    J = model.j_matrix(segments[0].chart)
    for seg in segments:
        nsteps = max(1, int(np.ceil(seg.length / step)))
        h = 1.0 / nsteps
        xdot = seg.x1 - seg.x0
        X = np.stack([seg.x0 + t * xdot for t in np.arange(2 * nsteps + 1) * h / 2])
        G, GAM = _geo_floats_batch(model, seg.chart, X)
        for s in range(nsteps):
            def f(i, y):
                return rhs_einsum(G[i], J, GAM[i], xdot, B, *y)

            y = (a, lam, mu)
            k1 = f(2 * s, y)
            k2 = f(2 * s + 1, [u + h / 2 * k for u, k in zip(y, k1)])
            k3 = f(2 * s + 1, [u + h / 2 * k for u, k in zip(y, k2)])
            k4 = f(2 * s + 2, [u + h * k for u, k in zip(y, k3)])
            a, lam, mu = (u + h / 6 * (s1 + 2 * s2 + 2 * s3 + s4)
                          for u, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4))
            a = hermitize(a, J)
    return a, lam, mu


def fiber_frame_reference(J):
    """The fiber basis as the packed rows (a row-major, lambda, mu) of one
    matrix, built from ``hermitian_symmetric_basis`` on every call, the way
    the package built its frame before it cached one per J."""
    d = J.shape[0]
    herm = hermitian_symmetric_basis(J).reshape(-1, d * d)
    E = np.zeros((len(herm) + d + 1, d * d + d + 1))
    E[:len(herm), :d * d] = herm
    E[len(herm):, d * d:] = np.eye(d + 1)
    return E


def stage_matrices_reference(G, J, GAM, xdot, B):
    """The RK4 stage matrices at a stack of stage points, the way the
    package built them before it tabulated the connection: ``rhs_einsum``
    on every fiber basis state at every stage point, packed, and taken to
    fiber coordinates with the frame.  (S, N, N); row m is the derivative
    of basis state m."""
    d = J.shape[0]
    E = fiber_frame_reference(J)
    a, lam, mu = E[:, :d * d].reshape(-1, d, d), E[:, d * d:-1], E[:, -1]
    out = []
    for gm, gamma in zip(G, GAM):
        da, dlam, dmu = rhs_einsum(gm, J, gamma, xdot, B, a, lam, mu)
        out.append(np.concatenate([da.reshape(len(E), -1), dlam, dmu[:, None]], axis=1)
                   @ E.T)
    return np.stack(out)


# -- curvature condition ------------------------------------------------------

def curvature_condition_einsum(a, dlam, R, gm, J):
    """a_ia R^a_jkl + a_ja R^a_ikl
    - Jproj[dl_li g_jk + dl_lj g_ik - dl_ki g_jl - dl_kj g_il], batched over
    the leading axes of ``a`` and ``dlam``; returns (..., i, j, k, l)."""
    lhs = (np.einsum("...ia,ajkl->...ijkl", a, R)
           + np.einsum("...ja,aikl->...ijkl", a, R))
    T = (np.einsum("...li,jk->...klij", dlam, gm) + np.einsum("...lj,ik->...klij", dlam, gm)
         - np.einsum("...ki,jl->...klij", dlam, gm) - np.einsum("...kj,il->...klij", dlam, gm))
    return lhs - np.moveaxis(jtensor_contract(T, J), (-2, -1), (-4, -3))


# -- jet arithmetic -----------------------------------------------------------

@lru_cache(maxsize=None)
def leibniz_pairs(space):
    """(i, j, target) index arrays of every coefficient product of a space."""
    ia, ib, ic = [], [], []
    for i, ei in enumerate(space.exponents):
        for j, ej in enumerate(space.exponents):
            if sum(ei) + sum(ej) <= space.order:
                ia.append(i)
                ib.append(j)
                ic.append(space.index[tuple(a + b for a, b in zip(ei, ej))])
    return np.array(ia), np.array(ib), np.array(ic)


def jet_einsum_add_at(subscripts, a, b):
    """Binary einsum of two jets over one space, terms added by np.add.at."""
    ia, ib, ic = leibniz_pairs(a.space)
    lhs, out_sub = subscripts.split("->")
    sa, sb = lhs.split(",")
    prods = np.einsum(f"t{sa},t{sb}->t{out_sub}", a.coef[ia], b.coef[ib])
    out = np.zeros((a.space.ncoef,) + prods.shape[1:])
    np.add.at(out, ic, prods)
    return Jet(a.space, out)


def jet_mul_add_at(a, b):
    return jet_einsum_add_at("...,...->...", a, b)


def padded(a, order):
    """The jet ``a`` in the space of a higher order, its new coefficients
    zero.  The table recurrence of an inverse reaches degree k only through
    degrees below k, so the inverse of the padded jet, truncated back, is
    that recurrence at a's own order, even where the package writes the
    order-1 case without the table."""
    space = jet_space(a.space.nvars, order)
    coef = np.zeros((space.ncoef,) + a.payload_shape)
    coef[:a.space.ncoef] = a.coef
    return Jet(space, coef)


def _newton_steps(space):
    return max(1, math.ceil(math.log2(space.order + 1)))


def newton_reciprocal(a):
    r = Jet.constant(a.space, 1.0 / a.const)
    for _ in range(_newton_steps(a.space)):
        r = jet_mul_add_at(r, -jet_mul_add_at(a, r) + 2.0)
    return r


def newton_matrix_inverse(a):
    """Inverse of a jet with payload (..., k, k)."""
    mm = "...ij,...jk->...ik"
    x = Jet.constant(a.space, np.linalg.inv(a.const))
    two = Jet.constant(a.space, np.broadcast_to(2.0 * np.eye(a.payload_shape[-1]),
                                                a.payload_shape))
    for _ in range(_newton_steps(a.space)):
        x = jet_einsum_add_at(mm, x, two - jet_einsum_add_at(mm, a, x))
    return x


def generic_det(mat):
    """Determinant of a square nested list of scalar jets."""
    rows = [list(r) for r in mat]
    n = len(rows)
    det = Jet.constant(rows[0][0].space, 1.0)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(float(rows[r][c].const)))
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det = jet_mul_add_at(det, rows[c][c])
        inv_piv = newton_reciprocal(rows[c][c])
        for r in range(c + 1, n):
            f = jet_mul_add_at(rows[r][c], inv_piv)
            rows[r] = [rows[r][k] - jet_mul_add_at(f, rows[c][k]) for k in range(n)]
    return det


def log_abs(x):
    """log|x| of a scalar jet: log|x_0| plus the series of log(1 + t),
    t = x / x_0 - 1."""
    t = Jet(x.space, x.coef / x.const)
    t.coef[0] = 0.0
    out = Jet.constant(x.space, np.log(abs(x.const)))
    term = t
    for k in range(1, x.space.order + 1):
        out = out + term * ((-1.0) ** (k + 1) / k)
        term = jet_mul_add_at(term, t)
    return out


def _shift_table(space, var):
    """Index maps of d/dx_var from ``space`` into the space one order lower."""
    lower = jet_space(space.nvars, space.order - 1)
    src, fac = [], []
    for e in lower.exponents:
        e_up = list(e)
        e_up[var] += 1
        src.append(space.index[tuple(e_up)])
        fac.append(float(e_up[var]))
    return np.array(src), np.array(fac)


def stacked_partials(a):
    """The gradient jet of ``a``, one variable at a time from its shift
    table, stacked on a trailing axis."""
    lower = jet_space(a.space.nvars, a.space.order - 1)
    parts = []
    for var in range(a.space.nvars):
        src, fac = _shift_table(a.space, var)
        parts.append(a.coef[src] * fac.reshape((-1,) + (1,) * len(a.payload_shape)))
    return Jet(lower, np.stack(parts, axis=-1))


def factorial_derivatives(a, r):
    """Order-r partials at the base point, read off each coefficient of
    degree r times alpha!, derivative axes behind the payload."""
    m = a.space.nvars
    idx = np.empty((m,) * r, dtype=int)
    fac = np.empty((m,) * r)
    for ks in itertools.product(range(m), repeat=r):
        e = [0] * m
        for k in ks:
            e[k] += 1
        idx[ks] = a.space.index[tuple(e)]
        fac[ks] = math.prod(math.factorial(k) for k in e)
    arr = a.coef[idx] * fac.reshape(fac.shape + (1,) * len(a.payload_shape))
    return np.moveaxis(arr, tuple(range(r)), tuple(range(-r, 0)))
