"""Connection, curvature and covariant differentiation on metric jets.

Conventions (all residual checks in the package are tied to these):

    Gamma^i_jk = (1/2) g^{ia} (d_j g_{ak} + d_k g_{aj} - d_a g_{jk})
    R^i_jkl    = d_k Gamma^i_lj - d_l Gamma^i_kj
                 + Gamma^i_ka Gamma^a_lj - Gamma^i_la Gamma^a_kj

so that the commutation rule for a (0,2) tensor reads

    T_ij,kl - T_ij,lk = R^r_ikl T_rj + R^r_jkl T_ir

with the comma denoting covariant differentiation and derivative indices
appended last (T_ij,k = nabla_k T_ij).  Derivative axes of all jet arrays
trail the component axes: dg[i,j,k] = d_k g_ij.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientJetError, ShapeMismatchError, SingularMetricError
from .jets import Jet, jet_einsum, jet_eval, jet_matrix_inverse

_LETTERS = "abcdefgh"


@dataclass
class MetricJet:
    """Metric components and exact partials (to the carried order) at a point."""

    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray = None
    d2g: np.ndarray = None
    d3g: np.ndarray = None
    det_floor: float = 1e-12

    @staticmethod
    def from_function(fn, x, order=3, det_floor=1e-12):
        j = jet_eval(fn, x, order)
        return MetricJet.from_jet(x, j, det_floor)

    @staticmethod
    def from_jet(x, gjet, det_floor=1e-12):
        order = gjet.space.order
        return MetricJet(
            point=np.asarray(x, dtype=float),
            g=gjet.const.copy(),
            dg=gjet.derivatives(1) if order >= 1 else None,
            d2g=gjet.derivatives(2) if order >= 2 else None,
            d3g=gjet.derivatives(3) if order >= 3 else None,
            det_floor=det_floor,
        )

    @property
    def dim(self):
        return self.g.shape[0]

    @property
    def order(self):
        for r, arr in ((3, self.d3g), (2, self.d2g), (1, self.dg)):
            if arr is not None:
                return r
        return 0

    def require(self, order):
        if self.order < order:
            raise InsufficientJetError(
                f"operation needs metric jets of order {order}, have {self.order}")

    def check_nondegenerate(self):
        det = float(np.linalg.det(self.g))
        scale = float(np.prod(np.linalg.norm(self.g, axis=1)))
        if abs(det) <= self.det_floor * max(scale, 1e-300):
            raise SingularMetricError(f"|det g| = {abs(det):.3e} below threshold")

    @property
    def g_inv(self):
        self.check_nondegenerate()
        return np.linalg.inv(self.g)


def christoffels(mj: MetricJet) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma[i,j,k] = Gamma^i_jk."""
    mj.require(1)
    mj.check_nondegenerate()
    ginv = np.linalg.inv(mj.g)
    dg = mj.dg
    # lower[a,j,k] = d_j g_ak + d_k g_aj - d_a g_jk
    lower = np.einsum("akj->ajk", dg) + dg - np.einsum("jka->ajk", dg)
    return 0.5 * np.einsum("ia,ajk->ijk", ginv, lower)


def christoffel_partials(mj: MetricJet) -> np.ndarray:
    """dGamma[i,j,k,l] = d_l Gamma^i_jk."""
    mj.require(2)
    ginv = mj.g_inv
    dg, d2g = mj.dg, mj.d2g
    lower = np.einsum("akj->ajk", dg) + dg - np.einsum("jka->ajk", dg)
    # d_l lower[a,j,k]
    dlower = np.einsum("akjl->ajkl", d2g) + d2g - np.einsum("jkal->ajkl", d2g)
    dginv = -np.einsum("ib,bcl,ca->ial", ginv, dg, ginv)
    return 0.5 * (np.einsum("ial,ajk->ijkl", dginv, lower)
                  + np.einsum("ia,ajkl->ijkl", ginv, dlower))


def riemann(mj: MetricJet) -> np.ndarray:
    """Curvature R[i,j,k,l] = R^i_jkl in the convention of the module docstring."""
    mj.require(2)
    gam = christoffels(mj)
    dgam = christoffel_partials(mj)
    r = (np.einsum("iljk->ijkl", dgam) - np.einsum("ikjl->ijkl", dgam)
         + np.einsum("ika,alj->ijkl", gam, gam) - np.einsum("ila,akj->ijkl", gam, gam))
    return r


def riemann_symmetry_residuals(mj: MetricJet, J=None):
    """Max residuals of the curvature symmetries (and J-commutation if J given)."""
    r_up = riemann(mj)
    r = np.einsum("ia,ajkl->ijkl", mj.g, r_up)
    out = {
        "antisym_first_pair": float(np.max(np.abs(r + np.einsum("jikl->ijkl", r)))),
        "antisym_last_pair": float(np.max(np.abs(r + np.einsum("ijlk->ijkl", r)))),
        "pair_symmetry": float(np.max(np.abs(r - np.einsum("klij->ijkl", r)))),
        "first_bianchi": float(np.max(np.abs(r + np.einsum("iklj->ijkl", r)
                                             + np.einsum("iljk->ijkl", r)))),
    }
    if J is not None:
        out["J_commutation"] = float(np.max(np.abs(
            np.einsum("iakl,aj->ijkl", r_up, J) - np.einsum("ia,ajkl->ijkl", J, r_up))))
    return out


# -- covariant differentiation -------------------------------------------

def christoffel_jet(gjet: Jet, ginv: Jet = None) -> Jet:
    """Jet of Gamma^i_jk from a metric jet (one order lower); ``ginv`` is the
    jet of the inverse metric, when the caller holds it already."""
    if ginv is None:
        ginv = jet_matrix_inverse(gjet)
    dg = gjet.gradient()  # payload (d, d, d): dg[i,j,k] = d_k g_ij
    # lower[a,j,k] = d_j g_ak + d_k g_aj - d_a g_jk
    lower = Jet(dg.space, (np.einsum("takj->tajk", dg.coef) + dg.coef
                           - np.einsum("tjka->tajk", dg.coef)))
    return jet_einsum("ia,ajk->ijk", ginv.truncate(lower.space.order), lower) * 0.5


def cov_step_jet(Tjet: Jet, variance, gamma_jet: Jet) -> Jet:
    """One covariant derivative at jet level; the new lower index is appended last."""
    rank = len(variance)
    if rank >= len(_LETTERS):
        raise ShapeMismatchError("tensor rank too large")
    dT = Tjet.gradient()
    base = _LETTERS[:rank]
    out = dT
    order = dT.space.order
    gam = gamma_jet.truncate(min(order, gamma_jet.space.order))
    Tc = Tjet.truncate(gam.space.order)
    for s, var in enumerate(variance):
        src = base[:s] + "z" + base[s + 1:]
        if var == "u":
            term = jet_einsum(f"{base[s]}kz,{src}->{base}k", gam, Tc)
            out = out + term
        else:
            term = jet_einsum(f"zk{base[s]},{src}->{base}k", gam, Tc)
            out = out - term
    return out


def cov_derivatives(Tjet: Jet, variance, gamma_jet: Jet, k):
    """The jets of nabla T, ..., nabla^k T: k successive ``cov_step_jet``s."""
    out = []
    var = tuple(variance)
    for _ in range(k):
        Tjet = cov_step_jet(Tjet, var, gamma_jet)
        var = var + ("l",)
        out.append(Tjet)
    return out


def covariant_derivative(T_fn, g_fn, x, order, variance):
    """Exact components of nabla^order T at x (derivative indices appended last).

    ``T_fn`` and ``g_fn`` map a scalar list to nested component lists; both
    must be smooth to the requested order.
    """
    if not 1 <= order <= 3:
        raise InsufficientJetError("covariant_derivative supports orders 1..3")
    gamma = christoffel_jet(jet_eval(g_fn, x, order))
    return cov_derivatives(jet_eval(T_fn, x, order), variance, gamma, order)[-1].const


# -- Kähler-structure verification ----------------------------------------

@dataclass
class KahlerReport:
    residuals: dict
    tol: float
    points: int

    @property
    def passed(self):
        return all(v <= self.tol for v in self.residuals.values())

    def to_dict(self):
        return {"pass": bool(self.passed), "tol": self.tol, "points": self.points,
                "residuals": {k: float(v) for k, v in self.residuals.items()}}


def verify_kahler(g_fn, j_fn, points, tol=1e-9):
    """Check (g, J) compatibility at the sample points.

    Reports max residuals of J^2 + Id, the anticommutation
    J^a_i g_aj + g_ia J^a_j, nabla J, and the exterior derivative of the
    fundamental two-form Omega_ij = g_ia J^a_j.  Always returns a report;
    the pass flag compares every residual against ``tol``.
    """
    res = {"J_squared": 0.0, "g_J_compat": 0.0, "nabla_J": 0.0, "d_omega": 0.0}
    npts = 0
    for x in points:
        npts += 1
        gjet = jet_eval(g_fn, x, 2)
        jjet = jet_eval(j_fn, x, 1)
        g, J = gjet.const, jjet.const
        d = g.shape[0]
        res["J_squared"] = max(res["J_squared"], float(np.max(np.abs(J @ J + np.eye(d)))))
        res["g_J_compat"] = max(res["g_J_compat"], float(np.max(np.abs(
            np.einsum("ai,aj->ij", J, g) + np.einsum("ia,aj->ij", g, J)))))
        gamma = christoffel_jet(gjet)
        nabJ = cov_step_jet(jjet, ("u", "l"), gamma).const
        res["nabla_J"] = max(res["nabla_J"], float(np.max(np.abs(nabJ))))
        omega_jet = jet_einsum("ia,aj->ij", gjet.truncate(1), jjet)
        domega = omega_jet.derivatives(1)  # dOmega[i,j,k] = d_k Omega_ij
        # (dOmega)_kij = d_k Omega_ij + d_i Omega_jk + d_j Omega_ki
        ext = (np.einsum("ijk->kij", domega) + np.einsum("jki->kij", domega)
               + domega)
        res["d_omega"] = max(res["d_omega"], float(np.max(np.abs(ext))))
    return KahlerReport(res, tol, npts)
