"""Connection, curvature and covariant differentiation on metric jets.

The first-kind combination of the connection is written once
(``_first_kind``); ``christoffels`` raises it with the inverse metric on
float arrays over any batch axes, ``christoffel_jet`` on a metric jet.  The
curvature is read off the connection jet alone (``riemann``).

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


def _first_kind(dg):
    """lower[..., a, j, k] = d_j g_ak + d_k g_aj - d_a g_jk from
    dg[..., i, j, k] = d_k g_ij, over any leading axes: two axis views of dg."""
    return dg.swapaxes(-1, -2) + dg - dg.transpose(*range(dg.ndim - 3), -1, -3, -2)


def christoffels(g, dg):
    """Gamma[..., i, j, k] = Gamma^i_jk from the metric and its first
    partials, over any leading batch axes."""
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise SingularMetricError("the metric is singular") from None
    return 0.5 * np.einsum("...ia,...ajk->...ijk", ginv, _first_kind(dg))


def riemann(gamma_jet: Jet) -> np.ndarray:
    """Curvature R[i,j,k,l] = R^i_jkl, in the convention of the module
    docstring, from a connection jet of order >= 1."""
    if gamma_jet.space.order < 1:
        raise InsufficientJetError("curvature needs the first partials of the connection")
    gam, dgam = gamma_jet.const, gamma_jet.derivatives(1)   # dgam[i,j,k,l] = d_l Gamma^i_jk
    return (np.einsum("iljk->ijkl", dgam) - np.einsum("ikjl->ijkl", dgam)
            + np.einsum("ika,alj->ijkl", gam, gam) - np.einsum("ila,akj->ijkl", gam, gam))


def riemann_symmetry_residuals(gm, R, J=None):
    """Max residuals of the symmetries of the curvature R = R^i_jkl with the
    metric gm (and of its J-commutation if J is given)."""
    r = np.einsum("ia,ajkl->ijkl", gm, R)
    out = {
        "antisym_first_pair": float(np.max(np.abs(r + np.einsum("jikl->ijkl", r)))),
        "antisym_last_pair": float(np.max(np.abs(r + np.einsum("ijlk->ijkl", r)))),
        "pair_symmetry": float(np.max(np.abs(r - np.einsum("klij->ijkl", r)))),
        "first_bianchi": float(np.max(np.abs(r + np.einsum("iklj->ijkl", r)
                                             + np.einsum("iljk->ijkl", r)))),
    }
    if J is not None:
        out["J_commutation"] = float(np.max(np.abs(
            np.einsum("iakl,aj->ijkl", R, J) - np.einsum("ia,ajkl->ijkl", J, R))))
    return out


# -- covariant differentiation -------------------------------------------

def christoffel_jet(gjet: Jet, ginv: Jet = None) -> Jet:
    """Jet of Gamma^i_jk from a metric jet (one order lower); ``ginv`` is the
    jet of the inverse metric, when the caller holds it already."""
    if ginv is None:
        ginv = jet_matrix_inverse(gjet)
    dg = gjet.gradient()  # payload (d, d, d): dg[i,j,k] = d_k g_ij
    lower = Jet(dg.space, _first_kind(dg.coef))
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


# -- Kähler-structure verification ----------------------------------------

@dataclass
class KahlerReport:
    residuals: dict
    tol: float
    points: int


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
