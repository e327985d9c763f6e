"""The packaged (2n+2)-dimensional operator of a prolonged solution, its
product algebra, minimal polynomial, spectral projectors and eigenstructure
reporting.

A triple (a, lambda, mu) is packaged as the block matrix

        [ mu   0   | lambda_1 ... lambda_2n ]
        [ 0    mu  | lbar_1   ... lbar_2n   ]
    L = [ ----------------------------------]
        [ lam^1  lbar^1 |                   ]
        [   ...    ...  |      a^i_j        ]
        [ lam^2n lbar^2n|                   ]

which is self-adjoint for ghat = diag(I_2, g) and commutes with
Jhat = diag(J_2, J).  Products of such operators built from solutions of
the prolonged system at B = -1 are again of this shape, and their triples
are again solutions; everything in this module assumes (and checks) that
normalization.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, NoProjectorError,
                     ProjectorConsistencyError, ShapeMismatchError)
from .geometry import cov_step_jet
from .hproj import SolutionField, geom
from .jets import Jet, jet_einsum
from .models import rescale_model
from .prolongation import ProlongedState

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass
class ExtendedOperator:
    matrix: np.ndarray
    base_point: object
    n: int

    def selfadjoint_residual(self, gm):
        gh = hat_metric(gm)
        m = gh @ self.matrix
        return float(np.max(np.abs(m - m.T)))

    def jcommute_residual(self, J):
        jh = hat_J(J)
        return float(np.max(np.abs(jh @ self.matrix - self.matrix @ jh)))


def hat_metric(gm):
    d = gm.shape[0]
    out = np.zeros((d + 2, d + 2))
    out[:2, :2] = np.eye(2)
    out[2:, 2:] = gm
    return out


def hat_J(J):
    d = J.shape[0]
    out = np.zeros((d + 2, d + 2))
    out[:2, :2] = J2
    out[2:, 2:] = J
    return out


# -- construction -------------------------------------------------------------

def operator_jet(model, sol, point, order):
    """Jet of the packaged operator (payload (2n+2, 2n+2))."""
    g = geom(model, point, order)
    ginv = g["ginv"].truncate(order)
    J = g["J"]
    a = sol.a_jet(point, order)
    lam = sol.lam_jet(point, order)
    mu = sol.mu_jet(point, order)
    aup = jet_einsum("ia,aj->ij", ginv, a)
    lbar = jet_einsum("ai,a->i", J, lam)
    lam_up = jet_einsum("ia,a->i", ginv, lam)
    lbar_up = jet_einsum("ia,a->i", ginv, lbar)
    sp = aup.space
    d = model.dim
    coef = np.zeros((sp.ncoef, d + 2, d + 2))
    coef[:, 0, 0] = mu.truncate(sp.order).coef
    coef[:, 1, 1] = mu.truncate(sp.order).coef
    coef[:, 0, 2:] = lam.truncate(sp.order).coef
    coef[:, 1, 2:] = lbar.truncate(sp.order).coef
    coef[:, 2:, 0] = lam_up.truncate(sp.order).coef
    coef[:, 2:, 1] = lbar_up.truncate(sp.order).coef
    coef[:, 2:, 2:] = aup.coef
    return Jet(sp, coef)


def build_L(model, sol, point):
    """Package the solution triple at a point into the extended operator."""
    return ExtendedOperator(operator_jet(model, sol, point, 0).const, point, model.n)


def L_product(model, L1: ExtendedOperator, L2: ExtendedOperator, point=None,
              tol=1e-8):
    """Operator product with the extracted solution triple.

    Checks the two closure conditions (the commutation of the mixed blocks
    and the isotropy pairing); when they fail beyond tolerance, the product
    matrix is still returned but the triple is flagged as non-closed.
    """
    point = point or L1.base_point
    if L1.matrix.shape != L2.matrix.shape:
        raise ShapeMismatchError("operator size mismatch")
    if np.any(L1.base_point.coords != L2.base_point.coords):
        raise InvalidInputError("operators must share the base point")
    m1, m2 = L1.matrix, L2.matrix
    g = geom(model, point, 0)
    gm = g["g"].const
    mu, lam = m1[0, 0], m1[0, 2:]
    lam_up, lbar_up = m1[2:, 0], m1[2:, 1]
    aup = m1[2:, 2:]
    M, Lam = m2[0, 0], m2[0, 2:]
    Lbar = m2[1, 2:]
    Aup = m2[2:, 2:]
    cond1 = float(np.max(np.abs(
        (mu * Lam + lam @ Aup) - (M * lam + Lam @ aup))))
    cond2 = float(abs(lam_up @ Lbar))
    closed = cond1 <= tol and cond2 <= tol
    prod = ExtendedOperator(m1 @ m2, point, L1.n)
    a_tilde = gm @ (aup @ Aup + np.outer(lam_up, Lam) + np.outer(lbar_up, Lbar))
    lam_tilde = mu * Lam + lam @ Aup
    mu_tilde = mu * M + lam @ (g["ginv"].const @ Lam)
    triple = ProlongedState(a_tilde, lam_tilde, mu_tilde)
    return prod, triple, {"cond_mixed": cond1, "cond_isotropy": cond2,
                          "closed": closed}


# -- minimal polynomial and projectors ----------------------------------------

def _cluster(values, tol):
    """Greedy 1-d clustering of complex values; returns (centers, counts)."""
    vals = sorted(values, key=lambda z: (z.real, z.imag))
    groups = []
    for v in vals:
        if groups and abs(v - groups[-1][-1]) <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    centers = [complex(np.mean(gp)) for gp in groups]
    return centers, [len(gp) for gp in groups]


@dataclass
class MinimalPoly:
    coefficients: np.ndarray      # descending, monic
    clusters: list                # (center, algebraic multiplicity, exponent)
    warning: str = None
    ambiguous: bool = False       # two clusters within 10x the clustering tolerance

    @property
    def degree(self):
        return len(self.coefficients) - 1


def _poly_from_clusters(centers, counts, m, scale, tol):
    clusters = []
    poly = np.array([1.0])
    warning = None
    done = set()
    for c, cnt in zip(centers, counts):
        if any(abs(c - d) < 1e-15 for d in done):
            continue
        lam = c * scale
        exponent = _jordan_exponent(m, lam, cnt, tol * scale)
        if exponent > 1 and warning is None:
            warning = f"nontrivial Jordan structure at eigenvalue {lam:.4g}"
        if abs(c.imag) <= tol:
            factor = np.array([1.0, -lam.real])
            clusters.append((complex(lam.real, 0.0), cnt, exponent))
        else:
            # conjugate pair -> real quadratic factor
            done.add(complex(c.real, -c.imag))
            factor = np.array([1.0, -2.0 * lam.real, abs(lam) ** 2])
            clusters.append((lam, 2 * cnt, exponent))
        for _ in range(exponent):
            poly = np.convolve(poly, factor)
        done.add(c)
    return poly, clusters, warning


def minimal_poly(L, tol=1e-6):
    """Monic minimal polynomial by eigenvalue clustering.

    Eigenvalues of L/|L| within ``tol`` merge into one cluster; each cluster
    contributes a factor with the exponent of its largest Jordan block
    (detected from nullity growth — a diagnostic, these operators are
    diagonalizable in all intended uses).  Two clusters within 10x the
    tolerance make the clustering ill-conditioned: a warning is set and the
    result is marked ``ambiguous``.
    """
    m = L.matrix if isinstance(L, ExtendedOperator) else np.asarray(L, dtype=float)
    scale = float(np.linalg.norm(m, 2))
    scale = scale if scale > 0 else 1.0
    eigs = np.linalg.eigvals(m / scale)
    centers, counts = _cluster(list(eigs), tol)
    warning = None
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if abs(centers[i] - centers[j]) < 10 * tol:
                warning = (f"clusters {centers[i]:.3e} and {centers[j]:.3e} "
                           "are within 10x the clustering tolerance")
    poly, clusters, jordan_warning = _poly_from_clusters(centers, counts, m,
                                                         scale, tol)
    return MinimalPoly(poly, clusters, warning or jordan_warning, warning is not None)


def _jordan_exponent(m, lam, alg_mult, tol):
    d = m.shape[0]
    shifted = m - lam * np.eye(d)
    power = np.eye(d)
    prev_nullity = 0
    for e in range(1, d + 1):
        power = power @ shifted
        sv = np.linalg.svd(power, compute_uv=False)
        nullity = int(np.sum(sv <= max(tol, 1e-12) * max(sv[0], 1.0) * d))
        if nullity == prev_nullity or nullity >= alg_mult:
            return e if nullity >= alg_mult else max(e - 1, 1)
        prev_nullity = nullity
    return 1


def eval_poly(coeffs, m):
    """Horner evaluation of a (descending) polynomial on a square matrix."""
    out = np.zeros_like(m)
    for c in coeffs:
        out = out @ m + c * np.eye(m.shape[0])
    return out


def make_projector(L: ExtendedOperator, target=None, tol=1e-6):
    """Spectral projector onto one real eigenvalue cluster via the Lagrange
    polynomial that is 1 on the chosen cluster and 0 on all others.

    ``target``: a real number selecting the cluster (defaults to the largest
    real eigenvalue).  Needs at least two distinct clusters; refuses
    clusters separated by less than 10x the clustering tolerance.
    Returns (projector, polynomial coefficients descending).
    """
    mp = minimal_poly(L, tol)
    reals = [c for c, cnt, e in mp.clusters if abs(c.imag) < 1e-12]
    if len(mp.clusters) < 2:
        raise NoProjectorError("operator has a single eigenvalue cluster")
    if not reals:
        raise NoProjectorError("no real eigenvalue cluster to project onto")
    if mp.ambiguous:
        raise NoProjectorError(f"ambiguous clustering: {mp.warning}")
    target = max(c.real for c in reals) if target is None else float(target)
    sel = min(reals, key=lambda c: abs(c.real - target)).real
    # Lagrange polynomial on the cluster centers
    poly = np.array([1.0])
    denom = 1.0
    for c, cnt, e in mp.clusters:       # one cluster per conjugate pair
        if abs(c.real - sel) < 1e-12 and abs(c.imag) < 1e-12:
            continue
        if abs(c.imag) < 1e-12:
            poly = np.convolve(poly, [1.0, -c.real])
            denom *= (sel - c.real)
        else:
            poly = np.convolve(poly, [1.0, -2.0 * c.real, abs(c) ** 2])
            denom *= (sel - c.real) ** 2 + c.imag ** 2
    coeffs = poly / denom
    P = eval_poly(coeffs, L.matrix)
    idem = float(np.max(np.abs(P @ P - P)))
    if idem > 1e-6:
        raise NoProjectorError(f"projector idempotency failed: {idem:.2e}")
    if np.max(np.abs(P)) < 1e-12 or np.max(np.abs(P - np.eye(P.shape[0]))) < 1e-12:
        raise NoProjectorError("projector is trivial")
    return ExtendedOperator(P, L.base_point, L.n), coeffs


# -- renormalized and projector solution fields --------------------------------

class RenormalizedSolution(SolutionField):
    """The triple (-B*a, lambda, -mu/B) over the rescaled metric -B*g, which
    solves the prolonged system with constant -1."""

    def __init__(self, scaled_model, base_sol, B0):
        super().__init__(scaled_model, -1.0)
        self.base_sol = base_sol
        self.B0 = float(B0)

    def a_jet(self, point, order):
        return self.base_sol.a_jet(point, order) * (-self.B0)

    def lam_jet(self, point, order):
        return self.base_sol.lam_jet(point, order)

    def mu_jet(self, point, order):
        return self.base_sol.mu_jet(point, order) * (-1.0 / self.B0)


def renormalize_to_minus_one(model, sol, B=None):
    """Rescale the metric so the prolonged system's constant becomes -1.

    Returns (scaled model, renormalized solution).
    """
    B = sol.B if B is None else B
    if B is None or B == 0.0:
        raise InvalidInputError("renormalization needs a nonzero B")
    scaled = rescale_model(model, -B)
    return scaled, RenormalizedSolution(scaled, sol, B)


class PolynomialSolution(SolutionField):
    """The solution whose packaged operator is P(L(base solution)).

    Only valid at B = -1 (the product algebra lives there); coefficients
    are frozen real numbers, so jets pass through Horner evaluation.
    """

    def __init__(self, model, base_sol, coeffs):
        if base_sol.B != -1.0:
            raise InvalidInputError("polynomial solutions require B = -1")
        super().__init__(model, -1.0)
        self.base_sol = base_sol
        self.coeffs = np.asarray(coeffs, dtype=float)

    def _pl_jet(self, point, order):
        Ljet = operator_jet(self.model, self.base_sol, point, order)
        D = self.model.dim + 2
        eye = np.eye(D)
        out = Jet.constant(Ljet.space, np.zeros((D, D)))
        for c in self.coeffs:
            out = jet_einsum("ij,jk->ik", out, Ljet) + Jet.constant(Ljet.space, c * eye)
        return out

    def a_jet(self, point, order):
        pl = self._pl_jet(point, order)
        g = geom(self.model, point, order)["g"].truncate(order)
        return jet_einsum("ia,aj->ij", g, pl[2:, 2:])

    def lam_jet(self, point, order):
        return self._pl_jet(point, order)[0, 2:]

    def mu_jet(self, point, order):
        return self._pl_jet(point, order)[0, 0]


# -- eigenstructure ------------------------------------------------------------

@dataclass
class EigenstructureReport:
    mu: float
    case: str                    # "interior", "mu_one", "mu_zero"
    eigenvalues: list            # (value, multiplicity)
    k: int                       # half-dimension of the 1-eigenspace
    lambda_angle: float          # sine of the angle of span{lam, lbar} vs (1-mu)-eigenspace


def eigenstructure_report(model, proj_sol, point, tol=1e-6):
    """Eigenvalues and multiplicities of the (1,1)-shaped a of a projector
    solution, classified by the value of its scalar component.

    At an interior point (0 < mu < 1) the spectrum must be
    {1 (x 2k), 0 (x 2n-2k-2), (1-mu) (x 2)} with the lambda-plane spanning
    the (1-mu)-eigenspace; at critical points one eigenvalue pair merges
    into the 0- or 1-group.
    """
    g = geom(model, point, 0)
    gm, ginv, J = g["g"].const, g["ginv"].const, g["J"]
    a = proj_sol.a_jet(point, 0).const
    lam = proj_sol.lam_jet(point, 0).const
    mu = float(proj_sol.mu_jet(point, 0).const)
    if mu < -tol or mu > 1.0 + tol:
        raise ProjectorConsistencyError(
            f"scalar component {mu:.6f} outside [0, 1]; not a projector solution")
    aup = np.linalg.solve(gm, a)
    eigs = np.linalg.eigvals(aup)
    if np.max(np.abs(eigs.imag)) > 1e-7:
        raise ProjectorConsistencyError("complex eigenvalues in a projector solution")
    centers, counts = _cluster([complex(e.real, 0.0) for e in eigs], 1e-5)
    table = [(float(c.real), int(cnt)) for c, cnt in zip(centers, counts)]

    interior = tol < mu < 1.0 - tol
    case = "interior" if interior else ("mu_one" if mu >= 1.0 - tol else "mu_zero")
    ones = sum(cnt for v, cnt in table if abs(v - 1.0) <= 1e-5)
    k = max(ones // 2 - 1, 0) if case == "mu_zero" else ones // 2

    angle = 0.0
    if interior:
        lam_up = ginv @ lam
        lbar_up = ginv @ (J.T @ lam)
        span = np.stack([lam_up, lbar_up], axis=1)
        qs, _ = np.linalg.qr(span)
        count = int(np.sum(np.abs(eigs.real - (1.0 - mu)) < 1e-5))
        if count != 2:
            raise ProjectorConsistencyError(
                f"(1-mu)-eigenspace has dimension {count}, expected 2")
        # (1-mu)-eigenspace of aup: the null space of aup - (1-mu) I, as the
        # last two right singular vectors (real even when eig pairs them up)
        _, _, vt = np.linalg.svd(aup - (1.0 - mu) * np.eye(len(aup)))
        qe = vt[-2:].T
        # sine of the largest principal angle between the two planes
        angle = float(np.linalg.norm(qs - qe @ (qe.T @ qs), 2))
    return EigenstructureReport(mu, case, table, k, angle)


def hessian_mu_check(model, proj_sol, point):
    """Residual of the scalar-component Hessian identity at B = -1:

        hess mu - 2 a + 2 mu g
    """
    g = geom(model, point, 2)
    mu_jet = proj_sol.mu_jet(point, 2)
    hess = cov_step_jet(cov_step_jet(mu_jet, (), g["gamma"]), ("l",), g["gamma"]).const
    a = proj_sol.a_jet(point, 0).const
    mu = float(proj_sol.mu_jet(point, 0).const)
    return hess - 2.0 * a + 2.0 * mu * g["g"].const
