"""Scenario runner: named verification suites over the model manifolds with
machine-readable JSON reports.

Exit codes: 0 when every check passes its tolerance, 1 on a failed check,
2 on configuration or usage errors.  Reports are deterministic for a fixed
seed (sample points are drawn from a seeded generator; no timestamps).
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from . import curves as curvemod
from .errors import ConfigError, InvalidInputError, KahlerLabError
from .geometry import cov_step_jet, riemann, riemann_symmetry_residuals
from .hproj import (PairSolution, c_identity_check, geom, hpr_residual,
                    lambda_least_squares, lambda_scalar_field)
from .models import fubini_study, model_from_descriptor, pullback_fs
from .prolongation import (MobilityConfig, TannoSolution, constant_curvature_tensor,
                           degree_of_mobility, estimate_B, extended_residual,
                           kernel_certificate, laplace_identity_residual,
                           mobility_basis_grid, tanno_residual)
from .spectral import (L_product, PolynomialSolution, build_L,
                       eigenstructure_report, hessian_mu_check, make_projector,
                       minimal_poly, renormalize_to_minus_one)

def check(name, value, tol, invert=False):
    """One check record; a non-finite value is recorded as null and fails."""
    value = float(value)
    finite = math.isfinite(value)
    ok = finite and ((value >= tol) if invert else (value <= tol))
    return {"name": name, "max_residual": value if finite else None,
            "tolerance": float(tol), "pass": bool(ok)}


def _model_from_args(args, killing=False):
    """The model of a config file's ``model`` object, else the descriptor of
    the model flags that were given.  With ``killing`` (hplanar), --A-file on
    an fs model is the matrix of its Killing pair, not a model key."""
    if isinstance(args.model, dict):
        return model_from_descriptor(args.model)
    A_file = None if killing and args.model == "fs" else args.A_file
    desc = {"kind": args.model, "n": args.n, "chart_index": args.chart_index,
            "diag": args.diag, "periods": args.periods,
            "A": _read_json(A_file) if A_file else None}
    return model_from_descriptor({k: v for k, v in desc.items() if v is not None})


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path} is not JSON ({exc})") from None


def _pair_solution(g_model, path):
    """The pair of g (an fs model) and gbar, the pullback of the matrix file
    at ``path`` (None: diag(2, 1, ..., 1)) in g's chart."""
    chart_index = g_model.params["chart_index"]
    gbar = (model_from_descriptor({"kind": "pullback", "n": g_model.n, "A": _read_json(path),
                                   "chart_index": chart_index}) if path else
            pullback_fs(np.diag([2.0] + [1.0] * g_model.n), chart_index))
    return PairSolution(g_model, gbar)


def _build_a_jets(sol, points, order):
    """Build the pair a-jet at each point at ``order``, the highest order
    the scenario reads there: every later read truncates it (see
    ``PairSolution``), so each point builds it once."""
    for p in points:
        sol.a_jet(p, order)


# -- scenarios -----------------------------------------------------------------

def run_verify_kahler(args, rng):
    model = _model_from_args(args)
    checks = []
    for chart in sorted(model.charts):
        rep = model.verify(rng, count=args.samples, tol=args.tol, chart=chart)
        for name, val in rep.residuals.items():
            checks.append(check(f"{chart}.{name}", val, args.tol))
    return model, checks, []


def run_curvature(args, rng):
    if args.B is None:
        raise InvalidInputError("curvature needs a numeric --B, not sweep")
    model = _model_from_args(args)
    worst = {"antisym_first_pair": 0.0, "antisym_last_pair": 0.0,
             "pair_symmetry": 0.0, "first_bianchi": 0.0, "J_commutation": 0.0}
    worst_g = 0.0
    for pt in model.sample_points(rng, args.samples):
        g = geom(model, pt, 2)
        R = riemann(g["gamma"])
        for k, v in riemann_symmetry_residuals(g["g"].const, R, g["J"]).items():
            worst[k] = max(worst[k], v)
        G = R + 4.0 * args.B * constant_curvature_tensor(g["g"].const, g["J"])
        worst_g = max(worst_g, float(np.max(np.abs(G))))
    checks = [check(k, v, args.tol) for k, v in worst.items()]
    checks.append(check("constant_holomorphic_curvature", worst_g, args.tol))
    return model, checks, []


def run_hpr_check(args, rng):
    g_model = fubini_study(args.n, args.chart_index)
    sol = _pair_solution(g_model, args.A_file)
    pts = g_model.sample_points(rng, args.samples)
    _build_a_jets(sol, pts, 2)      # the gradient of lambda reads order 2
    worst_hpr = max(float(np.max(np.abs(hpr_residual(g_model, sol, p)))) for p in pts)
    lam_max = max(float(np.max(np.abs(sol.lam_at(p)))) for p in pts)
    worst_kill = 0.0
    worst_ls = 0.0
    for p in pts:
        g = geom(g_model, p, 1)
        dlam = cov_step_jet(sol.lam_jet(p, 1), ("l",), g["gamma"]).const
        kb = g["J"].T @ dlam
        worst_kill = max(worst_kill, float(np.max(np.abs(kb + kb.T))))
        worst_ls = max(worst_ls, float(np.max(np.abs(
            lambda_least_squares(g_model, sol, p) - sol.lam_at(p)))))
    Bs = [estimate_B(g_model, sol, p)[0] for p in pts[:10]]
    checks = [
        check("hpr_residual", worst_hpr, args.tol),
        check("lambda_nonzero", lam_max, 1e-4, invert=True),
        check("killing_residual_lambda_bar", worst_kill, args.tol),
        check("lambda_trace_vs_least_squares", worst_ls, 1e-5),
        check("B_spread", np.max(Bs) - np.min(Bs), 1e-4),
    ]
    extra = {"B_estimate": float(np.mean(Bs))}
    artifacts = []
    if args.dump_solution:
        from .hproj import solution_to_json
        payload = solution_to_json(sol.with_B(float(np.mean(Bs))), pts)
        with open(args.dump_solution, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        artifacts.append(args.dump_solution)
    if args.A2_file:
        sol2 = _pair_solution(g_model, args.A2_file)
        warn = []
        worst_c = max(c_identity_check(g_model, sol, sol2, p, warn) for p in pts[:10])
        # the identity says nothing where {g, a, A} are dependent: null, so it fails
        checks.append(check("c_identity", math.nan if warn else worst_c, 1e-6))
    return g_model, checks, artifacts, extra


def run_mobility(args, rng):
    model = _model_from_args(args)
    cfg = MobilityConfig(seed=args.seed, step=args.step)
    base = model.point(np.zeros(model.dim))
    report = degree_of_mobility(model, args.B, base, cfg)
    checks = [check("rank_stabilized", 0.0 if report.stabilized else 1.0, 0.5)]
    if args.expect_dim is not None:
        checks.append(check("dimension", abs(report.dimension - args.expect_dim), 0.5))
    # certify a few kernel elements on constraint batches at fresh points
    fresh = [base.coords + rng.uniform(-0.2, 0.2, model.dim) for _ in range(3)]
    worst = kernel_certificate(model, report.B, report.base_point,
                               report.basis[:args.verify_basis], fresh, step=cfg.step)
    checks.append(check("kernel_reverify", worst, 1e-5))
    grid_pts = [base.coords] + [base.coords + rng.uniform(-0.2, 0.2, model.dim)
                                for _ in range(2)]
    extra = {"dimension": report.dimension, "B": report.B,
             "mobility": report.to_dict(include_basis=True),
             "basis_grid": mobility_basis_grid(model, report, grid_pts,
                                               step=cfg.step)}
    return model, checks, [], extra


def run_spectral(args, rng):
    g_model = fubini_study(args.n, args.chart_index)
    sol = _pair_solution(g_model, args.A_file)
    pts = g_model.sample_points(rng, args.samples)
    # order 3 for the square solution's residual at the first five points;
    # order 4 at pts[0], where the projector is made, for the Hessian check
    # at the first interior sample (the search starts there)
    _build_a_jets(sol, pts[:1], 4)
    _build_a_jets(sol, pts[1:5], 3)
    B = args.B if args.B is not None else float(np.mean(
        [estimate_B(g_model, sol, p)[0] for p in pts[:5]]))
    m1, s1 = renormalize_to_minus_one(g_model, sol.with_B(B))
    p, q = pts[0], pts[1]
    L1 = build_L(m1, s1, p)
    checks = [
        check("ghat_selfadjoint", L1.selfadjoint_residual(m1.metric_at(p)), 1e-10),
        check("jhat_commute", L1.jcommute_residual(m1.j_matrix()), 1e-10),
    ]
    _, triple, conds = L_product(m1, L1, L1, p)
    checks.append(check("op_eq_mixed", conds["cond_mixed"], 1e-8))
    checks.append(check("op_eq_isotropy", conds["cond_isotropy"], 1e-8))
    sq = PolynomialSolution(m1, s1, [1.0, 0.0, 0.0])
    worst = 0.0
    for x in pts[:5]:
        r1, r2, r3 = extended_residual(m1, sq, x)
        worst = max(worst, float(np.max(np.abs(r1))), float(np.max(np.abs(r2))),
                    float(np.max(np.abs(r3))))
    checks.append(check("square_solution_residual", worst, args.tol))
    mp1 = minimal_poly(L1)
    mp2 = minimal_poly(build_L(m1, s1, q))
    dist = (float(np.max(np.abs(mp1.coefficients - mp2.coefficients)))
            if mp1.degree == mp2.degree else float("inf"))
    checks.append(check("minimal_poly_agreement", dist, 1e-5))
    P, coeffs = make_projector(L1, target=max(float(s1.mu_jet(x, 0).const) for x in pts))
    checks.append(check("projector_idempotent",
                        float(np.max(np.abs(P.matrix @ P.matrix - P.matrix))), 1e-8))
    proj = PolynomialSolution(m1, s1, coeffs)
    interior = next((x for x in pts if 0.05 < float(proj.mu_jet(x, 0).const) < 0.95), None)
    mism = angle = hess = math.nan   # null without an interior sample, so each fails
    if interior is not None:
        rep = eigenstructure_report(m1, proj, interior)
        expected = {1.0: 2 * rep.k, 1.0 - rep.mu: 2, 0.0: 2 * g_model.n - 2 * rep.k - 2}
        got = {val: sum(m for v, m in rep.eigenvalues if abs(v - val) <= 1e-5) for val in expected}
        mism = float(any(mult > 0 and got[val] != mult for val, mult in expected.items()))
        angle = rep.lambda_angle
        hess = float(np.max(np.abs(hessian_mu_check(m1, proj, interior))))
    checks.append(check("eigenstructure_multiplicities", mism, 0.5))
    checks.append(check("lambda_eigenspace_angle", angle, 1e-4))
    checks.append(check("hessian_mu", hess, args.tol))
    extra = {"B": B, "minimal_poly": mp1.coefficients.tolist()}
    return g_model, checks, [], extra


def run_tanno(args, rng):
    g_model = fubini_study(args.n, args.chart_index)
    sol = _pair_solution(g_model, args.A_file)
    pts = g_model.sample_points(rng, args.samples)
    _build_a_jets(sol, pts[:5], 3)  # the round trip reads order 3 there
    kappa = args.B if args.B is not None else float(np.mean(
        [estimate_B(g_model, sol, p)[0] for p in pts[:5]]))
    solB = sol.with_B(kappa)

    lam_field = lambda_scalar_field(g_model, solB)
    worst_t = max(float(np.max(np.abs(tanno_residual(g_model, lam_field, kappa, p))))
                  for p in pts)
    worst_l = max(float(np.max(np.abs(laplace_identity_residual(g_model, solB, p))))
                  for p in pts)
    ext = TannoSolution(g_model, lam_field, kappa)
    worst_rt = 0.0
    for p in pts[:5]:
        worst_rt = max(worst_rt, _line_distance(g_model, solB, ext, kappa, p))
    checks = [
        check("tanno_residual", worst_t, args.tol),
        check("laplace_identity", worst_l, args.tol),
        check("round_trip_mod_trivial", worst_rt, 1e-6),
    ]
    return g_model, checks, [], {"kappa": kappa}


def _line_distance(model, sol, ext, B, point):
    """Distance between two solution triples modulo the trivial line (g, 0, -B)."""
    ta = geom(model, point, 0)["g"].const
    da = sol.a_jet(point, 0).const - ext.a_jet(point, 0).const
    dl = sol.lam_jet(point, 0).const - ext.lam_jet(point, 0).const
    dm = float(sol.mu_jet(point, 0).const - ext.mu_jet(point, 0).const)
    proj = (float(np.sum(da * ta)) - dm * B) / float(np.sum(ta * ta) + B * B)
    return max(float(np.max(np.abs(da - proj * ta))), float(np.max(np.abs(dl))),
               abs(dm + proj * B))


def run_hplanar(args, rng):
    model = _model_from_args(args, killing=True)
    curvemod.check_line_notion(model)
    step, count = args.step, args.samples
    x0s = [model.point(rng.uniform(-0.3, 0.3, model.dim)) for _ in range(count)]
    v0s = [rng.uniform(-0.7, 0.7, model.dim) for _ in range(count)]
    als = [float(rng.uniform(-0.3, 0.3)) for _ in range(count)]
    bes = [float(rng.uniform(-0.5, 0.5)) for _ in range(count)]
    killing = args.A_file and model.kind == "fs"
    # one batch: sampled curves, energy geodesic, order ladder, Killing geodesics
    specs = ([(x0s[i], v0s[i], als[i], bes[i], 1.0, step) for i in range(count)]
             + [(x0s[0], v0s[0], 0.0, 0.0, 1.0, step)]
             + [(x0s[0], v0s[0], als[0], bes[0], curvemod.ORDER_T_END, h)
                for h in curvemod.ORDER_STEPS]
             + [(x0s[i], v0s[i], 0.0, 0.0, 1.0, 2e-3) for i in range(min(5, count)) if killing])
    batch = curvemod.integrate_hplanar_batch(model, *zip(*specs))
    end = count + 1 + len(curvemod.ORDER_STEPS)
    curves, geo, ladder = batch[:count], batch[count], batch[count + 1:end]
    devs = [curvemod.line_deviation(model, c, x0s[i], v0s[i], per_sample=True)
            for i, c in enumerate(curves)]
    rep_ok, defects0, _ = curvemod.reparametrization_invariance_check(model, curves[0])
    # each curve's defects once: the first three are checked, --csv-dir exports all
    defects = [defects0] + [curvemod.hplanarity_defect(model, c)
                            for c in curves[1:None if args.csv_dir else 3]]
    ratio = curvemod.rk4_order_ratio([c.X[-1] for c in ladder])
    checks = [
        check("line_deviation", max(float(np.max(dev)) for dev in devs), args.tol),
        check("hplanarity_defect", max(float(np.nanmax(d)) for d in defects[:3]), args.tol),
        check("energy_drift_geodesic", curvemod.energy_drift(model, geo), 1e-8),
        check("rk4_ratio_low", ratio, 12.0, invert=True),
        check("rk4_ratio_high", ratio, 20.0),
        check("reparametrization_invariance", 0.0 if rep_ok else 1.0, 0.5),
    ]
    artifacts = []
    if args.csv_dir:
        import os
        os.makedirs(args.csv_dir, exist_ok=True)
        for i, c in enumerate(curves):
            path = f"{args.csv_dir}/curve{i}.csv"
            dfc = np.full(len(c), np.nan)
            dfc[2:len(c) - 2] = defects[i]
            c.export_csv(path, extras={"defect": dfc, "deviation": devs[i]})
            artifacts.append(path)
    if killing:
        vf = _pair_solution(model, args.A_file).lambda_bar_vector_at
        drifts = [curvemod.killing_integral_drift(model, g, vf, stride=25)
                  for g in batch[end:]]
        checks.append(check("killing_integral_drift", max(drifts), 1e-7))
    return model, checks, artifacts


def run_report_merge(args, rng):
    """The checks of every input report, each named after its scenario.  An
    input that is not a report object with a non-empty ``checks`` list of
    complete check records is a config error."""
    checks, artifacts = [], []
    for path in args.inputs:
        rep = _read_json(path)
        if not isinstance(rep, dict):
            raise ConfigError(f"{path}: a report is a JSON object")
        if not (isinstance(rep.get("checks"), list) and rep["checks"]):
            raise ConfigError(f"{path}: a report needs a non-empty 'checks' list")
        for c in rep["checks"]:
            missing = [k for k in ("name", "max_residual", "tolerance", "pass")
                       if not isinstance(c, dict) or k not in c]
            if missing:
                raise ConfigError(f"{path}: a check record lacks {', '.join(map(repr, missing))}")
            checks.append({**c, "name": f"{rep.get('scenario', 'unknown')}.{c['name']}"})
        artifacts.extend(rep.get("artifacts", []))
    return None, checks, artifacts


def _float_or_sweep(text):
    if text == "sweep":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a float or 'sweep', got {text!r}")


# argparse keywords of each flag, by its dest (the flag is --dest, "_" -> "-")
FLAGS = {
    "seed": {"type": int}, "out": {"help": "report path (JSON)"},
    "config": {"help": "JSON config file"},
    "tol": {"type": float}, "samples": {"type": int}, "step": {"type": float},
    "model": {"choices": ["flat", "fs", "pullback", "torus", "product"]},
    "n": {"type": int}, "chart_index": {"type": int},
    "diag": {"type": float, "nargs": "+"}, "periods": {"type": float},
    "A_file": {"help": "complex matrix as JSON rows of [re, im] pairs"}, "A2_file": {},
    "B": {"type": _float_or_sweep, "help": "coupling constant, or 'sweep'"},
    "expect_dim": {"type": int}, "verify_basis": {"type": int}, "csv_dir": {},
    "dump_solution": {"help": "write the solution grid (JSON) to this path"},
}
# The flags that build a model from a descriptor, and those of the pair
# scenarios, which pair fs with a pullback of it.
_MODEL = {"model": "fs", "n": None, "chart_index": None, "diag": None, "periods": None,
          "A_file": None}
_PAIR = {"n": 2, "chart_index": 0, "A_file": None}
_UNSET = object()
# Each scenario's runner, its help, and the flags the runner reads with their
# defaults; samples is (default, least, most).  Every scenario but
# report-merge also reads --seed, --out and --config; report-merge reads
# --out and its inputs.
SCENARIOS = {
    "verify-kahler": (run_verify_kahler, "compatibility residuals of (g, J) at seeded points",
                      {"tol": 1e-8, "samples": (20, 1, math.inf), **_MODEL}),
    "curvature": (run_curvature,
                  "curvature symmetries and the constant-holomorphic-curvature identity",
                  {"tol": 1e-7, "samples": (20, 1, math.inf), "B": -0.25, **_MODEL}),
    "hpr-check": (run_hpr_check,
                  "first-order system residuals for a metric pair, with coupling-constant fit",
                  {"tol": 1e-7, "samples": (20, 1, math.inf), **_PAIR, "A2_file": None,
                   "dump_solution": None}),
    "mobility": (run_mobility, "local solution-space dimension of the prolonged system",
                 {"B": None, "step": 2e-3, "expect_dim": None, "verify_basis": 3, **_MODEL}),
    "spectral": (run_spectral, "packaged-operator algebra: products, minimal polynomial, "
                 "projector eigenstructure",
                 {"tol": 1e-5, "samples": (20, 4, math.inf), "B": None, **_PAIR}),
    "tanno": (run_tanno,
              "third-order scalar equation and its equivalence with the prolonged system",
              {"tol": 1e-5, "samples": (20, 1, math.inf), "B": None, **_PAIR}),
    "hplanar": (run_hplanar, "planar-curve integration, line membership, first integrals",
                {"tol": 1e-6, "samples": (10, 1, 10), "step": 1e-3, "csv_dir": None, **_MODEL}),
    "report-merge": (run_report_merge, "merge previously written JSON reports", {}),
}


class _Parser(argparse.ArgumentParser):
    """A parser error is a usage error: one line on stderr and exit 2."""

    def error(self, message):
        raise InvalidInputError(message)


def build_parser(defaults=None):
    """The CLI parser: each scenario gets exactly the flags of its
    ``SCENARIOS`` entry; ``defaults`` (a config file's values) replace their
    own defaults."""
    parser = _Parser(prog="kahlerlab",
                     description="scenario runner for the Kähler-geometry verification suites")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="scenario")
    sub.add_parser("list", help="list scenarios").add_argument("--json", action="store_true")
    for name, (_, desc, flags) in SCENARIOS.items():
        p = sub.add_parser(name, help=desc)
        common = {"out": None} if name == "report-merge" else {"seed": 0, "out": None,
                                                                "config": None}
        for dest, default in {**common, **flags}.items():
            p.add_argument("--" + dest.replace("_", "-"), **FLAGS[dest],
                           default=default[0] if dest == "samples" else default)
        if name == "report-merge":
            p.add_argument("inputs", nargs="+")
        p.set_defaults(**(defaults or {}))
    return parser


@functools.cache
def _flag_parser():
    """The parser of runs without ``--config``, built once per process; a
    config run builds its own, with the file's values as defaults."""
    return build_parser()


def _parse(parser, argv):
    """The parsed argv; a flag the scenario does not read is a usage error."""
    args, unread = parser.parse_known_args(argv)
    if unread:
        raise InvalidInputError(f"{args.scenario or 'kahlerlab'} does not read "
                                f"{' '.join(unread)}")
    return args


def _check_bounds(scenario, values):
    """Refuse a tol or step that is not a positive number, and a samples,
    verify_basis or seed count out of its range; a bool is neither.  Config
    values are checked as written, before argparse converts string defaults,
    and again once parsed."""
    for key, value in values.items():
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if key in ("tol", "step") and not (number and 0 < value < math.inf):
            raise ConfigError(f"{key} must be a positive number, got {value!r}")
        if key in ("samples", "verify_basis", "seed"):
            lo, hi = (SCENARIOS[scenario][2]["samples"][1:] if key == "samples"
                      else (1 if key == "verify_basis" else 0, math.inf))
            if not (number and isinstance(value, int) and lo <= value <= hi):
                span = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
                raise ConfigError(f"{key} must be an integer {span}, got {value!r}")


def _apply_config(args, argv):
    """Config-file values become the scenario flags' defaults and argv is
    parsed again, so a flag in any form argparse accepts beats the file.  A
    key that is not one of the scenario's flags is refused; a ``model``
    object is a descriptor, which replaces the model flags, so a model flag
    given with it is refused too (except hplanar's --A-file on an fs model,
    the matrix of its Killing pair)."""
    cfg = _read_json(args.config)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{args.config}: expected a JSON object")
    cfg = {key.replace("-", "_"): value for key, value in cfg.items()}
    unread = sorted(set(cfg) - (set(vars(args)) - {"scenario", "config"}))
    if unread:
        raise ConfigError(f"{args.scenario} does not read the config key(s) "
                          f"{', '.join(map(repr, unread))}")
    # a seed is checked once parsed: argparse converts a string seed
    _check_bounds(args.scenario, {k: v for k, v in cfg.items() if k != "seed"})
    model = cfg.pop("model") if isinstance(cfg.get("model"), dict) else None
    if model is None:
        return _parse(build_parser(cfg), argv)
    # an unset model flag keeps a marker default, so that one given as a flag
    # or as a config key shows
    args = _parse(build_parser({**dict.fromkeys(_MODEL, _UNSET), **cfg}), argv)
    killing = args.scenario == "hplanar" and model.get("kind") == "fs"
    given = [k for k in _MODEL
             if getattr(args, k) is not _UNSET and not (killing and k == "A_file")]
    if given:
        raise ConfigError(f"the config 'model' object replaces "
                          f"{', '.join('--' + k.replace('_', '-') for k in given)}")
    for k in _MODEL:
        if getattr(args, k) is _UNSET:
            setattr(args, k, None)
    args.model = model
    return args


def main(argv=None):
    try:
        args = _parse(_flag_parser(), argv)
        if args.scenario in (None, "list"):
            names = sorted(SCENARIOS)
            print(json.dumps(names) if getattr(args, "json", False) else
                  "\n".join(f"{name}: {SCENARIOS[name][1]}" for name in names))
            return 0
        if getattr(args, "config", None):
            args = _apply_config(args, argv)
        _check_bounds(args.scenario, vars(args))
        seed = getattr(args, "seed", None)
        out = SCENARIOS[args.scenario][0](args, np.random.default_rng(seed))
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except KahlerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    model, checks, artifacts = out[0], out[1], out[2]
    extra = out[3] if len(out) > 3 else {}
    report = {
        "version": __version__,
        "scenario": args.scenario,
        "model": model.descriptor() if model is not None else None,
        "seed": seed,
        "tolerances": {c["name"]: c["tolerance"] for c in checks},
        "checks": checks,
        "artifacts": artifacts,
    }
    report.update(extra)
    path = args.out or f"{args.scenario}_report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    for c in checks:
        status = "pass" if c["pass"] else "FAIL"
        value = "null" if c["max_residual"] is None else f"{c['max_residual']:.3e}"
        print(f"[{status}] {c['name']}: {value} (tol {c['tolerance']:.1e})")
    print(f"report: {path}")
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
