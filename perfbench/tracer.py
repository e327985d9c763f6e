"""Span tracer installed from outside the program.

It replaces each traced ``kahlerlab`` function, in every module namespace
that binds it, by a wrapper that records a span (name, start, end, parent,
run id) in memory, plus the counts that need the call's arguments or result.
Nothing in ``src/`` is edited, and a process that does not install the tracer
runs the program untouched.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Functions traced in each kahlerlab module; a span is named "<module>.<func>".
TRACED = {
    "curves": ["integrate_hplanar", "integrate_hplanar_batch",
               "killing_integral_drift", "line_deviation", "hplanarity_defect"],
    "prolongation": ["_geo_floats", "_geo_floats_batch", "_transport_batch",
                     "degree_of_mobility", "mobility_basis_grid",
                     "extended_residual", "frobenius_complete", "estimate_B",
                     "tanno_residual", "laplace_identity_residual"],
    "tensors": ["hermitize"],
    "hproj": ["geom", "hpr_residual"],
    "geometry": ["christoffels", "christoffel_jet", "riemann", "cov_step_jet",
                 "verify_kahler"],
    "spectral": ["build_L", "L_product", "minimal_poly", "make_projector",
                 "eigenstructure_report"],
    "jets": ["jet_eval", "jet_einsum", "jet_matrix_inverse"],
}
METRIC_FN = "models.metric_fn"        # class-level wrapper on KahlerModel.metric_fn
JET_SPACE_BUILD = "jets.jet_space.miss"  # JetSpace construction = jet_space cache miss
FIBER_SIZES = (9, 25, 49)
RK4_STAGE = "_rhs"   # prolongation's RK4 right-hand side, counted per call


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, run id]
        self._stack = []
        self.run_id = -1
        self.counts = Counter()
        self.absent = []         # traced names the program no longer has
        self.absent_metrics = []  # metrics of those names, left unreported
        self._rk4 = defaultdict(lambda: [0, 0.0])   # batch size -> [stage calls, s]
        self._geom_seen = set()
        self._geom_models = []   # keeps keyed models alive, so their ids stay unique

    # -- recording ---------------------------------------------------------
    def span(self, name, fn, after=None):
        """``fn`` wrapped to record a span; ``after(args, kwargs, result, dt)``
        runs once the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, rec[2] - rec[1])
            return result

        return traced

    # -- installation --------------------------------------------------------
    def install(self):
        """Patch every traced function of the imported kahlerlab package."""
        from kahlerlab import jets, models
        modules = [m for k, m in list(sys.modules.items())
                   if k == "kahlerlab" or k.startswith("kahlerlab.")]
        for short, names in TRACED.items():
            home = sys.modules[f"kahlerlab.{short}"]
            for fname in names:
                name = f"{short}.{fname}"
                orig = getattr(home, fname, None)
                if orig is None:
                    self.absent.append(name)
                    continue
                wrapped = self.span(name, orig, self._after(name, orig))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)

        orig_metric_fn = models.KahlerModel.metric_fn
        closure_span = functools.partial(self.span, METRIC_FN, after=self._after_metric)

        def metric_fn(model, chart=None):
            return closure_span(orig_metric_fn(model, chart))

        models.KahlerModel.metric_fn = metric_fn
        self._count_rk4_stages()
        jets.JetSpace.__init__ = self.span(JET_SPACE_BUILD, jets.JetSpace.__init__)
        self._jet_space_misses0 = jets.jet_space.cache_info().misses

    def _count_rk4_stages(self):
        """Count the RK4 stage evaluations (``prolongation._rhs`` calls made
        directly inside a ``_transport_batch`` span) by batch size, without a
        span of their own: four stages make one step of every state."""
        from kahlerlab import prolongation
        orig = getattr(prolongation, RK4_STAGE, None)
        if orig is None:
            self.absent.append(f"prolongation.{RK4_STAGE}")
            return
        sig = inspect.signature(orig)
        spans, stack, rk4 = self.spans, self._stack, self._rk4

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "prolongation._transport_batch":
                rk4[sig.bind(*args, **kwargs).arguments["a"].shape[0]][0] += 1
            return orig(*args, **kwargs)

        setattr(prolongation, RK4_STAGE, counted)

    def _after(self, name, fn):
        """The count hook for a traced function, or None."""
        sig = inspect.signature(fn)
        counts = self.counts

        def bound(args, kwargs):
            return sig.bind(*args, **kwargs).arguments

        if name == "curves.integrate_hplanar":
            def hook(args, kwargs, curve, dt):
                counts[f"{name}.steps"] += len(curve) - 1
        elif name == "curves.integrate_hplanar_batch":
            def hook(args, kwargs, curves, dt):
                counts[f"{name}.curve_steps"] += sum(len(c) - 1 for c in curves)
        elif name == "prolongation._geo_floats_batch":
            def hook(args, kwargs, result, dt):
                counts[f"{name}.points"] += bound(args, kwargs)["X"].shape[0]
        elif name == "prolongation._transport_batch":
            def hook(args, kwargs, result, dt):
                self._rk4[bound(args, kwargs)["a"].shape[0]][1] += dt
        elif name == "prolongation.degree_of_mobility":
            def hook(args, kwargs, report, dt):
                prev = 0
                for rank in report.constraint_history:
                    counts["prolongation.mobility.batches"] += 1
                    counts["prolongation.mobility.useful_batches"] += rank > prev
                    prev = rank
        elif name == "hproj.geom":
            def hook(args, kwargs, result, dt):
                a = bound(args, kwargs)
                point = a["point"]
                key = (id(a["model"]), point.chart, point.coords.tobytes(), a["order"])
                counts["hproj.geom.repeats"] += key in self._geom_seen
                self._geom_seen.add(key)
                self._geom_models.append(a["model"])
        elif name == "jets.jet_eval":
            def hook(args, kwargs, result, dt):
                counts[f"{name}.o{bound(args, kwargs)['order']}.calls"] += 1
        else:
            hook = None
        return hook

    def _after_metric(self, args, kwargs, result, dt):
        xs = args[0]
        coef = getattr(xs[0], "coef", None) if len(xs) else None
        if coef is not None and coef.ndim > 1:
            self.counts[f"{METRIC_FN}.batched.calls"] += 1

    # -- results ---------------------------------------------------------------
    def layer_metrics(self, wall_s):
        """Per-layer metrics of the recorded run, named as in BENCHMARK.json."""
        from kahlerlab import jets
        from kahlerlab.cli import SCENARIOS
        calls, incl, self_s = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl[name] += t1 - t0

        out = {}

        def put(key, value, owner):
            if owner in self.absent:
                self.absent_metrics.append(key)
            else:
                out[key] = value

        for name in [f"{m}.{f}" for m, fs in TRACED.items() for f in fs] + [METRIC_FN]:
            put(f"{name}.calls", calls[name], name)
            put(f"{name}.s", incl[name], name)
            put(f"{name}.self_s", self_s[name], name)
        # top-level spans are the worker's "cli.<scenario>" calls
        out.update({f"cli.{name}.s": 0.0 for name in SCENARIOS})
        for name, t0, t1, parent, _ in self.spans:
            if parent < 0:
                out[f"{name}.s"] += t1 - t0
        top = sum(t1 - t0 for _, t0, t1, parent, _ in self.spans
                  if parent >= 0 and self.spans[parent][3] < 0)
        out["trace.covered_frac"] = top / wall_s

        c = self.counts
        for key in ("curves.integrate_hplanar.steps",
                    "curves.integrate_hplanar_batch.curve_steps",
                    "prolongation._geo_floats_batch.points"):
            put(key, c[key], key.rsplit(".", 1)[0])
        for order in (1, 2, 3):
            put(f"jets.jet_eval.o{order}.calls", c[f"jets.jet_eval.o{order}.calls"],
                "jets.jet_eval")
        put(f"{METRIC_FN}.batched.calls", c[f"{METRIC_FN}.batched.calls"], METRIC_FN)
        # A ratio or per-step time without a base reads 0; bases() gives the bases.
        mob = "prolongation.degree_of_mobility"
        put("prolongation.mobility.batches", c["prolongation.mobility.batches"], mob)
        put("prolongation.mobility.useful_batch_ratio",
            _ratio(c["prolongation.mobility.useful_batches"],
                   c["prolongation.mobility.batches"]), mob)
        put("hproj.geom.repeat_ratio",
            _ratio(c["hproj.geom.repeats"], calls["hproj.geom"]), "hproj.geom")
        stage = f"prolongation.{RK4_STAGE}"
        owner = stage if stage in self.absent else "prolongation._transport_batch"
        steps = {b: v[0] * b // 4 for b, v in self._rk4.items()}
        put("prolongation.rk4_state_steps", sum(steps.values()), owner)
        for b in FIBER_SIZES:
            secs = self._rk4[b][1] if b in self._rk4 else 0.0
            put(f"prolongation.rk4_state_step_us.b{b}", _ratio(secs * 1e6, steps.get(b, 0)),
                owner)
        out["jets.jet_space.misses"] = (jets.jet_space.cache_info().misses
                                        - self._jet_space_misses0)
        out["jets.jet_space.miss_s"] = incl[JET_SPACE_BUILD]
        return out

    def bases(self):
        """Denominators of the ratio metrics, for the run printout."""
        return {"geom_calls": sum(1 for r in self.spans if r[0] == "hproj.geom"),
                "mobility_batches": self.counts["prolongation.mobility.batches"],
                "rk4_state_steps_by_batch": {str(b): v[0] * b // 4
                                             for b, v in sorted(self._rk4.items())}}

    def dump(self, path):
        """Write the spans, one JSON list per line."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
