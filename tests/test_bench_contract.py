"""The benchmark's span tracer patches kahlerlab functions by name; a name it
cannot find leaves its per-layer metrics out of the traced result, and an
argument or attribute its count hooks read crashes a traced run when renamed.
This checks those names against the package, reading perfbench/tracer.py
without installing it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _declared():
    tracer = _tracer()
    names = [(m, f) for m, fs in tracer.TRACED.items() for f in fs]
    return names + [("prolongation", tracer.RK4_STAGE)]


@pytest.mark.parametrize("module,name", _declared(), ids=lambda v: v)
def test_traced_name_is_bound(module, name):
    mod = importlib.import_module(f"kahlerlab.{module}")
    assert callable(getattr(mod, name, None)), f"kahlerlab.{module}.{name} is gone"


def test_class_level_hooks_are_bound():
    from kahlerlab import jets, models
    assert callable(models.KahlerModel.metric_fn)
    assert callable(jets.jet_space.cache_info) and callable(jets.JetSpace.__init__)


# Arguments the tracer's count hooks bind by name (inspect.signature(...).bind)
BOUND_ARGUMENTS = [
    ("prolongation", "_geo_floats_batch", "X"),
    ("prolongation", "_transport_batch", "a"),
    ("prolongation", "_rhs", "a"),
    ("hproj", "geom", "model"),
    ("hproj", "geom", "point"),
    ("hproj", "geom", "order"),
    ("jets", "jet_eval", "order"),
]


@pytest.mark.parametrize("module,name,arg", BOUND_ARGUMENTS, ids=lambda v: v)
def test_traced_argument_is_bound(module, name, arg):
    fn = getattr(importlib.import_module(f"kahlerlab.{module}"), name)
    assert arg in inspect.signature(fn).parameters, f"{name} has no argument {arg!r}"


def test_mobility_report_has_constraint_history():
    # the degree_of_mobility hook reads report.constraint_history
    from kahlerlab.models import flat_torus
    from kahlerlab.prolongation import MobilityConfig, degree_of_mobility
    report = degree_of_mobility(flat_torus(2), 0.0, config=MobilityConfig(max_batches=1))
    assert report.constraint_history == [0]
