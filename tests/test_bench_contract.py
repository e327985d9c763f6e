"""The benchmark's span tracer patches kahlerlab functions by name; a name it
cannot find leaves its per-layer metrics out of the traced result.  This
checks every name the tracer declares against the package, reading
perfbench/tracer.py without installing it."""

import importlib
import importlib.util
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
