import tracemalloc

import numpy as np
import pytest

from kahlerlab.hproj import PairSolution
from kahlerlab.models import flat_model, flat_torus, fubini_study, pullback_fs


@pytest.fixture(scope="session")
def fs2():
    return fubini_study(2)


@pytest.fixture(scope="session")
def flat2():
    return flat_model(2)


@pytest.fixture(scope="session")
def torus2():
    return flat_torus(2, 1.0)


@pytest.fixture(scope="session")
def ga_diag():
    return pullback_fs(np.diag([2.0, 1.0, 1.0]))


@pytest.fixture(scope="session")
def pair_sol(fs2, ga_diag):
    return PairSolution(fs2, ga_diag, B=-0.25)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def sample_coords(rng, dim=4, half=0.6, count=1):
    pts = [rng.uniform(-half, half, dim) for _ in range(count)]
    return pts if count > 1 else pts[0]


def passed(report):
    """A KahlerReport's verdict: every residual within its tolerance."""
    return all(v <= report.tol for v in report.residuals.values())


def traced_peak(fn, *args):
    """(peak bytes that tracemalloc saw allocated during ``fn(*args)``, its
    result).  numpy reports its array buffers to tracemalloc, so this is the
    call's peak of numpy allocations, not the process's resident memory."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
