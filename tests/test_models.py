import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerlab.errors import (ConfigError, InvalidInputError, UnsupportedDimensionError,
                              UnsupportedModelError)
from kahlerlab.geometry import christoffels, riemann
from kahlerlab.hproj import geom
from kahlerlab.jets import jet_eval
from kahlerlab.models import (Chart, ChartPoint, complex_matrix_from_pairs,
                              flat_model, flat_torus, fubini_study,
                              model_from_descriptor, product_model,
                              pullback_fs, rescale_model)
from conftest import passed
from oracles import (fd_gradient, fs_christoffel_oracle, pullback_christoffel_oracle,
                     pullback_metric_oracle)


def test_chart_invariants():
    with pytest.raises(UnsupportedDimensionError):
        Chart("c0", 2, (-1.0, -1.0), (1.0, 1.0))
    with pytest.raises(UnsupportedDimensionError):
        Chart("c0", 5, (-1.0,) * 5, (1.0,) * 5)
    c = Chart("c0", 4, (-1.0,) * 4, (1.0,) * 4)
    assert c.contains([0.5, 0, 0, 0])
    assert not c.contains([0.99, 0, 0, 0], margin=0.05)


def test_fs_origin_value_and_normalization(fs2):
    g0 = fs2.metric_at(fs2.point(np.zeros(4)))
    assert np.allclose(g0, 4.0 * np.eye(4), atol=1e-14)


def test_fs_holomorphic_sectional_curvature_is_one(fs2, rng):
    J = fs2.j_matrix()
    for _ in range(10):
        p = fs2.point(rng.uniform(-0.8, 0.8, 4))
        v = rng.normal(size=4)
        g = geom(fs2, p, 2)
        R, gm = riemann(g["gamma"]), g["g"].const
        Jv = J @ v
        Rv = np.einsum("ijkl,j,k,l->i", R, Jv, v, Jv)
        H = (gm @ Rv) @ v / (v @ gm @ v) ** 2
        assert abs(H - 1.0) < 1e-7


def test_fs_rejects_low_dimension():
    with pytest.raises(UnsupportedDimensionError):
        fubini_study(1)
    with pytest.raises(InvalidInputError):
        fubini_study(2, chart_index=5)


def _chart_pairs():
    A = np.array([[2.0, 0.3j, 0.0], [0.1, 1.0, 0.2], [0.0, -0.4j, 1.0]])
    cases = []
    for label, model in (("fs2", fubini_study(2)), ("fs3", fubini_study(3)),
                         ("pullback2", pullback_fs(A))):
        for src in sorted(model.charts):
            cases += [pytest.param(model, src, dst, id=f"{label}-{src}-{dst}")
                      for dst in model.transition_targets(src)]
    return cases


@pytest.mark.parametrize("model,src,dst", _chart_pairs())
def test_fs_chart_transition_consistency(model, src, dst, rng):
    T = model.transition(src, dst)
    T_back = model.transition(dst, src)
    k, m = int(src[1:]), int(dst[1:])
    slot = m if m < k else m - 1      # the target's unit slot among c_src's coordinates
    for _ in range(5):
        x = rng.uniform(-0.8, 0.8, model.dim)
        x[2 * slot] = rng.choice([-1, 1]) * rng.uniform(0.5, 0.9)
        tj = jet_eval(T, list(x), 1)
        y, Dy = tj.const, tj.derivatives(1)
        g1 = np.array(model.metric_fn(dst)(list(y)), dtype=float)
        g0 = np.array(model.metric_fn(src)(list(x)), dtype=float)
        assert np.max(np.abs(Dy.T @ g1 @ Dy - g0)) < 1e-9
        assert np.max(np.abs(np.array(T_back(list(y))) - x)) < 1e-12


def test_pullback_identity_and_scalar(fs2, rng):
    for c in (1.0, 2.0, -0.5):
        pb = pullback_fs(c * np.eye(3))
        x = rng.uniform(-0.8, 0.8, 4)
        assert np.allclose(pb.metric_at(pb.point(x)), fs2.metric_at(fs2.point(x)),
                           atol=1e-12)


def test_pullback_unitary_invariance(fs2, rng):
    w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(w)
    pb = pullback_fs(Q)
    for _ in range(5):
        x = rng.uniform(-0.8, 0.8, 4)
        assert np.allclose(pb.metric_at(pb.point(x)), fs2.metric_at(fs2.point(x)),
                           atol=1e-12)


def test_pullback_diag_not_proportional(fs2, ga_diag, rng):
    x = rng.uniform(-0.5, 0.5, 4)
    ga = ga_diag.metric_at(ga_diag.point(x))
    gf = fs2.metric_at(fs2.point(x))
    assert np.max(np.abs(ga / ga[0, 0] - gf / gf[0, 0])) > 1e-3


def test_pullback_is_kahler(ga_diag, rng):
    assert passed(ga_diag.verify(rng, count=10, tol=1e-9))


def test_pullback_singular_matrix_rejected():
    with pytest.raises(InvalidInputError):
        pullback_fs(np.diag([1.0, 1.0, 0.0]))


def test_pullback_functoriality_under_unitary(rng):
    A = np.diag([2.0, 1.0, 1.0])
    w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(w)
    pb_AU = pullback_fs(A @ Q)
    pb_A = pullback_fs(A)

    def f_U(xs):
        z = np.array([complex(xs[0], xs[1]), complex(xs[2], xs[3])])
        hom = Q @ np.concatenate([[1.0 + 0j], z])
        u = hom[1:] / hom[0]
        return [u[0].real, u[0].imag, u[1].real, u[1].imag]

    for _ in range(3):
        x = rng.uniform(-0.4, 0.4, 4)
        y = np.array(f_U(list(x)))
        D = fd_gradient(f_U, list(x))
        lhs = D.T @ pb_A.metric_at(pb_A.point(y)) @ D
        assert np.max(np.abs(lhs - pb_AU.metric_at(pb_AU.point(x)))) < 1e-9


def test_product_flat_sum(rng):
    prod = product_model([flat_model(2), flat_model(2)], [1.0, 1.0])
    x = rng.uniform(-1, 1, 8)
    assert np.allclose(prod.metric_at(prod.point(x)), np.eye(8))
    J = prod.j_matrix()
    assert np.allclose(J @ J, -np.eye(8))


def test_product_weights_are_affinely_equivalent(fs2, rng):
    # connection coefficients do not see constant block weights
    weighted = product_model([fs2, flat_model(2), flat_model(2)], [2.0, 3.0, -1.0])
    plain = product_model([fs2, flat_model(2), flat_model(2)], [1.0, 1.0, 1.0])
    for _ in range(10):
        x = rng.uniform(-0.5, 0.5, 12)
        jw, jp = (jet_eval(m.metric_fn(), list(x), 1) for m in (weighted, plain))
        gw = christoffels(jw.const, jw.derivatives(1))
        gp = christoffels(jp.const, jp.derivatives(1))
        assert np.max(np.abs(gw - gp)) < 1e-12


def test_product_validation():
    with pytest.raises(InvalidInputError):
        product_model([flat_model(2)])
    with pytest.raises(InvalidInputError):
        product_model([flat_model(2), flat_model(2)], [1.0, 0.0])


def test_flat_torus_curvature_and_wrap(torus2, rng):
    g = geom(torus2, torus2.point(rng.uniform(-0.4, 0.4, 4)), 2)
    assert np.max(np.abs(riemann(g["gamma"]))) == 0.0
    assert passed(torus2.verify(rng, count=5))
    wrapped = torus2.wrap(ChartPoint("c0", [0.7, -0.6, 0.2, 0.49]))
    assert np.allclose(wrapped.coords, [-0.3, 0.4, 0.2, 0.49])
    with pytest.raises(InvalidInputError):
        flat_torus(2, -1.0)
    with pytest.raises(InvalidInputError):
        flat_torus(2, [1.0, 2.0, 3.0])
    with pytest.raises(UnsupportedDimensionError):
        flat_torus(1)


def test_rescale_model(fs2, rng):
    scaled = rescale_model(fs2, 0.25)
    x = rng.uniform(-0.5, 0.5, 4)
    assert np.allclose(scaled.metric_at(scaled.point(x)),
                       0.25 * fs2.metric_at(fs2.point(x)))
    with pytest.raises(InvalidInputError):
        rescale_model(fs2, 0.0)


def test_model_descriptor_round_trip():
    desc = {"kind": "product", "n": 4,
            "factors": [{"kind": "torus", "n": 2, "periods": 1.0},
                        {"kind": "flat", "n": 2}],
            "weights": [1.0, 2.0]}
    m = model_from_descriptor(desc)
    assert m.kind == "product" and m.n == 4
    with pytest.raises(UnsupportedModelError):
        model_from_descriptor({"kind": "nope", "n": 2})
    A = complex_matrix_from_pairs([[[2, 0], [0, 0], [0, 0]],
                                   [[0, 0], [1, 0], [0, 0]],
                                   [[0, 0], [0, 0], [1, 0]]])
    assert np.allclose(A, np.diag([2.0, 1.0, 1.0]))
    m2 = model_from_descriptor({"kind": "pullback", "n": 2,
                                "A": [[[2, 0], [0, 0], [0, 0]],
                                      [[0, 0], [1, 0], [0, 0]],
                                      [[0, 0], [0, 0], [1, 0]]]})
    assert m2.kind == "pullback"
    # the chart and the scale survive the round trip
    pb = model_from_descriptor(pullback_fs(np.diag([2.0, 1.0, 1.0]), chart_index=1).descriptor())
    assert pb.default_chart == "c1"
    fs = model_from_descriptor(rescale_model(fubini_study(2), 2).descriptor())
    assert np.allclose(fs.metric_at(fs.point(np.zeros(4))), 8.0 * np.eye(4), atol=1e-14)


_A3 = [[[2, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]


@pytest.mark.parametrize("desc", [
    {"kind": "torus", "n": 2, "period": 0.5},                   # a typo of periods
    {"kind": "flat", "n": 2, "periods": 3.0, "chart_index": 1},
    {"kind": "fs", "n": 2, "A": _A3},
    {"kind": "pullback", "n": 3, "A": _A3},                     # A is 3x3: n = 2
    {"kind": "product", "n": 5, "factors": [{"kind": "flat"}, {"kind": "flat"}]},
    {"kind": "product", "factors": [{"kind": "flat", "weights": [1.0]}, {"kind": "flat"}]},
])
def test_descriptor_refuses_keys_its_kind_does_not_read(desc):
    with pytest.raises(ConfigError):
        model_from_descriptor(desc)


@st.composite
def _models(draw):
    """A model of every kind at n = 2 or 3, optionally rescaled."""
    kind = draw(st.sampled_from(["fs", "pullback", "flat", "torus", "product"]))
    n = draw(st.sampled_from([2, 3]))
    chart_index = draw(st.integers(0, n))
    if kind == "fs":
        model = fubini_study(n, chart_index)
    elif kind == "pullback":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        A = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
        model = pullback_fs(A + 3.0 * np.eye(n + 1), chart_index)
    elif kind == "flat":
        model = flat_model(n, draw(st.lists(st.sampled_from([1.0, -1.0, 2.0]),
                                            min_size=n, max_size=n)))
    elif kind == "torus":
        model = flat_torus(n, draw(st.sampled_from([1.0, 2.5])))
    else:
        model = product_model([fubini_study(n, chart_index), flat_torus(2)],
                              [1.0, draw(st.sampled_from([2.0, -1.0]))])
    c = draw(st.sampled_from([None, 2.0, -3.0]))
    return model if c is None else rescale_model(model, c)


@settings(max_examples=40, deadline=None)
@given(_models(), st.integers(0, 2 ** 32 - 1))
def test_descriptor_rebuilds_the_model(model, seed):
    rebuilt = model_from_descriptor(model.descriptor())
    assert rebuilt.kind == model.kind and rebuilt.default_chart == model.default_chart
    assert rebuilt.descriptor() == model.descriptor()
    for pt in model.sample_points(np.random.default_rng(seed), 3):
        g = model.metric_at(pt)
        assert np.max(np.abs(rebuilt.metric_at(pt) - g)) <= 1e-14 * np.max(np.abs(g))


def test_rechart_moves_to_smaller_coordinates(fs2):
    pt = fs2.point([3.5, 0.0, 0.1, 0.0])
    moved, vel = fs2.rechart(pt, np.array([1.0, 0.0, 0.0, 0.0]))
    assert moved.chart != "c0"
    assert np.max(np.abs(moved.coords)) < 3.5
    assert vel is not None


def _oracle_cases():
    rng = np.random.default_rng(20)
    cases = [pytest.param(n, None, id=f"fs-n{n}") for n in (2, 3, 4)]
    cases += [pytest.param(n, rng.normal(size=(n + 1, n + 1))
                           + 1j * rng.normal(size=(n + 1, n + 1)), id=f"random-n{n}")
              for n in (2, 3, 4)]
    cases.append(pytest.param(3, np.diag([2.0, 1.0, 1.0, 0.5]).astype(complex),
                              id="diag211h-n3"))
    return cases


@pytest.mark.parametrize("n,A", _oracle_cases())
def test_metric_jets_match_cnum_oracle(n, A):
    # the homogeneous formula against the entry-by-entry complex formulas
    # with chart pivoting, coefficient by coefficient through order 3
    model = fubini_study(n) if A is None else pullback_fs(A)
    rng = np.random.default_rng(n)
    for chart in ("c0", "c1"):
        ref_fn = pullback_metric_oracle(n, int(chart[1:]), A)
        for _ in range(2):
            x = list(rng.uniform(-0.6, 0.6, 2 * n))
            ref = jet_eval(ref_fn, x, 3).coef
            new = model.metric_fn(chart)([x[k] for k in range(2 * n)])
            assert np.max(np.abs(new - ref[0])) <= 1e-12 * np.max(np.abs(ref[0]))
            new = jet_eval(model.metric_fn(chart), x, 3).coef
            assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fs_connection_matches_closed_form(n):
    from kahlerlab.prolongation import _geo_floats_batch
    rng = np.random.default_rng(40 + n)
    fs = fubini_study(n)
    X = rng.uniform(-0.8, 0.8, size=(11, 2 * n))
    for chart in ("c0", "c1"):
        _, GAM = _geo_floats_batch(fs, chart, X)
        for b in range(len(X)):
            assert np.max(np.abs(GAM[b] - fs_christoffel_oracle(X[b]))) < 1e-12


def _pullback_cases():
    rng = np.random.default_rng(30)
    cases = [pytest.param(n, np.diag([2.0] + [1.0] * n).astype(complex), id=f"diag21-n{n}")
             for n in (2, 3, 4)]
    cases += [pytest.param(n, rng.normal(size=(n + 1, n + 1))
                           + 1j * rng.normal(size=(n + 1, n + 1)), id=f"random-n{n}")
              for n in (2, 3, 4)]
    return cases


@pytest.mark.parametrize("n,A", _pullback_cases())
def test_pullback_connection_matches_the_transformation_law(n, A):
    # the batched order-1 geometry of a pullback against the projective
    # connection carried through the chart map of A, with no jets
    from kahlerlab.prolongation import _geo_floats_batch
    model = pullback_fs(A)
    X = np.random.default_rng(50 + n).uniform(-0.5, 0.5, size=(15, 2 * n))
    for chart in ("c0", "c1"):
        _, GAM = _geo_floats_batch(model, chart, X)
        for b in range(len(X)):
            ref = pullback_christoffel_oracle(A, int(chart[1:]), X[b])
            assert np.max(np.abs(GAM[b] - ref)) < 1e-12
