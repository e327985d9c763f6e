import itertools
import pickle

import numpy as np
import pytest

from kahlerlab.errors import InvalidInputError, SingularMetricError
from kahlerlab.jets import (Jet, JetSpace, jet_einsum, jet_eval, jet_logdet,
                            jet_matrix_inverse, jet_space)
from kahlerlab.models import fubini_study, pullback_fs

from oracles import (CNum, factorial_derivatives, fd_gradient, fd_hessian, generic_det,
                     jet_einsum_add_at, jet_mul_add_at, log_abs, newton_matrix_inverse,
                     newton_reciprocal, padded, recip, stacked_partials)


def f_rational(xs):
    x, y = xs
    return x * x * y + x * y * recip(1.0 + x * x)


def test_value_and_partials_against_closed_form():
    x, y = 0.3, -0.7
    j = jet_eval(f_rational, [x, y], 3)
    assert np.isclose(j.const, f_rational([x, y]))
    fx = 2 * x * y + y * (1 - x * x) / (1 + x * x) ** 2
    fy = x * x + x / (1 + x * x)
    assert np.allclose(j.derivatives(1), [fx, fy], atol=1e-14)
    fxx = 2 * y + y * (2 * x ** 3 - 6 * x) / (1 + x * x) ** 3
    fxy = 2 * x + (1 - x * x) / (1 + x * x) ** 2
    assert np.allclose(j.derivatives(2), [[fxx, fxy], [fxy, 0.0]], atol=1e-13)


def test_exponent_order_is_the_sorted_product_enumeration():
    # degree blocks in reverse lexicographic order, so that truncation
    # stays a prefix slice
    for nvars in range(1, 7):
        for order in range(4):
            ref = []
            for deg in range(order + 1):
                ref += sorted((e for e in itertools.product(range(deg + 1), repeat=nvars)
                               if sum(e) == deg), reverse=True)
            assert jet_space(nvars, order).exponents == tuple(ref)


def test_third_derivative_of_cubic():
    j = jet_eval(lambda xs: xs[0] * xs[0] * xs[0], [2.0, 0.0], 3)
    assert np.allclose(j.derivatives(3)[0, 0, 0], 6.0)


def test_finite_difference_cross_check():
    x0 = [0.2, 0.4]
    j = jet_eval(f_rational, x0, 2)
    assert np.allclose(fd_gradient(f_rational, x0), j.derivatives(1), atol=1e-9)
    assert np.allclose(fd_hessian(f_rational, x0), j.derivatives(2), atol=1e-7)


def test_reciprocal_round_trip(rng):
    space = jet_space(3, 3)
    for _ in range(10):
        x0 = rng.uniform(0.3, 1.5, 3)
        j = jet_eval(lambda xs: (1.0 + xs[0] * xs[1] + xs[2] * xs[2]), list(x0), 3)
        assert np.allclose((j * j.reciprocal()).coef, Jet.constant(space, 1.0).coef,
                           atol=1e-12)


def test_truncate_and_gradient_consistency():
    j = jet_eval(f_rational, [0.1, 0.9], 3)
    g = j.gradient()
    assert g.payload_shape == (2,)
    assert np.allclose(g.const, j.derivatives(1))
    t = j.truncate(1)
    assert t.space.order == 1
    assert np.allclose(t.const, j.const)


def test_matrix_inverse_and_det(rng):
    def mat(xs):
        x, y = xs
        return [[1.0 + x * x, x * y], [x * y, 2.0 + y]]

    jm = jet_eval(mat, [0.1, 0.2], 3)
    ji = jet_matrix_inverse(jm)
    prod = jet_einsum("ij,jk->ik", jm, ji)
    assert np.allclose(prod.coef[0], np.eye(2))
    assert np.max(np.abs(prod.coef[1:])) < 1e-12

    def logdetf(xs):
        m = mat(xs)
        return np.log(m[0][0] * m[1][1] - m[0][1] * m[1][0])

    sign, ld = jet_logdet(jm)
    assert sign == 1.0
    assert np.isclose(ld.const, logdetf([0.1, 0.2]))
    assert np.allclose(ld.derivatives(1), fd_gradient(logdetf, [0.1, 0.2]), atol=1e-8)
    assert np.allclose(ld.derivatives(2), fd_hessian(logdetf, [0.1, 0.2]), atol=1e-6)


def _rel_err(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def _matrix_jet(rng, order, d, batch, negatives):
    """A random jet in 2 variables with payload (d, d) or (batch, d, d):
    A_0 = Q diag(s) Q^T with |s| in [0.5, 2], ``negatives`` of them < 0 (so
    det A_0 has the sign (-1)^negatives), and higher coefficients of size 0.2."""
    space = jet_space(2, order)
    shape = (d, d) if batch is None else (batch, d, d)
    coef = 0.2 * rng.normal(size=(space.ncoef,) + shape)
    q, _ = np.linalg.qr(rng.normal(size=shape))
    s = rng.uniform(0.5, 2.0, shape[:-1])
    s[..., :negatives] *= -1.0
    coef[0] = (q * s[..., None, :]) @ np.swapaxes(q, -1, -2)
    return Jet(space, coef)


ORACLE_CASES = [(order, d, batch, negatives) for order in range(4) for d in (4, 6, 8)
                for batch in (None, 3) for negatives in (0, 1)]


@pytest.mark.parametrize("order,d,batch,negatives", ORACLE_CASES)
def test_inverse_and_logdet_against_oracles(order, d, batch, negatives):
    rng = np.random.default_rng(1000 * order + 10 * d + negatives + (batch or 0))
    a = _matrix_jet(rng, order, d, batch, negatives)
    inv = jet_matrix_inverse(a)
    assert _rel_err(inv.coef, newton_matrix_inverse(a).coef) < 1e-13
    # A A^-1 = I on every coefficient, under the reference product
    prod = jet_einsum_add_at("...ij,...jk->...ik", a, inv).coef
    assert np.max(np.abs(prod[0] - np.eye(d))) < 1e-13
    assert np.max(np.abs(prod[1:]), initial=0.0) < 1e-13
    sign, ld = jet_logdet(a)
    assert np.all(sign == (-1.0) ** negatives)
    for b in range(1) if batch is None else range(batch):
        ab = a if batch is None else a[b]
        ref = generic_det([[ab[i, j] for j in range(d)] for i in range(d)])
        assert np.sign(ref.const) == (-1.0) ** negatives
        ldb = ld.coef if batch is None else ld.coef[:, b]
        assert _rel_err(ldb, log_abs(ref).coef) < 1e-13


@pytest.mark.parametrize("order", range(4))
def test_products_and_reciprocal_against_oracles(order, rng):
    space = jet_space(3, order)
    a = Jet(space, rng.normal(size=(space.ncoef, 5)))
    b = Jet(space, rng.normal(size=(space.ncoef, 5)))
    a.coef[0] += 3.0 * np.sign(a.coef[0])
    assert _rel_err((a * b).coef, jet_mul_add_at(a, b).coef) < 1e-13
    assert _rel_err(a.reciprocal().coef, newton_reciprocal(a).coef) < 1e-13
    m = Jet(space, rng.normal(size=(space.ncoef, 5, 4, 4)))
    t = Jet(space, rng.normal(size=(space.ncoef, 4, 4, 4)))
    assert _rel_err(jet_einsum("bia,ajk->bijk", m, t).coef,
                    jet_einsum_add_at("bia,ajk->bijk", m, t).coef) < 1e-13


def test_jet_einsum_matches_numpy_on_constants(rng):
    space = jet_space(2, 2)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    ja, jb = Jet.constant(space, A), Jet.constant(space, B)
    out = jet_einsum("ij,jk->ik", ja, jb)
    assert np.allclose(out.const, A @ B)
    assert np.max(np.abs(out.coef[1:])) == 0.0
    mixed = jet_einsum("ij,j->i", ja, B[0])
    assert np.allclose(mixed.const, A @ B[0])


def test_cnum_complex_arithmetic():
    def cf(xs):
        z = CNum(xs[0], xs[1])
        w = (z * z + 1.0) / (z.conj() + 2.0)
        return [w.re, w.im]

    j = jet_eval(cf, [0.3, 0.5], 2)
    zz = complex(0.3, 0.5)
    w = (zz * zz + 1) / (zz.conjugate() + 2)
    assert np.allclose(j.const, [w.real, w.imag])
    assert np.allclose(j.derivatives(1), fd_gradient(cf, [0.3, 0.5]), atol=1e-9)


def test_generic_scalar_helpers_dispatch():
    # the Jet methods on jets, numpy on floats: the same formula, both ways
    def f(xs):
        return ((1.0 + xs[0] * xs[0]).reciprocal() + xs[1].exp()
                if isinstance(xs[0], Jet) else
                1.0 / (1.0 + xs[0] * xs[0]) + np.exp(xs[1]))

    x0 = [0.4, -0.2]
    j = jet_eval(f, x0, 2)
    assert np.isclose(j.const, f(x0))
    assert np.allclose(fd_gradient(f, x0), j.derivatives(1), atol=1e-9)


def test_error_paths():
    space = jet_space(2, 2)
    with pytest.raises(ZeroDivisionError):
        Jet.constant(space, 0.0).reciprocal()
    with pytest.raises(SingularMetricError):
        jet_logdet(Jet.constant(space, np.diag([1.0, 0.0, 2.0])))
    j = jet_eval(f_rational, [0.1, 0.2], 1)
    with pytest.raises(InvalidInputError):
        j.derivatives(2)
    with pytest.raises(InvalidInputError):
        j.truncate(3)
    with pytest.raises(InvalidInputError):
        j.truncate(0).gradient()                 # an order-0 jet has no derivative


def _order1(rng, shape, zeros=False):
    """A random jet of order 1 in 4 variables with payload ``shape``; with
    ``zeros``, a third of its coefficients are exact zeros of either sign."""
    space = jet_space(4, 1)
    coef = rng.normal(size=(space.ncoef,) + shape)
    if zeros:
        pick = rng.random(coef.shape)
        coef[pick < 1 / 3] = 0.0
        coef[pick < 1 / 6] = -0.0
    return Jet(space, coef)


# (payload of a, payload of b): scalars, an outer product that broadcasts,
# and a matrix times a scalar jet of each matrix's batch
ORDER1_PAYLOADS = [((), ()), ((6, 4, 1), (6, 1, 4)), ((3, 4, 4), (3, 1, 1))]


@pytest.mark.parametrize("zeros", [False, True], ids=["dense", "exact-zeros"])
@pytest.mark.parametrize("pa,pb", ORDER1_PAYLOADS, ids=["scalar", "broadcast", "matrix-scalar"])
def test_order1_product_equals_the_leibniz_reference(pa, pb, zeros):
    # a_0 b_0 and a_0 b_k + a_k b_0, bit for bit: a two-term float sum does
    # not depend on its order
    rng = np.random.default_rng(len(pa) + 10 * zeros)
    a, b = _order1(rng, pa, zeros), _order1(rng, pb, zeros)
    assert np.array_equal((a * b).coef, jet_mul_add_at(a, b).coef)
    assert np.array_equal((b * a).coef, jet_mul_add_at(b, a).coef)


@pytest.mark.parametrize("zeros", [False, True], ids=["dense", "exact-zeros"])
@pytest.mark.parametrize("shape", [(), (6,), (3, 4, 4)], ids=["scalar", "batch", "matrix"])
def test_order1_inverses_equal_the_table_recurrence(shape, zeros):
    rng = np.random.default_rng(len(shape) + 10 * zeros)
    a = _order1(rng, shape, zeros)
    a.coef[0] = rng.uniform(0.5, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
    if shape[-2:] == (4, 4):
        a.coef[0] += 3.0 * np.eye(4)
        ref = jet_matrix_inverse(padded(a, 2)).truncate(1)
        assert np.array_equal(jet_matrix_inverse(a).coef, ref.coef)
    ref = padded(a, 2).reciprocal().truncate(1)
    assert np.array_equal(a.reciprocal().coef, ref.coef)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_sum_difference_and_first_partials(order, rng):
    space = jet_space(4, order)
    a = Jet(space, rng.normal(size=(space.ncoef, 5, 3)))
    b = Jet(space, rng.normal(size=(space.ncoef, 5, 3)))
    assert np.array_equal((a - b).coef, (a + -b).coef)
    c = rng.normal(size=(5, 3))
    for other in (c, c[0], 2.5):
        ref = a.coef.copy()
        ref[0] = ref[0] + other
        assert np.array_equal((a + other).coef, ref)
    narrow = a[:, None]                          # payload (5, 1, 3) grows to (5, 4, 3)
    wide = narrow + c[:4]
    assert wide.payload_shape == (5, 4, 3)
    assert np.array_equal(wide.const, narrow.const + c[:4])
    assert np.array_equal(wide.coef[1:], np.broadcast_to(narrow.coef[1:], wide.coef[1:].shape))
    assert np.array_equal(a.derivatives(1), a.gradient().const)


@pytest.mark.parametrize("order", [1, 2])
def test_payloads_broadcast_as_numpy_shapes(order, rng):
    # a shorter payload gains leading axes, as a numpy shape does: (5, 3)
    # against (2, 1, 3) is (2, 5, 3), and against (5, 5, 3) is (5, 5, 3)
    space = jet_space(4, order)
    a = Jet(space, rng.normal(size=(space.ncoef, 5, 3)))
    c = rng.normal(size=(2, 1, 3))
    for got, const in ((a + c, a.const + c), (a - c, a.const - c), (c + a, c + a.const)):
        assert got.payload_shape == (2, 5, 3)
        assert np.array_equal(got.const, const)
        assert np.array_equal(got.coef[1:],
                              np.broadcast_to(a.coef[1:, None], got.coef[1:].shape))
    assert np.array_equal((a * c).coef, a.coef[:, None] * c)
    b = Jet(space, rng.normal(size=(space.ncoef, 5, 5, 3)))
    for got in (a * b, b * a):
        assert got.payload_shape == (5, 5, 3)
        assert np.allclose(got.coef, jet_mul_add_at(a, b).coef, rtol=1e-14, atol=1e-14)
    assert np.array_equal((a + b).coef, a.coef[:, None] + b.coef)
    assert np.array_equal((a - b).coef, a.coef[:, None] - b.coef)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", [(4,), (7, 4), (2, 3, 4)])
def test_variables_are_views_of_one_read_only_seeding_array(order, shape, rng):
    space = jet_space(4, order)
    X = rng.uniform(-1.0, 1.0, shape)
    xs = Jet.variables(space, X)
    assert len(xs) == 4 and xs.stacked.coef.shape == (space.ncoef,) + shape
    for i, x in enumerate(xs):
        ref = Jet.constant(space, X[..., i])     # one variable at a time
        if order >= 1:
            ref.coef[space.index[tuple(int(k == i) for k in range(4))]] = 1.0
        assert np.array_equal(x.coef, ref.coef)
        assert np.shares_memory(x.coef, xs.stacked.coef)
        assert not x.coef.flags.writeable
    assert np.array_equal(xs.stacked.coef, np.stack([x.coef for x in xs], axis=-1))
    with pytest.raises(ValueError):
        xs.stacked.coef[0] = 0.0
    assert type(xs[1:3]) is list                 # a slice is plain scalars


DIFF_SPACES = [(m, p) for p in range(1, 5) for m in range(1, 7)] + [(12, 2)]


@pytest.mark.parametrize("nvars,order", DIFF_SPACES)
def test_gradient_and_derivatives_equal_the_per_variable_references(nvars, order, rng):
    # one gather over the differentiation table gives the bits of the
    # per-variable shift tables stacked on a trailing axis, laid out as
    # np.stack lays them out, and r gradients give the alpha! table's partials
    space = jet_space(nvars, order)
    for payload in [(), (3,), (5, 4, 4)]:
        a = Jet(space, rng.normal(size=(space.ncoef,) + payload))
        got, ref = a.gradient(), stacked_partials(a)
        assert got.space is ref.space
        assert got.coef.flags.c_contiguous
        assert np.array_equal(got.coef, ref.coef)
        for r in range(2, min(order, 3) + 1):
            assert np.array_equal(a.derivatives(r), factorial_derivatives(a, r))


@pytest.mark.parametrize("model", [fubini_study(2), fubini_study(4),
                                   pullback_fs(np.array([[2.0, 0.5j, 0.0],
                                                         [0.0, 1.0, 0.3],
                                                         [0.1, 0.0, 1.5 - 0.2j]]))],
                         ids=["fs2", "fs4", "pullback"])
def test_metric_partials_equal_the_factorial_table_through_order_4(model, rng):
    x = rng.uniform(-0.4, 0.4, model.dim)
    g = jet_eval(model.metric_fn(), list(x), 4)
    for r in range(1, 5):
        assert np.array_equal(g.derivatives(r), factorial_derivatives(g, r))


def test_differentiation_writes_nothing_to_a_jet_space(rng):
    # every table is built at construction; differentiating reads them only
    spaces = [JetSpace(3, 3)] + [jet_space(3, p) for p in range(3)]
    before = [pickle.dumps(vars(s)) for s in spaces]
    a = Jet(spaces[0], rng.normal(size=(spaces[0].ncoef, 2, 2)))
    a.gradient().gradient().gradient()
    for r in range(4):
        a.derivatives(r)
    assert [pickle.dumps(vars(s)) for s in spaces] == before


def test_gradient_python_call_budget(rng):
    # one gradient is a fixed count of Python-level calls; stacking one
    # partial per variable made 50 of them in 8 variables, and 6 more per
    # added variable
    import sys
    space = jet_space(8, 3)
    a = Jet(space, rng.normal(size=(space.ncoef, 8, 8)))
    a.gradient()                                    # the lower space built
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        a.gradient()
    finally:
        sys.setprofile(None)
    assert len(calls) <= 15, sorted(calls)
