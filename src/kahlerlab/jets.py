"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A :class:`Jet` stores the Taylor coefficients of a smooth function of
``nvars`` real variables around a base point, truncated at total degree
``order``::

    f(x0 + h) = sum_alpha  c_alpha * h**alpha,      c_alpha = d^alpha f / alpha!

Coefficients live in a numpy array of shape ``(ncoef, *payload)``, so a
single Jet can carry a whole tensor (payload = component shape) and all
operations broadcast over the payload.

Each space builds two index tables when it is constructed, and nothing
writes to it afterwards.  A product sums its Leibniz terms segment by
segment over the multiplication table, sorted by target coefficient.  A
gradient is one gather over the differentiation table: coefficient i of
d/dx_v is (e_i[v] + 1) times coefficient e_i + e_v, and the order-r partials
are r gradients, so derivatives are exact.  Inverses, scalar or matrix,
follow the degree recurrence X_c = -X_0 sum_{deg i >= 1, i + j = c} A_i X_j,
and determinants enter as log-determinants, log|det A_0| plus the series of
tr(N^k) for the nilpotent N = A_0^-1 (A - A_0) (Griewank & Walther,
*Evaluating Derivatives*, 2008; Neidinger, SIAM Review 52, 2010).

At order 1 a jet is a value and a gradient, and the same operations are
written without the table: a product is a_0 b_0 and a_0 b_k + a_k b_0, which
equals the table's two-term sum bit for bit; an inverse is X_0 and
-X_0 A_k X_0, which can differ from the recurrence only in the sign of an
exact zero; the first partials are the degree-1 coefficients, transposed.

Coordinates enter as one seeding array: ``Jet.variables`` gives the scalar
coordinate jets at a batch of points as views of one read-only
(ncoef, *batch, nvars) array, which the list it returns also holds as a
single jet, so a metric function need not stack them again.

Jet arithmetic is ``+``, ``-`` and ``*`` with jets, arrays and numbers,
whose payloads broadcast as numpy shapes do; division is a product with
``reciprocal``.  Model metric functions and chart transitions take a list
of scalars (numbers, arrays for batched evaluation, or Jets for
derivatives) and return one tensor (an array, or a Jet with a (..., d, d)
or (..., d) payload).
"""

import math
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, SingularMetricError


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> "JetSpace":
    return JetSpace(nvars, order)


def _compositions(deg, nvars):
    """Exponent tuples of total degree ``deg``, in reverse lexicographic order."""
    if nvars == 1:
        return [(deg,)]
    return [(k,) + rest for k in range(deg, -1, -1)
            for rest in _compositions(deg - k, nvars - 1)]


class JetSpace:
    """Multi-index bookkeeping for jets in ``nvars`` variables at total
    degree <= ``order``.

    Exponent tuples are enumerated by total degree first, so the exponents
    of ``jet_space(m, p-1)`` are a prefix of those of ``jet_space(m, p)``
    and truncation is a coefficient slice.
    """

    def __init__(self, nvars, order):
        if nvars < 1 or order < 0:
            raise InvalidInputError(f"bad jet space ({nvars}, {order})")
        self.nvars = nvars
        self.order = order
        exps = [e for deg in range(order + 1) for e in _compositions(deg, nvars)]
        self.exponents = tuple(exps)
        self.ncoef = len(exps)
        self.index = {e: i for i, e in enumerate(exps)}
        E = np.array(exps).reshape(self.ncoef, nvars)
        self._degree = E.sum(axis=1)
        self._build_tables(E)

    def _build_tables(self, E):
        """The multiplication table: Leibniz pairs (i, j) sorted by the
        target c of e_i + e_j, the start of each target's segment (never
        empty: (0, c) is in it), and per degree k >= 1 the coefficient slice,
        pair slice and segment starts.  The differentiation table: for each
        coefficient i below the top degree and each variable v, the target
        of (i, e_v) and the factor e_i[v] + 1, so that coefficient i of
        d/dx_v is the factor times the jet's coefficient at that target."""
        deg, m, p = self._degree, self.nvars, self.order
        ia, ib = np.nonzero(deg[:, None] + deg[None, :] <= p)
        # position of e_i + e_j in the enumeration: the exponents of lower
        # degree, plus, per variable v, those of the same degree that agree
        # before v and are larger at v (a hockey-stick sum of binomials)
        binom = np.array([[math.comb(a, b) for b in range(m + 1)]
                          for a in range(p + m + 1)])
        tail = np.cumsum((E[ia] + E[ib])[:, ::-1], axis=1)[:, ::-1]
        ic = sum(binom[tail[:, v] - 1 + m - v, m - v] for v in range(m))
        # the pairs (i, 1 + v) come row by row, v = 0..m-1 within each i
        self._diff_index = ic[(ib >= 1) & (ib <= m)].reshape(-1, m)
        self._diff_factor = E[:len(self._diff_index)] + 1.0
        perm = np.argsort(ic, kind="stable")
        self._mia, self._mib = ia[perm], ib[perm]
        ends = np.searchsorted(ic[perm], np.arange(self.ncoef + 1))
        self._seg = ends[:-1]
        first = np.searchsorted(deg, np.arange(p + 2))
        self._by_degree = [(slice(first[k], first[k + 1]),
                            slice(ends[first[k]], ends[first[k + 1]]),
                            ends[first[k]:first[k + 1]] - ends[first[k]])
                           for k in range(1, p + 1)]


class Jet:
    __slots__ = ("space", "coef")
    __array_ufunc__ = None  # keep numpy from consuming us; defer to __r*__

    def __init__(self, space, coef):
        self.space = space
        self.coef = coef

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(space, value):
        value = np.asarray(value, dtype=float)
        coef = np.zeros((space.ncoef,) + value.shape)
        coef[0] = value
        return Jet(space, coef)

    @staticmethod
    def variables(space, X):
        """The ``nvars`` scalar coordinate jets at the points X (*batch,
        nvars): value X[..., i] and the unit gradient of variable i, as the
        views [..., i] of one read-only (ncoef, *batch, nvars) array."""
        X = np.asarray(X, dtype=float)
        coef = np.zeros((space.ncoef,) + X.shape)
        coef[0] = X
        if space.order >= 1:
            var = np.arange(space.nvars)
            coef[var + 1, ..., var] = 1.0      # e_i is coefficient 1 + i
        coef.flags.writeable = False
        out = Variables([Jet(space, coef[..., i]) for i in range(space.nvars)])
        out.stacked = Jet(space, coef)
        return out

    @property
    def const(self):
        return self.coef[0]

    @property
    def payload_shape(self):
        return self.coef.shape[1:]

    # -- structure ----------------------------------------------------
    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet(self.space, self.coef[(slice(None),) + idx])

    def truncate(self, order):
        if order > self.space.order:
            raise InvalidInputError("cannot truncate upward")
        lower = jet_space(self.space.nvars, order)
        return Jet(lower, self.coef[:lower.ncoef])

    def gradient(self):
        """Jet one order lower whose payload gains a trailing axis of length
        nvars, d/dx_k: one gather over the space's table, C-contiguous."""
        s, ndim = self.space, self.coef.ndim
        lower = jet_space(s.nvars, s.order - 1)
        parts = self.coef[s._diff_index].transpose((0, *range(2, ndim + 1), 1))
        fac = s._diff_factor.reshape((lower.ncoef,) + (1,) * (ndim - 1) + (-1,))
        return Jet(lower, np.multiply(parts, fac, order="C"))

    def derivatives(self, r):
        """Exact order-r partial derivatives at the base point.

        Returns an array of shape (*payload, nvars, ..., nvars) with r
        trailing derivative axes, symmetric in them.
        """
        if r > self.space.order:
            raise InvalidInputError(f"jet of order {self.space.order} has no order-{r} partials")
        if r == 1:   # coefficients 1..nvars, of degree 1 and alpha! = 1
            return self.coef[1:self.space.nvars + 1].transpose((*range(1, self.coef.ndim), 0))
        jet = self.truncate(r)
        for _ in range(r):
            jet = jet.gradient()
        return jet.const

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = _match(self, other)
            if a.coef.ndim != b.coef.ndim:
                a, b = _broadcast_payloads(a, b)
            return Jet(a.space, a.coef + b.coef)
        other = np.asarray(other, dtype=float)
        shape = np.broadcast(self.coef[0], other).shape
        coef = (self.coef if shape == self.payload_shape
                else np.broadcast_to(_payload_axes(self.coef, len(shape)),
                                     (self.space.ncoef,) + shape)).copy()
        coef[0] += other
        return Jet(self.space, coef)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coef)

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = _match(self, other)
            if a.coef.ndim != b.coef.ndim:
                a, b = _broadcast_payloads(a, b)
            return Jet(a.space, a.coef - b.coef)
        return self + -np.asarray(other, dtype=float)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = _match(self, other)
            if a.coef.ndim != b.coef.ndim:
                a, b = _broadcast_payloads(a, b)
            s = a.space
            if s.order > 1:
                prods = a.coef[s._mia] * b.coef[s._mib]
                return Jet(s, np.add.reduceat(prods, s._seg, axis=0))
            coef = a.coef * b.coef[0]               # a_0 b_0 and a_k b_0
            coef[1:] += a.coef[0] * b.coef[1:]      # + a_0 b_k
            return Jet(s, coef)
        other = np.asarray(other, dtype=float)
        coef = self.coef if other.ndim < self.coef.ndim else _payload_axes(self.coef, other.ndim)
        return Jet(self.space, coef * other)

    __rmul__ = __mul__

    def reciprocal(self):
        """1/self by the degree recurrence (see the module docstring)."""
        c0 = self.coef[0]
        if (np.abs(c0) < 1e-300).any():
            raise ZeroDivisionError("jet reciprocal at vanishing value")
        return Jet(self.space, _inverse_coef(self, 1.0 / c0, np.multiply))

    def exp(self):
        c0 = self.coef[0]
        t = self - c0                # nilpotent part
        acc = Jet.constant(self.space, np.ones(self.payload_shape))
        term = Jet.constant(self.space, np.ones(self.payload_shape))
        for k in range(1, self.space.order + 1):
            term = term * t * (1.0 / k)
            acc = acc + term
        return acc * np.exp(c0)


class Variables(list):
    """The scalar coordinate jets of ``Jet.variables``, in order, and as
    ``stacked`` the jet of their seeding array, payload (*batch, nvars).  A
    slice is a plain list of the same jets."""
    __slots__ = ("stacked",)


def _inverse_coef(a, x0, mul):
    """Coefficients of the inverse X of A under ``mul``, given X_0 = A_0^-1,
    one degree at a time by one product and one segmented sum.  The term
    A_0 X_c in the segment of c adds nothing: X_c is still zero then, so at
    order 1 the recurrence is X_k = -X_0 A_k X_0."""
    s = a.space
    x = np.zeros(a.coef.shape)
    x[0] = x0
    if s.order == 1:
        x[1:] = -mul(x0, mul(a.coef[1:], x0))
        return x
    for cs, ps, starts in s._by_degree:
        terms = mul(a.coef[s._mia[ps]], x[s._mib[ps]])
        x[cs] = -mul(x0, np.add.reduceat(terms, starts, axis=0))
    return x


def _payload_axes(coef, ndim):
    """Coefficients with length-1 payload axes put in front, up to ``ndim``
    payload axes, as numpy broadcasting aligns a shorter shape."""
    return coef.reshape(coef.shape[:1] + (1,) * (ndim + 1 - coef.ndim) + coef.shape[1:])


def _broadcast_payloads(a, b):
    """Two jets of one space with as many payload axes each, so that their
    payloads broadcast as numpy arrays of those shapes do."""
    ndim = max(a.coef.ndim, b.coef.ndim) - 1
    return (Jet(a.space, _payload_axes(a.coef, ndim)),
            Jet(b.space, _payload_axes(b.coef, ndim)))


def _match(a, b):
    """Bring two jets to a common (minimum) order."""
    if a.space is b.space:
        return a, b
    if a.space.nvars != b.space.nvars:
        raise InvalidInputError("jets over different variable counts")
    p = min(a.space.order, b.space.order)
    return a.truncate(p), b.truncate(p)


# -- evaluation of scalar-generic functions ------------------------------

def jet_pack(space, nested):
    """Pack a nested list structure of Jets/numbers into one payload Jet."""
    def leaf(node):
        if isinstance(node, Jet):
            return node.coef
        coef = np.zeros((space.ncoef,) + np.shape(node))
        coef[0] = node
        return coef

    def walk(node):
        if isinstance(node, (list, tuple)):
            parts = [walk(ch) for ch in node]
            shape = np.broadcast_shapes(*(p.shape[1:] for p in parts))
            parts = [np.broadcast_to(p, (space.ncoef,) + shape) for p in parts]
            return np.stack(parts, axis=1)
        return leaf(node)

    return Jet(space, walk(nested))


def jet_eval(fn, x0, order):
    """Evaluate a scalar-generic function at a jet point.

    ``fn`` maps a list of scalars to a (possibly nested) structure of
    scalars; the result is a single Jet whose payload shape mirrors the
    structure.
    """
    space = jet_space(len(x0), order)
    return jet_pack(space, fn(Jet.variables(space, x0)))


# -- contractions on jet-valued tensors ----------------------------------

def jet_einsum(subscripts, a, b):
    """Binary einsum over payload axes of two jets (or a jet and an array)."""
    lhs, out_sub = subscripts.split("->")
    sa, sb = lhs.split(",")
    if isinstance(a, Jet) and isinstance(b, Jet):
        a, b = _match(a, b)
        s = a.space
        prods = np.einsum(f"t{sa},t{sb}->t{out_sub}", a.coef[s._mia], b.coef[s._mib])
        return Jet(s, np.add.reduceat(prods, s._seg, axis=0))
    if isinstance(a, Jet):
        return Jet(a.space, np.einsum(f"t{sa},{sb}->t{out_sub}", a.coef, np.asarray(b, float)))
    if isinstance(b, Jet):
        return Jet(b.space, np.einsum(f"{sa},t{sb}->t{out_sub}", np.asarray(a, float), b.coef))
    return np.einsum(subscripts, a, b)


def jet_matrix_inverse(a):
    """Inverse of a jet-valued matrix (payload (..., k, k)) by the degree
    recurrence (see the module docstring)."""
    return Jet(a.space, _inverse_coef(a, np.linalg.inv(a.const), np.matmul))


def jet_logdet(a):
    """Sign of det A_0 and the jet of log|det A| = log|det A_0|
    + sum_{k <= order} (-1)^(k+1) tr(N^k) / k, N = A_0^-1 (A - A_0), for a
    jet-valued matrix (payload (..., k, k)).  A singular A_0 raises
    SingularMetricError before anything is inverted."""
    sign, ld0 = np.linalg.slogdet(a.const)
    if np.any(sign == 0.0):
        raise SingularMetricError("singular matrix has no log-determinant")
    nil = Jet(a.space, np.linalg.inv(a.const) @ a.coef)
    nil.coef[0] = 0.0
    out = Jet.constant(a.space, ld0)
    power = nil
    for k in range(1, a.space.order + 1):
        if k > 1:
            power = jet_einsum("...ij,...jk->...ik", power, nil)
        trace = Jet(a.space, np.trace(power.coef, axis1=-2, axis2=-1))
        out = out + trace * ((-1.0) ** (k + 1) / k)
    return sign, out

