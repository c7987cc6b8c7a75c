"""Point-evaluable fields over flat spacetime.

Every field takes a stack of points: x shaped (..., d) gives values shaped
(...) + field shape, and so do `d` and `d2`; a single point (d,) is the stack
with no batch axes, and callers make one call per query.  Entry i of a stacked
result has the bits of the query at x[i] alone for the stacks tier-1 tests
check, up to 9 points; larger ones can differ in the last bits (ROADMAP item 4).

A `FieldFn` is a node of a graph, and a query walks it once: each node computes
its jet at the stack, its value, every d_mu on one leading axis and only the
d_mu d_nu pairs the query reads, from its operands' jets (Griewank & Walther,
*Evaluating Derivatives*, ch. 13), by one of three rules:

- linear: `+`, `-`, scalar `*`, `dagger`, `hermitian_part`, `hstack`,
  `matrix_of` and `vector_of`; each order is the operation on that order;
- product: pointwise `*` and `@` (Leibniz rule);
- chain: `mapped`, and through it `sin_of`, `cos_of`, `exp_i` and `/`.

A node states the orders all its operands state, and takes central differences
of itself past them (nested for second derivatives), as `without_analytic_derivs`
does everywhere.  The leaves state theirs in closed form: `constant`,
`coordinate`, `linear`, `random_hermitian_field`, the exp(iH), canonical and
complement frames of `blade` and the tangent projector of `embedded`.
`partial` turns second derivatives into the first ones of a derivative field.

Loops reduce in a fixed order; the point LRU (`_PointLRU`) of the `blade`
leaves hands out read-only arrays with the bits a fresh evaluation would give.
A `Form` holds every p-form and builds each component on first use.
"""

from __future__ import annotations

import functools
import itertools
import operator
import warnings
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ChartError, DimensionMismatchError, ParameterError
from .linalg import hermitian_part
from .tolerances import DEFAULT as TOL

__all__ = [
    "Spacetime", "MINKOWSKI4", "euclidean", "SPHERICAL3",
    "FieldFn", "constant", "identity_field", "coordinate", "linear",
    "mapped", "sin_of", "cos_of", "exp_i", "matrix_of", "vector_of",
    "hstack",
    "Form", "one_form", "exterior_d", "closedness_residual",
    "form_values", "wedge", "form_rank", "sphere_flux",
    "Grid", "lattice_integral",
]


# ---------------------------------------------------------------------------
# spacetime

@dataclass(frozen=True)
class Spacetime:
    """Flat d-dimensional background: a diagonal metric and a chart tag.

    The metric is diag(signature); index raising is a per-axis sign flip.
    chart is "cartesian" or "spherical3d" (coordinates r, theta, phi).
    """

    dim: int
    signature: tuple
    chart: str = "cartesian"

    def __post_init__(self):
        if len(self.signature) != self.dim:
            raise ParameterError("signature length must equal dim")
        if any(s not in (-1, 1) for s in self.signature):
            raise ParameterError("signature entries must be +1 or -1")
        if self.chart not in ("cartesian", "spherical3d"):
            raise ParameterError(f"unknown chart {self.chart!r}")

    def raise_sign(self, mu):
        return float(self.signature[mu])

    def raise_vector(self, v):
        """Lower components -> upper components (diagonal metric)."""
        return np.asarray(self.signature, dtype=float) * np.asarray(v)

    def dot(self, a, b):
        """a_mu b^mu for two covector component arrays."""
        return float(np.sum(np.asarray(self.signature) * np.asarray(a) * np.asarray(b)))


MINKOWSKI4 = Spacetime(4, (1, -1, -1, -1))
SPHERICAL3 = Spacetime(3, (1, 1, 1), chart="spherical3d")


def euclidean(d):
    return Spacetime(d, (1,) * d)


# ---------------------------------------------------------------------------
# FieldFn

class FieldFn:
    """A field node stating derivatives up to its order (0, 1 or 2); FieldFn(spacetime,
    shape, fn, deriv, deriv2) is a leaf from closures fn(x), deriv(x, mu) and
    deriv2(x, mu, nu), each taking a (..., d) stack of points."""

    __slots__ = ("spacetime", "shape", "order", "fd_step", "_rule", "_uses")

    def __init__(self, spacetime, shape, fn, deriv=None, deriv2=None, fd_step=TOL.fd_step):
        dim, vshape = spacetime.dim, tuple(shape)

        def rule(x, memo, want):
            full = x.shape[:-1] + vshape
            return (fn(x), None if want is None else
                    np.stack([np.broadcast_to(deriv(x, mu), full) for mu in range(dim)]),
                    np.stack([np.broadcast_to(deriv2(x, a, b), full) for a, b in want])
                    if want else None)

        self.spacetime, self.shape, self._rule, self.fd_step = spacetime, vshape, rule, fd_step
        self.order, self._uses = 0 if deriv is None else 1 if deriv2 is None else 2, 0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return _jet(self, x, _memo(x), None)[0]

    def d(self, x, mu):
        x = np.asarray(x, dtype=float)
        return _first(self, x, _memo(x), mu)

    def d2(self, x, mu, nu):
        x = np.asarray(x, dtype=float)
        return _second(self, x, _memo(x), mu, nu)

    # the queries as a leaf's closures: deriv and deriv2 are None past the field's order
    fn = property(lambda f: f)
    deriv = property(lambda f: f.d if f.order else None)
    deriv2 = property(lambda f: f.d2 if f.order == 2 else None)

    def __add__(self, other):
        return _linear(operator.add, _sum_shape(self, other), self, other)

    def __sub__(self, other):
        return _linear(operator.sub, _sum_shape(self, other), self, other)

    def __neg__(self):
        return _linear(operator.neg, self.shape, self)

    def __rmul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return _linear(functools.partial(operator.mul, c), self.shape, self)

    def __mul__(self, other):
        """Pointwise product; at least one factor must be scalar-shaped."""
        if np.isscalar(other):
            return other * self
        _check_compatible(self, other)
        if self.shape != () and other.shape != ():
            raise DimensionMismatchError("pointwise * needs a scalar factor; use @ for matrices")
        ka, kb = len(self.shape), len(other.shape)
        op = functools.partial(_pointwise_mul, ka, kb) if ka or kb else operator.mul
        return _product(op, self.shape + other.shape, self, other)

    def __truediv__(self, other):
        """Division by a scalar-shaped field: self times its reciprocal."""
        if not isinstance(other, FieldFn):
            return NotImplemented
        if other.shape != ():
            raise DimensionMismatchError("/ needs a scalar-shaped divisor")
        return self * mapped(other, lambda u: 1.0 / u, lambda u: -1.0 / (u * u),
                             lambda u: 2.0 / (u * u * u))

    def __matmul__(self, other):
        _check_compatible(self, other)
        shape = _matmul_shape(self.shape, other.shape)
        return _product(operator.matmul if len(other.shape) == 2 else _matvec, shape, self, other)

    def dagger(self):
        """Conjugate transpose of a matrix-valued field (conjugate for scalars)."""
        if len(self.shape) == 2:
            return _linear(lambda v: np.conjugate(v).mT, self.shape[::-1], self)
        return _linear(np.conjugate, self.shape, self)

    def hermitian_part(self):
        """(M + M^dag) / 2 of a square matrix-valued field."""
        return _linear(hermitian_part, self.shape, self)

    def partial(self, mu):
        """The field x -> d self / d x^mu; its first derivatives are self's second ones, all
        asked at once of an analytic self, so its partials share them, else row mu's alone."""
        f, dim = self, self.spacetime.dim
        rows = _pairs(itertools.product(range(dim) if f.order == 2 else (mu,), range(dim)))
        row = slice(mu * dim, (mu + 1) * dim) if f.order == 2 else slice(None)

        def rule(x, memo, want):
            if want is None:
                return _first(f, x, memo, mu), None, None
            _, d1, d2 = _jet(f, x, memo, rows)
            return d1[mu], d2[row], None
        return _node(f.spacetime, f.shape, 1, rule, f.fd_step, (f,))

    def without_analytic_derivs(self):
        """Copy that answers derivative queries by finite differences only."""
        f = self
        return _node(f.spacetime, f.shape, 0,
                     lambda x, memo, want: (_jet(f, x, memo, None)[0], None, None), f.fd_step,
                     (f,))

    def with_step(self, h):
        """Copy whose finite differences take step h."""
        return _node(self.spacetime, self.shape, self.order, self._rule, h)


def _node(spacetime, shape, order, rule, fd_step=TOL.fd_step, args=()):
    """The FieldFn whose jet is rule(x, memo, want) from those of the fields args."""
    f = object.__new__(FieldFn)
    f.spacetime, f.shape, f.order, f._rule, f.fd_step = spacetime, shape, order, rule, fd_step
    f._uses = 0
    for a in args:
        a._uses += 1
    return f


class _Pairs(tuple):
    """The (mu, nu) pairs of a second-derivative query, with the mu and nu index lists."""


def _pairs(pairs):
    p = _Pairs(tuple(pairs))
    p.first, p.second = [a for a, _ in p], [b for _, b in p]
    return p


def _jet(f, x, memo, want):
    """(value, first, second) of f at the point stack x: want is None for the value alone,
    () for it and every d_mu stacked as (d, ...) + shape, or `_pairs` for those and each
    pair's d_mu d_nu stacked as (k, ...) + shape.  memo maps (node, want) to a jet at x,
    so a node read again is computed once, and no node hashes the stack."""
    key = (f, want)
    if key in memo:
        return memo[key]
    stated = want is None or f.order >= (2 if want else 1)
    jet = f._rule(x, memo, want) if stated else _fd_jet(f, x, memo, want)
    if f._uses != 1:  # a node that one other reads is asked once for each of its jets
        memo[key] = jet
    return jet


_SESSIONS = []  # per `_sharing` block, innermost last: {point stack: its memo}


def _memo(x):
    """A query's memo at the stack x: inside `_sharing`, the one every query at x shares."""
    return _SESSIONS[-1].setdefault((x.shape, x.tobytes()), {}) if _SESSIONS else {}


class _sharing:
    """A block whose queries at equal stacks share a memo: each node's jet there is made once."""

    def __enter__(self):
        _SESSIONS.append({})

    def __exit__(self, *exc):
        _SESSIONS.pop()


def _stenciled(f):
    """f with every order to 2: where f states no derivative, the stencils of `d` and `d2`."""
    return f if f.order == 2 else _node(f.spacetime, f.shape, 2, functools.partial(_jet, f),
                                        f.fd_step, (f,))


def _first(f, x, memo, mu):
    """d_mu f at x: from f's jet, or the central difference of f's values when f has none."""
    if f.order:
        return _jet(f, x, memo, ())[1][mu]
    e = f.fd_step * np.eye(f.spacetime.dim)[mu]
    return (f(x + e) - f(x - e)) / (2.0 * f.fd_step)


def _second(f, x, memo, mu, nu):
    """d_mu d_nu f at x: from f's jet, or the central difference of d_mu f along nu."""
    if f.order == 2:
        return _jet(f, x, memo, _pairs([(mu, nu)]))[2][0]
    e = f.fd_step * np.eye(f.spacetime.dim)[nu]
    return (f.d(x + e, mu) - f.d(x - e, mu)) / (2.0 * f.fd_step)


def _fd_jet(f, x, memo, want):
    """f's jet past its order: each missing entry is the stencil `d` or `d2` would take."""
    v, d1, _ = _jet(f, x, memo, None if f.order == 0 else ())
    d1 = np.stack([_first(f, x, memo, mu) for mu in range(f.spacetime.dim)]) if d1 is None else d1
    return v, d1, np.stack([_second(f, x, memo, a, b) for a, b in want]) if want else None


def _check_compatible(f, g):
    if f.spacetime is not g.spacetime and f.spacetime != g.spacetime:
        raise DimensionMismatchError("fields live on different spacetimes")


def _sum_shape(f, g):
    _check_compatible(f, g)
    if f.shape != g.shape:
        raise DimensionMismatchError(f"cannot add shapes {f.shape} and {g.shape}")
    return f.shape


def _matmul_shape(a, b):
    if len(a) == 2 and len(b) == 2:
        if a[1] != b[0]:
            raise DimensionMismatchError(f"cannot multiply {a} by {b}")
        return (a[0], b[1])
    if len(a) == 2 and len(b) == 1:
        if a[1] != b[0]:
            raise DimensionMismatchError(f"cannot multiply {a} by {b}")
        return (a[0],)
    raise DimensionMismatchError(f"@ undefined for shapes {a} and {b}")


def _pointwise_mul(ka, kb, a, b):
    """a * b at each point, where a has ka value axes, b has kb and one of them is 0."""
    if ka:
        b = np.asarray(b)[(...,) + (None,) * ka]
    elif kb:
        a = np.asarray(a)[(...,) + (None,) * kb]
    return a * b


def _matvec(m, v):
    """m @ v for stacks of matrices and of vectors (a lone @ would read v as matrices)."""
    return (m @ v[..., None])[..., 0]


# -- the three derivative rules: each order is one operation on stacked arrays ------

def _linear(op, shape, *fs, value=None):
    """The field op(f1, ..., fk) for op linear: every order is op of that order.  value(x,
    v1, ..., vk), when given, replaces op for the value alone, as a check or correction."""
    def rule(x, memo, want):
        vs, d1s, d2s = zip(*[_jet(f, x, memo, want) for f in fs])
        v = op(*vs) if value is None else value(x, *vs)
        if want is None:
            return v, None, None
        return v, op(*d1s), op(*d2s) if want else None
    steps = [f.fd_step for f in fs if f.order < 2]  # fully-analytic operands do not constrain it
    return _node(fs[0].spacetime, shape, min(f.order for f in fs), rule,
                 min(steps or [f.fd_step for f in fs]), fs)


def _product(op, shape, f, g):
    """The field op(f, g) for op bilinear (Leibniz rule)."""
    def rule(x, memo, want):
        fv, fd, fdd = _jet(f, x, memo, want)
        gv, gd, gdd = _jet(g, x, memo, want)
        v = op(fv, gv)
        if want is None:
            return v, None, None
        d1 = op(fd, gv) + op(fv, gd)
        if not want:
            return v, d1, None
        a, b = want.first, want.second
        return v, d1, op(fdd, gv) + op(fv, gdd) + op(fd[a], gd[b]) + op(fd[b], gd[a])
    steps = [h.fd_step for h in (f, g) if h.order < 2] or [f.fd_step, g.fd_step]
    return _node(f.spacetime, shape, min(f.order, g.order), rule, min(steps), (f, g))


# -- constructors -----------------------------------------------------------

def _uniform(fn, shape, dim, grad=None):
    """The rule of a field with values fn(x), first derivatives grad (zero if None) and
    zero second derivatives at every point of a stack."""
    g = np.zeros((dim,) + shape, dtype=float if shape == () else complex) if grad is None else grad
    zero = np.zeros_like(g[0])

    def rule(x, memo, want):
        if want is None:
            return fn(x), None, None
        lead = x.shape[:-1]
        d1 = np.broadcast_to(g.reshape((dim,) + (1,) * len(lead) + shape), (dim,) + lead + shape)
        return fn(x), d1, np.broadcast_to(zero, (len(want),) + lead + shape) if want else None
    return rule


def _any(mask):
    """Whether a per-point mask is set anywhere; a lone point's mask is a scalar."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _worst_point(err, x):
    """The stack index where a per-point error peaks, and that point's coordinates.

    err is shaped like the stack x without its last axis; error messages name
    the point, not the whole stack.
    """
    i = np.unravel_index(np.argmax(err), np.shape(err))
    return i, np.round(np.asarray(x)[i], 6).tolist()


def constant(value, spacetime):
    value = np.asarray(value, dtype=complex) if not np.isscalar(value) else value
    shape = () if np.isscalar(value) else value.shape
    return _node(spacetime, shape, 2, _uniform(
        lambda x: value if x.ndim == 1 else np.broadcast_to(value, x.shape[:-1] + shape),
        shape, spacetime.dim))


def identity_field(spacetime, n):
    return constant(np.eye(n, dtype=complex), spacetime)


# A lone point's linear leaves give Python floats, whose arithmetic is faster
# than that of numpy scalars; the bits are the same.

def coordinate(spacetime, mu):
    return _node(spacetime, (), 2, _uniform(
        lambda x: float(x[mu]) if x.ndim == 1 else x[..., mu], (), spacetime.dim,
        np.eye(spacetime.dim)[mu]))


def linear(spacetime, coeffs, offset=0.0):
    """c_mu x^mu + offset (plain coordinate contraction, no metric)."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (spacetime.dim,):
        raise DimensionMismatchError("coefficient count must equal spacetime dim")

    def fn(x):
        # ndarray.dot and np.vecdot run the same dot kernel, so the bits agree
        return (float(c.dot(x)) if x.ndim == 1 else np.vecdot(x, c)) + offset

    return _node(spacetime, (), 2, _uniform(fn, (), spacetime.dim, c))


def mapped(f, func, dfunc=None, d2func=None):
    """Compose a scalar field with a smooth scalar function (chain rule)."""
    if f.shape != ():
        raise DimensionMismatchError("mapped requires a scalar field")

    def rule(x, memo, want):
        u, fd, fdd = _jet(f, x, memo, want)
        if want is None:
            return func(u), None, None
        du = dfunc(u)
        return (func(u), du * fd,
                du * fdd + d2func(u) * fd[want.first] * fd[want.second] if want else None)
    order = 0 if dfunc is None else 1 if d2func is None else 2
    return _node(f.spacetime, (), min(order, f.order), rule, f.fd_step, (f,))


def sin_of(f):
    return mapped(f, np.sin, np.cos, lambda u: -np.sin(u))


def cos_of(f):
    return mapped(f, np.cos, lambda u: -np.sin(u), lambda u: -np.cos(u))


def exp_i(f):
    return mapped(f, lambda u: np.exp(1j * u),
                  lambda u: 1j * np.exp(1j * u),
                  lambda u: -np.exp(1j * u))


def matrix_of(rows):
    """Assemble a matrix-valued field from scalar fields / numeric constants."""
    return _assembled((len(rows), len(rows[0])), [e for row in rows for e in row])


def vector_of(entries):
    """Assemble a vector-valued field from scalar fields / numeric constants."""
    return _assembled((len(entries),), entries)


def _assembled(shape, entries):
    """The shape-valued field whose entries, in C order, are the scalar fields or numbers."""
    spacetime = next((e.spacetime for e in entries if isinstance(e, FieldFn)), None)
    if spacetime is None:
        raise DimensionMismatchError("an assembled field needs at least one FieldFn entry")
    fields = [e if isinstance(e, FieldFn) else constant(complex(e), spacetime) for e in entries]
    return _linear(functools.partial(_assemble, shape), shape, *fields)


def _assemble(shape, *entries):
    """The (...) + shape stack whose matrix entries, row by row, are the entry stacks."""
    m = np.array(entries, dtype=complex)  # the entries first, then the stack axes
    if m.ndim > 1:
        m = m.transpose(tuple(range(1, m.ndim)) + (0,))  # the reshape copies it into C order
    return m.reshape(m.shape[:-1] + shape)


def hstack(a, b):
    """Column-concatenate two matrix-valued fields."""
    _check_compatible(a, b)
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(f"cannot hstack shapes {a.shape} and {b.shape}")
    return _linear(lambda u, v: np.concatenate([u, v], axis=-1),
                   (a.shape[0], a.shape[1] + b.shape[1]), a, b)


# -- leaves that keep per-stack records --------------------------------------

# points whose records one leaf keeps: `ym` and `shape` query a frame's exp(iH) leaf on
# the same stack once per index, so a record must outlive its query; a residual sweep
# queries one slice of up to 512 points (cli._SWEEP_POINTS) at a time, and this holds
# four (about 13 MB for N = 4 once `ym`'s second derivatives are kept)
_LEAF_CACHE_POINTS = 2048


class _PointLRU:
    """A leaf's records, keyed by point stack, bounded by the points they hold.

    A record of a stack of P points counts P toward `_LEAF_CACHE_POINTS`;
    the oldest go first, and the newest stays even when it alone holds more.
    """

    __slots__ = ("records", "held")

    def __init__(self):
        self.records = OrderedDict()  # key -> (record, points)
        self.held = 0

    def get(self, x):
        """The record of the point stack x, or None."""
        key = (x.shape, x.tobytes())
        entry = self.records.get(key)
        if entry is None:
            return None
        self.records.move_to_end(key)
        return entry[0]

    def put(self, x, record):
        """Keep record for the point stack x, counting its points; returns record."""
        points = x.size // x.shape[-1]
        self.records[(x.shape, x.tobytes())] = (record, points)
        self.held += points
        while self.held > _LEAF_CACHE_POINTS and len(self.records) > 1:
            self.held -= self.records.popitem(last=False)[1][1]
        return record


# ---------------------------------------------------------------------------
# differential forms

class Form(Mapping):
    """A p-form: the read-only map {strictly increasing index tuple: component field}.

    entry(*idx) builds the component of an increasing idx when first asked for.
    `component` and `at` take indices in any order: an odd permutation gives the
    negated field, a repeated index zero.  Components are scalar for abelian forms
    and matrices for connections (potentials, shape operators) and their curvatures.
    """

    __slots__ = ("spacetime", "degree", "_entry", "_keys", "_built")

    def __init__(self, spacetime, degree, entry):
        self.spacetime, self.degree = spacetime, degree
        self._entry = entry
        self._keys = tuple(itertools.combinations(range(spacetime.dim), degree))
        self._built = {}

    def __getitem__(self, idx):
        f = self._built.get(idx)
        if f is None:
            if idx not in self._keys:
                raise KeyError(idx)
            f = self._built[idx] = self._entry(*idx)
        return f

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)

    def component(self, *idx):
        f = self._built.get(idx)  # an increasing idx already built: one dict hit
        if f is not None:
            return f
        key = tuple(sorted(idx))
        if len(set(key)) < len(key):
            shape = self[self._keys[0]].shape
            return constant(0.0 if shape == () else np.zeros(shape, dtype=complex),
                            self.spacetime)
        odd = sum(a > b for a, b in itertools.combinations(idx, 2)) % 2
        return -1.0 * self[key] if odd else self[key]

    def at(self, x, *idx):
        return self.component(*idx)(x)


def one_form(spacetime, components) -> Form:
    """The 1-form whose mu component is the field components[mu]."""
    components = tuple(components)
    if len(components) != spacetime.dim:
        raise DimensionMismatchError("one-form needs d components")
    return Form(spacetime, 1, components.__getitem__)


def exterior_d(a: Form) -> Form:
    """(dA)_{mu nu} = d_mu A_nu - d_nu A_mu."""
    return Form(a.spacetime, 2,
                lambda mu, nu: a[(nu,)].partial(mu) - a[(mu,)].partial(nu))


def closedness_residual(f, x):
    """Cyclic derivative sums d_mu F_nu rho + d_nu F_rho mu + d_rho F_mu nu.

    Works for any 2-form, field strengths and blade curvature included;
    vanishes for exact forms (d^2 = 0) and realizes the abelian Bianchi
    identity for field strengths.  Returns {(mu, nu, rho): value}.
    """
    d = f.spacetime.dim
    out = {}
    for mu, nu, rho in itertools.combinations(range(d), 3):
        out[(mu, nu, rho)] = (f.component(nu, rho).d(x, mu)
                              + f.component(rho, mu).d(x, nu)
                              + f.component(mu, nu).d(x, rho))
    return out


# -- pointwise wedge algebra -------------------------------------------------
# p-form values are dicts {strictly increasing index tuple: value}, each value
# a scalar at one point or a (...) stack of them at a (..., d) point stack.

def form_values(form, x):
    """{index tuple: the component's value at x} over the form's increasing index tuples."""
    return {key: c(x) for key, c in form.items()}


def _shuffle_sign(j, k):
    # parity of merging increasing tuples j, k into sorted order
    inv = sum(1 for a in j for b in k if a > b)
    return -1 if inv % 2 else 1


def wedge(vals_p, vals_q):
    """Wedge of two antisymmetric component dicts (increasing multi-indices)."""
    out = {}
    for j, aj in vals_p.items():
        for k, bk in vals_q.items():
            if set(j) & set(k):
                continue
            key = tuple(sorted(j + k))
            out[key] = out.get(key, 0.0) + _shuffle_sign(j, k) * aj * bk
    return out


def form_rank(a, sample_points, tol=1e-9):
    """Largest r with A wedge (dA)^r != 0 at the samples.

    Sample points must avoid measure-zero degeneracies (caller's
    responsibility).  If the per-sample answer is not constant, a
    rank-not-constant warning is emitted and the maximum is returned.
    """
    d = a.spacetime.dim
    pts = np.asarray(sample_points, dtype=float).reshape(-1, d)
    vals = form_values(a, pts)
    dvals = form_values(exterior_d(a), pts)
    per_sample = np.zeros(len(pts), dtype=int)
    for r in range(1, (d - 1) // 2 + 1):  # every r >= 1 with 2r + 1 <= d
        vals = wedge(vals, dvals)  # A wedge (dA)^r from A wedge (dA)^(r-1)
        per_sample[np.any([np.abs(v) > tol for v in vals.values()], axis=0)] = r
    ranks = set(per_sample.tolist())
    if len(ranks) > 1:
        warnings.warn(f"form rank varies across samples: {sorted(ranks)}; returning max",
                      stacklevel=2)
    return int(per_sample.max(initial=0))


# ---------------------------------------------------------------------------
# quadrature

def sphere_flux(f: Form, quadrature_order=16):
    """Integral of a 2-form over the unit sphere r = 1 of a spherical3d chart.

    Product rule: Gauss-Legendre in theta, trapezoid (periodic) in phi with
    max(8, 4 * quadrature_order) nodes, on the coordinate component F_{theta phi}.
    """
    if f.spacetime.chart != "spherical3d":
        raise ChartError("sphere_flux requires a spherical3d chart")
    if quadrature_order < 2:
        raise ParameterError("quadrature order must be >= 2")
    n_phi = max(8, 4 * quadrature_order)
    nodes, weights = np.polynomial.legendre.leggauss(quadrature_order)
    thetas = 0.5 * np.pi * (nodes + 1.0)
    wtheta = 0.5 * np.pi * weights
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    dphi = 2.0 * np.pi / n_phi
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    nodes = np.stack([np.ones_like(th), th, ph], axis=-1)
    terms = (wtheta[:, None] * dphi) * np.real(f.component(1, 2)(nodes))
    # a running sum in node order (theta outer, phi inner) keeps the flux's bits
    return float(np.cumsum(terms)[-1])


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box with uniform cells (midpoint-rule integration)."""

    lo: tuple
    hi: tuple
    cells: tuple

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.cells)):
            raise ParameterError("grid axes must agree in length")
        if any(c < 1 for c in self.cells):
            raise ParameterError("each axis needs at least one cell")

    @property
    def dim(self):
        return len(self.cells)

    @property
    def spacings(self):
        return tuple((h - l) / c for l, h, c in zip(self.lo, self.hi, self.cells))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    def centers(self):
        axes = [l + (np.arange(c) + 0.5) * s
                for l, c, s in zip(self.lo, self.cells, self.spacings)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def lattice_integral(f: FieldFn, grid: Grid):
    """Midpoint-rule integral of a scalar field over the grid box, from one stacked evaluation."""
    if f.shape != ():
        raise DimensionMismatchError(f"lattice_integral needs a scalar field, not shape {f.shape}")
    # a unit stack axis tells (P, 1) stacked values from a lone-point integrand's
    centers = grid.centers()[:, None, :]
    vals = np.asarray(f(centers))
    if vals.shape != centers.shape[:-1]:
        raise DimensionMismatchError(
            f"the integrand gave values shaped {vals.shape} on {len(centers)} cell centres; "
            f"it must take a (..., d) point stack")
    # real and complex integrands reduce alike: one complex sum, then its real part
    return float(np.real(np.sum(vals.astype(complex)))) * grid.cell_volume
