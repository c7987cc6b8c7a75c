"""Point-evaluable fields over flat spacetime.

A `FieldFn` bundles a point evaluator with optional analytic first and second
derivatives; whenever an analytic derivative is missing, queries fall back to
central finite differences (second derivatives use nested first-order
stencils).

Every field takes a stack of points: x shaped (..., d) gives values shaped
(...) + field shape, and so do `d` and `d2`.  A single point (d,) is the
stack with no batch axes.  Entry i of a stacked result has the bits of the
same query at the point x[i] alone, so library callers pass their sample
points as one (P, d) stack and make one call per query; `lattice_integral`
evaluates its integrand once on the grid's stack of cell centres.  Only the
`point_map` of `dynamics.blade_lattice_from_field` takes one point at a time,
because its callers write it for a single lattice point.

Every combinator states its derivatives through one of three rules:

- linear: `+`, `-`, scalar `*`, `dagger`, `hermitian_part`, `hstack`,
  `matrix_of` and `vector_of`; each derivative order is the same operation
  on the operands' derivatives of that order;
- product: pointwise `*` and `@` (Leibniz rule);
- chain: `mapped`, and through it `sin_of`, `cos_of`, `exp_i` and `/`.

A rule is analytic when its operands are, so pipelines built from analytic
ingredients stay analytic: the embedded-surface charts and the monopole's
A_phi are such pipelines.  The leaves state their derivatives in closed
form: `constant`, `coordinate`, `linear`, `random_hermitian_field`, the
exp(iH) fields of `blade` (first and second derivatives), and the tangent
projector of `embedded`.  A `stencil_field` (the complement and canonical
frames of `blade`) states central differences of its function as its
derivatives, all made from one stacked call on the nested stencil; such a
field, and every rule or `partial` over it, is marked `fd_backed`.
`partial` turns the second derivatives of a field into the first ones of its
derivative field.

Evaluation is reentrant and side-effect free; lattice and quadrature loops
reduce in a fixed order for reproducibility.  Leaf caches, the point-bounded
LRU (`_PointLRU`) of the stencil leaves and of the seeded exp(iH) fields in
`blade`, are invisible to callers: they return read-only arrays with the bits
a fresh evaluation would give.  `two_form` builds each component of a 2-form
on first use.
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

from .errors import ChartError, DimensionMismatchError, ParameterError, RankError
from .linalg import hermitian_part
from .tolerances import DEFAULT as TOL

__all__ = [
    "Spacetime", "MINKOWSKI4", "euclidean", "SPHERICAL3",
    "FieldFn", "constant", "identity_field", "coordinate", "linear",
    "scalar_field", "mapped", "sin_of", "cos_of", "exp_i", "matrix_of", "vector_of",
    "hstack", "stencil_field",
    "OneForm", "TwoForm", "two_form", "exterior_d", "closedness_residual",
    "one_form_values", "two_form_values", "wedge", "wedge_power_values",
    "wedge_power_nonzero", "form_rank", "sphere_flux",
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

@dataclass(frozen=True)
class FieldFn:
    """Point-evaluable field with optional analytic derivatives.

    fn(x) -> value; deriv(x, mu) -> d value / d x^mu; deriv2(x, mu, nu)
    symmetric in (mu, nu) within the finite-difference budget.  Each takes
    a (..., d) stack of points and returns a (...) + shape stack of values.
    """

    spacetime: Spacetime
    shape: tuple
    fn: object
    deriv: object = None
    deriv2: object = None
    fd_step: float = TOL.fd_step
    # derivatives that are finite differences stated as analytic ones (a
    # stencil leaf, or a rule or partial over one); they carry O(h^2) error
    fd_backed: bool = False

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def d(self, x, mu):
        x = np.asarray(x, dtype=float)
        if self.deriv is not None:
            return self.deriv(x, mu)
        h = self.fd_step
        e = np.zeros(self.spacetime.dim)
        e[mu] = h
        return (self.fn(x + e) - self.fn(x - e)) / (2.0 * h)

    def d2(self, x, mu, nu):
        x = np.asarray(x, dtype=float)
        if self.deriv2 is not None:
            return self.deriv2(x, mu, nu)
        h = self.fd_step
        e = np.zeros(self.spacetime.dim)
        e[nu] = h
        return (self.d(x + e, mu) - self.d(x - e, mu)) / (2.0 * h)

    # -- algebra ------------------------------------------------------------

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
        """The field x -> d self / d x^mu; its deriv taps self's second derivatives."""
        f = self
        return FieldFn(f.spacetime, f.shape,
                       lambda x: f.d(x, mu),
                       lambda x, nu: f.d2(x, mu, nu),
                       None, f.fd_step, f.fd_backed)

    def without_analytic_derivs(self):
        """Copy that answers derivative queries by finite differences only."""
        return FieldFn(self.spacetime, self.shape, self.fn, None, None, self.fd_step)

    def with_step(self, h):
        """Copy whose finite differences take step h; an FD-backed field keeps none of its own."""
        if self.fd_backed:
            return FieldFn(self.spacetime, self.shape, self.fn, None, None, h)
        return FieldFn(self.spacetime, self.shape, self.fn, self.deriv, self.deriv2, h)


def _check_compatible(f, g):
    if f.spacetime != g.spacetime:
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


def _combine_step(*fields):
    """Step for a combined field: fully-analytic operands do not constrain it."""
    steps = [f.fd_step for f in fields if f.deriv is None or f.deriv2 is None or f.fd_backed]
    if not steps:
        steps = [f.fd_step for f in fields]
    return min(steps)


# -- the three derivative rules ---------------------------------------------
# A rule gives the combined field an analytic deriv when every operand has
# one, and an analytic deriv2 when every operand has both; a missing order
# falls back to finite differences of the combined field.  So a rule reads
# its operands' fn, deriv and deriv2 directly, never the FD-aware d and d2.

def _lift(op, gs):
    """x -> op(g1(x), ..., gk(x)) with the same arguments to every g; None if a g is.

    The rules build closures rather than functools.partial objects: a lone
    point's query runs through dozens of them, and a closure call is cheaper.
    """
    if None in gs:
        return None
    if len(gs) == 1:
        g, = gs
        return lambda *args: op(g(*args))
    if len(gs) == 2:
        g, h = gs
        return lambda *args: op(g(*args), h(*args))
    return lambda *args: op(*[g(*args) for g in gs])


def _linear(op, shape, *fs):
    """The field op(f1, ..., fk) for op linear: every order is op of that order."""
    deriv = _lift(op, [f.deriv for f in fs])
    deriv2 = _lift(op, [f.deriv2 for f in fs]) if deriv is not None else None
    return FieldFn(fs[0].spacetime, shape, _lift(op, [f.fn for f in fs]), deriv, deriv2,
                   _combine_step(*fs), any(f.fd_backed for f in fs))


def _product(op, shape, f, g):
    """The field op(f, g) for op bilinear (Leibniz rule)."""
    ff, gf, fd, gd, fd2, gd2 = f.fn, g.fn, f.deriv, g.deriv, f.deriv2, g.deriv2
    deriv = deriv2 = None
    if fd is not None and gd is not None:
        def deriv(x, mu):
            return op(fd(x, mu), gf(x)) + op(ff(x), gd(x, mu))

        if fd2 is not None and gd2 is not None:
            def deriv2(x, mu, nu):
                return (op(fd2(x, mu, nu), gf(x)) + op(ff(x), gd2(x, mu, nu))
                        + op(fd(x, mu), gd(x, nu)) + op(fd(x, nu), gd(x, mu)))
    return FieldFn(f.spacetime, shape, _lift(op, [ff, gf]), deriv, deriv2,
                   _combine_step(f, g), f.fd_backed or g.fd_backed)


# -- constructors -----------------------------------------------------------

def _uniform(value, shape=()):
    """The function x, *args -> value at every point of the stack x, (...) + shape."""
    def at(x, *args):
        return value if x.ndim == 1 else np.broadcast_to(value, x.shape[:-1] + shape)
    return at


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
    zero = 0.0 if shape == () else np.zeros(shape, dtype=complex)
    zeros = _uniform(zero, shape)
    return FieldFn(spacetime, shape, _uniform(value, shape), zeros, zeros)


def identity_field(spacetime, n):
    return constant(np.eye(n, dtype=complex), spacetime)


def _slopes(c):
    """x, mu -> c[mu] at every point of the stack x: a linear leaf's first derivative."""
    c = [float(cm) for cm in c]

    def deriv(x, mu):
        return c[mu] if x.ndim == 1 else np.full(x.shape[:-1], c[mu])
    return deriv


# A lone point's linear leaves give Python floats, whose arithmetic is faster
# than that of numpy scalars; the bits are the same.

def coordinate(spacetime, mu):
    return FieldFn(spacetime, (), lambda x: float(x[mu]) if x.ndim == 1 else x[..., mu],
                   _slopes(np.eye(spacetime.dim)[mu]), _uniform(0.0))


def linear(spacetime, coeffs, offset=0.0):
    """c_mu x^mu + offset (plain coordinate contraction, no metric)."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (spacetime.dim,):
        raise DimensionMismatchError("coefficient count must equal spacetime dim")

    def fn(x):
        # ndarray.dot and np.vecdot run the same dot kernel, so the bits agree
        return (float(c.dot(x)) if x.ndim == 1 else np.vecdot(x, c)) + offset

    return FieldFn(spacetime, (), fn, _slopes(c), _uniform(0.0))


def scalar_field(spacetime, fn):
    return FieldFn(spacetime, (), fn)


def mapped(f, func, dfunc=None, d2func=None):
    """Compose a scalar field with a smooth scalar function (chain rule)."""
    if f.shape != ():
        raise DimensionMismatchError("mapped requires a scalar field")
    fn, fd, fd2 = f.fn, f.deriv, f.deriv2
    deriv = deriv2 = None
    if dfunc is not None and fd is not None:
        def deriv(x, mu):
            return dfunc(fn(x)) * fd(x, mu)

        if d2func is not None and fd2 is not None:
            def deriv2(x, mu, nu):
                u = fn(x)
                return dfunc(u) * fd2(x, mu, nu) + d2func(u) * fd(x, mu) * fd(x, nu)
    return FieldFn(f.spacetime, (), _lift(func, [fn]), deriv, deriv2, f.fd_step, f.fd_backed)


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
        m = np.moveaxis(m, 0, -1)  # the reshape below copies it into C order
    return m.reshape(m.shape[:-1] + shape)


def hstack(a, b):
    """Column-concatenate two matrix-valued fields."""
    _check_compatible(a, b)
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(f"cannot hstack shapes {a.shape} and {b.shape}")
    return _linear(lambda u, v: np.concatenate([u, v], axis=-1),
                   (a.shape[0], a.shape[1] + b.shape[1]), a, b)


# -- leaves that keep per-stack records --------------------------------------

# points whose records one leaf keeps: a stacked `modified` sweep queries 32
# shifted copies of its grid's exp(iH) leaf, so this holds all of them for
# grids up to 64 points (up to about 11 MB for N = 4 once second derivatives
# are asked for); a stencil record of P points counts its 73 P stencil points
_LEAF_CACHE_POINTS = 2048


class _PointLRU:
    """A leaf's records, keyed by point stack, bounded by the points they hold.

    A record of a stack of P points counts P toward `_LEAF_CACHE_POINTS`
    (more when it holds values at further points); the oldest go first, and
    the newest stays even when it alone holds more.
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

    def put(self, x, record, points):
        """Keep record for the point stack x, counting it as points; returns record."""
        self.records[(x.shape, x.tobytes())] = (record, points)
        self.held += points
        while self.held > _LEAF_CACHE_POINTS and len(self.records) > 1:
            self.held -= self.records.popitem(last=False)[1][1]
        return record


def stencil_field(spacetime, shape, fn, fd_step=TOL.fd_step) -> FieldFn:
    """The field fn whose derivatives are its central differences, from one stacked call.

    The first derivative query at a point stack x evaluates fn once on the
    whole nested stencil of x, stacked along a new leading axis: x, x +- h e_mu
    and (x +- h e_nu) +- h e_mu for every mu and nu, with the point arithmetic
    of `FieldFn.d` and `d2`.  d and d2 then have the bits of a derivative-free
    `FieldFn` of fn, yet they are stated as the leaf's deriv and deriv2, so
    composites combine them by their rules instead of differencing whole
    trees.  The record lives in the field's point-bounded LRU; a value query
    reads it when there is one and otherwise makes one plain call.  The
    field is marked `fd_backed`.
    """
    dim, h = spacetime.dim, fd_step
    steps = [np.eye(dim)[mu] * h for mu in range(dim)]
    lru = _PointLRU()

    def stencil(x):
        # x; then x +- h e_mu at 1 + 2 mu; then (x +- h e_nu) +- h e_mu at
        # 1 + 2 dim + 4 (nu dim + mu), in the order ++, +-, -+, --
        pts = [x]
        for e in steps:
            pts += [x + e, x - e]
        for e in steps:
            ys = (x + e, x - e)
            for f in steps:
                for y in ys:
                    pts += [y + f, y - f]
        return np.stack(pts)

    def record(x):
        vals = lru.get(x)
        if vals is None:
            pts = stencil(x)
            vals = np.asarray(fn(pts))
            vals.flags.writeable = False
            lru.put(x, vals, pts.size // dim)
        return vals

    def value(x):
        vals = lru.get(x)
        return fn(x) if vals is None else vals[0]

    def deriv(x, mu):
        vals = record(x)
        i = 1 + 2 * mu
        return (vals[i] - vals[i + 1]) / (2.0 * h)

    def deriv2(x, mu, nu):
        vals = record(x)
        i = 1 + 2 * dim + 4 * (nu * dim + mu)
        return ((vals[i] - vals[i + 1]) / (2.0 * h)
                - (vals[i + 2] - vals[i + 3]) / (2.0 * h)) / (2.0 * h)

    return FieldFn(spacetime, shape, value, deriv, deriv2, fd_step, True)


# ---------------------------------------------------------------------------
# differential forms

@dataclass(frozen=True)
class OneForm:
    """d component fields A_mu; scalar for abelian forms, matrix for connections."""

    spacetime: Spacetime
    components: tuple  # d FieldFns

    def __post_init__(self):
        if len(self.components) != self.spacetime.dim:
            raise DimensionMismatchError("one-form needs d components")

    def component(self, mu):
        return self.components[mu]

    def at(self, x, mu):
        return self.components[mu](x)


@dataclass(frozen=True)
class TwoForm:
    """Antisymmetric 2-form; only the strict upper triangle is stored."""

    spacetime: Spacetime
    upper: Mapping  # {(mu, nu): FieldFn} with mu < nu

    def component(self, mu, nu):
        if mu == nu:
            shape = next(iter(self.upper.values())).shape
            return constant(0.0 if shape == () else np.zeros(shape, dtype=complex),
                            self.spacetime)
        if mu < nu:
            return self.upper[(mu, nu)]
        return -1.0 * self.upper[(nu, mu)]

    def at(self, x, mu, nu):
        return self.component(mu, nu)(x)


class _LazyEntries(Mapping):
    """Read-only {(mu, nu): entry(mu, nu)} over mu < nu, each entry built on first use."""

    def __init__(self, dim, entry):
        self._keys = tuple(itertools.combinations(range(dim), 2))
        self._entry = entry
        self._built = {}

    def __getitem__(self, key):
        f = self._built.get(key)
        if f is None:
            if key not in self._keys:
                raise KeyError(key)
            f = self._built[key] = self._entry(*key)
        return f

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


def two_form(spacetime, entry) -> TwoForm:
    """The 2-form whose (mu, nu) component, mu < nu, is the field entry(mu, nu).

    Each component is built when first asked for: a check that reads two of
    the six components of a 4-d form builds only those two.
    """
    return TwoForm(spacetime, _LazyEntries(spacetime.dim, entry))


def exterior_d(a: OneForm) -> TwoForm:
    """(dA)_{mu nu} = d_mu A_nu - d_nu A_mu."""
    c = a.components
    return two_form(a.spacetime, lambda mu, nu: c[nu].partial(mu) - c[mu].partial(nu))


def closedness_residual(f, x):
    """Cyclic derivative sums d_mu F_nu rho + d_nu F_rho mu + d_rho F_mu nu.

    Works for any TwoForm, field strengths and blade curvature included;
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

def one_form_values(a, x):
    return {(mu,): a.components[mu](x) for mu in range(a.spacetime.dim)}

def two_form_values(f, x):
    return {key: c(x) for key, c in f.upper.items()}


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


def wedge_power_values(a, da, r, x):
    """Components of A wedge (dA)^r at x."""
    vals = one_form_values(a, x)
    dvals = two_form_values(da, x)
    for _ in range(r):
        vals = wedge(vals, dvals)
    return vals


def wedge_power_nonzero(a, da, r, sample_points):
    """True if any component of A wedge (dA)^r exceeds 1e-9 at any sample."""
    d = a.spacetime.dim
    if 2 * r + 1 > d:
        raise RankError(f"a ({2 * r + 1})-form cannot live in dimension {d}")
    pts = np.asarray(sample_points, dtype=float).reshape(-1, d)
    return any(np.any(np.abs(v) > 1e-9) for v in wedge_power_values(a, da, r, pts).values())


def form_rank(a, sample_points, tol=1e-9):
    """Largest r with A wedge (dA)^r != 0 at the samples.

    Sample points must avoid measure-zero degeneracies (caller's
    responsibility).  If the per-sample answer is not constant, a
    rank-not-constant warning is emitted and the maximum is returned.
    """
    d = a.spacetime.dim
    pts = np.asarray(sample_points, dtype=float).reshape(-1, d)
    vals = one_form_values(a, pts)
    dvals = two_form_values(exterior_d(a), pts)
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

def sphere_flux(f: TwoForm, quadrature_order=16):
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
