"""Point-evaluable fields over flat spacetime.

A `FieldFn` bundles a point evaluator with optional analytic first and second
derivatives; whenever an analytic derivative is missing, queries fall back to
central finite differences (second derivatives use nested first-order
stencils).  Algebraic combinators (`+`, `@`, scalar `*`, `dagger`, `partial`)
propagate analytic derivatives by the product/chain rule, so pipelines built
from analytic ingredients stay analytic.

Evaluation is reentrant and side-effect free; lattice and quadrature loops
reduce in a fixed order for reproducibility.  Leaf caches, such as the
bounded per-point LRU of the seeded exp(iH) fields in `blade`, are invisible
to callers: they return read-only arrays with the bits a fresh evaluation
would give.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ChartError, DimensionMismatchError, ParameterError, RankError
from .tolerances import DEFAULT as TOL

__all__ = [
    "Spacetime", "MINKOWSKI4", "euclidean", "SPHERICAL3",
    "FieldFn", "constant", "identity_field", "coordinate", "linear",
    "scalar_field", "mapped", "sin_of", "cos_of", "exp_i", "matrix_of", "hstack",
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
    symmetric in (mu, nu) within the finite-difference budget.
    """

    spacetime: Spacetime
    shape: tuple
    fn: object
    deriv: object = None
    deriv2: object = None
    fd_step: float = TOL.fd_step

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
        _check_compatible(self, other)
        if self.shape != other.shape:
            raise DimensionMismatchError(f"cannot add shapes {self.shape} and {other.shape}")
        f, g = self, other
        deriv = (lambda x, mu: f.d(x, mu) + g.d(x, mu)) if _both_d(f, g) else None
        deriv2 = (lambda x, mu, nu: f.d2(x, mu, nu) + g.d2(x, mu, nu)) if _both_d2(f, g) else None
        return FieldFn(f.spacetime, f.shape, lambda x: f.fn(x) + g.fn(x),
                       deriv, deriv2, _combine_step(f, g))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        f = self
        deriv = (lambda x, mu: c * f.deriv(x, mu)) if f.deriv is not None else None
        deriv2 = (lambda x, mu, nu: c * f.deriv2(x, mu, nu)) if f.deriv2 is not None else None
        return FieldFn(f.spacetime, f.shape, lambda x: c * f.fn(x), deriv, deriv2, f.fd_step)

    def __mul__(self, other):
        """Pointwise product; at least one factor must be scalar-shaped."""
        if np.isscalar(other):
            return other * self
        _check_compatible(self, other)
        if self.shape != () and other.shape != ():
            raise DimensionMismatchError("pointwise * needs a scalar factor; use @ for matrices")
        f, g = self, other
        shape = f.shape if g.shape == () else g.shape
        deriv = None
        if _both_d(f, g):
            deriv = lambda x, mu: f.d(x, mu) * g.fn(x) + f.fn(x) * g.d(x, mu)
        deriv2 = None
        if _both_d2(f, g):
            deriv2 = lambda x, mu, nu: (f.d2(x, mu, nu) * g.fn(x) + f.fn(x) * g.d2(x, mu, nu)
                                        + f.d(x, mu) * g.d(x, nu) + f.d(x, nu) * g.d(x, mu))
        return FieldFn(f.spacetime, shape, lambda x: f.fn(x) * g.fn(x),
                       deriv, deriv2, _combine_step(f, g))

    def __matmul__(self, other):
        _check_compatible(self, other)
        f, g = self, other
        shape = _matmul_shape(f.shape, g.shape)
        deriv = None
        if _both_d(f, g):
            deriv = lambda x, mu: f.d(x, mu) @ g.fn(x) + f.fn(x) @ g.d(x, mu)
        deriv2 = None
        if _both_d2(f, g):
            deriv2 = lambda x, mu, nu: (f.d2(x, mu, nu) @ g.fn(x) + f.fn(x) @ g.d2(x, mu, nu)
                                        + f.d(x, mu) @ g.d(x, nu) + f.d(x, nu) @ g.d(x, mu))
        return FieldFn(f.spacetime, shape, lambda x: f.fn(x) @ g.fn(x),
                       deriv, deriv2, _combine_step(f, g))

    def dagger(self):
        """Conjugate transpose of a matrix-valued field (conjugate for scalars)."""
        f = self
        if len(f.shape) == 2:
            shape = (f.shape[1], f.shape[0])
            dag = lambda v: np.conjugate(v).T
        else:
            shape = f.shape
            dag = np.conjugate
        deriv = (lambda x, mu: dag(f.deriv(x, mu))) if f.deriv is not None else None
        deriv2 = (lambda x, mu, nu: dag(f.deriv2(x, mu, nu))) if f.deriv2 is not None else None
        return FieldFn(f.spacetime, shape, lambda x: dag(f.fn(x)), deriv, deriv2, f.fd_step)

    def partial(self, mu):
        """The field x -> d self / d x^mu; its deriv taps self's second derivatives."""
        f = self
        return FieldFn(f.spacetime, f.shape,
                       lambda x: f.d(x, mu),
                       lambda x, nu: f.d2(x, mu, nu),
                       None, f.fd_step)

    def without_analytic_derivs(self):
        """Copy that answers derivative queries by finite differences only."""
        return FieldFn(self.spacetime, self.shape, self.fn, None, None, self.fd_step)

    def with_step(self, h):
        return FieldFn(self.spacetime, self.shape, self.fn, self.deriv, self.deriv2, h)


def _check_compatible(f, g):
    if f.spacetime != g.spacetime:
        raise DimensionMismatchError("fields live on different spacetimes")


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


def _both_d(f, g):
    return f.deriv is not None and g.deriv is not None


def _both_d2(f, g):
    return (_both_d(f, g) and f.deriv2 is not None and g.deriv2 is not None)


def _combine_step(*fields):
    """Step for a combined field: fully-analytic operands do not constrain it."""
    steps = [f.fd_step for f in fields if f.deriv is None or f.deriv2 is None]
    if not steps:
        steps = [f.fd_step for f in fields]
    return min(steps)


# -- constructors -----------------------------------------------------------

def constant(value, spacetime):
    value = np.asarray(value, dtype=complex) if not np.isscalar(value) else value
    shape = () if np.isscalar(value) else value.shape
    zero = 0.0 if shape == () else np.zeros(shape, dtype=complex)
    return FieldFn(spacetime, shape, lambda x: value,
                   lambda x, mu: zero, lambda x, mu, nu: zero)


def identity_field(spacetime, n):
    return constant(np.eye(n, dtype=complex), spacetime)


def coordinate(spacetime, mu):
    return FieldFn(spacetime, (),
                   lambda x: float(x[mu]),
                   lambda x, nu: 1.0 if nu == mu else 0.0,
                   lambda x, a, b: 0.0)


def linear(spacetime, coeffs, offset=0.0):
    """c_mu x^mu + offset (plain coordinate contraction, no metric)."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (spacetime.dim,):
        raise DimensionMismatchError("coefficient count must equal spacetime dim")
    return FieldFn(spacetime, (),
                   lambda x: float(np.dot(c, x)) + offset,
                   lambda x, mu: float(c[mu]),
                   lambda x, a, b: 0.0)


def scalar_field(spacetime, fn, deriv=None, deriv2=None, fd_step=TOL.fd_step):
    return FieldFn(spacetime, (), fn, deriv, deriv2, fd_step)


def mapped(f, func, dfunc=None, d2func=None):
    """Compose a scalar field with a smooth scalar function (chain rule)."""
    if f.shape != ():
        raise DimensionMismatchError("mapped requires a scalar field")
    deriv = None
    if dfunc is not None and f.deriv is not None:
        deriv = lambda x, mu: dfunc(f.fn(x)) * f.d(x, mu)
    deriv2 = None
    if dfunc is not None and d2func is not None and f.deriv is not None and f.deriv2 is not None:
        def deriv2(x, mu, nu):
            u = f.fn(x)
            return dfunc(u) * f.d2(x, mu, nu) + d2func(u) * f.d(x, mu) * f.d(x, nu)
    return FieldFn(f.spacetime, (), lambda x: func(f.fn(x)), deriv, deriv2, f.fd_step)


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
    spacetime = None
    for row in rows:
        for e in row:
            if isinstance(e, FieldFn):
                spacetime = e.spacetime
                break
        if spacetime is not None:
            break
    if spacetime is None:
        raise DimensionMismatchError("matrix_of needs at least one FieldFn entry")
    grid = [[e if isinstance(e, FieldFn) else constant(complex(e), spacetime) for e in row]
            for row in rows]
    shape = (len(grid), len(grid[0]))

    def fn(x):
        return np.array([[e.fn(x) for e in row] for row in grid], dtype=complex)

    deriv = None
    if all(e.deriv is not None for row in grid for e in row):
        deriv = lambda x, mu: np.array([[e.d(x, mu) for e in row] for row in grid], dtype=complex)
    deriv2 = None
    if deriv is not None and all(e.deriv2 is not None for row in grid for e in row):
        deriv2 = lambda x, mu, nu: np.array(
            [[e.d2(x, mu, nu) for e in row] for row in grid], dtype=complex)
    step = _combine_step(*[e for row in grid for e in row])
    return FieldFn(spacetime, shape, fn, deriv, deriv2, step)


def hstack(a, b):
    """Column-concatenate two matrix-valued fields."""
    _check_compatible(a, b)
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(f"cannot hstack shapes {a.shape} and {b.shape}")
    shape = (a.shape[0], a.shape[1] + b.shape[1])
    deriv = None
    if _both_d(a, b):
        deriv = lambda x, mu: np.hstack([a.d(x, mu), b.d(x, mu)])
    deriv2 = None
    if _both_d2(a, b):
        deriv2 = lambda x, mu, nu: np.hstack([a.d2(x, mu, nu), b.d2(x, mu, nu)])
    return FieldFn(a.spacetime, shape, lambda x: np.hstack([a.fn(x), b.fn(x)]),
                   deriv, deriv2, _combine_step(a, b))


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
    upper: dict  # {(mu, nu): FieldFn} with mu < nu

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


def two_form(spacetime, entry) -> TwoForm:
    """The 2-form whose (mu, nu) component, mu < nu, is the field entry(mu, nu)."""
    return TwoForm(spacetime, {(mu, nu): entry(mu, nu) for mu, nu
                               in itertools.combinations(range(spacetime.dim), 2)})


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
# p-form values are dicts {strictly increasing index tuple: complex}.

def one_form_values(a, x):
    return {(mu,): complex(a.components[mu](x)) for mu in range(a.spacetime.dim)}

def two_form_values(f, x):
    return {key: complex(c(x)) for key, c in f.upper.items()}


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


def wedge_power_nonzero(a, da, r, sample_points, tol=1e-9):
    """True if any component of A wedge (dA)^r exceeds tol at any sample."""
    d = a.spacetime.dim
    if 2 * r + 1 > d:
        raise RankError(f"a ({2 * r + 1})-form cannot live in dimension {d}")
    for x in sample_points:
        vals = wedge_power_values(a, da, r, x)
        if any(abs(v) > tol for v in vals.values()):
            return True
    return False


def form_rank(a, sample_points, tol=1e-9):
    """Largest r with A wedge (dA)^r != 0 at the samples.

    Sample points must avoid measure-zero degeneracies (caller's
    responsibility).  If the per-sample answer is not constant, a
    rank-not-constant warning is emitted and the maximum is returned.
    """
    d = a.spacetime.dim
    da = exterior_d(a)
    per_sample = []
    for x in sample_points:
        best = 0
        r = 0
        while 2 * r + 1 <= d:
            if wedge_power_nonzero(a, da, r, [x], tol):
                best = r
            r += 1
        per_sample.append(best)
    ranks = set(per_sample)
    if len(ranks) > 1:
        warnings.warn(f"form rank varies across samples: {sorted(ranks)}; returning max",
                      stacklevel=2)
    return max(per_sample) if per_sample else 0


# ---------------------------------------------------------------------------
# quadrature

def sphere_flux(f: TwoForm, radius=1.0, quadrature_order=16, n_phi=None):
    """Integral of a 2-form over the radius-r sphere of a spherical3d chart.

    Product rule: Gauss-Legendre in theta, trapezoid (periodic) in phi, on
    the coordinate component F_{theta phi}.
    """
    if f.spacetime.chart != "spherical3d":
        raise ChartError("sphere_flux requires a spherical3d chart")
    if quadrature_order < 2:
        raise ParameterError("quadrature order must be >= 2")
    if n_phi is None:
        n_phi = max(8, 4 * quadrature_order)
    nodes, weights = np.polynomial.legendre.leggauss(quadrature_order)
    thetas = 0.5 * np.pi * (nodes + 1.0)
    wtheta = 0.5 * np.pi * weights
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    dphi = 2.0 * np.pi / n_phi
    comp = f.component(1, 2)
    total = 0.0
    for th, wt in zip(thetas, wtheta):
        for ph in phis:
            total += wt * dphi * complex(comp(np.array([radius, th, ph]))).real
    return total


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

    @classmethod
    def from_json(cls, spec):
        axes = spec["axes"]
        return cls(lo=tuple(float(a["min"]) for a in axes),
                   hi=tuple(float(a["max"]) for a in axes),
                   cells=tuple(int(a["cells"]) for a in axes))


def lattice_integral(f, grid: Grid):
    """Midpoint-rule integral of a scalar field over the grid box."""
    vals = [complex(f(p)) for p in grid.centers()]
    return float(np.real(np.sum(vals))) * grid.cell_volume
