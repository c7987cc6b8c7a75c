"""U(n) gauge potentials, field strengths, covariant derivatives, gauge transformations.

Potentials and field strengths are `fields.Form`s, and a gauge map is the
U(n)-valued `FieldFn` itself: a square frame, n = N, of which
`blade.random_smooth_frame(st, n, n, seed)` is a seeded one.  Matter
is a plain C^n-valued `FieldFn`, a gauge map u takes it to `u @ psi`, and
its covariant derivative D_mu psi is the field `covariant_field(a, psi, mu)`;
any matrix connection serves as A, the shape operator of a blade included
(the lifted derivative).  The coupling constant is omitted throughout.
Every connection (a potential, a gauge transform, a pure gauge) and every
field strength is a `Form` whose components are built when first read, and
each component is hermitized on evaluation (`_hermitized`): finite-difference
noise must not trip the Hermiticity invariant, so corrections within the
component's own budget are silent and larger ones warn.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .fields import FieldFn, Form, _linear, _worst_point
from .linalg import dagger, hermitian_part, max_abs, max_abs_each
from .tolerances import DEFAULT as TOL

__all__ = [
    "gauge_potential", "gauge_map", "field_strength",
    "covariant_field", "covariant_derivative_matrix",
    "gauge_transform", "gauge_transform_field_strength", "pure_gauge_potential",
]


def _hermitized(f: FieldFn, tol=None, error=None) -> FieldFn:
    """Wrap a matrix field so every evaluation returns its Hermitian part.

    A correction beyond tol raises error(point, drift), or warns without one; tol is
    TOL.hermitian_warn by default, or the budget of f's step where f's first derivatives
    are finite differences, whose O(h^2) anti-Hermitian noise must not warn every time.
    """
    if tol is None:
        tol = max(TOL.hermitian_warn, TOL.fd(f.fd_step) if f.order == 0 else 0.0)

    def checked(x, m):
        m = np.asarray(m, dtype=complex)
        h = hermitian_part(m)
        if max_abs(m - h) > tol:
            drifts = max_abs_each(m - h)
            i, point = _worst_point(drifts, x)
            if error is not None:
                raise error(point, drifts[i])
            warnings.warn(f"hermitizing correction {drifts[i]:.3e} exceeds {tol:.1e} "
                          f"at {point}", stacklevel=2)
        return h

    return _linear(hermitian_part, f.shape, f, value=checked)


def gauge_potential(spacetime, components) -> Form:
    """d Hermitian n x n matrix fields A_mu(x) as a one-form; i A_mu lives in u(n)."""
    components = tuple(components)
    if len(components) != spacetime.dim:
        raise DimensionMismatchError("need one component per spacetime axis")
    n = components[0].shape[0]
    if any(c.shape != (n, n) for c in components):
        raise DimensionMismatchError("all components must be square and same size")
    return Form(spacetime, 1, lambda mu: _hermitized(components[mu]))


def gauge_map(f: FieldFn) -> FieldFn:
    """The U(n)-valued field f, its evaluations checked for unitarity."""
    if len(f.shape) != 2 or f.shape[0] != f.shape[1]:
        raise DimensionMismatchError("gauge map must be square matrix valued")
    n = f.shape[0]

    def checked(x, u):
        u = np.asarray(u, dtype=complex)
        defect = dagger(u) @ u - np.eye(n)
        if max_abs(defect) > TOL.hermitian_input:
            defects = max_abs_each(defect)
            i, point = _worst_point(defects, x)
            raise DomainError(f"gauge map is not unitary at {point} "
                              f"(max |u^dag u - I| {defects[i]:.3e})")
        return u

    return _linear(lambda m: m, f.shape, f, value=checked)


def covariant_field(a: Form, psi: FieldFn, mu) -> FieldFn:
    """The field D_mu psi = d_mu psi + i A_mu psi of a C^n-valued (or n x k) field psi."""
    return psi.partial(mu) + 1j * (a.component(mu) @ psi)


def covariant_derivative_matrix(a: Form, m: FieldFn, mu, x):
    """Matrix-field covariant derivative d_mu M + i [A_mu, M].

    Any matrix connection works as A, the shape operator S of a blade included.
    """
    am = a.at(x, mu)
    mv = m(x)
    return m.d(x, mu) + 1j * (am @ mv - mv @ am)


def field_strength(a: Form) -> Form:
    """F_mu nu = d_mu A_nu - d_nu A_mu + i [A_mu, A_nu]; F_mu nu reads only A_mu and A_nu."""
    def entry(mu, nu):
        amu, anu = a[(mu,)], a[(nu,)]
        return _hermitized(anu.partial(mu) - amu.partial(nu) + 1j * (amu @ anu - anu @ amu))

    return Form(a.spacetime, 2, entry)


def gauge_transform(a: Form, u: FieldFn) -> Form:
    """A' = u A u^dag - i u d u^dag."""
    ud = u.dagger()
    return Form(a.spacetime, 1,
                lambda mu: _hermitized(u @ a[(mu,)] @ ud + (-1j) * (u @ ud.partial(mu))))


def gauge_transform_field_strength(f: Form, u: FieldFn) -> Form:
    """F' = u F u^dag."""
    return Form(f.spacetime, 2, lambda mu, nu: _hermitized(u @ f[(mu, nu)] @ u.dagger()))


def pure_gauge_potential(u: FieldFn) -> Form:
    """A = -i u d u^dag: the flat potential gauge-equivalent to zero."""
    ud = u.dagger()
    return Form(u.spacetime, 1, lambda mu: _hermitized((-1j) * (u @ ud.partial(mu))))
