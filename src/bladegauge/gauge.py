"""U(n) gauge potentials, field strengths, and gauge transformations.

The coupling constant is omitted throughout.  Potentials are hermitized on
evaluation: finite-difference noise must not trip the Hermiticity invariant,
so corrections below a warning threshold are silent and larger ones warn.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .fields import FieldFn, OneForm, TwoForm, two_form
from .linalg import dagger, hermitian_part, max_abs
from .tolerances import DEFAULT as TOL

__all__ = [
    "MatterField", "GaugeMap",
    "gauge_potential", "gauge_map", "field_strength",
    "covariant_derivative", "covariant_derivative_matrix",
    "gauge_transform", "gauge_transform_field_strength", "gauge_transform_matter",
    "pure_gauge_potential",
]


def _hermitized(f: FieldFn, warn_tol=TOL.hermitian_warn) -> FieldFn:
    """Wrap a matrix field so every evaluation returns its Hermitian part."""

    def fix(m):
        m = np.asarray(m, dtype=complex)
        h = hermitian_part(m)
        drift = max_abs(m - h)
        if drift > warn_tol:
            warnings.warn(f"hermitizing correction {drift:.3e} exceeds {warn_tol:.1e}",
                          stacklevel=3)
        return h

    deriv = (lambda x, mu: hermitian_part(f.deriv(x, mu))) if f.deriv is not None else None
    deriv2 = (lambda x, mu, nu: hermitian_part(f.deriv2(x, mu, nu))) if f.deriv2 is not None else None
    return FieldFn(f.spacetime, f.shape, lambda x: fix(f.fn(x)), deriv, deriv2, f.fd_step)


def gauge_potential(spacetime, components, hermitize=True, warn_tol=None) -> OneForm:
    """d Hermitian n x n matrix fields A_mu(x) as a one-form; i A_mu lives in u(n)."""
    components = tuple(components)
    if len(components) != spacetime.dim:
        raise DimensionMismatchError("need one component per spacetime axis")
    n = components[0].shape[0]
    if any(c.shape != (n, n) for c in components):
        raise DimensionMismatchError("all components must be square and same size")
    if hermitize:
        if warn_tol is None:
            # finite-difference-backed components carry O(h^2) anti-hermitian
            # noise; warn only beyond their budget, not on every evaluation
            warn_tol = max(TOL.hermitian_warn,
                           0.0 if all(c.deriv is not None for c in components)
                           else TOL.fd(components[0].fd_step))
        components = tuple(_hermitized(c, warn_tol) for c in components)
    return OneForm(spacetime, components)


@dataclass(frozen=True)
class MatterField:
    """C^n-valued field."""

    f: FieldFn

    @property
    def n(self):
        return self.f.shape[0]


@dataclass(frozen=True)
class GaugeMap:
    """U(n)-valued field; evaluations are checked for unitarity."""

    f: FieldFn

    @property
    def n(self):
        return self.f.shape[0]


def gauge_map(f: FieldFn, check=True, tol=TOL.hermitian_input) -> GaugeMap:
    if len(f.shape) != 2 or f.shape[0] != f.shape[1]:
        raise DimensionMismatchError("gauge map must be square matrix valued")
    if not check:
        return GaugeMap(f)
    n = f.shape[0]

    def checked(x):
        u = np.asarray(f.fn(x), dtype=complex)
        if max_abs(dagger(u) @ u - np.eye(n)) > tol:
            raise DomainError(f"gauge map is not unitary at {x}")
        return u

    return GaugeMap(FieldFn(f.spacetime, f.shape, checked, f.deriv, f.deriv2, f.fd_step))


def covariant_derivative(a: OneForm, psi: MatterField, mu, x):
    """D_mu psi = d_mu psi + i A_mu psi."""
    return psi.f.d(x, mu) + 1j * a.at(x, mu) @ psi.f(x)


def covariant_derivative_matrix(a: OneForm, m: FieldFn, mu, x):
    """Matrix-field covariant derivative d_mu M + i [A_mu, M].

    Any matrix connection works as A, the shape operator S of a blade included.
    """
    am = a.at(x, mu)
    mv = m(x)
    return m.d(x, mu) + 1j * (am @ mv - mv @ am)


def field_strength(a: OneForm) -> TwoForm:
    """F_mu nu = d_mu A_nu - d_nu A_mu + i [A_mu, A_nu]."""
    analytic = all(c.deriv is not None for c in a.components)
    warn_tol = TOL.hermitian_warn if analytic else max(TOL.hermitian_warn,
                                                       TOL.fd(a.components[0].fd_step))

    def entry(mu, nu):
        amu, anu = a.components[mu], a.components[nu]
        f = anu.partial(mu) - amu.partial(nu) + 1j * (amu @ anu - anu @ amu)
        return _hermitized(f, warn_tol)

    return two_form(a.spacetime, entry)


def gauge_transform(a: OneForm, u: GaugeMap) -> OneForm:
    """A' = u A u^dag - i u d u^dag."""
    uf = u.f
    comps = [uf @ a.components[mu] @ uf.dagger() + (-1j) * (uf @ uf.dagger().partial(mu))
             for mu in range(a.spacetime.dim)]
    return gauge_potential(a.spacetime, comps)


def gauge_transform_field_strength(f: TwoForm, u: GaugeMap) -> TwoForm:
    """F' = u F u^dag."""
    uf = u.f
    return two_form(f.spacetime,
                    lambda mu, nu: _hermitized(uf @ f.upper[(mu, nu)] @ uf.dagger()))


def gauge_transform_matter(psi: MatterField, u: GaugeMap) -> MatterField:
    """psi' = u psi."""
    return MatterField(u.f @ psi.f)


def pure_gauge_potential(u: GaugeMap) -> OneForm:
    """A = -i u d u^dag: the flat potential gauge-equivalent to zero."""
    uf = u.f
    comps = [(-1j) * (uf @ uf.dagger().partial(mu)) for mu in range(uf.spacetime.dim)]
    return gauge_potential(uf.spacetime, comps)
