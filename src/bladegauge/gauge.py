"""U(n) gauge potentials, field strengths, covariant derivatives, gauge transformations.

Matter is a plain C^n-valued `FieldFn`, and its covariant derivative D_mu psi
the field `covariant_field(a, psi, mu)`; any matrix connection serves as A,
the shape operator of a blade included (the lifted derivative).  The coupling
constant is omitted throughout.  Potentials are hermitized on evaluation:
finite-difference noise must not trip the Hermiticity invariant, so
corrections below a warning threshold are silent and larger ones warn.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .fields import FieldFn, OneForm, TwoForm, _worst_point, two_form
from .linalg import dagger, hermitian_part, max_abs, max_abs_each
from .tolerances import DEFAULT as TOL

__all__ = [
    "GaugeMap",
    "gauge_potential", "gauge_map", "field_strength",
    "covariant_field", "covariant_derivative", "covariant_derivative_matrix",
    "gauge_transform", "gauge_transform_field_strength", "gauge_transform_matter",
    "pure_gauge_potential",
]


def _hermitized(f: FieldFn, warn_tol=TOL.hermitian_warn) -> FieldFn:
    """Wrap a matrix field so every evaluation returns its Hermitian part."""

    def fn(x):
        m = np.asarray(f.fn(x), dtype=complex)
        h = hermitian_part(m)
        if max_abs(m - h) > warn_tol:
            drifts = max_abs_each(m - h)
            i, point = _worst_point(drifts, x)
            warnings.warn(f"hermitizing correction {drifts[i]:.3e} exceeds {warn_tol:.1e} "
                          f"at {point}", stacklevel=2)
        return h

    return replace(f.hermitian_part(), fn=fn)


def _fd_derived(f: FieldFn):
    """Whether f's first derivatives are finite differences, stated as such or not."""
    return f.deriv is None or f.fd_backed


def gauge_potential(spacetime, components) -> OneForm:
    """d Hermitian n x n matrix fields A_mu(x) as a one-form; i A_mu lives in u(n)."""
    components = tuple(components)
    if len(components) != spacetime.dim:
        raise DimensionMismatchError("need one component per spacetime axis")
    n = components[0].shape[0]
    if any(c.shape != (n, n) for c in components):
        raise DimensionMismatchError("all components must be square and same size")
    # finite-difference-backed components carry O(h^2) anti-hermitian
    # noise; warn only beyond their budget, not on every evaluation
    warn_tol = max(TOL.hermitian_warn,
                   TOL.fd(components[0].fd_step) if any(map(_fd_derived, components)) else 0.0)
    return OneForm(spacetime, tuple(_hermitized(c, warn_tol) for c in components))


@dataclass(frozen=True)
class GaugeMap:
    """U(n)-valued field; evaluations are checked for unitarity."""

    f: FieldFn

    @property
    def n(self):
        return self.f.shape[0]


def gauge_map(f: FieldFn, check=True) -> GaugeMap:
    if len(f.shape) != 2 or f.shape[0] != f.shape[1]:
        raise DimensionMismatchError("gauge map must be square matrix valued")
    if not check:
        return GaugeMap(f)
    n = f.shape[0]

    def checked(x):
        u = np.asarray(f.fn(x), dtype=complex)
        defect = dagger(u) @ u - np.eye(n)
        if max_abs(defect) > TOL.hermitian_input:
            defects = max_abs_each(defect)
            i, point = _worst_point(defects, x)
            raise DomainError(f"gauge map is not unitary at {point} "
                              f"(max |u^dag u - I| {defects[i]:.3e})")
        return u

    return GaugeMap(replace(f, fn=checked))


def covariant_field(a: OneForm, psi: FieldFn, mu) -> FieldFn:
    """The field D_mu psi = d_mu psi + i A_mu psi of a C^n-valued (or n x k) field psi."""
    return psi.partial(mu) + 1j * (a.components[mu] @ psi)


def covariant_derivative(a: OneForm, psi: FieldFn, mu, x):
    """D_mu psi = d_mu psi + i A_mu psi at x, a point or a (..., d) stack."""
    return covariant_field(a, psi, mu)(x)


def covariant_derivative_matrix(a: OneForm, m: FieldFn, mu, x):
    """Matrix-field covariant derivative d_mu M + i [A_mu, M].

    Any matrix connection works as A, the shape operator S of a blade included.
    """
    am = a.at(x, mu)
    mv = m(x)
    return m.d(x, mu) + 1j * (am @ mv - mv @ am)


def field_strength(a: OneForm) -> TwoForm:
    """F_mu nu = d_mu A_nu - d_nu A_mu + i [A_mu, A_nu]."""
    warn_tol = max(TOL.hermitian_warn, TOL.fd(a.components[0].fd_step)
                   if any(map(_fd_derived, a.components)) else 0.0)

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


def gauge_transform_matter(psi: FieldFn, u: GaugeMap) -> FieldFn:
    """psi' = u psi."""
    return u.f @ psi


def pure_gauge_potential(u: GaugeMap) -> OneForm:
    """A = -i u d u^dag: the flat potential gauge-equivalent to zero."""
    uf = u.f
    comps = [(-1j) * (uf @ uf.dagger().partial(mu)) for mu in range(uf.spacetime.dim)]
    return gauge_potential(uf.spacetime, comps)
