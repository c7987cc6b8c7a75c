"""The N = 2, n = 1 electromagnetic specialization.

A normalized two-component frame V = (e^{i alpha} cos rho, e^{i beta} sin rho)
covers every U(1) blade; the plane wave and the magnetic monopole (two Wu-Yang
style patches glued over the equatorial band) are the built-in scenarios.
The monopole lives on the spherical chart (r, theta, phi) with the radial
coordinate inert in the angular sector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blade import Frame, RotatingBlade, blade_from_frame, frame
from .errors import ChartError
from .fields import (FieldFn, OneForm, Spacetime, SPHERICAL3, TwoForm, constant,
                     coordinate, cos_of, exp_i, linear, matrix_of, sin_of,
                     two_form)
from .gauge import gauge_potential
from .linalg import max_abs
from .tolerances import DEFAULT as TOL

__all__ = [
    "EmFrameParams", "em_frame", "em_complement",
    "em_potential_residual", "em_faraday", "plane_wave_params",
    "plane_wave_potential", "plane_wave_mod_condition",
    "monopole_potential", "monopole_params", "monopole_blade",
    "monopole_field_strength", "monopole_blade_glue", "GlueReport",
    "quantization_satisfied",
]


@dataclass(frozen=True)
class EmFrameParams:
    """Three real scalar fields parametrizing the N = 2 frame."""

    alpha: FieldFn
    beta: FieldFn
    rho: FieldFn

    @property
    def spacetime(self):
        return self.rho.spacetime


def em_frame(params: EmFrameParams) -> Frame:
    """V = (e^{i alpha} cos rho, e^{i beta} sin rho)^T; orthonormal by construction."""
    top = exp_i(params.alpha) * cos_of(params.rho)
    bottom = exp_i(params.beta) * sin_of(params.rho)
    return frame(params.spacetime, matrix_of([[top], [bottom]]))


def em_complement(params: EmFrameParams) -> FieldFn:
    """The complement W = (-e^{-i beta} sin rho, e^{-i alpha} cos rho)^T.

    This particular phase choice makes the complementary connection come out
    as C = -A exactly; other unit complements differ by a phase and shift C
    by an exact gradient.
    """
    top = (-1.0) * (exp_i((-1.0) * params.beta) * sin_of(params.rho))
    bottom = exp_i((-1.0) * params.alpha) * cos_of(params.rho)
    return matrix_of([[top], [bottom]])


def em_potential_residual(params: EmFrameParams, a: OneForm, mu, x):
    """|cos^2 rho d_mu alpha + sin^2 rho d_mu beta - A_mu| at x."""
    r = params.rho(x)
    lhs = (np.cos(r) ** 2 * params.alpha.d(x, mu)
           + np.sin(r) ** 2 * params.beta.d(x, mu))
    return abs(complex(lhs) - complex(a.at(x, mu)[0, 0]))


def em_faraday(params: EmFrameParams) -> TwoForm:
    """F = d(cos^2 rho) wedge d(alpha - beta), componentwise."""
    c2 = cos_of(params.rho) * cos_of(params.rho)
    delta = params.alpha - params.beta
    return two_form(params.spacetime, lambda mu, nu: (c2.partial(mu) * delta.partial(nu)
                                                      - c2.partial(nu) * delta.partial(mu)))


# ---------------------------------------------------------------------------
# plane wave

def plane_wave_params(spacetime: Spacetime, k, n) -> EmFrameParams:
    """alpha = n.x, beta = -n.x, rho = k.x / 2 - pi/4 (plain contractions)."""
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    return EmFrameParams(alpha=linear(spacetime, n),
                         beta=linear(spacetime, -n),
                         rho=linear(spacetime, 0.5 * k, offset=-np.pi / 4.0))


def plane_wave_potential(spacetime: Spacetime, k, n) -> OneForm:
    """A_mu = n_mu sin(k . x), as a rank-1 potential."""
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    phase = linear(spacetime, k)
    comps = [matrix_of([[float(n[mu]) * sin_of(phase)]]) for mu in range(spacetime.dim)]
    return gauge_potential(spacetime, comps)


def plane_wave_mod_condition(spacetime: Spacetime, k, n):
    """(k.k)(n.n) - (k.n)^2 with metric dots; zero iff the modified EOM holds."""
    kk = spacetime.dot(k, k)
    nn = spacetime.dot(n, n)
    kn = spacetime.dot(k, n)
    return kk * nn - kn * kn


# ---------------------------------------------------------------------------
# magnetic monopole

def _pole_guarded_phi_component(g, sign, guard=TOL.pole_guard):
    """A_phi = g (sign - cos theta) with the excluded pole fenced off."""

    def fn(x):
        theta = float(x[1])
        if sign > 0 and theta > np.pi - guard:
            raise ChartError(f"plus-patch potential undefined near theta = pi (theta={theta})")
        if sign < 0 and theta < guard:
            raise ChartError(f"minus-patch potential undefined near theta = 0 (theta={theta})")
        return np.array([[g * (sign - np.cos(theta))]], dtype=complex)

    def deriv(x, mu):
        theta = float(x[1])
        val = g * np.sin(theta) if mu == 1 else 0.0
        return np.array([[val]], dtype=complex)

    def deriv2(x, mu, nu):
        theta = float(x[1])
        val = g * np.cos(theta) if (mu == 1 and nu == 1) else 0.0
        return np.array([[val]], dtype=complex)

    return FieldFn(SPHERICAL3, (1, 1), fn, deriv, deriv2)


def monopole_potential(g, patch) -> OneForm:
    """A^(+-) = g (+-1 - cos theta) d phi on the spherical chart."""
    sign = 1.0 if patch == "plus" else -1.0
    zero = constant(np.zeros((1, 1), dtype=complex), SPHERICAL3)
    comps = [zero, zero, _pole_guarded_phi_component(g, sign)]
    return OneForm(SPHERICAL3, tuple(comps))


def monopole_params(g, patch) -> EmFrameParams:
    """alpha+ = 0, beta+ = 2 g phi (and the mirrored minus patch); rho = theta / 2."""
    phi = coordinate(SPHERICAL3, 2)
    theta = coordinate(SPHERICAL3, 1)
    zero = constant(0.0, SPHERICAL3)
    if patch == "plus":
        alpha, beta = zero, 2.0 * g * phi
    else:
        alpha, beta = -2.0 * g * phi, zero
    return EmFrameParams(alpha=alpha, beta=beta, rho=0.5 * theta)


def monopole_blade(g) -> RotatingBlade:
    """The patch-independent rotating blade of the monopole."""
    return blade_from_frame(em_frame(monopole_params(g, "plus")))


def monopole_field_strength(g) -> TwoForm:
    """F = g sin theta d theta wedge d phi, identical on both patches."""
    return em_faraday(monopole_params(g, "plus"))


def monopole_b_field(g, xyz):
    """The radial field B = g x / r^3 in cartesian coordinates (reporting only)."""
    xyz = np.asarray(xyz, dtype=float)
    r = np.linalg.norm(xyz)
    if r == 0.0:
        raise ChartError("the monopole field is singular at the origin")
    return g * xyz / r ** 3


def quantization_satisfied(g, tol=1e-12):
    return abs(2.0 * g - round(2.0 * g)) <= tol


@dataclass(frozen=True)
class GlueReport:
    blade: RotatingBlade
    single_valued: bool
    max_patch_mismatch: float
    max_winding_mismatch: float


def monopole_blade_glue(g, n_theta=32, tol=TOL.gluing, guard=TOL.pole_guard) -> GlueReport:
    """Build the blade and test patch agreement and single-valuedness.

    Patch agreement compares R built from the plus and minus parametrizations
    on the overlap band; single-valuedness compares R at phi and phi + 2 pi.
    Non-quantized g comes back single_valued = False, not an error.
    """
    blade_plus = monopole_blade(g)
    blade_minus = blade_from_frame(em_frame(monopole_params(g, "minus")))
    thetas = np.linspace(guard, np.pi - guard, n_theta)
    phis = (0.0, 1.1, 3.7)
    patch_mismatch = 0.0
    winding_mismatch = 0.0
    for th in thetas:
        for ph in phis:
            x = np.array([1.0, th, ph])
            x_wound = np.array([1.0, th, ph + 2.0 * np.pi])
            patch_mismatch = max(patch_mismatch,
                                 max_abs(blade_plus.at(x) - blade_minus.at(x)))
            winding_mismatch = max(winding_mismatch,
                                   max_abs(blade_plus.at(x_wound) - blade_plus.at(x)))
    single = patch_mismatch <= tol and winding_mismatch <= tol
    return GlueReport(blade_plus, single, patch_mismatch, winding_mismatch)
