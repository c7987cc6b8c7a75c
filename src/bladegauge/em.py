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

from .blade import blade_from_frame
from .errors import ChartError, ParameterError
from .fields import (FieldFn, Form, Spacetime, SPHERICAL3, _any, _linear, _worst_point, constant,
                     coordinate, cos_of, exp_i, linear, matrix_of, one_form, sin_of)
from .gauge import gauge_potential
from .linalg import max_abs
from .tolerances import DEFAULT as TOL

__all__ = [
    "EmFrameParams", "em_frame", "em_complement",
    "em_potential_residual", "em_faraday", "plane_wave_params",
    "plane_wave_potential", "plane_wave_mod_condition",
    "monopole_potential", "monopole_params", "monopole_blade",
    "monopole_field_strength", "monopole_b_field", "monopole_blade_glue", "GlueReport",
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


def em_frame(params: EmFrameParams) -> FieldFn:
    """V = (e^{i alpha} cos rho, e^{i beta} sin rho)^T; orthonormal by construction."""
    top = exp_i(params.alpha) * cos_of(params.rho)
    bottom = exp_i(params.beta) * sin_of(params.rho)
    return matrix_of([[top], [bottom]])


def em_complement(params: EmFrameParams) -> FieldFn:
    """The complement W = (-e^{-i beta} sin rho, e^{-i alpha} cos rho)^T.

    This particular phase choice makes the complementary connection come out
    as C = -A exactly; other unit complements differ by a phase and shift C
    by an exact gradient.
    """
    top = (-1.0) * (exp_i((-1.0) * params.beta) * sin_of(params.rho))
    bottom = exp_i((-1.0) * params.alpha) * cos_of(params.rho)
    return matrix_of([[top], [bottom]])


def em_potential_residual(params: EmFrameParams, a: Form, mu, x):
    """|cos^2 rho d_mu alpha + sin^2 rho d_mu beta - A_mu| at x, or at each point of a stack."""
    r = params.rho(x)
    # c * c, not c ** 2: numpy's array power and its scalar power round
    # differently, and stacked values must equal single-point ones
    c, s = np.cos(r), np.sin(r)
    lhs = c * c * params.alpha.d(x, mu) + s * s * params.beta.d(x, mu)
    return np.abs(lhs - a.at(x, mu)[..., 0, 0])


def em_faraday(params: EmFrameParams) -> Form:
    """F = d(cos^2 rho) wedge d(alpha - beta), componentwise."""
    c2 = cos_of(params.rho) * cos_of(params.rho)
    delta = params.alpha - params.beta
    return Form(params.spacetime, 2, lambda mu, nu: (c2.partial(mu) * delta.partial(nu)
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


def plane_wave_potential(spacetime: Spacetime, k, n) -> Form:
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

def _pole_guarded_phi_component(g, sign):
    """A_phi = g (sign - cos theta) with the excluded pole fenced off."""
    theta = coordinate(SPHERICAL3, 1)

    def checked(x, t):
        # sign * theta peaks at the point deepest toward the excluded pole
        if _any(t > np.pi - TOL.pole_guard if sign > 0 else t < TOL.pole_guard):
            i, point = _worst_point(sign * t, x)
            pole = "theta = pi" if sign > 0 else "theta = 0"
            raise ChartError(f"{'plus' if sign > 0 else 'minus'}-patch potential undefined "
                             f"near {pole} at {point} (theta={np.asarray(t)[i]})")
        return t

    guarded = _linear(lambda m: m, (), theta, value=checked)
    return matrix_of([[g * (constant(sign, SPHERICAL3) - cos_of(guarded))]])


def monopole_potential(g, patch) -> Form:
    """A^(+-) = g (+-1 - cos theta) d phi on the spherical chart."""
    sign = _patch_sign(patch)
    zero = constant(np.zeros((1, 1), dtype=complex), SPHERICAL3)
    return one_form(SPHERICAL3, [zero, zero, _pole_guarded_phi_component(g, sign)])


def monopole_params(g, patch) -> EmFrameParams:
    """alpha+ = 0, beta+ = 2 g phi (and the mirrored minus patch); rho = theta / 2."""
    phi = coordinate(SPHERICAL3, 2)
    theta = coordinate(SPHERICAL3, 1)
    zero = constant(0.0, SPHERICAL3)
    alpha, beta = (zero, 2.0 * g * phi) if _patch_sign(patch) > 0 else (-2.0 * g * phi, zero)
    return EmFrameParams(alpha=alpha, beta=beta, rho=0.5 * theta)


def _patch_sign(patch):
    """+1 on the "plus" patch, -1 on the "minus" patch; no other patch exists."""
    if patch not in ("plus", "minus"):
        raise ParameterError(f"unknown monopole patch {patch!r}; expected 'plus' or 'minus'")
    return 1.0 if patch == "plus" else -1.0


def monopole_blade(g) -> FieldFn:
    """The patch-independent rotating blade of the monopole."""
    return blade_from_frame(em_frame(monopole_params(g, "plus")))


def monopole_field_strength(g) -> Form:
    """F = g sin theta d theta wedge d phi, identical on both patches."""
    return em_faraday(monopole_params(g, "plus"))


def monopole_b_field(g, xyz):
    """The radial field B = g x / r^3 in cartesian coordinates at a point or a (..., 3) stack."""
    xyz = np.asarray(xyz, dtype=float)
    r = np.linalg.norm(xyz, axis=-1, keepdims=True)
    if _any(r == 0.0):
        i, _ = _worst_point(r[..., 0] == 0.0, xyz)
        where = f" (stack index {list(map(int, i))})" if i else ""
        raise ChartError(f"the monopole field is singular at the origin{where}")
    return g * xyz / r ** 3


def quantization_satisfied(g):
    """Whether 2g is an integer to within 1e-12."""
    return abs(2.0 * g - round(2.0 * g)) <= 1e-12


@dataclass(frozen=True)
class GlueReport:
    single_valued: bool
    max_patch_mismatch: float
    max_winding_mismatch: float


def monopole_blade_glue(g) -> GlueReport:
    """Build the blade and test patch agreement and single-valuedness.

    Patch agreement compares R built from the plus and minus parametrizations
    on the overlap band, 32 values of theta between the pole guards;
    single-valuedness compares R at phi and phi + 2 pi, both within TOL.gluing.
    Non-quantized g comes back single_valued = False, not an error.
    """
    blade_plus = monopole_blade(g)
    blade_minus = blade_from_frame(em_frame(monopole_params(g, "minus")))
    guard = TOL.pole_guard
    th, ph = np.meshgrid(np.linspace(guard, np.pi - guard, 32), (0.0, 1.1, 3.7), indexing="ij")
    x = np.stack([np.ones_like(th), th, ph], axis=-1)
    x_wound = np.stack([np.ones_like(th), th, ph + 2.0 * np.pi], axis=-1)
    r = blade_plus(x)
    patch_mismatch = max_abs(r - blade_minus(x))
    winding_mismatch = max_abs(blade_plus(x_wound) - r)
    single = patch_mismatch <= TOL.gluing and winding_mismatch <= TOL.gluing
    return GlueReport(single, patch_mismatch, winding_mismatch)
