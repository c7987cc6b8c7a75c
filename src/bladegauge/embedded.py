"""Rotating blades of real embedded surfaces.

A chart is a real (N,)-valued `FieldFn` f on euclidean(d) whose tangent
vectors f_mu are independent.  The built-in charts (plane, sphere, cylinder,
torus) are `vector_of` pipelines, so the `fields` rules give their first and
second derivatives; a chart without them takes finite differences.

A d-dimensional manifold embedded in R^N by f has tangent vectors f_mu, the
tangent projector P = F g^-1 F^T (F the N x d matrix of the f_mu, g = F^T F
the induced metric) and the Gauss map R = 2P - I.  `embedded_blade` returns
R, an N x N reflection field, so the shape operator, the curvature and its
four-way check, the shape identity and the covariant derivative of a real
surface are the `blade` functions themselves.

Convention: `blade` uses the Hermitian S_mu = -(i/2) R dR and
Omega = -i [S_mu, S_nu].  The real (skew) shape operator of surface theory
is S_real = (1/2) R dR = i S, and its curvature is
Omega_real = -[S_real_mu, S_real_nu] = i Omega, whose tangent part is the
Riemann tensor, R_{rho sigma mu nu} = f_rho . (Omega_real f_sigma).
`riemann_component` applies the factor i.

Every function takes a point or a (..., 2) stack of chart points.  The intrinsic
oracle `christoffel_gauss_curvature` differentiates only the induced metric; it is
test infrastructure for acceptance cross-checks, not part of the modelling API.
"""

from __future__ import annotations

import numpy as np

from .blade import blade_curvature
from .errors import ChartError
from .fields import (FieldFn, _any, _jet, _memo, _node, _pairs, _worst_point, constant,
                     coordinate, cos_of, euclidean, identity_field, sin_of, vector_of)

__all__ = [
    "plane", "sphere", "cylinder", "torus",
    "tangent_frame", "induced_metric", "embedded_blade", "riemann_component",
    "gauss_curvature", "christoffel_gauss_curvature",
]


def _chart_coordinates():
    """The two coordinate fields of a surface chart on the (u, v) plane."""
    st = euclidean(2)
    return coordinate(st, 0), coordinate(st, 1)


def plane():
    """f(u, v) = (u, v, 0)."""
    u, v = _chart_coordinates()
    return vector_of([u, v, 0.0])


def sphere(a=1.0):
    """Radius-a sphere in the (theta, phi) chart."""
    th, ph = _chart_coordinates()
    return a * vector_of([sin_of(th) * cos_of(ph), sin_of(th) * sin_of(ph), cos_of(th)])


def cylinder():
    """f(u, v) = (cos u, sin u, v); flat metric, nonzero shape operator."""
    u, v = _chart_coordinates()
    return vector_of([cos_of(u), sin_of(u), v])


def torus(rmaj=2.0, rmin=0.5):
    """Standard torus; Gauss curvature cos v / (rmin (rmaj + rmin cos v))."""
    u, v = _chart_coordinates()
    w = constant(rmaj, u.spacetime) + rmin * cos_of(v)
    return vector_of([w * cos_of(u), w * sin_of(u), rmin * sin_of(v)])


# ---------------------------------------------------------------------------
# the blade of the tangent projector

def tangent_frame(f: FieldFn, x):
    """N x d matrix of tangent vectors f_mu."""
    x = np.asarray(x, dtype=float)
    return np.stack(np.real(_jet(f, x, _memo(x), ())[1]), axis=-1)


def induced_metric(f: FieldFn, x):
    """g_mu nu = f_mu . f_nu; ChartError where its condition number exceeds 1e8."""
    return _metric(tangent_frame(f, x), x)


def _metric(fr, x):
    g = fr.mT @ fr
    cond = np.linalg.cond(g)
    if _any(cond > 1e8):
        _, point = _worst_point(cond, x)
        raise ChartError(f"degenerate chart at {point}: metric condition number too large")
    return g


def _projector_field(f: FieldFn) -> FieldFn:
    """P = F g^-1 F^T; d_mu P in closed form when the chart has analytic second derivatives."""
    dim = f.spacetime.dim
    # d_mu f_nu for every (mu, nu), mu the slower index
    pairs = _pairs([(nu, mu) for mu in range(dim) for nu in range(dim)])

    def rule(x, memo, want):
        _, d1, d2 = _jet(f, x, memo, () if want is None else pairs)
        fr = np.stack(np.real(d1), axis=-1)  # a new C-order stack, as matmul's BLAS path reads
        value = fr @ np.linalg.solve(_metric(fr, x), fr.mT)
        if want is None:
            return value, None, None
        dfr = np.stack(np.real(d2).reshape((dim, dim) + d2.shape[1:]).swapaxes(0, 1), axis=-1)
        frt, dfrt = fr.mT, dfr.mT
        ginv = np.linalg.inv(frt @ fr)
        dginv = -ginv @ (dfrt @ fr + frt @ dfr) @ ginv
        return value, dfr @ ginv @ frt + fr @ dginv @ frt + fr @ ginv @ dfrt, None

    return _node(f.spacetime, (f.shape[0],) * 2, f.order // 2, rule, f.fd_step, (f,))


def embedded_blade(f: FieldFn) -> FieldFn:
    """The Gauss map as a rotating blade: R = 2P - I, P the tangent projector."""
    return 2.0 * _projector_field(f) - identity_field(f.spacetime, f.shape[0])


def riemann_component(f: FieldFn, x, rho, sigma, mu, nu):
    """R_{rho sigma mu nu} = f_rho . (Omega_real_mu nu f_sigma), Omega_real = i Omega."""
    fr = tangent_frame(f, x)
    omega = blade_curvature(embedded_blade(f)).at(x, mu, nu)
    return np.real(fr[..., None, :, rho] @ (1j * omega) @ fr[..., :, sigma, None])[..., 0, 0]


def _require_surface(f: FieldFn, what):
    if f.spacetime.dim != 2:
        raise ChartError(f"{what} requires a 2d chart")


def gauss_curvature(f: FieldFn, x):
    """R_0101 / det g for two-dimensional charts."""
    _require_surface(f, "gauss_curvature")
    g = induced_metric(f, x)
    return riemann_component(f, x, 0, 1, 0, 1) / np.linalg.det(g)


# ---------------------------------------------------------------------------
# intrinsic oracle (test infrastructure)

_ORACLE_STEP = 1e-4
# a point and its neighbours one step along +u, -u, +v, -v
_STENCIL = _ORACLE_STEP * np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _central_differences(a, axis):
    """(d_u a, d_v a) from values on the _STENCIL laid out along `axis`."""
    return (np.take(a, (1, 3), axis) - np.take(a, (2, 4), axis)) / (2.0 * _ORACLE_STEP)


def christoffel_gauss_curvature(f: FieldFn, x):
    """Gauss curvature R_0101 / det g of a 2d chart from its induced metric alone.

    Conventions: Gamma^a_{bc} = (1/2) g^{ae} (d_b g_ec + d_c g_eb - d_e g_bc),
    R^a_{b mu nu} = d_mu Gamma^a_{nu b} - d_nu Gamma^a_{mu b}
                    + Gamma^a_{mu e} Gamma^e_{nu b} - Gamma^a_{nu e} Gamma^e_{mu b},
    lowered with g.  In two dimensions R_{ab mu nu} = K (g_a mu g_b nu - g_a nu g_b mu),
    so K carries the whole tensor.  Gamma and its derivatives are central
    differences of step _ORACLE_STEP, nested once, from one metric evaluation
    on the 25 stencil points of each point of the stack x; the only input is the
    metric, so this is independent of the shape-operator path.
    """
    _require_surface(f, "christoffel_gauss_curvature")
    y = np.asarray(x, dtype=float)[..., None, :] + _STENCIL
    g = induced_metric(f, y[..., :, None, :] + _STENCIL)  # (..., 5, 5, 2, 2)
    dg = _central_differences(g, -3)  # dg[..., j, c, e, b] = d_c g_eb at y_j
    terms = dg + np.einsum("...ceb->...bec", dg) - np.einsum("...ebc->...bec", dg)
    gamma = 0.5 * np.einsum("...ae,...bec->...abc", np.linalg.inv(g[..., :, 0, :, :]), terms)
    dgamma = _central_differences(gamma, -4)  # dgamma[..., m, a, b, c] = d_m Gamma^a_bc at x
    gamma = gamma[..., 0, :, :, :]
    # e stays free so each e's difference is rounded before the sum over e, as the formula reads
    quadratic = (np.einsum("...ame,...enb->...abmne", gamma, gamma)
                 - np.einsum("...ane,...emb->...abmne", gamma, gamma))
    riem_up = (np.einsum("...manb->...abmn", dgamma) - np.einsum("...namb->...abmn", dgamma)
               + quadratic.sum(axis=-1))
    g = g[..., 0, 0, :, :]
    return np.einsum("...ae,...ebmn->...abmn", g, riem_up)[..., 0, 1, 0, 1] / np.linalg.det(g)
