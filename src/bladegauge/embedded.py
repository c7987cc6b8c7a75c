"""Rotating blades of real embedded surfaces.

A d-dimensional manifold embedded in R^N by f has tangent vectors f_mu, the
tangent projector P = F g^-1 F^T (F the N x d matrix of the f_mu, g = F^T F
the induced metric) and the Gauss map R = 2P - I.  `embedded_blade` returns
R as a `blade.RotatingBlade`, so the shape operator, the curvature and its
four-way check, the shape identity and the covariant derivative of a real
surface are the `blade` functions themselves.

Convention: `blade` uses the Hermitian S_mu = -(i/2) R dR and
Omega = -i [S_mu, S_nu].  The real (skew) shape operator of surface theory
is S_real = (1/2) R dR = i S, and its curvature is
Omega_real = -[S_real_mu, S_real_nu] = i Omega, whose tangent part is the
Riemann tensor, R_{rho sigma mu nu} = f_rho . (Omega_real f_sigma).
`riemann_component` applies the factor i.

An independent intrinsic (Christoffel-symbol) oracle is included for
acceptance cross-checks; it differentiates only the induced metric and is
test infrastructure, not part of the modelling API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blade import RotatingBlade, blade_curvature
from .errors import ChartError
from .fields import FieldFn, _any, _worst_point, euclidean, identity_field

__all__ = [
    "Embedding", "plane", "sphere", "cylinder", "torus",
    "tangent_frame", "induced_metric", "embedded_blade", "riemann_component",
    "christoffel_riemann", "gauss_curvature",
]


@dataclass(frozen=True)
class Embedding:
    """Smooth real f: R^d -> R^N, (N,)-valued, with independent tangent vectors f_mu.

    d is f.spacetime.dim and N is f.shape[0].  jac(x) -> (..., N, d) and
    hess(x) -> (..., N, d, d), when given, give a point stack's Jacobian and
    Hessian in one evaluation; without them both come from f's derivatives.
    """

    f: FieldFn
    jac: object = None
    hess: object = None


def _chart_field(d, N, value, jac, hess):
    """The chart of value, Jacobian and Hessian functions of a (..., d) point stack."""
    f = FieldFn(euclidean(d), (N,), value, lambda x, mu: jac(x)[..., mu],
                lambda x, mu, nu: hess(x)[..., mu, nu])
    return Embedding(f, jac, hess)


def _at(x, entries):
    """np.array(entries) at each point of the stack x; leaves are arrays over it or numbers."""
    if x.ndim == 1:
        return np.array(entries)
    if isinstance(entries, list):
        return np.stack([_at(x, e) for e in entries], axis=x.ndim - 1)
    return np.broadcast_to(entries, x.shape[:-1])


def plane():
    """f(u, v) = (u, v, 0)."""
    def value(x):
        return _at(x, [x[..., 0], x[..., 1], 0.0])

    def jac(x):
        return _at(x, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def hess(x):
        return _at(x, [[[0.0, 0.0], [0.0, 0.0]]] * 3)

    return _chart_field(2, 3, value, jac, hess)


def sphere(a=1.0):
    """Radius-a sphere in the (theta, phi) chart."""
    def value(x):
        th, ph = x[..., 0], x[..., 1]
        return a * _at(x, [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])

    def jac(x):
        th, ph = x[..., 0], x[..., 1]
        return a * _at(x, [
            [np.cos(th) * np.cos(ph), -np.sin(th) * np.sin(ph)],
            [np.cos(th) * np.sin(ph), np.sin(th) * np.cos(ph)],
            [-np.sin(th), 0.0],
        ])

    def hess(x):
        th, ph = x[..., 0], x[..., 1]
        return a * _at(x, [
            [[-np.sin(th) * np.cos(ph), -np.cos(th) * np.sin(ph)],
             [-np.cos(th) * np.sin(ph), -np.sin(th) * np.cos(ph)]],
            [[-np.sin(th) * np.sin(ph), np.cos(th) * np.cos(ph)],
             [np.cos(th) * np.cos(ph), -np.sin(th) * np.sin(ph)]],
            [[-np.cos(th), 0.0], [0.0, 0.0]],
        ])

    return _chart_field(2, 3, value, jac, hess)


def cylinder():
    """f(u, v) = (cos u, sin u, v); flat metric, nonzero shape operator."""
    def value(x):
        return _at(x, [np.cos(x[..., 0]), np.sin(x[..., 0]), x[..., 1]])

    def jac(x):
        return _at(x, [[-np.sin(x[..., 0]), 0.0], [np.cos(x[..., 0]), 0.0], [0.0, 1.0]])

    def hess(x):
        return _at(x, [[[-np.cos(x[..., 0]), 0.0], [0.0, 0.0]],
                       [[-np.sin(x[..., 0]), 0.0], [0.0, 0.0]],
                       [[0.0, 0.0], [0.0, 0.0]]])

    return _chart_field(2, 3, value, jac, hess)


def torus(rmaj=2.0, rmin=0.5):
    """Standard torus; Gauss curvature cos v / (rmin (rmaj + rmin cos v))."""
    def value(x):
        u, v = x[..., 0], x[..., 1]
        w = rmaj + rmin * np.cos(v)
        return _at(x, [w * np.cos(u), w * np.sin(u), rmin * np.sin(v)])

    def jac(x):
        u, v = x[..., 0], x[..., 1]
        w = rmaj + rmin * np.cos(v)
        return _at(x, [
            [-w * np.sin(u), -rmin * np.sin(v) * np.cos(u)],
            [w * np.cos(u), -rmin * np.sin(v) * np.sin(u)],
            [0.0, rmin * np.cos(v)],
        ])

    def hess(x):
        u, v = x[..., 0], x[..., 1]
        w = rmaj + rmin * np.cos(v)
        return _at(x, [
            [[-w * np.cos(u), rmin * np.sin(v) * np.sin(u)],
             [rmin * np.sin(v) * np.sin(u), -rmin * np.cos(v) * np.cos(u)]],
            [[-w * np.sin(u), -rmin * np.sin(v) * np.cos(u)],
             [-rmin * np.sin(v) * np.cos(u), -rmin * np.cos(v) * np.sin(u)]],
            [[0.0, 0.0], [0.0, -rmin * np.sin(v)]],
        ])

    return _chart_field(2, 3, value, jac, hess)


# ---------------------------------------------------------------------------
# the blade of the tangent projector

def tangent_frame(emb: Embedding, x):
    """N x d matrix of tangent vectors f_mu."""
    x = np.asarray(x, dtype=float)
    if emb.jac is not None:
        return emb.jac(x)
    return np.stack([np.real(emb.f.d(x, mu)) for mu in range(emb.f.spacetime.dim)], axis=-1)


def _tangent_derivative(emb: Embedding, x, mu):
    """N x d matrix of the d_mu f_nu."""
    if emb.hess is not None:
        return emb.hess(x)[..., mu]
    return np.stack([np.real(emb.f.d2(x, nu, mu)) for nu in range(emb.f.spacetime.dim)],
                    axis=-1)


def induced_metric(emb: Embedding, x, cond_limit=1e8):
    """g_mu nu = f_mu . f_nu; raises on a numerically degenerate chart."""
    return _metric(tangent_frame(emb, x), x, cond_limit)


def _metric(fr, x, cond_limit=1e8):
    g = fr.mT @ fr
    cond = np.linalg.cond(g)
    if _any(cond > cond_limit):
        _, point = _worst_point(cond, x)
        raise ChartError(f"degenerate chart at {point}: metric condition number too large")
    return g


def _projector_field(emb: Embedding) -> FieldFn:
    """P = F g^-1 F^T; d_mu P in closed form when the chart has a Hessian."""
    f = emb.f

    def fn(x):
        fr = tangent_frame(emb, x)
        return fr @ np.linalg.solve(_metric(fr, x), fr.mT)

    def deriv(x, mu):
        fr, dfr = tangent_frame(emb, x), _tangent_derivative(emb, x, mu)
        frt, dfrt = fr.mT, dfr.mT
        ginv = np.linalg.inv(frt @ fr)
        dginv = -ginv @ (dfrt @ fr + frt @ dfr) @ ginv
        return dfr @ ginv @ frt + fr @ dginv @ frt + fr @ ginv @ dfrt

    analytic = emb.hess is not None or f.deriv2 is not None
    return FieldFn(f.spacetime, (f.shape[0],) * 2, fn, deriv if analytic else None, None,
                   f.fd_step)


def embedded_blade(emb: Embedding) -> RotatingBlade:
    """The Gauss map as a rotating blade: R = 2P - I, P the tangent projector."""
    st, N = emb.f.spacetime, emb.f.shape[0]
    R = 2.0 * _projector_field(emb) - identity_field(st, N)
    return RotatingBlade(st, N, st.dim, R)


def riemann_component(emb: Embedding, x, rho, sigma, mu, nu):
    """R_{rho sigma mu nu} = f_rho . (Omega_real_mu nu f_sigma), Omega_real = i Omega."""
    fr = tangent_frame(emb, x)
    omega = blade_curvature(embedded_blade(emb)).at(x, mu, nu)
    return float(np.real(fr[:, rho] @ (1j * omega) @ fr[:, sigma]))


def gauss_curvature(emb: Embedding, x):
    """R_0101 / det g for two-dimensional charts."""
    if emb.f.spacetime.dim != 2:
        raise ChartError("gauss_curvature requires a 2d chart")
    g = induced_metric(emb, x)
    return riemann_component(emb, x, 0, 1, 0, 1) / float(np.linalg.det(g))


# ---------------------------------------------------------------------------
# intrinsic oracle (test infrastructure)

def christoffel_riemann(metric_fn, x, h=1e-4):
    """All-lower Riemann tensor from a metric function alone (d = 2).

    Conventions: Gamma^a_{bc} = (1/2) g^{ad} (d_b g_dc + d_c g_db - d_d g_bc),
    R^a_{b mu nu} = d_mu Gamma^a_{nu b} - d_nu Gamma^a_{mu b}
                    + Gamma^a_{mu e} Gamma^e_{nu b} - Gamma^a_{nu e} Gamma^e_{mu b},
    lowered with g.  Metric derivatives by central differences of step h; the
    only input is the metric, so this is independent of the shape-operator path.
    """
    x = np.asarray(x, dtype=float)
    d = len(x)

    def dg(y, c):
        e = np.zeros(d)
        e[c] = h
        return (np.asarray(metric_fn(y + e)) - np.asarray(metric_fn(y - e))) / (2.0 * h)

    def gamma(y):
        g = np.asarray(metric_fn(y))
        ginv = np.linalg.inv(g)
        dgs = np.stack([dg(y, c) for c in range(d)], axis=0)  # dgs[c] = d_c g
        out = np.zeros((d, d, d))
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    out[a, b, c] = 0.5 * sum(
                        ginv[a, e] * (dgs[b][e, c] + dgs[c][e, b] - dgs[e][b, c])
                        for e in range(d))
        return out

    def dgamma(y, c):
        e = np.zeros(d)
        e[c] = h
        return (gamma(y + e) - gamma(y - e)) / (2.0 * h)

    gam = gamma(x)
    dgam = np.stack([dgamma(x, c) for c in range(d)], axis=0)
    riem_up = np.zeros((d, d, d, d))
    for a in range(d):
        for b in range(d):
            for mu in range(d):
                for nu in range(d):
                    val = dgam[mu][a, nu, b] - dgam[nu][a, mu, b]
                    val += sum(gam[a, mu, e] * gam[e, nu, b]
                               - gam[a, nu, e] * gam[e, mu, b] for e in range(d))
                    riem_up[a, b, mu, nu] = val
    g = np.asarray(metric_fn(x))
    return np.einsum("ae,ebmn->abmn", g, riem_up)
