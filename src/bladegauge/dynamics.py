"""Actions and equation-of-motion residuals for the three dynamical systems.

Residual evaluators keep the Lorentzian signature of the fields they receive;
the sigma-model gradient flow runs in Euclidean (all-plus) signature, where
minus a quarter of the trace density is a genuine Dirichlet energy and
gradient descent makes sense.  The modified equation of motion is implemented
as the nu-summed divergence, exactly as displayed; the report headers record
this index handling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blade import (blade_curvature, blade_from_frame, extract_potential, projector,
                    shape_operator)
from .em import EmFrameParams, em_faraday, em_frame
from .errors import DivergenceError, ParameterError
from .fields import FieldFn, Form, Grid, lattice_integral
from .gauge import covariant_derivative_matrix, field_strength
from .linalg import _matmul_small, dagger, hermitian_part, unitary_exp

__all__ = [
    "ym_residual", "ym_action", "sigma_action", "modified_eom_residual",
    "maxwell_mod_residual", "shape_gauge_ym_residual", "sigma_eom_residual",
    "LatticeBlade", "blade_lattice_from_field", "sigma_lattice_energy",
    "sigma_lattice_gradient", "sigma_flow", "conjugate_sites",
]

INDEX_HANDLING_NOTE = ("modified EOM evaluated as the nu-summed divergence "
                       "sum_nu d^nu ( V (D^mu F_mu nu) V^dag ); "
                       "indices raised with the diagonal flat metric")


# ---------------------------------------------------------------------------
# continuum residuals

def ym_residual(a: Form, nu, x, fs: Form = None):
    """D^mu F_mu nu at x: sum_mu sign(mu) (d_mu F_mu nu + i [A_mu, F_mu nu])."""
    fs = field_strength(a) if fs is None else fs
    st = a.spacetime
    total = 0
    for mu in range(st.dim):
        if mu != nu:
            total += st.raise_sign(mu) * covariant_derivative_matrix(
                a, fs.component(mu, nu), mu, x)
    return total


def ym_action(a: Form, grid: Grid):
    """-1/4 integral Tr(F_mu nu F^mu nu) by the midpoint rule."""
    fs = field_strength(a)
    st = a.spacetime

    def density(x):
        total = 0.0
        for mu, nu in itertools.combinations(range(st.dim), 2):
            f = fs.at(x, mu, nu)
            total += (st.raise_sign(mu) * st.raise_sign(nu)
                      * np.trace(f @ f, axis1=-2, axis2=-1).real)
        return -0.5 * total  # both index orders of the antisymmetric pair

    return lattice_integral(FieldFn(st, (), density), grid)


def sigma_action(r: FieldFn, grid: Grid):
    """-1/4 integral Tr(dR d R) with one index raised."""
    st = r.spacetime

    def density(x):
        total = 0.0
        for mu in range(st.dim):
            dr = r.d(x, mu)
            total += st.raise_sign(mu) * np.trace(dr @ dr, axis1=-2, axis2=-1).real
        return -0.25 * total

    return lattice_integral(FieldFn(st, (), density), grid)


def modified_eom_residual(v: FieldFn, x):
    """sum_nu d^nu ( V (D^mu F_mu nu) V^dag ) at x.

    Solutions of the Yang-Mills equations annihilate the inner bracket and
    remain solutions here; the converse fails, which is the point.  Third
    derivatives of V enter through nested stencils, so compare against the
    widened nested-FD budget.
    """
    st = v.spacetime
    a = extract_potential(v)
    fs = field_strength(a)

    def inner(nu):
        def fn(y):
            return v(y) @ ym_residual(a, nu, y, fs) @ dagger(v(y))
        return FieldFn(st, (v.shape[0],) * 2, fn, None, None, v.fd_step)

    total = 0
    for nu in range(st.dim):
        total += st.raise_sign(nu) * inner(nu).d(x, nu)
    return total


def maxwell_mod_residual(params: EmFrameParams, x):
    """(d^mu F_mu nu) d^nu R for the N = 2 electromagnetic frame."""
    st = params.spacetime
    fs = em_faraday(params)
    r = blade_from_frame(em_frame(params))
    total = 0
    for nu in range(st.dim):
        j_nu = 0.0
        for mu in range(st.dim):
            if mu == nu:
                continue
            j_nu += st.raise_sign(mu) * fs.component(mu, nu).d(x, mu)
        j_nu = np.asarray(j_nu, dtype=complex)[..., None, None]
        total += st.raise_sign(nu) * j_nu * r.d(x, nu)
    return total


def shape_gauge_ym_residual(v: FieldFn, x, nu):
    """P D^mu Omega_mu nu at x: the shape-gauge image of the YM equations.

    S is the connection and Omega its curvature, so this is P times the
    Yang-Mills residual of S.
    """
    r = blade_from_frame(v)
    return projector(r)(x) @ ym_residual(shape_operator(r), nu, x, blade_curvature(r))


def sigma_eom_residual(r: FieldFn, x):
    """d_mu S^mu at x."""
    s = shape_operator(r)
    st = r.spacetime
    total = 0
    for mu in range(st.dim):
        total += st.raise_sign(mu) * s.component(mu).d(x, mu)
    return total


# ---------------------------------------------------------------------------
# sigma-model lattice flow

@dataclass
class LatticeBlade:
    """Reflection-valued field sampled on a uniform lattice.

    frozen marks Dirichlet sites that the flow must not move; axes flagged
    periodic wrap, open axes lose the link past their last layer.
    """

    sites: np.ndarray        # (*grid_shape, N, N) complex
    spacings: tuple
    periodic: tuple
    frozen: np.ndarray = None

    def __post_init__(self):
        shape = np.shape(self.sites)
        grid, axes = shape[:-2], len(shape) - 2
        if axes < 1 or shape[-1] != shape[-2]:
            raise ParameterError(f"lattice sites must be shaped (*grid, N, N); got {shape}")
        if len(self.spacings) != axes or not all(np.isfinite(h) and h > 0
                                                 for h in self.spacings):
            raise ParameterError(f"a {axes}-axis lattice needs {axes} finite positive "
                                 f"spacings; got {list(self.spacings)}")
        if len(self.periodic) != axes:
            raise ParameterError(f"a {axes}-axis lattice needs {axes} periodic flags; "
                                 f"got {list(self.periodic)}")
        if self.frozen is not None and np.shape(self.frozen) != grid:
            raise ParameterError(f"frozen mask shaped {np.shape(self.frozen)} on a "
                                 f"lattice grid shaped {grid}")

    @property
    def grid_shape(self):
        return self.sites.shape[:-2]

    @property
    def N(self):
        return self.sites.shape[-1]

    @property
    def ndim_lattice(self):
        return len(self.grid_shape)

    @property
    def cell_volume(self):
        return float(math.prod(self.spacings))

    def copy(self):
        return LatticeBlade(self.sites.copy(), self.spacings, self.periodic,
                            None if self.frozen is None else self.frozen.copy())

    def reflection_defect(self):
        """Max per-site deviation of R^2 from the identity."""
        prod = _matmul_small(self.sites, self.sites)
        return float(np.max(np.abs(prod - np.eye(self.N))))


def blade_lattice_from_field(blade: FieldFn, grid: Grid, point_map=None,
                             periodic=None, frozen_boundary_axes=()) -> LatticeBlade:
    """Sample a blade field on grid centers.

    point_map lifts one lattice point to a spacetime point (defaults to
    identity, requiring grid.dim == spacetime.dim).  Axes in
    frozen_boundary_axes get their outermost layers marked frozen.
    """
    shape = tuple(grid.cells)
    pts = grid.centers()
    if point_map is not None:
        # callers write point_map for one point; the blade takes the mapped stack
        pts = np.array([point_map(p) for p in pts], dtype=float)
    sites = np.array(blade(pts), dtype=complex).reshape(shape + blade.shape)
    periodic = tuple(False for _ in shape) if periodic is None else tuple(periodic)
    frozen = np.zeros(shape, dtype=bool)
    for ax in frozen_boundary_axes:
        np.moveaxis(frozen, ax, 0)[[0, -1]] = True
    return LatticeBlade(sites, grid.spacings, periodic, frozen)


def _link_differences(lat: LatticeBlade, axis):
    """R_{s+e} - R_s on each link along axis; periodic axes wrap, open ones lose a layer."""
    if not lat.periodic[axis]:
        return np.diff(lat.sites, axis=axis)
    return np.diff(lat.sites, axis=axis, append=lat.sites.take([0], axis=axis))


def sigma_lattice_energy(lat: LatticeBlade):
    """Euclidean link energy (vol/4) sum_{axes e, links} Tr((R_{s+e} - R_s)^2) / h_e^2.

    Nearest neighbours couple, as in the standard lattice sigma-model action.
    A link difference D of Hermitian sites is Hermitian, so Tr(D^2) is the sum
    of squares sum_ij |D_ij|^2: one np.vdot per axis, nonnegative.  The
    all-plus convention makes gradient descent meaningful.
    """
    total = 0.0
    for ax in range(lat.ndim_lattice):
        d = _link_differences(lat, ax)
        total += float(np.vdot(d, d).real) / lat.spacings[ax] ** 2
    return 0.25 * lat.cell_volume * total


def sigma_lattice_gradient(lat: LatticeBlade):
    """Gradient of the lattice energy w.r.t. per-site conjugation generators.

    For the variation R_s -> e^{i eps B_s} R_s e^{-i eps B_s}, the energy
    changes by eps * sum_s Tr(G_s B_s) with G_s = -(vol/2) i [R_s, L_s] and
    L_s = sum_e (D_s - D_{s-e}) / h_e^2 the Laplacian of the energy's link
    differences D; it differs from the neighbour sum by a multiple of R_s.
    With X = R L, G = -(vol/2) i (X - X^dag) is Hermitian to the last bit.
    Frozen sites enter their neighbours' L_s, so Dirichlet data drive the flow.
    """
    lap = np.zeros_like(lat.sites)
    for ax in range(lat.ndim_lattice):
        d = _link_differences(lat, ax)
        d *= 1.0 / lat.spacings[ax] ** 2
        # site s has the link to s + e (d[s]) and the link from s - e (d[s - 1])
        lap_ax, d_ax = lap.swapaxes(0, ax), d.swapaxes(0, ax)
        lap_ax[:len(d_ax)] += d_ax
        lap_ax[1:] -= d_ax[:len(lap_ax) - 1]
        if lat.periodic[ax]:
            lap_ax[0] -= d_ax[-1]
    x = _matmul_small(lat.sites, lap)
    return -0.5j * lat.cell_volume * (x - dagger(x))


def conjugate_sites(lat: LatticeBlade, b, eps=1.0) -> LatticeBlade:
    """R_s -> e^{i eps b_s} R_s e^{-i eps b_s} (frozen sites move too: test use)."""
    u = unitary_exp(hermitian_part(b), eps)
    out = lat.copy()
    out.sites = u @ lat.sites @ dagger(u)
    return out


def sigma_flow(lat: LatticeBlade, steps, eta):
    """Gradient descent by per-site unitary conjugation.

    Each step conjugates the whole site stack at once by exp(-i eta G_s), with
    G_s the energy gradient, zeroed on frozen sites so that their factor is exactly
    I.  R^2 = I is preserved exactly and the energy trace is non-increasing for
    small enough eta; the one-sided e^{-2i eta G} R lets R - R^dag grow about 1000x
    per 100 steps.  The exactly Hermitian G goes to `unitary_exp` (N = 2: closed
    form, no eigh) as it is.  Ten consecutive increasing steps raise DivergenceError.
    Returns the final lattice and the energy trace: the start, then one per step.
    """
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")
    if not 0 < eta < np.inf:
        raise ParameterError(f"eta must be finite and positive, got {eta}")
    current = lat.copy()
    best = sigma_lattice_energy(current)
    trace = [best]
    bad_streak = 0
    for step in range(steps):
        grad = sigma_lattice_gradient(current)
        if current.frozen is not None:
            grad[current.frozen] = 0.0
        u = unitary_exp(grad, -eta)
        current.sites = _matmul_small(_matmul_small(u, current.sites), dagger(u))
        energy = sigma_lattice_energy(current)
        # a descending flow sets a new best (or plateaus) every step; staying
        # above the best energy for many steps means eta overshoots
        if energy > best + 1e-14 * (1.0 + abs(best)):
            bad_streak += 1
            if bad_streak > 10:
                raise DivergenceError(
                    f"energy stayed above its best value for {bad_streak} "
                    f"consecutive steps; reduce eta (currently {eta})")
        else:
            bad_streak = 0
            best = min(best, energy)
        trace.append(energy)
    return current, trace
