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
from dataclasses import dataclass

import numpy as np

from .blade import (Frame, RotatingBlade, blade_curvature, blade_from_frame,
                    extract_potential, shape_operator)
from .em import EmFrameParams, em_faraday, em_frame
from .errors import DivergenceError, ParameterError
from .fields import FieldFn, Grid, OneForm, TwoForm, lattice_integral, scalar_field
from .gauge import covariant_derivative_matrix, field_strength
from .linalg import dagger, hermitian_part, unitary_exp

__all__ = [
    "ym_residual", "ym_action", "sigma_action", "modified_eom_residual",
    "maxwell_mod_residual", "shape_gauge_ym_residual", "sigma_eom_residual",
    "LatticeBlade", "blade_lattice_from_field", "sigma_lattice_energy",
    "sigma_lattice_gradient", "sigma_lattice_directional", "sigma_flow",
]

INDEX_HANDLING_NOTE = ("modified EOM evaluated as the nu-summed divergence "
                       "sum_nu d^nu ( V (D^mu F_mu nu) V^dag ); "
                       "indices raised with the diagonal flat metric")


# ---------------------------------------------------------------------------
# continuum residuals

def ym_residual(a: OneForm, nu, x, fs: TwoForm = None):
    """D^mu F_mu nu at x: sum_mu sign(mu) (d_mu F_mu nu + i [A_mu, F_mu nu])."""
    fs = field_strength(a) if fs is None else fs
    st = a.spacetime
    total = np.zeros(a.components[0].shape, dtype=complex)
    for mu in range(st.dim):
        if mu != nu:
            total += st.raise_sign(mu) * covariant_derivative_matrix(
                a, fs.component(mu, nu), mu, x)
    return total


def ym_action(a: OneForm, grid: Grid, fs: TwoForm = None):
    """-1/4 integral Tr(F_mu nu F^mu nu) by the midpoint rule."""
    fs = field_strength(a) if fs is None else fs
    st = a.spacetime

    def density(x):
        total = 0.0
        for mu, nu in itertools.combinations(range(st.dim), 2):
            f = fs.at(x, mu, nu)
            total += st.raise_sign(mu) * st.raise_sign(nu) * np.trace(f @ f).real
        return -0.5 * total  # both index orders of the antisymmetric pair

    return lattice_integral(scalar_field(st, density), grid)


def sigma_action(blade: RotatingBlade, grid: Grid):
    """-1/4 integral Tr(dR d R) with one index raised."""
    st = blade.spacetime

    def density(x):
        total = 0.0
        for mu in range(st.dim):
            dr = blade.R.d(x, mu)
            total += st.raise_sign(mu) * np.trace(dr @ dr).real
        return -0.25 * total

    return lattice_integral(scalar_field(st, density), grid)


def modified_eom_residual(v: Frame, x, a: OneForm = None, fs: TwoForm = None):
    """sum_nu d^nu ( V (D^mu F_mu nu) V^dag ) at x.

    Solutions of the Yang-Mills equations annihilate the inner bracket and
    remain solutions here; the converse fails, which is the point.  Third
    derivatives of V enter through nested stencils, so compare against the
    widened nested-FD budget.
    """
    st = v.spacetime
    a = extract_potential(v) if a is None else a
    fs = field_strength(a) if fs is None else fs

    def inner(nu):
        def fn(y):
            return v.V(y) @ ym_residual(a, nu, y, fs) @ dagger(v.V(y))
        return FieldFn(st, (v.N, v.N), fn, None, None, v.V.fd_step)

    total = np.zeros((v.N, v.N), dtype=complex)
    for nu in range(st.dim):
        total += st.raise_sign(nu) * inner(nu).d(x, nu)
    return total


def maxwell_mod_residual(params: EmFrameParams, x):
    """(d^mu F_mu nu) d^nu R for the N = 2 electromagnetic frame."""
    st = params.spacetime
    fs = em_faraday(params)
    blade = blade_from_frame(em_frame(params))
    total = np.zeros((2, 2), dtype=complex)
    for nu in range(st.dim):
        j_nu = 0.0
        for mu in range(st.dim):
            if mu == nu:
                continue
            j_nu += st.raise_sign(mu) * fs.component(mu, nu).d(x, mu)
        total += st.raise_sign(nu) * complex(j_nu) * blade.R.d(x, nu)
    return total


def shape_gauge_ym_residual(v: Frame, x, nu, s: OneForm = None):
    """P D^mu Omega_mu nu at x: the shape-gauge image of the YM equations.

    S is the connection and Omega its curvature, so this is P times the
    Yang-Mills residual of S.
    """
    blade = blade_from_frame(v)
    s = shape_operator(blade) if s is None else s
    return blade.projector(x) @ ym_residual(s, nu, x, blade_curvature(blade))


def sigma_eom_residual(blade: RotatingBlade, x, s: OneForm = None):
    """d_mu S^mu at x."""
    s = shape_operator(blade) if s is None else s
    st = blade.spacetime
    total = np.zeros((blade.N, blade.N), dtype=complex)
    for mu in range(st.dim):
        total += st.raise_sign(mu) * s.components[mu].d(x, mu)
    return total


# ---------------------------------------------------------------------------
# sigma-model lattice flow

@dataclass
class LatticeBlade:
    """Reflection-valued field sampled on a uniform lattice.

    frozen marks Dirichlet sites that the flow must not move; axes flagged
    periodic wrap, open axes lose their outermost stencils.
    """

    sites: np.ndarray        # (*grid_shape, N, N) complex
    spacings: tuple
    periodic: tuple
    frozen: np.ndarray = None

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
        return float(np.prod(self.spacings))

    def copy(self):
        return LatticeBlade(self.sites.copy(), self.spacings, self.periodic,
                            None if self.frozen is None else self.frozen.copy())

    def reflection_defect(self):
        """Max per-site deviation of R^2 from the identity."""
        eye = np.eye(self.N)
        prod = np.einsum("...ij,...jk->...ik", self.sites, self.sites)
        return float(np.max(np.abs(prod - eye)))


def blade_lattice_from_field(blade: RotatingBlade, grid: Grid, point_map=None,
                             periodic=None, frozen_boundary_axes=()) -> LatticeBlade:
    """Sample a blade field on grid centers.

    point_map lifts a lattice point to a spacetime point (defaults to
    identity, requiring grid.dim == spacetime.dim).  Axes in
    frozen_boundary_axes get their outermost layers marked frozen.
    """
    if point_map is None:
        point_map = lambda p: p
    shape = tuple(grid.cells)
    pts = grid.centers().reshape(shape + (grid.dim,))
    sites = np.zeros(shape + (blade.N, blade.N), dtype=complex)
    for idx in np.ndindex(shape):
        sites[idx] = blade.at(point_map(pts[idx]))
    periodic = tuple(False for _ in shape) if periodic is None else tuple(periodic)
    frozen = np.zeros(shape, dtype=bool)
    for ax in frozen_boundary_axes:
        sl_lo = [slice(None)] * len(shape)
        sl_hi = [slice(None)] * len(shape)
        sl_lo[ax] = 0
        sl_hi[ax] = shape[ax] - 1
        frozen[tuple(sl_lo)] = True
        frozen[tuple(sl_hi)] = True
    return LatticeBlade(sites, grid.spacings, periodic, frozen)


def _central_differences(lat: LatticeBlade, axis):
    """Central difference along one axis and the mask of valid stencils."""
    h = lat.spacings[axis]
    fwd = np.roll(lat.sites, -1, axis=axis)
    bwd = np.roll(lat.sites, +1, axis=axis)
    delta = (fwd - bwd) / (2.0 * h)
    valid = np.ones(lat.grid_shape, dtype=bool)
    if not lat.periodic[axis]:
        sl = [slice(None)] * lat.ndim_lattice
        sl[axis] = 0
        valid[tuple(sl)] = False
        sl[axis] = lat.grid_shape[axis] - 1
        valid[tuple(sl)] = False
    return np.where(valid[..., None, None], delta, 0.0), valid


def sigma_lattice_energy(lat: LatticeBlade):
    """Euclidean energy (vol/4) sum_{sites, mu} Tr((central dR)^2).

    Nonnegative for reflection-valued sites; the all-plus convention makes
    gradient descent meaningful, which the Lorentzian action is not.
    """
    total = 0.0
    for ax in range(lat.ndim_lattice):
        delta, valid = _central_differences(lat, ax)
        sq = np.einsum("...ij,...ji->...", delta, delta).real
        total += float(np.sum(sq[valid]))
    return 0.25 * lat.cell_volume * total


def sigma_lattice_gradient(lat: LatticeBlade):
    """Gradient of the lattice energy w.r.t. per-site conjugation generators.

    For the variation R_s -> e^{i eps B_s} R_s e^{-i eps B_s}, the energy
    changes by eps * sum_s Tr(G_s B_s) with G_s the Hermitian array returned
    here.  Derived from exactly the same discretized sum as the energy, so
    the finite-difference directional oracle matches.
    """
    shape = lat.grid_shape
    m = np.zeros_like(lat.sites)
    for ax in range(lat.ndim_lattice):
        h = lat.spacings[ax]
        delta, valid = _central_differences(lat, ax)
        masked = np.where(valid[..., None, None], delta, 0.0)
        # site t feels the stencils centered at t -+ e_ax
        from_prev = np.roll(masked, +1, axis=ax)
        from_next = np.roll(masked, -1, axis=ax)
        if not lat.periodic[ax]:
            sl = [slice(None)] * lat.ndim_lattice
            sl[ax] = 0
            from_prev[tuple(sl)] = 0.0
            sl[ax] = shape[ax] - 1
            from_next[tuple(sl)] = 0.0
        m += (from_prev - from_next) / (2.0 * h)
    m *= 0.5 * lat.cell_volume
    rm = np.einsum("...ij,...jk->...ik", lat.sites, m)
    mr = np.einsum("...ij,...jk->...ik", m, lat.sites)
    return 1j * (rm - mr)


def sigma_lattice_directional(lat: LatticeBlade, b):
    """Tr-pairing of the gradient with a per-site Hermitian direction b."""
    grad = sigma_lattice_gradient(lat)
    return float(np.sum(np.einsum("...ij,...ji->...", grad, b)).real)


def conjugate_sites(lat: LatticeBlade, b, eps=1.0) -> LatticeBlade:
    """R_s -> e^{i eps b_s} R_s e^{-i eps b_s} (frozen sites move too: test use)."""
    u = unitary_exp(hermitian_part(b), eps)
    out = lat.copy()
    out.sites = u @ lat.sites @ dagger(u)
    return out


def sigma_flow(lat: LatticeBlade, steps, eta, record_every=1):
    """Gradient descent by per-site unitary conjugation.

    Each step conjugates every non-frozen site at once, as one (K, N, N)
    stack, by exp(-i eta G_s) with G_s the energy gradient, so
    R^2 = I is preserved exactly and the recorded energy trace is
    non-increasing for sufficiently small eta.  Ten consecutive increasing
    steps raise DivergenceError (step size too large).
    """
    if eta <= 0:
        raise ParameterError("eta must be positive")
    current = lat.copy()
    moving = (np.ones(current.grid_shape, dtype=bool) if current.frozen is None
              else ~current.frozen)
    best = sigma_lattice_energy(current)
    trace = [best]
    bad_streak = 0
    for step in range(steps):
        grad = sigma_lattice_gradient(current)
        u = unitary_exp(hermitian_part(grad[moving]), -eta)
        current.sites[moving] = u @ current.sites[moving] @ dagger(u)
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
        if (step + 1) % record_every == 0 or step == steps - 1:
            trace.append(energy)
    return current, trace
