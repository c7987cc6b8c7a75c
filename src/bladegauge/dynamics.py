"""Actions and equation-of-motion residuals for the three dynamical systems.

Residual evaluators keep the Lorentzian signature of the fields they receive;
the sigma-model gradient flow runs in Euclidean (all-plus) signature, where
minus a quarter of the trace density is a genuine Dirichlet energy and
gradient descent makes sense.  The modified equation of motion is implemented
as the nu-summed divergence, exactly as displayed; each residual report records
its equation's index handling (`scenarios.EQUATIONS`).

The four frame residuals (Yang-Mills, modified, shape-gauge and sigma) read
the blade R = 2 V V^dag - I alone, through one query of its 2-jet per point
stack: R, every d_mu R and the d_mu d_nu R they need.  With S_mu = -(i/2) R d_mu R and
Omega_mu nu = -i [S_mu, S_nu], the current J_nu = V (D^mu F_mu nu) V^dag is
P (d^mu Omega_mu nu) P, for P the projector (R + I)/2 (Narasimhan & Ramanan,
Amer. J. Math. 83 (1961) 563; the curvature P dP ^ dP P of Avron, Seiler &
Simon, Phys. Rev. Lett. 51 (1983) 51): it needs no potential, no frame gauge
and no derivative of R past the second.  `frame_ym_residual` reads V^dag J V and
`modified_eom_residual` sum_nu d^nu J_nu, in which Omega's antisymmetry cancels
sum d^nu d^mu Omega_mu nu; they, `shape_gauge_ym_residual` and
`sigma_eom_residual` need no finite difference beyond those of the jet.
`ym_residual` differences F of a potential, for potentials without a frame.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blade import _within, blade_from_frame
from .errors import DivergenceError, DomainError, ParameterError
from .fields import FieldFn, Form, Grid, _jet, _pairs, _stenciled, lattice_integral
from .gauge import covariant_derivative_matrix, field_strength
from .linalg import _matmul_small, commutator, dagger, hermitian_part, max_abs_each, unitary_exp
from .tolerances import DEFAULT as TOL

__all__ = [
    "ym_residual", "ym_action", "sigma_action", "modified_eom_residual",
    "frame_ym_residual", "shape_gauge_ym_residual", "sigma_eom_residual",
    "LatticeBlade", "blade_lattice_from_field", "sigma_lattice_energy",
    "sigma_lattice_gradient", "sigma_flow", "conjugate_sites",
]

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
    """sum_nu d^nu J_nu at x, with J_nu = P K_nu P = V (D^mu F_mu nu) V^dag the blade current.

    Solutions of the Yang-Mills equations annihilate J and remain solutions
    here; the converse fails, which is the point.  With K_nu = d^mu Omega_mu nu and
    Omega antisymmetric, sum_nu d^nu K_nu = sum_mu nu d^nu d^mu Omega_mu nu = 0, so the
    divergence is sum_nu sign(nu) (d_nu P K_nu P + P K_nu d_nu P), d_nu P = d_nu R / 2:
    one query of R's 2-jet at x, each unordered pair's d_a d_b R asked once.
    """
    st = v.spacetime
    x = np.asarray(x, dtype=float)
    _, rx, dr, d2 = _blade_jet(v, x, itertools.combinations_with_replacement(range(st.dim), 2))
    d2.update({(b, a): d2_ab for (a, b), d2_ab in d2.items()})
    p = 0.5 * (rx + np.eye(v.shape[0]))
    total = 0
    for nu in range(st.dim):
        k, dp = -0.25j * _blade_divergence(st, dr, d2, nu), 0.5 * dr[nu]
        total += st.raise_sign(nu) * (dp @ k @ p + p @ k @ dp)
    return total


def frame_ym_residual(v: FieldFn, x, nu):
    """V^dag J_nu V at x: D^mu F_mu nu of the frame's potential A = -i V^dag dV.

    J_nu = P K_nu P = P d^mu(P Omega_mu nu P) P (the terms with dP drop out, as P dP P = 0
    and Omega commutes with P) is read from the frame's 2-jet at x alone: no potential,
    and no finite difference beyond those of the jet itself.
    """
    st = v.spacetime
    x = np.asarray(x, dtype=float)
    vx, rx, dr, d2 = _blade_jet(v, x, _current_pairs(st.dim, nu))
    p = 0.5 * (rx + np.eye(v.shape[0]))
    j = -0.25j * (p @ _blade_divergence(st, dr, d2, nu) @ p)
    return dagger(vx) @ j @ vx


def shape_gauge_ym_residual(v: FieldFn, x, nu):
    """P D^mu Omega_mu nu at x: the shape-gauge image of the YM equations.

    S is the connection and Omega its curvature, so this is P times the
    Yang-Mills residual of S, read from R's 2-jet at x:
    S_a = -(i/2) R d_a R, d_mu S_a = -(i/2) (d_mu R d_a R + R d_a d_mu R) and
    Omega_ab = -i [S_a, S_b].  The arithmetic is that of the rules of the
    `shape_operator` and `blade_curvature` forms, operation for operation, so
    an analytic frame gives their bits.
    """
    st = v.spacetime
    x = np.asarray(x, dtype=float)
    _, rx, dr, d2 = _blade_jet(v, x, _current_pairs(st.dim, nu))
    s = [-0.5j * (rx @ dr_a) for dr_a in dr]
    total = 0
    for mu in range(st.dim):
        if mu == nu:
            continue
        ds = {a: -0.5j * (dr[mu] @ dr[a] + rx @ d2[a, mu]) for a in (mu, nu)}
        a, b = sorted((mu, nu))
        omega = -1j * (s[a] @ s[b] - s[b] @ s[a])
        d_omega = -1j * ((ds[a] @ s[b] + s[a] @ ds[b]) - (ds[b] @ s[a] + s[b] @ ds[a]))
        if mu > nu:  # Omega_mu nu = -Omega_nu mu
            omega, d_omega = -1.0 * omega, -1.0 * d_omega
        total += st.raise_sign(mu) * (d_omega + 1j * (s[mu] @ omega - omega @ s[mu]))
    return 0.5 * (rx + np.eye(v.shape[0])) @ total


def sigma_eom_residual(v: FieldFn, x):
    """d_mu S^mu at x, read from R's 2-jet: only its diagonal second derivatives enter.

    d_mu S_mu = -(i/2) (d_mu R d_mu R + R d_mu d_mu R), by `shape_operator`'s rule.
    """
    st = v.spacetime
    x = np.asarray(x, dtype=float)
    _, rx, dr, d2 = _blade_jet(v, x, [(mu, mu) for mu in range(st.dim)])
    total = 0
    for mu in range(st.dim):
        total += st.raise_sign(mu) * (-0.5j * (dr[mu] @ dr[mu] + rx @ d2[mu, mu]))
    return total


def _blade_jet(v: FieldFn, x, pairs):
    """V, R, the stack of every d_mu R and {(a, b): d_a d_b R} over pairs at the point stack x,
    from one query of R = `blade_from_frame(v)`, a frame without analytic derivatives
    taking the stencils of its own d and d2 (`fields._stenciled`).  Where R misses
    R^2 = I by more than TOL.frame_consistency, a ConsistencyError names the point
    missing it most."""
    v = _stenciled(v)
    want, memo = _pairs(pairs), {}
    rx, dr, d2 = _jet(blade_from_frame(v), x, memo, want)
    _within(max_abs_each(rx @ rx - np.eye(v.shape[0])), x, TOL.frame_consistency,
            "blade is not a reflection: max |R^2 - I|")
    return _jet(v, x, memo, want)[0], rx, dr, dict(zip(want, d2))


def _current_pairs(dim, nu):  # the (mu, mu) and (nu, mu) d_a d_b R that J_nu reads, mu != nu
    return [(a, mu) for mu in range(dim) if mu != nu for a in (mu, nu)]


def _blade_divergence(st, dr, d2, nu):
    """4i K_nu from R's 2-jet, for the d_a d_b R of `_current_pairs`: K_nu = d^mu Omega_mu nu,
    and Omega_mu nu = -i [d_mu P, d_nu P] makes d_mu Omega_mu nu equal to
    -(i/4) ([d_mu d_mu R, d_nu R] + [d_mu R, d_nu d_mu R])."""
    div = 0
    for mu in range(st.dim):
        if mu != nu:
            div += st.raise_sign(mu) * (commutator(d2[mu, mu], dr[nu])
                                        + commutator(dr[mu], d2[nu, mu]))
    return div


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


def _link_differences(lat: LatticeBlade):
    """R_{s+e} - R_s on each link, per axis: periodic axes wrap, open ones lose a layer."""
    return [np.diff(lat.sites, axis=ax) if not periodic else
            np.diff(lat.sites, axis=ax, append=lat.sites.take([0], axis=ax))
            for ax, periodic in enumerate(lat.periodic)]


def _link_energy(lat: LatticeBlade):
    """`sigma_lattice_energy` and the link differences D it sums, one array per axis."""
    diffs = _link_differences(lat)
    total = 0.0
    for d, h in zip(diffs, lat.spacings):
        total += float(np.vdot(d, d).real) / h ** 2
    return 0.25 * lat.cell_volume * total, diffs


def sigma_lattice_energy(lat: LatticeBlade):
    """Euclidean link energy (vol/4) sum_{axes e, links} Tr((R_{s+e} - R_s)^2) / h_e^2.

    Nearest neighbours couple, as in the standard lattice sigma-model action.
    A link difference D of Hermitian sites is Hermitian, so Tr(D^2) is the sum
    of squares sum_ij |D_ij|^2: one np.vdot per axis, nonnegative.  The
    all-plus convention makes gradient descent meaningful.
    """
    return _link_energy(lat)[0]


def _laplacian(lat: LatticeBlade, diffs):
    """L_s = sum_e (D_s - D_{s-e}) / h_e^2 from the link differences D; scales each D in place."""
    lap = np.zeros_like(lat.sites)
    for ax, d in enumerate(diffs):
        d *= 1.0 / lat.spacings[ax] ** 2
        # site s has the link to s + e (d[s]) and the link from s - e (d[s - 1])
        lap_ax, d_ax = lap.swapaxes(0, ax), d.swapaxes(0, ax)
        lap_ax[:len(d_ax)] += d_ax
        lap_ax[1:] -= d_ax[:len(lap_ax) - 1]
        if lat.periodic[ax]:
            lap_ax[0] -= d_ax[-1]
    return lap


def _commutator_gradient(lat: LatticeBlade, lap):
    """G = -(vol/2) i (X - X^dag) with X = R L: Hermitian to the last bit."""
    x = _matmul_small(lat.sites, lap)
    return -0.5j * lat.cell_volume * (x - dagger(x))


def sigma_lattice_gradient(lat: LatticeBlade):
    """Gradient of the lattice energy w.r.t. per-site conjugation generators.

    For the variation R_s -> e^{i eps B_s} R_s e^{-i eps B_s}, the energy
    changes by eps * sum_s Tr(G_s B_s) with G_s = -(vol/2) i [R_s, L_s] and
    L_s = sum_e (D_s - D_{s-e}) / h_e^2 the Laplacian of the energy's link
    differences D; it differs from the neighbour sum by a multiple of R_s.
    With X = R L, G = -(vol/2) i (X - X^dag) is Hermitian to the last bit.
    Frozen sites enter their neighbours' L_s, so Dirichlet data drive the flow.
    """
    return _commutator_gradient(lat, _laplacian(lat, _link_differences(lat)))


def _bloch_vectors(m):
    """v_x + i v_y and v_z of the Hermitian part m0 I + v . sigma of each 2x2 matrix in a stack.

    They are the lower off-diagonal entry and half the diagonal difference.
    """
    return (0.5 * (m[..., 1, 0] + np.conjugate(m[..., 0, 1])),
            0.5 * (m[..., 0, 0].real - m[..., 1, 1].real))


def _rotate_bloch_vectors(sites, lap, weight, eta):
    """One N = 2 flow step in place: R_s -> e^{-i eta G_s} R_s e^{i eta G_s}.

    For the Bloch vectors r and l of the sites' and the Laplacian's Hermitian
    parts, -(vol/2) i [R, L] = g . sigma with g = vol (r x l); `weight` is vol
    on moving sites and 0 on frozen ones.  The conjugation rotates r by
    theta = 2 eta |g| about g.  With phi = eta |g| and w = (sin phi / |g|) g,
    the Euler-Rodrigues form of the increment,
        2 cos phi (w x r) + 2 w x (w x r)
          = (cos theta - 1) r + (sin theta / |g|) g x r + ((1 - cos theta) / |g|^2) (g . r) g,
    has no cancellation in 1 - cos theta and is exactly 0 at g = 0.  On the
    planes a_perp = a_x + i a_y and a_z, (a x b)_perp = i (a_z b_perp - b_z a_perp)
    and (a x b)_z = Im(conj(a_perp) b_perp).  The increment enters the sites as a
    Hermitian matrix, so Hermitian sites stay Hermitian to the last bit.  Raises
    DomainError, before any sin or cos, where g is not finite.
    """
    r_perp, r_z = _bloch_vectors(sites)
    l_perp, l_z = _bloch_vectors(lap)
    g_perp = 1j * weight * (r_z * l_perp - l_z * r_perp)
    g_z = weight * (np.conjugate(r_perp) * l_perp).imag
    norm = np.hypot(np.abs(g_perp), g_z)
    # np.max propagates NaN, and hypot turns an infinite component into inf
    if not np.isfinite(norm.max()):
        site = np.unravel_index(np.argmin(np.isfinite(norm)), norm.shape)
        raise DomainError(f"sigma_flow: the energy gradient at site "
                          f"{tuple(int(i) for i in site)} is not finite "
                          f"(|g| = {norm[site]}); the lattice holds a NaN or an infinity")
    phi = eta * norm
    # sin(phi) / |g|, with |g| floored at the smallest normal double: 0 / tiny = 0 at g = 0
    k = np.sin(phi) / np.maximum(norm, np.finfo(float).tiny)
    w_perp, w_z = k * g_perp, k * g_z
    t_perp = 1j * (w_z * r_perp - r_z * w_perp)
    t_z = (np.conjugate(w_perp) * r_perp).imag
    c2 = 2.0 * np.cos(phi)
    d_perp = c2 * t_perp + 2j * (w_z * t_perp - t_z * w_perp)
    d_z = c2 * t_z + 2.0 * (np.conjugate(w_perp) * t_perp).imag
    sites[..., 1, 0] += d_perp
    sites[..., 0, 1] += np.conjugate(d_perp)
    sites.real[..., 0, 0] += d_z
    sites.real[..., 1, 1] -= d_z


def conjugate_sites(lat: LatticeBlade, b, eps=1.0) -> LatticeBlade:
    """R_s -> e^{i eps b_s} R_s e^{-i eps b_s} (frozen sites move too: test use)."""
    u = unitary_exp(hermitian_part(b), eps)
    out = lat.copy()
    out.sites = u @ lat.sites @ dagger(u)
    return out


def sigma_flow(lat: LatticeBlade, steps, eta):
    """Gradient descent by per-site unitary conjugation R_s -> e^{-i eta G_s} R_s e^{i eta G_s}.

    G_s is the energy gradient, zeroed on frozen sites so that they keep their
    values exactly.  For N = 2, G_s = g_s . sigma, and each step rotates every
    site's Bloch vector by 2 eta |g_s| about g_s in closed form
    (`_rotate_bloch_vectors`: elementwise passes over the vectors' x + iy and z
    planes, no matrix product), so Hermitian sites stay exactly Hermitian; other
    N conjugate the site stack by `unitary_exp(G, -eta)`.  R^2 = I is preserved
    to rounding and the energy trace is non-increasing for small enough eta.
    Each step's energy and the next step's Laplacian read one set of link
    differences, and every trace entry is `sigma_lattice_energy` of the sites,
    bit for bit.  A NaN that reaches the generator raises DomainError before the
    sites move; ten consecutive increasing steps raise DivergenceError.
    Returns the final lattice and the energy trace: the start, then one per step.
    """
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")
    if not 0 < eta < np.inf:
        raise ParameterError(f"eta must be finite and positive, got {eta}")
    current = lat.copy()
    best, diffs = _link_energy(current)
    trace = [best]
    if current.N == 2:
        weight = np.full(current.grid_shape, current.cell_volume)
        if current.frozen is not None:
            weight[current.frozen] = 0.0
    bad_streak = 0
    for step in range(steps):
        lap = _laplacian(current, diffs)
        if current.N == 2:
            _rotate_bloch_vectors(current.sites, lap, weight, eta)
        else:
            grad = _commutator_gradient(current, lap)
            if current.frozen is not None:
                grad[current.frozen] = 0.0
            u = unitary_exp(grad, -eta)
            current.sites = _matmul_small(_matmul_small(u, current.sites), dagger(u))
        energy, diffs = _link_energy(current)
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
