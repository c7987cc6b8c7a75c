import itertools

import numpy as np
import pytest

from bladegauge.blade import blade_from_frame, extract_potential, random_smooth_frame
from bladegauge.dynamics import (LatticeBlade, blade_lattice_from_field,
                                 conjugate_sites, frame_ym_residual,
                                 modified_eom_residual,
                                 shape_gauge_ym_residual, sigma_action,
                                 sigma_eom_residual, sigma_flow,
                                 sigma_lattice_energy, sigma_lattice_gradient,
                                 ym_action, ym_residual)
from bladegauge.em import em_frame, monopole_blade, plane_wave_params, plane_wave_potential
from bladegauge.errors import ConsistencyError, DivergenceError, DomainError, ParameterError
from bladegauge.fields import MINKOWSKI4, Grid, constant, linear, matrix_of
from bladegauge.gauge import field_strength, gauge_potential, gauge_transform
from bladegauge.linalg import dagger, hermitian_part, max_abs, unitary_exp
from bladegauge.scenarios import EQUATIONS, constant_f_potential, load_frame
from bladegauge.tolerances import DEFAULT as TOL

MAXWELL_KN = (np.array([1.0, 0, 0, 1.0]), np.array([0, 1.0, 0, 0]))
# spacelike k with null, k-orthogonal n: satisfies (k.k)(n.n) = (k.n)^2
# with k.k != 0, so it solves the modified EOM but not Maxwell
NESTING_KN = (np.array([0, 1.0, 0, 0]), np.array([1.0, 0, 1.0, 0]))


def zero_potential(st, n=1):
    z = constant(np.zeros((n, n), dtype=complex), st)
    return gauge_potential(st, [z] * st.dim)


def test_ym_residual_zero_potential(st4):
    a = zero_potential(st4)
    assert max_abs(ym_residual(a, 1, np.zeros(4))) == 0.0


def test_ym_residual_maxwell_plane_wave(st4, points4):
    a = plane_wave_potential(st4, *MAXWELL_KN)
    for x in points4:
        for nu in range(4):
            assert max_abs(ym_residual(a, nu, x)) < 1e-9


def test_ym_residual_nonnull_matches_closed_form(st4, points4):
    # d^mu F_mu nu = -sin(k x) ((k.k) n_nu - (k.n) k_nu) for A = n sin(k x)
    k, n = NESTING_KN
    a = plane_wave_potential(st4, k, n)
    fs = field_strength(a)
    kk = st4.dot(k, k)
    kn = st4.dot(k, n)
    for x in points4:
        s = np.sin(np.dot(k, x))
        for nu in range(4):
            want = -s * (kk * n[nu] - kn * k[nu])
            got = ym_residual(a, nu, x, fs)[0, 0]
            assert abs(got - want) < 1e-8
    assert max(abs(-np.sin(np.dot(k, x)) * (kk * n[nu] - kn * k[nu]))
               for x in points4 for nu in range(4)) > 0.05


def test_ym_action_zero(st4):
    grid = Grid(lo=(0,) * 4, hi=(1,) * 4, cells=(2,) * 4)
    assert abs(ym_action(zero_potential(st4), grid)) == 0.0


def test_ym_action_constant_field_strength(st4):
    # A = B x^1 dx^2: F_12 = B; with both spatial indices raised the density is
    # -1/2 B^2, confirmed against the midpoint rule on a refined grid
    b = 0.8
    a = constant_f_potential(st4, b)
    grid = Grid(lo=(0,) * 4, hi=(1,) * 4, cells=(4,) * 4)
    want = -0.5 * b * b
    got = ym_action(a, grid)
    assert abs(got - want) <= 0.01 * abs(want)


def test_ym_action_gauge_invariant(st4):
    v = random_smooth_frame(st4, 3, 2, seed=15)
    a = extract_potential(v)
    u = random_smooth_frame(st4, 2, 2, seed=16)
    grid = Grid(lo=(0,) * 4, hi=(0.6,) * 4, cells=(3,) * 4)
    s1 = ym_action(a, grid)
    s2 = ym_action(gauge_transform(a, u), grid)
    assert abs(s1 - s2) < 1e-6 * (1 + abs(s1))


def test_sigma_action_constant_blade(st4):
    blade = blade_from_frame(constant(np.eye(4, 2, dtype=complex), st4))
    grid = Grid(lo=(0,) * 4, hi=(1,) * 4, cells=(2,) * 4)
    assert abs(sigma_action(blade, grid)) == 0.0


def test_sigma_action_monopole_two_path():
    # lattice integral of the analytic density vs plain FD on R entries
    blade = monopole_blade(0.5)
    grid = Grid(lo=(1.0, 1.0, 0.0), hi=(2.0, 2.0, 1.5), cells=(1, 6, 6))
    analytic = sigma_action(blade, grid)
    fd_blade = blade.without_analytic_derivs()
    fd = sigma_action(fd_blade, grid)
    assert abs(analytic - fd) < 1e-5 * (1 + abs(analytic))
    assert abs(analytic) > 1e-3  # the monopole band is not flat


def test_modified_eom_constant_frame(st4):
    v = constant(np.eye(2, 1, dtype=complex), st4)
    assert max_abs(modified_eom_residual(v, np.zeros(4))) < 1e-12


def test_modified_eom_maxwell_solution(st4, points4):
    v = em_frame(plane_wave_params(st4, *MAXWELL_KN))
    for x in points4[:2]:
        assert max_abs(modified_eom_residual(v, x)) < TOL.fd_nested()


def test_modified_eom_nesting_fixture(st4, points4):
    # passes the modified equation while failing Yang-Mills
    k, n = NESTING_KN
    v = em_frame(plane_wave_params(st4, k, n))
    a = extract_potential(v)
    for x in points4[:2]:
        assert max_abs(modified_eom_residual(v, x)) < TOL.fd_nested()
        assert max(max_abs(ym_residual(a, nu, x)) for nu in range(4)) > 0.05


def test_maxwell_mod_residual_design(st4, points4):
    # the plane wave's modified residual vanishes exactly when (k.k)(n.n) = (k.n)^2
    satisfying = [MAXWELL_KN, NESTING_KN]
    violating = [(np.array([1.0, 0, 0, 1.0]), np.array([1.0, 0, 0, 0])),
                 (np.array([0, 1.0, 0, 0]), np.array([1.0, 0, 2.0, 0]))]
    for k, n in satisfying:
        v = em_frame(plane_wave_params(st4, k, n))
        for x in points4[:3]:
            assert max_abs(modified_eom_residual(v, x)) < TOL.fd_nested()
    for k, n in violating:
        v = em_frame(plane_wave_params(st4, k, n))
        worst = max(max_abs(modified_eom_residual(v, x)) for x in points4)
        assert worst > 0.05


def test_constrained_variation_of_potential(st4, points4):
    # V -> e^{i eps B} V changes the extracted potential by eps V^dag (dB) V
    from bladegauge.blade import random_hermitian_field
    from bladegauge.fields import FieldFn
    from bladegauge.linalg import unitary_exp, unitary_exp_frechet
    v = random_smooth_frame(st4, 4, 2, seed=91)
    b = random_hermitian_field(st4, 4, seed=92)
    eps = 1e-5

    def perturbed(sign):
        def fn(x):
            return unitary_exp(b.fn(x), sign * eps) @ v(x)

        def deriv(x, mu):
            u = unitary_exp(b.fn(x), sign * eps)
            du = unitary_exp_frechet(b.fn(x), b.deriv(x, mu), sign * eps)
            return du @ v(x) + u @ v.d(x, mu)

        return FieldFn(st4, (4, 2), fn, deriv, None)

    a_plus = extract_potential(perturbed(+1))
    a_minus = extract_potential(perturbed(-1))
    for x in points4[:2]:
        vv = v(x)
        for mu in range(4):
            da = (a_plus.at(x, mu) - a_minus.at(x, mu)) / (2 * eps)
            want = dagger(vv) @ b.deriv(x, mu) @ vv
            assert max_abs(da - want) < 1e-6


def test_shape_gauge_ym_residual_cases(st4, points4):
    v0 = constant(np.eye(2, 1, dtype=complex), st4)
    assert max_abs(shape_gauge_ym_residual(v0, np.zeros(4), 1)) < 1e-12
    # Maxwell plane wave frame solves the shape-gauge equations
    v = em_frame(plane_wave_params(st4, *MAXWELL_KN))
    for x in points4[:2]:
        for nu in range(4):
            assert max_abs(shape_gauge_ym_residual(v, x, nu)) < TOL.fd_nested()
    # negative control: a frame whose potential violates Yang-Mills
    k, n = NESTING_KN
    vbad = em_frame(plane_wave_params(st4, k, n))
    worst = max(max_abs(shape_gauge_ym_residual(vbad, x, nu))
                for x in points4[:2] for nu in range(4))
    assert worst > 0.01


def test_shape_gauge_ym_equivalence(st4, points4):
    # V^dag (P D^mu Omega_mu nu) V = D^mu F_mu nu
    v = random_smooth_frame(st4, 3, 1, seed=19, amplitude=0.3)
    a = extract_potential(v)
    fs = field_strength(a)
    for x in points4[:2]:
        for nu in range(2):
            lhs = dagger(v(x)) @ shape_gauge_ym_residual(v, x, nu) @ v(x)
            rhs = ym_residual(a, nu, x, fs)
            assert max_abs(lhs - rhs) < 5e-3


def test_residual_points_make_one_eigh_per_distinct_point(st4, monkeypatch):
    # exp(iH) leaves keep one spectral record per distinct point stack, and state
    # their second derivatives: one modified point and four shape queries read
    # R's 2-jet at the point itself
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a)[:-2])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    modified_eom_residual(random_smooth_frame(st4, 4, 2, 1), x)
    assert calls == [()]
    calls.clear()
    v = random_smooth_frame(st4, 4, 2, 1)
    for nu in range(4):
        shape_gauge_ym_residual(v, x, nu)
    assert calls == [()]


def test_ym_sweep_makes_one_eigh_per_point(monkeypatch):
    # a frame's ym residual reads the frame's 2-jet at the grid points alone, so the
    # exp(iH) leaf diagonalizes each point once; the potential's nested differences
    # of F made 13 matrices per point on this grid
    matrices = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    pts = Grid(lo=(0.0,) * 4, hi=(1.0,) * 4, cells=(4,) * 4).centers()
    EQUATIONS["ym"]({"scenario": "random_smooth", "seed": 1}, MINKOWSKI4, pts)
    assert sum(matrices) == len(pts)


GRID_2_4 = Grid(lo=(0.0,) * 4, hi=(1.0,) * 4, cells=(2,) * 4)


def test_blade_residuals_flag_a_frame_that_is_not_orthonormal(st4):
    # the stretched column of extract_potential's broken-frame test gives
    # R = diag(2 (1 + x^0)^2 - 1, -1): a reflection only at x^0 = 0, and |R^2 - I|
    # = 11.25 at x^0 = 0.5, where the shape residual would otherwise read 0
    stretched = matrix_of([[linear(st4, [1.0, 0, 0, 0], 1.0)], [constant(0.0, st4)]])
    xs = np.array([[0.0, 0.1, 0.2, 0.3], [0.5, 0.25, 0.0, -0.125]])
    for residual in (modified_eom_residual, sigma_eom_residual,
                     lambda v, x: shape_gauge_ym_residual(v, x, 1),
                     lambda v, x: frame_ym_residual(v, x, 1)):
        with pytest.raises(ConsistencyError, match=r"max \|R\^2 - I\|") as err:
            residual(stretched, xs)
        msg = str(err.value)
        assert "[0.5, 0.25, 0.0, -0.125]" in msg and "0.3" not in msg


def test_modified_eom_vanishes_on_a_pure_gauge_frame():
    # F = 0, so the blade current is zero at every point, not only its divergence
    v = load_frame("pure_gauge")
    assert max_abs(modified_eom_residual(v, GRID_2_4.centers())) <= 1e-12


@pytest.mark.parametrize("scenario", ["random_smooth", "darboux"])
def test_modified_eom_converges_at_order_two(scenario):
    # the residual drops sum_nu d^nu K_nu = sum d^nu d^mu Omega_mu nu, zero as Omega is
    # antisymmetric: one central difference of the exact blade current
    # J_nu = V (V^dag J_nu V) V^dag approaches it at O(h^2), so halving the step
    # quarters the gap
    pts = GRID_2_4.centers()
    v = load_frame(scenario)
    st = v.spacetime
    exact = modified_eom_residual(v, pts)

    def current(y, nu):
        vy = v(y)
        return vy @ frame_ym_residual(v, y, nu) @ dagger(vy)

    def differenced(h):
        total = 0
        for nu in range(st.dim):
            e = h * np.eye(st.dim)[nu]
            total += st.raise_sign(nu) * (current(pts + e, nu) - current(pts - e, nu)) / (2.0 * h)
        return total

    gaps = [max_abs(differenced(h) - exact) for h in (2e-3, 1e-3, 5e-4)]
    assert all(3.5 <= coarse / fine <= 4.5 for coarse, fine in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("N,n", [(2, 1), (4, 2)])
def test_blade_current_is_the_frame_image_of_the_ym_residual(st4, N, n):
    # V^dag J_nu V = D^mu F_mu nu; J is exact and ym_residual differences F once,
    # so the gap is ym_residual's O(h^2) truncation error
    x = GRID_2_4.centers()[::3]
    v = random_smooth_frame(st4, N, n, seed=7)
    gaps = []
    for h in (2e-3, 1e-3):
        vh = v.with_step(h)
        a = extract_potential(vh)
        fs = field_strength(a)
        gap = max(max_abs(frame_ym_residual(vh, x, nu) - ym_residual(a, nu, x, fs))
                  for nu in range(4))
        assert gap <= TOL.fd(h)
        gaps.append(gap)
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5


def test_sigma_eom_residual_constant(st4):
    v = constant(np.eye(4, 2, dtype=complex), st4)
    assert max_abs(sigma_eom_residual(v, np.zeros(4))) == 0.0


# ---------------------------------------------------------------------------
# lattice flow

def monopole_band_lattice(cells=(8, 12), g=0.5):
    blade = monopole_blade(g)
    grid = Grid(lo=(0.35 * np.pi, 0.0), hi=(0.65 * np.pi, 2 * np.pi), cells=cells)
    return blade_lattice_from_field(
        blade, grid, point_map=lambda p: np.array([1.0, p[0], p[1]]),
        periodic=(False, True), frozen_boundary_axes=(0,))


def test_lattice_energy_nonnegative_and_zero_for_constant():
    n = 2
    sites = np.tile(np.diag([1.0, -1.0]).astype(complex), (4, 4, 1, 1))
    lat = LatticeBlade(sites, (0.1, 0.1), (False, False))
    assert sigma_lattice_energy(lat) == 0.0
    assert max_abs(sigma_lattice_gradient(lat)) == 0.0
    lat2 = monopole_band_lattice()
    assert sigma_lattice_energy(lat2) > 0.0


def test_lattice_gradient_matches_fd_directional(rng):
    lat = monopole_band_lattice()
    b = np.zeros_like(lat.sites)
    for idx in np.ndindex(lat.grid_shape):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b[idx] = hermitian_part(g)
    eps = 1e-5
    fd = (sigma_lattice_energy(conjugate_sites(lat, b, eps))
          - sigma_lattice_energy(conjugate_sites(lat, b, -eps))) / (2 * eps)
    an = float(np.sum(np.einsum("...ij,...ji->...", sigma_lattice_gradient(lat), b)).real)
    assert abs(fd - an) <= 1e-6 * max(1.0, abs(fd))


def test_lattice_checkerboard_has_positive_energy():
    # diag(1, -1) and sigma_x anticommute, so every link carries
    # Tr((R_t - R_s)^2) = Tr(2 I) = 4: a link energy sees the checkerboard
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    parity = np.add.outer(np.arange(8), np.arange(8)) % 2
    sites = np.where(parity[..., None, None] == 0, z, x)
    lat = LatticeBlade(sites, (1.0, 1.0), (True, True))
    assert sigma_lattice_energy(lat) == 0.25 * 4.0 * 2 * 64
    assert max_abs(sigma_lattice_gradient(lat)) > 1.0


def test_flow_reaches_every_parity_sublattice(rng):
    # nearest-neighbour links couple the four (theta, phi) parity classes; a
    # perturbation of one of them must move the other three after a few steps
    lat = monopole_band_lattice(cells=(8, 12))
    parity = np.indices(lat.grid_shape) % 2
    touched = (parity[0] == 0) & (parity[1] == 0) & ~lat.frozen
    b = np.where(touched[..., None, None],
                 random_hermitian_sites(rng, lat.grid_shape), 0.0)
    bumped = conjugate_sites(lat, b, 0.05)
    ref, _ = sigma_flow(lat, steps=5, eta=2e-3)
    out, _ = sigma_flow(bumped, steps=5, eta=2e-3)
    moved = np.max(np.abs(out.sites - ref.sites), axis=(-2, -1))
    for p, q in np.ndindex(2, 2):
        sub = (parity[0] == p) & (parity[1] == q) & ~lat.frozen
        assert np.max(moved[sub]) > 1e-6


@pytest.mark.parametrize("cells", [(10, 16), (20, 32), (40, 64), (80, 128)])
def test_first_row_force_bounded_under_refinement(cells):
    # the frozen theta rows act through links to the first moving row; the
    # force density there tends to a finite limit (about 0.4) as h -> 0
    lat = monopole_band_lattice(cells=cells)
    grad = sigma_lattice_gradient(lat)
    assert max_abs(grad[1]) / lat.cell_volume < 1.0


def test_flow_monotone_and_preserves_reflection():
    lat = monopole_band_lattice()
    final, trace = sigma_flow(lat, steps=120, eta=2e-3)
    # the trace ends are the energies of the input and the output, bit for bit
    assert trace[0] == sigma_lattice_energy(lat)
    assert trace[-1] == sigma_lattice_energy(final)
    for a, b in zip(trace, trace[1:]):
        assert b <= a + 1e-12 * (1 + abs(a))
    assert trace[-1] < trace[0]
    assert final.reflection_defect() < 1e-12
    # Dirichlet rows pinned
    assert max_abs(final.sites[0] - lat.sites[0]) == 0.0
    assert max_abs(final.sites[-1] - lat.sites[-1]) == 0.0


def test_flow_constant_field_is_fixed_point():
    sites = np.tile(np.diag([1.0, -1.0]).astype(complex), (4, 4, 1, 1))
    lat = LatticeBlade(sites, (0.1, 0.1), (True, True))
    final, trace = sigma_flow(lat, steps=5, eta=1e-2)
    assert trace == [0.0] * len(trace)
    assert max_abs(final.sites - lat.sites) == 0.0


def test_flow_divergence_error_for_huge_step():
    lat = monopole_band_lattice(cells=(6, 8))
    with pytest.raises(DivergenceError):
        sigma_flow(lat, steps=200, eta=50.0)


def test_flow_rejects_nonpositive_eta():
    lat = monopole_band_lattice(cells=(4, 6))
    with pytest.raises(ParameterError):
        sigma_flow(lat, steps=1, eta=0.0)


def random_reflection_lattice(rng, grid_shape, periodic, n=2, k=1):
    """Sites U diag(1_k, -1_{n-k}) U^dag with independent random unitaries U."""
    g = (rng.standard_normal(grid_shape + (n, n))
         + 1j * rng.standard_normal(grid_shape + (n, n)))
    q, _ = np.linalg.qr(g)
    signs = np.where(np.arange(n) < k, 1.0, -1.0)
    sites = (q * signs) @ dagger(q)
    spacings = tuple(rng.uniform(0.05, 0.5, len(grid_shape)))
    return LatticeBlade(sites, spacings, periodic)


def neighbour_sum_reference(lat):
    """Energy by the einsum trace and gradient -(vol/2) i (R M - M R) from the neighbour sum M."""
    energy = 0.0
    m = np.zeros_like(lat.sites)
    for ax, h in enumerate(lat.spacings):
        has_link = np.ones(lat.grid_shape, dtype=bool)
        if not lat.periodic[ax]:
            np.moveaxis(has_link, ax, 0)[-1] = False
        has_link = has_link[..., None, None]
        fwd = np.roll(lat.sites, -1, axis=ax)
        delta = np.where(has_link, fwd - lat.sites, 0.0)
        energy += np.sum(np.einsum("...ij,...ji->...", delta, delta).real) / h ** 2
        m += (np.where(has_link, fwd, 0.0)
              + np.roll(np.where(has_link, lat.sites, 0.0), 1, axis=ax)) / h ** 2
    vol = float(np.prod(lat.spacings))
    grad = -0.5j * vol * (lat.sites @ m - m @ lat.sites)
    return 0.25 * vol * energy, grad, vol * max_abs(m)


LATTICE_SHAPES = [(7,), (1,), (5, 4), (2, 1), (3, 4, 5), (2, 2, 3)]


@pytest.mark.parametrize("grid_shape", LATTICE_SHAPES)
@pytest.mark.parametrize("n, k", [(2, 1), (3, 1)])
def test_lattice_energy_and_gradient_match_neighbour_sum(grid_shape, n, k):
    # every periodic/open mix of the axes
    rng = np.random.default_rng(len(grid_shape) * 100 + sum(grid_shape) + n)
    for periodic in itertools.product((False, True), repeat=len(grid_shape)):
        lat = random_reflection_lattice(rng, grid_shape, periodic, n, k)
        energy, grad_ref, scale = neighbour_sum_reference(lat)
        assert abs(sigma_lattice_energy(lat) - energy) <= 1e-13 * abs(energy)
        grad = sigma_lattice_gradient(lat)
        assert max_abs(grad - grad_ref) <= 1e-13 * scale
        # Hermitian to the last bit, so the flow needs no hermitian_part
        assert np.array_equal(grad, dagger(grad))


def test_long_flow_keeps_sites_hermitian_reflections():
    # two-sided conjugation keeps R Hermitian to rounding; the one-sided
    # e^{-2i eta G} R lets R - R^dag grow about 1000x per 100 steps
    final, _ = sigma_flow(monopole_band_lattice(cells=(8, 12)), steps=2000, eta=2e-3)
    assert max_abs(final.sites - dagger(final.sites)) <= 1e-13
    assert final.reflection_defect() <= 1e-12


def random_hermitian_sites(rng, shape):
    g = rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))
    return hermitian_part(g)


def test_conjugate_sites_matches_per_site_reference(rng):
    lat = monopole_band_lattice(cells=(6, 8))
    b = random_hermitian_sites(rng, lat.grid_shape)
    out = conjugate_sites(lat, b, 0.3)
    for idx in np.ndindex(lat.grid_shape):
        u = unitary_exp(b[idx], 0.3)
        np.testing.assert_allclose(out.sites[idx], u @ lat.sites[idx] @ dagger(u),
                                   rtol=0, atol=1e-14)
    # frozen rows move too, and the input lattice is left alone
    assert max_abs(out.sites[0] - lat.sites[0]) > 1e-3
    assert max_abs(lat.sites - monopole_band_lattice(cells=(6, 8)).sites) == 0.0


def per_site_flow(lat, steps, eta):
    """Reference flow: one unitary_exp per non-frozen site and step."""
    current = lat.copy()
    trace = [sigma_lattice_energy(current)]
    for _ in range(steps):
        grad = sigma_lattice_gradient(current)
        for idx in np.ndindex(current.grid_shape):
            if current.frozen is not None and current.frozen[idx]:
                continue
            u = unitary_exp(hermitian_part(grad[idx]), -eta)
            current.sites[idx] = u @ current.sites[idx] @ dagger(u)
        trace.append(sigma_lattice_energy(current))
    return current, trace


@pytest.mark.parametrize("frozen", [True, False])
def test_flow_matches_per_site_reference(frozen):
    lat = monopole_band_lattice(cells=(6, 10))
    if not frozen:
        lat.frozen = None
    final, trace = sigma_flow(lat, steps=8, eta=2e-3)
    ref, ref_trace = per_site_flow(lat, steps=8, eta=2e-3)
    np.testing.assert_allclose(final.sites, ref.sites, rtol=0, atol=1e-14)
    np.testing.assert_allclose(trace, ref_trace, rtol=0, atol=1e-14)
    if frozen:
        assert np.array_equal(final.sites[lat.frozen], lat.sites[lat.frozen])
    else:
        assert max_abs(final.sites[0] - lat.sites[0]) > 0.0


def mixed_rank_lattice(rng, shape=(6, 7)):
    """Exactly Hermitian reflections of random rank per site: -I, U diag(1, -1) U^dag or I.

    A 3x3 block of equal rank-1 sites gives its centre (2, 3) L = 0, so g = 0
    there as at every rank-0 and rank-2 site; about a fifth of the sites are frozen.
    """
    g = rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))
    q, _ = np.linalg.qr(g)
    rank_one = hermitian_part((q * np.array([1.0, -1.0])) @ dagger(q))
    rank = rng.integers(0, 3, shape)
    scalar = (rank - 1.0)[..., None, None] * np.eye(2)
    sites = np.where((rank == 1)[..., None, None], rank_one, scalar)
    sites[1:4, 2:5] = rank_one[0, 0]
    return LatticeBlade(sites, (0.3, 0.2), (True, False), rng.random(shape) < 0.2)


def bloch_norm(h):
    """|g| of each traceless part g . sigma in a stack of Hermitian 2x2 matrices."""
    return np.hypot(np.abs(h[..., 1, 0]), 0.5 * (h[..., 0, 0] - h[..., 1, 1]).real)


# the largest eta |g| on the lattice: small, theta = 2 eta |g| near pi, and
# several turns (both sides round eta |g| to a few ulps, so the match loosens
# in proportion; past about 20 it no longer holds to 1e-14)
@pytest.mark.parametrize("turn", [1e-3, np.pi / 2 - 1e-3, np.pi / 2, 10.0])
@pytest.mark.parametrize("seed", range(3))
def test_bloch_step_matches_conjugation_site_by_site(turn, seed):
    lat = mixed_rank_lattice(np.random.default_rng(seed))
    grad = sigma_lattice_gradient(lat)
    grad[lat.frozen] = 0.0
    norm = bloch_norm(grad)
    eta = turn / np.max(norm)
    final, trace = sigma_flow(lat, steps=1, eta=eta)
    for idx in np.ndindex(lat.grid_shape):
        u = unitary_exp(grad[idx], -eta)
        np.testing.assert_allclose(final.sites[idx], u @ lat.sites[idx] @ dagger(u),
                                   rtol=0, atol=1e-14)
    assert np.array_equal(final.sites, dagger(final.sites))
    still = lat.frozen | (norm == 0.0)
    assert norm[2, 3] == 0.0 and np.sum(norm == 0.0) > np.sum(lat.frozen)
    # frozen and g = 0 sites keep their values exactly (a zero entry may change
    # sign, as it did under the matrix step's identity factor)
    assert np.array_equal(final.sites[still], lat.sites[still])
    assert trace == [sigma_lattice_energy(lat), sigma_lattice_energy(final)]


def test_matrix_flow_matches_per_site_reference():
    # N != 2 keeps the unitary_exp conjugation; a rank-1 reflection in C^3 on a
    # mixed periodic/open lattice with a frozen column
    lat = random_reflection_lattice(np.random.default_rng(3), (5, 4), (True, False), n=3, k=1)
    lat.frozen = np.zeros(lat.grid_shape, dtype=bool)
    lat.frozen[:, 0] = True
    eta = 0.05 / max_abs(sigma_lattice_gradient(lat))
    final, trace = sigma_flow(lat, steps=6, eta=eta)
    ref, ref_trace = per_site_flow(lat, steps=6, eta=eta)
    np.testing.assert_allclose(final.sites, ref.sites, rtol=0, atol=1e-14)
    # the energies are about 50 here
    np.testing.assert_allclose(trace, ref_trace, rtol=1e-14, atol=0)
    assert trace[-1] < trace[0]
    assert np.array_equal(final.sites[lat.frozen], lat.sites[lat.frozen])
    assert trace[-1] == sigma_lattice_energy(final)


@pytest.mark.parametrize("n", [2, 3])
def test_flow_with_a_nan_site_raises_domain_error(n):
    # the N = 2 step checks its generator before any sin or cos, as unitary_exp's
    # Hermitian check does for other N; pyproject.toml turns RuntimeWarning into an error
    lat = random_reflection_lattice(np.random.default_rng(n), (4, 5), (False, True), n=n, k=1)
    lat.sites[2, 3, 0, 1] = np.nan
    with pytest.raises(DomainError, match="site|stack index"):
        sigma_flow(lat, steps=3, eta=1e-3)
