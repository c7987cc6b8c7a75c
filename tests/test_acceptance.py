"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines; the suite is
sized to finish in well under two minutes on a laptop.
"""

import numpy as np

from bladegauge.blade import (blade_curvature, blade_from_frame,
                              complement_field, extract_potential, four_way,
                              random_smooth_frame,
                              shape_identity_residual, shape_operator)
from bladegauge.darboux import darboux_data, darboux_frame, darboux_one_form, verify_rank
from bladegauge.dynamics import (blade_lattice_from_field, conjugate_sites,
                                 modified_eom_residual,
                                 sigma_flow, sigma_lattice_energy,
                                 sigma_lattice_gradient, ym_residual)
from bladegauge.em import (em_complement, em_faraday, em_frame,
                           monopole_blade_glue, monopole_field_strength,
                           monopole_params, plane_wave_mod_condition,
                           plane_wave_params, plane_wave_potential,
                           quantization_satisfied)
from bladegauge.embedded import (christoffel_gauss_curvature, embedded_blade,
                                 gauss_curvature, sphere)
from bladegauge.fields import (Grid, MINKOWSKI4, exterior_d, form_values, linear, sin_of,
                               wedge)
from bladegauge.gauge import (field_strength, gauge_transform,
                              gauge_transform_field_strength)
from bladegauge.linalg import dagger, hermitian_part, max_abs
from bladegauge.tolerances import DEFAULT as TOL

ST = MINKOWSKI4
H = TOL.fd_step            # 1e-3
FD_TOL = TOL.fd()          # 10 h^2 = 1e-5
NESTED_TOL = TOL.fd_nested()
ANALYTIC_TOL = TOL.analytic

MAXWELL_PAIRS = [(np.array([1.0, 0, 0, 1.0]), np.array([0, 1.0, 0, 0])),
                 (np.array([0.8, 0, 0.8, 0]), np.array([0, 0, 0, 1.3]))]
NESTING_PAIR = (np.array([0, 1.0, 0, 0]), np.array([1.0, 0, 1.0, 0]))
VIOLATING_PAIRS = [(np.array([1.0, 0, 0, 1.0]), np.array([1.0, 0, 0, 0])),
                   (np.array([0, 1.0, 0, 0]), np.array([1.0, 0, 2.0, 0]))]

_SHAPES = [(2, 1), (4, 1), (4, 2), (2, 2)]


def _report(num, desc, ok):
    print(f"\nACCEPTANCE {num:02d} [{desc}]: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def _frames(count, analytic=True):
    # amplitude chosen so derivative constants stay O(1): the 10 h^2 budgets
    # presume smooth fixtures
    out = []
    for i in range(count):
        N, n = _SHAPES[i % len(_SHAPES)]
        out.append(random_smooth_frame(ST, N, n, seed=1000 + i, amplitude=0.3,
                                       analytic=analytic))
    return out


def _sample_points(seed, count=3):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-0.5, 0.5, 4) for _ in range(count)]


def _fixture_blades():
    """Representative blades: random frames, plane wave, monopole, darboux."""
    fixtures = []
    for i, v in enumerate(_frames(3)):
        fixtures.append((f"random_{i}", v, _sample_points(40 + i)))
    vpw = em_frame(plane_wave_params(ST, *MAXWELL_PAIRS[0]))
    fixtures.append(("plane_wave", vpw, _sample_points(50)))
    data = darboux_data(ST, [("x0", "x1"), ("x2", "x3")],
                        lo=[-0.8] * 4, hi=[0.8] * 4)
    fixtures.append(("darboux", darboux_frame(data),
                     [p * 0.8 for p in _sample_points(51)]))
    return fixtures


def test_criterion_01_blade_identity_suite():
    worst_analytic = 0.0
    worst_fd = 0.0
    for analytic in (True, False):
        for idx, v in enumerate(_frames(20, analytic=analytic)):
            blade = blade_from_frame(v)
            s = shape_operator(blade)
            N, n = v.shape
            for x in _sample_points(idx, 2):
                r = blade(x)
                worst = 0.0
                worst = max(worst, max_abs(r @ r - np.eye(N)))
                worst = max(worst, max_abs(r - dagger(r)))
                worst = max(worst, abs(np.trace(r).real - (2 * n - N)))
                for mu in range(4):
                    sv = s.at(x, mu)
                    worst = max(worst, max_abs(r @ sv + sv @ r))
                    worst = max(worst,
                                max_abs(blade.d(x, mu) + 1j * (sv @ r - r @ sv)))
                if analytic:
                    worst_analytic = max(worst_analytic, worst)
                else:
                    worst_fd = max(worst_fd, worst)
    ok = worst_analytic <= ANALYTIC_TOL and worst_fd <= FD_TOL
    _report(1, f"blade identities: analytic {worst_analytic:.2e} <= {ANALYTIC_TOL:.0e}, "
               f"fd {worst_fd:.2e} <= {FD_TOL:.0e}", ok)


def test_criterion_02_curvature_four_way():
    worst = 0.0
    for name, v, pts in _fixture_blades():
        blade = blade_from_frame(v)
        for x in pts[:2]:
            for mu, nu in ((0, 1), (1, 3), (0, 2)):
                _, disc = four_way(blade, x, mu, nu)
                worst = max(worst, disc)
    # the monopole blade lives on the spherical chart
    blade_m = blade_from_frame(em_frame(monopole_params(0.5, "plus")))
    for th, ph in ((1.1, 0.3), (2.0, 4.0)):
        _, disc = four_way(blade_m, np.array([1.0, th, ph]), 1, 2)
        worst = max(worst, disc)
    _report(2, f"four curvature expressions agree: {worst:.2e} <= {FD_TOL:.0e}",
            worst <= FD_TOL)


def test_criterion_03_gauge_elimination():
    worst_inv = 0.0
    worst_cov = 0.0
    v = random_smooth_frame(ST, 4, 2, seed=77)
    blade = blade_from_frame(v)
    s = shape_operator(blade)
    omega = blade_curvature(blade)
    a = extract_potential(v)
    fs = field_strength(a)
    for j in range(10):
        u = random_smooth_frame(ST, 2, 2, seed=600 + j)
        v2 = v @ u.dagger()
        blade2 = blade_from_frame(v2)
        s2 = shape_operator(blade2)
        omega2 = blade_curvature(blade2)
        fs2 = field_strength(gauge_transform(a, u))
        fs2_expect = gauge_transform_field_strength(fs, u)
        for x in _sample_points(90 + j, 2):
            worst_inv = max(worst_inv, max_abs(blade(x) - blade2(x)))
            for mu in range(4):
                worst_inv = max(worst_inv, max_abs(s.at(x, mu) - s2.at(x, mu)))
            for mu, nu in ((0, 1), (2, 3)):
                worst_inv = max(worst_inv,
                                max_abs(omega.at(x, mu, nu) - omega2.at(x, mu, nu)))
                worst_cov = max(worst_cov, max_abs(fs2.at(x, mu, nu)
                                                   - fs2_expect.at(x, mu, nu)))
    ok = worst_inv <= ANALYTIC_TOL and worst_cov <= FD_TOL
    _report(3, f"gauge elimination: blade quantities {worst_inv:.2e} <= "
               f"{ANALYTIC_TOL:.0e}, F covariance {worst_cov:.2e} <= {FD_TOL:.0e}", ok)


def test_criterion_04_curvature_blocks():
    worst_blocks = 0.0
    for name, v, pts in _fixture_blades():
        a = extract_potential(v)
        fs = field_strength(a)
        omega = blade_curvature(blade_from_frame(v))
        w = complement_field(v)
        cw = [(-1j) * (w.dagger() @ w.partial(mu)) for mu in range(4)]
        from bladegauge.gauge import gauge_potential
        g = field_strength(gauge_potential(ST, cw))
        for x in pts[:2]:
            vv, wv = v(x), w(x)
            for mu, nu in ((0, 1), (1, 3)):
                om = omega.at(x, mu, nu)
                worst_blocks = max(worst_blocks,
                                   max_abs(fs.at(x, mu, nu) - dagger(vv) @ om @ vv))
                worst_blocks = max(worst_blocks,
                                   max_abs(g.at(x, mu, nu) - dagger(wv) @ om @ wv))
    # EM complementary connection: C = -A and G = -F with the printed complement
    params = plane_wave_params(ST, *MAXWELL_PAIRS[0])
    vem = em_frame(params)
    wem = em_complement(params)
    aem = extract_potential(vem)
    fem = field_strength(aem)
    from bladegauge.blade import shape_gauge_decompose
    dec = shape_gauge_decompose(vem, wem)
    worst_em = 0.0
    for x in _sample_points(60, 3):
        for mu in range(4):
            worst_em = max(worst_em, max_abs(dec.C.at(x, mu) + aem.at(x, mu)))
        for mu, nu in ((0, 1), (0, 3)):
            worst_em = max(worst_em, max_abs(dec.G.at(x, mu, nu) + fem.at(x, mu, nu)))
    ok = worst_blocks <= FD_TOL and worst_em <= FD_TOL
    _report(4, f"curvature blocks F=V'OV, G=W'OW: {worst_blocks:.2e}; "
               f"EM C=-A, G=-F: {worst_em:.2e} (tol {FD_TOL:.0e})", ok)


def test_criterion_05_plane_wave():
    worst_veq = 0.0
    for k, n in MAXWELL_PAIRS:
        params = plane_wave_params(ST, k, n)
        a = plane_wave_potential(ST, k, n)
        for x in _sample_points(70, 3):
            for mu in range(4):
                worst_veq = max(worst_veq, abs(
                    np.cos(params.rho(x)) ** 2 * params.alpha.d(x, mu)
                    + np.sin(params.rho(x)) ** 2 * params.beta.d(x, mu)
                    - a.at(x, mu)[0, 0]))
    k, n = MAXWELL_PAIRS[0]
    a = plane_wave_potential(ST, k, n)
    worst_maxwell = max(max_abs(ym_residual(a, nu, x))
                        for x in _sample_points(71, 3) for nu in range(4))
    # modified-EOM residual vanishes exactly when (k.k)(n.n) = (k.n)^2
    design_ok = True
    for k, n in MAXWELL_PAIRS + [NESTING_PAIR]:
        v = em_frame(plane_wave_params(ST, k, n))
        assert abs(plane_wave_mod_condition(ST, k, n)) < 1e-12
        r = max(max_abs(modified_eom_residual(v, x)) for x in _sample_points(72, 3))
        design_ok = design_ok and r <= NESTED_TOL
    for k, n in VIOLATING_PAIRS:
        v = em_frame(plane_wave_params(ST, k, n))
        assert abs(plane_wave_mod_condition(ST, k, n)) > 0.5
        r = max(max_abs(modified_eom_residual(v, x)) for x in _sample_points(73, 3))
        design_ok = design_ok and r > NESTED_TOL
    ok = worst_veq <= FD_TOL and worst_maxwell <= 1e-9 and design_ok
    _report(5, f"plane wave: frame-eq {worst_veq:.2e}, maxwell {worst_maxwell:.2e}, "
               f"modified-EOM 2x2 design {'consistent' if design_ok else 'broken'}", ok)


def test_criterion_06_monopole():
    flux_ok = True
    for g in (0.5, 1.0):
        flux = np.real(sum([monopole_flux(g)]))
        flux_ok = flux_ok and abs(flux - 4 * np.pi * g) <= 0.005 * abs(4 * np.pi * g)
    glue_ok = True
    single_ok = True
    for g in (0.0, 0.3, 0.5, 1.0):
        rep = monopole_blade_glue(g)
        glue_ok = glue_ok and rep.max_patch_mismatch <= 1e-10
        single_ok = single_ok and (rep.single_valued == quantization_satisfied(g))
    ok = flux_ok and glue_ok and single_ok
    _report(6, f"monopole: flux 4*pi*g within 0.5%: {flux_ok}, patch gluing <= 1e-10: "
               f"{glue_ok}, single-valued iff 2g integer: {single_ok}", ok)


def monopole_flux(g):
    from bladegauge.fields import sphere_flux
    return sphere_flux(monopole_field_strength(g), quadrature_order=16)


def test_criterion_07_darboux():
    data2 = darboux_data(ST, [("x0", "x1"), ("x2", "x3")],
                         lo=[-0.8] * 4, hi=[0.8] * 4)
    data1 = darboux_data(ST, [("sin(x0 - x3)", "x1")],
                         lo=[-0.8] * 4, hi=[0.8] * 4)
    worst = 0.0
    rng = np.random.default_rng(81)
    for data in (data2, data1):
        v = darboux_frame(data)
        a_frame = extract_potential(v)
        from bladegauge.darboux import darboux_potential
        a_decl = darboux_potential(data)
        for _ in range(10):
            x = rng.uniform(-0.75, 0.75, 4)
            for mu in range(4):
                worst = max(worst, abs(a_frame.at(x, mu)[0, 0]
                                       - a_decl.at(x, mu)[0, 0]))
    # the two-pair potential is genuinely non-decomposable (F ^ F != 0)
    da = exterior_d(darboux_one_form(data2))
    x = np.array([0.3, 0.2, 0.4, 0.1])
    ff = wedge(form_values(da, x), form_values(da, x))
    nondecomposable = max(abs(c) for c in ff.values()) > 1.0
    ranks_ok = verify_rank(data2) == 1 and verify_rank(data1) == 0
    ok = worst <= FD_TOL and nondecomposable and ranks_ok and data2.N == 4
    _report(7, f"darboux frames: residual {worst:.2e} <= {FD_TOL:.0e}, N=4 "
               f"non-decomposable fixture: {nondecomposable}, ranks match: {ranks_ok}", ok)


def test_criterion_08_em_decomposability():
    rng = np.random.default_rng(82)
    worst = 0.0
    fixtures = [
        em_faraday(plane_wave_params(ST, *MAXWELL_PAIRS[0])),
        em_faraday(plane_wave_params(ST, *NESTING_PAIR)),
        em_faraday(_generic_em_params()),
    ]
    for f in fixtures:
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, 4)
            ff = wedge(form_values(f, x), form_values(f, x))
            worst = max(worst, max(abs(c) for c in ff.values()))
    _report(8, f"N=2 field strengths decomposable: max |F^F| = {worst:.2e} <= 1e-10",
            worst <= 1e-10)


def _generic_em_params():
    from bladegauge.em import EmFrameParams
    return EmFrameParams(alpha=sin_of(linear(ST, [0.5, 0.3, 0, 0])),
                         beta=linear(ST, [0, -0.4, 0.2, 0]),
                         rho=sin_of(linear(ST, [0.1, 0, -0.6, 0.7])))


def test_criterion_09_embedded_demo():
    rng = np.random.default_rng(83)
    pts = [np.array([rng.uniform(0.5, np.pi - 0.5), rng.uniform(0, 2 * np.pi)])
           for _ in range(4)]
    s1 = sphere(1.0)
    worst_unit = max(abs(gauss_curvature(s1, x) - 1.0) for x in pts)
    worst_oracle = 0.0
    for x in pts:
        k_oracle = christoffel_gauss_curvature(s1, x)
        worst_oracle = max(worst_oracle, abs(gauss_curvature(s1, x) - k_oracle))
    radius_ok = all(abs(gauss_curvature(sphere(a), pts[0]) - 1 / a ** 2) < 1e-6
                    for a in (0.5, 2.0))
    worst_ident = 0.0
    worst_paths = 0.0
    blade1 = embedded_blade(s1)
    shape1 = shape_operator(blade1)
    for x in pts[:2]:
        worst_ident = max(worst_ident, max_abs(shape_identity_residual(shape1, 0, 1, x)))
        _, disc = four_way(blade1, x, 0, 1)
        worst_paths = max(worst_paths, disc)
    ok = (worst_unit <= 1e-6 and worst_oracle <= 1e-6 and radius_ok
          and worst_ident <= FD_TOL and worst_paths <= FD_TOL)
    _report(9, f"embedded: unit-sphere K err {worst_unit:.2e}, oracle gap "
               f"{worst_oracle:.2e} <= 1e-6, 1/a^2: {radius_ok}, shape identity "
               f"{worst_ident:.2e}, curvature paths {worst_paths:.2e}", ok)


def test_criterion_10_sigma_flow():
    from bladegauge.em import monopole_blade
    blade = monopole_blade(0.5)
    grid = Grid(lo=(0.35 * np.pi, 0.0), hi=(0.65 * np.pi, 2 * np.pi), cells=(8, 12))
    lat = blade_lattice_from_field(
        blade, grid, point_map=lambda p: np.array([1.0, p[0], p[1]]),
        periodic=(False, True), frozen_boundary_axes=(0,))
    rng = np.random.default_rng(84)
    b = np.zeros_like(lat.sites)
    for idx in np.ndindex(lat.grid_shape):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b[idx] = hermitian_part(g)
    eps = 1e-5
    fd = (sigma_lattice_energy(conjugate_sites(lat, b, eps))
          - sigma_lattice_energy(conjugate_sites(lat, b, -eps))) / (2 * eps)
    an = float(np.sum(np.einsum("...ij,...ji->...", sigma_lattice_gradient(lat), b)).real)
    grad_ok = abs(fd - an) <= 1e-6 * max(1.0, abs(fd))
    defects = [lat.reflection_defect()]
    current = lat
    trace_all = []
    for chunk in range(5):
        current, trace = sigma_flow(current, steps=100, eta=2e-3)
        defects.append(current.reflection_defect())
        trace_all.extend(trace if chunk == 0 else trace[1:])
    monotone = all(b2 <= a2 + 1e-12 * (1 + abs(a2))
                   for a2, b2 in zip(trace_all, trace_all[1:]))
    defect_ok = max(defects) <= 1e-12
    ok = grad_ok and monotone and defect_ok
    _report(10, f"sigma flow: gradient-vs-FD rel {abs(fd - an) / max(1.0, abs(fd)):.2e}"
                f" <= 1e-6, 500-step descent monotone: {monotone}, max reflection "
                f"defect {max(defects):.2e} <= 1e-12", ok)


def test_criterion_11_solution_nesting():
    # every Maxwell fixture solves the modified equation; the nesting fixture
    # solves the modified equation while violating Yang-Mills
    pts = _sample_points(85, 2)
    maxwell_ok = True
    for k, n in MAXWELL_PAIRS:
        v = em_frame(plane_wave_params(ST, k, n))
        r = max(max_abs(modified_eom_residual(v, x)) for x in pts)
        maxwell_ok = maxwell_ok and r <= NESTED_TOL
    k, n = NESTING_PAIR
    v = em_frame(plane_wave_params(ST, k, n))
    a = extract_potential(v)
    mod_r = max(max_abs(modified_eom_residual(v, x)) for x in pts)
    ym_r = max(max_abs(ym_residual(a, nu, x)) for x in pts for nu in range(4))
    ok = maxwell_ok and mod_r <= NESTED_TOL and ym_r > 100 * NESTED_TOL
    _report(11, f"solution nesting: maxwell fixtures pass modified EOM: {maxwell_ok}; "
                f"non-maxwell fixture modified {mod_r:.2e} <= {NESTED_TOL:.0e} "
                f"while YM residual {ym_r:.2e} is nonzero", ok)


def test_criterion_12_fd_convergence():
    # first-derivative identity residual (covariant constancy of R) on an
    # FD-only frame: halving the step must cut the residual ~4x
    v = random_smooth_frame(ST, 4, 2, seed=86, analytic=False)
    x = np.array([0.21, -0.13, 0.32, 0.08])
    ratios = []
    for h in (2e-2, 1e-2):
        res_h, res_h2 = 0.0, 0.0
        for mu in range(4):
            res_h += _covariant_constancy_residual(v, x, mu, h)
            res_h2 += _covariant_constancy_residual(v, x, mu, h / 2)
        ratios.append(res_h / res_h2)
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report(12, f"fd convergence: halving h scales identity residuals by "
                f"{[round(r, 2) for r in ratios]} (expect ~4)", ok)


def _covariant_constancy_residual(v, x, mu, h):
    blade = blade_from_frame(v.with_step(h))
    s = shape_operator(blade)
    r = blade(x)
    sv = s.at(x, mu)
    return max_abs(blade.d(x, mu) + 1j * (sv @ r - r @ sv))
