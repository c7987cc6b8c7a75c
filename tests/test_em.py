import itertools

import numpy as np
import pytest

from bladegauge.blade import blade_from_frame, extract_potential, shape_gauge_decompose
from bladegauge.em import (EmFrameParams, em_complement, em_faraday, em_frame,
                           em_potential_residual, monopole_blade,
                           monopole_blade_glue, monopole_field_strength,
                           monopole_params, monopole_potential,
                           plane_wave_mod_condition, plane_wave_params,
                           plane_wave_potential, quantization_satisfied)
from bladegauge.errors import ChartError, ParameterError
from bladegauge.fields import (constant, exterior_d, form_values, linear, one_form, sin_of,
                               sphere_flux, wedge)
from bladegauge.linalg import SIGMA_X, dagger, max_abs
from bladegauge.tolerances import DEFAULT as TOL


def const_params(st, alpha=0.0, beta=0.0, rho=0.0):
    return EmFrameParams(constant(alpha, st), constant(beta, st), constant(rho, st))


def test_em_frame_north_pole(st4):
    v = em_frame(const_params(st4))
    x = np.zeros(4)
    assert max_abs(v(x) - np.array([[1.0], [0.0]])) < 1e-14
    r = blade_from_frame(v)(x)
    assert max_abs(r - np.diag([1.0, -1.0])) < 1e-14


def test_em_blade_entrywise_formula(st4, points4):
    alpha = linear(st4, [0.3, 0.1, 0, 0])
    beta = linear(st4, [0, -0.4, 0.2, 0])
    rho = linear(st4, [0.1, 0, 0, 0.7], 0.3)
    blade = blade_from_frame(em_frame(EmFrameParams(alpha, beta, rho)))
    for x in points4:
        a, b, r = alpha(x), beta(x), rho(x)
        want = np.array([
            [np.cos(2 * r), np.exp(1j * (a - b)) * np.sin(2 * r)],
            [np.exp(-1j * (a - b)) * np.sin(2 * r), -np.cos(2 * r)],
        ])
        assert max_abs(blade(x) - want) < 1e-13


def test_em_blade_common_shift_invariance(st4, points4):
    alpha = linear(st4, [0.3, 0.1, 0, 0])
    beta = linear(st4, [0, -0.4, 0.2, 0])
    rho = linear(st4, [0.1, 0, 0, 0.7], 0.3)
    chi = linear(st4, [0.9, -0.2, 0.5, 0.1])
    b1 = blade_from_frame(em_frame(EmFrameParams(alpha, beta, rho)))
    b2 = blade_from_frame(em_frame(EmFrameParams(alpha + chi, beta + chi, rho)))
    for x in points4:
        assert max_abs(b1(x) - b2(x)) < 1e-13


def test_em_blade_sigma_x(st4):
    v = em_frame(const_params(st4, rho=np.pi / 4))
    assert max_abs(blade_from_frame(v)(np.zeros(4)) - SIGMA_X) < 1e-14


def test_plane_wave_solves_frame_equation(st4, points4):
    k = np.array([1.2, 0.3, 0, 0.8])
    n = np.array([0, 0.9, -0.4, 0])
    params = plane_wave_params(st4, k, n)
    a = plane_wave_potential(st4, k, n)
    for x in points4:
        for mu in range(4):
            assert em_potential_residual(params, a, mu, x) < 1e-12


def test_zero_params_zero_potential(st4):
    params = const_params(st4)
    a = plane_wave_potential(st4, [0, 0, 0, 0], [0, 0, 0, 0])
    assert em_potential_residual(params, a, 0, np.zeros(4)) == 0.0


def test_plane_wave_extracted_potential(st4, points4):
    # the frame built from the closed-form params extracts to n sin(k x)
    k = np.array([1.0, 0, 0, 1.0])
    n = np.array([0, 1.0, 0, 0])
    v = em_frame(plane_wave_params(st4, k, n))
    a = extract_potential(v)
    for x in points4:
        for mu in range(4):
            want = n[mu] * np.sin(np.dot(k, x))
            assert abs(a.at(x, mu)[0, 0] - want) < 1e-12


def test_em_faraday_constant_rho(st4, points4):
    params = const_params(st4, rho=0.4)
    f = em_faraday(params)
    for x in points4:
        for mu in range(4):
            for nu in range(4):
                assert abs(f.component(mu, nu)(x)) == 0.0


def test_em_faraday_plane_wave_closed_form(st4, points4):
    k = np.array([1.0, 0.4, 0, 0.7])
    n = np.array([0, 0.8, 0.3, 0])
    params = plane_wave_params(st4, k, n)
    f = em_faraday(params)
    for x in points4:
        c = np.cos(np.dot(k, x))
        for mu in range(4):
            for nu in range(4):
                want = (k[mu] * n[nu] - k[nu] * n[mu]) * c
                assert abs(f.component(mu, nu)(x) - want) < 1e-12


def test_em_faraday_agrees_with_exterior_d(st4, points4):
    params = plane_wave_params(st4, [0.9, 0.2, 0, 0.5], [0, 0.7, 0.1, 0])
    f = em_faraday(params)
    # reconstruct A componentwise and apply d
    comps = []
    for mu in range(4):
        from bladegauge.fields import FieldFn
        comps.append(FieldFn(st4, (), lambda x, mu=mu:
                     np.cos(params.rho(x)) ** 2 * params.alpha.d(x, mu)
                     + np.sin(params.rho(x)) ** 2 * params.beta.d(x, mu), None, None))
    da = exterior_d(one_form(st4, comps))
    for x in points4[:3]:
        for mu in range(4):
            for nu in range(mu + 1, 4):
                assert abs(f.component(mu, nu)(x) - da.component(mu, nu)(x)) < 1e-6


def test_em_faraday_always_decomposable(st4, rng):
    # F ^ F = 0 for every N = 2 frame
    alpha = sin_of(linear(st4, [0.5, 0.3, 0, 0]))
    beta = linear(st4, [0, -0.4, 0.2, 0])
    rho = sin_of(linear(st4, [0.1, 0, -0.6, 0.7]))
    f = em_faraday(EmFrameParams(alpha, beta, rho))
    for _ in range(100):
        x = rng.uniform(-2, 2, 4)
        vals = form_values(f, x)
        ff = wedge(vals, vals)
        assert max(abs(v) for v in ff.values()) <= 1e-10


def test_plane_wave_mod_condition_cases(st4):
    # null transverse (Maxwell) satisfies; n parallel to k satisfies;
    # k null with k.n != 0 violates; spacelike k with null non-orthogonal n is
    # the interesting satisfying non-Maxwell case
    assert abs(plane_wave_mod_condition(st4, [1, 0, 0, 1], [0, 1, 0, 0])) < 1e-14
    assert abs(plane_wave_mod_condition(st4, [0, 1, 0, 0], [1, 0, 1, 0])) < 1e-14
    assert abs(plane_wave_mod_condition(st4, [1, 0, 0, 1], [1, 0, 0, 0])) > 0.5
    assert abs(plane_wave_mod_condition(st4, [0, 1, 0, 0], [1, 0, 2, 0])) > 0.5


def test_monopole_potential_values_and_gauge_relation():
    g = 0.5
    ap = monopole_potential(g, "plus")
    am = monopole_potential(g, "minus")
    x = np.array([1.0, np.pi / 2, 0.3])
    assert abs(ap.at(x, 2)[0, 0] - 0.5) < 1e-14
    assert abs(am.at(x, 2)[0, 0] + 0.5) < 1e-14
    # A+ - A- = 2 g d phi on the overlap
    rng = np.random.default_rng(2)
    for _ in range(5):
        y = np.array([1.0, rng.uniform(0.2, np.pi - 0.2), rng.uniform(0, 2 * np.pi)])
        diff = ap.at(y, 2)[0, 0] - am.at(y, 2)[0, 0]
        assert abs(diff - 2 * g) < 1e-13
        assert abs(ap.at(y, 0)[0, 0]) == 0.0
        assert abs(ap.at(y, 1)[0, 0]) == 0.0


def test_monopole_b_field_is_radial():
    from bladegauge.em import monopole_b_field
    b = monopole_b_field(0.5, [0.0, 0.0, 2.0])
    assert max_abs(b - np.array([0, 0, 0.125])) < 1e-14
    with pytest.raises(ChartError):
        monopole_b_field(0.5, [0.0, 0.0, 0.0])


def test_monopole_b_field_on_a_stack_takes_each_points_radius():
    from bladegauge.em import monopole_b_field
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    b = monopole_b_field(0.5, pts)
    assert max_abs(b - np.array([[0.5, 0.0, 0.0], [0.0, 0.125, 0.0]])) < 1e-15
    for i, p in enumerate(pts):
        assert np.array_equal(b[i], monopole_b_field(0.5, p))
    with pytest.raises(ChartError, match=r"stack index \[1\]"):
        monopole_b_field(0.5, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_monopole_pole_guard():
    ap = monopole_potential(0.5, "plus")
    am = monopole_potential(0.5, "minus")
    with pytest.raises(ChartError):
        ap.at(np.array([1.0, np.pi, 0.0]), 2)
    with pytest.raises(ChartError):
        am.at(np.array([1.0, 0.0, 0.0]), 2)


@pytest.mark.parametrize("patch", ["plus", "minus"])
def test_monopole_potential_is_analytic_and_guards_its_derivatives(patch):
    g = 0.5
    a_phi = monopole_potential(g, patch).component(2)
    assert a_phi.deriv is not None and a_phi.deriv2 is not None
    x = np.array([1.0, 1.1, 0.4])
    assert a_phi.d(x, 1)[0, 0] == g * np.sin(x[1])
    assert a_phi.d2(x, 1, 1)[0, 0] == g * np.cos(x[1])
    assert a_phi.d(x, 2)[0, 0] == 0.0 and a_phi.d2(x, 1, 2)[0, 0] == 0.0
    pole = np.array([1.0, np.pi if patch == "plus" else 0.0, 0.0])
    with pytest.raises(ChartError, match="potential undefined"):
        a_phi.d(pole, 1)
    with pytest.raises(ChartError, match="potential undefined"):
        a_phi.d2(pole, 1, 1)


def test_monopole_pole_guard_names_the_worst_point_of_a_stack():
    # theta = pi is the plus patch's excluded pole, theta = 0 the minus patch's
    ap = monopole_potential(0.5, "plus")
    am = monopole_potential(0.5, "minus")
    xs = np.array([[1.0, 1.5, 0.25], [1.0, np.pi, 2.0], [1.0, np.pi - 1e-7, 0.5],
                   [1.0, 0.0, 1.0]])
    with pytest.raises(ChartError) as err:
        ap.at(xs, 2)
    msg = str(err.value)
    assert "[1.0, 3.141593, 2.0]" in msg and "theta = pi" in msg
    assert "1.5" not in msg and "0.25" not in msg and "0.5" not in msg
    with pytest.raises(ChartError) as err:
        am.at(xs, 2)
    msg = str(err.value)
    assert "[1.0, 0.0, 1.0]" in msg and "theta = 0" in msg and "3.14" not in msg


def test_monopole_unknown_patch_is_rejected():
    for build in (monopole_params, monopole_potential):
        with pytest.raises(ParameterError, match="unknown monopole patch 'plux'"):
            build(0.5, "plux")


def test_monopole_params_solve_frame_equation():
    g = 0.5
    rng = np.random.default_rng(4)
    for patch in ("plus", "minus"):
        params = monopole_params(g, patch)
        a = monopole_potential(g, patch)
        for _ in range(5):
            x = np.array([1.0, rng.uniform(0.2, np.pi - 0.2), rng.uniform(0, 2 * np.pi)])
            for mu in range(3):
                assert em_potential_residual(params, a, mu, x) < 1e-12


def test_monopole_field_strength_and_flux():
    g = 0.5
    f = monopole_field_strength(g)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = np.array([1.0, rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi)])
        assert abs(f.component(1, 2)(x) - g * np.sin(x[1])) < 1e-12
    flux = sphere_flux(f, quadrature_order=16)
    assert abs(flux - 4 * np.pi * g) <= 0.005 * 4 * np.pi * g


def test_monopole_blades_glue_and_quantize():
    expected = {0.0: True, 0.3: False, 0.5: True, 1.0: True}
    for g, want in expected.items():
        rep = monopole_blade_glue(g)
        assert quantization_satisfied(g) == want
        assert rep.single_valued == want
        assert rep.max_patch_mismatch < 1e-10


def test_monopole_blade_g_zero_constant_in_phi():
    blade = monopole_blade(0.0)
    th = 1.1
    r1 = blade(np.array([1.0, th, 0.5]))
    r2 = blade(np.array([1.0, th, 4.4]))
    assert max_abs(r1 - r2) < 1e-14


def test_monopole_blade_extends_to_poles():
    blade = monopole_blade(0.5)
    north = blade(np.array([1.0, 0.0, 1.234]))
    south = blade(np.array([1.0, np.pi, 2.345]))
    assert max_abs(north - np.diag([1.0, -1.0])) < 1e-12
    assert max_abs(south - np.diag([-1.0, 1.0])) < 1e-12


def test_em_complementary_connection(st4, points4):
    # C = -A and G = -F with the printed complement
    k = np.array([1.0, 0, 0, 1.0])
    n = np.array([0, 0.8, 0, 0])
    params = plane_wave_params(st4, k, n)
    v = em_frame(params)
    w = em_complement(params)
    dec = shape_gauge_decompose(v, w)
    pts = np.array(points4[:2])
    for mu in range(4):
        assert max_abs(dec.reconstruction_residual(pts, mu)) <= TOL.fd_nested()
    for mu, nu in itertools.combinations(range(4), 2):
        block, gap = dec.omega_block_residual(pts, mu, nu)
        assert max_abs(block) <= TOL.fd_nested()
        assert max_abs(gap) <= TOL.fd_nested()
    a = extract_potential(v)
    from bladegauge.gauge import field_strength
    fs = field_strength(a)
    for x in points4[:3]:
        for mu in range(4):
            assert max_abs(dec.C.at(x, mu) + a.at(x, mu)) < TOL.fd()
        for mu, nu in ((0, 1), (1, 3)):
            assert max_abs(dec.G.at(x, mu, nu) + fs.at(x, mu, nu)) < TOL.fd()


def test_em_complement_is_unit_and_orthogonal(st4, points4):
    params = plane_wave_params(st4, [0.7, 0, 0.2, 0.4], [0, 0.5, 0, 0])
    v = em_frame(params)
    w = em_complement(params)
    for x in points4:
        u = np.hstack([v(x), w(x)])
        assert max_abs(dagger(u) @ u - np.eye(2)) < 1e-13
