import numpy as np
import pytest

from bladegauge.blade import (blade_curvature, four_way, projector, shape_identity_residual,
                              shape_operator)
from bladegauge.embedded import (christoffel_gauss_curvature, cylinder,
                                 embedded_blade, gauss_curvature, induced_metric, plane,
                                 riemann_component, sphere, tangent_frame, torus)
from bladegauge.errors import ChartError
from bladegauge.fields import FieldFn, euclidean
from bladegauge.gauge import covariant_field
from bladegauge.linalg import max_abs
from bladegauge.tolerances import DEFAULT as TOL


def real_shape(emb, x, mu):
    """S_real = (1/2) R dR = i S, the skew shape operator of surface theory."""
    return 1j * shape_operator(embedded_blade(emb)).at(x, mu)


def chart_points(rng, count=4):
    return [np.array([rng.uniform(0.5, np.pi - 0.5), rng.uniform(0, 2 * np.pi)])
            for _ in range(count)]


def test_plane_metric_and_flatness():
    p = plane()
    x = np.array([0.3, -0.7])
    assert max_abs(induced_metric(p, x) - np.eye(2)) < 1e-12
    blade = embedded_blade(p)
    r = blade(x)
    assert max_abs(r @ r - np.eye(3)) < 1e-12
    for mu in range(2):
        assert max_abs(shape_operator(blade).at(x, mu)) < 1e-12
    assert max_abs(blade_curvature(blade).at(x, 0, 1)) < 1e-12


def test_sphere_metric_hand_value(rng):
    s = sphere(1.0)
    for x in chart_points(rng):
        g = induced_metric(s, x)
        want = np.diag([1.0, np.sin(x[0]) ** 2])
        assert max_abs(g - want) < 1e-12


def test_cylinder_metric_flat_but_curved_extrinsically():
    c = cylinder()
    x = np.array([0.4, 0.9])
    assert max_abs(induced_metric(c, x) - np.eye(2)) < 1e-12
    assert max_abs(real_shape(c, x, 0)) > 0.1         # extrinsic bending
    assert abs(gauss_curvature(c, x)) < 1e-10         # intrinsically flat


def test_sphere_blade_and_shape_at_equator():
    s = sphere(1.0)
    x = np.array([np.pi / 2, 0.0])
    # tangent vectors (0,0,-1) and (0,1,0): P projects onto span{e_y, e_z}
    fr = tangent_frame(s, x)
    assert max_abs(fr[:, 0] - np.array([0, 0, -1.0])) < 1e-12
    assert max_abs(fr[:, 1] - np.array([0, 1.0, 0])) < 1e-12
    p = projector(embedded_blade(s))(x)
    assert max_abs(p - np.diag([0, 1.0, 1.0])) < 1e-12
    normal = np.array([1.0, 0, 0])
    for mu in range(2):
        smu = real_shape(s, x, mu)
        assert max_abs(smu) > 0.1
        mapped = smu @ normal
        assert max_abs(p @ mapped - mapped) < 1e-10  # normal goes tangent


def test_shape_is_skew(rng):
    for emb in (sphere(1.3), cylinder(), torus()):
        for x in chart_points(rng, 2):
            for mu in range(2):
                smu = real_shape(emb, x, mu)
                assert max_abs(smu.imag) == 0.0
                assert max_abs(smu + smu.T) < 1e-9


def test_shape_operator_is_half_r_dr_bit_for_bit(rng):
    # S_real = (1/2) R dR with R = 2P - 1, P = F g^-1 F^T and its closed-form dP
    for emb in (sphere(1.3), cylinder(), torus()):
        for x in chart_points(rng, 2):
            fr = tangent_frame(emb, x)
            g = fr.T @ fr
            ginv = np.linalg.inv(g)
            r = 2.0 * (fr @ np.linalg.solve(g, fr.T)) - np.eye(3)
            for mu in range(2):
                dfr = np.stack([emb.d2(x, nu, mu) for nu in range(2)], axis=-1)
                dginv = -ginv @ (dfr.T @ fr + fr.T @ dfr) @ ginv
                dp = dfr @ ginv @ fr.T + fr @ dginv @ fr.T + fr @ ginv @ dfr.T
                np.testing.assert_array_equal(real_shape(emb, x, mu), 0.5 * r @ (2.0 * dp))


def test_unit_sphere_gauss_curvature_vs_oracle(rng):
    s = sphere(1.0)
    for x in chart_points(rng):
        k = gauss_curvature(s, x)
        assert abs(k - 1.0) < 1e-6
        assert abs(k - christoffel_gauss_curvature(s, x)) < 1e-6
        assert abs(riemann_component(s, x, 0, 1, 0, 1) - np.sin(x[0]) ** 2) < 1e-10


def test_scaled_sphere_curvature(rng):
    for a in (0.5, 2.0, 3.0):
        s = sphere(a)
        for x in chart_points(rng, 2):
            assert abs(gauss_curvature(s, x) - 1.0 / a ** 2) < 1e-6


def test_torus_gauss_curvature(rng):
    rmaj, rmin = 2.0, 0.5
    t = torus(rmaj, rmin)
    for _ in range(4):
        x = np.array([rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)])
        want = np.cos(x[1]) / (rmin * (rmaj + rmin * np.cos(x[1])))
        assert abs(gauss_curvature(t, x) - want) < 1e-6


def test_curvature_two_paths_agree(rng):
    # the blade's four curvature expressions, two more than -[S, S] and [dR, dR] / 4
    for emb in (sphere(1.0), torus()):
        for x in chart_points(rng, 2):
            _, disc = four_way(embedded_blade(emb), x, 0, 1)
            assert disc < TOL.fd_nested()


def test_shape_identity_residual(rng):
    for emb in (sphere(1.0), cylinder()):
        s = shape_operator(embedded_blade(emb))
        for x in chart_points(rng, 2):
            res = shape_identity_residual(s, 0, 1, x)
            assert max_abs(res) < TOL.fd_nested()


def test_riemann_symmetries(rng):
    s = sphere(1.2)
    x = chart_points(rng, 1)[0]
    for rho in range(2):
        for sig in range(2):
            for mu in range(2):
                for nu in range(2):
                    r = riemann_component(s, x, rho, sig, mu, nu)
                    assert abs(r + riemann_component(s, x, rho, sig, nu, mu)) < 1e-9
                    assert abs(r + riemann_component(s, x, sig, rho, mu, nu)) < 1e-9
                    assert abs(r - riemann_component(s, x, mu, nu, rho, sig)) < 1e-9


def test_covariant_derivative_keeps_tangent_fields_tangent(rng):
    s = sphere(1.0)
    st = euclidean(2)

    def v_fn(x):
        fr = tangent_frame(s, x)
        return fr[:, 0] * np.sin(x[1]) + fr[:, 1] * np.cos(x[0])

    v = FieldFn(st, (3,), v_fn, None, None)
    blade = embedded_blade(s)
    for x in chart_points(rng, 3):
        p = projector(blade)(x)
        for mu in range(2):
            dv = covariant_field(shape_operator(blade), v, mu)(x)
            assert max_abs(p @ dv - dv) < 1e-5


@pytest.mark.parametrize("build", [plane, lambda: sphere(1.3), cylinder, torus],
                         ids=["plane", "sphere", "cylinder", "torus"])
def test_charts_keep_analytic_derivatives(build):
    # a chart that fell back to finite differences would still pass the FD-budget tests
    chart = build()
    assert chart.deriv is not None and chart.deriv2 is not None
    assert embedded_blade(chart).deriv is not None


def test_degenerate_chart_error():
    st = euclidean(2)
    # both tangent vectors parallel: f(u, v) = (u + v, u + v, 0)
    f = FieldFn(st, (3,), lambda x: np.array([x[0] + x[1], x[0] + x[1], 0.0]),
                lambda x, mu: np.array([1.0, 1.0, 0.0]), None)
    with pytest.raises(ChartError):
        induced_metric(f, np.array([0.1, 0.2]))
    with pytest.raises(ChartError):
        embedded_blade(f)(np.array([0.1, 0.2]))
    with pytest.raises(ChartError):
        gauss_curvature(FieldFn(euclidean(3), (3,), lambda x: x, None, None), np.zeros(3))


def test_fd_fallback_without_analytic_derivs(rng):
    # strip the analytic jacobian/hessian: everything still works at FD accuracy
    s = sphere(1.0)
    fd_emb = s.without_analytic_derivs()
    x = np.array([1.2, 0.8])
    assert abs(gauss_curvature(fd_emb, x) - 1.0) < 5e-4
    assert max_abs(real_shape(fd_emb, x, 0) - real_shape(s, x, 0)) < 1e-5
