import warnings

import numpy as np
import pytest

from bladegauge.blade import extract_potential, random_smooth_frame
from bladegauge.errors import DomainError
from bladegauge.fields import (FieldFn, Form, closedness_residual, constant,
                               euclidean, exp_i, linear, matrix_of)
from bladegauge.gauge import (covariant_derivative_matrix, covariant_field, field_strength,
                              gauge_map, gauge_potential, gauge_transform,
                              gauge_transform_field_strength, pure_gauge_potential)
from bladegauge.linalg import dagger, max_abs
from bladegauge.em import plane_wave_potential


def zero_potential(st, n=1):
    z = constant(np.zeros((n, n), dtype=complex), st)
    return gauge_potential(st, [z] * st.dim)


def test_covariant_derivative_trivial(st4):
    a = zero_potential(st4, 2)
    psi = constant(np.array([1.0, 2.0j]), st4)
    for mu in range(4):
        assert max_abs(covariant_field(a, psi, mu)(np.zeros(4))) == 0.0


def test_covariant_derivative_pure_gauge_flatness(points4, st4):
    # n = 1: A = d chi and psi = e^{-i chi} psi0 give D psi = 0
    chi = linear(st4, [0.4, -0.7, 0.2, 0.9])
    a = gauge_potential(st4, [matrix_of([[chi.partial(mu)]]) for mu in range(4)])
    psi0 = 1.3 - 0.2j
    psi = matrix_of([[psi0 * exp_i(-1.0 * chi)]]) @ constant(np.array([1.0]), st4)
    for x in points4:
        for mu in range(4):
            assert max_abs(covariant_field(a, psi, mu)(x)) < 1e-12


def test_covariant_derivative_matches_lifted_form(points4, st4):
    # D_mu psi = V^dag d_mu (V psi) whenever V solves the frame equation
    v = random_smooth_frame(st4, 4, 2, seed=3)
    a = extract_potential(v)
    psi = matrix_of([[linear(st4, [0.3, 0, 0.1, 0], 1.0)],
                     [exp_i(linear(st4, [0, 0.6, 0, -0.2]))]])
    psi_vec = FieldFn(st4, (2,), lambda x: psi(x)[:, 0],
                      (lambda x, mu: psi.d(x, mu)[:, 0]), None)
    lifted = v @ psi_vec
    for x in points4[:3]:
        for mu in range(4):
            want = dagger(v(x)) @ lifted.d(x, mu)
            got = covariant_field(a, psi_vec, mu)(x)
            assert max_abs(want - got) < 1e-9


def test_field_strength_zero_potential(st4):
    fs = field_strength(zero_potential(st4))
    assert max_abs(fs.at(np.ones(4), 0, 1)) == 0.0


def test_field_strength_plane_wave_closed_form(points4, st4):
    k = np.array([1.0, 0.2, 0.0, 0.9])
    n = np.array([0.0, 1.0, 0.4, 0.0])
    fs = field_strength(plane_wave_potential(st4, k, n))
    for x in points4:
        c = np.cos(np.dot(k, x))
        for mu in range(4):
            for nu in range(4):
                want = (k[mu] * n[nu] - k[nu] * n[mu]) * c
                assert abs(fs.at(x, mu, nu)[0, 0] - want) < 1e-10


def test_field_strength_pure_gauge_is_flat(points4, st4):
    u = random_smooth_frame(st4, 2, 2, seed=9)
    fs = field_strength(pure_gauge_potential(u))
    for x in points4:
        for mu in range(4):
            for nu in range(mu + 1, 4):
                assert max_abs(fs.at(x, mu, nu)) < 1e-5


def test_gauge_transform_identity(st4, points4):
    a = plane_wave_potential(st4, [1, 0, 0, 1], [0, 1, 0, 0])
    u = gauge_map(constant(np.eye(1, dtype=complex), st4))
    a2 = gauge_transform(a, u)
    psi = constant(np.array([0.3 + 1j]), st4)
    assert max_abs((u @ psi)(points4[0]) - psi(points4[0])) < 1e-14
    for x in points4:
        for mu in range(4):
            assert max_abs(a2.at(x, mu) - a.at(x, mu)) < 1e-14


def test_field_strength_transforms_covariantly(points4, st4):
    v = random_smooth_frame(st4, 4, 2, seed=21)
    a = extract_potential(v)
    u = random_smooth_frame(st4, 2, 2, seed=22)
    lhs = field_strength(gauge_transform(a, u))
    rhs = gauge_transform_field_strength(field_strength(a), u)
    for x in points4[:3]:
        for mu in range(4):
            for nu in range(mu + 1, 4):
                assert max_abs(lhs.at(x, mu, nu) - rhs.at(x, mu, nu)) < 1e-5


def test_abelian_gauge_shift(points4, st4):
    # n = 1, u = e^{i chi}: A' = u A u^dag - i u du^dag = A - d chi
    a = plane_wave_potential(st4, [1, 0, 0, 1], [0, 1, 0, 0])
    chi = linear(st4, [0.3, 0.1, -0.5, 0.2])
    u = gauge_map(matrix_of([[exp_i(chi)]]))
    a2 = gauge_transform(a, u)
    for x in points4:
        for mu in range(4):
            want = a.at(x, mu)[0, 0] - chi.d(x, mu)
            assert abs(a2.at(x, mu)[0, 0] - want) < 1e-9


def test_gauge_transform_is_group_action(points4, st4):
    v = random_smooth_frame(st4, 4, 2, seed=31)
    a = extract_potential(v)
    u = random_smooth_frame(st4, 2, 2, seed=32)
    w = random_smooth_frame(st4, 2, 2, seed=33)
    lhs = gauge_transform(gauge_transform(a, u), w)
    vu = w @ u
    rhs = gauge_transform(a, vu)
    for x in points4[:3]:
        for mu in range(4):
            assert max_abs(lhs.at(x, mu) - rhs.at(x, mu)) < 1e-8


def test_covariant_derivative_matrix_cases(points4, st4):
    v = random_smooth_frame(st4, 2, 2, seed=41)
    a = extract_potential(v)
    eye = constant(np.eye(2, dtype=complex), st4)
    for x in points4[:2]:
        for mu in range(4):
            assert max_abs(covariant_derivative_matrix(a, eye, mu, x)) < 1e-12
    a0 = zero_potential(st4, 2)
    m = matrix_of([[linear(st4, [1, 0, 0, 0]), constant(0.0, st4)],
                   [constant(0.0, st4), linear(st4, [0, 2, 0, 0])]])
    x = points4[0]
    want = np.diag([1.0, 0.0])
    assert max_abs(covariant_derivative_matrix(a0, m, 0, x) - want) < 1e-12


def test_covariant_derivative_matrix_transforms_covariantly(points4, st4):
    v = random_smooth_frame(st4, 4, 2, seed=51)
    a = extract_potential(v)
    u = random_smooth_frame(st4, 2, 2, seed=52)
    m = matrix_of([[sin_or_one(st4, i, j) for j in range(2)] for i in range(2)])
    a2 = gauge_transform(a, u)
    m2 = u @ m @ u.dagger()
    for x in points4[:2]:
        for mu in range(4):
            lhs = covariant_derivative_matrix(a2, m2, mu, x)
            rhs = u(x) @ covariant_derivative_matrix(a, m, mu, x) @ dagger(u(x))
            assert max_abs(lhs - rhs) < 1e-5


def sin_or_one(st, i, j):
    from bladegauge.fields import sin_of
    if i == j:
        return constant(1.0 + 0.5 * i, st)
    return sin_of(linear(st, [0.3 * (i + 1), 0.2, -0.1 * (j + 1), 0.4]))


def test_abelian_bianchi_identity(points4, st4):
    fs = field_strength(plane_wave_potential(st4, [0.8, 0.1, 0, 0.5], [0, 1.0, 0.3, 0]))
    scalar = type("S", (), {})()
    scalar.spacetime = st4
    scalar.component = lambda mu, nu: _scalarize(fs.component(mu, nu))
    for x in points4:
        res = closedness_residual(scalar, x)
        assert max(abs(v) for v in res.values()) < 1e-8


def _scalarize(comp):
    return FieldFn(comp.spacetime, (), lambda x: comp.fn(x)[0, 0],
                   (lambda x, mu: comp.deriv(x, mu)[0, 0]) if comp.deriv else None,
                   None, comp.fd_step)


def test_gauge_map_rejects_non_unitary(st4):
    bad = constant(np.array([[2.0, 0], [0, 1.0]], dtype=complex), st4)
    u = gauge_map(bad)
    with pytest.raises(DomainError):
        u(np.zeros(4))


def test_gauge_map_error_names_the_worst_point_of_a_stack(st4):
    # u = (1 + x^0) I has |u^dag u - I| = |(1 + x^0)^2 - 1|, largest at x^0 = 0.5
    u = gauge_map(linear(st4, [1.0, 0, 0, 0], 1.0) * constant(np.eye(2, dtype=complex), st4))
    xs = np.array([[[0.0, 0.0, 0.0, 0.0], [0.5, 0.75, 0.0, 0.0]],
                   [[0.25, 0.125, 0.0, 0.0], [-0.1, 0.0, 0.0, 0.0]]])
    with pytest.raises(DomainError) as err:
        u(xs)
    msg = str(err.value)
    assert "[0.5, 0.75, 0.0, 0.0]" in msg and "1.250e+00" in msg
    assert "0.125" not in msg and "-0.1" not in msg


def test_hermitization_warning_names_the_worst_point_of_a_stack(st4):
    # the skew entry x^1 gives a hermitizing correction |x^1| / 2, largest at x^1 = -0.75
    skew = matrix_of([[0.0, linear(st4, [0, 1.0, 0, 0])], [0.0, 0.0]])
    a = gauge_potential(st4, [skew] * 4)
    xs = np.array([[0.0, 0.5, 0.0, 0.0], [0.0, -0.75, 0.25, 0.0], [0.0, 0.125, 0.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        a.at(xs, 0)
    messages = [str(w.message) for w in caught if "hermitizing" in str(w.message)]
    assert len(messages) == 1
    assert "[0.0, -0.75, 0.25, 0.0]" in messages[0] and "3.750e-01" in messages[0]
    assert "0.125" not in messages[0]


def test_hermitization_warns_on_large_drift(st4):
    skew = constant(np.array([[0.0, 1.0], [0, 0]], dtype=complex), st4)
    a = gauge_potential(st4, [skew] * 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        a.at(np.zeros(4), 0)
    assert any("hermitizing" in str(w.message) for w in caught)


def test_hermitization_budget_is_per_component():
    # the same 1e-6 anti-Hermitian drift passes the FD-only component's budget
    # (10 h^2 = 1e-5) and exceeds the analytic one's (1e-8): each keeps its own
    st = euclidean(2)
    drifting = constant(np.array([[0.0, 2e-6], [0.0, 0.0]], dtype=complex), st)
    a = gauge_potential(st, [drifting, drifting.without_analytic_derivs()])
    with pytest.warns(UserWarning, match="hermitizing correction 1.000e-06 exceeds 1.0e-08"):
        a.at(np.zeros(2), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a.at(np.zeros(2), 1)


def _recording_potential(st, built):
    """A zero U(2) potential whose entry appends each index it builds to built."""
    def entry(mu):
        built.append(mu)
        return constant(np.zeros((2, 2), dtype=complex), st)
    return Form(st, 1, entry)


def test_field_strength_builds_only_the_components_it_reads(st4):
    built = []
    field_strength(_recording_potential(st4, built))[(0, 1)]
    assert built == [0, 1]


def test_gauge_transform_builds_each_component_on_first_read(st4):
    built = []
    a2 = gauge_transform(_recording_potential(st4, built), random_smooth_frame(st4, 2, 2, seed=3))
    assert built == []
    a2[(2,)]
    assert built == [2]
