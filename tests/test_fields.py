import numpy as np
import pytest

from bladegauge.errors import ChartError, DimensionMismatchError, ParameterError, RankError
from bladegauge.fields import (Grid, MINKOWSKI4, OneForm, SPHERICAL3,
                               Spacetime, closedness_residual, constant,
                               coordinate, cos_of, euclidean, exp_i, exterior_d,
                               form_rank, hstack, lattice_integral, linear,
                               mapped, matrix_of, scalar_field, sin_of,
                               sphere_flux, stencil_field, two_form, two_form_values, wedge,
                               wedge_power_nonzero, wedge_power_values, TwoForm)
from bladegauge.linalg import max_abs
from bladegauge.tolerances import DEFAULT as TOL


def test_spacetime_signature_validation():
    with pytest.raises(ParameterError):
        Spacetime(3, (1, -1))
    with pytest.raises(ParameterError):
        Spacetime(2, (1, 2))


def test_index_raising_round_trip():
    st = MINKOWSKI4
    v = np.array([1.0, 2.0, -3.0, 0.5])
    up = st.raise_vector(v)
    assert np.allclose(up, [1.0, -2.0, 3.0, -0.5])
    assert max_abs(st.raise_vector(up) - v) < 1e-15


def test_minkowski_dot():
    st = MINKOWSKI4
    assert st.dot([1, 0, 0, 1], [1, 0, 0, 1]) == 0.0
    assert st.dot([1, 0, 0, 0], [1, 0, 0, 0]) == 1.0
    assert st.dot([0, 1, 0, 0], [0, 1, 0, 0]) == -1.0


def test_partial_of_linear_coordinate():
    st = MINKOWSKI4
    f = coordinate(st, 1)
    assert f.d(np.zeros(4), 1) == 1.0
    assert f.d(np.ones(4), 0) == 0.0


def test_partial_of_sine_closed_form(points4):
    st = MINKOWSKI4
    k = np.array([0.7, -0.3, 1.1, 0.2])
    f = sin_of(linear(st, k))
    fd = f.without_analytic_derivs()
    for x in points4:
        for mu in range(4):
            want = k[mu] * np.cos(np.dot(k, x))
            assert abs(f.d(x, mu) - want) < 1e-14          # analytic chain rule
            assert abs(fd.d(x, mu) - want) < 5e-7          # central difference


@pytest.mark.parametrize("order", ["d", "d2"])
def test_fd_halving_ratio_is_second_order(order):
    st = MINKOWSKI4
    k = np.array([0.9, 0.4, -0.6, 0.3])
    f = sin_of(linear(st, k)).without_analytic_derivs()
    x = np.array([0.21, -0.37, 0.11, 0.53])
    if order == "d":
        cases = [((1,), k[1] * np.cos(np.dot(k, x)))]
    else:  # nested stencils: both levels step by h
        cases = [((mu, nu), -k[mu] * k[nu] * np.sin(np.dot(k, x)))
                 for mu, nu in ((1, 1), (0, 2), (1, 3))]
    for idx, want in cases:
        err_h = abs(getattr(f.with_step(1e-2), order)(x, *idx) - want)
        err_h2 = abs(getattr(f.with_step(5e-3), order)(x, *idx) - want)
        assert 3.5 <= err_h / err_h2 <= 4.5


def _rule_inputs(st):
    """One field per rule operand: linear, product and chain rules and division."""
    s = sin_of(linear(st, [1, 0, 0.3, 0]))
    z = exp_i(linear(st, [0, 0.5, 0, 0.2]))
    m = matrix_of([[s, coordinate(st, 2)], [z, 2.0]])
    return {
        "+": m + m.dagger(),
        "scalar *": 0.7 * m,
        "*": s * m,
        "@": m @ m.dagger(),
        "dagger": m.dagger(),
        "hstack": hstack(m, m @ m),
        "matrix_of": m,
        "mapped": mapped(s * z, np.exp, np.exp, np.exp),
        "/": m / (constant(2.0, st) + s),
    }


def test_combinator_derivatives_match_fd(rng):
    st = MINKOWSKI4
    a = matrix_of([[sin_of(linear(st, [1, 0, 0.3, 0])), coordinate(st, 2)],
                   [exp_i(linear(st, [0, 0.5, 0, 0])), constant(2.0, st)]])
    b = a @ a.dagger()
    x = rng.uniform(-0.5, 0.5, 4)
    for mu in range(4):
        fd = b.without_analytic_derivs().d(x, mu)
        assert max_abs(b.d(x, mu) - fd) < 1e-5
    # second derivatives are symmetric
    assert max_abs(b.d2(x, 0, 2) - b.d2(x, 2, 0)) < 1e-6
    # every rule operand: analytic d and d2 against one and two FD levels
    for name, f in _rule_inputs(st).items():
        assert f.deriv is not None and f.deriv2 is not None, name
        fd = f.without_analytic_derivs()
        for mu in range(4):
            assert max_abs(f.d(x, mu) - fd.d(x, mu)) < TOL.fd(), name
            for nu in range(4):
                assert max_abs(f.d2(x, mu, nu) - fd.d2(x, mu, nu)) < TOL.fd_nested(), name


def test_lazy_two_form_matches_an_eager_dict(points4):
    st = MINKOWSKI4
    built = []

    def entry(mu, nu):
        built.append((mu, nu))
        return (mu + 1.0) * sin_of(linear(st, np.roll([0.9, 0.1, -0.4, 0.2], nu)))

    lazy = two_form(st, entry)
    assert built == []
    x = np.asarray(points4)
    value = lazy.at(x, 3, 1)
    lazy.at(x, 1, 3)
    assert built == [(1, 3)]  # built on first use, once
    assert np.array_equal(value, -entry(1, 3)(x))
    eager = TwoForm(st, {key: entry(*key) for key in lazy.upper})
    for mu in range(4):
        for nu in range(4):
            assert np.array_equal(lazy.at(x, mu, nu), eager.at(x, mu, nu))
            assert np.array_equal(lazy.component(mu, nu).d(x, 2),
                                  eager.component(mu, nu).d(x, 2))
    lazy_vals, eager_vals = two_form_values(lazy, x), two_form_values(eager, x)
    assert list(lazy_vals) == list(eager_vals)
    assert all(np.array_equal(lazy_vals[k], eager_vals[k]) for k in eager_vals)
    assert len(lazy.upper) == 6 and len(list(lazy.upper.values())) == 6
    with pytest.raises(KeyError):
        lazy.upper[(1, 0)]
    with pytest.raises(TypeError):
        lazy.upper[(0, 1)] = entry(0, 1)


def test_fd_backed_propagates_through_rules_and_partial():
    st = MINKOWSKI4
    leaf = stencil_field(st, (), lambda x: np.sin(x[..., 0] * x[..., 1]))
    plain = sin_of(linear(st, [0.5, 1.0, -0.3, 0.2]))
    assert leaf.fd_backed and not plain.fd_backed
    for f in (leaf + plain, plain * leaf, exp_i(leaf), leaf.partial(1), 2.0 * leaf,
              matrix_of([[plain, leaf]]), leaf / plain):
        assert f.fd_backed and f.deriv is not None
    assert not (plain * plain).fd_backed
    # a new step leaves an FD-backed field with finite differences at that step only
    coarse = leaf.with_step(1e-2)
    assert coarse.deriv is None and coarse.fd_step == 1e-2
    x = np.array([0.3, 0.4, 0.0, 0.0])
    assert coarse.d(x, 0) != leaf.d(x, 0)


def test_exterior_d_hand_example():
    # A = x^0 dx^1  ->  (dA)_{01} = 1, everything else 0
    st = MINKOWSKI4
    zero = constant(0.0, st)
    a = OneForm(st, (zero, coordinate(st, 0), zero, zero))
    da = exterior_d(a)
    x = np.array([0.3, 1.0, -2.0, 0.5])
    assert abs(da.component(0, 1)(x) - 1.0) < 1e-12
    assert abs(da.component(1, 0)(x) + 1.0) < 1e-12
    assert abs(da.component(2, 3)(x)) < 1e-12
    assert abs(da.component(1, 1)(x)) == 0.0


def test_exterior_d_plane_wave_closed_form(points4):
    st = MINKOWSKI4
    k = np.array([1.0, 0.2, 0, 0.9])
    n = np.array([0, 1.0, 0.4, 0])
    phase = linear(st, k)
    a = OneForm(st, tuple(float(n[mu]) * sin_of(phase) for mu in range(4)))
    da = exterior_d(a)
    for x in points4:
        c = np.cos(np.dot(k, x))
        for mu in range(4):
            for nu in range(4):
                want = (k[mu] * n[nu] - k[nu] * n[mu]) * c
                assert abs(da.component(mu, nu)(x) - want) < 1e-12


def test_exact_form_is_closed(points4):
    # A = d f for scalar f: dA = 0 within the FD budget
    st = MINKOWSKI4
    f = sin_of(linear(st, [0.5, -0.2, 0.8, 0.1]))
    a = OneForm(st, tuple(f.partial(mu) for mu in range(4)))
    da = exterior_d(a)
    for x in points4:
        for mu in range(4):
            for nu in range(mu + 1, 4):
                assert abs(da.component(mu, nu)(x)) < 1e-10


def test_d_squared_vanishes(points4):
    # closedness residual of dA vanishes for any smooth A
    st = MINKOWSKI4
    comps = tuple(sin_of(linear(st, np.roll([0.9, 0.1, -0.4, 0.2], mu)))
                  for mu in range(4))
    da = exterior_d(OneForm(st, comps))
    for x in points4:
        res = closedness_residual(da, x)
        assert max(abs(v) for v in res.values()) < 1e-8


def test_wedge_hand_values():
    # A = x^0 dx^1 + x^2 dx^3: (A ^ dA) has components x^0 on (1,2,3), x^2 on (0,1,3)
    st = MINKOWSKI4
    zero = constant(0.0, st)
    a = OneForm(st, (zero, coordinate(st, 0), zero, coordinate(st, 2)))
    da = exterior_d(a)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    vals = wedge_power_values(a, da, 1, x)
    assert abs(vals[(1, 2, 3)] - 1.0) < 1e-10
    assert abs(vals[(0, 1, 3)] - 3.0) < 1e-10
    assert abs(vals.get((0, 1, 2), 0.0)) < 1e-10
    assert abs(vals.get((0, 2, 3), 0.0)) < 1e-10


def test_form_rank_two_pair_example(rng):
    st = MINKOWSKI4
    zero = constant(0.0, st)
    a = OneForm(st, (zero, coordinate(st, 0), zero, coordinate(st, 2)))
    pts = [rng.uniform(0.5, 1.5, 4) for _ in range(6)]
    assert form_rank(a, pts) == 1


def test_form_rank_exact_form_is_zero(rng):
    st = MINKOWSKI4
    f = sin_of(linear(st, [0.5, -0.2, 0.8, 0.1]))
    a = OneForm(st, tuple(f.partial(mu) for mu in range(4)))
    pts = [rng.uniform(-1, 1, 4) for _ in range(5)]
    assert form_rank(a, pts, tol=1e-7) == 0


def test_form_rank_zero_form():
    st = MINKOWSKI4
    a = OneForm(st, tuple(constant(0.0, st) for _ in range(4)))
    assert form_rank(a, [np.zeros(4)]) == 0


def test_form_rank_single_pair_tie_down(rng):
    # A = x^0 dx^1 alone: dA != 0 but A ^ dA = 0, so the rank is 0
    st = MINKOWSKI4
    zero = constant(0.0, st)
    a = OneForm(st, (zero, coordinate(st, 0), zero, zero))
    pts = [rng.uniform(0.5, 1.5, 4) for _ in range(5)]
    assert form_rank(a, pts) == 0


def test_form_rank_plane_wave_is_zero(rng):
    # dA carries the polarization twice, so A ^ dA = 0 off nodal surfaces
    st = MINKOWSKI4
    k = np.array([1.0, 0, 0, 1.0])
    n = np.array([0, 1.0, 0, 0])
    a = OneForm(st, tuple(float(n[mu]) * sin_of(linear(st, k)) for mu in range(4)))
    pts = [rng.uniform(0.2, 1.2, 4) for _ in range(10)]
    assert form_rank(a, pts) == 0


def test_form_rank_static_monopole_pullback_is_zero(rng):
    # A = g (1 - cos theta) d phi in a 4d static chart (t, r, theta, phi):
    # A ^ dA repeats d phi, hence rank 0 (a single Darboux pair suffices)
    st = euclidean(4)
    g = 0.5
    theta = coordinate(st, 2)
    aphi = g * (constant(1.0, st) - cos_of(theta))
    zero = constant(0.0, st)
    a = OneForm(st, (zero, zero, zero, aphi))
    pts = [np.array([0.0, 1.0, rng.uniform(0.5, 2.5), rng.uniform(0, 6)])
           for _ in range(6)]
    assert form_rank(a, pts) == 0


def test_form_rank_warns_when_not_constant():
    # on the x0 = x2 = 0 slice the two-pair form degenerates to rank 0
    st = MINKOWSKI4
    zero = constant(0.0, st)
    a = OneForm(st, (zero, coordinate(st, 0), zero, coordinate(st, 2)))
    pts = [np.array([0.0, 0.5, 0.0, 0.5]), np.array([1.0, 0.5, 1.0, 0.5])]
    with pytest.warns(UserWarning, match="rank varies"):
        assert form_rank(a, pts) == 1


def test_wedge_power_rank_error():
    st = MINKOWSKI4
    zero = constant(0.0, st)
    a = OneForm(st, (zero, coordinate(st, 0), zero, zero))
    da = exterior_d(a)
    with pytest.raises(RankError):
        wedge_power_nonzero(a, da, 2, [np.zeros(4)])


def test_wedge_shuffle_signs():
    # (dx0 ^ dx1) ^ dx2 == dx0 ^ (dx1 ^ dx2) with consistent signs
    p = {(0, 1): 1.0}
    q = {(2,): 1.0}
    assert wedge(p, q) == {(0, 1, 2): 1.0}
    assert wedge(q, p) == {(0, 1, 2): 1.0}
    assert wedge({(1,): 1.0}, {(0,): 1.0})[(0, 1)] == -1.0


def test_sphere_flux_monopole():
    g = 0.7
    theta = coordinate(SPHERICAL3, 1)
    upper = {(0, 1): constant(0.0, SPHERICAL3),
             (0, 2): constant(0.0, SPHERICAL3),
             (1, 2): g * sin_of(theta)}
    f = TwoForm(SPHERICAL3, upper)
    flux = sphere_flux(f, quadrature_order=16)
    assert abs(flux - 4 * np.pi * g) <= 0.005 * abs(4 * np.pi * g)


def test_sphere_flux_zero_form():
    zero = constant(0.0, SPHERICAL3)
    f = TwoForm(SPHERICAL3, {(0, 1): zero, (0, 2): zero, (1, 2): zero})
    assert abs(sphere_flux(f)) < 1e-14


def test_sphere_flux_stokes_for_global_potential():
    # A = sin^2(theta) cos(phi) d phi is smooth on the sphere; its flux vanishes
    theta = coordinate(SPHERICAL3, 1)
    phi = coordinate(SPHERICAL3, 2)
    aphi = sin_of(theta) * sin_of(theta) * cos_of(phi)
    zero = constant(0.0, SPHERICAL3)
    a = OneForm(SPHERICAL3, (zero, zero, aphi))
    flux = sphere_flux(exterior_d(a), quadrature_order=16)
    assert abs(flux) < 1e-8


def test_sphere_flux_rejects_bad_order_and_chart():
    zero = constant(0.0, SPHERICAL3)
    f = TwoForm(SPHERICAL3, {(0, 1): zero, (0, 2): zero, (1, 2): zero})
    with pytest.raises(ParameterError):
        sphere_flux(f, quadrature_order=1)
    zc = constant(0.0, MINKOWSKI4)
    fc = TwoForm(MINKOWSKI4, {(mu, nu): zc for mu in range(4)
                              for nu in range(mu + 1, 4)})
    with pytest.raises(ChartError):
        sphere_flux(fc)


def test_lattice_integral_constant():
    st = euclidean(3)
    grid = Grid(lo=(0, 0, 0), hi=(1, 1, 1), cells=(4, 4, 4))
    assert abs(lattice_integral(constant(1.0, st), grid) - 1.0) < 1e-12


def test_lattice_integral_sin_squared():
    st = euclidean(1)
    f = scalar_field(st, lambda x: np.sin(x[..., 0]) ** 2)
    grid = Grid(lo=(0.0,), hi=(2 * np.pi,), cells=(100,))
    assert abs(lattice_integral(f, grid) - np.pi) < 0.01 * np.pi


def test_lattice_integral_rejects_non_scalar_and_per_point_integrands():
    st = euclidean(2)
    grid = Grid(lo=(0.0, 0.0), hi=(1.0, 1.0), cells=(3, 2))
    with pytest.raises(DimensionMismatchError, match="scalar field"):
        lattice_integral(constant(np.eye(2), st), grid)
    # written for one point: on the stack, x[0] is the first centre, not the first coordinate
    with pytest.raises(DimensionMismatchError, match="point stack"):
        lattice_integral(scalar_field(st, lambda x: np.sin(x[0])), grid)
    # two cells on a 2-d grid: x[0], the first centre, is shaped like a (P,) stack's values
    grid = Grid(lo=(0.0, 0.0), hi=(1.0, 1.0), cells=(2, 1))
    with pytest.raises(DimensionMismatchError, match="point stack"):
        lattice_integral(scalar_field(st, lambda x: x[0]), grid)
    assert lattice_integral(scalar_field(st, lambda x: x[..., 0]), grid) == 0.5


def test_lattice_refinement_is_second_order():
    st = euclidean(1)
    f = scalar_field(st, lambda x: np.exp(np.sin(x[..., 0])))
    exact = lattice_integral(f, Grid(lo=(0.0,), hi=(1.5,), cells=(4096,)))
    e1 = abs(lattice_integral(f, Grid(lo=(0.0,), hi=(1.5,), cells=(16,))) - exact)
    e2 = abs(lattice_integral(f, Grid(lo=(0.0,), hi=(1.5,), cells=(32,))) - exact)
    assert 3.0 <= e1 / e2 <= 5.0


def test_grid_cells_volume_and_validation():
    grid = Grid(lo=(0.0, -1.0), hi=(1.0, 1.0), cells=(2, 4))
    assert grid.cells == (2, 4)
    assert abs(grid.cell_volume - 0.25) < 1e-15
    assert grid.centers().shape == (8, 2)
    with pytest.raises(ParameterError):
        Grid(lo=(0,), hi=(1,), cells=(0,))
