"""Property tests of the blade, gauge-invariance and curvature-block identities.

Seeds, shapes (N, n), surfaces and points are drawn by hypothesis,
derandomized so that every run draws the same examples.  Budgets are the
ones the `verify` suite applies to the same identities.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bladegauge.blade import (blade_curvature, blade_from_frame, extract_potential,
                              four_way, projector, random_smooth_frame,
                              shape_identity_residual, shape_operator)
from bladegauge.embedded import cylinder, embedded_blade, gauss_curvature, plane, sphere, torus
from bladegauge.fields import MINKOWSKI4, euclidean
from bladegauge.gauge import field_strength, gauge_transform, gauge_transform_field_strength
from bladegauge.linalg import dagger, max_abs
from bladegauge.tolerances import DEFAULT as TOL

SHAPES = [(2, 1), (3, 1), (4, 2)]
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)

seeds = st.integers(min_value=0, max_value=2 ** 16)
shapes = st.sampled_from(SHAPES)
points = st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=4, max_size=4).map(
    np.array)
surfaces = st.one_of(
    st.tuples(st.just("sphere"), st.floats(min_value=0.5, max_value=3.0)),
    st.tuples(st.just("torus"), st.floats(min_value=1.5, max_value=3.0),
              st.floats(min_value=0.2, max_value=1.0)),
    st.tuples(st.sampled_from(["cylinder", "plane"])),
)
# (u, v) away from the sphere's poles at u = 0 and u = pi
chart_points = st.tuples(st.floats(min_value=0.5, max_value=np.pi - 0.5),
                         st.floats(min_value=0.0, max_value=2 * np.pi)).map(np.array)


def _frame(shape, seed):
    N, n = shape
    return random_smooth_frame(MINKOWSKI4, N, n, seed=seed, amplitude=0.3)


@PROPERTY
@given(seed=seeds, shape=shapes, x=points)
def test_blade_identities(seed, shape, x):
    N, n = shape
    blade = blade_from_frame(_frame(shape, seed))
    s = shape_operator(blade)
    r = blade(x)
    assert max_abs(r @ r - np.eye(N)) <= TOL.analytic
    assert max_abs(r - dagger(r)) <= TOL.analytic
    assert abs(np.trace(r).real - (2 * n - N)) <= 1e-8
    for mu in range(4):
        sv = s.at(x, mu)
        assert max_abs(r @ sv + sv @ r) <= TOL.analytic
        assert max_abs(blade.d(x, mu) + 1j * (sv @ r - r @ sv)) <= TOL.analytic


@PROPERTY
@given(seed=seeds, gauge_seed=seeds, shape=shapes, x=points)
def test_gauge_invariance(seed, gauge_seed, shape, x):
    _, n = shape
    v = _frame(shape, seed)
    u = random_smooth_frame(MINKOWSKI4, n, n, seed=gauge_seed)
    blade, blade2 = blade_from_frame(v), blade_from_frame(v @ u.dagger())
    s, s2 = shape_operator(blade), shape_operator(blade2)
    assert max_abs(blade(x) - blade2(x)) <= TOL.analytic
    for mu in range(4):
        assert max_abs(s.at(x, mu) - s2.at(x, mu)) <= TOL.analytic
    a = extract_potential(v)
    fs2 = field_strength(gauge_transform(a, u))
    fs2_expect = gauge_transform_field_strength(field_strength(a), u)
    for mu, nu in ((0, 1), (1, 3)):
        assert max_abs(fs2.at(x, mu, nu) - fs2_expect.at(x, mu, nu)) <= TOL.fd()


@PROPERTY
@given(seed=seeds, shape=shapes, x=points)
def test_curvature_blocks(seed, shape, x):
    v = _frame(shape, seed)
    blade = blade_from_frame(v)
    omega = blade_curvature(blade)
    fs = field_strength(extract_potential(v))
    vv, r = v(x), blade(x)
    for mu, nu in ((0, 1), (2, 3)):
        om = omega.at(x, mu, nu)
        assert max_abs(fs.at(x, mu, nu) - dagger(vv) @ om @ vv) <= TOL.fd()
        assert max_abs(r @ om @ r - om) <= TOL.fd()


def _surface(spec):
    """The embedding and its Gauss curvature K(u, v) in closed form."""
    name, *radii = spec
    if name == "sphere":
        a, = radii
        return sphere(a), lambda x: 1.0 / a ** 2
    if name == "torus":
        rmaj, rmin = radii
        return torus(rmaj, rmin), lambda x: np.cos(x[1]) / (rmin * (rmaj + rmin * np.cos(x[1])))
    return (cylinder() if name == "cylinder" else plane()), lambda x: 0.0


@PROPERTY
@given(spec=surfaces, x=chart_points)
def test_embedded_blade_identities(spec, x):
    emb, k_closed = _surface(spec)
    blade = embedded_blade(emb)
    s = shape_operator(blade)
    r = blade(x)
    _, disc = four_way(blade, x, 0, 1)
    assert disc <= TOL.fd_nested()
    assert max_abs(shape_identity_residual(s, 0, 1, x)) <= TOL.fd_nested()
    for mu in range(2):
        sv = s.at(x, mu)
        assert max_abs(r @ sv + sv @ r) <= TOL.analytic
    assert abs(gauss_curvature(emb, x) - k_closed(x)) <= TOL.analytic


# ---------------------------------------------------------------------------
# point stacks: entry i of a stacked query has the bits of the query at x[i]

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_stack_matches_points(f, xs):
    d = f.spacetime.dim
    queries = [(f, ())] + [(f.d, (mu,)) for mu in range(d)]
    queries += [(f.d2, (mu, nu)) for mu in range(d) for nu in range(d)]
    for query, idx in queries:
        stacked = query(xs, *idx)
        assert np.shape(stacked) == xs.shape[:-1] + f.shape
        for i in np.ndindex(xs.shape[:-1]):
            assert _same_bits(stacked[i], query(xs[i], *idx)), (idx, i)


def _stack_leaves():
    """name -> (field, lo, hi): every leaf kind, and the box its points are drawn from."""
    from bladegauge.blade import (canonical_frame_field, complement_field,
                                  random_hermitian_field)
    from bladegauge.darboux import darboux_data, darboux_frame
    from bladegauge.em import em_frame, monopole_potential, plane_wave_params
    from bladegauge.fields import constant, coordinate, linear
    from bladegauge.scenarios import _tabulated_frame, tabulated_field
    st = MINKOWSKI4
    v = _frame((4, 2), 5)
    rng = np.random.default_rng(3)
    axes = [np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4)]
    samples = rng.uniform(-1.0, 1.0, (5, 4, 2, 2, 2))
    dx = darboux_data(st, [("0.5*sin(x0)/(2 + cos(x1))", "x1*x2"),
                           ("0.3*arccos(0.5*x3)", "sqrt(2 + x0)")], [-0.8] * 4, [0.8] * 4)
    box4 = ([-0.5] * 4, [0.5] * 4)
    return {
        "constant_scalar": (constant(0.25 - 0.5j, st), *box4),
        "constant_matrix": (constant(np.arange(6.0).reshape(3, 2) * 1j, st), *box4),
        "coordinate": (coordinate(st, 2), *box4),
        "linear": (linear(st, [0.3, -1.2, 0.7, 2.0], offset=0.1), *box4),
        "hermitian_waves": (random_hermitian_field(st, 3, 9), *box4),
        "exp_frame": (v, *box4),
        "exp_gauge_map": (random_smooth_frame(st, 2, 2, 4), *box4),
        "tabulated": (tabulated_field(axes, samples, euclidean(2), (2, 2)),
                      [0.2, 0.2], [0.8, 0.8]),
        "tabulated_frame": (_tabulated_frame({"axes": axes, "values": samples[..., :1, :]},
                                             euclidean(2)), [0.2, 0.2], [0.8, 0.8]),
        "complement": (complement_field(v), *box4),
        "canonical": (canonical_frame_field(blade_from_frame(v), np.eye(4, 2)), *box4),
        "em_planewave": (em_frame(plane_wave_params(st, [1, 0, 0, 1], [0, 1, 0, 0])),
                         *box4),
        "em_monopole_patch": (monopole_potential(0.5, "plus").component(2),
                              [0.5, 0.3, 0.0], [2.0, 2.8, 6.0]),
        "darboux": (darboux_frame(dx), *box4),
        "embedded_chart": (torus(2.0, 0.5), [0.0, 0.0], [6.0, 6.0]),
        "embedded_plane": (plane(), [-1.0, -1.0], [1.0, 1.0]),
        "embedded_sphere": (sphere(1.3), [0.5, 0.0], [2.5, 6.0]),
        "embedded_cylinder": (cylinder(), [0.0, -1.0], [6.0, 1.0]),
        "embedded_blade": (embedded_blade(sphere(1.3)), [0.5, 0.0], [2.5, 6.0]),
    }


def _stack_rules():
    """name -> (field, lo, hi): each combinator rule over analytic and FD-only operands."""
    from bladegauge.fields import (constant, coordinate, exp_i, hstack, linear, mapped,
                                   matrix_of, sin_of)
    st = MINKOWSKI4
    s = sin_of(linear(st, [0.5, 1.0, -0.3, 0.2]))
    t = coordinate(st, 1) + constant(2.0, st)
    m, n = _frame((3, 3), 7), random_smooth_frame(st, 3, 3, 8)
    w = _frame((3, 1), 2)
    vec = constant(np.array([1.0, -2.0j, 0.5]), st)
    box4 = ([-0.5] * 4, [0.5] * 4)
    rules = {
        "linear_sum": m + 0.5 * n - m.dagger(),
        "linear_hermitian_part": m.hermitian_part(),
        "linear_hstack": hstack(m, w),
        "linear_matrix_of": matrix_of([[s, 1.0], [t, s - t]]),
        "product_scalar_matrix": s * m,
        "product_matrix_scalar": m * t,
        "product_scalars": s * t,
        "product_matmul": m @ n.dagger(),
        "product_matvec": m @ vec,
        "chain": exp_i(s) * mapped(t, np.log, lambda u: 1.0 / u, lambda u: -1.0 / (u * u)),
        "divide": m / t + (s / t) * n,
        "partial": (m @ n).partial(2).partial(0),
    }
    rules["fd_only"] = (s * (m @ w)).without_analytic_derivs()
    return {name: (f, *box4) for name, f in rules.items()}


STACK_LEAVES = _stack_leaves()
STACK_RULES = _stack_rules()
STACKED = settings(derandomize=True, max_examples=6, deadline=None, database=None)
stack_shapes = st.one_of(st.tuples(st.integers(1, 4)),
                         st.tuples(st.integers(1, 3), st.integers(1, 3)))


def _draw_stack(data, lo, hi):
    shape = data.draw(stack_shapes)
    seed = data.draw(st.integers(0, 2 ** 16))
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return lo + np.random.default_rng(seed).uniform(size=shape + lo.shape) * (hi - lo)


@pytest.mark.parametrize("name", sorted(STACK_LEAVES))
@STACKED
@given(data=st.data())
def test_stacked_leaf_queries_equal_point_queries(name, data):
    f, lo, hi = STACK_LEAVES[name]
    _assert_stack_matches_points(f, _draw_stack(data, lo, hi))


@pytest.mark.parametrize("name", sorted(STACK_RULES))
@STACKED
@given(data=st.data())
def test_stacked_rule_queries_equal_point_queries(name, data):
    f, lo, hi = STACK_RULES[name]
    _assert_stack_matches_points(f, _draw_stack(data, lo, hi))


# ---------------------------------------------------------------------------
# stack-aware library functions: one call on a point stack gives, entry by
# entry, the bits of the same call at each point alone

def _em_residual_pairs():
    from bladegauge.em import em_potential_residual, monopole_params, monopole_potential
    x = np.insert(np.random.default_rng(7).uniform((0.3, 0.0), (np.pi - 0.3, 2 * np.pi),
                                                   (6, 2)), 0, 1.0, axis=1)
    p, a = monopole_params(0.3, "minus"), monopole_potential(0.3, "minus")
    return [(em_potential_residual(p, a, mu, x)[i], em_potential_residual(p, a, mu, xi))
            for mu in range(3) for i, xi in enumerate(x)]


def _wedge_pairs():
    from bladegauge.darboux import darboux_data, darboux_one_form
    from bladegauge.fields import exterior_d, form_values, wedge
    data = darboux_data(MINKOWSKI4, [("0.5*sin(x0)", "x1*x2"), ("0.4*cos(x2)", "x3")],
                        [-0.8] * 4, [0.8] * 4)
    da = exterior_d(darboux_one_form(data))
    x = np.random.default_rng(8).uniform(-0.8, 0.8, (5, 4))
    vals = form_values(da, x)
    stacked = wedge(vals, vals)
    pairs = []
    for i, xi in enumerate(x):
        one = form_values(da, xi)
        pairs += [(vals[key][i], one[key]) for key in vals]
        pairs += [(value[i], wedge(one, one)[key]) for key, value in stacked.items()]
    return pairs


def _form_rank_pairs():
    import warnings
    from bladegauge.fields import constant, coordinate, form_rank, one_form
    st = MINKOWSKI4
    zero = constant(0.0, st)
    a = one_form(st, (zero, coordinate(st, 0), zero, coordinate(st, 2)))
    # rank 0 on the x0 = x2 = 0 slice, rank 1 off it
    x = np.array([[0.0, 0.5, 0.0, 0.5], [1.0, 0.5, 1.0, 0.5], [0.0, 0.2, 0.0, 0.7],
                  [0.3, -0.4, 0.8, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ranks = [form_rank(a, [xi]) for xi in x]
        return [(form_rank(a, x[:k]), max(ranks[:k])) for k in range(1, len(x) + 1)]


def _lattice_pairs():
    from bladegauge.dynamics import blade_lattice_from_field
    from bladegauge.em import monopole_blade
    from bladegauge.fields import Grid
    blade = monopole_blade(0.5)
    grid = Grid(lo=(0.3 * np.pi, 0.0), hi=(0.7 * np.pi, 2 * np.pi), cells=(3, 4))
    lat = blade_lattice_from_field(blade, grid, point_map=lambda p: np.array([1.0, p[0], p[1]]))
    centers = grid.centers().reshape(3, 4, 2)
    return [(lat.sites[i], blade(np.array([1.0, *centers[i]]))) for i in np.ndindex(3, 4)]


def _sphere_flux_pairs():
    from bladegauge.em import monopole_field_strength
    from bladegauge.fields import sphere_flux
    f = monopole_field_strength(0.5)
    comp = f.component(1, 2)
    nodes, weights = np.polynomial.legendre.leggauss(6)
    total = 0.0
    for th, wt in zip(0.5 * np.pi * (nodes + 1.0), 0.5 * np.pi * weights):
        for ph in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False):
            total += wt * (2.0 * np.pi / 24) * complex(comp(np.array([1.0, th, ph]))).real
    return [(sphere_flux(f, quadrature_order=6), total)]


def _lattice_integral_pairs():
    from bladegauge.fields import Grid, lattice_integral, linear, sin_of
    f = sin_of(linear(euclidean(2), [1.3, -0.7], offset=0.2))
    grid = Grid(lo=(0.0, -1.0), hi=(2.0, 1.0), cells=(5, 7))
    by_point = np.sum([complex(f(p)) for p in grid.centers()])
    return [(lattice_integral(f, grid), float(np.real(by_point)) * grid.cell_volume)]


def _embedded_pairs(emb, lo, hi):
    """The curvature queries of an embedded chart at a (4, 2) stack and at each point."""
    from bladegauge.blade import check_four_way
    from bladegauge.embedded import christoffel_gauss_curvature, riemann_component

    def pairs():
        x = np.random.default_rng(9).uniform(lo, hi, (4, 2))
        blade = embedded_blade(emb)
        calls = [lambda y: gauss_curvature(emb, y),
                 lambda y: christoffel_gauss_curvature(emb, y),
                 lambda y: riemann_component(emb, y, 0, 1, 0, 1),
                 lambda y: riemann_component(emb, y, 1, 0, 0, 1),
                 lambda y: check_four_way(blade, y, 0, 1)]
        return [(call(x)[i], call(xi)) for call in calls for i, xi in enumerate(x)]

    return pairs


def _point_call_pairs(call, sizes):
    """(call(x)[i], call(x[i])) on a stack x of each size.

    The sizes include the matrix size, where a point stack mistaken for one matrix
    passes the shape checks, and one other, where it does not.
    """
    def pairs():
        out = []
        for size in sizes:
            x = np.random.default_rng(size).uniform(-0.5, 0.5, (size, 4))
            stacked = call(x)
            out += [(stacked[i], call(xi)) for i, xi in enumerate(x)]
        return out

    return pairs


def _direct_rotation_call():
    from bladegauge.blade import direct_rotation
    p = projector(blade_from_frame(_frame((4, 2), 11)))
    return lambda y: direct_rotation(p(y), np.eye(4, 2))


def _covariant_derivative_call():
    from bladegauge.fields import constant
    from bladegauge.gauge import covariant_field
    a = extract_potential(_frame((4, 2), 12))  # a U(2) potential
    psi = random_smooth_frame(MINKOWSKI4, 2, 2, 6) @ constant(np.array([1.0, -0.5j]), MINKOWSKI4)
    return lambda y: np.stack([covariant_field(a, psi, mu)(y) for mu in range(4)], axis=-2)


def _lifted_covariant_derivative_call():
    from bladegauge.fields import constant
    from bladegauge.gauge import covariant_field
    blade = blade_from_frame(_frame((4, 2), 13))
    psi = random_smooth_frame(MINKOWSKI4, 4, 4, 7) @ constant(np.array([1.0, 0.5j, -0.2, 0.3]),
                                                          MINKOWSKI4)
    return lambda y: np.stack([covariant_field(shape_operator(blade), psi, mu)(y)
                               for mu in range(4)], axis=-2)


STACK_CALLS = {
    "direct_rotation": _point_call_pairs(_direct_rotation_call(), (4, 3)),
    "covariant_derivative": _point_call_pairs(_covariant_derivative_call(), (2, 3)),
    "lifted_covariant_derivative": _point_call_pairs(_lifted_covariant_derivative_call(), (4, 3)),
    "em_potential_residual": _em_residual_pairs,
    "two_form_values_wedge": _wedge_pairs,
    "form_rank": _form_rank_pairs,
    "blade_lattice_from_field": _lattice_pairs,
    "sphere_flux": _sphere_flux_pairs,
    "lattice_integral": _lattice_integral_pairs,
    "embedded_plane": _embedded_pairs(plane(), [-1.0, -1.0], [1.0, 1.0]),
    "embedded_sphere": _embedded_pairs(sphere(1.3), [0.5, 0.0], [2.5, 6.0]),
    "embedded_cylinder": _embedded_pairs(cylinder(), [0.0, -1.0], [6.0, 1.0]),
    "embedded_torus": _embedded_pairs(torus(2.0, 0.5), [0.0, 0.0], [6.0, 6.0]),
}


@pytest.mark.parametrize("name", sorted(STACK_CALLS))
def test_stacked_library_calls_equal_point_calls(name):
    for stacked, single in STACK_CALLS[name]():
        assert _same_bits(stacked, single), (stacked, single)
