"""Property tests of the blade, gauge-invariance and curvature-block identities.

Seeds, shapes (N, n), surfaces and points are drawn by hypothesis,
derandomized so that every run draws the same examples.  Budgets are the
ones the `verify` suite applies to the same identities.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from bladegauge.blade import (Frame, blade_curvature, blade_from_frame, extract_potential,
                              four_way, random_gauge_map, random_smooth_frame,
                              shape_identity_residual, shape_operator)
from bladegauge.embedded import cylinder, embedded_blade, gauss_curvature, plane, sphere, torus
from bladegauge.fields import MINKOWSKI4
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
    r = blade.at(x)
    assert max_abs(r @ r - np.eye(N)) <= TOL.analytic
    assert max_abs(r - dagger(r)) <= TOL.analytic
    assert abs(np.trace(r).real - (2 * n - N)) <= 1e-8
    for mu in range(4):
        sv = s.at(x, mu)
        assert max_abs(r @ sv + sv @ r) <= TOL.analytic
        assert max_abs(blade.R.d(x, mu) + 1j * (sv @ r - r @ sv)) <= TOL.analytic


@PROPERTY
@given(seed=seeds, gauge_seed=seeds, shape=shapes, x=points)
def test_gauge_invariance(seed, gauge_seed, shape, x):
    N, n = shape
    v = _frame(shape, seed)
    u = random_gauge_map(MINKOWSKI4, n, seed=gauge_seed)
    blade, blade2 = blade_from_frame(v), blade_from_frame(Frame(MINKOWSKI4, N, n,
                                                                v.V @ u.f.dagger()))
    s, s2 = shape_operator(blade), shape_operator(blade2)
    assert max_abs(blade.at(x) - blade2.at(x)) <= TOL.analytic
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
    vv, r = v.at(x), blade.at(x)
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
    r = blade.at(x)
    _, disc = four_way(blade, x, 0, 1)
    assert disc <= TOL.fd_nested()
    assert max_abs(shape_identity_residual(s, 0, 1, x)) <= TOL.fd_nested()
    for mu in range(2):
        sv = s.at(x, mu)
        assert max_abs(r @ sv + sv @ r) <= TOL.analytic
    assert abs(gauss_curvature(emb, x) - k_closed(x)) <= TOL.analytic
