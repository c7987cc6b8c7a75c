"""One container for every 1-form and every 2-form, connections included."""

import itertools

import numpy as np
import pytest

from bladegauge.blade import (blade_curvature, blade_from_frame, complement_field,
                              extract_potential, random_smooth_frame, shape_gauge_decompose,
                              shape_operator)
from bladegauge.darboux import darboux_data, darboux_one_form, darboux_potential
from bladegauge.em import (em_faraday, monopole_field_strength, monopole_potential,
                           plane_wave_params)
from bladegauge.fields import MINKOWSKI4, Form, exterior_d
from bladegauge.gauge import (field_strength, gauge_potential, gauge_transform,
                              gauge_transform_field_strength, pure_gauge_potential)
from bladegauge.linalg import max_abs
from bladegauge.scenarios import constant_f_potential
from bladegauge.tolerances import DEFAULT as TOL


# dS takes R's second derivative by finite differences, so F(S) carries
# anti-hermitian noise of order h^2, just above the analytic warning threshold
@pytest.mark.filterwarnings("ignore:hermitizing correction")
@pytest.mark.parametrize("N, n", [(2, 1), (3, 1), (4, 2)])
def test_shape_operator_is_a_connection(N, n, rng):
    # the field strength of S, dS + i[S, S], is the blade curvature -i[S, S]
    blade = blade_from_frame(random_smooth_frame(MINKOWSKI4, N, n, seed=10 * N + n))
    fs = field_strength(shape_operator(blade))
    omega = blade_curvature(blade)
    for x in [rng.uniform(-0.6, 0.6, 4) for _ in range(3)]:
        for mu, nu in itertools.combinations(range(4), 2):
            assert max_abs(fs.at(x, mu, nu) - omega.at(x, mu, nu)) < TOL.fd_nested()


def _darboux():
    return darboux_data(MINKOWSKI4, [("0.5*sin(x0)", "x1")], [-0.8] * 4, [0.8] * 4)


def _one_forms():
    st = MINKOWSKI4
    v = random_smooth_frame(st, 3, 1, seed=5)
    u = random_smooth_frame(st, 1, 1, seed=6)
    a = extract_potential(v)
    return {
        "darboux_one_form": darboux_one_form(_darboux()),
        "extract_potential": a,
        "gauge_potential": gauge_potential(st, a.values()),
        "gauge_transform": gauge_transform(a, u),
        "pure_gauge_potential": pure_gauge_potential(u),
        "shape_operator": shape_operator(blade_from_frame(v)),
        "monopole_potential": monopole_potential(0.5, "plus"),
        "darboux_potential": darboux_potential(_darboux()),
        "constant_f_potential": constant_f_potential(st),
        "shape_gauge_decomposition_C": shape_gauge_decompose(v, complement_field(v)).C,
    }


def _two_forms():
    st = MINKOWSKI4
    v = random_smooth_frame(st, 3, 1, seed=5)
    fs = field_strength(extract_potential(v))
    return {
        "exterior_d": exterior_d(darboux_one_form(_darboux())),
        "em_faraday": em_faraday(plane_wave_params(st, [1, 0, 0, 1], [0, 1, 0, 0])),
        "monopole_field_strength": monopole_field_strength(0.5),
        "field_strength": fs,
        "gauge_transform_field_strength":
            gauge_transform_field_strength(fs, random_smooth_frame(st, 1, 1, seed=6)),
        "blade_curvature": blade_curvature(blade_from_frame(v)),
        "shape_gauge_decomposition_G": shape_gauge_decompose(v, complement_field(v)).G,
    }


def _point(spacetime):
    # inside the darboux box, and away from the monopole's poles
    if spacetime.chart == "spherical3d":
        return np.array([1.0, 1.1, 0.7])
    return np.array([0.3, -0.2, 0.5, 0.1])


@pytest.mark.parametrize("name", sorted(_one_forms()))
def test_one_form_constructors_return_one_form(name):
    a = _one_forms()[name]
    assert type(a) is Form and a.degree == 1
    x = _point(a.spacetime)
    for mu in range(a.spacetime.dim):
        assert np.array_equal(a.at(x, mu), a.component(mu)(x))


@pytest.mark.parametrize("name", sorted(_two_forms()))
def test_two_form_constructors_return_antisymmetric_two_form(name):
    f = _two_forms()[name]
    assert type(f) is Form and f.degree == 2
    x = _point(f.spacetime)
    for mu, nu in itertools.product(range(f.spacetime.dim), repeat=2):
        if mu == nu:
            assert not np.any(f.at(x, mu, mu))
        else:
            assert np.array_equal(f.at(x, nu, mu), -f.at(x, mu, nu))
