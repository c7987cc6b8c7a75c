import itertools

import numpy as np
import pytest

from bladegauge import blade as blade_module
from bladegauge.blade import (Frame, _exp_i_field, _complete_columns, blade_curvature,
                              blade_from_frame, canonical_frame, canonical_frame_field,
                              complement_field, complement_frame,
                              check_four_way, direct_rotation,
                              extract_potential, four_way, frame,
                              lifted_covariant_derivative,
                              lifted_covariant_derivative_projected,
                              random_gauge_map,
                              random_hermitian_field, random_smooth_frame,
                              reference_frame, shape_gauge_decompose,
                              shape_identity_residual, shape_operator,
                              validate_frame)
from bladegauge.em import em_complement, em_frame, monopole_params, plane_wave_params
from bladegauge.errors import ChartError, ConsistencyError, DimensionMismatchError
from bladegauge.fields import _LEAF_CACHE_POINTS, FieldFn, OneForm, constant, coordinate, matrix_of
from bladegauge.gauge import field_strength, gauge_transform
from bladegauge.linalg import (dagger, max_abs, random_unitary, unitary_exp,
                               unitary_exp_frechet)
from bladegauge.tolerances import DEFAULT as TOL


def test_frame_orthonormal_and_validate(points4, st4):
    v = random_smooth_frame(st4, 4, 2, seed=1)
    for x in points4:
        assert validate_frame(v, x) < 1e-12
    bad = frame(st4, 2.0 * v.V)
    with pytest.raises(ConsistencyError):
        validate_frame(bad, points4[0])


def test_stack_errors_name_the_failing_point(st4):
    # V = (1 + x0, 0)^T has orthonormal columns only where x0 = 0
    bad = matrix_of([[constant(1.0, st4) + coordinate(st4, 0)], [0.0]])
    pts = np.array([[0.0, 0.1, 0.2, 0.3], [0.3, 0.1, 0.2, 0.3], [0.0, 0.4, 0.5, 0.6]])
    with pytest.raises(ConsistencyError, match=r"orthonormal: .* at \[0\.3, 0\.1, 0\.2, 0\.3\]$"):
        validate_frame(frame(st4, bad), pts)
    validate_frame(frame(st4, bad), pts[[0, 2]])
    # with no budget every point fails; the message names the largest discrepancy's point
    blade = blade_from_frame(random_smooth_frame(st4, 4, 2, seed=3))
    worst = pts[np.argmax([four_way(blade, x, 0, 1)[1] for x in pts])]
    with pytest.raises(ConsistencyError) as exc:
        check_four_way(blade, pts, 0, 1, tol=0.0)
    assert str(exc.value).endswith(f"at {np.round(worst, 6).tolist()}")


def test_random_smooth_frame_deterministic(st4):
    a = random_smooth_frame(st4, 4, 2, seed=9)
    b = random_smooth_frame(st4, 4, 2, seed=9)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    assert max_abs(a.at(x) - b.at(x)) == 0.0
    c = random_smooth_frame(st4, 4, 2, seed=10)
    assert max_abs(a.at(x) - c.at(x)) > 1e-6


def test_random_smooth_frame_analytic_deriv_matches_fd(st4, points4):
    v = random_smooth_frame(st4, 3, 1, seed=5)
    vfd = v.V.without_analytic_derivs()
    for x in points4[:3]:
        for mu in range(4):
            assert max_abs(v.V.d(x, mu) - vfd.d(x, mu)) < 1e-5


def _reference_exp_field(h, right):
    """The seeded exp(iH) leaf through unitary_exp and unitary_exp_frechet, uncached."""
    def value(x):
        u = unitary_exp(h(x))
        return u if right is None else u @ right

    def deriv(x, mu):
        du = unitary_exp_frechet(h(x), h.d(x, mu))
        return du if right is None else du @ right

    return value, deriv


def _assert_exp_leaf_bits(points4, field, value, deriv, monkeypatch):
    # FD stencil neighbours differ from the first point in one coordinate
    stencil = [points4[0] + s * 1e-4 * np.eye(4)[mu] for mu in range(4) for s in (1, -1)]
    for x in list(points4) + stencil:
        for _ in range(2):  # a cold query, then the cached record
            assert np.array_equal(field(x), value(x))
            for mu in range(4):
                assert np.array_equal(field.d(x, mu), deriv(x, mu))
    # push the first point out of the LRU, then ask for it again
    rng = np.random.default_rng(7)
    for _ in range(_LEAF_CACHE_POINTS + 1):
        field(rng.uniform(-0.6, 0.6, 4))
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    x = points4[0]
    got = field(x)
    monkeypatch.undo()
    assert len(calls) == 1  # evicted, so evaluated afresh
    assert np.array_equal(got, value(x))
    for mu in range(4):
        assert np.array_equal(field.d(x, mu), deriv(x, mu))
    _assert_exp_leaf_stack_bits(points4, field, value, deriv, counting_eigh, calls, monkeypatch)


def _assert_exp_leaf_stack_bits(points4, field, value, deriv, counting_eigh, calls, monkeypatch):
    pts = np.asarray(points4)
    stacks = [pts, pts[:4].reshape(2, 2, 4)]
    for xs in stacks:
        for _ in range(2):  # a cold query, then the cached record
            got = field(xs)
            assert not got.flags.writeable
            for i in np.ndindex(xs.shape[:-1]):
                assert np.array_equal(got[i], value(xs[i]))
            for mu in range(4):
                dgot = field.d(xs, mu)
                assert not dgot.flags.writeable
                for i in np.ndindex(xs.shape[:-1]):
                    assert np.array_equal(dgot[i], deriv(xs[i], mu))
    rng = np.random.default_rng(11)
    # a stack of P points counts P toward the bound: one stack that fills the
    # rest of it pushes the five-point stack out, though only two records were kept
    field(pts)
    field(rng.uniform(-0.6, 0.6, (_LEAF_CACHE_POINTS - len(pts) + 1, 4)))
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    calls.clear()
    got = field(pts)
    assert len(calls) == 1  # evicted, so evaluated afresh with one stacked eigh
    # the newest record stays even when it alone holds more than the bound
    big = rng.uniform(-0.6, 0.6, (_LEAF_CACHE_POINTS + 3, 4))
    field(big)
    field(big)
    monkeypatch.undo()
    assert len(calls) == 2
    for i in range(len(pts)):
        assert np.array_equal(got[i], value(pts[i]))


@pytest.mark.parametrize("N,n", [(2, 1), (4, 2)])
def test_random_smooth_frame_bit_identical_to_unitary_exp(st4, points4, N, n, monkeypatch):
    v0 = np.zeros((N, n), dtype=complex)
    v0[:n, :n] = np.eye(n)
    h = random_hermitian_field(st4, N, 17)
    value, deriv = _reference_exp_field(h, v0)
    v = random_smooth_frame(st4, N, n, seed=17)
    _assert_exp_leaf_bits(points4, v.V, value, deriv, monkeypatch)


@pytest.mark.parametrize("n", [2, 4])
def test_random_gauge_map_bit_identical_to_unitary_exp(st4, points4, n, monkeypatch):
    h = random_hermitian_field(st4, n, 23)
    value, deriv = _reference_exp_field(h, None)
    u = random_gauge_map(st4, n, seed=23)
    _assert_exp_leaf_bits(points4, u.f, value, deriv, monkeypatch)


def _fd_of_deriv_errors(f, x, steps):
    """Largest |d2 - central difference of the analytic d| over every (mu, nu), per step."""
    errs = []
    for h in steps:
        fd = FieldFn(f.spacetime, f.shape, f.fn, f.deriv, None, h)
        errs.append(max(max_abs(f.d2(x, mu, nu) - fd.d2(x, mu, nu))
                        for mu in range(4) for nu in range(4)))
    return errs


@pytest.mark.parametrize("field", ["frame_2_1", "frame_4_2", "gauge_map"])
def test_exp_leaf_deriv2_is_the_limit_of_fd_of_deriv(st4, points4, field):
    f = {"frame_2_1": lambda: random_smooth_frame(st4, 2, 1, seed=4).V,
         "frame_4_2": lambda: random_smooth_frame(st4, 4, 2, seed=5).V,
         "gauge_map": lambda: random_gauge_map(st4, 3, seed=6).f}[field]()
    for x in points4[:2]:
        coarse, fine = _fd_of_deriv_errors(f, x, (2e-3, 1e-3))
        assert coarse < TOL.fd()
        # the central difference converges to deriv2 at second order
        assert 3.5 < coarse / fine < 4.5


def test_exp_leaf_deriv2_at_a_repeated_eigenvalue(st4):
    # H(0) = diag(1, 1, 2): the divided differences meet an eigenvalue pair and triple
    a = np.array([[0.3, 0.2 - 0.1j, 0.0], [0.2 + 0.1j, -0.1, 0.4j], [0.0, -0.4j, 0.2]])
    b = np.array([[0.0, 0.5, 0.1j], [0.5, 0.2, 0.0], [-0.1j, 0.0, -0.3]])
    x0, x1, x2 = (coordinate(st4, mu) for mu in range(3))
    h = (constant(np.diag([1.0, 1.0, 2.0]), st4) + x0 * constant(a, st4)
         + (x1 * x2 + x0 * x0) * constant(b, st4))
    u = _exp_i_field(h, None, True)
    x = np.zeros(4)
    assert max(_fd_of_deriv_errors(u, x, (1e-3,))) < TOL.fd()
    # H(0) = I: every eigenvalue triple is confluent, and d_mu d_nu e^{iH} has a closed form
    h = constant(np.eye(3), st4) + x0 * constant(a, st4) + (x1 * x2) * constant(b, st4)
    u = _exp_i_field(h, None, True)
    phase = np.exp(1j)
    assert max_abs(u.d2(x, 0, 0) - phase * (-a @ a)) < 1e-14
    assert max_abs(u.d2(x, 1, 2) - phase * 1j * b) < 1e-14
    assert max_abs(u.d2(x, 0, 1)) < 1e-14


@pytest.mark.parametrize("N,n", [(2, 1), (4, 2), (5, 2)])
def test_stencil_leaves_have_the_bits_of_fd(st4, points4, N, n):
    v = random_smooth_frame(st4, N, n, seed=8, amplitude=0.3)
    v0 = np.eye(N, n, dtype=complex)
    leaves = {"complement": complement_field(v),
              "canonical": canonical_frame_field(blade_from_frame(v), v0)}
    for name, leaf in leaves.items():
        assert leaf.fd_backed and leaf.deriv is not None and leaf.deriv2 is not None
        fd = FieldFn(st4, leaf.shape, leaf.fn)
        for x in (points4[0], np.asarray(points4[1:4])):
            # a value query before and after the stencil record exists
            assert np.array_equal(leaf(x), fd(x)), name
            for mu in range(4):
                assert np.array_equal(leaf.d(x, mu), fd.d(x, mu)), name
                for nu in range(4):
                    assert np.array_equal(leaf.d2(x, mu, nu), fd.d2(x, mu, nu)), name
            assert np.array_equal(leaf(x), fd(x)), name


def test_stencil_leaf_makes_one_complement_call_per_point_stack(st4, points4, monkeypatch):
    v = random_smooth_frame(st4, 4, 2, seed=8)
    w = complement_field(v)
    calls = []
    original = blade_module.complement_frame

    def counting(f, x):
        calls.append(np.shape(x))
        return original(f, x)

    monkeypatch.setattr(blade_module, "complement_frame", counting)
    x = np.asarray(points4[:3])
    w(x)
    assert calls == [(3, 4)]  # a value query alone is one plain call
    for mu in range(4):
        w.d(x, mu)
        for nu in range(4):
            w.d2(x, mu, nu)
    w(x)
    assert calls == [(3, 4), (73, 3, 4)]  # then one call on the whole nested stencil


def test_exp_leaf_arrays_are_read_only(st4, points4):
    v = random_smooth_frame(st4, 4, 2, seed=3)
    x = points4[0]
    before = v.V(x).copy()
    with pytest.raises(ValueError):
        v.V(x)[0, 0] += 1.0
    with pytest.raises(ValueError):
        v.V.d(x, 1)[0, 0] = 0.0
    assert np.array_equal(v.V(x), before)


def test_extract_potential_constant_frame(st4, points4):
    v = reference_frame(st4, 4, 2)
    a = extract_potential(v)
    for x in points4:
        for mu in range(4):
            assert max_abs(a.at(x, mu)) == 0.0


def test_extract_potential_gauge_transformation_law(st4, points4):
    # V' = V u^dag  =>  A' = u A u^dag - i u du^dag
    v = random_smooth_frame(st4, 4, 2, seed=13)
    u = random_gauge_map(st4, 2, seed=14)
    vprime = Frame(st4, 4, 2, v.V @ u.f.dagger())
    a = extract_potential(v)
    aprime = extract_potential(vprime)
    expected = gauge_transform(a, u)
    for x in points4[:3]:
        for mu in range(4):
            assert max_abs(aprime.at(x, mu) - expected.at(x, mu)) < 1e-9


def test_extract_potential_flags_broken_frame(st4):
    # a column growing with x^0 breaks orthonormality, so -i V^dag dV picks up
    # an anti-hermitian part that the consistency check must flag
    from bladegauge.fields import linear
    stretched = matrix_of([[linear(st4, [1.0, 0, 0, 0], 1.0)], [constant(0.0, st4)]])
    a = extract_potential(Frame(st4, 2, 1, stretched))
    with pytest.raises(ConsistencyError):
        a.at(np.zeros(4), 0)


def test_extract_potential_error_names_the_worst_point_of_a_stack(st4):
    # the anti-hermitian drift of the stretched column is |1 + x^0|, largest at x^0 = 0.5
    from bladegauge.fields import linear
    stretched = matrix_of([[linear(st4, [1.0, 0, 0, 0], 1.0)], [constant(0.0, st4)]])
    a = extract_potential(Frame(st4, 2, 1, stretched))
    xs = np.array([[0.0, 0.1, 0.2, 0.3], [0.5, 0.25, 0.0, -0.125], [-0.2, 0.0, 0.0, 0.0]])
    with pytest.raises(ConsistencyError) as err:
        a.at(xs, 0)
    msg = str(err.value)
    assert "[0.5, 0.25, 0.0, -0.125]" in msg and "drift 1.500e+00" in msg
    assert "0.3" not in msg and "-0.2" not in msg


def test_blade_reference(st4):
    v = reference_frame(st4, 5, 2)
    r = blade_from_frame(v).at(np.zeros(4))
    assert max_abs(r - np.diag([1, 1, -1, -1, -1]).astype(complex)) < 1e-14


def test_blade_gauge_invariance_exact(st4, points4):
    v = random_smooth_frame(st4, 4, 2, seed=17)
    u = random_gauge_map(st4, 2, seed=18)
    b1 = blade_from_frame(v)
    b2 = blade_from_frame(Frame(st4, 4, 2, v.V @ u.f.dagger()))
    for x in points4:
        assert max_abs(b1.at(x) - b2.at(x)) < 1e-13


def test_blade_invariants_and_trace(st4, points4):
    for N, n, seed in ((2, 1, 2), (4, 2, 3), (4, 1, 4)):
        blade = blade_from_frame(random_smooth_frame(st4, N, n, seed=seed))
        for x in points4[:3]:
            r = blade.at(x)
            assert max_abs(r @ r - np.eye(N)) < 1e-12
            assert max_abs(r - dagger(r)) < 1e-13
            assert abs(np.trace(r).real - (2 * n - N)) < 1e-12


def test_shape_operator_constant_blade(st4, points4):
    s = shape_operator(blade_from_frame(reference_frame(st4, 4, 2)))
    for x in points4:
        for mu in range(4):
            assert max_abs(s.at(x, mu)) == 0.0


def test_shape_operator_monopole_fd_oracle():
    # recompute S = -(i/2) R dR with plain central differences on R entries
    blade = blade_from_frame(em_frame(monopole_params(0.5, "plus")))
    s = shape_operator(blade)
    rfd = blade.R.without_analytic_derivs()
    x = np.array([1.0, np.pi / 2, 0.8])
    for mu in (1, 2):
        want = -0.5j * (rfd(x) @ rfd.d(x, mu))
        assert max_abs(s.at(x, mu) - want) < 1e-6
        assert max_abs(s.at(x, mu)) > 1e-3  # nontrivial on the sphere


def test_shape_anticommutes_and_blade_covariantly_constant(st4, points4):
    blade = blade_from_frame(random_smooth_frame(st4, 4, 2, seed=23))
    s = shape_operator(blade)
    for x in points4:
        r = blade.at(x)
        for mu in range(4):
            sv = s.at(x, mu)
            assert max_abs(sv - dagger(sv)) < 1e-12
            assert max_abs(r @ sv + sv @ r) < 1e-12
            dr = blade.R.d(x, mu)
            assert max_abs(dr + 1j * (sv @ r - r @ sv)) < 1e-12


def test_block_structure(st4, points4):
    blade = blade_from_frame(random_smooth_frame(st4, 4, 1, seed=29))
    s = shape_operator(blade)
    omega = blade_curvature(blade)
    for x in points4[:3]:
        r = blade.at(x)
        for mu in range(4):
            assert max_abs(r @ s.at(x, mu) @ r + s.at(x, mu)) < 1e-12
        for mu, nu in ((0, 1), (2, 3)):
            om = omega.at(x, mu, nu)
            assert max_abs(r @ om @ r - om) < TOL.fd()
            assert max_abs(om - dagger(om)) < TOL.fd()


def test_curvature_constant_blade(st4):
    omega = blade_curvature(blade_from_frame(reference_frame(st4, 4, 2)))
    assert max_abs(omega.at(np.ones(4), 0, 1)) == 0.0


def test_curvature_four_way_agreement(points4, st4):
    blade = blade_from_frame(random_smooth_frame(st4, 4, 2, seed=37))
    for x in points4[:2]:
        for mu, nu in ((0, 1), (0, 3), (1, 2)):
            vals, disc = four_way(blade, x, mu, nu)
            assert set(vals) == {"commutator_probe", "shape_commutator",
                                 "blade_derivative", "projector_derivative"}
            assert disc < TOL.fd_nested()
            check_four_way(blade, x, mu, nu)


def test_curvature_four_way_monopole():
    blade = blade_from_frame(em_frame(monopole_params(0.5, "plus")))
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = np.array([1.0, rng.uniform(0.5, 2.5), rng.uniform(0, 6)])
        _, disc = four_way(blade, x, 1, 2)
        assert disc < TOL.fd_nested()


def test_field_strength_is_conjugated_curvature(points4, st4):
    v = random_smooth_frame(st4, 4, 2, seed=41)
    fs = field_strength(extract_potential(v))
    omega = blade_curvature(blade_from_frame(v))
    for x in points4[:3]:
        vv = v.at(x)
        for mu, nu in ((0, 1), (1, 3)):
            want = dagger(vv) @ omega.at(x, mu, nu) @ vv
            assert max_abs(fs.at(x, mu, nu) - want) < TOL.fd()


def test_lifted_derivative_reduces_on_lifted_matter(st4, points4):
    from bladegauge.fields import exp_i, linear
    v = random_smooth_frame(st4, 4, 2, seed=43)
    blade = blade_from_frame(v)
    psi = matrix_of([[exp_i(linear(st4, [0.4, 0, -0.2, 0]))],
                     [constant(0.5 + 0.1j, st4)]])
    psi_vec = FieldFn(st4, (2,), lambda x: psi(x)[:, 0],
                      lambda x, mu: psi.d(x, mu)[:, 0], None)
    lifted = v.V @ psi_vec
    a = extract_potential(v)
    from bladegauge.gauge import covariant_derivative
    for x in points4[:3]:
        for mu in range(4):
            got = lifted_covariant_derivative(blade, lifted, mu, x)
            want = v.at(x) @ covariant_derivative(a, psi_vec, mu, x)
            assert max_abs(got - want) < 1e-8


def test_lifted_derivative_matches_projected_form(st4, points4):
    v = random_smooth_frame(st4, 3, 1, seed=47)
    blade = blade_from_frame(v)
    psi = FieldFn(st4, (3,),
                  lambda x: np.array([np.sin(x[0]), x[1] ** 2, 1.0], dtype=complex),
                  lambda x, mu: np.array([np.cos(x[0]) if mu == 0 else 0.0,
                                          2 * x[1] if mu == 1 else 0.0, 0.0],
                                         dtype=complex), None)
    for x in points4[:3]:
        for mu in range(4):
            a = lifted_covariant_derivative(blade, psi, mu, x)
            b = lifted_covariant_derivative_projected(blade, psi, mu, x)
            assert max_abs(a - b) < 1e-6


def test_lifted_constant_everything(st4):
    blade = blade_from_frame(reference_frame(st4, 4, 2))
    psi = constant(np.array([1.0, 2.0, 3.0, 4.0]), st4)
    assert max_abs(lifted_covariant_derivative(blade, psi, 1, np.zeros(4))) == 0.0


def test_lifted_matter_is_small_gauge_invariant(st4, points4):
    # V psi = (V u^dag)(u psi) holds exactly, pointwise
    v = random_smooth_frame(st4, 4, 2, seed=53)
    u = random_gauge_map(st4, 2, seed=54)
    psi_val = np.array([0.3 + 1j, -0.7])
    for x in points4:
        lhs = v.at(x) @ psi_val
        rhs = (v.at(x) @ dagger(u.f(x))) @ (u.f(x) @ psi_val)
        assert max_abs(lhs - rhs) < 1e-13


def test_shape_identity_residual_zero_for_blades(st4, points4):
    blade = blade_from_frame(random_smooth_frame(st4, 4, 2, seed=59))
    s = shape_operator(blade)
    for x in points4[:3]:
        for mu, nu in ((0, 1), (2, 3)):
            assert max_abs(shape_identity_residual(s, mu, nu, x)) < TOL.fd_nested()


def test_shape_identity_negative_control(st4):
    # generic hermitian fields do not satisfy the blade identity
    comps = tuple(random_hermitian_field(st4, 4, seed=61 + mu, amplitude=1.0)
                  for mu in range(4))
    s = OneForm(st4, comps)
    x = np.array([0.3, 0.1, -0.2, 0.4])
    assert max_abs(shape_identity_residual(s, 0, 1, x)) > 1e-3


def test_complement_reference_frame(st4):
    v = reference_frame(st4, 4, 1)
    w = complement_frame(v, np.zeros(4))
    want = np.zeros((4, 3), dtype=complex)
    want[1:, :] = np.eye(3)
    assert max_abs(w - want) < 1e-12


def test_complement_em_matches_paper_subspace(st4, points4):
    # the printed complement differs from the deterministic one by a phase;
    # the complement subspace (the projector W W^dag) must agree
    params = plane_wave_params(st4, [1.0, 0, 0, 1.0], [0, 0.7, 0, 0])
    v = em_frame(params)
    w_paper = em_complement(params)
    for x in points4[:3]:
        w = complement_frame(v, x)
        pw = w @ dagger(w)
        pv = w_paper(x) @ dagger(w_paper(x))
        assert max_abs(pw - pv) < 1e-10
        u = np.hstack([v.at(x), w])
        assert max_abs(dagger(u) @ u - np.eye(2)) < 1e-10


def test_complement_unitary_for_random_frames(st4, points4):
    v = random_smooth_frame(st4, 5, 2, seed=67)
    for x in points4:
        w = complement_frame(v, x)
        u = np.hstack([v.at(x), w])
        assert max_abs(dagger(u) @ u - np.eye(5)) < 1e-10


def _reference_complete_columns(v, pivot_tol=TOL.gram_schmidt_pivot):
    """The one-point pivoted Gram-Schmidt loop whose bits the stacked completion keeps."""
    N, n = v.shape
    basis = [v[:, j] for j in range(n)]
    out = []
    remaining = list(range(N))
    while len(out) < N - n:
        best_norm = -1.0
        best = None
        for j in remaining:
            w = np.zeros(N, dtype=complex)
            w[j] = 1.0
            for _ in range(2):
                for b in basis:
                    w = w - b * np.vdot(b, w)
            norm = np.linalg.norm(w)
            if norm > best_norm + 1e-12:
                best_norm = norm
                best = (j, w)
        j, w = best
        remaining.remove(j)
        assert best_norm > pivot_tol
        w = w / best_norm
        basis.append(w)
        out.append(w)
    return np.stack(out, axis=-1)


@pytest.mark.parametrize("N, n", [(2, 1), (3, 2), (4, 1), (4, 2), (6, 3)])
def test_stacked_completion_bit_identical_to_point_loop(N, n):
    rng = np.random.default_rng(10 * N + n)
    q = np.linalg.qr(rng.normal(size=(24, N, N)) + 1j * rng.normal(size=(24, N, N)))[0]
    # identity columns with phases: the residual norms tie, so the pivot order decides
    ties = np.stack([np.eye(N)[:, rng.permutation(N)[:n]] * np.exp(1j * rng.uniform(0, 6, n))
                     for _ in range(24)])
    ties[:4] = np.eye(N)[:, :n]
    for v in (q[..., :n], ties):
        stacked = _complete_columns(v.reshape(4, 6, N, n))
        assert stacked.shape == (4, 6, N, N - n)
        for i, vi in zip(np.ndindex(4, 6), v):
            want = _reference_complete_columns(vi)
            assert stacked[i].tobytes() == want.tobytes()
            assert _complete_columns(vi).tobytes() == want.tobytes()


def test_completion_error_names_the_stack_index():
    v = np.stack([np.eye(3, 1), np.full((3, 1), np.nan), np.eye(3, 1)])
    with pytest.raises(ConsistencyError, match=r"at stack index \[1\] "):
        _complete_columns(v)
    with pytest.raises(ConsistencyError, match="at this point"):
        _complete_columns(v[1])


def test_shape_gauge_decompose_random_frame(st4, points4):
    v = random_smooth_frame(st4, 4, 2, seed=71)
    w = complement_field(v)
    dec = shape_gauge_decompose(v, w)
    _assert_decomposition_holds(dec, np.array(points4[:2]))
    x = points4[2]
    for mu in range(4):
        assert max_abs(dec.reconstruction_residual(x, mu)) < TOL.fd_nested()
    block, gap = dec.omega_block_residual(x, 0, 2)
    assert max_abs(block) < TOL.fd_nested()
    assert max_abs(gap) < TOL.fd_nested()


def _assert_decomposition_holds(dec, pts):
    """S reconstruction and both curvature-block residuals within the nested FD budget."""
    for mu in range(4):
        assert max_abs(dec.reconstruction_residual(pts, mu)) <= TOL.fd_nested()
    for mu, nu in itertools.combinations(range(4), 2):
        block, gap = dec.omega_block_residual(pts, mu, nu)
        assert max_abs(block) <= TOL.fd_nested()
        assert max_abs(gap) <= TOL.fd_nested()


def test_shape_gauge_decompose_constant_frame(st4):
    v = reference_frame(st4, 4, 2)
    dec = shape_gauge_decompose(v, complement_field(v))
    x = np.zeros(4)
    for mu in range(4):
        assert max_abs(dec.C.at(x, mu)) < 1e-12
        assert max_abs(dec.reconstruction_residual(x, mu)) < 1e-10


def test_canonical_frame_fixed_point(st4):
    v0 = reference_frame(st4, 4, 2).at(np.zeros(4))
    p0 = v0 @ dagger(v0)
    assert max_abs(canonical_frame(p0, v0) - v0) < 1e-12


def test_canonical_frame_reproduces_subspace(st4, points4):
    v = random_smooth_frame(st4, 4, 2, seed=73)
    v0 = reference_frame(st4, 4, 2).at(np.zeros(4))
    blade = blade_from_frame(v)
    for x in points4[:3]:
        p = blade.projector(x)
        vc = canonical_frame(p, v0)
        assert max_abs(dagger(vc) @ vc - np.eye(2)) < 1e-12
        assert max_abs(vc @ dagger(vc) - p) < 1e-10


def test_canonical_frame_out_of_chart():
    v0 = np.array([[1.0], [0.0]], dtype=complex)
    p_orth = np.array([[0.0, 0], [0, 1.0]], dtype=complex)  # orthogonal subspace
    with pytest.raises(ChartError):
        canonical_frame(p_orth, v0)
    # a stack leaves the chart when any of its points does
    p_in = np.array([[1.0, 0], [0, 0.0]], dtype=complex)
    canonical_frame(np.stack([p_in, p_in]), v0)
    with pytest.raises(ChartError):
        canonical_frame(np.stack([p_in, p_orth]), v0)
    with pytest.raises(DimensionMismatchError, match="projector rank"):
        canonical_frame(np.stack([p_in, np.eye(2)]), v0)


def test_direct_rotation_out_of_chart():
    v0 = np.array([[1.0], [0.0]], dtype=complex)
    p_orth = np.array([[0.0, 0], [0, 1.0]], dtype=complex)  # principal angle pi/2
    with pytest.raises(ChartError):
        direct_rotation(p_orth, v0)
    with pytest.raises(DimensionMismatchError, match="projector rank"):
        direct_rotation(np.eye(2), v0)
    # a stack fails when any one of its points does
    p_in = np.array([[1.0, 0], [0, 0.0]], dtype=complex)
    direct_rotation(np.stack([p_in, p_in]), v0)
    with pytest.raises(ChartError):
        direct_rotation(np.stack([p_in, p_orth]), v0)
    with pytest.raises(DimensionMismatchError, match="projector rank"):
        direct_rotation(np.stack([p_in, np.eye(2)]), v0)


def test_direct_rotation_properties(st4, points4):
    v = random_smooth_frame(st4, 4, 1, seed=79)
    v0 = reference_frame(st4, 4, 1).at(np.zeros(4))
    r0 = 2.0 * v0 @ dagger(v0) - np.eye(4)
    blade = blade_from_frame(v)
    for x in points4[:3]:
        p = blade.projector(x)
        u1 = direct_rotation(p, v0)
        vc = canonical_frame(p, v0)
        assert max_abs(dagger(u1) @ u1 - np.eye(4)) < 1e-10
        assert max_abs(u1 @ v0 - vc) < 1e-10
        assert max_abs(u1 @ r0 - r0 @ dagger(u1)) < 1e-10


def test_canonical_frame_em_gauge_fixed_potential(st4):
    # extract_potential(V_can) is hermitian and reproduces V0^dag (U1^dag dU1) V0
    params = plane_wave_params(st4, [0.8, 0, 0, 0.5], [0, 0.4, 0, 0])
    blade = blade_from_frame(em_frame(params))
    v0 = reference_frame(st4, 2, 1).at(np.zeros(4))
    vc = canonical_frame_field(blade, v0)
    a = extract_potential(Frame(st4, 2, 1, vc))
    u1 = FieldFn(st4, (2, 2), lambda x: direct_rotation(blade.projector(x), v0),
                 None, None)
    x = np.array([0.3, 0.2, -0.1, 0.4])
    for mu in range(4):
        aval = a.at(x, mu)
        assert abs(aval[0, 0].imag) < 1e-6
        want = dagger(v0) @ (dagger(u1(x)) @ u1.d(x, mu)) @ v0
        assert max_abs(1j * aval - want) < 1e-5


def test_shape_gauge_non_uniqueness_witness(st4, points4):
    # a constant U(N) rotation satisfies V^dag (U1^dag dU1) V = 0, keeps the
    # extracted potential, and generally moves the blade
    v = random_smooth_frame(st4, 4, 2, seed=83)
    u1 = random_unitary(4, seed=84)
    v2 = Frame(st4, 4, 2, constant(u1, st4) @ v.V)
    a1 = extract_potential(v)
    a2 = extract_potential(v2)
    b1 = blade_from_frame(v)
    b2 = blade_from_frame(v2)
    moved = 0.0
    for x in points4[:3]:
        for mu in range(4):
            assert max_abs(a1.at(x, mu) - a2.at(x, mu)) < 1e-10
        moved = max(moved, max_abs(b1.at(x) - b2.at(x)))
    assert moved > 1e-2
