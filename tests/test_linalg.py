import warnings

import numpy as np
import pytest

from bladegauge.errors import DimensionMismatchError, DomainError
from bladegauge.linalg import (SIGMA_X, SIGMA_Y, SIGMA_Z, _exp_in_eigenbasis, _matmul_small,
                               _second_divided_differences, commutator, dagger, hermitian_part,
                               is_hermitian, max_abs, max_abs_each, random_hermitian,
                               unitary_exp, unitary_exp_frechet)


def test_identity_commutes_with_anything(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert max_abs(commutator(np.eye(3), m)) == 0.0


def test_pauli_commutator():
    # [sigma_x, sigma_y] = 2i sigma_z, by direct 2x2 multiplication
    assert max_abs(commutator(SIGMA_X, SIGMA_Y) - 2j * SIGMA_Z) < 1e-15


def test_dagger_is_involution(rng):
    m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    assert max_abs(dagger(dagger(m)) - m) == 0.0


def test_commutator_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutator(np.eye(2), np.eye(3))


def test_hermitian_part_splits(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = hermitian_part(m)
    assert is_hermitian(h, 1e-14)


def test_unitary_exp_of_zero():
    assert max_abs(unitary_exp(np.zeros((3, 3)), t=2.7) - np.eye(3)) < 1e-14


def test_unitary_exp_sigma_z_pi():
    # exp(i pi sigma_z) = diag(e^{i pi}, e^{-i pi}) = -I
    assert max_abs(unitary_exp(SIGMA_Z, np.pi) + np.eye(2)) < 1e-12


def test_unitary_exp_is_unitary(rng):
    for seed in range(5):
        h = random_hermitian(4, seed)
        u = unitary_exp(h, t=rng.uniform(-2, 2))
        assert max_abs(dagger(u) @ u - np.eye(4)) < 1e-10


def test_unitary_exp_preserves_det_modulus():
    for seed in range(4):
        u = unitary_exp(random_hermitian(3, seed), t=1.3)
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10


def test_unitary_exp_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        unitary_exp(m)


def test_unitary_exp_frechet_rejects_non_hermitian():
    h = random_hermitian(3, 42)
    h[0, 2] += 1e-3
    with pytest.raises(DomainError, match=r"unitary_exp_frechet requires a Hermitian.*1\.000e-03"):
        unitary_exp_frechet(h, random_hermitian(3, 43))


def test_frechet_derivative_matches_finite_difference():
    h = random_hermitian(3, 42)
    e = random_hermitian(3, 43)
    eps = 1e-6
    fd = (unitary_exp(h + eps * e) - unitary_exp(h - eps * e)) / (2 * eps)
    an = unitary_exp_frechet(h, e)
    assert max_abs(fd - an) < 1e-8


def test_frechet_handles_degenerate_eigenvalues():
    h = np.diag([1.0, 1.0, 2.0]).astype(complex)
    e = random_hermitian(3, 7)
    eps = 1e-6
    fd = (unitary_exp(h + eps * e) - unitary_exp(h - eps * e)) / (2 * eps)
    assert max_abs(fd - unitary_exp_frechet(h, e)) < 1e-8


@pytest.mark.parametrize("t", [1.0, -2.5])
def test_second_divided_differences_at_close_and_equal_eigenvalues(t):
    from scipy.linalg import expm
    # f[a, b, c] of f(x) = exp(i t x) is entry (0, 2) of f([[a, 1, 0], [0, b, 1], [0, 0, c]])
    rng = np.random.default_rng(5)
    for spread in (1.0, 1e-2, 3e-3, 1e-3, 1e-5, 1e-9, 0.0):
        lam = np.sort(0.7 + spread * rng.standard_normal(4))
        lam[2] = lam[1]  # one exactly repeated pair
        got = _second_divided_differences(lam, t)
        for i, k, j in np.ndindex(4, 4, 4):
            a, b, c = lam[i], lam[k], lam[j]
            want = expm(1j * t * np.array([[a, 1, 0], [0, b, 1], [0, 0, c]]))[0, 2]
            assert abs(got[i, k, j] - want) < 1e-12, (spread, i, k, j)
    stack = np.sort(rng.standard_normal((3, 2, 4)), axis=-1)
    got = _second_divided_differences(stack, t)
    for i in np.ndindex(3, 2):
        assert np.array_equal(got[i], _second_divided_differences(stack[i], t))


def test_random_hermitian_is_hermitian_and_deterministic():
    a = random_hermitian(2, 11)
    b = random_hermitian(2, 11)
    assert max_abs(a - dagger(a)) == 0.0
    assert max_abs(a - b) == 0.0
    assert max_abs(a - random_hermitian(2, 12)) > 1e-3


def test_random_unitary_contract():
    u = unitary_exp(random_hermitian(3, 5))
    assert max_abs(dagger(u) @ u - np.eye(3)) < 1e-12
    assert max_abs(u - unitary_exp(random_hermitian(3, 5))) == 0.0


def test_random_hermitian_rejects_bad_dim():
    with pytest.raises(DimensionMismatchError):
        random_hermitian(0, 1)


@pytest.mark.parametrize("n", [2, 4])
def test_unitary_exp_stack_matches_per_matrix(rng, n):
    g = rng.standard_normal((3, 5, n, n)) + 1j * rng.standard_normal((3, 5, n, n))
    h = hermitian_part(g)
    stacked = unitary_exp(h, t=0.7)
    assert stacked.shape == (3, 5, n, n)
    for idx in np.ndindex(3, 5):
        np.testing.assert_allclose(stacked[idx], unitary_exp(h[idx], t=0.7),
                                   rtol=0, atol=1e-14)


def test_stack_helpers_act_per_matrix(rng):
    m = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    for k in range(4):
        assert max_abs(dagger(m)[k] - dagger(m[k])) == 0.0
        assert max_abs(hermitian_part(m)[k] - hermitian_part(m[k])) == 0.0
    assert is_hermitian(hermitian_part(m))
    assert not is_hermitian(m)


def test_unitary_exp_stack_rejects_one_non_hermitian(rng):
    g = rng.standard_normal((3, 5, 2, 2)) + 1j * rng.standard_normal((3, 5, 2, 2))
    h = hermitian_part(g)
    h[1, 3, 0, 1] += 1e-3
    with pytest.raises(DomainError, match=r"\(1, 3\).*1\.000e-03"):
        unitary_exp(h)


def _hermitian_2x2_stack(shape, seed):
    """Seeded Hermitian (*shape, 2, 2) stack; of every three matrices the
    second is m I and the third m I plus a traceless part of size about 1e-300."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))
    h = hermitian_part(g).reshape(-1, 2, 2)
    m = 0.5 * np.trace(h, axis1=-2, axis2=-1).real[:, None, None] * np.eye(2)
    h[1::3] = m[1::3]
    h[2::3] = m[2::3] + 1e-300 * (h[2::3] - m[2::3])
    return h.reshape(shape + (2, 2))


@pytest.mark.parametrize("shape", [(), (64,), (3, 4)])
@pytest.mark.parametrize("t", [-2e-3, 1.0, 50.0])
def test_unitary_exp_2x2_closed_form_matches_eigh(shape, t):
    h = _hermitian_2x2_stack(shape, seed=len(shape) + 31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = unitary_exp(h, t)
    ref = _exp_in_eigenbasis(*np.linalg.eigh(h), t)
    assert got.shape == shape + (2, 2)
    err = max_abs_each(got - ref)
    assert np.all(err <= 1e-14 * (1.0 + abs(t) * max_abs_each(h)))
    assert max_abs(dagger(got) @ got - np.eye(2)) <= 1e-14


def test_unitary_exp_2x2_lone_matrix_bits_match_stack():
    h = _hermitian_2x2_stack((11,), seed=5)
    stacked = unitary_exp(h, 0.9)
    for k in range(11):
        assert np.array_equal(unitary_exp(h[k], 0.9), stacked[k])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matmul_small_matches_matmul(rng, n):
    a = rng.standard_normal((6, 5, n, n)) + 1j * rng.standard_normal((6, 5, n, n))
    b = rng.standard_normal((6, 5, n, n)) + 1j * rng.standard_normal((6, 5, n, n))
    got = _matmul_small(a, b)
    assert got.shape == (6, 5, n, n)
    assert max_abs(got - a @ b) <= 1e-15 * max_abs(np.abs(a) @ np.abs(b))
