"""Dense complex linear algebra kernel.

All operations are pure functions on immutable numpy arrays; results are
reproducible bit-for-bit for identical inputs and seeds.  Matrix sizes stay
small (N <= ~8), so the unitary exponential is spectral rather than
scaling-and-squaring, which keeps the unitarity of the result exact up to
rounding: for N = 2 it is the closed form of exp(i t H) on H's trace and
traceless parts, a few elementwise passes over the stack; for other N it goes
through an eigendecomposition of H.

`dagger`, `hermitian_part`, `max_abs_each`, `is_hermitian`, `polar`,
`unitary_exp` and `unitary_exp_frechet` take stacks of matrices shaped (..., N, N): the last
two axes are the matrix and every leading axis is a batch axis, as in numpy's
stacked `@` and `np.linalg.eigh`.  A single (N, N) matrix is the stack with
no batch axes and gives bit-identical results to the same matrix taken out of
a larger stack.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .tolerances import DEFAULT as TOL

__all__ = [
    "dagger", "hermitian_part", "commutator", "max_abs", "max_abs_each", "is_hermitian",
    "polar", "unitary_exp", "unitary_exp_frechet", "random_hermitian",
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dagger(m):
    """Conjugate transpose of each matrix in the stack."""
    return np.conjugate(np.asarray(m)).mT


def hermitian_part(m):
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + dagger(m))


def commutator(m, n):
    """MN - NM."""
    m = np.asarray(m)
    n = np.asarray(n)
    if m.shape[-1] != n.shape[-2] or n.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(
            f"commutator needs square-compatible shapes, got {m.shape} and {n.shape}")
    return m @ n - n @ m


def max_abs(m):
    """Max-abs (entrywise sup) norm; the norm used by all tolerance checks."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def max_abs_each(m):
    """The max-abs norm of each matrix in a (..., N, N) stack, shaped (...)."""
    return np.max(np.abs(m), axis=(-2, -1))


def is_hermitian(m, tol=TOL.hermitian_input):
    """True when every matrix in the stack is Hermitian to within tol."""
    return max_abs(np.asarray(m) - dagger(m)) <= tol


def polar(m):
    """The unitary polar factor U of each M = U H in a (..., N, n) stack, and M's singular values.

    U = u vh from the thin SVD M = u diag(s) vh: the nearest matrix with orthonormal
    columns to M, unique where M has full column rank.
    """
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh, s


def unitary_exp(h, t=1.0):
    """exp(i t H) for each Hermitian H in a (..., N, N) stack.

    N = 2 takes the closed form (see `_exp_2x2`); other N go through eigh.
    Raises DomainError if any H deviates from Hermiticity by more than the
    input tolerance; the message names the worst matrix's stack index.
    """
    h = np.asarray(h, dtype=complex)
    _require_hermitian(h, "unitary_exp")
    if h.shape[-2:] == (2, 2):
        return _exp_2x2(h, t)
    lam, q = np.linalg.eigh(hermitian_part(h))
    return _exp_in_eigenbasis(lam, q, t)


def unitary_exp_frechet(h, e, t=1.0):
    """Directional derivative of H -> exp(i t H) at Hermitian H along E.

    Uses the eigenbasis divided-difference (Daleckii-Krein) formula for
    f(x) = exp(i t x); near-degenerate eigenvalue pairs fall back to the
    midpoint derivative, which keeps the formula second-order accurate.
    Raises DomainError, as `unitary_exp` does, if H is not Hermitian.
    """
    h = np.asarray(h, dtype=complex)
    e = np.asarray(e, dtype=complex)
    _require_hermitian(h, "unitary_exp_frechet")
    lam, q = np.linalg.eigh(hermitian_part(h))
    return _frechet_in_eigenbasis(q, _divided_differences(lam, t), dagger(q) @ e @ q)


def _require_hermitian(h, caller):
    """DomainError naming `caller` and the worst stack index unless h is Hermitian."""
    if not is_hermitian(h):
        skew = max_abs_each(h - dagger(h))
        worst = np.unravel_index(np.argmax(skew), skew.shape)
        where = f" at stack index {tuple(int(i) for i in worst)}" if worst else ""
        raise DomainError(
            f"{caller} requires a Hermitian argument{where} "
            f"(max anti-hermitian part {skew[worst]:.3e})")


def _exp_2x2(h, t):
    """exp(i t H) for the Hermitian part H of each matrix in a (..., 2, 2) stack.

    With m = tr H / 2 and K = H - m I, K^2 = r^2 I where r^2 = a^2 + |b|^2,
    a = (H00 - H11) / 2 and b = H01, so
    exp(i t H) = e^{i t m} (cos(t r) I + i (sin(t r) / r) K),
    where sin(t r) / r = t at r = 0 comes without a division by zero.  sin and
    cos see the same argument t r (np.sinc would rescale it by pi and back),
    so the result stays unitary to rounding for large |t r| too.  A lone
    matrix goes through the same array loops as a stack (numpy's scalar
    arithmetic rounds complex products differently), so it gives the same
    bits as the matrix taken out of a stack.
    """
    shape = h.shape
    h = h.reshape(-1, 2, 2)
    h00, h11 = h[..., 0, 0].real, h[..., 1, 1].real
    m = 0.5 * (h00 + h11)
    a = 0.5 * (h00 - h11)
    b = 0.5 * (h[..., 0, 1] + np.conjugate(h[..., 1, 0]))
    r = np.hypot(a, np.abs(b))
    tr = t * r
    phase = np.exp(1j * t * m)
    c = phase * np.cos(tr)
    s = 1j * phase * np.where(r > 0, np.sin(tr) / np.where(r > 0, r, 1.0), t)
    out = np.empty(h.shape, dtype=complex)
    out[..., 0, 0] = c + s * a
    out[..., 1, 1] = c - s * a
    out[..., 0, 1] = s * b
    out[..., 1, 0] = s * np.conjugate(b)
    return out.reshape(shape)


def _matmul_small(a, b):
    """a @ b for stacks of small matrices, as the sum of column-row outer products.

    Sum_k a[..., :, k] b[..., k, :] is a few elementwise passes, which beat
    numpy's stacked matmul and einsum on long stacks of 2x2 matrices.
    """
    out = a[..., :, 0:1] * b[..., 0:1, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def _exp_in_eigenbasis(lam, q, t):
    """exp(i t H) from the eigendecomposition H = q diag(lam) q^dag."""
    return (q * np.exp(1j * t * lam)[..., None, :]) @ dagger(q)


def _divided_differences(lam, t):
    """Daleckii-Krein matrix of f(x) = exp(i t x) on the eigenvalues lam."""
    f = np.exp(1j * t * lam)
    den = lam[..., :, None] - lam[..., None, :]
    close = np.abs(den) < 1e-12
    mid = 1j * t * np.exp(1j * t * 0.5 * (lam[..., :, None] + lam[..., None, :]))
    return np.where(close, mid, (f[..., :, None] - f[..., None, :]) / np.where(close, 1.0, den))


# below this spread |t| (lam_max - lam_min) of a triple, the quotient loses about
# 4 eps t^2 / spread to cancellation, more than the Taylor series loses by
# truncation (about t^2 spread^4 / 720); either way the error stays near 1e-13 t^2
_CLOSE_TRIPLE = 2e-3


def _second_divided_differences(lam, t):
    """f[lam_i, lam_k, lam_j] of f(x) = exp(i t x), shaped (..., N, N, N) by (i, k, j).

    lam is ascending, as eigh returns it, so a triple's outer eigenvalues have
    its smallest and largest index.  The difference of the two first divided
    differences that share the middle eigenvalue is divided by the outer gap;
    the first divided differences take the cancellation-free form
    f[a, b] = i t e^{i t (a + b)/2} sinc(t (a - b)/2).  Triples that lie
    within `_CLOSE_TRIPLE` of each other take the Taylor series about their
    mean m instead: e^{i t m} (-t^2/2 + t^4 p2/48 + i t^5 p3/360), with p_k
    the power sums of the deviations from m; it gives f''/2 at a triple
    eigenvalue.
    """
    lo, mid, hi = np.sort(np.indices((lam.shape[-1],) * 3), axis=0)
    mean = 0.5 * (lam[..., :, None] + lam[..., None, :])
    half = 0.5 * (lam[..., :, None] - lam[..., None, :])
    first = (1j * t) * np.exp(1j * t * mean) * np.sinc(t * half / np.pi)
    a, b, c = lam[..., lo], lam[..., mid], lam[..., hi]
    close = np.abs(t * (c - a)) < _CLOSE_TRIPLE
    quotient = (first[..., lo, mid] - first[..., mid, hi]) / np.where(close, 1.0, a - c)
    m = (a + b + c) / 3.0
    da, db, dc = a - m, b - m, c - m
    p2 = da * da + db * db + dc * dc
    p3 = da * da * da + db * db * db + dc * dc * dc
    t2 = t * t
    series = np.exp(1j * t * m) * (-0.5 * t2 + (t2 * t2 / 48.0) * p2
                                   + 1j * (t2 * t2 * t / 360.0) * p3)
    return np.where(close, series, quotient)


def _inverse_sqrt_divided_differences(lam):
    """f[a, b] and f[a, b, c] of f(x) = x^(-1/2) on positive eigenvalues lam, by (i, k, j).

    With s = sqrt(lam): -1 / (s_a s_b (s_a + s_b)) and (s_a + s_b + s_c) /
    (s_a s_b s_c (s_a + s_b) (s_b + s_c) (s_c + s_a)), which do not cancel and
    give f'(a) and f''(a) / 2 at equal eigenvalues, so no confluent branch is needed.
    """
    s = np.sqrt(lam)
    si, sj = s[..., :, None], s[..., None, :]
    a, b, c = s[..., :, None, None], s[..., None, :, None], s[..., None, None, :]
    return (-1.0 / (si * sj * (si + sj)),
            (a + b + c) / (a * b * c * (a + b) * (b + c) * (c + a)))


def _frechet_in_eigenbasis(q, gamma, e_tilde):
    """d f(H) along E from H's eigenvectors q, f's divided differences gamma and E~ = q^dag E q."""
    return q @ (gamma * e_tilde) @ dagger(q)


def _second_frechet_in_eigenbasis(q, gamma, gamma2, e2_tilde, em_tilde, en_tilde):
    """d_mu d_nu f(H) = q [gamma o E~_mu,nu + sum_k gamma2_ikj (E~_mu,ik E~_nu,kj
    + E~_nu,ik E~_mu,kj)] q^dag, with E~ = q^dag E q for E = d_mu d_nu H, d_mu H and d_nu H
    (Higham & Relton, SIAM J. Matrix Anal. Appl. 35 (2014) 1019); the k-sum is N passes.
    """
    inner = gamma * e2_tilde
    for k in range(q.shape[-1]):
        inner += gamma2[..., :, k, :] * (em_tilde[..., :, k:k + 1] * en_tilde[..., k:k + 1, :]
                                         + en_tilde[..., :, k:k + 1] * em_tilde[..., k:k + 1, :])
    return q @ inner @ dagger(q)


def random_hermitian(n, seed, scale_=1.0):
    """Seeded random Hermitian n x n matrix (GUE-style, then symmetrized)."""
    if n < 1:
        raise DimensionMismatchError("matrix dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale_ * hermitian_part(g)

