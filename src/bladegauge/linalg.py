"""Dense complex linear algebra kernel.

All operations are pure functions on immutable numpy arrays; results are
reproducible bit-for-bit for identical inputs and seeds.  Matrix sizes stay
small (N <= ~8), so the unitary exponential goes through an eigendecomposition
of its Hermitian argument rather than scaling-and-squaring: that keeps the
unitarity of the result exact up to rounding.

`dagger`, `hermitian_part`, `max_abs`, `is_hermitian` and `unitary_exp` take
stacks of matrices shaped (..., N, N): the last two axes are the matrix and
every leading axis is a batch axis, as in numpy's stacked `@` and
`np.linalg.eigh`.  A single (N, N) matrix is the stack with no batch axes and
gives bit-identical results to the same matrix taken out of a larger stack.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .tolerances import DEFAULT as TOL

__all__ = [
    "dagger", "hermitian_part", "commutator", "max_abs", "is_hermitian",
    "unitary_exp", "unitary_exp_frechet",
    "random_hermitian", "random_unitary",
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dagger(m):
    """Conjugate transpose of each matrix in the stack."""
    return np.conjugate(np.asarray(m)).swapaxes(-1, -2)


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


def is_hermitian(m, tol=TOL.hermitian_input):
    """True when every matrix in the stack is Hermitian to within tol."""
    return max_abs(np.asarray(m) - dagger(m)) <= tol


def unitary_exp(h, t=1.0):
    """exp(i t H) for each Hermitian H in a (..., N, N) stack, via eigh.

    Raises DomainError if any H deviates from Hermiticity by more than the
    input tolerance; the message names the worst matrix's stack index.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        skew = np.max(np.abs(h - dagger(h)), axis=(-2, -1))
        worst = np.unravel_index(np.argmax(skew), skew.shape)
        where = f" at stack index {tuple(int(i) for i in worst)}" if worst else ""
        raise DomainError(
            f"unitary_exp requires a Hermitian argument{where} "
            f"(max anti-hermitian part {skew[worst]:.3e})")
    lam, q = np.linalg.eigh(hermitian_part(h))
    return (q * np.exp(1j * t * lam)[..., None, :]) @ dagger(q)


def unitary_exp_frechet(h, e, t=1.0):
    """Directional derivative of H -> exp(i t H) at Hermitian H along E.

    Uses the eigenbasis divided-difference (Daleckii-Krein) formula for
    f(x) = exp(i t x); near-degenerate eigenvalue pairs fall back to the
    midpoint derivative, which keeps the formula second-order accurate.
    """
    h = np.asarray(h, dtype=complex)
    e = np.asarray(e, dtype=complex)
    lam, q = np.linalg.eigh(hermitian_part(h))
    f = np.exp(1j * t * lam)
    den = lam[:, None] - lam[None, :]
    close = np.abs(den) < 1e-12
    mid = 1j * t * np.exp(1j * t * 0.5 * (lam[:, None] + lam[None, :]))
    gamma = np.where(close, mid, (f[:, None] - f[None, :]) / np.where(close, 1.0, den))
    return q @ (gamma * (dagger(q) @ e @ q)) @ dagger(q)


def random_hermitian(n, seed, scale_=1.0):
    """Seeded random Hermitian n x n matrix (GUE-style, then symmetrized)."""
    if n < 1:
        raise DimensionMismatchError("matrix dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale_ * hermitian_part(g)


def random_unitary(n, seed):
    """Seeded random unitary, constructed as exp(i H) of a random Hermitian."""
    return unitary_exp(random_hermitian(n, seed), 1.0)
