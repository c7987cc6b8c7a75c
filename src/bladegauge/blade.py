"""Frames, rotating blades, shape operators, and blade curvature.

A frame V(x) is an N x n matrix field with orthonormal columns; the rotating
blade R = 2 V V^dag - I is the gauge-invariant reflection encoding only the
column span.  The shape operator S_mu = -(i/2) R dR plays the role of
connection coefficients for the lifted covariant derivative, so it is a
`OneForm` like any gauge potential and its curvature a `TwoForm`.  The blade
curvature admits four algebraically equivalent expressions that are all kept
as independent code paths for cross-validation.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ChartError, ConsistencyError, DimensionMismatchError
from .fields import (FieldFn, OneForm, Spacetime, TwoForm, constant, hstack,
                     identity_field, two_form)
from .gauge import GaugeMap, field_strength, gauge_map, gauge_potential
from .linalg import (_divided_differences, _exp_in_eigenbasis,
                     _frechet_in_eigenbasis, _require_hermitian, commutator,
                     dagger, hermitian_part, max_abs, random_hermitian)
# perfbench/selftest.py checks that its tracer rewraps this second binding
from .linalg import unitary_exp  # noqa: F401
from .tolerances import DEFAULT as TOL

__all__ = [
    "Frame", "RotatingBlade",
    "frame", "validate_frame", "extract_potential", "blade_from_frame",
    "shape_operator", "blade_curvature", "four_way", "check_four_way",
    "lifted_field", "lifted_covariant_derivative",
    "lifted_covariant_derivative_projected", "shape_identity_residual",
    "complement_frame", "complement_field", "ShapeGaugeDecomposition",
    "shape_gauge_decompose", "canonical_frame", "direct_rotation",
    "canonical_frame_field", "reference_frame",
    "random_smooth_frame", "random_gauge_map", "random_hermitian_field",
]


@dataclass(frozen=True)
class Frame:
    """N x n matrix field V with V^dag V = I."""

    spacetime: Spacetime
    N: int
    n: int
    V: FieldFn

    def at(self, x):
        return self.V(x)


@dataclass(frozen=True)
class RotatingBlade:
    """Hermitian reflection field R with R^2 = I and tr R = 2n - N."""

    spacetime: Spacetime
    N: int
    n: int
    R: FieldFn

    @property
    def projector(self) -> FieldFn:
        return 0.5 * (self.R + identity_field(self.spacetime, self.N))

    def at(self, x):
        return self.R(x)


def frame(spacetime, V: FieldFn, check_points=(), tol=TOL.algebraic) -> Frame:
    if len(V.shape) != 2:
        raise DimensionMismatchError("a frame must be matrix valued")
    N, n = V.shape
    if n > N:
        raise DimensionMismatchError("frame needs n <= N")
    f = Frame(spacetime, N, n, V)
    for x in check_points:
        validate_frame(f, x, tol)
    return f


def validate_frame(f: Frame, x, tol=TOL.algebraic):
    v = f.V(x)
    err = max_abs(dagger(v) @ v - np.eye(f.n))
    if err > tol:
        raise ConsistencyError(f"frame columns not orthonormal at {x}: error {err:.3e}")
    return err


def reference_frame(spacetime, N, n) -> Frame:
    """The constant frame (I_n, 0)^T."""
    v0 = np.zeros((N, n), dtype=complex)
    v0[:n, :n] = np.eye(n)
    return Frame(spacetime, N, n, constant(v0, spacetime))


def extract_potential(f: Frame, tol=TOL.frame_consistency) -> OneForm:
    """A_mu = -i V^dag dV.

    The result is Hermitian when the frame is genuinely orthonormal; the
    evaluation symmetrizes and raises a frame-inconsistency error when the
    anti-hermitian drift exceeds `tol` (broken orthonormality or a
    finite-difference step too coarse for the field).
    """
    comps = []
    for mu in range(f.spacetime.dim):
        raw = (-1j) * (f.V.dagger() @ f.V.partial(mu))

        def checked(x, raw=raw):
            m = np.asarray(raw.fn(x), dtype=complex)
            h = hermitian_part(m)
            drift = max_abs(m - h)
            if drift > tol:
                raise ConsistencyError(
                    f"extracted potential not Hermitian at {x} (drift {drift:.3e}); "
                    "frame orthonormality is broken or the FD step is too coarse")
            return h

        deriv = None
        if raw.deriv is not None:
            deriv = lambda x, nu, raw=raw: hermitian_part(raw.deriv(x, nu))
        comps.append(FieldFn(f.spacetime, (f.n, f.n), checked, deriv, None, f.V.fd_step))
    return OneForm(f.spacetime, tuple(comps))


def blade_from_frame(f: Frame) -> RotatingBlade:
    """R = 2 V V^dag - I."""
    R = 2.0 * (f.V @ f.V.dagger()) - identity_field(f.spacetime, f.N)
    return RotatingBlade(f.spacetime, f.N, f.n, R)


def shape_operator(blade: RotatingBlade) -> OneForm:
    """S_mu = -(i/2) R dR: d Hermitian N x N fields anti-commuting with R."""
    comps = tuple((-0.5j) * (blade.R @ blade.R.partial(mu))
                  for mu in range(blade.spacetime.dim))
    return OneForm(blade.spacetime, comps)


def lifted_field(shape_op: OneForm, psi: FieldFn, mu) -> FieldFn:
    """The field x -> D_mu psi = d_mu psi + i S_mu psi, as a FieldFn."""
    return psi.partial(mu) + 1j * (shape_op.components[mu] @ psi)


def lifted_covariant_derivative(blade_or_shape, psi: FieldFn, mu, x):
    """d_mu psi + i S_mu psi at x, for any C^N-valued field psi."""
    s = blade_or_shape if isinstance(blade_or_shape, OneForm) else shape_operator(blade_or_shape)
    return psi.d(x, mu) + 1j * s.at(x, mu) @ psi(x)


def lifted_covariant_derivative_projected(blade: RotatingBlade, psi: FieldFn, mu, x):
    """Equivalent projector form P d(P psi) + P_perp d(P_perp psi)."""
    P = blade.projector
    Pperp = identity_field(blade.spacetime, blade.N) - P
    a = P @ (P @ psi).partial(mu)
    b = Pperp @ (Pperp @ psi).partial(mu)
    return a(x) + b(x)


def shape_identity_residual(shape_op: OneForm, mu, nu, x):
    """d_mu S_nu - d_nu S_mu + 2i [S_mu, S_nu]; zero for genuine blades."""
    smu, snu = shape_op.components[mu], shape_op.components[nu]
    return (snu.d(x, mu) - smu.d(x, nu)
            + 2j * commutator(smu(x), snu(x)))


# ---------------------------------------------------------------------------
# curvature

_FOUR_WAY_NAMES = ("commutator_probe", "shape_commutator", "blade_derivative",
                   "projector_derivative")


def four_way(blade: RotatingBlade, x, mu, nu):
    """Evaluate all four equivalent curvature expressions of the blade at x.

    Returns (values dict keyed by expression name, max pairwise
    discrepancy in the max-abs norm).
    """
    vals = _four_way_values(blade, x, mu, nu)
    disc = max(max_abs(vals[a] - vals[b])
               for a, b in itertools.combinations(_FOUR_WAY_NAMES, 2))
    return vals, disc


def check_four_way(blade: RotatingBlade, x, mu, nu, tol=None):
    """The four-way discrepancy at x; ConsistencyError if it exceeds tol."""
    tol = TOL.fd_nested() if tol is None else tol
    _, disc = four_way(blade, x, mu, nu)
    if disc > tol:
        raise ConsistencyError(
            f"curvature expressions disagree by {disc:.3e} > {tol:.1e} at {x}")
    return disc


def _four_way_values(blade: RotatingBlade, x, mu, nu):
    s = shape_operator(blade)
    smu, snu = s.at(x, mu), s.at(x, nu)
    # probe realization: apply -i [D_mu, D_nu] to the constant basis fields
    n_dim = blade.N
    cols = []
    for j in range(n_dim):
        e = np.zeros(n_dim, dtype=complex)
        e[j] = 1.0
        probe = constant(e, blade.spacetime)
        dmu_dnu = lifted_field(s, lifted_field(s, probe, nu), mu)
        dnu_dmu = lifted_field(s, lifted_field(s, probe, mu), nu)
        cols.append(-1j * (dmu_dnu(x) - dnu_dmu(x)))
    probe_val = np.stack(cols, axis=-1)
    dr_mu, dr_nu = blade.R.d(x, mu), blade.R.d(x, nu)
    P = blade.projector
    dp_mu, dp_nu = P.d(x, mu), P.d(x, nu)
    return {
        "commutator_probe": probe_val,
        "shape_commutator": -1j * commutator(smu, snu),
        "blade_derivative": -0.25j * commutator(dr_mu, dr_nu),
        "projector_derivative": -1j * commutator(dp_mu, dp_nu),
    }


def blade_curvature(blade: RotatingBlade, check_points=(), tol=None) -> TwoForm:
    """Curvature of the lifted covariant derivative, as -i [S_mu, S_nu].

    check_points, when given, cross-validate the four equivalent expressions
    and raise a ConsistencyError beyond the combined FD tolerance.
    """
    s = shape_operator(blade).components
    omega = two_form(blade.spacetime, lambda mu, nu: (-1j) * (s[mu] @ s[nu] - s[nu] @ s[mu]))
    for x in check_points:
        for mu, nu in omega.upper:
            check_four_way(blade, x, mu, nu, tol)
    return omega


# ---------------------------------------------------------------------------
# orthogonal complement and shape gauge

def complement_frame(f: Frame, x, pivot_tol=TOL.gram_schmidt_pivot):
    """Deterministic orthonormal basis of the complement of range V(x).

    Greedy pivoted Gram-Schmidt over the identity columns: each step picks
    the candidate with the largest residual norm (lowest index on ties) and
    orthogonalizes it against everything accepted so far.  The greedy choice
    keeps every accepted pivot well conditioned, so W stays smooth (and its
    finite-difference derivatives stay within budget) wherever the pivot
    selection does not switch; fixtures avoid the switching set.
    """
    return _complete_columns(np.asarray(f.V(x), dtype=complex), pivot_tol)


def complement_field(f: Frame, pivot_tol=TOL.gram_schmidt_pivot) -> FieldFn:
    """The complement as a (finite-difference differentiable) field."""
    return FieldFn(f.spacetime, (f.N, f.N - f.n),
                   lambda x: complement_frame(f, x, pivot_tol),
                   None, None, f.V.fd_step)


@dataclass(frozen=True)
class ShapeGaugeDecomposition:
    """S_mu seen as the U(N) gauge transform of A oplus C by U = (V, W)."""

    frame: Frame
    W: FieldFn
    C: OneForm
    G: TwoForm

    def reconstruction_residual(self, x, mu):
        """S_mu - [U (A oplus C) U^dag - i U dU^dag] at x."""
        f = self.frame
        u = hstack(f.V, self.W)
        a = extract_potential(f)
        blk = np.zeros((f.N, f.N), dtype=complex)
        blk[:f.n, :f.n] = a.at(x, mu)
        blk[f.n:, f.n:] = self.C.at(x, mu)
        uv = u(x)
        s = shape_operator(blade_from_frame(f)).at(x, mu)
        recon = uv @ blk @ dagger(uv) - 1j * (uv @ dagger(u.d(x, mu)))
        return s - recon

    def omega_block_residual(self, x, mu, nu):
        """Omega - U (F oplus G) U^dag at x, plus the G = W^dag Omega W gap."""
        f = self.frame
        a = extract_potential(f)
        fs = field_strength(a)
        omega = blade_curvature(blade_from_frame(f)).at(x, mu, nu)
        blk = np.zeros((f.N, f.N), dtype=complex)
        blk[:f.n, :f.n] = fs.at(x, mu, nu)
        blk[f.n:, f.n:] = self.G.at(x, mu, nu)
        uv = np.hstack([f.V(x), self.W(x)])
        w = self.W(x)
        gap = self.G.at(x, mu, nu) - dagger(w) @ omega @ w
        return omega - uv @ blk @ dagger(uv), gap


def shape_gauge_decompose(f: Frame, w: FieldFn, check_points=(), tol=None) -> ShapeGaugeDecomposition:
    """Complementary connection C_mu = -i W^dag dW and its curvature G.

    Verifies, at the given check points, both the S_mu reconstruction from
    the combined potential and the block form of the curvature; raises a
    ConsistencyError when a residual exceeds the tolerance.
    """
    tol = TOL.fd_nested() if tol is None else tol
    comps = [(-1j) * (w.dagger() @ w.partial(mu)) for mu in range(f.spacetime.dim)]
    c = gauge_potential(f.spacetime, comps)
    g = field_strength(c)
    dec = ShapeGaugeDecomposition(f, w, c, g)
    for x in check_points:
        for mu in range(f.spacetime.dim):
            r = max_abs(dec.reconstruction_residual(x, mu))
            if r > tol:
                raise ConsistencyError(f"shape-gauge reconstruction residual {r:.3e} at {x}")
        for mu, nu in itertools.combinations(range(f.spacetime.dim), 2):
            block, gap = dec.omega_block_residual(x, mu, nu)
            if max(max_abs(block), max_abs(gap)) > tol:
                raise ConsistencyError(f"curvature block residual at {x} exceeds {tol:.1e}")
    return dec


# ---------------------------------------------------------------------------
# canonical (Cartan-factor) frame

def canonical_frame(p, v0, tol=TOL.chart_min_overlap):
    """The preferred frame for the subspace range(P), relative to V0.

    Returns V_can = U1 V0, where U1 is the direct rotation carrying
    range(V0) onto range(P) (the unitary with U1 R0 = R0 U1^dag).  Valid on
    the chart where all principal angles between the subspaces stay below
    pi/2; outside it the overlap block is singular and a ChartError is
    raised rather than picking an arbitrary branch.
    """
    q = _range_basis(p)
    v0 = np.asarray(v0, dtype=complex)
    n = v0.shape[1]
    if q.shape[1] != n:
        raise DimensionMismatchError("projector rank differs from reference frame width")
    x = dagger(v0) @ q
    u_left, sing, vh = np.linalg.svd(x)
    if sing.min() < tol:
        raise ChartError(
            f"principal angle >= pi/2 between range(P) and range(V0) "
            f"(min overlap {sing.min():.3e})")
    u_polar = u_left @ vh
    return q @ dagger(u_polar)


def direct_rotation(p, v0, w0=None, tol=TOL.chart_min_overlap):
    """The N x N unitary U1 of the canonical construction.

    Satisfies U1 V0 = canonical_frame(P, V0) and U1 R0 = R0 U1^dag, where
    R0 is the reflection of range(V0).
    """
    v0 = np.asarray(v0, dtype=complex)
    N, n = v0.shape
    if w0 is None:
        w0 = _complete_columns(v0)
    q = _range_basis(p)
    x = dagger(v0) @ q
    y = dagger(w0) @ q
    u_left, sing, vh = np.linalg.svd(x)
    if sing.min() < tol:
        raise ChartError("principal angle >= pi/2; direct rotation undefined")
    m = dagger(vh)
    cos_t = np.clip(sing, -1.0, 1.0)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t ** 2))
    ym = y @ m
    ltil = np.zeros((N - n, n), dtype=complex)
    for j in range(n):
        if sin_t[j] > 1e-12:
            ltil[:, j] = ym[:, j] / sin_t[j]
    top_left = u_left @ np.diag(cos_t) @ dagger(u_left)
    top_right = -u_left @ np.diag(sin_t) @ dagger(ltil)
    bot_left = ltil @ np.diag(sin_t) @ dagger(u_left)
    bot_right = (np.eye(N - n, dtype=complex) - ltil @ dagger(ltil)
                 + ltil @ np.diag(cos_t) @ dagger(ltil))
    blocks = np.block([[top_left, top_right], [bot_left, bot_right]])
    b = np.hstack([v0, w0])
    return b @ blocks @ dagger(b)


def canonical_frame_field(blade: RotatingBlade, v0) -> FieldFn:
    """Pointwise canonical frame as a field (finite-difference derivatives)."""
    P = blade.projector
    return FieldFn(blade.spacetime, (blade.N, blade.n),
                   lambda x: canonical_frame(P(x), v0),
                   None, None, blade.R.fd_step)


def _range_basis(p, thresh=0.5):
    """Orthonormal basis of the range of a Hermitian projector value."""
    p = np.asarray(p, dtype=complex)
    lam, q = np.linalg.eigh(hermitian_part(p))
    cols = [q[:, j] for j in range(p.shape[0]) if lam[j] > thresh]
    return np.stack(cols, axis=-1)


def _complete_columns(v, pivot_tol=TOL.gram_schmidt_pivot):
    """Greedy-pivoted orthonormal completion of orthonormal columns."""
    N, n = v.shape
    basis = [v[:, j] for j in range(n)]
    out = []
    if n == N:
        return np.zeros((N, 0), dtype=complex)
    remaining = list(range(N))
    while len(out) < N - n:
        best_norm = -1.0
        best = None
        for j in remaining:
            w = np.zeros(N, dtype=complex)
            w[j] = 1.0
            for _ in range(2):  # twice for numerical orthogonality
                for b in basis:
                    w = w - b * np.vdot(b, w)
            norm = np.linalg.norm(w)
            if norm > best_norm + 1e-12:  # strict improvement: lowest index wins ties
                best_norm = norm
                best = (j, w)
        j, w = best
        remaining.remove(j)
        if best_norm <= pivot_tol:
            raise ConsistencyError(
                f"cannot complete the frame at this point (pivot norm {best_norm:.2e})")
        w = w / best_norm
        basis.append(w)
        out.append(w)
    return np.stack(out, axis=-1)


# ---------------------------------------------------------------------------
# seeded smooth test fields

def random_hermitian_field(spacetime, n, seed, amplitude=0.4, waves=3):
    """H(x) = sum_j C_j sin(w_j . x + p_j) with analytic first derivatives."""
    rng = np.random.default_rng(seed)
    mats = [random_hermitian(n, rng.integers(0, 2 ** 31), amplitude / waves)
            for _ in range(waves)]
    ws = rng.uniform(-1.0, 1.0, size=(waves, spacetime.dim))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=waves)

    def fn(x):
        return sum(m * np.sin(np.dot(w, x) + p) for m, w, p in zip(mats, ws, phases))

    def deriv(x, mu):
        return sum(m * w[mu] * np.cos(np.dot(w, x) + p)
                   for m, w, p in zip(mats, ws, phases))

    def deriv2(x, mu, nu):
        return sum(-m * w[mu] * w[nu] * np.sin(np.dot(w, x) + p)
                   for m, w, p in zip(mats, ws, phases))

    return FieldFn(spacetime, (n, n), fn, deriv, deriv2)


def random_smooth_frame(spacetime, N, n, seed, amplitude=0.4, analytic=True) -> Frame:
    """Seeded frame V = exp(i H(x)) V0 with exact analytic first derivatives.

    The derivative of the matrix exponential is evaluated in the eigenbasis
    (divided differences), so frame identities hold to rounding accuracy.
    One eigh per distinct point, kept in a bounded LRU (256 points) that
    lives with the field; the arrays returned are read-only.
    analytic=False strips the derivatives to exercise finite-difference paths.
    """
    h = random_hermitian_field(spacetime, N, seed, amplitude)
    v0 = np.zeros((N, n), dtype=complex)
    v0[:n, :n] = np.eye(n)
    return Frame(spacetime, N, n, _exp_i_field(h, v0, analytic))


def random_gauge_map(spacetime, n, seed, amplitude=0.4, analytic=True) -> GaugeMap:
    """Seeded smooth U(n)-valued field u(x) = exp(i h(x)).

    One eigh per distinct point, kept in a bounded LRU (256 points) that
    lives with the field; the arrays returned are read-only.
    """
    h = random_hermitian_field(spacetime, n, seed, amplitude)
    return gauge_map(_exp_i_field(h, None, analytic), check=False)


# distinct points whose spectral record one seeded exp(iH) field keeps
_EXP_CACHE_POINTS = 256


class _ExpRecord:
    """What one point of an exp(iH) field needs: eigh of H, value, derivatives."""

    __slots__ = ("lam", "q", "value", "gamma", "derivs")

    def __init__(self, lam, q, value):
        self.lam, self.q, self.value = lam, q, value
        self.gamma = None   # Daleckii-Krein matrix, made on the first derivative
        self.derivs = {}    # mu -> d_mu value


def _exp_i_field(h: FieldFn, right, analytic) -> FieldFn:
    """The field x -> exp(i H(x)) @ right (no product when right is None).

    Each distinct point costs one H(x), one Hermiticity check and one eigh;
    the value, the divided differences and each d_mu value are made once and
    kept in an LRU of `_EXP_CACHE_POINTS` points that lives with the field.
    The arithmetic is that of `unitary_exp` and `unitary_exp_frechet`, so
    results are bit-identical to them, and every array handed out is
    read-only so that no caller can change what a later query returns.
    analytic=False leaves the derivatives to finite differences.
    """
    cache = OrderedDict()

    def publish(m):
        out = m if right is None else m @ right
        out.flags.writeable = False
        return out

    def record(x):
        key = np.asarray(x, dtype=float).tobytes()
        rec = cache.get(key)
        if rec is not None:
            cache.move_to_end(key)
            return rec
        hx = np.asarray(h.fn(x), dtype=complex)
        _require_hermitian(hx, "unitary_exp")
        lam, q = np.linalg.eigh(hermitian_part(hx))
        rec = cache[key] = _ExpRecord(lam, q, publish(_exp_in_eigenbasis(lam, q, 1.0)))
        if len(cache) > _EXP_CACHE_POINTS:
            cache.popitem(last=False)
        return rec

    def fn(x):
        return record(x).value

    def deriv(x, mu):
        rec = record(x)
        d = rec.derivs.get(mu)
        if d is None:
            if rec.gamma is None:
                rec.gamma = _divided_differences(rec.lam, 1.0)
            e = np.asarray(h.deriv(x, mu), dtype=complex)
            d = rec.derivs[mu] = publish(_frechet_in_eigenbasis(rec.q, rec.gamma, e))
        return d

    n = h.shape[0]
    shape = (n, n) if right is None else (n, right.shape[1])
    return FieldFn(h.spacetime, shape, fn, deriv if analytic else None, None)
