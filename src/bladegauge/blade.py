"""Frames, rotating blades, shape operators, and blade curvature.

A frame V(x) is an N x n matrix `FieldFn` with orthonormal columns; the
rotating blade R = 2 V V^dag - I is the N x N gauge-invariant reflection
field encoding only the column span.  Both are plain fields: N and n are
their `shape`, and their chart is their `spacetime`; `projector` gives
P = (R + I)/2.  The shape operator S_mu = -(i/2) R dR plays the role of
connection coefficients for the lifted covariant derivative, so it is a
1-form (a `fields.Form`) like any gauge potential and its curvature a 2-form
like F; the lifted covariant derivative is `gauge.covariant_field` with S as
the connection.  The blade curvature admits four algebraically equivalent
expressions that are all kept as independent code paths for cross-validation.
The gauge-fixed frames are functions of the blade alone: the canonical frame
is the polar factor of P V0 and the direct rotation U1 = sqrt(R R0) that of
I + R R0, where R0 is the reflection of a reference frame V0.

The seeded exp(iH) frames (a square one is a seeded U(N) gauge map), the
canonical frame P V0 (V0^dag P V0)^(-1/2) and the complement W, the canonical
frame of -R relative to the last N - n identity columns, are leaves with first
and second derivatives in closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ChartError, ConsistencyError, DimensionMismatchError
from .fields import (FieldFn, Form, _any, _jet, _node, _pairs, _PointLRU, _worst_point, hstack,
                     identity_field)
from .gauge import _hermitized, covariant_field, field_strength
from .linalg import (_divided_differences, _exp_2x2, _exp_in_eigenbasis, _frechet_in_eigenbasis,
                     _inverse_sqrt_divided_differences, _require_hermitian,
                     _second_divided_differences, _second_frechet_in_eigenbasis, commutator,
                     dagger, hermitian_part, max_abs_each, polar, random_hermitian)
# perfbench/selftest.py checks that its tracer rewraps this second binding
from .linalg import unitary_exp  # noqa: F401
from .tolerances import DEFAULT as TOL

__all__ = [
    "frame", "validate_frame", "extract_potential", "blade_from_frame", "projector",
    "shape_operator", "blade_curvature", "four_way", "check_four_way",
    "lifted_covariant_derivative_projected", "shape_identity_residual",
    "complement_frame", "complement_field", "ShapeGaugeDecomposition",
    "shape_gauge_decompose", "canonical_frame", "direct_rotation",
    "canonical_frame_field",
    "random_smooth_frame", "random_hermitian_field",
]


def frame(v: FieldFn) -> FieldFn:
    """The N x n matrix field v as a frame; `validate_frame` checks V^dag V = I."""
    if len(v.shape) != 2:
        raise DimensionMismatchError("a frame must be matrix valued")
    if v.shape[1] > v.shape[0]:
        raise DimensionMismatchError("frame needs n <= N")
    return v


def validate_frame(v: FieldFn, x):
    """Largest |V^dag V - I| at x, a point or a (..., d) stack.

    Raises a ConsistencyError naming the worst point beyond TOL.algebraic.
    """
    vx = v(x)
    return _within(max_abs_each(dagger(vx) @ vx - np.eye(v.shape[1])), x, TOL.algebraic,
                   "frame columns not orthonormal: error")


def _within(errs, x, tol, what):
    """The largest of the per-point errors errs; ConsistencyError naming its point beyond tol."""
    err = float(np.max(errs))
    if err > tol:
        _, point = _worst_point(errs, x)
        raise ConsistencyError(f"{what} {err:.3e} > {tol:.1e} at {point}")
    return err


def extract_potential(v: FieldFn) -> Form:
    """A_mu = -i V^dag dV, symmetrized on evaluation (Hermitian for an orthonormal frame).

    An anti-hermitian drift beyond TOL.frame_consistency (broken orthonormality or
    a finite-difference step too coarse for the field) raises a ConsistencyError.
    """
    def fail(point, drift):
        return ConsistencyError(f"extracted potential not Hermitian at {point} (drift "
                                f"{drift:.3e}); frame orthonormality is broken or the FD step "
                                "is too coarse")

    return Form(v.spacetime, 1, lambda mu: _hermitized((-1j) * (v.dagger() @ v.partial(mu)),
                                                        TOL.frame_consistency, fail))


def blade_from_frame(v: FieldFn) -> FieldFn:
    """R = 2 V V^dag - I: a Hermitian reflection field with R^2 = I and tr R = 2n - N."""
    return 2.0 * (v @ v.dagger()) - identity_field(v.spacetime, v.shape[0])


def projector(r: FieldFn) -> FieldFn:
    """P = (R + I) / 2, the projector onto the blade's span."""
    return 0.5 * (r + identity_field(r.spacetime, r.shape[0]))


def shape_operator(r: FieldFn) -> Form:
    """S_mu = -(i/2) R dR: d Hermitian N x N fields anti-commuting with R."""
    return Form(r.spacetime, 1, lambda mu: (-0.5j) * (r @ r.partial(mu)))


def lifted_covariant_derivative_projected(r: FieldFn, psi: FieldFn, mu, x):
    """Equivalent projector form P d(P psi) + P_perp d(P_perp psi)."""
    P = projector(r)
    Pperp = identity_field(r.spacetime, r.shape[0]) - P
    a = P @ (P @ psi).partial(mu)
    b = Pperp @ (Pperp @ psi).partial(mu)
    return a(x) + b(x)


def shape_identity_residual(shape_op: Form, mu, nu, x):
    """d_mu S_nu - d_nu S_mu + 2i [S_mu, S_nu]; zero for genuine blades."""
    smu, snu = shape_op.component(mu), shape_op.component(nu)
    return (snu.d(x, mu) - smu.d(x, nu)
            + 2j * commutator(smu(x), snu(x)))


# ---------------------------------------------------------------------------
# curvature

_FOUR_WAY_NAMES = ("commutator_probe", "shape_commutator", "blade_derivative",
                   "projector_derivative")


def four_way(r: FieldFn, x, mu, nu):
    """Evaluate all four equivalent curvature expressions of the blade at x.

    Returns (values dict keyed by expression name, max pairwise
    discrepancy in the max-abs norm, over every point of a stack x).
    """
    vals, discs = _four_way_values(r, x, mu, nu)
    return vals, float(np.max(discs))


def check_four_way(r: FieldFn, x, mu, nu, tol=None):
    """Each point's four-way discrepancy at x; ConsistencyError naming the worst beyond tol."""
    tol = TOL.fd_nested() if tol is None else tol
    discs = _four_way_values(r, x, mu, nu)[1]
    _within(discs, x, tol, "curvature expressions disagree by")
    return discs


def _four_way_values(r: FieldFn, x, mu, nu):
    """The four expressions at x, and each point's largest pairwise discrepancy."""
    s = shape_operator(r)
    smu, snu = s.at(x, mu), s.at(x, nu)
    # probe realization: apply -i [D_mu, D_nu] to the identity, all basis columns at once
    probe = identity_field(r.spacetime, r.shape[0])
    dmu_dnu = covariant_field(s, covariant_field(s, probe, nu), mu)
    dnu_dmu = covariant_field(s, covariant_field(s, probe, mu), nu)
    probe_val = -1j * (dmu_dnu(x) - dnu_dmu(x))
    dr_mu, dr_nu = r.d(x, mu), r.d(x, nu)
    P = projector(r)
    dp_mu, dp_nu = P.d(x, mu), P.d(x, nu)
    vals = {
        "commutator_probe": probe_val,
        "shape_commutator": -1j * commutator(smu, snu),
        "blade_derivative": -0.25j * commutator(dr_mu, dr_nu),
        "projector_derivative": -1j * commutator(dp_mu, dp_nu),
    }
    discs = np.max([max_abs_each(vals[a] - vals[b])
                    for a, b in itertools.combinations(_FOUR_WAY_NAMES, 2)], axis=0)
    return vals, discs


def blade_curvature(r: FieldFn) -> Form:
    """Curvature of the lifted covariant derivative, as -i [S_mu, S_nu].

    `check_four_way` cross-validates it against the three other expressions.
    """
    s = shape_operator(r)
    return Form(r.spacetime, 2,
                lambda mu, nu: (-1j) * (s[(mu,)] @ s[(nu,)] - s[(nu,)] @ s[(mu,)]))


# ---------------------------------------------------------------------------
# orthogonal complement and shape gauge

def complement_frame(v: FieldFn, x):
    """Deterministic orthonormal basis of the complement of range V(x), x a point or a stack.

    Greedy pivoted Gram-Schmidt over the identity columns: each step picks
    the candidate with the largest residual norm (lowest index on ties) and
    orthogonalizes it against everything accepted so far.  Each accepted pivot
    is well conditioned, but W jumps where the pivot selection switches, so
    it is a pointwise basis only; `complement_field` is the smooth complement.
    """
    return _complete_columns(np.asarray(v(x), dtype=complex))


def complement_field(v: FieldFn) -> FieldFn:
    """The smooth complement W of the frame v: the canonical frame of -R relative to W0.

    -R = I - 2 V V^dag reflects the complement of range(V), and W0 = eye(N)[:, n:]
    completes V0 = eye(N, n), so W = `canonical_frame_field(-R, W0)` equals U1 W0,
    with U1 the direct rotation of range(V0) onto range(V).  A ChartError names
    the point where a principal angle between the complement and range(W0) is pi/2.
    """
    N, n = v.shape
    return canonical_frame_field(-blade_from_frame(v), np.eye(N, dtype=complex)[:, n:])


@dataclass(frozen=True)
class ShapeGaugeDecomposition:
    """S_mu seen as the U(N) gauge transform of A oplus C by U = (V, W)."""

    V: FieldFn
    W: FieldFn
    C: Form
    G: Form

    def reconstruction_residual(self, x, mu):
        """S_mu - [U (A oplus C) U^dag - i U dU^dag] at x, a point or a (..., d) stack."""
        v = self.V
        N, n = v.shape
        u = hstack(v, self.W)
        a = extract_potential(v)
        blk = np.zeros(np.shape(x)[:-1] + (N, N), dtype=complex)
        blk[..., :n, :n] = a.at(x, mu)
        blk[..., n:, n:] = self.C.at(x, mu)
        uv = u(x)
        s = shape_operator(blade_from_frame(v)).at(x, mu)
        recon = uv @ blk @ dagger(uv) - 1j * (uv @ dagger(u.d(x, mu)))
        return s - recon

    def omega_block_residual(self, x, mu, nu):
        """Omega - U (F oplus G) U^dag at x, plus the G = W^dag Omega W gap."""
        v = self.V
        N, n = v.shape
        a = extract_potential(v)
        fs = field_strength(a)
        omega = blade_curvature(blade_from_frame(v)).at(x, mu, nu)
        g = self.G.at(x, mu, nu)
        blk = np.zeros(np.shape(x)[:-1] + (N, N), dtype=complex)
        blk[..., :n, :n] = fs.at(x, mu, nu)
        blk[..., n:, n:] = g
        w = self.W(x)
        uv = np.concatenate([v(x), w], axis=-1)
        gap = g - dagger(w) @ omega @ w
        return omega - uv @ blk @ dagger(uv), gap


def shape_gauge_decompose(v: FieldFn, w: FieldFn) -> ShapeGaugeDecomposition:
    """Complementary connection C = -i W^dag dW, `extract_potential` of W, and its curvature G.

    The decomposition's `reconstruction_residual` and `omega_block_residual`
    measure how well S_mu and the curvature blocks are reproduced.
    """
    c = extract_potential(w)
    return ShapeGaugeDecomposition(v, w, c, field_strength(c))


# ---------------------------------------------------------------------------
# canonical frame and direct rotation: polar factors of the blade

def canonical_frame(p, v0):
    """The preferred frame for the subspace range(P), relative to V0; P may be a stack.

    V_can = P V0 (V0^dag P V0)^(-1/2), the polar factor of P V0, equals U1 V0 with
    U1 = `direct_rotation(P, V0)`.  The singular values of P V0 are the cosines of
    the principal angles between range(P) and range(V0), so the frame is valid on
    the chart where every angle stays below pi/2; where any point of a stack leaves
    it, a ChartError is raised rather than picking an arbitrary branch.
    """
    v0 = np.asarray(v0, dtype=complex)
    vc, cos = polar(_projector_of_rank(p, v0.shape[1]) @ v0)
    if cos.min() < TOL.chart_min_overlap:
        raise ChartError(
            f"principal angle >= pi/2 between range(P) and range(V0) "
            f"(min overlap {cos.min():.3e})")
    return vc


def direct_rotation(p, v0):
    """The N x N unitary U1 = sqrt(R R0) of the canonical construction; P may be a stack.

    U1 is the polar factor of I + R R0, with R = 2P - I and R0 = 2 V0 V0^dag - I
    the reflections of range(P) and range(V0) (Davis & Kahan 1970).  It carries
    range(V0) onto range(P) and satisfies U1 V0 = canonical_frame(P, V0) and
    U1 R0 = R0 U1^dag.  Half the singular values of I + R R0 are the principal-angle
    cosines (and 1 elsewhere), so it raises a ChartError where `canonical_frame` does.
    """
    v0 = np.asarray(v0, dtype=complex)
    N, n = v0.shape
    eye = np.eye(N)
    r = 2.0 * _projector_of_rank(p, n) - eye
    u1, s = polar(eye + r @ (2.0 * (v0 @ dagger(v0)) - eye))
    if s.min() < 2.0 * TOL.chart_min_overlap:
        raise ChartError("principal angle >= pi/2; direct rotation undefined")
    return u1


def canonical_frame_field(r: FieldFn, v0) -> FieldFn:
    """The canonical frame of the blade r relative to the fixed N x k frame v0, as a leaf.

    V_can = B K^(-1/2), with B = P V0 and K = V0^dag P V0, the polar factor of P V0
    (`canonical_frame`), is a `_spectral_leaf` of r; K's eigenvalues are the squared
    cosines of the principal angles between range(P) and range(V0), and a ChartError
    names the point where the smallest drops below TOL.chart_min_overlap^2."""
    v0 = np.asarray(v0, dtype=complex)
    v0h = dagger(v0)
    N, k = v0.shape

    def parts(m, value):
        p = 0.5 * m  # P = (R + I) / 2, so d P = d R / 2
        b = (_projector_of_rank(p + 0.5 * np.eye(N), k) if value else p) @ v0
        return b, v0h @ b

    def spectrum(x, kx):
        lam, q = np.linalg.eigh(hermitian_part(kx))
        low = lam.min(axis=-1, initial=np.inf)
        if _any(low < TOL.chart_min_overlap ** 2):
            i, point = _worst_point(-low, x)
            where = f"stack index {list(map(int, i))}, point {point}" if i else point
            raise ChartError(f"principal angle >= pi/2 between range(P) and range(V0) "
                             f"at {where} (min overlap {np.sqrt(max(low[i], 0.0)):.3e})")
        return lam, q, (q * (1.0 / np.sqrt(lam))[..., None, :]) @ dagger(q)

    return _spectral_leaf(r, (N, k), parts, spectrum, _inverse_sqrt_divided_differences,
                          lambda m: m)


def _projector_of_rank(p, n):
    """Projector(s) p as an array; DimensionMismatchError unless each has trace n."""
    p = np.asarray(p, dtype=complex)
    if _any(np.rint(np.trace(p, axis1=-2, axis2=-1).real) != n):
        raise DimensionMismatchError("projector rank differs from reference frame width")
    return p


def _complete_columns(v):
    """Greedy-pivoted orthonormal completion of the orthonormal columns of a (..., N, n) stack.

    Candidate e_j is row j of one (B, N, N) array over the flattened stack;
    contiguous rows make `vecdot` the dot kernel of `np.vdot`, so each point
    keeps the bits it has alone.
    """
    N, n = v.shape[-2:]
    batch = v.shape[:-2]
    v = v.reshape(-1, N, n)
    rows = np.arange(len(v))
    basis = [v[:, :, j] for j in range(n)]
    taken = np.zeros((len(v), N), dtype=bool)
    eye = np.broadcast_to(np.eye(N, dtype=complex), (len(v), N, N))
    for _ in range(N - n):
        w = eye
        for _ in range(2):  # twice for numerical orthogonality
            for b in basis:
                w = w - b[:, None, :] * np.vecdot(b[:, None, :], w)[..., None]
        norms = np.sqrt(np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag))
        best_norm = np.full(len(v), -1.0)
        best = np.zeros(len(v), dtype=int)
        for j in range(N):  # strict improvement: lowest index wins ties
            better = ~taken[:, j] & (norms[:, j] > best_norm + 1e-12)
            best_norm = np.where(better, norms[:, j], best_norm)
            best = np.where(better, j, best)
        if (best_norm <= TOL.gram_schmidt_pivot).any():
            k = np.argmin(best_norm)
            where = (f"stack index {[int(i) for i in np.unravel_index(k, batch)]}" if batch
                     else "this point")
            raise ConsistencyError(
                f"cannot complete the frame at {where} (pivot norm {best_norm[k]:.2e})")
        taken[rows, best] = True
        basis.append(w[rows, best] / best_norm[:, None])
    w = np.stack(basis[n:], axis=-1) if N > n else np.zeros((len(v), N, 0), dtype=complex)
    return w.reshape(batch + (N, N - n))


# ---------------------------------------------------------------------------
# seeded smooth test fields

def random_hermitian_field(spacetime, n, seed, amplitude=0.4):
    """H(x) = sum_j C_j sin(w_j . x + p_j) over 3 waves, with analytic derivatives."""
    waves = 3
    rng = np.random.default_rng(seed)
    mats = [random_hermitian(n, rng.integers(0, 2 ** 31), amplitude / waves)
            for _ in range(waves)]
    ws = rng.uniform(-1.0, 1.0, size=(waves, spacetime.dim))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=waves)

    def waves_at(s, x):  # one factor per wave: scalars at a point, (..., 1, 1) at a stack
        return s if x.ndim == 1 else [s[..., j, None, None] for j in range(waves)]

    def rule(x, memo, want):
        phase = np.vecdot(x[..., None, :], ws) + phases  # w_j . x + p_j for every wave j
        sines = waves_at(np.sin(phase), x)
        v = sum(m * s for m, s in zip(mats, sines))
        if want is None:
            return v, None, None
        col = (-1,) + (1,) * (x.ndim + 1)  # mu first, then the stack and matrix axes
        d1 = sum(m * w.reshape(col) * c for m, w, c in zip(mats, ws, waves_at(np.cos(phase), x)))
        return v, d1, sum(-m * w[want.first].reshape(col) * w[want.second].reshape(col) * s
                          for m, w, s in zip(mats, ws, sines)) if want else None

    return _node(spacetime, (n, n), 2, rule)


def random_smooth_frame(spacetime, N, n, seed, amplitude=0.4, analytic=True) -> FieldFn:
    """Seeded frame V = exp(i H(x)) V0 with exact analytic first and second derivatives.

    They are taken in H's eigenbasis (`_spectral_leaf`), so frame identities hold to
    rounding; with n = N, V is a seeded smooth U(N) gauge map exp(i H(x)).
    analytic=False strips the derivatives to exercise finite-difference paths.
    """
    v = _exp_i_field(random_hermitian_field(spacetime, N, seed, amplitude),
                     np.eye(N, n, dtype=complex))
    return v if analytic else v.without_analytic_derivs()


class _SpectralRecord:
    """One point stack of a spectral leaf: H = Q diag(lam) Q^dag, L, f(H) and what they make."""

    __slots__ = ("lam", "q", "left", "f", "value", "dd", "first", "second")

    def __init__(self, lam, q, left, f, value):
        self.lam, self.q, self.left, self.f, self.value = lam, q, left, f, value
        self.dd = self.first = None  # f's divided differences; every d_mu's (dL, E~, df, d value)
        self.second = {}  # (mu, nu) -> d_mu d_nu value


def _spectral_leaf(source: FieldFn, shape, parts, spectrum, dd, finish) -> FieldFn:
    """The leaf x -> finish(L(x) f(H(x))) for a Hermitian H(x), with analytic d and d2.

    parts(m, value) takes source's value (value True) or a stack of its derivatives
    to the matching (L, H) (L None for the identity); spectrum(x, H) checks H and gives
    its eigh Q diag(lam) Q^dag and f(H), dd(lam) f's divided differences; finish is
    linear.  A point stack costs one eigh; every d_mu, at once, and each pair's d_mu d_nu
    are made once from it and kept, read-only, in a record in the leaf's LRU
    (`fields._PointLRU`).  f(H) is differentiated in H's eigenbasis, L f(H) by Leibniz.
    """
    lru = _PointLRU()

    def publish(m):
        out = finish(m)
        out.flags.writeable = False
        return out

    def rule(x, memo, want):
        rec = lru.get(x)
        missing = want and _pairs([p for p in want if rec is None or p not in rec.second])
        src = None
        if rec is None or want is not None and (rec.first is None or missing):
            src = _jet(source, x, memo, missing or (None if want is None else ()))
        if rec is None:
            left, hx = parts(src[0], True)
            lam, q, f = spectrum(x, hx)
            rec = lru.put(x, _SpectralRecord(lam, q, left, f,
                                             publish(f if left is None else left @ f)))
        if want is None:
            return rec.value, None, None
        q = rec.q
        if rec.first is None:
            rec.dd = dd(rec.lam)
            dl, dh = parts(src[1], False)
            t = dagger(q) @ dh @ q
            df = _frechet_in_eigenbasis(q, rec.dd[0], t)
            rec.first = (dl, t, df, publish(df if rec.left is None else
                                            dl @ rec.f + rec.left @ df))
        if not want:
            return rec.value, rec.first[3], None
        if missing:
            dl, t, df, _ = rec.first
            a, b = missing.first, missing.second
            d2l, d2h = parts(src[2], False)
            d2 = _second_frechet_in_eigenbasis(q, *rec.dd, dagger(q) @ d2h @ q, t[a], t[b])
            if rec.left is not None:
                d2 = d2l @ rec.f + dl[a] @ df[b] + dl[b] @ df[a] + rec.left @ d2
            d2 = publish(d2)
            rec.second.update(zip(missing, d2))
            if len(missing) == len(want):
                return rec.value, rec.first[3], d2
        d2 = np.stack([rec.second[p] for p in want])
        d2.flags.writeable = False
        return rec.value, rec.first[3], d2

    return _node(source.spacetime, shape, 2, rule, TOL.fd_step, (source,))


def _exp_i_field(h: FieldFn, right) -> FieldFn:
    """The field x -> exp(i H(x)) @ right, for an N x n matrix right: a `_spectral_leaf`
    whose value and first derivatives have the bits of `unitary_exp` (for N = 2 its closed
    form) and `unitary_exp_frechet`; a point stack costs one Hermiticity check and eigh."""
    n = h.shape[0]

    def spectrum(x, hx):
        _require_hermitian(hx, "unitary_exp")
        lam, q = np.linalg.eigh(hermitian_part(hx))
        return lam, q, _exp_2x2(hx, 1.0) if n == 2 else _exp_in_eigenbasis(lam, q, 1.0)

    return _spectral_leaf(
        h, (n, right.shape[1]), lambda m, value: (None, np.asarray(m, dtype=complex)), spectrum,
        lambda lam: (_divided_differences(lam, 1.0), _second_divided_differences(lam, 1.0)),
        lambda m: m @ right)
