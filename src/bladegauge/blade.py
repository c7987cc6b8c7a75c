"""Frames, rotating blades, shape operators, and blade curvature.

A frame V(x) is an N x n matrix field with orthonormal columns; the rotating
blade R = 2 V V^dag - I is the gauge-invariant reflection encoding only the
column span.  The shape operator S_mu = -(i/2) R dR plays the role of
connection coefficients for the lifted covariant derivative, so it is a
`OneForm` like any gauge potential and its curvature a `TwoForm`; the lifted
covariant derivative is `gauge.covariant_field` with S as the connection.  The
blade curvature admits four algebraically equivalent expressions that are all
kept as independent code paths for cross-validation.  The gauge-fixed frames
are functions of the blade alone: the canonical frame is the polar factor of
P V0 and the direct rotation U1 = sqrt(R R0) that of I + R R0, where P is the
projector (R + I)/2 and R0 the reflection of a reference frame V0.

The seeded exp(iH) test fields state their first and second derivatives in
closed form, so the blade, its shape operator and its curvature are analytic
to first derivatives of S.  The complement and canonical frames have no closed
form; they are stencil leaves (`fields.stencil_field`), whose finite
differences come from one stacked call per point stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ChartError, ConsistencyError, DimensionMismatchError
from .fields import (FieldFn, OneForm, Spacetime, TwoForm, _any, _PointLRU, _worst_point,
                     constant, hstack, identity_field, stencil_field, two_form)
from .gauge import GaugeMap, covariant_field, field_strength, gauge_map, gauge_potential
from .linalg import (_divided_differences, _exp_2x2, _exp_in_eigenbasis, _require_hermitian,
                     _second_divided_differences, commutator, dagger, hermitian_part, max_abs,
                     max_abs_each, polar, random_hermitian)
# perfbench/selftest.py checks that its tracer rewraps this second binding
from .linalg import unitary_exp  # noqa: F401
from .tolerances import DEFAULT as TOL

__all__ = [
    "Frame", "RotatingBlade",
    "frame", "validate_frame", "extract_potential", "blade_from_frame",
    "shape_operator", "blade_curvature", "four_way", "check_four_way",
    "lifted_covariant_derivative",
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


def frame(spacetime, V: FieldFn) -> Frame:
    """The frame of an N x n matrix field V; `validate_frame` checks V^dag V = I."""
    if len(V.shape) != 2:
        raise DimensionMismatchError("a frame must be matrix valued")
    N, n = V.shape
    if n > N:
        raise DimensionMismatchError("frame needs n <= N")
    return Frame(spacetime, N, n, V)


def validate_frame(f: Frame, x):
    """Largest |V^dag V - I| at x, a point or a (..., d) stack.

    Raises a ConsistencyError naming the worst point beyond TOL.algebraic.
    """
    v = f.V(x)
    return _within(max_abs_each(dagger(v) @ v - np.eye(f.n)), x, TOL.algebraic,
                   "frame columns not orthonormal: error")


def _within(errs, x, tol, what):
    """The largest of the per-point errors errs; ConsistencyError naming its point beyond tol."""
    err = float(np.max(errs))
    if err > tol:
        _, point = _worst_point(errs, x)
        raise ConsistencyError(f"{what} {err:.3e} > {tol:.1e} at {point}")
    return err


def reference_frame(spacetime, N, n) -> Frame:
    """The constant frame (I_n, 0)^T."""
    v0 = np.zeros((N, n), dtype=complex)
    v0[:n, :n] = np.eye(n)
    return Frame(spacetime, N, n, constant(v0, spacetime))


def extract_potential(f: Frame) -> OneForm:
    """A_mu = -i V^dag dV.

    The result is Hermitian when the frame is genuinely orthonormal; the
    evaluation symmetrizes and raises a frame-inconsistency error when the
    anti-hermitian drift exceeds TOL.frame_consistency (broken orthonormality
    or a finite-difference step too coarse for the field).
    """
    comps = []
    for mu in range(f.spacetime.dim):
        raw = (-1j) * (f.V.dagger() @ f.V.partial(mu))

        def checked(x, raw=raw):
            m = np.asarray(raw.fn(x), dtype=complex)
            h = hermitian_part(m)
            if max_abs(m - h) > TOL.frame_consistency:
                drifts = max_abs_each(m - h)
                i, point = _worst_point(drifts, x)
                raise ConsistencyError(
                    f"extracted potential not Hermitian at {point} (drift {drifts[i]:.3e}); "
                    "frame orthonormality is broken or the FD step is too coarse")
            return h

        comps.append(replace(raw.hermitian_part(), fn=checked, deriv2=None))
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


def lifted_covariant_derivative(blade: RotatingBlade, psi: FieldFn, mu, x):
    """d_mu psi + i S_mu psi at x, a point or a (..., d) stack, for any C^N-valued field psi."""
    return covariant_field(shape_operator(blade), psi, mu)(x)


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
    discrepancy in the max-abs norm, over every point of a stack x).
    """
    vals, discs = _four_way_values(blade, x, mu, nu)
    return vals, float(np.max(discs))


def check_four_way(blade: RotatingBlade, x, mu, nu, tol=None):
    """Each point's four-way discrepancy at x; ConsistencyError naming the worst beyond tol."""
    tol = TOL.fd_nested() if tol is None else tol
    discs = _four_way_values(blade, x, mu, nu)[1]
    _within(discs, x, tol, "curvature expressions disagree by")
    return discs


def _four_way_values(blade: RotatingBlade, x, mu, nu):
    """The four expressions at x, and each point's largest pairwise discrepancy."""
    s = shape_operator(blade)
    smu, snu = s.at(x, mu), s.at(x, nu)
    # probe realization: apply -i [D_mu, D_nu] to the identity, all basis columns at once
    probe = identity_field(blade.spacetime, blade.N)
    dmu_dnu = covariant_field(s, covariant_field(s, probe, nu), mu)
    dnu_dmu = covariant_field(s, covariant_field(s, probe, mu), nu)
    probe_val = -1j * (dmu_dnu(x) - dnu_dmu(x))
    dr_mu, dr_nu = blade.R.d(x, mu), blade.R.d(x, nu)
    P = blade.projector
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


def blade_curvature(blade: RotatingBlade) -> TwoForm:
    """Curvature of the lifted covariant derivative, as -i [S_mu, S_nu].

    `check_four_way` cross-validates it against the three other expressions.
    """
    s = shape_operator(blade).components
    return two_form(blade.spacetime, lambda mu, nu: (-1j) * (s[mu] @ s[nu] - s[nu] @ s[mu]))


# ---------------------------------------------------------------------------
# orthogonal complement and shape gauge

def complement_frame(f: Frame, x):
    """Deterministic orthonormal basis of the complement of range V(x), x a point or a stack.

    Greedy pivoted Gram-Schmidt over the identity columns: each step picks
    the candidate with the largest residual norm (lowest index on ties) and
    orthogonalizes it against everything accepted so far.  The greedy choice
    keeps every accepted pivot well conditioned, so W stays smooth (and its
    finite-difference derivatives stay within budget) wherever the pivot
    selection does not switch; fixtures avoid the switching set.
    """
    return _complete_columns(np.asarray(f.V(x), dtype=complex))


def complement_field(f: Frame) -> FieldFn:
    """The complement as a stencil leaf: finite-difference derivatives from one stacked call."""
    return stencil_field(f.spacetime, (f.N, f.N - f.n), lambda x: complement_frame(f, x),
                         f.V.fd_step)


@dataclass(frozen=True)
class ShapeGaugeDecomposition:
    """S_mu seen as the U(N) gauge transform of A oplus C by U = (V, W)."""

    frame: Frame
    W: FieldFn
    C: OneForm
    G: TwoForm

    def reconstruction_residual(self, x, mu):
        """S_mu - [U (A oplus C) U^dag - i U dU^dag] at x, a point or a (..., d) stack."""
        f = self.frame
        u = hstack(f.V, self.W)
        a = extract_potential(f)
        blk = np.zeros(np.shape(x)[:-1] + (f.N, f.N), dtype=complex)
        blk[..., :f.n, :f.n] = a.at(x, mu)
        blk[..., f.n:, f.n:] = self.C.at(x, mu)
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
        g = self.G.at(x, mu, nu)
        blk = np.zeros(np.shape(x)[:-1] + (f.N, f.N), dtype=complex)
        blk[..., :f.n, :f.n] = fs.at(x, mu, nu)
        blk[..., f.n:, f.n:] = g
        w = self.W(x)
        uv = np.concatenate([f.V(x), w], axis=-1)
        gap = g - dagger(w) @ omega @ w
        return omega - uv @ blk @ dagger(uv), gap


def shape_gauge_decompose(f: Frame, w: FieldFn) -> ShapeGaugeDecomposition:
    """Complementary connection C_mu = -i W^dag dW and its curvature G.

    The decomposition's `reconstruction_residual` and `omega_block_residual`
    measure how well S_mu and the curvature blocks are reproduced.
    """
    comps = [(-1j) * (w.dagger() @ w.partial(mu)) for mu in range(f.spacetime.dim)]
    c = gauge_potential(f.spacetime, comps)
    return ShapeGaugeDecomposition(f, w, c, field_strength(c))


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


def canonical_frame_field(blade: RotatingBlade, v0) -> FieldFn:
    """Pointwise canonical frame as a stencil leaf (finite-difference derivatives)."""
    P = blade.projector
    return stencil_field(blade.spacetime, (blade.N, blade.n),
                         lambda x: canonical_frame(P(x), v0), blade.R.fd_step)


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

    def waves_at(func, x):
        # func(w_j . x + p_j) for every wave j at once, one factor per wave:
        # scalars for a lone point, (..., 1, 1) stacks otherwise
        s = func(np.vecdot(x[..., None, :], ws) + phases)
        return s if x.ndim == 1 else np.moveaxis(s, -1, 0)[..., None, None]

    def fn(x):
        return sum(m * s for m, s in zip(mats, waves_at(np.sin, x)))

    def deriv(x, mu):
        return sum(m * w[mu] * c for m, w, c in zip(mats, ws, waves_at(np.cos, x)))

    def deriv2(x, mu, nu):
        return sum(-m * w[mu] * w[nu] * s for m, w, s in zip(mats, ws, waves_at(np.sin, x)))

    return FieldFn(spacetime, (n, n), fn, deriv, deriv2)


def random_smooth_frame(spacetime, N, n, seed, amplitude=0.4, analytic=True) -> Frame:
    """Seeded frame V = exp(i H(x)) V0 with exact analytic first and second derivatives.

    The derivatives of the matrix exponential are evaluated in the eigenbasis
    (first and second divided differences), so frame identities hold to
    rounding accuracy.
    One stacked eigh per distinct point stack, kept in an LRU bounded by
    points that lives with the field; the arrays returned are read-only.
    analytic=False strips the derivatives to exercise finite-difference paths.
    """
    h = random_hermitian_field(spacetime, N, seed, amplitude)
    v0 = np.zeros((N, n), dtype=complex)
    v0[:n, :n] = np.eye(n)
    return Frame(spacetime, N, n, _exp_i_field(h, v0, analytic))


def random_gauge_map(spacetime, n, seed) -> GaugeMap:
    """Seeded smooth U(n)-valued field u(x) = exp(i h(x)).

    One stacked eigh per distinct point stack, kept in an LRU bounded by
    points that lives with the field; the arrays returned are read-only.
    """
    h = random_hermitian_field(spacetime, n, seed)
    return gauge_map(_exp_i_field(h, None, True), check=False)


class _ExpRecord:
    """What one point stack of an exp(iH) field needs: eigh of H, value, derivatives."""

    __slots__ = ("lam", "q", "value", "gamma", "gamma2", "tilde", "derivs", "derivs2")

    def __init__(self, lam, q, value):
        self.lam, self.q, self.value = lam, q, value
        self.gamma = None     # Daleckii-Krein matrices, made on the first derivative
        self.gamma2 = None    # second divided differences, made on the first deriv2
        self.tilde = {}       # mu -> Q^dag d_mu H Q
        self.derivs = {}      # mu -> d_mu value
        self.derivs2 = {}     # (mu, nu) -> d_mu d_nu value


def _exp_i_field(h: FieldFn, right, analytic) -> FieldFn:
    """The field x -> exp(i H(x)) @ right (no product when right is None).

    Each distinct point stack costs one H(x), one Hermiticity check and one
    stacked eigh H = Q diag(lam) Q^dag, which the derivatives use (for N = 2
    the value is the closed form of `unitary_exp`); the value, the divided
    differences and each derivative are made once and kept in a record in the
    field's point-bounded LRU (`fields._PointLRU`).  With H~_mu = Q^dag d_mu H Q,
    Gamma the first and f[.,.,.] the second divided differences of e^{i lam},
    d_mu e^{iH} = Q (Gamma o H~_mu) Q^dag, and

        d_mu d_nu e^{iH} = Q [Gamma o H~_mu,nu
                              + sum_k f[lam_i, lam_k, lam_j] (H~_mu,ik H~_nu,kj
                                                               + H~_nu,ik H~_mu,kj)] Q^dag

    (Higham & Relton, SIAM J. Matrix Anal. Appl. 35 (2014) 1019), with the
    k-sum as N elementwise passes.  The value and the first derivative take the
    arithmetic of `unitary_exp` and `unitary_exp_frechet`, so they are
    bit-identical to them, and every array handed out is read-only so that no
    caller can change what a later query returns.  analytic=False leaves the
    derivatives to finite differences.
    """
    lru = _PointLRU()

    def publish(m):
        out = m if right is None else m @ right
        out.flags.writeable = False
        return out

    def record(x):
        rec = lru.get(x)
        if rec is None:
            hx = np.asarray(h.fn(x), dtype=complex)
            _require_hermitian(hx, "unitary_exp")
            lam, q = np.linalg.eigh(hermitian_part(hx))
            value = _exp_2x2(hx, 1.0) if n == 2 else _exp_in_eigenbasis(lam, q, 1.0)
            rec = lru.put(x, _ExpRecord(lam, q, publish(value)), x.size // x.shape[-1])
        return rec

    def gamma(rec):
        if rec.gamma is None:
            rec.gamma = _divided_differences(rec.lam, 1.0)
        return rec.gamma

    def tilde(rec, x, mu):
        t = rec.tilde.get(mu)
        if t is None:
            e = np.asarray(h.deriv(x, mu), dtype=complex)
            t = rec.tilde[mu] = dagger(rec.q) @ e @ rec.q
        return t

    def fn(x):
        return record(x).value

    def deriv(x, mu):
        rec = record(x)
        d = rec.derivs.get(mu)
        if d is None:
            d = rec.derivs[mu] = publish(rec.q @ (gamma(rec) * tilde(rec, x, mu)) @ dagger(rec.q))
        return d

    def deriv2(x, mu, nu):
        rec = record(x)
        d = rec.derivs2.get((mu, nu))
        if d is None:
            if rec.gamma2 is None:
                rec.gamma2 = _second_divided_differences(rec.lam, 1.0)
            q, g2 = rec.q, rec.gamma2
            tm, tn = tilde(rec, x, mu), tilde(rec, x, nu)
            e2 = np.asarray(h.deriv2(x, mu, nu), dtype=complex)
            inner = gamma(rec) * (dagger(q) @ e2 @ q)
            for k in range(n):
                inner += g2[..., :, k, :] * (tm[..., :, k:k + 1] * tn[..., k:k + 1, :]
                                             + tn[..., :, k:k + 1] * tm[..., k:k + 1, :])
            d = rec.derivs2[(mu, nu)] = publish(q @ inner @ dagger(q))
        return d

    n = h.shape[0]
    shape = (n, n) if right is None else (n, right.shape[1])
    if not analytic:
        return FieldFn(h.spacetime, shape, fn)
    return FieldFn(h.spacetime, shape, fn, deriv, deriv2)
