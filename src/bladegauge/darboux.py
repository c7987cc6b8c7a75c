"""Frames for abelian potentials from user-supplied Darboux pairs.

Any U(1) potential can locally be written A = sum_k pi_k d phi_k with
independent functions {pi_k, phi_k}, k = 0..r, once the pi_k are scaled into
[-1, 1] on the neighbourhood of interest.  Stacking two-component blocks with
half-angle rho_k = arccos(pi_k) / 2 produces an N = 2(r+1) frame whose
extracted potential reproduces A.

The printed block phases alpha_k = -beta_k = phi_k would make the extracted
potential come out as A / (r+1), because the 1/sqrt(r+1) normalization squares
inside V^dag dV; the blocks here carry alpha_k = -beta_k = (r+1) phi_k, which
restores V^dag dV = i A exactly.  The residual contract test enforces this.

Pair functions come either as FieldFns or as expression strings (see
`expr_field`).  The grammar is a whitelisted subset of Python expressions:

    expr := NUMBER | "pi" | COORD | expr ("+" | "-" | "*" | "/") expr
          | "-" expr | FUNC "(" expr ")" | "(" expr ")"
    COORD := "x0" | "x1" | ... (one per spacetime axis)
    FUNC  := "sin" | "cos" | "arccos" | "sqrt"

NUMBER is a Python int or float literal, and precedence is Python's.  Each
node becomes the matching `fields` combinator, so expression derivatives
come from the same rules as every other field.
"""

from __future__ import annotations

import ast
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, RankError
from .fields import (FieldFn, Form, Spacetime, _any, _jet, _node, _worst_point, constant,
                     coordinate, cos_of, exp_i, form_rank, mapped, matrix_of, sin_of)
from .gauge import gauge_potential
from .linalg import max_abs

__all__ = [
    "DarbouxData", "darboux_data", "darboux_one_form", "darboux_potential",
    "darboux_frame", "verify_rank", "frame_residual_report",
    "expr_field",
]

NEAR_SINGULAR_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# expressions

# deepest syntax tree accepted; Python's own limit for nested parentheses
MAX_EXPR_DEPTH = 200

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}

_FUNCS = {
    "sin": sin_of,
    "cos": cos_of,
    "sqrt": lambda f: mapped(f, np.sqrt, lambda u: 0.5 / np.sqrt(u),
                             lambda u: -0.25 / (u * np.sqrt(u))),
    "arccos": lambda f: mapped(f, lambda u: np.arccos(np.clip(u, -1.0, 1.0)),
                               lambda u: -(1.0 / np.sqrt(1.0 - u * u)),
                               lambda u: -u / ((1.0 - u * u) * np.sqrt(1.0 - u * u))),
}


def expr_field(src, spacetime: Spacetime) -> FieldFn:
    """Scalar field from an expression string (see the module docstring grammar).

    The string is read by `ast.parse` and never evaluated as Python.
    Anything outside the grammar, or deeper than MAX_EXPR_DEPTH, raises
    ParameterError.
    """
    try:
        tree = ast.parse(src.strip(), mode="eval").body
    except (SyntaxError, ValueError, RecursionError) as exc:
        shown = src if len(src) <= 80 else src[:77] + "..."
        raise ParameterError(f"cannot parse expression {shown!r}: {exc}") from None
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_EXPR_DEPTH:
            raise ParameterError(f"expression nests deeper than {MAX_EXPR_DEPTH} levels")
        stack.extend((child, depth + 1) for child in ast.iter_child_nodes(node)
                     if isinstance(child, ast.expr))
    return _expr_node(tree, spacetime)


def _expr_node(node, spacetime):
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_expr_node(node.left, spacetime),
                                      _expr_node(node.right, spacetime))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_expr_node(node.operand, spacetime)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return constant(float(node.value), spacetime)
    if isinstance(node, ast.Name):
        name = node.id
        if name == "pi":
            return constant(np.pi, spacetime)
        if name.startswith("x") and name[1:].isdecimal():
            axis = int(name[1:])
            if axis >= spacetime.dim:
                raise ParameterError(f"coordinate {name} outside dimension {spacetime.dim}")
            return coordinate(spacetime, axis)
        raise ParameterError(f"unknown name {name!r}")
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
        return _FUNCS[node.func.id](_expr_node(node.args[0], spacetime))
    raise ParameterError(f"unsupported expression {ast.unparse(node)!r}; the grammar has "
                         f"numbers, pi, x0.., + - * /, unary -, and {', '.join(_FUNCS)}(.)")


# ---------------------------------------------------------------------------
# darboux data and constructions

@dataclass(frozen=True)
class DarbouxData:
    """Pairs (pi_k, phi_k) with |pi_k| <= 1 on the declared domain box."""

    spacetime: Spacetime
    pairs: tuple  # of (FieldFn, FieldFn)
    lo: tuple
    hi: tuple

    @property
    def r(self):
        return len(self.pairs) - 1

    @property
    def N(self):
        return 2 * (self.r + 1)

    def sample_points(self):
        """A (24, d) stack of points in the domain box, drawn with seed 0."""
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        rng = np.random.default_rng(0)
        return lo + rng.uniform(size=(24, self.spacetime.dim)) * (hi - lo)


def darboux_data(spacetime, pairs, lo, hi, validate=True) -> DarbouxData:
    """Build DarbouxData from (pi, phi) pairs of FieldFns or expression strings.

    Validation samples the domain box: finite |pi_k| <= 1, a finite phi_k and
    finite gradients of both are enforced (DomainError naming the pair and the
    point), and a warning is emitted if the 2(r+1) gradients at the first
    sample fail to reach full rank (degenerate coordinates).
    """
    conv = [tuple(expr_field(g, spacetime) if isinstance(g, str) else g for g in (p, f))
            for p, f in pairs]
    data = DarbouxData(spacetime, tuple(conv), tuple(lo), tuple(hi))
    if validate and conv:
        pts = data.sample_points()
        grads = []
        for k, (p, f) in enumerate(conv):
            _checked_pi(p, k)(pts)
            with np.errstate(all="ignore"):  # so that a NaN reaches the error, not a numpy warning
                _require_finite(f(pts), pts, f"phi_{k}")
                for name, g in ((f"pi_{k}", p), (f"phi_{k}", f)):
                    grad = np.stack(_jet(g, pts, {}, ())[1], axis=-1)  # every d_mu, one query
                    _require_finite(grad, pts, f"the gradient of {name}")
                    grads.append(grad[0])
        rank = np.linalg.matrix_rank(np.asarray(grads, dtype=float), tol=1e-8)
        if rank < min(len(grads), spacetime.dim):
            warnings.warn(f"darboux functions look dependent (gradient rank {rank})",
                          stacklevel=2)
    return data


def darboux_one_form(data: DarbouxData) -> Form:
    """A = sum_k pi_k d phi_k as a scalar one-form."""
    def entry(mu):
        parts = [p * f.partial(mu) for p, f in data.pairs]
        return sum(parts[1:], parts[0]) if parts else constant(0.0, data.spacetime)

    return Form(data.spacetime, 1, entry)


def darboux_potential(data: DarbouxData) -> Form:
    """The same one-form packaged as a rank-1 gauge potential."""
    comps = [matrix_of([[c]]) for c in darboux_one_form(data).values()]
    return gauge_potential(data.spacetime, comps)


def _checked_pi(pi_field: FieldFn, k) -> FieldFn:
    """pi_k, finite with |pi_k| <= 1 at every evaluation or a DomainError naming the point."""
    def rule(x, memo, want):
        with np.errstate(all="ignore"):  # so that a NaN reaches the error, not a numpy warning
            u, d1, d2 = _jet(pi_field, x, memo, want)
        bad = np.where(np.isfinite(u), abs(u), np.inf)
        if _any(bad > 1.0 + 1e-12):
            i, point = _worst_point(bad, x)
            value = np.asarray(u)[i]
            raise DomainError(f"|pi_{k}| > 1 at {point} (value {value:.6f})" if np.isfinite(value)
                              else f"pi_{k} is not finite at {point} (value {value})")
        return u, d1, d2

    return _node(pi_field.spacetime, (), pi_field.order, rule, pi_field.fd_step, (pi_field,))


def _require_finite(values, x, what):
    """DomainError naming the first point of the (P, d) stack x where values are not finite."""
    bad = ~np.isfinite(np.reshape(values, (len(x), -1))).all(axis=1)
    if bad.any():
        _, point = _worst_point(bad, x)
        raise DomainError(f"{what} is not finite at {point}")


def _half_arccos_trig(pi_field: FieldFn, which):
    """cos(rho_k) or sin(rho_k) for rho_k = arccos(pi_k) / 2, pi_k a `_checked_pi` field,
    from cos^2 rho = (1 + pi)/2, sin^2 rho = (1 - pi)/2 on the principal branch.  The
    derivative blows up as |pi_k| -> 1; the caller flags near-singular points."""
    sign = 1.0 if which == "cos" else -1.0

    def val(u):
        t = (1.0 + sign * u) / 2.0
        return np.sqrt(0.5 * (t + abs(t)))  # max(t, 0), exactly, for scalars and stacks

    def d2val(u):
        # v * v * v, not v ** 3: numpy's array power and its scalar power
        # round differently, and stacked values must equal single-point ones
        v = val(u)
        return -1.0 / (16.0 * (v * v * v))

    return mapped(pi_field, val, lambda u: sign / (4.0 * val(u)), d2val)


def darboux_frame(data: DarbouxData) -> FieldFn:
    """Stacked-block frame with N = 2(r+1) satisfying V^dag dV = i A."""
    scale = 1.0 / np.sqrt(len(data.pairs)) if data.pairs else 1.0
    mult = float(len(data.pairs))
    rows = []
    for k, (p, f) in enumerate(data.pairs):
        alpha = mult * f
        # one checked pi_k under both, so that a query evaluates it once
        pi = _checked_pi(p, k)
        cosr, sinr = _half_arccos_trig(pi, "cos"), _half_arccos_trig(pi, "sin")
        rows.append([scale * (exp_i(alpha) * cosr)])
        rows.append([scale * (exp_i((-1.0) * alpha) * sinr)])
    if not rows:
        raise ParameterError("darboux frame needs at least one pair")
    return matrix_of(rows)


def verify_rank(data: DarbouxData):
    """Measure the Darboux rank of A at the data's sample points; compare with len(pairs) - 1.

    Returns the measured rank; a rank-mismatch warning (not an error) is
    emitted when it differs from the pair count, which usually means the
    data are degenerate at the chosen samples.
    """
    d = data.spacetime.dim
    if data.pairs and data.r >= d / 2.0:
        raise RankError(f"rank {data.r} not admissible in dimension {d}")
    measured = form_rank(darboux_one_form(data), data.sample_points())
    if data.pairs and measured != data.r:
        warnings.warn(
            f"measured rank {measured} != len(pairs) - 1 = {data.r}; "
            "the pair data may be degenerate at the sampled points",
            stacklevel=2)
    return measured


def frame_residual_report(data: DarbouxData, points=None):
    """Max |extracted A - declared A| over points, with near-singular flags.

    Points where some |pi_k| exceeds 1 - 1e-9 are reported separately: there
    the arccos derivative degenerates and residuals lose accuracy.
    """
    from .blade import extract_potential
    pts = np.asarray(data.sample_points() if points is None else points, dtype=float)
    a_frame = extract_potential(darboux_frame(data))
    a_decl = darboux_potential(data)
    near = np.zeros(len(pts), dtype=bool)
    for p, _ in data.pairs:
        near |= abs(p(pts)) > 1.0 - NEAR_SINGULAR_MARGIN
    x = pts[~near]
    worst = max(max_abs(a_frame.at(x, mu)[..., 0, 0] - a_decl.at(x, mu)[..., 0, 0])
                for mu in range(data.spacetime.dim))
    return {"N": data.N, "max_residual": worst,
            "near_singular_points": pts[near].tolist(),
            "points_checked": len(x)}
