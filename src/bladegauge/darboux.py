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

Pair functions come either as FieldFns or as strings over a small expression
grammar (see `parse_expr`):

    expr  := term (("+" | "-") term)*
    term  := unary (("*" | "/") unary)*
    unary := "-" unary | atom
    atom  := NUMBER | "pi" | COORD | FUNC "(" expr ")" | "(" expr ")"
    COORD := "x0" | "x1" | ... (one per spacetime axis)
    FUNC  := "sin" | "cos" | "arccos" | "sqrt"

Parsed expressions carry symbolic first and second derivatives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .blade import Frame, frame
from .errors import DomainError, ParameterError, RankError
from .fields import (FieldFn, OneForm, Spacetime, constant, exp_i, form_rank,
                     matrix_of)
from .gauge import gauge_potential

__all__ = [
    "DarbouxData", "darboux_data", "darboux_one_form", "darboux_potential",
    "darboux_frame", "verify_rank", "frame_residual_report",
    "parse_expr", "expr_field",
]

NEAR_SINGULAR_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# expression grammar

class _Node:
    def eval(self, x):
        raise NotImplementedError

    def diff(self, mu):
        raise NotImplementedError


class _Num(_Node):
    def __init__(self, v):
        self.v = float(v)

    def eval(self, x):
        return self.v

    def diff(self, mu):
        return _Num(0.0)


class _Coord(_Node):
    def __init__(self, axis):
        self.axis = axis

    def eval(self, x):
        return float(x[self.axis])

    def diff(self, mu):
        return _Num(1.0 if mu == self.axis else 0.0)


class _Bin(_Node):
    def __init__(self, op, a, b):
        self.op, self.a, self.b = op, a, b

    def eval(self, x):
        a, b = self.a.eval(x), self.b.eval(x)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def diff(self, mu):
        da, db = self.a.diff(mu), self.b.diff(mu)
        if self.op in "+-":
            return _Bin(self.op, da, db)
        if self.op == "*":
            return _Bin("+", _Bin("*", da, self.b), _Bin("*", self.a, db))
        # quotient rule
        num = _Bin("-", _Bin("*", da, self.b), _Bin("*", self.a, db))
        return _Bin("/", num, _Bin("*", self.b, self.b))


class _Neg(_Node):
    def __init__(self, a):
        self.a = a

    def eval(self, x):
        return -self.a.eval(x)

    def diff(self, mu):
        return _Neg(self.a.diff(mu))


class _Fun(_Node):
    def __init__(self, name, a):
        self.name, self.a = name, a

    def eval(self, x):
        u = self.a.eval(x)
        if self.name == "sin":
            return np.sin(u)
        if self.name == "cos":
            return np.cos(u)
        if self.name == "sqrt":
            return np.sqrt(u)
        return np.arccos(np.clip(u, -1.0, 1.0))

    def diff(self, mu):
        du = self.a.diff(mu)
        if self.name == "sin":
            outer = _Fun("cos", self.a)
        elif self.name == "cos":
            outer = _Neg(_Fun("sin", self.a))
        elif self.name == "sqrt":
            outer = _Bin("/", _Num(0.5), _Fun("sqrt", self.a))
        else:  # arccos
            one_minus = _Bin("-", _Num(1.0), _Bin("*", self.a, self.a))
            outer = _Neg(_Bin("/", _Num(1.0), _Fun("sqrt", one_minus)))
        return _Bin("*", outer, du)


_FUNCS = ("sin", "cos", "arccos", "sqrt")


def _tokenize(src):
    tokens = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/()":
            tokens.append(c)
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < len(src) and (src[j].isdigit() or src[j] in ".eE"
                                    or (src[j] in "+-" and src[j - 1] in "eE")):
                j += 1
            tokens.append(("num", src[i:j]))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j]))
            i = j
            continue
        raise ParameterError(f"unexpected character {c!r} in expression")
    return tokens


def parse_expr(src, dim=4):
    """Parse an expression string into an AST (see module docstring grammar)."""
    tokens = _tokenize(src)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    def expect(t):
        got = take()
        if got != t:
            raise ParameterError(f"expected {t!r}, got {got!r}")

    def atom():
        t = take()
        if t is None:
            raise ParameterError("unexpected end of expression")
        if t == "(":
            node = expr()
            expect(")")
            return node
        if isinstance(t, tuple) and t[0] == "num":
            return _Num(float(t[1]))
        if isinstance(t, tuple) and t[0] == "name":
            name = t[1]
            if name == "pi":
                return _Num(np.pi)
            if name in _FUNCS:
                expect("(")
                node = expr()
                expect(")")
                return _Fun(name, node)
            if name.startswith("x") and name[1:].isdigit():
                axis = int(name[1:])
                if axis >= dim:
                    raise ParameterError(f"coordinate {name} outside dimension {dim}")
                return _Coord(axis)
            raise ParameterError(f"unknown name {name!r}")
        raise ParameterError(f"unexpected token {t!r}")

    def unary():
        if peek() == "-":
            take()
            return _Neg(unary())
        return atom()

    def term():
        node = unary()
        while peek() in ("*", "/"):
            op = take()
            node = _Bin(op, node, unary())
        return node

    def expr():
        node = term()
        while peek() in ("+", "-"):
            op = take()
            node = _Bin(op, node, term())
        return node

    root = expr()
    if pos[0] != len(tokens):
        raise ParameterError(f"trailing tokens from {tokens[pos[0]]!r}")
    return root


def expr_field(src, spacetime: Spacetime) -> FieldFn:
    """Scalar field from an expression string, with symbolic d and d2."""
    root = parse_expr(src, spacetime.dim)
    d1 = [root.diff(mu) for mu in range(spacetime.dim)]
    d2 = [[d1[mu].diff(nu) for nu in range(spacetime.dim)]
          for mu in range(spacetime.dim)]
    return FieldFn(spacetime, (),
                   lambda x: float(root.eval(x)),
                   lambda x, mu: float(d1[mu].eval(x)),
                   lambda x, mu, nu: float(d2[mu][nu].eval(x)))


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

    def sample_points(self, count=24, seed=0):
        rng = np.random.default_rng(seed)
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        return [lo + rng.uniform(size=self.spacetime.dim) * (hi - lo)
                for _ in range(count)]


def darboux_data(spacetime, pairs, lo, hi, validate=True,
                 n_samples=24, seed=0) -> DarbouxData:
    """Build DarbouxData from (pi, phi) pairs of FieldFns or expression strings.

    Validation samples the domain box: |pi_k| <= 1 is enforced, and a warning
    is emitted if the 2(r+1) gradients fail to reach full rank (degenerate
    coordinates).
    """
    conv = []
    for k, (p, f) in enumerate(pairs):
        p = expr_field(p, spacetime) if isinstance(p, str) else p
        f = expr_field(f, spacetime) if isinstance(f, str) else f
        conv.append((p, f))
    data = DarbouxData(spacetime, tuple(conv), tuple(lo), tuple(hi))
    if validate and conv:
        pts = data.sample_points(n_samples, seed)
        for k, (p, _) in enumerate(conv):
            for x in pts:
                if abs(p(x)) > 1.0 + 1e-12:
                    raise DomainError(
                        f"|pi_{k}| > 1 at {np.round(x, 6).tolist()} (value {p(x):.6f})")
        grads = []
        x0 = pts[0]
        for p, f in conv:
            grads.append([p.d(x0, mu) for mu in range(spacetime.dim)])
            grads.append([f.d(x0, mu) for mu in range(spacetime.dim)])
        rank = np.linalg.matrix_rank(np.asarray(grads, dtype=float), tol=1e-8)
        if rank < min(len(grads), spacetime.dim):
            warnings.warn(f"darboux functions look dependent (gradient rank {rank})",
                          stacklevel=2)
    return data


def darboux_one_form(data: DarbouxData) -> OneForm:
    """A = sum_k pi_k d phi_k as a scalar one-form."""
    d = data.spacetime.dim
    comps = []
    for mu in range(d):
        parts = [p * f.partial(mu) for p, f in data.pairs]
        if not parts:
            comps.append(constant(0.0, data.spacetime))
            continue
        total = parts[0]
        for extra in parts[1:]:
            total = total + extra
        comps.append(total)
    return OneForm(data.spacetime, tuple(comps))


def darboux_potential(data: DarbouxData) -> OneForm:
    """The same one-form packaged as a rank-1 gauge potential."""
    a = darboux_one_form(data)
    comps = [matrix_of([[c]]) for c in a.components]
    return gauge_potential(data.spacetime, comps)


def _half_arccos_trig(pi_field: FieldFn, k, which):
    """cos(rho_k) or sin(rho_k) for rho_k = arccos(pi_k) / 2.

    Uses cos^2 rho = (1 + pi)/2, sin^2 rho = (1 - pi)/2 on the principal
    branch; evaluation raises DomainError (naming the pair and point) when
    |pi_k| > 1.  The derivative blows up as |pi_k| -> 1; near-singular points
    are the caller's business to flag.
    """
    sign = 1.0 if which == "cos" else -1.0

    def val(u):
        return np.sqrt(max(0.0, (1.0 + sign * u) / 2.0))

    def fn(x):
        u = pi_field(x)
        if abs(u) > 1.0 + 1e-12:
            raise DomainError(f"|pi_{k}| > 1 at {np.round(x, 6).tolist()} (value {u:.6f})")
        return val(u)

    deriv = None
    if pi_field.deriv is not None:
        def deriv(x, mu):
            u = pi_field(x)
            w = val(u)
            return sign * pi_field.d(x, mu) / (4.0 * w)

    deriv2 = None
    if pi_field.deriv is not None and pi_field.deriv2 is not None:
        def deriv2(x, mu, nu):
            u = pi_field(x)
            w = val(u)
            wp = sign / (4.0 * w)
            wpp = -1.0 / (16.0 * w ** 3)
            return (wp * pi_field.d2(x, mu, nu)
                    + wpp * pi_field.d(x, mu) * pi_field.d(x, nu))

    return FieldFn(pi_field.spacetime, (), fn, deriv, deriv2, pi_field.fd_step)


def darboux_frame(data: DarbouxData) -> Frame:
    """Stacked-block frame with N = 2(r+1) satisfying V^dag dV = i A."""
    scale = 1.0 / np.sqrt(len(data.pairs)) if data.pairs else 1.0
    mult = float(len(data.pairs))
    rows = []
    for k, (p, f) in enumerate(data.pairs):
        alpha = mult * f
        cosr = _half_arccos_trig(p, k, "cos")
        sinr = _half_arccos_trig(p, k, "sin")
        rows.append([scale * (exp_i(alpha) * cosr)])
        rows.append([scale * (exp_i((-1.0) * alpha) * sinr)])
    if not rows:
        raise ParameterError("darboux frame needs at least one pair")
    return frame(data.spacetime, matrix_of(rows))


def verify_rank(data: DarbouxData, sample_points=None, tol=1e-9):
    """Measure the Darboux rank of A and compare with len(pairs) - 1.

    Returns the measured rank; a rank-mismatch warning (not an error) is
    emitted when it differs from the pair count, which usually means the
    data are degenerate at the chosen samples.
    """
    d = data.spacetime.dim
    if data.pairs and data.r >= d / 2.0:
        raise RankError(f"rank {data.r} not admissible in dimension {d}")
    pts = data.sample_points() if sample_points is None else sample_points
    measured = form_rank(darboux_one_form(data), pts, tol)
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
    pts = data.sample_points() if points is None else points
    v = darboux_frame(data)
    a_frame = extract_potential(v)
    a_decl = darboux_potential(data)
    worst = 0.0
    near_singular = []
    for x in pts:
        if any(abs(p(x)) > 1.0 - NEAR_SINGULAR_MARGIN for p, _ in data.pairs):
            near_singular.append([float(c) for c in x])
            continue
        for mu in range(data.spacetime.dim):
            worst = max(worst, abs(complex(a_frame.at(x, mu)[0, 0])
                                   - complex(a_decl.at(x, mu)[0, 0])))
    return {"N": data.N, "max_residual": worst,
            "near_singular_points": near_singular,
            "points_checked": len(pts) - len(near_singular)}
