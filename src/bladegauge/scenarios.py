"""Scenario configuration: one registry of named scenarios, and JSON loading.

`SCENARIOS` maps each config name to its chart, the params it reads (with
their defaults), a frame builder, a potential builder or both, and the
scenario's own `verify` checks.  A scenario with only a frame gives the
potential A = -i V^dag dV of that frame.  `EQUATIONS` maps each residual
equation name to the sweep that evaluates it on a config, which carries the
index handling its reports state; every sweep reads the config's frame,
except `ym` on a tabulated config, whose table is a potential.  A config
names a scenario plus params, or supplies samples tabulated on a grid.
`validate_config` checks a config against the registry: `PARAM_TYPES` gives
the type of each param and `CONFIG_KEYS` that of each top-level key.
"""

from __future__ import annotations

import itertools
import numbers
import reprlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import darboux as dx
from . import em
from .blade import extract_potential, frame, random_smooth_frame
from .dynamics import (frame_ym_residual, modified_eom_residual, shape_gauge_ym_residual,
                       sigma_eom_residual, ym_residual)
from .errors import ChartError, ConfigError, ParameterError
from .fields import (FieldFn, Form, MINKOWSKI4, SPHERICAL3, Spacetime, _any, _worst_point,
                     constant, form_values, linear, matrix_of, sphere_flux, wedge)
from .gauge import field_strength, gauge_potential, pure_gauge_potential
from .linalg import dagger, max_abs, polar
from .tolerances import DEFAULT as TOL
__all__ = [
    "Scenario", "SCENARIOS", "EQUATIONS", "PARAM_TYPES", "CONFIG_KEYS", "validate_config",
    "resolve_spacetime", "scenario_params", "load_potential", "load_frame", "load_darboux",
    "tabulated_field", "constant_f_potential",
]


@dataclass(frozen=True)
class Scenario:
    """One config name: its chart, its params (name -> default), its builders, its checks.

    A builder takes (params, spacetime) with every param filled in.  Without
    a potential builder the potential is A = -i V^dag dV of the frame.  `checks`
    takes (params, spacetime, tol) and gives the scenario's own `verify` rows,
    each (name, value, threshold[, expect_pass]), and the report's extra keys.
    """

    chart: str                # "cartesian" (metric from `signature`) or "spherical"
    params: dict
    frame: Callable
    potential: Callable | None = None
    checks: Callable = lambda params, spacetime, tol: ([], {})


def constant_f_potential(spacetime: Spacetime, b=1.0) -> Form:
    """A = B x^1 dx^2: a constant abelian field strength F_12 = B."""
    zero = constant(np.zeros((1, 1), dtype=complex), spacetime)
    x1 = linear(spacetime, np.eye(spacetime.dim)[1])
    return gauge_potential(spacetime, [matrix_of([[float(b) * x1]]) if mu == 2 else zero
                                       for mu in range(spacetime.dim)])


def _constant_f_frame(p, spacetime) -> FieldFn:
    """The frame of the single Darboux pair (B x^1, x^2), whose A is B x^1 dx^2."""
    e = np.eye(spacetime.dim)
    return dx.darboux_frame(dx.darboux_data(
        spacetime, [(linear(spacetime, float(p["B"]) * e[1]), linear(spacetime, e[2]))],
        *_default_box(spacetime)))


def _pure_gauge_map(p, spacetime):
    return random_smooth_frame(spacetime, p["rank"], p["rank"], p["seed"])


def _pure_gauge_frame(p, spacetime) -> FieldFn:
    """V = V0 u^dag, V0 the first `rank` columns of I_ambient: A = -i u du^dag."""
    v0 = constant(np.eye(p["ambient"], p["rank"], dtype=complex), spacetime)
    return frame(v0 @ _pure_gauge_map(p, spacetime).dagger())


def load_darboux(params, spacetime=MINKOWSKI4) -> dx.DarbouxData:
    """Darboux data from scenario params: the (pi, phi) pairs on the domain box.

    Unset params take the registry defaults: the pair (0.5 sin x0, x1) and
    the box [-0.8, 0.8] on every axis.
    """
    p = {**SCENARIOS["darboux"].params, **params}
    lo, hi = (p["domain"]["lo"], p["domain"]["hi"]) if p["domain"] else _default_box(spacetime)
    return dx.darboux_data(spacetime, [(q["pi"], q["phi"]) for q in p["pairs"]], lo, hi)


def _default_box(spacetime):
    return [-0.8] * spacetime.dim, [0.8] * spacetime.dim


# ---------------------------------------------------------------------------
# each scenario's own verify checks: (params, spacetime, tol) -> (rows, report extras)

def _planewave_checks(params, st, tol):
    k = np.asarray(params["k"], dtype=float)
    n = np.asarray(params["n"], dtype=float)
    p = em.plane_wave_params(st, k, n)
    a = em.plane_wave_potential(st, k, n)
    fs = em.em_faraday(p)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (6, st.dim))
    veq = max(max_abs(em.em_potential_residual(p, a, mu, pts)) for mu in range(st.dim))
    # F wedge F, the 4-form obstruction to decomposability (none below dimension 4)
    vals = form_values(fs, pts)
    ff = max((max_abs(c) for c in wedge(vals, vals).values()), default=0.0)
    cond = abs(em.plane_wave_mod_condition(st, k, n))
    modified = max_abs(modified_eom_residual(em.em_frame(p), pts[:3]))
    rows = [
        ("planewave_frame_equation_residual", veq, tol.fd()),
        ("planewave_faraday_decomposable", ff, 1e-10),
        ("planewave_modified_eom_residual", modified, tol.fd_nested(), cond <= 1e-12),
    ]
    if abs(st.dot(k, k)) <= 1e-12 and abs(st.dot(k, n)) <= 1e-12:
        ym = max(max_abs(ym_residual(a, nu, pts[:3])) for nu in range(st.dim))
        rows.append(("planewave_maxwell_residual", ym, tol.fd_nested()))
    return rows, {}


def _monopole_checks(params, st, tol):
    g = float(params["g"])
    quantized = em.quantization_satisfied(g)
    rep = em.monopole_blade_glue(g)
    flux = sphere_flux(em.monopole_field_strength(g))
    flux_err = abs(flux - 4.0 * np.pi * g) / max(1.0, abs(4.0 * np.pi * g))
    # points (1, theta, phi) off the poles: five per patch, then four for C
    angles = np.random.default_rng(7).uniform((0.3, 0.0), (np.pi - 0.3, 2 * np.pi), (14, 2))
    pts = np.insert(angles, 0, 1.0, axis=1)
    veq = max(max_abs(em.em_potential_residual(em.monopole_params(g, patch),
                                               em.monopole_potential(g, patch), mu, x))
              for patch, x in (("plus", pts[:5]), ("minus", pts[5:10])) for mu in range(3))
    # complementary connection on the plus patch: C = -A
    wfield = em.em_complement(em.monopole_params(g, "plus"))
    a = em.monopole_potential(g, "plus")
    x = pts[10:]
    comp = max(max_abs((-1j * (dagger(wfield(x)) @ wfield.d(x, mu)))[..., 0, 0]
                       + a.at(x, mu)[..., 0, 0]) for mu in range(3))
    rows = [
        ("monopole_frame_equation_residual", veq, tol.fd()),
        ("monopole_flux_matches_4pi_g", flux_err, tol.flux_rel),
        ("monopole_patch_gluing", rep.max_patch_mismatch, tol.gluing),
        ("monopole_single_valuedness", rep.max_winding_mismatch, tol.gluing, quantized),
        ("monopole_complementary_connection", comp, tol.fd()),
    ]
    return rows, {"quantization_satisfied": quantized, "single_valued": rep.single_valued,
                  "flux": flux}


def _darboux_checks(params, st, tol):
    data = load_darboux(params, st)
    return [
        ("darboux_frame_equation_residual", dx.frame_residual_report(data)["max_residual"],
         tol.fd()),
        ("darboux_rank_matches_pairs", abs(dx.verify_rank(data) - data.r), 0.5),
    ], {}


def _pure_gauge_checks(params, st, tol):
    fs = field_strength(load_potential("pure_gauge", st, **params))
    x = np.random.default_rng(11).uniform(-0.5, 0.5, (4, st.dim))
    worst = max(max_abs(fs.at(x, mu, nu)) for mu, nu in itertools.combinations(range(st.dim), 2))
    return [("pure_gauge_flatness", worst, tol.fd())], {}


SCENARIOS = {
    "planewave": Scenario(
        "cartesian", {"k": (1, 0, 0, 1), "n": (0, 1, 0, 0)},
        frame=lambda p, st: em.em_frame(em.plane_wave_params(st, p["k"], p["n"])),
        potential=lambda p, st: em.plane_wave_potential(st, p["k"], p["n"]),
        checks=_planewave_checks),
    "monopole": Scenario(
        "spherical", {"g": 0.5, "patch": "plus"},
        frame=lambda p, st: em.em_frame(em.monopole_params(p["g"], p["patch"])),
        potential=lambda p, st: em.monopole_potential(p["g"], p["patch"]),
        checks=_monopole_checks),
    "pure_gauge": Scenario(
        "cartesian", {"ambient": 4, "rank": 2, "seed": 0}, frame=_pure_gauge_frame,
        potential=lambda p, st: pure_gauge_potential(_pure_gauge_map(p, st)),
        checks=_pure_gauge_checks),
    "constant_F": Scenario(
        "cartesian", {"B": 1.0}, frame=_constant_f_frame,
        potential=lambda p, st: constant_f_potential(st, p["B"])),
    "random_smooth": Scenario(
        "cartesian", {"ambient": 4, "rank": 2, "seed": 0},
        frame=lambda p, st: random_smooth_frame(st, p["ambient"], p["rank"], p["seed"])),
    "darboux": Scenario(
        "cartesian", {"pairs": ({"pi": "0.5*sin(x0)", "phi": "x1"},), "domain": None},
        frame=lambda p, st: dx.darboux_frame(load_darboux(p, st)), checks=_darboux_checks),
}


# ---------------------------------------------------------------------------
# config checks: each takes (value, path) and yields a (path, message) per fault

def _scalar(test, what):
    def check(value, path):
        if not test(value):
            yield path, f"{reprlib.repr(value)} is not {what}"
    return check


def _array(item=None, min_items=0, max_items=None):
    """A list of min_items to max_items entries, each passing `item` when given."""
    def check(value, path):
        if not isinstance(value, list):
            yield path, f"{reprlib.repr(value)} is not an array"
            return
        if not min_items <= len(value) <= (max_items or len(value)):
            yield path, f"{reprlib.repr(value)} needs {min_items} to {max_items or 'any'} items"
        for i, entry in enumerate(value if item else ()):
            yield from item(entry, path + [i])
    return check


def _object(properties, required=()):
    """A dict with the `required` keys, others from `properties`, each passing its check."""
    def check(value, path):
        if not isinstance(value, dict):
            yield path, f"{reprlib.repr(value)} is not an object"
            return
        yield from ((path, f"{key!r} is required") for key in required if key not in value)
        for key, entry in value.items():
            if key not in properties:
                yield path, f"{key!r} was unexpected; the keys are {list(properties)}"
            else:
                yield from properties[key](entry, path + [key])
    return check


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value):  # a JSON integer: never a float such as 2.0, nor a bool
    return isinstance(value, int) and not isinstance(value, bool)


_NUMBER = _scalar(_is_number, "a number")
_STRING = _scalar(lambda v: isinstance(v, str), "a string")
_VECTOR = _array(_NUMBER, min_items=1, max_items=8)
_SEED = _scalar(lambda v: _is_int(v) and v >= 0, "an integer >= 0")
_SIZE = _scalar(lambda v: _is_int(v) and v >= 1, "an integer >= 1")

# the type of each param a scenario may read; `SCENARIOS` gives which ones it reads
PARAM_TYPES = {
    "k": _VECTOR, "n": _VECTOR, "g": _NUMBER, "B": _NUMBER,
    "patch": _scalar(lambda v: v in ("plus", "minus"), "'plus' or 'minus'"),
    "ambient": _SIZE, "rank": _SIZE, "seed": _SEED,
    "pairs": _array(_object({"pi": _STRING, "phi": _STRING}, required=("pi", "phi")),
                    min_items=1),
    "domain": _object({"lo": _array(_NUMBER), "hi": _array(_NUMBER)}, required=("lo", "hi")),
}

# the type of each top-level key besides `scenario` and `params`
CONFIG_KEYS = {
    "fd_step": _scalar(lambda v: _is_number(v) and v > 0, "a number > 0"),
    "tolerances": _object({"analytic": _NUMBER, "flux_rel": _NUMBER, "gluing": _NUMBER}),
    "seed": _SEED,
    "signature": _array(_scalar(lambda v: _is_int(v) and v in (1, -1), "the integer 1 or -1"),
                        min_items=2),
    "tabulated": _object({"axes": _array(_array(_NUMBER, min_items=2), min_items=1),
                          "values": _array()}, required=("axes", "values")),
}

_CONFIG = _object({"scenario": _scalar(lambda v: isinstance(v, str) and v in SCENARIOS,
                                       f"one of {list(SCENARIOS)}"),
                   "params": _object(PARAM_TYPES), **CONFIG_KEYS}, required=("scenario",))


def _entry(name) -> Scenario:
    if name not in SCENARIOS:
        raise ParameterError(f"unknown scenario {name!r}; choices: {list(SCENARIOS)}")
    return SCENARIOS[name]


def validate_config(cfg):
    """Validate a scenario config dict; raises ConfigError with the path of the fault.

    It names the shallowest fault (of siblings, the last path in sort order).  Past the
    types, params must be ones the scenario reads, rank may not exceed ambient, only a
    Cartesian chart takes a signature, and a darboux domain bounds every axis.  Unless
    a table gives the fields, constant_F needs the axes x^1 and x^2, and planewave's k
    and n one entry per axis.
    """
    fault = max(_CONFIG(cfg, []), key=lambda f: (-len(f[0]), f[0]), default=None)
    if fault is not None:
        raise ConfigError(fault[1], schema_path=fault[0])
    params = scenario_params(cfg)  # raises on a param the scenario does not read
    chart = SCENARIOS[cfg["scenario"]].chart
    if "signature" in cfg and chart != "cartesian":
        raise ConfigError(f"scenario {cfg['scenario']!r} is on the fixed {chart} chart and "
                          f"does not read a signature", schema_path=["signature"])
    if {"rank", "ambient"} <= params.keys() and params["rank"] > params["ambient"]:
        raise ConfigError(f"rank {params['rank']} exceeds ambient {params['ambient']}; "
                          f"a frame needs rank <= ambient", schema_path=["params", "rank"])
    domain, dim = params.get("domain"), resolve_spacetime(cfg).dim
    if domain and not len(domain["lo"]) == len(domain["hi"]) == dim:
        raise ConfigError(f"lo and hi need {dim} bounds, one per chart axis",
                          schema_path=["params", "domain"])
    if "tabulated" in cfg:
        return cfg
    if cfg["scenario"] == "constant_F" and dim < 3:
        raise ConfigError(f"constant_F is A = B x^1 dx^2 and needs at least 3 chart axes, "
                          f"not {dim}", schema_path=["signature"])
    for key in ("k", "n") if cfg["scenario"] == "planewave" else ():
        if len(params[key]) != dim:
            # a default vector has 4 entries, so a signature of another length is the fault
            path = ["params", key] if key in cfg.get("params", {}) else ["signature"]
            raise ConfigError(f"params.{key} has {len(params[key])} entries; the chart has "
                              f"{dim} axes", schema_path=path)
    return cfg


def resolve_spacetime(cfg) -> Spacetime:
    """The scenario's chart: spherical, or Cartesian with the config's signature."""
    if _entry(cfg["scenario"]).chart == "spherical":
        return SPHERICAL3
    sig = cfg.get("signature")
    if sig is None:
        return MINKOWSKI4
    return Spacetime(len(sig), tuple(int(s) for s in sig))


def scenario_params(cfg) -> dict:
    """Every param the config's scenario reads: the config's value, else the default.

    The seed comes from params, else the top-level seed, else 0.  A param the
    scenario does not read raises ConfigError.
    """
    name, given = cfg["scenario"], cfg.get("params", {})
    entry = _entry(name)
    for key in given:
        if key not in entry.params:
            raise ConfigError(f"scenario {name!r} does not read params.{key}; it reads "
                              f"{list(entry.params)}", schema_path=["params", key])
    params = {**entry.params, **given}
    if "seed" in params and "seed" not in given:
        params["seed"] = cfg.get("seed", 0)
    return params


def _config(name_or_cfg, spacetime, params):
    """A config dict (a registry name plus params makes one) and its spacetime."""
    if not isinstance(name_or_cfg, dict):
        name_or_cfg = {"scenario": name_or_cfg, "params": params}
    return name_or_cfg, resolve_spacetime(name_or_cfg) if spacetime is None else spacetime


def load_potential(name_or_cfg, spacetime=None, **params) -> Form:
    """A scenario's potential, by registry name plus params or from a config dict.

    A scenario without a potential builder gives A = -i V^dag dV of its frame.
    """
    cfg, spacetime = _config(name_or_cfg, spacetime, params)
    if "tabulated" in cfg:
        a = _tabulated_potential(cfg["tabulated"], spacetime)
    else:
        build = _entry(cfg["scenario"]).potential
        if build is None:
            # the frame carries fd_step, and so A does too
            return extract_potential(load_frame(cfg, spacetime))
        a = build(scenario_params(cfg), spacetime)
    step = cfg.get("fd_step")
    return a if step is None else Form(a.spacetime, 1,
                                       lambda mu: a[(mu,)].with_step(float(step)))


def load_frame(name_or_cfg, spacetime=None, **params) -> FieldFn:
    """A scenario's frame, by registry name plus params or from a config dict."""
    cfg, spacetime = _config(name_or_cfg, spacetime, params)
    if "tabulated" in cfg:
        v = _tabulated_frame(cfg["tabulated"], spacetime)
    else:
        v = _entry(cfg["scenario"]).frame(scenario_params(cfg), spacetime)
    step = cfg.get("fd_step")
    return v if step is None else v.with_step(float(step))


# ---------------------------------------------------------------------------
# residual equations: (cfg, spacetime, points) -> {CSV index label: stacked residual}

def _equation(sweep, name, how):  # sweep, carrying its reports' index handling
    sweep.index_handling = f"{name}: {how}; indices raised with the diagonal flat metric"
    return sweep


def _ym_residuals(cfg, st, pts):
    if "tabulated" in cfg:  # a table of the potential, which has no frame
        a = load_potential(cfg, st)
        fs = field_strength(a)
        return {str(nu): ym_residual(a, nu, pts, fs) for nu in range(st.dim)}
    v = load_frame(cfg, st)
    return {str(nu): frame_ym_residual(v, pts, nu) for nu in range(st.dim)}


def _shape_residuals(cfg, st, pts):
    v = load_frame(cfg, st)
    return {str(nu): shape_gauge_ym_residual(v, pts, nu) for nu in range(st.dim)}


EQUATIONS = {
    "ym": _equation(_ym_residuals, "ym", "D^mu F_mu nu per free index nu, as V^dag J_nu V from "
                    "R's 2-jet at each point, or by nested differences of a tabulated A"),
    "modified": _equation(
        lambda cfg, st, pts: {"sum": modified_eom_residual(load_frame(cfg, st), pts)}, "modified",
        "the nu-summed divergence sum_nu d^nu J_nu of J_nu = V (D^mu F_mu nu) V^dag, read from "
        "R's 2-jet at each point"),
    "shape": _equation(_shape_residuals, "shape",
                       "P D^mu Omega_mu nu per free index nu, from R's 2-jet at each point"),
    "sigma": _equation(lambda cfg, st, pts: {"sum": sigma_eom_residual(load_frame(cfg, st), pts)},
                       "sigma", "d_mu S^mu, from R's 2-jet at each point"),
}


# ---------------------------------------------------------------------------
# tabulated fields

def tabulated_field(axes, values, spacetime: Spacetime, shape) -> FieldFn:
    """Multilinear interpolation of complex samples given as [re, im] leaves.

    A query outside the table's box, finite-difference stencil points
    included, raises a ChartError naming the point farthest out.
    """
    from scipy.interpolate import RegularGridInterpolator
    arr = np.asarray(values, dtype=float)  # (*grid, *shape, 2)
    if arr.shape[-1] != 2:
        raise ParameterError("tabulated values must have [re, im] leaves")
    data = arr[..., 0] + 1j * arr[..., 1]
    grid = [np.asarray(a, dtype=float) for a in axes]
    interp = RegularGridInterpolator(grid, data, method="linear", bounds_error=True)
    lo, hi = np.array([a.min() for a in grid]), np.array([a.max() for a in grid])

    def fn(x):
        outside = np.max(np.maximum(lo - x, x - hi), axis=-1)  # > 0 outside the box
        if _any(outside > 0.0):
            _, point = _worst_point(outside, x)
            raise ChartError(f"tabulated field queried at {point}, outside its table "
                             f"{[[float(l), float(h)] for l, h in zip(lo, hi)]}")
        out = interp(x.reshape(-1, x.shape[-1]))
        return np.asarray(out, dtype=complex).reshape(x.shape[:-1] + shape)[()]

    return FieldFn(spacetime, shape, fn, None, None)


def _table(tab, spacetime, potential):
    """A tabulated config's values as floats, shaped (*grid, d, n, n, 2) for a potential or
    (*grid, N, n, 2) for a frame; a ConfigError where the table does not fit the chart.
    """
    axes, d = tab["axes"], spacetime.dim
    if len(axes) != d or not all(np.all(np.diff(a) > 0) or np.all(np.diff(a) < 0) for a in axes):
        raise ConfigError(f"the chart needs {d} strictly monotone axes; got "
                          f"{reprlib.repr(axes)}", schema_path=["tabulated", "axes"])
    try:
        arr = np.asarray(tab["values"], dtype=float)
    except ValueError:  # ragged, or a leaf that is not a number
        arr = np.zeros(0)
    n = arr.shape[-2:-1]  # (n,), or () for an array of one axis
    matrix = (d,) + n + n if potential else arr.shape[-3:-1]
    if arr.shape != tuple(map(len, axes)) + matrix + (2,) or 0 in arr.shape:
        raise ConfigError(f"values on a grid of {tuple(map(len, axes))} points must be a "
                          f"numeric array shaped (*grid, {'d, n, n' if potential else 'N, n'}, "
                          f"2) with d = {d}", schema_path=["tabulated", "values"])
    if not potential and matrix[1] > matrix[0]:
        raise ConfigError(f"a frame's N x n values need n <= N; got N = {matrix[0]}, "
                          f"n = {matrix[1]}", schema_path=["tabulated", "values"])
    return arr


def _tabulated_potential(tab, spacetime):
    arr = _table(tab, spacetime, potential=True)  # (*grid, d, n, n, 2)
    n = arr.shape[-2]
    comps = [tabulated_field(tab["axes"], arr[..., mu, :, :, :], spacetime, (n, n))
             for mu in range(spacetime.dim)]
    return gauge_potential(spacetime, comps)


def _tabulated_frame(tab, spacetime):
    arr = _table(tab, spacetime, potential=False)  # (*grid, N, n, 2)
    raw = tabulated_field(tab["axes"], arr, spacetime, arr.shape[len(tab["axes"]):-1])

    def projected(x):
        # polar projection to the nearest orthonormal frame, unique at full column rank
        v, s = polar(np.asarray(raw(x), dtype=complex))
        if _any(s.min(axis=-1) < TOL.chart_min_overlap):
            _, point = _worst_point(-s.min(axis=-1), x)
            raise ChartError(f"tabulated frame loses column rank at {point} (smallest "
                             f"singular value {s.min():.3e})")
        return v

    return FieldFn(spacetime, raw.shape, projected, None, None)
