"""Scenario configuration: builtin registries, JSON loading, and dumps.

Gauge potentials and frames can be requested by builtin name plus parameters
("plane_wave", "monopole_plus", "pure_gauge", ...) or supplied as samples
tabulated on a grid.  Configurations are validated against the published
JSON schema before anything runs.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover - hard dependency, guarded for clarity
    jsonschema = None

from . import darboux as dx
from . import em
from .blade import Frame, extract_potential, frame, random_smooth_frame
from .errors import ConfigError, ParameterError
from .fields import FieldFn, MINKOWSKI4, OneForm, SPHERICAL3, Spacetime, linear, matrix_of
from .gauge import gauge_potential, pure_gauge_potential
__all__ = [
    "scenario_schema", "validate_config", "resolve_spacetime",
    "load_potential", "load_frame", "load_darboux", "tabulated_field",
    "constant_f_potential", "dump_blade", "load_blade_dump",
]

BUILTIN_POTENTIALS = ("plane_wave", "monopole_plus", "monopole_minus",
                      "pure_gauge", "constant_F")
BUILTIN_FRAMES = ("plane_wave", "monopole", "darboux", "random_smooth")
# scenarios that only define a frame; their potential is A = -i V^dag dV
FRAME_ONLY = ("random_smooth", "darboux")


def scenario_schema():
    with resources.files("bladegauge.schemas").joinpath("scenario.schema.json").open() as fh:
        return json.load(fh)


def validate_config(cfg):
    """Validate a scenario config dict; raises ConfigError with the schema path."""
    try:
        jsonschema.validate(cfg, scenario_schema())
    except jsonschema.ValidationError as exc:
        path = list(exc.absolute_path)
        raise ConfigError(f"config invalid at {'/'.join(map(str, path)) or '<root>'}: "
                          f"{exc.message}", schema_path=path) from exc
    return cfg


def resolve_spacetime(cfg) -> Spacetime:
    if cfg.get("scenario") == "monopole":
        return SPHERICAL3
    sig = cfg.get("signature")
    if sig is None:
        return MINKOWSKI4
    return Spacetime(len(sig), tuple(int(s) for s in sig))


def constant_f_potential(spacetime: Spacetime, b=1.0) -> OneForm:
    """A = B x^1 dx^2: a constant abelian field strength F_12 = B."""
    x1 = linear(spacetime, np.eye(spacetime.dim)[1])
    comps = []
    for mu in range(spacetime.dim):
        if mu == 2:
            comps.append(matrix_of([[float(b) * x1]]))
        else:
            from .fields import constant
            comps.append(constant(np.zeros((1, 1), dtype=complex), spacetime))
    return gauge_potential(spacetime, comps)


def load_potential(name_or_cfg, spacetime=None, **params) -> OneForm:
    """Builtin potential by name, or from a config dict (builtin / tabulated).

    The frame-only scenarios (FRAME_ONLY) give the potential of their frame.
    """
    fd_step = None
    if isinstance(name_or_cfg, dict):
        cfg = name_or_cfg
        fd_step = cfg.get("fd_step")
        if "tabulated" in cfg:
            return _with_potential_step(_tabulated_potential(cfg, spacetime), fd_step)
        name = cfg["scenario"]
        params = _builtin_params(cfg)
        spacetime = resolve_spacetime(cfg) if spacetime is None else spacetime
        mapping = {"planewave": "plane_wave", "monopole": "monopole_plus",
                   "pure_gauge": "pure_gauge", "constant_F": "constant_F"}
        name = mapping.get(name, name)
    else:
        name = name_or_cfg
    spacetime = MINKOWSKI4 if spacetime is None else spacetime
    if name == "plane_wave":
        a = em.plane_wave_potential(spacetime, params.get("k", [1, 0, 0, 1]),
                                    params.get("n", [0, 1, 0, 0]))
    elif name in ("monopole_plus", "monopole_minus"):
        a = em.monopole_potential(params.get("g", 0.5),
                                  "plus" if name.endswith("plus") else "minus")
    elif name == "pure_gauge":
        from .blade import random_gauge_map
        u = random_gauge_map(spacetime, params.get("rank", 2), params.get("seed", 0))
        a = pure_gauge_potential(u)
    elif name == "constant_F":
        a = constant_f_potential(spacetime, params.get("B", 1.0))
    elif name in FRAME_ONLY:
        # load_frame applies the config's fd_step to V, and so to A
        return extract_potential(load_frame(name_or_cfg, spacetime, **params))
    else:
        raise ParameterError(f"unknown builtin potential {name!r}; "
                             f"choices: {BUILTIN_POTENTIALS + FRAME_ONLY}")
    return _with_potential_step(a, fd_step)


def _builtin_params(cfg):
    """cfg["params"], with the seed taken from params, else the top level, else 0."""
    params = dict(cfg.get("params", {}))
    params.setdefault("seed", cfg.get("seed", 0))
    return params


def _with_potential_step(a, fd_step):
    if fd_step is None:
        return a
    return OneForm(a.spacetime, tuple(c.with_step(float(fd_step)) for c in a.components))


def load_frame(name_or_cfg, spacetime=None, **params) -> Frame:
    """Builtin frame by name, or from a config dict (builtin / tabulated)."""
    fd_step = None
    if isinstance(name_or_cfg, dict):
        cfg = name_or_cfg
        fd_step = cfg.get("fd_step")
        if "tabulated" in cfg:
            return _with_frame_step(_tabulated_frame(cfg, spacetime), fd_step)
        name = cfg["scenario"]
        params = _builtin_params(cfg)
        spacetime = resolve_spacetime(cfg) if spacetime is None else spacetime
        name = {"planewave": "plane_wave"}.get(name, name)
    else:
        name = name_or_cfg
    spacetime = MINKOWSKI4 if spacetime is None else spacetime
    if name == "plane_wave":
        p = em.plane_wave_params(spacetime, params.get("k", [1, 0, 0, 1]),
                                 params.get("n", [0, 1, 0, 0]))
        v = em.em_frame(p)
    elif name == "monopole":
        p = em.monopole_params(params.get("g", 0.5), params.get("patch", "plus"))
        v = em.em_frame(p)
    elif name == "darboux":
        v = dx.darboux_frame(load_darboux(params, spacetime))
    elif name == "random_smooth":
        v = random_smooth_frame(spacetime, params.get("ambient", 4),
                                params.get("rank", 2), params.get("seed", 0))
    else:
        raise ParameterError(f"unknown builtin frame {name!r}; choices: {BUILTIN_FRAMES}")
    return _with_frame_step(v, fd_step)


def _with_frame_step(v, fd_step):
    if fd_step is None:
        return v
    return Frame(v.spacetime, v.N, v.n, v.V.with_step(float(fd_step)))


def load_darboux(params, spacetime=MINKOWSKI4) -> dx.DarbouxData:
    """Darboux data from scenario params: the (pi, phi) pairs on the domain box.

    The box defaults to [-0.8, 0.8] on every axis.
    """
    d = spacetime.dim
    box = params.get("domain", {"lo": [-0.8] * d, "hi": [0.8] * d})
    pairs = [(p["pi"], p["phi"]) for p in params.get("pairs", [])]
    return dx.darboux_data(spacetime, pairs, box["lo"], box["hi"])


# ---------------------------------------------------------------------------
# tabulated fields

def tabulated_field(axes, values, spacetime: Spacetime, shape) -> FieldFn:
    """Multilinear interpolation of complex samples given as [re, im] leaves."""
    from scipy.interpolate import RegularGridInterpolator
    arr = np.asarray(values, dtype=float)  # (*grid, *shape, 2)
    if arr.shape[-1] != 2:
        raise ParameterError("tabulated values must have [re, im] leaves")
    data = arr[..., 0] + 1j * arr[..., 1]
    interp = RegularGridInterpolator([np.asarray(a, dtype=float) for a in axes],
                                     data, method="linear", bounds_error=True)

    def fn(x):
        out = interp(np.asarray(x, dtype=float)[None, :])[0]
        return complex(out) if shape == () else np.asarray(out, dtype=complex)

    return FieldFn(spacetime, shape, fn, None, None)


def _tabulated_potential(cfg, spacetime):
    spacetime = resolve_spacetime(cfg) if spacetime is None else spacetime
    tab = cfg["tabulated"]
    arr = np.asarray(tab["values"], dtype=float)  # (*grid, d, n, n, 2)
    n = arr.shape[-2]
    comps = [tabulated_field(tab["axes"], arr[..., mu, :, :, :], spacetime, (n, n))
             for mu in range(spacetime.dim)]
    return gauge_potential(spacetime, comps)


def _tabulated_frame(cfg, spacetime):
    spacetime = resolve_spacetime(cfg) if spacetime is None else spacetime
    tab = cfg["tabulated"]
    raw = tabulated_field(tab["axes"], tab["values"], spacetime,
                          tuple(np.asarray(tab["values"], dtype=float).shape[len(tab["axes"]):-1]))

    def orthonormalized(x):
        v = np.asarray(raw.fn(x), dtype=complex)
        # polar projection to the nearest orthonormal frame
        u, _, vh = np.linalg.svd(v, full_matrices=False)
        return u @ vh

    V = FieldFn(spacetime, raw.shape, orthonormalized, None, None)
    return frame(spacetime, V)


# ---------------------------------------------------------------------------
# blade dumps

def dump_blade(blade, points, path):
    """Write a blade as a JSON array of {point, R} records ([re, im] entries)."""
    records = []
    for x in points:
        r = np.asarray(blade.at(np.asarray(x, dtype=float)))
        records.append({
            "point": [float(c) for c in x],
            "R": [[[float(e.real), float(e.imag)] for e in row] for row in r],
        })
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    return path


def load_blade_dump(path):
    """Read a blade dump back as (points array, R values array)."""
    with open(path) as fh:
        records = json.load(fh)
    pts = np.array([rec["point"] for rec in records], dtype=float)
    rs = np.array([[[complex(e[0], e[1]) for e in row] for row in rec["R"]]
                   for rec in records])
    return pts, rs
