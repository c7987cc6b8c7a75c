"""Batch command-line interface.

    bladegauge verify    --scenario monopole --g 0.5 [--report out.json]
    bladegauge residuals --scenario planewave --k 1,0,0,1 --n 0,1,0,0 --eq ym
    bladegauge sigma-flow --g 0.5 --steps 200 --eta 2e-3
    bladegauge darboux   --input pairs.json
    bladegauge embedded  --surface sphere --a 2

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error.  Reports embed the fully resolved configuration and the
tool version; the timestamp lives in its own field so that reports for the
same config and seed are otherwise byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import reprlib
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import em
from .blade import (blade_curvature, blade_from_frame, check_four_way, complement_field,
                    extract_potential, four_way, random_smooth_frame,
                    shape_gauge_decompose, shape_identity_residual, shape_operator)
from .darboux import frame_residual_report, verify_rank
from .dynamics import blade_lattice_from_field, sigma_flow
# unused here: perfbench/selftest.py checks that its tracer wraps this second binding
from .dynamics import shape_gauge_ym_residual  # noqa: F401
from .embedded import (christoffel_gauss_curvature, cylinder, embedded_blade, gauss_curvature,
                       plane, sphere, torus)
from .errors import BladeGaugeError, ConfigError, DomainError
from .fields import Grid, MINKOWSKI4, _sharing
from .gauge import field_strength, gauge_transform, gauge_transform_field_strength
from .linalg import dagger, max_abs, max_abs_each
from .scenarios import (EQUATIONS, SCENARIOS, load_darboux, resolve_spacetime,
                        scenario_params, validate_config)
from .tolerances import DEFAULT as TOL


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow exits 2 under any warning policy, not as inf or NaN in a report
        with np.errstate(over="raise"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc} (schema path: {'/'.join(map(str, exc.schema_path))})",
              file=sys.stderr)
        return 2
    except (BladeGaugeError, OSError, json.JSONDecodeError, Warning) as exc:
        # a Warning arrives here only where the warning filters raise it as an error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: {exc}; an input is too large for double precision", file=sys.stderr)
        return 2


# one parser per process: parse_args leaves it as it was, and building it costs about
# a millisecond of every in-process call
@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(prog="bladegauge",
                                description="rotating-blade verification tool")
    p.add_argument("--version", action="version", version=f"bladegauge {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the identity suites for a scenario")
    _common_flags(v)
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("residuals", help="equation-of-motion residual sweep")
    _common_flags(r)
    r.add_argument("--fd-step", type=_float, default=None)
    r.add_argument("--eq", required=True, choices=list(EQUATIONS))
    r.add_argument("--grid", type=_grid, default=None,
                   help="axis spec lo:hi:cells[,lo:hi:cells...] (one per dimension)")
    r.add_argument("--csv", default=None, help="write per-point CSV here")
    r.set_defaults(func=cmd_residuals)

    f = sub.add_parser("sigma-flow", help="gradient flow of the lattice energy")
    f.add_argument("--g", type=_float, default=None,
                   help="monopole strength for the band fixture (default 0.5)")
    f.add_argument("--theta-band", type=_theta_band, default=None,
                   help="theta band as fractions of pi, lo:hi (default 0.35:0.65)")
    f.add_argument("--cells", type=_cells, default=None,
                   help="lattice cells as THETAxPHI (default 10x16)")
    f.add_argument("--steps", type=int, default=200)
    f.add_argument("--eta", type=_float, default=2e-3)
    f.add_argument("--init", default=None,
                   help="lattice JSON to start from instead of the band fixture")
    f.add_argument("--dump-final", default=None, help="write the final lattice here")
    f.add_argument("--report", default=None)
    f.set_defaults(func=cmd_sigma_flow)

    d = sub.add_parser("darboux", help="frame construction from darboux pairs")
    d.add_argument("--input", required=True, help="JSON with pairs and domain")
    d.add_argument("--report", default=None)
    d.set_defaults(func=cmd_darboux)

    e = sub.add_parser("embedded", help="embedded-surface curvature table")
    e.add_argument("--surface", required=True, choices=list(_SURFACES))
    e.add_argument("--a", type=_float, default=None, help="sphere radius (default 1)")
    e.add_argument("--rmaj", type=_float, default=None, help="torus major radius (default 2)")
    e.add_argument("--rmin", type=_float, default=None, help="torus minor radius (default 0.5)")
    e.add_argument("--samples", type=_count, default=5, help="samples per chart axis")
    e.add_argument("--csv", default=None)
    e.add_argument("--report", default=None)
    e.set_defaults(func=cmd_embedded)
    return p


def _common_flags(sp):
    sp.add_argument("--scenario", default=None,
                    help="builtin scenario name (or use --input)")
    sp.add_argument("--input", default=None, help="scenario config JSON file")
    sp.add_argument("--k", type=_vector, default=None, help="wave vector, comma separated")
    sp.add_argument("--n", type=_vector, default=None,
                    help="polarization vector, comma separated")
    sp.add_argument("--g", type=_float, default=None, help="monopole strength")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--report", default=None, help="write the JSON report here")


# -- argparse types: a malformed spec is a usage error (exit 2) -----------------

def _spec(form, parse):
    def convert(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
    return convert


def _split(text, sep, count):
    parts = text.split(sep)
    if len(parts) != count:
        raise ValueError
    return parts


def _finite(text):
    """float(text); a ConfigError, which is a ValueError, when that is not finite."""
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"{text} is not a finite number")
    return value


def _parse_grid(text):
    axes = [_split(ax, ":", 3) for ax in text.split(",")]
    return Grid(lo=tuple(_finite(a[0]) for a in axes), hi=tuple(_finite(a[1]) for a in axes),
                cells=tuple(int(a[2]) for a in axes))


def _parse_band(text):
    lo, hi = (_finite(c) for c in _split(text, ":", 2))
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError
    return lo, hi


def _parse_count(text):
    count = int(text)
    if count < 1:
        raise ValueError
    return count


_float = _spec("a finite number", _finite)
_vector = _spec("comma-separated finite numbers", lambda t: [_finite(c) for c in t.split(",")])
_grid = _spec("lo:hi:cells on each axis, lo and hi finite, cells >= 1", _parse_grid)
_count = _spec("a positive integer", _parse_count)
_cells = _spec("THETAxPHI cell counts", lambda t: tuple(int(c) for c in _split(t, "x", 2)))
_theta_band = _spec("lo:hi fractions of pi with 0 <= lo < hi <= 1", _parse_band)


def _json_int(text):
    """int(text), kept an int (seed, rank, ambient); a ConfigError when no float holds it."""
    try:
        value = int(text)
        float(value)
    except (OverflowError, ValueError):  # past 4300 digits int() itself refuses
        raise ConfigError(f"{text[:8]}... ({len(text)} digits) is not a finite number") from None
    return value


def _read_json(path):
    """The JSON file at path, whose numbers must be finite: no NaN, Infinity, 1e999 or 10**400."""
    with open(path) as fh:
        return json.load(fh, parse_float=_finite, parse_int=_json_int, parse_constant=_finite)


# top-level config keys each command reads; setting any other one exits 2
_READS = {
    "verify": {"scenario", "params", "seed", "signature", "tolerances"},
    "residuals": {"scenario", "params", "seed", "signature", "fd_step", "tabulated"},
    "darboux": {"scenario", "params", "signature"},
}


def _check_reads(cfg, command):
    for key in cfg:
        if key not in _READS[command]:
            raise ConfigError(f"the {command} command does not read {key!r}",
                              schema_path=[key])
    return cfg


def _resolve_config(args):
    cfg = {}
    if args.input:
        cfg = _read_json(args.input)
        # the flags below write into the config and its params, so both must be objects
        if not isinstance(cfg, dict):
            raise ConfigError(f"{reprlib.repr(cfg)} is not an object", schema_path=[])
        if not isinstance(cfg.get("params", {}), dict):
            raise ConfigError(f"{reprlib.repr(cfg['params'])} is not an object",
                              schema_path=["params"])
    if args.scenario:
        cfg["scenario"] = args.scenario
    params = cfg.setdefault("params", {})
    if getattr(args, "k", None):
        params["k"] = args.k
    if getattr(args, "n", None):
        params["n"] = args.n
    if getattr(args, "g", None) is not None:
        params["g"] = args.g
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "fd_step", None) is not None:
        cfg["fd_step"] = args.fd_step
    if not params:
        cfg.pop("params")
    return _check_reads(validate_config(cfg), args.command)


def _report_skeleton(command, cfg):
    return {
        "tool": "bladegauge",
        "version": __version__,
        "command": command,
        "config": cfg,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(report, path):
    """Print the report, or write it to path, as strict JSON (RFC 8259): no NaN or Infinity."""
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise DomainError(f"report entry {next(_nonfinite_keys(report))} is not a finite number, "
                          "and strict JSON has none") from None
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _nonfinite_keys(obj, key=""):
    """The /-joined key of each NaN or infinity in a report, in printed order."""
    if isinstance(obj, float) and not np.isfinite(obj):
        yield key
    elif isinstance(obj, (dict, list, tuple)):
        for k, value in sorted(obj.items()) if isinstance(obj, dict) else enumerate(obj):
            yield from _nonfinite_keys(value, f"{key}/{k}".lstrip("/"))


def _check(name, value, threshold, expect_pass=True):
    ok = value <= threshold
    return {"name": name, "value": float(value), "threshold": float(threshold),
            "observed_pass": bool(ok), "expected_pass": bool(expect_pass),
            "passed": bool(ok == expect_pass)}


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args):
    cfg = _resolve_config(args)
    seed = int(cfg.get("seed", 0))
    # validate_config admits only the overrides the checks compare against
    tol = replace(TOL, **cfg.get("tolerances", {}))
    checks = _generic_identity_checks(seed, tol)
    with _sharing():  # the checks below query a few stacks each; see _generic_identity_checks
        checks += _embedded_cross_checks(tol)
        rows, extras = SCENARIOS[cfg["scenario"]].checks(scenario_params(cfg),
                                                        resolve_spacetime(cfg), tol)
    checks += [_check(*row) for row in rows]
    report = _report_skeleton("verify", cfg)
    report["checks"] = checks
    report.update(extras)
    report["all_passed"] = all(c["passed"] for c in checks)
    _emit(report, args.report)
    return 0 if report["all_passed"] else 1


def _generic_identity_checks(seed, tol):
    """The nine blade identities on four seeded random frames, three points each."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("reflection", "hermiticity", "trace", "anticommute",
                           "covariant_constancy", "four_way", "gauge_invariance",
                           "gauge_covariance_F", "curvature_blocks"), 0.0)

    def bump(key, *values):
        worst[key] = max(worst[key], *values)

    st = MINKOWSKI4
    for i in range(4):
        N, n = (2, 1) if i % 2 == 0 else (4, 2)
        v = random_smooth_frame(st, N, n, seed=seed + 11 * i, amplitude=0.3)
        blade = blade_from_frame(v)
        s = shape_operator(blade)
        omega = blade_curvature(blade)
        u = random_smooth_frame(st, n, n, seed=seed + 301 + i)
        blade2 = blade_from_frame(v @ u.dagger())
        s2 = shape_operator(blade2)
        a = extract_potential(v)
        fs = field_strength(a)
        fs2 = field_strength(gauge_transform(a, u))
        fs2_expect = gauge_transform_field_strength(fs, u)
        w = complement_field(v)
        g_fs = shape_gauge_decompose(v, w).G
        x = rng.uniform(-0.5, 0.5, (3, st.dim))
        with _sharing():  # every check below queries x: each node's jet there is made once
            r = blade(x)
            bump("reflection", max_abs(r @ r - np.eye(N)))
            bump("hermiticity", max_abs(r - dagger(r)))
            bump("trace", max_abs(np.trace(r, axis1=-2, axis2=-1).real - (2 * n - N)))
            for mu in range(st.dim):
                sv = s.at(x, mu)
                bump("anticommute", max_abs(r @ sv + sv @ r))
                bump("covariant_constancy", max_abs(blade.d(x, mu) + 1j * (sv @ r - r @ sv)))
                bump("gauge_invariance", max_abs(sv - s2.at(x, mu)))
            bump("gauge_invariance", max_abs(r - blade2(x)))
            bump("four_way", four_way(blade, x, 0, 2)[1])
            vv = v(x)
            for mu, nu in ((0, 1), (1, 3)):
                om = omega.at(x, mu, nu)
                g = g_fs.at(x, mu, nu)
                wv = w(x)
                bump("curvature_blocks", max_abs(fs.at(x, mu, nu) - dagger(vv) @ om @ vv),
                     max_abs(g - dagger(wv) @ om @ wv))
                bump("gauge_covariance_F", max_abs(fs2.at(x, mu, nu) - fs2_expect.at(x, mu, nu)))
    fd = tol.fd()
    nested = tol.fd_nested()
    return [
        _check("blade_reflection_identity", worst["reflection"], tol.analytic),
        _check("blade_hermiticity", worst["hermiticity"], tol.analytic),
        _check("blade_trace", worst["trace"], 1e-8),
        _check("shape_anticommutes_with_blade", worst["anticommute"], tol.analytic),
        _check("blade_covariantly_constant", worst["covariant_constancy"], tol.analytic),
        _check("curvature_four_way_agreement", worst["four_way"], nested),
        _check("gauge_invariance_of_blade_quantities", worst["gauge_invariance"], tol.analytic),
        _check("field_strength_gauge_covariance", worst["gauge_covariance_F"], fd),
        _check("curvature_block_structure", worst["curvature_blocks"], fd),
    ]


def _embedded_cross_checks(tol):
    x = np.random.default_rng(17).uniform((0.5, 0), (np.pi - 0.5, 2 * np.pi), (3, 2))
    k, k_oracle, ident = _curvature_columns(sphere(1.0), x)
    return [
        _check("embedded_curvature_vs_christoffel_oracle", np.max(np.abs(k - k_oracle)), 1e-6),
        _check("embedded_shape_identity", np.max(ident), tol.fd()),
    ]


def _curvature_columns(emb, x):
    """Gauss curvature, its Christoffel oracle and the shape-identity residual at a stack."""
    s = shape_operator(embedded_blade(emb))
    return (gauss_curvature(emb, x), christoffel_gauss_curvature(emb, x),
            max_abs_each(shape_identity_residual(s, 0, 1, x)))


# ---------------------------------------------------------------------------
# residuals

# grid points per residual call: `modified` holds R's 2-jet with all ten d_a d_b R for d = 4,
# 2 MB for N = 4, and a frame leaf's records stay in its LRU (fields._LEAF_CACHE_POINTS)
_SWEEP_POINTS = 512


def cmd_residuals(args):
    cfg = _resolve_config(args)
    scenario = cfg["scenario"]
    chart = SCENARIOS[scenario].chart
    if chart != "cartesian":
        raise ConfigError(f"residual sweeps assume a flat Cartesian chart; scenario "
                          f"{scenario!r} is on the {chart} chart", schema_path=["scenario"])
    if "seed" in cfg and "seed" not in SCENARIOS[scenario].params:
        raise ConfigError(f"scenario {scenario!r} has no seed param, so the residuals "
                          f"command does not read 'seed' for it", schema_path=["seed"])
    st = resolve_spacetime(cfg)
    grid = args.grid or Grid(lo=(0.0,) * st.dim, hi=(1.0,) * st.dim, cells=(3,) * st.dim)
    if grid.dim != st.dim:
        raise ConfigError(f"--grid has {grid.dim} axes; scenario {scenario!r} lives in "
                          f"dimension {st.dim}")
    pts = grid.centers()
    equation, norms = EQUATIONS[args.eq], []
    for i in range(0, len(pts), _SWEEP_POINTS):  # norms a slice at a time, each residual
        part = equation(cfg, st, pts[i:i + _SWEEP_POINTS])  # popped as its norms are taken
        labels = list(part)
        norms.append(np.stack([max_abs_each(part.pop(label)) for label in labels], axis=-1))
    norms = np.concatenate(norms)

    report = _report_skeleton("residuals", cfg)
    report["equation"] = args.eq
    # an EQUATIONS entry is a sweep function, which may state no index handling
    report["index_handling"] = getattr(equation, "index_handling", None)
    report["grid"] = {"lo": grid.lo, "hi": grid.hi, "cells": grid.cells}
    report["summary"] = {"max": float(norms.max()), "mean": float(np.mean(norms.ravel())),
                         "count": norms.size}
    _emit(report, args.report)  # first, so that a report it refuses leaves no CSV either
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(st.dim)] + ["index", "norm"])
            for x, row in zip(pts, norms):
                for idx, nm in zip(labels, row):
                    writer.writerow([f"{c:.12g}" for c in x] + [idx, f"{nm:.12e}"])
    return 0


# ---------------------------------------------------------------------------
# sigma flow

# the band fixture's flags and their defaults; none of them is read with --init
_BAND_DEFAULTS = {"g": 0.5, "theta_band": (0.35, 0.65), "cells": (10, 16)}


def cmd_sigma_flow(args):
    band = {key: getattr(args, key) for key in _BAND_DEFAULTS}
    if args.init:
        for key, value in band.items():
            if value is not None:
                raise ConfigError(f"--{key.replace('_', '-')} sets up the band fixture "
                                  f"and is not read with --init", schema_path=[key])
        lat = _load_lattice(args.init)
        cfg = {"init": args.init}
    else:
        band = {key: _BAND_DEFAULTS[key] if value is None else value
                for key, value in band.items()}
        lo_frac, hi_frac = band["theta_band"]
        ct, cp = band["cells"]
        grid = Grid(lo=(lo_frac * np.pi, 0.0), hi=(hi_frac * np.pi, 2 * np.pi),
                    cells=(ct, cp))
        blade = em.monopole_blade(band["g"])
        lat = blade_lattice_from_field(
            blade, grid, point_map=lambda p: np.array([1.0, p[0], p[1]]),
            periodic=(False, True), frozen_boundary_axes=(0,))
        cfg = {"g": band["g"], "theta_band": f"{lo_frac}:{hi_frac}", "cells": f"{ct}x{cp}"}
    cfg.update({"steps": args.steps, "eta": args.eta})
    final, trace = sigma_flow(lat, args.steps, args.eta)
    report = _report_skeleton("sigma-flow", cfg)
    report["energy_trace"] = trace
    report["monotone_nonincreasing"] = bool(
        all(trace[i + 1] <= trace[i] + 1e-12 * (1 + abs(trace[i]))
            for i in range(len(trace) - 1)))
    report["final_reflection_defect"] = final.reflection_defect()
    if args.dump_final:
        _save_lattice(final, args.dump_final)
        report["final_dump"] = args.dump_final
    _emit(report, args.report)
    return 0 if report["monotone_nonincreasing"] else 1


def _save_lattice(lat, path):
    payload = {
        "spacings": list(lat.spacings),
        "periodic": list(lat.periodic),
        "frozen": None if lat.frozen is None else lat.frozen.astype(int).tolist(),
        "shape": list(lat.grid_shape),
        "N": lat.N,
        "sites": np.stack([lat.sites.real, lat.sites.imag], axis=-1).tolist(),
    }
    # json.dumps takes the C encoder, which json.dump never does; same bytes
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True))


def _load_lattice(path):
    """A lattice file's LatticeBlade; a ConfigError naming the key for what it cannot read."""
    from .dynamics import LatticeBlade
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ConfigError(f"lattice file {path}: {reprlib.repr(payload)} is not an object",
                          schema_path=[])
    for key in ("sites", "spacings", "periodic"):
        if key not in payload:
            raise ConfigError(f"lattice file {path} has no {key!r}", schema_path=[key])
    arr = _lattice_array(payload, "sites", path)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ConfigError(f"lattice file {path}: 'sites' needs [re, im] leaves; got an "
                          f"array shaped {arr.shape}", schema_path=["sites"])
    spacings, periodic = payload["spacings"], payload["periodic"]
    if not (isinstance(spacings, list) and all(
            isinstance(h, (int, float)) and not isinstance(h, bool) for h in spacings)):
        raise ConfigError(f"lattice file {path}: 'spacings' must be a list of numbers; "
                          f"got {spacings!r}", schema_path=["spacings"])
    if not (isinstance(periodic, list) and all(isinstance(p, bool) for p in periodic)):
        raise ConfigError(f"lattice file {path}: 'periodic' must be a list of true/false "
                          f"flags; got {periodic!r}", schema_path=["periodic"])
    frozen = payload.get("frozen")
    lat = LatticeBlade(arr[..., 0] + 1j * arr[..., 1], tuple(spacings), tuple(periodic),
                       None if frozen is None else _lattice_array(payload, "frozen", path) != 0)
    # the flow's energy and gradient are the link action only on Hermitian reflections
    r = lat.sites
    for what, norm, defect, tol in (
            ("Hermitian", "|R - R^dag|", r - dagger(r), TOL.hermitian_input),
            ("a reflection", "|R^2 - I|", r @ r - np.eye(lat.N), TOL.algebraic)):
        errs = max_abs_each(defect)
        i = np.unravel_index(np.argmax(errs), errs.shape)
        if errs[i] > tol:
            raise ConfigError(f"lattice file {path}: site {list(map(int, i))} is not {what} "
                              f"(max {norm} {errs[i]:.3e} > {tol:.1e})", schema_path=["sites"])
    return lat


def _lattice_array(payload, key, path):
    """payload[key] as a float array; a ConfigError when it is not a numeric nested array."""
    try:
        return np.asarray(payload[key], dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"lattice file {path}: {key!r} is not a numeric array",
                          schema_path=[key]) from None


# ---------------------------------------------------------------------------
# darboux

def cmd_darboux(args):
    raw = _read_json(args.input)
    cfg = (raw if isinstance(raw, dict) and "scenario" in raw
           else {"scenario": "darboux", "params": raw})
    _check_reads(validate_config(cfg), "darboux")
    if cfg["scenario"] != "darboux":
        raise ConfigError(f"the darboux command needs scenario 'darboux'; got "
                          f"{cfg['scenario']!r}", schema_path=["scenario"])
    data = load_darboux(cfg.get("params", {}), resolve_spacetime(cfg))
    rep = frame_residual_report(data)
    measured = verify_rank(data)
    report = _report_skeleton("darboux", cfg)
    report.update({"N": rep["N"], "measured_rank": int(measured),
                   "max_residual": rep["max_residual"],
                   "near_singular_points": rep["near_singular_points"]})
    _emit(report, args.report)
    return 0


# ---------------------------------------------------------------------------
# embedded

# surface -> (builder, the params it reads with their defaults, u range, v range)
_SURFACES = {
    "plane": (plane, {}, (-1.0, 1.0), (-1.0, 1.0)),
    "sphere": (sphere, {"a": 1.0}, (0.4, np.pi - 0.4), (0.0, 2 * np.pi)),
    "cylinder": (cylinder, {}, (0.0, 2 * np.pi), (-1.0, 1.0)),
    "torus": (torus, {"rmaj": 2.0, "rmin": 0.5}, (0.0, 2 * np.pi), (0.0, 2 * np.pi)),
}


def cmd_embedded(args):
    build, defaults, u_range, v_range = _SURFACES[args.surface]
    params = dict(defaults)
    for key in ("a", "rmaj", "rmin"):
        value = getattr(args, key)
        if value is None:
            continue
        if key not in defaults:
            reads = ", ".join(f"--{k}" for k in defaults) or "no radius flag"
            raise ConfigError(f"surface {args.surface!r} does not read --{key} (it reads "
                              f"{reads})", schema_path=[key])
        params[key] = value
    emb = build(**params)
    us = np.linspace(*u_range, args.samples)
    vs = np.linspace(*v_range, args.samples)
    x = np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)
    k, k_oracle, ident = _curvature_columns(emb, x)
    disc = check_four_way(embedded_blade(emb), x, 0, 1)
    report = _report_skeleton("embedded", {"surface": args.surface, **params,
                                           "samples": args.samples})
    report["summary"] = {
        "gauss_mean": float(np.mean(k)),
        "gauss_min": float(np.min(k)),
        "gauss_max": float(np.max(k)),
        "max_oracle_gap": float(np.max(np.abs(k - k_oracle))),
        "max_path_discrepancy": float(np.max(disc)),
        "max_shape_identity_residual": float(np.max(ident)),
    }
    _emit(report, args.report)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["u", "v", "gauss_curvature", "gauss_oracle",
                             "curvature_path_discrepancy", "shape_identity_residual"])
            for row in np.column_stack([x, k, k_oracle, disc, ident]):
                writer.writerow([f"{c:.12g}" for c in row])
    return 0


if __name__ == "__main__":
    sys.exit(main())
