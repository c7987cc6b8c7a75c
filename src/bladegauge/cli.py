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
import itertools
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import em
from .blade import (Frame, blade_curvature, blade_from_frame, complement_field,
                    extract_potential, four_way, random_gauge_map,
                    random_smooth_frame, shape_operator)
from .darboux import frame_residual_report, verify_rank
from .dynamics import (INDEX_HANDLING_NOTE, blade_lattice_from_field,
                       maxwell_mod_residual, modified_eom_residual,
                       shape_gauge_ym_residual, sigma_flow,
                       sigma_eom_residual, ym_residual)
from .embedded import (cylinder, embedded_curvature_paths, gauss_curvature,
                       christoffel_riemann, induced_metric, plane,
                       embedded_shape_identity_residual, sphere, torus)
from .errors import BladeGaugeError, ConfigError
from .fields import Grid, MINKOWSKI4, sphere_flux, two_form_values, wedge
from .gauge import field_strength, gauge_transform, gauge_transform_field_strength
from .linalg import dagger, max_abs
from .scenarios import (load_darboux, load_frame, load_potential, validate_config,
                        resolve_spacetime)
from .tolerances import DEFAULT as TOL

RESIDUAL_SCENARIOS = ("planewave", "pure_gauge", "constant_F", "random_smooth", "darboux")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc} (schema path: {'/'.join(map(str, exc.schema_path))})",
              file=sys.stderr)
        return 2
    except (BladeGaugeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


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
    r.add_argument("--eq", required=True,
                   choices=["ym", "modified", "maxmod", "shape", "sigma"])
    r.add_argument("--grid", default=None,
                   help="axis spec lo:hi:cells[,lo:hi:cells...] (one per dimension)")
    r.add_argument("--csv", default=None, help="write per-point CSV here")
    r.set_defaults(func=cmd_residuals)

    f = sub.add_parser("sigma-flow", help="gradient flow of the lattice energy")
    f.add_argument("--g", type=float, default=0.5, help="monopole strength for the band fixture")
    f.add_argument("--theta-band", default="0.35:0.65",
                   help="theta band as fractions of pi, lo:hi")
    f.add_argument("--cells", default="10x16", help="lattice cells as THETAxPHI")
    f.add_argument("--steps", type=int, default=200)
    f.add_argument("--eta", type=float, default=2e-3)
    f.add_argument("--init", default=None, help="lattice JSON to start from instead")
    f.add_argument("--dump-final", default=None, help="write the final lattice here")
    f.add_argument("--report", default=None)
    f.set_defaults(func=cmd_sigma_flow)

    d = sub.add_parser("darboux", help="frame construction from darboux pairs")
    d.add_argument("--input", required=True, help="JSON with pairs and domain")
    d.add_argument("--report", default=None)
    d.set_defaults(func=cmd_darboux)

    e = sub.add_parser("embedded", help="embedded-surface curvature table")
    e.add_argument("--surface", required=True,
                   choices=["plane", "sphere", "cylinder", "torus"])
    e.add_argument("--a", type=float, default=1.0, help="sphere radius")
    e.add_argument("--rmaj", type=float, default=2.0)
    e.add_argument("--rmin", type=float, default=0.5)
    e.add_argument("--samples", type=int, default=5)
    e.add_argument("--csv", default=None)
    e.add_argument("--report", default=None)
    e.set_defaults(func=cmd_embedded)
    return p


def _common_flags(sp):
    sp.add_argument("--scenario", default=None,
                    help="builtin scenario name (or use --input)")
    sp.add_argument("--input", default=None, help="scenario config JSON file")
    sp.add_argument("--k", default=None, help="wave vector, comma separated")
    sp.add_argument("--n", default=None, help="polarization vector, comma separated")
    sp.add_argument("--g", type=float, default=None, help="monopole strength")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--fd-step", type=float, default=None)
    sp.add_argument("--report", default=None, help="write the JSON report here")


def _vector(text):
    return [float(c) for c in text.split(",")]


def _resolve_config(args):
    cfg = {}
    if args.input:
        with open(args.input) as fh:
            cfg = json.load(fh)
    if args.scenario:
        cfg["scenario"] = args.scenario
    params = cfg.setdefault("params", {})
    if getattr(args, "k", None):
        params["k"] = _vector(args.k)
    if getattr(args, "n", None):
        params["n"] = _vector(args.n)
    if getattr(args, "g", None) is not None:
        params["g"] = args.g
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "fd_step", None) is not None:
        cfg["fd_step"] = args.fd_step
    if not params:
        cfg.pop("params")
    if "scenario" not in cfg:
        raise ConfigError("a scenario is required (--scenario or --input)")
    return validate_config(cfg)


def _report_skeleton(command, cfg):
    return {
        "tool": "bladegauge",
        "version": __version__,
        "command": command,
        "config": cfg,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(report, path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
    tol = _resolve_tolerances(cfg)
    checks = _generic_identity_checks(seed, tol=tol)
    checks += _embedded_cross_checks(tol)
    scenario = cfg["scenario"]
    params = cfg.get("params", {})
    extras = {}
    if scenario == "planewave":
        checks += _planewave_checks(params, tol)
    elif scenario == "monopole":
        more, extras = _monopole_checks(params, tol)
        checks += more
    elif scenario == "darboux":
        checks += _darboux_checks(params, tol)
    elif scenario == "pure_gauge":
        checks += _pure_gauge_checks(params, seed, tol)
    report = _report_skeleton("verify", cfg)
    report["checks"] = checks
    report.update(extras)
    report["all_passed"] = all(c["passed"] for c in checks)
    _emit(report, args.report)
    return 0 if report["all_passed"] else 1


def _resolve_tolerances(cfg):
    import dataclasses
    overrides = cfg.get("tolerances", {})
    known = {f.name for f in dataclasses.fields(TOL)}
    bad = set(overrides) - known
    if bad:
        raise ConfigError(f"unknown tolerance overrides: {sorted(bad)}",
                          schema_path=["tolerances"])
    return dataclasses.replace(TOL, **overrides)


def _generic_identity_checks(seed, n_frames=4, n_points=3, tol=TOL):
    rng = np.random.default_rng(seed)
    worst = {"reflection": 0.0, "hermiticity": 0.0, "trace": 0.0,
             "anticommute": 0.0, "covariant_constancy": 0.0,
             "four_way": 0.0, "gauge_invariance": 0.0,
             "gauge_covariance_F": 0.0, "curvature_blocks": 0.0}
    st = MINKOWSKI4
    for i in range(n_frames):
        N, n = (2, 1) if i % 2 == 0 else (4, 2)
        v = random_smooth_frame(st, N, n, seed=seed + 11 * i, amplitude=0.3)
        blade = blade_from_frame(v)
        s = shape_operator(blade)
        omega = blade_curvature(blade)
        u = random_gauge_map(st, n, seed=seed + 301 + i)
        vprime = v.V @ u.f.dagger()
        blade2 = blade_from_frame(Frame(st, N, n, vprime))
        s2 = shape_operator(blade2)
        a = extract_potential(v)
        fs = field_strength(a)
        fs2 = field_strength(gauge_transform(a, u))
        fs2_expect = gauge_transform_field_strength(fs, u)
        w = complement_field(v)
        from .gauge import gauge_potential
        cw = [(-1j) * (w.dagger() @ w.partial(mu)) for mu in range(st.dim)]
        g_fs = field_strength(gauge_potential(st, cw))
        pts = [rng.uniform(-0.5, 0.5, st.dim) for _ in range(n_points)]
        for x in pts:
            r = blade.at(x)
            worst["reflection"] = max(worst["reflection"], max_abs(r @ r - np.eye(N)))
            worst["hermiticity"] = max(worst["hermiticity"], max_abs(r - dagger(r)))
            worst["trace"] = max(worst["trace"], abs(np.trace(r).real - (2 * n - N)))
            for mu in range(st.dim):
                sv = s.at(x, mu)
                worst["anticommute"] = max(worst["anticommute"], max_abs(r @ sv + sv @ r))
                dr = blade.R.d(x, mu)
                worst["covariant_constancy"] = max(
                    worst["covariant_constancy"],
                    max_abs(dr + 1j * (sv @ r - r @ sv)))
                worst["gauge_invariance"] = max(worst["gauge_invariance"],
                                                max_abs(sv - s2.at(x, mu)))
            worst["gauge_invariance"] = max(worst["gauge_invariance"],
                                            max_abs(r - blade2.at(x)))
            _, disc = four_way(blade, x, 0, 2)
            worst["four_way"] = max(worst["four_way"], disc)
            vv = v.at(x)
            wv = w(x)
            for mu, nu in ((0, 1), (1, 3)):
                om = omega.at(x, mu, nu)
                worst["curvature_blocks"] = max(
                    worst["curvature_blocks"],
                    max_abs(fs.at(x, mu, nu) - dagger(vv) @ om @ vv),
                    max_abs(g_fs.at(x, mu, nu) - dagger(wv) @ om @ wv))
                worst["gauge_covariance_F"] = max(
                    worst["gauge_covariance_F"],
                    max_abs(fs2.at(x, mu, nu) - fs2_expect.at(x, mu, nu)))
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


def _embedded_cross_checks(tol=TOL):
    emb = sphere(1.0)
    rng = np.random.default_rng(17)
    worst_oracle = 0.0
    worst_ident = 0.0
    for _ in range(3):
        x = np.array([rng.uniform(0.5, np.pi - 0.5), rng.uniform(0, 2 * np.pi)])
        oracle = christoffel_riemann(lambda y: induced_metric(emb, y), x)
        k_oracle = oracle[0, 1, 0, 1] / float(np.linalg.det(induced_metric(emb, x)))
        worst_oracle = max(worst_oracle, abs(gauss_curvature(emb, x) - k_oracle))
        worst_ident = max(worst_ident,
                          max_abs(embedded_shape_identity_residual(emb, x, 0, 1)))
    return [
        _check("embedded_curvature_vs_christoffel_oracle", worst_oracle, 1e-6),
        _check("embedded_shape_identity", worst_ident, tol.fd()),
    ]


def _planewave_checks(params, tol=TOL):
    st = MINKOWSKI4
    k = np.asarray(params.get("k", [1, 0, 0, 1]), dtype=float)
    n = np.asarray(params.get("n", [0, 1, 0, 0]), dtype=float)
    p = em.plane_wave_params(st, k, n)
    a = em.plane_wave_potential(st, k, n)
    fs = em.em_faraday(p)
    rng = np.random.default_rng(5)
    pts = [rng.uniform(-1.0, 1.0, 4) for _ in range(6)]
    veq = max(em.em_potential_residual(p, a, mu, x) for x in pts for mu in range(4))
    # F wedge F, the 4-form obstruction to decomposability
    ff_vals = [two_form_values(fs, x) for x in pts]
    ff = max(abs(c) for vals in ff_vals for c in wedge(vals, vals).values())
    cond = abs(em.plane_wave_mod_condition(st, k, n))
    maxmod = max(max_abs(maxwell_mod_residual(p, x)) for x in pts[:3])
    checks = [
        _check("planewave_frame_equation_residual", veq, tol.fd()),
        _check("planewave_faraday_decomposable", ff, 1e-10),
        _check("planewave_modified_eom_residual", maxmod, tol.fd_nested(),
               expect_pass=cond <= 1e-12),
    ]
    kk = st.dot(k, k)
    kn = st.dot(k, n)
    if abs(kk) <= 1e-12 and abs(kn) <= 1e-12:
        ym = max(max_abs(ym_residual(a, nu, x)) for x in pts[:3] for nu in range(4))
        checks.append(_check("planewave_maxwell_residual", ym, tol.fd_nested()))
    return checks


def _monopole_checks(params, tol=TOL):
    g = float(params.get("g", 0.5))
    quantized = em.quantization_satisfied(g)
    rep = em.monopole_blade_glue(g)
    flux = sphere_flux(em.monopole_field_strength(g))
    flux_err = abs(flux - 4.0 * np.pi * g) / max(1.0, abs(4.0 * np.pi * g))
    veq = 0.0
    rng = np.random.default_rng(7)
    for patch in ("plus", "minus"):
        p = em.monopole_params(g, patch)
        a = em.monopole_potential(g, patch)
        for _ in range(5):
            x = np.array([1.0, rng.uniform(0.3, np.pi - 0.3), rng.uniform(0.0, 2 * np.pi)])
            veq = max(veq, max(em.em_potential_residual(p, a, mu, x) for mu in range(3)))
    # complementary connection on the plus patch: C = -A
    p = em.monopole_params(g, "plus")
    wfield = em.em_complement(p)
    a = em.monopole_potential(g, "plus")
    comp = 0.0
    for _ in range(4):
        x = np.array([1.0, rng.uniform(0.3, np.pi - 0.3), rng.uniform(0.0, 2 * np.pi)])
        for mu in range(3):
            c = -1j * (dagger(wfield(x)) @ wfield.d(x, mu))
            comp = max(comp, abs(complex(c[0, 0]) + complex(a.at(x, mu)[0, 0])))
    checks = [
        _check("monopole_frame_equation_residual", veq, tol.fd()),
        _check("monopole_flux_matches_4pi_g", flux_err, tol.flux_rel),
        _check("monopole_patch_gluing", rep.max_patch_mismatch, tol.gluing),
        _check("monopole_single_valuedness", rep.max_winding_mismatch, tol.gluing,
               expect_pass=quantized),
        _check("monopole_complementary_connection", comp, tol.fd()),
    ]
    extras = {"quantization_satisfied": quantized,
              "single_valued": rep.single_valued, "flux": flux}
    return checks, extras


def _darboux_checks(params, tol=TOL):
    data = load_darboux(params)
    rep = frame_residual_report(data)
    measured = verify_rank(data)
    return [
        _check("darboux_frame_equation_residual", rep["max_residual"], tol.fd()),
        _check("darboux_rank_matches_pairs", abs(measured - data.r), 0.5),
    ]


def _pure_gauge_checks(params, seed, tol=TOL):
    a = load_potential("pure_gauge", seed=params.get("seed", seed),
                       rank=params.get("rank", 2))
    fs = field_strength(a)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(4):
        x = rng.uniform(-0.5, 0.5, 4)
        for mu, nu in itertools.combinations(range(4), 2):
            worst = max(worst, max_abs(fs.at(x, mu, nu)))
    return [_check("pure_gauge_flatness", worst, tol.fd())]


# ---------------------------------------------------------------------------
# residuals

def _parse_grid(text, dim):
    if text is None:
        return Grid(lo=(0.0,) * dim, hi=(1.0,) * dim, cells=(3,) * dim)
    axes = text.split(",")
    lo, hi, cells = [], [], []
    for ax in axes:
        a, b, c = ax.split(":")
        lo.append(float(a))
        hi.append(float(b))
        cells.append(int(c))
    return Grid(lo=tuple(lo), hi=tuple(hi), cells=tuple(cells))


def cmd_residuals(args):
    cfg = _resolve_config(args)
    scenario = cfg["scenario"]
    if scenario not in RESIDUAL_SCENARIOS:
        raise ConfigError(f"residual sweeps support scenarios {RESIDUAL_SCENARIOS} "
                          f"(cartesian flat charts); got {scenario!r}")
    st = resolve_spacetime(cfg)
    grid = _parse_grid(args.grid, st.dim)
    points = list(grid.centers())
    eq = args.eq
    rows = []  # (point, index, norm)

    if eq in ("ym",):
        a = load_potential(cfg, st)
        fs = field_strength(a)
        for x in points:
            for nu in range(st.dim):
                rows.append((x, str(nu), max_abs(ym_residual(a, nu, x, fs))))
    elif eq == "modified":
        v = load_frame(cfg, st)
        for x in points:
            rows.append((x, "sum", max_abs(modified_eom_residual(v, x))))
    elif eq == "maxmod":
        if scenario != "planewave":
            raise ConfigError(f"--eq maxmod is the N = 2 electromagnetic plane-wave "
                              f"residual and needs scenario 'planewave'; got {scenario!r}")
        params = cfg.get("params", {})
        p = em.plane_wave_params(st, params.get("k", [1, 0, 0, 1]),
                                 params.get("n", [0, 1, 0, 0]))
        for x in points:
            rows.append((x, "sum", max_abs(maxwell_mod_residual(p, x))))
    elif eq == "shape":
        v = load_frame(cfg, st)
        for x in points:
            for nu in range(st.dim):
                rows.append((x, str(nu), max_abs(shape_gauge_ym_residual(v, x, nu))))
    else:  # sigma
        v = load_frame(cfg, st)
        blade = blade_from_frame(v)
        for x in points:
            rows.append((x, "sum", max_abs(sigma_eom_residual(blade, x))))

    norms = [r[2] for r in rows]
    report = _report_skeleton("residuals", cfg)
    report["equation"] = eq
    report["index_handling"] = INDEX_HANDLING_NOTE
    report["grid"] = {"lo": grid.lo, "hi": grid.hi, "cells": grid.cells}
    report["summary"] = {"max": max(norms), "mean": float(np.mean(norms)),
                         "count": len(norms)}
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i}" for i in range(st.dim)] + ["index", "norm"])
            for x, idx, nm in rows:
                writer.writerow([f"{c:.12g}" for c in x] + [idx, f"{nm:.12e}"])
    _emit(report, args.report)
    return 0


# ---------------------------------------------------------------------------
# sigma flow

def cmd_sigma_flow(args):
    if args.init:
        lat = _load_lattice(args.init)
        cfg = {"init": args.init}
    else:
        lo_frac, hi_frac = (float(t) for t in args.theta_band.split(":"))
        ct, cp = (int(t) for t in args.cells.split("x"))
        grid = Grid(lo=(lo_frac * np.pi, 0.0), hi=(hi_frac * np.pi, 2 * np.pi),
                    cells=(ct, cp))
        blade = em.monopole_blade(args.g)
        lat = blade_lattice_from_field(
            blade, grid, point_map=lambda p: np.array([1.0, p[0], p[1]]),
            periodic=(False, True), frozen_boundary_axes=(0,))
        cfg = {"g": args.g, "theta_band": args.theta_band, "cells": args.cells}
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
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def _load_lattice(path):
    from .dynamics import LatticeBlade
    with open(path) as fh:
        payload = json.load(fh)
    arr = np.asarray(payload["sites"], dtype=float)
    sites = arr[..., 0] + 1j * arr[..., 1]
    frozen = payload.get("frozen")
    return LatticeBlade(sites, tuple(payload["spacings"]),
                        tuple(bool(p) for p in payload["periodic"]),
                        None if frozen is None else np.asarray(frozen, dtype=bool))


# ---------------------------------------------------------------------------
# darboux

def cmd_darboux(args):
    with open(args.input) as fh:
        raw = json.load(fh)
    cfg = raw if "scenario" in raw else {"scenario": "darboux", "params": raw}
    validate_config(cfg)
    data = load_darboux(cfg.get("params", {}))
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

def cmd_embedded(args):
    if args.surface == "sphere":
        emb = sphere(args.a)
        u_range = (0.4, np.pi - 0.4)
        v_range = (0.0, 2 * np.pi)
    elif args.surface == "plane":
        emb = plane()
        u_range = v_range = (-1.0, 1.0)
    elif args.surface == "cylinder":
        emb = cylinder()
        u_range = (0.0, 2 * np.pi)
        v_range = (-1.0, 1.0)
    else:
        emb = torus(args.rmaj, args.rmin)
        u_range = v_range = (0.0, 2 * np.pi)
    us = np.linspace(*u_range, args.samples)
    vs = np.linspace(*v_range, args.samples)
    rows = []
    for u in us:
        for v in vs:
            x = np.array([u, v])
            k = gauss_curvature(emb, x)
            oracle = christoffel_riemann(lambda y: induced_metric(emb, y), x)
            g = induced_metric(emb, x)
            k_oracle = oracle[0, 1, 0, 1] / float(np.linalg.det(g))
            _, _, disc = embedded_curvature_paths(emb, x, 0, 1)
            ident = max_abs(embedded_shape_identity_residual(emb, x, 0, 1))
            rows.append((u, v, k, k_oracle, disc, ident))
    report = _report_skeleton("embedded", {"surface": args.surface, "a": args.a,
                                           "rmaj": args.rmaj, "rmin": args.rmin,
                                           "samples": args.samples})
    ks = [r[2] for r in rows]
    report["summary"] = {
        "gauss_mean": float(np.mean(ks)),
        "gauss_min": float(np.min(ks)),
        "gauss_max": float(np.max(ks)),
        "max_oracle_gap": float(np.max([abs(r[2] - r[3]) for r in rows])),
        "max_path_discrepancy": float(np.max([r[4] for r in rows])),
        "max_shape_identity_residual": float(np.max([r[5] for r in rows])),
    }
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["u", "v", "gauss_curvature", "gauss_oracle",
                             "curvature_path_discrepancy", "shape_identity_residual"])
            for row in rows:
                writer.writerow([f"{c:.12g}" for c in row])
    _emit(report, args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
