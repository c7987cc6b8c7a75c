import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bladegauge
from bladegauge.cli import main
from bladegauge.embedded import christoffel_gauss_curvature, gauss_curvature, sphere
from bladegauge.fields import MINKOWSKI4
from bladegauge.scenarios import EQUATIONS, SCENARIOS
from bladegauge.tolerances import DEFAULT as TOL


GRID4 = ",".join(["0:1:1"] * 4)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def canonical_without_timestamp(path):
    rep = read_json(path)
    rep.pop("timestamp")
    return json.dumps(rep, sort_keys=True)


def test_verify_monopole_quantized(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--scenario", "monopole", "--g", "0.5",
                 "--report", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["all_passed"] is True
    assert rep["quantization_satisfied"] is True
    assert rep["single_valued"] is True
    assert abs(rep["flux"] - 4 * np.pi * 0.5) < 0.005 * 4 * np.pi * 0.5
    names = {c["name"] for c in rep["checks"]}
    assert "curvature_four_way_agreement" in names
    assert "monopole_single_valuedness" in names


def test_verify_monopole_non_quantized_is_expected_fail(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--scenario", "monopole", "--g", "0.3",
                 "--report", str(out)])
    assert code == 0  # the failure is the expected outcome for 2g not integer
    rep = read_json(out)
    assert rep["quantization_satisfied"] is False
    assert rep["single_valued"] is False
    check = next(c for c in rep["checks"] if c["name"] == "monopole_single_valuedness")
    assert check["observed_pass"] is False
    assert check["expected_pass"] is False
    assert check["passed"] is True


def test_verify_planewave(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--scenario", "planewave", "--k", "1,0,0,1",
                 "--n", "0,1,0,0", "--report", str(out)])
    assert code == 0
    rep = read_json(out)
    names = {c["name"] for c in rep["checks"]}
    assert "planewave_maxwell_residual" in names
    assert "planewave_faraday_decomposable" in names


# every registry scenario at its defaults, and the two-pair darboux input
VERIFY_CONFIGS = {**{name: {"scenario": name} for name in SCENARIOS},
                  "darboux_two_pair": {"scenario": "darboux", "params": {"pairs": [
                      {"pi": "0.5*sin(x0)", "phi": "x1"}, {"pi": "0.4*cos(x2)", "phi": "x3"}]}}}


@pytest.mark.parametrize("config", list(VERIFY_CONFIGS))
def test_verify_reports_are_deterministic(config, tmp_path):
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps(VERIFY_CONFIGS[config]))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["verify", "--input", str(inp), "--seed", "7", "--report", str(out)]) == 0
        assert read_json(out)["all_passed"] is True
    assert canonical_without_timestamp(a) == canonical_without_timestamp(b)


GENERIC_CHECK_NAMES = [
    "blade_reflection_identity", "blade_hermiticity", "blade_trace",
    "shape_anticommutes_with_blade", "blade_covariantly_constant",
    "curvature_four_way_agreement", "gauge_invariance_of_blade_quantities",
    "field_strength_gauge_covariance", "curvature_block_structure",
    "embedded_curvature_vs_christoffel_oracle", "embedded_shape_identity",
]
DARBOUX_CHECK_NAMES = ["darboux_frame_equation_residual", "darboux_rank_matches_pairs"]
# each config's own checks after the generic ones, and its extra report keys
VERIFY_CHECK_NAMES = {
    "planewave": (["planewave_frame_equation_residual", "planewave_faraday_decomposable",
                   "planewave_modified_eom_residual", "planewave_maxwell_residual"], []),
    "monopole": (["monopole_frame_equation_residual", "monopole_flux_matches_4pi_g",
                  "monopole_patch_gluing", "monopole_single_valuedness",
                  "monopole_complementary_connection"],
                 ["flux", "quantization_satisfied", "single_valued"]),
    "pure_gauge": (["pure_gauge_flatness"], []),
    "constant_F": ([], []),
    "random_smooth": ([], []),
    "darboux": (DARBOUX_CHECK_NAMES, []),
    "darboux_two_pair": (DARBOUX_CHECK_NAMES, []),
}


@pytest.mark.parametrize("config", list(VERIFY_CONFIGS))
def test_verify_check_names_are_pinned(config, tmp_path):
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps(VERIFY_CONFIGS[config]))
    out = tmp_path / "rep.json"
    assert main(["verify", "--input", str(inp), "--report", str(out)]) == 0
    rep = read_json(out)
    names, extras = VERIFY_CHECK_NAMES[config]
    assert [c["name"] for c in rep["checks"]] == GENERIC_CHECK_NAMES + names
    common = {"tool", "version", "command", "config", "timestamp", "checks", "all_passed"}
    assert sorted(rep.keys() - common) == extras


def test_verify_includes_embedded_cross_check(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--scenario", "random_smooth", "--report", str(out)]) == 0
    names = {c["name"] for c in read_json(out)["checks"]}
    assert "embedded_curvature_vs_christoffel_oracle" in names
    assert "embedded_shape_identity" in names
    assert "curvature_block_structure" in names


def test_verify_seed_671_passes(tmp_path):
    # the greedy-pivot complement switched pivot inside its FD stencil at this seed,
    # so C = -i W^dag dW read about 1/(2h) and verify exited 2
    out = tmp_path / "report.json"
    assert main(["verify", "--scenario", "random_smooth", "--seed", "671",
                 "--report", str(out)]) == 0
    rep = read_json(out)
    assert rep["all_passed"] is True and all(c["passed"] for c in rep["checks"])


# an input too large for double precision exits 2 under either warning policy, with
# no traceback and no report, rather than crashing on the overflow's RuntimeWarning
@pytest.mark.parametrize("argv", [
    ["verify", "--k", "1e200,0,0,1e200"], ["verify", "--n", "0,1e200,0,0"],
    ["residuals", "--k", "1e200,0,0,1e200", "--eq", "ym", "--grid", GRID4],
], ids=["verify_k", "verify_n", "residuals_ym"])
@pytest.mark.parametrize("policy", ["error", "default"])
def test_overflowing_planewave_exits_2(argv, policy, tmp_path, capsys):
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter(policy, RuntimeWarning)
        assert main(argv[:1] + ["--scenario", "planewave", "--report", str(out)]
                    + argv[1:]) == 2
    err = capsys.readouterr().err
    assert "error: overflow encountered" in err and "too large for double precision" in err
    assert "Traceback" not in err and not out.exists()


# B = 0 is a valid zero field whose Darboux pair (0, x^2) looks dependent: the library
# warns, and a warning that the filters raise as an error exits 2 with its message and
# no report, where the default filters leave it a warning and let the run finish
@pytest.mark.parametrize("argv, cfg", [
    (["residuals", "--eq", "ym", "--grid", GRID4], {"scenario": "constant_F", "params": {"B": 0}}),
    (["residuals", "--eq", "modified", "--grid", GRID4],
     {"scenario": "constant_F", "params": {"B": 0}}),
    (["verify"], {"scenario": "darboux", "params": {"pairs": [{"pi": "x0", "phi": "x0"}]}}),
], ids=["constant_F_ym", "constant_F_modified", "verify_darboux"])
@pytest.mark.parametrize("policy", ["error", "default"])
def test_library_warning_exits_2_only_as_an_error(argv, cfg, policy, tmp_path, capsys):
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(policy, UserWarning)
        code = main(argv[:1] + ["--input", str(inp), "--report", str(out)] + argv[1:])
    message = "darboux functions look dependent (gradient rank 1)"
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if policy == "error":
        assert code == 2 and f"error: {message}" in err and not out.exists()
    else:
        assert code == 0 and read_json(out)
        assert message in [str(w.message) for w in caught]


def test_verify_tolerance_overrides(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"scenario": "monopole", "params": {"g": 0.5},
                                   "tolerances": {"analytic": 1e-16}}))
    out = tmp_path / "report.json"
    code = main(["verify", "--input", str(cfgfile), "--report", str(out)])
    rep = read_json(out)
    check = next(c for c in rep["checks"] if c["name"] == "blade_reflection_identity")
    assert check["threshold"] == 1e-16  # override applied; identities now fail
    assert code == 1
    # flux_rel and gluing are read too
    cfgfile.write_text(json.dumps({"scenario": "monopole",
                                   "tolerances": {"flux_rel": 0.25, "gluing": 1e-6}}))
    assert main(["verify", "--input", str(cfgfile), "--report", str(out)]) == 0
    thresholds = {c["name"]: c["threshold"] for c in read_json(out)["checks"]}
    assert thresholds["monopole_flux_matches_4pi_g"] == 0.25
    assert thresholds["monopole_patch_gluing"] == 1e-6
    # no check reads any other tolerance, so overriding one would change nothing
    bad = tmp_path / "bad.json"
    for knob in ("no_such_knob", "algebraic", "fd_step", "pole_guard", "gram_schmidt_pivot"):
        bad.write_text(json.dumps({"scenario": "monopole", "tolerances": {knob: 0.1}}))
        assert main(["verify", "--input", str(bad)]) == 2, knob


def test_residuals_fd_step_override(tmp_path):
    # a coarser step inflates the finite-difference residual of the
    # frame-variation equation in a visible, second-order way; the fixture is
    # a generic pair solving (k.k)(n.n) = (k.n)^2 (n = a k + b ell with ell
    # null and k-orthogonal), so the exact residual vanishes and only the
    # truncation error remains
    k = np.array([0.2, 1.0, 0.3, 0.4])
    a = (-0.6 + np.sqrt(0.36 - 4 * 0.96 * 0.05)) / (2 * 0.96)
    ell = np.array([np.hypot(a, 1.0), a, 1.0, 0.0])
    n = 0.7 * k + 0.8 * ell
    reports = {}
    # the coarse step once more through --fd-step, on a config without fd_step
    for tag, step, flags in (("fine", 1e-3, []), ("coarse", 2e-2, []),
                             ("coarse_flag", None, ["--fd-step", "2e-2"])):
        cfgfile = tmp_path / f"{tag}.json"
        cfg = {"scenario": "planewave", "params": {"k": list(k), "n": list(n)}}
        cfgfile.write_text(json.dumps(cfg if step is None else {**cfg, "fd_step": step}))
        out = tmp_path / f"{tag}_rep.json"
        assert main(["residuals", "--input", str(cfgfile), "--eq", "modified",
                     "--grid", "0:1:1,0:1:1,0:1:1,0:1:1",
                     "--report", str(out), *flags]) == 0
        reports[tag] = read_json(out)["summary"]
    assert reports["fine"]["max"] < 1e-6
    assert reports["coarse"]["max"] > 20 * reports["fine"]["max"]
    assert reports["coarse_flag"] == reports["coarse"]


def test_verify_rejects_unknown_scenario(capsys):
    code = main(["verify", "--scenario", "warp_drive"])
    assert code == 2
    assert "schema path" in capsys.readouterr().err


def test_verify_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["verify", "--input", str(bad)])
    assert code == 2


def test_verify_missing_scenario_is_usage_error(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["verify", "--input", str(empty)]) == 2


def test_residuals_planewave_ym(tmp_path):
    out = tmp_path / "rep.json"
    csv_path = tmp_path / "points.csv"
    code = main(["residuals", "--scenario", "planewave", "--k", "1,0,0,1",
                 "--n", "0,1,0,0", "--eq", "ym",
                 "--grid", "0:1:2,0:1:2,0:1:2,0:1:2",
                 "--csv", str(csv_path), "--report", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["summary"]["max"] <= 1e-9  # null transverse wave solves Maxwell
    assert rep["summary"]["count"] == 16 * 4
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "x2", "x3", "index", "norm"]
    assert len(rows) == 1 + 16 * 4


def test_residuals_modified_eq(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["residuals", "--scenario", "planewave", "--k", "0,1,0,0",
                 "--n", "1,0,1,0", "--eq", "modified",
                 "--grid", "0:1:2,0:1:2,0:1:2,0:1:2", "--report", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["summary"]["max"] <= 1e-4
    assert "nu-summed" in rep["index_handling"]


def test_residuals_reject_monopole_chart(tmp_path):
    code = main(["residuals", "--scenario", "monopole", "--eq", "ym"])
    assert code == 2


def test_darboux_command(tmp_path):
    inp = tmp_path / "twopair.json"
    inp.write_text(json.dumps({
        "pairs": [{"pi": "x0", "phi": "x1"}, {"pi": "x2", "phi": "x3"}],
        "domain": {"lo": [-0.8, -0.8, -0.8, -0.8], "hi": [0.8, 0.8, 0.8, 0.8]},
    }))
    out = tmp_path / "rep.json"
    code = main(["darboux", "--input", str(inp), "--report", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["N"] == 4
    assert rep["measured_rank"] == 1
    assert rep["max_residual"] <= 1e-5
    assert rep["near_singular_points"] == []


def test_darboux_command_default_pair_and_other_scenarios(tmp_path, capsys):
    inp = tmp_path / "cfg.json"
    inp.write_text("{}")
    out = tmp_path / "rep.json"
    assert main(["darboux", "--input", str(inp), "--report", str(out)]) == 0
    assert read_json(out)["N"] == 2
    inp.write_text(json.dumps({"scenario": "planewave"}))
    assert main(["darboux", "--input", str(inp)]) == 2
    assert "needs scenario 'darboux'" in capsys.readouterr().err


def test_embedded_command(tmp_path):
    out = tmp_path / "rep.json"
    csv_path = tmp_path / "table.csv"
    code = main(["embedded", "--surface", "sphere", "--a", "2",
                 "--samples", "3", "--csv", str(csv_path), "--report", str(out)])
    assert code == 0
    rep = read_json(out)
    assert abs(rep["summary"]["gauss_mean"] - 0.25) < 1e-6
    assert rep["summary"]["max_oracle_gap"] < 1e-6
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][2] == "gauss_curvature"
    assert len(rows) == 1 + 9
    # row 1 + 3 * 1 + 2 is (u, v) = (us[1], vs[2]); the stacked columns give the lone-point bits
    x = np.array([np.linspace(0.4, np.pi - 0.4, 3)[1], np.linspace(0.0, 2 * np.pi, 3)[2]])
    emb = sphere(2.0)
    assert rows[6][:4] == [f"{c:.12g}" for c in (*x, gauss_curvature(emb, x),
                                                 christoffel_gauss_curvature(emb, x))]


def test_sigma_flow_command(tmp_path):
    out = tmp_path / "rep.json"
    dump = tmp_path / "final.json"
    code = main(["sigma-flow", "--g", "0.5", "--steps", "30", "--eta", "0.002",
                 "--cells", "6x8", "--dump-final", str(dump),
                 "--report", str(out)])
    assert code == 0
    rep = read_json(out)
    assert rep["monotone_nonincreasing"] is True
    assert rep["final_reflection_defect"] < 1e-12
    trace = rep["energy_trace"]
    assert trace[-1] < trace[0]
    # restart from the dump: the energy continues from where it stopped
    out2 = tmp_path / "rep2.json"
    code = main(["sigma-flow", "--init", str(dump), "--steps", "5",
                 "--eta", "0.002", "--report", str(out2)])
    assert code == 0
    rep2 = read_json(out2)
    assert abs(rep2["energy_trace"][0] - trace[-1]) < 1e-9


@pytest.mark.parametrize("flag, value", [("--g", "1.5"), ("--cells", "9x9"),
                                         ("--theta-band", "0.1:0.2")])
def test_sigma_flow_band_flags_with_init_exit_2(flag, value, tmp_path, capsys):
    dump = tmp_path / "lat.json"
    assert main(["sigma-flow", "--cells", "4x6", "--steps", "1", "--dump-final", str(dump),
                 "--report", str(tmp_path / "first.json")]) == 0
    out = tmp_path / "rep.json"
    code = main(["sigma-flow", "--init", str(dump), "--steps", "1", flag, value,
                 "--report", str(out)])
    assert code == 2 and not out.exists()
    assert f"{flag} sets up the band fixture" in capsys.readouterr().err


# one field of a valid 4x6 dump changed; None drops the field
@pytest.mark.parametrize("key, value, message", [
    ("spacings", [0.0, 1.0], "finite positive spacings"),
    ("sites", None, "has no 'sites'"),
    ("periodic", [False], "periodic flags"),
    ("frozen", [1, 0, 0, 1], "frozen mask"),
    ("spacings", [0.2, -1.0], "finite positive spacings"),
    ("sites", [[[[[0.0, 1.0, 2.0]] * 2] * 2] * 6] * 4, "[re, im] leaves"),
    ("spacings", ["a", 1.0], "'spacings' must be a list of numbers"),
    ("periodic", 3, "'periodic' must be a list of true/false flags"),
    # 2 I is Hermitian with R^2 = 4 I; [[1, 1], [0, -1]] has R^2 = I but is not Hermitian
    ("sites", [[[[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]] * 6] * 4,
     "site [0, 0] is not a reflection"),
    ("sites", [[[[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]] * 6] * 4,
     "site [0, 0] is not Hermitian"),
    ("sites", [[["a"]]], "'sites' is not a numeric array"),
    ("sites", [[[[[0.0, 0.0]] * 3] * 2] * 6] * 4, "lattice sites must be shaped (*grid, N, N)"),
], ids=["zero_spacing", "no_sites", "one_periodic_flag", "frozen_wrong_shape",
        "negative_spacing", "sites_not_re_im", "spacing_not_a_number", "periodic_not_a_list",
        "sites_twice_identity", "sites_not_hermitian", "sites_not_numeric", "sites_not_square"])
def test_sigma_flow_malformed_lattice_file_exits_2(key, value, message, tmp_path, capsys):
    dump = tmp_path / "lat.json"
    assert main(["sigma-flow", "--cells", "4x6", "--steps", "1", "--dump-final", str(dump),
                 "--report", str(tmp_path / "first.json")]) == 0
    payload = read_json(dump)
    if value is None:
        del payload[key]
    else:
        payload[key] = value
    dump.write_text(json.dumps(payload))
    out = tmp_path / "rep.json"
    code = main(["sigma-flow", "--init", str(dump), "--steps", "1", "--report", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["5", "true", "null"],
                         ids=["top_level_number", "top_level_true", "top_level_null"])
def test_sigma_flow_lattice_file_not_an_object_exits_2(text, tmp_path, capsys):
    lat = tmp_path / "lat.json"
    lat.write_text(text)
    out = tmp_path / "rep.json"
    code = main(["sigma-flow", "--init", str(lat), "--steps", "1", "--report", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert "is not an object (schema path: )" in err and "Traceback" not in err


# the flags each surface reads; every other pairing exits 2
EMBEDDED_READS = {"plane": (), "sphere": ("a",), "cylinder": (), "torus": ("rmaj", "rmin")}


@pytest.mark.parametrize("flag", ["a", "rmaj", "rmin"])
@pytest.mark.parametrize("surface", list(EMBEDDED_READS))
def test_embedded_reads_only_its_surface_params(surface, flag, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["embedded", "--surface", surface, f"--{flag}", "1.5", "--samples", "2",
                 "--report", str(out)])
    if flag in EMBEDDED_READS[surface]:
        assert code == 0
        cfg = read_json(out)["config"]
        assert set(cfg) == {"surface", "samples", *EMBEDDED_READS[surface]}
        assert cfg[flag] == 1.5
    else:
        assert code == 2 and not out.exists()
        assert f"does not read --{flag}" in capsys.readouterr().err


def test_residuals_seed_selects_random_smooth_frame(tmp_path):
    def run(tag, seed):
        path = tmp_path / f"{tag}.csv"
        assert main(["residuals", "--scenario", "random_smooth", "--eq", "sigma",
                     "--grid", "0:1:1,0:1:1,0:1:1,0:1:1", "--seed", str(seed),
                     "--csv", str(path), "--report", str(tmp_path / f"{tag}.json")]) == 0
        return path.read_text()

    first = run("a", 3)
    assert run("b", 4) != first
    assert run("c", 3) == first


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("scenario", ["planewave", "constant_F", "darboux", "pure_gauge",
                                      "random_smooth"])
def test_residuals_seed_needs_a_seed_param(scenario, via_config, tmp_path, capsys):
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps({"scenario": scenario, "seed": 1}))
    source = ["--input", str(inp)] if via_config else ["--scenario", scenario, "--seed", "1"]
    out = tmp_path / "rep.json"
    code = main(["residuals", *source, "--eq", "sigma", "--grid", "0:1:1,0:1:1,0:1:1,0:1:1",
                 "--report", str(out)])
    if scenario in ("pure_gauge", "random_smooth"):
        assert code == 0
        assert read_json(out)["config"]["seed"] == 1
    else:
        assert code == 2 and not out.exists()
        assert "does not read 'seed'" in capsys.readouterr().err


def test_sigma_flow_large_lattice(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["sigma-flow", "--cells", "64x128", "--steps", "10",
                 "--report", str(out)])
    assert code == 0
    rep = read_json(out)
    trace = rep["energy_trace"]
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert rep["final_reflection_defect"] <= TOL.algebraic


@pytest.mark.parametrize("scenario", ["random_smooth", "darboux"])
def test_residuals_ym_on_frame_scenarios(scenario, tmp_path):
    # frame-only scenarios sweep the potential A = -i V^dag dV of their frame
    if scenario == "darboux":
        cfg = {"scenario": scenario, "params": {"pairs": [{"pi": "0.5*sin(x0)", "phi": "x1"}]}}
    else:
        cfg = {"scenario": scenario, "seed": 2}
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    code = main(["residuals", "--input", str(inp), "--eq", "ym",
                 "--grid", "0:1:1,0:1:1,0:1:1,0:1:1", "--report", str(out)])
    assert code == 0
    summary = read_json(out)["summary"]
    assert summary["count"] == 4
    assert np.isfinite(summary["max"]) and np.isfinite(summary["mean"])


def test_residuals_ym_vanishes_on_a_pure_gauge_frame(tmp_path):
    # F = 0 and the ym residual reads the frame's exact 2-jet, with no difference of F
    out = tmp_path / "rep.json"
    assert main(["residuals", "--scenario", "pure_gauge", "--eq", "ym",
                 "--report", str(out)]) == 0
    assert read_json(out)["summary"]["max"] <= 1e-12


def test_residuals_maxmod_is_no_longer_an_equation(capsys):
    # maxmod was 2 x modified on the N = 2 plane wave; argparse refuses the name
    with pytest.raises(SystemExit) as exit_:
        main(["residuals", "--scenario", "planewave", "--eq", "maxmod"])
    assert exit_.value.code == 2
    assert "invalid choice: 'maxmod'" in capsys.readouterr().err


def _residuals_refusal(scenario, eq):
    """The reason a residuals pair exits 2, or None where it must run.

    20 of the 24 pairs run; monopole x 4 exits 2.
    """
    if scenario == "monopole":
        return "flat Cartesian chart"
    return None


@pytest.mark.parametrize("eq", list(EQUATIONS))
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_residuals_matrix(scenario, eq, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["residuals", "--scenario", scenario, "--eq", eq,
                 "--grid", "0:1:1,0:1:1,0:1:1,0:1:1", "--report", str(out)])
    reason = _residuals_refusal(scenario, eq)
    if reason is None:
        assert code == 0
        summary = read_json(out)["summary"]
        assert summary["count"] == (4 if eq in ("ym", "shape") else 1)
        assert np.isfinite(summary["max"]) and np.isfinite(summary["mean"])
    else:
        assert code == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()


STACK_GRID = "0:1:2,0:0.5:1,0:0.5:1,0:1:2"  # four cells off the symmetric midpoints


def _residuals_point_loop(scenario, eq, path):
    """The residuals CSV of STACK_GRID written by a loop over its points."""
    from bladegauge.cli import _parse_grid
    from bladegauge.dynamics import (frame_ym_residual, modified_eom_residual,
                                     shape_gauge_ym_residual, sigma_eom_residual)
    from bladegauge.linalg import max_abs
    from bladegauge.scenarios import load_frame
    cfg = {"scenario": scenario}
    st = MINKOWSKI4
    nus = [str(nu) for nu in range(st.dim)]
    if eq == "ym":
        v = load_frame(cfg, st)
        labels, residual = nus, lambda x, nu: frame_ym_residual(v, x, int(nu))
    elif eq == "modified":
        v = load_frame(cfg, st)
        labels, residual = ["sum"], lambda x, _: modified_eom_residual(v, x)
    elif eq == "shape":
        v = load_frame(cfg, st)
        labels, residual = nus, lambda x, nu: shape_gauge_ym_residual(v, x, int(nu))
    elif eq == "sigma":
        v = load_frame(cfg, st)
        labels, residual = ["sum"], lambda x, _: sigma_eom_residual(v, x)
    else:
        raise AssertionError(f"no point-loop reference for --eq {eq!r}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(st.dim)] + ["index", "norm"])
        for x in _parse_grid(STACK_GRID).centers():
            for label in labels:
                writer.writerow([f"{c:.12g}" for c in x]
                                + [label, f"{max_abs(residual(x, label)):.12e}"])


@pytest.mark.parametrize("scenario,eq", [(s, e) for s in SCENARIOS for e in EQUATIONS
                                         if _residuals_refusal(s, e) is None])
def test_residuals_stacked_sweep_equals_point_loop(scenario, eq, tmp_path):
    # a four-cell grid, so the sweep evaluates real point stacks
    got, want = tmp_path / "stacked.csv", tmp_path / "loop.csv"
    assert main(["residuals", "--scenario", scenario, "--eq", eq, "--grid", STACK_GRID,
                 "--csv", str(got), "--report", str(tmp_path / "rep.json")]) == 0
    _residuals_point_loop(scenario, eq, want)
    assert got.read_bytes() == want.read_bytes()


def test_verify_planewave_honours_signature(tmp_path):
    reports = {}
    for tag, extra in (("minkowski", {}), ("euclidean", {"signature": [1, 1, 1, 1]})):
        cfgfile = tmp_path / f"{tag}.json"
        cfgfile.write_text(json.dumps({"scenario": "planewave", **extra}))
        out = tmp_path / f"{tag}_rep.json"
        assert main(["verify", "--input", str(cfgfile), "--report", str(out)]) == 0
        reports[tag] = {c["name"]: c for c in read_json(out)["checks"]}
    # k = (1, 0, 0, 1) is null only in Minkowski signature
    assert "planewave_maxwell_residual" in reports["minkowski"]
    assert "planewave_maxwell_residual" not in reports["euclidean"]
    mod = "planewave_modified_eom_residual"
    assert reports["minkowski"][mod]["expected_pass"] is True
    assert reports["euclidean"][mod]["expected_pass"] is False


@pytest.mark.parametrize("argv, path", [
    (["verify", "--scenario", "random_smooth", "--g", "0.5"], "params/g"),
    (["residuals", "--scenario", "random_smooth", "--g", "0.5", "--eq", "ym"], "params/g"),
    (["verify", "--scenario", "monopole", "--k", "1,0,0,1"], "params/k"),
    (["verify", "--scenario", "planewave", "--g", "0.5"], "params/g"),
])
def test_params_the_scenario_does_not_read_exit_2(argv, path, capsys):
    assert main(argv) == 2
    assert f"schema path: {path}" in capsys.readouterr().err


def test_signature_on_the_monopole_chart_exits_2(tmp_path, capsys):
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps({"scenario": "monopole", "signature": [1, 1, 1]}))
    assert main(["verify", "--input", str(inp)]) == 2
    assert "schema path: signature" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("grid", {"axes": [{"min": 0, "max": 1, "cells": 1}]}),
    ("output", "out.json"),
])
def test_config_keys_no_command_reads_exit_2(key, value, tmp_path, capsys):
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps({"scenario": "planewave", key: value}))
    assert main(["residuals", "--input", str(inp), "--eq", "ym",
                 "--grid", "0:1:1,0:1:1,0:1:1,0:1:1"]) == 2
    assert f"'{key}' was unexpected" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("verify", "fd_step", 2e-2),
    ("verify", "tabulated", {"axes": [[0.0, 1.0]], "values": []}),
    ("residuals", "tolerances", {"analytic": 1e-6}),
    ("darboux", "seed", 1),
    ("darboux", "fd_step", 2e-2),
    ("darboux", "tolerances", {"analytic": 1e-6}),
])
def test_config_keys_the_command_does_not_read_exit_2(command, key, value, tmp_path,
                                                      capsys):
    inp = tmp_path / "cfg.json"
    scenario = "darboux" if command == "darboux" else "planewave"
    inp.write_text(json.dumps({"scenario": scenario, key: value}))
    argv = [command, "--input", str(inp)]
    if command == "residuals":
        argv += ["--eq", "ym", "--grid", "0:1:1,0:1:1,0:1:1,0:1:1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"does not read '{key}'" in err and f"schema path: {key})" in err


TABLE = np.zeros((2, 2, 2, 2, 4, 1, 1, 2))  # a potential on [0, 1]^4, A_1 = 0.3
TABLE[..., 1, 0, 0, 0] = 0.3


# a tabulated potential, queried at a cell centre past x0 = 1 or by a finite-difference
# stencil that steps past the table's edge, or a table that does not fit the 4-d chart:
# one axis, a non-monotone axis, values without a matrix axis, no values, ragged values,
# or the potential's values read as a frame
@pytest.mark.parametrize("grid, table, eq, message", [
    ("0:2:2,0:1:2,0:1:2,0:1:2", {}, "ym",
     "queried at [1.5, 0.25, 0.25, 0.25], outside its table [[0.0, 1.0], "),
    ("0.999:1:1,0:1:2,0:1:2,0:1:2", {}, "ym",
     "queried at [1.0005, 0.25, 0.25, 0.25], outside its table [[0.0, 1.0], "),
    (GRID4, {"axes": [[0.0, 1.0]]}, "ym", "(schema path: tabulated/axes)"),
    (GRID4, {"axes": [[0.0, 1.0]] * 3 + [[1.0, 1.0]]}, "ym", "(schema path: tabulated/axes)"),
    (GRID4, {"values": TABLE[..., 0, :].tolist()}, "ym", "(schema path: tabulated/values)"),
    (GRID4, {"values": []}, "ym", "(schema path: tabulated/values)"),
    (GRID4, {"values": [[0.0, 1.0], [0.0]]}, "ym", "(schema path: tabulated/values)"),
    (GRID4, {}, "modified", "(schema path: tabulated/values)"),
], ids=["centre_outside", "stencil_outside", "one_axis", "axis_not_monotone",
        "values_without_a_matrix_axis", "values_empty", "values_ragged", "potential_as_frame"])
def test_residuals_outside_the_tabulated_box_exit_2(grid, table, eq, message, tmp_path,
                                                     capsys):
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps({"scenario": "planewave", "tabulated": {
        "axes": [[0.0, 1.0]] * 4, "values": TABLE.tolist(), **table}}))
    out = tmp_path / "rep.json"
    assert main(["residuals", "--input", str(inp), "--eq", eq, "--grid", grid,
                 "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and not out.exists()


def _frame_table(v):
    """A tabulated config whose frame is the N x n matrix v at every node of [0, 1]^4."""
    v = np.asarray(v, dtype=complex)
    values = np.broadcast_to(np.stack([v.real, v.imag], axis=-1), (2,) * 4 + v.shape + (2,))
    return {"scenario": "planewave",
            "tabulated": {"axes": [[0.0, 1.0]] * 4, "values": values.tolist()}}


# a table of N x n matrices without full column rank has no nearest frame to project
# to, and one with n > N cannot hold a frame at all
@pytest.mark.parametrize("eq", ["shape", "sigma", "modified"])
@pytest.mark.parametrize("v, message", [
    (np.zeros((2, 1)), "tabulated frame loses column rank at [0.25"),
    ([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]], "tabulated frame loses column rank at [0.25"),
    (np.ones((1, 2)), "need n <= N; got N = 1, n = 2 (schema path: tabulated/values)"),
], ids=["all_zero", "equal_columns", "n_above_N"])
def test_residuals_on_a_tabulated_frame_without_full_rank_exit_2(v, message, eq, tmp_path,
                                                                  capsys):
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps(_frame_table(v)))
    out, table = tmp_path / "rep.json", tmp_path / "points.csv"
    assert main(["residuals", "--input", str(inp), "--eq", eq, "--grid", ",".join(["0:1:2"] * 4),
                 "--report", str(out), "--csv", str(table)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err and not out.exists() and not table.exists()


# a config or params that is not a JSON object, a darboux domain off the chart's
# dimension, integers written as floats, and a chart too small for its scenario
@pytest.mark.parametrize("argv, text, path", [
    (["verify"], "[1, 2]", ""),
    (["verify", "--g", "0.5"], '{"scenario": "monopole", "params": [1]}', "params"),
    (["residuals", "--eq", "ym"], '{"scenario": "constant_F", "params": "B"}', "params"),
    (["darboux"], "5", "params"),
    (["darboux"], '{"pairs": [{"pi": "x0", "phi": "x1"}], "domain": {"lo": [0, 0], '
                  '"hi": [1, 1]}}', "params/domain"),
    (["verify"], '{"scenario": "darboux", "params": {"domain": {"lo": [-1, -1, -1], '
                 '"hi": [1, 1, 1, 1]}}}', "params/domain"),
    (["residuals", "--eq", "modified", "--grid", "0:1:1,0:1:1"],
     '{"scenario": "darboux", "signature": [1, -1], "params": {"domain": {"lo": [0, 0, 0, 0], '
     '"hi": [1, 1, 1, 1]}}}', "params/domain"),
    (["verify"], '{"scenario": "pure_gauge", "params": {"rank": 2.0}}', "params/rank"),
    (["residuals", "--eq", "ym", "--grid", GRID4], '{"scenario": "random_smooth", "seed": 1.0}',
     "seed"),
    (["verify"], '{"scenario": "pure_gauge", "signature": [1]}', "signature"),
    (["residuals", "--eq", "ym", "--grid", "0:1:1"],
     '{"scenario": "random_smooth", "signature": [1]}', "signature"),
    (["residuals", "--eq", "shape", "--grid", "0:1:1"],
     '{"scenario": "random_smooth", "signature": [1]}', "signature"),
    (["residuals", "--eq", "sigma", "--grid", "0:1:1"],
     '{"scenario": "constant_F", "signature": [1]}', "signature"),
    (["residuals", "--eq", "ym", "--grid", "0:1:1,0:1:1"],
     '{"scenario": "constant_F", "signature": [1, 1]}', "signature"),
    (["residuals", "--eq", "modified", "--grid", "0:1:1,0:1:1"],
     '{"scenario": "constant_F", "signature": [1, 1]}', "signature"),
    (["verify", "--k", "1,0,0"], '{"scenario": "planewave"}', "params/k"),
    (["verify"], '{"scenario": "planewave", "signature": [1, -1]}', "signature"),
    (["residuals", "--eq", "ym", "--grid", "0:1:1,0:1:1"],
     '{"scenario": "planewave", "signature": [1, -1], "params": {"k": [1, 1], "n": [0, 1, 0]}}',
     "params/n"),
], ids=["root_array", "params_array_with_flag", "params_string", "darboux_root_number",
        "darboux_domain_2d", "verify_domain_lo_3d", "residuals_domain_4d_on_2d",
        "verify_rank_float", "residuals_seed_float", "pure_gauge_1_axis",
        "random_smooth_ym_1_axis", "random_smooth_shape_1_axis", "constant_F_1_axis",
        "constant_F_ym_2_axes", "constant_F_modified_2_axes", "planewave_k_3_on_4_axes",
        "planewave_default_k_on_2_axes", "planewave_n_3_on_2_axes"])
def test_malformed_config_values_exit_2(argv, text, path, tmp_path, capsys):
    inp = tmp_path / "cfg.json"
    inp.write_text(text)
    assert main(argv[:1] + ["--input", str(inp)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert f"(schema path: {path})" in err and "Traceback" not in err


@pytest.mark.parametrize("scenario", ["random_smooth", "pure_gauge"])
@pytest.mark.parametrize("argv", [["verify"], ["residuals", "--eq", "modified", "--grid", GRID4]],
                         ids=["verify", "residuals"])
def test_rank_above_ambient_exits_2(scenario, argv, tmp_path, capsys):
    # the default rank 2 on a one-dimensional ambient space
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps({"scenario": scenario, "params": {"ambient": 1}}))
    out = tmp_path / "report.json"
    assert main(argv[:1] + ["--input", str(inp), "--report", str(out)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert "rank 2 exceeds ambient 1" in err and "(schema path: params/rank)" in err
    assert "Traceback" not in err and not out.exists()


# configs are checked against the scenario registry, with no schema library, and
# scipy (tabulated fields) is imported on use: importing the CLI is its start-up cost
@pytest.mark.parametrize("library", ["jsonschema", "scipy"])
def test_cli_import_leaves_jsonschema_unloaded(library):
    src = str(Path(bladegauge.__file__).resolve().parents[1])
    code = f"import sys, bladegauge.cli; print([m for m in sys.modules if {library!r} in m])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_verify_has_no_fd_step_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scenario", "planewave", "--fd-step", "2e-2"])
    assert exc.value.code == 2
    assert "--fd-step" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["residuals", "--scenario", "planewave", "--eq", "ym", "--grid", "0:1"],
    ["residuals", "--scenario", "planewave", "--eq", "ym", "--grid", "a:1:1,0:1:1,0:1:1,0:1:1"],
    ["residuals", "--scenario", "planewave", "--eq", "ym", "--grid", "0:1:0,0:1:1,0:1:1,0:1:1"],
    ["residuals", "--scenario", "planewave", "--eq", "ym", "--grid", "0:1:1,0:1:1,0:1:1"],
    ["residuals", "--scenario", "planewave", "--eq", "ym", "--grid", GRID4, "--k", "1,a,0,1"],
    ["verify", "--scenario", "planewave", "--n", "0,1,,0"],
    ["sigma-flow", "--cells", "10", "--steps", "1"],
    ["sigma-flow", "--theta-band", "0.3", "--steps", "1"],
    ["sigma-flow", "--steps", "-3"],
    ["sigma-flow", "--steps", "1", "--eta", "nan"],
    ["embedded", "--surface", "sphere", "--samples", "0"],
    ["embedded", "--surface", "sphere", "--samples", "-2"],
    ["residuals", "--scenario", "planewave", "--eq", "ym", "--grid", "nan:1:1" + GRID4[5:]],
    ["residuals", "--scenario", "planewave", "--eq", "ym", "--grid", GRID4, "--k", "1,inf,0,1"],
    ["verify", "--scenario", "monopole", "--g", "nan"],
    ["verify", "--scenario", "monopole", "--g", "inf"],
    ["embedded", "--surface", "sphere", "--a", "nan"],
    ["embedded", "--surface", "torus", "--rmin", "inf"],
    ["sigma-flow", "--theta-band", "0.3:nan", "--steps", "1"],
    ["sigma-flow", "--theta-band", "0.65:0.35", "--cells", "6x8", "--steps", "3"],
    ["sigma-flow", "--theta-band", "0.5:0.5", "--cells", "6x8", "--steps", "3"],
    ["sigma-flow", "--theta-band", "0.3:1.4", "--cells", "6x8", "--steps", "3"],
], ids=["grid_two_fields", "grid_not_a_number", "grid_zero_cells", "grid_three_axes",
        "k_not_a_number", "n_empty_entry", "cells_one_count", "theta_band_one_bound",
        "negative_steps", "eta_nan", "zero_samples", "negative_samples", "grid_nan",
        "k_inf", "g_nan", "g_inf", "radius_nan", "rmin_inf", "theta_band_nan",
        "theta_band_decreasing", "theta_band_empty", "theta_band_past_pi"])
def test_malformed_cli_specs_exit_2(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("verify", '{"scenario": "monopole", "params": {"g": NaN}}'),
    ("verify", '{"scenario": "monopole", "params": {"g": -Infinity}}'),
    ("residuals", '{"scenario": "constant_F", "params": {"B": 1e999}}'),
    ("darboux", '{"pairs": [{"pi": "0.5*sin(x0)", "phi": "x1"}], '
                '"domain": {"lo": [NaN, 0, 0, 0], "hi": [1, 1, 1, 1]}}'),
    ("sigma-flow", '{"sites": [[NaN]]}'),
    ("verify", '{"scenario": "monopole", "params": {"g": 1' + "0" * 400 + '}}'),
    ("verify", '{"scenario": "monopole", "seed": 1' + "0" * 5000 + '}'),
], ids=["verify_nan", "verify_minus_infinity", "residuals_overflow", "darboux_nan",
        "lattice_nan", "verify_int_overflow", "verify_int_past_digit_limit"])
def test_non_finite_json_numbers_exit_2(command, text, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(text)
    flag = "--init" if command == "sigma-flow" else "--input"
    argv = [command, flag, str(path)] + (["--eq", "ym"] if command == "residuals" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "is not a finite number" in err and "Traceback" not in err


@pytest.mark.parametrize("pi", ["0.5*1e", "(" * 300 + "x0" + ")" * 300],
                         ids=["bad_literal", "300_parens"])
def test_darboux_malformed_expression_exits_2(pi, tmp_path, capsys):
    inp = tmp_path / "pairs.json"
    inp.write_text(json.dumps({"pairs": [{"pi": pi, "phi": "x1"}]}))
    assert main(["darboux", "--input", str(inp)]) == 2
    assert "cannot parse expression" in capsys.readouterr().err


# a pi that is NaN on part of the domain box, or on all of it: every command that reads
# the pair refuses it, where it used to print NaN residuals or crash in an SVD
@pytest.mark.parametrize("command", [
    ["darboux"], ["verify"], ["residuals", "--eq", "ym", "--grid=-0.5:0.5:2,0:1:1,0:1:1,0:1:1"],
], ids=["darboux", "verify", "residuals"])
@pytest.mark.parametrize("pi", ["0.5*sqrt(x0)", "sqrt(x0-5)"], ids=["partly_nan", "all_nan"])
def test_darboux_pi_that_is_not_finite_exits_2(command, pi, tmp_path, capsys):
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps({"scenario": "darboux",
                               "params": {"pairs": [{"pi": pi, "phi": "x1"}]}}))
    out = tmp_path / "rep.json"
    assert main(command[:1] + ["--input", str(inp), "--report", str(out)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert "error: pi_0 is not finite at [" in err
    assert "Traceback" not in err and not out.exists()


# a phi that is NaN on part of the domain box, or on all of it, is refused the same
# way, before the rank check's SVD or a report could meet the NaN
@pytest.mark.parametrize("command", [
    ["darboux"], ["verify"], ["residuals", "--eq", "ym", "--grid=-0.5:0.5:2,0:1:1,0:1:1,0:1:1"],
], ids=["darboux", "verify", "residuals"])
@pytest.mark.parametrize("phi", ["sqrt(x0)", "sqrt(x0-5)"], ids=["partly_nan", "all_nan"])
def test_darboux_phi_that_is_not_finite_exits_2(command, phi, tmp_path, capsys):
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps({"scenario": "darboux",
                               "params": {"pairs": [{"pi": "0.5*sin(x0)", "phi": phi}]}}))
    out = tmp_path / "rep.json"
    assert main(command[:1] + ["--input", str(inp), "--report", str(out)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert "error: phi_0 is not finite at [" in err
    assert "Traceback" not in err and not out.exists()


# strict JSON (RFC 8259) has no NaN or Infinity: a report that holds one is refused,
# and neither it nor the CSV is written
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "infinity"])
def test_report_with_a_non_finite_number_exits_2(bad, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(EQUATIONS, "ym",
                        lambda cfg, st, pts: {"0": np.full((len(pts), 1, 1), bad)})
    out, table = tmp_path / "rep.json", tmp_path / "points.csv"
    assert main(["residuals", "--scenario", "planewave", "--eq", "ym", "--grid", GRID4,
                 "--report", str(out), "--csv", str(table)]) == 2
    err = capsys.readouterr().err
    assert "error: report entry summary/max is not a finite number" in err
    assert "Traceback" not in err and not out.exists() and not table.exists()
