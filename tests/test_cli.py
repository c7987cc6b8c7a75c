import csv
import json

import numpy as np
import pytest

from bladegauge.cli import main
from bladegauge.tolerances import DEFAULT as TOL


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


def test_verify_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["verify", "--scenario", "monopole", "--g", "0.5", "--seed", "7",
          "--report", str(a)])
    main(["verify", "--scenario", "monopole", "--g", "0.5", "--seed", "7",
          "--report", str(b)])
    assert canonical_without_timestamp(a) == canonical_without_timestamp(b)


def test_verify_includes_embedded_cross_check(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--scenario", "random_smooth", "--report", str(out)]) == 0
    names = {c["name"] for c in read_json(out)["checks"]}
    assert "embedded_curvature_vs_christoffel_oracle" in names
    assert "embedded_shape_identity" in names
    assert "curvature_block_structure" in names


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
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "monopole",
                               "tolerances": {"no_such_knob": 1.0}}))
    assert main(["verify", "--input", str(bad)]) == 2


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
    for tag, step in (("fine", 1e-3), ("coarse", 2e-2)):
        cfgfile = tmp_path / f"{tag}.json"
        cfgfile.write_text(json.dumps({
            "scenario": "planewave", "fd_step": step,
            "params": {"k": list(k), "n": list(n)}}))
        out = tmp_path / f"{tag}_rep.json"
        assert main(["residuals", "--input", str(cfgfile), "--eq", "modified",
                     "--grid", "0:1:1,0:1:1,0:1:1,0:1:1",
                     "--report", str(out)]) == 0
        reports[tag] = read_json(out)["summary"]["max"]
    assert reports["fine"] < 1e-6
    assert reports["coarse"] > 20 * reports["fine"]


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


@pytest.mark.parametrize("scenario", ["pure_gauge", "constant_F", "random_smooth", "darboux"])
def test_residuals_maxmod_needs_planewave(scenario, capsys):
    code = main(["residuals", "--scenario", scenario, "--eq", "maxmod",
                 "--grid", "0:1:1,0:1:1,0:1:1,0:1:1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "maxmod" in err and "planewave" in err and repr(scenario) in err


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
    cfg = {"scenario": scenario, "seed": 2}
    if scenario == "darboux":
        cfg["params"] = {"pairs": [{"pi": "0.5*sin(x0)", "phi": "x1"}]}
    inp = tmp_path / "cfg.json"
    inp.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    code = main(["residuals", "--input", str(inp), "--eq", "ym",
                 "--grid", "0:1:1,0:1:1,0:1:1,0:1:1", "--report", str(out)])
    assert code == 0
    summary = read_json(out)["summary"]
    assert summary["count"] == 4
    assert np.isfinite(summary["max"]) and np.isfinite(summary["mean"])
