"""The benchmark's own tests.  Each oracle passes a real CLI output and
rejects a corrupted copy of it; the tracer wraps every binding, restores
every original, and reports a missing wrap target as an absent metric.
Kept out of the repository's test suite on purpose (the file name does not
match ``test_*.py``); run it by path:

    python3 -m pytest -q perfbench/selftest.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import bladegauge.cli as cli  # noqa: E402
from bladegauge import blade, dynamics, errors, fields, linalg  # noqa: E402
import oracles  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from tracing import PER_LAYER, Tracer, per_layer_metrics  # noqa: E402

FRAME_SEED = 5
ONE_CELL = ",".join(["0:1:1"] * 4)


def _run(argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def residuals(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("residuals")
    cfg = tmp / "input.json"
    cfg.write_text(json.dumps({"scenario": "random_smooth",
                               "params": {"seed": FRAME_SEED, "ambient": 4, "rank": 2}}))
    out = {}
    for eq in ("modified", "shape"):
        report, table = tmp / f"{eq}.json", tmp / f"{eq}.csv"
        _run(["residuals", "--input", cfg, "--eq", eq, "--grid", ONE_CELL,
              "--csv", table, "--report", report])
        out[eq] = (json.loads(report.read_text()), table.read_text())
    return out


def _residual_failures(eq, report, csv_text):
    return oracles.residual_failures(report, csv_text, eq, FRAME_SEED, 4, 2, pick_seed=0)


def _scale_norms(report, csv_text, factor):
    """Scale every norm consistently in the CSV and in the summary."""
    lines = csv_text.splitlines()
    rows = [line.rsplit(",", 1) for line in lines[1:]]
    scaled = [f"{head},{float(norm) * factor:.12e}" for head, norm in rows]
    report = copy.deepcopy(report)
    report["summary"]["max"] *= factor
    report["summary"]["mean"] *= factor
    return report, "\n".join([lines[0], *scaled]) + "\n"


@pytest.mark.parametrize("eq", ["modified", "shape"])
def test_residual_oracle_accepts_real_output(residuals, eq):
    assert _residual_failures(eq, *residuals[eq]) == []


@pytest.mark.parametrize("eq", ["modified", "shape"])
def test_residual_oracle_rejects_wrong_norms(residuals, eq):
    report, csv_text = _scale_norms(*residuals[eq], factor=2.0)
    assert any("FD-only oracle" in f for f in _residual_failures(eq, report, csv_text))


def test_residual_oracle_rejects_summary_mismatch(residuals):
    report, csv_text = residuals["shape"]
    report = copy.deepcopy(report)
    report["summary"]["max"] *= 1.5
    assert any("summary max" in f for f in _residual_failures("shape", report, csv_text))


def test_residual_oracle_rejects_missing_row(residuals):
    report, csv_text = residuals["shape"]
    truncated = "\n".join(csv_text.splitlines()[:-1]) + "\n"
    assert any("CSV rows" in f for f in _residual_failures("shape", report, truncated))


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("flow")
    report, dump = tmp / "flow.json", tmp / "final.json"
    _run(["sigma-flow", "--g", "0.5", "--cells", "6x8", "--steps", "10",
          "--dump-final", dump, "--report", report])
    return json.loads(report.read_text()), json.loads(dump.read_text())


def test_sigma_flow_oracle_accepts_real_output(flow):
    assert oracles.sigma_flow_failures(*flow, steps=10) == []


def test_sigma_flow_oracle_rejects_energy_rise(flow):
    report, dump = copy.deepcopy(flow)
    report["energy_trace"][5] = report["energy_trace"][3] * 1.01
    assert any("rises" in f for f in oracles.sigma_flow_failures(report, dump, 10))


def test_sigma_flow_oracle_rejects_flat_trace(flow):
    report, dump = copy.deepcopy(flow)
    report["energy_trace"] = [report["energy_trace"][-1]] * 11
    assert any("did not drop" in f for f in oracles.sigma_flow_failures(report, dump, 10))


def test_sigma_flow_oracle_rejects_reflection_defect(flow):
    report, dump = copy.deepcopy(flow)
    report["final_reflection_defect"] = 1e-6
    assert any("reflection" in f for f in oracles.sigma_flow_failures(report, dump, 10))


def test_sigma_flow_oracle_rejects_dump_mismatch(flow):
    report, dump = copy.deepcopy(flow)
    site = dump["sites"][2][3]
    site[0][0][0], site[1][1][0] = site[1][1][0], site[0][0][0]
    assert any("dumped lattice energy" in f
               for f in oracles.sigma_flow_failures(report, dump, 10))


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    report = tmp_path_factory.mktemp("verify") / "verify.json"
    _run(["verify", "--scenario", "monopole", "--g", "0.3", "--seed", "1",
          "--report", report])
    return json.loads(report.read_text())


def test_verify_oracle_accepts_real_output(verify_report):
    assert oracles.verify_failures(verify_report, 0) == []


def test_verify_oracle_rejects_failed_check(verify_report):
    report = copy.deepcopy(verify_report)
    report["checks"][0]["passed"] = False
    assert oracles.verify_failures(report, 0) != []


def test_verify_oracle_rejects_exit_code(verify_report):
    assert oracles.verify_failures(verify_report, 1) != []


def test_verify_oracle_rejects_empty_report(verify_report):
    report = dict(verify_report, checks=[])
    assert oracles.verify_failures(report, 0) != []


def test_only_the_timestamp_may_differ(verify_report):
    text = json.dumps(verify_report, indent=2, sort_keys=True)
    later = text.replace(verify_report["timestamp"], "2099-01-01T00:00:00+00:00")
    assert later != text
    assert oracles.without_timestamp(later) == oracles.without_timestamp(text)
    changed = text.replace('"all_passed": true', '"all_passed": false')
    assert oracles.without_timestamp(changed) != oracles.without_timestamp(text)


def _traced_shape_op(tmp_path, tracer):
    cfg = tmp_path / "input.json"
    cfg.write_text(json.dumps({"scenario": "random_smooth", "params": {"seed": 1}}))
    tracer.install()
    try:
        tracer.begin_op("shape")
        _run(["residuals", "--input", cfg, "--eq", "shape", "--grid", ONE_CELL,
              "--report", tmp_path / "shape.json"])
        tracer.end_op(0)
    finally:
        tracer.uninstall()
    return tracer.summarize()


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    originals = (dynamics.shape_gauge_ym_residual, linalg.unitary_exp,
                 fields.FieldFn.d, np.linalg.eigh)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.shape_gauge_ym_residual is dynamics.shape_gauge_ym_residual
        assert dynamics.shape_gauge_ym_residual.__wrapped__ is originals[0]
        assert linalg.unitary_exp.__wrapped__ is originals[1]
        assert blade.unitary_exp is linalg.unitary_exp
    finally:
        tracer.uninstall()
    assert (dynamics.shape_gauge_ym_residual, linalg.unitary_exp,
            fields.FieldFn.d, np.linalg.eigh) == originals
    assert cli.shape_gauge_ym_residual is originals[0]
    assert "__init__" not in vars(errors.BladeGaugeError)


def test_tracer_records_spans_and_counts(tmp_path):
    tracer = Tracer()
    per_op = _traced_shape_op(tmp_path, tracer)
    rec = per_op[0]
    assert rec["calls"]["cli.main"] == 1
    assert rec["calls"]["dynamics.shape_gauge_ym_residual"] == 4
    assert rec["counts"]["eigh_matrices"] >= rec["counts"]["eigh_distinct_inputs"] > 0
    assert rec["self"]["cli"] > 0 and rec["self"]["linalg"] > 0
    metrics, absent = per_layer_metrics(tracer, per_op, 0.1)
    assert absent == []
    assert metrics["dynamics.residual_point_s"]["value"] > 0


def test_missing_wrap_target_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(linalg, "unitary_exp_frechet")
    monkeypatch.delattr(dynamics, "sigma_flow")
    tracer = Tracer()
    per_op = _traced_shape_op(tmp_path, tracer)
    metrics, absent = per_layer_metrics(tracer, per_op, 0.1)
    assert {"linalg.unitary_exp_frechet_calls", "dynamics.flow_step_s",
            "dynamics.site_update_s"} <= set(absent)
    assert not set(absent) & set(metrics)
    assert "linalg.eigh_matrices" in metrics


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in PER_LAYER.items()}
