from pathlib import Path

import numpy as np
import pytest

from bladegauge.blade import extract_potential, validate_frame
from bladegauge.errors import ConfigError, ParameterError
from bladegauge.fields import MINKOWSKI4, SPHERICAL3, euclidean
from bladegauge.gauge import field_strength
from bladegauge.linalg import max_abs
from bladegauge.scenarios import (EQUATIONS, PARAM_TYPES, SCENARIOS, constant_f_potential,
                                  load_frame, load_potential, resolve_spacetime,
                                  tabulated_field, validate_config)
from bladegauge.tolerances import DEFAULT as TOL


def test_validate_config_accepts_good_configs():
    validate_config({"scenario": "planewave",
                     "params": {"k": [1, 0, 0, 1], "n": [0, 1, 0, 0]}})
    validate_config({"scenario": "monopole", "params": {"g": 0.5}, "seed": 3})
    validate_config({"scenario": "darboux",
                     "params": {"pairs": [{"pi": "x0", "phi": "x1"}],
                                "domain": {"lo": [-1, -1, -1, -1],
                                           "hi": [1, 1, 1, 1]}}})
    validate_config({"scenario": "planewave", "signature": [1, -1], "fd_step": 1e-3,
                     "tabulated": {"axes": [[0.0, 1.0], [1.0, 0.5, 0.0]], "values": []}})
    validate_config({"scenario": "random_smooth", "seed": 1,
                     "params": {"seed": 0, "rank": 1, "ambient": 3}})


def test_schema_rejects_bad_configs():
    with pytest.raises(ConfigError) as err:
        validate_config({"scenario": "warp_drive"})
    assert err.value.schema_path == ["scenario"]
    with pytest.raises(ConfigError):
        validate_config({"scenario": "monopole", "params": {"g": "half"}})
    with pytest.raises(ConfigError):
        validate_config({"scenario": "planewave", "extra_key": 1})


def test_resolve_spacetime():
    assert resolve_spacetime({"scenario": "monopole"}) is SPHERICAL3
    assert resolve_spacetime({"scenario": "planewave"}) is MINKOWSKI4
    st = resolve_spacetime({"scenario": "planewave", "signature": [1, -1]})
    assert st.dim == 2


def test_load_potential_builtins(points4):
    a = load_potential("planewave", k=[1, 0, 0, 1], n=[0, 1, 0, 0])
    x = points4[0]
    assert abs(a.at(x, 1)[0, 0] - np.sin(x[0] + x[3])) < 1e-12
    ap = load_potential("monopole", g=0.5)
    assert abs(ap.at(np.array([1.0, np.pi / 2, 0.1]), 2)[0, 0] - 0.5) < 1e-13
    apure = load_potential("pure_gauge", seed=4, rank=2)
    fs = field_strength(apure)
    assert max_abs(fs.at(x, 0, 1)) < 1e-5
    with pytest.raises(ParameterError):
        load_potential("nope")


def test_constant_f_builtin(points4):
    a = constant_f_potential(MINKOWSKI4, 2.0)
    fs = field_strength(a)
    for x in points4[:2]:
        assert abs(fs.at(x, 1, 2)[0, 0] - 2.0) < 1e-9
        assert abs(fs.at(x, 0, 3)[0, 0]) < 1e-12


def test_load_frame_builtins(points4):
    v = load_frame("planewave", k=[1, 0, 0, 1], n=[0, 1, 0, 0])
    validate_frame(v, points4[0])
    vm = load_frame("monopole", g=0.5)
    validate_frame(vm, np.array([1.0, 1.0, 2.0]))
    vr = load_frame("random_smooth", ambient=4, rank=2, seed=1)
    assert vr.shape == (4, 2)
    vd = load_frame({"scenario": "darboux",
                     "params": {"pairs": [{"pi": "x0", "phi": "x1"}],
                                "domain": {"lo": [-0.8] * 4, "hi": [0.8] * 4}}})
    assert vd.shape[0] == 2
    with pytest.raises(ParameterError):
        load_frame("nope")


def test_tabulated_field_interpolation():
    axes = [np.linspace(0, 1, 9), np.linspace(0, 1, 9)]
    grid_vals = np.zeros((9, 9, 2))
    for i, u in enumerate(axes[0]):
        for j, w in enumerate(axes[1]):
            grid_vals[i, j] = [u + 2 * w, 0.0]
    f = tabulated_field(axes, grid_vals, euclidean(2), ())
    assert abs(f(np.array([0.25, 0.5])) - 1.25) < 1e-12


def test_tabulated_potential_and_frame_roundtrip():
    # tabulate the plane-wave potential on a coarse grid; the loader must give
    # back a hermitian interpolant close to the original
    st2 = euclidean(2)
    axes = [np.linspace(-1, 1, 21), np.linspace(-1, 1, 21)]
    vals = np.zeros((21, 21, 2, 1, 1, 2))
    for i, t in enumerate(axes[0]):
        for j, y in enumerate(axes[1]):
            a_val = np.sin(t + y)
            vals[i, j, 1, 0, 0] = [a_val, 0.0]
    cfg = {"scenario": "planewave", "signature": [1, -1],
           "tabulated": {"axes": [list(a) for a in axes], "values": vals.tolist()}}
    a = load_potential(cfg)
    x = np.array([0.3, 0.4])
    assert abs(a.at(x, 1)[0, 0] - np.sin(0.7)) < 5e-3

    vframe = np.zeros((21, 21, 2, 1, 2))
    for i, t in enumerate(axes[0]):
        for j, y in enumerate(axes[1]):
            vframe[i, j, :, 0] = [[np.cos(0.3 * t), 0.0], [np.sin(0.3 * t), 0.0]]
    cfgf = {"scenario": "planewave", "signature": [1, -1],
            "tabulated": {"axes": [list(a) for a in axes], "values": vframe.tolist()}}
    v = load_frame(cfgf)
    validate_frame(v, x)  # polar projection restores orthonormality exactly


def test_fd_step_is_wired_through_loaders():
    cfg = {"scenario": "planewave", "fd_step": 5e-3,
           "params": {"k": [1, 0, 0, 1], "n": [0, 1, 0, 0]}}
    assert load_frame(cfg).fd_step == 5e-3
    assert all(c.fd_step == 5e-3 for c in load_potential(cfg).values())


def test_validate_config_scenario_names_are_the_registry():
    for name in SCENARIOS:
        validate_config({"scenario": name})
    with pytest.raises(ConfigError) as err:
        validate_config({"scenario": "plane_wave"})
    assert err.value.schema_path == ["scenario"]
    assert str(list(SCENARIOS)) in str(err.value)


def test_validate_rejects_params_the_scenario_does_not_read():
    with pytest.raises(ConfigError) as err:
        validate_config({"scenario": "random_smooth", "params": {"g": 0.5}})
    assert err.value.schema_path == ["params", "g"]
    # every param a scenario reads has its type, and every typed param has a reader
    assert set().union(*(entry.params for entry in SCENARIOS.values())) == set(PARAM_TYPES)


DARBOUX_PAIR = {"pi": "x0", "phi": "x1"}
BOX4 = {"lo": [0, 0, 0, 0], "hi": [1, 1, 1, 1]}


def _tab(**changes):
    return {"scenario": "planewave", "tabulated": {"axes": [[0, 1]], "values": [], **changes}}


# one rejected config per type rule, each with the path it names; the integer
# params and signature entries take JSON integers only, never 2.0 or true
@pytest.mark.parametrize("cfg, path", [
    pytest.param([1, 2], [], id="root_not_object"),
    pytest.param({}, [], id="scenario_required"),
    pytest.param({"scenario": "planewave", "grid": 1}, [], id="unknown_key"),
    pytest.param({"scenario": 5}, ["scenario"], id="scenario_not_string"),
    pytest.param({"scenario": "warp_drive"}, ["scenario"], id="scenario_not_registered"),
    pytest.param({"scenario": "monopole", "params": [1]}, ["params"], id="params_not_object"),
    pytest.param({"scenario": "monopole", "params": {"q": 1}}, ["params"], id="param_unknown"),
    pytest.param({"scenario": "planewave", "params": {"k": 1}}, ["params", "k"],
                 id="vector_not_array"),
    pytest.param({"scenario": "planewave", "params": {"n": []}}, ["params", "n"],
                 id="vector_empty"),
    pytest.param({"scenario": "planewave", "params": {"k": [0] * 9}}, ["params", "k"],
                 id="vector_past_8_entries"),
    pytest.param({"scenario": "planewave", "params": {"k": [1, "a", 0, 1]}},
                 ["params", "k", 1], id="vector_entry_not_number"),
    pytest.param({"scenario": "monopole", "params": {"g": "half"}}, ["params", "g"],
                 id="g_not_number"),
    pytest.param({"scenario": "monopole", "params": {"g": True}}, ["params", "g"],
                 id="g_bool"),
    pytest.param({"scenario": "constant_F", "params": {"B": None}}, ["params", "B"],
                 id="B_not_number"),
    pytest.param({"scenario": "monopole", "params": {"patch": 1}}, ["params", "patch"],
                 id="patch_not_string"),
    pytest.param({"scenario": "monopole", "params": {"patch": "north"}},
                 ["params", "patch"], id="patch_unknown"),
    pytest.param({"scenario": "pure_gauge", "params": {"seed": -1}}, ["params", "seed"],
                 id="param_seed_negative"),
    pytest.param({"scenario": "pure_gauge", "params": {"rank": 0}}, ["params", "rank"],
                 id="rank_zero"),
    pytest.param({"scenario": "random_smooth", "params": {"ambient": "4"}},
                 ["params", "ambient"], id="ambient_string"),
    pytest.param({"scenario": "darboux", "params": {"pairs": {}}}, ["params", "pairs"],
                 id="pairs_not_array"),
    pytest.param({"scenario": "darboux", "params": {"pairs": ["x0"]}},
                 ["params", "pairs", 0], id="pair_not_object"),
    pytest.param({"scenario": "darboux", "params": {"pairs": [{"pi": "x0"}]}},
                 ["params", "pairs", 0], id="pair_without_phi"),
    pytest.param({"scenario": "darboux", "params": {"pairs": [{**DARBOUX_PAIR, "psi": "x2"}]}},
                 ["params", "pairs", 0], id="pair_extra_key"),
    pytest.param({"scenario": "darboux", "params": {"pairs": [DARBOUX_PAIR,
                                                              {"pi": 1, "phi": "x2"}]}},
                 ["params", "pairs", 1, "pi"], id="pair_pi_not_string"),
    pytest.param({"scenario": "darboux", "params": {"domain": None}}, ["params", "domain"],
                 id="domain_null"),
    pytest.param({"scenario": "darboux", "params": {"domain": {"lo": [0] * 4}}},
                 ["params", "domain"], id="domain_without_hi"),
    pytest.param({"scenario": "darboux", "params": {"domain": {**BOX4, "mid": [0] * 4}}},
                 ["params", "domain"], id="domain_extra_key"),
    pytest.param({"scenario": "darboux", "params": {"domain": {**BOX4, "lo": 0}}},
                 ["params", "domain", "lo"], id="domain_lo_not_array"),
    pytest.param({"scenario": "darboux", "params": {"domain": {**BOX4, "hi": [1, "a", 1, 1]}}},
                 ["params", "domain", "hi", 1], id="domain_hi_entry_not_number"),
    pytest.param({"scenario": "planewave", "fd_step": 0}, ["fd_step"], id="fd_step_zero"),
    pytest.param({"scenario": "planewave", "fd_step": "1e-3"}, ["fd_step"],
                 id="fd_step_string"),
    pytest.param({"scenario": "monopole", "tolerances": 1}, ["tolerances"],
                 id="tolerances_not_object"),
    pytest.param({"scenario": "monopole", "tolerances": {"algebraic": 1e-9}}, ["tolerances"],
                 id="tolerance_unknown"),
    pytest.param({"scenario": "monopole", "tolerances": {"gluing": "x"}},
                 ["tolerances", "gluing"], id="tolerance_not_number"),
    pytest.param({"scenario": "monopole", "seed": -1}, ["seed"], id="seed_negative"),
    pytest.param({"scenario": "monopole", "seed": "1"}, ["seed"], id="seed_string"),
    pytest.param({"scenario": "planewave", "signature": 1}, ["signature"],
                 id="signature_not_array"),
    pytest.param({"scenario": "planewave", "signature": []}, ["signature"],
                 id="signature_empty"),
    pytest.param({"scenario": "planewave", "signature": [1, 0]}, ["signature", 1],
                 id="signature_entry_not_a_sign"),
    pytest.param({"scenario": "planewave", "signature": [1, "-1"]}, ["signature", 1],
                 id="signature_entry_string"),
    pytest.param({"scenario": "planewave", "tabulated": []}, ["tabulated"],
                 id="tabulated_not_object"),
    pytest.param({"scenario": "planewave", "tabulated": {"axes": [[0, 1]]}}, ["tabulated"],
                 id="tabulated_without_values"),
    pytest.param(_tab(grid=1), ["tabulated"], id="tabulated_extra_key"),
    pytest.param(_tab(axes={}), ["tabulated", "axes"], id="axes_not_array"),
    pytest.param(_tab(axes=[]), ["tabulated", "axes"], id="axes_empty"),
    pytest.param(_tab(axes=[[0.0]]), ["tabulated", "axes", 0], id="axis_of_one_point"),
    pytest.param(_tab(axes=[[0, 1], [0, "a"]]), ["tabulated", "axes", 1, 1],
                 id="axis_entry_not_number"),
    pytest.param(_tab(values=1), ["tabulated", "values"], id="values_not_array"),
    pytest.param({"scenario": "pure_gauge", "params": {"rank": 2.0}}, ["params", "rank"],
                 id="rank_float"),
    pytest.param({"scenario": "pure_gauge", "params": {"ambient": 4.0}},
                 ["params", "ambient"], id="ambient_float"),
    pytest.param({"scenario": "random_smooth", "params": {"seed": 1.0}}, ["params", "seed"],
                 id="param_seed_float"),
    pytest.param({"scenario": "random_smooth", "seed": 1.0}, ["seed"], id="seed_float"),
    pytest.param({"scenario": "random_smooth", "seed": True}, ["seed"], id="seed_bool"),
    pytest.param({"scenario": "planewave", "signature": [1.0, -1.0]}, ["signature", 1],
                 id="signature_float"),
    pytest.param({"scenario": "darboux", "params": {"domain": {"lo": [0, 0], "hi": [1, 1]}}},
                 ["params", "domain"], id="domain_off_the_chart_dimension"),
    pytest.param({"scenario": "darboux", "params": {"pairs": []}}, ["params", "pairs"],
                 id="pairs_empty"),
])
def test_validate_config_names_the_fault(cfg, path):
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.schema_path == path


def test_validate_config_names_the_shallowest_fault():
    cfg = {"scenario": "monopole", "params": {"g": "x"}, "seed": -1, "tolerances": {"gluing": 1}}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.schema_path == ["seed"]


def test_name_form_takes_registry_names_and_params_only():
    for old in ("plane_wave", "monopole_plus"):
        with pytest.raises(ParameterError):
            load_potential(old)
    with pytest.raises(ConfigError):
        load_frame("random_smooth", g=0.5)


def test_monopole_patch_reaches_potential_and_frame():
    x = np.array([1.0, 0.4, 0.3])
    cfg = {"scenario": "monopole", "params": {"patch": "minus"}}
    want = 0.5 * (-1.0 - np.cos(0.4))
    assert abs(load_potential(cfg).at(x, 2)[0, 0] - want) < 1e-13
    assert abs(extract_potential(load_frame(cfg)).at(x, 2)[0, 0] - want) < 1e-13


@pytest.mark.parametrize("name, params", [
    ("planewave", {"k": [0.2, 1.0, 0.3, 0.4], "n": [0, 1, 0, 0]}),
    ("monopole", {"g": 1.5, "patch": "minus"}),
    ("pure_gauge", {"seed": 3}),
    ("pure_gauge", {"seed": 1, "rank": 3, "ambient": 5}),
    ("constant_F", {"B": 0.7}),
])
def test_frame_gives_the_potential_builder_potential(name, params, points4):
    # A = -i V^dag dV of the scenario's frame is its potential
    a = load_potential(name, **params)
    a_frame = extract_potential(load_frame(name, **params))
    pts = points4 if name != "monopole" else [np.array([1.0, t, 2 * t]) for t in (0.4, 1.3, 2.5)]
    for x in pts:
        for mu in range(a.spacetime.dim):
            assert max_abs(a.at(x, mu) - a_frame.at(x, mu)) < TOL.algebraic


def test_darboux_default_pair(points4):
    v = load_frame({"scenario": "darboux"})
    assert v.shape == (2, 1)
    validate_frame(v, points4[0])
    a = extract_potential(v)  # A = pi d phi = 0.5 sin(x0) dx1
    x = points4[0]
    assert abs(a.at(x, 1)[0, 0] - 0.5 * np.sin(x[0])) < 1e-12


def test_formats_scenario_table_matches_registry():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    rows = ["| scenario | chart | params | frame | potential |",
            "| --- | --- | --- | --- | --- |"]
    for name, entry in SCENARIOS.items():
        params = ", ".join(f"`{p}`" for p in entry.params)
        potential = "yes" if entry.potential is not None else "from the frame"
        rows.append(f"| `{name}` | {entry.chart} | {params} | yes | {potential} |")
    table = "\n".join(rows)
    assert table in doc, "docs/formats.md scenario table should read:\n" + table


def test_formats_equation_table_matches_registry():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    table = doc.split("| `--eq` | reads | CSV labels |\n| --- | --- | --- |\n")[1]
    rows = table[:table.index("\n\n")].splitlines()
    assert [row.split("`")[1] for row in rows] == list(EQUATIONS)
