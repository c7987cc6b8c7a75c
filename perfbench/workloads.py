"""The benchmark's workloads: generated inputs, the ops they cycle, their oracles.

An op is one `bladegauge.cli.main(argv)` call.  A workload's cycle is the
fixed list of ops it repeats; every op of a cycle writes its report (and CSV
or lattice dump) into the workload's own directory.  Why each workload was
chosen is written in README.md next to this file.

The library and the oracles (which import it) are imported inside the
methods: run.py imports this module before it has checked that the sources
exist and put them on the path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GRID_2_4 = ",".join(["0:1:2"] * 4)     # 2^4 cells on [0,1]^4
FLOW_CELLS = (20, 32)
FLOW_STEPS = 100
DARBOUX_PAIRS = [{"pi": "0.5*sin(x0)", "phi": "x1"},
                 {"pi": "0.4*cos(x2)", "phi": "x3"}]


@dataclass
class Op:
    kind: str                  # label of this op within the cycle
    argv: list
    work: int                  # work units one op completes
    report: Path
    outputs: tuple = ()        # further files that must repeat byte for byte


@dataclass
class Workload:
    name: str
    work_unit: str
    seed: int
    workdir: Path
    cycle: list = field(default_factory=list)

    def write_inputs(self):
        """Write the generated input files the cycle reads (none by default)."""

    def artifacts(self, op):
        """The bytes an op must reproduce: report sans timestamp, then outputs."""
        from oracles import without_timestamp
        parts = [without_timestamp(op.report.read_text()).encode()]
        parts += [Path(p).read_bytes() for p in op.outputs]
        return parts


# ---------------------------------------------------------------------------
# residual_sweep

class ResidualSweep(Workload):
    """`residuals --eq modified` and `--eq shape` on the random_smooth frame.

    The frame seed travels in a generated `--input` config as params.seed:
    `residuals --seed` only sets the top-level seed, which `load_frame`
    ignores for random_smooth.
    """

    AMBIENT, RANK = 4, 2

    def __init__(self, seed, workdir):
        super().__init__("residual_sweep", "grid points", seed, workdir)
        self.frame_seed = seed % 2 ** 31
        self.config = {"scenario": "random_smooth", "seed": self.frame_seed,
                       "params": {"seed": self.frame_seed, "ambient": self.AMBIENT,
                                  "rank": self.RANK}}
        self.input = workdir / "residual_input.json"
        for eq in ("modified", "shape"):
            report, table = workdir / f"{eq}.json", workdir / f"{eq}.csv"
            argv = ["residuals", "--input", str(self.input), "--eq", eq,
                    "--grid", GRID_2_4, "--csv", str(table), "--report", str(report)]
            self.cycle.append(Op(eq, argv, 16, report, (table,)))

    def write_inputs(self):
        self.input.write_text(json.dumps(self.config))

    def construct(self):
        from bladegauge.scenarios import load_frame, validate_config
        return load_frame(validate_config(json.loads(self.input.read_text())))

    def check(self, op, rc):
        from oracles import residual_failures
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        report = json.loads(op.report.read_text())
        return residual_failures(report, op.outputs[0].read_text(), op.kind,
                                 self.frame_seed, self.AMBIENT, self.RANK,
                                 pick_seed=self.seed)


# ---------------------------------------------------------------------------
# sigma_flow

class SigmaFlow(Workload):
    """`sigma-flow --g 0.5 --cells 20x32 --steps 100` with a seeded theta band."""

    G = 0.5

    def __init__(self, seed, workdir):
        super().__init__("sigma_flow", "site updates", seed, workdir)
        rng = np.random.default_rng(seed)
        lo, hi = rng.uniform(0.30, 0.36), rng.uniform(0.64, 0.70)
        self.band = (round(float(lo), 4), round(float(hi), 4))
        report, dump = workdir / "flow.json", workdir / "flow_final.json"
        ct, cp = FLOW_CELLS
        argv = ["sigma-flow", "--g", str(self.G), "--cells", f"{ct}x{cp}",
                "--steps", str(FLOW_STEPS), "--theta-band", f"{self.band[0]}:{self.band[1]}",
                "--dump-final", str(dump), "--report", str(report)]
        # the two outer theta rows are frozen
        self.cycle.append(Op("sigma_flow", argv, (ct - 2) * cp * FLOW_STEPS, report, (dump,)))

    def construct(self):
        from bladegauge import em
        from bladegauge.dynamics import blade_lattice_from_field
        from bladegauge.fields import Grid
        grid = Grid(lo=(self.band[0] * np.pi, 0.0), hi=(self.band[1] * np.pi, 2 * np.pi),
                    cells=FLOW_CELLS)
        return blade_lattice_from_field(
            em.monopole_blade(self.G), grid, point_map=lambda p: np.array([1.0, p[0], p[1]]),
            periodic=(False, True), frozen_boundary_axes=(0,))

    def check(self, op, rc):
        from oracles import sigma_flow_failures
        if rc != 0:
            return [f"exit code {rc}, expected 0"]
        report = json.loads(op.report.read_text())
        dump = json.loads(op.outputs[0].read_text())
        return sigma_flow_failures(report, dump, FLOW_STEPS)


# ---------------------------------------------------------------------------
# verify_suite

class VerifySuite(Workload):
    """`verify` over monopole g=0.5, monopole g=0.3, planewave, pure_gauge, darboux."""

    def __init__(self, seed, workdir):
        super().__init__("verify_suite", "checks", seed, workdir)
        self.input = workdir / "darboux_input.json"
        configs = {
            "monopole_g0.5": ["--scenario", "monopole", "--g", "0.5"],
            "monopole_g0.3": ["--scenario", "monopole", "--g", "0.3"],
            "planewave": ["--scenario", "planewave"],
            "pure_gauge": ["--scenario", "pure_gauge"],
            "darboux": ["--input", str(self.input)],
        }
        for kind, flags in configs.items():
            report = workdir / f"verify_{kind}.json"
            argv = ["verify", *flags, "--seed", str(seed % 2 ** 31), "--report", str(report)]
            # work is the number of checks, known once the reference op has run
            self.cycle.append(Op(kind, argv, 0, report))

    def write_inputs(self):
        self.input.write_text(json.dumps({"scenario": "darboux",
                                          "params": {"pairs": DARBOUX_PAIRS}}))

    def construct(self):
        from bladegauge.darboux import darboux_data
        from bladegauge.fields import MINKOWSKI4
        from bladegauge.scenarios import validate_config
        for kind in ("monopole", "planewave", "pure_gauge"):
            validate_config({"scenario": kind})
        cfg = validate_config(json.loads(self.input.read_text()))
        pairs = [(p["pi"], p["phi"]) for p in cfg["params"]["pairs"]]
        return darboux_data(MINKOWSKI4, pairs, [-0.8] * 4, [0.8] * 4)

    def check(self, op, rc):
        from oracles import verify_failures
        report = json.loads(op.report.read_text())
        op.work = len(report.get("checks", []))
        return verify_failures(report, rc)


WORKLOADS = {"residual_sweep": ResidualSweep, "sigma_flow": SigmaFlow,
             "verify_suite": VerifySuite}
