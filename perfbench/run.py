"""Benchmark of the bladegauge CLI, one workload per interpreter.

    python3 perfbench/run.py --workload residual_sweep --seed 1 --seconds 30 --trace 0

Each op is one in-process `bladegauge.cli.main(argv)` call on inputs
generated from --seed.  The run sets up (median of several fresh
interpreters), runs one reference cycle whose outputs the oracles check,
then repeats whole cycles for --seconds.  Every later op must reproduce the
reference outputs byte for byte, apart from the report timestamp.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced cycles and prints the per-layer metrics (see tracing.py).  Human
readable lines come first; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Exits 2 without a result
when the bladegauge sources are missing.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
E2E_UNITS = {"run_p50_s": "s", "work_per_s": "unit/s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None):
    # one BLAS thread and the library's point pool off, before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("BLADEGAUGE_THREADS", None)
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "bladegauge" / "cli.py").is_file():
        print(f"perfbench: no bladegauge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.write_inputs()
        print_environment(workload)
        result = (traced_run if args.trace else timed_run)(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def print_environment(workload):
    import numpy as np
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or commit
    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} commit={commit} blas_threads=1 "
          f"BLADEGAUGE_THREADS=unset")
    print(f"workload: {workload.name} seed={workload.seed} "
          f"ops/cycle={len(workload.cycle)} work unit={workload.work_unit}")


# ---------------------------------------------------------------------------
# ops

def run_op(cli, op):
    """One CLI invocation; returns (exit code or error text, seconds)."""
    t0 = time.perf_counter()
    try:
        rc = cli.main(op.argv)
    except SystemExit as exc:           # argparse rejected the argv
        rc = exc.code
    except Exception as exc:            # keep measuring; the op counts as failed
        rc = f"raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return rc, time.perf_counter() - t0


def reference_cycle(workload, cli):
    """Run one cycle and check it with the oracles; returns the reference bytes."""
    refs = {}
    for op in workload.cycle:
        rc, _ = run_op(cli, op)
        try:
            failures = workload.check(op, rc)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures = [f"unreadable output: {type(exc).__name__}: {exc}"]
        for msg in failures:
            print(f"oracle {op.kind}: {msg}", file=sys.stderr)
        refs[op.kind] = None if failures else workload.artifacts(op)
        print(f"reference {op.kind}: rc={rc} oracle={'ok' if not failures else 'FAILED'}")
    return refs


def op_failed(workload, op, rc, refs):
    """An op fails if it raised, exited wrongly, or its outputs left the reference."""
    if rc != 0 or refs[op.kind] is None:
        return True
    try:
        return workload.artifacts(op) != refs[op.kind]
    except OSError:
        return True


def run_cycle(workload, cli, refs, tracer=None):
    """One pass over the cycle: returns [(op, seconds, failed)]."""
    out = []
    for op in workload.cycle:
        if tracer is None:
            rc, dt = run_op(cli, op)
        else:
            tracer.begin_op(op.kind)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                rc, dt = run_op(cli, op)
            tracer.end_op(len(seen))
        out.append((op, dt, op_failed(workload, op, rc, refs)))
    return out


# ---------------------------------------------------------------------------
# end-to-end run

def measure_setup(workload):
    """Median over fresh interpreters of import + one-off construction."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name,
             str(workload.seed), str(workload.workdir)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    print(f"setup probes (s): {times}")
    return statistics.median(times)


def tail_line(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    cuts = statistics.quantiles(samples, n=1000, method="inclusive") if n > 1 else []
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100.0) >= 10:
            value = cuts[round(pct * 10) - 1]
            beyond = sum(s > value for s in samples)
            return f"tail: p{pct:g} = {value:.6f} s over {n} ops ({beyond} beyond it)"
    return f"tail: not reported; {n} ops leave no percentile from p75 up with 10 beyond it"


def timed_run(workload, seconds):
    setup_s = measure_setup(workload)
    import bladegauge.cli as cli
    refs = reference_cycle(workload, cli)
    samples = {op.kind: [] for op in workload.cycle}
    in_order = []
    attempted = failed = work = 0
    busy = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op, dt, bad in run_cycle(workload, cli, refs):
            samples[op.kind].append(dt)
            in_order.append(dt)
            attempted += 1
            failed += bad
            work += 0 if bad else op.work
            busy += dt
    medians = {kind: statistics.median(v) for kind, v in samples.items()}
    for kind, v in samples.items():
        print(f"op {kind}: n={len(v)} p50={medians[kind]:.6f} s min={min(v):.6f} s")
    print(f"op times in run order (s): {' '.join(f'{dt:.4f}' for dt in in_order)}")
    print(tail_line(in_order))
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted}")
    metrics = {
        # mean of per-kind medians: the kinds differ in cost, so a pooled
        # median would jump between their clusters
        "run_p50_s": statistics.fmean(medians.values()),
        "work_per_s": work / busy,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}


# ---------------------------------------------------------------------------
# traced run

def traced_run(workload, seconds):
    import bladegauge.cli as cli
    from tracing import Tracer, per_kind_counts, per_layer_metrics
    refs = reference_cycle(workload, cli)
    tracer = Tracer()
    plain, traced = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for side, log in ((None, plain), (tracer, traced)):
            if side is not None:
                tracer.install()
            try:
                cycle = run_cycle(workload, cli, refs, side)
            finally:
                tracer.uninstall()
            log.append(sum(dt for _, dt, _ in cycle))
            attempted += len(cycle)
            failed += sum(bad for _, _, bad in cycle)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    print(f"cycles: untraced {plain} s, traced {traced} s")
    per_op = tracer.summarize()
    metrics, absent = per_layer_metrics(tracer, per_op, overhead)
    if absent:
        print(f"absent (wrap target missing): {', '.join(absent)}")
    report_counts(workload, per_kind_counts(per_op, tracer.op_kinds))
    spans = OUT / f"spans-{workload.name}-seed{workload.seed}.npz"
    tracer.write_spans(spans)
    print(f"spans: {len(tracer.starts)} written to {spans.relative_to(ROOT)}")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report_counts(workload, counts):
    """Print each op kind's counts next to the stored sentinels, as count deltas."""
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.is_file() else {}
    sentinels = baseline.get("count_sentinels", {}).get(workload.name, {})
    compared = differ = 0
    for kind, row in counts.items():
        base = sentinels.get(kind, {})
        cells = []
        for name, value in row.items():
            if name in base:
                compared += 1
                differ += value != base[name]
                cells.append(f"{name}={value} ({value - base[name]:+d})")
            else:
                cells.append(f"{name}={value} (no sentinel)")
        print(f"counts {kind}: " + ", ".join(cells))
    print(f"count sentinels: {compared - differ} of {compared} reproduced")


if __name__ == "__main__":
    sys.exit(main())
