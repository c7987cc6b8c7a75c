"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Times importing `bladegauge.cli` plus the workload's one-off construction
(the generated inputs already sit in WORKDIR) and prints the seconds taken.
"""

import sys
import time
from pathlib import Path


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import bladegauge.cli  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS
    WORKLOADS[name](seed, workdir).construct()
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
