"""DEKM benchmark entry point.

    python3 bench/run.py --workload paper_loop --seed 1 --seconds 30 --trace 0

Runs one workload in this process against the package under ``src/`` of the
checkout this file sits in. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; the last line of standard output is the
result as JSON. The exit code is 0 only when every operation passed its
correctness checks.
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One fixed BLAS thread count, at most the core count; timings depend on it.
BLAS_THREADS = min(2, os.cpu_count() or 1)
# Fresh processes that time the import; one import is too noisy to report.
IMPORT_REPEATS = 5
_TIME_IMPORT = "import time; t = time.perf_counter(); import harness; print(time.perf_counter() - t)"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="paper_loop, many_clusters or cli_ablate")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time to spend on operations")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "dekm" / "__init__.py").is_file():
        print(f"error: no dekm package under {src}", file=sys.stderr)
        return 2
    # Must happen before numpy loads; set outright so the caller's
    # environment cannot change the benchmark.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "DEKM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import harness  # numpy, scipy and the dekm package load here

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace), import_seconds(src))


def import_seconds(src: Path) -> float:
    """Median time to import numpy, scipy, dekm and the harness in a new process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(src)]))
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", _TIME_IMPORT], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main())
