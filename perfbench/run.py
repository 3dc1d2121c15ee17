"""hessqr benchmark entry point: one workload, one run.

    python3 perfbench/run.py --workload qr_small --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The last line of standard output is the JSON result
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is 0 only
when every solve succeeded and passed the correctness gate.  See
perfbench/README.md for the workloads and metrics.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy can be imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, print the set-up seconds and exit (used for repeated set-up timing)",
    )
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    if not (SRC / "hessqr" / "__init__.py").is_file():
        print(f"error: no hessqr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Imported here, inside the timed set-up: importing the program is set-up.
    import bench

    return bench.main(args, t0)


if __name__ == "__main__":
    sys.exit(main())
