"""Command-line front end: solve and info subcommands.

`solve` reads a Matrix Market file through ``scipy.io.mmread`` (array or
coordinate; real, integer, complex or pattern; any symmetry), runs the
eigensolver, writes the run document with the eigenvalues as JSON and
(optionally) the per-block potential trace as CSV, and prints a short
summary.  On Linux an existing output file of the caller's, regular and
writable, is replaced by a new one of the same mode (hard links to it keep
the old contents); other paths are truncated or written through as usual.
`info` prints the same run document without the eigenvalues, as JSON,
without solving.  Both build it in ``_run_document`` from
``driver.prepare`` and the run plan of ``driver.plan_run``, the one place
k, omega, N_dec and the required bits are derived.  The library checks the
options for both commands; only --delta > 0 is checked here, because the
library accepts delta = 0.  All randomness flows from --seed; when absent a
seed is drawn from the system entropy source and recorded in the outputs.
Exit codes: 0 success, 2 bad input or configuration, or a small eigensolve
that could not certify its accuracy, 3 probabilistic failure that survived
all retries or an iteration budget that ran out.
"""

import argparse
import json
import math
import os
import re
import stat
import sys
import time

import numpy as np

from .driver import MIN_BITS, SolveConfig, plan_run, prepare, solve
from .errors import BudgetExceeded, HessqrError, ParseError, SolveFailure
from .params import GAMMA

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_PROBABILISTIC = 3
_REPLACED = ("; on Linux an existing regular file of yours is replaced by a new one of the "
             "same mode (hard links to it keep the old contents)")


def read_matrix_market(path):
    """The square matrix in a Matrix Market file, as complex128.

    Malformed files raise ParseError, with scipy's 1-based line number when
    it names one.  Entries are not checked: the solver rejects non-finite
    ones."""
    import scipy.io  # here, not at the top: it adds resident memory to runs that read no file

    try:
        # The size comes first: mmread kills the interpreter (SIGFPE) on an
        # array file of size 0 0, which mminfo reads safely.
        rows, cols = scipy.io.mminfo(path)[:2]
        m = scipy.io.mmread(path) if rows == cols >= 1 else None
    except (ValueError, OverflowError) as exc:
        found = re.match(r"Line (\d+): (.*)", str(exc), re.DOTALL)
        msg, line = (found[2], int(found[1])) if found else (str(exc), None)
        raise ParseError(msg, line) from exc
    if m is None:
        raise ParseError(f"matrix must be square and non-empty, got {rows}x{cols}")
    return np.asarray(m.toarray() if scipy.sparse.issparse(m) else m, dtype=np.complex128)


def _run_document(config, seed, gd, run_params, required_bits):
    """The run's parameters, as both commands print them: the options, the
    seed, the global data of ``prepare`` and the plan's run parameters and
    required bits, all in the caller's units."""
    return {
        "n": int(gd.n0),
        "seed": int(seed),
        "delta": config.delta,
        "phi": config.phi,
        "bits": config.bits,
        "globals": {
            "B": gd.B,
            "Gamma": gd.Gamma,
            "Sigma": gd.Sigma,
            "k": gd.k,
            "alpha": gd.alpha,
            "theta": gd.theta,
            "gamma": GAMMA,
        },
        "params": {
            "omega": run_params.omega,
            "log2_omega": run_params.log2_omega,
            "phi_working": run_params.phi_working,
            "n_dec": run_params.n_dec,
            "n_dec_budget": run_params.n_dec_budget,
            "required_bits": required_bits,
        },
    }


def _new_file(path):
    """``path`` opened for writing as ``open(path, "w")`` opens it, except that on Linux an
    existing regular file that this process owns and may write, with no extended attributes
    (so no ACLs), is replaced by a new file of the same owner, group and mode.  On ext4
    (``auto_da_alloc``) closing a truncated file forces its data to disk, so that a crash
    leaves the old or the new contents, and the next truncation frees those disk blocks:
    40-80 ms on a virtual ext4 disk mounted with ``discard``.  A new file's data waits for
    writeback (~30 s), and unlinking it before then frees no disk blocks; the price is that
    a crash in that window can leave the output empty, with the old contents gone."""
    try:
        st = os.lstat(path)
        replace = (sys.platform == "linux" and stat.S_ISREG(st.st_mode)
                   and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())
                   and os.access(path, os.W_OK) and not os.listxattr(path))
        if replace:
            os.unlink(path)
    except OSError:  # no such file, or not removable: open it as before
        replace = False
    if not replace:
        return open(path, "w", encoding="ascii")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        os.fchown(fd, -1, st.st_gid)  # a set-group-ID directory gives its own group
        os.fchmod(fd, stat.S_IMODE(st.st_mode))
    except OSError:
        os.close(fd)
        raise
    return open(fd, "w", encoding="ascii")


def _dumps(document):
    return json.dumps(document, indent=2, sort_keys=True)


def run(input_path, config, out_json=None, out_trace=None):
    """Solve the Matrix Market file and write the outputs.

    Returns (document, wall): the run document with its eigenvalues, as
    --out-json holds it, and the solve's wall time in seconds."""
    a = read_matrix_market(input_path)
    t0 = time.perf_counter()
    result = solve(a, config)
    wall = time.perf_counter() - t0

    document = _run_document(
        config, result.seed, result.globals_used, result.run_params, result.required_bits
    )
    document["eigenvalues"] = [
        {"re": v.real, "im": v.imag, "block": node.block_id}
        for node in result.tree.leaves()
        for v in node.eigenvalues
    ]
    if out_json:
        with _new_file(out_json) as fh:
            fh.write(_dumps(document) + "\n")
    if out_trace:
        with _new_file(out_trace) as fh:
            fh.write("block_id,iteration,psi_k,branch,shift_re,shift_im,psi_after,retries\n")
            for node in result.tree.nodes.values():
                for rec in node.trace:
                    fh.write(
                        f"{node.block_id},{rec.index},{rec.psi_before!r},{rec.branch},"
                        f"{rec.shift.real!r},{rec.shift.imag!r},{rec.psi_after!r},{rec.retries}\n"
                    )
    return document, wall


def info(input_path, config):
    """The run document `solve` would write, without the eigenvalues; no solve."""
    a = read_matrix_market(input_path)
    h, gd, delta, seed = prepare(a, config)
    plan = plan_run(h.n, delta, config.phi, gd)
    return _run_document(config, seed, gd, plan.run_params, plan.required_bits)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hessqr",
        description="Randomized shifted QR eigensolver for complex matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "compute eigenvalues of a Matrix Market file"),
        ("info", "print derived run parameters without solving"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("input", help="Matrix Market file: array or coordinate; real, "
                                      "integer, complex or pattern; any symmetry")
        p.add_argument("--delta", type=float, default=1e-6,
                       help="relative backward accuracy (default 1e-6)")
        p.add_argument("--phi", type=float, default=0.01,
                       help="failure probability tolerance (default 0.01)")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed; drawn from entropy when omitted")
        p.add_argument("--bits", type=int, default=53,
                       help=f"working mantissa bits, >= {MIN_BITS} (default 53); any "
                            "other value runs the QR iteration on mpmath numbers "
                            "at that precision")
        p.add_argument("--B", type=float, default=None,
                       help="eigenvector condition bound override")
        p.add_argument("--gamma-gap", type=float, default=None, dest="gamma_gap",
                       help="minimum eigenvalue gap bound override (Gamma)")
        p.add_argument("--no-preprocess", action="store_true",
                       help="input is already Hessenberg; skip perturb+reduce")
        if name == "solve":
            p.add_argument("--out-json", default=None,
                           help="run document and eigenvalues output file (JSON)" + _REPLACED)
            p.add_argument("--out-trace", default=None,
                           help="potential-trace output file (CSV)" + _REPLACED)
    return parser


def _config_from_args(args):
    """The SolveConfig the arguments ask for.  --delta must be finite and
    > 0 (ParseError), which is stricter than the library's delta >= 0; the
    library checks the other values."""
    if not 0 < args.delta < math.inf:
        raise ParseError(f"--delta must be finite and > 0, got {args.delta}")
    return SolveConfig(
        delta=args.delta,
        phi=args.phi,
        seed=args.seed,
        bits=args.bits,
        B=args.B,
        Gamma=args.gamma_gap,
        preprocess=not args.no_preprocess,
    )


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "info":
            print(_dumps(info(args.input, config)))
            return EXIT_OK
        doc, wall = run(args.input, config, out_json=args.out_json, out_trace=args.out_trace)
        print(
            f"solved n={doc['n']} seed={doc['seed']} "
            f"eigenvalues={len(doc['eigenvalues'])} wall={wall:.3f}s"
        )
        if not args.out_json:
            print(_dumps(doc))
        return EXIT_OK
    except (SolveFailure, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROBABILISTIC
    except (HessqrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
