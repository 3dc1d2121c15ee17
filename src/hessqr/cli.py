"""Command-line front end: solve and info subcommands.

`solve` reads a Matrix Market file through ``scipy.io.mmread`` (array or
coordinate; real, integer, complex or pattern; any symmetry), runs the
eigensolver, writes the eigenvalues as JSON and (optionally) the per-block
potential trace as CSV, and prints a short summary.  `info` prints the seed
and the parameters that `solve` with that seed would use, without solving;
both take them from ``driver.prepare`` and the run plan of
``driver.plan_run``, the one place k, omega, N_dec and the required bits
are derived.  All randomness flows from --seed; when absent a seed is drawn
from the system entropy source and recorded in the outputs.
Exit codes: 0 success, 2 bad input or configuration, or a small eigensolve
that could not certify its accuracy, 3 probabilistic failure that survived
all retries or an iteration budget that ran out.
"""

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from .driver import MIN_BITS, SolveConfig, plan_run, prepare, solve
from .errors import (
    BudgetExceeded,
    HessqrError,
    ParseError,
    SolveFailure,
)
from .params import GAMMA

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_PROBABILISTIC = 3


@dataclass
class RunReport:
    document: dict
    wall_time: float
    seed: int


def read_matrix_market(path):
    """The square matrix in a Matrix Market file, as complex128.

    Malformed files raise ParseError, with scipy's 1-based line number when
    it names one."""
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
    a = np.asarray(m.toarray() if scipy.sparse.issparse(m) else m, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise ParseError("matrix has non-finite entries")
    return a


def _json_document(result, config):
    gd = result.globals_used
    rp = result.run_params
    eigs = []
    for node in result.tree.leaves():
        for v in node.eigenvalues:
            eigs.append({"re": v.real, "im": v.imag, "block": node.block_id})
    return {
        "n": int(gd.n0),
        "seed": int(result.seed),
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
            "omega": rp.omega,
            "log2_omega": rp.log2_omega,
            "phi_working": rp.phi_working,
            "n_dec": rp.n_dec,
            "n_dec_budget": rp.n_dec_budget,
            "required_bits": result.required_bits,
        },
        "eigenvalues": eigs,
    }


def run(input_path, config, out_json=None, out_trace=None):
    """Solve the Matrix Market file; writes the outputs, returns a RunReport."""
    a = read_matrix_market(input_path)
    t0 = time.perf_counter()
    result = solve(a, config)
    wall = time.perf_counter() - t0

    document = _json_document(result, config)
    if out_json:
        with open(out_json, "w", encoding="ascii") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if out_trace:
        with open(out_trace, "w", encoding="ascii") as fh:
            fh.write("block_id,iteration,psi_k,branch,shift_re,shift_im,psi_after,retries\n")
            for node in result.tree.nodes.values():
                for rec in node.trace:
                    fh.write(
                        f"{node.block_id},{rec.index},{rec.psi_before!r},{rec.branch},"
                        f"{rec.shift.real!r},{rec.shift.imag!r},{rec.psi_after!r},{rec.retries}\n"
                    )
    return RunReport(document=document, wall_time=wall, seed=result.seed)


def info(input_path, config):
    """The seed and parameters `solve` would run with; no solve.  Returns lines."""
    a = read_matrix_market(input_path)
    h, gd, delta, seed = prepare(a, config)
    plan = plan_run(h.n, delta, config.phi, gd)
    rp = plan.run_params
    return [
        f"n = {h.n}",
        f"seed = {seed}",
        f"B = {gd.B:.6g}",
        f"Gamma = {gd.Gamma:.6g}",
        f"Sigma = {gd.Sigma:.6g}",
        f"k = {gd.k}",
        f"alpha = {gd.alpha:.6g}",
        f"theta = {gd.theta:.6g}",
        f"gamma = {GAMMA}",
        f"omega = {rp.omega:.6g}",
        f"log2 omega = {rp.log2_omega:.6g}",
        f"phi_working = {rp.phi_working:.6g}",
        f"N_dec = {rp.n_dec:.6g} (budget {rp.n_dec_budget})",
        f"required bits = {plan.required_bits}",
        f"configured bits = {config.bits}",
    ]


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
                           help="eigenvalue output file (JSON)")
            p.add_argument("--out-trace", default=None,
                           help="potential-trace output file (CSV)")
    return parser


def _config_from_args(args):
    """The SolveConfig the arguments ask for; out-of-range values raise ParseError."""
    if not 0 < args.delta < math.inf:
        raise ParseError(f"--delta must be finite and > 0, got {args.delta}")
    if not (0.0 < args.phi < 1.0):
        raise ParseError(f"--phi must be in (0,1), got {args.phi}")
    if args.seed is not None and args.seed < 0:
        raise ParseError(f"--seed must be >= 0, got {args.seed}")
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
            for line in info(args.input, config):
                print(line)
            return EXIT_OK
        report = run(args.input, config, out_json=args.out_json, out_trace=args.out_trace)
        doc = report.document
        print(
            f"solved n={doc['n']} seed={report.seed} "
            f"eigenvalues={len(doc['eigenvalues'])} wall={report.wall_time:.3f}s"
        )
        if not args.out_json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    except (SolveFailure, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROBABILISTIC
    except (HessqrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
