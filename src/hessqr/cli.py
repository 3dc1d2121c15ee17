"""Command-line front end: solve and info subcommands.

`solve` reads a Matrix Market file through ``scipy.io.mmread`` (array or
coordinate; real, integer, complex or pattern; any symmetry), runs the
eigensolver, writes the run document with the eigenvalues as JSON and
(optionally) the per-block potential trace as CSV, and prints a short
summary.  An existing output file is overwritten in place and cut to the
new length: the same file, so its mode, owner and hard links stay.
`info` prints the same run document without the eigenvalues, as JSON,
without solving.  Both build it in ``_run_document`` from
``driver.prepare`` and the run plan of ``driver.plan_run``, the one place
k, omega, N_dec, the required bits, the route and whether the guarantee
covers the run are derived; its ``globals`` and ``params`` are the
``GlobalData`` and ``RunParams`` records by field name.
Each option's dest is the ``SolveConfig`` field it sets (--gamma-gap sets
Gamma, --no-preprocess clears preprocess).  The library checks the options
for both commands; only --delta > 0 is checked here, because the library
accepts delta = 0.  All randomness flows from --seed; when absent a seed is
drawn from the system entropy source and recorded in the outputs.
Exit codes: 0 success, 2 bad input or configuration, or a small eigensolve
that could not certify its accuracy, 3 probabilistic failure that survived
all retries or an iteration budget that ran out.
"""

import argparse
import functools
import json
import math
import os
import re
import stat
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from .driver import MIN_BITS, SolveConfig, plan_run, prepare, solve
from .errors import BudgetExceeded, HessqrError, ParseError, SolveFailure
from .params import GAMMA

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_PROBABILISTIC = 3
_OVERWRITTEN = "; an existing file is overwritten and cut to the new length"


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


def _run_document(config, seed, gd, run):
    """The run's parameters, as both commands print them: the options, the
    seed, the global data of ``prepare`` (its ``GlobalData`` but n0, which is
    the top-level n, with the paper's gamma), and from ``run``, the run plan
    or the ``SolveResult`` that carries its values, the route, whether the
    guarantee covers the run and the ``RunParams`` (but the absolute delta)
    with the required bits, all in the caller's units."""
    globals_, params = asdict(gd), asdict(run.run_params)
    n = globals_.pop("n0")
    del params["delta"]
    return {
        "n": int(n),
        "seed": int(seed),
        "delta": config.delta,
        "phi": config.phi,
        "bits": config.bits,
        "route": run.route,
        "guarantee_covered": run.guarantee_covered,
        "globals": {**globals_, "gamma": GAMMA},
        "params": {**params, "required_bits": run.required_bits},
    }


def _write(path, text):
    """``open(path, "w")`` without ``O_TRUNC``: ``text`` over the old bytes, then a regular
    file (not a device or pipe) is cut to its length.  On ext4 (``auto_da_alloc``) closing a
    file truncated to zero forces its data to disk, and the next truncation pays to free
    those blocks (44-67 ms on a virtual disk mounted with ``discard``); an overwrite frees
    nothing unless the file shrinks across a 4 KiB block.  A crash before writeback can leave
    the old bytes, or old and new pages mixed, cut to the new length; a failed write leaves
    the new prefix and the old tail, and its OSError reaches ``main`` (exit 2)."""
    with open(path, "w", encoding="ascii",
              opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


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

    document = _run_document(config, result.seed, result.globals_used, result)
    document["eigenvalues"] = [
        {"re": v.real, "im": v.imag, "block": node.block_id}
        for node in result.tree.leaves()
        for v in node.eigenvalues
    ]
    if out_json:
        _write(out_json, _dumps(document) + "\n")
    if out_trace:
        header = "block_id,iteration,psi_k,branch,shift_re,shift_im,psi_after,retries\n"
        _write(out_trace, header + "".join(
            f"{node.block_id},{rec.index},{rec.psi_before!r},{rec.branch},"
            f"{rec.shift.real!r},{rec.shift.imag!r},{rec.psi_after!r},{rec.retries}\n"
            for node in result.tree.nodes.values() for rec in node.trace))
    return document, wall


def info(input_path, config):
    """The run document `solve` would write, without the eigenvalues; no solve."""
    a = read_matrix_market(input_path)
    h, gd, delta, seed = prepare(a, config)
    return _run_document(config, seed, gd, plan_run(h.n, delta, config.phi, gd, config.bits))


@functools.cache
def _build_parser():
    """The parser, built once: ``parse_args`` keeps no state between calls.
    Each option's dest is the ``SolveConfig`` field it sets."""
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
        p.add_argument("--gamma-gap", type=float, default=None, dest="Gamma",
                       metavar="GAMMA_GAP", help="minimum eigenvalue gap bound override (Gamma)")
        p.add_argument("--no-preprocess", action="store_false", dest="preprocess",
                       help="input is already Hessenberg; skip perturb+reduce")
        if name == "solve":
            p.add_argument("--out-json", default=None,
                           help="run document and eigenvalues output file (JSON)" + _OVERWRITTEN)
            p.add_argument("--out-trace", default=None,
                           help="potential-trace output file (CSV)" + _OVERWRITTEN)
    return parser


def _config_from_args(args):
    """The SolveConfig the arguments ask for.  --delta must be finite and
    > 0 (ParseError), which is stricter than the library's delta >= 0; the
    library checks the other values."""
    if not 0 < args.delta < math.inf:
        raise ParseError(f"--delta must be finite and > 0, got {args.delta}")
    return SolveConfig(**{f.name: getattr(args, f.name) for f in fields(SolveConfig)})


def main(argv=None):
    args = _build_parser().parse_args(argv)
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
