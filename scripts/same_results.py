"""Check that two checkouts of hessqr compute bit-identical results.

    python scripts/same_results.py CHECKOUT_A CHECKOUT_B [--inputs N] [--seeds S ...]

Each checkout runs in its own interpreter, with its own ``src/`` and
``perfbench/`` first on the path and one BLAS thread, and records:

- for the first N inputs (default 8) of every perfbench workload at each
  seed (default 11 and 12): the eigenvalue bytes, every deflation-tree node
  with its ``IterationRecord`` list and leaf eigenvalues, ``run_params`` and
  ``required_bits`` of the library solve the workload makes (``shifted_qr``
  on the QR route, ``hessqr.solve`` with the input's solver seed on the CLI
  route), and on the CLI route also the JSON that ``hessqr solve`` writes;
- the same for ``shifted_qr`` on the 32 x 32 cyclic shift at k = 8 (which
  takes the ritz_shift, decouple and exceptional branches) at each seed;
- the same for ``shifted_qr`` at k = 4 on one 128 x 128 near-normal input
  per seed, made by perfbench's recipe, whose deflation tree goes about 120
  levels deep (each block's random stream is derived from its path);
- the same for ``shifted_qr`` at k = 4 on the extended-precision route: the
  Hessenberg form of one 10 x 10 near-normal input per seed, in mpmath
  numbers at 80 bits, so that a change to the binary64 step shows that this
  route did not move, and at 32 bits, where a change to the mpmath
  arithmetic shows (at 80 bits its outputs round to the same binary64
  values);
- ``CharPolySolver().solve`` on a fixed set of hard blocks, each in binary64
  and as an 80-bit mpmath copy (``_hard_blocks``), which, unlike the
  workloads' blocks, reach the small solver's refinement and its mpmath
  rungs.

Floats are compared by their bits (hex).  The exit code is 1 when any value
both checkouts record differs, an input fails on one side only, or an item
is recorded on one side only, and 0 otherwise.  A record field that only one checkout has (a field added to
``RunParams`` or to the JSON, say) is listed but is not a difference.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.linalg

CYCLIC_N, CYCLIC_K = 32, 8
DEEP_N = 128
MP_N, MP_BITS = 10, (80, 32)
HARD_BITS = 80


def _companion(first_row):
    """Companion matrix with the given first row: unreduced Hessenberg."""
    c = np.diag(np.ones(len(first_row) - 1, dtype=complex), -1)
    c[0] = first_row
    return c


def _hard_blocks():
    """[(name, Hessenberg block, beta)]: the companion of (z - 1)^4, a lower
    Jordan block, a 2 x 2 near overflow (LAPACK's seeds are far from its
    roots), a 16 x 16 companion with a double root at 0 (where LAPACK's
    seeds coincide), and three random 8 x 8 blocks at beta = 1e-30."""
    rng = np.random.default_rng(27)
    blocks = [
        ("companion (z-1)^4", _companion([4.0, -6.0, 4.0, -1.0]), 1e-10),
        ("lower Jordan n=5", np.eye(5, k=-1, dtype=complex), 1e-10),
        ("near overflow 2x2", np.array([[1e300, 2e300], [1e300, -1e300]], dtype=complex), 1e-10),
        ("companion n=16 double root 0",
         _companion([-3, 3, -2, 2, 1, -2, 2, 2, 2, 1, 0, 2, 3, 1, 0, 0]), 1e-10),
    ]
    for i in range(3):
        a = np.triu(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)), -1) / 4
        blocks.append((f"random 8x8 #{i}", a, 1e-30))
    return blocks


def _plain(x):
    """x as JSON data, with every float as its hex string (bit for bit)."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return {"dtype": str(x.dtype), "bytes": x.tobytes().hex()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real).hex(), float(x.imag).hex()]
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, np.integer):
        return int(x)
    return x


def _solve_record(result):
    nodes = {
        node.block_id: {"start": node.start, "trace": node.trace, "eigenvalues": node.eigenvalues}
        for node in result.tree.nodes.values()
    }
    return _plain(
        {
            "eigenvalues": result.eigenvalues,
            "nodes": nodes,
            "run_params": result.run_params,
            "required_bits": result.required_bits,
        }
    )


def _guarded(fn):
    """fn() as a record, or the error it raised: a library error, or an
    arithmetic one (an overflow a checkout does not catch)."""
    from hessqr.errors import HessqrError

    try:
        return fn()
    except (HessqrError, ArithmeticError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def collect(n_inputs, seeds):
    """{item name: record} for the checkout whose sources are importable.
    Its modules are imported here: only the collecting interpreter has that
    checkout's src/ and perfbench/ on its path."""
    import workloads

    import hessqr
    import hessqr.cli
    from hessqr.params import globals_with_degree

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for wl in workloads.WORKLOADS.values():
            for seed in seeds:
                workdir = Path(tmp) / f"{wl.name}-{seed}"
                workdir.mkdir()
                for i, inp in enumerate(workloads.build_inputs(wl, seed, workdir)[:n_inputs]):
                    name = f"{wl.name} seed {seed} input {i}"
                    if not wl.cli:
                        out[name] = _guarded(lambda: _solve_record(workloads.solve(wl, inp, None)))
                        continue
                    config = hessqr.SolveConfig(seed=inp.solver_seed)
                    out[name] = _guarded(lambda: _solve_record(hessqr.solve(inp.matrix, config)))
                    doc = workdir / f"out{i}.json"
                    argv = ["solve", str(inp.path), "--seed", str(inp.solver_seed), "--out-json", str(doc)]
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = hessqr.cli.main(argv)
                    out[name + " cli json"] = (
                        _plain(json.loads(doc.read_text(encoding="ascii")))
                        if code == 0
                        else {"error": f"exit code {code}"}
                    )
    a = np.eye(CYCLIC_N, k=-1, dtype=complex)
    a[0, CYCLIC_N - 1] = 1.0
    h = hessqr.HessenbergMatrix(a)
    sigma = 2 * float(h.frobenius_norm())
    gd = globals_with_degree(1.0, CYCLIC_K, Gamma=1e-4, Sigma=sigma, n0=CYCLIC_N)
    for seed in seeds:
        name = f"cyclic shift n={CYCLIC_N} k={CYCLIC_K} seed {seed}"
        out[name] = _guarded(lambda: _solve_record(hessqr.shifted_qr(h, 1e-7, 0.05, gd, seed=seed)))
    for n, bits in ((DEEP_N, 53),) + tuple((MP_N, b) for b in MP_BITS):
        for seed in seeds:
            a = workloads.near_normal(np.random.default_rng(seed), n)
            h = hessqr.HessenbergMatrix(np.triu(scipy.linalg.hessenberg(a), -1))
            gd = hessqr.derive_globals(workloads.QR_B, workloads.QR_GAMMA, 2 * float(h.frobenius_norm()), n)
            name = f"near-normal n={n} k={gd.k} seed {seed}" + (f" at {bits} bits" if bits != 53 else "")

            def solve(h):
                return _solve_record(hessqr.shifted_qr(h, workloads.QR_DELTA, workloads.QR_PHI, gd, seed=seed))

            out[name] = _guarded(lambda: solve(h if bits == 53 else h.to_extended(bits)))
    solver = hessqr.CharPolySolver()
    hard = {}
    for name, a, beta in _hard_blocks():
        ext = hessqr.HessenbergMatrix(a).to_extended(HARD_BITS).a
        hard[name] = {
            "binary64": _guarded(lambda: _plain(solver.solve(a, beta))),
            f"{HARD_BITS} bits": _guarded(lambda: [repr(z) for z in solver.solve(ext, beta)]),
        }
    out["small solver on hard blocks"] = hard
    return out


def differences(a, b, where=""):
    """(differing paths, paths of dict keys only one side has)."""
    if isinstance(a, dict) and isinstance(b, dict):
        diff, one_sided = [], [f"{where}/{k}" for k in sorted(set(a) ^ set(b))]
        for k in sorted(set(a) & set(b)):
            d, o = differences(a[k], b[k], f"{where}/{k}")
            diff += d
            one_sided += o
        return diff, one_sided
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        diff, one_sided = [], []
        for i, (x, y) in enumerate(zip(a, b)):
            d, o = differences(x, y, f"{where}[{i}]")
            diff += d
            one_sided += o
        return diff, one_sided
    return ([] if a == b else [where]), []


def _run_checkout(checkout, n_inputs, seeds, out_path):
    checkout = Path(checkout).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(checkout / "src"), str(checkout / "perfbench")])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect", str(out_path)]
    cmd += ["--inputs", str(n_inputs), "--seeds", *map(str, seeds)]
    subprocess.run(cmd, env=env, cwd=checkout, check=True)
    return json.loads(Path(out_path).read_text(encoding="utf-8"))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("checkouts", nargs="*", metavar="CHECKOUT")
    p.add_argument("--inputs", type=int, default=8, help="inputs per workload and seed (default 8)")
    p.add_argument("--seeds", type=int, nargs="+", default=[11, 12], help="workload seeds (default 11 12)")
    p.add_argument("--collect", metavar="OUT", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.collect:
        records = collect(args.inputs, args.seeds)
        Path(args.collect).write_text(json.dumps(records), encoding="utf-8")
        return 0
    if len(args.checkouts) != 2:
        p.error("give two checkouts")
    with tempfile.TemporaryDirectory() as tmp:
        a, b = (
            _run_checkout(c, args.inputs, args.seeds, Path(tmp) / f"{i}.json")
            for i, c in enumerate(args.checkouts)
        )
    diff, one_sided = [f"/{name}" for name in sorted(set(a) ^ set(b))], []
    for name in sorted(set(a) & set(b)):
        d, o = differences(a[name], b[name], f"/{name}")
        diff += d
        one_sided += o
    for path in one_sided:
        print(f"only in one checkout: {path}")
    for path in diff:
        print(f"differs: {path}")
    print(f"{len(a)} items compared, {len(diff)} differences, {len(one_sided)} one-sided fields")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
