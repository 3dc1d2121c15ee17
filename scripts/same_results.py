"""Check that two checkouts of hessqr compute bit-identical results.

    python scripts/same_results.py CHECKOUT_A CHECKOUT_B [--inputs N] [--seeds S ...]

Each checkout runs in its own interpreter, the two at the same time, with
its own ``src/`` and ``perfbench/`` first on the path and one BLAS thread,
and records:

- for the first N inputs (default 8) of every perfbench workload at each
  seed (default 11 and 12): the eigenvalue bytes, every deflation-tree node
  with its ``IterationRecord`` list and leaf eigenvalues, ``run_params`` and
  ``required_bits`` of the library solve the workload makes (``shifted_qr``
  on the QR route, ``hessqr.solve`` with the input's solver seed on the CLI
  route), and on the CLI route also the JSON that ``hessqr solve`` writes,
  parsed and as raw text, what ``hessqr info`` prints for the same input
  and seed, and the ``--help`` text of ``hessqr``, ``hessqr solve`` and
  ``hessqr info``;
- the same for ``shifted_qr`` on the 32 x 32 cyclic shift at k = 8 (which
  takes the exceptional branch once and then plain steps) at each seed,
  and the raw text of both files ``hessqr solve --no-preprocess --B 1
  --gamma-gap 1e-4`` writes for that matrix (at k = 4, with the same
  branches);
- the same for ``shifted_qr`` at k = 4 on one 128 x 128 near-normal input
  per seed, made by perfbench's recipe, whose deflation tree goes about 50
  levels deep (its blocks draw from the run's one random stream in turn);
- the same for ``hessqr.solve`` with default options, solver seed 1, on
  that input: the direct route hands the small solver one 128 x 128 block,
  which the enclosure certifies, above the n = 75 from which the
  eigenvalues of ``zgeev`` with eigenvectors (the enclosure's) and of
  ``np.linalg.eigvals`` (the seeds') differ in the last bits for some
  blocks;
- the same for ``hessqr.solve`` with default options, solver seed 1, on one
  256 x 256 near-normal input at rng seed 3: the enclosure certifies its
  one direct block, above the n = 129 from which ``zgeev``'s eigenvalues of
  a Ginibre Hessenberg block depend on its workspace (both thresholds
  measured with scipy 1.17.1 and OpenBLAS 0.3.31);
- the same for ``hessqr.solve`` with default options, solver seed 1, on one
  16 x 16 near-normal input per seed, run with ``smalleig.np`` replaced by
  a numpy whose ``clongdouble`` is ``complex128`` (as where clongdouble is
  binary64: MSVC, macOS on arm64) and then restored, so that a change to
  the small solver's ladder on such platforms shows;
- the same for ``shifted_qr`` at k = 4 on the extended-precision route: the
  Hessenberg form of one 10 x 10 near-normal input per seed, in mpmath
  numbers at 80 bits, so that a change to the binary64 step shows that this
  route did not move, and at 32 bits, where a change to the mpmath
  arithmetic shows (at 80 bits its outputs round to the same binary64
  values);
- ``CharPolySolver().solve`` on a fixed set of hard blocks, each in binary64
  and as an 80-bit mpmath copy (``_hard_blocks``), which, unlike the
  workloads' blocks, reach the small solver's refinement and its mpmath
  rungs;
- the ``required_bits`` of ``plan_run`` at each point of a fixed grid of
  (n, k, Sigma, B, Gamma, delta, phi) with the degree k overridden
  (``_budget_grid``), or the type of the error it raised there.

Floats are compared by their bits (hex).  The exit code is 1 when any value
both checkouts record differs, an input fails on one side only, or an item
is recorded on one side only, and 0 otherwise.  A record field that only
one checkout has (a field added to ``RunParams`` or to the JSON, say) is
listed but is not a difference; two raw JSON texts (``--out-json``,
``hessqr info``) in which such a key is on one side only are compared as
the values they parse to.
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
DIRECT_N, DIRECT_RNG_SEED = 256, 3
MP_N, MP_BITS = 10, (80, 32)
GUARD_OFF_N = 16
HARD_BITS = 80
BUDGET_POINTS = 10_000


class _NumpyWithBinary64Clongdouble:
    """numpy, but for ``clongdouble``, which is ``complex128``."""

    def __getattr__(self, name):
        return np.complex128 if name == "clongdouble" else getattr(np, name)


def _companion(first_row):
    """Companion matrix with the given first row: unreduced Hessenberg."""
    c = np.diag(np.ones(len(first_row) - 1, dtype=complex), -1)
    c[0] = first_row
    return c


def _hard_blocks():
    """[(name, Hessenberg block, beta)]: the companion of (z - 1)^4, a lower
    Jordan block, a 2 x 2 near overflow and one near underflow, a 16 x 16
    companion with a double root at 0 (where LAPACK's seeds coincide), three
    random 8 x 8 blocks at beta = 1e-30, a fourth scaled by 2^-990, whose
    certificate is the absolute floor 2^-49, and [[1, 2], [1, -1]] scaled by
    2^+-455 and 2^+-465.

    scipy 1.17.1's ``zgeev`` scales a block whose largest modulus is outside
    2^-459..2^459 and leaves its eigenvalues at that scale, so the small
    solver's enclosure hands it a block whose largest modulus has a binary
    exponent beyond +-400 scaled into [1/2, 1) and scales the eigenvalues
    back; its eigenvalues must keep the block's scale.  The 2^+-455 blocks
    are inside zgeev's band and beyond the enclosure's cut, the 2^+-465
    blocks beyond both, so that a moved cut shows."""
    rng = np.random.default_rng(27)
    blocks = [
        ("companion (z-1)^4", _companion([4.0, -6.0, 4.0, -1.0]), 1e-10),
        ("lower Jordan n=5", np.eye(5, k=-1, dtype=complex), 1e-10),
        ("near overflow 2x2", np.array([[1e300, 2e300], [1e300, -1e300]], dtype=complex), 1e-10),
        ("near underflow 2x2", np.array([[1e-300, 2e-300], [1e-300, -1e-300]], dtype=complex), 1e-10),
        ("companion n=16 double root 0",
         _companion([-3, 3, -2, 2, 1, -2, 2, 2, 2, 1, 0, 2, 3, 1, 0, 0]), 1e-10),
    ]
    for i in range(3):
        a = np.triu(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)), -1) / 4
        blocks.append((f"random 8x8 #{i}", a, 1e-30))
    a = np.triu(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)), -1)
    tiny = np.ldexp(a.real, -990) + 1j * np.ldexp(a.imag, -990)
    blocks.append(("random 8x8 scaled by 2^-990", tiny, 1e-30))
    for p in (-465, -455, 455, 465):
        blocks.append((f"2x2 scaled by 2^{p}", np.ldexp([[1.0, 2.0], [1.0, -1.0]], p) + 0j, 1e-10))
    return blocks


def _budget_grid():
    """{point: required_bits or the name of the error raised} of
    ``plan_run`` over BUDGET_POINTS seeded random points (n, k, Sigma, B,
    Gamma, delta, phi): n from 1 to 4096, k a power of two from 2 to 2^20
    (set with ``globals_with_degree``, not derived from B), and every other
    value log-uniform over many decades.  A ValueError counts as an outcome,
    so that a math domain error in one checkout shows as a difference."""
    from hessqr.driver import plan_run
    from hessqr.errors import HessqrError
    from hessqr.params import globals_with_degree

    rng = np.random.default_rng(31)
    out = {}
    for _ in range(BUDGET_POINTS):
        n = int(np.exp(rng.uniform(0.0, np.log(4096.0))))
        k = 2 ** int(rng.integers(1, 21))
        sigma = float(10.0 ** rng.uniform(-30, 30))
        B = float(10.0 ** rng.uniform(0, 25))
        gamma, delta = (sigma * float(10.0 ** rng.uniform(lo, 0)) for lo in (-70, -20))
        phi = float(10.0 ** rng.uniform(-6, -0.01))
        try:
            bits = plan_run(n, delta, phi, globals_with_degree(B, k, gamma, sigma, n)).required_bits
        except (HessqrError, ArithmeticError, ValueError) as exc:
            bits = type(exc).__name__
        out[repr((n, k, sigma, B, gamma, delta, phi))] = bits
    return out


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


def _cli_texts(argv, outputs):
    """{option: raw text} of the files ``hessqr solve`` writes for argv with
    each ``option path`` of outputs added, or the exit code when it is not 0."""
    import hessqr.cli

    for option, path in outputs.items():
        argv = argv + [option, str(path)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = hessqr.cli.main(argv)
    if code != 0:
        return {"error": f"exit code {code}"}
    return {option: Path(path).read_text(encoding="ascii") for option, path in outputs.items()}


def _cli_stdout(argv):
    """What ``hessqr`` prints to stdout for argv, followed by its exit code
    when that is not 0 (``--help`` exits through SystemExit)."""
    import hessqr.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = hessqr.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue() + (f"exit code {code}" if code else "")


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
    from hessqr import smalleig
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
                    argv = ["solve", str(inp.path), "--seed", str(inp.solver_seed)]
                    texts = _cli_texts(argv, {"--out-json": workdir / f"out{i}.json"})
                    if "--out-json" in texts:
                        texts["document"] = _plain(json.loads(texts["--out-json"]))
                    texts["info"] = _cli_stdout(["info"] + argv[1:])
                    for command in ("", "solve ", "info "):
                        texts[command + "--help"] = _cli_stdout(command.split() + ["--help"])
                    out[name + " cli json"] = texts
        # the cyclic shift below, through the CLI: column j has a 1 in row j + 1 (mod n)
        cyclic = Path(tmp) / "cyclic.mtx"
        entries = "".join(f"{(j + 1) % CYCLIC_N + 1} {j + 1} 1\n" for j in range(CYCLIC_N))
        cyclic.write_text("%%MatrixMarket matrix coordinate real general\n"
                          f"{CYCLIC_N} {CYCLIC_N} {CYCLIC_N}\n" + entries, encoding="ascii")
        for seed in seeds:
            argv = ["solve", str(cyclic), "--no-preprocess", "--B", "1", "--gamma-gap", "1e-4",
                    "--seed", str(seed)]
            outputs = {"--out-json": Path(tmp) / f"cyclic{seed}.json",
                       "--out-trace": Path(tmp) / f"cyclic{seed}.csv"}
            out[f"cyclic shift n={CYCLIC_N} cli seed {seed}"] = _cli_texts(argv, outputs)
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
            if bits == 53:
                name = f"near-normal n={n} default solve seed {seed}"
                out[name] = _guarded(lambda: _solve_record(hessqr.solve(a, hessqr.SolveConfig(seed=1))))
    a = workloads.near_normal(np.random.default_rng(DIRECT_RNG_SEED), DIRECT_N)
    name = f"near-normal n={DIRECT_N} rng seed {DIRECT_RNG_SEED} default solve"
    out[name] = _guarded(lambda: _solve_record(hessqr.solve(a, hessqr.SolveConfig(seed=1))))
    for seed in seeds:
        a = workloads.near_normal(np.random.default_rng(seed), GUARD_OFF_N)
        name = f"near-normal n={GUARD_OFF_N} default solve seed {seed} without the clongdouble tier"
        smalleig.np = _NumpyWithBinary64Clongdouble()
        try:
            out[name] = _guarded(lambda: _solve_record(hessqr.solve(a, hessqr.SolveConfig(seed=1))))
        finally:
            smalleig.np = np
    solver = hessqr.CharPolySolver()
    hard = {}
    for name, a, beta in _hard_blocks():
        ext = hessqr.HessenbergMatrix(a).to_extended(HARD_BITS).a
        hard[name] = {
            "binary64": _guarded(lambda: _plain(solver.solve(a, beta))),
            f"{HARD_BITS} bits": _guarded(lambda: [repr(z) for z in solver.solve(ext, beta)]),
        }
    out["small solver on hard blocks"] = hard
    out["required_bits over a grid of degree overrides"] = _budget_grid()
    return out


def differences(a, b, where=""):
    """(differing paths, paths of dict keys only one side has).  Two JSON
    texts in which some key is on one side only are compared as the values
    they parse to; other texts are compared as they are."""
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
    if isinstance(a, str) and isinstance(b, str) and a != b:
        try:
            parsed = differences(_plain(json.loads(a)), _plain(json.loads(b)), where)
        except ValueError:
            parsed = [], []
        if parsed[1]:
            return parsed
    return ([] if a == b else [where]), []


def _start_collector(checkout, n_inputs, seeds, out_path):
    """The collecting interpreter of one checkout, started, writing its
    records to out_path."""
    checkout = Path(checkout).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(checkout / "src"), str(checkout / "perfbench")])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["COLUMNS"] = "80"  # the width argparse wraps the help text to
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect", str(out_path)]
    cmd += ["--inputs", str(n_inputs), "--seeds", *map(str, seeds)]
    return subprocess.Popen(cmd, env=env, cwd=checkout)


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
        # the two checkouts collect at the same time, one BLAS thread each
        outs = [Path(tmp) / f"{i}.json" for i in range(2)]
        procs = [_start_collector(c, args.inputs, args.seeds, out) for c, out in zip(args.checkouts, outs)]
        for proc in procs:
            proc.wait()
        for proc in procs:
            if proc.returncode:
                raise subprocess.CalledProcessError(proc.returncode, proc.args)
        a, b = (json.loads(out.read_text(encoding="utf-8")) for out in outs)
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
