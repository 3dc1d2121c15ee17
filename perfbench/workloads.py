"""Benchmark workloads: input generation, one solve, and the correctness gate.

Inputs depend only on the workload and the seed.  The solver sees nothing but
the generated matrices (as arrays, or as Matrix Market files on the CLI
route) and a solver seed; the reference eigenvalues and bounds used by the
gate are computed here, outside every timed region.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.linalg

import hessqr
import hessqr.cli
from hessqr.errors import HessqrError
from hessqr.oracle import condition_report, matched_distance, ref_eigs

# Parameters of the QR workloads: derive_globals(B=1) gives k=4.
QR_B = 1.0
QR_GAMMA = 1e-4
QR_DELTA = 1e-7
QR_PHI = 0.05
PERTURB = 1e-4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Each input is an n x n near-normal matrix.  On the QR route its
    Hessenberg form goes to ``shifted_qr``; on the CLI route (``cli``) the
    dense matrix is written as a Matrix Market file and solved by
    ``hessqr solve <file> --seed S`` with default parameters.  ``batch``
    inputs are generated per run, of which an untraced run solves as many as
    its time allows; a traced run solves the first ``trace_inputs``.
    """

    name: str
    n: int
    batch: int
    trace_inputs: int
    cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("qr_small", n=32, batch=64, trace_inputs=8),
        Workload("direct_default", n=16, batch=32, trace_inputs=4, cli=True),
    )
}


def near_normal(rng, n, spread=1.0, perturb=PERTURB):
    """A normal matrix plus a small Ginibre perturbation, as a dense array.

    A frozen copy of the test suite's near_normal_hessenberg recipe (before
    its Hessenberg reduction), so that editing the tests cannot change a
    workload.  kappa_V stays near 1 and the eigenvalues are well spread."""
    evals = spread * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = q @ np.diag(evals) @ q.conj().T
    return a + perturb * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def write_matrix_market(path, a):
    n = a.shape[0]
    lines = ["%%MatrixMarket matrix array complex general", f"{n} {n}"]
    lines += [f"{float(z.real)!r} {float(z.imag)!r}" for z in a.T.ravel()]  # column-major
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@dataclass
class Input:
    solver_seed: int
    matrix: np.ndarray  # what the program receives: Hessenberg (QR) or dense (CLI)
    path: Optional[Path] = None  # the matrix as a Matrix Market file, on the CLI route


def build_inputs(wl, seed, workdir):
    """The run's inputs; the same (workload, seed) always gives the same list.

    On the CLI route the matrices are written to files under ``workdir``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    solver_seeds = rng.integers(0, 2**31, size=wl.batch)
    inputs = []
    for i, s in enumerate(solver_seeds):
        a = near_normal(rng, wl.n)
        if wl.cli:
            path = Path(workdir) / f"input{i}.mtx"
            write_matrix_market(path, a)
            inputs.append(Input(int(s), a, path))
        else:
            inputs.append(Input(int(s), np.triu(scipy.linalg.hessenberg(a), -1)))
    return inputs


class CliFailure(HessqrError):
    """``hessqr solve`` returned a non-zero exit code."""


def solve(wl, inp, out_json):
    """One solve through the workload's public entry point.

    Returns the SolveResult on the QR route and None on the CLI route, whose
    output is the JSON file ``out_json``."""
    if not wl.cli:
        h = inp.matrix
        gd = hessqr.derive_globals(QR_B, QR_GAMMA, 2.0 * float(np.linalg.norm(h)), h.shape[0])
        return hessqr.shifted_qr(h, QR_DELTA, QR_PHI, gd, seed=inp.solver_seed)
    argv = ["solve", str(inp.path), "--seed", str(inp.solver_seed), "--out-json", str(out_json)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = hessqr.cli.main(argv)
    if code != 0:
        raise CliFailure(f"hessqr {' '.join(argv)} exited with {code}")
    return None


def read_output(wl, result, out_json):
    """(eigenvalues, delta) as the solve reported them.

    delta is the accuracy parameter the run recorded: absolute on the QR
    route, relative to ||A||_2 on the CLI route."""
    if not wl.cli:
        return np.asarray(result.eigenvalues, dtype=np.complex128), result.run_params.delta
    doc = json.loads(Path(out_json).read_text(encoding="ascii"))
    eigs = np.array([complex(e["re"], e["im"]) for e in doc["eigenvalues"]])
    return eigs, float(doc["delta"])


class Reference:
    """Ground truth for one input matrix: its eigenvalues and conditioning.

    The solver promises the eigenvalues of some H' with ||H' - H|| <= delta
    (delta * ||A||_2 on the CLI route), so by Bauer-Fike each one sits within
    kappa_V * delta of the ``oracle.ref_eigs`` spectrum; this is the bound
    the gate applies."""

    def __init__(self, wl, inp):
        rep = condition_report(inp.matrix)
        self.relative = wl.cli
        self.kappa_v, self.norm = rep.kappa_v, rep.norm
        self.eigs = ref_eigs(inp.matrix)

    def bound(self, delta):
        return self.kappa_v * delta * (self.norm if self.relative else 1.0)

    def check(self, eigs, delta):
        """(ok, distance, bound) for one reported spectrum."""
        if len(eigs) != len(self.eigs) or not np.isfinite(eigs).all():
            return False, float("inf"), self.bound(delta)
        dist = matched_distance(eigs, self.eigs)
        bound = self.bound(delta)
        return bool(dist <= bound), dist, bound
