"""Recursive driver: decoupling loops, deflation, preprocessing, precision.

Each Hessenberg block larger than the shift degree k runs a while loop that
alternates the Ritz-or-decouple step with the potential-reduction step until a
bottom-k subdiagonal falls below the working accuracy omega; the block is then
deflated at every sub-threshold entry and the pieces recurse.  The loop's
guard is the one check of the omega-unreduced precondition under which both
steps are stated: the driver forms each iterate's bottom-k subdiagonal moduli
once, for that guard and for L = log2 psi_k(H)^k, and passes L down to
``ritz_or_decouple`` and ``sh_step``, which check neither again.  Blocks of
dimension at most k go straight to the small eigenvalue solver.  Probabilistic
failure events are retried a fixed number of times with fresh randomness
before the run aborts.  Every block owns a deterministic random substream
derived from the master seed and its position in the deflation tree, so a
run is byte-reproducible from its seed at a fixed BLAS thread count (from
n ~ 150 on, the small solver's zgeev seeds and the norm(a, 2) of
``preprocess`` depend on that count).  ``block_seed`` hands the path to
``SeedSequence`` as one uint32 array: numpy turns a tuple spawn key into
entropy words one integer at a time in Python (about 0.6 us per level on a
2-vCPU x86-64 machine), and on the QR route nearly every iteration deflates
one eigenvalue and goes on one level deeper (paths of depth 27 at n = 32,
about 120 at n = 128).  Every entry is a block index below n < 2^32, one
32-bit word either way, so the array assembles the same entropy as the
tuple and every stream is the same.

Every quantity a run uses is derived once.  ``prepare`` works out the
seed, the Hessenberg form, the bounds (B, Gamma, Sigma) and the absolute
accuracy from the input and a ``SolveConfig``; ``plan_run`` derives from
those the run plan: the scale 2^e, k, omega, N_dec, phi_w and the required
bits.  ``shifted_qr`` runs on the plan and ``hessqr info`` prints it, so the
two cannot disagree.
"""

import math
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from .errors import (
    BudgetExceeded,
    DimensionError,
    ParameterError,
    RetryableFailure,
    SolveFailure,
    StructureError,
)
from .iqr import HessenbergMatrix, log2_potential_pow_k, split_blocks
from .kernel import ldexp
from .params import (
    GlobalData,
    RunParams,
    check_phi,
    default_bounds,
    derive_globals,
    derive_run_params,
    required_precision,
)
from .ritz import ritz_or_decouple
from .shifting import sh_step
from .smalleig import DEFAULT_SOLVER

MAX_RETRIES = 3
MIN_BITS = 24  # the fewest working mantissa bits a run accepts


def deflate(h, omega, k):
    """Zero the bottom-k subdiagonal entries at or below omega and split.

    The zeroing span matches the while-loop guard (the bottom min(k, n-1)
    entries).  Splits also happen at subdiagonal entries that are already
    exact zeros anywhere.  Blocks come back in top-to-bottom order; a matrix
    with nothing at or below omega returns as a single block.  h is copied
    only when an entry is zeroed; every block is a copy."""
    a = h.a
    n = h.n
    for i in range(n - 1 - min(k, n - 1), n - 1):
        if abs(a[i + 1, i]) <= omega:
            if a is h.a:
                a = a.copy()
            a[i + 1, i] = 0
    return [
        HessenbergMatrix(a[start:stop, start:stop].copy(), validate=False)
        for start, stop in split_blocks(a, n)
    ]


@dataclass
class IterationRecord:
    index: int
    psi_before: float
    psi_after: float
    branch: str  # "decouple" | "ritz_shift" | "exceptional"
    shift: complex
    retries: int


@dataclass
class DeflationNode:
    path: tuple
    start: int
    trace: list = field(default_factory=list)
    eigenvalues: Optional[list] = None  # set on leaves

    @property
    def block_id(self):
        return ".".join(str(p) for p in ("0",) + self.path)


@dataclass
class DeflationTree:
    """The blocks of a run by path, in the order they ran: depth-first, top
    block first, which is path order, and leaves by increasing start."""

    nodes: dict = field(default_factory=dict)

    def leaves(self):
        return [n for n in self.nodes.values() if n.eigenvalues is not None]


def _retry(fn, name, node):
    last = None
    for attempt in range(MAX_RETRIES + 1):
        try:
            return fn(), attempt
        except RetryableFailure as exc:
            last = exc
    raise SolveFailure(
        f"{name} (block {node.block_id}) failed {MAX_RETRIES + 1} times; last error: {last}"
    ) from last


def block_seed(seed, path):
    """The SeedSequence of the block at ``path`` in the deflation tree:
    ``SeedSequence(seed, spawn_key=path)``, built in a time that does not
    grow with the depth (see the module docstring)."""
    return np.random.SeedSequence(seed, spawn_key=(np.array(path, dtype=np.uint32),))


def _process_block(node, h, plan, seed):
    """Run one block to deflation (or solve it directly); returns children.

    h is in the units of the plan; the eigenvalues and the trace records
    written to the node are multiplied back by 2^e."""
    gd, params, e = plan.gd, plan.params, plan.e
    k = gd.k
    if h.n <= k:
        acc = params.delta / gd.n0 if node.path else params.delta
        vals = DEFAULT_SOLVER.solve(h.a, acc)
        node.eigenvalues = [ldexp(complex(v), e) for v in vals]
        return []

    rng = np.random.default_rng(block_seed(seed, node.path))
    omega = params.omega
    moduli = h.bottom_subdiagonal_abs(k)
    log2_psi_pow_k = log2_potential_pow_k(moduli)
    iteration, psi = 0, 2.0 ** (log2_psi_pow_k / k)
    while all(v > omega for v in moduli):
        iteration += 1
        if iteration > params.n_dec_budget:
            raise BudgetExceeded(
                f"block {node.block_id} exceeded N_dec={params.n_dec_budget} iterations"
            )
        (ritz, step), retries = _retry(
            lambda: ritz_or_decouple(h, log2_psi_pow_k, omega, DEFAULT_SOLVER, rng, gd),
            "ritz_or_decouple",
            node,
        )
        if step is None:
            step, retries_sh = _retry(
                lambda: sh_step(h, log2_psi_pow_k, ritz, omega, rng, gd), "sh_step", node
            )
            retries += retries_sh
        h = step.next_h
        moduli = h.bottom_subdiagonal_abs(k)
        log2_psi_pow_k = log2_potential_pow_k(moduli)
        psi_before, psi = psi, 2.0 ** (log2_psi_pow_k / k)
        node.trace.append(
            IterationRecord(
                index=iteration,
                psi_before=ldexp(psi_before, e),
                psi_after=ldexp(psi, e),
                branch=step.branch,
                shift=ldexp(complex(step.shift), e),
                retries=retries,
            )
        )

    children = []
    offset = node.start
    for i, blk in enumerate(deflate(h, omega, k)):
        children.append((DeflationNode(path=node.path + (i,), start=offset), blk))
        offset += blk.n
    return children


class RunPlan(NamedTuple):
    """Every quantity a run derives from (n, delta, phi, gd), derived once.

    ``gd`` and ``params`` are in the units of H / 2^e, on which the
    iteration runs; ``run_params`` is ``params`` in the caller's units, as
    ``SolveResult`` and ``hessqr info`` report it."""

    e: int
    gd: GlobalData
    params: RunParams
    run_params: RunParams
    required_bits: int


def plan_run(n, delta, phi, gd):
    """The RunPlan of an n x n run with absolute accuracy delta, failure
    tolerance phi and global data gd, all in the caller's units.

    e is the binary exponent of Sigma, and Sigma, Gamma and delta are divided
    by 2^e, so Sigma lies in [1/2, 1).  Division by a power of two is exact
    unless it underflows, and the QR iteration is homogeneous in H, so a run
    on H / 2^e with these values is the same run in other units (Gamma is a
    length in omega's formula).  In the caller's units omega 2^e can
    underflow to 0 although the run's omega is positive (at 2^-1000, say);
    ``run_params.log2_omega`` = log2(omega) + e reports it there."""
    e = math.frexp(gd.Sigma)[1]
    gd_n = replace(gd, Sigma=math.ldexp(gd.Sigma, -e), Gamma=math.ldexp(gd.Gamma, -e))
    try:
        params = derive_run_params(n, math.ldexp(delta, -e), phi, gd_n)
    except ParameterError as exc:  # name the caller's Gamma, not Gamma / 2^e
        msg = str(exc).replace(f"Gamma={gd_n.Gamma:g}", f"Gamma={gd.Gamma:g}")
        raise ParameterError(msg) from None
    return RunPlan(
        e=e,
        gd=gd_n,
        params=params,
        run_params=replace(params, delta=float(delta), omega=ldexp(params.omega, e),
                           log2_omega=params.log2_omega + e),
        required_bits=required_precision(n, gd_n, params),
    )


@dataclass
class SolveResult:
    eigenvalues: np.ndarray
    tree: DeflationTree
    globals_used: GlobalData
    run_params: RunParams
    required_bits: int
    seed: int


def shifted_qr(h, delta, phi, gd, seed=0):
    """Eigenvalues of some H' with ||H' - H|| <= delta, w.p. >= 1 - phi.

    Needs Sigma >= 2||H||, B >= 2 kappa_V(H), Gamma <= gap(H)/2, delta <=
    Sigma (caller contracts; only cheap checks run here).  Returns the full
    SolveResult; .eigenvalues is the multiset Lambda.

    The iteration runs on H / 2^e in the units of its ``plan_run``, which
    keeps every quantity the loop forms inside the binary64 range, for any
    e.  Everything returned is in the caller's units: eigenvalues, each
    trace record's psi and shift, ``globals_used`` and ``run_params``."""
    if not isinstance(h, HessenbergMatrix):
        h = HessenbergMatrix(h)
    plan = plan_run(h.n, delta, phi, gd)
    tree = DeflationTree()
    root = DeflationNode(path=(), start=0)
    pending = [(root, HessenbergMatrix(ldexp(h.a, -plan.e), validate=False))]
    while pending:
        node, blk = pending.pop()
        tree.nodes[node.path] = node
        pending.extend(reversed(_process_block(node, blk, plan, seed)))

    eigs = np.array([v for leaf in tree.leaves() for v in leaf.eigenvalues], dtype=np.complex128)
    if len(eigs) != h.n:
        raise SolveFailure(f"eigenvalue count {len(eigs)} != dimension {h.n}")
    return SolveResult(
        eigenvalues=eigs,
        tree=tree,
        globals_used=gd,
        run_params=plan.run_params,
        required_bits=plan.required_bits,
        seed=seed,
    )


def _check_delta(delta):
    if not 0 <= delta < math.inf:
        raise ParameterError(f"accuracy delta must be finite and >= 0, got {delta!r}")


def preprocess(a, delta, rng):
    """Arbitrary square matrix -> (Hessenberg form, delta_pre).

    Adds an iid complex Gaussian perturbation scaled to spectral norm
    delta_pre = delta*||A||/2 (norm measured, then scaled) and reduces by
    Householder reflectors."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise StructureError("input matrix has non-finite entries")
    n = a.shape[0]
    _check_delta(delta)

    norm_a = float(np.linalg.norm(a, 2)) if n > 1 else float(abs(a[0, 0]))
    delta_pre = delta * norm_a / 2.0
    if delta_pre > 0:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g_norm = float(np.linalg.norm(g, 2))
        a = a + g * (delta_pre / g_norm)

    hess = a
    if n > 2 and np.tril(a, -2).any():
        # gehrd directly: Householder reduction without LAPACK's balancing
        # pass (balancing would rescale the matrix under the caller)
        hess, _tau, info = scipy.linalg.lapack.zgehrd(a)
        if info != 0:
            raise StructureError(f"Hessenberg reduction failed (info={info})")
    return HessenbergMatrix(np.triu(hess, -1), validate=False), delta_pre


@dataclass
class SolveConfig:
    """Configuration of one run, for the library entry point and the CLI."""

    delta: float = 1e-6
    phi: float = 0.01
    seed: Optional[int] = None
    bits: int = 53
    B: Optional[float] = None
    Gamma: Optional[float] = None
    preprocess: bool = True


def prepare(a, config):
    """The parameters a run works with: (h, gd, delta, seed).

    ``bits`` must be an integer >= MIN_BITS (ParameterError), phi in (0, 1)
    (DomainError), and the input non-empty (DimensionError).  The seed is
    drawn from the system entropy source when the config has none; one it
    gives must be a non-negative integer (ParameterError).  With
    preprocessing on, ``preprocess`` perturbs and reduces the input (its
    randomness derived from the seed), and delta is the absolute accuracy
    delta_pre = delta*||A||_2/2.  Without it, the input must already be
    upper Hessenberg, and delta is delta*||H||_F.  Sigma is 2||H||_F, and B
    and Gamma default to ``params.default_bounds`` at scale delta_pre or
    delta/2.  ``solve`` runs on exactly this, and ``hessqr info`` prints it."""
    if not (isinstance(config.bits, (int, np.integer)) and config.bits >= MIN_BITS):
        raise ParameterError(f"bits must be an integer >= {MIN_BITS}, got {config.bits!r}")
    check_phi(config.phi)
    shape = np.shape(a.a if isinstance(a, HessenbergMatrix) else a)
    if 0 in shape:
        raise DimensionError(f"expected a non-empty square matrix, got shape {shape}")
    seed = config.seed
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**63))
    elif not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    tiny = sys.float_info.min  # a Python float: n / tiny overflows to inf quietly
    if config.preprocess:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xFEED,)))
        h, scale = preprocess(a, config.delta, rng)
        norm_h = float(h.frobenius_norm())
        delta = max(scale, tiny)
    else:
        _check_delta(config.delta)
        h = a if isinstance(a, HessenbergMatrix) else HessenbergMatrix(a)
        norm_h = float(h.frobenius_norm())
        delta = max(config.delta * norm_h, tiny)
        scale = delta / 2.0
    B, Gamma = default_bounds(h.n, scale, config.B, config.Gamma)
    return h, derive_globals(B, Gamma, 2.0 * norm_h, h.n), delta, seed


def solve(a, config=None):
    """Eigenvalues of a square complex matrix with backward error delta*||A||.

    With preprocessing on, the input is Gaussian-perturbed by delta*||A||/2
    and Hessenberg-reduced, then the recursive driver runs with absolute
    accuracy delta*||A||/2; without it, the input must already be upper
    Hessenberg (see ``prepare``).  A run with ``bits`` other than 53 works on
    mpmath numbers of that precision from the Hessenberg form on (IQR sweeps,
    tau products, Ritz values), ``to_extended(bits)``; the small solver
    certifies at its own, higher precision either way.  The result reports
    the mantissa bits the worst-case analysis requires as ``required_bits``."""
    config = config or SolveConfig()
    h, gd, delta, seed = prepare(a, config)
    h = h if config.bits == 53 else h.to_extended(config.bits)
    return shifted_qr(h, delta, config.phi, gd, seed=seed)
