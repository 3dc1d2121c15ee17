"""Recursive driver: decoupling loops, deflation, preprocessing, precision.

Each Hessenberg block larger than the shift degree k runs a while loop until a
bottom-k subdiagonal falls below the working accuracy omega; the block is then
deflated at every sub-threshold entry and the pieces recurse.  Each iteration
first tries a plain step (``_plain_step``): the degree-k step whose k shifts
are LAPACK's eigenvalues of the iterate's k x k corner
(``smalleig.corner_shifts``), one multishift sweep (``iqr.multishift_step``),
kept when it decouples or contracts psi_k by ``REDUCTION_FACTOR``.
Otherwise the iteration runs the paper's step from the same H: the
Ritz-or-decouple step, then the potential-reduction step when that did not
decouple.  The loop's guard is the one check of the omega-unreduced
precondition under which these steps are stated.  Each iterate's bottom-k
subdiagonal moduli are formed once, for that guard and for
L = log2 psi_k(H)^k: by the driver where a block's loop starts, and else by
``iqr.kept_step``, on the Step each branch hands back.  The driver passes L
down to ``ritz_or_decouple`` and ``sh_step``, which check neither again.  The
driver makes every small eigenvalue solver call.  It certifies an iterate's
k x k corner only for the paper's step, once per iteration that runs it
(after a rejected plain step, or where LAPACK fails on the corner), for
``ritz_or_decouple``, ``sh_step`` and every retry after a
``DichotomyMiss``.  Blocks of dimension at most k are the leaves: a 1 x 1
leaf is its entry, and the others go to the small solver together, in one
``solve_each`` call after every block has run (``_certify_leaves``).  A
corner or leaf that no rung certifies raises SmallEigFailure naming its
block and its rows.  Probabilistic failure events are retried a fixed
number of times with fresh randomness before the run aborts.  The
iteration draws from one random stream made from the seed, and the blocks
consume it in the order they run (depth first, top block first), so a run
is byte-reproducible from its seed at a fixed BLAS thread count (with
OpenBLAS 0.3.31, from n = 76 on, the ``zgeev`` of the small solver's
enclosure and of ``smalleig.corner_shifts``, and the norm(a, 2) of
``preprocess`` can depend on that count, and so can the zlaqr5 sweep of a
plain step, whose zgemm calls with accumulated reflectors at most
max(3k - 3, 2k) wide gave other bits at one and two threads from n = 128,
k = 16 on).  Preprocessing draws from a stream of its own, so that
``hessqr info`` rebuilds ``solve``'s Hessenberg form without running the
iteration.

Every quantity a run uses is derived once.  ``prepare`` works out the
seed, the Hessenberg form, the bounds (B, Gamma, Sigma) and the absolute
accuracy from the input and a ``SolveConfig``; ``plan_run`` derives from
those the run plan: the scale 2^e, k, omega, N_dec, phi_w, the required
bits, the route (the QR iteration, or for n <= k a direct small solve) and
whether the worst-case guarantee covers the run.  ``shifted_qr`` runs on the
plan and ``hessqr info`` prints it, so the two cannot disagree.

Why the plain step leaves the paper's bounds as they are:

- N_dec bounds the iterations of a loop that each decouple H or contract
  psi_k by ``REDUCTION_FACTOR``; psi_k starts at most Sigma and stays above
  omega while the loop runs.  A kept plain step does one of the two, measured
  on the very iterate the loop goes on from, so a loop that mixes plain and
  paper steps keeps the same count (and the driver enforces it).
- A rejected plain iterate is discarded: the paper's step starts from the H
  the plain step started from, so the attempt adds no backward error.
- Every step applied is a backward-stable unitary similarity, and an
  iteration keeps one degree-k step, from whichever branch.  The paper's
  steps are k ``iqr_single`` sweeps.  On complex128 a plain step is
  ``iqr.multishift_step``: one zlaqr5 sweep, a product of 3 x 3 Householder
  reflectors (about k n / 2 of them, each applied from both sides), whose
  computed H' is Q*(H + E)Q with Q unitary and ||E||_F a modest multiple of
  k n u ||H||_F (Higham, *Accuracy and Stability of Numerical Algorithms*,
  Lemma 19.3).  Measured with zlaqr5's own Z on near-normal and Ginibre
  draws up to n = 256, k = 64 (one BLAS thread): ||Z*HZ - H'||_F <=
  23 u ||H||_F and ||Z*Z - I||_F <= 417 u, so ||E||_F <= 860 u ||H||_F.
  The shifts enter only through the first column of (H - s1)(H - s2), so
  they choose the similarity and not its backward error.  Both bounds sit
  within the "driver" term of ``params.budget_terms``, which counts
  k N_dec n sweeps (k per iteration, N_dec iterations per loop, at most n
  loops) at 32 n^(3/2) u ||H - s|| each, with ||H - s|| read as
  4.5 Sigma >= 9 ||H||_F: a plain step's k n u-multiples of ||H||_F are
  below its k sweeps' share, so that term and ``required_bits`` stay as
  they are.  On mpmath numbers a plain step is k ``iqr_single`` sweeps.
- The plain shifts are zgeev's eigenvalues of corner + E (an mpmath corner
  rounded to binary64 first), ||E|| a small multiple of k u ||corner||_F at
  binary64's u, so |s| <= (1 + O(ku)) ||H||_F <= Sigma / 2 (1 + O(ku)), as
  the term assumes.  A shift only chooses the similarity, so a binary64
  shift serves a sweep at any precision, with that precision's backward
  error.  How near s lies to the corner's eigenvalues (2^-53 relative at
  best) and forward instability of the shifted step (Parlett and Le 1993)
  decide only how far a step contracts, which its test measures.
- zlaqr5 sets to zero each subdiagonal it finds negligible during the chase
  (Ahues and Tisseur's criterion: |h_(i+1,i)| at most about
  u (|h_ii| + |h_(i+1,i+1)|)), and ``deflate`` then splits at that exact
  zero.  Each such entry counts as deflation mass, at most 6 u ||H||_F
  (zlaqr5's ulp is 2u, and it measures moduli as |Re| + |Im|): far below
  the omega that ``deflate`` zeroes by design, since the "driver" term makes
  u ||H||_F tiny against omega, and within the sweep's own E above.
- Nothing the paper's bounds read comes from an uncertified value: the Ritz
  values of ``ritz_or_decouple`` and ``sh_step`` are the certified corner
  eigenvalues, and every output eigenvalue comes from a certified leaf
  solve.  A corner that no rung certifies stops a run only when the paper's
  step needs its certificate.
- The failure events of probability phi_w arise only in ``ritz_or_decouple``
  and ``sh_step``, which run at most once per iteration (with their
  retries), so at most N_dec times per loop, as the budget phi_w =
  phi / (3 n^2 N_dec) assumes.  The plain step draws no randomness and
  cannot fail: it is kept or it is not.
- ``required_bits`` needs no term for the plain step.  Its backward error
  is within the k sweeps per iteration that the "driver" term of
  ``params.budget_terms`` counts for every kept step, and its test compares
  computed moduli of the iterate that is kept, with no tau product and no
  certificate whose accuracy a term would have to secure.
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
    SmallEigFailure,
    SolveFailure,
    StructureError,
)
from .iqr import (
    HessenbergMatrix,
    kept_step,
    log2_potential_pow_k,
    multishift_step,
    split_blocks,
)
from .kernel import ldexp
from .params import (
    GlobalData,
    RunParams,
    check_phi,
    contraction_target,
    corner_accuracy,
    default_bounds,
    derive_degree,
    derive_globals,
    derive_run_params,
    required_precision,
)
from .ritz import ritz_or_decouple
from .shifting import sh_step
from .smalleig import DEFAULT_SOLVER, corner_shifts

MAX_RETRIES = 3
MIN_BITS = 24  # the fewest working mantissa bits a run accepts


def deflate(h, omega, k):
    """Zero the bottom-k subdiagonal entries at or below omega and split.

    The zeroing span matches the while-loop guard (the bottom min(k, n-1)
    entries).  Splits also happen at subdiagonal entries that are already
    exact zeros anywhere.  Blocks come back in top-to-bottom order; a matrix
    with nothing at or below omega returns as a single block.  Every block is
    a compact copy, and h is left as it is: an entry zeroed is one the split
    drops, outside both blocks, so each block copies its entries from h.a
    once."""
    a, n = h.a, h.n
    starts = {start for start, _ in split_blocks(a)}
    starts.update(i for i in range(n - min(k, n - 1), n) if abs(a[i, i - 1]) <= omega)
    bounds = sorted(starts) + [n]
    return [
        HessenbergMatrix(a[start:stop, start:stop].copy(), validate=False)
        for start, stop in zip(bounds, bounds[1:])
    ]


@dataclass
class IterationRecord:
    index: int
    psi_before: float
    psi_after: float
    branch: str  # "plain" | "decouple" | "ritz_shift" | "exceptional"
    shift: complex  # of a "plain" record, the first of its k shifts: binary64, uncertified
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


def _resolve_seed(seed):
    """seed, a non-negative integer (else ParameterError; a bool is not
    one), or for None one drawn from the system entropy source."""
    if seed is None:
        return int(np.random.SeedSequence().entropy % (2**63))
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _plain_step(h, shifts, log2_psi_pow_k, omega, k):
    """The "plain" Step of the degree-k step whose k shifts are ``shifts``,
    LAPACK's eigenvalues of the corner, when it decouples or contracts the
    potential; None otherwise.  The step is ``iqr.multishift_step``: one
    zlaqr5 sweep on complex128, k ``iqr_single`` sweeps on mpmath numbers.

    h is omega-unreduced with L = log2 psi_k(H)^k = log2_psi_pow_k.  The
    test is ``iqr.kept_step``'s, as for ``sh_step``'s exceptional candidates:
    some bottom-k subdiagonal of the next iterate is at or below omega, or
    psi_k(next) < ``REDUCTION_FACTOR`` psi_k(H).  It draws no randomness,
    and the Step's shift is the first of its k shifts."""
    target = contraction_target(log2_psi_pow_k, k)
    return kept_step(multishift_step(h, shifts), "plain", shifts[0], k, omega, target)


def _process_block(node, h, plan, rng):
    """Run one block larger than k to deflation; returns its children.

    h is in the units of the plan; the eigenvalues and the trace records
    written to the node are multiplied back by 2^e.  Every small solver call
    of the run is made here.  Each loop iteration tries LAPACK's eigenvalues
    of the k x k corner of its iterate (``smalleig.corner_shifts``, in
    either arithmetic) as the shifts of a plain step (``_plain_step``), and
    makes no solver call when the step is kept.  When it is rejected, or
    LAPACK fails on the corner, the corner is certified once, at
    ``params.corner_accuracy`` (SmallEigFailure names the block and the
    corner's rows in the caller's matrix), and the paper's
    ``ritz_or_decouple`` and ``sh_step`` run from the same H;
    ``ritz_or_decouple`` and each of its retries take the same certified
    values: the solver draws no randomness, so a second solve would return
    the same ones.  A kept plain step is recorded with branch "plain" and
    0 retries, and its shift is the first of its k shifts.  The guard reads
    the moduli and L on the kept Step: no iterate is measured twice.  h is
    larger than k: the leaves, of dimension at most k, are certified by
    ``_certify_leaves``, after every block has run.  The loop draws from
    ``rng``, the run's one Generator, which the blocks share in the order
    they run."""
    gd, params, e = plan.gd, plan.params, plan.e
    k = gd.k
    omega = params.omega
    accuracy = corner_accuracy(omega, gd.Sigma)
    moduli = h.bottom_subdiagonal_abs(k)
    log2_psi_pow_k = log2_potential_pow_k(moduli)
    iteration, psi = 0, 2.0 ** (log2_psi_pow_k / k)
    while all(v > omega for v in moduli):
        iteration += 1
        if iteration > params.n_dec_budget:
            raise BudgetExceeded(
                f"block {node.block_id} exceeded N_dec={params.n_dec_budget} iterations"
            )
        corner = h.corner(k)
        shifts = corner_shifts(corner)
        step = None if shifts is None else _plain_step(h, shifts, log2_psi_pow_k, omega, k)
        retries = 0
        if step is None:
            try:
                corner_eigs = DEFAULT_SOLVER.solve(corner, accuracy)
            except SmallEigFailure as exc:
                rows = f"rows {node.start + h.n - k}:{node.start + h.n}"
                raise SmallEigFailure(f"corner of block {node.block_id} at {rows}: {exc}") from exc
            (ritz, step), retries = _retry(
                lambda: ritz_or_decouple(h, log2_psi_pow_k, corner_eigs, omega, rng, gd),
                "ritz_or_decouple",
                node,
            )
            if step is None:
                step, retries_sh = _retry(
                    lambda: sh_step(h, log2_psi_pow_k, ritz, omega, rng, gd), "sh_step", node
                )
                retries += retries_sh
        h, moduli, log2_psi_pow_k = step.next_h, step.moduli, step.log2_psi_pow_k
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


def _certify_leaves(leaves, plan):
    """Set the eigenvalues of every leaf (node, array), the array in the
    units of the plan and the eigenvalues in the caller's.

    A 1 x 1 leaf is its entry, in either arithmetic: the solver would return
    that entry as it is, after validating a block whose entries the QR
    iteration, a unitary similarity of a validated matrix, keeps finite.
    The other leaves go to the small solver together, in one ``solve_each``
    call at delta / n (delta for the direct route's one leaf, the whole
    matrix); a leaf it cannot certify raises SmallEigFailure naming its
    block and its rows in the caller's matrix."""
    acc = plan.params.delta / plan.gd.n0 if plan.route == "qr" else plan.params.delta
    wide = [(node, a) for node, a in leaves if len(a) > 1]
    try:
        solved = iter(DEFAULT_SOLVER.solve_each([a for _, a in wide], acc))
    except SmallEigFailure as exc:
        node, a = wide[exc.index]
        rows = f"{node.start}:{node.start + len(a)}"
        raise SmallEigFailure(f"leaf block {node.block_id} at rows {rows}: {exc}") from exc
    for node, a in leaves:
        vals = [a[0, 0]] if len(a) == 1 else next(solved)
        node.eigenvalues = ldexp(np.array(vals, dtype=np.complex128), plan.e).tolist()


class RunPlan(NamedTuple):
    """Every quantity a run derives from (n, delta, phi, gd), derived once.

    ``gd`` and ``params`` are in the units of H / 2^e, on which the
    iteration runs; ``run_params`` is ``params`` in the caller's units, as
    ``SolveResult`` and ``hessqr info`` report it.  ``route`` is "direct"
    when n <= k, one small solve of the whole matrix, and "qr" otherwise.
    ``guarantee_covered`` is whether the paper's worst-case guarantee covers
    the run: false when the working precision is below ``required_bits``,
    when k is not ``params.derive_degree(B)``, or when B < 2."""

    e: int
    gd: GlobalData
    params: RunParams
    run_params: RunParams
    required_bits: int
    route: str
    guarantee_covered: bool


def plan_run(n, delta, phi, gd, bits=53):
    """The RunPlan of an n x n run with absolute accuracy delta, failure
    tolerance phi and global data gd, all in the caller's units, working at
    ``bits`` mantissa bits (53 for complex128, the mpmath context's
    precision otherwise).

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
    required_bits = required_precision(n, gd_n, params)
    return RunPlan(
        e=e,
        gd=gd_n,
        params=params,
        run_params=replace(params, delta=float(delta), omega=ldexp(params.omega, e),
                           log2_omega=params.log2_omega + e),
        required_bits=required_bits,
        route="direct" if n <= gd.k else "qr",
        guarantee_covered=bits >= required_bits and gd.B >= 2 and gd.k == derive_degree(gd.B),
    )


@dataclass
class SolveResult:
    eigenvalues: np.ndarray
    tree: DeflationTree
    globals_used: GlobalData
    run_params: RunParams
    required_bits: int
    route: str
    guarantee_covered: bool
    seed: int


def shifted_qr(h, delta, phi, gd, seed=0):
    """Eigenvalues of some H' with ||H' - H|| <= delta, w.p. >= 1 - phi.

    Needs Sigma >= 2||H||, B >= 2 kappa_V(H), Gamma <= gap(H)/2, delta <=
    Sigma (caller contracts; only cheap checks run here).  Returns the full
    SolveResult; .eigenvalues is the multiset Lambda.

    The iteration runs on H / 2^e in the units of its ``plan_run``, which
    keeps every quantity the loop forms inside the binary64 range, for any
    e.  Everything returned is in the caller's units: eigenvalues, each
    trace record's psi and shift, ``globals_used`` and ``run_params``, and
    the seed the run used (``_resolve_seed``).  Every block larger than k
    runs its loop (``_process_block``) and draws from one Generator made
    from that seed, in the order the blocks run; the blocks of dimension at
    most k are the leaves, which draw nothing, and once the loop blocks
    have run ``_certify_leaves`` sets their eigenvalues, with one small
    solver call for all of them.  The route and whether the guarantee covers
    the run are the plan's, at the working precision of h."""
    seed = _resolve_seed(seed)
    if not isinstance(h, HessenbergMatrix):
        h = HessenbergMatrix(h)
    bits = h.a[0, 0].context.prec if h.is_extended else 53
    plan = plan_run(h.n, delta, phi, gd, bits)
    rng = np.random.default_rng(seed) if plan.route == "qr" else None  # the direct route draws nothing
    tree = DeflationTree()
    root = DeflationNode(path=(), start=0)
    pending = [(root, HessenbergMatrix(ldexp(h.a, -plan.e), validate=False))]
    leaves = []
    while pending:
        node, blk = pending.pop()
        tree.nodes[node.path] = node
        if blk.n <= plan.gd.k:
            leaves.append((node, blk.a))
        else:
            pending.extend(reversed(_process_block(node, blk, plan, rng)))
    _certify_leaves(leaves, plan)

    eigs = np.array([v for leaf in tree.leaves() for v in leaf.eigenvalues], dtype=np.complex128)
    if len(eigs) != h.n:
        raise SolveFailure(f"eigenvalue count {len(eigs)} != dimension {h.n}")
    return SolveResult(
        eigenvalues=eigs,
        tree=tree,
        globals_used=gd,
        run_params=plan.run_params,
        required_bits=plan.required_bits,
        route=plan.route,
        guarantee_covered=plan.guarantee_covered,
        seed=seed,
    )


def _check_delta(delta):
    if not 0 <= delta < math.inf:
        raise ParameterError(f"accuracy delta must be finite and >= 0, got {delta!r}")


def preprocess(a, delta, rng):
    """Arbitrary square matrix -> (Hessenberg form, delta_pre).

    Adds an iid complex Gaussian perturbation scaled to spectral norm
    delta_pre = delta*||A||/2 (norm measured, then scaled) and reduces by
    Householder reflectors.  A ``HessenbergMatrix`` is taken by its array."""
    a = np.asarray(a.a if isinstance(a, HessenbergMatrix) else a, dtype=np.complex128)
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
    (DomainError), and the input non-empty (DimensionError); the seed is
    ``_resolve_seed`` of the config's.  With preprocessing on,
    ``preprocess`` perturbs and reduces the input (drawing from a stream
    of its own, made from the seed), and delta is the absolute accuracy
    delta_pre = delta*||A||_2/2.  Without it, the input must already be
    upper Hessenberg, and delta is delta*||H||_F; at 53 bits an input of
    mpmath numbers is rounded to binary64 first, as ``preprocess`` rounds
    every input.  Sigma is 2||H||_F, and B and Gamma default to
    ``params.default_bounds`` at scale delta_pre or delta/2, so that a zero
    scale is reported as one; only then is delta raised to the smallest
    normal number where it is below it.  ``solve`` runs on exactly this,
    and ``hessqr info`` prints it."""
    if not (isinstance(config.bits, (int, np.integer)) and config.bits >= MIN_BITS):
        raise ParameterError(f"bits must be an integer >= {MIN_BITS}, got {config.bits!r}")
    check_phi(config.phi)
    a = a.a if isinstance(a, HessenbergMatrix) else a
    shape = np.shape(a)
    if 0 in shape:
        raise DimensionError(f"expected a non-empty square matrix, got shape {shape}")
    seed = _resolve_seed(config.seed)
    if config.preprocess:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xFEED,)))
        h, delta = preprocess(a, config.delta, rng)
        norm_h = float(h.frobenius_norm())
        scale = delta
    else:
        _check_delta(config.delta)
        h = HessenbergMatrix(a)
        if h.is_extended and config.bits == 53:
            h = HessenbergMatrix(h.a.astype(np.complex128), validate=False)
        norm_h = float(h.frobenius_norm())
        delta = config.delta * norm_h
        scale = delta / 2.0
    B, Gamma = default_bounds(h.n, scale, config.B, config.Gamma)
    return h, derive_globals(B, Gamma, 2.0 * norm_h, h.n), max(delta, sys.float_info.min), seed


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
