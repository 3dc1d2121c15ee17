"""Potential-reduction step: promising-value search and exceptional shifts.

`find` binary-searches a theta-optimal Ritz set for an alpha-promising value
using tau products of half-set polynomials.  If the degree-k step with that
value stagnates, `exc` lays a randomly translated triangular-lattice net over
a disk around it; with high probability some net point either decouples the
matrix or contracts the potential.  `sh_step` wires the two together and
returns the ``iqr.Step`` of the branch that fired.  No shift prefix is swept
twice from the same H: each round of `find` continues its index-0 half from
the sweeps the previous winner began with, and `sh_step` continues the
r^(k/2) of `find`'s last round to r^k, so a step costs k log2(k) + 1 sweeps
(9 at k = 4, 25 at k = 8).  Each sweep's iterate is formed on its first
read (``iqr.IqrResult``), and the tau products read none: only the iterates
that a later sweep starts from and the step's result are formed,
k log2(k) - 2 log2(k) + 2 of them (6 at k = 4, 20 at k = 8).  Shift sets
and candidate lists are tuples; the decoupling rate gamma and the net
parameter xi are the constants of ``params``.
"""

import math
from functools import lru_cache

from .errors import DimensionError, DomainError, StagnationFailure
from .iqr import IqrResult, Step, comp_tau, iqr_multi, potential
from .kernel import disk_point, log2
from .params import GAMMA, REDUCTION_FACTOR, exc_epsilon


def find(h, ritz, gd):
    """(r, half): an alpha-promising member r of a theta-optimal Ritz set and
    the ``IqrResult`` of r^(k/2) on h, handed on as the first half of r^k.

    log2(k) halving rounds; round j keeps the half R_b whose polynomial
    p_(j,b)^(2^(j-1)) (degree k/2) has the smaller tau product.  Ties keep
    the index-0 half.  psi_k(H) > 0 holds on h because the driver's loop
    guard found every bottom-k subdiagonal above omega.  The index-0 half
    of round j >= 2 starts with the 2^(j-2) sweeps of its first value that
    round j-1's winner started with, and continues from them, so the rounds
    sweep k log2(k) - k/2 + 1 times."""
    k = gd.k
    if len(ritz) != k:
        raise DimensionError(f"find needs degree k={k}, got {len(ritz)}")
    current = ritz
    head = IqrResult(h, [], None, None)  # the last winner's sweeps of current[0]
    rep = 1
    while True:
        half = len(current) // 2
        cands = current[:half], current[half:]
        firsts = (
            head.then((current[0],) * (rep - len(head.r_nn_per_step))),
            iqr_multi(h, (current[half],) * rep),
        )
        sweeps = [
            first.then(tuple(r for r in cand[1:] for _ in range(rep)))
            for first, cand in zip(firsts, cands)
        ]
        win = 0 if comp_tau(sweeps[0]) <= comp_tau(sweeps[1]) else 1
        if half == 1:
            return cands[win][0], sweeps[win]
        current, head, rep = cands[win], firsts[win], 2 * rep


@lru_cache(maxsize=32)
def build_net(epsilon):
    """Maximal 0.99 eps-net of D(0, 1 + eps).

    Equilateral triangular lattice with spacing sqrt(3) * 0.99 eps clipped to
    D(0, 1 + 1.99 * 0.99 eps), enumerated row-major by lattice coordinates.
    The point count is bounded by the packing function S(eps)
    (``oracle.net_size_bound``)."""
    if not (0.0 < epsilon <= 2.0):
        raise DomainError(f"net resolution must be in (0, 2], got {epsilon!r}")
    c = 0.99 * epsilon
    d = math.sqrt(3.0) * c
    radius = 1.0 + 1.99 * c
    points = []
    j_max = int(math.floor(radius / (d * math.sqrt(3.0) / 2.0))) + 1
    for j in range(-j_max, j_max + 1):
        y = j * d * math.sqrt(3.0) / 2.0
        if abs(y) > radius:
            continue
        half_width = math.sqrt(max(radius**2 - y**2, 0.0))
        x_off = j * d / 2.0
        i_lo = int(math.ceil((-half_width - x_off) / d))
        i_hi = int(math.floor((half_width - x_off) / d))
        for i in range(i_lo, i_hi + 1):
            points.append(complex(i * d + x_off, y))
    return tuple(points)


def exc_params(gd, psi_hat):
    """Candidate-disk radius and net resolution from the global data."""
    k = gd.k
    r_hat = 2.0 ** (1.0 / k) * gd.alpha * gd.B ** (1.0 / k) * gd.theta * psi_hat
    return r_hat, exc_epsilon(k, gd.alpha, gd.theta, gd.B)


def exc(r, psi, rng, gd):
    """Exceptional-shift candidates around a stagnating promising value.

    psi is psi_k(H) of the omega-unreduced H that ``sh_step`` holds.  Scales
    and translates the cached net to D(r, R_hat) with a uniform random
    offset of radius eps * R_hat; points pushed outside the disk are projected
    radially back onto its boundary.  With high probability some candidate
    decouples or contracts the potential (``sh_step`` reports a failure)."""
    r_hat, epsilon = exc_params(gd, psi)
    net = build_net(epsilon)
    w = disk_point(0j, epsilon * r_hat, *rng.random(2))
    r = complex(r)
    out = []
    for p in net:
        s = r + w + r_hat * p
        d = abs(s - r)
        if d > r_hat:
            s = r + (s - r) * (r_hat / d)
        out.append(s)
    return tuple(out)


def sh_step(h, log2_psi_pow_k, ritz, omega, rng, gd):
    """One potential-reduction step of the degree-k shifting strategy.

    h is omega-unreduced (the driver's loop guard checked it), and its
    L = log2 psi_k(H)^k comes as log2_psi_pow_k; psi_k(H) = 2^(L/k) is
    formed once, for the exceptional target and ``exc``.  Returns the Step
    of the branch that fired: "ritz_shift" when the promising Ritz value r
    already contracts the tau product, or else "exceptional" with the first
    candidate of the exceptional-shift scan, in net order, that decouples or
    lands below 1.002 (1 - gamma) psi_k(H).  The failure event, of
    probability at most the run's phi_w (``params.derive_run_params``),
    surfaces as StagnationFailure.  tau_k multiplies the r_nn values of
    ``find``'s half r^(k/2) and of the other k/2 sweeps."""
    k = gd.k
    r, half = find(h, ritz, gd)

    # complete r^k: tau_k and the next iterate
    full = half.then((r,) * (k // 2))
    # tau_k < ((1 - gamma) psi_k(H))^k, compared in log2
    if log2(comp_tau(full)) < k * math.log2(1.0 - GAMMA) + log2_psi_pow_k:
        return Step(full.next_h, "ritz_shift", r)

    psi = 2.0 ** (log2_psi_pow_k / k)
    candidates = exc(r, psi, rng, gd)
    target = REDUCTION_FACTOR * psi
    for s in candidates:
        res = iqr_multi(h, (s,) * k)
        if potential(res.next_h, k) < target or not res.next_h.is_unreduced(omega, k):
            return Step(res.next_h, "exceptional", s)
    raise StagnationFailure(
        f"none of {len(candidates)} exceptional candidates reduced the "
        "potential (a probability-phi_w event, or preconditions violated)"
    )
