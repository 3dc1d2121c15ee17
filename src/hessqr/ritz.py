"""Optimality testing, shift regularization, and the Ritz-or-decouple step.

A set of shifts is theta-optimal when ||e_n* p(H)||^(1/k) <= theta psi_k(H);
`optimal` certifies this one-sidedly from a k-step row iteration.  Forward
approximations of the corner eigenvalues come from a pluggable small solver,
get regularized by uniform disk noise so they keep their distance from the
spectrum, and are then either certified optimal or driven through the
decoupling loop: some regularized value must collapse a bottom subdiagonal in
a single degree-k step, or the probabilistic guarantee failed and the caller
may retry.  Shifts are tuples of roots; a decoupling step comes back as the
driver's ``iqr.Step`` record.
"""

import math
from typing import Protocol

import numpy as np

from .errors import DichotomyMiss, DimensionError, DomainError, ParameterError
from .iqr import Step, iqr_multi
from .kernel import disk_point, log2, norm
from .params import regularization_scales


class SmallEigSolver(Protocol):
    """Forward-approximate eigensolver for upper Hessenberg matrices of
    dimension <= k: the k x k corner here, deflated blocks in the driver.

    The outputs match Spec(M) within absolute distance beta under some
    pairing; a solver that cannot certify that raises."""

    def solve(self, m, beta: float) -> list: ...


def regularize(r_list, eta2, rng):
    """Add independent uniform D(0, eta2) noise to every shift.

    For any exclusion radius eta1 <= eta2 with eta1 + eta2 <= gap(H)/2, the
    perturbed set keeps distance eta1 from Spec(H) with probability
    >= 1 - k (eta1/eta2)^2.  The 2k uniforms come from one draw, the
    stream and the points of ``disk_point(0j, eta2, *rng.random(2))`` per
    shift; eta2 = 0 draws nothing."""
    if eta2 < 0:
        raise DomainError(f"regularize: radius must be >= 0, got {eta2!r}")
    if eta2 == 0.0:
        return tuple(r_list)
    u = rng.random(2 * len(r_list)).tolist()
    return tuple(r + disk_point(0j, eta2, u1, u2) for r, u1, u2 in zip(r_list, u[::2], u[1::2]))


def optimal(h, log2_psi_pow_k, shifts, gd):
    """One-sided theta-optimality certificate.

    True guarantees the shifts are theta-optimal; False guarantees they are
    not (0.998^(1/k) theta)-optimal.  log2_psi_pow_k is L = log2 psi_k(H)^k
    as the driver formed it for h.  Computes v_(j+1) = fl((H - s_(j+1))* v_j)
    from v_0 = e_n.  v_j lives on the last j+1 coordinates, so only the
    bottom-right (k+1) x (k+1) window of H is read, and v_j is kept as its
    nonzero part alone."""
    k = gd.k
    if len(shifts) != k:
        raise DimensionError(f"optimal needs degree k={k} shifts, got {len(shifts)}")
    n = h.n
    if n <= k:
        raise DimensionError(f"optimal needs n > k, got n={n}")
    # the window's conjugate transpose, formed once
    wh = h.a[n - k - 1 :, n - k - 1 :].conj().T
    v = np.ones(1, dtype=wh.dtype)
    for lo, s in zip(range(k, 0, -1), shifts):
        # (H* v) on the rows v lives on, then subtract conj(s) v
        out = wh[lo - 1 :, lo:] @ v
        out[1:] -= np.multiply(np.conj(s), v)
        v = out
    # not optimal when ||v|| >= 0.999 theta^k psi_k(H)^k (compared in log2)
    bound = math.log2(0.999) + k * math.log2(gd.theta) + log2_psi_pow_k
    return not (log2(norm(v)) >= bound)


def ritz_or_decouple(h, log2_psi_pow_k, omega, solver, rng, gd):
    """Regularized corner eigenvalues: either theta-optimal or decoupling.

    Stated for an omega-unreduced H with ||H|| <= Sigma, gap(H) >= 2
    omega^2/Sigma and k/phi_w >= 2, where phi_w is the run's per-call
    failure probability, below 1/300 whenever n > k >= 2
    (``params.derive_run_params``).  The driver's loop guard establishes the
    first and hands down L = log2 psi_k(H)^k, formed for that guard, as
    log2_psi_pow_k.  Returns (ritz, step): the regularized Ritz values, and
    None when they are theta-optimal, or else the "decouple" Step of the
    first value whose degree-k step collapsed some bottom-k subdiagonal
    below omega.  The probability-phi_w failure event surfaces as
    DichotomyMiss."""
    k = gd.k
    n = h.n
    if n <= k:
        raise DimensionError(f"ritz_or_decouple needs n > k, got n={n}")
    beta, eta2 = regularization_scales(omega, gd.Sigma)
    corner = h.corner(k)
    ritz = solver.solve(corner, beta / 2.0)
    if len(ritz) != k:
        raise ParameterError(
            f"small solver returned {len(ritz)} values for a {k}x{k} corner"
        )
    ritz = regularize(ritz, eta2, rng)
    if optimal(h, log2_psi_pow_k, ritz, gd):
        return ritz, None
    for rv in ritz:
        res = iqr_multi(h, (rv,) * k)
        if not res.next_h.is_unreduced(omega, k):
            return ritz, Step(res.next_h, "decouple", rv)
    raise DichotomyMiss(
        "no regularized Ritz value was optimal or decoupling "
        "(a probability-phi_w event, or preconditions violated)"
    )
