"""Defining parameters, derived constants, and the precision budget.

The solver family is indexed by the condition bound B, the gap bound Gamma,
and the norm bound Sigma.  From B alone come the shift degree k (smallest
power of two taming the B-dependent blowup), the promising parameter alpha,
the optimality parameter theta; the decoupling rate gamma = 0.2 and the
exceptional-shift net parameter xi = 0.999 (1 - gamma) are constants.  From
(n, delta, phi) come the working accuracy omega, the per-call failure budget,
and the iteration budget N_dec of each decoupling loop.

The formulas run in binary64 and some square magnitudes (omega^2 in
``corner_accuracy``), so a run evaluates them once, with Sigma scaled
into [1/2, 1) (``driver.plan_run``, for ``solve`` and ``hessqr info``
alike), where only extreme ratios to Sigma under- or overflow.  Powers of B
are taken in log2 (no B^4 is formed), every product in the precision budget
(``budget_terms``) is taken in log2, and a value that leaves binary64 range
raises ParameterError.
"""

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, ParameterError

GAMMA = 0.2
REDUCTION_FACTOR = 1.002 * (1.0 - GAMMA)  # per-iteration potential factor
XI = 0.999 * (1.0 - GAMMA)  # exceptional-shift net parameter
_LOG2_3 = math.log2(3.0)


def derive_degree(B):
    """Smallest power of two k >= 2 with B^((8 lg k + 3)/(k-1)) (2B^4)^(2/(k-1)) <= 3."""
    if B < 1:
        raise DomainError(f"condition bound must satisfy B >= 1, got {B!r}")
    lB = math.log2(B)
    k = 2
    while True:
        lhs = ((8.0 * math.log2(k) + 3.0) * lB + 2.0 * (1.0 + 4.0 * lB)) / (k - 1)
        if lhs <= _LOG2_3:
            return k
        k *= 2
        if k > 2**62:
            raise ParameterError(f"no admissible shift degree for B={B!r}")


def _exp2(x, name):
    """2^x for x < 512, so that its square is a binary64 number too;
    ParameterError otherwise."""
    if not x < 512.0:
        raise ParameterError(f"{name} = 2^{x:g} is out of binary64 range")
    return 2.0**x


def derive_constants(B, k):
    """alpha and theta for a given (B, k) pair.

    alpha = (1.01 B)^(4 lg k / k) and theta = (1.01 / 0.998^(1/k))
    (2 B^4)^(1/(2k)), with the powers of B taken in log2 so that no B^4 is
    formed (at B = 1 the factor is exactly 1)."""
    lB = math.log2(B)
    e = 4.0 * math.log2(k) / k
    alpha = 1.01**e * _exp2(e * lB, "alpha")
    theta = (1.01 / 0.998 ** (1.0 / k)) * _exp2((1.0 + 4.0 * lB) / (2.0 * k), "theta")
    return alpha, theta


@dataclass(frozen=True)
class GlobalData:
    """Defining parameters (B, Gamma, Sigma) plus derived constants."""

    B: float
    Gamma: float
    Sigma: float
    n0: int
    k: int
    alpha: float
    theta: float

    def __post_init__(self):
        if self.B < 1:
            raise DomainError(f"B must be >= 1, got {self.B!r}")
        if not (0 < self.Gamma < math.inf and 0 < self.Sigma < math.inf):
            raise ParameterError(
                f"Gamma={self.Gamma!r} and Sigma={self.Sigma!r} must be positive and finite"
            )
        if self.k < 2 or self.k & (self.k - 1):
            raise ParameterError(f"shift degree must be a power of two >= 2, got {self.k}")


def derive_globals(B, Gamma, Sigma, n0):
    """GlobalData with the degree k set honestly from B."""
    return globals_with_degree(B, derive_degree(B), Gamma, Sigma, n0)


def globals_with_degree(B, k, Gamma, Sigma, n0):
    """GlobalData with an explicitly chosen degree.

    alpha and theta follow the (B, k) formulas; the degree equation is not
    enforced, so for k below ``derive_degree(B)`` the worst-case convergence
    guarantee may not apply."""
    alpha, theta = derive_constants(B, k)
    return GlobalData(B=float(B), Gamma=float(Gamma), Sigma=float(Sigma),
                      n0=int(n0), k=int(k), alpha=alpha, theta=theta)


def default_bounds(n, scale, B=None, Gamma=None):
    """(B, Gamma), each defaulting to the perturbation-scale heuristic.

    A perturbation of size ``scale`` makes B = max(1, n/scale) and
    Gamma = (scale/n)^2 plausible bounds on kappa_V and on the eigenvalue
    gap; values given explicitly are kept, and must be finite, Gamma
    positive too (B >= 1 is ``derive_degree``'s check)."""
    if B is not None and not math.isfinite(B):
        raise ParameterError(f"the given B={B!r} is not a finite number")
    if Gamma is not None and not 0 < Gamma < math.inf:
        raise ParameterError(f"the given Gamma={Gamma!r} must be positive and finite")
    if B is not None and Gamma is not None:
        return B, Gamma
    if scale <= 0:
        raise ParameterError(
            "auto B/Gamma need a positive perturbation scale, which is 0 "
            "when delta = 0 or ||A|| = 0; pass explicit B and Gamma"
        )
    B = B if B is not None else max(1.0, n / scale)
    if Gamma is None:
        try:
            Gamma = (scale / n) ** 2
        except OverflowError:
            Gamma = math.inf
    if not (math.isfinite(B) and 0 < Gamma < math.inf):
        raise ParameterError(
            f"auto B/Gamma out of binary64 range at scale {scale:g} "
            f"(B={B:g}, Gamma={Gamma:g}); pass explicit B and Gamma"
        )
    return B, Gamma


@dataclass(frozen=True)
class RunParams:
    """Per-run accuracy/failure/iteration budget."""

    delta: float
    omega: float
    log2_omega: float     # log2(omega), finite where omega underflows in caller units
    phi_working: float
    n_dec: float          # real-valued bound from the budget equation
    n_dec_budget: int     # usable iterations: floor(n_dec)


def check_phi(phi):
    """DomainError unless the failure tolerance phi lies in (0, 1)."""
    if not (0.0 < phi < 1.0):
        raise DomainError(f"failure tolerance must be in (0,1), got {phi!r}")


def derive_run_params(n, delta, phi, gd):
    """The RunParams of an n x n run; ParameterError where omega, or on the QR
    route (n > k) ``corner_accuracy``, underflows binary64, where omega is so
    small against Sigma that N_dec is not finite, and where phi is so small
    that phi_working = phi / (3 n^2 N_dec) falls below the normal range or the
    budget's 2k / phi_working overflows."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not (0 < delta <= gd.Sigma):
        raise DomainError(f"need 0 < delta <= Sigma, got delta = {delta / gd.Sigma:g} Sigma")
    check_phi(phi)
    try:
        omega = min(delta, gd.Gamma / (8.0 * n**2 * gd.B**2)) / (4.0 * n)
    except OverflowError:  # B^2
        omega = 0.0
    if not omega > 0:
        raise ParameterError(
            f"working accuracy omega underflows binary64 (B={gd.B:g}, Gamma={gd.Gamma:g})"
        )
    if n > gd.k and not corner_accuracy(omega, gd.Sigma) > 0:
        raise ParameterError(
            f"corner accuracy beta underflows binary64 (B={gd.B:g}, Gamma={gd.Gamma:g})"
        )
    n_dec = math.log(gd.Sigma / omega) / math.log(1.0 / REDUCTION_FACTOR)
    if not 0 < n_dec < math.inf:  # Sigma / omega overflows once omega is subnormal
        raise ParameterError(f"omega = {omega / gd.Sigma:g} Sigma leaves no finite N_dec={n_dec!r}")
    phi_working = (phi / (3.0 * n**2)) / n_dec
    if not (phi_working >= sys.float_info.min and 2.0 * gd.k / phi_working < math.inf):
        raise ParameterError(
            f"failure tolerance phi={phi!r} is too small: phi / (3 n^2 N_dec) = {phi_working!r}"
            f" leaves the normal binary64 range at n={n}, k={gd.k}"
        )
    return RunParams(delta=float(delta), omega=omega,
                     log2_omega=math.log2(omega),
                     phi_working=phi_working, n_dec=n_dec,
                     n_dec_budget=max(1, math.floor(n_dec)))


def corner_accuracy(omega, Sigma):
    """beta / 2 with beta = omega^2 / (16 * 101 Sigma): the accuracy the
    driver certifies the corner eigenvalues at, and eta2, the radius of the
    noise that turns them into shifts (``ritz.regularize``)."""
    return omega**2 / (16.0 * 101.0 * Sigma) / 2.0


def contraction_target(log2_psi_pow_k, k):
    """k log2(``REDUCTION_FACTOR``) + L: the L = log2 psi_k^k below which a
    step's next iterate has contracted psi_k by ``REDUCTION_FACTOR``."""
    return k * math.log2(REDUCTION_FACTOR) + log2_psi_pow_k


def exc_epsilon(k, alpha, theta, B):
    """Net resolution for the exceptional-shift disk.

    (xi (1 - gamma) / ((13 B^4)^(1/k) alpha^2 theta^2))^(k/(k-1)), with the
    power of B taken in log2 as in ``derive_constants``."""
    scale = 13.0 ** (1.0 / k) * _exp2(4.0 * math.log2(B) / k, "B^(4/k)")
    base = XI * (1.0 - GAMMA) / (scale * alpha**2 * theta**2)
    eps = base ** (k / (k - 1.0))
    if not eps > 0:
        raise ParameterError(f"exceptional-shift resolution underflows binary64 (B={B:g}, k={k})")
    return eps


# ---------------------------------------------------------------------------
# precision budget (everything in log2(u); bits = ceil(-log2 u))


def budget_terms(n, gd, rp):
    """The terms of the worst-case precision budget, each a log2(u), by name.

    The driver loop's term; the dichotomy subroutine's, for ``optimal`` and
    for the decoupling IQR sweep; and the shifting strategy's (C = 3), for
    the tau products of ``comp_tau``, the potential-reduction factor, the
    exceptional-shift target and the potential approximation at the
    exceptional and at the regularized distance.  The potential is
    lower-bounded by the working accuracy omega.  gd and rp are the run's
    own, in the units of H / 2^e, as ``driver.plan_run`` derives them.
    Every product of small factors is taken as the sum of their log2s
    (for large B, omega^2 underflows, and so can 0.1 times ``exc_epsilon``).
    """
    k, Sigma, B, alpha, theta = gd.k, gd.Sigma, gd.B, gd.alpha, gd.theta
    l_omega, n_dec, phi_working = rp.log2_omega, rp.n_dec, rp.phi_working
    l_sigma = math.log2(Sigma)
    nu = 5.0 + 1.5 * math.log2(n)  # log2 of the IQR sweep's error factor 32 n^(3/2)
    C = 3.0
    # the exclusion radius eta1 = eta2 / sqrt(2k / phi_w) of the regularized
    # shifts (eta2, the ``corner_accuracy``)
    l_eta1 = (
        2.0 * l_omega - math.log2(16.0 * 101.0 * Sigma) - 1.0
        - 0.5 * math.log2(2.0 * k / phi_working)
    )
    eps = exc_epsilon(k, alpha, theta, B)
    l_exc = math.log2(eps) + math.log2(1.998 * theta * alpha)
    l_dist_exc = l_exc + math.log2(B) / k + l_omega + 0.5 * math.log2(phi_working / (3.0 * n))
    t = -math.expm1(math.log(0.999) / k)  # 1 - 0.999^(1/k)

    def potential_apx(l_dist):
        return (
            math.log2(0.001) + l_omega + k * l_dist
            - (math.log2(32.0 * B) + 0.5 * math.log2(n) + nu)
            - (k + 1.0) * l_sigma - k * math.log2(2.0 + 2.0 * C)
        )

    return {
        "driver": l_omega - math.log2(4.5 * k * max(n_dec, 1.0) * n * Sigma) - nu,
        "optimal": (
            -math.log2(2.0e3 * n**2)
            + k * (l_omega - math.log2(theta * (2.0 + 2.0 * 1.1) * Sigma))
        ),
        "decouple": (
            l_omega - math.log2(8.0 * math.sqrt(n) * Sigma)
            + (-(math.log2(8.0 * B) + nu) + k * (l_eta1 - l_sigma))
        ),
        "comp_tau": (
            -(math.log2(6.0e3 * B) + nu)
            + 2.0 * max(k // 2, 1) * (l_eta1 - math.log2((2.0 + 2.0 * C) * Sigma))
        ),
        "potential": math.log2(t) - math.log2(k * (4.0 + t)),
        "exceptional": (
            math.log2(0.1) + l_exc + math.log2(B) + l_omega
            - math.log2(4.0 * (eps + 2.0 * (1.0 + eps) * C * Sigma))
        ),
        "potential_apx_exceptional": potential_apx(l_dist_exc),
        "potential_apx_regularized": potential_apx(l_eta1),
    }


def required_precision(n, gd, rp):
    """Mantissa bits demanded by the worst-case analysis, ceil(log2(1/u)):
    the least of the ``budget_terms``."""
    return math.ceil(-min(budget_terms(n, gd, rp).values()))
