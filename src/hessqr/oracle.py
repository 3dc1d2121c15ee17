"""Brute-force reference computations for the test suite and diagnostics.

Dense row iterations, resolvent solves, reference eigensolves, the spectral
measure, kappa_V / gap estimation, promising-value verification, the size
bound of the exceptional-shift net, and eigenvalue matching.  Row
iterations, resolvent solves and determinant residuals run in mpmath at
~double-double precision, each in a context of that precision; reference
eigenvalues run in clongdouble first and in mpmath where that does not
certify or the caller asks for mpmath values (see ``ref_eigs``);
eigenvector-based quantities (kappa_V, gap, spectral weights) come from
LAPACK at binary64, which sits many orders below every tolerance that
consumes them.  The production solver never imports this module.  The oracle
takes dense input and reduces it itself (``_hessenberg``: Householder
reflections in mpmath or clongdouble); the production small solver takes
Hessenberg input only.  The numeric primitives both need have one
implementation each, written for either arithmetic: the vectorized Hyman
recurrence with its running error bound and the char-poly routine for one
block, ``smalleig._isolated_roots`` (LAPACK's eigenvalues as they are, then
Ehrlich-Aberth from them, and in mpmath from a circle, under the
Weierstrass-Gerschgorin root certificate, which covers clusters and
multiple eigenvalues), live in ``smalleig``, and block splitting is
``iqr.split_blocks``.  The oracle calls that routine block by block itself,
so it cannot reach the small solver's eigenvector enclosure, the rung the
reference is there to check.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import linear_sum_assignment

from .errors import DimensionError, DomainError, OracleError, SingularityError
from .iqr import HessenbergMatrix, iqr_multi, split_blocks
from .kernel import ldexp, mp_context, norm, to_mp
from .smalleig import _isolated_roots

ORACLE_PREC = 120
IQR_EXACT_PREC = 160
REF_EIG_PREC = 140  # first precision of the mpmath reference eigensolve
REF_RADIUS = 2.0**-48  # relative radius the clongdouble reference certifies
REF_MP_RADIUS = 2.0**-100  # relative radius every mpmath reference rung certifies
DESK_DIM_LIMIT = 64
# clongdouble well above binary64 (x87 extended: 64-bit significand), for the
# clongdouble reference rung (see ``ref_eigs``); elsewhere it may be binary64.
_LONG_DOUBLE_TIER = np.finfo(np.clongdouble).nmant >= 63


def _as_array(m):
    if isinstance(m, HessenbergMatrix):
        return m.a.astype(np.complex128)
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


# ---------------------------------------------------------------------------
# dense row iteration and resolvent solves


def dense_en_p_norm(h, shifts):
    """||e_n* (H - s_1) ... (H - s_m)|| by dense row iteration (mpmath)."""
    a = _as_array(h)
    n = a.shape[0]
    ctx = mp_context(ORACLE_PREC)
    H = to_mp(a, ctx)
    row = np.array([ctx.mpc(0)] * n, dtype=object)
    row[n - 1] = ctx.mpc(1)
    for s in shifts:
        row = row @ H - ctx.mpc(s) * row
    return norm(row)


def resolvent_power_norm(h, r, k):
    """||e_n* (H - r)^{-k}|| by k dense row solves (mpmath)."""
    return _resolvent_row_norm(h, [r] * int(k))


def _resolvent_row_norm(h, roots):
    a = _as_array(h)
    n = a.shape[0]
    ctx = mp_context(ORACLE_PREC)
    row = ctx.matrix([[ctx.mpc(0)] for _ in range(n)])
    row[n - 1, 0] = ctx.mpc(1)
    for s in roots:
        s = ctx.mpc(s)
        mt = ctx.matrix(n, n)
        for i in range(n):
            for j in range(n):
                mt[i, j] = ctx.mpc(complex(a[j, i]))  # transpose
            mt[i, i] -= s
        try:
            row = ctx.lu_solve(mt, row)
        except ZeroDivisionError as exc:
            raise SingularityError(
                f"H - ({s}) is singular at oracle precision"
            ) from exc
    return ctx.sqrt(ctx.fsum(abs(row[i, 0]) ** 2 for i in range(n)))


def resolvent_tau(h, shifts):
    """tau_p(H)^m = ||e_n* p(H)^{-1}||^{-1} via m dense row solves."""
    return 1 / _resolvent_row_norm(h, shifts)


# ---------------------------------------------------------------------------
# Hessenberg reduction, determinant residuals and reference eigenvalues


def _hessenberg(H):
    """Householder reduction to Hessenberg form in the arithmetic of H.

    H is an object array of mpmath numbers of one context, or a clongdouble
    array."""
    n = H.shape[0]
    H = H.copy()
    zero = H[0, 0] * 0
    for c in range(n - 2):
        x = H[c + 1 :, c].copy()
        normx = sum(abs(z) ** 2 for z in x) ** 0.5
        if normx == 0:
            continue
        x0 = x[0]
        ph = x0 / abs(x0) if x0 != 0 else 1
        u = x
        u[0] = u[0] + ph * normx
        unorm2 = sum(abs(z) ** 2 for z in u)
        if unorm2 == 0:
            continue
        b = 2 / unorm2
        w = np.conj(u) @ H[c + 1 :, c:]
        H[c + 1 :, c:] = H[c + 1 :, c:] - np.outer(u, w) * b
        w2 = H[:, c + 1 :] @ u
        H[:, c + 1 :] = H[:, c + 1 :] - np.outer(w2, np.conj(u)) * b
        H[c + 2 :, c] = zero
    return H


def det_residual(m, lam):
    """|det(M - lam)| as the LU determinant of the dense M - lam I (mpmath),
    a route that shares no routine with ``ref_eigs``.  0 where mpmath's LU
    finds M - lam numerically singular (a pivot at or below ||M - lam||_1
    times the unit roundoff)."""
    a = _as_array(m)
    ctx = mp_context(ORACLE_PREC)
    mt = ctx.matrix(a.tolist()) - ctx.mpc(lam) * ctx.eye(a.shape[0])
    return ctx.mpf(abs(ctx.det(mt)))


def _certified_eigs(a, radius):
    """Certified eigenvalues of a in its own arithmetic, sorted, or None.

    a is a clongdouble array or an object array of mpmath numbers of one
    context.  It is reduced (``_hessenberg``), and each of its unreduced
    blocks but a 1 x 1 one, which is its own entry, goes through the small
    solver's char-poly routine and root certificate,
    ``smalleig._isolated_roots``, at radius max |h_ij| times radius, on
    H / 2^e (exact) with max |h_ij| / 2^e in [1/2, 1), so that it is alike
    at every scale.  None when a block is left uncertified."""
    H = _hessenberg(a)
    peak = float(np.abs(H.astype(np.complex128)).max())
    e = math.frexp(peak)[1]
    scaled, beta_cert, vals = ldexp(H, -e), radius * ldexp(peak, -e), []
    for start, stop in split_blocks(H):
        blk = scaled[start:stop, start:stop]
        roots = [blk[0, 0]] if stop == start + 1 else _isolated_roots(blk, beta_cert)
        if roots is None:
            return None
        vals += roots
    vals = ldexp(np.array(vals, dtype=H.dtype), e)
    return sorted(vals, key=lambda z: (float(z.real), float(z.imag)))


def ref_eigs(m, mp_out=False):
    """Reference eigenvalues (test ground truth), dim <= 64, sorted by (re, im).

    Householder reduction, then the small solver's per-block routine and
    root certificate (``_certified_eigs``), on a ladder of arithmetics.  The
    first rung, in clongdouble where it has a 64-bit significand (x87
    extended), takes LAPACK's eigenvalues, or Aberth's refinement of them
    where they fail, and certifies radius ``REF_RADIUS`` max |h_ij|, far
    below every binary64 tolerance consuming it.  With ``mp_out``, or when
    a block is left uncertified there, the matrix goes to mpmath at
    ``REF_EIG_PREC`` bits, doubling twice on failure, with Aberth from the
    seeds and then from a circle, and one radius, ``REF_MP_RADIUS``
    max |h_ij|, at every rung: an m-fold eigenvalue is found to about
    2^-(p/m) at p bits, so a double one certifies from 280 bits and a
    fourfold one at 560.  ``mp_out`` returns those mpmath values.  Values
    are within the radius of the eigenvalues under a matching; the
    certificate covers the Hessenberg form, not the rounding of the
    reduction to it (about n^2 u ||m||).  That is why the clongdouble rung
    keeps its own guard (``_LONG_DOUBLE_TIER``), where the small solver's
    ladder runs at whatever width clongdouble has: at n = 64 the reduction's
    rounding is about 2^-52 ||m|| with the x87 u = 2^-64, below
    ``REF_RADIUS``, but about 2^-41 ||m|| where clongdouble is binary64, so
    there the reference starts in mpmath.  OracleError when no rung
    certifies every block.
    """
    a = _as_array(m)
    if a.shape[0] > DESK_DIM_LIMIT:
        raise DimensionError(f"ref_eigs is a desk-scale oracle (n <= {DESK_DIM_LIMIT})")
    if _LONG_DOUBLE_TIER and not mp_out:
        vals = _certified_eigs(a.astype(np.clongdouble), REF_RADIUS)
        if vals is not None:
            return np.array([complex(z) for z in vals])
    for p in (REF_EIG_PREC, 2 * REF_EIG_PREC, 4 * REF_EIG_PREC):
        vals = _certified_eigs(to_mp(a, mp_context(p)), REF_MP_RADIUS)
        if vals is not None:
            return vals if mp_out else np.array([complex(z) for z in vals])
    raise OracleError("reference eigensolve could not certify its accuracy")


# ---------------------------------------------------------------------------
# spectral measure, condition numbers, matching


@dataclass(frozen=True)
class SpectralMeasure:
    """Distribution on Spec(H) with weights |e_n* V e_i|^2 / ||e_n* V||^2."""

    eigenvalues: np.ndarray
    weights: np.ndarray


def spectral_measure(h):
    a = _as_array(h)
    n = a.shape[0]
    w, V = np.linalg.eig(a)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e13:
        raise OracleError("matrix is defective at oracle resolution")
    last = np.abs(V[n - 1, :]) ** 2
    total = last.sum()
    if total == 0:
        raise OracleError("e_n* V vanishes; spectral measure undefined")
    return SpectralMeasure(eigenvalues=w, weights=last / total)


def measure_expect_inv_poly(measure, roots):
    """E[ 1 / |p(Z)| ] for p with the given roots (mpmath; inf if any hits)."""
    ctx = mp_context(ORACLE_PREC)
    acc = ctx.mpf(0)
    for lam, wt in zip(measure.eigenvalues, measure.weights):
        if wt == 0:
            continue
        prod = ctx.mpf(1)
        for r in roots:
            prod *= abs(ctx.mpc(lam) - ctx.mpc(r))
        if prod == 0:
            return ctx.inf
        acc += ctx.mpf(float(wt)) / prod
    return acc


def promising_check(h, r, ritz_set, alpha):
    """E[1/|Z-r|^k] >= alpha^{-k} E[1/|p(Z)|] with p over the ritz set."""
    k = len(ritz_set)
    measure = spectral_measure(h)
    lhs = measure_expect_inv_poly(measure, (r,) * k)
    rhs = measure_expect_inv_poly(measure, ritz_set)
    if lhs == math.inf:
        return True
    if rhs == math.inf:
        return False
    return bool(lhs >= rhs / mp_context(ORACLE_PREC).mpf(alpha) ** k)


def net_size_bound(epsilon):
    """S(eps), the packing bound on the point count of
    ``shifting.build_net(eps)``: hexagonal-density area bound plus a
    perimeter correction."""
    t = 1.99 + 1.0 / (0.99 * epsilon)
    return (
        (2.0 * math.pi / (3.0 * math.sqrt(3.0))) * t**2
        + (4.0 * math.sqrt(2.0) / math.sqrt(3.0)) * t
        + 1.0
    )


@dataclass(frozen=True)
class ConditionReport:
    kappa_v: float  # upper bound on the infimum over diagonalizations
    gap: float
    norm: float


def condition_report(m):
    a = _as_array(m)
    w, V = np.linalg.eig(a)
    kappa = float(np.linalg.cond(V))
    if not np.isfinite(kappa):
        raise OracleError("matrix is defective at oracle resolution")
    gap = min((abs(x - y) for i, x in enumerate(w) for y in w[i + 1 :]), default=math.inf)
    return ConditionReport(
        kappa_v=max(kappa, 1.0), gap=float(gap), norm=float(np.linalg.norm(a, 2))
    )


def matched_distance(l1, l2):
    """Largest pair distance under the minimum-cost perfect matching."""
    x = np.asarray(l1, dtype=np.complex128).ravel()
    y = np.asarray(l2, dtype=np.complex128).ravel()
    if x.shape != y.shape:
        raise DimensionError(f"multiset sizes differ: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise DomainError("matched_distance of empty multisets")
    cost = np.abs(x[:, None] - y[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ---------------------------------------------------------------------------
# extended-precision IQR and test-side Q accumulation


def iqr_exact(h, shifts):
    """Reference iterate: the IQR step in mpmath at ``IQR_EXACT_PREC`` bits, on h taken exactly."""
    return iqr_multi(h.to_extended(IQR_EXACT_PREC), shifts).next_h


def accumulate_q(factors, n):
    """Unitary Q of a chain of binary64 steps, from the ``factors`` of each
    step in order (an ``IqrResult`` keeps only its last step's, so collect
    them by chaining ``iqr_single``): the product of each step's LAPACK Q,
    formed from its reflectors by zungqr."""
    Q = np.eye(n, dtype=np.complex128)
    for f in factors:
        Q = Q @ lapack.zungqr(f.qr, f.tau)[0]
    return Q
