"""Brute-force reference computations for the test suite and diagnostics.

Dense row iterations, resolvent solves, reference eigensolves, the spectral
measure, kappa_V / gap estimation, promising-value verification, and
eigenvalue matching. Row iterations, resolvent solves and determinant
residuals run in mpmath at ~double-double precision; eigenvector-based
quantities (kappa_V, gap, spectral weights) come from LAPACK at binary64,
which sits many orders below every tolerance that consumes them.  The
production solver never imports this module; the mpmath primitives both need
(Hessenberg reduction, the Hyman recurrence, block splitting, the root
certificate with its disjoint-disk check, and the lock on mpmath's global
precision) live in ``smalleig``.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DimensionError, DomainError, OracleError, SingularityError
from .iqr import HessenbergMatrix, ShiftList, iqr_multi
from .smalleig import (
    MP_LOCK,
    _certify_block,
    _disjoint,
    _hessenberg_mp,
    _hyman_kappa,
    _mp_row_norm,
    _split_blocks,
    _to_mp,
)

ORACLE_PREC = 120
DESK_DIM_LIMIT = 64
MP_EIG_DIM_LIMIT = 16  # full extended-precision treatment below this size


def _as_array(m):
    if isinstance(m, HessenbergMatrix):
        return np.asarray(m.to_float().a)
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def _mpc_of(z):
    """mpc conversion that keeps extended precision when already present."""
    if isinstance(z, (mpmath.mpc, mpmath.mpf)):
        return mpmath.mpc(z)
    return mpmath.mpc(complex(z))


# ---------------------------------------------------------------------------
# dense row iteration and resolvent solves


def dense_en_p_norm(h, shifts, prec=ORACLE_PREC):
    """||e_n* (H - s_1) ... (H - s_m)|| by dense row iteration (mpmath)."""
    if not isinstance(shifts, ShiftList):
        shifts = ShiftList(tuple(shifts))
    a = _as_array(h)
    n = a.shape[0]
    with MP_LOCK, mpmath.workprec(prec):
        H = _to_mp(a)
        row = np.array([mpmath.mpc(0)] * n, dtype=object)
        row[n - 1] = mpmath.mpc(1)
        for s in shifts.roots:
            s = _mpc_of(s)
            row = row @ H - s * row
        return +_mp_row_norm(row)


def resolvent_power_norm(h, r, k, prec=ORACLE_PREC):
    """||e_n* (H - r)^{-k}|| by k dense row solves (mpmath)."""
    return _resolvent_row_norm(h, [r] * int(k), prec)


def _resolvent_row_norm(h, roots, prec):
    a = _as_array(h)
    n = a.shape[0]
    with MP_LOCK, mpmath.workprec(prec):
        row = mpmath.matrix([[mpmath.mpc(0)] for _ in range(n)])
        row[n - 1, 0] = mpmath.mpc(1)
        for s in roots:
            s = _mpc_of(s)
            mt = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    mt[i, j] = mpmath.mpc(complex(a[j, i]))  # transpose
                mt[i, i] -= s
            try:
                row = mpmath.lu_solve(mt, row)
            except ZeroDivisionError as exc:
                raise SingularityError(
                    f"H - ({s}) is singular at oracle precision"
                ) from exc
        return +mpmath.sqrt(mpmath.fsum(abs(row[i, 0]) ** 2 for i in range(n)))


def resolvent_tau(h, shifts, prec=ORACLE_PREC):
    """tau_p(H)^m = ||e_n* p(H)^{-1}||^{-1} via m dense row solves."""
    if not isinstance(shifts, ShiftList):
        shifts = ShiftList(tuple(shifts))
    nrm = _resolvent_row_norm(h, list(shifts.roots), prec)
    with MP_LOCK, mpmath.workprec(prec):
        return +(1 / nrm)


# ---------------------------------------------------------------------------
# Hyman determinant recurrence and reference eigenvalues


def hyman_residual(m, lam, prec=ORACLE_PREC):
    """|det(M - lam)| evaluated through the Hessenberg/Hyman route (mpmath)."""
    a = _as_array(m)
    n = a.shape[0]
    with MP_LOCK, mpmath.workprec(prec):
        H = _hessenberg_mp(_to_mp(a))
        lam = _mpc_of(lam)
        det = mpmath.mpf(1)
        for start, stop in _split_blocks(H, n):
            d = stop - start
            blk = H[start:stop, start:stop]
            if d == 1:
                det *= abs(blk[0, 0] - lam)
                continue
            kap, _ = _hyman_kappa(blk, lam, d)
            det *= abs(kap)
            for i in range(1, d):
                det *= abs(blk[i, i - 1])
        return +det


def _newton_polish_block(blk, d, seeds, prec):
    """Newton on the Hyman determinant from complete LAPACK seeds."""
    roots = []
    scale = float(max(1.0, max(abs(complex(blk[i, j])) for i in range(d) for j in range(d))))
    tol = mpmath.mpf(2) ** (-(prec - 10))
    for s in seeds:
        z = mpmath.mpc(complex(s))
        for _ in range(60):
            kap, kapp = _hyman_kappa(blk, z, d)
            if kap == 0:
                break
            if kapp == 0:
                z += tol * (1 + abs(z))
                continue
            step = kap / kapp
            z -= step
            if abs(step) <= tol * (1 + abs(z)):
                break
        roots.append(z)
    # certify: every polished point is provably within reach of a root
    # (trace identity, per-root radius) and the inclusion disks are pairwise
    # disjoint, so no two seeds collapsed and the multiset is complete.
    radii = _certify_block(blk, d, roots, mpmath.mpf(2) ** (-(prec // 2)) * scale)
    return roots, radii is not None and _disjoint(roots, radii)


def _ref_eigs_mp(a, prec, mp_out):
    n = a.shape[0]
    for attempt in range(3):
        p = prec * (2**attempt)
        with MP_LOCK, mpmath.workprec(p):
            H = _hessenberg_mp(_to_mp(a))
            vals = []
            good = True
            for start, stop in _split_blocks(H, n):
                d = stop - start
                blk = H[start:stop, start:stop]
                if d == 1:
                    vals.append(blk[0, 0])
                    continue
                blk_f = np.array(
                    [[complex(blk[i, j]) for j in range(d)] for i in range(d)]
                )
                seeds = np.linalg.eigvals(blk_f)
                roots, ok = _newton_polish_block(blk, d, seeds, p)
                if not ok:
                    good = False
                    break
                vals.extend(roots)
            if good:
                vals.sort(key=lambda z: (float(z.real), float(z.imag)))
                if mp_out:
                    return vals
                return np.array([complex(z) for z in vals])
    raise OracleError("reference eigensolve could not certify its accuracy")


def _hessenberg_longdouble(a):
    A = a.astype(np.clongdouble)
    n = A.shape[0]
    for c in range(n - 2):
        x = A[c + 1 :, c].copy()
        normx = np.sqrt(float((np.abs(x) ** 2).sum()))
        if normx == 0:
            continue
        ph = x[0] / np.abs(x[0]) if x[0] != 0 else np.clongdouble(1)
        u = x
        u[0] = u[0] + ph * np.clongdouble(normx)
        unorm2 = (np.abs(u) ** 2).sum()
        if unorm2 == 0:
            continue
        b = np.clongdouble(2) / unorm2
        w = u.conj() @ A[c + 1 :, c:]
        A[c + 1 :, c:] -= b * np.outer(u, w)
        w2 = A[:, c + 1 :] @ u
        A[:, c + 1 :] -= b * np.outer(w2, u.conj())
        A[c + 2 :, c] = 0
    return A


def _hyman_kappa_ld(H, z):
    n = H.shape[0]
    x = np.zeros(n, dtype=np.clongdouble)
    xp = np.zeros(n, dtype=np.clongdouble)
    x[n - 1] = 1
    for i in range(n - 1, 0, -1):
        acc = H[i, i:] @ x[i:]
        accp = H[i, i:] @ xp[i:]
        x[i - 1] = (z * x[i] - acc) / H[i, i - 1]
        xp[i - 1] = (x[i] + z * xp[i] - accp) / H[i, i - 1]
    kap = H[0, :] @ x - z * x[0]
    kapp = H[0, :] @ xp - x[0] - z * xp[0]
    return kap, kapp


def _ref_eigs_longdouble(a):
    A = _hessenberg_longdouble(a)
    n = A.shape[0]
    vals = []
    for start, stop in _split_blocks(A, n):
        d = stop - start
        blk = A[start:stop, start:stop]
        if d == 1:
            vals.append(complex(blk[0, 0]))
            continue
        scale = max(1.0, float(np.abs(blk.astype(np.complex128)).max()))
        seeds = np.linalg.eigvals(blk.astype(np.complex128))
        ok = True
        polished = []
        for s in seeds:
            z = np.clongdouble(s.real) + 1j * np.clongdouble(s.imag)
            for _ in range(6):
                kap, kapp = _hyman_kappa_ld(blk, z)
                if kapp == 0:
                    break
                step = kap / kapp
                z = z - step
                if abs(complex(step)) <= 1e-18 * (1.0 + abs(complex(z))):
                    break
            kap, kapp = _hyman_kappa_ld(blk, z)
            if kapp == 0 or abs(complex(d * kap / kapp)) > 1e-12 * scale:
                ok = False
                break
            polished.append(complex(z))
        if not ok:
            # rare: fall back to the certified extended path for this block
            polished = list(_ref_eigs_mp(blk.astype(np.complex128), 2 * ORACLE_PREC, False))
        vals.extend(polished)
    vals.sort(key=lambda z: (z.real, z.imag))
    return np.array(vals, dtype=np.complex128)


def ref_eigs(m, mp_out=False, prec=None):
    """Reference eigenvalues (test ground truth), dim <= 64.

    Below dim 17: LAPACK seeds polished by Newton on the Hyman determinant in
    mpmath, with a per-root forward certificate, a trace identity check and
    pairwise-disjoint inclusion disks (escalating precision on failure).
    Larger desk sizes use the same scheme in 80-bit arithmetic, which sits far
    below every tolerance consuming it at those sizes; uncertified blocks fall
    back to the extended path.
    """
    a = _as_array(m)
    n = a.shape[0]
    if n > DESK_DIM_LIMIT:
        raise DimensionError(f"ref_eigs is a desk-scale oracle (n <= {DESK_DIM_LIMIT})")
    if n == 1:
        val = [mpmath.mpc(complex(a[0, 0]))] if mp_out else np.array([a[0, 0]])
        return val
    if mp_out or n <= MP_EIG_DIM_LIMIT:
        return _ref_eigs_mp(a, prec or 140, mp_out)
    return _ref_eigs_longdouble(a)


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


def measure_expect_inv_dist(measure, r, k, prec=ORACLE_PREC):
    """E[ 1 / |Z - r|^k ] under the spectral measure (mpmath; inf if r hits)."""
    with MP_LOCK, mpmath.workprec(prec):
        acc = mpmath.mpf(0)
        for lam, wt in zip(measure.eigenvalues, measure.weights):
            if wt == 0:
                continue
            d = abs(_mpc_of(lam) - _mpc_of(r))
            if d == 0:
                return mpmath.inf
            acc += mpmath.mpf(float(wt)) / d**k
        return +acc


def measure_expect_inv_poly(measure, roots, prec=ORACLE_PREC):
    """E[ 1 / |p(Z)| ] for p with the given roots (mpmath; inf if any hits)."""
    with MP_LOCK, mpmath.workprec(prec):
        acc = mpmath.mpf(0)
        for lam, wt in zip(measure.eigenvalues, measure.weights):
            if wt == 0:
                continue
            prod = mpmath.mpf(1)
            for r in roots:
                prod *= abs(_mpc_of(lam) - _mpc_of(r))
            if prod == 0:
                return mpmath.inf
            acc += mpmath.mpf(float(wt)) / prod
        return +acc


def promising_check(h, r, ritz_set, alpha):
    """E[1/|Z-r|^k] >= alpha^{-k} E[1/|p(Z)|] with p over the ritz set."""
    roots = tuple(ritz_set.roots) if isinstance(ritz_set, ShiftList) else tuple(ritz_set)
    k = len(roots)
    measure = spectral_measure(h)
    lhs = measure_expect_inv_dist(measure, r, k)
    rhs = measure_expect_inv_poly(measure, roots)
    if lhs == mpmath.inf:
        return True
    if rhs == mpmath.inf:
        return False
    with MP_LOCK, mpmath.workprec(ORACLE_PREC):
        return bool(lhs >= rhs / mpmath.mpf(alpha) ** k)


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
    n = len(w)
    gap = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            gap = min(gap, abs(w[i] - w[j]))
    if n == 1:
        gap = math.inf
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


def iqr_exact(h, shifts, prec=160):
    """The same IQR sweep executed in extended precision (reference iterate)."""
    if not isinstance(shifts, ShiftList):
        shifts = ShiftList(tuple(shifts))
    with MP_LOCK, mpmath.workprec(prec):
        hm = h.to_extended() if not h.is_extended else h
        return iqr_multi(hm, shifts).next_h


def accumulate_q(steps, n):
    """Unitary Q implied by the stored rotation sweeps (binary64 product)."""
    Q = np.eye(n, dtype=np.complex128)
    for step in steps:
        for i, g in enumerate(step.rotations):
            if g.is_identity():
                continue
            L = g.left_matrix()
            Q[:, i : i + 2] = Q[:, i : i + 2] @ L.conj().T
        Q[:, n - 1] *= step.phase
    return Q
