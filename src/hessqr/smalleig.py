"""Default small eigenvalue solver: certified forward-approximate eigenvalues.

Works in mpmath at >= 120 bits on the Hessenberg form of the input (reduced
by Householder reflections unless the input already has exact zeros below the
subdiagonal) and evaluates the characteristic polynomial of each unreduced
diagonal block through the Hyman determinant recurrence.  Each block is
solved in one of two tiers:

1. Fast: LAPACK eigenvalues of the block rounded to complex128 seed Newton
   iterations on the Hyman determinant.  The roots are accepted only if the
   trace identity holds, every inclusion radius d * |p/p'| is within the
   requested accuracy, and the inclusion disks are pairwise disjoint.  Each of
   the d disjoint disks holds at least one root of the degree-d polynomial, so
   each holds exactly one: the output multiset is complete and matched.
2. Fallback, for clusters, defective blocks and any failed check:
   Ehrlich-Aberth from a circle followed by Newton polish, accepted on the
   trace identity and the per-root radii alone.

If neither tier certifies a block, the working precision doubles and the
solve restarts, up to a cap; past it the solver raises SmallEigFailure.
Deterministic: no randomness anywhere, output sorted by (re, im).

Any object with a compatible ``solve(m, beta, phi)`` may be injected in its
place; the probabilistic failure budget phi is not consumed here (failure
surfaces as an exception instead of a silent wrong answer).

The primitives defined here (Householder reduction, the Hyman recurrence,
and the root certificate with its disjoint-disk check) are written once and
run in the arithmetic of their input: object arrays of mpmath numbers here,
and also numpy clongdouble arrays in ``oracle``, which imports them together
with ``MP_LOCK``.  Blocks are cut by ``iqr.split_blocks``.
"""

import math
import threading

import mpmath
import numpy as np

from .errors import DimensionError, DomainError, SmallEigFailure, StructureError
from .iqr import split_blocks
from .kernel import is_mp_array, to_mp

# mpmath working precision is process-global; serialize all uses.
MP_LOCK = threading.RLock()
_MIN_PREC = 120
_MAX_PREC = 960
_NEWTON_STEPS = 12  # from a binary64 seed; a simple root needs 2-3 at 120 bits


def _hyman_kappa(H, z, n):
    """kappa(z), kappa'(z) with det(H - z) = (-1)^(n-1) kappa(z) prod(subdiag).

    H must be unreduced Hessenberg; the recurrence runs in the arithmetic of H
    and z (mpmath numbers or numpy clongdouble)."""
    x = [0] * n
    xp = [0] * n
    x[n - 1] = 1
    for i in range(n - 1, 0, -1):
        acc = 0
        accp = 0
        for j in range(i, n):
            acc += H[i, j] * x[j]
            accp += H[i, j] * xp[j]
        x[i - 1] = (z * x[i] - acc) / H[i, i - 1]
        xp[i - 1] = (x[i] + z * xp[i] - accp) / H[i, i - 1]
    kap = -z * x[0]
    kapp = -x[0] - z * xp[0]
    for j in range(n):
        kap += H[0, j] * x[j]
        kapp += H[0, j] * xp[j]
    return kap, kapp


def _hessenberg(H):
    """Householder reduction to Hessenberg form in the arithmetic of H.

    H is an object array of mpmath numbers (reduced at the ambient precision)
    or a clongdouble array."""
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
        H[c + 1 :, c:] = H[c + 1 :, c:] - b * np.outer(u, w)
        w2 = H[:, c + 1 :] @ u
        H[:, c + 1 :] = H[:, c + 1 :] - b * np.outer(w2, np.conj(u))
        H[c + 2 :, c] = zero
    return H


def _aberth_block(blk, d, prec):
    """All roots of the block's characteristic polynomial at ambient prec."""
    radius = mpmath.mpf(0)
    for i in range(d):
        row = mpmath.fsum(abs(blk[i, j]) for j in range(d))
        radius = max(radius, row)
    radius = radius + 1
    z = [
        radius * mpmath.exp(2j * mpmath.pi * (j + mpmath.mpf(1) / 4) / d)
        for j in range(d)
    ]
    tol = mpmath.mpf(2) ** (-(prec - 8))
    nudge = mpmath.mpf(2) ** (-(prec // 2))
    for _ in range(200):
        worst = mpmath.mpf(0)
        for j in range(d):
            kap, kapp = _hyman_kappa(blk, z[j], d)
            if kap == 0:
                continue
            if kapp == 0:
                z[j] += nudge * (1 + abs(z[j]))
                worst = mpmath.inf
                continue
            w = kap / kapp
            s = mpmath.mpc(0)
            for l in range(d):
                if l == j:
                    continue
                dz = z[j] - z[l]
                if dz == 0:
                    dz = nudge * (1 + abs(z[j]))
                s += 1 / dz
            denom = 1 - w * s
            corr = w if denom == 0 else w / denom
            z[j] -= corr
            worst = max(worst, abs(corr) / (1 + abs(z[j])))
        if worst <= tol:
            break
    for j in range(d):  # Newton polish
        for _ in range(3):
            kap, kapp = _hyman_kappa(blk, z[j], d)
            if kap == 0 or kapp == 0:
                break
            z[j] -= kap / kapp
    return z


def _certify_block(blk, d, roots, beta_cert):
    """Inclusion radii d * |kappa/kappa'| of the roots, or None.

    The disk of that radius about a root holds a root of the block.  None
    unless the trace identity holds within d * beta_cert and every radius is
    within beta_cert.  The comparisons are written so that NaN fails them.
    Works on mpmath and clongdouble blocks alike."""
    tr = sum(blk[i, i] for i in range(d))
    if not abs(sum(roots) - tr) <= d * beta_cert:
        return None
    radii = []
    for z in roots:
        kap, kapp = _hyman_kappa(blk, z, d)
        if kap == 0:
            radii.append(abs(kap))
            continue
        if kapp == 0:
            return None
        r = d * abs(kap / kapp)
        if not r <= beta_cert:
            return None
        radii.append(r)
    return radii


def _disjoint(centers, radii):
    """True when the closed disks are pairwise disjoint.

    With d disjoint inclusion disks for a degree-d polynomial, each disk holds
    exactly one root, so a doubled root cannot hide a missing one."""
    for i in range(len(centers)):
        for j in range(i):
            if not abs(centers[i] - centers[j]) > radii[i] + radii[j]:
                return False
    return True


def _isolated_roots(blk, d, prec, beta_cert):
    """Fast tier: Newton from LAPACK seeds, certified with disjoint disks.

    None sends the block to the Aberth fallback."""
    flat = blk.astype(np.complex128)
    try:
        seeds = np.linalg.eigvals(flat)
    except np.linalg.LinAlgError:
        return None
    tol = mpmath.mpf(2) ** (-(prec // 2))
    roots = []
    for s in seeds:
        z = mpmath.mpc(complex(s))
        for _ in range(_NEWTON_STEPS):
            kap, kapp = _hyman_kappa(blk, z, d)
            if kap == 0:
                break
            if kapp == 0:
                return None
            step = kap / kapp
            z -= step
            if abs(step) <= tol * (1 + abs(z)):
                break
        roots.append(z)
    radii = _certify_block(blk, d, roots, beta_cert)
    if radii is None or not _disjoint(roots, radii):
        return None
    return roots


def _is_hessenberg(a, n):
    return all(a[i, j] == 0 for i in range(2, n) for j in range(i - 1))


def _frobenius_scale(flat):
    """max(1, ||flat||_F) without squaring entries near the overflow threshold."""
    peak = float(np.abs(flat).max())
    if peak == 0:
        return 1.0
    scale = peak * float(np.linalg.norm(flat / peak))
    if not math.isfinite(scale):
        raise DomainError("matrix norm overflows binary64")
    return max(1.0, scale)


class CharPolySolver:
    """SmallEigSolver backed by the characteristic polynomial.

    solve(m, beta, phi) returns forward beta-approximations of Spec(m):
    |lambda_hat_i - lambda_i| <= beta under a matching.  Each unreduced block
    is certified either by pairwise-disjoint inclusion disks around Newton
    roots seeded from LAPACK, or, when that fails (clusters, defective
    blocks), by the trace identity and per-root radii of an Ehrlich-Aberth
    solve; see the module docstring.  Certification is capped at the
    representation limit of the output type (binary64 input yields binary64
    output), which is far below every working-accuracy scale the driver
    produces.  phi is accepted for interface compatibility; this solver is
    deterministic and raises SmallEigFailure instead of failing silently.
    Non-finite entries raise StructureError.
    """

    def solve(self, m, beta, phi):
        a = np.asarray(m)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        extended = is_mp_array(a)
        n = a.shape[0]
        if n == 0:
            return []
        if beta <= 0 or not math.isfinite(beta):
            raise SmallEigFailure(f"invalid forward accuracy beta={beta!r}")

        flat = a.astype(np.complex128)
        if not np.isfinite(flat).all():
            raise StructureError("matrix has entries that are not finite in binary64")
        scale = _frobenius_scale(flat)
        # Representation floor: a binary64 result cannot certify below ~ulp.
        beta_eff = max(float(beta), 8.0 * 2.0**-52 * scale) if not extended else float(beta)
        hessenberg = _is_hessenberg(a, n)

        prec = min(max(_MIN_PREC, int(math.log2(scale / beta_eff)) + 60), _MAX_PREC)
        while True:
            with MP_LOCK, mpmath.workprec(prec):
                H = a if extended else to_mp(flat)
                if not hessenberg:
                    H = _hessenberg(H)
                beta_cert = mpmath.mpf(beta_eff) / 2
                vals = []
                good = True
                for start, stop in split_blocks(H, n):
                    d = stop - start
                    blk = H[start:stop, start:stop]
                    if d == 1:
                        vals.append(blk[0, 0])
                        continue
                    roots = _isolated_roots(blk, d, prec, beta_cert)
                    if roots is None:
                        roots = _aberth_block(blk, d, prec)
                        if _certify_block(blk, d, roots, beta_cert) is None:
                            good = False
                            break
                    vals.extend(roots)
                if good:
                    vals.sort(key=lambda z: (float(z.real), float(z.imag)))
                    if extended:
                        return [mpmath.mpc(z) for z in vals]
                    return [complex(z) for z in vals]
            if prec >= _MAX_PREC:
                raise SmallEigFailure(
                    f"could not certify forward accuracy {beta_eff:g} "
                    f"at {_MAX_PREC} bits (clustered or defective input)"
                )
            prec = min(2 * prec, _MAX_PREC)


DEFAULT_SOLVER = CharPolySolver()
