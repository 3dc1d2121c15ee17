"""Default small eigenvalue solver: certified forward-approximate eigenvalues.

Reduces the input to Hessenberg form in extended precision, evaluates the
characteristic polynomial through a Hyman-style determinant recurrence, and
locates the roots with Ehrlich-Aberth followed by Newton polish.  Each output
carries a residual certificate (deg * |p/p'| plus a trace identity), and the
working precision escalates until the requested absolute forward accuracy is
certified.  Deterministic: no randomness anywhere, output sorted by (re, im).

Any object with a compatible ``solve(m, beta, phi)`` may be injected in its
place; the probabilistic failure budget phi is not consumed here (failure
surfaces as an exception instead of a silent wrong answer).

The mpmath primitives defined here (Hessenberg reduction, the Hyman
recurrence, block splitting and ``MP_LOCK``) are shared with ``oracle``,
which imports them from this module.
"""

import math
import threading

import mpmath
import numpy as np

from .errors import DimensionError, SmallEigFailure
from .kernel import is_mp_array

# mpmath working precision is process-global; serialize all uses.
MP_LOCK = threading.RLock()
_MIN_PREC = 120
_MAX_PREC = 960


def _to_mp(a):
    n = a.shape[0]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = mpmath.mpc(complex(a[i, j]))
    return out


def _mp_row_norm(row):
    return mpmath.sqrt(mpmath.fsum(abs(z) ** 2 for z in row))


def _hyman_kappa(H, z, n):
    """kappa(z), kappa'(z) with det(H - z) = (-1)^(n-1) kappa(z) prod(subdiag).

    H must be unreduced Hessenberg (object array of mpmath numbers)."""
    x = [mpmath.mpc(0)] * n
    xp = [mpmath.mpc(0)] * n
    x[n - 1] = mpmath.mpc(1)
    for i in range(n - 1, 0, -1):
        acc = mpmath.mpc(0)
        accp = mpmath.mpc(0)
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


def _hessenberg_mp(H):
    """Householder reduction to Hessenberg form at the ambient precision."""
    n = H.shape[0]
    H = H.copy()
    for c in range(n - 2):
        x = H[c + 1 :, c].copy()
        normx = _mp_row_norm(x)
        if normx == 0:
            continue
        x0 = x[0]
        ph = x0 / abs(x0) if x0 != 0 else mpmath.mpc(1)
        u = x
        u[0] = u[0] + ph * normx
        unorm2 = mpmath.fsum(abs(z) ** 2 for z in u)
        if unorm2 == 0:
            continue
        b = 2 / unorm2
        w = np.conj(u) @ H[c + 1 :, c:]
        H[c + 1 :, c:] = H[c + 1 :, c:] - b * np.outer(u, w)
        w2 = H[:, c + 1 :] @ u
        H[:, c + 1 :] = H[:, c + 1 :] - b * np.outer(w2, np.conj(u))
        H[c + 2 :, c] = mpmath.mpc(0)
    return H


def _split_blocks(H, n):
    """Index ranges of the diagonal blocks between exactly-zero subdiagonals."""
    spans = []
    start = 0
    for i in range(n - 1):
        if H[i + 1, i] == 0:
            spans.append((start, i + 1))
            start = i + 1
    spans.append((start, n))
    return spans


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
    tr = mpmath.fsum(blk[i, i] for i in range(d))
    if abs(sum(roots) - tr) > d * beta_cert:
        return False
    for z in roots:
        kap, kapp = _hyman_kappa(blk, z, d)
        if kap == 0:
            continue
        if kapp == 0 or abs(d * kap / kapp) > beta_cert:
            return False
    return True


class CharPolySolver:
    """SmallEigSolver backed by the characteristic polynomial.

    solve(m, beta, phi) returns forward beta-approximations of Spec(m):
    |lambda_hat_i - lambda_i| <= beta under a matching.  Certification is
    capped at the representation limit of the output type (binary64 input
    yields binary64 output), which is far below every working-accuracy scale
    the driver produces.  phi is accepted for interface compatibility; this
    solver is deterministic and raises SmallEigFailure instead of failing
    silently.
    """

    def __init__(self, min_bits=_MIN_PREC, max_bits=_MAX_PREC):
        self.min_bits = min_bits
        self.max_bits = max_bits

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

        if extended:
            flat = np.array(
                [[complex(a[i, j]) for j in range(n)] for i in range(n)],
                dtype=np.complex128,
            )
        else:
            flat = a.astype(np.complex128)
        scale = max(1.0, float(np.linalg.norm(flat)))
        # Representation floor: a binary64 result cannot certify below ~ulp.
        beta_eff = max(float(beta), 8.0 * 2.0**-52 * scale) if not extended else float(beta)

        prec = max(self.min_bits, int(math.log2(scale / beta_eff)) + 60)
        prec = min(prec, self.max_bits)
        while True:
            with MP_LOCK, mpmath.workprec(prec):
                if extended:
                    H = _hessenberg_mp(a.copy())
                else:
                    H = _hessenberg_mp(_to_mp(flat))
                beta_cert = mpmath.mpf(beta_eff) / 2
                vals = []
                good = True
                for start, stop in _split_blocks(H, n):
                    d = stop - start
                    blk = H[start:stop, start:stop]
                    if d == 1:
                        vals.append(blk[0, 0])
                        continue
                    roots = _aberth_block(blk, d, prec)
                    if not _certify_block(blk, d, roots, beta_cert):
                        good = False
                        break
                    vals.extend(roots)
                if good:
                    vals.sort(key=lambda z: (float(z.real), float(z.imag)))
                    if extended:
                        return [mpmath.mpc(z) for z in vals]
                    return [complex(z) for z in vals]
            if prec >= self.max_bits:
                raise SmallEigFailure(
                    f"could not certify forward accuracy {beta_eff:g} "
                    f"at {self.max_bits} bits (clustered or defective input)"
                )
            prec = min(2 * prec, self.max_bits)


DEFAULT_SOLVER = CharPolySolver()
