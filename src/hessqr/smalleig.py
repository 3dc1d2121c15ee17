"""Default small eigenvalue solver: certified forward-approximate eigenvalues.

Takes upper Hessenberg input only, checked by ``iqr.HessenbergMatrix``
(exact zeros below the subdiagonal, finite entries, a Frobenius norm inside
binary64); the driver passes the k x k bottom-right corner and deflated
blocks of dimension at most k, both Hessenberg.  The characteristic
polynomial of each unreduced diagonal block (``iqr.split_blocks``) is
evaluated through the Hyman determinant recurrence, together with a running
bound on its rounding error.  The blocks climb one ladder of arithmetics;
each rung solves only the blocks the rungs before it left uncertified, so a
certified block is never solved again:

1. clongdouble, for binary64 input where clongdouble has a 64-bit
   significand (x87 extended): LAPACK's eigenvalues of the block, complex128
   (``zgeev`` without eigenvectors, through ``scipy.linalg.lapack``, the
   LAPACK the QR sweeps call), go to the certificate below at beta_eff / 2
   as they are, in one pass of the recurrence, and are returned unchanged
   when they pass.  Only when they fail does Ehrlich-Aberth refine them, on
   all roots at once, and its roots must pass the same certificate.
2. mpmath, from a precision derived from ||m||_F / beta_eff (at least 120
   bits), doubling up to 960 bits, each rung in its own context, into which
   it takes its input exactly: Ehrlich-Aberth from the LAPACK seeds, always
   (a binary64 seed is far from a root at these precisions), and, where its
   roots fail the certificate (clusters, defective blocks, seeds far from
   the roots), Ehrlich-Aberth again from a circle enclosing the spectrum,
   under the same certificate.  An m-fold root is found to about 2^-(p/m)
   at p bits.

A block still uncertified at 960 bits raises SmallEigFailure.
Deterministic: no randomness anywhere, output sorted by (re, im).

The certificate (``_certify_block``) is Gerschgorin's theorem on the
Weierstrass matrix of the approximations: it bounds the distance from each
approximation to the root matched to it, one to one, by its own inclusion
radius, or for a cluster by the width of the cluster's component of disks,
from the running error bound of kappa (see ``_hyman``).  A block's roots are
accepted when every such bound is within beta, which certifies the whole
output multiset for simple and multiple roots alike.  The bounds follow the
running error analysis of Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., SIAM 2002, section 5.1, with the standard model of
floating point arithmetic and gradual underflow; overflow gives inf or NaN,
which fails the checks.  The certificate is about exactly the matrix given.

Any object with a compatible ``solve(m, beta)`` may be injected in its place
(``ritz.SmallEigSolver``); failure surfaces as an exception instead of a
silent wrong answer.

The primitives defined here (the Hyman recurrence with its error bound,
Ehrlich-Aberth, the one routine that moves roots, and the root
certificate) are written once and run in the arithmetic of their input,
clongdouble or mpmath.  ``oracle`` certifies its reference eigenvalues
through the same per-block routine, ``_solve_blocks``, behind the same
clongdouble guard.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .errors import SmallEigFailure
from .iqr import HessenbergMatrix, split_blocks
from .kernel import is_mp_array, mp_context, to_mp

_MIN_PREC = 120
_MAX_PREC = 960
_U_LD = np.finfo(np.clongdouble).epsneg  # unit roundoff of clongdouble
_TINY_LD = np.finfo(np.clongdouble).tiny  # its smallest normal number
# The clongdouble rung needs clongdouble well above binary64 (x87 extended: 64-bit
# significand); elsewhere clongdouble may be binary64 itself.
_LONG_DOUBLE_TIER = np.finfo(np.clongdouble).nmant >= 63


def _slack(n, u):
    """2 (n + 20) u: bounds, with a factor-2 margin, the relative rounding
    error of a complex dot product of up to n + 2 terms followed by a complex
    division (gamma_{n+4} and sqrt(2) gamma_7 in Higham's notation), and of
    every sum, product, quotient and modulus formed in a bound."""
    return 2 * (n + 20) * u


def _hyman(H, z, u=None, derivative=True):
    """kappa, kappa' and a running error bound eps at every point of z.

    det(H - z) = (-1)^(n-1) kappa(z) prod(subdiag) for unreduced Hessenberg
    H.  z is a vector of m points; x and x' (back substitution for the null
    vector of the last n - 1 rows of H - z, and its derivative) are n x m
    arrays updated one row dot product at a time.  Everything runs in the
    arithmetic of H and z: numpy clongdouble, or object arrays of mpmath
    numbers of one context.  Given that arithmetic's unit roundoff
    u, the bound (in its real type) satisfies |kappa_hat - kappa| <= eps for
    the exact kappa at the stored H and z; without u it is None.  kappa' is
    for Aberth steps and carries no bound; with derivative=False it is not
    formed and comes back as None.

    Running error analysis (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 5.1): each computed x_{i-1} carries a local
    rounding error of at most (g S_i + tiny) / |h_i| + tiny, where S_i is
    the sum of the moduli of the terms of row i, h_i = H[i, i-1], g is
    ``_slack`` and tiny covers gradual underflow.  The recurrence is linear,
    and eps weighs each local error exactly: it reaches kappa times y_i h_i,
    where y is the left null vector of the first n - 1 columns of H - z with
    y_0 = 1 (a forward recurrence, whose own error is bounded the same
    way).  Overflow yields inf or NaN, which every check that consumes the
    bound rejects."""
    n = H.shape[0]
    x = np.zeros((n, len(z)), dtype=H.dtype)
    xp = np.zeros_like(x) if derivative else None
    x[n - 1] = 1
    for i in range(n - 1, 0, -1):
        row, h = H[i, i:], H[i, i - 1]
        x[i - 1] = (z * x[i] - row @ x[i:]) / h
        if derivative:
            xp[i - 1] = (x[i] + z * xp[i] - row @ xp[i:]) / h
    kap = H[0] @ x - z * x[0]
    kapp = H[0] @ xp - x[0] - z * xp[0] if derivative else None
    if u is None:
        return kap, kapp, None

    tiny = 0 if is_mp_array(H) else _TINY_LD
    g = _slack(n, u)
    grow = 1 + 2 * n * g  # the rounding of the n steps of each bound itself
    aH, az, ax = np.abs(H), np.abs(z), np.abs(x)
    asub = aH.diagonal(-1)  # |h_1| .. |h_(n-1)|
    # y and its error bound fy; the local error of row i (of kappa itself
    # for i = 0) times |h_i| is at most g S_i + tiny (1 + |h_i|)
    y = np.empty_like(x)
    y[0] = 1
    for j in range(n - 1):
        y[j + 1] = (z * y[j] - H[: j + 1, j] @ y[: j + 1]) / H[j + 1, j]
    ay = np.abs(y)
    ayg = ay * g
    fy = np.empty_like(ax)
    fy[0] = g
    for j in range(n - 1):
        fy[j + 1] = (az * fy[j] + aH[: j + 1, j] @ fy[: j + 1] + tiny) / asub[j] + tiny + ayg[j + 1]
    local = (aH @ ax + az * ax) * g + (tiny * (1 + aH.sum(axis=1)))[:, None]
    eps = ((ay + fy) * local).sum(axis=0) * grow
    return kap, kapp, eps


def _aberth(blk, z, u):
    """Ehrlich-Aberth from the points z on all roots of the characteristic
    polynomial of blk at once, in the arithmetic of blk (unit roundoff u):
    the roots, or None when two points coincide or kappa' vanishes at one.

    Each sweep moves every z_j by w_j / (1 - w_j sum_{l != j} 1 / (z_j - z_l)),
    with the Newton step w_j = kappa / kappa' at z_j (w_j alone where the
    denominator vanishes).  It stops when every move is within
    2^8 u (1 + |z_j|), or, checked every 16 sweeps, when every |kappa| is
    within its rounding bound (``_hyman``), which is where a multiple root
    leaves it; else after 200 sweeps."""
    idx, cols = _cyclic_index(len(z))
    tol = 2**8 * u
    for sweep in range(1, 201):
        kap, kapp, eps = _hyman(blk, z, u if sweep % 16 == 0 else None)
        if eps is not None and (np.abs(kap) <= eps).all():
            break
        diff = z[idx] - z[cols]
        if not ((kapp != 0).all() and (diff != 0).all()):
            return None
        w = kap / kapp
        denom = 1 - w * (1 / diff).sum(axis=1)
        step = w / np.where(denom == 0, 1, denom)
        z = z - step
        if (np.abs(step) <= tol * (1 + np.abs(z))).all():
            break
    return z


def _circle(blk):
    """Starting points for ``_aberth`` on the d x d mpmath block: d points
    on a circle about 0 enclosing its spectrum (radius one more than its
    largest absolute row sum), a quarter step off the real axis."""
    ctx = blk[0, 0].context
    d = blk.shape[0]
    radius = max(ctx.fsum(abs(blk[i, j]) for j in range(d)) for i in range(d)) + 1
    return np.array(
        [radius * ctx.exp(2j * ctx.pi * (j + ctx.mpf(1) / 4) / d) for j in range(d)],
        dtype=object,
    )


def _certify_block(blk, roots, beta_cert, u):
    """Matched error bounds of the roots, or None.

    Weierstrass-Gerschgorin inclusion (Carstensen, Linear Algebra Appl.
    1991): for distinct approximations z_1..z_d to the roots of a monic p of
    degree d, W_i = p(z_i) / prod_{j != i} (z_i - z_j), the roots lie in the
    union of the disks D(z_i, d |W_i|), and a connected component made of m
    disks holds exactly m roots.  (Gerschgorin on diag(z) - W 1^T, whose
    characteristic polynomial is p, gives this for the disks
    D(z_i - W_i, (d - 1) |W_i|); each lies in D(z_i, d |W_i|), so every
    component of the small disks lies in one component of the large ones.)
    Here p(z) = det(z - blk) = -kappa(z) prod h_j, h_j the subdiagonal, so
    |W_i| <= (|kappa_hat_i| + eps_i) prod_j |h_j| / |z_i - z_{i+j}| with the
    running error bound eps of ``_hyman``.  The d - 1 quotients are
    multiplied in one at a time, not as two products that could overflow or
    underflow on their own; each quotient and product adds the smallest
    normal number, which covers gradual underflow, and overflow gives inf,
    which fails the checks.  Each factor takes at most ten roundings (a modulus counted as
    two) and the rest of the bound at most d + 6, so the radius r_i carries
    1 + 2 (6 d + 20) u for its own rounding and for the three of each
    distance compared.

    Any point of a component lies within r_i + 2 (sum of the other radii of
    the component) of z_i: the bound returned for root i, r_i when it is
    isolated.  None unless the z_i are distinct and every bound is within
    beta_cert (NaN fails).  u is the unit roundoff of blk."""
    d = blk.shape[0]
    z = np.asarray(roots)
    dist = np.abs(z[:, None] - z[None, :])
    # distinct: every off-diagonal distance is positive (the diagonal is 0 or NaN)
    if np.count_nonzero(dist > 0) != d * (d - 1):
        return None
    kap, _, eps = _hyman(blk, z, u, derivative=False)
    tiny = 0 if is_mp_array(blk) else _TINY_LD
    # quotients h_j / |z_i - z_{i+j}| (indices mod d), j = 1..d-1, per row i
    quot = np.abs(blk.diagonal(-1)) / dist[_cyclic_index(d)] + tiny
    w = np.abs(kap) + eps
    for j in range(d - 1):
        w = w * quot[:, j] + tiny
    r = d * w * (1 + _slack(6 * d, u))
    near = np.asarray(dist <= r[:, None] + r[None, :], dtype=bool)
    if np.count_nonzero(near) == d:  # every disk isolated (a NaN r fails below)
        bound = r
    else:
        label = np.arange(d)
        while True:  # each root takes the least index in its component
            least = np.where(near, label, d).min(axis=1)
            if (least == label).all():
                break
            label = least
        bound = 2 * np.where(label[:, None] == label, r, 0).sum(axis=1) - r
    if not (bound <= beta_cert).all():
        return None
    return bound


@lru_cache(maxsize=64)
def _cyclic_index(d):
    """Read-only index arrays (i, (i + j) mod d), broadcasting to d x (d - 1)
    for j = 1..d-1: row i pairs root i with the other roots in cyclic order."""
    idx = np.arange(d)[:, None]
    cols = (idx + idx[1:].T) % d
    idx.flags.writeable = cols.flags.writeable = False
    return idx, cols


@lru_cache(maxsize=64)
def _zgeev_lwork(n):
    """zgeev's optimal workspace for eigenvalues alone, the size
    ``np.linalg.eigvals`` asks for: with the wrapper's minimal default,
    zgehrd and zhseqr take other code paths from n ~ 150 on, and round
    differently."""
    return int(lapack.zgeev_lwork(n, compute_vl=0, compute_vr=0)[0].real)


def _lapack_seeds(blk):
    """The eigenvalues of blk rounded to complex128, from ``zgeev`` without
    eigenvectors, or None for a block that rounds to a non-finite entry (one
    rounded from mpmath can) or that ``zgeev`` fails on.  It is the call
    ``np.linalg.eigvals`` makes, with the same workspace, without its Python
    wrapper.  numpy and scipy ship their own OpenBLAS builds; their results
    agreed bit for bit on every block tried below n = 150, and up to
    n = 256 with one BLAS thread.  From n ~ 150 on, scipy's depend on the
    number of BLAS threads."""
    a = blk.astype(np.complex128, order="F")
    if not np.isfinite(a).all():
        return None
    seeds, _, _, info = lapack.zgeev(
        a, compute_vl=0, compute_vr=0, lwork=_zgeev_lwork(a.shape[0]), overwrite_a=1
    )
    return seeds if info == 0 else None


def _isolated_roots(blk, beta_cert, u):
    """Roots of blk that pass ``_certify_block``, or None.

    In clongdouble, LAPACK's binary64 seeds (``_lapack_seeds``) are
    certified as they are, and returned as they are, complex128.  Where they
    fail, and always in mpmath, ``_aberth`` refines them in the arithmetic
    of blk (unit roundoff u).  In mpmath, where there are no seeds or the
    roots refined from them fail (clusters, defective blocks, seeds far from
    the roots), ``_aberth`` starts again from ``_circle``.  Refined roots
    must pass the same certificate."""
    extended = is_mp_array(blk)
    seeds = _lapack_seeds(blk)
    with np.errstate(all="ignore"):
        if seeds is not None:
            z = to_mp(seeds, blk[0, 0].context) if extended else seeds.astype(blk.dtype)
            if not extended and _certify_block(blk, z, beta_cert, u) is not None:
                return list(seeds)
            z = _aberth(blk, z, u)
            if z is not None and _certify_block(blk, z, beta_cert, u) is not None:
                return list(z)
        if extended:
            z = _aberth(blk, _circle(blk), u)
            if z is not None and _certify_block(blk, z, beta_cert, u) is not None:
                return list(z)
    return None


def _solve_blocks(H, spans, beta_cert):
    """(roots, spans left): the certified roots of the diagonal blocks of H
    at the given spans, and the spans of the blocks not certified.

    A 1 x 1 block is its own root; every other block goes to
    ``_isolated_roots``.  H is clongdouble or holds mpmath numbers of one
    context, whose u = eps / 2 = 2^-prec."""
    u = H[0, 0].context.eps / 2 if is_mp_array(H) else _U_LD
    vals, left = [], []
    for start, stop in spans:
        blk = H[start:stop, start:stop]
        roots = [blk[0, 0]] if stop == start + 1 else _isolated_roots(blk, beta_cert, u)
        if roots is None:
            left.append((start, stop))
        else:
            vals.extend(roots)
    return vals, left


class CharPolySolver:
    """SmallEigSolver backed by the characteristic polynomial (see the
    module docstring).

    solve(m, beta) returns forward beta-approximations of Spec(m) for upper
    Hessenberg m: |lambda_hat_i - lambda_i| <= beta under a matching, for
    simple and multiple eigenvalues alike.  Certification is capped at the
    representation limit of the output type (binary64 input yields binary64
    output): the certified bound is beta_eff / 2, where binary64 input has
    beta_eff = max(beta, 2^-49 max(1, ||m||_F)).  That floor is what the
    driver's corners are certified at: on perfbench's qr_small inputs,
    ``ritz.ritz_or_decouple`` asks for about 1.5e-26, the solver certifies
    at beta_eff / 2 ~ 8.9e-16, and the bounds reach 0.61 of that, so the
    running error bound eps leaves little room and must not be loosened.
    The seeds are ``zgeev``'s eigenvalues through ``scipy.linalg.lapack``,
    complex128; certified ones are returned as they are; a root that
    Ehrlich-Aberth refined in clongdouble or mpmath is rounded to
    complex128, which moves it by at most 2^-52.5 ||m||_F <= beta_eff / 2.
    A 1 x 1 block returns its entry, exactly, in the type it has.
    Input ``iqr.HessenbergMatrix`` rejects raises its errors
    (StructureError, DimensionError), a norm beyond binary64 raises
    DomainError, and a block no rung certifies (say, an eigenvalue too
    multiple for beta at 960 bits) raises SmallEigFailure.
    """

    def solve(self, m, beta):
        h = HessenbergMatrix(m)
        n = h.n
        if n == 0:
            return []
        if beta <= 0 or not math.isfinite(beta):
            raise SmallEigFailure(f"invalid forward accuracy beta={beta!r}")
        a, extended = h.a, h.is_extended
        if n == 1:
            return [a[0, 0] if extended else complex(a[0, 0])]
        scale = _scale(h)
        # Representation floor: a binary64 result cannot certify below ~ulp.
        beta_eff = float(beta) if extended else max(float(beta), 8.0 * 2.0**-52 * scale)
        vals, spans = [], split_blocks(a, n)
        if _LONG_DOUBLE_TIER and not extended:
            beta_cert = np.longdouble(beta_eff) / 2
            vals, spans = _solve_blocks(a.astype(np.clongdouble), spans, beta_cert)
            if not spans:
                return _sorted(vals, complex)

        # extended input may ask for a beta so far below its scale that the
        # quotient overflows binary64; that run starts at the cap
        ratio = min(scale / beta_eff, 2.0**_MAX_PREC)
        prec = min(max(_MIN_PREC, int(math.log2(ratio)) + 60), _MAX_PREC)
        while True:
            ctx = mp_context(prec)
            found, spans = _solve_blocks(to_mp(a, ctx), spans, ctx.mpf(beta_eff) / 2)
            vals += found
            if not spans:
                if not extended:
                    return _sorted(vals, complex)
                into = a[0, 0].context.make_mpc
                return _sorted(vals, lambda z: into(ctx.mpc(z)._mpc_))
            if prec >= _MAX_PREC:
                blocks = ", ".join(f"rows {i}:{j} (dimension {j - i})" for i, j in spans)
                raise SmallEigFailure(
                    f"could not certify forward accuracy {beta_eff:g} at {_MAX_PREC} bits "
                    f"for the diagonal block(s) at {blocks}"
                )
            prec = min(2 * prec, _MAX_PREC)


def _scale(h):
    """max(1, ||h||_F), as ``h.frobenius_norm()`` gives it.

    Binary64 input whose plain sum of squares is at most 1/2 returns 1
    without the two scaled passes.  For n < 2^20 that sum carries a relative
    rounding error below n^2 2^-52 and loses at most n^2 2^-1074 to
    underflow, so ||h||_F < 0.71 and its computed value is below 1 too.  A
    sum that overflows is inf and takes the scaled passes."""
    a = h.a
    if not h.is_extended and np.vdot(a, a).real <= 0.5:
        return 1.0
    return max(1.0, float(h.frobenius_norm()))


def _sorted(vals, kind):
    """vals converted by kind (``complex``, or rounded at the last rung and
    taken into the input's context), sorted by (re, im)."""
    vals = sorted(vals, key=lambda z: (float(z.real), float(z.imag)))
    return [kind(z) for z in vals]


DEFAULT_SOLVER = CharPolySolver()
