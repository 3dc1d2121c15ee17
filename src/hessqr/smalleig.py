"""Default small eigenvalue solver: certified forward-approximate eigenvalues.

Takes upper Hessenberg input only, checked by ``iqr.HessenbergMatrix``
(exact zeros below the subdiagonal, finite entries, a Frobenius norm inside
binary64); the driver passes the k x k bottom-right corner and deflated
blocks of dimension at most k, both Hessenberg.  ``CharPolySolver.solve``
takes one matrix and ``solve_each`` a list of them.  Each matrix is split
once into its unreduced diagonal blocks (``iqr.split_blocks``), and each
block climbs one ladder of certificates, stopping at the first rung that
certifies it, so a certified block is never solved again.  A 1 x 1 block is
its own entry.  Every other block climbs:

1. the enclosure, for a binary64 block: LAPACK's eigenvalues of the block
   (``zgeev`` with right eigenvectors, through ``scipy.linalg.lapack``, the
   LAPACK the QR sweeps call) are the centres of Gerschgorin disks of
   X^-1 m X, from its eigenvectors X and the residual m X - X diag(lam)
   (``_enclosed_roots``), and are returned as they are when every disk
   bounds its eigenvalue within beta_eff / 2.  The binary64 blocks of every
   matrix of a call take this rung together, in one pass over their direct
   sum, and each is judged on its own disks.
2. the characteristic polynomial in clongdouble, for every binary64 block,
   at whatever width clongdouble has (a 64-bit significand where it is x87
   extended, binary64 under MSVC and on macOS on arm64): it is evaluated
   through the Hyman determinant recurrence with a running bound on its
   rounding error; ``np.linalg.eigvals``' eigenvalues of the block
   (``_lapack_seeds``) go to the root certificate below as they are, in one
   pass of the recurrence, and are returned unchanged when they pass.  Only
   when they fail does Ehrlich-Aberth refine them, on all roots at once,
   and its roots must pass the same certificate.
3. the characteristic polynomial in mpmath, from a precision derived from
   ||m||_F / beta_eff (at least 120 bits), doubling up to 960 bits, each
   rung in its own context, into which it takes the block exactly:
   Ehrlich-Aberth from the same seeds, always (a binary64 seed is far
   from a root at these precisions), and, where its roots fail the
   certificate (clusters, defective blocks, seeds far from the roots),
   Ehrlich-Aberth again from a circle enclosing the spectrum, under the
   same certificate.  An m-fold root is found to about 2^-(p/m) at p bits.

A block the enclosure leaves climbs rungs 2 and 3 alone (``_block_roots``),
and one still uncertified at 960 bits raises SmallEigFailure.  A matrix's
eigenvalues are those of its blocks, each solved as a matrix of its own at
the same beta_eff and first precision.  Deterministic: no randomness
anywhere, output sorted by (re, im).  The driver makes every call, through
``DEFAULT_SOLVER``: one ``solve_each`` call per run for all its leaves of
dimension 2 or more, and one ``solve`` call for the corner of each loop
iteration that runs the paper's step (the plain step was rejected, or
``corner_shifts`` failed).  The plain step shifts by ``corner_shifts`` in
either arithmetic: LAPACK's eigenvalues of the corner, uncertified, from
the same ``zgeev`` call the enclosure centres its disks on.

scipy 1.17.1's ``zgeev`` leaves the eigenvalues of a block whose largest
entry is above 2^459 or below 2^-459 at the scale it balanced them to
(+-1.29e138 for [[1, 2], [1, -1]] 1e300, whose eigenvalues are +-1.73e300),
so the enclosure hands it a block whose largest entry has a binary exponent
beyond +-400 scaled by a power of two into [1/2, 1), and scales the
eigenvalues back.  zgeev runs with the wrapper's default workspace: its
eigenvalues are bounded by its own eigenvectors, so they need not round as
another path's do.  The seeds take LAPACK through ``np.linalg.eigvals``:
they are off the hot path, and the oracle's reference goes through them, so
the reference shares no LAPACK binding with the enclosure it checks.

The enclosure certifies a block well conditioned as an eigenproblem whatever
its characteristic polynomial: a default-option direct solve at n = 256
certifies there in binary64, where the polynomial needed 120-bit mpmath.
It leaves clusters, defective blocks and, at the binary64 floor of beta,
most blocks beyond a few rows to the rungs after it.  Most corners it
certifies at that floor need their residual in clongdouble (see
``_enclosed_roots`` for that and its rounding model).  The ladder is the
same on every platform: each certificate takes u and the smallest normal
number from the numbers it runs on, so where clongdouble is binary64 the
enclosure's residual and rung 2 run in binary64 with binary64's bounds, and
what they leave goes on to rung 3.

The root certificate (``_certify_block``) is Gerschgorin's theorem on the
Weierstrass matrix of the approximations, from the running error bound of
kappa (``_hyman``).  Both certificates turn their disks into matched bounds
in one step (``_matched_bounds``): each approximation is within its own
inclusion radius of the root matched to it, one to one, or for a cluster
within the width of the cluster's component of disks.  A block's roots are
accepted when every such bound is within beta, which certifies the whole
output multiset for simple and multiple roots alike.  The certificate is
about exactly the matrix given.

The primitives defined here (the Hyman recurrence with its error bound,
Ehrlich-Aberth, the one routine that moves roots, and the root
certificate) are written once and run in the arithmetic of their input, a
numpy complex dtype or mpmath.  ``oracle`` certifies its reference
eigenvalues through the char-poly rungs' own routine, ``_isolated_roots``,
which cannot reach the enclosure: the tests check the solver against the
reference, and a reference that went through the solver's first
certificate could not show a fault in it.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, SmallEigFailure
from .iqr import HessenbergMatrix, split_blocks
from .kernel import is_mp_array, ldexp, mp_context, to_mp

_MIN_PREC = 120
_MAX_PREC = 960


def _slack(n, u):
    """2 (n + 20) u: bounds, with a factor-2 margin, the relative rounding
    error of a complex dot product of up to n + 2 terms followed by a complex
    division (gamma_{n+4} and sqrt(2) gamma_7 in Higham's notation), and of
    every sum, product, quotient and modulus formed in a bound."""
    return 2 * (n + 20) * u


def _roundoff(a):
    """(u, tiny) of the arithmetic the array a runs in: the unit roundoff and
    smallest normal number of its numpy dtype, or eps / 2 = 2^-prec and 0
    (mpmath has no gradual underflow) for mpmath numbers of one context."""
    if is_mp_array(a):
        return a.flat[0].context.eps / 2, 0
    fin = np.finfo(a.dtype)
    return fin.epsneg, fin.tiny


def _hyman(H, z, bound=False, derivative=True):
    """kappa, kappa' and a running error bound eps at every point of z.

    det(H - z) = (-1)^(n-1) kappa(z) prod(subdiag) for unreduced Hessenberg
    H.  z is a vector of m points; x and x' (back substitution for the null
    vector of the last n - 1 rows of H - z, and its derivative) are n x m
    arrays updated one row dot product at a time.  Everything runs in the
    arithmetic of H and z: a numpy complex dtype, or object arrays of mpmath
    numbers of one context.  With bound=True, eps (in its real type, from
    that arithmetic's unit roundoff, ``_roundoff``) satisfies
    |kappa_hat - kappa| <= eps for the exact kappa at the stored H and z;
    else it is None.  kappa' is for Aberth steps and carries no bound; with
    derivative=False it is not formed and comes back as None.

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
    if not bound:
        return kap, kapp, None

    u, tiny = _roundoff(H)
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


def _aberth(blk, z):
    """Ehrlich-Aberth from the points z on all roots of the characteristic
    polynomial of blk at once, in the arithmetic of blk (unit roundoff u,
    ``_roundoff``): the roots, or None when two points coincide or kappa'
    vanishes at one.

    Each sweep moves every z_j by w_j / (1 - w_j sum_{l != j} 1 / (z_j - z_l)),
    with the Newton step w_j = kappa / kappa' at z_j (w_j alone where the
    denominator vanishes).  It stops when every move is within
    2^8 u (1 + |z_j|), or, checked every 16 sweeps, when every |kappa| is
    within its rounding bound (``_hyman``), which is where a multiple root
    leaves it; else after 200 sweeps."""
    idx, cols = _cyclic_index(len(z))
    tol = 2**8 * _roundoff(blk)[0]
    for sweep in range(1, 201):
        kap, kapp, eps = _hyman(blk, z, bound=sweep % 16 == 0)
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


def _certify_block(blk, roots, beta_cert):
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

    The disks go to ``_matched_bounds``.  None unless the z_i are distinct
    and every bound is within beta_cert.  u and the smallest normal number
    are those of the arithmetic of blk (``_roundoff``)."""
    d = blk.shape[0]
    z = np.asarray(roots)
    dist = np.abs(z[:, None] - z[None, :])
    # distinct: every off-diagonal distance is positive (the diagonal is 0 or NaN)
    if np.count_nonzero(dist > 0) != d * (d - 1):
        return None
    kap, _, eps = _hyman(blk, z, bound=True, derivative=False)
    u, tiny = _roundoff(blk)
    # quotients h_j / |z_i - z_{i+j}| (indices mod d), j = 1..d-1, per row i
    quot = np.abs(blk.diagonal(-1)) / dist[_cyclic_index(d)] + tiny
    w = np.abs(kap) + eps
    for j in range(d - 1):
        w = w * quot[:, j] + tiny
    bound = _matched_bounds(dist, d * w * (1 + _slack(6 * d, u)))
    return bound if (bound <= beta_cert).all() else None


def _matched_bounds(dist, r):
    """Matched error bounds from inclusion disks D(z_i, r_i).

    For disks whose union holds the eigenvalues, a connected component of m
    of them holding exactly m: any point of a component lies within
    r_i + 2 (sum of the other radii of the component) of z_i, which is the
    bound returned for z_i, r_i when no other disk meets its own.  dist
    holds the distances |z_i - z_j|; r must already cover the rounding of
    dist and of the sums formed here.  A NaN r gives a NaN bound, which
    fails every check of it against beta, and meets no disk.  Leading axes
    of r (and of dist, before its last two) are a stack of separate sets
    of disks, the blocks of ``_enclosed_roots``."""
    d = r.shape[-1]
    near = np.asarray(dist <= r[..., :, None] + r[..., None, :], dtype=bool)
    if np.count_nonzero(near) == np.count_nonzero(near.diagonal(0, -2, -1)):  # no two disks meet
        return r
    label = np.broadcast_to(np.arange(d), r.shape)
    while True:  # each root takes the least index in its component
        least = np.where(near, label[..., None, :], d).min(axis=-1)
        if (least == label).all():
            break
        label = least
    same = label[..., :, None] == label[..., None, :]
    return 2 * np.where(same, r[..., None, :], 0).sum(axis=-1) - r


@lru_cache(maxsize=64)
def _cyclic_index(d):
    """Read-only index arrays (i, (i + j) mod d), broadcasting to d x (d - 1)
    for j = 1..d-1: row i pairs root i with the other roots in cyclic order."""
    idx = np.arange(d)[:, None]
    cols = (idx + idx[1:].T) % d
    idx.flags.writeable = cols.flags.writeable = False
    return idx, cols


def _lapack_seeds(blk):
    """``np.linalg.eigvals`` of blk rounded to complex128, or None for a
    block that rounds to a non-finite entry (one rounded from mpmath can) or
    whose eigenvalues LAPACK fails to find."""
    try:
        return np.linalg.eigvals(blk.astype(np.complex128))
    except np.linalg.LinAlgError:
        return None


def _zgeev(blk):
    """(lam, X): ``zgeev``'s eigenvalues and right eigenvectors of the
    binary64 array blk, or None on a nonzero info.  zgeev rescales a block
    whose largest modulus is outside 2^-459..2^459 itself and, in scipy
    1.17.1, does not scale its eigenvalues back; so a block whose largest
    modulus has a binary exponent p with |p| > 400 goes to zgeev as
    blk / 2^p, and lam is its eigenvalues times 2^p.  Both scalings are
    exact but where a value underflows.  A block inside that band goes to
    zgeev as it is."""
    p = math.frexp(np.abs(blk).max())[1]
    scaled = abs(p) > 400
    lam, _, x, info = lapack.zgeev(ldexp(blk, -p) if scaled else blk, compute_vl=0, compute_vr=1)
    if info != 0:
        return None
    return (ldexp(lam, p) if scaled else lam), x


def corner_shifts(m):
    """LAPACK's eigenvalues of the Hessenberg array m (mpmath numbers are
    rounded to complex128), uncertified, as complex numbers in
    ``CharPolySolver.solve``'s (re, im) order; None on a nonzero info or a
    value that is not finite.

    They come from ``_zgeev``, the routine the enclosure takes its centres
    from, so where the enclosure certifies an unreduced binary64 m they are
    bit for bit what ``CharPolySolver.solve`` returns for it.  The driver's
    plain step shifts by them, and needs no certificate (see ``driver``)."""
    eig = _zgeev(np.asarray(m, dtype=np.complex128))
    if eig is None or not np.isfinite(eig[0]).all():
        return None
    return sorted((complex(z) for z in eig[0]), key=lambda z: (z.real, z.imag))


def _enclosed_roots(blocks, beta_cert):
    """For each unreduced binary64 block of the list blocks, of dimension
    2 or more: LAPACK's eigenvalues of it, as they are, when disks about
    them from its eigenvectors bound each within beta_cert[i], its block's
    own bound, of the eigenvalue matched to it; else None.

    Per block, ``zgeev`` gives the centres lam and the right eigenvectors X
    (``_zgeev``, which scales a block far from 1 for it), and ``zgetrf``
    and ``zgetri`` an approximate inverse Y, all through
    ``scipy.linalg.lapack``.  Then the blocks are certified together, as
    one direct sum: blk, X and Y are the block-diagonal matrices of the
    blocks' own, lam their centres in order, and each is stored as the
    stack of its diagonal blocks, one page per block, padded to the
    largest dimension d by zeros in blk and lam and by I in X and Y, so
    that every product is one stacked product.  The residual below is
    formed from each block as given, scaled for zgeev or not.  Let
    E = YX - I and R = blk X - X diag(lam), exact for the stored blk, X, Y
    and lam.  When
    ||E||_inf < 1, X is invertible with X^-1 = (I + E)^-1 Y, and
    X^-1 blk X = diag(lam) + F with F = (I + E)^-1 Y R = YR - EF.  So row i
    of |F| sums to at most s_i + e_i max_j s_j / (1 - ||E||_inf), where s
    and e are the row sums of |Y||R| and |E|.  Gerschgorin's theorem, along
    diag(lam) + tF for t from 0 to 1, puts the eigenvalues in the disks
    about lam of those radii, m of them in each component of m disks
    (Wilkinson, The Algebraic Eigenvalue Problem, 1965; Rump, Acta Numerica
    19, 2010), and the disks go to ``_matched_bounds``.  Every one of these
    matrices is block diagonal, so the argument holds for each block on its
    own page: its ||E||_inf and max_j s_j are taken over its page, and the
    disks of a page meet no other page's.  The padding's rows of E and R
    are exact zeros, and its rows of e are g + tiny, which can raise a
    page's max over the block's own ||E||_inf by at most g: a larger value
    only widens the radii.  Its radii are NaN, so its disks meet no disk
    and it adds no root to a component.  A block whose ||E||_inf exceeds
    1/2 gets NaN radii too, with the same effect.  A block's centres are
    those it has alone, and its radii differ from its own only by the
    rounding noise of E and R, which BLAS may sum in another order over d
    columns (about 1 % of a radius in the tests).  A list of one block
    works on that block's own arrays.

    Rounding model: a product of the stacks, formed by BLAS or numpy in
    any order, with or without fused multiply-adds, is within
    _slack(2k, u) |P||Q| of the exact product entrywise in a row of a block
    of dimension k (each real part is a sum of 2k real products: sqrt(2)
    gamma_2k), and so is blk X - X diag(lam), with |blk||X| +
    |X| diag(|lam|): the padding's terms have an exact zero factor, and a
    zero product, or adding one, is exact.  Gradual underflow loses at most
    2^-1075 per real product, which the smallest normal number, added to
    each row sum, covers.  E is formed in binary64, and so is a block's R
    when the part of its radii its rounding makes, g |Y| (|blk||X| +
    |X||lam|) 1, found in O(d^2) before any product of matrices, is within
    beta_cert / 8; else the block's R is formed in clongdouble, with g from
    the unit roundoff of clongdouble at whatever width it has.  The x87
    u = 2^-64 leaves room for that term at the binary64 floor of beta;
    where clongdouble is binary64 the term stays as large, and the block
    certifies only where the rest of its radii leaves room for it.  Each
    radius is formed from nonnegative numbers in fewer than 6k + 20
    binary64 roundings to nearest, so 1 + _slack(6k, u) covers them and the
    distances ``_matched_bounds`` compares.  None also for a block whose
    ||E||_inf > 1/2, where a LAPACK call returns a nonzero info, or where a
    value is not finite."""
    out, parts = [None] * len(blocks), []
    for i, blk in enumerate(blocks):
        eig = _zgeev(blk)
        if eig is None:
            continue
        lu, piv, info = lapack.zgetrf(eig[1])
        if info == 0:
            y, info = lapack.zgetri(lu, piv)
        if info == 0:
            parts.append((i, blk, *eig, y))
    if not parts:
        return out
    dims, beta = [len(p[2]) for p in parts], [beta_cert[p[0]] for p in parts]
    u, tiny = _roundoff(parts[0][1])
    if len(parts) == 1:  # a stack of one is its block's own arrays
        (_, a, lam, x, y), d = parts[0], dims[0]
        per_block, cover, pad = (lambda vals: vals[0]), 1 + _slack(6 * d, u), False  # noqa: E731
    else:  # one page per block, padded to the largest d by I in X and Y
        d = max(dims)
        a, x, y = np.zeros((3, len(parts), d, d), dtype=np.complex128)
        x[:] = y[:] = np.eye(d)
        lam = np.zeros((len(parts), d), dtype=np.complex128)
        for j, (_, blk, lam_j, x_j, y_j) in enumerate(parts):
            k = len(lam_j)
            a[j, :k, :k], lam[j, :k], x[j, :k, :k], y[j, :k, :k] = blk, lam_j, x_j, y_j
        per_block = lambda vals: np.array(vals)[:, None, None]  # noqa: E731
        # NaN radii on the padding, whose disks meet no other
        cover = np.array([[1 + _slack(6 * k, u)] * k + [np.nan] * (d - k) for k in dims])[..., None]
        pad = np.isnan(cover)
    # row sums are columns (..., d, 1), and per_block makes per-block values (..., 1, 1)
    g = [_slack(2 * k, u) for k in dims]
    with np.errstate(all="ignore"):
        ax, ay = np.abs(x), np.abs(y)
        xs = ax.sum(axis=-1, keepdims=True)
        e = y @ x
        e.reshape(-1, d * d)[:, :: d + 1] -= 1
        e = np.abs(e).sum(axis=-1, keepdims=True) + per_block(g) * (ay @ xs) + tiny
        # a block with ||E||_inf > 1/2 fails: its t is NaN, which makes its radii NaN
        t = [m if m <= 0.5 else math.nan for m in e.max(axis=-2).ravel().tolist()]
        if not any(t_j <= 0.5 for t_j in t):
            return out
        v = ay @ (np.abs(a) @ xs + ax @ np.abs(lam)[..., None])
        r = np.abs(a @ x - x * lam[..., None, :]).sum(axis=-1, keepdims=True)
        for j, v_max in enumerate(v.max(axis=-2).ravel().tolist()):
            if t[j] <= 0.5 and not g[j] * v_max <= beta[j] / 8:  # this block's R in clongdouble
                _, blk, lam_j, x_j, _ = parts[j]
                xw = x_j.astype(np.clongdouble)
                rw = blk.astype(np.clongdouble) @ xw - xw * lam_j.astype(np.clongdouble)
                r.reshape(len(parts), d)[j, : len(lam_j)] = np.abs(rw).sum(axis=1)
                g[j] = _slack(2 * len(lam_j), float(np.finfo(np.clongdouble).epsneg))
        s = ay @ (r + tiny) + per_block(g) * v
        spill = e * (s.max(axis=-2, keepdims=True) / per_block([1 - t_j for t_j in t]))
        rho = (s + spill) * cover + tiny
        dist = np.abs(lam[..., :, None] - lam[..., None, :])
        fits = (_matched_bounds(dist, rho[..., 0])[..., None] <= per_block(beta)) | pad
    for (i, _, lam_i, _, _), ok in zip(parts, fits.reshape(len(parts), d).all(axis=1)):
        if ok:
            out[i] = list(lam_i)
    return out


def _isolated_roots(blk, beta_cert):
    """Roots of blk that pass ``_certify_block``, or None.

    In a numpy dtype, LAPACK's binary64 seeds (``_lapack_seeds``) are
    certified as they are, and returned as they are, complex128.  Where they
    fail, and always in mpmath, ``_aberth`` refines them in the arithmetic
    of blk, whose unit roundoff (``_roundoff``) is that of its dtype (2^-64
    in x87 clongdouble) or eps / 2 = 2^-prec in mpmath.  In mpmath, where
    there are no seeds or the roots refined from them fail (clusters,
    defective blocks, seeds far from the roots), ``_aberth`` starts again
    from ``_circle``.  Refined roots must pass the same certificate."""
    extended = is_mp_array(blk)
    seeds = _lapack_seeds(blk)
    with np.errstate(all="ignore"):
        if seeds is not None:
            z = to_mp(seeds, blk[0, 0].context) if extended else seeds.astype(blk.dtype)
            if not extended and _certify_block(blk, z, beta_cert) is not None:
                return list(seeds)
            z = _aberth(blk, z)
            if z is not None and _certify_block(blk, z, beta_cert) is not None:
                return list(z)
        if extended:
            z = _aberth(blk, _circle(blk))
            if z is not None and _certify_block(blk, z, beta_cert) is not None:
                return list(z)
    return None


def _block_roots(blk, beta_eff, prec):
    """The roots of the unreduced block blk, of dimension 2 or more,
    certified within beta_eff / 2 by the first rung after the enclosure that
    certifies them, or None.

    A binary64 block goes to ``_isolated_roots`` in clongdouble, on every
    platform and at whatever width clongdouble has there; every block then
    goes to ``_isolated_roots`` in mpmath from prec bits, doubling up to
    ``_MAX_PREC``."""
    if blk.dtype == np.complex128:
        roots = _isolated_roots(blk.astype(np.clongdouble), beta_eff / 2)
        if roots is not None:
            return roots
    while True:
        ctx = mp_context(prec)
        roots = _isolated_roots(to_mp(blk, ctx), ctx.mpf(beta_eff) / 2)
        if roots is not None or prec >= _MAX_PREC:
            return roots
        prec = min(2 * prec, _MAX_PREC)


def _solve_each(ms, beta):
    """``CharPolySolver.solve_each``: every unreduced binary64 block of
    dimension 2 or more of every matrix goes to one ``_enclosed_roots``
    call, and each block it leaves climbs the rest of the ladder alone
    (``_block_roots``)."""
    hs = [HessenbergMatrix(m.a if isinstance(m, HessenbergMatrix) else m) for m in ms]
    if beta <= 0 or not math.isfinite(beta):
        raise DomainError(f"invalid forward accuracy beta={beta!r}")
    jobs = []  # (matrix, block, start, stop, beta_eff, prec, to the enclosure) per unreduced block
    for i, h in enumerate(hs):
        if h.n == 0:
            continue
        a, binary64 = h.a, not h.is_extended
        scale = max(1.0, float(h.frobenius_norm()))
        # Representation floor: a binary64 result cannot certify below ~ulp.
        beta_eff = max(float(beta), 8.0 * 2.0**-52 * scale) if binary64 else float(beta)
        # extended input may ask for a beta so far below its scale that the
        # quotient overflows binary64; that run starts at the cap
        ratio = min(scale / beta_eff, 2.0**_MAX_PREC)
        prec = min(max(_MIN_PREC, int(math.log2(ratio)) + 60), _MAX_PREC)
        jobs += [
            (i, a[start:stop, start:stop], start, stop, beta_eff, prec, binary64 and stop - start > 1)
            for start, stop in split_blocks(a)
        ]
    enclosed = iter(_enclosed_roots([j[1] for j in jobs if j[6]], [j[4] / 2 for j in jobs if j[6]]))
    vals = [[] for _ in hs]
    for i, blk, start, stop, beta_eff, prec, enclose in jobs:
        roots = next(enclosed) if enclose else None
        if stop - start == 1:
            roots = [blk[0, 0]]
        elif roots is None:
            roots = _block_roots(blk, beta_eff, prec)
        if roots is None:
            raise SmallEigFailure(
                f"could not certify forward accuracy {beta_eff:g} at {_MAX_PREC} bits "
                f"for the diagonal block at rows {start}:{stop} (dimension {stop - start})",
                index=i,
            )
        vals[i] += roots
    for h, v in zip(hs, vals):
        v.sort(key=lambda z: (float(z.real), float(z.imag)))
        if h.is_extended:  # each root as it is, at the precision of the rung that certified it
            v[:] = [h.a[0, 0].context.make_mpc(z._mpc_) for z in v]
        else:
            v[:] = [complex(z) for z in v]
    return vals


class CharPolySolver:
    """The small eigenvalue solver: eigenvector enclosures and the
    characteristic polynomial (see the module docstring).

    solve(m, beta) returns forward beta-approximations of Spec(m) for upper
    Hessenberg m: |lambda_hat_i - lambda_i| <= beta under a matching, for
    simple and multiple eigenvalues alike.  Certification is capped at the
    representation limit of the output type (binary64 input yields binary64
    output): the certified bound is beta_eff / 2, where binary64 input has
    beta_eff = max(beta, 2^-49 max(1, ||m||_F)), ||m||_F its
    ``frobenius_norm`` (BLAS ``dznrm2`` on binary64 input).  That floor is
    what the driver's corners are certified at: for the iterates of
    perfbench's qr_small inputs, ``driver._process_block`` asks for about
    1.5e-26, the solver certifies at beta_eff / 2 ~ 8.9e-16.  Over the 707
    corners and leaves of 24 such inputs, the enclosure's bounds reach 0.44
    of that (median 0.07), with the residual formed in x87 clongdouble, and
    the next rung's Hyman bounds would reach 0.70 (median 0.15): neither
    bound leaves room to be loosened.  Where clongdouble is binary64
    (simulated with a numpy whose clongdouble is complex128), the enclosure
    certifies 112 of the 475 corners of the first 16 such inputs at seed
    11, the binary64 char-poly rung none of the rest, and 120-bit mpmath
    all of those.  The driver certifies a corner only for the paper's
    step, which qr_small never takes, so there the solver sees only
    leaves: one ``solve_each`` call per input, for 79 leaves over the first
    8 inputs at seed 11.  Certified
    LAPACK eigenvalues are returned as they are; a root that Ehrlich-Aberth
    refined in clongdouble or mpmath is rounded to complex128, which moves
    it by at most 2^-52.5 ||m||_F <= beta_eff / 2.
    A 1 x 1 block returns its entry, exactly, in the type it has.
    m is an array or a ``HessenbergMatrix``, whose array is validated again.
    Input ``iqr.HessenbergMatrix`` rejects raises its errors
    (StructureError, DimensionError), a norm beyond binary64 or a beta not
    positive and finite raises DomainError, and a block no rung certifies
    (say, an eigenvalue too multiple for beta at 960 bits) raises
    SmallEigFailure.

    solve_each(ms, beta) returns, for each matrix of the list ms, exactly
    the list solve(m, beta) returns for it; the binary64 blocks of all of
    them take the enclosure in one pass.  Every matrix is validated before
    any is solved, and the SmallEigFailure of a block no rung certifies
    carries the position of its matrix in ms as ``index``.
    """

    def solve(self, m, beta):
        return _solve_each([m], beta)[0]

    def solve_each(self, ms, beta):
        return _solve_each(ms, beta)


DEFAULT_SOLVER = CharPolySolver()
