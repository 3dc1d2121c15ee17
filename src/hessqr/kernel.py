"""Precision model, complex Givens rotations, disk sampling, Newton k-th roots.

Every kernel runs on either binary64 scalars (numpy complex128, the production
path) or mpmath numbers held in object arrays (the extended-precision path used
by the oracle and by runs configured above 53 mantissa bits). The floating
point model is the usual one: add/sub/mul/div/sqrt with relative error at most
one unit roundoff, overflow and underflow ignored.
"""

import math

import mpmath
import numpy as np

from .errors import DomainError, ToleranceError

BINARY64_BITS = 53
UNIT_ROUNDOFF_64 = 2.0 ** (1 - BINARY64_BITS)

# Constants left free by the k-th root routine's contract; see the ledger.
ROOT_TOL_FLOOR = 4  # smallest admissible eps is ROOT_TOL_FLOOR * k * u
ROOT_ITER_FACTOR = 4  # Newton budget is ROOT_ITER_FACTOR * k * log(k log(1/eps))


def is_mp_scalar(z):
    return isinstance(z, (mpmath.mpc, mpmath.mpf))


def is_mp_array(a):
    return a.dtype == object


class GivensRotation:
    """Unitary 2x2 rotation sending a complex pair x to (||x||, 0).

    Stored as the first row (c, s) = (conj(x0), conj(x1)) / ||x||, so the
    applied matrix is [[c, s], [-conj(s), conj(c)]].  |c|^2 + |s|^2 = 1 within
    a few units of roundoff.  For real input, c is the usual real cosine; for
    complex input it carries the phase needed to make the result real
    nonnegative (the positive-diagonal QR convention).
    """

    __slots__ = ("c", "s", "norm")

    def __init__(self, c, s, norm):
        self.c = c
        self.s = s
        self.norm = norm

    def left_matrix(self):
        c, s = self.c, self.s
        if is_mp_scalar(c) or is_mp_scalar(s):
            out = np.empty((2, 2), dtype=object)
            out[0, 0], out[0, 1] = c, s
            out[1, 0], out[1, 1] = -mpmath.conj(s), mpmath.conj(c)
            return out
        return np.array([[c, s], [-np.conj(s), np.conj(c)]])

    def is_identity(self):
        return self.s == 0 and self.c == 1


IDENTITY_ROTATION = GivensRotation(1.0 + 0.0j, 0.0 + 0.0j, 0.0)


def make_givens(x0, x1):
    """Rotation with left_matrix() @ (x0, x1) = (||x||, 0), ||x|| real >= 0.

    The norm is computed with relative error about 2u.  Raises on the
    degenerate all-zero input.
    """
    if is_mp_scalar(x0) or is_mp_scalar(x1):
        x0, x1 = mpmath.mpc(x0), mpmath.mpc(x1)
        if x0 == 0 and x1 == 0:
            raise DomainError("make_givens: zero vector has no defined rotation")
        r = mpmath.sqrt(abs(x0) ** 2 + abs(x1) ** 2)
        return GivensRotation(mpmath.conj(x0) / r, mpmath.conj(x1) / r, r)
    x0 = complex(x0)
    x1 = complex(x1)
    if x0 == 0 and x1 == 0:
        raise DomainError("make_givens: zero vector has no defined rotation")
    r = float(np.hypot(np.hypot(x0.real, x0.imag), np.hypot(x1.real, x1.imag)))
    return GivensRotation(x0.conjugate() / r, x1.conjugate() / r, r)


def apply_givens_left(g, rows):
    """Apply the rotation to a 2-row block: rows <- L @ rows."""
    rows = np.asarray(rows)
    if rows.shape[0] != 2:
        raise DomainError("apply_givens_left expects a 2-row block")
    return g.left_matrix() @ rows


def apply_givens_right(g, cols):
    """Right-multiply a 2-column block by the adjoint rotation: cols @ L*."""
    cols = np.asarray(cols)
    if cols.shape[-1] != 2:
        raise DomainError("apply_givens_right expects a 2-column block")
    return cols @ g.left_matrix().conj().T


def kth_root(a, k, eps):
    """a**(1/k) for a > 0 with relative error at most eps.

    Bisection brackets the root inside [min(1, a), max(1, a)], then Newton
    iterates from the upper end (monotone from above for x > 0).  The
    tolerance must satisfy ROOT_TOL_FLOOR*k*u <= eps <= 1/2.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DomainError(f"kth_root: k must be a positive integer, got {k!r}")
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"kth_root: need a > 0, got {a!r}")
    if not (ROOT_TOL_FLOOR * k * UNIT_ROUNDOFF_64 <= eps <= 0.5):
        raise ToleranceError(
            f"kth_root: eps={eps!r} outside [{ROOT_TOL_FLOOR}*k*u, 1/2] for k={k}"
        )
    if k == 1:
        return a
    if a == 1.0:
        return 1.0
    k = int(k)

    log2_a = math.log2(a)

    def above_root(x):
        # sign of x^k - a, overflow-safe: decide in log space outside a
        # narrow tie band, exactly (with split exponents) inside it
        lg = k * math.log2(x)
        if lg > log2_a + 1e-9:
            return True
        if lg < log2_a - 1e-9:
            return False
        mx, ex = math.frexp(x)
        ma, ea = math.frexp(a)
        return math.ldexp(mx**k, ex * k - ea) >= ma

    lo, hi = (a, 1.0) if a < 1.0 else (1.0, a)
    # Tighten the bracket until Newton sits in its fast basin.
    while hi - lo > lo / (2.0 * k):
        mid = 0.5 * (lo + hi)
        if above_root(mid):
            hi = mid
        else:
            lo = mid

    budget = int(ROOT_ITER_FACTOR * k * math.log(k * math.log(1.0 / eps) + 2.0)) + 8
    x = hi
    for _ in range(budget):
        # (x^k - a) / (k x^(k-1)) rearranged so no intermediate overflows
        step = (x - a / x ** (k - 1)) / k
        x_new = x - step
        if x_new <= 0.0:  # roundoff overshoot near tiny roots
            x_new = 0.5 * x
        if abs(step) <= 0.25 * eps * x:
            x = x_new
            break
        x = x_new
    return x


def sample_disk(center, radius, rng):
    """Uniform sample from the closed disk D(center, radius).

    radius = 0 returns the center without consuming randomness.  Uses the
    standard radius = R*sqrt(U1), angle = 2*pi*U2 construction; deterministic
    for a seeded generator.
    """
    if radius < 0:
        raise DomainError(f"sample_disk: radius must be >= 0, got {radius!r}")
    center = complex(center)
    if radius == 0:
        return center
    u1, u2 = rng.random(2)
    r = radius * math.sqrt(u1)
    ang = 2.0 * math.pi * u2
    return center + complex(r * math.cos(ang), r * math.sin(ang))
