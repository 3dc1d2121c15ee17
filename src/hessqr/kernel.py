"""Precision model, complex Givens rotations, disk sampling, Newton k-th roots.

The QR sweep and the helpers here are written once for two arithmetics:
numpy complex128 arrays (binary64, the production path) and object arrays of
mpmath numbers at the ambient ``mpmath.mp.prec`` (runs configured above 53
mantissa bits, and the oracle).  ``to_mp`` converts a complex128 array to the
second kind exactly and ``.astype(np.complex128)`` rounds back; ``norm`` and
``make_givens`` compute their square roots in the arithmetic of their input.
The floating point model is the usual one: add/sub/mul/div/sqrt with relative
error at most one unit roundoff, overflow and underflow ignored.
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


def is_mp_array(a):
    return a.dtype == object


_MP_TYPES = (mpmath.mpc, mpmath.mpf)

# Elementwise mpmath.mpc: an object array rounded to the ambient precision
# (exact from complex128 at 53 bits or more).
to_mp = np.frompyfunc(mpmath.mpc, 1, 1)


def norm(a):
    """Frobenius norm of a, in the arithmetic of a."""
    if is_mp_array(a):
        return mpmath.sqrt(mpmath.fsum(abs(z) ** 2 for z in a.ravel()))
    return float(np.linalg.norm(a))


def make_givens(x0, x1):
    """(L, r): the unitary L = [[c, s], [-conj(s), conj(c)]] with L @ x = (r, 0).

    (c, s) = conj(x) / r and r = ||x|| is real and nonnegative, computed with
    relative error about 2u: by np.hypot in binary64, by mpmath.sqrt when
    either entry is an mpmath number (L is then an object array).  For complex
    input c carries the phase that makes r real (the positive-diagonal QR
    convention).  Raises on the degenerate all-zero input.
    """
    if x0 == 0 and x1 == 0:
        raise DomainError("make_givens: zero vector has no defined rotation")
    if isinstance(x0, _MP_TYPES) or isinstance(x1, _MP_TYPES):
        x0, x1 = mpmath.mpc(x0), mpmath.mpc(x1)
        r = mpmath.sqrt(abs(x0) ** 2 + abs(x1) ** 2)
    else:
        x0, x1 = complex(x0), complex(x1)
        # np.hypot, not math.hypot: they differ in the last bit on some inputs
        r = float(np.hypot(np.hypot(x0.real, x0.imag), np.hypot(x1.real, x1.imag)))
    c, s = x0.conjugate() / r, x1.conjugate() / r
    return np.array([[c, s], [-s.conjugate(), c.conjugate()]]), r


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
