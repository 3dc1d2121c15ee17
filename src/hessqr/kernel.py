"""Precision model, power-of-two scaling, disk sampling.

The helpers here serve numpy complex128 arrays (binary64, the production
path) and object arrays of mpmath numbers (runs configured at other than 53
mantissa bits, and the oracle).  An mpmath number belongs to the context
``mp_context(prec)`` that made it, and an operation rounds at its left
operand's context, whatever mpmath's global precision.  ``to_mp`` converts
into a context and ``.astype(np.complex128)`` rounds back; ``norm``, the
package's one Frobenius norm, is BLAS ``dznrm2`` on complex128 and an
mpmath sum in the numbers' own context otherwise, and ``ldexp`` scales
either kind by a power of two.  The floating point model is the usual one:
add/sub/mul/div/sqrt with relative error at most one unit roundoff, overflow
and underflow ignored.  Nothing the QR iteration forms can overflow, because
the driver runs it on H / 2^e with ||H / 2^e|| < 1 (see ``driver.shifted_qr``).
"""
import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy.linalg import blas


def is_mp_array(a):
    return a.dtype == object


@lru_cache(maxsize=None)
def mp_context(prec):
    """The context of prec-bit mpmath numbers, made once (one costs ~0.1 ms)."""
    ctx = mpmath.MPContext()
    ctx.prec = prec
    return ctx


def to_mp(a, ctx):
    """a as an object array of complex numbers of the context ctx: mpmath
    entries exactly, others rounded at ctx.prec (exactly, for complex128 at
    53 bits or more)."""
    exact = ctx.make_mpc
    return np.frompyfunc(lambda z: exact(z._mpc_) if hasattr(z, "_mpc_") else ctx.mpc(z), 1, 1)(a)


def norm(a):
    """Frobenius norm of a, in the arithmetic of a: for complex128, BLAS
    ``dznrm2``, whose scaled sum of squares neither under- nor overflows
    (inf only where the norm itself exceeds binary64); for mpmath numbers,
    the square root of the sum of the squares of their real and imaginary
    parts, summed exactly and rounded once, in their context.  0.0 for an
    empty array of either kind."""
    if not a.size:
        return 0.0
    if is_mp_array(a):
        ctx = a.flat[0].context
        return ctx.sqrt(ctx.fsum(a.flat, absolute=True, squared=True))
    return float(blas.dznrm2(a.ravel(order="K")))


def ldexp(z, e):
    """z * 2**e for floats, complex numbers, complex128 arrays, and mpmath
    numbers or object arrays of them.  Unlike z * 2.0**e it works for
    |e| > 1023 and never flips the sign of a zero real or imaginary part."""
    if isinstance(z, np.ndarray) and not is_mp_array(z):
        out = np.empty_like(z)
        out.real, out.imag = np.ldexp(z.real, e), np.ldexp(z.imag, e)
        return out
    if isinstance(z, complex):
        return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
    if isinstance(z, float):
        return math.ldexp(z, e)
    return z * mpmath.ldexp(1, e)


def log2(x):
    """log2 of a nonnegative number as a float; -inf for zero, and for an
    mpmath number that rounds to zero in binary64."""
    x = float(x)
    return math.log2(x) if x > 0 else -math.inf


def disk_point(center, radius, u1, u2):
    """The point at distance radius*sqrt(u1) and angle 2*pi*u2 from the
    complex center: a uniform sample from the closed disk D(center, radius)
    when u1 and u2 are independent uniforms on [0, 1)."""
    r = radius * math.sqrt(u1)
    ang = 2.0 * math.pi * u2
    return center + complex(r * math.cos(ang), r * math.sin(ang))
