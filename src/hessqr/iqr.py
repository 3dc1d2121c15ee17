"""Implicit QR steps on Hessenberg matrices, tau products, and the potential.

A degree-1 step factors H - s = QR and forms the next iterate R*Q + s;
higher degrees compose degree-1 steps in root order.  ``iqr_single`` runs
LAPACK's Householder QR in either arithmetic: zgeqrf and zunmqr on
complex128, and their transcriptions on mpmath numbers, in the numbers' own
context.  r_nn = |R_nn| of each step, whose product approximates
tau_p(H)^k = ||e_n* p(H)^{-1}||^{-1}.  Shifts are plain tuples of roots;
``Step`` is the record one step of the QR iteration hands to the driver.
A step returns its reflectors in an ``IqrResult``, and a chain of steps
keeps only its last step's, which form its next iterate; Q itself is never
formed here.  That iterate is formed on its first read
(``IqrResult.next_h``), so a sweep whose r_nn only a tau product reads
costs its factorization alone: a step of the shifting strategy forms
k log2(k) - 2 log2(k) + 2 of its k log2(k) + 1 sweeps (6 of 9 at k = 4).
``split_blocks`` is the one block splitter: the driver's deflation, the small
solver and the oracle all cut Hessenberg matrices at exactly-zero
subdiagonals through it.
"""

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import mpmath
import numpy as np
from scipy.linalg import lapack

from .errors import DimensionError, DomainError, StructureError
from .kernel import is_mp_array, ldexp, log2, mp_context, norm, to_mp


def _finite_all(a):
    if is_mp_array(a):
        return all(mpmath.isfinite(z) for z in a.ravel())
    return bool(np.isfinite(a).all())


@lru_cache(maxsize=64)
def _below_subdiagonal(n):
    """Read-only mask of the entries np.tril(a, -2) keeps of an n x n array."""
    mask = np.tri(n, k=-2, dtype=bool)
    mask.flags.writeable = False
    return mask


class HessenbergMatrix:
    """Dense complex upper Hessenberg matrix.

    Entries below the first subdiagonal are exact zeros; construction and
    every QR step enforce this.  The payload is either complex128 (production)
    or an object array of mpmath numbers (extended precision).  A validated
    matrix holds its own copy of the input.  With validate=False the caller
    hands over a square array of either kind that nothing else writes to,
    and it is kept as it is: no copy, no check.
    """

    __slots__ = ("a",)

    def __init__(self, a, validate=True):
        if validate:
            a = np.array(a, copy=True)
            if a.dtype != object:
                a = a.astype(np.complex128, copy=False)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise DimensionError(f"expected a square matrix, got shape {a.shape}")
            if is_mp_array(a) and not all(hasattr(z, "context") for z in a.flat):
                raise StructureError("an object array must hold mpmath numbers")
            if not _finite_all(a):
                raise StructureError("matrix has non-finite entries")
            n = a.shape[0]
            if n > 2 and np.count_nonzero(a[_below_subdiagonal(n)]):
                # the first nonzero entry in row-major order
                i, j = np.argwhere(_below_subdiagonal(n) & (a != 0))[0]
                raise StructureError(f"entry ({i},{j}) below the subdiagonal is nonzero")
        self.a = a

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def is_extended(self):
        return is_mp_array(self.a)

    def bottom_subdiagonal_abs(self, k):
        """Moduli of the bottom k subdiagonal entries h_(i,i-1), i=n-k+1..n."""
        n = self.n
        if not 1 <= k <= n - 1:
            raise DimensionError(f"bottom k={k} subdiagonals undefined for n={n}")
        return [abs(self.a[i, i - 1]) for i in range(n - k, n)]

    def is_unreduced(self, omega, k):
        return all(v > omega for v in self.bottom_subdiagonal_abs(k))

    def corner(self, k):
        """Bottom-right k x k corner (a copy)."""
        if not 1 <= k <= self.n:
            raise DimensionError(f"corner k={k} out of range for n={self.n}")
        return self.a[self.n - k :, self.n - k :].copy()

    def frobenius_norm(self):
        """||H||_F in the arithmetic of H, formed on H / 2^e with 2^e above the
        largest modulus, so that no square under- or overflows.  DomainError
        when ||H||_F is not a finite binary64 number."""
        peak = float(np.abs(self.a).max(initial=0))
        e = math.frexp(peak)[1]
        scaled = norm(ldexp(self.a, -e))
        if not (math.isfinite(peak) and math.frexp(float(scaled))[1] + e <= 1024):
            raise DomainError("matrix norm is not a finite binary64 number")
        return ldexp(scaled, e)

    def to_extended(self, prec):
        """Copy with entries converted to prec-bit mpmath numbers (exactly,
        from complex128 at prec >= 53 and from mpmath numbers at any prec)."""
        return HessenbergMatrix(to_mp(self.a, mp_context(prec)), validate=False)


def split_blocks(a, n):
    """Index ranges of the diagonal blocks of a between exactly-zero subdiagonals.

    Works on any square array (complex128, clongdouble or mpmath objects);
    the ranges come back top to bottom and cover 0..n."""
    spans = []
    start = 0
    for i in range(n - 1):
        if a[i + 1, i] == 0:
            spans.append((start, i + 1))
            start = i + 1
    spans.append((start, n))
    return spans


class Step(NamedTuple):
    """One iteration's outcome: the next iterate, the branch that produced
    it ("decouple" | "ritz_shift" | "exceptional") and the shift it applied
    k times."""

    next_h: HessenbergMatrix
    branch: str
    shift: complex


class StepReflectors(NamedTuple):
    """zgeqrf's (qr, tau) of one step, in the step's arithmetic: R is qr's
    upper triangle, with a real diagonal, and Q the product of the
    reflectors I - tau_i v_i v_i* with v_i = (1, qr[i+1, i])."""

    qr: np.ndarray
    tau: np.ndarray


class IqrResult:
    """The degree-m step of p on H: the r_nn of each degree-1 step and the
    next iterate ``next_h``.

    ``factors`` is the StepReflectors of the last degree-1 step, and None
    for the identity step only; the reflectors of earlier steps are not
    kept.  The iterate R Q + s is formed from ``factors`` and the last shift
    the first time next_h is read, by the operations ``iqr_single``
    describes, and kept: two reads return the same matrix.  A caller that
    needs every step's reflectors chains ``iqr_single`` and collects each
    result's factors."""

    __slots__ = ("_next_h", "r_nn_per_step", "factors", "shift")

    def __init__(self, next_h, r_nn_per_step, factors, shift):
        self._next_h = next_h  # None until the iterate is first read
        self.r_nn_per_step = r_nn_per_step
        self.factors = factors
        self.shift = shift  # of the last degree-1 step

    @property
    def next_h(self):
        if self._next_h is None:
            self._next_h = _form_iterate(self.factors, self.shift)
        return self._next_h

    def then(self, shifts):
        """This result continued by the degree-len(shifts) step on its next_h:
        bit for bit the step of the joined shift tuple from the same start,
        without sweeping the shared prefix again.  Each iterate but the last
        is formed as the next sweep's input; the last is left unformed, and
        only its factors are kept."""
        if not shifts:
            return self
        res, r_nns = self, list(self.r_nn_per_step)
        for s in shifts:
            res = iqr_single(res.next_h, s)
            r_nns += res.r_nn_per_step
        return IqrResult(res._next_h, r_nns, res.factors, res.shift)


def iqr_single(h, s):
    """One implicit QR step with shift s, in the arithmetic of h.

    Householder QR factors H - s as zgeqrf does (``_geqrf_mp`` on mpmath
    input), the result keeps its StepReflectors as ``factors``, and R*Q is
    formed as zunmqr forms it when the result's next_h is first read.  On
    Hessenberg input each reflector is zero past its second entry, so R*Q
    is exactly Hessenberg, and lwork=n keeps LAPACK on its unblocked
    routines, which skip those zeros.  next_H = R Q + s and r_nn = |R_nn|.
    Backward stable in either arithmetic (Householder: Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 19): for the Q accumulated
    from the step, ||H - s - Q R|| <= 16 n^(3/2) u ||H - s|| and
    ||next_H - Q* H Q|| <= 32 n^(3/2) u ||H - s||.  DomainError when s is
    not finite."""
    a = h.a
    n = a.shape[0]
    if n < 2:
        raise DimensionError("iqr_single needs n >= 2")
    extended = is_mp_array(a)
    if not (mpmath.isfinite(s) if extended else cmath.isfinite(s)):
        raise DomainError(f"non-finite shift {s!r}")
    a = a.copy(order="F")
    # Every array here and in _form_iterate is Fortran-contiguous, so
    # ravel("K") is a view of it: the diagonal is every (n+1)-th element and
    # the subdiagonal starts at 1.
    a.ravel("K")[:: n + 1] -= s
    if extended:
        qr, tau = a, _geqrf_mp(a)
    else:
        qr, tau, _, info = lapack.zgeqrf(a, lwork=n, overwrite_a=1)
        if info:
            raise DomainError(f"LAPACK QR step failed (zgeqrf info={info})")
    return IqrResult(None, [abs(qr[-1, -1].real)], StepReflectors(qr, tau), s)


def _geqrf_mp(a):
    """zgeqrf of the mpmath Hessenberg matrix a, in place, as zlarfg and
    zlarf run it: R in the upper triangle, v_i = (1, a[i+1, i]) below it;
    returns tau.  Reflector i acts on rows i, i+1 only, and the last one,
    on a[n-1, n-1] alone, only makes R_nn real.  The arrays stay the left
    operands: ``mpc * ndarray`` first formats the whole array as a string."""
    n = len(a)
    ctx = a[0, 0].context
    tau = np.full(n, ctx.mpc(0), dtype=object)
    for i in range(n):
        alpha = a[i, i]
        x = a[i + 1, i] if i < n - 1 else 0
        if x == 0 and alpha.imag == 0:
            continue
        # beta = -SIGN(||(alpha, x)||, Re alpha), mpmath's zero counting as +0
        beta = ctx.sqrt(ctx.fsum((alpha, x), absolute=True, squared=True))
        beta = beta if alpha.real < 0 else -beta
        tau[i] = t = (beta - alpha) / beta
        a[i, i] = ctx.mpc(beta)
        if i < n - 1:
            a[i + 1, i] = v = x / (alpha - beta)
            rows = a[i : i + 2, i + 1 :]  # (I - conj(t) v v*) rows
            w = (rows[0] + rows[1] * v.conjugate()) * -t.conjugate()
            rows[0] += w
            rows[1] += w * v
    return tau


def _form_iterate(factors, s):
    """next_H = R Q + s of the step with StepReflectors ``factors`` and
    shift s: Q is applied to R from the right, by zunmqr on complex128 and
    by its transcription on mpmath numbers, which rounds in the context of
    the factors, at the precision the step ran at."""
    qr, tau = factors.qr, factors.tau
    n = qr.shape[0]
    a = qr.copy(order="F")
    a.ravel("K")[1 :: n + 1] = 0
    if not is_mp_array(a):
        a, _, info = lapack.zunmqr(b"R", b"N", qr, tau, a, lwork=n, overwrite_c=1)
        if info:
            raise DomainError(f"LAPACK QR step failed (zunmqr info={info})")
        a.ravel("K")[:: n + 1] += s
        return HessenbergMatrix(a, validate=False)
    # a (I - t v v*) for each reflector in order, with v = (1, qr[i+1, i]):
    # rows below i + 1 of columns i, i + 1 are still zero, and t = 0 is exact
    for i in range(n - 1):
        t, v = tau[i], qr[i + 1, i]
        cols = a[: i + 2, i : i + 2]
        w = (cols[:, 0] + cols[:, 1] * v) * -t
        cols[:, 0] += w
        cols[:, 1] += w * v.conjugate()
    a[:, -1] -= a[:, -1] * tau[-1]
    a.ravel("K")[:: n + 1] += s
    return HessenbergMatrix(a, validate=False)


def iqr_multi(h, shifts):
    """Degree-m implicit QR step: degree-1 steps composed in root order.
    The empty shift tuple is the identity step (next_h is h)."""
    return IqrResult(h, [], None, None).then(shifts)


def comp_tau(res):
    """tau_p(H)^m from the bottom-right entries of the triangular factors of
    res, the ``IqrResult`` of the degree-m step of p on H.

    Returns fl((R_1)_nn * ... * (R_m)_nn), which approximates
    ||e_n* p(H)^{-1}||^{-1} with relative error <= 0.001 when the shifts stay
    far enough from the spectrum for the working precision (the worst-case
    requirement is part of ``params.required_precision``).  The value is a
    float, or an mpmath number on extended input.
    """
    return math.prod(res.r_nn_per_step)


def log2_potential_pow_k(moduli):
    """log2 psi_k(H)^k: the sum of log2 of the bottom k subdiagonal moduli,
    ``moduli = h.bottom_subdiagonal_abs(k)``.

    math.fsum adds the logarithms with one rounding, so the error is that of
    the k logarithms, about u log2(psi^k) absolute; -inf when one modulus is
    zero (or, on mpmath input, below the binary64 range)."""
    return math.fsum(log2(v) for v in moduli)


def potential(h, k):
    """psi_k(H) = 2^(L/k) with L = log2 psi_k(H)^k, as a float; needs n > k.

    The iteration forms psi on the normalized matrix (||H|| < 1, see
    ``driver.shifted_qr``), where the relative error is a small multiple of
    u log2(1/psi), far inside the 1 - 0.999^(1/k) budget of the analysis."""
    return 2.0 ** (log2_potential_pow_k(h.bottom_subdiagonal_abs(k)) / k)
