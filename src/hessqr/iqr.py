"""Implicit QR steps on Hessenberg matrices, tau products, and the potential.

A degree-1 step factors H - s = QR and forms the next iterate R*Q + s;
higher degrees compose degree-1 steps in root order.  ``iqr_single`` has two
implementations, one for each arithmetic: LAPACK's Householder QR for
complex128 and a Givens sweep for mpmath numbers at the ambient precision.
The binary64 step keeps LAPACK's real, signed diagonal of R, the mpmath
sweep a nonnegative one: their iterates differ by a +-1 diagonal similarity,
which moves no modulus or eigenvalue, and r_nn = |R_nn| either way, whose
product approximates tau_p(H)^k = ||e_n* p(H)^{-1}||^{-1}.  Shifts are plain
tuples of roots; ``Step`` is the record one step of the QR iteration hands to
the driver.  A binary64 step returns its reflectors in an ``IqrResult``,
and a chain of steps keeps only its last step's, which form its next
iterate; Q itself is never formed here.  That iterate is formed on its
first read (``IqrResult.next_h``), so a sweep whose r_nn only a tau
product reads costs its zgeqrf alone: a step of the shifting strategy
forms k log2(k) - 2 log2(k) + 2 of its k log2(k) + 1 sweeps (6 of 9 at
k = 4).
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
from .kernel import is_mp_array, ldexp, log2, make_givens, norm, to_mp


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

    def to_extended(self):
        """Copy with entries converted to mpmath numbers (exactly, at >= 53 bits)."""
        return HessenbergMatrix(to_mp(self.a), validate=False)


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
    """zgeqrf's (qr, tau) of one binary64 step: R is qr's upper triangle,
    with a real diagonal of either sign, and Q the product of the reflectors."""

    qr: np.ndarray
    tau: np.ndarray


class IqrResult:
    """The degree-m step of p on H: the r_nn of each degree-1 step and the
    next iterate ``next_h``.

    ``factors`` is the StepReflectors of the last degree-1 step when it ran
    in binary64, and None on the mpmath route and for the identity step;
    the reflectors of earlier steps are not kept.  A binary64 step forms
    its iterate R Q + s from ``factors`` and its last shift the first time
    next_h is read, by the operations ``iqr_single`` describes, and keeps
    it: two reads return the same matrix.  A tau product reads only the
    r_nn values, so a sweep that ``find`` only compares is never formed.
    The mpmath Givens sweep forms its iterate as it goes and comes with
    next_h set.  A caller that needs every step's reflectors chains
    ``iqr_single`` and collects each result's factors."""

    __slots__ = ("_next_h", "r_nn_per_step", "factors", "shift")

    def __init__(self, next_h, r_nn_per_step, factors, shift):
        self._next_h = next_h  # None until a binary64 step's iterate is read
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

    complex128: zgeqrf factors H - s, the result keeps its StepReflectors
    as ``factors``, and zunmqr forms R*Q when the result's next_h is first
    read.  On Hessenberg input each reflector is zero past its second
    entry, so R*Q is exactly Hessenberg, and lwork=n keeps LAPACK on its
    unblocked routines, which skip those zeros.  zlarfg leaves diag(R) real,
    of either sign; next_H = R Q + s and r_nn = |R_nn| exactly.  mpmath:
    ``_givens_sweep`` forms R*Q in place, and factors is None.  Backward
    stable in either arithmetic
    (Householder: Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 19): for the Q accumulated from the step,
    ||H - s - Q R|| <= 16 n^(3/2) u ||H - s|| and
    ||next_H - Q* H Q|| <= 32 n^(3/2) u ||H - s||.
    DomainError when s is not finite.
    """
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
    if not extended:
        qr, tau, _, info = lapack.zgeqrf(a, lwork=n, overwrite_a=1)
        if info:
            raise DomainError(f"LAPACK QR step failed (zgeqrf info={info})")
        return IqrResult(None, [abs(qr[n - 1, n - 1].real)], StepReflectors(qr, tau), s)
    r_nn = _givens_sweep(a)
    a.ravel("K")[:: n + 1] += s
    return IqrResult(HessenbergMatrix(a, validate=False), [r_nn], None, s)


def _form_iterate(factors, s):
    """next_H = R Q + s of the binary64 step with StepReflectors ``factors``
    and shift s: zunmqr applies Q to R from the right."""
    qr, tau = factors.qr, factors.tau
    n = qr.shape[0]
    a = qr.copy(order="F")
    a.ravel("K")[1 :: n + 1] = 0
    a, _, info = lapack.zunmqr(b"R", b"N", qr, tau, a, lwork=n, overwrite_c=1)
    if info:
        raise DomainError(f"LAPACK QR step failed (zunmqr info={info})")
    a.ravel("K")[:: n + 1] += s
    return HessenbergMatrix(a, validate=False)


def _givens_sweep(a):
    """R*Q of the mpmath matrix a = H - s, in place; returns r_nn = |R_nn|.
    The rotations live only for the sweep: rotation i (None where the
    column was already zero) writes rows i, i+1 from column i+1 on (left)
    and rows < i+2 of columns i, i+1 (right), never below the subdiagonal;
    the phase of R_nn goes into Q's last column."""
    n = len(a)
    rotations = []
    for i in range(n - 1):
        x0, x1 = a[i, i], a[i + 1, i]
        if x0 == 0 and x1 == 0:
            L, r = None, 0.0
        else:
            L, r = make_givens(x0, x1)
            a[i : i + 2, i + 1 :] = L @ a[i : i + 2, i + 1 :]
        a[i, i] = r
        a[i + 1, i] = 0
        rotations.append(L)
    # Make the last diagonal entry real nonnegative; the phase is absorbed
    # into Q so the factorization keeps the positive-diagonal convention.
    rnn = a[n - 1, n - 1]
    r_nn = abs(rnn)
    phase = rnn / r_nn if rnn != 0 else 1
    a[n - 1, n - 1] = r_nn
    for i, L in enumerate(rotations):
        if L is not None:
            a[: i + 2, i : i + 2] = a[: i + 2, i : i + 2] @ L.conj().T
    a[:, n - 1] = a[:, n - 1] * phase
    return r_nn


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
