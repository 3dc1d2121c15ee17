"""Implicit QR steps on Hessenberg matrices, tau products, and the potential.

A degree-1 step factors H - s = QR and forms the next iterate R*Q + s;
higher degrees compose degree-1 steps in root order.  ``iqr_single`` runs
LAPACK's Householder QR in either arithmetic: zgeqrf and zunmqr on
complex128, and their transcriptions on mpmath numbers, in the numbers' own
context.  r_nn = |R_nn| of each step, whose product approximates
tau_p(H)^k = ||e_n* p(H)^{-1}||^{-1}.  Shifts are plain tuples of roots;
``Step`` is the record one step of the QR iteration hands to the driver;
``kept_step``, the one rule for keeping a step, builds and measures each.
A chain of Householder sweeps returns its r_nn and its last sweep's
reflectors in an ``IqrResult``, whose reflectors form its next iterate; Q
itself is never formed here.  That iterate is formed on its first read
(``IqrResult.next_h``), so a sweep whose r_nn only a tau product reads
costs its factorization alone: a step of the shifting strategy forms
k log2(k) - 2 log2(k) + 2 of its k log2(k) + 1 sweeps (6 of 9 at k = 4).
``multishift_step`` is the degree-k step whose r_nn nothing reads (the
driver's plain step), and returns its iterate alone: on complex128 one call
of LAPACK's small-bulge multishift sweep zlaqr5 chases the shifts two per
bulge, reached through scipy's Cython LAPACK table by ctypes, and this
module is the one place that calls it.  With KACC22 = 2 it applies each
chain's accumulated reflectors by zgemm on blocks at most max(3k - 3, 2k)
wide, so, like the zgeev of the small solver, its bits can depend on the
BLAS thread count.
``split_blocks`` is the one block splitter: the driver's deflation, the small
solver and the oracle all cut Hessenberg matrices at exactly-zero
subdiagonals through it.
"""

import cmath
import ctypes
import math
import threading
from functools import lru_cache
from typing import NamedTuple

import mpmath
import numpy as np
from scipy.linalg import cython_lapack, lapack

from .errors import DimensionError, DomainError, StructureError
from .kernel import is_mp_array, log2, mp_context, norm, to_mp


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

    def corner(self, k):
        """Bottom-right k x k corner (a copy)."""
        if not 1 <= k <= self.n:
            raise DimensionError(f"corner k={k} out of range for n={self.n}")
        return self.a[self.n - k :, self.n - k :].copy()

    def frobenius_norm(self):
        """||H||_F in the arithmetic of H (``kernel.norm``).  DomainError when
        it is not a finite binary64 number."""
        value = norm(self.a)
        if not math.isfinite(float(value)):
            raise DomainError("matrix norm is not a finite binary64 number")
        return value

    def to_extended(self, prec):
        """Copy with entries converted to prec-bit mpmath numbers (exactly,
        from complex128 at prec >= 53 and from mpmath numbers at any prec)."""
        return HessenbergMatrix(to_mp(self.a, mp_context(prec)), validate=False)


def split_blocks(a):
    """Index ranges of the diagonal blocks of a between exactly-zero subdiagonals.

    Works on any square array (complex128, clongdouble or mpmath objects);
    the ranges come back top to bottom and cover 0..len(a)."""
    n = len(a)
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
    it ("plain" | "decouple" | "ritz_shift" | "exceptional"), the shift it
    applied k times (of a "plain" step, the first of its k distinct shifts),
    and the iterate's bottom-k moduli and L = log2 psi_k^k (``kept_step``)."""

    next_h: HessenbergMatrix
    branch: str
    shift: complex
    moduli: list
    log2_psi_pow_k: float


class StepReflectors(NamedTuple):
    """zgeqrf's (qr, tau) of one step, in the step's arithmetic: R is qr's
    upper triangle, with a real diagonal, and Q the product of the
    reflectors I - tau_i v_i v_i* with v_i = (1, qr[i+1, i])."""

    qr: np.ndarray
    tau: np.ndarray


class IqrResult:
    """The degree-m step of p on H as m Householder sweeps: the r_nn of
    each degree-1 step and the next iterate ``next_h``.

    ``factors`` is the StepReflectors of the last degree-1 step, and None
    for the identity step, whose r_nn list is empty and whose next_h is H.
    The reflectors of earlier steps are not kept.  The iterate R Q + s is
    formed from ``factors`` and the last shift the first time next_h is
    read, by the operations ``iqr_single`` describes, and kept:
    two reads return the same matrix.  A caller that needs every step's
    reflectors chains ``iqr_single`` and collects each result's factors."""

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


# zlaqr5's arguments in LAPACK's order: "*" marks a complex*16 array, and
# every other argument is an integer (a LOGICAL for WANTT and WANTZ) passed
# by reference, as scipy's Cython table declares them
_ZLAQR5_ARGS = (
    "WANTT WANTZ KACC22 N KTOP KBOT NSHFTS *S *H LDH ILOZ IHIZ *Z LDZ "
    "*V LDV *U LDU NV *WV LDWV NH *WH LDWH"
).split()
_ZLAQR5_SIGNATURE = "void (%s)" % ", ".join(
    "__pyx_t_double_complex *" if arg[0] == "*" else "int *" for arg in _ZLAQR5_ARGS
)
_WANTT = 1  # update all of H, not only its active block
_WANTZ = 0  # do not accumulate Z
_KACC22 = 2  # accumulate each chain's reflectors in U and apply U by zgemm
_PANEL = 64  # NV and NH: the rows of WV and the columns of WH each zgemm updates


def _load_zlaqr5():
    """zlaqr5 from scipy's Cython LAPACK table, as a ctypes function of 24
    pointers.  ImportError when the table declares another signature, whose
    argument list this module's calls would not match."""
    capsule = cython_lapack.__pyx_capi__["zlaqr5"]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    name = get_name(capsule)
    if name.decode() != _ZLAQR5_SIGNATURE:
        raise ImportError(f"scipy's zlaqr5 is declared {name.decode()!r}, not {_ZLAQR5_SIGNATURE!r}")
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * len(_ZLAQR5_ARGS))(get_pointer(capsule, name))


_ZLAQR5 = _load_zlaqr5()


class _Zlaqr5Workspace:
    """zlaqr5's arguments for ns shifts, but H: S, V (3 x ns/2), U (ldu x ldu),
    WV (_PANEL x ldu) and WH (ldu x _PANEL), with ldu = max(3 ns - 3, 2 ns),
    which LAPACK 3.10 and earlier releases both accept, and every integer.
    N, KBOT and LDH are one integer, ``n``, set before each call.  Each
    pointer is read once, here."""

    __slots__ = ("n", "s", "head", "tail", "_keep")

    def __init__(self, ns):
        ldu = max(3 * ns - 3, 2 * ns)
        self.s = np.empty(ns, dtype=np.complex128)
        arrays = {
            "Z": np.zeros(1, dtype=np.complex128),  # not referenced: WANTZ = 0
            "V": np.zeros((3, ns // 2), dtype=np.complex128, order="F"),
            "U": np.zeros((ldu, ldu), dtype=np.complex128, order="F"),
            "WV": np.zeros((_PANEL, ldu), dtype=np.complex128, order="F"),
            "WH": np.zeros((ldu, _PANEL), dtype=np.complex128, order="F"),
            "S": self.s,
        }
        fixed = dict(WANTT=_WANTT, WANTZ=_WANTZ, KACC22=_KACC22, KTOP=1, NSHFTS=ns, ILOZ=1,
                     IHIZ=1, LDZ=1, LDV=3, LDU=ldu, NV=_PANEL, LDWV=_PANEL, NH=_PANEL, LDWH=ldu)
        ints = {arg: ctypes.c_int(value) for arg, value in fixed.items()}
        self.n = ints["N"] = ints["KBOT"] = ints["LDH"] = ctypes.c_int()

        def pointer(arg):
            return arrays[arg[1:]].ctypes.data if arg[0] == "*" else ctypes.addressof(ints[arg])

        h_at = _ZLAQR5_ARGS.index("*H")
        self.head = tuple(map(pointer, _ZLAQR5_ARGS[:h_at]))
        self.tail = tuple(map(pointer, _ZLAQR5_ARGS[h_at + 1 :]))
        self._keep = (arrays, ints)  # what the pointers point into


class _Workspaces(threading.local):
    """Each thread's zlaqr5 workspaces by shift count: zlaqr5 runs without
    the GIL, so two threads must not share one."""

    def __init__(self):
        self.by_shift_count = {}


_WORKSPACES = _Workspaces()


def _zlaqr5_sweep(a, shifts):
    """The iterate of zlaqr5's small-bulge sweep of the even number of
    ``shifts`` over the whole of the complex128 Hessenberg array a (KTOP = 1,
    KBOT = n), as a HessenbergMatrix of a Fortran-ordered copy."""
    if not all(map(cmath.isfinite, shifts)):
        raise DomainError(f"non-finite shift in {shifts!r}")
    ns = len(shifts)
    ws = _WORKSPACES.by_shift_count.get(ns)
    if ws is None:
        ws = _WORKSPACES.by_shift_count[ns] = _Zlaqr5Workspace(ns)
    ws.s[:] = shifts
    a = np.array(a, dtype=np.complex128, order="F")
    ws.n.value = a.shape[0]
    _ZLAQR5(*ws.head, a.ctypes.data, *ws.tail)
    return HessenbergMatrix(a, validate=False)


def multishift_step(h, shifts):
    """The iterate of the degree-len(shifts) step of ``shifts`` on h, a
    ``HessenbergMatrix``, for a caller that reads no r_nn.

    The shift count is even, non-zero and below n, as zlaqr5's NSHFTS is:
    DimensionError otherwise, and DomainError on a non-finite shift.  On
    complex128 the step is one zlaqr5 call (Braman, Byers and Mathias,
    *SIAM J. Matrix Anal. Appl.* 23(4), 2002), which chases the shifts
    through the whole block as bulges of two shifts each; on mpmath numbers
    it is ``iqr_multi``'s iterate.  The iterate is a unitary similarity of
    h, and exactly Hessenberg; it equals ``iqr_multi``'s up to a unitary
    diagonal similarity (the implicit Q theorem) and rounding, but for the
    subdiagonals zlaqr5 sets to zero where they are negligible (Ahues and
    Tisseur's criterion, about u (|h_ii| + |h_(i+1,i+1)|))."""
    ns = len(shifts)
    if ns == 0 or ns % 2 or h.n <= ns:
        raise DimensionError(f"shift count must be even and in 2..n-1, got {ns} for n={h.n}")
    if h.is_extended:
        return iqr_multi(h, tuple(shifts)).next_h
    return _zlaqr5_sweep(h.a, shifts)


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
    zero (or, on mpmath input, below the binary64 range).  On the normalized
    H of the iteration (||H|| < 1, ``driver.shifted_qr``), the relative error
    of psi_k = 2^(L/k) is a small multiple of u log2(1/psi), far inside the
    1 - 0.999^(1/k) budget of the analysis."""
    return math.fsum(log2(v) for v in moduli)


def kept_step(next_h, branch, shift, k, omega, log2_target):
    """The Step of ``next_h``, the iterate of a candidate degree-k step,
    when it decouples or contracts psi_k; None otherwise.  Forms that
    iterate's bottom-k moduli and L = log2 psi_k^k once, for the Step to
    carry: kept when min(moduli) <= omega or L < log2_target, which is
    ``params.contraction_target`` for a contraction of psi_k(H), -inf
    for decoupling alone, and +inf for a step its caller keeps anyway."""
    moduli = next_h.bottom_subdiagonal_abs(k)
    log2_psi_pow_k = log2_potential_pow_k(moduli)
    if min(moduli) <= omega or log2_psi_pow_k < log2_target:
        return Step(next_h, branch, shift, moduli, log2_psi_pow_k)
    return None
