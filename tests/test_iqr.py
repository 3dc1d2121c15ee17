import gc
import math
import sys
import threading
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import block_diag, cython_lapack, lapack

from conftest import near_normal_hessenberg, psi_k, random_hessenberg, same_bits
from hessqr import iqr
from hessqr.errors import DimensionError, DomainError, StructureError
from hessqr.iqr import (
    HessenbergMatrix,
    IqrResult,
    StepReflectors,
    comp_tau,
    iqr_multi,
    iqr_single,
    kept_step,
    log2_potential_pow_k,
    multishift_step,
)
from hessqr.kernel import ldexp, mp_context, norm, to_mp
from hessqr.oracle import (
    IQR_EXACT_PREC,
    accumulate_q,
    dense_en_p_norm,
    iqr_exact,
    ref_eigs,
    matched_distance,
    resolvent_tau,
    condition_report,
)

U = 2.0**-52  # binary64 unit roundoff
PERM2 = np.array([[0, 1], [1, 0]], dtype=complex)


def _chain(h, shifts):
    """``iqr_single`` chained over shifts from h: the result of each
    degree-1 step, in order.  Each keeps its own step's factors, which a
    degree-m ``IqrResult`` does not."""
    results = []
    for s in shifts:
        results.append(iqr_single(h, s))
        h = results[-1].next_h
    return results


class TestHessenbergMatrix:
    def test_structure_enforced(self):
        with pytest.raises(StructureError):
            HessenbergMatrix(np.ones((3, 3)))

    @pytest.mark.parametrize("extended", [False, True], ids=["complex128", "mpmath"])
    def test_first_entry_below_the_subdiagonal_is_reported(self, extended):
        # row-major order: (3,1) comes before (4,0)
        a = np.triu(np.ones((5, 5), dtype=complex), -1)
        a[4, 0] = a[3, 1] = 1e-300j
        a[3, 0] = -0.0  # a signed zero is a zero
        with pytest.raises(StructureError, match=r"^entry \(3,1\) below the subdiagonal is nonzero$"):
            HessenbergMatrix(to_mp(a, mp_context(53)) if extended else a)
        a[3, 1] = 0
        with pytest.raises(StructureError, match=r"^entry \(4,0\) below"):
            HessenbergMatrix(to_mp(a, mp_context(53)) if extended else a)
        a[4, 0] = 0
        assert HessenbergMatrix(to_mp(a, mp_context(53)) if extended else a).n == 5

    def test_nonfinite_rejected(self):
        a = np.triu(np.ones((3, 3), dtype=complex), -1)
        a[0, 0] = np.nan
        with pytest.raises(StructureError):
            HessenbergMatrix(a)

    def test_object_entries_must_be_mpmath_numbers(self):
        # a Python number has no context to compute in
        with pytest.raises(StructureError, match="^an object array must hold mpmath numbers$"):
            HessenbergMatrix(np.array([[0, 1], [1, 0]], dtype=object))

    def test_bottom_subdiagonals(self):
        a = np.triu(np.arange(16, dtype=float).reshape(4, 4) + 1, -1)
        h = HessenbergMatrix(a)
        assert h.bottom_subdiagonal_abs(2) == [abs(a[2, 1]), abs(a[3, 2])]

    @staticmethod
    def _blocks(norm_f):
        """Hessenberg blocks of Frobenius norm norm_f (to rounding): random
        ones of dimension 1 to 16, and one whose other entries are tiny
        enough that their squares underflow; each also as the direct sum
        with itself, of norm sqrt(2) norm_f."""
        rng = np.random.default_rng(37)
        blocks = []
        for n in (1, 2, 4, 16):
            m = random_hessenberg(rng, n).a
            blocks.append(m / np.linalg.norm(m) * norm_f)
        m = np.full((4, 4), 1e-170 + 1e-170j)
        m[3, 0] = m[2, 0] = m[3, 1] = 0
        m[0, 0] = norm_f
        blocks.append(m)
        return blocks + [block_diag(m, m) for m in blocks]

    @pytest.mark.parametrize(
        "norm_f",
        [
            2.0**-1074,
            2.0**-600,
            0.5,
            np.nextafter(0.5**0.5, 0),
            0.5**0.5,
            np.nextafter(0.5**0.5, 1),
            1 - 2**-40,
            np.nextafter(1.0, 0),
            1.0,
            np.nextafter(1.0, 2),
            1 + 2**-40,
            2.0**600,
            2.0**1023,
            1.5 * 2.0**1023,
        ],
    )
    def test_frobenius_norm_against_a_300_bit_reference(self, norm_f):
        # within 1 ulp of a normal norm, within 2^-1074 of a subnormal one,
        # and DomainError where the norm is beyond binary64 (the direct sums
        # at 1.5 * 2^1023)
        ctx = mp_context(300)
        largest = ctx.mpf(np.finfo(np.float64).max)
        for m in self._blocks(norm_f):
            h = HessenbergMatrix(m)
            ref = norm(to_mp(h.a, ctx))
            if ref > largest:
                with pytest.raises(DomainError, match="^matrix norm is not a finite binary64 number$"):
                    h.frobenius_norm()
                continue
            got = h.frobenius_norm()
            assert type(got) is float
            tol = max(np.spacing(float(ref)), 2.0**-1074)
            assert abs(ctx.mpf(got) - ref) <= tol, (m.shape, got, ref)

    def test_frobenius_norm_of_the_empty_matrix_is_zero(self):
        # dznrm2 itself rejects an empty vector
        assert HessenbergMatrix(np.zeros((0, 0))).frobenius_norm() == 0.0

    def test_mpmath_frobenius_norm_rounds_the_sum_of_squares_once(self):
        # the squares of the parts are exact and their sum is rounded once:
        # the norm is the sqrt of the correctly rounded sum, which 300 bits
        # hold exactly for entries of one magnitude (a sum of the rounded
        # |z|^2 misses it at seed 61)
        ctx, wide = mp_context(80), mp_context(300)
        for seed in range(52, 64):
            a = to_mp(random_hessenberg(np.random.default_rng(seed), 9).a, ctx) / 3
            parts = [wide.mpf(p) for z in a.flat for p in (z.real, z.imag)]
            exact = wide.fsum(p * p for p in parts)
            assert norm(a) == ctx.sqrt(ctx.mpf(exact))
            assert norm(a).context.prec == 80

    def test_frobenius_norm_of_the_empty_mpmath_matrix_is_zero(self):
        # an empty object array has no entry to take a context from
        empty = np.empty((0, 0), dtype=object)
        assert norm(empty) == 0.0
        assert HessenbergMatrix(empty).frobenius_norm() == 0.0


class TestShifts:
    """Shifts are plain tuples of roots; the step that consumes one checks it."""

    def test_non_finite_shift_rejected(self):
        # on complex128 and on mpmath input, at the second root
        h = random_hessenberg(np.random.default_rng(10), 5)
        hx = h.to_extended(80)
        for bad in (complex("inf"), complex("nanj"), float("-inf")):
            for start, s in ((h, bad), (hx, bad), (hx, mp_context(80).mpc(bad))):
                with pytest.raises(DomainError, match="non-finite shift"):
                    iqr_multi(start, (0.5, s))

    def test_empty_shift_tuple_is_identity(self):
        h = random_hessenberg(np.random.default_rng(10), 5)
        res = iqr_multi(h, ())
        assert res.next_h is h and res.r_nn_per_step == [] and res.factors is None
        assert comp_tau(res) == 1.0  # the empty polynomial


class TestIqrSingle:
    def test_permutation_fixed_point(self):
        res = iqr_single(HessenbergMatrix(PERM2), 0.0)
        np.testing.assert_allclose(res.next_h.a, PERM2)
        assert res.r_nn_per_step == [1.0]

    def test_triangular_noop(self):
        a = np.triu(np.array([[2.0, 1.0], [0.0, 3.0]], dtype=complex))
        res = iqr_single(HessenbergMatrix(a), 1.0)
        np.testing.assert_allclose(res.next_h.a, a, atol=4 * U)

    def test_rnn_matches_resolvent(self):
        # (R)_22 = ||e_2 (H - 2)^{-1}||^{-1} for H = [[2,1],[1,2]]
        h = HessenbergMatrix(np.array([[2, 1], [1, 2]], dtype=complex))
        res = iqr_single(h, 2.0)
        oracle = float(resolvent_tau(h, (2.0,)))
        assert res.r_nn_per_step[0] == pytest.approx(oracle, rel=1e-3)

    def test_dimension_error(self):
        # in both arithmetics
        h = HessenbergMatrix(np.array([[1.0]]))
        for start in (h, h.to_extended(53)):
            with pytest.raises(DimensionError):
                iqr_single(start, 0.0)

    def test_next_iterate_owns_its_array(self):
        # in both arithmetics; the step leaves its input unchanged
        rng = np.random.default_rng(12)
        h = random_hessenberg(rng, 5)
        for start in (h, h.to_extended(80)):
            before = start.a.copy()
            nxt = iqr_single(start, 0.25j).next_h
            assert not np.shares_memory(nxt.a, start.a)
            assert same_bits(start.a, before)

    def test_structural_zeros_exact(self):
        # on complex128 and on mpmath input alike
        rng = np.random.default_rng(11)
        h = random_hessenberg(rng, 9)
        for start in (h, h.to_extended(80)):
            a = iqr_multi(start, (0.3, -0.2j, 1.1)).next_h.a
            assert a.dtype == start.a.dtype
            for i in range(2, 9):
                assert all(z == 0 for z in a[i, : i - 1])

    def test_backward_stability_sample(self):
        self._backward_stability_sample(extended=False)

    def test_backward_stability_sample_on_mpmath(self):
        # the mpmath step runs at 53 bits, where u is binary64's and its
        # reflectors round to complex128 exactly
        self._backward_stability_sample(extended=True)

    @staticmethod
    def _backward_stability_sample(extended):
        """``iqr_single``'s bounds, through the step's own factors, on 10
        draws per n."""
        rng = np.random.default_rng(12)
        for n in (8, 32) if extended else (8, 32, 128):
            for _ in range(10):
                h = random_hessenberg(rng, n)
                norm_h = np.linalg.norm(h.a, 2)
                s = complex(*rng.standard_normal(2)) * norm_h
                res = iqr_single(h.to_extended(53) if extended else h, s)
                next_a = res.next_h.a.astype(np.complex128)
                q = accumulate_q([StepReflectors(*(f.astype(np.complex128) for f in res.factors))], n)
                shifted = h.a - s * np.eye(n)
                r = q.conj().T @ shifted
                norm_shift = np.linalg.norm(shifted, 2)
                assert np.linalg.norm(np.tril(r, -1), 2) <= 16 * n**1.5 * U * norm_shift
                assert np.linalg.norm(next_a - q.conj().T @ h.a @ q, 2) <= 32 * n**1.5 * U * norm_shift


def _zero_column_case():
    """(h, s) with h[1, 0] = 0 and s = h[0, 0]: the first column of H - s is
    zero."""
    a = np.triu(np.arange(1.0, 26.0).reshape(5, 5) * (1 - 0.5j), -1)
    a[1, 0] = 0
    a[0, 0] = 0.5 + 2j
    return HessenbergMatrix(a), 0.5 + 2j


def _frozen_step(a, s):
    """The mpmath degree-1 step written out entry by entry: zlarfg and
    zlarf's left updates on H - s, then zunmqr's right updates, then + s,
    in the context of a's entries: (next_a, r_nn, tau).  The reference for
    bit-identity."""
    n = a.shape[0]
    ctx = a[0, 0].context
    a = a.copy()
    for i in range(n):
        a[i, i] = a[i, i] - s
    tau = [ctx.mpc(0)] * n
    for i in range(n):
        alpha = a[i, i]
        x = a[i + 1, i] if i < n - 1 else 0
        if x == 0 and alpha.imag == 0:
            continue
        beta = ctx.sqrt(ctx.fsum((alpha, x), absolute=True, squared=True))
        if alpha.real >= 0:
            beta = -beta
        t = tau[i] = (beta - alpha) / beta
        a[i, i] = ctx.mpc(beta)
        if i < n - 1:
            v = a[i + 1, i] = x / (alpha - beta)
            for j in range(i + 1, n):
                w = (a[i, j] + a[i + 1, j] * v.conjugate()) * -t.conjugate()
                a[i, j] = a[i, j] + w
                a[i + 1, j] = a[i + 1, j] + w * v
    r_nn = abs(a[n - 1, n - 1].real)
    vs = [a[i + 1, i] for i in range(n - 1)]
    for i in range(n - 1):
        a[i + 1, i] = 0
    for i in range(n - 1):
        t, v = tau[i], vs[i]
        for r in range(i + 2):
            w = (a[r, i] + a[r, i + 1] * v) * -t
            a[r, i] = a[r, i] + w
            a[r, i + 1] = a[r, i + 1] + w * v.conjugate()
    for r in range(n):
        a[r, n - 1] = a[r, n - 1] - a[r, n - 1] * tau[n - 1]
    for i in range(n):
        a[i, i] = a[i, i] + s
    return a, r_nn, np.array(tau, dtype=object)


class TestSweepBitIdentity:
    """The mpmath step reproduces ``_frozen_step`` exactly: next iterate,
    r_nn and tau, also where a column is already zero and the step skips
    its reflector."""

    def _check(self, h, s):
        res = iqr_single(h, s)
        a, r_nn, tau = _frozen_step(h.a, s)
        assert same_bits(res.next_h.a, a)
        assert res.r_nn_per_step == [r_nn] and type(res.r_nn_per_step[0]) is type(r_nn)
        assert same_bits(res.factors.tau, tau)

    def _grid(self, bits, seed):
        rng = np.random.default_rng(seed)
        for n in (2, 3, 8, 32):
            for scale in (1.0, 2.0**-300, 2.0**300):
                h = random_hessenberg(rng, n, scale).to_extended(bits)
                for s in (complex(*rng.standard_normal(2)) * scale, 0.25 * scale, 0.0):
                    self._check(h, s)

    def test_mpmath_53_bits(self):
        self._grid(53, 13)

    def test_mpmath_80_bits(self):
        self._grid(80, 14)
        rng = np.random.default_rng(14)
        ctx = mp_context(80)
        h = random_hessenberg(rng, 7).to_extended(80)
        h.a[3, 3] += ctx.mpf(1) / 3
        self._check(h, ctx.mpc(1, 3) / 7)

    def test_iterate_read_after_the_precision_block(self):
        # an 80-bit step read under another global precision is still
        # formed at 80 bits, and its iterate is made of 80-bit numbers
        h = random_hessenberg(np.random.default_rng(15), 8)
        hm, shifts = h.to_extended(80), (mp_context(80).mpc(1, 3) / 7, 0.25)
        inside = iqr_multi(hm, shifts).next_h.a
        late = iqr_multi(hm, shifts)
        with mpmath.workprec(30):
            a = late.next_h.a
        assert same_bits(a, inside)
        assert {z.context.prec for z in a.flat} == {80}

    def test_zero_column_gives_none_rotation(self):
        # no first reflector: tau[0] = 0, the identity
        h, s = _zero_column_case()
        for bits in (53, 80):
            hm = h.to_extended(bits)
            assert hm.a[1, 0] == 0 and hm.a[0, 0] - s == 0
            self._check(hm, s)
            assert iqr_single(hm, s).factors.tau[0] == 0


class TestGeqrfMp:
    """``_geqrf_mp``'s reflectors against LAPACK's zlarfg, which it
    transcribes, on 2 x 2 input: beta = R[0, 0], v = qr[1, 0] and tau."""

    @staticmethod
    def _reflect(alpha, x):
        a = np.array([[alpha, 1.0], [x, 1.0]], dtype=complex)
        qr = to_mp(a, mp_context(53))
        tau = iqr._geqrf_mp(qr)
        return qr[0, 0], qr[1, 0], tau[0]

    def test_against_zlarfg(self):
        # the sign cases by hand (mpmath's zero counts as +0), then a sample
        rng = np.random.default_rng(25)
        cases = [(3, 4), (-3, 4), (0, 1), (2j, 0), (complex(0.0, -2.0), 1e-300), (1 + 1j, 2 - 3j)]
        cases += [tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(200)]
        for alpha, x in cases:
            beta, v, tau = (complex(z) for z in self._reflect(alpha, x))
            want_beta, want_x, want_tau = lapack.zlarfg(2, alpha, np.array([x], dtype=complex))
            assert abs(beta - want_beta) <= 4 * U * abs(want_beta)
            assert abs(v - want_x[0]) <= 4 * U and abs(tau - want_tau) <= 4 * U
        assert [complex(z) for z in self._reflect(3, 4)] == [-5, 0.5, 1.6]
        assert [complex(z) for z in self._reflect(-3, 4)] == [5, -0.5, 1.6]

    def test_real_alpha_and_zero_x_is_no_reflector(self):
        # zlarfg's tau = 0 case: alpha kept as it is, even when negative
        for alpha in (2.0, -2.0, 0.0):
            beta, v, tau = self._reflect(alpha, 0.0)
            assert tau == 0 and beta == alpha and v == 0
            want_beta, _, want_tau = lapack.zlarfg(2, alpha, np.zeros(1, dtype=complex))
            assert want_tau == 0 and want_beta == alpha

    def test_reflector_is_unitary_and_zeroing_at_80_bits(self):
        # H* (alpha, x) = (beta, 0) with |beta| = ||(alpha, x)|| real, and
        # H* H = I, for H = I - tau v v*; 1 <= Re tau <= 2, |tau - 1| <= 1
        rng = np.random.default_rng(26)
        ctx = mp_context(80)
        tol = ctx.mpf(2) ** -74
        for _ in range(200):
            col = to_mp(rng.standard_normal(2) + 1j * rng.standard_normal(2), ctx) / 3
            qr = np.array([[col[0], ctx.mpc(1)], [col[1], ctx.mpc(1)]], dtype=object)
            t = iqr._geqrf_mp(qr)[0]
            v = np.array([ctx.mpc(1), qr[1, 0]], dtype=object)
            refl = np.eye(2, dtype=object) - np.outer(v, v.conjugate()) * t
            norm = ctx.sqrt(abs(col[0]) ** 2 + abs(col[1]) ** 2)
            out = refl.conj().T @ col
            assert abs(out[0] - qr[0, 0]) <= tol * norm and abs(out[1]) <= tol * norm
            assert qr[0, 0].imag == 0 and abs(abs(qr[0, 0]) - norm) <= tol * norm
            gram = refl.conj().T @ refl
            assert all(abs(gram[p, q] - (p == q)) <= tol for p in range(2) for q in range(2))
            assert 1 <= t.real <= 2 and abs(t - 1) <= 1 + tol


class TestBinary64Step:
    """The complex128 step (LAPACK Householder QR) against the mpmath step
    at ``oracle.IQR_EXACT_PREC`` bits, which transcribes it: iterate, r_nn
    and tau compared directly.  Shifts stay at least 1e-2 ||H|| from the
    spectrum: near an eigenvalue a QR step is forward unstable and the two
    may legitimately part (Parlett and Le, 1993)."""

    @staticmethod
    def _check(h, s, ref):
        n = h.n
        res = iqr_single(h, s)
        got = res.next_h.a
        for i in range(2, n):
            assert (got[i, : i - 1] == 0).all()
        r_diag = res.factors.qr.diagonal()
        assert (r_diag.imag == 0).all()
        assert res.r_nn_per_step == [abs(r_diag.real[-1])]
        tol = 4 * n * U * np.linalg.norm(h.a - s * np.eye(n), 2)
        assert np.linalg.norm(got - ref.next_h.a.astype(np.complex128), 2) <= tol
        assert abs(res.r_nn_per_step[0] - float(ref.r_nn_per_step[0])) <= tol
        assert np.abs(res.factors.tau - ref.factors.tau.astype(np.complex128)).max() <= 4 * n * U

    @staticmethod
    def _exact(h, s):
        return iqr_single(h.to_extended(IQR_EXACT_PREC), s)

    def test_against_mpmath_sweep(self):
        # The mpmath step is exact under scaling by 2^e, so one reference
        # serves all three scales; tau does not scale.
        rng = np.random.default_rng(20)
        for n in (2, 3, 8, 32, 128, 200):
            h = random_hessenberg(rng, n)
            eigs = np.linalg.eigvals(h.a)
            norm_h = np.linalg.norm(h.a, 2)
            s = complex(*rng.standard_normal(2)) * norm_h
            while np.abs(eigs - s).min() < 1e-2 * norm_h:
                s = complex(*rng.standard_normal(2)) * norm_h
            ref = self._exact(h, s)
            for e in (0, -300, 300):
                ref_e = IqrResult(
                    HessenbergMatrix(ldexp(ref.next_h.a, e), validate=False),
                    [ldexp(ref.r_nn_per_step[0], e)],
                    ref.factors,
                    ldexp(s, e),
                )
                self._check(HessenbergMatrix(ldexp(h.a, e)), ldexp(s, e), ref_e)

    def test_zero_column(self):
        # no reflector for the zero first column, in either arithmetic
        h, s = _zero_column_case()
        ref = self._exact(h, s)
        self._check(h, s, ref)
        assert iqr_single(h, s).factors.tau[0] == 0 and ref.factors.tau[0] == 0

    def test_never_runs_the_mpmath_factorization(self, monkeypatch):
        def refuse(a):
            raise AssertionError(f"_geqrf_mp on {a.dtype} input")

        monkeypatch.setattr(iqr, "_geqrf_mp", refuse)
        h = random_hessenberg(np.random.default_rng(21), 9)
        res = iqr_multi(h, (0.3, -0.2j, 1.1))
        assert isinstance(res.factors, StepReflectors)
        assert all(isinstance(r.factors, StepReflectors) for r in _chain(h, (0.3, -0.2j, 1.1)))


def _signed_chain(a, shifts):
    """The binary64 chain with the positive-diagonal normalization, next_H =
    D R Q D + s with D = sign(diag R) at every step, by the same zgeqrf and
    zunmqr calls as ``iqr``: (next_a, r_nn per step)."""
    n = a.shape[0]
    r_nns = []
    for s in shifts:
        a = a.copy(order="F")
        a.ravel("K")[:: n + 1] -= s
        qr, tau, _, info = lapack.zgeqrf(a, lwork=n, overwrite_a=1)
        assert info == 0
        d = np.copysign(1.0, qr.real.diagonal())
        r_nns.append(abs(qr[n - 1, n - 1].real))
        a = qr * d[:, None]
        a.ravel("K")[1 :: n + 1] = 0
        a, _, info = lapack.zunmqr(b"R", b"N", qr, tau, a, lwork=n, overwrite_c=1)
        assert info == 0
        a *= d
        a.ravel("K")[:: n + 1] += s
    return a, r_nns


def _lapack_signs(results):
    """E = prod_l sign(diag R_l) over the binary64 steps of ``results``
    (``_chain``'s): the +-1 diagonal with which E next_H E is the iterate of
    ``_signed_chain``."""
    e = np.ones(results[0].factors.qr.shape[0])
    for res in results:
        e *= np.copysign(1.0, res.factors.qr.real.diagonal())
    return e


class TestLapackSignConvention:
    """The binary64 step forms R Q + s as LAPACK factors it.  Up to the
    diagonal similarity E = prod_l sign(diag R_l), with each step's R from
    chaining ``iqr_single``, that is the iterate of the positive-diagonal
    chain, value for value, with the same r_nn: the signs change no modulus,
    no eigenvalue and no tau product.  np.array_equal compares values, since
    the two may differ in the sign of a zero below the subdiagonal."""

    def test_equals_the_positive_diagonal_chain(self):
        rng = np.random.default_rng(22)
        for n in (2, 3, 8, 32, 128):
            for m in range(1, 6):
                h = random_hessenberg(rng, n)
                shifts = tuple(complex(*rng.standard_normal(2)) for _ in range(m))
                for e in (0, -300, 300):
                    a = ldexp(h.a, e)
                    scaled = tuple(ldexp(s, e) for s in shifts)
                    res = iqr_multi(HessenbergMatrix(a), scaled)
                    want, r_nns = _signed_chain(a, scaled)
                    d = _lapack_signs(_chain(HessenbergMatrix(a), scaled))
                    assert np.array_equal(d[:, None] * res.next_h.a * d, want)
                    assert res.r_nn_per_step == r_nns


class TestIqrMulti:
    def test_keeps_only_the_last_steps_reflectors(self, monkeypatch):
        # a degree-m step holds one n x n factor array, not m of them
        alive = []
        zgeqrf = iqr.lapack.zgeqrf

        def keep_a_weakref(*args, **kwargs):
            out = zgeqrf(*args, **kwargs)
            alive.append(weakref.ref(out[0]))
            return out

        monkeypatch.setattr(iqr.lapack, "zgeqrf", keep_a_weakref)
        h = random_hessenberg(np.random.default_rng(23), 16)
        res = iqr_multi(h, (0.3, -0.2j, 1.1, 0.5 + 0.5j))
        gc.collect()
        assert [ref() is not None for ref in alive] == [False, False, False, True]
        assert alive[-1]() is res.factors.qr

    def test_chained_singles_equal_the_multi_step(self):
        # in both arithmetics, bit for bit
        rng = np.random.default_rng(24)
        for n in (2, 8, 32):
            h = random_hessenberg(rng, n)
            shifts = tuple(complex(*rng.standard_normal(2)) for _ in range(5))
            for start in (h, h.to_extended(80)) if n <= 8 else (h,):
                res = iqr_multi(start, shifts)
                chain = _chain(start, shifts)
                assert same_bits(res.next_h.a, chain[-1].next_h.a)
                got = np.array(res.r_nn_per_step, dtype=object)
                want = np.array([r for step in chain for r in step.r_nn_per_step], dtype=object)
                assert same_bits(got, want)

    def test_single_shift_equivalence(self):
        rng = np.random.default_rng(13)
        h = random_hessenberg(rng, 6)
        a = iqr_single(h, 0.7 - 0.1j).next_h.a
        b = iqr_multi(h, (0.7 - 0.1j,)).next_h.a
        np.testing.assert_array_equal(a, b)

    def test_exact_shift_deflation(self):
        rng = np.random.default_rng(14)
        h = random_hessenberg(rng, 3)
        eigs = ref_eigs(h.a)
        res = iqr_multi(h, (complex(eigs[0]), complex(eigs[1])))
        tau = res.r_nn_per_step[0] * res.r_nn_per_step[1]
        assert tau <= 1e-12
        assert min(res.next_h.bottom_subdiagonal_abs(2)) <= 1e-7

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            h = random_hessenberg(rng, 8)
            shifts = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            res = iqr_multi(h, shifts)
            rep = condition_report(h.a)
            dist = matched_distance(ref_eigs(res.next_h.a), ref_eigs(h.a))
            # Bauer-Fike conversion of the backward bound
            norm_h = np.linalg.norm(h.a, 2)
            c = max(abs(np.array(shifts))) / norm_h
            backward = 1.4 * 4 * (1 + c) * norm_h * 32 * 8**1.5 * U
            assert dist <= max(rep.kappa_v * backward, 1e-12)


def _corner_eigs(h, k):
    return [complex(z) for z in np.linalg.eigvals(h.corner(k))]


class TestMultishiftStep:
    """One zlaqr5 sweep of an even number of shifts on complex128, and
    ``iqr_multi``'s iterate on mpmath numbers."""

    def test_lapack_has_the_workspace_layout_the_calls_assume(self):
        # U, WV and WH changed layout in LAPACK 3.10
        assert lapack.ilaver() >= (3, 10)

    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("size", ["k+1", "2k", "32"])
    def test_the_iterate_is_exactly_hessenberg(self, k, size):
        n = {"k+1": k + 1, "2k": 2 * k, "32": 32}[size]
        h = random_hessenberg(np.random.default_rng(100 + n + k), n)
        res = multishift_step(h, _corner_eigs(h, k))
        assert isinstance(res, HessenbergMatrix)
        a = res.a
        assert a.dtype == np.complex128 and a.shape == (n, n)
        assert not np.tril(a, -2).any()
        assert not np.shares_memory(a, h.a)

    def test_the_iterate_is_the_single_sweeps_up_to_phases(self):
        # the implicit Q theorem: the same moduli below the diagonal
        h = random_hessenberg(np.random.default_rng(101), 12)
        shifts = _corner_eigs(h, 4)
        got = multishift_step(h, shifts).a
        want = iqr_multi(h, tuple(shifts)).next_h.a
        np.testing.assert_allclose(np.abs(np.diag(got, -1)), np.abs(np.diag(want, -1)), rtol=1e-10)
        np.testing.assert_allclose(np.diag(got), np.diag(want), rtol=1e-10)

    @pytest.mark.parametrize("extended", [False, True], ids=["complex128", "mpmath"])
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_no_shifts_and_an_odd_count_are_refused(self, count, extended):
        # zlaqr5 takes NSHFTS even and positive, and so does every run's k
        h = random_hessenberg(np.random.default_rng(102), 10)
        h = h.to_extended(80) if extended else h
        with pytest.raises(DimensionError, match=f"got {count} for n=10"):
            multishift_step(h, [0.3 - 0.1j, -0.2j, 0.5][:count])

    def test_mpmath_numbers_take_iqr_multi(self):
        h = random_hessenberg(np.random.default_rng(104), 8).to_extended(80)
        shifts = (0.3 - 0.1j, -0.2j, 0.5, 0.1 + 0.4j)
        got = multishift_step(h, list(shifts))
        assert isinstance(got, HessenbergMatrix)
        assert same_bits(got.a, iqr_multi(h, shifts).next_h.a)

    def test_a_negligible_subdiagonal_becomes_an_exact_zero(self):
        # zlaqr5's deflation check during the chase, at which deflate splits
        a = random_hessenberg(np.random.default_rng(105), 16).a
        a[8, 7] = 1e-20
        h = HessenbergMatrix(a)
        assert multishift_step(h, _corner_eigs(h, 4)).a[8, 7] == 0

    def test_needs_more_rows_than_shifts_and_finite_shifts(self):
        h = random_hessenberg(np.random.default_rng(106), 4)
        with pytest.raises(DimensionError):
            multishift_step(h, [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(DomainError):
            multishift_step(h, [0.1, complex(math.nan, 0)])

    def test_the_workspace_is_kept_by_shift_count_alone(self):
        shifts = [0.1, -0.2j, 0.3, 0.4j]
        for n in (5, 40):
            multishift_step(random_hessenberg(np.random.default_rng(n), n), shifts)
            if n == 5:
                ws = iqr._WORKSPACES.by_shift_count[4]
        assert iqr._WORKSPACES.by_shift_count[4] is ws

    def test_each_thread_sweeps_in_its_own_workspace(self):
        # zlaqr5 runs without the GIL: more threads than cores, switching
        # often, each must get the serial iterate
        hs = [random_hessenberg(np.random.default_rng(107 + i), 48) for i in range(4)]
        shifts = [0.1, -0.2j, 0.3, 0.4j, -0.5, 0.2 + 0.2j]
        want = [multishift_step(h, shifts).a for h in hs]
        got = [[] for _ in hs]

        def run(i):
            for _ in range(30):
                got[i].append(multishift_step(hs[i], shifts).a)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(hs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(g) == 30 for g in got)
        assert all(same_bits(a, want[i]) for i in range(len(hs)) for a in got[i])

    def test_a_zlaqr5_of_another_signature_is_refused(self, monkeypatch):
        monkeypatch.setitem(cython_lapack.__pyx_capi__, "zlaqr5", cython_lapack.__pyx_capi__["zlaqr3"])
        with pytest.raises(ImportError, match="zlaqr5 is declared"):
            iqr._load_zlaqr5()

    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.sampled_from([2, 4, 8]))
    def test_a_unitary_similarity_on_near_normal_draws(self, seed, n, k):
        # ||H'||_F = ||H||_F and the spectrum, each to c n u (c = 16), the
        # spectrum through Bauer-Fike with kappa_V; k is even and below n
        k = min(k, (n - 1) // 2 * 2)
        rng = np.random.default_rng(seed)
        h, _ = near_normal_hessenberg(rng, n, perturb=1e-4)
        after = multishift_step(h, _corner_eigs(h, k)).a
        norm_h = np.linalg.norm(h.a)
        assert abs(np.linalg.norm(after) - norm_h) <= 16 * n * U * norm_h
        dist = matched_distance(np.linalg.eigvals(after), np.linalg.eigvals(h.a))
        assert dist <= 16 * n * U * norm_h * condition_report(h.a).kappa_v


class TestCompTau:
    def test_two_by_two(self):
        h = HessenbergMatrix(PERM2)
        assert comp_tau(iqr_multi(h, (2.0,))) == pytest.approx(3 / math.sqrt(5), rel=1e-3)

    def test_eigenvalue_shift_vanishes(self):
        h = HessenbergMatrix(PERM2)  # eigenvalues +-1
        assert comp_tau(iqr_multi(h, (1.0,))) <= 1e-14

    def test_matches_resolvent_oracle(self):
        rng = np.random.default_rng(16)
        trials = 0
        for _ in range(40):
            h = random_hessenberg(rng, 6)
            norm_h = np.linalg.norm(h.a, 2)
            shifts = tuple(norm_h * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
            eigs = ref_eigs(h.a)
            dist = min(abs(e - s) for e in eigs for s in shifts)
            if dist < 1e-3 * norm_h:
                continue
            trials += 1
            oracle = float(resolvent_tau(h, shifts))
            assert comp_tau(iqr_multi(h, shifts)) == pytest.approx(oracle, rel=1.1e-3)
        assert trials >= 30


class TestKeptStep:
    """``kept_step``, the one rule by which every branch keeps a candidate
    step: some bottom-k modulus at or below omega, or L < target."""

    def test_the_step_carries_its_iterate_and_measurement(self):
        h = random_hessenberg(np.random.default_rng(85), 8)
        res = iqr_multi(h, (0.1, -0.2j))
        step = kept_step(res.next_h, "plain", 0.1, 4, 0.0, math.inf)
        assert step.next_h is res.next_h and (step.branch, step.shift) == ("plain", 0.1)
        assert step.moduli == res.next_h.bottom_subdiagonal_abs(4)
        assert step.log2_psi_pow_k == log2_potential_pow_k(step.moduli)

    def test_strict_below_the_target(self):
        nxt = iqr_multi(random_hessenberg(np.random.default_rng(86), 8), (0.3,)).next_h
        after = log2_potential_pow_k(nxt.bottom_subdiagonal_abs(4))
        assert kept_step(nxt, "exceptional", 0.3, 4, 0.0, after) is None
        assert kept_step(nxt, "exceptional", 0.3, 4, 0.0, after - 1e-9) is None
        assert kept_step(nxt, "exceptional", 0.3, 4, 0.0, after + 1e-9) is not None

    def test_omega_at_the_smallest_modulus(self):
        h = random_hessenberg(np.random.default_rng(87), 8)
        low = min(h.bottom_subdiagonal_abs(4))
        assert kept_step(h, "decouple", 0j, 4, low, -math.inf) is not None
        assert kept_step(h, "decouple", 0j, 4, math.nextafter(low, 0), -math.inf) is None

    def test_a_minus_infinite_target_keeps_only_a_decoupled_iterate(self):
        a = random_hessenberg(np.random.default_rng(88), 8).a
        assert kept_step(HessenbergMatrix(a), "decouple", 0j, 4, 0.0, -math.inf) is None
        a[6, 5] = 0
        decoupled = HessenbergMatrix(a)
        step = kept_step(decoupled, "decouple", 0j, 4, 0.0, -math.inf)
        assert step.log2_psi_pow_k == -math.inf

    def test_a_plus_infinite_target_keeps_every_iterate(self):
        rng = np.random.default_rng(89)
        for scale in (2.0**-500, 1.0, 2.0**500):
            nxt = iqr_multi(random_hessenberg(rng, 8, scale=scale), (0.5j,)).next_h
            assert kept_step(nxt, "ritz_shift", 0.5j, 4, 0.0, math.inf) is not None


class TestPotential:
    """psi_k = 2^(L/k) with L of ``log2_potential_pow_k``, as conftest's
    ``psi_k`` forms it."""

    def test_unit_subdiagonals(self):
        a = np.triu(np.ones((5, 5), dtype=complex), -1)
        assert psi_k(HessenbergMatrix(a), 3) == pytest.approx(1.0, rel=1e-12)

    def test_geometric_mean(self):
        a = np.triu(np.ones((3, 3), dtype=complex), -1)
        a[1, 0] = 2.0
        a[2, 1] = 8.0
        assert psi_k(HessenbergMatrix(a), 2) == pytest.approx(4.0, rel=5e-4)

    def test_zero_subdiagonal(self):
        a = np.triu(np.ones((4, 4), dtype=complex), -1)
        a[3, 2] = 0.0
        assert psi_k(HessenbergMatrix(a), 2) == 0.0

    def test_dimension_guard(self):
        a = np.triu(np.ones((3, 3), dtype=complex), -1)
        with pytest.raises(DimensionError):
            psi_k(HessenbergMatrix(a), 3)

    def test_extreme_magnitudes(self):
        a = np.triu(np.ones((5, 5), dtype=complex), -1)
        for i, v in enumerate([1e-160, 1e-170, 1e-150, 1e-140]):
            a[i + 1, i] = v
        psi = psi_k(HessenbergMatrix(a), 4)
        assert psi == pytest.approx(10 ** (-155), rel=1e-3)
        log2_psi_k = log2_potential_pow_k(HessenbergMatrix(a).bottom_subdiagonal_abs(4))
        assert log2_psi_k == pytest.approx(-620 * math.log2(10), rel=1e-14)
        assert 2.0**log2_psi_k == 0  # the raw product underflows floats

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_against_mpmath(self, k):
        # test_extreme_magnitudes' graded subdiagonals, and random matrices
        # at 2^-50 and 2^50
        graded = np.triu(np.ones((9, 9), dtype=complex), -1)
        for i in range(8):
            graded[i + 1, i] = [1e-160, 1e-170, 1e-150, 1e-140][i % 4]
        rng = np.random.default_rng(19)
        mats = [graded] + [
            random_hessenberg(rng, 9, scale=2.0**e).a for e in (-50, 50) for _ in range(20)
        ]
        ctx = mp_context(200)
        for a in mats:
            exact = ctx.fprod(abs(ctx.mpc(a[i, i - 1])) for i in range(9 - k, 9))
            exact = exact ** (ctx.mpf(1) / k)
            err = abs(psi_k(HessenbergMatrix(a), k) - exact) / exact
            assert err <= 1e-13

    def test_variational_identity_sample(self):
        # psi_k(H) = ||e_n* chi_k(H)||^(1/k) with chi_k from corner eigenvalues
        rng = np.random.default_rng(17)
        for n, k in ((6, 2), (8, 4)):
            h = random_hessenberg(rng, n)
            corner_eigs = ref_eigs(h.a[n - k :, n - k :], mp_out=True)
            lhs = float(dense_en_p_norm(h, tuple(complex(e) for e in corner_eigs))) ** (1 / k)
            psi_exact = float(np.prod([float(v) for v in h.bottom_subdiagonal_abs(k)])) ** (1 / k)
            assert lhs == pytest.approx(psi_exact, rel=1e-10)


class TestForwardStability:
    def test_against_extended_precision(self):
        # well-separated shifts: binary64 IQR tracks the extended-precision one
        rng = np.random.default_rng(18)
        for _ in range(5):
            h = random_hessenberg(rng, 8)
            rep = condition_report(h.a)
            norm_h = rep.norm
            eigs = ref_eigs(h.a)
            shifts = []
            while len(shifts) < 2:
                s = complex(*rng.standard_normal(2)) * norm_h
                if min(abs(s - e) for e in eigs) >= 1e-2 * norm_h:
                    shifts.append(s)
            shifts = tuple(shifts)
            got = iqr_multi(h, shifts).next_h.a
            ref = iqr_exact(h, shifts).a.astype(np.complex128)
            dist = min(abs(s - e) for e in eigs for s in shifts)
            c = max(abs(np.array(shifts))) / norm_h
            bound = (
                32
                * rep.kappa_v
                * norm_h
                * ((2 + 2 * c) * norm_h / dist) ** 2
                * math.sqrt(8)
                * 32
                * 8**1.5
                * U
            )
            assert np.linalg.norm(got - ref) <= bound
