import gc
import math
import weakref

import mpmath
import numpy as np
import pytest
from scipy.linalg import lapack

from conftest import random_hessenberg, same_bits
from hessqr import iqr
from hessqr.errors import DimensionError, DomainError, StructureError
from hessqr.iqr import (
    HessenbergMatrix,
    IqrResult,
    StepReflectors,
    comp_tau,
    iqr_multi,
    iqr_single,
    log2_potential_pow_k,
    potential,
)
from hessqr.kernel import ldexp, mp_context, to_mp
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


class TestPotential:
    def test_unit_subdiagonals(self):
        a = np.triu(np.ones((5, 5), dtype=complex), -1)
        assert potential(HessenbergMatrix(a), 3) == pytest.approx(1.0, rel=1e-12)

    def test_geometric_mean(self):
        a = np.triu(np.ones((3, 3), dtype=complex), -1)
        a[1, 0] = 2.0
        a[2, 1] = 8.0
        assert potential(HessenbergMatrix(a), 2) == pytest.approx(4.0, rel=5e-4)

    def test_zero_subdiagonal(self):
        a = np.triu(np.ones((4, 4), dtype=complex), -1)
        a[3, 2] = 0.0
        assert potential(HessenbergMatrix(a), 2) == 0.0

    def test_dimension_guard(self):
        a = np.triu(np.ones((3, 3), dtype=complex), -1)
        with pytest.raises(DimensionError):
            potential(HessenbergMatrix(a), 3)

    def test_extreme_magnitudes(self):
        a = np.triu(np.ones((5, 5), dtype=complex), -1)
        for i, v in enumerate([1e-160, 1e-170, 1e-150, 1e-140]):
            a[i + 1, i] = v
        psi = potential(HessenbergMatrix(a), 4)
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
            err = abs(potential(HessenbergMatrix(a), k) - exact) / exact
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
