import math

import numpy as np
import pytest

from conftest import companion, needs_long_double, random_hessenberg
from hessqr import oracle, smalleig
from hessqr.errors import DimensionError, SingularityError
from hessqr.iqr import HessenbergMatrix
from hessqr.kernel import mp_context
from hessqr.oracle import (
    condition_report,
    dense_en_p_norm,
    det_residual,
    matched_distance,
    promising_check,
    ref_eigs,
    resolvent_power_norm,
    resolvent_tau,
    spectral_measure,
)

PERM2 = np.array([[0, 1], [1, 0]], dtype=complex)


class TestDenseEnPNorm:
    def test_single_row_multiply(self):
        # identity-subdiagonal Hessenberg: e_n* H = (0,...,0,1,h_nn)
        n = 5
        a = np.triu(np.zeros((n, n), dtype=complex))
        a = np.triu(np.diag([0.7 + 0j] * n))
        a += np.diag(np.ones(n - 1), -1)
        h = HessenbergMatrix(a)
        got = float(dense_en_p_norm(h, (0.0,)))
        assert got == pytest.approx(math.sqrt(1 + 0.49), rel=1e-15)

    def test_corner_charpoly_attains_potential(self):
        rng = np.random.default_rng(21)
        n, k = 7, 3
        h = random_hessenberg(rng, n)
        corner_eigs = ref_eigs(h.a[n - k :, n - k :])
        val = float(dense_en_p_norm(h, tuple(corner_eigs)))
        psi_k = np.prod([float(v) for v in h.bottom_subdiagonal_abs(k)])
        assert val == pytest.approx(psi_k, rel=1e-10)


class TestResolvent:
    def test_two_by_two(self):
        got = float(resolvent_tau(HessenbergMatrix(PERM2), (2.0,)))
        assert got == pytest.approx(3 / math.sqrt(5), rel=1e-20)

    def test_eigenvalue_shift_singular(self):
        with pytest.raises(SingularityError):
            resolvent_tau(HessenbergMatrix(PERM2), (1.0,))

    def test_power_norm_consistency(self):
        h = HessenbergMatrix(PERM2)
        a = float(resolvent_power_norm(h, 2.0, 1))
        b = float(resolvent_tau(h, (2.0,)))
        assert a == pytest.approx(1 / b, rel=1e-18)


class TestRefEigs:
    def test_diagonal(self):
        d = np.diag([1.0, 2.0, 2.0, -3.0]).astype(complex)
        got = sorted(ref_eigs(d), key=lambda z: z.real)
        np.testing.assert_allclose(got, [-3, 1, 2, 2], atol=0)

    def test_involution(self):
        # 1e-20 is below the clongdouble certificate: ask for mpmath values
        got = ref_eigs(PERM2, mp_out=True)
        assert len(got) == 2 and all(abs(g - e) <= 1e-20 for g, e in zip(got, (-1, 1)))

    def test_companion_cube_roots(self):
        c = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        got = ref_eigs(c, mp_out=True)
        ctx = mp_context(200)
        expected = sorted(
            (ctx.exp(2j * ctx.pi * j / 3) for j in range(3)),
            key=lambda z: (float(z.real), float(z.imag)),
        )
        for g, e in zip(got, expected):
            assert abs(e - g) < 1e-25  # e on the left: the difference rounds at 200 bits

    def test_residual_certificate(self):
        rng = np.random.default_rng(22)
        for n in (4, 8, 12):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            norm = np.linalg.norm(a, 2)
            for lam in ref_eigs(a, mp_out=True):
                assert float(det_residual(a, lam)) <= 1e-20 * norm**n

    def test_desk_scale_limit(self):
        with pytest.raises(DimensionError):
            ref_eigs(np.eye(65, dtype=complex))

    def test_longdouble_path_accuracy(self):
        rng = np.random.default_rng(23)
        n = 24
        evals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = q @ np.diag(evals) @ q.conj().T
        got = ref_eigs(a)
        assert matched_distance(got, evals) <= 1e-12

    def test_duplicated_seed_is_not_certified(self, monkeypatch):
        # the clongdouble rung: when LAPACK hands it one seed twice, two
        # equal approximations have no Weierstrass radius and Aberth cannot
        # start from them, so the certificate rejects the block and the
        # matrix goes to the mpmath rung (a second, honest call)
        rng = np.random.default_rng(28)
        n = 20
        evals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = q @ np.diag(evals) @ q.conj().T
        eigvals = np.linalg.eigvals
        calls = []

        def duplicating(m):
            seeds = eigvals(m)
            if not calls:
                seeds[1] = seeds[0]
            calls.append(m.shape[0])
            return seeds

        monkeypatch.setattr(smalleig.np.linalg, "eigvals", duplicating)
        got = ref_eigs(a)
        assert matched_distance(got, evals) <= 1e-10
        assert calls == [n, n]


@pytest.fixture
def block_dtypes(monkeypatch):
    """Records the dtype of every block ``ref_eigs`` hands to ``_isolated_roots``."""
    seen = []
    original = oracle._isolated_roots

    def recording(blk, beta_cert):
        seen.append(blk.dtype)
        return original(blk, beta_cert)

    monkeypatch.setattr(oracle, "_isolated_roots", recording)
    return seen


class TestRefEigsRungs:
    @needs_long_double
    def test_clongdouble_certifies_without_mpmath(self, block_dtypes):
        h = random_hessenberg(np.random.default_rng(29), 8).a
        got = ref_eigs(h)
        assert block_dtypes == [np.dtype(np.clongdouble)]
        radius = oracle.REF_RADIUS * max(1.0, np.abs(h).max())
        assert matched_distance(got, ref_eigs(h, mp_out=True)) <= radius

    def test_mp_out_runs_mpmath(self, block_dtypes):
        h = random_hessenberg(np.random.default_rng(29), 8).a
        got = ref_eigs(h, mp_out=True)
        assert block_dtypes == [np.dtype(object)]
        assert all(z.context.prec == oracle.REF_EIG_PREC for z in got)

    @needs_long_double
    @pytest.mark.parametrize("e", [0, -200])
    def test_clongdouble_rung_is_scale_invariant(self, e, block_dtypes):
        # roots 1 and 1 + 1e-6 are too close for the clongdouble rung to
        # certify 2^-48 relative, at unit scale and at 2^-200 alike
        c = companion(-np.poly([1, 1 + 1e-6, 2j])[1:])
        got = ref_eigs(np.ldexp(c.real, e) + 1j * np.ldexp(c.imag, e))
        assert block_dtypes == [np.dtype(np.clongdouble), np.dtype(object)]
        unscaled = np.ldexp(got.real, -e) + 1j * np.ldexp(got.imag, -e)
        assert matched_distance(unscaled, ref_eigs(c)) <= 2.0**-50

    @pytest.mark.parametrize(
        "a, lam",
        [
            (np.array([[0, 0], [1, 0]], dtype=complex), 0),
            (np.ldexp(1.0, 200) * np.array([[0, 0], [1, 0]], dtype=complex), 0),
            (np.ldexp(1.0, -200) * np.array([[0, 0], [1, 0]], dtype=complex), 0),
            (np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]], dtype=complex), 1),
            (companion([4.0, -6.0, 4.0, -1.0]), 1),
        ],
        ids=["jordan2", "jordan2-up200", "jordan2-down200", "jordan3", "companion-(z-1)^4"],
    )
    def test_certifies_clusters(self, a, lam):
        # an m-fold eigenvalue reaches about 2^-(p/m) at p bits; Aberth and
        # the Weierstrass-Gerschgorin certificate take it within the stated
        # radius (a is Hessenberg already) once that is below it
        radius = oracle.REF_MP_RADIUS * np.abs(a).max()
        assert matched_distance(ref_eigs(a), np.full(len(a), lam)) <= radius

    def test_coincident_seeds_at_a_double_root_certify_at_the_first_mpmath_rung(self, block_dtypes):
        # this companion has the exact double root 0, where LAPACK's seeds
        # coincide; Aberth restarts from the circle, and its stop near the
        # unit roundoff takes the pair close enough to 0 to certify at 140
        # bits (a stop at sqrt(u) left it at about 2^-70, certified at 280):
        # one mpmath call, the first rung at REF_EIG_PREC
        c = companion([-3, 3, -2, 2, 1, -2, 2, 2, 2, 1, 0, 2, 3, 1, 0, 0])
        got = ref_eigs(c)
        assert block_dtypes[-1] == np.dtype(object) and block_dtypes.count(np.dtype(object)) == 1
        radius = oracle.REF_MP_RADIUS * np.abs(c).max()
        assert (np.sort(np.abs(got))[:2] <= radius).all()

    def test_zero_matrix(self):
        got = ref_eigs(np.zeros((4, 4)))
        assert got.shape == (4,) and not got.any()

    def test_guard_off_runs_mpmath(self, monkeypatch, block_dtypes):
        monkeypatch.setattr(oracle, "_LONG_DOUBLE_TIER", False)
        h = random_hessenberg(np.random.default_rng(29), 8).a
        got = ref_eigs(h)
        assert block_dtypes == [np.dtype(object)]
        assert isinstance(got, np.ndarray) and got.dtype == np.complex128


class TestSpectralMeasure:
    def test_weights_sum_to_one(self, rng):
        h = random_hessenberg(rng, 6)
        m = spectral_measure(h)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (m.weights >= 0).all()

    def test_normal_matrix_weights(self):
        rng = np.random.default_rng(24)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        a = q @ np.diag(np.arange(1.0, 6.0)) @ q.conj().T
        m = spectral_measure(a)
        # unitary eigenbasis: weights are squared last components of unit vectors
        order = np.argsort(m.eigenvalues.real)
        np.testing.assert_allclose(
            m.weights[order], np.abs(q[-1, :]) ** 2, atol=1e-10
        )

    def test_functional_calculus_sandwich(self):
        # kappa^-1 ||e_n f(H)|| <= E[|f(Z)|^2]^(1/2) <= kappa ||e_n f(H)||
        rng = np.random.default_rng(25)
        k = 2
        checked = 0
        for _ in range(100):
            h = random_hessenberg(rng, 8)
            rep = condition_report(h.a)
            eigs = ref_eigs(h.a)
            r = complex(*rng.standard_normal(2))
            if min(abs(e - r) for e in eigs) < 1e-3:
                continue
            checked += 1
            m = spectral_measure(h)
            mid = math.sqrt(
                sum(
                    w / abs(l - r) ** (2 * k)
                    for w, l in zip(m.weights, m.eigenvalues)
                )
            )
            norm_f = float(resolvent_power_norm(h, r, k))
            assert norm_f / rep.kappa_v <= mid * (1 + 1e-8)
            assert mid <= rep.kappa_v * norm_f * (1 + 1e-8)
        assert checked >= 90


class TestPromisingCheck:
    def test_singleton_always_true(self, rng):
        h = random_hessenberg(rng, 5)
        assert promising_check(h, 0.3 + 0.1j, (0.3 + 0.1j,), 1.0)

    def test_huge_alpha_always_true(self, rng):
        h = random_hessenberg(rng, 5)
        ritz = tuple(ref_eigs(h.a[1:, 1:]))
        assert promising_check(h, complex(ritz[0]), ritz, 1e9)

    def test_existence_in_optimal_set(self):
        # at least one member of the exact Ritz set is promising
        rng = np.random.default_rng(26)
        k = 4
        for _ in range(10):
            h = random_hessenberg(rng, 10)
            rep = condition_report(h.a)
            alpha = (1.01 * rep.kappa_v) ** (4 * math.log2(k) / k)
            ritz = tuple(ref_eigs(h.a[10 - k :, 10 - k :]))
            assert any(
                promising_check(h, complex(r), ritz, alpha) for r in ritz
            )


class TestConditionReport:
    def test_normal_matrix(self):
        rng = np.random.default_rng(27)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        a = q @ np.diag(rng.standard_normal(6) + 1j * rng.standard_normal(6)) @ q.conj().T
        rep = condition_report(a)
        assert rep.kappa_v == pytest.approx(1.0, abs=1e-10)

    def test_jordan_growth(self):
        prev = None
        for eps in (1e-2, 1e-4, 1e-6):
            rep = condition_report(np.array([[0, 1], [eps, 0]], dtype=complex))
            expect = eps**-0.5
            assert rep.kappa_v == pytest.approx(expect, rel=0.3)
            if prev is not None:
                assert rep.kappa_v > prev * 8
            prev = rep.kappa_v

    def test_gap(self):
        rep = condition_report(np.diag([0.0, 1.0, 3.0]).astype(complex))
        assert rep.gap == pytest.approx(1.0)


class TestMatchedDistance:
    def test_zero_on_identical(self, rng):
        pts = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert matched_distance(pts, pts) == 0.0

    def test_permutation_invariance(self, rng):
        pts = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert matched_distance(pts, pts[::-1]) == 0.0

    def test_known_displacement(self):
        a = np.array([0.0, 1.0], dtype=complex)
        b = np.array([0.1, 1.0], dtype=complex)
        assert matched_distance(a, b) == pytest.approx(0.1)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            matched_distance(np.ones(3), np.ones(4))
