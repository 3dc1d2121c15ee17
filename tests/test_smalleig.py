import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg
from conftest import companion, hard_matrices, near_normal_hessenberg, random_hessenberg, same_bits
from hypothesis import given
from hypothesis import strategies as st

import hessqr
from hessqr import smalleig
from hessqr.errors import (
    DomainError,
    HessqrError,
    SmallEigFailure,
    StructureError,
)
from hessqr.iqr import HessenbergMatrix
from hessqr.kernel import mp_context, to_mp
from hessqr.oracle import matched_distance, ref_eigs
from hessqr.smalleig import CharPolySolver

SOLVER = CharPolySolver()


def hessenberg_of(m):
    """Upper Hessenberg form of m, with exact zeros below the subdiagonal."""
    return np.triu(scipy.linalg.hessenberg(m), -1)


@pytest.fixture
def aberth_calls(monkeypatch):
    """Records every ``_aberth`` call as (start, d, precision or dtype):
    start is "circle" for ``_circle``'s points and "seeds" for others."""
    calls = []
    original = smalleig._aberth

    def recording(blk, z, u):
        extended = blk.dtype == object
        circle = extended and (z == smalleig._circle(blk)).all()
        arithmetic = blk[0, 0].context.prec if extended else blk.dtype
        calls.append(("circle" if circle else "seeds", blk.shape[0], arithmetic))
        return original(blk, z, u)

    monkeypatch.setattr(smalleig, "_aberth", recording)
    return calls


class TestCharPolySolver:
    def test_diagonal(self):
        vals = SOLVER.solve(np.diag([3.0, -1.0, 2.0]).astype(complex), 1e-10)
        assert sorted(v.real for v in vals) == pytest.approx([-1.0, 2.0, 3.0])

    def test_companion(self):
        c = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        vals = SOLVER.solve(c, 1e-14)
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        assert matched_distance(np.array(vals), expected) <= 1e-14

    def test_forward_accuracy_vs_oracle(self):
        rng = np.random.default_rng(30)
        for n in (2, 3, 4, 8):
            for _ in range(8):
                m = hessenberg_of(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                beta = 1e-12 * np.linalg.norm(m)
                vals = SOLVER.solve(m, beta)
                assert len(vals) == n
                assert matched_distance(np.array(vals), ref_eigs(m)) <= beta

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        m = hessenberg_of(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        a = SOLVER.solve(m, 1e-10)
        b = SOLVER.solve(m, 1e-10)
        assert a == b

    def test_output_sorted(self):
        rng = np.random.default_rng(32)
        m = hessenberg_of(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        vals = SOLVER.solve(m, 1e-10)
        assert vals == sorted(vals, key=lambda z: (z.real, z.imag))

    def test_tiny_beta_clamped_to_representation(self):
        # beta far below ulp scale: certification degrades gracefully
        rng = np.random.default_rng(33)
        m = hessenberg_of(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        vals = SOLVER.solve(m, 1e-30)
        assert matched_distance(np.array(vals), ref_eigs(m)) <= 1e-13

    def test_reducible_exact(self):
        # a Jordan block is already triangular: splits into exact 1x1 blocks
        j = np.diag(np.ones(3), 1).astype(complex)
        assert SOLVER.solve(j, 1e-18) == [0j, 0j, 0j, 0j]

    def test_multiple_root_cluster(self, aberth_calls):
        # companion of (z-1)^4: defective but unreduced; overlapping disks
        # send it on to the mpmath rungs, which certify by escalating
        # precision
        vals = SOLVER.solve(companion([4.0, -6.0, 4.0, -1.0]), 1e-10)
        assert any(isinstance(arithmetic, int) for _, _, arithmetic in aberth_calls)
        assert len(vals) == 4
        assert all(abs(v - 1.0) <= 1e-10 for v in vals)

    def test_defective_beyond_precision_fails_loudly(self):
        c = companion([4.0, -6.0, 4.0, -1.0])
        obj = to_mp(c, mp_context(53))
        # multiplicity 4 limits the cluster accuracy to ~2^(-prec/4); a demand
        # of 1e-80 would need more than the precision cap
        with pytest.raises(SmallEigFailure, match=r"1e-80 at 960 bits .* rows 0:4 \(dimension 4\)"):
            SOLVER.solve(obj, 1e-80)

    def test_extended_input_roundtrip(self):
        rng = np.random.default_rng(34)
        m = hessenberg_of(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        vals = SOLVER.solve(to_mp(m, mp_context(80)), 1e-20)
        # certified at 120 bits or more, returned in the input's context
        assert all(v.context.prec == 80 for v in vals)
        assert matched_distance(
            np.array([complex(v) for v in vals]), ref_eigs(m)
        ) <= 1e-13


class TestFixedCosts:
    """The shortcuts ``solve`` takes before any rung: a 1 x 1 block is its
    own eigenvalue, and a block with a small sum of squares has scale 1."""

    @pytest.mark.parametrize(
        "z", [complex(-0.0, 2.5), complex(3.0, -0.0), complex(-0.0, -0.0), 1e-300 - 1e300j]
    )
    def test_one_by_one_is_its_entry(self, z):
        vals = SOLVER.solve(np.array([[z]]), 1e-10)
        assert type(vals[0]) is complex
        assert same_bits(np.array(vals), np.array([z]))

    def test_one_by_one_mpmath_is_exact(self):
        ctx = mp_context(200)
        z = ctx.mpc(ctx.mpf(1) / 3, -ctx.mpf(2) / 7)
        vals = SOLVER.solve(np.array([[z]], dtype=object), 1e-3)
        # the rungs would round it to their own precision (120 bits here)
        assert vals == [z] and vals[0].context.prec == 200

    @pytest.mark.parametrize(
        "z", [complex(np.nan, 0.0), complex(0.0, np.inf), mpmath.mpc(mpmath.inf, 1)]
    )
    def test_one_by_one_non_finite_rejected(self, z):
        dtype = complex if isinstance(z, complex) else object
        with pytest.raises(StructureError):
            SOLVER.solve(np.array([[z]], dtype=dtype), 1e-10)

    @staticmethod
    def _blocks(norm_f):
        """Hessenberg blocks of Frobenius norm norm_f (to rounding): random
        ones of dimension 1 to 16, and one whose other entries are tiny
        enough that their squares underflow."""
        rng = np.random.default_rng(37)
        for n in (1, 2, 4, 16):
            m = random_hessenberg(rng, n).a
            yield m * (norm_f / np.linalg.norm(m))
        m = np.full((4, 4), 1e-170 + 1e-170j)
        m[3, 0] = m[2, 0] = m[3, 1] = 0
        m[0, 0] = norm_f
        yield m

    @pytest.mark.parametrize(
        "norm_f",
        [
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
        ],
    )
    def test_scale_is_max_of_one_and_the_norm(self, norm_f):
        for m in self._blocks(norm_f):
            h = HessenbergMatrix(m)
            assert smalleig._scale(h) == max(1.0, float(h.frobenius_norm()))

    def test_scale_skips_the_norm_below_one_half(self, monkeypatch):
        def unused(self):
            raise AssertionError("frobenius_norm ran")

        monkeypatch.setattr(HessenbergMatrix, "frobenius_norm", unused)
        for norm_f in (0.0, 2.0**-600, 0.5):
            for m in self._blocks(norm_f):
                assert smalleig._scale(HessenbergMatrix(m)) == 1.0


class TestTwoTiers:
    def test_fast_path_matches_forced_aberth(self, monkeypatch, aberth_calls):
        # the mpmath rung's two starts against each other, with the
        # clongdouble tier off: Aberth from LAPACK's seeds, and from the
        # circle when there are no seeds
        monkeypatch.setattr(smalleig, "_LONG_DOUBLE_TIER", False)
        rng = np.random.default_rng(35)
        sizes = (2, 2, 2, 3, 3, 3, 4, 4, 4, 8, 8, 8, 16)
        cases = [random_hessenberg(rng, n).a for n in sizes]
        fast = [SOLVER.solve(m, 1e-10) for m in cases]
        assert aberth_calls == [("seeds", n, 120) for n in sizes]
        aberth_calls.clear()
        monkeypatch.setattr(smalleig, "_lapack_seeds", lambda blk: None)
        forced = [SOLVER.solve(m, 1e-10) for m in cases]
        assert aberth_calls == [("circle", n, 120) for n in sizes]
        assert fast == forced

    def test_long_double_tier_matches_mpmath(self, monkeypatch):
        rng = np.random.default_rng(35)
        sizes = (2, 2, 2, 3, 3, 3, 4, 4, 4, 8, 8, 8, 16)
        cases = [random_hessenberg(rng, n).a for n in sizes]
        beta = 1e-10
        fast = [SOLVER.solve(m, beta) for m in cases]
        monkeypatch.setattr(smalleig, "_LONG_DOUBLE_TIER", False)
        for m, vals in zip(cases, fast):
            assert matched_distance(np.array(vals), np.array(SOLVER.solve(m, beta))) <= beta

    def test_isolation_rejects_duplicated_root(self):
        # roots +-e of z^2 - e^2; the list [e, e] has exact residuals, yet
        # misses -e by 2e: equal approximations have no Weierstrass radius
        ctx = mp_context(120)
        u = ctx.mpf(2) ** -120
        e = ctx.mpf(2) ** -60
        blk = np.array([[0, e * e], [1, 0]], dtype=object) * ctx.mpc(1)
        beta_cert = ctx.mpf(1e-15)
        assert smalleig._certify_block(blk, [e, e], beta_cert, u) is None
        good = smalleig._certify_block(blk, [e, -e], beta_cert, u)
        assert max(good) <= 2**-170  # kappa(+-e) = 0 exactly: rounding bound only

    def test_non_hessenberg_input_rejected(self):
        rng = np.random.default_rng(36)
        h = random_hessenberg(rng, 5).a
        assert matched_distance(np.array(SOLVER.solve(h, 1e-12)), ref_eigs(h)) <= 1e-12
        dense = rng.standard_normal((5, 5)) + 0j
        with pytest.raises(StructureError):
            SOLVER.solve(dense, 1e-12)
        h[4, 2] = 1e-300
        with pytest.raises(StructureError):
            SOLVER.solve(h, 1e-12)


@pytest.fixture
def tier_blocks(monkeypatch):
    """Records the dtype and size of every block ``_isolated_roots`` sees."""
    seen = []
    original = smalleig._isolated_roots

    def recording(blk, beta_cert, u):
        seen.append((blk.dtype, blk.shape[0]))
        return original(blk, beta_cert, u)

    monkeypatch.setattr(smalleig, "_isolated_roots", recording)
    return seen


@pytest.fixture
def hyman_calls(monkeypatch):
    """Records (with an error bound, with kappa') for every ``_hyman`` call."""
    seen = []
    original = smalleig._hyman

    def recording(H, z, u=None, derivative=True):
        seen.append((u is not None, derivative))
        return original(H, z, u, derivative)

    monkeypatch.setattr(smalleig, "_hyman", recording)
    return seen


def _raise(*args):
    raise AssertionError("an mpmath tier was entered")


needs_long_double = pytest.mark.skipif(
    not smalleig._LONG_DOUBLE_TIER, reason="clongdouble has no 64-bit significand here"
)


class TestLongDoubleTier:
    @needs_long_double
    def test_solves_without_mpmath(self, monkeypatch):
        # the mpmath rungs take binary64 input through to_mp, and restart
        # Aberth from _circle
        monkeypatch.setattr(smalleig, "to_mp", _raise)
        monkeypatch.setattr(smalleig, "_circle", _raise)
        rng = np.random.default_rng(37)
        h, _ = near_normal_hessenberg(rng, 16, perturb=1e-4)
        beta = 1e-9
        vals = SOLVER.solve(h.a, beta)
        monkeypatch.undo()
        assert matched_distance(np.array(vals), ref_eigs(h.a)) <= beta

    @needs_long_double
    def test_certified_seeds_are_returned_as_they_are(self, hyman_calls):
        # a well-separated 4x4: LAPACK's eigenvalues pass the certificate, in
        # one recurrence pass without kappa', and come back unchanged
        rng = np.random.default_rng(42)
        h = random_hessenberg(rng, 4).a
        vals = SOLVER.solve(h, 1e-10)
        assert hyman_calls == [(True, False)]
        assert same_bits(vals, sorted(np.linalg.eigvals(h), key=lambda z: (z.real, z.imag)))

    @needs_long_double
    def test_failed_seeds_are_refined_on_the_same_rung(self, hyman_calls, tier_blocks):
        # kappa(V) ~ 2.9: at the representation floor of beta the seeds fail,
        # and Aberth's roots certify in clongdouble
        m = np.array(
            [[0.1 + 0.2j, 0.3, 0.1j, 0.05], [0.2, 0.4 - 0.1j, 0.2, 0.1], [0, 0.3, -0.2 + 0.1j, 0.3j], [0, 0, 0.25, 0.15]]
        )
        beta = 1e-30  # floored to 8 * 2^-52 * max(1, ||m||_F)
        vals = SOLVER.solve(m, beta)
        assert tier_blocks == [(np.dtype(np.clongdouble), 4)]
        assert hyman_calls[0] == (True, False) and hyman_calls[-1] == (True, False)
        assert (False, True) in hyman_calls  # an Aberth step
        beta_eff = 8 * 2.0**-52 * max(1.0, np.linalg.norm(m))
        assert matched_distance(np.array(vals), ref_eigs(m)) <= beta_eff

    def test_object_input_stays_in_mpmath(self, tier_blocks):
        rng = np.random.default_rng(38)
        h = random_hessenberg(rng, 6).a
        vals = SOLVER.solve(to_mp(h, mp_context(80)), 1e-15)
        assert tier_blocks and all(dtype == object for dtype, _ in tier_blocks)
        assert all(v.context.prec == 80 for v in vals)
        assert matched_distance(np.array([complex(v) for v in vals]), ref_eigs(h)) <= 1e-13

    def test_certified_block_is_not_solved_again(self, aberth_calls, tier_blocks):
        # an isolated 3x3 block above the companion of (z-1)^4: the cluster
        # needs 240 bits, the 3x3 block is certified once, at the first rung
        rng = np.random.default_rng(41)
        top = random_hessenberg(rng, 3).a
        m = np.zeros((7, 7), dtype=complex)
        m[:3, :3] = top
        m[:3, 3:] = rng.standard_normal((3, 4))
        m[3:, 3:] = companion([4.0, -6.0, 4.0, -1.0])
        vals = SOLVER.solve(to_mp(m, mp_context(80)), 1e-10)
        assert [d for _, d in tier_blocks].count(3) == 1
        assert {prec for _, d, prec in aberth_calls if d == 4} == {120, 240}
        vals = np.array([complex(v) for v in vals])
        near_one = np.abs(vals - 1) <= 1e-10
        assert near_one.sum() == 4
        assert matched_distance(vals[~near_one], ref_eigs(top)) <= 1e-10

    def test_guard_off_runs_mpmath(self, monkeypatch, tier_blocks):
        monkeypatch.setattr(smalleig, "_LONG_DOUBLE_TIER", False)
        rng = np.random.default_rng(39)
        h = random_hessenberg(rng, 6).a
        vals = SOLVER.solve(h, 1e-12)
        assert tier_blocks == [(np.dtype(object), 6)]
        assert matched_distance(np.array(vals), ref_eigs(h)) <= 1e-12

    @needs_long_double
    def test_bounded_radius_rejects_near_cancellation(self, tier_blocks):
        # roots 1 +- 2^-10, -1 and 2i of a companion matrix: in clongdouble the
        # computed kappa is tiny at the Newton roots, so the Weierstrass radius
        # d |W_i| taken from kappa_hat alone is far inside beta, but the
        # rounding it hides is not
        roots = np.array([1 + 2.0**-10, 1 - 2.0**-10, -1, 2j])
        c = companion(-np.poly(roots)[1:])
        H = c.astype(np.clongdouble)
        beta = 1e-30  # floored to 8 * 2^-52 * ||c||_F
        beta_cert = np.longdouble(8 * 2.0**-52 * np.linalg.norm(c)) / 2
        z = np.linalg.eigvals(c).astype(np.clongdouble)
        for _ in range(3):
            kap, kapp, _ = smalleig._hyman(H, z)
            z = z - kap / kapp
        kap, _, _ = smalleig._hyman(H, z)
        apart = np.abs(z[:, None] - z[None, :]) + np.eye(4)
        weierstrass = np.abs(kap) / apart.prod(axis=1)  # prod |h_j| = 1
        assert (4 * weierstrass <= beta_cert / 10).all()
        assert smalleig._certify_block(H, z, beta_cert, smalleig._U_LD) is None
        vals = SOLVER.solve(c, beta)
        assert [dtype for dtype, _ in tier_blocks] == [np.dtype(np.clongdouble), np.dtype(object)]
        beta_eff = 2 * float(beta_cert)
        assert matched_distance(np.array(vals), roots) <= beta_eff


class TestAberth:
    @staticmethod
    def _arithmetics(m, z):
        """(m, z, u, real type) in clongdouble and as 80-bit mpmath copies."""
        ctx = mp_context(80)
        yield m.astype(np.clongdouble), z.astype(np.clongdouble), smalleig._U_LD, np.longdouble
        yield to_mp(m, ctx), to_mp(z, ctx), ctx.eps / 2, ctx.mpf

    def test_coincident_points_give_none(self):
        m = random_hessenberg(np.random.default_rng(44), 3).a
        for H, z, u, _ in self._arithmetics(m, np.array([0.5, 0.5, -1j])):
            assert smalleig._aberth(H, z, u) is None

    def test_both_arithmetics_refine_to_certified_roots(self):
        # from LAPACK's eigenvalues moved 1e-6 apart from the roots
        rng = np.random.default_rng(45)
        for n in (2, 4, 8):
            m = random_hessenberg(rng, n).a
            start = np.linalg.eigvals(m) * (1 + 1e-6) + 1e-6j
            for H, z, u, real in self._arithmetics(m, start):
                roots = smalleig._aberth(H, z, u)
                assert smalleig._certify_block(H, roots, real(1e-12), u) is not None


EXACT = mp_context(300)  # the reference arithmetic of the error bound tests


def _mp_of(v):
    """Exact 300-bit value of a clongdouble or longdouble number."""
    def real(x):
        mant, e = np.frexp(np.longdouble(x))
        return EXACT.ldexp(int(np.ldexp(mant, 64)), int(e) - 64)

    v = np.clongdouble(v)
    return EXACT.mpc(real(v.real), real(v.imag))


class TestRunningErrorBound:
    """|kappa_hat - kappa| <= eps against kappa evaluated at 300 bits on the
    same stored matrix and points."""

    @staticmethod
    def _exact(H, z):
        kap, _, _ = smalleig._hyman(to_mp(H, EXACT), to_mp(np.array(list(z)), EXACT))
        return kap

    @staticmethod
    def _cases(sizes):
        rng = np.random.default_rng(40)
        for n in sizes:
            h = random_hessenberg(rng, n).a
            grade = np.diag(2.0 ** rng.integers(-30, 31, n))
            for m in (h, grade @ h @ np.linalg.inv(grade)):
                seeds = np.linalg.eigvals(m)
                points = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                yield m, np.concatenate([seeds, seeds * (1 + 1e-9), points])

    def test_clongdouble(self):
        for m, z in self._cases((2, 4, 8, 16)):
            H, zl = m.astype(np.clongdouble), z.astype(np.clongdouble)
            kap, _, eps = smalleig._hyman(H, zl, smalleig._U_LD)
            ek = self._exact(m, z)
            for j in range(len(z)):
                assert abs(_mp_of(kap[j]) - ek[j]) <= _mp_of(eps[j]).real

    def test_derivative_does_not_change_the_bound(self):
        # kappa and eps are bit for bit the same with and without kappa'
        for m, z in self._cases((2, 4, 8)):
            H, zl = m.astype(np.clongdouble), z.astype(np.clongdouble)
            with_d = smalleig._hyman(H, zl, smalleig._U_LD)
            without = smalleig._hyman(H, zl, smalleig._U_LD, derivative=False)
            assert without[1] is None
            assert same_bits(with_d[0], without[0]) and same_bits(with_d[2], without[2])
            ctx = mp_context(40)
            H, zm, u = to_mp(m, ctx), to_mp(z, ctx), ctx.mpf(2) ** -40
            with_d = smalleig._hyman(H, zm, u)
            without = smalleig._hyman(H, zm, u, derivative=False)
            assert same_bits(with_d[0], without[0]) and same_bits(with_d[2], without[2])

    def test_mpmath_at_40_bits(self):
        ctx = mp_context(40)
        for m, z in self._cases((2, 4, 8)):
            H, zm = to_mp(m, ctx), to_mp(z, ctx)
            kap, _, eps = smalleig._hyman(H, zm, ctx.mpf(2) ** -40)
            ek = self._exact(H, zm)
            for j in range(len(z)):
                # the 300-bit value is the left operand: the difference rounds at 300 bits
                assert abs(ek[j] - kap[j]) <= eps[j]


class TestExtremeInputs:
    def test_inf_rejected(self):
        with pytest.raises(StructureError):
            SOLVER.solve(np.array([[1.0, np.inf], [1.0, 0.0]], dtype=complex), 1e-10)

    def test_nan_rejected(self):
        with pytest.raises(StructureError):
            SOLVER.solve(np.array([[1.0, np.nan], [1.0, 0.0]], dtype=complex), 1e-10)

    def test_entries_near_overflow(self):
        m = np.array([[1e300, 2e300], [1e300, -1e300]], dtype=complex)
        vals = SOLVER.solve(m, 1e-10)
        expected = np.array([-np.sqrt(3.0), np.sqrt(3.0)]) * 1e300
        assert np.allclose(np.array(vals), expected, rtol=1e-14, atol=0)

    def test_extended_entries_near_overflow_fail_loudly(self):
        # beta = 1e-10 is 2^-1030 of these entries at 80 bits, beyond the
        # 960-bit cap; the quotient ||m||_F / beta overflows binary64
        m = np.array([[1e300, 2e300], [1e300, -1e300]], dtype=complex)
        with pytest.raises(SmallEigFailure, match="at 960 bits"):
            SOLVER.solve(to_mp(m, mp_context(80)), 1e-10)

    def test_norm_overflow_rejected(self):
        with pytest.raises(DomainError):
            SOLVER.solve(np.full((2, 2), 1e308, dtype=complex), 1e-10)

    def test_extended_entry_beyond_binary64_rejected(self):
        ctx = mp_context(53)
        obj = to_mp(np.array([[1.0, 2.0], [1.0, 0.0]], dtype=complex), ctx)
        obj[0, 1] = ctx.mpc(ctx.mpf("1e400"))
        with pytest.raises(HessqrError):
            SOLVER.solve(obj, 1e-10)


class TestLapackSeeds:
    """The seeds are zgeev's eigenvalues, the ones ``np.linalg.eigvals``
    returns, bit for bit; a block without seeds goes on to the next step."""

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 32, 128])
    def test_same_bits_as_numpy(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(3):
            h = random_hessenberg(rng, n).a
            assert same_bits(smalleig._lapack_seeds(h.astype(np.clongdouble)), np.linalg.eigvals(h))

    def test_same_bits_as_numpy_where_the_workspace_matters(self):
        # from n ~ 150 on, zgeev's code path depends on its workspace; with
        # one BLAS thread numpy's and scipy's OpenBLAS builds agree
        src = os.path.dirname(os.path.dirname(hessqr.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        code = (
            "import numpy as np; from hessqr import smalleig; "
            "rng = np.random.default_rng(61); "
            "a = [np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), -1) "
            "for n in (150, 200)]; "
            "print(all(smalleig._lapack_seeds(m).tobytes() == np.linalg.eigvals(m).tobytes() "
            "for m in a))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert out.stdout.strip() == "True"

    def test_a_block_beyond_binary64_has_no_seeds(self):
        ctx = mp_context(53)
        blk = to_mp(np.array([[1.0, 2.0], [1.0, 0.0]], dtype=complex), ctx)
        blk[0, 1] = ctx.mpc(ctx.mpf("1e400"))
        assert smalleig._lapack_seeds(blk) is None

    def test_a_failed_zgeev_is_a_failed_seed(self, monkeypatch):
        def failing(a, **options):
            return np.zeros(a.shape[0], complex), None, None, 1

        monkeypatch.setattr(smalleig.lapack, "zgeev", failing)
        blk = random_hessenberg(np.random.default_rng(62), 4).a.astype(np.clongdouble)
        assert smalleig._lapack_seeds(blk) is None
        assert smalleig._isolated_roots(blk, np.longdouble(1e-3), smalleig._U_LD) is None


class TestHardInputs:
    @given(hard_matrices())
    def test_certified_or_loud(self, case):
        a, _ = case
        n = a.shape[0]
        beta = 1e-8 * max(1.0, float(np.linalg.norm(a)))
        try:
            vals = SOLVER.solve(a, beta)
        except HessqrError:
            return
        assert len(vals) == n
        assert matched_distance(np.array(vals), ref_eigs(a)) <= beta


@st.composite
def exact_roots(draw):
    """2 to 6 roots known exactly: each is one of up to three Gaussian
    integers in [-2, 2] + [-2, 2]i plus an offset of 0, +-2^-s or +-2^-s i
    (s in 3..5), so roots repeat and cluster.  2^s times a root has parts
    of modulus at most 66, so the monic coefficients, sums of products of up
    to six such roots over 2^(s k), have at most 53 significant bits and
    are exact in binary64."""
    s = draw(st.integers(3, 5))
    ints = st.integers(-2, 2)
    centres = draw(st.lists(st.builds(complex, ints, ints), min_size=1, max_size=3))
    offsets = st.sampled_from([0, 1, -1, 1j, -1j])
    d = draw(st.integers(2, 6))
    picks = draw(st.lists(st.tuples(st.sampled_from(centres), offsets), min_size=d, max_size=d))
    return np.array([c + o * 2.0**-s for c, o in picks])


def exact_companion(roots):
    """Companion matrix of prod (z - r), its coefficients checked exact."""
    coeffs = [EXACT.mpc(1)]
    for r in roots:
        coeffs = [a - EXACT.mpc(r) * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    first = np.array([complex(-a) for a in coeffs[1:]])
    assert all(EXACT.mpc(f) == -a for f, a in zip(first, coeffs[1:]))
    return companion(first)


class TestCertificate:
    @given(exact_roots(), st.sampled_from([2.0**-10, 2.0**-20, 2.0**-40]))
    def test_certified_roots_are_within_beta(self, roots, beta):
        # the Weierstrass-Gerschgorin certificate is sound for clusters and
        # multiple roots: whatever _solve_blocks certifies, in clongdouble
        # or in mpmath at 120 bits (Aberth from the seeds, then from the
        # circle), matches the exact roots within beta.  2^-50 allows for
        # rounding the certified values, of modulus below 3, to complex128.
        c = exact_companion(roots)
        d = len(roots)
        certified = []
        if smalleig._LONG_DOUBLE_TIER:
            vals, left = smalleig._solve_blocks(c.astype(np.clongdouble), [(0, d)], np.longdouble(beta))
            certified += [] if left else [vals]
        ctx = mp_context(120)
        vals, left = smalleig._solve_blocks(to_mp(c, ctx), [(0, d)], ctx.mpf(beta))
        certified += [] if left else [vals]
        for vals in certified:
            assert matched_distance(np.array([complex(v) for v in vals]), roots) <= beta + 2.0**-50

    def test_radii_match_the_loop_reference(self):
        # an isolated root's bound is its radius, bit for bit the one formed
        # a row and a factor at a time
        rng = np.random.default_rng(43)
        for n in (2, 3, 4, 8):
            for _ in range(5):
                blk = random_hessenberg(rng, n).a.astype(np.clongdouble)
                z = np.linalg.eigvals(blk.astype(np.complex128)).astype(np.clongdouble)
                bound = smalleig._certify_block(blk, z, np.longdouble(1e-3), smalleig._U_LD)
                assert bound is not None
                assert same_bits(bound, _reference_radii(blk, z, smalleig._U_LD))

    def test_bound_spans_the_component(self):
        # z^2 with approximations 2^-7 and -2^-3: the disk about 2^-7 (radius
        # about 2^-10) lies inside the one about -2^-3 (about 2^-2), so both
        # roots need only lie in their union; 0 is 2^-7 from the first
        # approximation, outside its own disk but within its bound
        blk = np.array([[0, 0], [1, 0]], dtype=np.clongdouble)
        z = np.array([2.0**-7, -(2.0**-3)], dtype=np.clongdouble)
        bound = smalleig._certify_block(blk, z, np.longdouble(1), smalleig._U_LD)
        assert (bound >= np.abs(z)).all()


def _reference_radii(blk, z, u):
    """The Weierstrass radii r_i of ``_certify_block`` for clongdouble blk and
    z, from kappa and eps formed one row and one factor at a time."""
    n = blk.shape[0]
    tiny, g = np.finfo(blk.dtype).tiny, smalleig._slack(n, u)
    kap, _, _ = smalleig._hyman(blk, z)
    x = np.zeros((n, n), dtype=blk.dtype)
    x[n - 1] = 1
    for i in range(n - 1, 0, -1):
        x[i - 1] = (z * x[i] - blk[i, i:] @ x[i:]) / blk[i, i - 1]
    aH, az, ax = np.abs(blk), np.abs(z), np.abs(x)
    y, fy = np.zeros_like(x), np.zeros_like(ax)
    y[0], fy[0] = 1, g
    for j in range(n - 1):
        y[j + 1] = (z * y[j] - blk[: j + 1, j] @ y[: j + 1]) / blk[j + 1, j]
        fy[j + 1] = (az * fy[j] + aH[: j + 1, j] @ fy[: j + 1] + tiny) / aH[j + 1, j] + tiny
        fy[j + 1] += np.abs(y[j + 1]) * g
    local = (aH @ ax + az * ax) * g + (tiny * (1 + aH.sum(axis=1)))[:, None]
    eps = ((np.abs(y) + fy) * local).sum(axis=0) * (1 + 2 * n * g)
    dist = np.abs(z[:, None] - z[None, :])
    h, w = np.abs(blk.diagonal(-1)), np.abs(kap) + eps
    for j in range(1, n):
        w = np.array([w[i] * (h[j - 1] / dist[i, (i + j) % n] + tiny) + tiny for i in range(n)])
    return n * w * (1 + smalleig._slack(6 * n, u))


class TestModuleBoundary:
    def test_solver_import_leaves_oracle_unloaded(self):
        src = os.path.dirname(os.path.dirname(hessqr.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, hessqr; "
            "print(sorted(m for m in ('hessqr.oracle', 'scipy.optimize') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert out.stdout.strip() == "[]"
