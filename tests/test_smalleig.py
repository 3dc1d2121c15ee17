import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from conftest import (
    companion,
    hard_matrices,
    near_normal_hessenberg,
    needs_long_double,
    random_hessenberg,
    same_bits,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import hessqr
from hessqr import oracle, smalleig
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

    def recording(blk, z):
        extended = blk.dtype == object
        circle = extended and (z == smalleig._circle(blk)).all()
        arithmetic = blk[0, 0].context.prec if extended else blk.dtype
        calls.append(("circle" if circle else "seeds", blk.shape[0], arithmetic))
        return original(blk, z)

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

    def test_empty_matrix_has_no_eigenvalues(self):
        assert SOLVER.solve(np.zeros((0, 0)), 1e-3) == []

    def test_hessenberg_matrix_input_is_taken_by_its_array(self):
        # the package's own type, as ``driver.prepare`` takes it, and still
        # validated
        for m in (random_hessenberg(np.random.default_rng(35), 4).a, np.array([[2 + 1j]])):
            assert same_bits(SOLVER.solve(HessenbergMatrix(m), 1e-8), SOLVER.solve(m, 1e-8))
        bad = HessenbergMatrix(np.array([[1.0, np.nan], [1.0, 0.0]], dtype=complex), validate=False)
        with pytest.raises(StructureError):
            SOLVER.solve(bad, 1e-8)

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
    """The shortcut ``solve`` takes before any rung: a 1 x 1 block is its
    own eigenvalue."""

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


def _no_enclosure(blocks, beta_cert):
    """An ``_enclosed_roots`` that certifies nothing: every binary64 block
    goes on to the characteristic polynomial."""
    return [None] * len(blocks)


def _skip_the_clongdouble_rung(monkeypatch):
    """``_isolated_roots`` certifies no numpy block: a binary64 block the
    enclosure leaves goes straight on to mpmath."""
    original = smalleig._isolated_roots

    def mpmath_only(blk, beta_cert):
        return original(blk, beta_cert) if blk.dtype == object else None

    monkeypatch.setattr(smalleig, "_isolated_roots", mpmath_only)


class TestTwoTiers:
    def test_fast_path_matches_forced_aberth(self, monkeypatch, aberth_calls):
        # the mpmath rung's two starts against each other, with the
        # enclosure failing and the clongdouble rung skipped: Aberth from
        # LAPACK's seeds, and from the circle when there are no seeds
        monkeypatch.setattr(smalleig, "_enclosed_roots", _no_enclosure)
        _skip_the_clongdouble_rung(monkeypatch)
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
        # the characteristic polynomial on both sides, the enclosure failing:
        # the clongdouble rung against the mpmath one
        monkeypatch.setattr(smalleig, "_enclosed_roots", _no_enclosure)
        rng = np.random.default_rng(35)
        sizes = (2, 2, 2, 3, 3, 3, 4, 4, 4, 8, 8, 8, 16)
        cases = [random_hessenberg(rng, n).a for n in sizes]
        beta = 1e-10
        fast = [SOLVER.solve(m, beta) for m in cases]
        _skip_the_clongdouble_rung(monkeypatch)
        for m, vals in zip(cases, fast):
            assert matched_distance(np.array(vals), np.array(SOLVER.solve(m, beta))) <= beta

    def test_isolation_rejects_duplicated_root(self):
        # roots +-e of z^2 - e^2; the list [e, e] has exact residuals, yet
        # misses -e by 2e: equal approximations have no Weierstrass radius
        ctx = mp_context(120)
        e = ctx.mpf(2) ** -60
        blk = np.array([[0, e * e], [1, 0]], dtype=object) * ctx.mpc(1)
        beta_cert = ctx.mpf(1e-15)
        assert smalleig._certify_block(blk, [e, e], beta_cert) is None
        good = smalleig._certify_block(blk, [e, -e], beta_cert)
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

    def recording(blk, beta_cert):
        seen.append((blk.dtype, blk.shape[0]))
        return original(blk, beta_cert)

    monkeypatch.setattr(smalleig, "_isolated_roots", recording)
    return seen


@pytest.fixture
def hyman_calls(monkeypatch):
    """Records (with an error bound, with kappa') for every ``_hyman`` call."""
    seen = []
    original = smalleig._hyman

    def recording(H, z, bound=False, derivative=True):
        seen.append((bound, derivative))
        return original(H, z, bound, derivative)

    monkeypatch.setattr(smalleig, "_hyman", recording)
    return seen


@pytest.fixture
def enclosures(monkeypatch):
    """Records (dimension, certified) for every block of every
    ``_enclosed_roots`` call."""
    seen = []
    original = smalleig._enclosed_roots

    def recording(blocks, beta_cert):
        roots = original(blocks, beta_cert)
        seen.extend((blk.shape[0], r is not None) for blk, r in zip(blocks, roots))
        return roots

    monkeypatch.setattr(smalleig, "_enclosed_roots", recording)
    return seen


def _raise(*args):
    raise AssertionError("an mpmath tier was entered")


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
    def test_certified_seeds_are_returned_as_they_are(self, hyman_calls, enclosures):
        # a well-separated 4x4: the enclosure rung certifies LAPACK's
        # eigenvalues without a pass of the recurrence, and they come back
        # unchanged
        rng = np.random.default_rng(42)
        h = random_hessenberg(rng, 4).a
        vals = SOLVER.solve(h, 1e-10)
        assert enclosures == [(4, True)]
        assert hyman_calls == []
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

    def test_binary64_clongdouble_certifies_in_the_enclosure(
        self, monkeypatch, binary64_clongdouble, enclosures
    ):
        # kappa(X) ~ 7.5: the binary64 residual's rounding term exceeds
        # beta_cert / 8, so R is formed in clongdouble, here binary64, and
        # its rounding counted at binary64's u still leaves the radii within
        # beta_cert: no mpmath number is made
        h = random_hessenberg(np.random.default_rng(39), 6).a
        lam, x = np.linalg.eig(h)
        ax = np.abs(x)
        term = np.abs(np.linalg.inv(x)) @ (np.abs(h) @ ax.sum(axis=1) + ax @ np.abs(lam))
        assert smalleig._slack(12, 2.0**-53) * term.max() > 1e-12 / 2 / 8
        monkeypatch.setattr(smalleig, "to_mp", _raise)
        vals = SOLVER.solve(h, 1e-12)
        monkeypatch.undo()
        assert enclosures == [(6, True)]
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
        assert smalleig._certify_block(H, z, beta_cert) is None
        vals = SOLVER.solve(c, beta)
        assert [dtype for dtype, _ in tier_blocks] == [np.dtype(np.clongdouble), np.dtype(object)]
        beta_eff = 2 * float(beta_cert)
        assert matched_distance(np.array(vals), roots) <= beta_eff


def _enclosed(blk, beta_cert):
    """``_enclosed_roots`` on the one block blk: its roots or None."""
    return smalleig._enclosed_roots([blk], [beta_cert])[0]


def _disks(blocks, beta_cert):
    """(roots, radii, bounds) of one ``_enclosed_roots`` call; radii and
    bounds are those of its one pass over the direct sum, None where it
    formed no disk, each block's rows in order without the padding of its
    page (so every block of two or more must have passed LAPACK)."""
    seen = []
    original = smalleig._matched_bounds

    def recording(dist, r):
        bound = original(dist, r)
        seen.append((r, bound))
        return bound

    with pytest.MonkeyPatch.context() as m:
        m.setattr(smalleig, "_matched_bounds", recording)
        roots = smalleig._enclosed_roots(blocks, beta_cert)
    assert len(seen) <= 1
    if not seen:
        return roots, None, None
    r, bound = seen[0]
    if r.ndim == 2:  # one page per block
        assert len(r) == len(blocks)
        r, bound = (np.concatenate([v[: len(b)] for v, b in zip(page, blocks)]) for page in (r, bound))
    return roots, r, bound


def _enclosure(blk, beta_cert):
    """(centres, radii, matched bounds) where ``_enclosed_roots`` certifies
    blk at beta_cert, else None."""
    (roots,), r, bound = _disks([blk], [beta_cert])
    return None if roots is None else (np.array(roots), r, bound)


def _matched_within(centres, bounds, ref, tol):
    """Whether some one-to-one matching puts every centre i within
    bounds[i] + tol of its reference eigenvalue."""
    near = np.abs(centres[:, None] - ref[None, :]) <= (bounds + tol)[:, None]
    match = maximum_bipartite_matching(csr_matrix(near), perm_type="column")
    return bool((match >= 0).all())


def _ref_tol(m):
    """What the reference may be off by: the radius it certifies
    (``oracle.REF_RADIUS`` = 2^-48 of max |h_ij|) and the rounding of its
    own reduction to Hessenberg form."""
    return 2.0**-44 * np.abs(m).max()


@st.composite
def enclosure_blocks(draw):
    """(block, beta_cert): a Ginibre, graded or near-normal Hessenberg block
    of dimension 2 to 64, or one of ``hard_matrices``, with beta_cert at the
    binary64 floor of ``CharPolySolver`` or above it."""
    kind = draw(st.sampled_from(["near-normal", "graded", "ginibre", "hard"]))
    if kind == "hard":
        m, _ = draw(hard_matrices())
    else:
        n = draw(st.sampled_from([64, 32, 16, 8, 4, 3, 2]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "near-normal":
            m = near_normal_hessenberg(rng, n, perturb=1e-4)[0].a
        else:
            m = random_hessenberg(rng, n).a
        if kind == "graded":
            d = 2.0 ** rng.integers(-10, 11, n)
            m = m * d[:, None] / d[None, :]
    scale = max(1.0, float(np.linalg.norm(m)))
    return m, draw(st.sampled_from([2.0**-50, 1e-12, 1e-6])) * scale


class TestEnclosureRung:
    """``_enclosed_roots``: Gerschgorin disks from zgeev's eigenvectors,
    tried first on every binary64 block on every platform."""

    @settings(max_examples=40)
    @given(enclosure_blocks())
    def test_certified_centres_are_within_their_bounds(self, case):
        m, beta_cert = case
        if m.shape[0] < 2 or not np.isfinite(np.linalg.norm(m)):
            return
        got = _enclosure(m, beta_cert)
        if got is None:
            return
        centres, _, bound = got
        assert (bound <= beta_cert).all()
        assert _matched_within(centres, bound, ref_eigs(m), _ref_tol(m))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_a_planted_error_is_not_certified(self, n):
        # a centre moved by 10 times the largest radius is at least 9 radii
        # from every eigenvalue its disk held: at 5 radii the block
        # certifies, the moved centre does not
        h, _ = near_normal_hessenberg(np.random.default_rng(70 + n), n, perturb=1e-4)
        m = h.a
        centres, r, _ = _enclosure(m, 1.0)
        beta_cert = 5 * r.max()
        assert _enclosure(m, beta_cert) is not None
        zgeev = smalleig.lapack.zgeev
        for i in range(n):
            for direction in (1, 1j, -1 - 1j):
                moved = 10 * r.max() * direction / abs(direction)

                def planted(a, **options):
                    w, *rest = zgeev(a, **options)
                    w = w.copy()
                    w[i] += moved
                    return (w, *rest)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(smalleig.lapack, "zgeev", planted)
                    assert _enclosed(m, beta_cert) is None

    @pytest.mark.parametrize("e", [-990, -300, 300])
    def test_extreme_scales_certify_soundly_or_fall_back(self, e):
        # below scale 1 the certificate is absolute (2^-49 at the floor), and
        # would pass eigenvalues at the wrong scale: the solver's values must
        # also be within 2^-40 ||m||_F of the scaled reference, but for the
        # last block's 4-fold root, which binary64 finds only to about u^(1/4)
        rng = np.random.default_rng(71)
        blocks = [random_hessenberg(rng, n).a for n in (2, 4, 8)]
        blocks += [near_normal_hessenberg(rng, n, perturb=1e-4)[0].a for n in (4, 16)]
        blocks += [companion(-np.poly([1, 2, 3j, -1 - 1j])[1:]), companion([4.0, -6.0, 4.0, -1.0])]
        certified = 0
        for m in blocks:
            scaled = np.ldexp(m.real, e) + 1j * np.ldexp(m.imag, e)
            scale = max(1.0, float(np.linalg.norm(scaled)))
            ref = ref_eigs(m)
            ref = np.ldexp(ref.real, e) + 1j * np.ldexp(ref.imag, e)
            for beta_cert in (2.0**-50 * scale, 1e-8 * scale):
                got = _enclosure(scaled, beta_cert)
                if got is None:
                    continue
                certified += 1
                centres, _, bound = got
                assert _matched_within(centres, bound, ref, np.ldexp(_ref_tol(m), e))
            if m is not blocks[-1]:
                vals = np.array(SOLVER.solve(scaled, 1e-10))
                assert matched_distance(vals, ref) <= np.ldexp(2.0**-40 * np.linalg.norm(m), e)
        assert certified >= len(blocks)

    def test_the_solver_certifies_without_the_long_double_tier(
        self, binary64_clongdouble, enclosures, tier_blocks
    ):
        # where clongdouble is binary64 the enclosure still runs first, the
        # char-poly rungs see binary64 and mpmath blocks only, and the
        # values are certified
        rng = np.random.default_rng(72)
        for n in (2, 4, 8):
            m = random_hessenberg(rng, n).a
            for beta in (1e-30, 1e-8):
                beta_eff = max(beta, 8 * 2.0**-52 * max(1.0, np.linalg.norm(m)))
                enclosures.clear()
                vals = SOLVER.solve(m, beta)
                assert enclosures and enclosures[0][0] == n
                assert matched_distance(np.array(vals), ref_eigs(m)) <= beta_eff
        assert {dtype for dtype, _ in tier_blocks} <= {np.dtype(np.complex128), np.dtype(object)}

    def test_the_oracle_never_encloses(self, monkeypatch):
        monkeypatch.setattr(smalleig, "_enclosed_roots", _raise)
        rng = np.random.default_rng(73)
        for n in (2, 4, 16, 64):
            h, _ = near_normal_hessenberg(rng, n, perturb=1e-4)
            assert matched_distance(ref_eigs(h.a), np.linalg.eigvals(h.a)) <= 1e-12
        assert len(ref_eigs(random_hessenberg(rng, 4).a, mp_out=True)) == 4

    @needs_long_double
    def test_floor_corners_certify_with_a_clongdouble_residual(self, monkeypatch, enclosures):
        # a 4 x 4 corner of norm 1/2 at the binary64 floor of beta: the
        # binary64 residual's own rounding would exceed beta_eff / 2, the
        # clongdouble one does not; the centres are LAPACK's eigenvalues
        h, _ = near_normal_hessenberg(np.random.default_rng(0), 4, perturb=1e-4)
        m = h.a * (0.5 / np.linalg.norm(h.a))
        monkeypatch.setattr(smalleig, "_hyman", _raise)
        vals = SOLVER.solve(m, 1e-30)
        monkeypatch.undo()
        assert enclosures == [(4, True)]
        assert same_bits(vals, sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag)))
        assert matched_distance(np.array(vals), ref_eigs(m)) <= 2.0**-49

    @needs_long_double
    def test_radii_cover_the_residual_rounding(self):
        # the computed residual cannot show its own rounding, so every radius
        # carries g |Y| (|A||X| + |X||lam|) 1 with g = _slack(2n, u), u the
        # unit roundoff of the arithmetic the residual was formed in:
        # binary64 above the floor, clongdouble at it
        rng = np.random.default_rng(75)
        for n in (2, 3, 4, 4):
            h, _ = near_normal_hessenberg(rng, n, perturb=1e-4)
            m = h.a * (0.5 / np.linalg.norm(h.a))
            lam, x = np.linalg.eig(m)
            y = np.linalg.inv(x)
            term = np.abs(y) @ (np.abs(m) @ np.abs(x).sum(axis=1) + np.abs(x) @ np.abs(lam))
            for beta_cert, dtype in ((1e-6, np.complex128), (2.0**-50, np.clongdouble)):
                u = np.finfo(dtype).epsneg
                _, r, _ = _enclosure(m, beta_cert)
                assert (r >= smalleig._slack(2 * n, float(u)) * term).all()

    @pytest.mark.parametrize(
        "routine, info", [("zgeev", -1), ("zgeev", 1), ("zgetrf", 2), ("zgetri", 3)]
    )
    def test_a_failed_lapack_call_is_a_failed_enclosure(self, routine, info, monkeypatch):
        # a negative info is an illegal argument, a positive one a QR that
        # did not converge (zgeev) or a singular X (zgetrf, zgetri)
        original = getattr(smalleig.lapack, routine)

        def failing(*args, **options):
            *out, _ = original(*args, **options)
            return (*out, info)

        m = random_hessenberg(np.random.default_rng(74), 4).a
        assert _enclosed(m, 1.0) is not None
        monkeypatch.setattr(smalleig.lapack, routine, failing)
        assert _enclosed(m, 1.0) is None

    def test_an_inverse_far_from_x_is_a_failed_enclosure(self, monkeypatch, tier_blocks):
        # zgetri's inverse doubled: E = YX - I = I, so ||E||_inf = 1 > 1/2
        # and the enclosure gives up before forming any disk; the block
        # goes on to the next rung, which certifies it
        zgetri = smalleig.lapack.zgetri
        disks = []
        matched_bounds = smalleig._matched_bounds

        def doubled(*args, **options):
            y, info = zgetri(*args, **options)
            return 2 * y, info

        def recording(*args):
            disks.append(args)
            return matched_bounds(*args)

        m = random_hessenberg(np.random.default_rng(74), 4).a
        beta = 1e-10
        assert _enclosed(m, beta / 2) is not None
        monkeypatch.setattr(smalleig.lapack, "zgetri", doubled)
        monkeypatch.setattr(smalleig, "_matched_bounds", recording)
        assert _enclosed(m, beta / 2) is None
        assert disks == []
        vals = SOLVER.solve(m, beta)
        assert tier_blocks and tier_blocks[0][1] == 4
        assert matched_distance(np.array(vals), ref_eigs(m)) <= beta

    def test_zgeev_sees_no_block_it_would_rescale(self, monkeypatch):
        # scipy 1.17.1's zgeev leaves the eigenvalues of a block whose
        # largest modulus is outside 2^-459..2^459 at the scale it balanced
        # them to: a block whose largest modulus has a binary exponent
        # beyond +-400 reaches it scaled into [1/2, 1), one inside that band
        # as it is, and the eigenvalues keep the block's scale
        seen = []
        zgeev = smalleig.lapack.zgeev

        def spy(a, **options):
            seen.append(np.array(a))
            return zgeev(a, **options)

        monkeypatch.setattr(smalleig.lapack, "zgeev", spy)
        base = np.array([[1, 2], [1, -1]], dtype=complex)
        for p in (-1020, -990, -465, -455, -403, -402, 0, 398, 399, 455, 465, 1000):
            m = np.ldexp(base.real, p) + 0j  # largest modulus 2^(p+1): exponent p + 2
            seen.clear()
            lam = _enclosed(m, 2.0**-48 * max(1.0, 2.0**p))
            assert len(seen) == 1
            assert abs(math.frexp(np.abs(seen[0]).max())[1]) <= 400
            if abs(p + 2) <= 400:
                assert same_bits(seen[0], m)
            else:
                assert same_bits(seen[0], np.ldexp(base.real, -2) + 0j)
            expected = np.array([-np.sqrt(3.0), np.sqrt(3.0)]) * 2.0**p
            assert np.allclose(np.sort_complex(lam), expected, rtol=4e-16, atol=0)


def _ill_conditioned():
    """A 2 x 2 block with eigenvalues 1 and 2 whose eigenvectors are 2^-50
    apart: zgeev's X has |X^-1||X| about 4e15, so ||E||_inf > 1/2 and the
    enclosure gives it up: alone before forming a disk, in a list with NaN
    radii."""
    x = np.array([[1, 1], [1, 1 + 2.0**-50]], dtype=complex)
    return x @ np.diag([1.0, 2.0]) @ np.linalg.inv(x)


@st.composite
def direct_sums(draw):
    """(blocks, beta_cert): 1 to 12 unreduced Hessenberg blocks of
    dimension 2 to 6, each with its own bound.  A block is a Ginibre or a
    near-normal one, a near-defective one (a Jordan block with 2^-s below
    its diagonal), a Ginibre one scaled by 2^+-450 (which zgeev gets
    scaled), a near-normal one of norm 1/2 at the binary64 floor 2^-50 of
    beta_cert (whose residual goes to clongdouble), or ``_ill_conditioned``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["ginibre", "near-normal", "near-defective", "scaled", "floor", "ill"])
    blocks, beta_cert = [], []
    for kind, d in draw(st.lists(st.tuples(kinds, st.integers(2, 6)), min_size=1, max_size=12)):
        beta = draw(st.sampled_from([2.0**-50, 1e-12, 1e-6]))
        if kind == "ginibre" or kind == "scaled":
            m = random_hessenberg(rng, d).a
        elif kind == "near-defective":
            m = np.eye(d, k=1, dtype=complex) + 2.0 ** -draw(st.integers(20, 60)) * np.eye(d, k=-1)
            m += complex(*rng.standard_normal(2)) * np.eye(d)
        elif kind == "ill":
            m = _ill_conditioned()
        else:
            m = near_normal_hessenberg(rng, d, perturb=1e-4)[0].a
        if kind == "scaled":
            p = draw(st.sampled_from([-450, 450]))
            m = np.ldexp(m.real, p) + 1j * np.ldexp(m.imag, p)
        elif kind == "floor":
            m, beta = m * (0.5 / np.linalg.norm(m)), 2.0**-50
        blocks.append(m)
        beta_cert.append(beta * max(1.0, float(np.linalg.norm(m))))
    return blocks, beta_cert


# How far a block's radii in a direct sum may lie from its own.  Most of a
# radius is the a-priori term g |Y| (|blk||X| + |X||lam|) 1, a sum of the
# same nonnegative products in another order, which agrees to a few ulps;
# the computed E = YX - I and R = blk X - X diag(lam) are rounding noise,
# which BLAS may sum in another order over a page padded to the largest
# dimension than over the block alone, so the radii agree to about 1 % (1.0 %
# at most over 2000 blocks of ``direct_sums``).
RADIUS_SPREAD = 0.05


class TestDirectSum:
    """``_enclosed_roots`` over a list of blocks: one pass over their direct
    sum, and each block's verdict its own."""

    @settings(max_examples=60)
    @given(direct_sums())
    def test_each_block_as_if_alone(self, case):
        blocks, beta_cert = case
        roots, radii, _ = _disks(blocks, beta_cert)
        starts = np.cumsum([0] + [len(b) for b in blocks])
        for i, (blk, beta) in enumerate(zip(blocks, beta_cert)):
            (alone,), r, bound = _disks([blk], [beta])
            if alone is not None and roots[i] is not None:
                assert same_bits(np.array(roots[i]), np.array(alone))
            if r is None:  # no disk: ||E||_inf > 1/2 on its own
                assert roots[i] is None
                continue
            ours = radii[starts[i] : starts[i + 1]]
            finite = np.isfinite(r)
            assert (np.isfinite(ours) == finite).all()
            assert np.allclose(ours[finite], r[finite], rtol=RADIUS_SPREAD, atol=0)
            if abs(np.max(bound) / beta - 1) > RADIUS_SPREAD:
                assert (roots[i] is None) == (alone is None)

    def test_a_failing_block_leaves_the_others_certified(self):
        rng = np.random.default_rng(76)
        blocks = [random_hessenberg(rng, 3).a, _ill_conditioned(), random_hessenberg(rng, 4).a]
        blocks.append(near_normal_hessenberg(rng, 5, perturb=1e-4)[0].a)
        beta_cert = [1e-9 * np.linalg.norm(b) for b in blocks]
        roots, radii, _ = _disks(blocks, beta_cert)
        assert roots[1] is None and radii is not None and len(radii) == 14
        for i in (0, 2, 3):
            assert roots[i] is not None
            assert same_bits(np.array(roots[i]), np.array(_enclosed(blocks[i], beta_cert[i])))
        assert _disks([blocks[1]], [beta_cert[1]])[1:] == (None, None)

    def test_a_failing_block_leaves_a_component_whole(self):
        # a normal 2 x 2 block whose eigenvalues lie closer than its radii:
        # its two disks form one component, with bounds of about 3 r, and
        # beta_cert lies between r and them, so it fails on its own.  Beside
        # a block with ||E||_inf > 1/2, whose radii are NaN, it must fail too.
        pair = np.array([[1, 2.0**-52], [2.0**-52, 1]], dtype=complex)
        beta = 1e-15
        (alone,), r, bound = _disks([pair], [beta])
        assert alone is None and r.max() < beta < bound.min()
        roots, radii, bounds = _disks([_ill_conditioned(), pair], [1.0, beta])
        assert roots == [None, None] and np.isnan(radii[:2]).all()
        assert np.allclose(bounds[2:], bound, rtol=RADIUS_SPREAD, atol=0)

    def test_matched_bounds_of_nan_radii_and_a_pair(self):
        # two NaN disks add no entry, not even on the diagonal, and two
        # overlapping disks add four: NaN bounds, and r_i + 2 r_j for the pair
        nan = math.nan
        dist = np.array([[0, 1, nan, nan], [1, 0, nan, nan], [nan, nan, 0, 1], [nan, nan, 1, 0]])
        bounds = smalleig._matched_bounds(dist, np.array([nan, nan, 0.75, 0.5]))
        assert np.isnan(bounds[:2]).all() and bounds[2:].tolist() == [1.75, 2.0]
        # and so do the two blocks as a stack of two pages
        pages = smalleig._matched_bounds(dist[None, :2, :2].repeat(2, axis=0), np.array([[nan, nan], [0.75, 0.5]]))
        assert np.isnan(pages[0]).all() and pages[1].tolist() == [1.75, 2.0]

    def test_solve_each_is_solve_per_matrix(self, enclosures):
        # one enclosure pass for every unreduced binary64 block of 2 or
        # more rows of every matrix, and per matrix solve's list bit for bit
        rng = np.random.default_rng(77)
        split = random_hessenberg(rng, 5).a
        split[2, 1] = 0
        ms = [random_hessenberg(rng, 4).a, split, np.array([[2 - 1j]]), np.zeros((0, 0), dtype=complex)]
        ms += [to_mp(random_hessenberg(rng, 3).a, mp_context(80)), _ill_conditioned() * 1e-3]
        each = SOLVER.solve_each(ms, 1e-9)
        assert enclosures == [(4, True), (2, True), (3, True), (2, False)]
        enclosures.clear()
        for m, vals in zip(ms, each):
            assert same_bits(np.array(vals), np.array(SOLVER.solve(m, 1e-9)))
        assert SOLVER.solve_each([], 1e-9) == []

    def test_solve_each_names_the_matrix_it_fails_on(self, monkeypatch):
        monkeypatch.setattr(smalleig, "_block_roots", lambda *args: None)
        rng = np.random.default_rng(78)
        ms = [random_hessenberg(rng, 3).a, np.array([[1.0]]), _ill_conditioned()]
        with pytest.raises(SmallEigFailure, match=r"rows 0:2 \(dimension 2\)$") as failure:
            SOLVER.solve_each(ms, 1e-9)
        assert failure.value.index == 2


class TestAberth:
    @staticmethod
    def _arithmetics(m, z):
        """(m, z, real type) in complex128, in clongdouble and as 80-bit
        mpmath copies."""
        ctx = mp_context(80)
        yield m.astype(np.complex128), z.astype(np.complex128), np.float64
        yield m.astype(np.clongdouble), z.astype(np.clongdouble), np.longdouble
        yield to_mp(m, ctx), to_mp(z, ctx), ctx.mpf

    def test_coincident_points_give_none(self):
        m = random_hessenberg(np.random.default_rng(44), 3).a
        for H, z, _ in self._arithmetics(m, np.array([0.5, 0.5, -1j])):
            assert smalleig._aberth(H, z) is None

    def test_both_arithmetics_refine_to_certified_roots(self):
        # from LAPACK's eigenvalues moved 1e-6 apart from the roots
        rng = np.random.default_rng(45)
        for n in (2, 4, 8):
            m = random_hessenberg(rng, n).a
            start = np.linalg.eigvals(m) * (1 + 1e-6) + 1e-6j
            for H, z, real in self._arithmetics(m, start):
                roots = smalleig._aberth(H, z)
                assert smalleig._certify_block(H, roots, real(1e-12)) is not None


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

    def _check_numpy(self, dtype):
        # u and tiny from the block's dtype; z rounded to it first
        for m, z in self._cases((2, 4, 8, 16)):
            H, zl = m.astype(dtype), z.astype(dtype)
            kap, _, eps = smalleig._hyman(H, zl, bound=True)
            ek = self._exact(m, z)
            for j in range(len(z)):
                assert abs(_mp_of(kap[j]) - ek[j]) <= _mp_of(eps[j]).real

    def test_clongdouble(self):
        self._check_numpy(np.clongdouble)

    def test_complex128(self):
        self._check_numpy(np.complex128)

    def test_derivative_does_not_change_the_bound(self):
        # kappa and eps are bit for bit the same with and without kappa'
        for m, z in self._cases((2, 4, 8)):
            ctx = mp_context(40)
            for H, zh in (
                (m, z),
                (m.astype(np.clongdouble), z.astype(np.clongdouble)),
                (to_mp(m, ctx), to_mp(z, ctx)),
            ):
                with_d = smalleig._hyman(H, zh, bound=True)
                without = smalleig._hyman(H, zh, bound=True, derivative=False)
                assert without[1] is None
                assert same_bits(with_d[0], without[0]) and same_bits(with_d[2], without[2])

    def test_mpmath_at_40_bits(self):
        ctx = mp_context(40)
        for m, z in self._cases((2, 4, 8)):
            H, zm = to_mp(m, ctx), to_mp(z, ctx)
            kap, _, eps = smalleig._hyman(H, zm, bound=True)
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

    def test_entries_near_overflow(self, aberth_calls, enclosures):
        # and near underflow: numpy's eigenvalues keep the block's scale,
        # where scipy's zgeev returns +-1.29e138 and +-5.82e-139.  Where
        # clongdouble is x87 extended, both blocks certify in the enclosure,
        # with no Aberth sweep; the one near underflow certifies at the
        # absolute floor 2^-49, which wrong values would pass too.
        for scale in (1e300, 1e-300):
            m = np.array([[1, 2], [1, -1]], dtype=complex) * scale
            expected = np.array([-np.sqrt(3.0), np.sqrt(3.0)]) * scale
            ulps = 4 * np.spacing(expected[1])
            assert (np.abs(np.sort_complex(smalleig._lapack_seeds(m)) - expected) <= ulps).all()
            vals = SOLVER.solve(m, 1e-10)
            assert [v.imag for v in vals] == [0.0, 0.0]
            assert (np.abs(np.array(vals) - expected) <= ulps).all()
        if oracle._LONG_DOUBLE_TIER:
            assert aberth_calls == []
            assert enclosures == [(2, True), (2, True)]

    def test_extended_entries_near_overflow_fail_loudly(self):
        # beta = 1e-10 is 2^-1030 of these entries at 80 bits, beyond the
        # 960-bit cap; the quotient ||m||_F / beta overflows binary64
        m = np.array([[1e300, 2e300], [1e300, -1e300]], dtype=complex)
        with pytest.raises(SmallEigFailure, match="at 960 bits"):
            SOLVER.solve(to_mp(m, mp_context(80)), 1e-10)

    def test_norm_overflow_rejected(self):
        with pytest.raises(DomainError):
            SOLVER.solve(np.full((2, 2), 1e308, dtype=complex), 1e-10)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_beta_must_be_positive_and_finite(self, beta):
        # an argument outside the domain, not a block that could not be
        # certified; checked before the empty matrix returns no eigenvalues
        for m in (random_hessenberg(np.random.default_rng(34), 3).a, np.zeros((0, 0))):
            with pytest.raises(DomainError, match=rf"^invalid forward accuracy beta={beta!r}$"):
                SOLVER.solve(m, beta)

    def test_extended_entry_beyond_binary64_rejected(self):
        ctx = mp_context(53)
        obj = to_mp(np.array([[1.0, 2.0], [1.0, 0.0]], dtype=complex), ctx)
        obj[0, 1] = ctx.mpc(ctx.mpf("1e400"))
        with pytest.raises(HessqrError):
            SOLVER.solve(obj, 1e-10)


class TestLapackSeeds:
    """The seeds are ``np.linalg.eigvals`` of the block rounded to
    complex128, bit for bit; a block without seeds goes on to the next step."""

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 32, 128])
    def test_same_bits_as_numpy(self, n):
        # a clongdouble block widened from binary64 rounds back exactly
        rng = np.random.default_rng(60 + n)
        for _ in range(3):
            h = random_hessenberg(rng, n).a
            assert same_bits(smalleig._lapack_seeds(h.astype(np.clongdouble)), np.linalg.eigvals(h))

    def test_a_block_beyond_binary64_has_no_seeds(self):
        ctx = mp_context(53)
        blk = to_mp(np.array([[1.0, 2.0], [1.0, 0.0]], dtype=complex), ctx)
        blk[0, 1] = ctx.mpc(ctx.mpf("1e400"))
        assert smalleig._lapack_seeds(blk) is None

    def test_a_failed_zgeev_is_a_failed_seed(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(smalleig.np.linalg, "eigvals", failing)
        blk = random_hessenberg(np.random.default_rng(62), 4).a.astype(np.clongdouble)
        assert smalleig._lapack_seeds(blk) is None
        assert smalleig._isolated_roots(blk, np.longdouble(1e-3)) is None


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
def split_matrices(draw):
    """(m, spans, beta): a Hessenberg matrix of 2 to 4 unreduced diagonal
    blocks at the given spans, with exact zeros on the subdiagonal between
    them and random entries above, scaled by a power of two to ||m||_F <= 1,
    and beta in [1e-12, 1e-6].  Up to three blocks are random, of dimension
    1 to 4; one is the companion of a cubic with a double root, which the
    enclosure leaves to the char-poly rungs unless beta is near 1e-6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    blocks = [random_hessenberg(rng, d).a for d in dims]
    double = draw(st.sampled_from([0.5, -0.25, 0.5j, 1 + 1j]))
    simple = draw(st.sampled_from([1, -1, 2j]))
    blocks.insert(draw(st.integers(0, len(blocks))), companion(-np.poly([double, double, simple])[1:]))
    n = sum(len(b) for b in blocks)
    m = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    spans, start = [], 0
    for b in blocks:
        spans.append((start, start + len(b)))
        m[start : start + len(b), start : start + len(b)] = b
        start += len(b)
    e = np.frexp(np.linalg.norm(m))[1]
    m = np.ldexp(m.real, -e) + 1j * np.ldexp(m.imag, -e)
    return m, spans, 10.0 ** draw(st.floats(-12, -6))


class TestBlockIndependence:
    @settings(max_examples=30, deadline=None)
    @given(split_matrices())
    def test_a_matrix_solves_as_its_blocks(self, case):
        # each block climbs the ladder alone, at the beta_eff and first
        # precision of the whole matrix, which its own scale 1 gives it too
        m, spans, beta = case
        union = [z for i, j in spans for z in SOLVER.solve(m[i:j, i:j].copy(), beta)]
        union.sort(key=lambda z: (z.real, z.imag))
        assert same_bits(np.array(SOLVER.solve(m, beta)), np.array(union))


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
        # multiple roots: whatever _isolated_roots certifies, in clongdouble,
        # in complex128 or in mpmath at 120 bits (Aberth from the seeds, then from the
        # circle), matches the exact roots within beta.  2^-50 allows for
        # rounding the certified values, of modulus below 3, to complex128.
        c = exact_companion(roots)
        ctx = mp_context(120)
        certified = [
            smalleig._isolated_roots(to_mp(c, ctx), ctx.mpf(beta)),
            smalleig._isolated_roots(c.astype(np.clongdouble), np.longdouble(beta)),
            smalleig._isolated_roots(c, beta),
        ]
        for vals in certified:
            if vals is not None:
                assert matched_distance(np.array([complex(v) for v in vals]), roots) <= beta + 2.0**-50

    def test_radii_match_the_loop_reference(self):
        # an isolated root's bound is its radius, bit for bit the one formed
        # a row and a factor at a time
        rng = np.random.default_rng(43)
        for n in (2, 3, 4, 8):
            for _ in range(5):
                m = random_hessenberg(rng, n).a
                for dtype in (np.clongdouble, np.complex128):
                    blk = m.astype(dtype)
                    z = np.linalg.eigvals(m).astype(dtype)
                    bound = smalleig._certify_block(blk, z, 1e-3)
                    assert bound is not None
                    assert same_bits(bound, _reference_radii(blk, z))

    def test_bound_spans_the_component(self):
        # z^2 with approximations 2^-7 and -2^-3: the disk about 2^-7 (radius
        # about 2^-10) lies inside the one about -2^-3 (about 2^-2), so both
        # roots need only lie in their union; 0 is 2^-7 from the first
        # approximation, outside its own disk but within its bound
        for dtype in (np.clongdouble, np.complex128):
            blk = np.array([[0, 0], [1, 0]], dtype=dtype)
            z = np.array([2.0**-7, -(2.0**-3)], dtype=dtype)
            bound = smalleig._certify_block(blk, z, 1.0)
            assert (bound >= np.abs(z)).all()


def _reference_radii(blk, z):
    """The Weierstrass radii r_i of ``_certify_block`` for a numpy blk and
    z, from kappa and eps formed one row and one factor at a time, with u
    and tiny from the dtype of blk."""
    n = blk.shape[0]
    fin = np.finfo(blk.dtype)
    u, tiny = fin.epsneg, fin.tiny
    g = smalleig._slack(n, u)
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


class TestCornerShifts:
    """LAPACK's eigenvalues of a corner, uncertified, from the zgeev call
    the enclosure centres its disks on."""

    def test_the_solver_s_values_and_order_where_the_enclosure_certifies(self, monkeypatch):
        monkeypatch.setattr(smalleig, "_isolated_roots", lambda *args: None)
        m = random_hessenberg(np.random.default_rng(60), 6).a
        shifts = smalleig.corner_shifts(m)
        assert {type(z) for z in shifts} == {complex}
        assert shifts == sorted(shifts, key=lambda z: (z.real, z.imag))
        assert same_bits(np.array(shifts), np.array(SOLVER.solve(m, 1e-12)))

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_a_block_far_from_one_is_scaled_for_zgeev(self, scale):
        shifts = smalleig.corner_shifts(np.array([[1, 2], [1, -1]], dtype=complex) * scale)
        assert np.allclose(shifts, [-math.sqrt(3) * scale, math.sqrt(3) * scale], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("eig", [None, (np.array([1.0, np.nan + 0j]), None)], ids=["info", "nan"])
    def test_none_where_lapack_fails(self, monkeypatch, eig):
        monkeypatch.setattr(smalleig, "_zgeev", lambda blk: eig)
        assert smalleig.corner_shifts(random_hessenberg(np.random.default_rng(61), 2).a) is None


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
