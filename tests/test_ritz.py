import math

import numpy as np
import pytest

from conftest import near_normal_hessenberg, random_hessenberg, same_bits
from hessqr.errors import DichotomyMiss, DimensionError, DomainError
from hessqr.iqr import HessenbergMatrix, log2_potential_pow_k, potential
from hessqr.kernel import disk_point
from hessqr.oracle import condition_report, dense_en_p_norm, ref_eigs
from hessqr.params import globals_with_degree
from hessqr.ritz import optimal, regularize, ritz_or_decouple
from hessqr.smalleig import CharPolySolver


class OracleSolver:
    """Reference-eigensolver-backed small solver for tests."""

    def solve(self, m, beta):
        return [complex(v) for v in ref_eigs(np.asarray(m, dtype=complex))]


class InjectSolver:
    def __init__(self, vals):
        self.vals = [complex(v) for v in vals]

    def solve(self, m, beta):
        return list(self.vals)


def _test_globals(B, k, sigma, n):
    return globals_with_degree(B, k, Gamma=1e-6, Sigma=sigma, n0=n)


def _lpk(h, k):
    """L = log2 psi_k(H)^k, as the driver hands it down."""
    return log2_potential_pow_k(h.bottom_subdiagonal_abs(k))


class TestRegularize:
    def test_zero_radius_identity(self, rng):
        shifts = (1.0 + 1j, -2.0)
        state = rng.bit_generator.state
        assert regularize(shifts, 0.0, rng) == shifts
        assert rng.bit_generator.state == state  # nothing drawn

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_one_draw_equals_a_disk_point_per_shift(self, k):
        # the batched draw is the stream, and each point the value, that a
        # disk_point of two fresh uniforms per shift gives, bit for bit
        base = np.random.default_rng(42 + k)
        shifts = tuple(complex(z) for z in base.standard_normal(k) + 1j * base.standard_normal(k))
        for eta2 in (1e-12, 0.1, 3.0):
            batched, per_shift = np.random.default_rng(k), np.random.default_rng(k)
            got = regularize(shifts, eta2, batched)
            ref = tuple(r + disk_point(0j, eta2, *per_shift.random(2)) for r in shifts)
            assert same_bits(np.array(got), np.array(ref))
            assert batched.bit_generator.state == per_shift.bit_generator.state

    def test_negative_radius(self, rng):
        with pytest.raises(DomainError):
            regularize((1.0,), -0.1, rng)

    def test_support_bound(self):
        rng = np.random.default_rng(40)
        base = (0.5 + 0.5j,)
        for _ in range(10_000):
            (out,) = regularize(base, 0.1, rng)
            assert abs(out - base[0]) <= 0.1

    def test_exclusion_probability(self):
        # fixed 4x4 with gap 1; shifts sitting exactly on eigenvalues is the
        # worst case for landing back inside the eta1 exclusion disks
        rng = np.random.default_rng(41)
        eigs = np.array([0.0, 1.0, 1.0j, 1.0 + 1.0j])
        eta2, k = 0.05, 2
        eta1 = 0.1 * eta2
        shifts = (eigs[0], eigs[1])
        bad = 0
        trials = 10_000
        for _ in range(trials):
            out = regularize(shifts, eta2, rng)
            d = min(abs(r - e) for r in out for e in eigs)
            if d < eta1:
                bad += 1
        # bound k (eta1/eta2)^2 = 0.02, doubled for Monte-Carlo slack
        assert bad / trials <= 0.04


class TestOptimal:
    def test_exact_ritz_values_optimal(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            h = random_hessenberg(rng, 8)
            gd = _test_globals(1.0, 4, 2 * float(h.frobenius_norm()), 8)
            ritz = tuple(complex(v) for v in ref_eigs(h.corner(4)))
            assert optimal(h, _lpk(h, 4), ritz, gd)
            hx = h.to_extended(80)
            assert optimal(hx, _lpk(hx, 4), ritz, gd)

    def test_far_shifts_not_optimal(self):
        rng = np.random.default_rng(43)
        h = random_hessenberg(rng, 6)
        norm = float(np.linalg.norm(h.a, 2))
        gd = _test_globals(1.0, 4, 2 * float(h.frobenius_norm()), 6)
        far = (1e3 * norm,) * 4
        assert not optimal(h, _lpk(h, 4), far, gd)
        hx = h.to_extended(80)
        assert not optimal(hx, _lpk(hx, 4), far, gd)

    def test_agrees_with_dense_oracle(self):
        # outside the comparison margin band the flag matches the oracle
        rng = np.random.default_rng(44)
        n, k = 6, 2
        agree = total = 0
        while total < 1000:
            h = random_hessenberg(rng, n)
            gd = _test_globals(1.0, k, 2 * float(h.frobenius_norm()), n)
            spread = float(np.linalg.norm(h.a, 2))
            shifts = tuple(spread * (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * rng.uniform(0, 2))
            lhs = float(dense_en_p_norm(h, shifts)) ** (1 / k)
            psi = potential(h, k)
            if 0.998 ** (1 / k) * gd.theta * psi <= lhs <= gd.theta * psi:
                continue  # inside the two-sided margin band
            total += 1
            expect = lhs <= gd.theta * psi
            if optimal(h, _lpk(h, k), shifts, gd) == expect:
                agree += 1
        assert agree == total

    def test_degree_must_match(self):
        rng = np.random.default_rng(45)
        h = random_hessenberg(rng, 6)
        gd = _test_globals(1.0, 4, 4.0, 6)
        with pytest.raises(DimensionError):
            optimal(h, _lpk(h, 4), (1.0, 2.0), gd)


class TestRitzOrDecouple:
    def test_perfect_solver_certifies_optimal(self):
        rng = np.random.default_rng(46)
        n, k = 8, 2
        successes = 0
        for trial in range(20):
            h, a = near_normal_hessenberg(rng, n, perturb=1e-3)
            rep = condition_report(a)
            gd = globals_with_degree(
                2 * rep.kappa_v, k, Gamma=rep.gap / 2,
                Sigma=2 * float(h.frobenius_norm()), n0=n,
            )
            omega = 1e-8
            if not h.is_unreduced(omega, k):
                continue
            ritz, step = ritz_or_decouple(h, _lpk(h, k), omega, OracleSolver(), rng, gd)
            assert len(ritz) == k
            if step is None:
                lhs = float(dense_en_p_norm(h, ritz)) ** (1 / k)
                assert lhs <= gd.theta * potential(h, k) * (1 + 1e-9)
                assert max(abs(r) for r in ritz) <= 1.1 * float(np.linalg.norm(h.a, 2))
                successes += 1
            else:
                assert step.branch == "decouple" and step.shift in ritz
                assert min(step.next_h.bottom_subdiagonal_abs(k)) <= omega
        assert successes >= 15

    def test_regularized_values_stay_forward_close(self):
        rng = np.random.default_rng(47)
        n, k = 8, 2
        h, _ = near_normal_hessenberg(rng, n, perturb=1e-3)
        gd = _test_globals(2.0, k, 2 * float(h.frobenius_norm()), n)
        omega = 1e-6
        ritz, _ = ritz_or_decouple(h, _lpk(h, k), omega, OracleSolver(), rng, gd)
        beta = omega**2 / (16 * 101 * gd.Sigma)
        corner_eigs = ref_eigs(h.corner(k))
        for r in ritz:
            assert min(abs(r - e) for e in corner_eigs) <= beta

    def test_dimension_guard(self):
        rng = np.random.default_rng(49)
        h = random_hessenberg(rng, 4)
        gd = _test_globals(1.0, 4, 4.0, 4)
        with pytest.raises(DimensionError):
            ritz_or_decouple(h, 0.0, 1e-9, OracleSolver(), rng, gd)

    def test_toeplitz_backward_perturbation_decouples(self):
        # superdiag 1, subdiag delta, corner T(1,n)=1: a backward corner
        # perturbation beta >> delta^k destroys optimality, and the culprit
        # loop achieves decoupling
        n, k, delta = 12, 4, 1e-3
        t = np.zeros((n, n), dtype=complex)
        for i in range(n - 1):
            t[i, i + 1] = 1.0
            t[i + 1, i] = delta
        t[0, n - 1] = 1.0
        h = HessenbergMatrix(t)
        corner = h.corner(k)
        corner_pert = corner.copy()
        corner_pert[k - 1, 0] += 1e-6  # beta >> delta^k = 1e-12
        pert_ritz = ref_eigs(corner_pert)
        gd = _test_globals(1.0, k, 2 * float(h.frobenius_norm()), n)

        assert optimal(h, _lpk(h, k), tuple(ref_eigs(corner)), gd)
        assert not optimal(h, _lpk(h, k), tuple(pert_ritz), gd)

        ritz, step = ritz_or_decouple(
            h, _lpk(h, k), 1e-6, InjectSolver(pert_ritz), np.random.default_rng(5), gd
        )
        assert step.branch == "decouple" and step.shift in ritz
        assert min(step.next_h.bottom_subdiagonal_abs(k)) <= 1e-6

    def test_dichotomy_miss_surfaces(self):
        # inject wildly wrong Ritz values: not optimal, not decoupling
        rng = np.random.default_rng(50)
        h = random_hessenberg(rng, 8)
        gd = _test_globals(1.0, 2, 2 * float(h.frobenius_norm()), 8)
        norm = float(np.linalg.norm(h.a, 2))
        with pytest.raises(DichotomyMiss):
            ritz_or_decouple(
                h, _lpk(h, 2), 1e-9, InjectSolver([37 * norm, -41j * norm]), rng, gd
            )

    def test_default_solver_integration(self):
        rng = np.random.default_rng(51)
        h, _ = near_normal_hessenberg(rng, 10, perturb=1e-4)
        gd = _test_globals(1.0, 4, 2 * float(h.frobenius_norm()), 10)
        ritz, step = ritz_or_decouple(h, _lpk(h, 4), 1e-8, CharPolySolver(), rng, gd)
        assert len(ritz) == 4
        assert step is None or step.branch == "decouple"
