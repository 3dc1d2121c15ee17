import math

import pytest

from hessqr.errors import DomainError, ParameterError
from hessqr.params import (
    GAMMA,
    REDUCTION_FACTOR,
    XI,
    GlobalData,
    derive_constants,
    derive_degree,
    derive_globals,
    default_bounds,
    derive_run_params,
    exc_epsilon,
    globals_with_degree,
    required_precision,
)


class TestDeriveDegree:
    def test_b_equal_one(self):
        # k=2 gives 2^(2/1) = 4 > 3; k=4 gives 2^(2/3) ~ 1.587 <= 3
        assert derive_degree(1.0) == 4

    def test_degree_equation_boundary(self):
        for B, expect in ((1.05, 4), (1.1, 8), (2.0, 64)):
            k = derive_degree(B)
            assert k == expect
            lhs = B ** ((8 * math.log2(k) + 3) / (k - 1)) * (2 * B**4) ** (2 / (k - 1))
            assert lhs <= 3.0
            if k > 2:
                prev = k // 2
                lhs_prev = B ** ((8 * math.log2(prev) + 3) / (prev - 1)) * (
                    2 * B**4
                ) ** (2 / (prev - 1))
                assert lhs_prev > 3.0

    def test_domain(self):
        with pytest.raises(DomainError):
            derive_degree(0.5)


class TestDeriveConstants:
    def test_b_equal_one_values(self):
        alpha, theta = derive_constants(1.0, 4)
        assert alpha == pytest.approx(1.01**2, rel=1e-12)
        assert theta == pytest.approx(1.1019642058141677, rel=1e-12)

    def test_gamma_constant(self):
        # gamma and xi are constants of the analysis, not fields of GlobalData
        assert GAMMA == 0.2
        assert XI == 0.999 * (1.0 - GAMMA)
        assert REDUCTION_FACTOR == 1.002 * (1.0 - GAMMA)

    def test_range_when_degree_honest(self):
        for B in (1.0, 1.05, 1.1, 2.0, 10.0):
            k = derive_degree(B)
            alpha, theta = derive_constants(B, k)
            assert 1.0 <= alpha <= 2.0
            assert 1.0 <= theta <= 2.0


class TestHugeB:
    @pytest.mark.parametrize("B", [1e80, 1e300])
    def test_constants_finite_at_the_honest_degree(self, B):
        k = derive_degree(B)
        alpha, theta = derive_constants(B, k)
        assert 1.0 <= alpha <= 2.0 and 1.0 <= theta <= 2.0
        assert 0.0 < exc_epsilon(k, alpha, theta, B) < 1.0

    def test_budget_at_1e80(self):
        k = derive_degree(1e80)
        assert 53 < _bits(32, k, 0.75, 1e80, 1e-3, 1e-7, 0.05) < 2**40

    @pytest.mark.parametrize("k", [2, 4])
    def test_out_of_range_raises_parameter_error(self, k):
        # alpha = (1.01 B)^2 leaves binary64 range at a degree far below the honest one
        with pytest.raises(ParameterError):
            derive_constants(1e300, k)

    def test_omega_underflow_at_1e300(self):
        gd = derive_globals(1e300, Gamma=1e-3, Sigma=1.0, n0=32)
        with pytest.raises(ParameterError):
            derive_run_params(32, 1e-7, 0.05, gd)

    @pytest.mark.parametrize("e", [600, -600])
    def test_default_bounds_out_of_range(self, e):
        # Gamma = (scale/n)^2 overflows at 2^600 and underflows at 2^-600
        with pytest.raises(ParameterError):
            default_bounds(16, 2.0**e)


class TestDefaultBounds:
    @pytest.mark.parametrize(
        "given, message",
        [
            ({"B": math.inf}, "given B=inf"),
            ({"B": math.nan, "Gamma": 1e-3}, "given B=nan"),
            ({"Gamma": -1.0}, "given Gamma=-1.0"),
            ({"B": 1.0, "Gamma": math.inf}, "given Gamma=inf"),
            ({"Gamma": 0.0}, "given Gamma=0.0"),
        ],
    )
    def test_default_bounds_names_a_given_value(self, given, message):
        with pytest.raises(ParameterError, match=message) as info:
            default_bounds(16, 1e-6, **given)
        assert "auto" not in str(info.value)


class TestGlobalData:
    def test_degree_power_of_two(self):
        with pytest.raises(ParameterError):
            GlobalData(B=1.0, Gamma=1.0, Sigma=1.0, n0=4, k=6, alpha=1.0, theta=1.1)

    def test_positive_bounds(self):
        with pytest.raises(ParameterError):
            GlobalData(B=1.0, Gamma=0.0, Sigma=1.0, n0=4, k=4, alpha=1.0, theta=1.1)

    @pytest.mark.parametrize("Gamma, Sigma", [(math.inf, 1.0), (1e-3, math.inf), (1e-3, math.nan)])
    def test_finite_bounds(self, Gamma, Sigma):
        with pytest.raises(ParameterError):
            GlobalData(B=1.0, Gamma=Gamma, Sigma=Sigma, n0=4, k=4, alpha=1.0, theta=1.1)


class TestDeriveRunParams:
    def test_gap_term_dominates(self):
        gd = globals_with_degree(2.0, 4, Gamma=1e-2, Sigma=1.0, n0=10)
        rp = derive_run_params(10, 1e-3, 0.05, gd)
        # Gamma/(8 n^2 B^2) = 3.125e-6 < delta -> omega = 3.125e-6 / 40
        assert rp.omega == pytest.approx(7.8125e-8, rel=1e-12)

    def test_min_structure(self):
        gd = globals_with_degree(2.0, 4, Gamma=1e-2, Sigma=1.0, n0=10)
        tiny = derive_run_params(10, 1e-9, 0.05, gd)
        assert tiny.omega == pytest.approx(1e-9 / 40, rel=1e-12)
        huge = derive_run_params(10, 0.9, 0.05, gd)
        assert huge.omega == pytest.approx(1e-2 / (8 * 100 * 4) / 40, rel=1e-12)

    def test_iteration_budget(self):
        gd = globals_with_degree(2.0, 4, Gamma=1e-2, Sigma=1.0, n0=10)
        rp = derive_run_params(10, 1e-3, 0.05, gd)
        # log(1/omega)/log(1/0.8016) evaluates to 74.0008...
        assert rp.n_dec == pytest.approx(74.0008371, rel=1e-8)
        assert rp.n_dec_budget == 74

    def test_phi_working(self):
        gd = globals_with_degree(2.0, 4, Gamma=1e-2, Sigma=1.0, n0=10)
        rp = derive_run_params(10, 1e-3, 0.05, gd)
        assert rp.phi_working == pytest.approx(0.05 / (3 * 100) / rp.n_dec, rel=1e-12)

    def test_validation(self):
        gd = globals_with_degree(2.0, 4, Gamma=1e-2, Sigma=1.0, n0=10)
        with pytest.raises(DomainError):
            derive_run_params(10, 2.0, 0.05, gd)  # delta > Sigma
        with pytest.raises(DomainError):
            derive_run_params(10, 1e-3, 1.5, gd)

    def test_beta_underflow_on_the_qr_route_only(self):
        # omega = Gamma / (8 n^2 B^2) / (4n) ~ 1e-168 is positive, and
        # beta = omega^2 / (1616 Sigma) underflows; n <= k solves directly
        gd = globals_with_degree(1.0, 4, Gamma=1e-162, Sigma=1.0, n0=8)
        with pytest.raises(ParameterError, match="^corner accuracy beta underflows binary64"):
            derive_run_params(8, 1e-3, 0.05, gd)
        assert derive_run_params(4, 1e-3, 0.05, gd).omega > 0


def _bits(n, k, Sigma, B, Gamma, delta, phi):
    gd = globals_with_degree(B, k, Gamma, Sigma, n)
    return required_precision(n, gd, derive_run_params(n, delta, phi, gd))


class TestRequiredPrecision:
    def test_first_min_term_example(self):
        # n=10, k=4, Sigma=1, omega=7.8125e-8, N_dec=74.0008:
        # omega/(4.5 k N_dec n nu Sigma) = 5.796e-15 -> 48 bits
        omega = 7.8125e-8
        n_dec = math.log(1 / omega) / math.log(1 / (1.002 * 0.8))
        nu = 32 * 10**1.5
        u = omega / (4.5 * 4 * n_dec * 10 * nu * 1.0)
        assert u == pytest.approx(5.796e-15, rel=1e-3)
        assert math.ceil(math.log2(1 / u)) == 48

    def test_full_budget_dominates_first_term(self):
        bits = _bits(10, 4, 1.0, 2.0, 1e-2, 1e-3, 0.05)
        assert bits >= 48

    def test_monotonicity(self):
        base = _bits(10, 4, 1.0, 2.0, 1e-2, 1e-3, 0.05)
        assert _bits(20, 4, 1.0, 2.0, 1e-2, 1e-3, 0.05) >= base
        assert _bits(10, 4, 1.0, 4.0, 1e-2, 1e-3, 0.05) >= base
        assert _bits(10, 4, 2.0, 2.0, 1e-2, 1e-3, 0.05) >= base
        assert _bits(10, 4, 1.0, 2.0, 1e-4, 1e-3, 0.05) >= base
        assert _bits(10, 4, 1.0, 2.0, 1e-2, 1e-5, 0.05) >= base
        assert _bits(10, 4, 1.0, 2.0, 1e-2, 1e-3, 1e-4) >= base

    def test_degree_doubling_roughly_doubles_bits(self):
        b4 = _bits(10, 4, 1.0, 2.0, 1e-2, 1e-3, 0.05)
        b8 = _bits(10, 8, 1.0, 2.0, 1e-2, 1e-3, 0.05)
        assert 1.5 * b4 <= b8 <= 2.5 * b4

    @pytest.mark.parametrize(
        "n, k, Sigma, B, Gamma, delta, phi, bits",
        [
            (10, 4, 1.0, 2.0, 1e-2, 1e-3, 0.05, 343),
            (20, 4, 1.0, 2.0, 1e-2, 1e-3, 0.05, 376),
            (10, 4, 1.0, 4.0, 1e-2, 1e-3, 0.05, 362),
            (10, 4, 2.0, 2.0, 1e-2, 1e-3, 0.05, 352),
            (10, 4, 1.0, 2.0, 1e-4, 1e-3, 0.05, 403),
            (10, 4, 1.0, 2.0, 1e-2, 1e-5, 0.05, 343),
            (10, 4, 1.0, 2.0, 1e-2, 1e-3, 1e-4, 361),
            (10, 8, 1.0, 2.0, 1e-2, 1e-3, 0.05, 638),
            (32, 32768, 0.75, 1e80, 1e-3, 1e-7, 0.05, 37950141),
        ],
    )
    def test_pinned_values(self, n, k, Sigma, B, Gamma, delta, phi, bits):
        # the budget as it was when it rebuilt gd and rp from these seven
        # scalars itself; taking the run's own gd and rp changes no bit
        assert _bits(n, k, Sigma, B, Gamma, delta, phi) == bits
