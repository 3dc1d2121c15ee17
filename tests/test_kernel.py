import mpmath
import numpy as np
import pytest

from hessqr.errors import DomainError
from hessqr.kernel import disk_point, make_givens

U = 2.0**-52  # binary64 unit roundoff


def _mp(*parts):
    """mpmath.mpc numbers from complex values (exact at 53 bits and more)."""
    return [mpmath.mpc(complex(z)) for z in parts]


class TestGivens:
    """make_givens serves the mpmath sweep; these run at 53 bits, where the
    unit roundoff is binary64's, unless they set their own."""

    @pytest.fixture(autouse=True)
    def _binary64_precision(self):
        with mpmath.workprec(53):
            yield

    def test_identity_case(self):
        L, r = make_givens(*_mp(1.0, 0.0))
        assert L[0, 0] == 1 and L[0, 1] == 0 and r == 1

    def test_permutation_case(self):
        L, r = make_givens(*_mp(0.0, 1.0))
        assert L[0, 0] == 0 and abs(L[0, 1]) == 1 and r == 1

    def test_three_four_five(self):
        L, r = make_givens(*_mp(3.0, 4.0))
        assert r == 5
        assert L[0, 0] == pytest.approx(3 / 5) and L[0, 1] == pytest.approx(4 / 5)
        out = (L @ np.array(_mp(5.0, 0.0))).astype(complex)
        np.testing.assert_allclose(out, [3.0, -4.0], atol=8 * U * 5)

    def test_right_apply_is_adjoint(self):
        rng = np.random.default_rng(2)
        L, _ = make_givens(*_mp(*(rng.standard_normal(2) + 1j * rng.standard_normal(2))))
        np.testing.assert_allclose((L @ L.conj().T).astype(complex), np.eye(2), atol=1e-15)
        # left then right-apply conjugates: rows recoverable through L^H
        rows = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        back = L.conj().T @ (L @ np.array(_mp(*rows.ravel())).reshape(2, 5))
        np.testing.assert_allclose(back.astype(complex), rows, atol=1e-14)

    def test_degenerate_input(self):
        with pytest.raises(DomainError):
            make_givens(*_mp(0.0, 0.0))

    def test_zeroing_invariant(self):
        # rotation built from x must zero x's second entry within 8u||x||
        rng = np.random.default_rng(3)
        for _ in range(2_000):
            x = np.array(_mp(*(rng.standard_normal(2) + 1j * rng.standard_normal(2))))
            L, r = make_givens(*x)
            out = L @ x
            norm = mpmath.sqrt(abs(x[0]) ** 2 + abs(x[1]) ** 2)
            assert abs(out[1]) <= 8 * U * norm
            assert abs(out[0] - norm) <= 8 * U * norm
            assert abs(abs(L[0, 0]) ** 2 + abs(L[0, 1]) ** 2 - 1) <= 4 * U

    def test_mpmath_input(self):
        # object-dtype L, unitary and zeroing at the ambient 80 bits
        with mpmath.workprec(80):
            x = np.array([mpmath.mpc(1, 2) / 3, mpmath.mpc(-5, 7) / 11])
            L, r = make_givens(*x)
            assert L.dtype == object
            tol = mpmath.mpf(2) ** -70
            gram = L @ L.conj().T
            for i in range(2):
                for j in range(2):
                    assert abs(gram[i, j] - (i == j)) <= tol
            out = L @ x
            assert abs(out[0] - r) <= tol and abs(out[1]) <= tol
            assert abs(r - mpmath.sqrt(abs(x[0]) ** 2 + abs(x[1]) ** 2)) <= tol


class TestDiskPoint:
    def test_determinism(self):
        a = disk_point(0.5j, 2.0, *np.random.default_rng(7).random(2))
        b = disk_point(0.5j, 2.0, *np.random.default_rng(7).random(2))
        assert a == b

    def test_radial_law(self):
        rng = np.random.default_rng(5)
        pts = np.array([disk_point(0j, 1.0, *rng.random(2)) for _ in range(100_000)])
        assert abs(np.abs(pts).mean() - 2 / 3) <= 0.01
        assert abs((np.abs(pts) <= 0.5).mean() - 0.25) <= 0.01
        assert np.abs(pts).max() <= 1.0
