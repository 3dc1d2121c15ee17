import mpmath
import numpy as np
from conftest import random_hessenberg

from hessqr import driver, ritz, smalleig
from hessqr.driver import SolveConfig, solve
from hessqr.iqr import iqr_single
from hessqr.kernel import disk_point, mp_context, to_mp
from hessqr.smalleig import CharPolySolver


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


def _exact(x):
    """(value, precision) of an mpmath number, or of each in a list or array:
    the value as mpmath stores it, and the precision of its context."""
    if isinstance(x, (list, np.ndarray)):
        return [_exact(z) for z in np.asarray(x, dtype=object).flat]
    return (getattr(x, "_mpc_", None) or x._mpf_, x.context.prec)


class TestPrecisionLivesInTheNumbers:
    """An mpmath number rounds at the precision of its own context, so an
    extended-precision run does not depend on mpmath's global precision."""

    @staticmethod
    def _run():
        h = random_hessenberg(np.random.default_rng(50), 6).to_extended(80)
        res = iqr_single(h, 0.25 + 0.5j)
        return {
            "r_nn": _exact(res.r_nn_per_step),
            "next_h": _exact(res.next_h.a),
            "norm": _exact([h.frobenius_norm()]),
            "solve": _exact(CharPolySolver().solve(h.corner(4), 1e-30)),
        }

    def test_same_bits_under_any_global_precision(self):
        with mpmath.workprec(30):
            low = self._run()
        with mpmath.workprec(300):
            high = self._run()
        assert low == high
        assert {prec for values in low.values() for _, prec in values} == {80}

    def test_conversion_into_a_context_is_exact(self):
        a200 = to_mp(random_hessenberg(np.random.default_rng(51), 5).a, mp_context(200)) / 3
        a120 = to_mp(a200, mp_context(120))
        assert [z._mpc_ for z in a120.flat] == [z._mpc_ for z in a200.flat]
        assert {z.context.prec for z in a120.flat} == {120}
        # complex128 entries round at the context's precision
        third = to_mp(np.array([1 / 3]), mp_context(24))[0]
        assert third == mp_context(24).mpc(1 / 3) != mp_context(53).mpc(1 / 3)

    def test_the_small_solver_certifies_a_32_bit_run_at_its_own_precision(self, monkeypatch):
        # its rungs work at 120 bits or more, and the Ritz values it returns
        # are 32-bit numbers again, which regularize rounds at 32 bits; the
        # plain step shifts by LAPACK's binary64 values instead
        rung_precs, plain_types, ritz_precs = [], set(), []
        isolated_roots, regularize = smalleig._isolated_roots, ritz.regularize
        plain_step = driver._plain_step

        def rung_spy(blk, beta_cert):
            rung_precs.append(blk[0, 0].context.prec)
            return isolated_roots(blk, beta_cert)

        def plain_spy(h, shifts, *args):
            # the plain step runs and is then rejected, so that the
            # iteration goes on to certify the corner and regularize it
            plain_types.update(type(z) for z in shifts)
            plain_step(h, shifts, *args)

        def ritz_spy(r_list, eta2, rng):
            ritz_precs.extend(r.context.prec for r in r_list)
            return regularize(r_list, eta2, rng)

        monkeypatch.setattr(smalleig, "_isolated_roots", rung_spy)
        monkeypatch.setattr(driver, "_plain_step", plain_spy)
        monkeypatch.setattr(ritz, "regularize", ritz_spy)
        a = random_hessenberg(np.random.default_rng(81), 6).a
        solve(a, SolveConfig(preprocess=False, seed=9, B=1.0, Gamma=1e-3, bits=32))
        assert rung_precs and min(rung_precs) >= 120
        assert plain_types == {complex}
        assert ritz_precs and set(ritz_precs) == {32}
