import math
from collections import Counter

import numpy as np
import pytest

from conftest import near_normal_hessenberg, random_hessenberg, same_bits
from hessqr.errors import DimensionError, DomainError, ParameterError
from hessqr import iqr, shifting
from hessqr.iqr import iqr_multi, log2_potential_pow_k, potential
from hessqr.oracle import (
    condition_report,
    net_size_bound,
    promising_check,
    ref_eigs,
    resolvent_tau,
)
from hessqr.params import REDUCTION_FACTOR, globals_with_degree
from hessqr.shifting import (
    build_net,
    exc,
    exc_params,
    find,
    sh_step,
)


def _globals(B, k, h):
    return globals_with_degree(B, k, Gamma=1e-6, Sigma=2 * float(h.frobenius_norm()), n0=h.n)


def _lpk(h, k):
    """L = log2 psi_k(H)^k, as the driver hands it down."""
    return log2_potential_pow_k(h.bottom_subdiagonal_abs(k))


class TestFind:
    def test_degree_two_matches_resolvent(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            h = random_hessenberg(rng, 6)
            gd = _globals(1.0, 2, h)
            r1, r2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            got, _ = find(h, (r1, r2), gd)
            t1 = float(resolvent_tau(h, (r1,)))
            t2 = float(resolvent_tau(h, (r2,)))
            if abs(t1 - t2) <= 0.0022 * min(t1, t2):
                continue  # inside the comparison slack; either answer fine
            assert got == (r1 if t1 < t2 else r2)

    def test_symmetric_tie_takes_first_half(self, rng):
        h = random_hessenberg(rng, 6)
        gd = _globals(1.0, 4, h)
        same = (0.5 + 0.1j,) * 4
        r, half = find(h, same, gd)
        assert r == 0.5 + 0.1j
        assert half.r_nn_per_step == iqr_multi(h, (r,) * 2).r_nn_per_step

    def test_output_is_member(self):
        rng = np.random.default_rng(61)
        h = random_hessenberg(rng, 8)
        gd = _globals(1.0, 4, h)
        ritz = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        r, half = find(h, ritz, gd)
        assert r in ritz
        assert len(half.r_nn_per_step) == 2

    def test_promising_certificate(self):
        # the chosen value passes the alpha-promising oracle with the true
        # condition number driving alpha
        rng = np.random.default_rng(62)
        n, k = 12, 4
        passed = trials = 0
        while trials < 30:
            h, a = near_normal_hessenberg(rng, n, perturb=1e-3)
            rep = condition_report(a)
            gd = _globals(max(1.0, rep.kappa_v), k, h)
            ritz = tuple(complex(v) for v in ref_eigs(h.corner(k)))
            eigs = ref_eigs(h.a)
            if min(abs(r - e) for r in ritz for e in eigs) < 1e-8:
                continue
            trials += 1
            r, _ = find(h, ritz, gd)
            alpha = (1.01 * max(1.0, rep.kappa_v)) ** (4 * math.log2(k) / k)
            if promising_check(h, r, ritz, alpha):
                passed += 1
        assert passed == trials

    def test_requires_power_of_two(self, rng):
        # the degree is gd.k, which GlobalData holds to a power of two, and
        # find takes exactly k values
        h = random_hessenberg(rng, 6)
        with pytest.raises(ParameterError):
            _globals(1.0, 3, h)
        with pytest.raises(DimensionError):
            find(h, (1.0, 2.0, 3.0), _globals(1.0, 4, h))



def _find_from_scratch(h, ritz, k):
    """``find`` as a plain halving search that sweeps every candidate from h
    anew: (r, IqrResult of r^(k/2))."""
    current, rep = list(ritz), 1
    while True:
        half = len(current) // 2
        cands = current[:half], current[half:]
        res = [iqr_multi(h, tuple(r for r in c for _ in range(rep))) for c in cands]
        win = 0 if math.prod(res[0].r_nn_per_step) <= math.prod(res[1].r_nn_per_step) else 1
        if half == 1:
            return cands[win][0], res[win]
        current, rep = cands[win], 2 * rep


def _counting_sweeps(monkeypatch):
    """Counts every ``iqr_single`` call (a list of one int)."""
    sweeps, iqr_single = [0], iqr.iqr_single

    def counting(*args, **kwargs):
        sweeps[0] += 1
        return iqr_single(*args, **kwargs)

    monkeypatch.setattr(iqr, "iqr_single", counting)
    return sweeps


@pytest.mark.parametrize("k, n", [(4, 10), (8, 16)])
class TestWinningHalfHandedOn:
    """``find`` hands ``sh_step`` the sweeps of its winning half r^(k/2);
    the step must equal the r^k sweep run from scratch, bit for bit."""

    def _case(self, k, n):
        h, _ = near_normal_hessenberg(np.random.default_rng(70), n, perturb=1e-3)
        gd = _globals(1.0, k, h)
        ritz = tuple(complex(v) for v in ref_eigs(h.corner(k)))
        return h, gd, ritz

    def test_half_is_the_sweep_of_r_to_the_k_over_2(self, k, n, monkeypatch):
        h, gd, ritz = self._case(k, n)
        tau_calls = []
        comp_tau = shifting.comp_tau
        monkeypatch.setattr(
            shifting, "comp_tau", lambda *a: tau_calls.append(a) or comp_tau(*a)
        )
        r, half = find(h, ritz, gd)
        # every halving round compares its two halves through comp_tau
        assert len(tau_calls) == 2 * int(math.log2(k))
        ref = iqr_multi(h, (r,) * (k // 2))
        assert same_bits(half.next_h.a, ref.next_h.a)
        assert half.r_nn_per_step == ref.r_nn_per_step

    def test_ritz_step_matches_full_sweep(self, k, n, monkeypatch):
        h, gd, ritz = self._case(k, n)
        logged = []
        log2 = shifting.log2
        monkeypatch.setattr(shifting, "log2", lambda x: logged.append(x) or log2(x))
        sweeps = _counting_sweeps(monkeypatch)
        out = sh_step(h, _lpk(h, k), ritz, 1e-9, np.random.default_rng(1), gd)
        monkeypatch.undo()
        assert out.branch == "ritz_shift"
        # k log2(k) - k/2 + 1 distinct sweeps in find, k/2 more to complete r^k
        assert sweeps[0] == k * int(math.log2(k)) + 1
        full = iqr_multi(h, (out.shift,) * k)
        assert same_bits(out.next_h.a, full.next_h.a)
        # the first log2 sh_step takes is that of tau_k
        assert logged[0] == math.prod(full.r_nn_per_step)


@pytest.mark.parametrize("k", [2, 4, 8, 16])
class TestEachPrefixSweptOnce:
    """A step sweeps each distinct shift prefix from H once, k log2(k) + 1
    sweeps in all, and its results are those of sweeping every candidate
    from H anew, bit for bit."""

    def _case(self, k, seed):
        h, _ = near_normal_hessenberg(np.random.default_rng(seed), 2 * k + 2, perturb=1e-3)
        ritz = tuple(complex(v) for v in np.linalg.eigvals(h.corner(k)))
        return h, _globals(1.0, k, h), ritz

    def test_sh_step_sweep_count(self, k, monkeypatch):
        h, gd, ritz = self._case(k, 71)
        sweeps = _counting_sweeps(monkeypatch)
        out = sh_step(h, _lpk(h, k), ritz, 1e-9, np.random.default_rng(2), gd)
        assert out.branch == "ritz_shift"
        assert sweeps[0] == k * int(math.log2(k)) + 1

    @pytest.mark.parametrize("seed", [72, 73, 74])
    def test_find_matches_sweeps_from_scratch(self, k, seed):
        h, gd, ritz = self._case(k, seed)
        # both orders, so that the index-0 and the index-1 half both win
        for order in (ritz, ritz[::-1]):
            r, half = find(h, order, gd)
            ref_r, ref = _find_from_scratch(h, order, k)
            assert same_bits(r, ref_r)
            assert same_bits(half.r_nn_per_step, ref.r_nn_per_step)
            assert same_bits(half.next_h.a, ref.next_h.a)


def _counting_lapack(monkeypatch):
    """Counts the LAPACK calls ``iqr`` makes, by routine name."""
    counts, lapack = Counter(), iqr.lapack

    class Counting:
        def __getattr__(self, name):
            routine = getattr(lapack, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return routine(*args, **kwargs)

            return counted

    monkeypatch.setattr(iqr, "lapack", Counting())
    return counts


def _reading_every_iterate(monkeypatch):
    """Makes every ``iqr_single`` call read its iterate at once: the
    reference chain, which forms each iterate it sweeps."""
    iqr_single = iqr.iqr_single

    def reading(h, s):
        res = iqr_single(h, s)
        res.next_h
        return res

    monkeypatch.setattr(iqr, "iqr_single", reading)


@pytest.mark.parametrize("k", [2, 4, 8, 16])
class TestIteratesFormedOnRead:
    """A binary64 sweep forms its iterate when something first reads it:
    the tau products of ``find`` read none, so a step forms only the
    iterates that a later sweep starts from and its result."""

    _case = TestEachPrefixSweptOnce._case

    def test_lapack_calls_per_sh_step(self, k, monkeypatch):
        h, gd, ritz = self._case(k, 71)
        counts = _counting_lapack(monkeypatch)
        out = sh_step(h, _lpk(h, k), ritz, 1e-9, np.random.default_rng(2), gd)
        assert out.branch == "ritz_shift"
        lg = int(math.log2(k))
        # 2, 6, 20 and 58 formations for k = 2, 4, 8 and 16
        assert counts == {"zgeqrf": k * lg + 1, "zunmqr": k * lg - 2 * lg + 2}

    @pytest.mark.parametrize("seed", [72, 73])
    def test_lazy_iterates_equal_a_chain_reading_every_one(self, k, seed, monkeypatch):
        h, gd, ritz = self._case(k, seed)

        def run():
            return [
                (find(h, order, gd), sh_step(h, _lpk(h, k), order, 1e-9,
                                             np.random.default_rng(3), gd))
                for order in (ritz, ritz[::-1])
            ]

        lazy = run()
        _reading_every_iterate(monkeypatch)
        counts = _counting_lapack(monkeypatch)
        eager = run()
        assert counts["zunmqr"] == counts["zgeqrf"]  # the reference formed every one
        # the lazy iterates are formed here, after every reference sweep
        for ((r, half), out), ((ref_r, ref_half), ref_out) in zip(lazy, eager):
            assert same_bits(r, ref_r)
            assert same_bits(half.r_nn_per_step, ref_half.r_nn_per_step)
            assert same_bits(half.next_h.a, ref_half.next_h.a)
            assert out.branch == ref_out.branch and same_bits(out.shift, ref_out.shift)
            assert same_bits(out.next_h.a, ref_out.next_h.a)

    def test_two_reads_return_the_same_iterate(self, k, monkeypatch):
        h, gd, ritz = self._case(k, 74)
        _, half = find(h, ritz, gd)
        counts = _counting_lapack(monkeypatch)
        first = half.next_h
        assert half.next_h is first
        assert counts == {"zunmqr": 1}


class TestBuildNet:
    def test_count_bound(self):
        for eps in (0.05, 0.1, 0.5, 1.0):
            net = build_net(eps)
            assert len(net) <= net_size_bound(eps)

    def test_covering(self):
        rng = np.random.default_rng(63)
        for eps in (0.1, 0.5, 1.0):
            net = np.array(build_net(eps))
            u, ang = rng.random(20_000), rng.random(20_000) * 2 * np.pi
            pts = (1 + eps) * np.sqrt(u) * np.exp(1j * ang)
            d = np.abs(pts[:, None] - net[None, :]).min(axis=1)
            assert d.max() <= 0.99 * eps

    def test_packing(self):
        for eps in (0.5, 1.0):
            net = np.array(build_net(eps))
            dm = np.abs(net[:, None] - net[None, :])
            dm[np.diag_indices_from(dm)] = np.inf
            assert dm.min() >= 0.99 * eps

    def test_domain(self):
        with pytest.raises(DomainError):
            build_net(0.0)
        with pytest.raises(DomainError):
            build_net(2.5)


class TestExc:
    def test_candidates_inside_disk(self):
        rng = np.random.default_rng(64)
        h = random_hessenberg(rng, 8)
        gd = _globals(1.0, 4, h)
        r = 0.2 + 0.1j
        cands = exc(r, potential(h, 4), rng, gd)
        r_hat, eps = exc_params(gd, potential(h, 4))
        assert all(abs(s - r) <= r_hat * (1 + 1e-12) for s in cands)
        # radius bound implied by the construction: 2^(1/k) (1.001) theta
        # alpha B^(1/k) psi (the printed bound drops the 2^(1/k) factor)
        assert r_hat <= 2 ** (1 / 4) * 1.001 * gd.theta * gd.alpha * gd.B ** (
            1 / 4
        ) * potential(h, 4)

    def test_candidate_count_matches_net(self):
        rng = np.random.default_rng(65)
        h = random_hessenberg(rng, 8)
        gd = _globals(1.0, 4, h)
        cands = exc(0.1, potential(h, 4), rng, gd)
        _, eps = exc_params(gd, potential(h, 4))
        assert len(cands) == len(build_net(eps))
        assert len(cands) <= net_size_bound(eps)

    def test_epsilon_frozen_value(self):
        # line-2 expression at B=1, k=4, xi = 0.999(1-gamma)
        gd = globals_with_degree(1.0, 4, Gamma=1e-6, Sigma=1.0, n0=8)
        _, eps = exc_params(gd, 1.0)
        assert eps == pytest.approx(0.17146896939336523, rel=1e-9)

    def test_spectrum_distance_tail(self):
        # after random translation, candidates rarely land near the spectrum
        rng = np.random.default_rng(66)
        n, k = 8, 4
        phi = 0.05
        failures = trials = 0
        for _ in range(300):
            h, _ = near_normal_hessenberg(rng, n, perturb=1e-2)
            gd = _globals(1.0, k, h)
            eigs = ref_eigs(h.a)
            ritz = ref_eigs(h.corner(k))
            r = complex(ritz[0])
            psi = potential(h, k)
            if psi == 0:
                continue
            trials += 1
            cands = exc(r, psi, rng, gd)
            r_hat, eps = exc_params(gd, psi)
            eta = eps * r_hat * math.sqrt(phi) / math.sqrt(3 * n)
            d = min(abs(s - e) for s in cands for e in eigs)
            if d < eta:
                failures += 1
        assert trials >= 250
        assert failures <= 2 * phi * trials


class TestShStep:
    def test_ritz_branch_contracts(self):
        # an eigenvalue-adjacent promising value makes tau collapse
        rng = np.random.default_rng(67)
        hits = 0
        for _ in range(20):
            h, _ = near_normal_hessenberg(rng, 10, perturb=1e-3)
            gd = _globals(1.0, 4, h)
            ritz = tuple(complex(v) for v in ref_eigs(h.corner(4)))
            out = sh_step(h, _lpk(h, 4), ritz, 1e-9, rng, gd)
            if out.branch == "ritz_shift":
                hits += 1
                assert (
                    potential(out.next_h, 4) <= REDUCTION_FACTOR * potential(h, 4)
                    or not out.next_h.is_unreduced(1e-9, 4)
                )
                assert out.shift in ritz
        assert hits >= 10

    def test_deterministic(self):
        h, _ = near_normal_hessenberg(np.random.default_rng(68), 10, perturb=1e-3)
        gd = _globals(1.0, 4, h)
        ritz = tuple(complex(v) for v in ref_eigs(h.corner(4)))
        a = sh_step(h, _lpk(h, 4), ritz, 1e-9, np.random.default_rng(99), gd)
        b = sh_step(h, _lpk(h, 4), ritz, 1e-9, np.random.default_rng(99), gd)
        assert a.branch == b.branch
        assert a.shift == b.shift
        np.testing.assert_array_equal(a.next_h.a, b.next_h.a)

    def test_exceptional_branch_reachable(self):
        # starve the ritz branch by handing sh_step a far-away "promising" set
        rng = np.random.default_rng(69)
        found = 0
        for _ in range(40):
            h, _ = near_normal_hessenberg(rng, 8, perturb=1e-3)
            gd = _globals(1.0, 4, h)
            norm = float(np.linalg.norm(h.a, 2))
            decoy = (norm * (3.0 + 1j),) * 4
            try:
                out = sh_step(h, _lpk(h, 4), decoy, 1e-9, rng, gd)
            except Exception:
                continue
            if out.branch == "exceptional":
                found += 1
                assert (
                    potential(out.next_h, 4) < REDUCTION_FACTOR * potential(h, 4)
                    or not out.next_h.is_unreduced(1e-9, 4)
                )
        assert found >= 1
