import math
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import hard_matrices, near_normal_hessenberg, random_hessenberg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hessqr import driver, iqr, ritz, shifting
from hessqr.driver import (
    SolveConfig,
    block_seed,
    deflate,
    prepare,
    preprocess,
    shifted_qr,
    solve,
)
from hessqr.errors import (
    BudgetExceeded,
    DichotomyMiss,
    DimensionError,
    HessqrError,
    OracleError,
    ParameterError,
    SmallEigFailure,
    SolveFailure,
    StructureError,
)
from hessqr.iqr import HessenbergMatrix
from hessqr.oracle import condition_report, matched_distance, ref_eigs
from hessqr.params import derive_globals, globals_with_degree
from hessqr.smalleig import CharPolySolver


class TestDeflate:
    def test_exact_zero_splits(self):
        a = np.triu(np.ones((6, 6), dtype=complex), -1)
        a[3, 2] = 0.0
        blocks = deflate(HessenbergMatrix(a), 1e-12, k=5)
        assert [b.n for b in blocks] == [3, 3]

    def test_threshold_split_bottom_span(self):
        a = np.triu(np.ones((6, 6), dtype=complex), -1)
        a[5, 4] = 1e-13
        a[1, 0] = 1e-13  # outside the bottom-k span: must survive
        blocks = deflate(HessenbergMatrix(a), 1e-12, k=2)
        assert [b.n for b in blocks] == [5, 1]

    def test_full_split(self):
        k = 3
        a = np.triu(np.ones((6, 6), dtype=complex), -1)
        for i in range(6 - k, 6):
            a[i, i - 1] = 1e-13
        blocks = deflate(HessenbergMatrix(a), 1e-12, k=k)
        assert [b.n for b in blocks] == [3, 1, 1, 1]

    def test_noop_returns_single_block(self):
        a = np.triu(np.ones((4, 4), dtype=complex), -1)
        blocks = deflate(HessenbergMatrix(a), 1e-12, k=3)
        assert len(blocks) == 1 and blocks[0].n == 4

    def test_blocks_own_their_arrays(self):
        # compact copies, not views that keep the whole matrix alive
        a = np.triu(np.ones((6, 6), dtype=complex), -1)
        a[3, 2] = 0.0
        h = HessenbergMatrix(a)
        for blk in deflate(h, 1e-12, k=5):
            assert blk.a.base is None and not np.shares_memory(blk.a, h.a)

    def test_zeroing_leaves_the_input_as_it_was(self):
        a = np.triu(np.ones((6, 6), dtype=complex), -1)
        a[5, 4] = 1e-13
        h = HessenbergMatrix(a)
        blocks = deflate(h, 1e-12, k=2)
        assert [b.n for b in blocks] == [5, 1]
        assert h.a[5, 4] == 1e-13
        assert not any(np.shares_memory(b.a, h.a) for b in blocks)

    def test_spectra_union_exact(self):
        rng = np.random.default_rng(70)
        h = random_hessenberg(rng, 8)
        a = h.a.copy()
        a[5, 4] = 1e-14
        h = HessenbergMatrix(a)
        blocks = deflate(h, 1e-12, k=7)
        zeroed = a.copy()
        zeroed[5, 4] = 0.0
        whole = ref_eigs(zeroed)
        parts = np.concatenate([ref_eigs(b.a) for b in blocks])
        assert matched_distance(whole, parts) <= 1e-12


class TestShiftedQr:
    def test_base_case_single_solver_call(self):
        rng = np.random.default_rng(71)
        a = np.triu(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), -1)
        h = HessenbergMatrix(a)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=4 * float(h.frobenius_norm()), n0=3)
        assert gd.k == 4 >= 3
        res = shifted_qr(h, 1e-8, 0.05, gd, seed=1)
        assert matched_distance(res.eigenvalues, ref_eigs(a)) <= 1e-8
        assert len(res.tree.nodes) == 1

    def test_conservation_of_dimension(self):
        rng = np.random.default_rng(72)
        for n in (8, 13):
            h, _ = near_normal_hessenberg(rng, n, perturb=1e-4)
            gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=n)
            res = shifted_qr(h, 1e-7, 0.05, gd, seed=2)
            assert len(res.eigenvalues) == n

    def test_backward_accuracy_small(self):
        rng = np.random.default_rng(73)
        h, a = near_normal_hessenberg(rng, 10, perturb=1e-4)
        rep = condition_report(a)
        gd = derive_globals(1.0, Gamma=rep.gap / 4, Sigma=2 * float(h.frobenius_norm()), n0=10)
        delta = 1e-7 * rep.norm
        res = shifted_qr(h, delta, 0.05, gd, seed=3)
        assert matched_distance(res.eigenvalues, ref_eigs(h.a)) <= rep.kappa_v * delta * rep.norm

    def test_deterministic_at_fixed_seed(self):
        rng = np.random.default_rng(74)
        h, _ = near_normal_hessenberg(rng, 16, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=16)
        r1 = shifted_qr(h, 1e-7, 0.05, gd, seed=5)
        r2 = shifted_qr(h, 1e-7, 0.05, gd, seed=5)
        np.testing.assert_array_equal(r1.eigenvalues, r2.eigenvalues)
        assert len(r1.tree.nodes) > 1  # the run deflated: several blocks
        assert list(r1.tree.nodes) == list(r2.tree.nodes)

        def records(node):
            return [
                (r.branch, r.shift, r.psi_before, r.psi_after, r.retries) for r in node.trace
            ]

        for path, node in r1.tree.nodes.items():
            assert records(node) == records(r2.tree.nodes[path])

    def test_monotone_potential_along_sh_steps(self):
        rng = np.random.default_rng(75)
        h, _ = near_normal_hessenberg(rng, 12, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=12)
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=6)
        for node in res.tree.nodes.values():
            for rec in node.trace:
                if rec.branch in ("ritz_shift", "exceptional"):
                    decoupled = rec is node.trace[-1]
                    assert (
                        rec.psi_after <= 0.8016 * rec.psi_before or decoupled
                    )

    def test_tree_is_built_in_path_order(self):
        # the blocks run depth-first, top block first: the tree's nodes come
        # in path order, its leaves by increasing start, and the eigenvalues
        # leaf by leaf in that order
        rng = np.random.default_rng(74)
        h, _ = near_normal_hessenberg(rng, 16, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=16)
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=5)
        paths = list(res.tree.nodes)
        assert (1,) in paths and max(len(p) for p in paths) > 2  # nested deflation
        assert paths == sorted(paths)
        leaves = res.tree.leaves()
        assert [leaf.start for leaf in leaves] == list(
            np.cumsum([0] + [len(leaf.eigenvalues) for leaf in leaves[:-1]])
        )
        assert leaves[-1].start + len(leaves[-1].eigenvalues) == 16
        np.testing.assert_array_equal(
            res.eigenvalues, [v for leaf in leaves for v in leaf.eigenvalues]
        )


class TestBlockStreams:
    """``block_seed`` passes the path as one uint32 array; the entropy it
    assembles must be that of the documented tuple spawn key, at any depth,
    or every stream of a run changes."""

    @pytest.mark.parametrize("seed", [0, 11, 2**63 - 1])
    @pytest.mark.parametrize("n", [2, 128, 2**32])  # entries up to n - 1 = 2^32 - 1
    def test_same_state_as_the_tuple_spawn_key(self, seed, n):
        for depth in range(65):
            paths = [(v,) * depth for v in (0, 1, n - 1)]
            paths.append(tuple((0, 1, n - 1)[i % 3] for i in range(depth)))
            for path in paths:
                expected = np.random.SeedSequence(seed, spawn_key=path).generate_state(8)
                assert np.array_equal(block_seed(seed, path).generate_state(8), expected)

    def test_each_loop_block_draws_from_its_own_path(self, monkeypatch):
        paths = []

        def spy(seed, path):
            paths.append(path)
            return block_seed(seed, path)

        monkeypatch.setattr(driver, "block_seed", spy)
        h, _ = near_normal_hessenberg(np.random.default_rng(5), 12, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=12)
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=3)
        loops = [p for p, node in res.tree.nodes.items() if node.eigenvalues is None]
        assert paths == loops and len(max(paths, key=len)) > 1


class TestLoopGuardChecksOnce:
    """The driver's loop guard is the one check of the omega-unreduced
    precondition: each iterate's bottom-k moduli are formed for it and for
    L = log2 psi_k(H)^k, and the layers below take L instead of measuring
    the H they were handed again."""

    LAYERS = (
        (driver, "ritz_or_decouple"),
        (driver, "sh_step"),
        (ritz, "optimal"),
        (shifting, "find"),
        (shifting, "exc"),
    )

    def test_moduli_formed_once_per_iterate(self, monkeypatch):
        # the 32 x 32 cyclic shift at k = 8 takes all three branches
        a = np.eye(32, k=-1, dtype=complex)
        a[0, 31] = 1.0
        h = HessenbergMatrix(a)
        gd = globals_with_degree(1.0, 8, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
        active, by_driver, on_handed = [], [], []
        bottom = HessenbergMatrix.bottom_subdiagonal_abs

        def recording(m, k):
            if not active:
                by_driver.append(m)
            elif any(m is held for held in active):
                on_handed.append(m)
            return bottom(m, k)

        def layer(fn):
            # active holds the matrix each running layer was handed (exc
            # is handed none)
            def wrapper(*args):
                active.append(args[0])
                try:
                    return fn(*args)
                finally:
                    active.pop()

            return wrapper

        monkeypatch.setattr(HessenbergMatrix, "bottom_subdiagonal_abs", recording)
        for owner, name in self.LAYERS:
            monkeypatch.setattr(owner, name, layer(getattr(owner, name)))
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=11)
        monkeypatch.undo()

        loops = [node for node in res.tree.nodes.values() if node.eigenvalues is None]
        branches = Counter(rec.branch for node in loops for rec in node.trace)
        assert set(branches) == {"ritz_shift", "decouple", "exceptional"}
        iterates = sum(len(node.trace) + 1 for node in loops)
        assert len(by_driver) <= 2 * iterates
        assert max(Counter(map(id, by_driver)).values()) <= 2
        # inside the layers, only candidate next iterates are measured
        assert on_handed == []


class TestScaleEquivariance:
    """The iteration is homogeneous in H: scaling H, Sigma, Gamma and delta by
    2^e scales every eigenvalue, psi and shift by 2^e and changes nothing
    else, for exponents far outside the range where psi_k(H)^k, the
    optimality threshold or beta = omega^2 / (1616 Sigma) fit in binary64."""

    @staticmethod
    def _run(e):
        rng = np.random.default_rng(76)
        h, _ = near_normal_hessenberg(rng, 12, perturb=1e-4)
        # exactly representable at every scale below: no entry and no bound
        # lands in the subnormal range
        delta, gamma, sigma = 2.0**-24, 2.0**-13, 2 * float(h.frobenius_norm())
        assert np.abs(h.a[h.a != 0]).min() > 2.0**-20
        scaled = HessenbergMatrix(h.a * 2.0**e)
        gd = derive_globals(1.0, Gamma=gamma * 2.0**e, Sigma=sigma * 2.0**e, n0=12)
        return shifted_qr(scaled, delta * 2.0**e, 0.05, gd, seed=6)

    @staticmethod
    def _records(res):
        return [
            (path, [(r.branch, r.shift, r.psi_before, r.psi_after) for r in node.trace])
            for path, node in sorted(res.tree.nodes.items())
        ]

    @pytest.mark.parametrize("e", [-1000, -600, -280, 0, 280, 600, 1000])
    def test_power_of_two_scaling(self, e):
        base, res = self._run(0), self._run(e)
        np.testing.assert_array_equal(res.eigenvalues, base.eigenvalues * 2.0**e)
        assert any(rec[0] == "ritz_shift" for _, recs in self._records(base) for rec in recs)
        scaled = [
            (path, [(b, s * 2.0**e, p * 2.0**e, q * 2.0**e) for b, s, p, q in recs])
            for path, recs in self._records(base)
        ]
        assert self._records(res) == scaled
        assert res.required_bits == base.required_bits

    @pytest.mark.parametrize("bits", [53, 80])
    def test_solve_with_preprocessing(self, bits):
        # the same through solve: perturbation, Hessenberg reduction, the
        # Frobenius norm behind Sigma and, at 80 bits, mpmath sweeps
        rng = np.random.default_rng(4)
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))

        def run(e):
            config = SolveConfig(seed=3, B=1.0, Gamma=1e-3 * 2.0**e, bits=bits)
            return solve(a * 2.0**e, config)

        base = run(0)
        assert any(node.trace for node in base.tree.nodes.values())
        for e in (-1000, 1000):
            res = run(e)
            np.testing.assert_array_equal(res.eigenvalues, base.eigenvalues * 2.0**e)
            assert res.required_bits == base.required_bits


class TestPreprocess:
    """Preprocessing as ``prepare`` runs it: perturbation, Hessenberg
    reduction and the bounds derived from the result."""

    def test_hessenberg_output_structure(self):
        rng = np.random.default_rng(76)
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        h, _, _, _ = prepare(a, SolveConfig(seed=1))
        for i in range(2, 9):
            assert not h.a[i, : i - 1].any()

    def test_zero_delta_identity_on_hessenberg(self):
        rng = np.random.default_rng(77)
        a = np.triu(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)), -1)
        h, _, _, _ = prepare(a, SolveConfig(seed=1, delta=0.0, B=1.0, Gamma=1e-4))
        u = 2.0**-52
        assert np.linalg.norm(h.a - a, 2) <= 64 * u * np.linalg.norm(a, 2)

    def test_spectra_drift_within_budget(self):
        rng = np.random.default_rng(78)
        n, delta = 16, 1e-6
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rep = condition_report(a)
        h, _, _, _ = prepare(a, SolveConfig(seed=2, delta=delta))
        drift = matched_distance(ref_eigs(h.a), ref_eigs(a))
        u = 2.0**-52
        assert drift <= (delta / 2 + 16 * n * u) * rep.norm * rep.kappa_v * 1.2

    def test_heuristic_bounds(self):
        rng = np.random.default_rng(79)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h, gd, delta, _ = prepare(a, SolveConfig(seed=3, delta=1e-4))
        norm_a = np.linalg.norm(a, 2)
        delta_pre = 1e-4 * norm_a / 2
        assert delta == pytest.approx(delta_pre)
        assert gd.B == pytest.approx(6 / delta_pre)
        assert gd.Gamma == pytest.approx((delta_pre / 6) ** 2)
        assert gd.Sigma == pytest.approx(2 * np.linalg.norm(h.a))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            prepare(np.ones((3, 4)), SolveConfig(seed=0))

    def test_non_finite_entries_rejected(self):
        # the one check of finite input on this route: the CLI reader has none
        a = np.array([[1.0, np.inf], [np.nan, 2.0]], dtype=complex)
        with pytest.raises(StructureError, match="non-finite entries"):
            preprocess(a, 1e-6, np.random.default_rng(0))

    def test_prepare_measures_the_input_norm_once(self, monkeypatch):
        # preprocess hands back delta_pre = delta ||A||_2 / 2, and prepare
        # takes its absolute accuracy from it instead of a second SVD of A
        rng = np.random.default_rng(81)
        a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        norm, calls = np.linalg.norm, []

        def counting(x, ord=None, **kwargs):
            calls.append(ord == 2 and np.array_equal(x, a))
            return norm(x, ord, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        _, _, delta, _ = prepare(a, SolveConfig(seed=4, delta=1e-5))
        monkeypatch.undo()
        assert sum(calls) == 1
        assert delta == 1e-5 * float(np.linalg.norm(a, 2)) / 2.0


class TestSolveEntryPoint:
    def test_identity_two_by_two(self):
        res = solve(np.eye(2, dtype=complex), SolveConfig(preprocess=False, seed=1, B=1.0, Gamma=1e-3))
        np.testing.assert_allclose(sorted(res.eigenvalues.real), [1.0, 1.0], atol=1e-9)
        assert all(not n.trace for n in res.tree.nodes.values())

    def test_reports_required_bits_above_binary64(self):
        rng = np.random.default_rng(80)
        a = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), -1)
        res = solve(a, SolveConfig(preprocess=False, seed=1, B=1.0, Gamma=1e-6))
        assert res.required_bits > 53

    def test_extended_precision_path(self):
        rng = np.random.default_rng(81)
        a = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), -1)
        res64 = solve(a, SolveConfig(preprocess=False, seed=9, B=1.0, Gamma=1e-3, delta=1e-6))
        res80 = solve(
            a,
            SolveConfig(preprocess=False, seed=9, B=1.0, Gamma=1e-3, delta=1e-6, bits=80),
        )
        assert matched_distance(res64.eigenvalues, res80.eigenvalues) <= 1e-6

    def test_bits_sets_the_sweep_precision(self, monkeypatch):
        precisions = []
        original = iqr.iqr_single

        def spy(h, s):
            precisions.append((h.a[0, 0].context.prec, h.is_extended))
            return original(h, s)

        monkeypatch.setattr(iqr, "iqr_single", spy)
        rng = np.random.default_rng(81)
        a = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), -1)
        solve(a, SolveConfig(preprocess=False, seed=9, B=1.0, Gamma=1e-3, delta=1e-6, bits=80))
        assert precisions and set(precisions) == {(80, True)}

    def test_zero_matrix_without_preprocessing_raises_without_a_warning(self):
        # delta ||H||_F is 0 and falls back to the smallest normal number, so
        # the default B = n / scale overflows; a Python float does so quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="out of binary64 range"):
                solve(np.zeros((3, 3)), SolveConfig(seed=1, preprocess=False))

    def test_zero_matrix_message_names_the_zero_norm(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"\|\|A\|\| = 0") as info:
                solve(np.zeros((3, 3)), SolveConfig(seed=1))
        assert "delta = 0 or" in str(info.value)

    @pytest.mark.parametrize("preprocess", [True, False])
    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_non_negative_integer(self, preprocess, seed):
        config = SolveConfig(seed=seed, preprocess=preprocess, B=1.0, Gamma=1e-3)
        with pytest.raises(ParameterError, match=f"seed must be a non-negative integer, got {seed}"):
            solve(np.eye(3, dtype=complex), config)

    @pytest.mark.parametrize("preprocess", [True, False])
    @pytest.mark.parametrize("delta", [-1e-6, math.nan, math.inf])
    def test_delta_must_be_finite_and_non_negative(self, preprocess, delta):
        config = SolveConfig(seed=1, delta=delta, preprocess=preprocess, B=1.0, Gamma=1e-3)
        with pytest.raises(ParameterError, match=f"delta must be finite and >= 0, got {delta}"):
            solve(np.eye(3, dtype=complex), config)

    @pytest.mark.parametrize("preprocess", [True, False])
    def test_non_finite_entries_are_a_structure_error(self, preprocess):
        a = np.array([[1.0, np.inf], [np.nan, 2.0]], dtype=complex)
        config = SolveConfig(seed=1, preprocess=preprocess, B=1.0, Gamma=1e-3)
        with pytest.raises(StructureError, match="non-finite entries"):
            solve(a, config)

    @pytest.mark.parametrize("bits", [0, -3, 1, 23, 80.5, 53.0, None])
    def test_bits_must_be_an_integer_of_at_least_24(self, bits):
        # below 24 bits mpmath would run at 1 bit and return far-off values
        a = np.eye(3, dtype=complex)
        config = SolveConfig(seed=1, bits=bits, B=1.0, Gamma=1e-3)
        for call in (solve, prepare):
            with pytest.raises(ParameterError, match=rf"^bits must be an integer >= 24, got {bits}$"):
                call(a, config)

    @pytest.mark.parametrize(
        "gamma, what", [(1e-160, "corner accuracy beta"), (1e-320, "working accuracy omega")]
    )
    def test_parameter_errors_name_the_callers_gamma(self, gamma, what):
        # the run divides Gamma by 2^e (Sigma in [1/2, 1)); the message
        # names the Gamma the caller gave
        rng = np.random.default_rng(0)
        a = np.triu(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)), -1)
        config = SolveConfig(B=1.0, Gamma=gamma, preprocess=False)
        message = rf"^{what} underflows binary64 \(B=1, Gamma={gamma:g}\)$"
        with pytest.raises(ParameterError, match=message):
            solve(a, config)

    @pytest.mark.parametrize("preprocess", [True, False])
    def test_empty_matrix_is_a_dimension_error(self, preprocess):
        config = SolveConfig(seed=1, preprocess=preprocess)
        inputs = [np.zeros((0, 0))] + ([] if preprocess else [HessenbergMatrix(np.zeros((0, 0)))])
        for a in inputs:
            with pytest.raises(DimensionError, match=r"non-empty square matrix, got shape \(0, 0\)"):
                solve(a, config)

    def test_full_pipeline_with_preprocess(self):
        rng = np.random.default_rng(82)
        n = 10
        evals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = q @ np.diag(evals) @ q.conj().T
        res = solve(a, SolveConfig(delta=1e-6, phi=0.05, seed=4, B=1.0, Gamma=1e-3))
        rep = condition_report(a)
        tol = rep.kappa_v * 1e-6 * rep.norm
        assert matched_distance(res.eigenvalues, ref_eigs(a)) <= tol


class TestRetries:
    @pytest.mark.parametrize("layer", ["ritz_or_decouple", "sh_step"])
    def test_exhausted_retries_name_the_layer_and_block(self, monkeypatch, layer):
        def missing(*args):
            raise DichotomyMiss("miss")

        monkeypatch.setattr(driver, layer, missing)
        rng = np.random.default_rng(84)
        h = random_hessenberg(rng, 6)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=4 * float(h.frobenius_norm()), n0=6)
        with pytest.raises(SolveFailure, match=rf"^{layer} \(block 0\) failed 4 times; last error: miss$"):
            shifted_qr(h, 1e-8, 0.05, gd, seed=1)


class TestBudget:
    def test_a_stalled_loop_stops_at_n_dec(self, stalled_iteration):
        h = random_hessenberg(np.random.default_rng(84), 6)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=4 * float(h.frobenius_norm()), n0=6)
        budget = driver.plan_run(6, 1e-8, 0.05, gd).params.n_dec_budget
        with pytest.raises(BudgetExceeded, match=rf"^block 0 exceeded N_dec={budget} iterations$"):
            shifted_qr(h, 1e-8, 0.05, gd, seed=1)
        assert len(stalled_iteration) == budget


class TestSmallEigFailure:
    @pytest.mark.parametrize("options", [{"B": 1.0, "Gamma": 1e-3}, {}], ids=["qr", "direct"])
    def test_not_retried(self, monkeypatch, options):
        # the small solver is deterministic: a failure is final on both routes
        calls = []

        def failing(self, m, beta):
            calls.append(m.shape[0])
            raise SmallEigFailure("could not certify")

        monkeypatch.setattr(CharPolySolver, "solve", failing)
        rng = np.random.default_rng(83)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        with pytest.raises(SmallEigFailure):
            solve(a, SolveConfig(seed=1, **options))
        assert calls == [4 if options else 6]


class TestWholeSolver:
    @given(hard_matrices(ns=(1, 2, 4, 5, 8)), st.integers(0, 2**32 - 1))
    def test_accurate_or_loud(self, case, seed):
        # B = 1 gives k = 4: n = 5 and 8 take the QR route.  Preprocessing
        # and the run each move the spectrum by at most delta ||A||_2 / 2 in
        # backward error, so by Bauer-Fike by kappa_V delta ||A||_2
        a, e = case
        config = SolveConfig(seed=seed, B=1.0, Gamma=1e-3 * 2.0**e)
        try:
            eigs = solve(a, config).eigenvalues
        except HessqrError:
            return
        assert len(eigs) == a.shape[0] and np.isfinite(eigs).all()
        ref = ref_eigs(a)
        try:
            rep = condition_report(a)
        except OracleError:  # defective at binary64: no Bauer-Fike bound
            return
        assert matched_distance(eigs, ref) <= rep.kappa_v * config.delta * rep.norm

    @given(hard_matrices(ns=(5, 8)))
    def test_accurate_where_the_oracle_bounds_it(self, case):
        # The companion of test_accurate_or_loud, which would pass if solve
        # always raised: at one fixed solver seed, on the QR route (n > k =
        # 4), every input with a Bauer-Fike bound must solve, within it.
        # Inputs defective at binary64 have no such bound and are drawn again.
        # The zero matrix is a known defect (Sigma = 2||H||_F = 0 is refused);
        # this pins it, so that its fix shows here.
        a, e = case
        try:
            rep = condition_report(a)
        except OracleError:
            assume(False)
        config = SolveConfig(seed=1, B=1.0, Gamma=1e-3 * 2.0**e)
        if not a.any():
            with pytest.raises(ParameterError, match="Sigma=0.0"):
                solve(a, config)
            return
        eigs = solve(a, config).eigenvalues
        assert len(eigs) == a.shape[0] and np.isfinite(eigs).all()
        assert matched_distance(eigs, ref_eigs(a)) <= rep.kappa_v * config.delta * rep.norm

    @pytest.mark.parametrize("k", [4, 8])
    @settings(max_examples=10)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_shifted_qr_accurate_or_loud(self, k, data, seed):
        # The QR route on its own: Hessenberg input, no preprocessing, degree
        # k and n > k.  The run returns the eigenvalues of some H' within
        # delta of H, so by Bauer-Fike they are within kappa_V delta.  Inputs
        # defective at binary64 have no such bound and are drawn again (they
        # are most of the k = 8 draws, and each costs the small solver its
        # mpmath rungs on every corner); ten whole solves per degree.
        a, e = data.draw(hard_matrices(ns=(k + 1, 2 * k)))
        try:
            rep = condition_report(a)
        except OracleError:
            assume(False)
        h = HessenbergMatrix(a)
        delta = 1e-6 * rep.norm
        try:
            gd = globals_with_degree(1.0, k, 1e-3 * 2.0**e, 2 * float(h.frobenius_norm()), h.n)
            eigs = shifted_qr(h, delta, 0.05, gd, seed=seed).eigenvalues
        except HessqrError:
            return
        assert len(eigs) == h.n and np.isfinite(eigs).all()
        assert matched_distance(eigs, ref_eigs(a)) <= rep.kappa_v * delta
