import math
import time
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    fail_on,
    hard_matrices,
    near_normal_hessenberg,
    needs_long_double,
    random_hessenberg,
    same_bits,
    use_binary64_clongdouble,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hessqr import driver, iqr, ritz, shifting, smalleig
from hessqr.driver import (
    SolveConfig,
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
    DomainError,
    HessqrError,
    OracleError,
    ParameterError,
    SmallEigFailure,
    SolveFailure,
    StructureError,
)
from hessqr.iqr import HessenbergMatrix
from hessqr.oracle import condition_report, matched_distance, ref_eigs
from hessqr.params import REDUCTION_FACTOR, derive_degree, derive_globals, globals_with_degree
from hessqr.smalleig import CharPolySolver


def spy_small_solver(monkeypatch):
    """Patch both entry points of the small solver to record, in order,
    (entry point, matrix, values) for every matrix they solve: each corner
    through ``solve`` and each leaf of a ``solve_each`` call; returns the
    records and the list of ``solve_each`` calls, as their list sizes."""
    seen, each_calls = [], []
    solve_, solve_each_ = CharPolySolver.solve, CharPolySolver.solve_each

    def solve(self, m, beta):
        vals = solve_(self, m, beta)
        seen.append(("solve", np.array(m), vals))
        return vals

    def solve_each(self, ms, beta):
        out = solve_each_(self, ms, beta)
        each_calls.append(len(ms))
        seen.extend(("solve_each", np.array(m), vals) for m, vals in zip(ms, out))
        return out

    monkeypatch.setattr(CharPolySolver, "solve", solve)
    monkeypatch.setattr(CharPolySolver, "solve_each", solve_each)
    return seen, each_calls


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

    def test_deterministic_at_fixed_seed(self, paper_steps):
        # on the paper's path, whose Ritz values are regularized with draws
        # from the run's stream
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
        assert any(r.branch == "ritz_shift" for node in r1.tree.nodes.values() for r in node.trace)

    def test_a_plain_array_runs_as_its_hessenberg_matrix(self):
        # perfbench's QR workload hands shifted_qr an ndarray: it is checked
        # as a HessenbergMatrix is and runs bit for bit as that matrix does
        h, _ = near_normal_hessenberg(np.random.default_rng(75), 16, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=16)
        r1 = shifted_qr(h, 1e-7, 0.05, gd, seed=5)
        r2 = shifted_qr(h.a.copy(), 1e-7, 0.05, gd, seed=5)
        assert same_bits(r1.eigenvalues, r2.eigenvalues)
        assert len(r1.tree.nodes) > 1 and list(r1.tree.nodes) == list(r2.tree.nodes)

        def bits(node):
            return [
                (r.index, r.branch, r.retries,
                 np.array([r.psi_before, r.psi_after, r.shift]).tobytes())
                for r in node.trace
            ]

        for path, node in r1.tree.nodes.items():
            assert bits(node) == bits(r2.tree.nodes[path])
        a = h.a.copy()
        a[9, 3] = 1e-300
        with pytest.raises(StructureError, match=r"entry \(9,3\) below the subdiagonal"):
            shifted_qr(a, 1e-7, 0.05, gd, seed=5)

    def test_one_generator_per_run(self, monkeypatch):
        # every loop block draws from the run's one Generator, made from the
        # run's seed, in the order the blocks run
        seeds = []
        make = np.random.default_rng

        def spy(seed=None):
            seeds.append(seed)
            return make(seed)

        h, _ = near_normal_hessenberg(np.random.default_rng(5), 12, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=12)
        monkeypatch.setattr(np.random, "default_rng", spy)
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=3)
        monkeypatch.undo()
        loops = [node for node in res.tree.nodes.values() if node.eigenvalues is None]
        assert len(loops) > 1 and max(len(node.path) for node in loops) > 1
        assert seeds == [3]

    def test_the_direct_route_makes_no_generator(self, monkeypatch):
        # its one block is a leaf, and leaves draw nothing
        h, _ = near_normal_hessenberg(np.random.default_rng(5), 12, perturb=1e-4)
        gd = globals_with_degree(1.0, 16, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=12)
        ref = shifted_qr(h, 1e-7, 0.05, gd, seed=3)
        monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("a Generator was made"))
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=3)
        assert res.route == "direct" and same_bits(res.eigenvalues, ref.eigenvalues)

    def test_exceptional_steps_replay_from_the_seed(self):
        # the 32 x 32 cyclic shift at k = 8 takes exceptional steps, whose
        # net offset is drawn from the run's stream: one seed replays every
        # eigenvalue and trace record, another draws other shifts
        a = np.eye(32, k=-1, dtype=complex)
        a[0, 31] = 1.0
        h = HessenbergMatrix(a)
        gd = globals_with_degree(1.0, 8, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)

        def run(seed):
            res = shifted_qr(h, 1e-7, 0.05, gd, seed=seed)
            traces = {path: node.trace for path, node in res.tree.nodes.items()}
            shifts = [r.shift for t in traces.values() for r in t if r.branch == "exceptional"]
            return res.eigenvalues.tobytes(), traces, shifts

        first, again, other = run(11), run(11), run(12)
        assert first[2] and other[2]
        assert first == again
        assert other[2][0] != first[2][0]

    def test_monotone_potential_along_sh_steps(self, paper_steps):
        rng = np.random.default_rng(75)
        h, _ = near_normal_hessenberg(rng, 12, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=12)
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=6)
        checked = 0
        for node in res.tree.nodes.values():
            for rec in node.trace:
                if rec.branch in ("ritz_shift", "exceptional"):
                    checked += 1
                    decoupled = rec is node.trace[-1]
                    assert (
                        rec.psi_after <= 0.8016 * rec.psi_before or decoupled
                    )
        assert checked > 0

    def test_one_by_one_leaves_skip_the_small_solver(self, monkeypatch):
        # perfbench's qr_small recipe (n = 32, k = 4): the small solver sees
        # the corner of each iteration whose plain step is rejected and, in
        # one solve_each call per run, each leaf of dimension 2 or more; a
        # 1 x 1 leaf is its entry, bit for bit what the solver returns for it
        ones = []
        solve_, certify_leaves = CharPolySolver.solve, driver._certify_leaves

        def recording(leaves, plan):
            ones.extend((node, a.copy(), plan.e) for node, a in leaves if len(a) == 1)
            return certify_leaves(leaves, plan)

        seen, each_calls = spy_small_solver(monkeypatch)
        monkeypatch.setattr(driver, "_certify_leaves", recording)
        rng = np.random.default_rng(11)
        for _ in range(2):
            for calls in (seen, each_calls, ones):
                calls.clear()
            h, _ = near_normal_hessenberg(rng, 32, perturb=1e-4)
            gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
            assert gd.k == 4
            res = shifted_qr(h, 1e-7, 0.05, gd, seed=1)
            leaves = res.tree.leaves()
            wide = [leaf for leaf in leaves if len(leaf.eigenvalues) > 1]
            records = [rec for node in res.tree.nodes.values() for rec in node.trace]
            rejected = sum(rec.branch != "plain" for rec in records)
            shapes = [m.shape for _, m, _ in seen]
            assert len(ones) == len(leaves) - len(wide) > 0
            assert len(shapes) == rejected + len(wide)
            assert each_calls == [len(wide)]
            assert (1, 1) not in shapes
            for node, a, e in ones:
                entry = [driver.ldexp(complex(v), e) for v in solve_(CharPolySolver(), a, 1e-7)]
                assert np.array(node.eigenvalues).tobytes() == np.array(entry).tobytes()

    def test_a_retry_reuses_the_certified_corner(self, monkeypatch, paper_steps):
        # the first ritz_or_decouple call of the run misses once, after it
        # has run: the run still succeeds, and the small solver sees each
        # iteration's corner once, not again on the retry, and each leaf of
        # dimension 2 or more
        misses = []
        ritz_or_decouple = driver.ritz_or_decouple

        def missing_once(*args):
            out = ritz_or_decouple(*args)
            if not misses:
                misses.append(None)
                raise DichotomyMiss("miss")
            return out

        seen, _ = spy_small_solver(monkeypatch)
        monkeypatch.setattr(driver, "ritz_or_decouple", missing_once)
        h, _ = near_normal_hessenberg(np.random.default_rng(11), 32, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=1)
        records = [rec for node in res.tree.nodes.values() for rec in node.trace]
        wide = [leaf for leaf in res.tree.leaves() if len(leaf.eigenvalues) > 1]
        assert misses and records[0].retries == 1
        assert len(seen) == len(records) + len(wide)

    def test_the_qr_small_recipe_runs_outside_the_guarantee(self):
        # perfbench's qr_small recipe: B = 1 < 2, so k = 4 < n = 32
        h, _ = near_normal_hessenberg(np.random.default_rng(11), 32, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=1)
        assert (res.route, res.guarantee_covered) == ("qr", False)

    def test_delta_above_sigma_is_named_in_units_of_sigma(self):
        # the run divides delta and Sigma by 2^14, which leaves their ratio
        # as it is: the message gives delta = 1e5 as 1e5 / 9711 Sigma
        h = random_hessenberg(np.random.default_rng(84), 6)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=9711.0, n0=6)
        message = r"^need 0 < delta <= Sigma, got delta = 10\.2976 Sigma$"
        with pytest.raises(DomainError, match=message):
            shifted_qr(h, 1e5, 0.05, gd, seed=1)

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

    def test_an_accepted_plain_step_hands_its_moduli_to_the_guard(self, monkeypatch):
        # on this qr_small-recipe input every step is plain: each iterate's
        # moduli are formed once, for the root block when its loop starts
        # and for every other iterate when its plain step is tested
        seen = []
        bottom = HessenbergMatrix.bottom_subdiagonal_abs

        def recording(m, k):
            seen.append(m)
            return bottom(m, k)

        monkeypatch.setattr(HessenbergMatrix, "bottom_subdiagonal_abs", recording)
        h, _ = near_normal_hessenberg(np.random.default_rng(11), 32, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=1)
        monkeypatch.undo()

        loops = [node for node in res.tree.nodes.values() if node.eigenvalues is None]
        assert {rec.branch for node in loops for rec in node.trace} == {"plain"}
        assert len(seen) == sum(len(node.trace) + 1 for node in loops)
        assert max(Counter(map(id, seen)).values()) == 1

    def test_moduli_formed_once_per_iterate(self, monkeypatch, paper_steps):
        # the 32 x 32 cyclic shift at k = 8 takes all three branches
        a = np.eye(32, k=-1, dtype=complex)
        a[0, 31] = 1.0
        h = HessenbergMatrix(a)
        gd = globals_with_degree(1.0, 8, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
        active, seen, by_driver, on_handed, steps = [], [], [], [], []
        bottom = HessenbergMatrix.bottom_subdiagonal_abs

        def recording(m, k):
            seen.append(m)
            if not active:
                by_driver.append(m)
            elif any(m is held for held in active):
                on_handed.append(m)
            return bottom(m, k)

        def layer(fn, name):
            # active holds the matrix each running layer was handed (exc
            # is handed none), and steps each Step the driver was handed
            def wrapper(*args):
                active.append(args[0])
                try:
                    out = fn(*args)
                finally:
                    active.pop()
                step = out[1] if name == "ritz_or_decouple" else out
                if name in ("ritz_or_decouple", "sh_step") and step is not None:
                    steps.append(step)
                return out

            return wrapper

        monkeypatch.setattr(HessenbergMatrix, "bottom_subdiagonal_abs", recording)
        for owner, name in self.LAYERS:
            monkeypatch.setattr(owner, name, layer(getattr(owner, name), name))
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=11)
        monkeypatch.undo()

        loops = [node for node in res.tree.nodes.values() if node.eigenvalues is None]
        branches = Counter(rec.branch for node in loops for rec in node.trace)
        assert set(branches) == {"ritz_shift", "decouple", "exceptional"}
        # no matrix is measured twice, and the driver measures only the
        # iterate each loop starts from
        assert max(Counter(map(id, seen)).values()) == 1
        assert len(by_driver) == len(loops)
        # every later iterate is measured once, by the rule that kept it
        iterates = by_driver + [step.next_h for step in steps]
        assert len(iterates) == sum(len(node.trace) + 1 for node in loops)
        assert all(any(m is x for x in seen) for m in iterates)
        # inside the layers, only candidate next iterates are measured
        assert on_handed == []


class TestPlainStep:
    """Each loop iteration first applies LAPACK's k corner eigenvalues
    (``smalleig.corner_shifts``) as one degree-k step, kept ("plain") when
    it decouples or contracts psi by REDUCTION_FACTOR; otherwise, and where
    LAPACK fails on the corner, the corner is certified and the paper's step
    runs from the same H."""

    @pytest.fixture(scope="class")
    def qr_small_runs(self):
        # perfbench's qr_small recipe: n = 32, k = 4
        rng = np.random.default_rng(11)
        runs = []
        for _ in range(4):
            h, _ = near_normal_hessenberg(rng, 32, perturb=1e-4)
            gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
            runs.append(shifted_qr(h, 1e-7, 0.05, gd, seed=1))
        return runs

    @staticmethod
    def _cyclic_run(seed):
        # the 32 x 32 cyclic shift, unitary (kappa_V = 1), at k = 4
        a = np.eye(32, k=-1, dtype=complex)
        a[0, 31] = 1.0
        h = HessenbergMatrix(a)
        gd = globals_with_degree(1.0, 4, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
        return shifted_qr(h, 1e-7, 0.05, gd, seed=seed)

    def test_kept_when_it_decouples_or_contracts_by_the_reduction_factor(self):
        h = random_hessenberg(np.random.default_rng(84), 8)
        eigs = CharPolySolver().solve(h.corner(4), 1e-12)
        step = driver._plain_step(h, eigs, math.inf, 0.0, 4)
        assert (step.branch, step.shift) == ("plain", eigs[0])
        assert same_bits(step.next_h.a, iqr.multishift_step(h, eigs).a)
        # the k single sweeps' iterate, up to a unitary diagonal similarity
        single = iqr.iqr_multi(h, tuple(eigs)).next_h.bottom_subdiagonal_abs(4)
        assert np.allclose(step.moduli, single, rtol=1e-12, atol=0)
        moduli, after = step.moduli, step.log2_psi_pow_k
        assert moduli == step.next_h.bottom_subdiagonal_abs(4)
        assert after == iqr.log2_potential_pow_k(moduli)
        # L of an H whose psi_k is psi_k(next) / REDUCTION_FACTOR, in log2
        even = after - 4 * math.log2(REDUCTION_FACTOR)
        assert driver._plain_step(h, eigs, even - 1e-9, 0.0, 4) is None
        assert driver._plain_step(h, eigs, even + 1e-9, 0.0, 4) is not None
        # a bottom-k subdiagonal at or below omega keeps it at any L
        assert driver._plain_step(h, eigs, -math.inf, min(moduli), 4) is not None
        assert driver._plain_step(h, eigs, -math.inf, 0.999 * min(moduli), 4) is None

    def test_a_rejected_plain_step_falls_back_with_the_same_corner(self, monkeypatch):
        # every plain step is rejected: it shifts by corner_shifts' values
        # before the corner is certified, ritz_or_decouple gets the one
        # certified list of the iteration's corner, and the small solver
        # sees each such corner once and each leaf of dimension 2 or more
        plain_corners, ritz_corners = [], []
        ritz_or_decouple = driver.ritz_or_decouple

        def rejected(h, shifts, *args):
            plain_corners.append((h.corner(4), shifts, len(solved)))

        solved, _ = spy_small_solver(monkeypatch)  # (entry point, matrix, values)

        def ritz_spy(h, log2_psi_pow_k, corner_eigs, *args):
            ritz_corners.append((h.corner(4), corner_eigs))
            return ritz_or_decouple(h, log2_psi_pow_k, corner_eigs, *args)

        monkeypatch.setattr(driver, "_plain_step", rejected)
        monkeypatch.setattr(driver, "ritz_or_decouple", ritz_spy)
        h, _ = near_normal_hessenberg(np.random.default_rng(11), 32, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=1)
        records = [rec for node in res.tree.nodes.values() for rec in node.trace]
        wide = [leaf for leaf in res.tree.leaves() if len(leaf.eigenvalues) > 1]
        assert records and "plain" not in {rec.branch for rec in records}
        assert len(plain_corners) == len(ritz_corners) == len(records)
        for (corner, shifts, before), (same, corner_eigs) in zip(plain_corners, ritz_corners):
            assert same_bits(corner, same)
            assert same_bits(np.array(shifts), np.array(smalleig.corner_shifts(corner)))
            # the one certified list of this corner, by identity, made after
            # the plain step
            certified = [
                i for i, (_, m, _) in enumerate(solved) if m.shape == corner.shape and same_bits(m, corner)
            ]
            assert len(certified) == 1 and certified[0] >= before
            assert solved[certified[0]][2] is corner_eigs
        assert len(solved) == len(records) + len(wide)

    def test_the_shifts_are_the_values_the_enclosure_certifies(self, monkeypatch):
        # on qr_small's corners, wherever the enclosure certifies one (with
        # every later rung failing), corner_shifts returns the solver's list
        # bit for bit
        corners = []
        corner_shifts = smalleig.corner_shifts
        monkeypatch.setattr(driver, "corner_shifts", lambda c: corners.append(c) or corner_shifts(c))
        rng = np.random.default_rng(11)
        for _ in range(2):
            h, _ = near_normal_hessenberg(rng, 32, perturb=1e-4)
            gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
            plan = driver.plan_run(32, 1e-7, 0.05, gd)
            accuracy = driver.corner_accuracy(plan.params.omega, plan.gd.Sigma)
            start = len(corners)
            shifted_qr(h, 1e-7, 0.05, gd, seed=1)
            corners[start:] = [(c, accuracy) for c in corners[start:]]
        monkeypatch.setattr(smalleig, "_isolated_roots", lambda *args: None)
        compared = 0
        for c, accuracy in corners:
            try:
                vals = smalleig.DEFAULT_SOLVER.solve(c, accuracy)
            except SmallEigFailure:
                continue
            assert same_bits(np.array(corner_shifts(c)), np.array(vals))
            compared += 1
        assert compared > len(corners) // 2 > 0

    def test_a_kept_plain_step_makes_no_small_solver_call(self, monkeypatch):
        # the root block of a qr_small input runs its whole loop on plain
        # steps without calling the small solver; its leaves call it later
        def failing(self, m, beta):
            raise AssertionError("small solver called")

        h, _ = near_normal_hessenberg(np.random.default_rng(11), 32, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
        plan = driver.plan_run(32, 1e-7, 0.05, gd)
        node = driver.DeflationNode(path=(), start=0)
        monkeypatch.setattr(CharPolySolver, "solve", failing)
        blk = HessenbergMatrix(driver.ldexp(h.a, -plan.e), validate=False)
        children = driver._process_block(node, blk, plan, np.random.default_rng(1))
        assert len(children) > 1 and node.trace
        assert {rec.branch for rec in node.trace} == {"plain"}

    def test_where_lapack_fails_the_paper_step_runs_on_the_certified_corner(self, monkeypatch):
        # with no LAPACK values there is no plain step: each iteration
        # certifies its corner once, for the paper's step, and the run stays
        # within the oracle's bound
        monkeypatch.setattr(driver, "corner_shifts", lambda corner: None)
        seen, _ = spy_small_solver(monkeypatch)
        h, _ = near_normal_hessenberg(np.random.default_rng(11), 32, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=1)
        records = [rec for node in res.tree.nodes.values() for rec in node.trace]
        assert records and "plain" not in {rec.branch for rec in records}
        assert [entry for entry, _, _ in seen].count("solve") == len(records)
        rep = condition_report(h.a)
        assert matched_distance(res.eigenvalues, ref_eigs(h.a)) <= rep.kappa_v * 1e-7

    @pytest.mark.parametrize("bits", [80, 32])
    def test_on_mpmath_numbers_a_kept_plain_step_makes_no_small_solver_call(self, monkeypatch, bits):
        # as in binary64, the root block of a near-normal input runs its
        # whole loop on plain steps, each shifted by corner_shifts of its
        # corner rounded to binary64, without calling the small solver
        def failing(self, m, beta):
            raise AssertionError("small solver called")

        shifted = []
        plain_step = driver._plain_step

        def plain_spy(h, shifts, *args):
            shifted.append((h.corner(4), shifts))
            return plain_step(h, shifts, *args)

        h, _ = near_normal_hessenberg(np.random.default_rng(11), 12, perturb=1e-4)
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=12)
        plan = driver.plan_run(12, 1e-7, 0.05, gd, bits)
        node = driver.DeflationNode(path=(), start=0)
        monkeypatch.setattr(CharPolySolver, "solve", failing)
        monkeypatch.setattr(driver, "_plain_step", plain_spy)
        blk = HessenbergMatrix(driver.ldexp(h.to_extended(bits).a, -plan.e), validate=False)
        children = driver._process_block(node, blk, plan, np.random.default_rng(1))
        assert len(children) > 1 and node.trace
        assert {rec.branch for rec in node.trace} == {"plain"}
        assert len(shifted) == len(node.trace)
        for corner, shifts in shifted:
            assert corner.dtype == object and {type(s) for s in shifts} == {complex}
            rounded = corner.astype(np.complex128)
            assert same_bits(np.array(shifts), np.array(smalleig.corner_shifts(rounded)))

    @pytest.mark.parametrize("n, bits", [(32, 53), (16, 32)])
    def test_the_corner_is_certified_once_per_paper_step(self, monkeypatch, n, bits):
        # the cyclic shift mixes plain and paper's steps in either
        # arithmetic: one corner solve for each record that is not "plain",
        # and none for the others
        seen, _ = spy_small_solver(monkeypatch)
        a = np.eye(n, k=-1, dtype=complex)
        a[0, n - 1] = 1.0
        h = HessenbergMatrix(a)
        gd = globals_with_degree(1.0, 4, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=n)
        res = shifted_qr(h if bits == 53 else h.to_extended(bits), 1e-7, 0.05, gd, seed=1)
        branches = Counter(rec.branch for node in res.tree.nodes.values() for rec in node.trace)
        assert branches["plain"] > 0 and len(branches) > 1
        solves = [entry for entry, _, _ in seen].count("solve")
        assert solves == sum(branches.values()) - branches["plain"]

    def test_plain_records_contract_or_deflate(self, qr_small_runs):
        plain = 0
        for res in qr_small_runs:
            for node in res.tree.nodes.values():
                for rec in node.trace:
                    if rec.branch == "plain":
                        plain += 1
                        deflated = rec is node.trace[-1]
                        assert rec.psi_after < REDUCTION_FACTOR * rec.psi_before or deflated
        assert plain > 0

    def test_every_loop_stays_within_n_dec(self, qr_small_runs):
        # every iteration but a loop's last contracts psi by REDUCTION_FACTOR,
        # whatever its branch, which is what bounds a loop by N_dec
        runs = qr_small_runs + [self._cyclic_run(1)]
        for res in runs:
            budget = res.run_params.n_dec_budget
            for node in res.tree.nodes.values():
                assert len(node.trace) <= budget
                for rec in node.trace[:-1]:
                    assert rec.psi_after <= REDUCTION_FACTOR * rec.psi_before

    @pytest.mark.parametrize("seed", [1, 11])
    def test_the_cyclic_shift_still_takes_an_exceptional_step(self, seed):
        # its first corner is nilpotent, so the first plain step shifts by 0
        # k times, which leaves the unitary H where it was: the paper's step
        # runs, and only its exceptional branch moves H
        res = self._cyclic_run(seed)
        branches = Counter(rec.branch for node in res.tree.nodes.values() for rec in node.trace)
        assert res.tree.nodes[()].trace[0].branch == "exceptional"
        assert branches["plain"] > 0
        roots = np.exp(2j * np.pi * np.arange(32) / 32)
        assert matched_distance(res.eigenvalues, roots) <= 1e-7  # kappa_V delta


class TestUnderTheHypotheses:
    """Runs at B = 2 kappa_V and Gamma = gap / 2, which give k = 64.  Both are
    LAPACK's estimates (``condition_report``), not certified bounds."""

    @pytest.mark.parametrize("rng_seed", [1, 5])
    def test_n128_runs_on_plain_steps_without_an_mpmath_corner(self, monkeypatch, rng_seed):
        # these two inputs each met a 64 x 64 corner that only 120-bit
        # mpmath certifies, while the driver certified every corner
        mp_blocks = []
        isolated_roots = smalleig._isolated_roots

        def spy(blk, beta_cert):
            if blk.dtype == object:
                mp_blocks.append(blk.shape[0])
            return isolated_roots(blk, beta_cert)

        monkeypatch.setattr(smalleig, "_isolated_roots", spy)
        h, _ = near_normal_hessenberg(np.random.default_rng(rng_seed), 128, perturb=1e-4)
        rep = condition_report(h.a)
        sigma = 2 * float(h.frobenius_norm())
        gd = derive_globals(2 * rep.kappa_v, Gamma=rep.gap / 2, Sigma=sigma, n0=128)
        assert gd.k == 64
        res = shifted_qr(h, 1e-7, 0.05, gd, seed=1)
        assert res.route == "qr"
        for node in res.tree.nodes.values():
            assert len(node.trace) <= res.run_params.n_dec_budget
        assert matched_distance(res.eigenvalues, np.linalg.eigvals(h.a)) <= rep.kappa_v * 1e-7
        assert mp_blocks == []


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

    def _assert_scaled(self, e, branch):
        base, res = self._run(0), self._run(e)
        np.testing.assert_array_equal(res.eigenvalues, base.eigenvalues * 2.0**e)
        assert any(rec[0] == branch for _, recs in self._records(base) for rec in recs)
        scaled = [
            (path, [(b, s * 2.0**e, p * 2.0**e, q * 2.0**e) for b, s, p, q in recs])
            for path, recs in self._records(base)
        ]
        assert self._records(res) == scaled
        assert res.required_bits == base.required_bits

    @pytest.mark.parametrize("e", [-1000, -600, -280, 0, 280, 600, 1000])
    def test_power_of_two_scaling(self, e, paper_steps):
        self._assert_scaled(e, "ritz_shift")

    @pytest.mark.parametrize("e", [-1000, 1000])
    def test_power_of_two_scaling_with_plain_steps(self, e):
        # the plain step's test is made in log2 on the moduli of the scaled
        # iterate, and moves by k e on both sides
        self._assert_scaled(e, "plain")

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

    def test_hessenberg_matrix_input_is_taken_by_its_array(self):
        # as ``prepare`` takes it; the array is still checked
        a = random_hessenberg(np.random.default_rng(82), 6).a
        h, delta_pre = preprocess(HessenbergMatrix(a), 1e-6, np.random.default_rng(5))
        ref, ref_delta = preprocess(a, 1e-6, np.random.default_rng(5))
        assert h.a.tobytes() == ref.a.tobytes() and delta_pre == ref_delta
        bad = HessenbergMatrix(np.array([[1.0, np.inf], [1.0, 0.0]], dtype=complex), validate=False)
        with pytest.raises(StructureError, match="non-finite entries"):
            preprocess(bad, 1e-6, np.random.default_rng(5))

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


class TestSeed:
    """``shifted_qr`` and ``solve`` check and record the seed alike."""

    @staticmethod
    def _run(entry, seed):
        h, a = near_normal_hessenberg(np.random.default_rng(74), 16, perturb=1e-4)
        if entry == "solve":
            return solve(a, SolveConfig(seed=seed, B=1.0, Gamma=1e-4))
        gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=16)
        return shifted_qr(h, 1e-7, 0.05, gd, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, False])
    def test_shifted_qr_seed_must_be_a_non_negative_integer(self, seed):
        # as in solve (TestSolveEntryPoint), not numpy's own error mid-run
        with pytest.raises(ParameterError, match=f"seed must be a non-negative integer, got {seed}"):
            self._run("shifted_qr", seed)

    @pytest.mark.parametrize("entry", ["shifted_qr", "solve"])
    def test_a_drawn_seed_is_recorded_and_replays_the_run(self, entry):
        first = self._run(entry, None)
        assert isinstance(first.seed, int) and first.seed >= 0
        again = self._run(entry, first.seed)
        assert again.seed == first.seed
        assert again.eigenvalues.tobytes() == first.eigenvalues.tobytes()


class TestSolveEntryPoint:
    def test_identity_two_by_two(self):
        res = solve(np.eye(2, dtype=complex), SolveConfig(preprocess=False, seed=1, B=1.0, Gamma=1e-3))
        np.testing.assert_allclose(sorted(res.eigenvalues.real), [1.0, 1.0], atol=1e-9)
        assert all(not n.trace for n in res.tree.nodes.values())

    def test_default_options_take_the_direct_route(self):
        _, a = near_normal_hessenberg(np.random.default_rng(3), 16)
        res = solve(a, SolveConfig(seed=1))
        assert res.globals_used.k >= 16 and res.route == "direct"

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
        single, sweep = iqr.iqr_single, iqr._zlaqr5_sweep

        def spy(h, s):
            precisions.append(h.a[0, 0].context.prec if h.is_extended else 53)
            return single(h, s)

        def sweep_spy(a, shifts):
            sweeps.append(53 if a.dtype == np.complex128 else None)
            return sweep(a, shifts)

        monkeypatch.setattr(iqr, "iqr_single", spy)
        rng = np.random.default_rng(81)
        a = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), -1)
        config = SolveConfig(preprocess=False, seed=9, B=1.0, Gamma=1e-3, delta=1e-6)
        solve(a, replace(config, bits=80))
        assert precisions and set(precisions) == {80}
        # at 53 bits an 80-bit input runs as its binary64 rounding, whose
        # plain steps are zlaqr5 sweeps
        sweeps = []
        monkeypatch.setattr(iqr, "_zlaqr5_sweep", sweep_spy)
        ext = HessenbergMatrix(HessenbergMatrix(a).to_extended(80).a / 3, validate=False)
        precisions.clear()
        res = solve(ext, config)
        assert sweeps and set(sweeps) == {53}
        assert set(precisions) <= {53}
        ref = solve(ext.a.astype(np.complex128), config)
        assert res.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert (res.run_params, res.globals_used) == (ref.run_params, ref.globals_used)

    def test_zero_matrix_without_preprocessing_raises_without_a_warning(self):
        # delta ||H||_F is 0: the auto bounds see that scale, not the
        # smallest normal number the run's delta falls back to, and name
        # the zero norm as the preprocessing branch does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"\|\|A\|\| = 0"):
                solve(np.zeros((3, 3)), SolveConfig(seed=1, preprocess=False))

    def test_zero_matrix_message_names_the_zero_norm(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"\|\|A\|\| = 0") as info:
                solve(np.zeros((3, 3)), SolveConfig(seed=1))
        assert "delta = 0 or" in str(info.value)

    @pytest.mark.parametrize("preprocess", [True, False])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, False])
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
        for a in (np.zeros((0, 0)), HessenbergMatrix(np.zeros((0, 0)))):
            with pytest.raises(DimensionError, match=r"non-empty square matrix, got shape \(0, 0\)"):
                solve(a, config)

    def test_hessenberg_input_with_preprocessing(self):
        rng = np.random.default_rng(83)
        a = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), -1)
        res = solve(HessenbergMatrix(a), SolveConfig(seed=1))
        ref = solve(a, SolveConfig(seed=1))
        assert res.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert (res.run_params, res.globals_used) == (ref.run_params, ref.globals_used)

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


class TestRunPlan:
    """The route is "direct" exactly when n <= k; the guarantee covers a run
    unless its working precision is below required_bits, k is not
    derive_degree(B), or B < 2."""

    @staticmethod
    def _plan(n, B, k=None, bits=53):
        k = derive_degree(B) if k is None else k
        gd = globals_with_degree(B, k, Gamma=1e-2, Sigma=1.0, n0=n)
        return driver.plan_run(n, 1e-3, 0.05, gd, bits)

    def test_route(self):
        assert derive_degree(2.0) == 64
        assert self._plan(64, 2.0).route == "direct"
        assert self._plan(65, 2.0).route == "qr"
        assert self._plan(65, 2.0, k=128).route == "direct"

    def test_guarantee_covered(self):
        bits = self._plan(200, 2.0).required_bits
        assert bits > 53 and not self._plan(200, 2.0).guarantee_covered
        assert self._plan(200, 2.0, bits=bits).guarantee_covered
        assert not self._plan(200, 2.0, bits=bits - 1).guarantee_covered
        assert not self._plan(200, 1.5, bits=10**6).guarantee_covered  # k derived
        assert not self._plan(200, 2.0, k=32, bits=10**6).guarantee_covered
        assert not self._plan(200, 2.0, k=128, bits=10**6).guarantee_covered

    def test_bits_of_the_run_are_those_of_h(self, monkeypatch):
        # shifted_qr plans at 53 bits for complex128 and at the mpmath
        # context's precision otherwise
        h = random_hessenberg(np.random.default_rng(84), 6)
        gd = derive_globals(2.0, Gamma=1e-4, Sigma=4 * float(h.frobenius_norm()), n0=6)
        seen = []
        plan_run = driver.plan_run
        monkeypatch.setattr(driver, "plan_run", lambda *args: seen.append(args[-1]) or plan_run(*args))
        for m in (h, h.to_extended(80)):
            assert shifted_qr(m, 1e-8, 0.05, gd, seed=1).route == "direct"
        assert seen == [53, 80]


class TestRetries:
    @pytest.mark.parametrize("layer", ["ritz_or_decouple", "sh_step"])
    def test_exhausted_retries_name_the_layer_and_block(self, monkeypatch, paper_steps, layer):
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
            calls.append([m.shape[0]])
            raise SmallEigFailure("could not certify")

        def failing_each(self, ms, beta):
            calls.append([m.shape[0] for m in ms])
            raise SmallEigFailure("could not certify", index=0)

        monkeypatch.setattr(CharPolySolver, "solve", failing)
        monkeypatch.setattr(CharPolySolver, "solve_each", failing_each)
        rng = np.random.default_rng(83)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        with pytest.raises(SmallEigFailure):
            solve(a, SolveConfig(seed=1, **options))
        # on the QR route the first call is for the leaves or for the corner
        # of a rejected plain step: each of dimension 2 to k = 4
        assert len(calls) == 1
        assert all(2 <= d <= 4 for d in calls[0]) if options else calls == [[6]]

    @pytest.mark.parametrize("options", [{"B": 1.0, "Gamma": 1e-3}, {}], ids=["qr", "direct"])
    def test_the_failing_leaf_is_named(self, monkeypatch, options):
        # one leaf that no rung certifies: the error names its block and
        # its rows in the caller's matrix, not the rows inside the leaf
        rng = np.random.default_rng(83)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        config = SolveConfig(seed=1, **options)
        with pytest.MonkeyPatch.context() as mp:
            seen, _ = spy_small_solver(mp)
            res = solve(a, config)
        wide = [leaf for leaf in res.tree.leaves() if len(leaf.eigenvalues) > 1]
        arrays = [m for entry, m, _ in seen if entry == "solve_each"]
        assert len(arrays) == len(wide) > 0 and (len(wide) > 1 or not options)
        leaf, n = wide[-1], len(wide[-1].eigenvalues)
        fail_on(monkeypatch, arrays[-1])
        message = (
            rf"^leaf block {leaf.block_id} at rows {leaf.start}:{leaf.start + n}: could not "
            rf"certify forward accuracy .* at 960 bits for the diagonal block at rows 0:{n} "
            rf"\(dimension {n}\)$"
        )
        with pytest.raises(SmallEigFailure, match=message):
            solve(a, config)
        assert (leaf.block_id == "0") == (not options)

    def test_the_failing_corner_is_named(self, monkeypatch, paper_steps):
        # the last corner the paper's step certifies, of a block below the
        # exact zero at row 2, is one no rung certifies: the error names the
        # block and the corner's rows in the caller's matrix, not the rows
        # inside the corner
        rng = np.random.default_rng(83)
        a = np.triu(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)), -1)
        a[2, 1] = 0
        config = SolveConfig(seed=1, B=1.0, Gamma=1e-3, preprocess=False)
        with pytest.MonkeyPatch.context() as mp:
            seen, _ = spy_small_solver(mp)
            res = solve(a, config)
        corners = [m for entry, m, _ in seen if entry == "solve"]
        loops = [node for node in res.tree.nodes.values() if node.trace]
        assert len(corners) == sum(len(node.trace) for node in loops)
        node = loops[-1]
        below = [leaf for leaf in res.tree.leaves() if leaf.path[: len(node.path)] == node.path]
        stop = node.start + sum(len(leaf.eigenvalues) for leaf in below)
        assert node.start > 0 and stop - node.start > 4
        fail_on(monkeypatch, corners[-1])
        message = (
            rf"^corner of block {node.block_id} at rows {stop - 4}:{stop}: could not certify "
            r"forward accuracy .* at 960 bits for the diagonal block at rows 0:4 \(dimension 4\)$"
        )
        with pytest.raises(SmallEigFailure, match=message):
            solve(a, config)


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

    @needs_long_double
    def test_large_direct_block_certifies_in_binary64(self, monkeypatch):
        # default options derive k = 2048, so a 256 x 256 input goes to the
        # small solver whole.  Its characteristic polynomial is too badly
        # conditioned for the clongdouble rung (the block climbed to mpmath,
        # > 60 s), but the enclosure from np.linalg.eig's eigenvectors
        # certifies it at beta = delta: no mpmath number is made.  perfbench's
        # near-normal recipe at rng seed 3, solver seed 1; the gate is
        # Bauer-Fike against LAPACK on the dense input.
        def no_mpmath(*args):
            raise AssertionError("the small solver entered an mpmath rung")

        _, a = near_normal_hessenberg(np.random.default_rng(3), 256, perturb=1e-4)
        config = SolveConfig(seed=1)
        monkeypatch.setattr(smalleig, "to_mp", no_mpmath)
        eigs = solve(a, config).eigenvalues
        monkeypatch.undo()
        rep = condition_report(a)
        assert matched_distance(eigs, np.linalg.eigvals(a)) <= rep.kappa_v * config.delta * rep.norm

    def test_large_direct_block_certifies_where_clongdouble_is_binary64(
        self, monkeypatch, binary64_clongdouble
    ):
        # where clongdouble is binary64 (MSVC, macOS on arm64), the enclosure
        # still certifies the whole 256 x 256 block of a default-option solve
        # in binary64, where the ladder without it climbed to 120-bit mpmath
        # (> 140 s).  perfbench's near-normal recipe at rng seed 1, solver
        # seed 1.
        def no_mpmath(*args):
            raise AssertionError("the small solver entered an mpmath rung")

        _, a = near_normal_hessenberg(np.random.default_rng(1), 256, perturb=1e-4)
        config = SolveConfig(seed=1)
        monkeypatch.setattr(smalleig, "to_mp", no_mpmath)
        start = time.perf_counter()
        eigs = solve(a, config).eigenvalues
        elapsed = time.perf_counter() - start
        monkeypatch.undo()
        assert elapsed < 2.0
        rep = condition_report(a)
        assert matched_distance(eigs, np.linalg.eigvals(a)) <= rep.kappa_v * config.delta * rep.norm

    def test_qr_small_inputs_pass_where_clongdouble_is_binary64(self, monkeypatch):
        # perfbench's qr_small recipe (n = 32, k = 4, delta = 1e-7) with the
        # small solver's clongdouble binary64: its corners at the binary64
        # floor take the enclosure, the char-poly rung in binary64 and
        # mpmath, and every run lands within kappa_V delta of the reference,
        # which is computed with the real clongdouble
        rng = np.random.default_rng(11)
        cases = [near_normal_hessenberg(rng, 32, perturb=1e-4) for _ in range(4)]
        refs = [(ref_eigs(h.a), condition_report(h.a).kappa_v) for h, _ in cases]
        use_binary64_clongdouble(monkeypatch)
        for (h, _), (ref, kappa_v) in zip(cases, refs):
            gd = derive_globals(1.0, Gamma=1e-4, Sigma=2 * float(h.frobenius_norm()), n0=32)
            assert gd.k == 4
            eigs = shifted_qr(h, 1e-7, 0.05, gd, seed=1).eigenvalues
            assert matched_distance(eigs, ref) <= kappa_v * 1e-7
