import os
import subprocess
import sys

import numpy as np
import pytest

import hessqr
from hessqr import oracle, smalleig
from hessqr.errors import SmallEigFailure
from hessqr.oracle import matched_distance, ref_eigs
from hessqr.smalleig import CharPolySolver

SOLVER = CharPolySolver()


class TestCharPolySolver:
    def test_diagonal(self):
        vals = SOLVER.solve(np.diag([3.0, -1.0, 2.0]).astype(complex), 1e-10, 0.1)
        assert sorted(v.real for v in vals) == pytest.approx([-1.0, 2.0, 3.0])

    def test_companion(self):
        c = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        vals = SOLVER.solve(c, 1e-14, 0.1)
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        assert matched_distance(np.array(vals), expected) <= 1e-14

    def test_forward_accuracy_vs_oracle(self):
        rng = np.random.default_rng(30)
        for n in (2, 3, 4, 8):
            for _ in range(8):
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                beta = 1e-12 * np.linalg.norm(m)
                vals = SOLVER.solve(m, beta, 0.1)
                assert len(vals) == n
                assert matched_distance(np.array(vals), ref_eigs(m)) <= beta

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = SOLVER.solve(m, 1e-10, 0.1)
        b = SOLVER.solve(m, 1e-10, 0.1)
        assert a == b

    def test_output_sorted(self):
        rng = np.random.default_rng(32)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        vals = SOLVER.solve(m, 1e-10, 0.1)
        assert vals == sorted(vals, key=lambda z: (z.real, z.imag))

    def test_tiny_beta_clamped_to_representation(self):
        # beta far below ulp scale: certification degrades gracefully
        rng = np.random.default_rng(33)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vals = SOLVER.solve(m, 1e-30, 0.1)
        assert matched_distance(np.array(vals), ref_eigs(m)) <= 1e-13

    def test_reducible_exact(self):
        # a Jordan block is already triangular: splits into exact 1x1 blocks
        j = np.diag(np.ones(3), 1).astype(complex)
        assert SOLVER.solve(j, 1e-18, 0.1) == [0j, 0j, 0j, 0j]

    def test_multiple_root_cluster(self):
        # companion of (z-1)^4: defective but unreduced; the cluster still
        # certifies by escalating precision
        c = np.zeros((4, 4), dtype=complex)
        c[0, :] = [4.0, -6.0, 4.0, -1.0]
        c += np.diag(np.ones(3), -1)
        vals = SOLVER.solve(c, 1e-10, 0.1)
        assert all(abs(v - 1.0) <= 1e-10 for v in vals)

    def test_defective_beyond_precision_fails_loudly(self):
        import mpmath

        c = np.zeros((4, 4), dtype=complex)
        c[0, :] = [4.0, -6.0, 4.0, -1.0]
        c += np.diag(np.ones(3), -1)
        obj = np.empty((4, 4), dtype=object)
        for i in range(4):
            for j in range(4):
                obj[i, j] = mpmath.mpc(c[i, j])
        # multiplicity 4 limits the cluster accuracy to ~2^(-prec/4); a demand
        # of 1e-80 would need more than the precision cap
        with pytest.raises(SmallEigFailure):
            SOLVER.solve(obj, 1e-80, 0.1)

    def test_extended_input_roundtrip(self):
        import mpmath

        rng = np.random.default_rng(34)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        obj = np.empty((3, 3), dtype=object)
        for i in range(3):
            for j in range(3):
                obj[i, j] = mpmath.mpc(m[i, j])
        vals = SOLVER.solve(obj, 1e-20, 0.1)
        assert all(isinstance(v, mpmath.mpc) for v in vals)
        assert matched_distance(
            np.array([complex(v) for v in vals]), ref_eigs(m)
        ) <= 1e-13


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

    def test_one_mpmath_lock(self):
        assert oracle.MP_LOCK is smalleig.MP_LOCK
