import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from hessqr import driver
from hessqr.cli import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_PROBABILISTIC,
    main,
    read_matrix_market,
    run,
)
from hessqr.driver import SolveConfig, plan_run, prepare
from hessqr.errors import ParseError, SmallEigFailure
from hessqr.smalleig import CharPolySolver

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "fixture_n32.mtx")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestMatrixMarketReader:
    def test_dense_complex_roundtrip(self, tmp_path):
        path = _write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix array complex general\n"
            "2 2\n"
            "1.0 0.0\n0.5 -0.25\n0.0 2.0\n-1.0 0.0\n",
        )
        a = read_matrix_market(path)
        np.testing.assert_array_equal(
            a, np.array([[1.0, 2j], [0.5 - 0.25j, -1.0]])
        )

    def test_coordinate_real(self, tmp_path):
        path = _write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment\n"
            "3 3 2\n"
            "1 2 7.5\n"
            "3 1 -1.0\n",
        )
        a = read_matrix_market(path)
        assert a[0, 1] == 7.5 and a[2, 0] == -1.0 and a[1, 1] == 0.0

    def test_hermitian_densified(self, tmp_path):
        path = _write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate complex hermitian\n"
            "2 2 2\n"
            "1 1 1.0 0.0\n"
            "2 1 0.5 0.75\n",
        )
        a = read_matrix_market(path)
        assert a[0, 1] == np.conj(a[1, 0])

    def test_malformed_header(self, tmp_path):
        path = _write(tmp_path, "m.mtx", "%%NotMatrixMarket nonsense\n2 2\n")
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 1

    def test_bad_value_carries_line_number(self, tmp_path):
        path = _write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix array real general\n1 1\nfoo\n",
        )
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 3

    def test_entry_count_mismatch(self, tmp_path):
        path = _write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
        )
        with pytest.raises(ParseError):
            read_matrix_market(path)

    def test_nonsquare_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n",
        )
        with pytest.raises(ParseError):
            read_matrix_market(path)

    def test_skew_symmetric_array_stores_no_diagonal(self, tmp_path):
        head = "%%MatrixMarket matrix array real skew-symmetric\n2 2\n"
        a = read_matrix_market(_write(tmp_path, "m.mtx", head + "3\n"))
        np.testing.assert_array_equal(a, np.array([[0, -3], [3, 0]], dtype=np.complex128))
        with pytest.raises(ParseError) as err:
            read_matrix_market(_write(tmp_path, "diag.mtx", head + "0\n3\n0\n"))
        assert err.value.line == 5

    def test_integer_out_of_range(self, tmp_path):
        path = _write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix array integer general\n1 1\n123456789012345678901234\n",
        )
        with pytest.raises(ParseError) as err:
            read_matrix_market(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "header",
        ["array real general\n0 0", "coordinate real general\n0 0 0"],
        ids=["array", "coordinate"],
    )
    def test_empty_matrix_rejected(self, tmp_path, header):
        path = _write(tmp_path, "m.mtx", f"%%MatrixMarket matrix {header}\n")
        # In a child process: scipy's mmread kills the interpreter on an
        # array file of size 0 0, so a reader that reaches it fails here.
        pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "hessqr.cli", "solve", path],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_BAD_INPUT, proc.stderr
        assert proc.stderr == "error: matrix must be square and non-empty, got 0x0\n"

    @pytest.mark.parametrize("fmt", ["array", "coordinate"])
    @pytest.mark.parametrize(
        "field, symmetry",
        [
            (field, symmetry)
            for field in ("real", "integer", "complex")
            for symmetry in ("general", "symmetric", "hermitian", "skew-symmetric")
            if symmetry != "hermitian" or field == "complex"
        ],
    )
    def test_scipy_written_files_read_back_exactly(self, tmp_path, fmt, field, symmetry):
        rng = np.random.default_rng(7)
        if field == "integer":
            m = rng.integers(-9, 10, size=(3, 3))
        elif field == "real":
            m = rng.standard_normal((3, 3))
        else:
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = {
            "general": m,
            "symmetric": m + m.T,
            "hermitian": m + m.conj().T,
            "skew-symmetric": m - m.T,
        }[symmetry]
        path = str(tmp_path / "m.mtx")
        written = m if fmt == "array" else scipy.sparse.coo_matrix(m)
        scipy.io.mmwrite(path, written, field=field, symmetry=symmetry)
        assert scipy.io.mminfo(path)[3:] == (fmt, field, symmetry)
        a = read_matrix_market(path)
        assert a.dtype == np.complex128
        np.testing.assert_array_equal(a, m.astype(np.complex128))


def _identity_mtx(tmp_path):
    return _write(
        tmp_path,
        "eye.mtx",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n",
    )


class TestRun:
    def test_identity_base_case(self, tmp_path):
        document, _ = run(
            _identity_mtx(tmp_path),
            SolveConfig(seed=3, preprocess=False, B=1.0, Gamma=1e-3),
            out_json=str(tmp_path / "out.json"),
            out_trace=str(tmp_path / "out.csv"),
        )
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc == document
        assert sorted(e["re"] for e in doc["eigenvalues"]) == pytest.approx([1.0, 1.0], abs=1e-9)
        assert len(doc["eigenvalues"]) == 2
        trace = (tmp_path / "out.csv").read_text().splitlines()
        assert trace == ["block_id,iteration,psi_k,branch,shift_re,shift_im,psi_after,retries"]

    def test_json_roundtrip_exact(self, tmp_path):
        document, _ = run(
            FIXTURE,
            SolveConfig(seed=11, preprocess=False, B=1.0, Gamma=1e-3),
            out_json=str(tmp_path / "out.json"),
        )
        doc = json.loads((tmp_path / "out.json").read_text())
        back = [complex(e["re"], e["im"]) for e in doc["eigenvalues"]]
        assert back == [complex(e["re"], e["im"]) for e in document["eigenvalues"]]

    def test_trace_rows_within_budget(self, tmp_path):
        document, _ = run(
            FIXTURE,
            SolveConfig(seed=11, preprocess=False, B=1.0, Gamma=1e-3),
            out_trace=str(tmp_path / "t.csv"),
        )
        budget = document["params"]["n_dec_budget"]
        per_block = {}
        for row in (tmp_path / "t.csv").read_text().splitlines()[1:]:
            block_id = row.split(",")[0]
            per_block[block_id] = per_block.get(block_id, 0) + 1
        assert per_block and all(v <= budget + 1 for v in per_block.values())


class TestMain:
    def test_solve_exit_codes(self, tmp_path, capsys):
        path = _identity_mtx(tmp_path)
        code = main(
            [
                "solve", path, "--seed", "5", "--no-preprocess",
                "--B", "1", "--gamma-gap", "1e-3",
                "--out-json", str(tmp_path / "e.json"),
            ]
        )
        assert code == EXIT_OK
        assert "solved n=2" in capsys.readouterr().out

    def test_malformed_input_exit_two(self, tmp_path, capsys):
        bad = _write(tmp_path, "bad.mtx", "%%MatrixMarket bogus\n")
        assert main(["solve", bad]) == EXIT_BAD_INPUT
        assert "line 1" in capsys.readouterr().err
        bad_value = _write(
            tmp_path, "value.mtx", "%%MatrixMarket matrix array real general\n1 1\nfoo\n"
        )
        assert main(["solve", bad_value]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: line 3:")

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.mtx")]) == EXIT_BAD_INPUT

    def test_bad_config_exit_two(self, tmp_path, capsys):
        path = _identity_mtx(tmp_path)
        assert main(["solve", path, "--phi", "2.0"]) == EXIT_BAD_INPUT
        assert main(["solve", path, "--bits", "8"]) == EXIT_BAD_INPUT
        assert main(["solve", path, "--delta", "0"]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("command", ["solve", "info"])
    @pytest.mark.parametrize(
        "options, message",
        [
            (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
            (["--delta", "nan"], "--delta must be finite and > 0, got nan"),
            (["--delta", "inf"], "--delta must be finite and > 0, got inf"),
            (["--gamma-gap", "-1"], "the given Gamma=-1.0 must be positive and finite"),
            (["--gamma-gap", "inf"], "the given Gamma=inf must be positive and finite"),
            (["--B", "inf"], "the given B=inf is not a finite number"),
            (["--B", "inf", "--gamma-gap", "1e-3"], "the given B=inf is not a finite number"),
            (["--bits", "23"], "bits must be an integer >= 24, got 23"),
        ],
    )
    def test_out_of_range_values_are_named(self, tmp_path, capsys, command, options, message):
        path = _identity_mtx(tmp_path)
        assert main([command, path] + options) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "info"])
    def test_bad_phi_is_rejected_before_preprocessing(self, tmp_path, capsys, monkeypatch, command):
        def refuse(*args):
            raise AssertionError("preprocess ran before phi was checked")

        monkeypatch.setattr(driver, "preprocess", refuse)
        assert main([command, _identity_mtx(tmp_path), "--phi", "2"]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == "error: failure tolerance must be in (0,1), got 2.0\n"

    def test_unknown_option_exit_two(self, tmp_path, capsys):
        # no --sigma: Sigma is always 2 ||H||_F
        for option in (["--threads", "2"], ["--sigma", "1e-3"]):
            with pytest.raises(SystemExit) as exc:
                main(["solve", _identity_mtx(tmp_path)] + option)
            assert exc.value.code == EXIT_BAD_INPUT

    def test_info_reports_parameters(self, tmp_path, capsys):
        path = _identity_mtx(tmp_path)
        code = main(["info", path, "--seed", "4", "--B", "1", "--gamma-gap", "1e-3"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 4
        assert doc["globals"]["k"] == 4
        assert doc["globals"]["gamma"] == 0.2
        assert doc["params"]["required_bits"] > 53  # binary64 is not covered here
        assert doc["bits"] == 53
        assert "eigenvalues" not in doc


def _random_mtx(tmp_path, n, hessenberg, e=0):
    """A random n x n matrix times 2^e (the same one for every e)."""
    rng = np.random.default_rng(90 + n)
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 2.0**e
    if hessenberg:
        a = np.triu(a, -1)
    lines = ["%%MatrixMarket matrix array complex general", f"{n} {n}"]
    lines += [f"{float(z.real)!r} {float(z.imag)!r}" for z in a.T.ravel()]
    return _write(tmp_path, f"a{e}.mtx", "\n".join(lines) + "\n")


def _solve_checking_info(tmp_path, capsys, path, options):
    """The document `solve --out-json` writes, once `info` with the same
    file and options has printed exactly that document without the
    eigenvalues."""
    assert main(["info", path] + options) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    out = tmp_path / "e.json"
    assert main(["solve", path, "--out-json", str(out)] + options) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert printed == {k: v for k, v in doc.items() if k != "eigenvalues"}
    return doc


def _hessenberg_options(gamma_gap):
    return ["--seed", "21", "--no-preprocess", "--B", "1", "--gamma-gap", repr(gamma_gap)]


class TestInfoMatchesSolve:
    """`info` prints the document that `solve` with the same options writes,
    without the eigenvalues (``_solve_checking_info``, which the tests of
    omega's underflow, the extreme scalings and B = 1e80 use too)."""

    @pytest.mark.parametrize(
        "options, hessenberg",
        [
            # default parameters: k >= n, one direct solve
            (["--seed", "21"], False),
            (_hessenberg_options(1e-3), True),
            # omega = delta/(4n): the absolute delta must agree as well
            (_hessenberg_options(1e-3) + ["--delta", "1e-9"], True),
            # the QR iteration on mpmath numbers
            (_hessenberg_options(1e-3) + ["--bits", "80"], True),
        ],
        ids=["defaults", "qr", "qr-delta", "bits-80"],
    )
    def test_info_is_solve_without_eigenvalues(self, tmp_path, capsys, options, hessenberg):
        path = _random_mtx(tmp_path, 6, hessenberg)
        assert _solve_checking_info(tmp_path, capsys, path, options)["seed"] == 21

    def test_log2_omega_where_omega_underflows(self, tmp_path, capsys):
        # at 2^-1000 omega = Gamma / (8 n^2 B^2) / (4n) underflows binary64,
        # and omega 2^e is 0, in the caller's units; log2 omega + e is not
        path = _random_mtx(tmp_path, 6, True, -1000)
        options = _hessenberg_options(1e-20 * 2.0**-1000)
        config = SolveConfig(seed=21, B=1.0, Gamma=1e-20 * 2.0**-1000, preprocess=False)
        h, gd, delta, _ = prepare(read_matrix_market(path), config)
        plan = plan_run(h.n, delta, config.phi, gd)
        expected = math.log2(plan.params.omega) + plan.e
        assert expected < -1074  # below the least subnormal
        params = _solve_checking_info(tmp_path, capsys, path, options)["params"]
        assert params["omega"] == 0.0
        assert params["log2_omega"] == expected


class TestBetaUnderflow:
    """beta = omega^2 / (1616 Sigma) underflows binary64 at Gamma = 1e-160
    although omega does not: both commands reject the QR route up front,
    and the direct route (n <= k = 4) still solves."""

    @pytest.mark.parametrize("command", ["solve", "info"])
    def test_qr_route_is_a_parameter_error(self, tmp_path, capsys, command):
        path = _random_mtx(tmp_path, 8, True)
        assert main([command, path] + _hessenberg_options(1e-160)) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: corner accuracy beta underflows binary64")

    def test_direct_route_solves(self, tmp_path, capsys):
        path = _random_mtx(tmp_path, 4, True)
        doc = _solve_checking_info(tmp_path, capsys, path, _hessenberg_options(1e-160))
        assert doc["globals"]["k"] == 4 and len(doc["eigenvalues"]) == 4


class TestSmallEigFailure:
    @pytest.mark.parametrize(
        "options", [["--B", "1", "--gamma-gap", "1e-3"], []], ids=["qr", "direct"]
    )
    def test_exit_two_on_both_routes(self, tmp_path, capsys, monkeypatch, options):
        def failing(self, m, beta):
            raise SmallEigFailure("could not certify")

        monkeypatch.setattr(CharPolySolver, "solve", failing)
        path = _random_mtx(tmp_path, 6, False)
        assert main(["solve", path, "--seed", "21"] + options) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == "error: could not certify\n"


class TestBudgetExceeded:
    def test_exit_three(self, tmp_path, capsys, stalled_iteration):
        path = _random_mtx(tmp_path, 6, False)
        argv = ["solve", path, "--seed", "21", "--B", "1", "--gamma-gap", "1e-3"]
        assert main(argv) == EXIT_PROBABILISTIC
        err = capsys.readouterr().err
        assert err.startswith("error: block 0 exceeded N_dec=") and stalled_iteration


class TestExtremeScaling:
    def test_info_and_solve_at_two_to_the_600(self, tmp_path, capsys):
        # 2^600 overflows psi^k, omega^2 and the squares in ||H||_F, and
        # 2^-600 underflows them; info and solve give the 2^0 answers
        bits, eigs = {}, {}
        for e in (0, 600, -600):
            path = _random_mtx(tmp_path, 6, True, e)
            doc = _solve_checking_info(tmp_path, capsys, path, _hessenberg_options(1e-3 * 2.0**e))
            bits[e] = doc["params"]["required_bits"]
            eigs[e] = [complex(v["re"], v["im"]) * 2.0**-e for v in doc["eigenvalues"]]
        assert bits[600] == bits[-600] == bits[0] > 53
        assert eigs[600] == eigs[-600] == eigs[0]

    @pytest.mark.parametrize("e", [600, -600])
    def test_default_bounds_out_of_range_is_a_parameter_error(self, tmp_path, capsys, e):
        # default B = n/delta_pre and Gamma = (delta_pre/n)^2 leave binary64 here
        path = _random_mtx(tmp_path, 6, True, e)
        assert main(["info", path, "--seed", "21", "--no-preprocess"]) == EXIT_BAD_INPUT
        assert "pass explicit B and Gamma" in capsys.readouterr().err


class TestNonFiniteEntries:
    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["solve", "--no-preprocess"], ["info"]],
        ids=["solve", "no-preprocess", "info"],
    )
    def test_exit_two(self, tmp_path, capsys, argv):
        # scipy reads inf and nan; the solver rejects them, on either route
        path = _write(
            tmp_path,
            "m.mtx",
            "%%MatrixMarket matrix array real general\n2 2\n1.0\ninf\nnan\n2.0\n",
        )
        assert main(argv[:1] + [path, "--seed", "1"] + argv[1:]) == EXIT_BAD_INPUT
        assert "non-finite entries" in capsys.readouterr().err


class TestNormBeyondBinary64:
    """[[s, s], [s, -s]] has ||.||_F = 2s and ||.||_2 = sqrt(2) s."""

    @staticmethod
    def _mtx(tmp_path, s):
        lines = ["%%MatrixMarket matrix array real general", "2 2"]
        lines += [repr(v) for v in (s, s, s, -s)]  # column-major
        return _write(tmp_path, "big.mtx", "\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "argv", [["solve"], ["solve", "--no-preprocess"], ["info"]], ids=["solve", "no-preprocess", "info"]
    )
    def test_frobenius_norm_overflow_is_an_error(self, tmp_path, capsys, argv):
        path = self._mtx(tmp_path, 1e308)
        assert main(argv[:1] + [path, "--seed", "1"] + argv[1:]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: matrix norm")

    def test_sigma_overflow_is_a_parameter_error(self, tmp_path, capsys):
        # ||H||_F = 1.2e308 is finite, Sigma = 2 ||H||_F is not
        path = self._mtx(tmp_path, 6e307)
        argv = ["solve", path, "--seed", "1", "--B", "1", "--gamma-gap", "1e300"]
        assert main(argv) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: Gamma=") and "Sigma=inf must be positive and finite" in err


class TestHugeConditionBound:
    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "fixture_n32.mtx")

    def test_b_1e80_info_and_solve(self, tmp_path, capsys):
        # B^4 overflows binary64; alpha, theta and the budget do not
        options = ["--seed", "21", "--B", "1e80", "--gamma-gap", "1e-3"]
        doc = _solve_checking_info(tmp_path, capsys, self.FIXTURE, options)
        assert doc["globals"]["k"] >= 32  # a direct solve
        assert doc["params"]["required_bits"] > 53
        assert len(doc["eigenvalues"]) == 32

    def test_b_1e300_is_a_parameter_error(self, capsys):
        # omega = Gamma / (8 n^2 B^2) / (4n) underflows binary64
        options = ["--seed", "21", "--B", "1e300", "--gamma-gap", "1e-3"]
        assert main(["info", self.FIXTURE] + options) == EXIT_BAD_INPUT
        assert "omega underflows" in capsys.readouterr().err
