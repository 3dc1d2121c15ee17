import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings
from hypothesis import strategies as st

from hessqr import driver, oracle, smalleig
from hessqr.iqr import HessenbergMatrix, kept_step, log2_potential_pow_k

# Property tests draw the same examples on every run and may take as long as
# an mpmath solve needs.
settings.register_profile(
    "hessqr", deadline=None, derandomize=True, max_examples=50, database=None
)
settings.load_profile("hessqr")


needs_long_double = pytest.mark.skipif(
    not oracle._LONG_DOUBLE_TIER, reason="clongdouble has no 64-bit significand here"
)


def fail_on(monkeypatch, target):
    """Patch the small solver's ladder so that every rung leaves a block
    bit for bit equal to the array target uncertified."""
    enclosed, block_roots = smalleig._enclosed_roots, smalleig._block_roots

    def hit(blk):
        return blk.shape == target.shape and same_bits(blk, target)

    def enclosing(blocks, beta_cert):
        return [None if hit(b) else r for b, r in zip(blocks, enclosed(blocks, beta_cert))]

    monkeypatch.setattr(smalleig, "_enclosed_roots", enclosing)
    monkeypatch.setattr(smalleig, "_block_roots", lambda blk, *args: None if hit(blk) else block_roots(blk, *args))


def same_bits(x, y):
    """Equal arrays, bit for bit (numpy dtypes) or number for number (mpmath).

    A long double is compared by value and sign, which is bit for bit on its
    significant bits: an x87 80-bit value is stored with padding bytes that
    carry no value and need not agree."""
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    if x.dtype == object:
        return all(type(p) is type(q) and p == q for p, q in zip(x.ravel(), y.ravel()))
    if x.dtype == np.clongdouble:
        return same_bits(x.real, y.real) and same_bits(x.imag, y.imag)
    if x.dtype == np.longdouble:
        nan = np.isnan(x) & np.isnan(y)
        return bool(((x == y) | nan).all() and (np.signbit(x) == np.signbit(y)).all())
    return x.tobytes() == y.tobytes()


def random_hessenberg(rng, n, scale=1.0):
    """Dense complex Ginibre matrix truncated to Hessenberg form."""
    a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    return HessenbergMatrix(np.triu(scale * a, -1))


def near_normal_hessenberg(rng, n, spread=1.0, perturb=1e-5):
    """Hessenberg form of a normal matrix plus a small Ginibre perturbation.

    kappa_V stays within a hair of 1, eigenvalues are well spread; the
    workhorse fixture for runs that must satisfy the condition-bound
    hypotheses."""
    evals = spread * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = q @ np.diag(evals) @ q.conj().T
    a = a + perturb * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    h = scipy.linalg.hessenberg(a)
    return HessenbergMatrix(np.triu(h, -1)), a


def psi_k(h, k):
    """psi_k(H) = 2^(L/k) with L = log2 psi_k(H)^k, as a float; needs n > k."""
    return 2.0 ** (log2_potential_pow_k(h.bottom_subdiagonal_abs(k)) / k)


def hessenberg_of(a):
    return HessenbergMatrix(np.triu(scipy.linalg.hessenberg(np.asarray(a, complex)), -1))


def companion(coeffs):
    """Companion matrix with first row coeffs: unreduced upper Hessenberg."""
    n = len(coeffs)
    c = np.zeros((n, n), dtype=complex)
    c[0, :] = coeffs
    return c + np.diag(np.ones(n - 1), -1)


@st.composite
def hard_matrices(draw, ns=None):
    """(2^e a, e): a companion, lower-Jordan, sparse, dense or Hessenberg
    small matrix a, scaled by 2^e for e in {-200, 0, 200}.  The dimension is
    drawn from ns, or else from 1..8 for Hessenberg and 1..5 for the other
    kinds.  The sparse and dense draws keep their upper Hessenberg part,
    exact zeros included."""
    kind = draw(st.sampled_from(["companion", "jordan", "zeros", "dense", "hessenberg"]))
    if ns is None:
        n = draw(st.integers(1, 8 if kind == "hessenberg" else 5))
    else:
        n = draw(st.sampled_from(ns))
    ints = st.integers(-3, 3)
    if kind == "companion":
        a = companion(draw(st.lists(ints, min_size=n, max_size=n)))
    elif kind == "jordan":
        # one defective block: lambda on the diagonal, ones below it
        a = draw(ints) * np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), -1)
    else:
        entries = st.sampled_from([0, 0, 0, 1, -2, 1j]) if kind == "zeros" else ints
        flat = draw(st.lists(entries, min_size=n * n, max_size=n * n))
        a = np.triu(np.array(flat, dtype=complex).reshape(n, n), -1)
    e = draw(st.sampled_from([-200, 0, 200]))
    return np.ldexp(1.0, e) * a, e


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def paper_steps(monkeypatch):
    """The driver's plain degree-k step is always rejected, so that every
    iteration runs the paper's Ritz-or-decouple step and ``sh_step``."""
    monkeypatch.setattr(driver, "_plain_step", lambda *args: None)


@pytest.fixture
def stalled_iteration(monkeypatch, paper_steps):
    """The driver's steps never change H: a plain step that is rejected,
    Ritz values that are never optimal and never decouple, then a
    ritz_shift step whose iterate is H itself, kept by ``iqr.kept_step``
    as sh_step keeps its ritz_shift steps.  Returns the list of every
    sh_step call's H."""
    calls = []
    monkeypatch.setattr(driver, "ritz_or_decouple", lambda h, *args: ((0j,) * 4, None))

    def sh_step(h, log2_psi_pow_k, ritz, omega, rng, gd):
        calls.append(h)
        return kept_step(h, "ritz_shift", 0j, gd.k, omega, math.inf)

    monkeypatch.setattr(driver, "sh_step", sh_step)
    return calls


class _NumpyWithBinary64Clongdouble:
    """numpy, but for ``clongdouble``, which is ``complex128``."""

    def __getattr__(self, name):
        return np.complex128 if name == "clongdouble" else getattr(np, name)


def use_binary64_clongdouble(monkeypatch):
    """From here on the small solver runs as where clongdouble is binary64
    (MSVC, macOS on arm64): ``smalleig`` sees a numpy whose ``clongdouble``
    is complex128.  The oracle keeps the real numpy."""
    monkeypatch.setattr(smalleig, "np", _NumpyWithBinary64Clongdouble())


@pytest.fixture
def binary64_clongdouble(monkeypatch):
    """``use_binary64_clongdouble`` for the whole test."""
    use_binary64_clongdouble(monkeypatch)
