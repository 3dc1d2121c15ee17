import numpy as np
import pytest
import scipy.linalg
from hypothesis import settings

from hessqr.iqr import HessenbergMatrix

# Property tests draw the same examples on every run and may take as long as
# an mpmath solve needs.
settings.register_profile(
    "hessqr", deadline=None, derandomize=True, max_examples=50, database=None
)
settings.load_profile("hessqr")


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


def hessenberg_of(a):
    return HessenbergMatrix(np.triu(scipy.linalg.hessenberg(np.asarray(a, complex)), -1))


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
