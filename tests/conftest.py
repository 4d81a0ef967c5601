import numpy as np
import pytest

from sympent import random_symplectic, symplectic_form
from sympent.symplectic import mode_count


def random_valid_covariance(n, seed, sigma_range=(0.5, 3.0)):
    """Random physical covariance matrix with known symplectic spectrum."""
    rng = np.random.default_rng(seed)
    sigmas = np.sort(rng.uniform(*sigma_range, size=n))[::-1]
    s = random_symplectic(n, seed + 10_000)
    d = np.diag(np.concatenate([sigmas, sigmas]))
    return s @ d @ s.T, sigmas


def is_symplectic(s, tol=1e-8):
    """True iff the max-abs entry of S Omega S^T - Omega is at most ``tol``."""
    s = np.asarray(s, dtype=float)
    omega = symplectic_form(mode_count(s))
    return bool(np.max(np.abs(s @ omega @ s.T - omega)) <= tol)


def two_mode_squeezed(r):
    """Covariance matrix of the two-mode squeezed vacuum with squeezing r."""
    c, s = np.cosh(2 * r), np.sinh(2 * r)
    return 0.5 * np.array([[c, s, 0, 0], [s, c, 0, 0], [0, 0, c, -s], [0, 0, -s, c]])


def embed_symplectic(s_sub, modes, n):
    """Embed a symplectic acting on the given 1-based modes into n modes."""
    k = len(modes)
    assert s_sub.shape == (2 * k, 2 * k)
    out = np.eye(2 * n)
    idx = [m - 1 for m in modes] + [n + m - 1 for m in modes]
    out[np.ix_(idx, idx)] = s_sub
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Record (name, dtype kind) of each numpy.linalg eigensolver, SVD and
    Cholesky call."""
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "cholesky"):

        def recorded(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.asarray(a).dtype.kind))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls
