import numpy as np
import pytest

from sympent import QuadraticModel, random_symplectic, symplectic_form
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


@pytest.fixture
def linalg_shapes(monkeypatch):
    """Record (name, argument shape) of each numpy.linalg Cholesky and SVD call."""
    shapes = []
    for name in ("cholesky", "svd"):

        def recorded(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            shapes.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


def formula_modes(n, boundary):
    """The closed-form Laplacian modes of the path ("open") or the ring
    ("periodic"), eigenvalues mu ascending and eigenvectors as columns,
    column by column. Each angle's integer numerator is reduced mod its
    period first, so no angle loses digits to a large argument."""
    j = np.arange(n)
    if boundary == "open":
        cols = [np.full(n, 1.0 / np.sqrt(n))]
        cols += [np.sqrt(2.0 / n) * np.cos(np.pi * (k * (2 * j + 1) % (4 * n)) / (2 * n)) for k in range(1, n)]
        return [4.0 * np.sin(np.pi * k / (2 * n)) ** 2 for k in range(n)], np.array(cols).T
    ks, cols = [0], [np.full(n, 1.0 / np.sqrt(n))]
    for k in range(1, (n + 1) // 2):
        ks += [k, k]
        cols += [np.sqrt(2.0 / n) * f(2.0 * np.pi * (k * j % n) / n) for f in (np.cos, np.sin)]
    if n % 2 == 0:
        ks.append(n // 2)
        cols.append((-1.0) ** j / np.sqrt(n))
    return [4.0 * np.sin(np.pi * k / n) ** 2 for k in ks], np.array(cols).T


def formula_model(n, m, omega, lam, boundary):
    """A direct ``QuadraticModel`` of the chain of ``chain_model(n, m, omega,
    lam, boundary)``, built from ``formula_modes``: it carries eigenvectors
    for the certificate to check, which a chain does not."""
    mu, vecs = formula_modes(n, boundary)
    return QuadraticModel(m, np.sqrt(omega**2 + (2.0 * lam / m) * np.array(mu)), vecs)


@pytest.fixture
def cut_grams_calls(monkeypatch):
    """Record the rows of each ``models._cut_grams`` call, the one source of a
    model's reductions, at every module that calls it."""
    from sympent import entropy, models, states

    calls = []
    real = models._cut_grams

    def recorded(model, rows):
        calls.append(rows)
        return real(model, rows)

    for module in (models, states, entropy):
        monkeypatch.setattr(module, "_cut_grams", recorded)
    return calls
