"""Symplectic linear algebra for covariance matrices in qqpp ordering.

Conventions used throughout the package: the quadrature vector is
r = (q_1..q_n, p_1..p_n), units are fixed so hbar = 1, the symplectic form is
Omega = [[0, I], [-I, 0]], and a physical state has every symplectic
eigenvalue >= 1/2 (vacuum covariance I/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, schur

from .errors import DimensionError, InvalidStateError, NumericalFailureError

# Default absolute tolerance for residual checks (max-abs entry).
DEFAULT_TOL = 1e-8
# Relative eigenvalue floor below which a symmetric matrix counts as singular
# (used only by _spd_eigh): a condition number must stay below 1e12, which for
# a two-mode squeezed vacuum means squeezing r < ln(1e12)/4 ~ 6.9.
SINGULAR_RTOL = 1e-12
# Absolute tolerance for symmetry of inputs.
SYMMETRY_ATOL = 1e-12


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Omega = [[0, I_n], [-I_n, 0]].

    Omega is skew-symmetric with Omega^T = Omega^{-1} = -Omega.
    """
    if n < 1:
        raise DimensionError(f"mode count must be a positive integer, got {n}")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def mode_count(matrix: np.ndarray) -> int:
    """Mode count n for a square 2n x 2n matrix; rejects odd or non-square shapes."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {matrix.shape}")
    dim = matrix.shape[0]
    if dim == 0 or dim % 2 != 0:
        raise DimensionError(f"expected even dimension 2n with n >= 1, got {dim}")
    return dim // 2


def is_symplectic(s: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the max-abs entry of S Omega S^T - Omega is at most ``tol``."""
    s = np.asarray(s, dtype=float)
    n = mode_count(s)
    omega = symplectic_form(n)
    return bool(np.max(np.abs(s @ omega @ s.T - omega)) <= tol)


def _spd_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a symmetric positive-definite matrix.

    The package's one positive-definiteness test, for covariance matrices and
    model potentials alike. Raises InvalidStateError if the square float array
    has a NaN or infinite entry, is asymmetric beyond SYMMETRY_ATOL, or has a
    condition number of 1/SINGULAR_RTOL or more. Callers check the shape.
    """
    if not np.all(np.isfinite(matrix)):
        raise InvalidStateError("matrix has a NaN or infinite entry")
    asym = float(np.max(np.abs(matrix - matrix.T)))
    if asym > SYMMETRY_ATOL:
        raise InvalidStateError(
            f"matrix is not symmetric: max |G - G^T| = {asym:.3e} > {SYMMETRY_ATOL:.0e}"
        )
    w, v = np.linalg.eigh(matrix)
    if w[-1] <= 0.0 or w[0] <= SINGULAR_RTOL * w[-1]:
        raise InvalidStateError(
            "matrix is not positive definite or is too ill-conditioned: eigenvalues in "
            f"[{w[0]:.3e}, {w[-1]:.3e}], the smallest must exceed SINGULAR_RTOL = "
            f"{SINGULAR_RTOL:.0e} times the largest"
        )
    return w, v


def symplectic_spectrum(gamma: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive-definite matrix, sorted descending.

    The eigenvalues of gamma @ Omega are purely imaginary pairs +-i*sigma_i;
    the returned sigma_i are their absolute values. They are computed as the
    positive eigenvalues of the Hermitian matrix
    i * gamma^{1/2} @ Omega @ gamma^{1/2}, which shares them exactly and keeps
    the computation inside a symmetric eigensolver. gamma^{1/2} comes from
    ``_spd_eigh``, so gamma's condition number must stay below 1/SINGULAR_RTOL.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
    w, v = _spd_eigh(gamma)
    root = (v * np.sqrt(w)) @ v.T
    herm = 1j * (root @ symplectic_form(n) @ root)
    eigs = np.linalg.eigvalsh(herm)
    return eigs[::-1][:n].copy()


@dataclass(frozen=True, eq=False)
class WilliamsonDecomposition:
    """Result of the Williamson normal-form construction.

    ``transform @ gamma @ transform.T == normal_form`` with ``transform``
    symplectic and ``normal_form = diag(sigma_1..sigma_n, sigma_1..sigma_n)``,
    sigma sorted descending.
    """

    spectrum: np.ndarray
    transform: np.ndarray
    normal_form: np.ndarray


def williamson(gamma: np.ndarray, tol: float = DEFAULT_TOL) -> WilliamsonDecomposition:
    """Williamson normal form of a symmetric positive-definite 2n x 2n matrix.

    Construction: the real antisymmetric matrix A = gamma^{1/2} Omega gamma^{1/2}
    is brought to canonical block form by a real orthogonal transform (Schur
    form with fixed block signs and deterministic ordering), and the symplectic
    congruence is assembled as S_w = normal_form^{1/2} @ O @ gamma^{-1/2}.

    Degeneracies are resolved deterministically: blocks sorted by descending
    sigma (stable), and each mode's basis-vector pair is sign-fixed so that the
    first significant component of its q-type vector is positive.

    Raises NumericalFailureError if either residual
    ``max|S_w gamma S_w^T - normal_form|`` or ``max|S_w Omega S_w^T - Omega|``
    exceeds ``tol``.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
    omega = symplectic_form(n)
    w, v = _spd_eigh(gamma)
    root = (v * np.sqrt(w)) @ v.T
    invroot = (v / np.sqrt(w)) @ v.T

    anti = root @ omega @ root
    t, q = schur(anti, output="real")

    # Each 2x2 diagonal block of t is [[0, b], [-b, 0]] up to rounding; fix
    # signs so b > 0, carrying the matching column swap on q.
    sigmas = np.empty(n)
    q_vecs = []
    p_vecs = []
    for k in range(n):
        b = t[2 * k, 2 * k + 1]
        u = q[:, 2 * k]
        v = q[:, 2 * k + 1]
        if b < 0.0:
            u, v = v, u
            b = -b
        sigmas[k] = b
        q_vecs.append(u)
        p_vecs.append(v)

    order = np.argsort(-sigmas, kind="stable")
    sigmas = sigmas[order]
    q_vecs = [q_vecs[i] for i in order]
    p_vecs = [p_vecs[i] for i in order]

    for k in range(n):
        u = q_vecs[k]
        lead = int(np.argmax(np.abs(u) > 1e-12 * np.max(np.abs(u))))
        if u[lead] < 0.0:
            q_vecs[k] = -u
            p_vecs[k] = -p_vecs[k]

    ortho = np.column_stack(q_vecs + p_vecs).T
    sig_pair = np.concatenate([sigmas, sigmas])
    normal_form = np.diag(sig_pair)
    transform = (np.sqrt(sig_pair)[:, None] * ortho) @ invroot

    res_gamma = float(np.max(np.abs(transform @ gamma @ transform.T - normal_form)))
    res_omega = float(np.max(np.abs(transform @ omega @ transform.T - omega)))
    if res_gamma > tol or res_omega > tol:
        raise NumericalFailureError(
            "normal-form construction exceeded tolerance "
            f"{tol:.1e}: residuals {res_gamma:.3e} (congruence), {res_omega:.3e} (symplectic)"
        )
    return WilliamsonDecomposition(spectrum=sigmas, transform=transform, normal_form=normal_form)


def random_symplectic(n: int, seed: int, scale: float = 0.4) -> np.ndarray:
    """Deterministic-for-seed random symplectic matrix.

    Exponentiates Omega @ K for a random symmetric K, which always lands in
    the symplectic group; ``scale`` controls how far from the identity the
    result wanders (kept moderate so congruences stay well conditioned).
    """
    if n < 1:
        raise DimensionError(f"mode count must be a positive integer, got {n}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2 * n, 2 * n)) * (scale / np.sqrt(2 * n))
    k = (g + g.T) / 2.0
    return expm(symplectic_form(n) @ k)
