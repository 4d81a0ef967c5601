"""Symplectic linear algebra for covariance matrices in qqpp ordering.

Conventions used throughout the package: the quadrature vector is
r = (q_1..q_n, p_1..p_n), units are fixed so hbar = 1, the symplectic form is
Omega = [[0, I], [-I, 0]], and a physical state has every symplectic
eigenvalue >= 1/2 (vacuum covariance I/2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidStateError,
    MalformedInputError,
    NumericalFailureError,
    ParameterError,
)

# A normal-form residual may be this many times the rounding bound
# d eps |A||B| of its matrix products (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., 3.5), with d the length of their sums and
# |A||B| bounded by the factors' 2-norms (``_require_residuals``). The worst
# measured ratio is 9.2, a 7x margin: williamson's symplectic residual over
# 60 000 planted states of 1 to 3 modes (OpenBLAS, 2 cores).
RESIDUAL_FACTOR = 64
# Relative eigenvalue floor below which a symmetric matrix counts as singular
# (used only by _check_condition): a condition number must stay below 1e12,
# which for a two-mode squeezed vacuum means squeezing r < ln(1e12)/4 ~ 6.9.
SINGULAR_RTOL = 1e-12
# Absolute tolerance for symmetry of inputs.
SYMMETRY_ATOL = 1e-12


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Omega = [[0, I_n], [-I_n, 0]].

    Omega is skew-symmetric with Omega^T = Omega^{-1} = -Omega.
    """
    n = _positive_count(n)
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


def _is_count(kind: type) -> bool:
    """The one count rule, on a value's type: a Python or numpy integer, never
    a bool (True == 1, but counts nothing). Exact int, the common case, goes first."""
    return kind is int or (kind is not bool and issubclass(kind, (int, np.integer)))


def _is_real(kind: type) -> bool:
    """The one real-number rule, on a value's type: a Python or numpy float or
    a count (``_is_count``), so never a bool, a string, a complex or None."""
    return kind is float or issubclass(kind, (float, np.floating)) or _is_count(kind)


def _number(value) -> float:
    """``value`` as the float to compute with: TypeError unless it is a real number
    (``_is_real``), OverflowError for an integer beyond float range."""
    if not _is_real(type(value)):
        raise TypeError(f"expected a real number, got {value!r}")
    return float(value)


def _nonnegative_number(value, what: str) -> float:
    """``value`` as a float (``_number``): ParameterError naming ``what`` unless finite, >= 0."""
    try:
        number = _number(value)
    except (TypeError, OverflowError):
        number = np.nan
    if not 0.0 <= number < np.inf:
        raise ParameterError(f"{what} must be a finite number >= 0, got {value!r}")
    return number


def _positive_count(n) -> int:
    """The mode count ``n`` of a state or transform to build, as an int:
    DimensionError unless it is a count (``_is_count``) >= 1."""
    if not (_is_count(type(n)) and n >= 1):
        raise DimensionError(f"mode count must be a positive integer, got {n!r}")
    return int(n)


def _real_array(value, what: str, error: type[Exception] = MalformedInputError) -> np.ndarray:
    """The one real-array rule: ``value`` as a float array. Every quadrature
    moment, phase point and model parameter is a real number (``_is_real``),
    so only an integer or float dtype is converted. Any other, complex,
    bool, string or object, raises ``error`` naming ``what`` and the dtype
    (the conversion would drop an imaginary part, read a bool as 0 or 1 and
    parse a string), and ragged nested lists, which numpy cannot make an
    array of, raise it naming ``what`` and numpy's cause."""
    try:
        array = np.asarray(value)
    except ValueError as exc:
        raise error(f"expected {what}: {exc}") from exc
    if array.dtype.kind not in "iuf":
        raise error(f"expected {what}, got dtype {array.dtype}")
    return array.astype(float, copy=False)


def _as_matrix(matrix) -> tuple[np.ndarray, int]:
    """The one entry of a formed 2n x 2n matrix: it as a real float array
    (``_real_array``, MalformedInputError), and its mode count
    (``mode_count``, DimensionError)."""
    matrix = _real_array(matrix, "a real matrix of quadrature moments")
    return matrix, mode_count(matrix)


# Row-panel height of ``_max_asymmetry``: a panel and its transposed partner
# stay in cache, where G - G^T strides across the whole of G.
_SYMMETRY_PANEL = 64

# The three helpers below take a square matrix or, for the stacked Gram pairs
# of ``_gram_spectrum``, a stack of them (leading axis), and test the whole
# input at once.


def _check_finite(matrix: np.ndarray) -> None:
    """The package's one NaN/inf test: MalformedInputError unless every entry is finite."""
    if not np.isfinite(matrix).all():
        raise MalformedInputError("matrix has a NaN or infinite entry")


def _max_asymmetry(matrix: np.ndarray):
    """max |G - G^T| of a square matrix, or of a whole stack, bit for bit,
    taken over row panels G[i:i+b, i:] against their transposed column
    panels G[i:, i:i+b], which cover every pair of mirrored entries."""
    b = _SYMMETRY_PANEL
    panels = (
        np.abs(matrix[..., i : i + b, i:] - np.swapaxes(matrix[..., i:, i : i + b], -1, -2))
        for i in range(0, matrix.shape[-1], b)
    )
    return functools.reduce(np.maximum, (panel.max() for panel in panels))


def _check_symmetric(matrix: np.ndarray) -> None:
    """The package's one asymmetry test: MalformedInputError unless a square
    float matrix is finite (``_check_finite``) and symmetric within
    SYMMETRY_ATOL."""
    _check_finite(matrix)
    asym = _max_asymmetry(matrix)
    if asym > SYMMETRY_ATOL:
        raise MalformedInputError(
            f"matrix is asymmetric: max |G - G^T| = {asym:.3e} > {SYMMETRY_ATOL:.0e}"
        )


def _check_condition(lo: float, hi: float) -> None:
    """The package's one SINGULAR_RTOL comparison: InvalidStateError unless a
    symmetric matrix with eigenvalues in [lo, hi] is positive definite with a
    condition number below 1/SINGULAR_RTOL. A NaN bound fails."""
    if not (hi > 0.0 and lo > SINGULAR_RTOL * hi):
        raise InvalidStateError(
            "matrix is not positive definite or is too ill-conditioned: eigenvalues in "
            f"[{lo:.3e}, {hi:.3e}], the smallest must exceed "
            f"SINGULAR_RTOL = {SINGULAR_RTOL:.0e} times the largest"
        )


def _spd_eigh(*blocks: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues (ascending) and eigenvectors of each diagonal block of a
    symmetric positive-definite matrix.

    The package's one positive-definiteness test of a formed matrix, for
    covariance matrices and model potentials alike (a model reduction's Gram
    pair is tested by its Cholesky factors, ``_gram_spectrum``); pass a
    whole matrix as its only block. Each square float block goes through ``_check_symmetric``
    (MalformedInputError). Raises InvalidStateError (``_check_condition``) if
    the block-diagonal matrix they form has a condition number of
    1/SINGULAR_RTOL or more (its eigenvalues are those of all the blocks
    together). Callers check the shapes.
    """
    for block in blocks:
        _check_symmetric(block)
    pairs = [np.linalg.eigh(block) for block in blocks]
    _check_condition(np.min([w[0] for w, _ in pairs]), np.max([w[-1] for w, _ in pairs]))
    return pairs


def _xp_blocks(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The blocks X = gamma_qq and P = gamma_pp of a 2n x 2n matrix whose q-p
    blocks are exactly zero, as every model ground state and each of its
    reductions has; None for any other matrix."""
    n = len(gamma) // 2
    if gamma[:n, n:].any() or gamma[n:, :n].any():
        return None
    return gamma[:n, :n], gamma[n:, n:]


def _hermitian_form(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H = i C^T Omega C, Hermitian with eigenvalues +-sigma_i, and the
    eigenpairs (w, v) of gamma (``_spd_eigh``) it is built from. With
    C = v diag(sqrt(w)), gamma = C C^T and C^T Omega C is similar to
    gamma Omega; with C's row halves C_q, C_p it is M - M^T, M = C_q^T C_p."""
    [(w, v)] = _spd_eigh(gamma)
    c = v * np.sqrt(w)
    n = len(w) // 2
    m = c[:n].T @ c[n:]
    return 1j * (m - m.T), w, v


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """The columns of ``vecs``, each scaled by a unit number so that its first
    component above 1e-12 times its largest modulus is real and positive.
    Real columns are multiplied by exactly +1 or -1."""
    mag = np.abs(vecs)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    pick = vecs[lead, np.arange(vecs.shape[1])]
    return vecs * (pick.conj() / np.abs(pick))


def _require_residuals(
    what: str, d: int, res_gamma: float, scale_gamma: float, res_omega: float, scale_omega: float,
    error: type[Exception] = NumericalFailureError,
) -> None:
    """The one residual rule of a normal-form transform S: raise ``error``
    naming both residuals and their bounds unless each is at most
    RESIDUAL_FACTOR * d * eps times its scale, a bound on the product of its
    factors' 2-norms: ``scale_gamma`` for the congruence S Gamma S^T,
    ``scale_omega`` for S Omega S^T. ``d`` is the length of the products'
    sums. A NaN residual fails."""
    unit = RESIDUAL_FACTOR * d * np.finfo(float).eps
    bound_gamma, bound_omega = unit * scale_gamma, unit * scale_omega
    if not (res_gamma <= bound_gamma and res_omega <= bound_omega):
        raise error(
            f"{what} exceeded its rounding bound: residuals "
            f"{res_gamma:.3e} (congruence), {res_omega:.3e} (symplectic) "
            f"against bounds {bound_gamma:.3e}, {bound_omega:.3e}"
        )


def symplectic_spectrum(gamma: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a positive-definite matrix, sorted descending.

    The eigenvalues of gamma @ Omega are purely imaginary pairs +-i*sigma_i;
    the returned sigma_i are their absolute values: the positive eigenvalues
    of the Hermitian i C^T Omega C of gamma's factor C (``_hermitian_form``),
    from a symmetric eigensolver and with no matrix square root. When
    gamma = X (+) P has no q-p correlations, C = C_x (+) C_p and
    C^T Omega C = [[0, M], [-M^T, 0]], M = C_x^T C_p, so the sigma_i are the
    singular values of the real n x n matrix M (Peschel 2003; Audenaert,
    Eisert, Plenio, Werner 2002). Gamma's condition number must stay below
    1/SINGULAR_RTOL (``_spd_eigh``).
    """
    gamma, n = _as_matrix(gamma)
    blocks = _xp_blocks(gamma)
    if blocks is not None:
        (wx, vx), (wp, vp) = _spd_eigh(*blocks)
        return np.linalg.svd((vx * np.sqrt(wx)).T @ (vp * np.sqrt(wp)), compute_uv=False)
    eigs = np.linalg.eigvalsh(_hermitian_form(gamma)[0])
    return eigs[::-1][:n].copy()


def _gram_spectrum(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues, sorted descending, of the state X (+) P with
    X = x / 2 and P = p / 2, given its Gram pair x = q q^T and p = r r^T, or
    of each slice of a stack of pairs: a model reduction's route.

    With Cholesky factors x = L_x L_x^T and p = L_p L_p^T, X P is similar to
    M M^T / 4, M = L_x^T L_p, so sigma = sv(M) / 2 (Audenaert, Eisert,
    Plenio, Werner, PRA 66, 042327 (2002)). Each Gram goes through
    ``_check_symmetric`` (MalformedInputError), and a failed Cholesky, the
    positive-definite test, raises NumericalFailureError. No condition test
    is needed: a reduction's X and P are principal submatrices of the
    certified ground state's, so by Cauchy interlacing their condition
    numbers are at most w_max / w_min over the model's frequencies, which
    ``models._check_ground_state`` holds below 1/SINGULAR_RTOL.

    A (P, k, k) stack pair gives a (P, k) array whose row i is bit for bit
    the spectrum of pair i alone: numpy's stacked cholesky, matmul and svd
    make the same LAPACK and BLAS call for each slice. Each check tests the
    whole stack and names no slice.
    """
    _check_symmetric(x)
    _check_symmetric(p)
    try:
        lx, lp = np.linalg.cholesky(x), np.linalg.cholesky(p)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            "model reduction is not positive definite: the Cholesky factorization "
            "of its Gram pair failed"
        ) from exc
    return np.linalg.svd(np.swapaxes(lx, -1, -2) @ lp, compute_uv=False) / 2.0


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


def williamson(gamma: np.ndarray) -> WilliamsonDecomposition:
    """Williamson normal form of a symmetric positive-definite 2n x 2n matrix.

    Construction: the eigenvectors of H = i C^T Omega C (``_hermitian_form``,
    eigenvalues +-sigma_i), mapped back by gamma's eigenvectors v, are those
    of i A, A = v C^T Omega C v^T = gamma^{1/2} Omega gamma^{1/2}. For the
    n positive ones they are u = (a - i b)/sqrt(2), which give each mode's
    orthonormal (q, p) basis pair (a, b): A a = -sigma b and A b = sigma a.
    With O the rows a_1..a_n, b_1..b_n, the symplectic congruence is
    S_w = normal_form^{1/2} @ O @ gamma^{-1/2}, with gamma^{-1/2} applied
    as its factors v diag(w^{-1/2}) v^T.

    Modes are sorted by descending sigma; equal sigma keep the reverse of
    ``numpy.linalg.eigh``'s order, so identical input gives an identical
    transform. Each u is scaled by a unit phase so that its first component
    above 1e-12 times its largest is real and positive.

    Raises NumericalFailureError (``_require_residuals``, d = 2n) if either
    residual ``max|S_w gamma S_w^T - normal_form|`` or
    ``max|S_w Omega S_w^T - Omega|`` exceeds its rounding bound, from
    ||S_w||^2 <= sigma_max / w_min and ||gamma|| = w_max over gamma's
    eigenvalues w; so within gamma's condition limit a transform fails only
    when it is wrong, not when the state is squeezed.
    """
    gamma, n = _as_matrix(gamma)
    omega = symplectic_form(n)
    herm, w, v = _hermitian_form(gamma)
    eigs, vecs = np.linalg.eigh(herm)
    vecs = v @ vecs
    sigmas = eigs[n:][::-1]
    u = _fix_phases(vecs[:, n:][:, ::-1])
    ortho = np.sqrt(2.0) * np.concatenate([u.real, -u.imag], axis=1).T
    sig_pair = np.concatenate([sigmas, sigmas])
    normal_form = np.diag(sig_pair)
    transform = ((np.sqrt(sig_pair)[:, None] * ortho) @ v / np.sqrt(w)) @ v.T

    s_norm_sq = sigmas[0] / w[0]
    _require_residuals(
        "normal-form construction",
        2 * n,
        float(np.max(np.abs(transform @ gamma @ transform.T - normal_form))),
        s_norm_sq * w[-1],
        float(np.max(np.abs(transform @ omega @ transform.T - omega))),
        s_norm_sq,
    )
    return WilliamsonDecomposition(spectrum=sigmas, transform=transform, normal_form=normal_form)


def _haar_passive(rng: np.random.Generator, n: int) -> np.ndarray:
    """The passive (orthogonal symplectic) transform [[Re U, -Im U],
    [Im U, Re U]], which maps the mode operators a = (q + i p)/sqrt(2) to
    U a, of a Haar-random n x n unitary U: the Q of the QR decomposition of a
    complex Gaussian matrix, each column scaled by the phase of R's diagonal
    entry (Mezzadri, Notices AMS 54, 592 (2007))."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diag(r)
    u = q * (d / np.abs(d))
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def random_symplectic(n: int, seed: int, scale: float = 0.4) -> np.ndarray:
    """Deterministic-for-seed random symplectic matrix with singular values
    in [e^-scale, e^scale].

    The Bloch-Messiah form passive(U_1) @ diag(e^-r, e^r) @ passive(U_2)
    (Braunstein, PRA 71, 055801 (2005)): U_1 and U_2 Haar unitaries, then
    one squeezing r_k per mode drawn uniformly from [-scale, scale]. Every
    factor is symplectic and the passive ones are orthogonal, so the
    singular values are the e^(+-r_k): ||S||_2 <= e^scale and cond(S) <=
    e^(2 scale).

    ``n`` must be a count >= 1 (DimensionError) and ``scale`` a finite real
    number >= 0 (ParameterError).
    """
    n = _positive_count(n)
    width = _nonnegative_number(scale, "scale")
    rng = np.random.default_rng(seed)
    passive_1, passive_2 = _haar_passive(rng, n), _haar_passive(rng, n)
    r = rng.uniform(-width, width, size=n)
    return (passive_1 * np.exp(np.concatenate([-r, r]))) @ passive_2
