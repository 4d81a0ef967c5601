"""Quadratic Hamiltonians held as their normal modes, and their ground states.

H = (1/2m) p^T p + (m/2) q^T V q with uniform mass and a symmetric
positive-definite potential matrix V (units of frequency^2). A model stores
only V's normal modes: the frequencies w = sqrt(eig V) and the orthonormal
eigenvectors O. The ground state is Gaussian with

    Gamma_qq = (1/2m) O diag(1/w) O^T,   Gamma_pp = (m/2) O diag(w) O^T,   Gamma_qp = 0.

Quadratic q-p cross terms and per-site masses are out of scope. A chain's
normal modes are known in closed form (Fourier cos/sin pairs on the ring,
the DCT-II basis on the path), and ``chain_model`` passes them with no
eigensolver and no V; ``QuadraticModel.from_potential`` decomposes any
other V by ``symplectic._spd_eigh``. A model is certified when it is built:
O must be orthonormal to rounding (``_check_normal_modes``), so its ground
state is pure.

Model JSON: ``{"type": "two_oscillator" | "chain", "n": int, "m": number,
"omega": number, "lambda": number, "boundary": "open" | "periodic"}``
(a two_oscillator takes only n = 2 and boundary "open", the defaults).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidStateError, MalformedInputError, ParameterError
from .symplectic import _check_condition, _real_array, _require_residuals, _spd_eigh

BOUNDARIES = ("open", "periodic")
MODEL_TYPES = ("two_oscillator", "chain")
# Model JSON name of each parameter a sweep may vary -> its ModelParams field.
SWEEP_PARAMETERS = {"lambda": "lam", "omega": "omega", "m": "m"}
# Largest mode count of a model. Its eigenvectors then take 8 n^2 bytes =
# 32 MiB (a chain shares them with every chain of its size); its 2n x 2n
# covariance matrix, which only ``ground_state_covariance`` forms, would
# take 32 n^2 bytes = 128 MiB.
MAX_MODES = 2048


def _check_parameters(**values) -> None:
    """The one range check of model parameters: a given mode count ``modes``
    must be an integer (a numpy one too, but not a bool) in 1..MAX_MODES,
    each other value a number by the readers' rule (``_json_number``: not a
    bool or a string), each given ``mass`` and ``frequency`` finite and > 0,
    a ``coupling`` finite and >= 0. ParameterError names the parameter."""
    if "modes" in values:
        modes = values.pop("modes")
        if isinstance(modes, bool) or not isinstance(modes, (int, np.integer)):
            raise ParameterError(f"mode count must be an integer, got {modes!r}")
        if not 1 <= modes <= MAX_MODES:
            raise ParameterError(f"mode count must be in 1..MAX_MODES = {MAX_MODES}, got {modes}")
    for name, value in values.items():
        try:
            number = _json_number(value)
        except (TypeError, OverflowError) as exc:
            raise ParameterError(f"{name}: {exc}") from exc
        zero_ok = name == "coupling"
        if not (math.isfinite(number) and (number > 0.0 or (zero_ok and number == 0.0))):
            raise ParameterError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value}")


def _no_ground_state(exc: Exception) -> ParameterError:
    """The error of a potential that fails ``_spd_eigh`` or ``_check_condition``."""
    return ParameterError(f"potential has no normalizable ground state: {exc}")


_checked_table = None  # the last read-only table to pass ``_check_normal_modes``


def _check_normal_modes(vecs: np.ndarray) -> None:
    """The ground-state certificate of a model's n x n float eigenvectors U:
    ParameterError unless every entry is finite and F = U^T U - I has
    max|F| <= RESIDUAL_FACTOR n eps / 4, held by
    ``symplectic._require_residuals`` with d = n and scale 1/4 as both its
    residuals.

    A read-only array that owns its data is checked once: when it passes, it
    is kept as ``_checked_table`` and skipped while it is the last such array
    checked, since numpy refuses writes to it (only its owner could turn
    them back on, which the package never does). That is a chain's cached
    ``_laplacian_modes`` table, which every build of a chain of its n and
    boundary is handed again. Any other array is checked on every build.

    With D = diag(sqrt(m w)), the factors q = U D^-1 and r = U D
    (``_factor_rows``) give X = q q^T / 2 and P = r r^T / 2, and A = r^T,
    B = q^T make S = A (+) B with S Omega S^T = [[0, G], [-G^T, 0]] and
    S Gamma S^T = G G^T / 2 (+) G^T G / 2 exactly, for G = r^T q
    (Audenaert, Eisert, Plenio, Werner, PRA 66, 042327 (2002)). So S is the
    ground state's Williamson transform, every normal mode a vacuum, exactly
    when U is orthonormal. The certificate once formed G = D (U^T U) D^-1
    and held E = G - I = D F D^-1 to the rounding bounds u sqrt(kappa) of
    its symplectic residual max|E| and u kappa / 2 of its congruence
    residual, taken as max|E| + ||E||_F^2 / 2, with u = RESIDUAL_FACTOR n eps
    and kappa = w_max / w_min >= 1. Each entry of E is F_ij sqrt(w_i / w_j),
    so max|E| <= sqrt(kappa) max|F| and ||E||_F^2 <= kappa n^2 max|F|^2. At
    max|F| <= u / 4 the symplectic residual is at most sqrt(kappa) u / 4,
    and the congruence residual at most kappa u / 4 + kappa n^2 u^2 / 32,
    which is <= kappa u / 2 while n^2 u <= 8, i.e. n^3 <= 1 / (8 eps), for
    n up to 82 000, far beyond MAX_MODES. So every U this check passes
    passed both old bounds at every kappa: it is never looser than the old
    certificate, and it needs no frequencies.
    """
    global _checked_table
    if vecs is _checked_table:
        return
    if not np.isfinite(vecs).all():
        raise ParameterError("normal-mode eigenvectors have a NaN or infinite entry")
    n = len(vecs)
    err = vecs.T @ vecs
    err.flat[:: n + 1] -= 1.0  # F = U^T U - I, in place
    res = np.abs(err, out=err).max()
    _require_residuals("model ground-state certificate", n, res, 0.25, res, 0.25, ParameterError)
    if vecs.flags.owndata and not vecs.flags.writeable:
        _checked_table = vecs


def _check_ground_state(m: float, w_lo: float, w_hi: float) -> None:
    """ParameterError naming m and the frequencies unless the ground-state
    covariance of normal modes of mass m and frequencies in [w_lo, w_hi]
    (finite, > 0) passes ``_check_condition``. Its eigenvalues are
    1/(2 m w) and m w / 2; each bound is one product or quotient of
    positive floats, so an extreme m or w gives 0 or inf, which fails,
    and never an exception or a warning."""
    m, w_lo, w_hi = float(m), float(w_lo), float(w_hi)
    lo = min(0.5 / m / w_hi, 0.5 * m * w_lo)
    hi = max(0.5 / m / w_lo, 0.5 * m * w_hi)
    try:
        _check_condition(lo, hi)
    except InvalidStateError as exc:
        raise ParameterError(
            f"ground state of mass m = {m:.3e} and normal-mode frequencies omega in "
            f"[{w_lo:.3e}, {w_hi:.3e}] is outside the covariance envelope: {exc}"
        ) from exc


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Quadratic Hamiltonian with a normalizable ground state, held as its
    normal modes: ``frequencies`` sqrt(eig V), ascending, and the matching
    orthonormal ``eigenvectors`` (columns), kept as given (a chain's are the
    read-only table it shares with every chain of its n and boundary).

    Every model is checked once, when it is made: the mode count and mass
    (``_check_parameters``), finite, positive, ascending frequencies and
    n x n eigenvectors, the ground state's envelope
    (``_check_ground_state``), and last its certificate, the orthonormality
    of the eigenvectors (``_check_normal_modes``, once per chain table); a
    failure raises ParameterError. A built model's ground state is pure.
    """

    mass: float
    frequencies: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = _real_array(self.frequencies, "real normal-mode frequencies", ParameterError)
        vecs = _real_array(self.eigenvectors, "real normal-mode eigenvectors", ParameterError)
        if w.ndim != 1:
            raise ParameterError(f"frequencies must be a 1-D array, got shape {w.shape}")
        _check_parameters(modes=len(w), mass=self.mass)
        if not (w[0] > 0.0 and math.isfinite(w[-1]) and np.all(np.diff(w) >= 0.0)):
            raise ParameterError("normal-mode frequencies must be finite, > 0 and ascending")
        if vecs.shape != (len(w), len(w)):
            raise ParameterError(f"eigenvectors must be {len(w)}x{len(w)}, got shape {vecs.shape}")
        _check_ground_state(self.mass, w[0], w[-1])
        _check_normal_modes(vecs)
        object.__setattr__(self, "frequencies", w)
        object.__setattr__(self, "eigenvectors", vecs)

    @classmethod
    def from_potential(cls, mass: float, potential) -> "QuadraticModel":
        """The model of a symmetric positive-definite n x n potential V, from
        one ``symplectic._spd_eigh`` run after the mode count check; its
        failure is the ``_no_ground_state`` ParameterError."""
        v = _real_array(potential, "a real potential matrix", ParameterError)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ParameterError(f"potential must be a square matrix, got shape {v.shape}")
        _check_parameters(modes=len(v))
        try:
            [(w, vecs)] = _spd_eigh(v)
        except (InvalidStateError, MalformedInputError) as exc:
            raise _no_ground_state(exc) from exc
        return cls(mass, np.sqrt(w), vecs)

    @property
    def n(self) -> int:
        return len(self.frequencies)


@dataclass(frozen=True)
class TwoOscillatorParams:
    """Two oscillators of mass m and frequency omega, position-coupled with strength lam.

    Accepts exactly the parameters ``chain_model(2, m, omega, lam)`` accepts,
    with the same ParameterError otherwise: it runs that chain's parameter,
    condition and ground-state checks, in its order (frequencies that pass
    them are finite, > 0 and ascending), but not the certificate of its
    fixed, orthonormal 2-mode table. So it builds no model and leaves the
    cached chain table (``_laplacian_modes``) alone.
    """

    m: float
    omega: float
    lam: float

    def __post_init__(self):
        _check_parameters(mass=self.m, frequency=self.omega, coupling=self.lam)
        w = _chain_frequencies(self.m, self.omega, self.lam, _path_eigenvalues(2))
        _check_ground_state(self.m, w[0], w[-1])

    @property
    def alpha(self) -> float:
        """Frequency ratio of the two normal modes, sqrt(1 + 4 lam / (m omega^2)) >= 1."""
        return math.sqrt(1.0 + 4.0 * self.lam / (self.m * self.omega**2))

    def reduced_sigma(self) -> float:
        """Symplectic eigenvalue of either single-oscillator reduction, (1+a)/(4 sqrt(a))."""
        a = self.alpha
        return (1.0 + a) / (4.0 * math.sqrt(a))


def _path_eigenvalues(n: int) -> np.ndarray:
    """The path Laplacian's eigenvalues mu = 4 sin^2(pi k / 2n), k = 0..n-1
    (ascending), as ``_laplacian_modes`` gives them."""
    return 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2


@functools.lru_cache(maxsize=1)
def _laplacian_modes(n: int, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues mu (ascending) and orthonormal eigenvectors (columns) of the
    graph Laplacian L of the ring ("periodic") or the path ("open") of n >= 2
    sites j = 0..n-1, in closed form. The last table is kept, as read-only
    arrays, for the next call with the same n and boundary: every point of a
    sweep, and every chain model it backs, shares it, and the first build
    from it checks it (``_check_normal_modes``).

    Ring: the constant column (k = 0), then for each 1 <= k < n/2, k
    ascending, the pair sqrt(2/n) cos(2 pi k j / n), sqrt(2/n) sin(2 pi k j / n),
    cos first, then for even n the alternating column (-1)^j / sqrt(n)
    (k = n/2); mu = 4 sin^2(pi k / n), equal within each pair. Path: the
    DCT-II columns c_k cos(pi k (2j + 1) / 2n), k = 0..n-1, c_0 = 1/sqrt(n),
    c_k = sqrt(2/n); mu = 4 sin^2(pi k / 2n). Every column's first entry
    that is not zero is positive.

    Each angle is 2 pi t / N for an integer numerator t reduced mod its period
    N (kj mod n on the ring, (2j+1)k mod 4n on the path) and read from a table
    of the N cos (and sin) values, so no angle loses digits to a large argument.
    """
    j = np.arange(n)
    if boundary == "periodic":
        ks = np.arange(1, (n + 1) // 2)
        k = np.concatenate(([0], np.repeat(ks, 2), [n // 2] if n % 2 == 0 else []))
        mu = 4.0 * np.sin(np.pi * k / n) ** 2
        angle = 2.0 * np.pi * j / n
        t = np.outer(j, ks) % n
        vecs = np.empty((n, n))
        vecs[:, 0] = 1.0 / math.sqrt(n)
        vecs[:, 1 : 2 * len(ks) + 1 : 2] = math.sqrt(2.0 / n) * np.cos(angle)[t]
        vecs[:, 2 : 2 * len(ks) + 1 : 2] = math.sqrt(2.0 / n) * np.sin(angle)[t]
        if n % 2 == 0:
            vecs[:, -1] = np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(n)
    else:
        mu = _path_eigenvalues(n)
        table = np.cos(2.0 * np.pi * np.arange(4 * n) / (4 * n))
        vecs = math.sqrt(2.0 / n) * table[np.outer(2 * j + 1, j) % (4 * n)]
        vecs[:, 0] = 1.0 / math.sqrt(n)
    mu.flags.writeable = vecs.flags.writeable = False
    return mu, vecs


def chain_model(
    n: int, m: float, omega: float, lam: float, boundary: str = "open"
) -> QuadraticModel:
    """Harmonic chain with nearest-neighbor coupling lam sum_i (q_i - q_{i+1})^2.

    V = omega^2 I + (2 lam / m) L with L the graph Laplacian of the path
    ("open") or the ring ("periodic", which adds the (n, 1) bond; the ring of
    two has a double bond). The open chain of two modes is the two coupled
    oscillators (``TwoOscillatorParams``).

    The normal modes are L's, in closed form (``_laplacian_modes``): squared
    frequencies omega^2 + (2 lam / m) mu_k, with the ring's Fourier cos/sin
    pairs or the path's DCT-II basis as eigenvectors (Audenaert, Eisert,
    Plenio, Werner, PRA 66, 042327 (2002); Botero & Reznik, PRA 67, 052311
    (2003)). No eigensolver runs and V is never formed. The condition
    numbers of V and of the ground-state covariance must stay below
    1/SINGULAR_RTOL (``symplectic._check_condition``; ParameterError).
    """
    _check_parameters(modes=n, mass=m, frequency=omega, coupling=lam)
    if n < 2:
        raise ParameterError(f"chain needs at least 2 modes, got {n}")
    if boundary not in BOUNDARIES:
        raise ParameterError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")

    mu, vecs = _laplacian_modes(n, boundary)
    return QuadraticModel(m, _chain_frequencies(m, omega, lam, mu), vecs)


def _chain_frequencies(m: float, omega: float, lam: float, mu: np.ndarray) -> np.ndarray:
    """The normal-mode frequencies sqrt(omega^2 + (2 lam / m) mu) of a chain
    whose Laplacian has the ascending eigenvalues ``mu``, once V's eigenvalue
    range passes ``symplectic._check_condition`` (else the
    ``_no_ground_state`` ParameterError)."""
    floor, scale = omega * omega, 2.0 * lam / m
    try:
        _check_condition(floor, floor + scale * float(mu[-1]))  # V's eigenvalue range
    except InvalidStateError as exc:
        raise _no_ground_state(exc) from exc
    return np.sqrt(floor + scale * mu)


def _factor_rows(model: QuadraticModel, rows) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``rows`` (0-based, any numpy row index) of the ground state's
    factors q = O / sqrt(m w) and r = O sqrt(m w): the eigenvectors O with
    column k scaled by the normal mode's 1/sqrt(m w_k) or sqrt(m w_k). The
    ground state is X = q q^T / 2, P = r r^T / 2 (``_check_normal_modes``),
    so a reduction needs its kept rows alone, and no n x n factor is formed
    for them."""
    root = np.sqrt(model.mass * model.frequencies)
    vecs = model.eigenvectors[rows]
    return vecs / root, vecs * root


def _grams(q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram pair x = q q^T and p = r r^T of factor rows q and r of one
    shape, whose state is X (+) P with X = x / 2 and P = p / 2: each is one
    2-D product, so exactly symmetric."""
    return q @ q.T, r @ r.T


def _gram_covariance(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """X (+) P with X = x / 2 and P = p / 2, for a Gram pair (``_grams``)."""
    k = len(x)
    gamma = np.zeros((2 * k, 2 * k))
    gamma[:k, :k] = x / 2.0
    gamma[k:, k:] = p / 2.0
    return gamma


def ground_state_covariance(model: QuadraticModel) -> np.ndarray:
    """Covariance matrix of the model's (pure, Gaussian) ground state, from
    all rows of its factors (``_factor_rows``, ``_gram_covariance``)."""
    return _gram_covariance(*_grams(*_factor_rows(model, slice(None))))


# --- serialization ---------------------------------------------------------


def _json_number(value) -> float:
    """float(value) for a JSON number; TypeError for anything else, a bool or
    a numeric string included. An integer beyond float range raises
    OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


def _is_json_int(value) -> bool:
    """True for a JSON integer: an int that is not a bool (bool is an int subclass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _unique_fields(pairs: list, what: str) -> dict:
    """dict(pairs), or MalformedInputError naming the first key given twice."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise MalformedInputError(f"{what} gives the {key!r} field twice")
        fields[key] = value
    return fields


def _check_fields(fields, what: str, required: tuple = (), optional: tuple = ()) -> None:
    """The one shape rule of a JSON object or a CSV tag set: MalformedInputError
    if ``fields`` is not a dict, has a key that ``what`` does not take (a
    misspelt one would read as absent), or lacks a ``required`` key."""
    if not isinstance(fields, dict):
        raise MalformedInputError(f"{what} must be an object")
    allowed = required + optional
    for key in fields:
        if key not in allowed:
            raise MalformedInputError(
                f"{what} has an unknown field {key!r}; it takes {', '.join(allowed)}"
            )
    for key in required:
        if key not in fields:
            raise MalformedInputError(f"{what} is missing the {key!r} field")


@dataclass(frozen=True)
class ModelParams:
    """Parameter record mirroring the model JSON files read by the CLI."""

    type: str
    m: float
    omega: float
    lam: float
    n: int = 2
    boundary: str = "open"

    def __post_init__(self):
        if self.type not in MODEL_TYPES:
            raise ParameterError(f"model type must be one of {MODEL_TYPES}, got {self.type!r}")
        if self.type == "two_oscillator" and self.n != 2:
            raise ParameterError(f"two_oscillator models have n=2, got n={self.n}")
        if self.type == "two_oscillator" and self.boundary != "open":
            raise ParameterError(
                f"two_oscillator models have boundary 'open', got boundary={self.boundary!r}"
            )
        _check_parameters(modes=self.n)

    def build(self) -> QuadraticModel:
        """The model; two oscillators are the open chain of two modes."""
        return chain_model(self.n, self.m, self.omega, self.lam, self.boundary)

    def with_param(self, name: str, value: float) -> "ModelParams":
        if name not in SWEEP_PARAMETERS:
            raise ParameterError(f"unknown sweep parameter {name!r}, expected lambda, omega, or m")
        return replace(self, **{SWEEP_PARAMETERS[name]: value})

    @classmethod
    def from_json_dict(cls, obj) -> "ModelParams":
        _check_fields(obj, "model JSON", ("type",), ("n", "m", "omega", "lambda", "boundary"))
        try:
            kind = obj["type"]
            m = _json_number(obj["m"])
            omega = _json_number(obj["omega"])
            lam = _json_number(obj["lambda"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise MalformedInputError(f"model JSON needs numeric m, omega, lambda: {exc}") from exc
        n = obj.get("n", 2)
        if not _is_json_int(n):
            raise MalformedInputError(f"model n must be an integer, got {n!r}")
        boundary = obj.get("boundary", "open")
        return cls(type=kind, m=m, omega=omega, lam=lam, n=n, boundary=boundary)

    def to_json_dict(self) -> dict:
        out = {"type": self.type, "m": self.m, "omega": self.omega, "lambda": self.lam, "n": self.n}
        if self.type == "chain":
            out["boundary"] = self.boundary
        return out
