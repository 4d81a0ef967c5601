"""Quadratic Hamiltonians and their ground states.

H = (1/2m) p^T p + (m/2) q^T V q with uniform mass and a symmetric
positive-definite potential matrix V (units of frequency^2). With V's normal
modes, the frequencies w = sqrt(eig V) and the orthonormal eigenvectors O,
the ground state is Gaussian with

    Gamma_qq = (1/2m) O diag(1/w) O^T,   Gamma_pp = (m/2) O diag(w) O^T,   Gamma_qp = 0.

Quadratic q-p cross terms and per-site masses are out of scope. Two kinds of
model stand for such a ground state. A ``QuadraticModel`` stores w and O;
``QuadraticModel.from_potential`` decomposes any V by
``symplectic._spd_eigh``, and a model is certified when it is built: O must
be orthonormal to rounding (``_check_normal_modes``), so its ground state is
pure. A ``ChainModel`` (``chain_model``) stores its five parameters and no
array: its frequencies are in closed form, and its correlators are
circulant on the ring and Toeplitz plus Hankel on the path, one real FFT
each (``_cut_grams``), so its ground state is pure by construction.

Model JSON: ``{"type": "two_oscillator" | "chain", "n": int, "m": number,
"omega": number, "lambda": number, "boundary": "open" | "periodic"}``
(a two_oscillator takes only n = 2 and boundary "open", the defaults).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidStateError, MalformedInputError, ParameterError
from .symplectic import _check_condition, _is_count, _number, _real_array, _require_residuals, _spd_eigh

BOUNDARIES = ("open", "periodic")
MODEL_TYPES = ("two_oscillator", "chain")
# Model JSON name of each parameter a sweep may vary -> its ModelParams field,
# in the order a sweep CSV's model line writes those it does not vary.
SWEEP_PARAMETERS = {"m": "m", "omega": "omega", "lambda": "lam"}
# Largest mode count of a model. A ``QuadraticModel``'s eigenvectors then take
# 8 n^2 bytes = 32 MiB (a ``ChainModel`` holds no array); the 2n x 2n
# covariance matrix, which only ``ground_state_covariance`` forms, would take
# 32 n^2 bytes = 128 MiB.
MAX_MODES = 2048


def _check_parameters(**values) -> list[float]:
    """The one range check of model parameters, by the readers' count and number
    rules: a given ``modes`` a count (``symplectic._is_count``) in 1..MAX_MODES,
    each other value a real number (``symplectic._number``), a ``mass`` and
    ``frequency`` finite and > 0, a ``coupling`` finite and >= 0, else a
    ParameterError naming it. Returns the others, in order, as floats."""
    if "modes" in values:
        modes = values.pop("modes")
        if not _is_count(type(modes)):
            raise ParameterError(f"mode count must be an integer, got {modes!r}")
        if not 1 <= modes <= MAX_MODES:
            raise ParameterError(f"mode count must be in 1..MAX_MODES = {MAX_MODES}, got {modes}")
    numbers = []
    for name, value in values.items():
        try:
            number = _number(value)
        except (TypeError, OverflowError) as exc:
            raise ParameterError(f"{name}: {exc}") from exc
        zero_ok = name == "coupling"
        if not (math.isfinite(number) and (number > 0.0 or (zero_ok and number == 0.0))):
            raise ParameterError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value}")
        numbers.append(number)
    return numbers


def _no_ground_state(exc: Exception) -> ParameterError:
    """The error of a potential that fails ``_spd_eigh`` or ``_check_condition``."""
    return ParameterError(f"potential has no normalizable ground state: {exc}")


def _check_normal_modes(vecs: np.ndarray) -> None:
    """The ground-state certificate of a model's n x n float eigenvectors U:
    ParameterError unless every entry is finite and F = U^T U - I has
    max|F| <= RESIDUAL_FACTOR n eps / 4, held by
    ``symplectic._require_residuals`` with d = n and scale 1/4 as both its
    residuals.

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
    if not np.isfinite(vecs).all():
        raise ParameterError("normal-mode eigenvectors have a NaN or infinite entry")
    n = len(vecs)
    err = vecs.T @ vecs
    err.flat[:: n + 1] -= 1.0  # F = U^T U - I, in place
    res = np.abs(err, out=err).max()
    _require_residuals("model ground-state certificate", n, res, 0.25, res, 0.25, ParameterError)


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
    orthonormal ``eigenvectors`` (columns), kept as given.

    Every model is checked once, when it is made: the mode count and mass
    (``_check_parameters``), finite, positive, ascending frequencies and
    n x n eigenvectors, the ground state's envelope
    (``_check_ground_state``), and last its certificate, the orthonormality
    of the eigenvectors (``_check_normal_modes``); a failure raises
    ParameterError. A built model's ground state is pure.
    """

    mass: float
    frequencies: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = _real_array(self.frequencies, "real normal-mode frequencies", ParameterError)
        vecs = _real_array(self.eigenvectors, "real normal-mode eigenvectors", ParameterError)
        if w.ndim != 1:
            raise ParameterError(f"frequencies must be a 1-D array, got shape {w.shape}")
        [mass] = _check_parameters(modes=len(w), mass=self.mass)
        if not (w[0] > 0.0 and math.isfinite(w[-1]) and np.all(np.diff(w) >= 0.0)):
            raise ParameterError("normal-mode frequencies must be finite, > 0 and ascending")
        if vecs.shape != (len(w), len(w)):
            raise ParameterError(f"eigenvectors must be {len(w)}x{len(w)}, got shape {vecs.shape}")
        _check_ground_state(mass, w[0], w[-1])
        _check_normal_modes(vecs)
        object.__setattr__(self, "mass", mass)
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

    Takes what ``chain_model(2, m, omega, lam)`` takes, by the one chain check
    (``ChainModel``), as floats.
    """

    m: float
    omega: float
    lam: float

    def __post_init__(self):
        pair = ChainModel(2, self.m, self.omega, self.lam)
        for name, value in zip(("m", "omega", "lam"), (pair.mass, pair.omega, pair.lam)):
            object.__setattr__(self, name, value)

    @property
    def alpha(self) -> float:
        """Frequency ratio of the two normal modes, sqrt(1 + 4 lam / (m omega^2)) >= 1."""
        return math.sqrt(1.0 + 4.0 * self.lam / (self.m * self.omega**2))

    def reduced_sigma(self) -> float:
        """Symplectic eigenvalue of either single-oscillator reduction, (1+a)/(4 sqrt(a))."""
        a = self.alpha
        return (1.0 + a) / (4.0 * math.sqrt(a))


def _laplacian_eigenvalues(k, period: int):
    """The Laplacian eigenvalues mu = 4 sin^2(pi k / N) at the wave numbers ``k``
    (the ring's N = n, the path's 2n); one k's mu is bit for bit an array's entry."""
    return 4.0 * np.sin(np.pi * k / period) ** 2


@dataclass(frozen=True)
class ChainModel:
    """Harmonic chain of ``n`` sites with nearest-neighbor coupling
    ``lam`` sum_i (q_i - q_{i+1})^2 (``chain_model``), held as its five
    parameters and no array.

    The one check of a chain runs when it is made: ``_check_parameters``,
    n >= 2, the boundary, the condition of V's range
    [omega^2, omega^2 + (2 lam / m) mu_max], with mu_max of one wave number,
    and the ground-state envelope (``_check_ground_state``); a failure
    raises ParameterError.

    Its normal modes are those of the graph Laplacian L of the path
    ("open") or the ring ("periodic"): the path's DCT-II basis
    c_k cos(pi k (2j + 1) / 2n), k = 0..n-1, and the ring's Fourier modes
    (a cos/sin pair of each 0 < k < n/2), with mu_k = 4 sin^2(pi k / N),
    N = 2n on the path and n on the ring (Audenaert, Eisert, Plenio, Werner,
    PRA 66, 042327 (2002); Botero & Reznik, PRA 67, 052311 (2003)).

    Its ground state is pure by construction: X and P (``_cut_grams``) are
    O diag(1/(2 m w)) O^T and O diag(m w / 2) O^T for one orthogonal O, the
    Fourier or DCT-II basis, so X P = O diag(1/4) O^T = I/4, and every
    symplectic eigenvalue, the square root of an eigenvalue of X P, is 1/2.
    """

    n: int
    mass: float
    omega: float
    lam: float
    boundary: str = "open"

    def __post_init__(self):
        n = self.n
        m, omega, lam = _check_parameters(modes=n, mass=self.mass, frequency=self.omega, coupling=self.lam)
        if n < 2:
            raise ParameterError(f"chain needs at least 2 modes, got {n}")
        if self.boundary not in BOUNDARIES:
            raise ParameterError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        period, k = (n, n // 2) if self.boundary == "periodic" else (2 * n, n - 1)  # mu_max's k
        floor = omega * omega
        top = floor + 2.0 * lam / m * float(_laplacian_eigenvalues(k, period))
        try:
            _check_condition(floor, top)  # V's eigenvalue range
        except InvalidStateError as exc:
            raise _no_ground_state(exc) from exc
        _check_ground_state(m, math.sqrt(floor), math.sqrt(top))
        for name, value in zip(("n", "mass", "omega", "lam"), (int(n), m, omega, lam)):
            object.__setattr__(self, name, value)

    @property
    def frequencies(self) -> np.ndarray:
        """sqrt(omega^2 + (2 lam / m) mu_k), ascending: the path's k = 0..n-1,
        the ring's k = 0, 1, 1, 2, 2, ..., n // 2 (each 0 < k < n/2 twice)."""
        j = np.arange(self.n)
        k, period = ((j + 1) // 2, self.n) if self.boundary == "periodic" else (j, 2 * self.n)
        return np.sqrt(self.omega * self.omega + 2.0 * self.lam / self.mass * _laplacian_eigenvalues(k, period))


def chain_model(n: int, m: float, omega: float, lam: float, boundary: str = "open") -> ChainModel:
    """Harmonic chain with nearest-neighbor coupling lam sum_i (q_i - q_{i+1})^2.

    V = omega^2 I + (2 lam / m) L with L the graph Laplacian of the path
    ("open") or the ring ("periodic", which adds the (n, 1) bond; the ring of
    two has a double bond). The open chain of two modes is the two coupled
    oscillators (``TwoOscillatorParams``). No eigensolver runs and V is
    never formed (``ChainModel``). The condition numbers of V and of the
    ground-state covariance must stay below 1/SINGULAR_RTOL (ParameterError).
    """
    return ChainModel(n, m, omega, lam, boundary)


# The model kinds, each of which every state function takes as its ground state.
Model = QuadraticModel | ChainModel


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


def _cut_grams(model: Model, rows) -> tuple[np.ndarray, np.ndarray]:
    """The Gram pair x = 2 X and p = 2 P of the ground state's sites ``rows``
    (0-based, any numpy row index), whose reduction is X (+) P; each is
    exactly symmetric.

    A ``QuadraticModel``'s are q q^T and r r^T of its factor rows
    (``_factor_rows``), each one 2-D product. A chain's entries
    sum_k O_ik O_jk f_k, with f_k = 1/(m w_k) for x and m w_k for p, come
    from one inverse real FFT h of the f_k over the wave numbers k
    (Peschel, J. Phys. A 36, L205 (2003)), gathered by an index map that is
    symmetric in i and j: h[min(d, n - d)] with d = |i - j| on the ring,
    where h = irfft(f_0..f_{n//2}, n); h[|i - j|] + h[i + j + 1] on the
    path, where h = irfft(f_0..f_{n-1}, 0; 2n). No n x n array is formed
    for a cut.
    """
    if isinstance(model, QuadraticModel):
        q, r = _factor_rows(model, rows)
        return q @ q.T, r @ r.T
    n = model.n
    i = np.arange(n)[rows][:, None]
    d = abs(i - i.T)
    mw = model.mass * model.frequencies
    if model.boundary == "periodic":
        mw = np.concatenate((mw[:1], mw[1::2]))  # one per wave number k = 0..n//2
        j = np.arange(n)
        h = np.fft.irfft([1.0 / mw, mw], n)[:, np.minimum(j, n - j)]  # h[d] is h[n - d]
        return tuple(h.take(d, axis=1))
    h = np.fft.irfft([1.0 / mw, mw], 2 * n)  # f_n = 0: irfft pads to n + 1 terms
    return tuple(h.take(d, axis=1) + h.take(i + i.T + 1, axis=1))


def _gram_covariance(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """X (+) P with X = x / 2 and P = p / 2, for a Gram pair (``_cut_grams``)."""
    k = len(x)
    gamma = np.zeros((2 * k, 2 * k))
    gamma[:k, :k] = x / 2.0
    gamma[k:, k:] = p / 2.0
    return gamma


def ground_state_covariance(model: Model) -> np.ndarray:
    """Covariance matrix of the model's (pure, Gaussian) ground state, from
    the Gram pair of all its sites (``_cut_grams``, ``_gram_covariance``)."""
    return _gram_covariance(*_cut_grams(model, slice(None)))


# --- serialization ---------------------------------------------------------


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

    def build(self) -> ChainModel:
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
            m = _number(obj["m"])
            omega = _number(obj["omega"])
            lam = _number(obj["lambda"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise MalformedInputError(f"model JSON needs numeric m, omega, lambda: {exc}") from exc
        n = obj.get("n", 2)
        if not _is_count(type(n)):
            raise MalformedInputError(f"model n must be an integer, got {n!r}")
        boundary = obj.get("boundary", "open")
        return cls(type=kind, m=m, omega=omega, lam=lam, n=n, boundary=boundary)

    def to_json_dict(self) -> dict:
        out = {"type": self.type, "m": self.m, "omega": self.omega, "lambda": self.lam, "n": self.n}
        if self.type == "chain":
            out["boundary"] = self.boundary
        return out
