"""Ground-state covariance matrices of quadratic Hamiltonians.

Builders cover H = (1/2m) p^T p + (m/2) q^T V q with uniform mass and a
symmetric positive-definite potential matrix V (units of frequency^2): the
two position-coupled oscillators and nearest-neighbor harmonic chains. The
ground state is Gaussian with

    Gamma_qq = (1/2m) V^{-1/2},   Gamma_pp = (m/2) V^{1/2},   Gamma_qp = 0,

so each normal mode of frequency w' carries the vacuum variances 1/(2 m w')
and m w' / 2. Quadratic q-p cross terms and per-site masses are out of scope.

Model JSON: ``{"type": "two_oscillator" | "chain", "n": int, "m": number,
"omega": number, "lambda": number, "boundary": "open" | "periodic"}``
("n" and "boundary" apply to chains only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError, MalformedInputError, ParameterError
from .symplectic import _spd_eigh

BOUNDARIES = ("open", "periodic")
MODEL_TYPES = ("two_oscillator", "chain")
# Largest mode count of a model; its 2n x 2n covariance matrix then takes
# 32 n^2 bytes = 128 MiB.
MAX_MODES = 2048


def _check_parameters(modes: int | None = None, **values: float) -> None:
    """The one range check of model parameters: a given mode count ``modes``
    must lie in 1..MAX_MODES, each given ``mass`` and ``frequency`` must be
    finite and > 0, a ``coupling`` finite and >= 0."""
    if modes is not None and not 1 <= modes <= MAX_MODES:
        raise ParameterError(f"mode count must be in 1..MAX_MODES = {MAX_MODES}, got {modes}")
    for name, value in values.items():
        zero_ok = name == "coupling"
        if not (math.isfinite(value) and (value > 0.0 or (zero_ok and value == 0.0))):
            raise ParameterError(f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value}")


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """Kinetic-plus-potential quadratic Hamiltonian with a normalizable ground state.

    V is decomposed once, by ``symplectic._spd_eigh`` (a failure raises
    ParameterError), into ``frequencies`` sqrt(eig V), ascending, and the
    matching ``eigenvectors`` (columns).
    """

    n: int
    mass: float
    potential: np.ndarray
    frequencies: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_parameters(modes=self.n, mass=self.mass)
        v = np.asarray(self.potential, dtype=float)
        if v.shape != (self.n, self.n):
            raise ParameterError(f"potential must be {self.n}x{self.n}, got shape {v.shape}")
        try:
            [(w, vecs)] = _spd_eigh(v)
        except InvalidStateError as exc:
            raise ParameterError(f"potential has no normalizable ground state: {exc}") from exc
        object.__setattr__(self, "potential", v)
        object.__setattr__(self, "frequencies", np.sqrt(w))
        object.__setattr__(self, "eigenvectors", vecs)


@dataclass(frozen=True)
class TwoOscillatorParams:
    """Two oscillators of mass m and frequency omega, position-coupled with strength lam."""

    m: float
    omega: float
    lam: float

    def __post_init__(self):
        _check_parameters(mass=self.m, frequency=self.omega, coupling=self.lam)

    @property
    def alpha(self) -> float:
        """Frequency ratio of the two normal modes, sqrt(1 + 4 lam / (m omega^2)) >= 1."""
        return math.sqrt(1.0 + 4.0 * self.lam / (self.m * self.omega**2))

    def reduced_sigma(self) -> float:
        """Symplectic eigenvalue of either single-oscillator reduction, (1+a)/(4 sqrt(a))."""
        a = self.alpha
        return (1.0 + a) / (4.0 * math.sqrt(a))


def two_oscillator_model(m: float, omega: float, lam: float) -> QuadraticModel:
    """Two oscillators with coupling term lam (q1 - q2)^2.

    V = omega^2 I + (2 lam / m) [[1, -1], [-1, 1]]; the normal frequencies are
    omega and omega * alpha.
    """
    params = TwoOscillatorParams(m=m, omega=omega, lam=lam)
    coupling = np.array([[1.0, -1.0], [-1.0, 1.0]])
    v = params.omega**2 * np.eye(2) + (2.0 * params.lam / params.m) * coupling
    return QuadraticModel(n=2, mass=params.m, potential=v)


def chain_model(
    n: int, m: float, omega: float, lam: float, boundary: str = "open"
) -> QuadraticModel:
    """Harmonic chain with nearest-neighbor coupling lam sum_i (q_i - q_{i+1})^2.

    V = omega^2 I + (2 lam / m) L with L the graph Laplacian of the path
    ("open") or the ring ("periodic", which adds the (n, 1) bond).
    """
    if n < 2:
        raise ParameterError(f"chain needs at least 2 modes, got {n}")
    _check_parameters(modes=n, mass=m, frequency=omega, coupling=lam)
    if boundary not in BOUNDARIES:
        raise ParameterError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")

    lap = np.zeros((n, n))
    bonds = [(i, i + 1) for i in range(n - 1)]
    if boundary == "periodic":
        bonds.append((n - 1, 0))
    for i, j in bonds:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    v = omega**2 * np.eye(n) + (2.0 * lam / m) * lap
    return QuadraticModel(n=n, mass=m, potential=v)


def ground_state_covariance(model: QuadraticModel) -> np.ndarray:
    """Covariance matrix of the model's (pure, Gaussian) ground state."""
    freqs, vecs = model.frequencies, model.eigenvectors
    w_qq = (vecs / freqs) @ vecs.T / (2.0 * model.mass)
    w_pp = (vecs * freqs) @ vecs.T * (model.mass / 2.0)
    n = model.n
    gamma = np.zeros((2 * n, 2 * n))
    gamma[:n, :n] = w_qq
    gamma[n:, n:] = w_pp
    return gamma


def normal_mode_transform(model: QuadraticModel) -> np.ndarray:
    """Orthosymplectic S = O (+) O that diagonalizes the ground-state covariance.

    Rows of O are the potential's eigenvectors ordered by ascending
    eigenfrequency, each sign-fixed so its first significant component is
    positive; applying S Gamma S^T decouples the normal modes.
    """
    o = model.eigenvectors.T.copy()
    for k in range(model.n):
        row = o[k]
        lead = int(np.argmax(np.abs(row) > 1e-12 * np.max(np.abs(row))))
        if row[lead] < 0.0:
            o[k] = -row
    n = model.n
    s = np.zeros((2 * n, 2 * n))
    s[:n, :n] = o
    s[n:, n:] = o
    return s


# --- serialization ---------------------------------------------------------


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
        _check_parameters(modes=self.n)

    def build(self) -> QuadraticModel:
        if self.type == "two_oscillator":
            return two_oscillator_model(self.m, self.omega, self.lam)
        return chain_model(self.n, self.m, self.omega, self.lam, self.boundary)

    def with_param(self, name: str, value: float) -> "ModelParams":
        if name == "lambda":
            return ModelParams(self.type, self.m, self.omega, value, self.n, self.boundary)
        if name == "omega":
            return ModelParams(self.type, self.m, value, self.lam, self.n, self.boundary)
        if name == "m":
            return ModelParams(self.type, value, self.omega, self.lam, self.n, self.boundary)
        raise ParameterError(f"unknown sweep parameter {name!r}, expected lambda, omega, or m")

    @classmethod
    def from_json_dict(cls, obj) -> "ModelParams":
        if not isinstance(obj, dict):
            raise MalformedInputError("model JSON must be an object")
        if "type" not in obj:
            raise MalformedInputError("model JSON is missing the 'type' field")
        try:
            kind = obj["type"]
            m = float(obj["m"])
            omega = float(obj["omega"])
            lam = float(obj["lambda"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInputError(f"model JSON needs numeric m, omega, lambda: {exc}") from exc
        n = obj.get("n", 2)
        if isinstance(n, bool) or not isinstance(n, int):
            raise MalformedInputError(f"model n must be an integer, got {n!r}")
        boundary = obj.get("boundary", "open")
        return cls(type=kind, m=m, omega=omega, lam=lam, n=n, boundary=boundary)

    def to_json_dict(self) -> dict:
        out = {"type": self.type, "m": self.m, "omega": self.omega, "lambda": self.lam}
        if self.type == "chain":
            out["n"] = self.n
            out["boundary"] = self.boundary
        else:
            out["n"] = 2
        return out
