"""Truncated number-basis oracle for thermal modes.

Everything here is a direct probability sum over Fock states, deliberately
independent of the covariance-matrix pipeline (no symplectic algebra is
imported), so it can serve as a brute-force cross-check of the spectrum-based
entropies. Thermal states are diagonal in the number basis, so only
probability vectors are ever materialized. Either reduction of a two-mode
squeezed state is such a mode; its squared Schmidt coefficients are the weights.

Truncation is governed by the analytic geometric tail bound
tail(n_max) = exp(-(n_max + 1) beta); operations refuse to return silently
degraded entropies and instead report the minimal adequate n_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TruncationError
from .logbase import BITS, log_fn

# Maximum tolerated probability mass beyond the truncation level.
TAIL_LIMIT = 1e-12


def required_n_max(beta: float) -> int:
    """Truncation level guaranteeing tail mass below TAIL_LIMIT, ceil(-ln(limit)/beta)."""
    if not (beta > 0.0):
        raise ParameterError(f"thermal parameter must be positive, got {beta}")
    return int(math.ceil(-math.log(TAIL_LIMIT) / beta))


@dataclass(frozen=True, eq=False)
class ThermalSpectrumTruncated:
    """Geometric number distribution of one thermal mode, cut at n_max.

    probabilities[k] = (1 - e^-beta) e^(-k beta) for k = 0..n_max;
    tail_mass = e^(-(n_max + 1) beta) is the exact remainder, so the
    probabilities plus the tail sum to 1.
    """

    beta: float
    n_max: int
    probabilities: np.ndarray
    tail_mass: float


def thermal_probabilities(beta: float, n_max: int) -> ThermalSpectrumTruncated:
    """Truncated geometric distribution of a thermal oscillator."""
    if not (beta > 0.0):
        raise ParameterError(f"thermal parameter must be positive, got {beta}")
    if n_max < 1:
        raise ParameterError(f"truncation level must be >= 1, got {n_max}")
    levels = np.arange(n_max + 1)
    probs = -np.expm1(-beta) * np.exp(-beta * levels)
    tail = math.exp(-(n_max + 1) * beta)
    return ThermalSpectrumTruncated(beta=float(beta), n_max=int(n_max), probabilities=probs, tail_mass=tail)


def _entropy_of(probs: np.ndarray, base: str) -> float:
    log = log_fn(base)
    pos = probs[probs > 0.0]
    return float(-np.sum(pos * log(pos)))


def thermal_entropy_bruteforce(beta: float, n_max: int, base: str = BITS) -> float:
    """Entropy -sum p_n log p_n of the truncated thermal distribution.

    Refuses truncations whose tail mass reaches TAIL_LIMIT, reporting the
    minimal adequate n_max instead.
    """
    spectrum = thermal_probabilities(beta, n_max)
    if spectrum.tail_mass >= TAIL_LIMIT:
        needed = required_n_max(beta)
        raise TruncationError(
            f"tail mass {spectrum.tail_mass:.3e} at n_max={n_max} exceeds {TAIL_LIMIT:.0e}; "
            f"use n_max >= {needed}",
            required_n_max=needed,
        )
    return _entropy_of(spectrum.probabilities, base)
