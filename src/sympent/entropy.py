"""Entropies, occupation numbers, and thermal parameters from symplectic spectra.

Each symplectic eigenvalue sigma >= 1/2 describes one decoupled thermal mode
with mean occupation nbar = sigma - 1/2, thermal parameter
beta = ln((sigma + 1/2)/(sigma - 1/2)), and entropy

    S(sigma) = (sigma + 1/2) log(sigma + 1/2) - (sigma - 1/2) log(sigma - 1/2).

The total entropy of a reduction is the sum over its modes. For a pure global
state this equals the bipartite entanglement entropy; for a mixed global
state the same number is still computed but is not an entanglement measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPartitionError, MalformedInputError, UnphysicalEigenvalueError
from .logbase import BITS, LN2, log_fn
from .models import QuadraticModel
from .states import DEFAULT_TOL, ModePartition, _as_state, _model_grams, reduce, validate
from .symplectic import _gram_spectrum, symplectic_spectrum

# Eigenvalues within this band of 1/2 are treated as exactly pure; below the
# band mode_entropy, thermal_parameter and ThermalMode.from_sigma raise, never
# warn (entanglement_entropy floors a valid state's reductions at 1/2 first).
# The snap drops at most S(1/2 + SIGMA_TOL) ~ 3.1e-8 bits per mode.
SIGMA_TOL = 1e-9
# Eigenvalues above 1/2 + this count as thermal (entangled) modes; the
# thermal parameter diverges at 1/2, so the boundary needs an explicit cut.
S_COUNT_TOL = 1e-7


def _effective_sigma(sigma: float) -> float:
    """``sigma`` as a float, snapped to 1/2 within SIGMA_TOL; MalformedInputError
    if it is NaN or infinite, UnphysicalEigenvalueError below the snap."""
    sigma = float(sigma)
    if not math.isfinite(sigma):
        raise MalformedInputError(f"symplectic eigenvalue {sigma!r} is not finite")
    if sigma < 0.5 - SIGMA_TOL:
        raise UnphysicalEigenvalueError(
            f"symplectic eigenvalue {sigma!r} is below the vacuum floor 1/2"
        )
    if abs(sigma - 0.5) <= SIGMA_TOL:
        return 0.5
    return sigma


def mode_entropy(sigma: float, base: str = BITS) -> float:
    """Entropy of one thermal mode with symplectic eigenvalue ``sigma``.

    Returns exactly 0 for sigma within 1e-9 of 1/2 (the x log x -> 0 limit).
    Computed in nats and converted, so bits == nats / ln 2 holds exactly.
    With d = sigma - 1/2 (exact in floating point), the nats are
    log1p(d) + d log1p(1/d): two positive terms, so no cancellation at large
    sigma, where the two terms of the textbook form nearly cancel.
    """
    log_fn(base)  # validate the base name
    s = _effective_sigma(sigma)
    if s == 0.5:
        return 0.0
    d = s - 0.5
    nats = math.log1p(d) + d * math.log1p(1.0 / d)
    return nats / LN2 if base == BITS else nats


def thermal_parameter(sigma: float) -> float:
    """Thermal parameter beta = ln((sigma + 1/2)/(sigma - 1/2)); inf for a pure mode.

    Computed as log1p(1/d) with d = sigma - 1/2, as in ``mode_entropy``: the
    quotient form rounds (sigma + 1/2)/(sigma - 1/2) to 1 + O(eps), which
    costs a relative error of about eps sigma and reads 0 from sigma ~ 1e16.
    """
    s = _effective_sigma(sigma)
    if s == 0.5:
        return math.inf
    return math.log1p(1.0 / (s - 0.5))


@dataclass(frozen=True)
class ThermalMode:
    """One decoupled oscillator of the normal-mode decomposition."""

    sigma: float
    n_bar: float
    beta: float
    entropy_bits: float

    @classmethod
    def from_sigma(cls, sigma: float) -> "ThermalMode":
        s = _effective_sigma(sigma)
        return cls(
            sigma=s,
            n_bar=s - 0.5,
            beta=thermal_parameter(s),
            entropy_bits=mode_entropy(s, BITS),
        )

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "n_bar": self.n_bar,
            "beta": "inf" if math.isinf(self.beta) else self.beta,
            "entropy_bits": self.entropy_bits,
        }


@dataclass(frozen=True, eq=False)
class EntropyReport:
    """Bipartite entropy of a Gaussian state for one mode partition.

    Per-mode records and ``total_bits`` are always in bits; ``total`` repeats
    the total in the requested ``base``. ``pure_global_state`` is the purity
    of the whole state, as found by ``validate``. ``spectrum_b``/``total_b_bits``
    are filled only when the global state is pure.
    """

    partition: ModePartition
    spectrum_a: np.ndarray
    total_bits: float
    s_count: int
    base: str
    total: float
    pure_global_state: bool
    spectrum_b: np.ndarray | None = None
    total_b_bits: float | None = None

    @property
    def modes(self) -> tuple[ThermalMode, ...]:
        """One record per eigenvalue of ``spectrum_a``, floored at 1/2, built
        when read: the sum of their ``entropy_bits`` is ``total_bits``."""
        return tuple(ThermalMode.from_sigma(max(s, 0.5)) for s in self.spectrum_a)

    def to_json_dict(self) -> dict:
        out = {
            "partition": self.partition.to_json_dict(),
            "spectrum_a": [float(s) for s in self.spectrum_a],
            "modes": [m.to_json_dict() for m in self.modes],
            "total_bits": self.total_bits,
            "s_count": self.s_count,
            "s_count_tol": S_COUNT_TOL,
            "base": self.base,
            "total": self.total,
            "pure_global_state": self.pure_global_state,
        }
        if self.spectrum_b is not None:
            out["spectrum_b"] = [float(s) for s in self.spectrum_b]
            out["total_b_bits"] = self.total_b_bits
            out["ab_agreement_residual_bits"] = abs(self.total_bits - self.total_b_bits)
        return out


def _total_bits(spectrum: np.ndarray) -> float:
    """Entropy in bits of a reduction's spectrum, each eigenvalue floored at 1/2.

    Only the eigenvalues outside the snap go through ``mode_entropy``: each
    one within it would add exactly 0.0. A NaN is outside, so
    ``mode_entropy`` refuses it."""
    floored = np.maximum(spectrum, 0.5)
    thermal = floored[~(np.abs(floored - 0.5) <= SIGMA_TOL)]
    return float(sum(mode_entropy(s, BITS) for s in thermal))


def _reduced_spectrum(state: np.ndarray | QuadraticModel, keep) -> np.ndarray:
    """Symplectic spectrum, descending, of a state's reduction to the kept
    modes: of a model's ground state from the Gram pair of its factor rows
    (``states._model_grams``, ``symplectic._gram_spectrum``), of a
    covariance matrix from its submatrix (``reduce``, ``symplectic_spectrum``)."""
    if isinstance(state, QuadraticModel):
        return _gram_spectrum(*_model_grams(state, keep))
    return symplectic_spectrum(reduce(state, keep))


def _s_count(spectrum: np.ndarray) -> int:
    """Number of thermal (entangled) modes: eigenvalues above 1/2 + S_COUNT_TOL."""
    return int(np.sum(spectrum > 0.5 + S_COUNT_TOL))


def entanglement_entropy(
    state: np.ndarray | QuadraticModel,
    partition: ModePartition,
    base: str = BITS,
    tol: float = DEFAULT_TOL,
) -> EntropyReport:
    """Entropy of the reduction to side A of ``partition``, with per-mode detail.

    ``state`` is a covariance matrix Gamma or a ``QuadraticModel``, which
    stands for its ground state: its verdict is the model's certificate and
    its reduction spectra come from the Gram pairs of rows of its factors,
    so no full Gamma is formed and no full-state solve runs (``validate``,
    ``_reduced_spectrum``).
    For a pure global state this is the entanglement entropy between A and B
    and equals the B-side total, so the report also carries the B-side
    spectrum and total for that cross-check. For a mixed state the two sides
    need not agree, so the B side is not computed and ``spectrum_b`` stays
    None.
    The state must pass ``validate(state, tol)``, the only vacuum floor: a
    reduction eigenvalue below 1/2 then counts as 1/2 (``spectrum_a`` keeps
    its value). The base name and then the partition are checked first.
    """
    log_fn(base)  # validate the base name
    state, n = _as_state(state)
    if partition.n != n:
        raise InvalidPartitionError(f"partition is over {partition.n} modes but the state has {n}")
    report = validate(state, tol)
    report.require_physical()
    spectrum_a = _reduced_spectrum(state, partition.set_a)
    total_bits = _total_bits(spectrum_a)
    s_count = _s_count(spectrum_a)

    spectrum_b = None
    total_b_bits = None
    if report.pure:
        spectrum_b = _reduced_spectrum(state, partition.set_b)
        total_b_bits = _total_bits(spectrum_b)

    total = total_bits if base == BITS else total_bits * LN2
    return EntropyReport(
        partition=partition,
        spectrum_a=spectrum_a,
        total_bits=total_bits,
        s_count=s_count,
        base=base,
        total=total,
        pure_global_state=report.pure,
        spectrum_b=spectrum_b,
        total_b_bits=total_b_bits,
    )
