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

from .errors import InvalidPartitionError, InvalidStateError, UnphysicalEigenvalueError
from .logbase import BITS, LN2, log_fn
from .states import ModePartition, reduce, validate
from .symplectic import DEFAULT_TOL, mode_count, symplectic_spectrum

# Eigenvalues within this band of 1/2 are treated as exactly pure; below the
# band they are a hard error, never a warning. The snap drops at most
# S(1/2 + SIGMA_TOL) ~ 3.1e-8 bits per mode.
SIGMA_TOL = 1e-9
# Eigenvalues above 1/2 + this count as thermal (entangled) modes; the
# thermal parameter diverges at 1/2, so the boundary needs an explicit cut.
S_COUNT_TOL = 1e-7


def _effective_sigma(sigma: float) -> float:
    sigma = float(sigma)
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
    """
    s = _effective_sigma(sigma)
    if s == 0.5:
        return 0.0
    nats = (s + 0.5) * math.log(s + 0.5) - (s - 0.5) * math.log(s - 0.5)
    log_fn(base)  # validate the base name
    return nats / LN2 if base == BITS else nats


def mean_occupation(sigma: float) -> float:
    """Mean occupation number nbar = sigma - 1/2 (0 for a pure mode)."""
    return _effective_sigma(sigma) - 0.5


def thermal_parameter(sigma: float) -> float:
    """Thermal parameter beta = ln((sigma + 1/2)/(sigma - 1/2)); inf for a pure mode."""
    s = _effective_sigma(sigma)
    if s == 0.5:
        return math.inf
    return math.log((s + 0.5) / (s - 0.5))


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
    are filled only when the B side was requested and the global state is pure.
    """

    partition: ModePartition
    spectrum_a: np.ndarray
    modes: tuple[ThermalMode, ...]
    total_bits: float
    s_count: int
    s_count_tol: float
    base: str
    total: float
    pure_global_state: bool
    spectrum_b: np.ndarray | None = None
    total_b_bits: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "partition": self.partition.to_json_dict(),
            "spectrum_a": [float(s) for s in self.spectrum_a],
            "modes": [m.to_json_dict() for m in self.modes],
            "total_bits": self.total_bits,
            "s_count": self.s_count,
            "s_count_tol": self.s_count_tol,
            "base": self.base,
            "total": self.total,
            "pure_global_state": self.pure_global_state,
        }
        if self.spectrum_b is not None:
            out["spectrum_b"] = [float(s) for s in self.spectrum_b]
            out["total_b_bits"] = self.total_b_bits
            out["ab_agreement_residual_bits"] = abs(self.total_bits - self.total_b_bits)
        return out


def entanglement_entropy(
    gamma: np.ndarray,
    partition: ModePartition,
    base: str = BITS,
    include_b: bool = False,
    tol: float = DEFAULT_TOL,
    s_count_tol: float = S_COUNT_TOL,
) -> EntropyReport:
    """Entropy of the reduction to side A of ``partition``, with per-mode detail.

    For a pure global state this is the entanglement entropy between A and B
    (and equals the B-side total); pass ``include_b=True`` to also carry the
    B-side spectrum and total for that cross-check. ``include_b`` applies to
    pure global states only: for a mixed state the two sides need not agree,
    so the B side is not computed and ``spectrum_b`` stays None.
    """
    gamma = np.asarray(gamma, dtype=float)
    report = validate(gamma, tol=tol)
    if not report.valid:
        raise InvalidStateError(
            "covariance matrix is unphysical: min eigenvalue of G + (i/2) Omega "
            f"= {report.min_heisenberg_eigenvalue:.3e} < -{tol:.1e}"
        )
    if partition.n != mode_count(gamma):
        raise InvalidPartitionError(
            f"partition is over {partition.n} modes but the state has {mode_count(gamma)}"
        )
    spectrum_a = symplectic_spectrum(reduce(gamma, partition.set_a))
    modes = tuple(ThermalMode.from_sigma(s) for s in spectrum_a)
    total_bits = float(sum(m.entropy_bits for m in modes))
    s_count = int(np.sum(spectrum_a > 0.5 + s_count_tol))

    spectrum_b = None
    total_b_bits = None
    if include_b and report.pure:
        spectrum_b = symplectic_spectrum(reduce(gamma, partition.set_b))
        total_b_bits = float(sum(mode_entropy(s, BITS) for s in spectrum_b))

    log_fn(base)  # validate the base name
    total = total_bits if base == BITS else total_bits * LN2
    return EntropyReport(
        partition=partition,
        spectrum_a=spectrum_a,
        modes=modes,
        total_bits=total_bits,
        s_count=s_count,
        s_count_tol=float(s_count_tol),
        base=base,
        total=total,
        pure_global_state=report.pure,
        spectrum_b=spectrum_b,
        total_b_bits=total_b_bits,
    )
