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
from .models import Model, _cut_grams
from .states import DEFAULT_TOL, VACUUM_SIGMA, ModePartition, _as_state, reduce, validate
from .symplectic import _gram_spectrum, _number, symplectic_spectrum

# Eigenvalues within this band of 1/2 are treated as exactly pure; below the
# band mode_entropy, thermal_parameter and ThermalMode.from_sigma raise, never
# warn (entanglement_entropy floors a valid state's reductions at 1/2 first).
# The snap drops at most S(1/2 + SIGMA_TOL) ~ 3.1e-8 bits per mode.
SIGMA_TOL = 1e-9
# Eigenvalues above 1/2 + this count as thermal (entangled) modes; the
# thermal parameter diverges at 1/2, so the boundary needs an explicit cut.
S_COUNT_TOL = 1e-7


def _thermal(sigma: float) -> tuple[float, float, float]:
    """The one thermal-mode formula: ``sigma`` as a float (``symplectic._number``)
    snapped to 1/2 within SIGMA_TOL, its thermal parameter beta and its
    entropy in nats; (0.5, inf, 0.0) for a pure mode. MalformedInputError if
    sigma is not a real number, or is NaN or infinite, UnphysicalEigenvalueError
    below the snap.

    With d = sigma - 1/2 (exact in floating point), beta = log1p(1/d): the
    quotient ln((sigma + 1/2)/(sigma - 1/2)) rounds to ln(1 + O(eps)) and
    reads 0 from sigma ~ 1e16. The nats are log1p(d) + d beta, two positive
    terms, where the two terms of the textbook form nearly cancel.
    """
    try:
        sigma = _number(sigma)
    except (TypeError, OverflowError) as exc:
        raise MalformedInputError(
            f"symplectic eigenvalue {sigma!r} is not a finite real number"
        ) from exc
    if not math.isfinite(sigma):
        raise MalformedInputError(f"symplectic eigenvalue {sigma!r} is not finite")
    if sigma < 0.5 - SIGMA_TOL:
        raise UnphysicalEigenvalueError(
            f"symplectic eigenvalue {sigma!r} is below the vacuum floor 1/2"
        )
    if abs(sigma - 0.5) <= SIGMA_TOL:
        return 0.5, math.inf, 0.0
    d = sigma - 0.5
    beta = math.log1p(1.0 / d)
    return sigma, beta, math.log1p(d) + d * beta


def mode_entropy(sigma: float, base: str = BITS) -> float:
    """Entropy of one thermal mode with symplectic eigenvalue ``sigma`` (``_thermal``).

    Returns exactly 0 for sigma within 1e-9 of 1/2 (the x log x -> 0 limit).
    Computed in nats and converted, so bits == nats / ln 2 holds exactly.
    """
    log_fn(base)  # validate the base name
    nats = _thermal(sigma)[2]
    return nats / LN2 if base == BITS else nats


def thermal_parameter(sigma: float) -> float:
    """Thermal parameter beta = ln((sigma + 1/2)/(sigma - 1/2)) (``_thermal``);
    inf for a pure mode."""
    return _thermal(sigma)[1]


@dataclass(frozen=True)
class ThermalMode:
    """One decoupled oscillator of the normal-mode decomposition."""

    sigma: float
    n_bar: float
    beta: float
    entropy_bits: float

    @classmethod
    def from_sigma(cls, sigma: float) -> "ThermalMode":
        s, beta, nats = _thermal(sigma)
        return cls(sigma=s, n_bar=s - 0.5, beta=beta, entropy_bits=nats / LN2)

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
    are filled only when the global state is pure. For a covariance matrix
    they come from a second solve and check the A side; for a model they are
    derived from the one solve of its cut (``entanglement_entropy``), so
    ``total_b_bits`` equals ``total_bits`` and the JSON
    ``ab_agreement_residual_bits`` reads 0.0.
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
        spectrum_a = self.spectrum_a.tolist()
        # Every sigma up to 1/2 + SIGMA_TOL, the pads of a pure cut among them,
        # has the pure mode's record: one dict serves them all.
        pure = ThermalMode.from_sigma(0.5).to_json_dict()
        out = {
            "partition": self.partition.to_json_dict(),
            "spectrum_a": spectrum_a,
            "modes": [
                pure if s - 0.5 <= SIGMA_TOL else ThermalMode.from_sigma(s).to_json_dict()
                for s in spectrum_a
            ],
            "total_bits": self.total_bits,
            "s_count": self.s_count,
            "s_count_tol": S_COUNT_TOL,
            "base": self.base,
            "total": self.total,
            "pure_global_state": self.pure_global_state,
        }
        if self.spectrum_b is not None:
            out["spectrum_b"] = self.spectrum_b.tolist()
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


def _solved_side(partition: ModePartition) -> tuple[int, ...]:
    """The side of a pure cut whose spectrum is solved: the smaller one, A on
    a tie. ``_side_spectrum`` gives each side's spectrum from it."""
    return min(partition.set_a, partition.set_b, key=len)


def _model_cut_spectra(models, partition: ModePartition) -> np.ndarray:
    """The one solve of a model's cut: row i is the spectrum of the checked
    ``partition``'s ``_solved_side`` in ``models[i]``'s ground state, from
    the Gram pair of that side's sites (``models._cut_grams``). One
    model's pair goes to ``symplectic._gram_spectrum`` as it is; several are
    written into one preallocated stack for one stacked call, whose row i is
    bit for bit the solve of ``models[i]`` alone and whose checks test the
    whole stack and name no model."""
    rows = [m - 1 for m in _solved_side(partition)]
    if len(models) == 1:
        return _gram_spectrum(*_cut_grams(models[0], rows))[None]
    xs, ps = np.empty((2, len(models), len(rows), len(rows)))
    for i, model in enumerate(models):
        xs[i], ps[i] = _cut_grams(model, rows)
    return _gram_spectrum(xs, ps)


def _side_spectrum(solved: np.ndarray, size: int) -> np.ndarray:
    """The spectrum of a ``size``-mode side of a pure cut from the spectrum of
    its ``_solved_side`` (last axis; any leading axes are a stack of cuts).

    The two sides of a pure cut share their symplectic eigenvalues above 1/2,
    and the larger side's other |A| - |B| are exactly 1/2 (Botero and Reznik,
    PRA 67, 052311 (2003)). So the solved spectrum gains ``size`` minus its
    length values 0.5 and is sorted descending again: a rounded 1/2 just
    below the pad stays last.
    """
    width = [(0, 0)] * (solved.ndim - 1) + [(0, size - solved.shape[-1])]
    padded = np.pad(solved, width, constant_values=VACUUM_SIGMA)
    return np.sort(padded, axis=-1)[..., ::-1]


def _s_count(spectrum: np.ndarray) -> int:
    """Number of thermal (entangled) modes: eigenvalues above 1/2 + S_COUNT_TOL."""
    return int(np.sum(spectrum > 0.5 + S_COUNT_TOL))


def entanglement_entropy(
    state: np.ndarray | Model,
    partition: ModePartition,
    base: str = BITS,
    tol: float = DEFAULT_TOL,
) -> EntropyReport:
    """Entropy of the reduction to side A of ``partition``, with per-mode detail.

    ``state`` is a covariance matrix Gamma or a model (``models.Model``),
    which stands for its ground state. The state must pass ``validate(state, tol)``,
    the only vacuum floor: a reduction eigenvalue below 1/2 then counts as
    1/2 (``spectrum_a`` keeps its value). The base name and then the
    partition are checked first.

    A model's ground state is pure (``validate``), so its verdict needs no
    work and its cut has one spectrum: the ``_solved_side``'s
    (``_model_cut_spectra``, which ``sweep`` runs too) gives both sides
    (``_side_spectrum``).
    No n x n array is formed and no full-state solve runs, and the B fields
    are derived: ``total_b_bits`` equals ``total_bits``.
    A covariance matrix's side A is ``symplectic_spectrum(reduce(...))``.
    Its purity is a verdict within ``tol``, so when it is pure side B is
    solved the same way, and the B fields cross-check the entanglement
    entropy. For a mixed state the two sides need not agree, so the B side is
    not computed and ``spectrum_b`` stays None.
    """
    log_fn(base)  # validate the base name
    state, n = _as_state(state)
    if partition.n != n:
        raise InvalidPartitionError(f"partition is over {partition.n} modes but the state has {n}")
    report = validate(state, tol)
    report.require_physical()
    if isinstance(state, Model):
        [solved] = _model_cut_spectra([state], partition)
        spectrum_a = _side_spectrum(solved, len(partition.set_a))
        spectrum_b = _side_spectrum(solved, len(partition.set_b))
        # both sides share the solved sigmas above 1/2: one sum is both totals
        total_bits = total_b_bits = _total_bits(spectrum_a)
    else:
        spectrum_a = symplectic_spectrum(reduce(state, partition.set_a))
        spectrum_b = symplectic_spectrum(reduce(state, partition.set_b)) if report.pure else None
        total_bits = _total_bits(spectrum_a)
        total_b_bits = None if spectrum_b is None else _total_bits(spectrum_b)
    total = total_bits if base == BITS else total_bits * LN2
    return EntropyReport(
        partition=partition,
        spectrum_a=spectrum_a,
        total_bits=total_bits,
        s_count=_s_count(spectrum_a),
        base=base,
        total=total,
        pure_global_state=report.pure,
        spectrum_b=spectrum_b,
        total_b_bits=total_b_bits,
    )
