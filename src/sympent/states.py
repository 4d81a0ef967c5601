"""Gaussian states represented by covariance matrices.

A state lives entirely in its 2n x 2n real symmetric covariance matrix of
quadrature second moments, qqpp ordering, hbar = 1, zero mean (displacements
carry no entanglement and are not stored). Vacuum is I/2.

File formats:

* JSON: ``{"n": int, "ordering": "qqpp", "hbar": 1, "matrix": [...]}`` with
  the matrix as a row-major list of (2n)^2 numbers.
* CSV: header line ``# sympent covariance n=<n> ordering=qqpp`` followed by
  2n comma-separated rows; an optional ``hbar=`` tag must read 1.

Readers reject a wrong or missing ordering tag loudly rather than guessing,
and a field or tag that is unknown or given twice.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidPartitionError,
    InvalidStateError,
    MalformedInputError,
    NumericalFailureError,
    ParameterError,
)
from .models import (
    QuadraticModel,
    _check_fields,
    _factor_rows,
    _gram_covariance,
    _grams,
    _is_json_int,
    _unique_fields,
)
from .symplectic import (
    _as_matrix,
    _check_finite,
    _check_symmetric,
    _real_array,
    _spd_eigh,
    _xp_blocks,
    symplectic_form,
    symplectic_spectrum,
)

ORDERING = "qqpp"
HBAR = 1
VACUUM_SIGMA = 0.5
# Default tol of ``validate``: the band of the vacuum floor and of purity.
DEFAULT_TOL = 1e-8

_CSV_HEADER_PREFIX = "# sympent covariance"


def _check_number_text(text: str, field: str) -> None:
    """Raise ValueError naming ``field`` if ``text`` has a non-ASCII character
    or an '_'. int() and float() would read "1_0" as 10 and the Arabic-Indic
    digit "\u0661" as 1. One test of the whole text (isascii reads a flag,
    "_" in text is one scan) bars both."""
    if not text.isascii():
        bad = next(ch for ch in text if not ch.isascii())
        raise ValueError(f"{field} must be ASCII text, found {bad!r}")
    if "_" in text:
        raise ValueError(f"{field} must not contain '_'")


def vacuum(n: int) -> np.ndarray:
    """Covariance matrix of the n-mode vacuum, I/2."""
    if n < 1:
        raise DimensionError(f"mode count must be a positive integer, got {n}")
    return 0.5 * np.eye(2 * n)


@dataclass(frozen=True)
class ValidationReport:
    """Physicality diagnostics for a candidate covariance matrix.

    ``valid`` means Gamma is positive definite (``symplectic._spd_eigh``) and
    its smallest symplectic eigenvalue is >= 1/2 - tol, which for a
    positive-definite Gamma is the uncertainty relation
    Gamma + (i/2) Omega >= 0 (Simon, Mukunda, Dutta, PRA 49, 1567 (1994)).
    ``pure`` means every symplectic eigenvalue is within tol of 1/2; it is
    not part of ``to_json_dict``. ``min_symplectic_eigenvalue`` is NaN, and
    ``pure`` False, when the state is unphysical and Gamma is not positive
    definite.
    """

    valid: bool
    n: int
    min_symplectic_eigenvalue: float
    tol: float
    pure: bool

    @classmethod
    def from_spectrum(cls, spectrum: np.ndarray, tol: float) -> "ValidationReport":
        """The one floor and purity rule, applied to a symplectic spectrum
        sorted descending: valid when min sigma >= 1/2 - tol, pure when every
        sigma is within tol of 1/2."""
        min_sigma = float(spectrum[-1])
        return cls(
            valid=min_sigma >= VACUUM_SIGMA - tol,
            n=len(spectrum),
            min_symplectic_eigenvalue=min_sigma,
            tol=float(tol),
            pure=bool(np.max(np.abs(spectrum - VACUUM_SIGMA)) <= tol),
        )

    def require_physical(self) -> None:
        """Raise InvalidStateError naming the smallest symplectic eigenvalue
        unless the state is valid."""
        if self.valid:
            return
        min_sigma = self.min_symplectic_eigenvalue
        if np.isnan(min_sigma):
            raise InvalidStateError(
                "covariance matrix is unphysical and not positive definite within SINGULAR_RTOL"
            )
        raise InvalidStateError(
            f"covariance matrix is unphysical: min symplectic eigenvalue {min_sigma:.17g} "
            f"< 1/2 - {self.tol:.1e}"
        )

    def to_json_dict(self) -> dict:
        min_sigma = self.min_symplectic_eigenvalue
        return {
            "valid": self.valid,
            "n": self.n,
            "min_symplectic_eigenvalue": None if np.isnan(min_sigma) else min_sigma,
            "tol": self.tol,
        }


def heisenberg_margin(gamma: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian matrix Gamma + (i/2) Omega.

    A diagnostic: it is >= 0 exactly for physical states, but it is not
    symplectically invariant. Squeezing shrinks it, so an absolute tol on it
    admits states far below the vacuum floor, and ``validate`` decides
    physicality from the symplectic spectrum instead. When Gamma = X (+) P
    has no q-p correlations, the eigenvalues come from the real symmetric
    matrix [[X, -I/2], [-I/2, P]], unitarily similar to Gamma + (i/2) Omega.
    A NaN or infinite entry, or asymmetry beyond 1e-12, raises
    MalformedInputError (``symplectic._check_symmetric``).
    """
    gamma, n = _as_matrix(gamma)
    _check_symmetric(gamma)
    omega = symplectic_form(n)
    if _xp_blocks(gamma) is None:
        herm = gamma + 0.5j * omega
    else:
        # diag(I, iI)^H (Gamma + (i/2) Omega) diag(I, iI) = [[X, -I/2], [-I/2, P]]
        herm = gamma - 0.5 * np.abs(omega)
    return float(np.linalg.eigvalsh(herm)[0])


def _as_state(state) -> tuple[np.ndarray | QuadraticModel, int]:
    """A ``QuadraticModel`` as given, which stands for its ground state, or
    else the covariance matrix as a float array (``symplectic._as_matrix``);
    and the state's mode count."""
    if isinstance(state, QuadraticModel):
        return state, state.n
    return _as_matrix(state)


def _check_tol(tol: float) -> None:
    """The one rule of a tol: ParameterError naming it unless it is a finite
    number >= 0. A bool is not a number here, though True == 1."""
    number = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (number and math.isfinite(tol) and tol >= 0.0):
        raise ParameterError(f"tol must be a finite number >= 0, got {tol!r}")


def validate(state: np.ndarray | QuadraticModel, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check that a state, a covariance matrix Gamma or a ``QuadraticModel``'s
    ground state, is physical: the package's one verdict, by the floor and
    purity rule of ``ValidationReport.from_spectrum``.

    For Gamma, one symplectic spectrum gives validity (min sigma >= 1/2 - tol)
    and purity. A NaN or infinite entry, or asymmetry beyond 1e-12, raises
    MalformedInputError (``symplectic._check_symmetric``). When Gamma fails
    the spectrum's positive-definite test, ``heisenberg_margin`` decides:
    below -tol the report is unphysical, else Gamma is physical but too
    ill-conditioned (NumericalFailureError).

    A model's ground state is certified when the model is built
    (``models._check_normal_modes``): it is pure, its spectrum n times 1/2,
    so its report is valid and pure at every ``tol``, with no product, no
    solve and no Gamma formed.

    ``tol`` must pass ``_check_tol`` (ParameterError), which is tested
    before any solve.
    """
    _check_tol(tol)
    state, n = _as_state(state)
    if isinstance(state, QuadraticModel):
        return ValidationReport.from_spectrum(np.full(n, VACUUM_SIGMA), tol)
    try:
        spectrum = symplectic_spectrum(state)
    except InvalidStateError as exc:
        if heisenberg_margin(state) >= -tol:
            raise NumericalFailureError(str(exc)) from exc
        return ValidationReport(
            valid=False, n=n, min_symplectic_eigenvalue=float("nan"), tol=float(tol), pure=False
        )
    return ValidationReport.from_spectrum(spectrum, tol)


def _integer_type(kind: type) -> bool:
    """The integer rule of mode indices and counts: an int or a numpy integer,
    but not a bool, which would read as 0 or 1."""
    return kind is not bool and issubclass(kind, (int, np.integer))


def _mode_indices(modes, n: int, what: str) -> tuple[int, ...]:
    """The one check of a list of 1-based mode indices, sorted and returned
    as ints: InvalidPartitionError naming ``what`` unless it is nonempty
    and each index is an integer (``_integer_type``) in 1..n, given once."""
    modes = list(modes)
    if not modes:
        raise InvalidPartitionError(f"{what} must be nonempty")
    # one type test per distinct type, and the range from the extremes
    if not (all(map(_integer_type, set(map(type, modes)))) and 1 <= min(modes) and max(modes) <= n):
        bad = [m for m in modes if not (_integer_type(type(m)) and 1 <= m <= n)]
        raise InvalidPartitionError(f"mode indices {bad} of the {what} are not integers in 1..{n}")
    if len(set(modes)) != len(modes):
        raise InvalidPartitionError(f"duplicate mode index in {what} {modes}")
    return tuple(sorted(map(int, modes)))


@dataclass(frozen=True)
class ModePartition:
    """Disjoint split of the modes {1..n} into nonempty sets A and B.

    Mode indices are 1-based everywhere in this package, matching the file
    and command-line syntax.
    """

    n: int
    set_a: tuple[int, ...]
    set_b: tuple[int, ...]

    def __post_init__(self):
        if not _integer_type(type(self.n)):
            raise InvalidPartitionError(f"mode count n must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        a = _mode_indices(self.set_a, self.n, "side A of the partition")
        b = _mode_indices(self.set_b, self.n, "side B of the partition")
        object.__setattr__(self, "set_a", a)
        object.__setattr__(self, "set_b", b)
        if set(a) & set(b):
            raise InvalidPartitionError(f"sides overlap on modes {sorted(set(a) & set(b))}")
        if set(a) | set(b) != set(range(1, self.n + 1)):
            raise InvalidPartitionError(
                f"sides must cover exactly the modes 1..{self.n}, got A={a} B={b}"
            )

    @classmethod
    def from_sides(cls, set_a, set_b) -> "ModePartition":
        set_a = tuple(set_a)
        set_b = tuple(set_b)
        return cls(n=len(set_a) + len(set_b), set_a=set_a, set_b=set_b)

    @classmethod
    def from_string(cls, text: str) -> "ModePartition":
        """Parse the explicit two-sided syntax "1,2|3,4" (1-based indices).

        Spaces around an index are allowed; an empty index, as in "1,,2|3" or
        "1|2,", is not. A blank side is an empty side, which ``ModePartition``
        refuses.
        """
        parts = text.split("|")
        if len(parts) != 2:
            raise InvalidPartitionError(
                f"partition must have exactly two '|'-separated sides, got {text!r}"
            )
        sides = []
        for part in parts:
            tokens = part.split(",") if part.strip() else []
            if not all(map(str.strip, tokens)):
                raise InvalidPartitionError(f"empty mode index in {part!r} of partition {text!r}")
            try:
                _check_number_text(part, "partition")
                sides.append(tuple(map(int, tokens)))
            except ValueError as exc:
                raise InvalidPartitionError(f"cannot parse mode indices in {part!r}: {exc}") from exc
        return cls.from_sides(*sides)

    def __str__(self) -> str:
        """The two-sided syntax read by ``from_string``, e.g. "1,3|2,4"."""
        return ",".join(map(str, self.set_a)) + "|" + ",".join(map(str, self.set_b))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "set_a": list(self.set_a), "set_b": list(self.set_b)}


def reduce(state: np.ndarray | QuadraticModel, keep) -> np.ndarray:
    """Covariance matrix of the kept modes (1-based indices, ``_mode_indices``),
    qqpp ordering: the phase-space image of the partial trace.

    Of a covariance matrix, it is the submatrix of the rows and columns
    {q_i, p_i : i in keep}. Of a model's ground state, it is X_A (+) P_A
    from the kept rows q_A, r_A of its factors (``models._factor_rows``),
    X_A = q_A q_A^T / 2 and P_A = r_A r_A^T / 2 (``_model_grams``,
    ``models._gram_covariance``), with no full factor or Gamma formed.
    """
    state, n = _as_state(state)
    if isinstance(state, QuadraticModel):
        return _gram_covariance(*_model_grams(state, keep))
    modes = _mode_indices(keep, n, "keep list")
    idx = [m - 1 for m in modes] + [n + m - 1 for m in modes]
    return state.take(idx, axis=0).take(idx, axis=1)


def _model_grams(model: QuadraticModel, keep) -> tuple[np.ndarray, np.ndarray]:
    """The Gram pair q_A q_A^T, r_A r_A^T (``models._grams``) of the kept rows
    of the model's factors (``models._factor_rows``; 1-based mode indices,
    ``_mode_indices``): twice the X_A and P_A of the reduction, which
    ``symplectic._gram_spectrum`` solves and ``reduce`` turns into its
    covariance matrix."""
    rows = [m - 1 for m in _mode_indices(keep, model.n, "keep list")]
    return _grams(*_factor_rows(model, rows))


def characteristic_function(gamma: np.ndarray, eta) -> float:
    """Gaussian characteristic function chi(eta) = exp(-1/2 eta^T Omega Gamma Omega^T eta).

    Zero-mean convention, so the displacement phase vanishes and chi(0) = 1.
    """
    gamma, n = _as_matrix(gamma)
    eta = _real_array(eta, "a real phase point")
    if eta.shape != (2 * n,):
        raise DimensionError(f"phase point must have length {2 * n}, got shape {eta.shape}")
    omega = symplectic_form(n)
    quad = omega @ gamma @ omega.T
    return float(np.exp(-0.5 * eta @ quad @ eta))


def wigner_values(gamma: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Gaussian Wigner function evaluated at a (2n, k) array of phase points.

    W(x) = (2 pi)^-n det(Gamma)^-1/2 exp(-1/2 x^T Gamma^-1 x), normalized so
    the integral over phase space is 1 in the hbar = 1, vacuum = I/2
    convention. The normalization enters as a sum of logs of Gamma's
    eigenvalues inside the one exp, so no det(Gamma) is formed: it would
    overflow for a Gamma whose eigenvalues multiply past the float range,
    though W itself is representable. A Gamma with a NaN or infinite entry,
    or an asymmetric one, raises MalformedInputError; one that is not
    positive definite within ``symplectic._spd_eigh`` raises
    NumericalFailureError.
    """
    gamma, n = _as_matrix(gamma)
    points = _real_array(points, "real phase points")
    if points.ndim != 2 or points.shape[0] != 2 * n:
        raise DimensionError(f"points must have shape (2n, k) = ({2 * n}, k), got {points.shape}")
    try:
        [(w, v)] = _spd_eigh(gamma)
    except InvalidStateError as exc:
        raise NumericalFailureError(str(exc)) from exc
    y = v.T @ points
    quad = np.sum(y * y / w[:, None], axis=0)
    log_norm = -n * math.log(2.0 * math.pi) - 0.5 * float(np.sum(np.log(w)))
    return np.exp(log_norm - 0.5 * quad)


# --- serialization ---------------------------------------------------------


def _check_hbar(value, given) -> None:
    """The one hbar rule of both covariance readers: MalformedInputError
    naming ``given`` unless ``value`` is the number 1 and not a bool (True ==
    1, but names no convention)."""
    if isinstance(value, bool) or value != HBAR:
        raise MalformedInputError(f"unsupported hbar convention {given!r}; expected {HBAR}")


def covariance_to_json_dict(gamma: np.ndarray) -> dict:
    gamma, n = _as_matrix(gamma)
    return {
        "n": n,
        "ordering": ORDERING,
        "hbar": HBAR,
        "matrix": [float(v) for v in gamma.ravel()],
    }


def covariance_from_json_dict(obj) -> np.ndarray:
    _check_fields(obj, "covariance JSON", ("n", "ordering", "matrix"), ("hbar",))
    if obj["ordering"] != ORDERING:
        raise MalformedInputError(
            f"unsupported quadrature ordering {obj['ordering']!r}; this tool only reads {ORDERING!r}"
        )
    hbar = obj.get("hbar", HBAR)
    _check_hbar(hbar, hbar)
    n = obj["n"]
    if not _is_json_int(n) or n < 1:
        raise MalformedInputError(f"mode count must be a positive integer, got {n!r}")
    flat = obj["matrix"]
    if not isinstance(flat, list):
        raise MalformedInputError(
            f"matrix field must be a flat list of numbers, got {type(flat).__name__}"
        )
    if len(flat) != (2 * n) * (2 * n):
        raise MalformedInputError(
            f"matrix field has {len(flat)} entries, expected {(2 * n) * (2 * n)} for n={n}"
        )
    # One test per distinct entry type: bool is an int subclass, and nested
    # lists would otherwise be flattened by the reshape.
    bad = sorted(
        t.__name__ for t in set(map(type, flat)) if t is bool or not issubclass(t, (int, float))
    )
    if bad:
        raise MalformedInputError(f"matrix entries must be numbers, got {', '.join(bad)}")
    try:
        gamma = np.array(flat, dtype=float).reshape(2 * n, 2 * n)
    except OverflowError as exc:
        raise MalformedInputError(f"matrix entries must be finite numbers: {exc}") from exc
    _check_finite(gamma)
    return gamma


def covariance_to_csv_text(gamma: np.ndarray) -> str:
    gamma, n = _as_matrix(gamma)
    lines = [f"{_CSV_HEADER_PREFIX} n={n} ordering={ORDERING}"]
    for row in gamma:
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def covariance_from_csv_text(text: str) -> np.ndarray:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(_CSV_HEADER_PREFIX):
        raise MalformedInputError(
            f"covariance CSV must start with a {_CSV_HEADER_PREFIX!r} header line"
        )
    pairs = [tok.partition("=")[::2] for tok in lines[0][len(_CSV_HEADER_PREFIX):].split()]
    tags = _unique_fields(pairs, "covariance CSV header")
    _check_fields(tags, "covariance CSV header", optional=("n", "ordering", "hbar"))
    if tags.get("ordering") != ORDERING:
        raise MalformedInputError(
            f"unsupported quadrature ordering {tags.get('ordering')!r}; this tool only reads {ORDERING!r}"
        )
    try:
        _check_number_text(text, "covariance CSV")
    except ValueError as exc:
        raise MalformedInputError(str(exc)) from exc
    hbar = tags.get("hbar", str(HBAR))
    try:
        value = float(hbar)  # the text has passed _check_number_text
    except ValueError:
        value = None
    _check_hbar(value, hbar)
    try:
        n = int(tags["n"])
    except (KeyError, ValueError) as exc:
        raise MalformedInputError("covariance CSV header must carry n=<modes>") from exc
    if n < 1:
        raise MalformedInputError(f"mode count must be a positive integer, got {n!r}")
    rows = lines[1:]
    if len(rows) != 2 * n:
        raise MalformedInputError(f"expected {2 * n} data rows for n={n}, got {len(rows)}")
    try:
        gamma = np.array([[float(tok) for tok in row.split(",")] for row in rows])
    except ValueError as exc:
        raise MalformedInputError(f"cannot parse covariance CSV row: {exc}") from exc
    if gamma.shape != (2 * n, 2 * n):
        raise MalformedInputError(f"covariance CSV rows have wrong width for n={n}")
    _check_finite(gamma)
    return gamma
