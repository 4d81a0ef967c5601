"""Gaussian states represented by covariance matrices.

A state lives entirely in its 2n x 2n real symmetric covariance matrix of
quadrature second moments, qqpp ordering, hbar = 1, zero mean (displacements
carry no entanglement and are not stored). Vacuum is I/2.

File formats:

* JSON: ``{"n": int, "ordering": "qqpp", "hbar": 1, "matrix": [...]}`` with
  the matrix as a row-major list of (2n)^2 numbers.
* CSV: header line ``# sympent covariance n=<n> ordering=qqpp`` followed by
  2n comma-separated rows.

Readers reject a wrong or missing ordering tag loudly rather than guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidPartitionError,
    InvalidStateError,
    MalformedInputError,
    NumericalFailureError,
)
from .symplectic import (
    DEFAULT_TOL,
    SYMMETRY_ATOL,
    _spd_eigh,
    _xp_blocks,
    mode_count,
    symplectic_form,
    symplectic_spectrum,
)

ORDERING = "qqpp"
HBAR = 1
VACUUM_SIGMA = 0.5

_CSV_HEADER_PREFIX = "# sympent covariance"


def vacuum(n: int) -> np.ndarray:
    """Covariance matrix of the n-mode vacuum, I/2."""
    if n < 1:
        raise DimensionError(f"mode count must be a positive integer, got {n}")
    return 0.5 * np.eye(2 * n)


def _check_symmetric(gamma: np.ndarray) -> None:
    """Raise MalformedInputError if gamma has a NaN or infinite entry or is
    asymmetric beyond SYMMETRY_ATOL."""
    if not np.all(np.isfinite(gamma)):
        raise MalformedInputError("covariance matrix has a NaN or infinite entry")
    asym = float(np.max(np.abs(gamma - gamma.T)))
    if asym > SYMMETRY_ATOL:
        raise MalformedInputError(
            f"covariance matrix is asymmetric: max |G - G^T| = {asym:.3e} > {SYMMETRY_ATOL:.0e}"
        )


@dataclass(frozen=True)
class ValidationReport:
    """Physicality diagnostics for a candidate covariance matrix.

    ``min_heisenberg_eigenvalue`` is the smallest eigenvalue of the Hermitian
    matrix Gamma + (i/2) Omega; the state is physical iff it is >= -tol.
    ``pure`` means every symplectic eigenvalue is within tol of 1/2; it is
    not part of ``to_json_dict``. ``min_symplectic_eigenvalue`` is NaN, and
    ``pure`` False, when the state is unphysical and Gamma is not positive
    definite.
    """

    valid: bool
    n: int
    min_heisenberg_eigenvalue: float
    min_symplectic_eigenvalue: float
    tol: float
    pure: bool

    def to_json_dict(self) -> dict:
        min_sigma = self.min_symplectic_eigenvalue
        return {
            "valid": self.valid,
            "n": self.n,
            "min_heisenberg_eigenvalue": self.min_heisenberg_eigenvalue,
            "min_symplectic_eigenvalue": None if np.isnan(min_sigma) else min_sigma,
            "tol": self.tol,
        }


def validate(gamma: np.ndarray, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check the uncertainty-relation constraint Gamma + (i/2) Omega >= 0.

    The one full-state pass: the minimum symplectic eigenvalue and purity
    come from a single symplectic spectrum. When Gamma = X (+) P has no q-p
    correlations, the Heisenberg test runs on the real symmetric matrix
    [[X, -I/2], [-I/2, P]], unitarily similar to Gamma + (i/2) Omega. A NaN or
    infinite entry, or asymmetry beyond 1e-12, is a malformed input (raises),
    not an unphysical state; unphysical states come back as a report with
    ``valid=False``. A physical state is positive definite, so if its
    spectrum still fails the SINGULAR_RTOL test, Gamma is too ill-conditioned
    and NumericalFailureError is raised.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
    _check_symmetric(gamma)
    omega = symplectic_form(n)
    if _xp_blocks(gamma) is None:
        herm = gamma + 0.5j * omega
    else:
        # diag(I, iI)^H (Gamma + (i/2) Omega) diag(I, iI) = [[X, -I/2], [-I/2, P]]
        herm = gamma - 0.5 * np.abs(omega)
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    valid = min_eig >= -tol

    try:
        spectrum = symplectic_spectrum(gamma)
    except InvalidStateError as exc:
        if valid:
            raise NumericalFailureError(str(exc)) from exc
        min_sigma, pure = float("nan"), False
    else:
        min_sigma = float(spectrum[-1])
        pure = bool(np.max(np.abs(spectrum - 0.5)) <= tol)

    return ValidationReport(
        valid=valid,
        n=n,
        min_heisenberg_eigenvalue=min_eig,
        min_symplectic_eigenvalue=min_sigma,
        tol=float(tol),
        pure=pure,
    )


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
        a = tuple(sorted(int(i) for i in self.set_a))
        b = tuple(sorted(int(i) for i in self.set_b))
        object.__setattr__(self, "set_a", a)
        object.__setattr__(self, "set_b", b)
        object.__setattr__(self, "n", int(self.n))
        if not a or not b:
            raise InvalidPartitionError("both sides of a partition must be nonempty")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise InvalidPartitionError("duplicate mode index in partition")
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
        """Parse the explicit two-sided syntax "1,2|3,4" (1-based indices)."""
        parts = text.split("|")
        if len(parts) != 2:
            raise InvalidPartitionError(
                f"partition must have exactly two '|'-separated sides, got {text!r}"
            )
        sides = []
        for part in parts:
            try:
                sides.append(tuple(int(tok) for tok in part.split(",") if tok.strip() != ""))
            except ValueError as exc:
                raise InvalidPartitionError(f"cannot parse mode indices in {part!r}") from exc
        return cls.from_sides(*sides)

    def __str__(self) -> str:
        """The two-sided syntax read by ``from_string``, e.g. "1,3|2,4"."""
        return ",".join(map(str, self.set_a)) + "|" + ",".join(map(str, self.set_b))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "set_a": list(self.set_a), "set_b": list(self.set_b)}


def reduce(gamma: np.ndarray, keep) -> np.ndarray:
    """Covariance matrix of the kept modes (1-based indices), qqpp ordering.

    This is the phase-space image of the partial trace: the submatrix of the
    rows and columns {q_i, p_i : i in keep}.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
    modes = list(keep)
    if not modes:
        raise InvalidPartitionError("keep list must be nonempty")
    if len(set(modes)) != len(modes):
        raise InvalidPartitionError(f"duplicate mode index in keep list {modes}")
    bad = [m for m in modes if not (isinstance(m, (int, np.integer)) and 1 <= m <= n)]
    if bad:
        raise InvalidPartitionError(f"mode indices {bad} out of range 1..{n}")
    modes = sorted(int(m) for m in modes)
    idx = [m - 1 for m in modes] + [n + m - 1 for m in modes]
    return gamma[np.ix_(idx, idx)].copy()


def characteristic_function(gamma: np.ndarray, eta) -> float:
    """Gaussian characteristic function chi(eta) = exp(-1/2 eta^T Omega Gamma Omega^T eta).

    Zero-mean convention, so the displacement phase vanishes and chi(0) = 1.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (2 * n,):
        raise DimensionError(f"phase point must have length {2 * n}, got shape {eta.shape}")
    omega = symplectic_form(n)
    quad = omega @ gamma @ omega.T
    return float(np.exp(-0.5 * eta @ quad @ eta))


def wigner_values(gamma: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Gaussian Wigner function evaluated at a (2n, k) array of phase points.

    W(x) = (2 pi)^-n det(Gamma)^-1/2 exp(-1/2 x^T Gamma^-1 x), normalized so
    the integral over phase space is 1 in the hbar = 1, vacuum = I/2
    convention. An asymmetric Gamma raises MalformedInputError, one that fails
    ``symplectic._spd_eigh`` NumericalFailureError.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] != 2 * n:
        raise DimensionError(f"points must have shape (2n, k) = ({2 * n}, k), got {points.shape}")
    _check_symmetric(gamma)
    try:
        [(w, v)] = _spd_eigh(gamma)
    except InvalidStateError as exc:
        raise NumericalFailureError(str(exc)) from exc
    y = v.T @ points
    quad = np.sum(y * y / w[:, None], axis=0)
    norm = (2.0 * np.pi) ** (-n) / np.sqrt(float(np.prod(w)))
    return norm * np.exp(-0.5 * quad)


def wigner_function(gamma: np.ndarray, x) -> float:
    """Gaussian Wigner function at one phase point; see wigner_values."""
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * n,):
        raise DimensionError(f"phase point must have length {2 * n}, got shape {x.shape}")
    return float(wigner_values(gamma, x[:, None])[0])


# --- serialization ---------------------------------------------------------


def covariance_to_json_dict(gamma: np.ndarray) -> dict:
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
    return {
        "n": n,
        "ordering": ORDERING,
        "hbar": HBAR,
        "matrix": [float(v) for v in gamma.ravel()],
    }


def covariance_from_json_dict(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise MalformedInputError("covariance JSON must be an object")
    for key in ("n", "ordering", "matrix"):
        if key not in obj:
            raise MalformedInputError(f"covariance JSON is missing the {key!r} field")
    if obj["ordering"] != ORDERING:
        raise MalformedInputError(
            f"unsupported quadrature ordering {obj['ordering']!r}; this tool only reads {ORDERING!r}"
        )
    if obj.get("hbar", HBAR) != HBAR:
        raise MalformedInputError(f"unsupported hbar convention {obj['hbar']!r}; expected {HBAR}")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
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
    if not np.all(np.isfinite(gamma)):
        raise MalformedInputError("matrix entries must be finite numbers")
    return gamma


def covariance_to_csv_text(gamma: np.ndarray) -> str:
    gamma = np.asarray(gamma, dtype=float)
    n = mode_count(gamma)
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
    tags = dict(tok.split("=", 1) for tok in lines[0][len(_CSV_HEADER_PREFIX):].split() if "=" in tok)
    if tags.get("ordering") != ORDERING:
        raise MalformedInputError(
            f"unsupported quadrature ordering {tags.get('ordering')!r}; this tool only reads {ORDERING!r}"
        )
    try:
        n = int(tags["n"])
    except (KeyError, ValueError) as exc:
        raise MalformedInputError("covariance CSV header must carry n=<modes>") from exc
    rows = lines[1:]
    if len(rows) != 2 * n:
        raise MalformedInputError(f"expected {2 * n} data rows for n={n}, got {len(rows)}")
    try:
        gamma = np.array([[float(tok) for tok in row.split(",")] for row in rows])
    except ValueError as exc:
        raise MalformedInputError(f"cannot parse covariance CSV row: {exc}") from exc
    if gamma.shape != (2 * n, 2 * n):
        raise MalformedInputError(f"covariance CSV rows have wrong width for n={n}")
    if not np.all(np.isfinite(gamma)):
        raise MalformedInputError("matrix entries must be finite numbers")
    return gamma


def read_covariance_text(text: str) -> np.ndarray:
    """Parse a covariance matrix from JSON or headered CSV text."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
            raise MalformedInputError(f"invalid JSON: {exc}") from exc
        return covariance_from_json_dict(obj)
    if stripped.startswith("#"):
        return covariance_from_csv_text(text)
    raise MalformedInputError(
        "unrecognized covariance file: expected a JSON object or a headered CSV"
    )


def read_covariance(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return read_covariance_text(fh.read())
