"""Seeded workloads for the sympent benchmark: inputs, operations and checks.

A workload turns a seed into input files, written during set-up under a
scratch directory, and into an endless, seeded stream of operations. One
operation is the argument list of one ``sympent`` invocation, the exit code
it must return, and a check of its output.

The checks never call sympent. They recompute every expected number with
numpy from the generator's own parameters and compare numbers within the
tolerances below, not bytes, so a change that moves the last bits still
passes:

* symplectic eigenvalues: |got - want| <= SIGMA_RTOL * max(1, want);
* entropies in bits: |got - want| <= BITS_ATOL + BITS_PER_MODE * modes. The
  per-mode term covers sympent's documented snap of every eigenvalue within
  1e-9 of 1/2 to exactly 1/2, which drops at most 3.2e-8 bits per mode;
* Wigner peaks: relative error <= PEAK_RTOL.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

SIGMA_RTOL = 1e-9
BITS_ATOL = 1e-6
BITS_PER_MODE = 4e-8
PEAK_RTOL = 1e-9

EXIT_OK = 0
EXIT_UNPHYSICAL = 2


@dataclass
class Op:
    """One CLI invocation, the exit code it must return and its output check.

    ``check`` takes the captured standard output and returns None when the
    output is correct, or a description of the first mismatch.
    ``states`` is the number of covariance matrices the operation analyses.
    """

    argv: list[str]
    states: int
    check: Callable[[str], str | None]
    expect_exit: int = EXIT_OK


# --- independent reference computations --------------------------------------


def chain_correlators(n: int, lam: float, m: float = 1.0, omega: float = 1.0):
    """Ground-state <q_0 q_d> and <p_0 p_d> of a periodic chain, for d = 0..n-1.

    Analytic Fourier sums over the normal modes k = 0..n-1 of the ring, whose
    frequencies are w_k^2 = omega^2 + (8 lam / m) sin^2(pi k / n):
    X(d) = sum_k cos(2 pi k d / n) / (2 m n w_k) and
    P(d) = sum_k cos(2 pi k d / n) m w_k / (2 n).
    """
    k = np.arange(n)
    w = np.sqrt(omega**2 + (8.0 * lam / m) * np.sin(np.pi * k / n) ** 2)
    phases = np.cos(2.0 * np.pi * np.outer(k, k) / n)
    return phases @ (1.0 / w) / (2.0 * m * n), phases @ w * (m / (2.0 * n))


def chain_block_sigmas(x: np.ndarray, p: np.ndarray, sites) -> np.ndarray:
    """Symplectic eigenvalues of a block of chain sites (0-based), descending.

    sigma = sqrt(eig(X_A P_A)); with X_A = L L^T the product is similar to the
    symmetric L^T P_A L, which a symmetric eigensolver handles.
    """
    idx = np.asarray(sites)
    dist = (idx[:, None] - idx[None, :]) % len(x)
    chol = np.linalg.cholesky(x[dist])
    return np.sqrt(np.linalg.eigvalsh(chol.T @ p[dist] @ chol))[::-1]


def general_sigmas(gamma: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of a 2m x 2m qqpp covariance matrix, descending.

    With gamma = L L^T, L^T Omega L is similar to Omega gamma, whose
    eigenvalues are +-i sigma; i L^T Omega L is Hermitian.
    """
    m = gamma.shape[0] // 2
    omega = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
    chol = np.linalg.cholesky(gamma)
    return np.linalg.eigvalsh(1j * (chol.T @ omega @ chol))[::-1][:m]


def entropy_bits(sigmas) -> float:
    """Sum of (s + 1/2) log2(s + 1/2) - (s - 1/2) log2(s - 1/2) over s > 1/2."""
    total = 0.0
    for s in sigmas:
        x = float(s) - 0.5
        if x > 0.0:
            total += (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)
    return total


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_symplectic(rng: np.random.Generator, n: int, max_squeeze: float = 0.5) -> np.ndarray:
    """Passive U1 . single-mode squeezers . passive U2, in qqpp ordering.

    A unitary U = X + iY acts on (q, p) as [[X, -Y], [Y, X]]; a squeezer with
    parameter r scales q by e^-r and p by e^r.
    """

    def passive(u):
        return np.block([[u.real, -u.imag], [u.imag, u.real]])

    r = rng.uniform(-max_squeeze, max_squeeze, size=n)
    squeeze = np.diag(np.concatenate([np.exp(-r), np.exp(r)]))
    return passive(haar_unitary(rng, n)) @ squeeze @ passive(haar_unitary(rng, n))


def mode_indices(n: int, modes) -> list[int]:
    """qqpp row indices of the given 0-based modes."""
    modes = sorted(modes)
    return modes + [n + k for k in modes]


# --- comparisons ---------------------------------------------------------------


def spectrum_mismatch(got, want: np.ndarray, what: str) -> str | None:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return f"{what}: {got.size} values, expected {want.size}"
    err = np.abs(got - want) / np.maximum(1.0, want)
    i = int(np.argmax(err))
    if not err[i] <= SIGMA_RTOL:
        return f"{what}[{i}] = {float(got[i])!r}, expected {float(want[i])!r}"
    return None


def bits_mismatch(got, want: float, modes: int, what: str) -> str | None:
    if not abs(float(got) - want) <= BITS_ATOL + BITS_PER_MODE * modes:
        return f"{what} = {got!r}, expected {want!r}"
    return None


def relative_mismatch(got, want: float, rtol: float, what: str) -> str | None:
    if got is None or not abs(float(got) - want) <= rtol * abs(want):
        return f"{what} = {got!r}, expected {want!r}"
    return None


def partition_text(set_a, n: int) -> str:
    """CLI partition string for 0-based side A of n modes (the CLI is 1-based)."""
    a = sorted(int(k) + 1 for k in set_a)
    b = sorted(set(range(1, n + 1)) - set(a))
    return ",".join(map(str, a)) + "|" + ",".join(map(str, b))


def contiguous_cuts(rng: np.random.Generator, n: int, count: int) -> list[list[int]]:
    """``count`` runs of neighbouring sites of a ring, 0-based, at seeded positions.

    Their sizes are spread evenly over n/4..3n/4 and dealt in a seeded order.
    Every seed gets the same sizes, because the cost of an operation grows
    with the size of the cut, and a seed must not change the work asked.
    """
    sizes = rng.permutation(np.linspace(n // 4, 3 * n // 4, count).round().astype(int))
    starts = rng.integers(n, size=count)
    return [sorted(int(k) for k in (start + np.arange(size)) % n) for size, start in zip(sizes, starts)]


def chain_model_json(n: int, lam: float) -> dict:
    return {"type": "chain", "n": n, "m": 1.0, "omega": 1.0, "lambda": lam, "boundary": "periodic"}


# --- workloads -------------------------------------------------------------------


class ChainEntropy:
    """``sympent entropy`` on ground states of periodic n=256 chains.

    A pool of model files, each with a seeded lambda in [0.1, 2] and a seeded
    contiguous cut, is visited in a freshly shuffled order on every pass.
    """

    N = 256
    POOL = 16

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 1])
        self.items = []
        for i, sites in enumerate(contiguous_cuts(self.rng, self.N, self.POOL)):
            lam = float(self.rng.uniform(0.1, 2.0))
            path = workdir / f"chain_{i}.json"
            path.write_text(json.dumps(chain_model_json(self.N, lam)))
            self.items.append({"path": path, "lam": lam, "sites": sites})
        self._refs: dict[int, np.ndarray] = {}

    def _reference(self, i: int) -> np.ndarray:
        if i not in self._refs:
            item = self.items[i]
            x, p = chain_correlators(self.N, item["lam"])
            self._refs[i] = chain_block_sigmas(x, p, item["sites"])
        return self._refs[i]

    def _op(self, i: int) -> Op:
        item = self.items[i]

        def check(stdout: str) -> str | None:
            out = json.loads(stdout)
            want = self._reference(i)
            if out["pure_global_state"] is not True:
                return "ground state not reported pure"
            return spectrum_mismatch(out["spectrum_a"], want, "spectrum_a") or bits_mismatch(
                out["total_bits"], entropy_bits(want), len(want), "total_bits"
            )

        argv = ["entropy", str(item["path"]), "--partition", partition_text(item["sites"], self.N)]
        return Op(argv, 1, check)

    def warmup(self) -> list[Op]:
        return [self._op(0)]

    def ops(self) -> Iterator[Op]:
        while True:
            for i in self.rng.permutation(self.POOL):
                yield self._op(int(i))


class ChainSweep:
    """One ``sympent sweep`` per operation: a periodic n=64 chain on a 16-point lambda grid.

    A pool of sweep specs, each with a seeded lambda range inside [0.1, 2] and
    a seeded contiguous cut, is visited in a freshly shuffled order on every pass.
    Sixteen points keep all 8 pool threads of the CLI busy for two rounds, and
    about 25 sweeps fit one run; at 50 points only about 8 fit, too few for a
    steady median on 2 cores.
    """

    N = 64
    POINTS = 16
    POOL = 4

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 2])
        self.out = workdir / "sweep_out.csv"
        self.items = []
        for i, sites in enumerate(contiguous_cuts(self.rng, self.N, self.POOL)):
            lo = float(self.rng.uniform(0.1, 1.0))
            hi = float(self.rng.uniform(lo + 0.5, 2.0))
            spec = {
                "model": chain_model_json(self.N, lo),
                "parameter": "lambda",
                "grid": {"start": lo, "stop": hi, "count": self.POINTS},
                "partition": partition_text(sites, self.N),
            }
            path = workdir / f"sweep_{i}.json"
            path.write_text(json.dumps(spec))
            self.items.append({"path": path, "grid": np.linspace(lo, hi, self.POINTS), "sites": sites})
        small = dict(spec, grid={"start": lo, "stop": hi, "count": 2})
        self.warmup_path = workdir / "sweep_warmup.json"
        self.warmup_path.write_text(json.dumps(small))
        self._refs: dict[int, list[np.ndarray]] = {}

    def _reference(self, i: int) -> list[np.ndarray]:
        if i not in self._refs:
            item = self.items[i]
            refs = []
            for lam in item["grid"]:
                x, p = chain_correlators(self.N, float(lam))
                refs.append(chain_block_sigmas(x, p, item["sites"]))
            self._refs[i] = refs
        return self._refs[i]

    def _check_csv(self, i: int) -> str | None:
        item = self.items[i]
        rows = [ln for ln in self.out.read_text().splitlines() if ln and not ln.startswith("#")]
        if len(rows) != self.POINTS + 1:
            return f"sweep wrote {len(rows) - 1} rows, expected {self.POINTS}"
        width = len(item["sites"])
        for lam, want, row in zip(item["grid"], self._reference(i), rows[1:]):
            cells = [float(c) for c in row.split(",")]
            if len(cells) != width + 3:
                return f"sweep row has {len(cells)} cells, expected {width + 3}"
            problem = (
                relative_mismatch(cells[0], float(lam), 1e-12, "param")
                or spectrum_mismatch(cells[1 : 1 + width], want, f"lambda={lam:.6g} sigma")
                or bits_mismatch(cells[1 + width], entropy_bits(want), width, f"lambda={lam:.6g} total_bits")
            )
            if problem:
                return problem
        return None

    def _op(self, i: int) -> Op:
        def check(stdout: str) -> str | None:
            if json.loads(stdout)["rows"] != self.POINTS:
                return "sweep reported a wrong row count"
            return self._check_csv(i)

        return Op(["sweep", str(self.items[i]["path"]), "--out", str(self.out)], self.POINTS, check)

    def warmup(self) -> list[Op]:
        return [Op(["sweep", str(self.warmup_path), "--out", str(self.out)], 2, lambda _: None)]

    def ops(self) -> Iterator[Op]:
        while True:
            for i in self.rng.permutation(self.POOL):
                yield self._op(int(i))


@dataclass
class PlantedState:
    """A general state S diag(nu, nu) S^T written to a covariance file."""

    path: Path
    gamma: np.ndarray
    nu: np.ndarray
    kind: str  # "pure", "mixed" or "unphysical"

    @property
    def n(self) -> int:
        return len(self.nu)

    @property
    def physical(self) -> bool:
        return self.kind != "unphysical"


def plant_state(rng: np.random.Generator, n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Covariance matrix with planted symplectic spectrum nu, and nu itself.

    Pure states have nu = 1/2 everywhere; mixed ones 1/2 plus an exponential
    draw of mean 1; an unphysical one is mixed with one nu lowered to 0.3,
    below the vacuum floor but still positive definite.
    """
    nu = np.full(n, 0.5) if kind == "pure" else 0.5 + rng.exponential(1.0, size=n)
    if kind == "unphysical":
        nu[rng.integers(n)] = 0.3
    s = random_symplectic(rng, n)
    gamma = s @ np.diag(np.concatenate([nu, nu])) @ s.T
    return (gamma + gamma.T) / 2.0, nu


def write_covariance(path: Path, gamma: np.ndarray, fmt: str) -> None:
    """Write the documented covariance JSON or headered CSV format."""
    n = gamma.shape[0] // 2
    if fmt == "json":
        obj = {"n": n, "ordering": "qqpp", "hbar": 1, "matrix": gamma.ravel().tolist()}
        path.write_text(json.dumps(obj))
    else:
        lines = [f"# sympent covariance n={n} ordering=qqpp"]
        lines += [",".join(format(v, ".17g") for v in row) for row in gamma]
        path.write_text("\n".join(lines) + "\n")


class FileMixed:
    """A seeded mix of CLI commands on general states read from JSON and CSV files.

    Per mode count n in SIZES the pool holds one pure, two mixed and one
    unphysical state, each S diag(nu, nu) S^T with a random symplectic S, so
    Gamma_qp != 0. Every pass over the pool issues, in a shuffled order:
    validate on every state, spectrum and entropy (random partition) on every
    physical state, wigner at the default 161 x 161 grid on one physical
    state per n, and one ``verify --grid fine``. Fixed counts per pass keep
    the mix of operation kinds the same for every seed.
    """

    SIZES = (8, 32, 64)
    KINDS = ("pure", "mixed", "mixed", "unphysical")
    WIGNER_STEPS = 161

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 3])
        self.workdir = workdir
        self.states: list[PlantedState] = []
        for n in self.SIZES:
            formats = self.rng.permutation(["json", "json", "csv", "csv"])
            for j, kind in enumerate(self.KINDS):
                gamma, nu = plant_state(self.rng, n, kind)
                path = workdir / f"state_n{n}_{j}.{formats[j]}"
                write_covariance(path, gamma, formats[j])
                self.states.append(PlantedState(path, gamma, nu, kind))

    def _validate(self, st: PlantedState) -> Op:
        def check(stdout: str) -> str | None:
            out = json.loads(stdout)
            if out["valid"] is not st.physical:
                return f"valid = {out['valid']}, expected {st.physical}"
            return relative_mismatch(
                out["min_symplectic_eigenvalue"], float(st.nu.min()), SIGMA_RTOL, "min_symplectic_eigenvalue"
            )

        expect = EXIT_OK if st.physical else EXIT_UNPHYSICAL
        return Op(["validate", str(st.path)], 1, check, expect)

    def _spectrum(self, st: PlantedState) -> Op:
        want = np.sort(st.nu)[::-1]
        return Op(["spectrum", str(st.path)], 1, lambda out: spectrum_mismatch(json.loads(out)["sigmas"], want, "sigmas"))

    def _entropy(self, st: PlantedState) -> Op:
        size = int(self.rng.integers(1, st.n))
        side_a = sorted(int(k) for k in self.rng.choice(st.n, size=size, replace=False))

        def check(stdout: str) -> str | None:
            out = json.loads(stdout)
            idx = mode_indices(st.n, side_a)
            want = general_sigmas(st.gamma[np.ix_(idx, idx)])
            if out["pure_global_state"] is not (st.kind == "pure"):
                return f"pure_global_state = {out['pure_global_state']}, expected {st.kind == 'pure'}"
            return spectrum_mismatch(out["spectrum_a"], want, "spectrum_a") or bits_mismatch(
                out["total_bits"], entropy_bits(want), len(want), "total_bits"
            )

        return Op(["entropy", str(st.path), "--partition", partition_text(side_a, st.n)], 1, check)

    def _wigner(self, st: PlantedState) -> Op:
        mode = int(self.rng.integers(st.n))
        idx = mode_indices(st.n, [mode])
        peak = 1.0 / (2.0 * math.pi * math.sqrt(np.linalg.det(st.gamma[np.ix_(idx, idx)])))
        out_path = self.workdir / "wigner_out.csv"

        def check(stdout: str) -> str | None:
            rows = out_path.read_bytes().count(b"\n") - 3
            if rows != self.WIGNER_STEPS**2:
                return f"wigner wrote {rows} grid rows, expected {self.WIGNER_STEPS**2}"
            return relative_mismatch(json.loads(stdout)["peak"], peak, PEAK_RTOL, "wigner peak")

        return Op(["wigner", str(st.path), "--mode", str(mode + 1), "--out", str(out_path)], 1, check)

    def _verify(self) -> Op:
        out_path = self.workdir / "verify_out.csv"

        def check(stdout: str) -> str | None:
            offenders = json.loads(stdout)["offenders"]
            return f"verify offenders {offenders}" if offenders else None

        return Op(["verify", "--grid", "fine", "--out", str(out_path)], 0, check)

    def _pass(self) -> list[Op]:
        physical = [st for st in self.states if st.physical]
        ops = [self._validate(st) for st in self.states]
        ops += [self._spectrum(st) for st in physical]
        ops += [self._entropy(st) for st in physical]
        for n in self.SIZES:
            candidates = [st for st in physical if st.n == n]
            ops.append(self._wigner(candidates[int(self.rng.integers(len(candidates)))]))
        ops.append(self._verify())
        return [ops[i] for i in self.rng.permutation(len(ops))]

    def warmup(self) -> list[Op]:
        small = [st for st in self.states if st.n == self.SIZES[0]]
        return [self._validate(small[0]), self._spectrum(small[0]), self._entropy(small[0]),
                self._wigner(small[0]), self._verify()]

    def ops(self) -> Iterator[Op]:
        while True:
            yield from self._pass()


WORKLOADS = {
    "chain_entropy": ChainEntropy,
    "chain_sweep": ChainSweep,
    "file_mixed": FileMixed,
}
