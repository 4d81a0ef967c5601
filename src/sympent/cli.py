"""Command-line front end.

Subcommands: validate, spectrum, entropy, sweep, verify, wigner. Inputs are
covariance files (JSON or headered CSV) or model JSON files; model inputs are
expanded to their ground-state covariance matrix. All primary output is
deterministic (byte-identical on identical inputs and options); the run
record, which carries a timestamp, goes to stderr. Output files are written
to a temporary name and renamed on success, so failures never leave partial
files behind.

Exit codes: 0 success; 1 malformed input or usage error; 2 unphysical state
(validate only); 3 oracle deviation above tolerance (verify only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import S_COUNT_TOL, entanglement_entropy, mode_entropy, thermal_parameter
from .errors import InvalidStateError, MalformedInputError, SympentError
from .fock import required_n_max, thermal_entropy_bruteforce
from .logbase import BITS, LOG_BASES
from .models import ModelParams, ground_state_covariance
from .states import (
    HBAR,
    ORDERING,
    VACUUM_SIGMA,
    ModePartition,
    covariance_from_json_dict,
    read_covariance_text,
    reduce,
    validate,
    wigner_values,
)
from .symplectic import DEFAULT_TOL, mode_count, symplectic_spectrum

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNPHYSICAL = 2
EXIT_DEVIATION = 3

# Largest side of the wigner grid: steps^2 samples, ~60 MB of CSV at 1001.
MAX_WIGNER_STEPS = 1001
# Largest point count of a sweep grid; each point builds and analyses one model.
MAX_SWEEP_POINTS = 10_000


def _fmt(value: float) -> str:
    """17-significant-digit decimal form, enough to round-trip a double."""
    return format(float(value), ".17g")


def _conventions(base: str) -> dict:
    return {"ordering": ORDERING, "hbar": HBAR, "vacuum_sigma": VACUUM_SIGMA, "log_base": base}


def _emit_json(obj: dict, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        _write_text_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def _write_text_atomic(path: str, text: str) -> None:
    target = Path(path)
    parent = target.parent if str(target.parent) else Path(".")
    fd, tmp = tempfile.mkstemp(dir=str(parent), prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class RunRecord:
    """Side-channel provenance record, printed to stderr as one JSON line."""

    tool_version: str
    input_digest: str
    options: dict
    outputs: list[str]
    timestamp: str


def _emit_run_record(args: argparse.Namespace, digest: str, outputs: list[str]) -> None:
    options = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and not k.startswith("_")
    }
    record = RunRecord(
        tool_version=__version__,
        input_digest=digest,
        options=options,
        outputs=outputs,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    print(json.dumps(record.__dict__, sort_keys=True), file=sys.stderr)


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_input(path: str) -> tuple[str, str]:
    """Text of an input file and the sha256 digest of its bytes, from one read."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path} is not UTF-8 text: {exc}") from exc
    return text, _digest_bytes(data)


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
        raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc


def _load_state(text: str, path: str) -> tuple[np.ndarray, dict]:
    """Covariance matrix of the text of a covariance file or a model file."""
    if text.lstrip().startswith("{"):
        obj = _parse_json(text, path)
        if isinstance(obj, dict) and "type" in obj:
            params = ModelParams.from_json_dict(obj)
            gamma = ground_state_covariance(params.build())
            return gamma, {"kind": "model", "model": params.to_json_dict()}
        return covariance_from_json_dict(obj), {"kind": "covariance"}
    return read_covariance_text(text), {"kind": "covariance"}


# --- subcommands -----------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    text, digest = _read_input(args.file)
    gamma = read_covariance_text(text)
    report = validate(gamma, tol=args.tol)
    payload = report.to_json_dict()
    payload["conventions"] = _conventions(args.base)
    _emit_json(payload, args.out)
    _emit_run_record(args, digest, [args.out or "stdout"])
    return EXIT_OK if report.valid else EXIT_UNPHYSICAL


def _cmd_spectrum(args: argparse.Namespace) -> int:
    text, digest = _read_input(args.input)
    gamma, meta = _load_state(text, args.input)
    sigmas = symplectic_spectrum(gamma)
    payload = {
        "n": mode_count(gamma),
        "input": meta,
        "sigmas": [float(s) for s in sigmas],
        "conventions": _conventions(args.base),
    }
    _emit_json(payload, args.out)
    _emit_run_record(args, digest, [args.out or "stdout"])
    return EXIT_OK


def _cmd_entropy(args: argparse.Namespace) -> int:
    text, digest = _read_input(args.input)
    gamma, meta = _load_state(text, args.input)
    partition = ModePartition.from_string(args.partition)
    report = entanglement_entropy(gamma, partition, base=args.base, include_b=True, tol=args.tol)
    payload = report.to_json_dict()
    payload["input"] = meta
    payload["conventions"] = _conventions(args.base)
    _emit_json(payload, args.out)
    _emit_run_record(args, digest, [args.out or "stdout"])
    return EXIT_OK


def _parse_sweep_spec(obj) -> tuple[ModelParams, str, np.ndarray, ModePartition]:
    if not isinstance(obj, dict):
        raise MalformedInputError("sweep spec must be a JSON object")
    for key in ("model", "parameter", "grid", "partition"):
        if key not in obj:
            raise MalformedInputError(f"sweep spec is missing the {key!r} field")
    params = ModelParams.from_json_dict(obj["model"])
    name = obj["parameter"]
    if name not in ("lambda", "omega", "m"):
        raise MalformedInputError(f"sweep parameter must be lambda, omega, or m, got {name!r}")
    grid = obj["grid"]
    try:
        start = float(grid["start"])
        stop = float(grid["stop"])
        count = int(grid["count"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInputError(f"sweep grid needs numeric start, stop, count: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise MalformedInputError(f"sweep grid needs finite start and stop, got [{start}, {stop}]")
    if not 2 <= count <= MAX_SWEEP_POINTS:
        raise MalformedInputError(
            f"sweep grid count must be in 2..MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}, got {count}"
        )
    if not start < stop:
        raise MalformedInputError(f"sweep grid needs start < stop, got [{start}, {stop}]")
    if not isinstance(obj["partition"], str):
        raise MalformedInputError(
            f"sweep partition must be a string like \"1|2\", got {obj['partition']!r}"
        )
    partition = ModePartition.from_string(obj["partition"])
    if partition.n != params.n:
        raise MalformedInputError(
            f"partition covers {partition.n} modes but the model has {params.n}"
        )
    return params, name, np.linspace(start, stop, count), partition


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not args.out:
        raise MalformedInputError("sweep writes a CSV file; pass --out <path>")
    text, digest = _read_input(args.spec)
    params, name, grid, partition = _parse_sweep_spec(_parse_json(text, args.spec))

    def point(value: float) -> list[str]:
        try:
            gamma = ground_state_covariance(params.with_param(name, float(value)).build())
            report = entanglement_entropy(gamma, partition, base=BITS, tol=args.tol)
        except SympentError as exc:
            raise type(exc)(f"grid point {name}={_fmt(value)}: {exc}") from exc
        cells = [_fmt(value)]
        cells += [_fmt(s) for s in report.spectrum_a]
        cells += [_fmt(report.total_bits), str(report.s_count)]
        return cells

    rows = [point(value) for value in grid]

    sigma_cols = [f"sigma_{i + 1}" for i in range(len(partition.set_a))]
    header_meta = (
        f"# sympent sweep ordering={ORDERING} hbar={HBAR} vacuum_sigma={VACUUM_SIGMA} "
        f"base={BITS} s_count_tol={S_COUNT_TOL:g}\n"
        f"# model_type={params.type} n={params.n} m={_fmt(params.m)} "
        f"omega={_fmt(params.omega)} boundary={params.boundary} parameter={name} "
        f"start={_fmt(grid[0])} stop={_fmt(grid[-1])} count={len(grid)} "
        f"partition={partition}\n"
    )
    lines = [",".join(["param"] + sigma_cols + ["total_bits", "s_count"])]
    lines += [",".join(row) for row in rows]
    _write_text_atomic(args.out, header_meta + "\n".join(lines) + "\n")
    _emit_json({"rows": len(rows), "out": args.out, "conventions": _conventions(BITS)}, None)
    _emit_run_record(args, digest, [args.out])
    return EXIT_OK


def _verify_grid(kind: str) -> list[float]:
    coarse = [0.5 + 10.0**-k for k in range(1, 7)]
    coarse += [0.6, 1.0 / math.sqrt(3.0), 1.5, 3.0, 10.0]
    if kind == "coarse":
        return sorted(coarse)
    fine = coarse + list(0.5 + np.logspace(-6, np.log10(50.0), 45))
    return sorted(set(fine))


def _cmd_verify(args: argparse.Namespace) -> int:
    sigmas = _verify_grid(args.grid)
    rows = []
    offenders = []
    max_dev = 0.0
    for sigma in sigmas:
        beta = thermal_parameter(sigma)
        needed = required_n_max(beta)
        engine = mode_entropy(sigma, base=args.base)
        oracle = thermal_entropy_bruteforce(beta, needed + 8, base=args.base)
        dev = abs(engine - oracle)
        max_dev = max(max_dev, dev)
        rows.append((sigma, beta, needed, engine, oracle, dev))
        if dev > args.tol:
            offenders.append(sigma)

    lines = [
        f"# sympent verify ordering={ORDERING} hbar={HBAR} vacuum_sigma={VACUUM_SIGMA} "
        f"base={args.base} tol={args.tol:g} grid={args.grid}",
        "sigma,beta,n_max,entropy_engine,entropy_oracle,deviation",
    ]
    for sigma, beta, needed, engine, oracle, dev in rows:
        lines.append(
            ",".join([_fmt(sigma), _fmt(beta), str(needed), _fmt(engine), _fmt(oracle), _fmt(dev)])
        )
    lines.append(f"# max_deviation={_fmt(max_dev)} points={len(rows)} offenders={len(offenders)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text_atomic(args.out, text)
        _emit_json(
            {
                "max_deviation": max_dev,
                "points": len(rows),
                "offenders": [float(s) for s in offenders],
                "out": args.out,
                "conventions": _conventions(args.base),
            },
            None,
        )
    else:
        sys.stdout.write(text)
    _emit_run_record(args, _digest_bytes(f"grid={args.grid}".encode()), [args.out or "stdout"])
    if offenders:
        print(
            "verify: deviation above tolerance at sigma = "
            + ", ".join(_fmt(s) for s in offenders),
            file=sys.stderr,
        )
        return EXIT_DEVIATION
    return EXIT_OK


def _parse_wigner_grid(text: str) -> tuple[float, int]:
    try:
        extent_text, steps_text = text.split(",")
        extent = float(extent_text)
        steps = int(steps_text)
    except ValueError as exc:
        raise MalformedInputError(f"grid must be '<extent>,<steps>', got {text!r}") from exc
    if not (math.isfinite(extent) and extent > 0.0):
        raise MalformedInputError(f"grid extent must be finite and > 0, got {text!r}")
    if not 2 <= steps <= MAX_WIGNER_STEPS:
        raise MalformedInputError(
            f"grid steps must be in 2..MAX_WIGNER_STEPS = {MAX_WIGNER_STEPS}, got {text!r}"
        )
    dx = 2.0 * extent / (steps - 1)
    if not (math.isfinite(dx) and dx > 0.0):
        raise MalformedInputError(
            f"grid spacing 2*extent/(steps-1) must be finite and > 0, got {dx} from {text!r}"
        )
    return extent, steps


def _cmd_wigner(args: argparse.Namespace) -> int:
    if not args.out:
        raise MalformedInputError("wigner writes a CSV file; pass --out <path>")
    extent, steps = _parse_wigner_grid(args.grid)
    text, digest = _read_input(args.input)
    gamma, _ = _load_state(text, args.input)
    n = mode_count(gamma)
    report = validate(gamma, tol=args.tol)
    if not report.valid:
        raise InvalidStateError(
            "covariance matrix is unphysical: min eigenvalue of G + (i/2) Omega "
            f"= {report.min_heisenberg_eigenvalue:.3e}"
        )
    if not (1 <= args.mode <= n):
        raise MalformedInputError(f"--mode must be in 1..{n}, got {args.mode}")
    single = reduce(gamma, [args.mode])

    axis = np.linspace(-extent, extent, steps)
    dx = axis[1] - axis[0]
    qs, ps = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([qs.ravel(), ps.ravel()])
    w_vals = wigner_values(single, pts).reshape(qs.shape)
    integral = float(w_vals.sum() * dx * dx)
    peak = float(w_vals.max())

    lines = [
        f"# sympent wigner ordering={ORDERING} hbar={HBAR} vacuum_sigma={VACUUM_SIGMA} "
        f"base={args.base}",
        f"# mode={args.mode} extent={_fmt(extent)} steps={steps} dx={_fmt(dx)} "
        f"grid_integral={_fmt(integral)}",
        "q,p,w",
    ]
    # Each axis value is formatted once. "%.17g" % w is _fmt(w) for every
    # double, so the "q,p,w" lines of one q come from a single % operation.
    labels = [_fmt(v) for v in axis]
    cells = [f",{p},%.17g" for p in labels]
    for q, w_row in zip(labels, w_vals.tolist()):
        lines.append((q + ("\n" + q).join(cells)) % tuple(w_row))
    _write_text_atomic(args.out, "\n".join(lines) + "\n")
    _emit_json(
        {
            "mode": args.mode,
            "extent": extent,
            "steps": steps,
            "dx": dx,
            "peak": peak,
            "grid_integral": integral,
            "out": args.out,
            "conventions": _conventions(args.base),
        },
        None,
    )
    _emit_run_record(args, digest, [args.out])
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def _tolerance(text: str) -> float:
    """Value of --tol: a finite number >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors (2 is taken by 'unphysical')."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="residual/physicality tolerance")
    common.add_argument("--base", choices=LOG_BASES, default=BITS, help="entropy log base")
    common.add_argument("--out", default=None, help="output file path (default: stdout)")

    parser = _Parser(prog="sympent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a covariance file for physicality")
    p.add_argument("file", help="covariance file (JSON or headered CSV)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("spectrum", parents=[common], help="symplectic eigenvalues of a state")
    p.add_argument("input", help="covariance file or model JSON")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("entropy", parents=[common], help="bipartite entropy for a mode partition")
    p.add_argument("input", help="covariance file or model JSON")
    p.add_argument("--partition", required=True, help='partition string, e.g. "1,2|3,4" (1-based)')
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("sweep", parents=[common], help="entropy along a model parameter grid")
    p.add_argument("spec", help="sweep spec JSON file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", parents=[common], help="cross-check spectrum vs number-basis entropies")
    p.add_argument("--grid", choices=("coarse", "fine"), default="coarse")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("wigner", parents=[common], help="sample a single-mode Wigner function on a grid")
    p.add_argument("input", help="covariance file or model JSON")
    p.add_argument("--mode", type=int, default=1, help="1-based mode to keep")
    p.add_argument("--grid", default="8,161", help="'<extent>,<steps>' for the square grid")
    p.set_defaults(func=_cmd_wigner)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SympentError as exc:
        print(f"sympent: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"sympent: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
