"""Command-line front end.

Subcommands: validate, spectrum, entropy, sweep, verify, wigner. Inputs are
covariance files (JSON or headered CSV) or model JSON files. A model input
stays a ``QuadraticModel``, which stands for its ground state: the model is
certified when it is built (its normal modes are orthonormal, so its ground
state is pure), its 2n x 2n covariance matrix is never formed, its
reductions come from rows of its normal-mode factors, and ``spectrum``
prints its n values of 1/2. A command that checks physicality calls
``validate(state, tol)`` once, after any partition or mode check, which
solves a file and reads a model's certificate as valid and pure. All
primary output is
deterministic (byte-identical on identical inputs and options, at a fixed
BLAS thread count); the run record, which carries a timestamp and names the
CPU count and BLAS thread settings, goes to stderr. Output files are written
to a temporary name and renamed on success, so failures never leave partial
files behind.

Exit codes: 0 success; 1 malformed input or usage error; 2 unphysical state
(validate only); 3 oracle deviation above tolerance (verify only).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from datetime import datetime, timezone
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import (
    S_COUNT_TOL,
    _s_count,
    _side_spectrum,
    _solved_side,
    _total_bits,
    entanglement_entropy,
    mode_entropy,
    thermal_parameter,
)
from .errors import MalformedInputError, ParameterError, SympentError
from .fock import required_n_max, thermal_entropy_bruteforce
from .logbase import BITS, LOG_BASES
from .models import (
    SWEEP_PARAMETERS,
    ModelParams,
    QuadraticModel,
    _check_fields,
    _is_json_int,
    _json_number,
    _unique_fields,
)
from .states import (
    DEFAULT_TOL,
    HBAR,
    ORDERING,
    VACUUM_SIGMA,
    ModePartition,
    _as_state,
    _check_number_text,
    _check_tol,
    _model_grams,
    covariance_from_csv_text,
    covariance_from_json_dict,
    heisenberg_margin,
    reduce,
    validate,
    wigner_values,
)
from .symplectic import _gram_spectrum, symplectic_spectrum

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNPHYSICAL = 2
EXIT_DEVIATION = 3

# Largest side of the wigner grid: steps^2 samples, ~60 MB of CSV at 1001.
MAX_WIGNER_STEPS = 1001
# Most phase points the wigner grid evaluates at once, in whole q rows (a row
# of MAX_WIGNER_STEPS fits): the default 161 x 161 grid is one chunk.
WIGNER_CHUNK_POINTS = 65_536
# Largest point count of a sweep grid; each point builds and analyses one model.
MAX_SWEEP_POINTS = 10_000
# Most bytes of the Gram pairs, of the smaller side of the cut, that a sweep
# stacks for one spectrum call: 16 k^2 bytes per point of a k-mode side,
# half its 2k x 2k covariance matrix, so 32 points of a 181-mode side, 1024
# points of a 32-mode one.
SWEEP_STACK_BYTES = 16 * 2**20


def _fmt(value: float) -> str:
    """17-significant-digit decimal form, enough to round-trip a double."""
    return format(float(value), ".17g")


# The exact types json writes as one token; a subclass of any of them is not
# one here, so a dict or list subclass never passes for a scalar.
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _flat_json(depth: int):
    """``encode`` of json's C encoder with keys sorted and each item separator
    a newline and the indent of the items of a container ``depth`` levels
    deep: a flat container there (every value one of ``_SCALARS``) comes out
    as its indent=2 text but for the newline and indent after its opening
    bracket and before its closing one."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _json_text(value, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` byte for byte, for a
    value ``depth`` levels deep (its lines after the first indented to it)
    whose dicts that hold a container have str keys, as every report's do.

    json runs its C encoder only without ``indent``. So this walks in Python
    just the containers that hold containers, and hands each flat container,
    and each list of flat non-empty dicts (a report's ``modes``), whole to
    ``_flat_json``. That is exact because with ``ensure_ascii`` the encoder
    escapes every control character in a string: each newline it writes is a
    separator, and in a list of flat dicts each "}," before a newline and a
    "{" ends one dict and starts the next.
    """
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return _flat_json(0)(value)
    if not value:
        return "{}" if is_dict else "[]"
    i0 = "\n" + "  " * depth
    i1 = i0 + "  "
    types = set(map(type, value.values() if is_dict else value))
    if types <= _SCALARS:
        text = _flat_json(depth)(value)
        return text[0] + i1 + text[1:-1] + i0 + text[-1]
    if is_dict:
        parts = [
            encode_basestring_ascii(k) + ": " + _json_text(v, depth + 1)
            for k, v in sorted(value.items())
        ]
        return "{" + i1 + ("," + i1).join(parts) + i0 + "}"
    if (
        types == {dict}
        and all(value)
        and set(map(type, chain.from_iterable(map(dict.values, value)))) <= _SCALARS
    ):
        i2 = i1 + "  "
        text = _flat_json(depth + 1)(value)[2:-2].replace("}," + i2 + "{", i1 + "}," + i1 + "{" + i2)
        return "[" + i1 + "{" + i2 + text + i1 + "}" + i0 + "]"
    return "[" + i1 + ("," + i1).join([_json_text(v, depth + 1) for v in value]) + i0 + "]"


def _conventions(base: str) -> dict:
    return {"ordering": ORDERING, "hbar": HBAR, "vacuum_sigma": VACUUM_SIGMA, "log_base": base}


def _csv_header(kind: str, base: str, **tags) -> str:
    """First line of a CSV output: its kind, ``_conventions`` (``log_base``
    written ``base``), then ``tags``, each as key=value."""
    tags = {**_conventions(base), **tags}
    return f"# sympent {kind} " + " ".join(f"{k.removeprefix('log_')}={v}" for k, v in tags.items())


def _write_text_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks, in order, to a temporary file next to ``path`` as
    they are produced, then rename it to ``path``."""
    target = Path(path)
    parent = target.parent if str(target.parent) else Path(".")
    fd, tmp = tempfile.mkstemp(dir=str(parent), prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finish(
    args: argparse.Namespace,
    digest: str,
    payload: dict,
    base: str = BITS,
    csv: Iterable[str] | None = None,
) -> None:
    """The one output door of every command, called once its work is done.

    ``payload`` gains ``conventions`` (``log_base`` = ``base``). The command's
    primary output, the CSV chunks ``csv`` or else the payload as indent-2
    JSON (``_json_text``), goes to ``args.out`` (``_write_text_atomic``) or
    to stdout. When a CSV went to ``args.out``, the payload, with an ``out``
    field naming that file, is printed on stdout as a summary. Last, the run
    record (provenance, one JSON line with a timestamp, the CPU count and the
    BLAS thread-count environment variables) goes to stderr.
    """
    payload["conventions"] = _conventions(base)
    summarized = csv is not None and bool(args.out)
    if summarized:
        payload["out"] = args.out
    report = _json_text(payload) + "\n"
    primary = [report] if csv is None else csv
    if args.out:
        _write_text_atomic(args.out, primary)
    else:
        sys.stdout.writelines(primary)
    if summarized:
        sys.stdout.write(report)
    options = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and not k.startswith("_")
    }
    # The last digits of a spectrum can depend on the BLAS thread count, so
    # the record names the CPUs this process may use and the variables that
    # set that count.
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    record = {
        "tool_version": __version__,
        "input_digest": digest,
        "options": options,
        "outputs": [args.out or "stdout"],
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads_env": {name: os.environ.get(name, "unset") for name in threads},
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


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
        return json.loads(text, object_pairs_hook=lambda pairs: _unique_fields(pairs, path))
    except (ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
        raise MalformedInputError(f"invalid JSON in {path}: {exc}") from exc


def _load_state(text: str, path: str) -> tuple[np.ndarray | QuadraticModel, dict]:
    """The state of the text of a covariance file (JSON or headered CSV) or a
    model JSON file, and its input metadata: the one state loader of the CLI.
    A file gives its covariance matrix, a model file the model itself, which
    ``validate``, ``reduce`` and ``entanglement_entropy`` take as its ground
    state."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = _parse_json(text, path)
        if isinstance(obj, dict) and "type" in obj:
            params = ModelParams.from_json_dict(obj)
            return params.build(), {"kind": "model", "model": params.to_json_dict()}
        return covariance_from_json_dict(obj), {"kind": "covariance"}
    if stripped.startswith("#"):
        return covariance_from_csv_text(text), {"kind": "covariance"}
    raise MalformedInputError(
        "unrecognized covariance file: expected a JSON object or a headered CSV"
    )


# --- subcommands -----------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    text, digest = _read_input(args.file)
    state, _ = _load_state(text, args.file)
    report = validate(state, args.tol)
    payload = report.to_json_dict()
    # A certified ground state X (+) P needs no solve: heisenberg_margin's real
    # form [[X, -I/2], [-I/2, P]] of Gamma + (i/2) Omega is orthogonally
    # similar to n blocks [[a, -1/2], [-1/2, b]] with ab = 1/4, each singular.
    certified = isinstance(state, QuadraticModel)
    payload["min_heisenberg_eigenvalue"] = 0.0 if certified else heisenberg_margin(state)
    _finish(args, digest, payload)
    return EXIT_OK if report.valid else EXIT_UNPHYSICAL


def _cmd_spectrum(args: argparse.Namespace) -> int:
    text, digest = _read_input(args.input)
    state, meta = _load_state(text, args.input)
    if isinstance(state, QuadraticModel):
        # the build's certificate proves the ground state's spectrum: n values of 1/2
        sigmas = np.full(state.n, VACUUM_SIGMA)
    else:
        sigmas = symplectic_spectrum(state)
    _finish(args, digest, {"n": len(sigmas), "input": meta, "sigmas": [float(s) for s in sigmas]})
    return EXIT_OK


def _cmd_entropy(args: argparse.Namespace) -> int:
    text, digest = _read_input(args.input)
    state, meta = _load_state(text, args.input)
    partition = ModePartition.from_string(args.partition)
    report = entanglement_entropy(state, partition, base=args.base, tol=args.tol)
    payload = report.to_json_dict()
    payload["input"] = meta
    _finish(args, digest, payload, base=args.base)
    return EXIT_OK


def _parse_sweep_spec(obj) -> tuple[ModelParams, str, np.ndarray, ModePartition]:
    _check_fields(obj, "sweep spec", ("model", "parameter", "grid", "partition"))
    params = ModelParams.from_json_dict(obj["model"])
    name = obj["parameter"]
    if not isinstance(name, str) or name not in SWEEP_PARAMETERS:
        raise MalformedInputError(f"sweep parameter must be lambda, omega, or m, got {name!r}")
    grid = obj["grid"]
    _check_fields(grid, "sweep grid", optional=("start", "stop", "count"))
    try:
        start = _json_number(grid["start"])
        stop = _json_number(grid["stop"])
        count = grid["count"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise MalformedInputError(f"sweep grid needs numeric start, stop, count: {exc}") from exc
    if not _is_json_int(count):
        raise MalformedInputError(f"sweep grid count must be an integer, got {count!r}")
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

    def at_point(exc: SympentError, value: float) -> SympentError:
        return type(exc)(f"grid point {name}={_fmt(value)}: {exc}")

    # Each point is a model ground state, certified when it is built, and a
    # certified state is valid and pure at every tol (so sweep reads none).
    # Its row is side A of the one spectrum of a pure cut, as in
    # ``entanglement_entropy``: the ``_solved_side`` is solved and padded.
    side = _solved_side(partition)

    def grams(value: float) -> tuple[np.ndarray, np.ndarray]:
        """The Gram pair of the smaller side of the certified ground state at
        one grid point."""
        try:
            return _model_grams(params.with_param(name, float(value)).build(), side)
        except SympentError as exc:
            raise at_point(exc, value) from exc

    # The points of a chunk are built (and so certified) and reduced to their
    # Gram pairs in order, then one stacked call gives all their spectra, each
    # bit for bit as if alone. Its checks test the whole stack at once, so
    # when it fails, the chunk's points are solved alone, in order, and the
    # first to fail is reported.
    k = len(side)
    chunk = max(1, SWEEP_STACK_BYTES // (16 * k * k))
    rows = []
    for start in range(0, len(grid), chunk):
        values = grid[start : start + chunk]
        xs, ps = np.empty((2, len(values), k, k))
        for i, value in enumerate(values):
            xs[i], ps[i] = grams(value)
        try:
            spectra = _gram_spectrum(xs, ps)
        except SympentError:
            for value, x, p in zip(values, xs, ps):
                try:
                    _gram_spectrum(x, p)
                except SympentError as exc:
                    raise at_point(exc, value) from exc
            raise
        spectra = _side_spectrum(spectra, len(partition.set_a))
        rows += [
            [_fmt(value)]
            + [_fmt(s) for s in spectrum]
            + [_fmt(_total_bits(spectrum)), str(_s_count(spectrum))]
            for value, spectrum in zip(values, spectra)
        ]

    sigma_cols = [f"sigma_{i + 1}" for i in range(len(partition.set_a))]
    header_meta = (
        _csv_header("sweep", BITS, s_count_tol=f"{S_COUNT_TOL:g}") + "\n"
        f"# model_type={params.type} n={params.n} m={_fmt(params.m)} "
        f"omega={_fmt(params.omega)} boundary={params.boundary} parameter={name} "
        f"start={_fmt(grid[0])} stop={_fmt(grid[-1])} count={len(grid)} "
        f"partition={partition}\n"
    )
    lines = [",".join(["param"] + sigma_cols + ["total_bits", "s_count"])]
    lines += [",".join(row) for row in rows]
    _finish(args, digest, {"rows": len(rows)}, csv=[header_meta + "\n".join(lines) + "\n"])
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
        _csv_header("verify", args.base, tol=f"{args.tol:g}", grid=args.grid),
        "sigma,beta,n_max,entropy_engine,entropy_oracle,deviation",
    ]
    for sigma, beta, needed, engine, oracle, dev in rows:
        lines.append(
            ",".join([_fmt(sigma), _fmt(beta), str(needed), _fmt(engine), _fmt(oracle), _fmt(dev)])
        )
    lines.append(f"# max_deviation={_fmt(max_dev)} points={len(rows)} offenders={len(offenders)}")
    _finish(
        args,
        _digest_bytes(f"grid={args.grid}".encode()),
        {"max_deviation": max_dev, "points": len(rows), "offenders": [float(s) for s in offenders]},
        base=args.base,
        csv=["\n".join(lines) + "\n"],
    )
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
        _check_number_text(text, "grid")
        extent_text, steps_text = text.split(",")
        extent = float(extent_text)
        steps = int(steps_text)
    except ValueError as exc:
        raise MalformedInputError(f"grid must be '<extent>,<steps>', got {text!r}: {exc}") from exc
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
    state, n = _as_state(_load_state(text, args.input)[0])
    if not (1 <= args.mode <= n):
        raise MalformedInputError(f"--mode must be in 1..{n}, got {args.mode}")
    validate(state, args.tol).require_physical()
    single = reduce(state, [args.mode])

    axis = np.linspace(-extent, extent, steps)
    dx = axis[1] - axis[0]
    rows = WIGNER_CHUNK_POINTS // steps
    w_vals = np.empty((steps, steps))
    for start in range(0, steps, rows):
        qs = axis[start:start + rows]
        pts = np.stack([np.repeat(qs, steps), np.tile(axis, len(qs))])
        w_vals[start:start + rows] = wigner_values(single, pts).reshape(len(qs), steps)
    integral = float(w_vals.sum() * dx * dx)
    peak = float(w_vals.max())

    def csv_lines():
        yield (
            _csv_header("wigner", BITS) + "\n"
            f"# mode={args.mode} extent={_fmt(extent)} steps={steps} dx={_fmt(dx)} "
            f"grid_integral={_fmt(integral)}\n"
            "q,p,w\n"
        )
        # Each axis value is formatted once. "%.17g" % w is _fmt(w) for every
        # double, so the "q,p,w" lines of one q come from a single % operation.
        labels = [_fmt(v) for v in axis]
        cells = [f",{p},%.17g" for p in labels]
        for q, w_row in zip(labels, w_vals):
            yield (q + ("\n" + q).join(cells) + "\n") % tuple(w_row.tolist())

    summary = {
        "mode": args.mode,
        "extent": extent,
        "steps": steps,
        "dx": dx,
        "peak": peak,
        "grid_integral": integral,
    }
    # One row of q at a time: the CSV text is never held whole.
    _finish(args, digest, summary, csv=csv_lines())
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def _tolerance(text: str) -> float:
    """Value of --tol: a number that passes ``states._check_tol``."""
    try:
        _check_number_text(text, "--tol")
        value = float(text)
        _check_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}") from exc
    return value


def _mode_index(text: str) -> int:
    """Value of --mode: an integer (its range is checked against the state)."""
    try:
        _check_number_text(text, "--mode")
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors (2 is taken by 'unphysical')."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the shared options it reads.
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL, help="band around the vacuum floor 1/2: validity and purity"
    )
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--base", choices=LOG_BASES, default=BITS, help="entropy log base")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output file path (default: stdout)")

    parser = _Parser(prog="sympent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[tol, out], help="check a state for physicality")
    p.add_argument("file", help="covariance file or model JSON")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("spectrum", parents=[out], help="symplectic eigenvalues of a state")
    p.add_argument("input", help="covariance file or model JSON")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("entropy", parents=[tol, base, out], help="bipartite entropy for a mode partition")
    p.add_argument("input", help="covariance file or model JSON")
    p.add_argument("--partition", required=True, help='partition string, e.g. "1,2|3,4" (1-based)')
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("sweep", parents=[out], help="entropy along a model parameter grid")
    p.add_argument("spec", help="sweep spec JSON file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", parents=[base, out], help="cross-check spectrum vs number-basis entropies")
    p.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL, help="largest engine-oracle deviation; exit 3 above it"
    )
    p.add_argument("--grid", choices=("coarse", "fine"), default="coarse")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("wigner", parents=[tol, out], help="sample a single-mode Wigner function on a grid")
    p.add_argument("input", help="covariance file or model JSON")
    p.add_argument("--mode", type=_mode_index, default=1, help="1-based mode to keep")
    p.add_argument("--grid", default="8,161", help="'<extent>,<steps>' for the square grid")
    p.set_defaults(func=_cmd_wigner)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and reused by every
    later one in the process: parse_args reads the parser and writes only the
    fresh Namespace it returns, so no option carries over between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SympentError, OSError) as exc:
        print(f"sympent: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
