"""Benchmark of the sympent command-line tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain_entropy --seed 1 --seconds 30 --trace 0

One closed-loop client drives the real entry point ``sympent.cli.main(argv)``
in-process, on one thread: it sends one operation, waits for it to return,
checks its output, and only then sends the next. Inputs are generated from
``--seed`` during set-up, under a scratch directory inside the checkout that
is removed on exit.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
every operation is issued twice, once plain and once with the outside-in
tracer of ``tracer.py`` installed (alternating which goes first), and the run
reports per-layer metrics per traced operation, plus the tracing overhead as
the traced minus the plain wall time. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# Per-layer metrics reported by a traced run: (name, trace group, quantity).
LAYER_METRICS = [
    ("states.validate.calls", "states.validate", "calls"),
    ("states.validate.self_ms", "states.validate", "self_ms"),
    ("entropy.purity_check.calls", "entropy.purity_check", "calls"),
    ("entropy.purity_check.self_ms", "entropy.purity_check", "self_ms"),
    ("symplectic.symplectic_spectrum.calls", "symplectic.symplectic_spectrum", "calls"),
    ("symplectic.symplectic_spectrum.self_ms", "symplectic.symplectic_spectrum", "self_ms"),
    ("linalg.eigh.calls", "linalg.eigh", "calls"),
    ("linalg.eigvalsh.calls", "linalg.eigvalsh", "calls"),
    ("models.build.self_ms", "models.build", "self_ms"),
    ("models.ground_state_covariance.calls", "models.ground_state_covariance", "calls"),
    ("models.ground_state_covariance.self_ms", "models.ground_state_covariance", "self_ms"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
    ("states.read.self_ms", "states.read", "self_ms"),
    ("states.reduce.self_ms", "states.reduce", "self_ms"),
    ("states.wigner_values.self_ms", "states.wigner_values", "self_ms"),
    ("entropy.entanglement_entropy.self_ms", "entropy.entanglement_entropy", "self_ms"),
    ("entropy.mode_entropy.calls", "entropy.mode_entropy", "calls"),
    ("fock.thermal_entropy_bruteforce.calls", "fock.thermal_entropy_bruteforce", "calls"),
    ("fock.thermal_entropy_bruteforce.self_ms", "fock.thermal_entropy_bruteforce", "self_ms"),
]
LINALG_GROUPS = ("linalg.eigh", "linalg.eigvalsh")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- environment record ----------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git; None elsewhere."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, which names the code measured in any checkout."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sympent").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in thread_vars},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# --- client -------------------------------------------------------------------------


def invoke(cli, argv) -> tuple[float, object, str, str]:
    """Run ``cli.main(argv)`` once; return wall seconds, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash of the program under test is a failed operation
        code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def judge(op, code, stdout: str, stderr: str) -> str | None:
    """None when the operation returned its expected exit code and correct output."""
    if code != op.expect_exit:
        return f"exit {code!r}, expected {op.expect_exit}: {stderr.strip()[-300:]}"
    try:
        return op.check(stdout)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def record(self, op, problem: str | None) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(f"{' '.join(op.argv)[:200]}: {problem}")
        return False


# --- set-up -------------------------------------------------------------------------


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing sympent.cli, as every CLI run pays it."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import sympent.cli", str(SRC)],
        cwd=ROOT,
        check=True,
        timeout=120,
        capture_output=True,
    )
    return time.perf_counter() - start


def set_up(cli, workload_cls, seed: int):
    """Generate inputs and warm up SETUP_REPEATS times; keep the last workload.

    Returns the workload, the median import seconds and the median seconds
    of input generation and warm-up.
    """
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    prepares = []
    workdir = None
    for _ in range(SETUP_REPEATS):
        if workdir is not None:
            shutil.rmtree(workdir)
        start = time.perf_counter()
        workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        workload = workload_cls(seed, workdir)
        for op in workload.warmup():
            invoke(cli, op.argv)
        prepares.append(time.perf_counter() - start)
    return workload, statistics.median(imports), statistics.median(prepares)


# --- measurement --------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond). The tail is never taken
    below the median: with fewer than 2 * TAIL_BEYOND + 1 samples no such
    percentile lies above it, and the median is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def measure_plain(cli, workload, seconds: float, tally: Tally):
    walls, states = [], 0
    deadline = time.perf_counter() + seconds
    for op in workload.ops():
        wall, code, out, err = invoke(cli, op.argv)
        walls.append(wall)
        if tally.record(op, judge(op, code, out, err)):
            states += op.states
        if time.perf_counter() >= deadline:
            return walls, states


def measure_traced(cli, sympent, workload, seconds: float, tally: Tally):
    from tracer import LayerTotals, Tracer

    tracer, totals = Tracer(), LayerTotals()
    plain_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(workload.ops()):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install(sympent)
                tracer.begin_op()
                try:
                    wall, code, out, err = invoke(cli, op.argv)
                finally:
                    tracer.uninstall()
                totals.add_op(tracer.end_op(), wall)
                traced_s += wall
            else:
                wall, code, out, err = invoke(cli, op.argv)
                plain_s += wall
            tally.record(op, judge(op, code, out, err))
        if time.perf_counter() >= deadline:
            return totals, plain_s, traced_s


def layer_metrics(totals, plain_s: float, traced_s: float) -> dict:
    ops = totals.ops
    metrics = {}
    for name, group, quantity in LAYER_METRICS:
        if quantity == "calls":
            metrics[name] = {"value": totals.calls.get(group, 0) / ops, "unit": "count"}
        else:
            metrics[name] = {"value": 1e3 * totals.self_s.get(group, 0.0) / ops, "unit": "ms"}
    linalg_s = sum(totals.self_s.get(g, 0.0) for g in LINALG_GROUPS)
    named = {group for _, group, _ in LAYER_METRICS} | set(LINALG_GROUPS)
    other_s = sum(v for g, v in totals.self_s.items() if g not in named)
    metrics["linalg.self_ms"] = {"value": 1e3 * linalg_s / ops, "unit": "ms"}
    metrics["linalg.flops_computed"] = {"value": totals.flops / ops, "unit": "flop"}
    metrics["other.self_ms"] = {"value": 1e3 * other_s / ops, "unit": "ms"}
    metrics["cli.busy_ratio"] = {"value": totals.busy_s / totals.wall_s, "unit": "ratio"}
    metrics["tracer.overhead_ms"] = {"value": 1e3 * (traced_s - plain_s) / ops, "unit": "ms"}
    return metrics


def print_table(totals) -> None:
    print(f"# per-layer breakdown over {totals.ops} traced ops (per op; self time excludes children)")
    for group in sorted(totals.calls, key=lambda g: -totals.self_s[g]):
        print(
            f"#   {group:40s} calls {totals.calls[group] / totals.ops:10.2f}"
            f"   self {1e3 * totals.self_s[group] / totals.ops:10.3f} ms"
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sympent" / "cli.py").is_file():
        print(f"perfbench: no sympent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sympent
    import sympent.cli as cli

    if Path(sympent.__file__).resolve().parent != SRC / "sympent":
        print(f"perfbench: imported sympent from {sympent.__file__}, not {SRC}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    try:
        workload, import_s, prepare_s = set_up(cli, WORKLOADS[args.workload], args.seed)
        setup_s = import_s + prepare_s
        env = environment(args.seed)
        print("# env " + json.dumps(env, sort_keys=True))
        print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        tally = Tally()
        if args.trace:
            totals, plain_s, traced_s = measure_traced(cli, sympent, workload, args.seconds, tally)
            metrics = layer_metrics(totals, plain_s, traced_s)
            print_table(totals)
            print(
                f"# tracing overhead {metrics['tracer.overhead_ms']['value']:.3f} ms per op: "
                f"traced {1e3 * traced_s / totals.ops:.3f} ms, plain {1e3 * plain_s / totals.ops:.3f} ms"
            )
        else:
            walls, states = measure_plain(cli, workload, args.seconds, tally)
            tail_s, tail_pct, beyond = tail(walls)
            metrics = {
                "states_per_s": {"value": states / sum(walls), "unit": "1/s"},
                "op_p50_ms": {"value": 1e3 * statistics.median(walls), "unit": "ms"},
                "op_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
            print(f"# op_p50_ms over {len(walls)} samples")
            print(f"# op_tail_ms is p{tail_pct:.2f}, {beyond} samples beyond it, of {len(walls)}")
            print(f"# setup_s = import {import_s:.4f} s + inputs and warm-up {prepare_s:.4f} s (medians of {SETUP_REPEATS})")
        print(f"# failed_frac {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} ops)")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        for line in tally.first_failures:
            print(f"perfbench: failed: {line}", file=sys.stderr)
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
