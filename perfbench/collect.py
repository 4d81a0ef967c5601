"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the root of a checkout:

    python3 perfbench/collect.py --workloads chain_entropy file_mixed --seeds 1-10 --trace-seeds 1-2

Runs are sequential, one fresh process each, with the ``run_seconds`` of
BENCHMARK.json: untraced runs on ``--seeds``, then traced runs on
``--trace-seeds``. For each workload and metric it prints
the values' median, first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them), and the spread
(q3 - q1) / median next to the metric's bound. With ``--out`` the summary and
the environment record of the first run are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Final JSON object and environment record of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,4,7'")
    parser.add_argument("--trace-seeds", default=None, help="seeds of the traced runs; none by default")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {"run_seconds": seconds, "env": None, "end_to_end": {}, "per_layer": {}}
    passes = [(0, "end_to_end", seed_list(args.seeds))]
    if args.trace_seeds:
        passes.append((1, "per_layer", seed_list(args.trace_seeds)))
    for trace, section, seeds in passes:
        for workload in args.workloads:
            runs = []
            for seed in seeds:
                result, env = run_once(workload, seed, seconds, trace)
                summary["env"] = summary["env"] or env
                if not result["correct"]:
                    print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
                runs.append(result)
            metrics = {}
            for name in runs[0]["metrics"]:
                s = metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
                s["unit"] = runs[0]["metrics"][name]["unit"]
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"{workload:14s} {name:42s} median {s['median']:12.6g} {s['unit']:6s} "
                      f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {spread} bound {bounds.get(name)}")
            summary[section][workload] = {
                "seeds": seeds,
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": metrics,
            }
            sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
