"""Every CLI command, ``import sympent`` and ``random_symplectic`` run
without loading scipy: the package needs numpy alone.

Each test starts a fresh interpreter, so the modules it loads are those of a
real ``sympent`` process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sympent
from sympent import covariance_to_json_dict

from conftest import random_valid_covariance

SRC = Path(sympent.__file__).resolve().parent.parent

# Runs sympent.cli.main on each argv of the JSON list in sys.argv[1] with
# scipy blocked (a None entry in sys.modules makes its import raise), then
# prints the exit codes as the last line.
GUARDED_RUN = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from sympent.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def fresh_python(*args, cwd):
    """Run a fresh interpreter on ``args`` with the package's sources on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300, check=False
    )


def test_every_command_runs_with_scipy_blocked(tmp_path):
    chain = {"type": "chain", "n": 8, "m": 1.0, "omega": 1.0, "lambda": 0.5, "boundary": "periodic"}
    (tmp_path / "chain.json").write_text(json.dumps(chain), encoding="utf-8")
    gamma, _ = random_valid_covariance(3, seed=11)
    (tmp_path / "state.json").write_text(json.dumps(covariance_to_json_dict(gamma)), encoding="utf-8")
    unphysical = np.diag([0.5, 0.5, 0.4, 0.5])  # sigma_1 = sqrt(0.5 * 0.4) < 1/2
    (tmp_path / "bad.json").write_text(json.dumps(covariance_to_json_dict(unphysical)), encoding="utf-8")
    spec = {
        "model": chain,
        "parameter": "lambda",
        "grid": {"start": 0.0, "stop": 2.0, "count": 5},
        "partition": "1,2,3,4|5,6,7,8",
    }
    (tmp_path / "sweep.json").write_text(json.dumps(spec), encoding="utf-8")
    cases = [
        (["validate", "chain.json"], 0),
        (["spectrum", "chain.json"], 0),
        (["entropy", "chain.json", "--partition", "1,2,3,4|5,6,7,8"], 0),
        (["wigner", "chain.json", "--out", "chain_w.csv"], 0),
        (["validate", "state.json"], 0),
        (["spectrum", "state.json"], 0),
        (["entropy", "state.json", "--partition", "1|2,3"], 0),
        (["wigner", "state.json", "--mode", "2", "--out", "state_w.csv"], 0),
        (["validate", "bad.json"], 2),
        (["sweep", "sweep.json", "--out", "sweep.csv"], 0),
        (["verify", "--grid", "coarse"], 0),
    ]
    argvs = [argv for argv, _ in cases]
    proc = fresh_python("-c", GUARDED_RUN, json.dumps(argvs), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [code for _, code in cases]
    for name in ("chain_w.csv", "state_w.csv", "sweep.csv"):
        assert (tmp_path / name).stat().st_size > 0


def test_import_loads_no_scipy_module(tmp_path):
    proc = fresh_python(
        "-c",
        "import sys, sympent, sympent.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # the whole package, random_symplectic included, runs with scipy blocked
    proc = fresh_python(
        "-c",
        "import sys; sys.modules['scipy'] = None; "
        "import sympent; print(sympent.random_symplectic(4, 0).shape)",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(8, 8)"
