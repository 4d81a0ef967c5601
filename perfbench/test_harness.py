"""Tests of the benchmark harness itself.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/test_harness.py``.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

import sympent  # noqa: E402
import sympent.cli  # noqa: E402


# --- output checks ----------------------------------------------------------------


def test_chain_check_accepts_sympent_and_rejects_perturbed_spectrum(tmp_path):
    wl = workloads.ChainEntropy(seed=3, workdir=tmp_path)
    op = wl.warmup()[0]
    _, code, stdout, _ = run.invoke(sympent.cli, op.argv)
    assert code == 0
    assert op.check(stdout) is None

    out = json.loads(stdout)
    out["spectrum_a"][0] += 1e-6
    assert "spectrum_a[0]" in op.check(json.dumps(out))


def test_file_checks_reject_perturbed_spectrum_and_wrong_validity(tmp_path):
    wl = workloads.FileMixed(seed=3, workdir=tmp_path)
    state = next(st for st in wl.states if st.kind == "mixed")
    want = np.sort(state.nu)[::-1]
    spectrum = wl._spectrum(state)
    assert spectrum.check(json.dumps({"sigmas": want.tolist()})) is None
    bumped = want.copy()
    bumped[-1] *= 1 + 1e-7
    assert "sigmas" in spectrum.check(json.dumps({"sigmas": bumped.tolist()}))
    assert "values" in spectrum.check(json.dumps({"sigmas": want[:-1].tolist()}))

    bad = next(st for st in wl.states if st.kind == "unphysical")
    validate = wl._validate(bad)
    assert validate.expect_exit == workloads.EXIT_UNPHYSICAL
    reported = {"valid": True, "min_symplectic_eigenvalue": float(bad.nu.min())}
    assert "valid" in validate.check(json.dumps(reported))


def test_every_file_op_passes_against_sympent(tmp_path):
    wl = workloads.FileMixed(seed=5, workdir=tmp_path)
    for op in wl.warmup() + [wl._validate(st) for st in wl.states]:
        _, code, stdout, stderr = run.invoke(sympent.cli, op.argv)
        assert run.judge(op, code, stdout, stderr) is None, op.argv


def test_general_sigmas_recovers_planted_spectrum():
    rng = np.random.default_rng(0)
    gamma, nu = workloads.plant_state(rng, 6, "mixed")
    np.testing.assert_allclose(workloads.general_sigmas(gamma), np.sort(nu)[::-1], rtol=1e-12)


# --- tracer -------------------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_calls():
    tr = tracer.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 8.0, 10.0]))
    inner = tr.wrap(lambda: None, "inner")
    outer = tr.wrap(lambda: (inner(), inner()), "outer")
    tr.begin_op()
    outer()
    totals = tracer.LayerTotals()
    totals.add_op(tr.end_op(), wall_s=10.0)
    assert totals.calls == {"outer": 1, "inner": 2}
    assert totals.self_s["inner"] == pytest.approx(2.0 + 4.0)
    assert totals.self_s["outer"] == pytest.approx(10.0 - 6.0)
    assert totals.busy_s == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        tracer.Span(1, "root", 0.0, 10.0, None, True),
        tracer.Span(2, "point", 1.0, 5.0, 1, True),
        tracer.Span(3, "point", 3.0, 7.0, 1, True),
        tracer.Span(4, "leaf", 3.5, 4.5, 3, False),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {1: pytest.approx(4.0), 2: pytest.approx(4.0), 3: pytest.approx(3.0), 4: pytest.approx(1.0)}
    assert tracer.union_length([(1.0, 2.0), (5.0, 9.0)], 0.0, 6.0) == pytest.approx(2.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    before = {(mod, name): obj for mod in (sympent.cli, sympent.entropy, sympent.states)
              for name, obj in vars(mod).items()}
    original = sympent.states.validate
    tr = tracer.Tracer()
    tr.install(sympent)
    try:
        assert sympent.states.validate is not original
        assert sympent.cli.validate is sympent.states.validate
        assert sympent.entropy.validate is sympent.states.validate
        tr.begin_op()
        sympent.entropy.entanglement_entropy(np.eye(4) / 2, sympent.ModePartition.from_string("1|2"))
        groups = [s.group for s in tr.end_op()]
        assert "states.validate" in groups and "linalg.eigvalsh" in groups
    finally:
        tr.uninstall()
    after = {(mod, name): obj for mod in (sympent.cli, sympent.entropy, sympent.states)
             for name, obj in vars(mod).items()}
    assert all(after[key] is obj for key, obj in before.items())


def test_linalg_flops_scale_with_shape_and_dtype():
    assert tracer.linalg_flops("eigh", np.zeros((10, 10))) == pytest.approx(9e3)
    assert tracer.linalg_flops("eigvalsh", np.zeros((3, 10, 10), complex)) == pytest.approx(3 * 4 * 4e3 / 3)


# --- seeded inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    def generate(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        wl = workloads.WORKLOADS[name](seed, workdir)
        ops = wl.ops()
        argv = [" ".join(next(ops).argv).replace(str(workdir), "") for _ in range(12)]
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        return files, argv

    first, again, other = generate(7, "a"), generate(7, "b"), generate(8, "c")
    assert first == again
    assert first != other
