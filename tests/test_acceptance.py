"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math

import numpy as np

from sympent import (
    ModePartition,
    chain_model,
    entanglement_entropy,
    ground_state_covariance,
    mode_entropy,
    random_symplectic,
    reduce,
    symplectic_form,
    symplectic_spectrum,
    thermal_entropy_bruteforce,
    thermal_parameter,
    required_n_max,
    covariance_to_json_dict,
    vacuum,
    validate,
    williamson,
)
from sympent.cli import main

from conftest import random_valid_covariance


def _verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_worked_example_reproduction():
    gamma = ground_state_covariance(chain_model(2, 1.0, 1.0, 2.0))
    sigma = symplectic_spectrum(reduce(gamma, [1]))[0]
    alpha = 3.0
    target = (1.0 + alpha) / (4.0 * math.sqrt(alpha))
    err = abs(sigma - target)
    _verdict(1, "worked-example sigma", err < 1e-10, f"|sigma - (1+a)/(4 sqrt a)| = {err:.3e}")


def test_criterion_2_oracle_equivalence():
    sigmas = [0.5 + 10.0**-k for k in range(1, 7)]
    sigmas += [0.6, 1.0 / math.sqrt(3.0), 1.5, 3.0, 10.0]
    worst = 0.0
    for sigma in sigmas:
        beta = thermal_parameter(sigma)
        oracle = thermal_entropy_bruteforce(beta, required_n_max(beta) + 8)
        worst = max(worst, abs(mode_entropy(sigma) - oracle))
    exact_err = abs(mode_entropy(1.5) - 2.0)
    ok = worst < 1e-8 and exact_err < 1e-12
    _verdict(2, "oracle equivalence", ok, f"max dev = {worst:.3e}, sigma=1.5 err = {exact_err:.3e}")


def test_criterion_3_purity_and_complementarity():
    rng = np.random.default_rng(2024)
    worst_total = 0.0
    worst_spec = 0.0
    ok = True
    for draw in range(50):
        n = int(rng.integers(2, 9))
        boundary = "open" if draw % 2 == 0 else "periodic"
        lam = float(rng.uniform(0.0, 3.0))
        gamma = ground_state_covariance(chain_model(n, 1.0, 1.0, lam, boundary))
        ok &= validate(gamma).pure

        size_a = int(rng.integers(1, n))
        modes = list(rng.permutation(np.arange(1, n + 1)))
        part = ModePartition.from_sides(modes[:size_a], modes[size_a:])
        report = entanglement_entropy(gamma, part)
        total_b = sum(mode_entropy(s) for s in report.spectrum_b)
        worst_total = max(worst_total, abs(report.total_bits - total_b))

        thermal_a = np.sort(report.spectrum_a[report.spectrum_a > 0.5 + 1e-7])
        thermal_b = np.sort(report.spectrum_b[report.spectrum_b > 0.5 + 1e-7])
        ok &= len(thermal_a) == len(thermal_b)
        if len(thermal_a) == len(thermal_b) and len(thermal_a) > 0:
            worst_spec = max(worst_spec, float(np.max(np.abs(thermal_a - thermal_b))))
    ok = ok and worst_total < 1e-8 and worst_spec < 1e-8
    _verdict(
        3,
        "purity and complementarity",
        ok,
        f"max |S(A)-S(B)| = {worst_total:.3e}, max spectrum dev = {worst_spec:.3e}",
    )


def test_criterion_4_symplectic_invariance():
    omega = symplectic_form(3)
    worst_spec = 0.0
    worst_res = 0.0
    for k in range(100):
        gamma, sigmas = random_valid_covariance(3, seed=3000 + k)
        s = random_symplectic(3, seed=6000 + k)
        moved = s @ gamma @ s.T
        worst_spec = max(worst_spec, float(np.max(np.abs(symplectic_spectrum(moved) - sigmas))))
        dec = williamson(moved)
        res_g = np.max(np.abs(dec.transform @ moved @ dec.transform.T - dec.normal_form))
        res_o = np.max(np.abs(dec.transform @ omega @ dec.transform.T - omega))
        worst_res = max(worst_res, float(res_g), float(res_o))
    ok = worst_spec < 1e-8 and worst_res < 1e-8
    _verdict(
        4,
        "symplectic invariance",
        ok,
        f"max spectrum dev = {worst_spec:.3e}, max residual = {worst_res:.3e}",
    )


def test_criterion_5_zero_coupling_limit(capsys, tmp_path):
    gamma = ground_state_covariance(chain_model(2, 1.0, 1.0, 0.0))
    report = entanglement_entropy(gamma, ModePartition.from_string("1|2"))
    exact_zero = report.total_bits == 0.0

    spec = tmp_path / "sweep.json"
    spec.write_text(
        json.dumps(
            {
                "model": {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0},
                "parameter": "lambda",
                "grid": {"start": 0.0, "stop": 2.0, "count": 9},
                "partition": "1|2",
            }
        ),
        encoding="utf-8",
    )
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep", str(spec), "--out", str(out_csv)])
    capsys.readouterr()
    rows = [
        line.split(",")
        for line in out_csv.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#") and not line.startswith("param")
    ]
    worst = 0.0
    for cells in rows:
        lam = float(cells[0])
        alpha = math.sqrt(1.0 + 4.0 * lam)
        worst = max(worst, abs(float(cells[1]) - (1 + alpha) / (4 * math.sqrt(alpha))))
    first_zero = rows[0][2] == "0"
    ok = exact_zero and code == 0 and worst < 1e-10 and first_zero
    _verdict(
        5,
        "zero-coupling limit",
        ok,
        f"entropy(0) = {report.total_bits!r}, max sweep sigma dev = {worst:.3e}",
    )


def test_criterion_6_physicality_gate():
    agree = 0
    total = 0
    tol = 1e-8
    for seed in range(100):
        gamma, sigmas = random_valid_covariance(3, seed=seed, sigma_range=(0.55, 3.0))
        total += 1
        agree += int(validate(gamma, tol=tol).valid == (sigmas[-1] >= 0.5 - tol))
    for seed in range(100):
        gamma, sigmas = random_valid_covariance(3, seed=7000 + seed, sigma_range=(0.1, 0.45))
        total += 1
        agree += int(validate(gamma, tol=tol).valid == (sigmas[-1] >= 0.5 - tol))
    # the spectrum recomputed from the assembled matrix must agree too
    recomputed = all(
        abs(symplectic_spectrum(random_valid_covariance(3, seed=s)[0])[-1]
            - random_valid_covariance(3, seed=s)[1][-1]) < 1e-9
        for s in range(5)
    )
    ok = agree == total and recomputed
    _verdict(6, "physicality gate", ok, f"agreement {agree}/{total}")


def test_criterion_7_wigner_normalization(capsys, tmp_path):
    vac_file = tmp_path / "vac.json"
    vac_file.write_text(json.dumps(covariance_to_json_dict(vacuum(1))), encoding="utf-8")
    code_v = main(["wigner", str(vac_file), "--mode", "1", "--out", str(tmp_path / "v.csv")])
    out_v = json.loads(capsys.readouterr().out)

    model_file = tmp_path / "model.json"
    model_file.write_text(
        json.dumps({"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 2.0}),
        encoding="utf-8",
    )
    code_t = main(["wigner", str(model_file), "--mode", "1", "--out", str(tmp_path / "t.csv")])
    out_t = json.loads(capsys.readouterr().out)

    peak_err = abs(out_v["peak"] - 1.0 / math.pi)
    int_err_v = abs(out_v["grid_integral"] - 1.0)
    int_err_t = abs(out_t["grid_integral"] - 1.0)
    ok = code_v == 0 and code_t == 0 and peak_err < 1e-12 and int_err_v < 1e-6 and int_err_t < 1e-6
    _verdict(
        7,
        "Wigner normalization",
        ok,
        f"peak err = {peak_err:.3e}, integral errs = {int_err_v:.3e}, {int_err_t:.3e}",
    )
