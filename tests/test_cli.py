import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sympent.cli as cli
from sympent import (
    chain_model,
    covariance_to_csv_text,
    covariance_to_json_dict,
    ground_state_covariance,
    reduce,
    vacuum,
    wigner_values,
)
from sympent.cli import main

from conftest import random_valid_covariance, two_mode_squeezed


def write_vacuum_json(path, n=1):
    path.write_text(json.dumps(covariance_to_json_dict(vacuum(n))), encoding="utf-8")


def write_model_json(path, lam=2.0, **extra):
    obj = {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": lam}
    obj.update(extra)
    path.write_text(json.dumps(obj), encoding="utf-8")


def write_sweep_json(path, model, parameter="lambda", start=0.0, stop=2.0, count=5, partition="1|2"):
    obj = {
        "model": model,
        "parameter": parameter,
        "grid": {"start": start, "stop": stop, "count": count},
        "partition": partition,
    }
    path.write_text(json.dumps(obj), encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ----------------------------------------------------------------


def test_validate_vacuum_exit_zero(capsys, tmp_path):
    state = tmp_path / "vac.json"
    write_vacuum_json(state)
    code, out, err = run(capsys, "validate", str(state))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert abs(payload["min_symplectic_eigenvalue"] - 0.5) < 1e-12
    assert payload["conventions"]["ordering"] == "qqpp"
    record = json.loads(err.strip().splitlines()[-1])
    assert record["tool_version"]
    assert record["input_digest"]


def test_validate_unphysical_exit_two(capsys, tmp_path):
    state = tmp_path / "bad.json"
    state.write_text(json.dumps(covariance_to_json_dict(0.4 * np.eye(2))), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(state))
    assert code == 2
    assert json.loads(out)["valid"] is False


def test_validate_garbled_exit_one(capsys, tmp_path):
    state = tmp_path / "garbled.json"
    state.write_text('{"n": 1, "ordering": "qqpp", "matrix": [0.5, 0.0]}', encoding="utf-8")
    code, out, err = run(capsys, "validate", str(state))
    assert code == 1
    assert out == ""
    assert "error" in err
    state.write_bytes(b'{"n": 1, "ordering": "qqpp", "matrix": [0.5, 0.0, 0.0, 0.5\xff]}')
    code, out, err = run(capsys, "validate", str(state))
    assert (code, out) == (1, "")
    assert err.startswith("sympent: error:")


def test_validate_missing_file_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error" in err


def test_validate_csv_input(capsys, tmp_path):
    state = tmp_path / "vac.csv"
    state.write_text(covariance_to_csv_text(vacuum(2)), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(state))
    assert code == 0
    assert json.loads(out)["n"] == 2


@pytest.mark.parametrize("scale,exit_code", [(1.0, 0), (0.9, 2)])
def test_validate_exit_codes_on_block_diagonal_states(capsys, tmp_path, scale, exit_code):
    gamma = scale * ground_state_covariance(chain_model(6, 1.0, 1.0, 0.5, "open"))
    state = tmp_path / "chain.json"
    state.write_text(json.dumps(covariance_to_json_dict(gamma)), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(state))
    assert code == exit_code
    assert json.loads(out)["valid"] is (exit_code == 0)


def write_two_mode_squeezed_json(path, r):
    path.write_text(json.dumps(covariance_to_json_dict(two_mode_squeezed(r))), encoding="utf-8")


STATE_COMMANDS = [["validate"], ["spectrum"], ["entropy", "--partition", "1|2"]]


@pytest.mark.parametrize("command", STATE_COMMANDS, ids=lambda c: c[0])
def test_ill_conditioned_state_fails_alike_in_every_command(capsys, tmp_path, command):
    state = tmp_path / "tms7.json"
    write_two_mode_squeezed_json(state, r=7.0)
    code, out, err = run(capsys, command[0], str(state), *command[1:])
    assert code == 1
    assert out == ""
    message = err.splitlines()[0]
    assert message.startswith(
        "sympent: error: matrix is not positive definite or is too ill-conditioned"
    )
    assert "SINGULAR_RTOL = 1e-12" in message


@pytest.mark.parametrize("command", STATE_COMMANDS, ids=lambda c: c[0])
def test_moderately_squeezed_state_passes_every_command(capsys, tmp_path, command):
    state = tmp_path / "tms1.json"
    write_two_mode_squeezed_json(state, r=1.0)
    code, out, _ = run(capsys, command[0], str(state), *command[1:])
    assert code == 0
    json.loads(out)


# --- spectrum ----------------------------------------------------------------


def test_spectrum_of_model(capsys, tmp_path):
    model = tmp_path / "model.json"
    write_model_json(model, lam=2.0)
    code, out, _ = run(capsys, "spectrum", str(model))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    np.testing.assert_allclose(payload["sigmas"], [0.5, 0.5], atol=1e-12)


# --- entropy -----------------------------------------------------------------


def test_entropy_reference_value(capsys, tmp_path):
    model = tmp_path / "model.json"
    write_model_json(model, lam=2.0)
    code, out, _ = run(capsys, "entropy", str(model), "--partition", "1|2")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["total_bits"] - 0.4014135460857288) < 1e-9
    assert payload["s_count"] == 1
    assert payload["pure_global_state"] is True
    assert payload["ab_agreement_residual_bits"] < 1e-8
    assert "spectrum_b" in payload
    assert payload["modes"][0]["beta"] != "inf"


def test_entropy_of_mixed_state_has_no_b_side(capsys, tmp_path):
    state = tmp_path / "thermal.json"
    gamma = np.diag([1.2, 0.7, 1.2, 0.7])
    state.write_text(json.dumps(covariance_to_json_dict(gamma)), encoding="utf-8")
    code, out, _ = run(capsys, "entropy", str(state), "--partition", "1|2")
    assert code == 0
    payload = json.loads(out)
    assert payload["pure_global_state"] is False
    assert "spectrum_b" not in payload
    assert "total_b_bits" not in payload
    assert "ab_agreement_residual_bits" not in payload
    np.testing.assert_allclose(payload["spectrum_a"], [1.2], atol=1e-12)


def test_entropy_four_mode_vacuum_interleaved_partition(capsys, tmp_path):
    state = tmp_path / "vac4.json"
    write_vacuum_json(state, n=4)
    code, out, _ = run(capsys, "entropy", str(state), "--partition", "1,3|2,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_bits"] == 0.0
    assert payload["s_count"] == 0


def test_entropy_nats_base(capsys, tmp_path):
    model = tmp_path / "model.json"
    write_model_json(model, lam=2.0)
    code, out, _ = run(capsys, "entropy", str(model), "--partition", "1|2", "--base", "nats")
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["total"] - payload["total_bits"] * math.log(2.0)) < 1e-15


@pytest.mark.parametrize("partition", ["1,2", "1|", "1|3", "0|1,2", "x|y"])
def test_entropy_bad_partition_exit_one(capsys, tmp_path, partition):
    model = tmp_path / "model.json"
    write_model_json(model)
    code, _, err = run(capsys, "entropy", str(model), "--partition", partition)
    assert code == 1
    assert "error" in err


def test_entropy_unphysical_state_exit_one(capsys, tmp_path):
    state = tmp_path / "bad.json"
    state.write_text(json.dumps(covariance_to_json_dict(0.4 * np.eye(4))), encoding="utf-8")
    code, _, err = run(capsys, "entropy", str(state), "--partition", "1|2")
    assert code == 1
    assert "unphysical" in err


def assert_clean_failure(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("sympent: error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field,value", [("lambda", math.nan), ("lambda", math.inf), ("m", math.inf), ("omega", math.inf)]
)
@pytest.mark.parametrize("command", STATE_COMMANDS[1:], ids=lambda c: c[0])
def test_non_finite_model_parameter_exit_one(capsys, tmp_path, command, field, value):
    model = tmp_path / "model.json"
    write_model_json(model, **{field: value})  # json writes NaN / Infinity
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, command[0], str(model), *command[1:], "--out", str(out_file))
    assert_clean_failure(code, out, err)
    assert not out_file.exists()


@pytest.mark.parametrize("command", STATE_COMMANDS[1:], ids=lambda c: c[0])
def test_huge_chain_is_refused_before_allocation(capsys, tmp_path, command):
    model = tmp_path / "model.json"
    write_model_json(model, type="chain", n=10**9, boundary="periodic")
    code, out, err = run(capsys, command[0], str(model), *command[1:])
    assert_clean_failure(code, out, err)
    assert "MAX_MODES = 2048, got 1000000000" in err


# --- sweep -------------------------------------------------------------------


def read_csv_rows(path):
    header = []
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line:
            rows.append(line.split(","))
    return header, rows[0], rows[1:]


def test_sweep_matches_closed_form(capsys, tmp_path):
    spec = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    write_sweep_json(spec, {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0})
    code, out, _ = run(capsys, "sweep", str(spec), "--out", str(out_csv))
    assert code == 0
    assert json.loads(out)["rows"] == 5

    header, columns, rows = read_csv_rows(out_csv)
    assert columns == ["param", "sigma_1", "total_bits", "s_count"]
    assert any("ordering=qqpp" in line and "hbar=1" in line for line in header)
    assert len(rows) == 5
    for cells in rows:
        lam = float(cells[0])
        alpha = math.sqrt(1.0 + 4.0 * lam)
        assert abs(float(cells[1]) - (1 + alpha) / (4 * math.sqrt(alpha))) < 1e-10
    assert rows[0][2] == "0"
    assert rows[0][3] == "0"


def test_sweep_chain_sides_agree(capsys, tmp_path):
    model = {"type": "chain", "n": 6, "m": 1.0, "omega": 1.0, "lambda": 0.0, "boundary": "open"}
    spec_a = tmp_path / "a.json"
    spec_b = tmp_path / "b.json"
    write_sweep_json(spec_a, model, start=0.0, stop=3.0, count=7, partition="1,2,3|4,5,6")
    write_sweep_json(spec_b, model, start=0.0, stop=3.0, count=7, partition="4,5,6|1,2,3")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run(capsys, "sweep", str(spec_a), "--out", str(out_a))[0] == 0
    assert run(capsys, "sweep", str(spec_b), "--out", str(out_b))[0] == 0
    _, _, rows_a = read_csv_rows(out_a)
    _, _, rows_b = read_csv_rows(out_b)
    for ra, rb in zip(rows_a, rows_b):
        assert abs(float(ra[-2]) - float(rb[-2])) < 1e-8


def test_sweep_requires_out(capsys, tmp_path):
    spec = tmp_path / "sweep.json"
    write_sweep_json(spec, {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0})
    code, _, err = run(capsys, "sweep", str(spec))
    assert code == 1
    assert "--out" in err


def test_sweep_invalid_grid_point_aborts_without_output(capsys, tmp_path):
    spec = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    write_sweep_json(
        spec,
        {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0},
        start=-1.0,
        stop=1.0,
        count=3,
    )
    code, _, err = run(capsys, "sweep", str(spec), "--out", str(out_csv))
    assert code == 1
    assert "lambda=-1" in err
    assert not out_csv.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_sweep_names_first_failing_grid_point(capsys, tmp_path):
    spec = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    write_sweep_json(
        spec,
        {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0},
        start=-2.0,
        stop=1.0,
        count=4,
    )
    code, _, err = run(capsys, "sweep", str(spec), "--out", str(out_csv))
    assert code == 1
    assert "grid point lambda=-2:" in err
    assert "lambda=-1" not in err
    assert not out_csv.exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"count": 1},
        {"start": 2.0, "stop": 1.0},
        {"parameter": "boundary"},
        {"partition": "1|2,3"},
    ],
)
def test_sweep_rejects_bad_specs(capsys, tmp_path, kwargs):
    spec = tmp_path / "sweep.json"
    write_sweep_json(
        spec, {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0}, **kwargs
    )
    code, _, err = run(capsys, "sweep", str(spec), "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "model_extra,grid",
    [
        ({}, {"stop": math.inf}),
        ({}, {"start": -math.inf}),
        ({}, {"start": math.nan}),
        ({}, {"count": math.inf}),
        ({"m": math.nan}, {}),
        ({"omega": math.inf}, {}),
    ],
    ids=["stop-inf", "start-neg-inf", "start-nan", "count-inf", "m-nan", "omega-inf"],
)
def test_sweep_rejects_non_finite_specs(capsys, tmp_path, model_extra, grid):
    spec = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    model = {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0, **model_extra}
    write_sweep_json(spec, model, **grid)
    code, out, err = run(capsys, "sweep", str(spec), "--out", str(out_csv))
    assert_clean_failure(code, out, err)
    assert not out_csv.exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize(
    "kwargs,cause",
    [
        ({"partition": 5}, "sweep partition must be a string"),
        ({"partition": None}, "sweep partition must be a string"),
        ({"partition": [1, 2]}, "sweep partition must be a string"),
        ({"count": 10_001}, "MAX_SWEEP_POINTS = 10000, got 10001"),
        ({"count": 10**12}, "MAX_SWEEP_POINTS = 10000, got 1000000000000"),
    ],
    ids=["partition-int", "partition-null", "partition-list", "count-max+1", "count-1e12"],
)
def test_sweep_names_the_malformed_field(capsys, tmp_path, kwargs, cause):
    spec = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    model = {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0}
    write_sweep_json(spec, model, **kwargs)
    code, out, err = run(capsys, "sweep", str(spec), "--out", str(out_csv))
    assert_clean_failure(code, out, err)
    assert cause in err
    assert not out_csv.exists()


def test_sweep_grid_may_have_max_points():
    spec = {
        "model": {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0},
        "parameter": "lambda",
        "grid": {"start": 0.0, "stop": 1.0, "count": cli.MAX_SWEEP_POINTS},
        "partition": "1|2",
    }
    _, _, grid, _ = cli._parse_sweep_spec(spec)
    assert len(grid) == cli.MAX_SWEEP_POINTS


def test_sweep_refuses_huge_chain(capsys, tmp_path):
    spec = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    model = {"type": "chain", "n": 10**9, "m": 1.0, "omega": 1.0, "lambda": 0.5}
    write_sweep_json(spec, model)
    code, out, err = run(capsys, "sweep", str(spec), "--out", str(out_csv))
    assert_clean_failure(code, out, err)
    assert "MAX_MODES = 2048, got 1000000000" in err
    assert not out_csv.exists()


# --- verify ------------------------------------------------------------------


def test_verify_coarse_grid_passes(capsys):
    code, out, _ = run(capsys, "verify", "--grid", "coarse")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 11
    devs = [float(cells[-1]) for cells in rows]
    assert max(devs) < 1e-8
    two_bit_row = [cells for cells in rows if abs(float(cells[0]) - 1.5) < 1e-12][0]
    assert abs(float(two_bit_row[3]) - 2.0) < 1e-12
    assert abs(float(two_bit_row[4]) - 2.0) < 1e-12
    # each row carries the adequate truncation level from the tail bound
    beta = math.log(2.0)
    assert int(two_bit_row[2]) == math.ceil(-math.log(1e-12) / beta)
    assert "max_deviation=" in out


def test_verify_fine_grid_passes(capsys):
    code, out, _ = run(capsys, "verify", "--grid", "fine")
    assert code == 0
    assert "offenders=0" in out


def test_verify_impossible_tolerance_exit_three(capsys):
    code, _, err = run(capsys, "verify", "--grid", "coarse", "--tol", "1e-18")
    assert code == 3
    assert "deviation above tolerance" in err


# --- wigner ------------------------------------------------------------------


def test_wigner_vacuum_grid(capsys, tmp_path):
    state = tmp_path / "vac.json"
    write_vacuum_json(state)
    out_csv = tmp_path / "w.csv"
    code, out, _ = run(capsys, "wigner", str(state), "--mode", "1", "--out", str(out_csv))
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["peak"] - 1.0 / math.pi) < 1e-12
    assert abs(payload["grid_integral"] - 1.0) < 1e-6
    text = out_csv.read_text(encoding="utf-8")
    assert "grid_integral=" in text
    data_lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert data_lines[0] == "q,p,w"
    assert len(data_lines) - 1 == 161 * 161


def test_wigner_thermal_mode_peak(capsys, tmp_path):
    model = tmp_path / "model.json"
    write_model_json(model, lam=2.0)
    out_csv = tmp_path / "w.csv"
    code, out, _ = run(capsys, "wigner", str(model), "--mode", "1", "--out", str(out_csv))
    assert code == 0
    payload = json.loads(out)
    sigma = 1.0 / math.sqrt(3.0)
    assert abs(payload["peak"] - 1.0 / (2.0 * math.pi * sigma)) < 1e-12
    assert abs(payload["grid_integral"] - 1.0) < 1e-6


def test_wigner_requires_out_and_valid_mode(capsys, tmp_path):
    model = tmp_path / "model.json"
    write_model_json(model)
    assert run(capsys, "wigner", str(model))[0] == 1
    assert run(capsys, "wigner", str(model), "--mode", "3", "--out", str(tmp_path / "w.csv"))[0] == 1
    assert (
        run(capsys, "wigner", str(model), "--grid", "8", "--out", str(tmp_path / "w.csv"))[0] == 1
    )


@pytest.mark.parametrize(
    "grid,cause",
    [
        ("1e308,5", "grid spacing"),
        ("5e-324,1001", "grid spacing"),
        ("inf,5", "grid extent must be finite and > 0"),
        ("nan,5", "grid extent must be finite and > 0"),
        ("0,5", "grid extent must be finite and > 0"),
        ("-1,5", "grid extent must be finite and > 0"),
        ("8,1", "MAX_WIGNER_STEPS = 1001"),
        ("8,1002", "MAX_WIGNER_STEPS = 1001"),
        ("8,100000", "MAX_WIGNER_STEPS = 1001"),
        ("8", "grid must be '<extent>,<steps>'"),
        ("8,2.5", "grid must be '<extent>,<steps>'"),
    ],
)
def test_wigner_grid_is_checked_before_the_input_is_read(capsys, tmp_path, grid, cause):
    # The input does not exist: only a grid error raised before any read names the grid.
    out_csv = tmp_path / "w.csv"
    code, out, err = run(
        capsys, "wigner", str(tmp_path / "missing.json"), f"--grid={grid}", "--out", str(out_csv)
    )
    assert_clean_failure(code, out, err)
    assert cause in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "grid,expected", [("8,161", (8.0, 161)), ("8,1001", (8.0, 1001)), ("1e-300,2", (1e-300, 2))]
)
def test_wigner_grid_limits_are_inclusive(grid, expected):
    assert cli._parse_wigner_grid(grid) == expected


def reference_wigner_rows(gamma, mode, extent, steps):
    """Data rows of the wigner CSV, one format() per cell, independent of the CLI."""
    axis = np.linspace(-extent, extent, steps)
    qs, ps = np.meshgrid(axis, axis, indexing="ij")
    w = wigner_values(reduce(gamma, [mode]), np.stack([qs.ravel(), ps.ravel()])).reshape(qs.shape)
    return [
        f"{format(float(axis[i]), '.17g')},{format(float(axis[j]), '.17g')},"
        f"{format(float(w[i, j]), '.17g')}"
        for i in range(steps)
        for j in range(steps)
    ]


@pytest.mark.parametrize(
    "grid_args,mode,extent,steps",
    [([], 2, 8.0, 161), (["--grid", "2,5"], 1, 2.0, 5)],
    ids=["default-8,161", "2,5"],
)
def test_wigner_rows_match_per_cell_reference(capsys, tmp_path, grid_args, mode, extent, steps):
    gamma, _ = random_valid_covariance(2, seed=23)
    assert np.any(gamma[:2, 2:] != 0.0)  # general state: Gamma_qp != 0
    state = tmp_path / "state.json"
    state.write_text(json.dumps(covariance_to_json_dict(gamma)), encoding="utf-8")
    out_csv = tmp_path / "w.csv"
    argv = ["wigner", str(state), "--mode", str(mode), *grid_args, "--out", str(out_csv)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    lines = out_csv.read_text(encoding="utf-8").split("\n")
    assert lines[2] == "q,p,w"
    assert lines[-1] == ""
    assert lines[3:-1] == reference_wigner_rows(gamma, mode, extent, steps)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072009e-308)
@example(1.7976931348623157e308)
def test_percent_17g_is_format_17g(x):
    assert "%.17g" % x == format(x, ".17g")


def test_wigner_rejects_unphysical_state(capsys, tmp_path):
    state = tmp_path / "bad.json"
    state.write_text(json.dumps(covariance_to_json_dict(0.4 * np.eye(2))), encoding="utf-8")
    code, _, err = run(capsys, "wigner", str(state), "--mode", "1", "--out", str(tmp_path / "w.csv"))
    assert code == 1
    assert "unphysical" in err


# --- cross-cutting contracts ---------------------------------------------------


def test_primary_output_is_byte_identical_across_runs(capsys, tmp_path):
    model = tmp_path / "model.json"
    write_model_json(model, lam=1.3)
    _, out_one, _ = run(capsys, "entropy", str(model), "--partition", "1|2")
    _, out_two, _ = run(capsys, "entropy", str(model), "--partition", "1|2")
    assert out_one == out_two

    spec = tmp_path / "sweep.json"
    write_sweep_json(spec, {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0})
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    run(capsys, "sweep", str(spec), "--out", str(first))
    run(capsys, "sweep", str(spec), "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_usage_errors_exit_one(capsys, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1
    capsys.readouterr()
    model = tmp_path / "model.json"
    write_model_json(model)
    with pytest.raises(SystemExit) as excinfo:
        main(["entropy", str(model)])  # missing --partition
    assert excinfo.value.code == 1
    capsys.readouterr()


def test_run_record_goes_to_stderr_only(capsys, tmp_path):
    state = tmp_path / "vac.json"
    write_vacuum_json(state)
    _, out, err = run(capsys, "validate", str(state))
    assert "timestamp" not in out
    record = json.loads(err.strip().splitlines()[-1])
    assert set(record) == {"tool_version", "input_digest", "options", "outputs", "timestamp"}
    assert record["outputs"] == ["stdout"]


@pytest.mark.parametrize("command", ["validate", "spectrum"])
@pytest.mark.parametrize(
    "text",
    ['{"n": 1' + "0" * 5000 + "}", '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["5000-digit-int", "nested-100000-deep"],
)
def test_json_beyond_the_parser_limits_exit_one(capsys, tmp_path, command, text):
    state = tmp_path / "state.json"
    state.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, str(state))
    assert_clean_failure(code, out, err)
    assert "invalid JSON" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-1e-9"])
def test_tol_must_be_finite_and_non_negative(capsys, tmp_path, tol):
    state = tmp_path / "vac.json"
    write_vacuum_json(state)
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", str(state), f"--tol={tol}"])
    assert excinfo.value.code == 1
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["spectrum"], ["entropy", "--partition", "1|2"], ["wigner", "--grid", "2,5", "--out"]],
    ids=lambda c: c[0],
)
def test_input_is_read_once_and_digested_as_bytes(capsys, tmp_path, monkeypatch, command):
    # CRLF line ends: a digest of re-encoded text would differ from the file's
    state = tmp_path / "vac.csv"
    data = covariance_to_csv_text(vacuum(2)).replace("\n", "\r\n").encode()
    state.write_bytes(data)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    argv = [command[0], str(state), *command[1:]]
    if argv[-1] == "--out":
        argv.append(str(tmp_path / "w.csv"))
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert opened == [str(state)]
    record = json.loads(err.strip().splitlines()[-1])
    assert record["input_digest"] == hashlib.sha256(data).hexdigest()
