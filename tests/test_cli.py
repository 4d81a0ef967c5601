import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sympent
import sympent.cli as cli
import sympent.entropy as entropy
import sympent.models as models
import sympent.states as states
from sympent import (
    ChainModel,
    MalformedInputError,
    ModePartition,
    NumericalFailureError,
    chain_model,
    covariance_to_csv_text,
    covariance_to_json_dict,
    entanglement_entropy,
    ground_state_covariance,
    random_symplectic,
    reduce,
    vacuum,
    validate,
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


def run_or_usage_error(capsys, *argv):
    """run(), with argparse's usage-error exit taken as the exit code."""
    try:
        return run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


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
    # float() would read these CSV cells as 10 and 1
    for cell, cause in [("1_0", "must not contain '_'"), ("\u0661", "must be ASCII text")]:
        state.write_text(f"# sympent covariance n=1 ordering=qqpp\n{cell},0\n0,1\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", str(state))
        assert (code, out) == (1, "")
        assert cause in err


def test_validate_missing_file_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "model",
    [{"type": "chain", "n": 6, "m": 1.0, "omega": 1.0, "lambda": 0.5, "boundary": "periodic"},
     {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 2.0}],
    ids=["chain", "two_oscillator"],
)
def test_validate_reads_model_json(capsys, tmp_path, model):
    # the two model examples of README's file-format section
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["n"] == model.get("n", 2)
    # certified from the stored normal modes: every mode is a vacuum
    assert payload["min_symplectic_eigenvalue"] == 0.5


def test_load_state_dispatches_on_content():
    gamma = vacuum(2)
    for text in (json.dumps(covariance_to_json_dict(gamma)), covariance_to_csv_text(gamma)):
        loaded, meta = cli._load_state(text, "state")
        np.testing.assert_array_equal(loaded, gamma)
        assert meta == {"kind": "covariance"}
    # a model file gives the model itself, which stands for its ground state
    params = {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 2.0}
    loaded, meta = cli._load_state(json.dumps(params), "model.json")
    assert meta["kind"] == "model"
    assert isinstance(loaded, ChainModel) and loaded.n == 2
    assert loaded == chain_model(2, 1.0, 1.0, 2.0)
    with pytest.raises(MalformedInputError):
        cli._load_state("not a state\n", "state")
    with pytest.raises(MalformedInputError, match="invalid JSON in state.json"):
        cli._load_state("{", "state.json")


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


def planted_states(offset):
    """States whose smallest symplectic eigenvalue is 1/2 + offset: a scaled
    chain ground state and a squeezed thermal state (Gamma_qp = 0),
    S diag(nu, nu) S^T with Gamma_qp != 0, and diag(nu, nu) with the low
    mode alone on side A."""
    chain = (1 + 2 * offset) * ground_state_covariance(chain_model(8, 1.0, 1.0, 0.8, "periodic"))
    squeezed = (1 + 2 * offset) * two_mode_squeezed(2.0)
    s = random_symplectic(3, 7)
    nu = np.array([0.5 + offset, 0.8, 1.3])
    general = s @ np.diag(np.concatenate([nu, nu])) @ s.T
    diagonal = np.diag(np.concatenate([nu, nu]))
    return {"chain": (chain, "1,2,3|4,5,6,7,8"), "squeezed": (squeezed, "1|2"),
            "general": (general, "1|2,3"), "diagonal": (diagonal, "1|2,3")}


FLOOR_TOL = 1e-8
FLOOR_CASES = [
    pytest.param(kind, 2 * sign * FLOOR_TOL, id=f"{side}-{kind}")
    for side, sign in (("inside", 1), ("outside", -1))
    for kind in ("chain", "squeezed", "general")
]
# valid, yet below the 1/2 - SIGMA_TOL band of mode_entropy
FLOOR_CASES.append(pytest.param("diagonal", -FLOOR_TOL / 2, id="band"))


@pytest.mark.parametrize("kind,offset", FLOOR_CASES)
def test_validate_and_entropy_agree_at_the_vacuum_floor(capsys, tmp_path, kind, offset):
    gamma, partition = planted_states(offset)[kind]
    min_sigma = validate(gamma).min_symplectic_eigenvalue
    assert abs(min_sigma - (0.5 + offset)) < 1e-12
    state = tmp_path / "state.json"
    state.write_text(json.dumps(covariance_to_json_dict(gamma)), encoding="utf-8")
    valid_code, _, _ = run(capsys, "validate", str(state))
    entropy_code, _, err = run(capsys, "entropy", str(state), "--partition", partition)
    inside = offset >= -FLOOR_TOL
    assert (valid_code, entropy_code) == ((0, 0) if inside else (2, 1))
    if not inside:
        assert f"min symplectic eigenvalue {min_sigma:.17g} < 1/2 - 1.0e-08" in err


@pytest.mark.parametrize(
    "command", [["entropy", "--partition", "1|2"], ["wigner", "--out"]], ids=lambda c: c[0]
)
def test_unphysical_message_prints_sigma_in_full(capsys, tmp_path, command):
    # at 10 digits this sigma would print as 0.5, contradicting "< 1/2"
    nu = [0.5 - 1e-15, 0.8]
    gamma = np.diag(nu + nu)
    min_sigma = validate(gamma, tol=0.0).min_symplectic_eigenvalue
    assert min_sigma < 0.5
    state = tmp_path / "state.json"
    state.write_text(json.dumps(covariance_to_json_dict(gamma)), encoding="utf-8")
    argv = [command[0], str(state), *command[1:], "--tol", "0"]
    if "--out" in argv:
        argv.insert(argv.index("--out") + 1, str(tmp_path / "w.csv"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"min symplectic eigenvalue {min_sigma:.17g} < 1/2 - 0.0e+00" in err


CHAIN6 = {"type": "chain", "n": 6, "m": 1.0, "omega": 1.0, "lambda": 0.5, "boundary": "periodic"}


@pytest.fixture
def no_gamma(monkeypatch):
    """Every binding of ``ground_state_covariance`` in the package raises."""

    def formed(model):
        raise AssertionError("a model input formed its full covariance matrix")

    for module in (sympent, models, states, entropy, cli):
        monkeypatch.setattr(module, "ground_state_covariance", formed, raising=False)


def test_model_commands_never_form_gamma(capsys, tmp_path, no_gamma):
    # every command on a model file reads the Gram pairs of its cuts only
    path, spec = tmp_path / "chain.json", tmp_path / "sweep.json"
    path.write_text(json.dumps(CHAIN6), encoding="utf-8")
    write_sweep_json(spec, CHAIN6, count=3, partition="1,2|3,4,5,6")
    for argv in (
        ["validate", str(path)],
        ["spectrum", str(path)],
        ["entropy", str(path), "--partition", "1,2,3|4,5,6"],
        ["sweep", str(spec), "--out", str(tmp_path / "s.csv")],
        ["wigner", str(path), "--mode", "2", "--grid", "4,9", "--out", str(tmp_path / "w.csv")],
    ):
        assert run(capsys, *argv)[0] == 0, argv


@pytest.mark.parametrize(
    "command", [["validate"], ["entropy", "--partition", "1,2,3|4,5,6"]], ids=lambda c: c[0]
)
def test_model_at_tol_zero_is_valid_and_pure(capsys, tmp_path, command):
    # the certificate's residuals answer to their rounding bound, not to
    # --tol, so a ground state is valid and pure at every tol >= 0
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN6), encoding="utf-8")
    code, out, _ = run(capsys, command[0], str(path), *command[1:], "--tol", "0")
    assert code == 0
    report = json.loads(out)
    if command[0] == "validate":
        assert (report["valid"], report["min_symplectic_eigenvalue"], report["tol"]) == (True, 0.5, 0.0)
    else:
        assert report["pure_global_state"] and "spectrum_b" in report


def test_model_entropy_is_certified_not_solved(capsys, tmp_path, linalg_calls, linalg_shapes):
    # one solve of the cut's smaller side, A's 6 modes: two Cholesky of its
    # Gram pair and one SVD, and no eigensolver: the chain's modes are in
    # closed form
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(dict(CHAIN6, n=16)), encoding="utf-8")
    partition = "1,2,3,4,5,6|" + ",".join(str(i) for i in range(7, 17))
    code, _, _ = run(capsys, "entropy", str(path), "--partition", partition)
    assert code == 0
    assert sorted(name for name, _ in linalg_calls) == ["cholesky"] * 2 + ["svd"]
    assert linalg_shapes == [("cholesky", (6, 6)), ("cholesky", (6, 6)), ("svd", (6, 6))]


def test_model_entropy_computes_the_mode_factors_once(capsys, tmp_path, cut_grams_calls):
    # the Gram pair is formed once per run, for the sites of the solved side
    # alone (A's 6 modes, 0-based): the ground state is pure by construction
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(dict(CHAIN6, n=16)), encoding="utf-8")
    partition = "1,2,3,4,5,6|" + ",".join(str(i) for i in range(7, 17))
    for calls in (1, 2):
        code, _, _ = run(capsys, "entropy", str(path), "--partition", partition)
        assert code == 0
        assert cut_grams_calls == [[0, 1, 2, 3, 4, 5]] * calls


def test_model_validate_prints_a_zero_margin_without_a_solve(capsys, tmp_path, linalg_calls):
    # the closed-form modes, the certificate and the margin need no eigensolver
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN6), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(out)["min_heisenberg_eigenvalue"] == 0.0
    assert '"min_heisenberg_eigenvalue": 0.0,' in out
    assert linalg_calls == []


def test_sweep_point_is_certified_not_solved(
    capsys, tmp_path, monkeypatch, linalg_calls, linalg_shapes, no_gamma
):
    # each point's model is the state: its certificate runs no eigensolver
    # and forms no Gamma, and the Gram pairs of the A sides, from factor
    # rows, are solved as one stack pair of (4, 3, 3): two stacked Cholesky
    # and one SVD, and no eigensolver
    stacks = record_gram_stacks(monkeypatch)
    spec = tmp_path / "sweep.json"
    write_sweep_json(spec, CHAIN6, count=4, partition="1,2,3|4,5,6")
    code, _, _ = run(capsys, "sweep", str(spec), "--out", str(tmp_path / "sweep.csv"))
    assert code == 0
    assert [(x.shape, p.shape) for x, p in stacks] == [((4, 3, 3), (4, 3, 3))]
    assert sorted(name for name, _ in linalg_calls) == ["cholesky", "cholesky", "svd"]
    assert linalg_shapes == [("cholesky", (4, 3, 3)), ("cholesky", (4, 3, 3)), ("svd", (4, 3, 3))]


def test_sweep_solves_the_smaller_side_of_the_cut(capsys, tmp_path, monkeypatch, linalg_calls, linalg_shapes):
    # side A has 4 of the 6 modes, so the 4 points stack side B: one stack
    # pair of (4, 2, 2) Grams, two stacked Cholesky and one SVD
    stacks = record_gram_stacks(monkeypatch)
    spec = tmp_path / "sweep.json"
    write_sweep_json(spec, CHAIN6, count=4, partition="1,2,3,4|5,6")
    code, _, _ = run(capsys, "sweep", str(spec), "--out", str(tmp_path / "sweep.csv"))
    assert code == 0
    assert [(x.shape, p.shape) for x, p in stacks] == [((4, 2, 2), (4, 2, 2))]
    assert sorted(name for name, _ in linalg_calls) == ["cholesky", "cholesky", "svd"]
    assert linalg_shapes == [("cholesky", (4, 2, 2)), ("cholesky", (4, 2, 2)), ("svd", (4, 2, 2))]


def test_sweep_stacks_side_a_on_a_tie(capsys, tmp_path, monkeypatch):
    # each stacked Gram pair is twice the X_A and P_A of reduce(model, A)
    stacks = record_gram_stacks(monkeypatch)
    spec = tmp_path / "sweep.json"
    write_sweep_json(spec, CHAIN6, start=0.5, stop=2.0, count=4, partition="4,5,6|1,2,3")
    assert run(capsys, "sweep", str(spec), "--out", str(tmp_path / "sweep.csv"))[0] == 0
    [(xs, ps)] = stacks
    for x, p, lam in zip(xs, ps, np.linspace(0.5, 2.0, 4)):
        gamma = reduce(chain_model(6, 1.0, 1.0, lam, "periodic"), [4, 5, 6])
        np.testing.assert_array_equal(x / 2.0, gamma[:3, :3])
        np.testing.assert_array_equal(p / 2.0, gamma[3:, 3:])


def test_padded_sweep_row_stays_sorted_below_one_half(capsys, tmp_path):
    # on the open chain at lambda = 2.5e-9 the sigma of modes 5, 6 round to
    # 0.5 and 0.49999999999999994, so the two 0.5 of the pad go before the second
    spec = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    model = dict(CHAIN6, boundary="open")
    write_sweep_json(spec, model, start=0.0, stop=1e-8, count=5, partition="1,2,3,4|5,6")
    assert run(capsys, "sweep", str(spec), "--out", str(out_csv))[0] == 0
    _, _, rows = read_csv_rows(out_csv)
    assert rows[1][:5] == ["2.5000000000000001e-09", "0.5", "0.5", "0.5", "0.49999999999999994"]
    for row in rows:
        sigmas = [float(c) for c in row[1:5]]
        assert sigmas == sorted(sigmas, reverse=True)


@pytest.mark.parametrize("partition", ["1,2,3|4,5,6", "1,2,3,4|5,6", "5,6|1,2,3,4"])
def test_sweep_rows_are_the_entropy_of_their_points(capsys, tmp_path, partition):
    # a tie, |A| > |B| and |A| < |B|: each row's sigma, total_bits and
    # s_count are the bytes of entanglement_entropy on that point's model
    spec = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    write_sweep_json(spec, CHAIN6, start=0.25, stop=4.0, count=16, partition=partition)
    assert run(capsys, "sweep", str(spec), "--out", str(out_csv))[0] == 0
    _, _, rows = read_csv_rows(out_csv)
    cut = ModePartition.from_string(partition)
    assert len(rows) == 16
    for row, lam in zip(rows, np.linspace(0.25, 4.0, 16)):
        report = entanglement_entropy(chain_model(6, 1.0, 1.0, lam, "periodic"), cut)
        want = [cli._fmt(s) for s in report.spectrum_a] + [cli._fmt(report.total_bits), str(report.s_count)]
        assert row == [cli._fmt(lam)] + want


def record_gram_stacks(monkeypatch):
    """The (x, p) argument pairs of each ``_gram_spectrum`` call of the
    model-cut solve (``entropy._model_cut_spectra``), appended as the calls
    are made."""
    stacks = []
    real = entropy._gram_spectrum
    monkeypatch.setattr(entropy, "_gram_spectrum", lambda x, p: stacks.append((x, p)) or real(x, p))
    return stacks


def record_sweep_chunks(monkeypatch):
    """The number of models of each of the sweep's ``_model_cut_spectra``
    calls, appended as the calls are made."""
    chunks = []
    real = cli._model_cut_spectra
    monkeypatch.setattr(cli, "_model_cut_spectra", lambda ms, cut: chunks.append(len(ms)) or real(ms, cut))
    return chunks


def spoil_sweep_points(monkeypatch, spoils):
    """Make the model-cut solve's ``_cut_grams`` spoil the q-side Gram of the
    grid points that ``spoils`` maps, by their index in the grid, to a
    function that changes a matrix in place; a point is known by its model,
    which a solve of it alone is handed again. Certified points never fail
    the spectrum's checks, so a failing point is made this way."""
    real = entropy._cut_grams
    points = []  # each point's model, in grid order

    def spoiled(model, rows):
        x, p = real(model, rows)
        if not any(model is seen for seen in points):
            points.append(model)
        index = next(i for i, seen in enumerate(points) if model is seen)
        spoils.get(index, lambda g: None)(x)
        return x, p

    monkeypatch.setattr(entropy, "_cut_grams", spoiled)


def make_asymmetric(gram):
    gram[0, 1] += 1e-9


def make_non_finite(gram):
    gram[0, 0] = np.nan


def run_failing_sweep(capsys, tmp_path):
    """Run the sweep over lambda = 0, 1, 2, 3 of CHAIN6; assert it fails
    cleanly and leaves no CSV, and return its stderr."""
    spec = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    write_sweep_json(spec, CHAIN6, start=0.0, stop=3.0, count=4, partition="1,2,3|4,5,6")
    code, out, err = run(capsys, "sweep", str(spec), "--out", str(out_csv))
    assert_clean_failure(code, out, err)
    assert not out_csv.exists()
    return err


def test_sweep_reports_a_failing_slice_as_its_grid_point(capsys, tmp_path, monkeypatch):
    spoil_sweep_points(monkeypatch, {2: make_asymmetric})
    err = run_failing_sweep(capsys, tmp_path)
    assert "sympent: error: grid point lambda=2: matrix is asymmetric: max |G - G^T| = 1.000e-09" in err
    assert "slice" not in err


def test_sweep_names_the_first_of_its_failing_grid_points(capsys, tmp_path, monkeypatch):
    # the stack's finite check runs before its symmetry check, yet the
    # asymmetric point comes first in the grid
    spoil_sweep_points(monkeypatch, {1: make_asymmetric, 3: make_non_finite})
    err = run_failing_sweep(capsys, tmp_path)
    assert "sympent: error: grid point lambda=1: matrix is asymmetric" in err
    assert "lambda=3" not in err


def test_sweep_reports_a_failing_point_of_a_later_chunk(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SWEEP_STACK_BYTES", 2 * 16 * 3 * 3)
    stacks = record_gram_stacks(monkeypatch)
    spoil_sweep_points(monkeypatch, {3: make_asymmetric})
    err = run_failing_sweep(capsys, tmp_path)
    assert "sympent: error: grid point lambda=3: matrix is asymmetric: max |G - G^T| = 1.000e-09" in err
    # the first chunk, the second, then its points alone up to the failing one
    assert [x.shape for x, _ in stacks] == [(2, 3, 3), (2, 3, 3), (3, 3), (3, 3)]


def test_sweep_reraises_a_stack_error_that_no_point_has_alone(capsys, tmp_path, monkeypatch):
    real = entropy._gram_spectrum

    def stack_fails(x, p):
        if x.ndim == 3:
            raise NumericalFailureError("the stack failed")
        return real(x, p)

    monkeypatch.setattr(entropy, "_gram_spectrum", stack_fails)
    err = run_failing_sweep(capsys, tmp_path)
    assert err.startswith("sympent: error: the stack failed\n")


@pytest.mark.parametrize("points", [1, 2, 3])
def test_sweep_in_chunks_writes_the_same_csv(capsys, tmp_path, monkeypatch, points):
    # chunks of 1, 2 or 3 points of 7 (the last one short) against one stack
    spec = tmp_path / "sweep.json"
    write_sweep_json(spec, CHAIN6, start=0.0, stop=3.0, count=7, partition="1,2,3|4,5,6")
    assert run(capsys, "sweep", str(spec), "--out", str(tmp_path / "one.csv"))[0] == 0
    monkeypatch.setattr(cli, "SWEEP_STACK_BYTES", points * 16 * 3 * 3)
    chunks = record_sweep_chunks(monkeypatch)
    assert run(capsys, "sweep", str(spec), "--out", str(tmp_path / "chunked.csv"))[0] == 0
    assert chunks == [points] * (7 // points) + [7 % points] * (7 % points > 0)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_sweep_chunk_of_a_one_mode_side_is_set_by_its_gram_pairs_alone(capsys, tmp_path, monkeypatch):
    # on a one-mode side of a 64-mode chain, each point's 16-byte Gram pair
    # sets the chunk: a chain model holds no length-n array to count
    spec = tmp_path / "sweep.json"
    partition = "1|" + ",".join(map(str, range(2, 65)))
    write_sweep_json(spec, dict(CHAIN6, n=64), start=0.0, stop=3.0, count=5, partition=partition)
    assert run(capsys, "sweep", str(spec), "--out", str(tmp_path / "one.csv"))[0] == 0
    monkeypatch.setattr(cli, "SWEEP_STACK_BYTES", 2 * 16)
    chunks = record_sweep_chunks(monkeypatch)
    assert run(capsys, "sweep", str(spec), "--out", str(tmp_path / "chunked.csv"))[0] == 0
    assert chunks == [2, 2, 1]
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


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


ENVELOPE_CHAINS = {
    # condition number of Gamma 1.2e10; its rounded X once read as asymmetric
    "inside": ({"type": "chain", "n": 8, "m": 3e-3, "omega": 3e-3, "lambda": 0, "boundary": "open"}, 0),
    "cond-1e16": ({"type": "chain", "n": 4, "m": 1e-4, "omega": 1e-4, "lambda": 0, "boundary": "open"}, 1),
    "overflow": ({"type": "chain", "n": 2, "m": 1e-300, "omega": 1e-150, "lambda": 0, "boundary": "open"}, 1),
}


@pytest.mark.parametrize("name", ENVELOPE_CHAINS)
def test_model_envelope_verdict_is_the_same_in_every_command(capsys, tmp_path, name):
    model, exit_code = ENVELOPE_CHAINS[name]
    n = model["n"]
    half = ",".join(map(str, range(1, n // 2 + 1))) + "|" + ",".join(map(str, range(n // 2 + 1, n + 1)))
    path, spec = tmp_path / "model.json", tmp_path / "sweep.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    write_sweep_json(spec, model, start=0.0, stop=1e-9, count=2, partition=half)
    results = [
        run(capsys, *argv)
        for argv in (
            ["validate", str(path)],
            ["spectrum", str(path)],
            ["entropy", str(path), "--partition", half],
            ["wigner", str(path), "--grid", "2,5", "--out", str(tmp_path / "w.csv")],
            ["sweep", str(spec), "--out", str(tmp_path / "s.csv")],
        )
    ]
    assert [code for code, _, _ in results] == [exit_code] * 5
    if exit_code:
        messages = [err.splitlines()[-1] for _, _, err in results]
        assert all(out == "" for _, out, _ in results)
        assert messages[0].startswith("sympent: error: ground state of mass m = ")
        assert "SINGULAR_RTOL" in messages[0]
        assert messages[1:4] == messages[:1] * 3
        # the sweep names the grid point, then the same cause
        assert messages[4] == messages[0].replace("error: ", "error: grid point lambda=0: ", 1)


# --- spectrum ----------------------------------------------------------------


def test_spectrum_of_model(capsys, tmp_path, linalg_calls):
    # the certificate's spectrum, n values of exactly 1/2, with no solve
    model = tmp_path / "model.json"
    write_model_json(model, lam=2.0)
    code, out, _ = run(capsys, "spectrum", str(model))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["sigmas"] == [0.5, 0.5]
    assert '"sigmas": [\n    0.5,\n    0.5\n  ]' in out
    assert linalg_calls == []


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


@pytest.mark.parametrize("partition", ["1,2", "1|", "1|3", "0|1,2", "x|y", "1,|2"])
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


VACUUM_JSON = '"n": 1, "ordering": "qqpp", "hbar": 1, "matrix": [0.5, 0, 0, 0.5]'
VACUUM_ROWS = "\n0.5,0\n0,0.5\n"
MODEL_JSON = '"type": "chain", "n": 4, "m": 1, "omega": 1, "lambda": 1'
SWEEP_JSON = (
    '"model": {"type": "two_oscillator", "m": 1, "omega": 1, "lambda": 0}, '
    '"parameter": "lambda", "partition": "1|2", '
)


@pytest.mark.parametrize(
    "name,text,cause",
    [
        ("chain.json", "{" + MODEL_JSON + ', "bondary": "periodic"}', "unknown field 'bondary'"),
        ("chain.json", "{" + MODEL_JSON + ', "n": 6}', "gives the 'n' field twice"),
        ("state.json", '{"ordering": "qpqp", ' + VACUUM_JSON + "}", "gives the 'ordering' field twice"),
        ("state.json", "{" + VACUUM_JSON + ', "hbarr": 2}', "unknown field 'hbarr'"),
        ("state.csv", "# sympent covariance n=1 ordering=qpqp ordering=qqpp" + VACUUM_ROWS,
         "gives the 'ordering' field twice"),
        ("state.csv", "# sympent covariance n=1 ordering=qqpp hbarr=2" + VACUUM_ROWS,
         "unknown field 'hbarr'"),
        ("state.csv", "# sympent covariance n=1 ordering=qqpp qqpp" + VACUUM_ROWS,
         "unknown field 'qqpp'"),
        ("sweep.json", "{" + SWEEP_JSON + '"grid": {"start": 0, "stop": 1, "count": 3}, "partitions": "1|2"}',
         "sweep spec has an unknown field 'partitions'"),
        ("sweep.json", "{" + SWEEP_JSON + '"grid": {"start": 0, "stop": 1, "count": 3, "steps": 3}}',
         "sweep grid has an unknown field 'steps'"),
        ("sweep.json", "{" + SWEEP_JSON + '"grid": {"start": 0, "stop": 1, "count": 3, "count": 4}}',
         "gives the 'count' field twice"),
    ],
    ids=["model-bondary", "model-n-twice", "json-ordering-twice", "json-hbarr", "csv-ordering-twice",
         "csv-hbarr", "csv-bare-word", "sweep-partitions", "grid-steps", "grid-count-twice"],
)
def test_unknown_or_repeated_fields_exit_one(capsys, tmp_path, name, text, cause):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    if name == "sweep.json":
        argv = ["sweep", str(path), "--out", str(tmp_path / "sweep.csv")]
    else:
        argv = ["entropy", str(path), "--partition", "1,2|3,4" if name == "chain.json" else "1|2"]
    code, out, err = run(capsys, *argv)
    assert_clean_failure(code, out, err)
    assert cause in err


def test_boolean_hbar_exits_one(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text('{"n": 1, "ordering": "qqpp", "hbar": true, "matrix": [0.5, 0, 0, 0.5]}', encoding="utf-8")
    code, out, err = run(capsys, "validate", str(state))
    assert_clean_failure(code, out, err)
    assert "unsupported hbar convention True; expected 1" in err


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


def test_mirror_sweeps_share_their_totals_and_spectrum(capsys, tmp_path):
    # both stack the reduction to modes 1, 2, so param, total_bits and s_count
    # are the same bytes, and the 4-mode side's sigma are the 2-mode side's
    # followed by two exact 0.5
    model = dict(CHAIN6, boundary="open")
    outputs = {}
    for partition in ("1,2|3,4,5,6", "3,4,5,6|1,2"):
        spec = tmp_path / "sweep.json"
        out_csv = tmp_path / f"{partition}.csv"
        write_sweep_json(spec, model, start=0.5, stop=3.0, count=6, partition=partition)
        assert run(capsys, "sweep", str(spec), "--out", str(out_csv))[0] == 0
        outputs[partition] = out_csv
    small = read_csv_rows(outputs["1,2|3,4,5,6"])[2]
    large = read_csv_rows(outputs["3,4,5,6|1,2"])[2]
    assert len(small) == len(large) == 6
    for s_row, l_row in zip(small, large):
        assert [s_row[0]] + s_row[-2:] == [l_row[0]] + l_row[-2:]
        assert l_row[1:-2] == s_row[1:-2] + ["0.5", "0.5"]
        assert float(s_row[2]) > 0.5


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
        ({"partition": "1|2,"}, "empty mode index in '2,'"),
        ({"count": 10_001}, "MAX_SWEEP_POINTS = 10000, got 10001"),
        ({"count": 10**12}, "MAX_SWEEP_POINTS = 10000, got 1000000000000"),
    ],
    ids=[
        "partition-int",
        "partition-null",
        "partition-list",
        "partition-empty-index",
        "count-max+1",
        "count-1e12",
    ],
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


def test_sweep_grid_whose_span_overflows_exits_one(capsys, tmp_path):
    # stop - start overflows to inf: refused by name, before numpy would warn
    # on the grid and a point would fail as lambda=nan
    spec = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    write_sweep_json(spec, CHAIN6, start=-1e308, stop=1e308, count=3, partition="1,2,3|4,5,6")
    code, out, err = run(capsys, "sweep", str(spec), "--out", str(out_csv))
    assert_clean_failure(code, out, err)
    assert err.splitlines() == [
        "sympent: error: sweep grid needs finite start, stop and stop - start, got [-1e+308, 1e+308]"
    ]
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "parameter,fixed",
    [("lambda", ["m=1", "omega=1"]), ("omega", ["m=1", "lambda=0.5"]), ("m", ["omega=1", "lambda=0.5"])],
)
def test_sweep_model_line_names_every_parameter_it_does_not_sweep(capsys, tmp_path, parameter, fixed):
    spec = tmp_path / "sweep.json"
    out_csv = tmp_path / "sweep.csv"
    write_sweep_json(spec, CHAIN6, parameter=parameter, start=0.5, stop=2.0, count=3, partition="1,2,3|4,5,6")
    assert run(capsys, "sweep", str(spec), "--out", str(out_csv))[0] == 0
    model_line = read_csv_rows(out_csv)[0][1].split()
    assert model_line[:5] == ["#", "model_type=chain", "n=6", *fixed]
    assert model_line[5:7] == ["boundary=periodic", f"parameter={parameter}"]


@pytest.mark.parametrize("target", ["missing/x.json", "outdir"])
def test_out_errors_name_the_given_path(capsys, tmp_path, monkeypatch, target):
    # a missing directory, or a directory as the target: the error names the
    # path given, not the temporary file, and no file is left behind
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    (tmp_path / "chain.json").write_text(json.dumps(CHAIN6), encoding="utf-8")
    before = sorted(p.name for p in tmp_path.rglob("*"))
    code, out, err = run(capsys, "spectrum", "chain.json", "--out", target)
    assert_clean_failure(code, out, err)
    assert f"'{target}'" in err and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


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


@pytest.mark.filterwarnings("error")
def test_wigner_of_a_state_whose_determinant_overflows(capsys, tmp_path):
    # Gamma = 1.5e308 I with q-p entries of 1e307: the kept mode's
    # eigenvalues multiply past the float range, yet its peak is ~1.06e-309;
    # stderr carries the run record alone, with no numpy warning
    gamma = 1.5e308 * np.eye(4)
    gamma[0, 2] = gamma[2, 0] = gamma[1, 3] = gamma[3, 1] = 1e307
    state = tmp_path / "huge.json"
    state.write_text(json.dumps(covariance_to_json_dict(gamma)), encoding="utf-8")
    code, out, err = run(capsys, "wigner", str(state), "--out", str(tmp_path / "w.csv"))
    assert code == 0
    root_det = 1.5e308 * math.sqrt(1.0 - (1.0 / 15.0) ** 2)
    assert json.loads(out)["peak"] == pytest.approx(1.0 / (2.0 * math.pi) / root_det, rel=1e-13)
    [record] = err.splitlines()
    assert "tool_version" in json.loads(record)


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
    [([], 2, 8.0, 161), (["--grid", "2,5"], 1, 2.0, 5), (["--grid", "3,300"], 1, 3.0, 300)],
    ids=["default-8,161", "2,5", "3,300"],
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


def test_wigner_checks_the_mode_before_the_full_state_pass(capsys, tmp_path):
    state = tmp_path / "bad.json"
    state.write_text(json.dumps(covariance_to_json_dict(0.4 * np.eye(2))), encoding="utf-8")
    code, out, err = run(capsys, "wigner", str(state), "--mode", "2", "--out", str(tmp_path / "w.csv"))
    assert_clean_failure(code, out, err)
    assert "--mode must be in 1..1, got 2" in err
    # a model input is checked for its mode before its certificate
    model = tmp_path / "chain.json"
    model.write_text(json.dumps(CHAIN6), encoding="utf-8")
    code, out, err = run(
        capsys, "wigner", str(model), "--mode", "9", "--tol", "0", "--out", str(tmp_path / "w.csv")
    )
    assert_clean_failure(code, out, err)
    assert "--mode must be in 1..6, got 9" in err
    # so does entropy's partition
    code, out, err = run(capsys, "entropy", str(model), "--partition", "1,2|3", "--tol", "0")
    assert_clean_failure(code, out, err)
    assert "partition is over 3 modes but the state has 6" in err


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


def chain_json(path, n=8):
    path.write_text(json.dumps(
        {"type": "chain", "n": n, "m": 1.0, "omega": 1.0, "lambda": 0.5, "boundary": "periodic"}
    ), encoding="utf-8")
    return str(path)


def cov_json(path, gamma):
    path.write_text(json.dumps(covariance_to_json_dict(gamma)), encoding="utf-8")
    return str(path)


def write_spec(directory):
    spec = directory / "sweep.json"
    write_sweep_json(spec, {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0})
    return str(spec)


REPORT_COMMANDS = {
    "validate-pure": lambda d: ["validate", cov_json(d / "tms.json", two_mode_squeezed(0.4))],
    "validate-mixed": lambda d: ["validate", cov_json(d / "mixed.json", random_valid_covariance(3, 7)[0])],
    "validate-not-pd": lambda d: ["validate", cov_json(d / "notpd.json", np.diag([0.5, -0.5, 0.5, 0.5]))],
    "validate-model": lambda d: ["validate", chain_json(d / "chain.json")],
    "spectrum": lambda d: ["spectrum", cov_json(d / "mixed.json", random_valid_covariance(3, 7)[0])],
    "spectrum-model": lambda d: ["spectrum", chain_json(d / "chain.json")],
    "entropy-model-large-a": lambda d: [
        "entropy", chain_json(d / "chain.json"), "--partition", "1,2,3,4,5,6|7,8"
    ],
    "entropy-file": lambda d: [
        "entropy", cov_json(d / "tms.json", two_mode_squeezed(0.4)), "--partition", "2|1"
    ],
    "entropy-mixed-nats": lambda d: [
        "entropy", cov_json(d / "mixed.json", random_valid_covariance(3, 7)[0]),
        "--partition", "1,3|2", "--base", "nats",
    ],
    "sweep": lambda d: ["sweep", write_spec(d), "--out", str(d / "sweep.csv")],
    "wigner": lambda d: ["wigner", chain_json(d / "chain.json"), "--grid", "3,5", "--out", str(d / "w.csv")],
    "verify": lambda d: ["verify", "--out", str(d / "verify.csv")],
}


@pytest.mark.parametrize("name", REPORT_COMMANDS)
def test_json_reports_are_indent_2_json_dumps(capsys, tmp_path, name):
    # every JSON report on stdout is exactly json.dumps(..., indent=2, sort_keys=True)
    code, out, _ = run(capsys, *REPORT_COMMANDS[name](tmp_path))
    assert code in (0, 2)
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    if name == "validate-not-pd":  # its NaN minimum is written null
        assert json.loads(out)["min_symplectic_eigenvalue"] is None


def test_report_modes_share_one_record_for_every_snapped_sigma():
    spectrum = np.array([0.9, 0.5 + 2e-9, 0.5 + 1e-9, 0.5, 0.5 - 1e-12, 0.5 - 1e-3])
    report = entropy.EntropyReport(
        partition=ModePartition.from_sides(range(1, 7), [7]),
        spectrum_a=spectrum,
        total_bits=0.0,
        s_count=0,
        base="bits",
        total=0.0,
        pure_global_state=False,
    )
    modes = report.to_json_dict()["modes"]
    assert modes == [m.to_json_dict() for m in report.modes]
    assert modes[1] is not modes[2]
    assert modes[2] is modes[3] is modes[4] is modes[5]


# Strings that an emitter splitting json text on newlines or brackets would misread.
TRICKY_TEXT = ['"', "\\", "\n", "\r\n", "\u2028", "\u00e9\u20ac", "[", "]", "{", "}", "},\n    {\"", ": ", ",\n  "]
json_text = st.text() | st.sampled_from(TRICKY_TEXT)
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**70)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | json_text
)
flat_dicts = st.dictionaries(json_text, json_scalars, min_size=1)


class DictSubclass(dict):
    pass


class ListSubclass(list):
    pass


json_values = st.recursive(
    json_scalars,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.lists(children).map(ListSubclass)
        | st.dictionaries(json_text, children)
        | st.dictionaries(json_text, children).map(DictSubclass)
        | st.dictionaries(st.integers(), json_scalars)
        | st.lists(flat_dicts)
        | st.lists(flat_dicts | st.just({}))
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"modes": [{"sigma": 0.5, "beta": "inf"}] * 3, "spectrum_a": [0.5, -0.0, 2**65]})
@example([{"a": "},\n    {\"b\": 1"}, {"b": [1]}, {"c": 1}])
@example({"a": ListSubclass([1, [2]]), "b": DictSubclass(c=[])})
@example([[], {}, (), [{}], [[{}]]])
def test_json_text_is_indent_2_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


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


@pytest.mark.parametrize(
    "command,option",
    [
        ("sweep", ["--base", "nats"]),
        ("sweep", ["--tol", "1e-3"]),
        ("spectrum", ["--tol", "1e-3"]),
        ("validate", ["--base", "nats"]),
        ("spectrum", ["--base", "nats"]),
        ("wigner", ["--base", "nats"]),
    ],
    ids=["sweep-base", "sweep-tol", "spectrum-tol", "validate-base", "spectrum-base", "wigner-base"],
)
def test_unread_options_are_usage_errors(capsys, tmp_path, command, option):
    # sweep always writes bits, sweep and spectrum have no tolerance, and
    # validate, spectrum and wigner compute no entropy, so none takes the option
    path = tmp_path / "input.json"
    model = {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 2.0}
    if command == "sweep":
        write_sweep_json(path, model)
    else:
        path.write_text(json.dumps(model), encoding="utf-8")
    argv = [command, str(path), *option, "--out", str(tmp_path / "out")]
    code, out, err = run_or_usage_error(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {option[0]}" in err
    assert not (tmp_path / "out").exists()


def test_two_oscillator_with_non_open_boundary_exits_one(capsys, tmp_path):
    # computed as the open pair, it would report 0.4014 bits where the
    # periodic 2-chain has 0.5842
    path = tmp_path / "pair.json"
    write_model_json(path, boundary="periodic")
    code, out, err = run(capsys, "entropy", str(path), "--partition", "1|2")
    assert (code, out) == (1, "")
    assert "boundary='periodic'" in err


TEN_MODES = ",".join(str(i) for i in range(2, 10))


@pytest.mark.parametrize("ten", ["1_0", "\u0661\u0660"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize(
    "field,named",
    [("partition", "partition"), ("sweep-partition", "partition"), ("grid-extent", "grid"),
     ("grid-steps", "grid"), ("tol", "argument --tol"), ("mode", "argument --mode")],
    ids=["partition", "sweep-partition", "grid-extent", "grid-steps", "tol", "mode"],
)
def test_argument_numbers_are_ascii_without_underscores(capsys, tmp_path, field, named, ten):
    # int() and float() read both spellings of ten as 10, a valid value for every field
    state = tmp_path / "vac10.json"
    write_vacuum_json(state, n=10)
    out_file = tmp_path / "out.csv"
    argv = {
        "partition": ["entropy", str(state), "--partition", f"{ten}|1,{TEN_MODES}"],
        "sweep-partition": ["sweep", str(tmp_path / "sweep.json")],
        "grid-extent": ["wigner", str(state), "--grid", f"{ten},5"],
        "grid-steps": ["wigner", str(state), "--grid", f"8,{ten}"],
        "tol": ["validate", str(state), "--tol", ten],
        "mode": ["wigner", str(state), "--mode", ten],
    }[field]
    if field == "sweep-partition":
        model = {"type": "chain", "n": 10, "m": 1.0, "omega": 1.0, "lambda": 0.5}
        write_sweep_json(tmp_path / "sweep.json", model, count=2, partition=f"{ten}|1,{TEN_MODES}")
    code, out, err = run_or_usage_error(capsys, *argv, "--out", str(out_file))
    assert (code, out) == (1, "")
    assert named in err.splitlines()[-1]
    rule = "must not contain '_'" if "_" in ten else "must be ASCII text"
    assert rule in err.splitlines()[-1]
    assert "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize(
    "suffix,text",
    [
        ("json", '{"n": 1, "ordering": "qqpp", "matrix": [NaN, 0, 0, 0.5]}'),
        ("json", '{"n": 1, "ordering": "qqpp", "matrix": [0.5, 0, 0, -Infinity]}'),
        ("csv", "# sympent covariance n=1 ordering=qqpp\nnan,0\n0,0.5\n"),
        ("csv", "# sympent covariance n=1 ordering=qqpp\n0.5,0\n0,inf\n"),
    ],
    ids=["json-nan", "json-infinity", "csv-nan", "csv-inf"],
)
def test_non_finite_file_entry_is_named_as_at_every_entry_point(capsys, tmp_path, suffix, text):
    state = tmp_path / f"state.{suffix}"
    state.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(state))
    assert_clean_failure(code, out, err)
    assert err == "sympent: error: matrix has a NaN or infinite entry\n"


@pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("command", ["validate", "spectrum", "entropy", "sweep", "verify", "wigner"])
def test_every_command_follows_the_one_output_rule(capsys, tmp_path, command, with_out):
    # a report goes to --out or stdout; a CSV goes to --out with its summary
    # on stdout, and only verify may print it on stdout instead
    state, spec, target = tmp_path / "vac.json", tmp_path / "sweep.json", tmp_path / "out.dat"
    write_vacuum_json(state, n=2)
    write_sweep_json(spec, {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.0}, count=2)
    argv = {
        "validate": ["validate", str(state)],
        "spectrum": ["spectrum", str(state)],
        "entropy": ["entropy", str(state), "--partition", "1|2"],
        "sweep": ["sweep", str(spec)],
        "verify": ["verify"],
        "wigner": ["wigner", str(state), "--grid", "2,5"],
    }[command]
    code, out, err = run(capsys, *argv, *(["--out", str(target)] if with_out else []))
    csv = command in ("sweep", "verify", "wigner")
    if csv and not with_out and command != "verify":
        assert_clean_failure(code, out, err)
        assert f"{command} writes a CSV file; pass --out <path>" in err
        return
    assert code == 0
    assert json.loads(err.strip().splitlines()[-1])["outputs"] == [str(target) if with_out else "stdout"]
    if not csv:
        if with_out:
            assert out == ""
            out = target.read_text(encoding="utf-8")
        report = json.loads(out)
        assert "out" not in report
        assert report["conventions"]["log_base"] == "bits"
    elif with_out:
        summary = json.loads(out)
        assert summary["out"] == str(target)
        assert summary["conventions"]["ordering"] == "qqpp"
        assert target.read_text(encoding="utf-8").startswith(f"# sympent {command} ")
    else:
        assert out.startswith("# sympent verify ordering=qqpp ")
        assert not target.exists()


def test_run_record_goes_to_stderr_only(capsys, tmp_path):
    state = tmp_path / "vac.json"
    write_vacuum_json(state)
    _, out, err = run(capsys, "validate", str(state))
    assert "timestamp" not in out
    record = json.loads(err.strip().splitlines()[-1])
    assert set(record) == {
        "tool_version",
        "input_digest",
        "options",
        "outputs",
        "timestamp",
        "cpus",
        "blas_threads_env",
    }
    assert record["outputs"] == ["stdout"]
    assert isinstance(record["cpus"], int) and record["cpus"] >= 1
    assert set(record["blas_threads_env"]) == {
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
    }


def test_run_record_names_the_blas_thread_variables(capsys, tmp_path, monkeypatch):
    state = tmp_path / "vac.json"
    write_vacuum_json(state)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    _, _, err = run(capsys, "validate", str(state))
    record = json.loads(err.strip().splitlines()[-1])
    assert record["blas_threads_env"] == {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "unset",
        "MKL_NUM_THREADS": "unset",
    }


def test_main_builds_one_parser_and_carries_no_option_between_calls(capsys, tmp_path, monkeypatch):
    state = tmp_path / "thermal.json"
    gamma = np.diag([0.7, 1.3, 0.7, 1.3])
    state.write_text(json.dumps(covariance_to_json_dict(gamma)), encoding="utf-8")
    builds = []
    build_parser = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()

    def options(err):
        return json.loads(err.strip().splitlines()[-1])["options"]

    first = ["entropy", str(state), "--partition", "1|2", "--base", "nats", "--tol", "0"]
    code, out, err = run(capsys, *first)
    assert code == 0
    assert options(err)["base"] == "nats" and options(err)["tol"] == 0.0

    code, plain_out, plain_err = run(capsys, "entropy", str(state), "--partition", "1|2")
    assert code == 0
    assert options(plain_err)["base"] == "bits"
    assert options(plain_err)["tol"] == cli.DEFAULT_TOL
    assert json.loads(plain_out)["base"] == "bits"

    assert run_or_usage_error(capsys, "entropy", str(state))[0] == 1  # no --partition
    with pytest.raises(SystemExit) as excinfo:
        main(["entropy", "--help"])
    assert excinfo.value.code == 0
    capsys.readouterr()

    again_code, again_out, again_err = run(capsys, *first)
    assert again_code == code
    assert again_out == out
    assert options(again_err) == options(err)
    assert len(builds) == 1


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
