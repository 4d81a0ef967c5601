"""One count rule and one real-number rule for every public entry point.

A count is a Python or numpy integer; a real number is a Python or numpy
integer or float; neither is ever a bool. Each entry point takes the same
values and refuses the rest with its own error type, and a numpy number
computes exactly as the same value passed as a float.
"""

import numpy as np
import pytest

from sympent import (
    DimensionError,
    InvalidPartitionError,
    MalformedInputError,
    ModelParams,
    ModePartition,
    ParameterError,
    QuadraticModel,
    ThermalMode,
    TwoOscillatorParams,
    chain_model,
    covariance_from_json_dict,
    entanglement_entropy,
    mode_entropy,
    random_symplectic,
    reduce,
    required_n_max,
    symplectic_form,
    thermal_entropy_bruteforce,
    thermal_parameter,
    thermal_probabilities,
    vacuum,
    validate,
)

VALUES = [np.float32(2.0), np.int64(2), 1.5, True, "1", None]
COUNT, REAL = "count", "real"

# (entry point, call with the value, the rule it takes, its error type)
ENTRY_POINTS = [
    ("chain_model n", lambda v: chain_model(v, 1.0, 1.0, 0.5), COUNT, ParameterError),
    ("chain_model m", lambda v: chain_model(4, v, 1.0, 0.5), REAL, ParameterError),
    ("chain_model omega", lambda v: chain_model(4, 1.0, v, 0.5), REAL, ParameterError),
    ("chain_model lam", lambda v: chain_model(4, 1.0, 1.0, v, "periodic"), REAL, ParameterError),
    ("QuadraticModel mass", lambda v: QuadraticModel(v, [1.0], [[1.0]]), REAL, ParameterError),
    ("from_potential mass", lambda v: QuadraticModel.from_potential(v, np.eye(2)), REAL,
     ParameterError),
    ("TwoOscillatorParams m", lambda v: TwoOscillatorParams(v, 1.0, 0.5), REAL, ParameterError),
    ("TwoOscillatorParams omega", lambda v: TwoOscillatorParams(1.0, v, 0.5), REAL, ParameterError),
    ("TwoOscillatorParams lam", lambda v: TwoOscillatorParams(1.0, 1.0, v), REAL, ParameterError),
    ("ModelParams n", lambda v: ModelParams("chain", 1.0, 1.0, 0.5, n=v), COUNT, ParameterError),
    ("vacuum n", vacuum, COUNT, DimensionError),
    ("symplectic_form n", symplectic_form, COUNT, DimensionError),
    ("random_symplectic n", lambda v: random_symplectic(v, 1), COUNT, DimensionError),
    ("random_symplectic scale", lambda v: random_symplectic(2, 1, v), REAL, ParameterError),
    ("validate tol", lambda v: validate(vacuum(1), v), REAL, ParameterError),
    (
        "entanglement_entropy tol",
        lambda v: entanglement_entropy(vacuum(2), ModePartition.from_string("1|2"), tol=v),
        REAL,
        ParameterError,
    ),
    ("mode_entropy sigma", mode_entropy, REAL, MalformedInputError),
    ("thermal_parameter sigma", thermal_parameter, REAL, MalformedInputError),
    ("ThermalMode.from_sigma sigma", ThermalMode.from_sigma, REAL, MalformedInputError),
    ("ModePartition n", lambda v: ModePartition(v, (1,), (2,)), COUNT, InvalidPartitionError),
    ("ModePartition index", lambda v: ModePartition(3, (1, 3), (v,)), COUNT, InvalidPartitionError),
    ("reduce index", lambda v: reduce(vacuum(2), [v]), COUNT, InvalidPartitionError),
    ("thermal_probabilities beta", lambda v: thermal_probabilities(v, 3), REAL, ParameterError),
    ("thermal_probabilities n_max", lambda v: thermal_probabilities(1.0, v), COUNT, ParameterError),
    ("thermal_entropy_bruteforce beta", lambda v: thermal_entropy_bruteforce(v, 40), REAL,
     ParameterError),
    ("required_n_max beta", required_n_max, REAL, ParameterError),
    (
        "covariance_from_json_dict n",
        lambda v: covariance_from_json_dict(
            {"n": v, "ordering": "qqpp", "matrix": np.eye(4).ravel().tolist()}
        ),
        COUNT,
        MalformedInputError,
    ),
    (
        "covariance_from_json_dict entry",
        lambda v: covariance_from_json_dict({"n": 1, "ordering": "qqpp", "matrix": [v, 0, 0, v]}),
        REAL,
        MalformedInputError,
    ),
]


def accepted(rule: str, value) -> bool:
    if type(value) is np.int64:
        return True
    return rule == REAL and type(value) in (np.float32, float)


@pytest.mark.parametrize("value", VALUES, ids=lambda v: f"{type(v).__name__}-{v!r}")
@pytest.mark.parametrize(
    "call, rule, error", [entry[1:] for entry in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_every_entry_point_takes_numbers_by_one_rule(call, rule, error, value):
    if accepted(rule, value):
        call(value)
    else:
        with pytest.raises(error):
            call(value)


def test_numpy_parameters_compute_as_their_floats():
    omega, lam = np.float32(0.3), np.float32(0.7)
    model = chain_model(8, 1.0, omega, lam, "periodic")
    same = chain_model(8, 1.0, float(omega), float(lam), "periodic")
    assert model.frequencies.tobytes() == same.frequencies.tobytes()
    wide = chain_model(np.int64(8), np.float32(1.5), omega, lam, "periodic")
    assert type(wide.mass) is float and wide.mass == 1.5
    pair = TwoOscillatorParams(np.float32(1.0), omega, lam)
    assert all(type(x) is float for x in (pair.m, pair.omega, pair.lam))
    same_pair = TwoOscillatorParams(1.0, float(omega), float(lam))
    assert pair.reduced_sigma() == same_pair.reduced_sigma()
    sigma = np.float32(0.7)
    assert mode_entropy(sigma) == mode_entropy(float(sigma))
    report = validate(vacuum(1), np.float32(1e-3))
    assert type(report.tol) is float and report.tol == float(np.float32(1e-3))


@pytest.mark.parametrize("hbar", [np.True_, 1 + 0j, "1", None], ids=repr)
def test_hbar_is_the_real_number_one(hbar):
    # np.True_ and 1 + 0j equal 1, and were once read as the hbar = 1 convention
    obj = {"n": 1, "ordering": "qqpp", "matrix": [0.5, 0, 0, 0.5]}
    with pytest.raises(MalformedInputError, match="unsupported hbar convention"):
        covariance_from_json_dict({**obj, "hbar": hbar})
    for one in (1, 1.0, np.float32(1.0), np.int64(1)):
        np.testing.assert_array_equal(covariance_from_json_dict({**obj, "hbar": one}), np.eye(2) / 2)
