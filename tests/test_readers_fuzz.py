"""Fuzz the file readers: on any JSON value or text, a reader returns or
raises a SympentError, never anything else."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sympent.cli as cli
from sympent import ModelParams, SympentError, read_covariance_text

KEYS = [
    "n", "ordering", "hbar", "matrix", "type", "m", "omega", "lambda", "boundary",
    "model", "parameter", "grid", "partition", "start", "stop", "count",
]
WORDS = ["qqpp", "qpqp", "chain", "two_oscillator", "open", "periodic", "lambda", "omega", "m",
         "1|2", "1,2|3", "1|1", "|", ""]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 1, 2, 3, -1, 2049, 10**12, 10**400, -(10**400)])
    | st.floats()
    | st.sampled_from(WORDS)
    | st.text(max_size=8)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=12,
)
numbers = st.integers(-3, 3) | st.floats() | st.sampled_from([0.5, 10**400])


def near(fields: dict, optional: dict | None = None):
    """Objects that carry the expected keys, each value either plausible or arbitrary."""
    return st.fixed_dictionaries(
        {k: v | json_values for k, v in fields.items()},
        optional={k: v | json_values for k, v in (optional or {}).items()},
    )


covariances = near(
    {
        "n": st.integers(1, 2),
        "ordering": st.just("qqpp"),
        "matrix": st.lists(numbers, min_size=4, max_size=16)
        | st.lists(st.lists(numbers), max_size=4),
    },
    {"hbar": st.sampled_from([1, 1.0, 2])},
)
models = near(
    {"type": st.sampled_from(["chain", "two_oscillator"]), "m": numbers, "omega": numbers,
     "lambda": numbers},
    {"n": st.integers(-1, 3) | st.sampled_from([2048, 2049, 10**9]),
     "boundary": st.sampled_from(["open", "periodic"])},
)
sweep_specs = near(
    {
        "model": models,
        "parameter": st.sampled_from(["lambda", "omega", "m"]),
        "grid": near(
            {"start": numbers, "stop": numbers,
             "count": st.integers(-1, 50) | st.sampled_from([10_000, 10_001, 10**12]) | st.floats()}
        ),
        "partition": st.sampled_from(["1|2", "1|2,3", "2|1", "1,2|"]),
    }
)


def csv_text(n, rows):
    return f"# sympent covariance n={n} ordering=qqpp\n" + "\n".join(",".join(r) for r in rows)


csv_texts = st.builds(
    csv_text,
    st.integers(-1, 3).map(str) | st.text(max_size=3),
    st.lists(st.lists(numbers.map(str) | st.text(max_size=4), max_size=5), max_size=5),
)
texts = (
    st.text()
    | json_values.map(json.dumps)
    | covariances.map(json.dumps)
    | csv_texts
    | st.text().map(lambda t: "# sympent covariance " + t)
)

FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def returns_or_raises_sympent_error(reader, value):
    try:
        reader(value)
    except SympentError:
        pass


@FUZZ
@given(texts)
@example('{"n": 1' + "0" * 5000 + "}")
@example('{"n": ' + "[" * 100_000 + "]" * 100_000 + "}")
@example('{"n": 1, "ordering": "qqpp", "matrix": [[1], [0], [0], [1]]}')
@example('{"n": 1, "ordering": "qqpp", "matrix": [true, false, false, true]}')
def test_read_covariance_text_raises_only_sympent_errors(text):
    returns_or_raises_sympent_error(read_covariance_text, text)


@FUZZ
@given(models | json_values)
def test_model_params_from_json_dict_raises_only_sympent_errors(obj):
    returns_or_raises_sympent_error(ModelParams.from_json_dict, obj)


@FUZZ
@given(sweep_specs | json_values)
@example({"model": {"type": "chain", "n": 2, "m": 1, "omega": 1, "lambda": 0},
          "parameter": "lambda", "grid": {"start": 0, "stop": 1, "count": 2}, "partition": 5})
def test_parse_sweep_spec_raises_only_sympent_errors(obj):
    returns_or_raises_sympent_error(cli._parse_sweep_spec, obj)


@pytest.mark.parametrize(
    "obj",
    [{"type": "chain", "m": 10**400, "omega": 1, "lambda": 0},
     {"type": "chain", "m": 1, "omega": 1, "lambda": -(10**400)}],
    ids=["m", "lambda"],
)
def test_model_params_reject_integers_beyond_float_range(obj):
    with pytest.raises(SympentError, match="numeric m, omega, lambda"):
        ModelParams.from_json_dict(obj)
