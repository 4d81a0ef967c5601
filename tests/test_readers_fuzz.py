"""Fuzz the file readers: on any JSON value or text, a reader returns or
raises a SympentError, never anything else."""

import json
import re

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import sympent.cli as cli
from sympent import MalformedInputError, ModelParams, SympentError

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
def test_load_state_raises_only_sympent_errors(text):
    returns_or_raises_sympent_error(lambda t: cli._load_state(t, "state"), text)


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


# A JSON value that is not a number: a bool, a string (numeric ones included)
# or a container.
non_numbers = (
    st.booleans()
    | st.text(max_size=6)
    | (st.integers() | st.floats()).map(str)
    | st.sampled_from(["1", " 2 ", "1_0", "1e3", "nan", "0x10"])
    | st.lists(st.integers(), max_size=2)
)
VALID_GRID = {"start": 0.0, "stop": 1.0, "count": 3}


def sweep_spec(grid):
    return {"model": {"type": "chain", "n": 2, "m": 1.0, "omega": 1.0, "lambda": 0.5},
            "parameter": "lambda", "grid": grid, "partition": "1|2"}


@FUZZ
@given(st.sampled_from(["m", "omega", "lambda"]), non_numbers)
def test_model_params_take_json_numbers_only(field, value):
    obj = {"type": "chain", "m": 1.0, "omega": 1.0, "lambda": 0.5, field: value}
    with pytest.raises(MalformedInputError, match="numeric m, omega, lambda"):
        ModelParams.from_json_dict(obj)


@FUZZ
@given(st.sampled_from(["start", "stop"]), non_numbers)
def test_sweep_grid_takes_json_numbers_only(field, value):
    with pytest.raises(MalformedInputError, match="numeric start, stop, count"):
        cli._parse_sweep_spec(sweep_spec({**VALID_GRID, field: value}))


@FUZZ
@given(non_numbers | st.floats())
def test_sweep_grid_count_is_a_json_integer(value):
    with pytest.raises(MalformedInputError, match="count must be an integer"):
        cli._parse_sweep_spec(sweep_spec({**VALID_GRID, "count": value}))


@pytest.mark.parametrize(
    "field,value",
    [("m", "1"), ("omega", " 2 "), ("lambda", "1_0"), ("m", True), ("lambda", "inf")],
)
def test_model_params_reject_numeric_strings_and_bools(field, value):
    obj = {"type": "two_oscillator", "m": 1.0, "omega": 1.0, "lambda": 0.5, field: value}
    with pytest.raises(MalformedInputError, match="numeric m, omega, lambda"):
        ModelParams.from_json_dict(obj)


@pytest.mark.parametrize(
    "grid,cause",
    [
        ({"start": "0"}, "numeric start, stop, count"),
        ({"stop": " 1 "}, "numeric start, stop, count"),
        ({"start": False}, "numeric start, stop, count"),
        ({"count": 2.9}, "count must be an integer"),
        ({"count": 3.0}, "count must be an integer"),
        ({"count": "3"}, "count must be an integer"),
        ({"count": True}, "count must be an integer"),
    ],
    ids=["start-str", "stop-str", "start-bool", "count-2.9", "count-3.0", "count-str",
         "count-bool"],
)
def test_sweep_grid_rejects_numeric_strings_and_fractions(grid, cause):
    with pytest.raises(MalformedInputError, match=cause):
        cli._parse_sweep_spec(sweep_spec({**VALID_GRID, **grid}))


# Each JSON reader with a valid object it reads: one unknown field, or one
# field given twice, makes it raise MalformedInputError naming that field.
JSON_READERS = {
    "covariance": ({"n": 1, "ordering": "qqpp", "hbar": 1, "matrix": [0.5, 0.0, 0.0, 0.5]},
                   lambda text: cli._load_state(text, "state.json")),
    "model": ({"type": "chain", "n": 2, "m": 1.0, "omega": 1.0, "lambda": 0.5, "boundary": "open"},
              lambda text: cli._load_state(text, "model.json")),
    "sweep spec": (sweep_spec(VALID_GRID),
                   lambda text: cli._parse_sweep_spec(cli._parse_json(text, "sweep.json"))),
}


@FUZZ
@given(st.sampled_from(sorted(JSON_READERS)), st.text(max_size=8), json_values)
def test_json_readers_reject_unknown_fields(kind, key, value):
    obj, reader = JSON_READERS[kind]
    assume(key not in obj and key != "type")  # a "type" field makes any object a model
    with pytest.raises(MalformedInputError, match="unknown field " + re.escape(repr(key))):
        reader(json.dumps({**obj, key: value}))


@FUZZ
@given(st.sampled_from(sorted(JSON_READERS)), st.data())
def test_json_readers_reject_repeated_fields(kind, data):
    obj, reader = JSON_READERS[kind]
    key = data.draw(st.sampled_from(sorted(obj)))
    value = data.draw(st.just(obj[key]) | json_values)
    text = json.dumps(obj)[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"
    with pytest.raises(MalformedInputError, match=re.escape(f"gives the {key!r} field twice")):
        reader(text)


CSV_TAGS = ["n=1", "ordering=qqpp", "hbar=1"]


@FUZZ
@given(st.permutations(CSV_TAGS), st.sampled_from(CSV_TAGS),
       st.from_regex(r"[a-z]{1,6}(=[a-z0-9]{0,3})?", fullmatch=True))
def test_csv_header_rejects_repeated_and_unknown_tags(tags, repeated, unknown):
    rows = "\n0.5,0\n0,0.5\n"
    key = repeated.split("=")[0]
    with pytest.raises(MalformedInputError, match=re.escape(f"gives the {key!r} field twice")):
        cli._load_state("# sympent covariance " + " ".join(tags + [repeated]) + rows, "state.csv")
    name = unknown.split("=")[0]
    assume(name not in ("n", "ordering", "hbar"))
    with pytest.raises(MalformedInputError, match="unknown field " + re.escape(repr(name))):
        cli._load_state("# sympent covariance " + " ".join(tags + [unknown]) + rows, "state.csv")
