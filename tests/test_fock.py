import ast
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sympent.fock as fock
from sympent import (
    ParameterError,
    TruncationError,
    mode_entropy,
    reduce,
    required_n_max,
    symplectic_spectrum,
    thermal_entropy_bruteforce,
    thermal_parameter,
    thermal_probabilities,
)

from conftest import two_mode_squeezed

LOG2 = math.log(2.0)


def test_half_geometric_distribution():
    spectrum = thermal_probabilities(LOG2, 20)
    expected = [2.0 ** -(k + 1) for k in range(21)]
    np.testing.assert_allclose(spectrum.probabilities, expected, rtol=1e-14)


def test_tail_mass_is_analytic_remainder():
    spectrum = thermal_probabilities(LOG2, 50)
    np.testing.assert_allclose(spectrum.tail_mass, 2.0**-51, rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.integers(min_value=1, max_value=300),
)
def test_probabilities_normalize_with_tail(beta, n_max):
    # keep all weights above the double-precision underflow floor
    assume((n_max + 1) * beta < 700.0)
    spectrum = thermal_probabilities(beta, n_max)
    probs = spectrum.probabilities
    assert np.all(probs > 0.0)
    assert np.all(np.diff(probs) < 0.0)
    assert abs(probs.sum() + spectrum.tail_mass - 1.0) < 1e-14


def test_entropy_survives_underflowing_tail():
    # weights beyond ~e^-745 underflow to exactly zero; the sum must skip
    # them instead of producing 0 * -inf
    value = thermal_entropy_bruteforce(4.0, 400)
    assert math.isfinite(value)
    assert abs(value - thermal_entropy_bruteforce(4.0, required_n_max(4.0) + 5)) < 1e-12


def test_truncated_mean_approaches_closed_form():
    spectrum = thermal_probabilities(LOG2, 100)
    assert abs(np.arange(101) @ spectrum.probabilities - 1.0) < 1e-12
    rng = np.random.default_rng(3)
    for beta in rng.uniform(0.3, 4.0, size=10):
        n_max = required_n_max(beta) + 5
        mean = np.arange(n_max + 1) @ thermal_probabilities(beta, n_max).probabilities
        assert abs(mean - 1.0 / math.expm1(beta)) < 1e-10
        # sigma = nbar + 1/2 maps back to the same thermal parameter
        assert abs(thermal_parameter(mean + 0.5) - beta) < 1e-9


def test_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        thermal_probabilities(0.0, 10)
    with pytest.raises(ParameterError):
        thermal_probabilities(-1.0, 10)
    with pytest.raises(ParameterError):
        thermal_probabilities(1.0, 0)


def test_entropy_two_bits_for_half_geometric():
    assert abs(thermal_entropy_bruteforce(LOG2, 60) - 2.0) < 1e-12
    assert abs(thermal_entropy_bruteforce(LOG2, 60, base="nats") - 2.0 * LOG2) < 1e-12


def test_entropy_matches_frozen_reference_value():
    sigma = 1.0 / math.sqrt(3.0)
    beta = math.log((sigma + 0.5) / (sigma - 0.5))
    assert abs(thermal_entropy_bruteforce(beta, 400) - 0.4014135460857288) < 1e-9


def test_entropy_vanishes_in_cold_limit():
    assert thermal_entropy_bruteforce(40.0, 10) < 1e-12


def test_truncation_error_reports_required_level():
    with pytest.raises(TruncationError) as excinfo:
        thermal_entropy_bruteforce(0.1, 50)
    needed = excinfo.value.required_n_max
    assert needed == math.ceil(-math.log(1e-12) / 0.1)
    # the suggested level is adequate
    thermal_entropy_bruteforce(0.1, needed)


def test_required_n_max_formula():
    for beta in (0.05, 0.7, 2.0, 13.8):
        assert required_n_max(beta) == math.ceil(-math.log(1e-12) / beta)


def test_required_n_max_names_a_beta_whose_level_overflows():
    # -ln(TAIL_LIMIT)/beta is inf below beta ~ 1.5e-307: once a bare
    # OverflowError from ceil; 3e-307 still has its 308-digit level
    assert len(str(required_n_max(3e-307))) == 308
    for beta in (1.5e-307, 5e-324):
        with pytest.raises(ParameterError, match=f"thermal parameter {beta!r} is too small"):
            required_n_max(beta)


def test_bruteforce_names_a_beta_whose_level_overflows():
    # the tail mass of beta = 5e-324 is 1, so the refusal reports the
    # level it needs, which overflows
    with pytest.raises(ParameterError, match="thermal parameter 5e-324 is too small"):
        thermal_entropy_bruteforce(5e-324, 10)


def test_two_mode_squeezed_two_bits():
    # either reduction of the two-mode squeezed vacuum with cosh 2r = 3 is
    # the thermal mode sigma = 3/2, beta = ln 2, which carries two bits
    [sigma] = symplectic_spectrum(reduce(two_mode_squeezed(math.acosh(3.0) / 2.0), [1]))
    assert abs(thermal_parameter(sigma) - LOG2) < 1e-12
    assert abs(thermal_entropy_bruteforce(LOG2, 60) - 2.0) < 1e-12


def test_cross_pipeline_equivalence_over_beta_grid():
    # sigma = nbar + 1/2 = (e^beta + 1) / (2 (e^beta - 1))
    rng = np.random.default_rng(15)
    for beta in rng.uniform(0.05, 5.0, size=20):
        sigma = 0.5 * (math.exp(beta) + 1.0) / (math.exp(beta) - 1.0)
        n_max = required_n_max(beta) + 8
        assert abs(thermal_entropy_bruteforce(beta, n_max) - mode_entropy(sigma)) < 1e-9


# A thermal mode's normalized variances <q^2> 2 m w and <p^2> 2 / (m w) are
# both coth(beta/2), so their geometric mean is 2 sigma = coth(beta/2) too.


def test_variances_reach_vacuum_in_cold_limit():
    variance = 1.0 / math.tanh(60.0 / 2.0)
    assert abs(variance - 1.0) < 1e-14
    assert thermal_parameter(variance / 2.0) == math.inf


def test_variances_for_unit_occupation():
    variance = 1.0 / math.tanh(LOG2 / 2.0)
    assert abs(variance - 3.0) < 1e-12
    assert abs(thermal_parameter(variance / 2.0) - LOG2) < 1e-12


def test_variances_match_series_mean():
    rng = np.random.default_rng(23)
    for beta in rng.uniform(0.2, 4.0, size=10):
        n_max = required_n_max(beta) + 5
        mean = np.arange(n_max + 1) @ thermal_probabilities(beta, n_max).probabilities
        variance = 1.0 / math.tanh(beta / 2.0)
        assert abs(variance - 2.0 * (mean + 0.5)) < 1e-10
        assert abs(thermal_parameter(variance / 2.0) - beta) < 1e-12


def test_geometric_mean_of_variances_is_sigma():
    rng = np.random.default_rng(29)
    for beta in rng.uniform(0.05, 8.0, size=20):
        sigma = 0.5 / math.tanh(beta / 2.0)
        nbar = 1.0 / math.expm1(beta)
        assert abs(sigma - (nbar + 0.5)) < 1e-12
        assert abs(thermal_parameter(sigma) - beta) < 1e-9 * beta


def test_oracle_matches_engine_on_reference_grid():
    sigmas = [0.5 + 10.0**-k for k in range(1, 7)]
    sigmas += [0.6, 1.0 / math.sqrt(3.0), 1.5, 3.0, 10.0]
    for sigma in sigmas:
        beta = math.log((sigma + 0.5) / (sigma - 0.5))
        n_max = required_n_max(beta) + 8
        assert abs(mode_entropy(sigma) - thermal_entropy_bruteforce(beta, n_max)) < 1e-8


def package_imports(tree):
    """Names, relative to the package, of the sympent modules a module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "sympent"]
            yield from (name.removeprefix("sympent").lstrip(".") or "sympent" for name in names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module.split(".")[0] == "sympent":
                module = node.module.removeprefix("sympent").lstrip(".")
            else:
                continue
            if module:
                yield module.split(".")[0]
            else:  # from . import x, from sympent import x
                yield from (a.name for a in node.names)


def test_oracle_imports_nothing_from_the_symplectic_path():
    # the oracle is an independent check only while it shares no code with
    # the spectrum pipeline beyond the error types and the log base
    with open(fock.__file__, encoding="utf-8") as fh:
        imported = set(package_imports(ast.parse(fh.read())))
    assert "errors" in imported  # the walk sees the package imports at all
    assert imported <= {"errors", "logbase"}, f"fock.py imports {sorted(imported)}"


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: thermal_probabilities(1.0, 1.5), "1.5"),  # once read as n_max = 1 with 3 levels
        (lambda: thermal_probabilities(1.0, True), "True"),  # once read as n_max = 1
        (lambda: thermal_probabilities(1.0, "3"), "'3'"),
        (lambda: thermal_entropy_bruteforce(5.0, 40.5), "40.5"),
        (lambda: thermal_probabilities(math.inf, 3), "inf"),  # once [nan, 0, 0, 0] and a warning
        (lambda: required_n_max(math.inf), "inf"),  # once 0, a level nothing accepts
        (lambda: thermal_entropy_bruteforce(math.nan, 40), "nan"),
        (lambda: required_n_max("1.0"), "'1.0'"),
        (lambda: required_n_max(True), "True"),
        (lambda: required_n_max(10**400), "1000"),
    ],
    ids=["n_max-float", "n_max-bool", "n_max-str", "bruteforce-n_max-float", "beta-inf",
         "required-beta-inf", "beta-nan", "beta-str", "beta-bool", "beta-huge-int"],
)
def test_oracle_refuses_arguments_that_are_not_its_numbers(call, named):
    # the oracle's own short check: an integer n_max, a finite number beta
    with pytest.raises(ParameterError, match=f"got {named}"):
        call()


def test_probabilities_and_tail_sum_to_one_at_every_accepted_level():
    for n_max in (1, np.int64(1), np.int32(7)):
        spectrum = thermal_probabilities(np.float32(1.0), n_max)
        assert spectrum.n_max == int(n_max) and type(spectrum.n_max) is int
        assert len(spectrum.probabilities) == n_max + 1
        assert abs(spectrum.probabilities.sum() + spectrum.tail_mass - 1.0) < 1e-15
