import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympent import (
    LN2,
    InvalidPartitionError,
    InvalidStateError,
    ModePartition,
    UnphysicalEigenvalueError,
    chain_model,
    entanglement_entropy,
    ground_state_covariance,
    mean_occupation,
    mode_entropy,
    random_symplectic,
    thermal_entropy_bruteforce,
    thermal_parameter,
    two_oscillator_model,
    vacuum,
    validate,
)

from conftest import embed_symplectic

# frozen from the truncated number-basis sum at sigma = 1/sqrt(3)
REFERENCE_SIGMA = 1.0 / math.sqrt(3.0)
REFERENCE_ENTROPY_BITS = 0.4014135460857288


def test_pure_mode_has_exactly_zero_entropy():
    assert mode_entropy(0.5) == 0.0
    assert mode_entropy(0.5, base="nats") == 0.0


def test_clamp_band_around_half():
    assert mode_entropy(0.5 - 5e-10) == 0.0
    assert mode_entropy(0.5 + 5e-10) == 0.0
    assert mode_entropy(0.5 + 2e-9) > 0.0
    with pytest.raises(UnphysicalEigenvalueError):
        mode_entropy(0.5 - 2e-9)
    with pytest.raises(UnphysicalEigenvalueError):
        mode_entropy(0.49)


def test_unit_occupation_gives_two_bits():
    assert abs(mode_entropy(1.5) - 2.0) < 1e-15
    assert abs(mode_entropy(1.5, base="nats") - 2.0 * math.log(2.0)) < 1e-15


def test_reference_sigma_matches_fock_oracle():
    value = mode_entropy(REFERENCE_SIGMA)
    assert abs(value - REFERENCE_ENTROPY_BITS) < 1e-12
    oracle = thermal_entropy_bruteforce(thermal_parameter(REFERENCE_SIGMA), 400)
    assert abs(value - oracle) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.5 + 1e-8, max_value=50.0),
    st.floats(min_value=0.5 + 1e-8, max_value=50.0),
)
def test_mode_entropy_monotone(s1, s2):
    lo, hi = sorted((s1, s2))
    assert mode_entropy(lo) <= mode_entropy(hi)


def test_mode_entropy_continuous_at_half():
    assert mode_entropy(0.5 + 1.1e-9) < 1e-6


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.5 + 1e-9, max_value=100.0))
def test_base_conversion_is_exact(sigma):
    assert mode_entropy(sigma, base="bits") == mode_entropy(sigma, base="nats") / LN2


def test_mean_occupation_and_thermal_parameter():
    assert mean_occupation(0.5) == 0.0
    assert thermal_parameter(0.5) == math.inf
    assert thermal_parameter(1.5) == math.log(2.0)
    assert mean_occupation(REFERENCE_SIGMA) == REFERENCE_SIGMA - 0.5
    with pytest.raises(UnphysicalEigenvalueError):
        mean_occupation(0.4)
    with pytest.raises(UnphysicalEigenvalueError):
        thermal_parameter(0.4)


# --- full-state entropy ------------------------------------------------------


def test_vacuum_has_zero_entropy_for_any_partition():
    gamma = vacuum(4)
    for text in ("1|2,3,4", "1,3|2,4", "1,2,3|4"):
        report = entanglement_entropy(gamma, ModePartition.from_string(text))
        assert report.total_bits == 0.0
        assert report.s_count == 0


def test_two_oscillator_reference_entropy():
    gamma = ground_state_covariance(two_oscillator_model(1.0, 1.0, 2.0))
    report = entanglement_entropy(gamma, ModePartition.from_string("1|2"), include_b=True)
    assert abs(report.total_bits - REFERENCE_ENTROPY_BITS) < 1e-9
    assert report.s_count == 1
    assert abs(report.total_bits - report.total_b_bits) < 1e-10
    np.testing.assert_allclose(report.spectrum_a, [REFERENCE_SIGMA], atol=1e-12)


def test_uncoupled_oscillators_are_unentangled():
    gamma = ground_state_covariance(two_oscillator_model(1.0, 1.0, 0.0))
    report = entanglement_entropy(gamma, ModePartition.from_string("1|2"))
    assert report.total_bits == 0.0
    assert report.s_count == 0


def test_entropy_in_nats_scales_total():
    gamma = ground_state_covariance(two_oscillator_model(1.0, 1.0, 2.0))
    part = ModePartition.from_string("1|2")
    bits = entanglement_entropy(gamma, part, base="bits")
    nats = entanglement_entropy(gamma, part, base="nats")
    assert nats.total == bits.total_bits * LN2
    assert nats.total_bits == bits.total_bits


def test_entropy_rejects_unphysical_state():
    with pytest.raises(InvalidStateError):
        entanglement_entropy(0.4 * np.eye(4), ModePartition.from_string("1|2"))


def test_b_side_is_computed_for_pure_states_only():
    part = ModePartition.from_string("1|2")
    pure = entanglement_entropy(vacuum(2), part, include_b=True)
    assert pure.pure_global_state
    np.testing.assert_allclose(pure.spectrum_b, [0.5], atol=1e-14)
    mixed = entanglement_entropy(np.diag([1.2, 0.7, 1.2, 0.7]), part, include_b=True)
    assert not mixed.pure_global_state
    assert mixed.spectrum_b is None
    assert mixed.total_b_bits is None
    assert "spectrum_b" not in mixed.to_json_dict()


def test_entropy_rejects_mismatched_partition():
    with pytest.raises(InvalidPartitionError):
        entanglement_entropy(vacuum(3), ModePartition.from_string("1|2"))


def test_purity_check_examples():
    assert validate(vacuum(3)).pure
    assert not validate(np.diag([1.2, 1.2])).pure
    for lam in (0.0, 0.3, 2.0, 7.5):
        gamma = ground_state_covariance(two_oscillator_model(1.0, 1.0, lam))
        assert validate(gamma).pure


def test_complementarity_for_random_chain_states():
    rng = np.random.default_rng(77)
    for trial in range(12):
        n = int(rng.integers(3, 9))
        boundary = "open" if trial % 2 == 0 else "periodic"
        lam = float(rng.uniform(0.0, 3.0))
        gamma = ground_state_covariance(chain_model(n, 1.0, 1.0, lam, boundary))
        size_a = int(rng.integers(1, n))
        modes = list(rng.permutation(np.arange(1, n + 1)))
        part = ModePartition.from_sides(modes[:size_a], modes[size_a:])
        report = entanglement_entropy(gamma, part, include_b=True)
        total_b = sum(mode_entropy(s) for s in report.spectrum_b)
        assert abs(report.total_bits - total_b) < 1e-8
        thermal_a = np.sort(report.spectrum_a[report.spectrum_a > 0.5 + 1e-7])
        thermal_b = np.sort(report.spectrum_b[report.spectrum_b > 0.5 + 1e-7])
        assert len(thermal_a) == len(thermal_b)
        np.testing.assert_allclose(thermal_a, thermal_b, atol=1e-8)
        assert report.s_count <= min(len(part.set_a), len(part.set_b))


def test_entropy_invariant_under_local_symplectics():
    n = 5
    gamma = ground_state_covariance(chain_model(n, 1.0, 1.0, 1.3, "open"))
    part = ModePartition.from_string("1,3|2,4,5")
    base_total = entanglement_entropy(gamma, part).total_bits
    s_a = embed_symplectic(random_symplectic(2, seed=41), part.set_a, n)
    s_b = embed_symplectic(random_symplectic(3, seed=42), part.set_b, n)
    s = s_a @ s_b
    moved = s @ gamma @ s.T
    assert abs(entanglement_entropy(moved, part).total_bits - base_total) < 1e-8


def test_report_serializes_with_inf_beta_as_string():
    report = entanglement_entropy(vacuum(2), ModePartition.from_string("1|2"))
    payload = report.to_json_dict()
    assert payload["modes"][0]["beta"] == "inf"
    json.dumps(payload)  # must be valid JSON without Infinity literals
    assert payload["total_bits"] == 0.0
    assert payload["s_count"] == 0
