import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympent.entropy as entropy
from sympent import (
    DEFAULT_TOL,
    LN2,
    SIGMA_TOL,
    InvalidPartitionError,
    InvalidStateError,
    MalformedInputError,
    ModePartition,
    ThermalMode,
    UnphysicalEigenvalueError,
    chain_model,
    entanglement_entropy,
    ground_state_covariance,
    heisenberg_margin,
    mode_entropy,
    random_symplectic,
    reduce,
    required_n_max,
    symplectic_spectrum,
    thermal_entropy_bruteforce,
    thermal_parameter,
    vacuum,
    validate,
    williamson,
)

from conftest import embed_symplectic, random_valid_covariance, two_mode_squeezed

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


@pytest.mark.parametrize("sigma", [0.5, 0.7])
def test_mode_entropy_checks_the_base_of_a_pure_mode_too(sigma):
    with pytest.raises(ValueError, match="unknown log base 'foo'"):
        mode_entropy(sigma, "foo")


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "entry",
    [mode_entropy, thermal_parameter, ThermalMode.from_sigma],
    ids=["mode_entropy", "thermal_parameter", "from_sigma"],
)
def test_non_finite_sigma_is_refused(entry, sigma):
    with pytest.raises(MalformedInputError, match=f"symplectic eigenvalue {sigma!r} is not finite"):
        entry(sigma)


@pytest.mark.parametrize("spectrum", [[math.nan], [0.7, math.nan, 0.5], [0.5, 0.4, math.nan]])
def test_total_of_a_nan_sigma_is_refused(spectrum):
    # the snap filter keeps a NaN, so mode_entropy still sees and refuses it
    with pytest.raises(MalformedInputError, match="symplectic eigenvalue nan is not finite"):
        entropy._total_bits(np.array(spectrum))


@pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
def test_total_bits_skips_only_terms_that_add_zero(lam):
    # the reference sends every floored eigenvalue through mode_entropy
    gamma = ground_state_covariance(chain_model(64, 1.0, 1.0, lam, "open"))
    spectrum = symplectic_spectrum(reduce(gamma, range(1, 33)))
    spectrum = np.concatenate([spectrum, [0.5 - 1e-10, 0.5 + 1e-10, 0.4]])
    assert np.sum(np.abs(np.maximum(spectrum, 0.5) - 0.5) <= SIGMA_TOL) >= 4
    want = float(sum(mode_entropy(max(s, 0.5)) for s in spectrum))
    assert entropy._total_bits(spectrum) == want


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


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=math.log10(2 * SIGMA_TOL), max_value=12.0))
def test_mode_entropy_matches_mpmath_up_to_large_sigma(log_excess):
    sigma = 0.5 + 10.0**log_excess
    with mpmath.workdps(50):
        s = mpmath.mpf(sigma)
        want = (s + 0.5) * mpmath.log(s + 0.5) - (s - 0.5) * mpmath.log(s - 0.5)
        rel = abs((mode_entropy(sigma, base="nats") - want) / want)
    assert rel <= 1e-14


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=math.log10(2 * SIGMA_TOL), max_value=300.0))
def test_thermal_parameter_matches_mpmath_up_to_large_sigma(log_excess):
    # ln((s + 1/2)/(s - 1/2)) = 2 atanh(1/(2 s)); the quotient form was off
    # by 1.1e-8 relative at s = 1e8 and read 0.0 at 1e17 (measured worst of
    # log1p(1/d): 0.92 eps)
    sigma = 0.5 + 10.0**log_excess
    with mpmath.workdps(50):
        want = 2 * mpmath.atanh(1 / (2 * mpmath.mpf(sigma)))
        rel = abs((thermal_parameter(sigma) - want) / want)
    assert rel <= 2 * np.finfo(float).eps


def test_mean_occupation_and_thermal_parameter():
    assert ThermalMode.from_sigma(0.5).n_bar == 0.0
    assert thermal_parameter(0.5) == math.inf
    assert thermal_parameter(1.5) == math.log(2.0)
    assert ThermalMode.from_sigma(REFERENCE_SIGMA).n_bar == REFERENCE_SIGMA - 0.5
    with pytest.raises(UnphysicalEigenvalueError):
        ThermalMode.from_sigma(0.4)
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
    gamma = ground_state_covariance(chain_model(2, 1.0, 1.0, 2.0))
    report = entanglement_entropy(gamma, ModePartition.from_string("1|2"))
    assert abs(report.total_bits - REFERENCE_ENTROPY_BITS) < 1e-9
    assert report.s_count == 1
    assert abs(report.total_bits - report.total_b_bits) < 1e-10
    np.testing.assert_allclose(report.spectrum_a, [REFERENCE_SIGMA], atol=1e-12)


def test_uncoupled_oscillators_are_unentangled():
    gamma = ground_state_covariance(chain_model(2, 1.0, 1.0, 0.0))
    report = entanglement_entropy(gamma, ModePartition.from_string("1|2"))
    assert report.total_bits == 0.0
    assert report.s_count == 0


def test_entropy_in_nats_scales_total():
    gamma = ground_state_covariance(chain_model(2, 1.0, 1.0, 2.0))
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
    pure = entanglement_entropy(vacuum(2), part)
    assert pure.pure_global_state
    np.testing.assert_allclose(pure.spectrum_b, [0.5], atol=1e-14)
    mixed = entanglement_entropy(np.diag([1.2, 0.7, 1.2, 0.7]), part)
    assert not mixed.pure_global_state
    assert mixed.spectrum_b is None
    assert mixed.total_b_bits is None
    assert "spectrum_b" not in mixed.to_json_dict()


def test_chain_entropy_uses_real_eigensolvers_only(linalg_calls):
    gamma = ground_state_covariance(chain_model(16, 1.0, 1.0, 0.8, "periodic"))
    partition = ModePartition.from_sides(range(1, 7), range(7, 17))
    del linalg_calls[:]
    report = entanglement_entropy(gamma, partition)
    assert report.pure_global_state and report.spectrum_b is not None
    assert linalg_calls
    assert [kind for _, kind in linalg_calls] == ["f"] * len(linalg_calls)


def test_entropy_rejects_mismatched_partition():
    with pytest.raises(InvalidPartitionError):
        entanglement_entropy(vacuum(3), ModePartition.from_string("1|2"))


def test_mismatched_partition_fails_before_the_full_state_pass(linalg_calls, factor_rows_calls):
    # unphysical and over the wrong mode count: the cheap partition check names the cause
    with pytest.raises(InvalidPartitionError, match="partition is over 2 modes"):
        entanglement_entropy(0.4 * np.eye(6), ModePartition.from_string("1|2"))
    assert linalg_calls == []
    # a model's reduction reads its factor rows, which are never computed
    model = chain_model(3, 1.0, 1.0, 0.8, "open")
    with pytest.raises(InvalidPartitionError, match="partition is over 2 modes but the state has 3"):
        entanglement_entropy(model, ModePartition.from_string("1|2"))
    assert factor_rows_calls == []
    assert linalg_calls == []


def test_unknown_base_fails_before_the_verdict_and_any_solve(linalg_calls, factor_rows_calls):
    model = chain_model(8, 1.0, 1.0, 0.5, "periodic")
    gamma = ground_state_covariance(chain_model(8, 1.0, 1.0, 0.5, "periodic"))
    partition = ModePartition.from_sides(range(1, 5), range(5, 9))
    del factor_rows_calls[:]  # those of ground_state_covariance
    for state in (gamma, model):
        with pytest.raises(ValueError, match="unknown log base 'foo'"):
            entanglement_entropy(state, partition, base="foo")
    assert factor_rows_calls == []
    assert linalg_calls == []


def test_chain_entropy_decomposes_each_state_once(linalg_calls):
    # full state, A and B: two block eigh and one SVD each, no Heisenberg eigvalsh
    gamma = ground_state_covariance(chain_model(16, 1.0, 1.0, 0.8, "periodic"))
    partition = ModePartition.from_sides(range(1, 7), range(7, 17))
    del linalg_calls[:]
    report = entanglement_entropy(gamma, partition)
    assert report.spectrum_b is not None
    names = [name for name, _ in linalg_calls]
    assert sorted(names) == ["eigh"] * 6 + ["svd"] * 3


def test_certified_report_replaces_the_full_state_pass(linalg_calls, linalg_shapes):
    # one solve of the cut's smaller side, A or B, from the Gram pair of its
    # factor rows: two Cholesky and one SVD of 6 x 6; neither the certificate
    # nor the reduction runs an eigensolver
    model = chain_model(16, 1.0, 1.0, 0.8, "periodic")
    for sides in ((range(1, 7), range(7, 17)), (range(7, 17), range(1, 7))):
        partition = ModePartition.from_sides(*sides)
        del linalg_calls[:], linalg_shapes[:]
        certified = entanglement_entropy(model, partition)
        assert sorted(name for name, _ in linalg_calls) == ["cholesky"] * 2 + ["svd"]
        assert linalg_shapes == [("cholesky", (6, 6)), ("cholesky", (6, 6)), ("svd", (6, 6))]
        solved = entanglement_entropy(ground_state_covariance(model), partition)
        for side in ("spectrum_a", "spectrum_b"):
            np.testing.assert_allclose(getattr(certified, side), getattr(solved, side), rtol=0, atol=1e-15)
        assert abs(certified.total_bits - solved.total_bits) <= 1e-14
        assert (certified.s_count, certified.pure_global_state) == (solved.s_count, True)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_model_cut_has_one_spectrum(boundary):
    # A|B and B|A swap their spectra bit for bit, the larger side's extra
    # eigenvalues are exactly 1/2, and the B fields repeat the A total
    model = chain_model(12, 1.0, 1.0, 1.5, boundary)
    small, large = [2, 5, 9], [1, 3, 4, 6, 7, 8, 10, 11, 12]
    forward = entanglement_entropy(model, ModePartition.from_sides(small, large))
    backward = entanglement_entropy(model, ModePartition.from_sides(large, small))
    np.testing.assert_array_equal(forward.spectrum_a, backward.spectrum_b, strict=True)
    np.testing.assert_array_equal(forward.spectrum_b, backward.spectrum_a, strict=True)
    np.testing.assert_array_equal(forward.spectrum_b[:3], forward.spectrum_a, strict=True)
    assert list(forward.spectrum_b[3:]) == [0.5] * 6
    for report in (forward, backward):
        assert report.total_b_bits == report.total_bits
        assert report.to_json_dict()["ab_agreement_residual_bits"] == 0.0


def test_model_for_another_mode_count_is_rejected():
    model = chain_model(2, 1.0, 1.0, 0.8, "open")
    with pytest.raises(InvalidPartitionError, match="partition is over 3 modes but the state has 2"):
        entanglement_entropy(model, ModePartition.from_string("1|2,3"))


def test_general_state_is_validated_by_one_spectrum(linalg_calls):
    gamma, _ = random_valid_covariance(3, seed=4)
    assert np.any(gamma[:3, 3:])
    del linalg_calls[:]
    assert validate(gamma).valid
    assert linalg_calls == [("eigh", "f"), ("eigvalsh", "c")]


def test_squeezed_state_below_the_vacuum_floor_is_rejected():
    # two-mode squeezed thermal state, r = 5, nu = 0.4999: sigma_min is 1e4 tol
    # below 1/2, but Gamma + (i/2) Omega's smallest eigenvalue is only -9.1e-9.
    # Rounding the entries (~e^10/4) moves the spectrum by ~6e-9.
    gamma = 2 * 0.4999 * two_mode_squeezed(5.0)
    report = validate(gamma)
    assert not report.valid
    assert report.min_symplectic_eigenvalue == pytest.approx(0.4999, abs=1e-8)
    with pytest.raises(InvalidStateError, match="min symplectic eigenvalue 0.499"):
        entanglement_entropy(gamma, ModePartition.from_string("1|2"))


def test_purity_check_examples():
    assert validate(vacuum(3)).pure
    assert not validate(np.diag([1.2, 1.2])).pure
    for lam in (0.0, 0.3, 2.0, 7.5):
        gamma = ground_state_covariance(chain_model(2, 1.0, 1.0, lam))
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
        report = entanglement_entropy(gamma, part)
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


@pytest.mark.parametrize(
    "sigmas",
    [
        # within SIGMA_TOL of 1/2 on either side, just below 1/2, just above the band
        [0.5 + 0.5 * SIGMA_TOL, 0.5 - 0.5 * SIGMA_TOL, 0.5 - 1e-12, 0.5 + 2 * SIGMA_TOL, 0.7, 3.0],
        [0.5, np.nextafter(0.5, 0.0), 0.5 + SIGMA_TOL, 1.0 / math.sqrt(3.0)],
    ],
)
def test_derived_mode_records_match_the_eager_records(sigmas):
    n = len(sigmas)
    gamma = np.diag(np.concatenate([sigmas, sigmas]))
    partition = ModePartition.from_sides(range(1, n), [n])
    report = entanglement_entropy(gamma, partition)
    assert np.any(np.abs(report.spectrum_a - 0.5) <= SIGMA_TOL)
    assert np.any(report.spectrum_a < 0.5)
    eager = tuple(ThermalMode.from_sigma(max(s, 0.5)) for s in report.spectrum_a)
    assert report.modes == eager
    assert report.total_bits == float(sum(m.entropy_bits for m in eager))
    assert report.to_json_dict()["modes"] == [m.to_json_dict() for m in eager]


def test_report_serializes_with_inf_beta_as_string():
    report = entanglement_entropy(vacuum(2), ModePartition.from_string("1|2"))
    payload = report.to_json_dict()
    assert payload["modes"][0]["beta"] == "inf"
    json.dumps(payload)  # must be valid JSON without Infinity literals
    assert payload["total_bits"] == 0.0
    assert payload["s_count"] == 0


# --- agreement of every check ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 2.0),
    nus=st.lists(st.floats(0.3, 3.0), min_size=4, max_size=4),
    pure=st.booleans(),
)
def test_every_check_agrees_on_planted_states(n, seed, scale, nus, pure):
    # S diag(nu, nu) S^T with cond(S) <= e^(2 scale): cond(Gamma) < 3e4, so
    # rounding moves each sigma by far less than DEFAULT_TOL
    nu = np.full(n, 0.5) if pure else np.sort(nus[:n])[::-1]
    s = random_symplectic(n, seed, scale)
    gamma = s @ np.diag(np.concatenate([nu, nu])) @ s.T
    gamma = (gamma + gamma.T) / 2
    report = validate(gamma)
    spectrum = symplectic_spectrum(gamma)
    # williamson accepts every state validate judges, and finds its spectrum
    dec = williamson(gamma)
    w = np.linalg.eigvalsh(gamma)
    np.testing.assert_allclose(dec.spectrum, spectrum, rtol=64 * np.finfo(float).eps * w[-1] / w[0])
    if pure:
        assert report.valid and report.pure
    elif abs(nu[-1] - 0.5) > DEFAULT_TOL:
        # outside the tol band the verdict and the margin's sign follow the planted floor:
        # the margin is sigma_min - 1/2 times a factor in [1/||S^-1||^2, ||S||^2]
        assert report.valid == (nu[-1] > 0.5) == (heisenberg_margin(gamma) > 0.0)
    if pure and n > 1:
        k = 1 + seed % (n - 1)
        partition = ModePartition.from_sides(range(1, k + 1), range(k + 1, n + 1))
        both = entanglement_entropy(gamma, partition)
        assert abs(both.total_bits - both.total_b_bits) < 1e-8
    for sigma in dec.spectrum[dec.spectrum > 0.5 + 1e-6]:
        beta = thermal_parameter(sigma)
        oracle = thermal_entropy_bruteforce(beta, required_n_max(beta) + 8)
        assert abs(mode_entropy(sigma) - oracle) < 1e-8
