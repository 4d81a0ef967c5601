import json

import numpy as np
import pytest

from sympent import (
    DimensionError,
    InvalidPartitionError,
    MalformedInputError,
    ModePartition,
    NumericalFailureError,
    chain_model,
    characteristic_function,
    covariance_from_csv_text,
    covariance_from_json_dict,
    covariance_to_csv_text,
    covariance_to_json_dict,
    ground_state_covariance,
    read_covariance_text,
    reduce,
    symplectic_form,
    symplectic_spectrum,
    two_oscillator_model,
    vacuum,
    validate,
    wigner_function,
    wigner_values,
)

from conftest import embed_symplectic, random_valid_covariance, two_mode_squeezed


# --- physicality -----------------------------------------------------------


def test_vacuum_saturates_uncertainty_bound():
    report = validate(vacuum(1))
    assert report.valid
    assert abs(report.min_heisenberg_eigenvalue) < 1e-14
    assert abs(report.min_symplectic_eigenvalue - 0.5) < 1e-14


def test_below_vacuum_noise_is_invalid():
    report = validate(0.4 * np.eye(2))
    assert not report.valid
    assert abs(report.min_symplectic_eigenvalue - 0.4) < 1e-14


def test_pure_squeezing_preserves_validity():
    r = 1.0
    report = validate(np.diag([np.exp(2 * r) / 2, np.exp(-2 * r) / 2]))
    assert report.valid
    assert abs(report.min_symplectic_eigenvalue - 0.5) < 1e-12


def test_validate_rejects_asymmetric_as_malformed():
    bad = np.array([[0.5, 1e-6], [0.0, 0.5]])
    with pytest.raises(MalformedInputError):
        validate(bad)


def test_validate_reports_purity():
    assert validate(vacuum(3)).pure
    assert validate(ground_state_covariance(chain_model(8, 1.0, 1.0, 1.5, "periodic"))).pure
    assert not validate(1.5 * np.eye(4)).pure


def test_unphysical_singular_matrix_is_reported_not_raised():
    report = validate(np.diag([1.0, 0.0, 1.0, 0.0]))
    assert not report.valid
    assert not report.pure
    assert report.to_json_dict()["min_symplectic_eigenvalue"] is None


def test_physical_but_ill_conditioned_state_raises_numerical_failure():
    # two-mode squeezed vacuum at r = 7: Gamma's eigenvalues e^(+-14)/2 are
    # further apart than SINGULAR_RTOL allows
    gamma = two_mode_squeezed(7.0)
    with pytest.raises(NumericalFailureError, match="SINGULAR_RTOL"):
        validate(gamma)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_and_wigner_reject_non_finite_entries(bad):
    gamma = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(MalformedInputError, match="NaN or infinite"):
        validate(gamma)
    with pytest.raises(MalformedInputError, match="NaN or infinite"):
        wigner_values(gamma, np.zeros((2, 1)))


@pytest.mark.parametrize("scale,valid", [(1.0, True), (0.9, False)])
def test_block_diagonal_heisenberg_margin_matches_complex_form(scale, valid):
    # a chain ground state (Gamma_qp = 0), and the same state scaled below
    # the uncertainty bound
    gamma = scale * ground_state_covariance(chain_model(12, 1.0, 0.5, 1.5, "periodic"))
    want = np.linalg.eigvalsh(gamma + 0.5j * symplectic_form(12))[0]
    report = validate(gamma)
    assert report.valid is valid
    assert abs(report.min_heisenberg_eigenvalue - want) <= 1e-13 * np.linalg.norm(gamma, 2)


def test_heisenberg_test_agrees_with_spectrum_test():
    # the two physicality tests must agree on clearly valid and clearly
    # invalid states alike
    for seed in range(20):
        gamma, sigmas = random_valid_covariance(3, seed=seed, sigma_range=(0.55, 3.0))
        assert validate(gamma).valid
        assert sigmas[-1] >= 0.5 - 1e-8
    for seed in range(20):
        gamma, sigmas = random_valid_covariance(3, seed=seed, sigma_range=(0.1, 0.45))
        assert not validate(gamma).valid
        assert sigmas[-1] < 0.5 - 1e-8


# --- reduction -------------------------------------------------------------


def test_reduce_two_oscillator_ground_state():
    m, omega, lam = 1.0, 1.0, 2.0
    alpha = 3.0
    gamma = ground_state_covariance(two_oscillator_model(m, omega, lam))
    reduced = reduce(gamma, [1])
    expected = np.diag([(1 + alpha) / (4 * m * alpha * omega), m * (1 + alpha) * omega / 4])
    np.testing.assert_allclose(reduced, expected, atol=1e-14)
    np.testing.assert_allclose(reduce(gamma, [2]), expected, atol=1e-14)


def test_reduce_keeping_all_modes_is_identity():
    gamma, _ = random_valid_covariance(3, seed=3)
    np.testing.assert_array_equal(reduce(gamma, [1, 2, 3]), gamma)


def test_reduce_vacuum_factorizes():
    np.testing.assert_array_equal(reduce(vacuum(2), [2]), vacuum(1))


@pytest.mark.parametrize("keep", [[], [0], [3], [1, 1]])
def test_reduce_rejects_bad_keep_lists(keep):
    with pytest.raises(InvalidPartitionError):
        reduce(vacuum(2), keep)


def test_reduce_commutes_with_mode_relabeling():
    n = 4
    gamma, _ = random_valid_covariance(n, seed=9)
    perm = [3, 1, 4, 2]  # image of modes 1..4
    p = np.zeros((n, n))
    for src, dst in enumerate(perm):
        p[dst - 1, src] = 1.0
    s = np.block([[p, np.zeros((n, n))], [np.zeros((n, n)), p]])
    relabeled = s @ gamma @ s.T

    keep = [1, 3]
    moved_keep = sorted(perm[m - 1] for m in keep)
    direct = reduce(gamma, keep)
    via_perm = reduce(relabeled, moved_keep)
    np.testing.assert_allclose(
        np.sort(symplectic_spectrum(direct)), np.sort(symplectic_spectrum(via_perm)), atol=1e-12
    )
    # moved_keep is sorted by new labels; map back to compare entrywise
    order = np.argsort([perm[m - 1] for m in keep])
    k = len(keep)
    idx = list(order) + [k + i for i in order]
    np.testing.assert_allclose(via_perm, direct[np.ix_(idx, idx)], atol=1e-12)


# --- characteristic function ------------------------------------------------


def _wigner_grid(gamma, extent=9.0, steps=721):
    axis = np.linspace(-extent, extent, steps)
    dx = axis[1] - axis[0]
    qs, ps = np.meshgrid(axis, axis, indexing="ij")
    w_vals = wigner_values(gamma, np.stack([qs.ravel(), ps.ravel()])).reshape(qs.shape)
    return qs, ps, w_vals, dx


def _chi_from_wigner_integral(grid, eta):
    """Independent oracle: chi(eta) = integral W(x) exp(-i eta^T Omega x) dx."""
    qs, ps, w_vals, dx = grid
    u = symplectic_form(1).T @ np.asarray(eta, dtype=float)
    phase = np.exp(-1j * (u[0] * qs + u[1] * ps))
    return complex((w_vals * phase).sum() * dx * dx)


def test_characteristic_function_is_normalized_at_origin():
    gamma, _ = random_valid_covariance(2, seed=4)
    assert characteristic_function(gamma, np.zeros(4)) == 1.0


def test_characteristic_function_vacuum_matches_wigner_transform():
    gamma = vacuum(1)
    grid = _wigner_grid(gamma, extent=9.0, steps=721)
    for eta in ([1.0, 0.0], [0.7, -0.3], [2.0, 1.0]):
        oracle = _chi_from_wigner_integral(grid, eta)
        assert abs(oracle.imag) < 1e-9
        value = characteristic_function(gamma, eta)
        np.testing.assert_allclose(value, oracle.real, atol=1e-9)
        eta = np.asarray(eta)
        np.testing.assert_allclose(value, np.exp(-(eta @ eta) / 4.0), rtol=1e-13)


def test_characteristic_function_bounded_by_one(rng):
    gamma, _ = random_valid_covariance(2, seed=8)
    for _ in range(1000):
        eta = rng.normal(scale=3.0, size=4)
        assert characteristic_function(gamma, eta) <= 1.0


def test_characteristic_function_rejects_wrong_length():
    with pytest.raises(DimensionError):
        characteristic_function(vacuum(2), [1.0, 2.0])


# --- Wigner function ---------------------------------------------------------


def test_wigner_vacuum_peak_is_one_over_pi():
    np.testing.assert_allclose(wigner_function(vacuum(1), [0.0, 0.0]), 1.0 / np.pi, rtol=1e-13)


def test_wigner_integrates_to_one():
    axis = np.linspace(-8.0, 8.0, 161)
    dx = axis[1] - axis[0]
    total = sum(
        wigner_function(vacuum(1), [q, p]) for q in axis for p in axis
    ) * dx * dx
    assert abs(total - 1.0) < 1e-6


def test_wigner_positive_everywhere(rng):
    gamma, _ = random_valid_covariance(1, seed=12)
    for _ in range(200):
        assert wigner_function(gamma, rng.normal(scale=4.0, size=2)) > 0.0


def test_wigner_values_matches_scalar_evaluation(rng):
    gamma, _ = random_valid_covariance(2, seed=14)
    pts = rng.normal(scale=2.0, size=(4, 50))
    batched = wigner_values(gamma, pts)
    singles = [wigner_function(gamma, pts[:, k]) for k in range(50)]
    np.testing.assert_allclose(batched, singles, rtol=1e-13)


def test_wigner_squeezed_level_sets_have_axis_ratio_four():
    gamma = np.diag([2.0, 1.0 / 8.0])
    for a in (0.5, 1.0, 2.0, 3.0):
        np.testing.assert_allclose(
            wigner_function(gamma, [a, 0.0]),
            wigner_function(gamma, [0.0, a / 4.0]),
            rtol=1e-12,
        )


def test_wigner_rejects_singular_matrix():
    with pytest.raises(NumericalFailureError):
        wigner_function(np.diag([1.0, 0.0]), [0.0, 0.0])


def test_wigner_rejects_asymmetric_matrix():
    with pytest.raises(MalformedInputError):
        wigner_function(np.array([[1.0, 0.3], [0.0, 1.0]]), [0.0, 0.0])


@pytest.mark.parametrize(
    "gamma", [vacuum(1), np.diag([1.0 / 3.0, 1.0]), np.diag([1.0, 0.25])]
)
def test_wigner_is_symplectic_fourier_transform_of_chi(gamma):
    # numerical transform W(x) = (2 pi)^-2 integral chi(eta) exp(i eta^T Omega x)
    m = symplectic_form(1) @ gamma @ symplectic_form(1).T
    extent = 8.5 / np.sqrt(np.linalg.eigvalsh(m)[0])
    steps = 601
    axis = np.linspace(-extent, extent, steps)
    de = axis[1] - axis[0]
    e1, e2 = np.meshgrid(axis, axis, indexing="ij")
    chi = np.exp(-0.5 * (m[0, 0] * e1**2 + 2 * m[0, 1] * e1 * e2 + m[1, 1] * e2**2))
    for x in ([0.0, 0.0], [0.4, -0.8], [1.2, 0.3]):
        u = symplectic_form(1).T @ np.asarray(x, dtype=float)
        value = (np.cos(e1 * u[0] + e2 * u[1]) * chi).sum() * de * de / (2 * np.pi) ** 2
        np.testing.assert_allclose(value, wigner_function(gamma, x), atol=1e-4)
        # chi itself agrees with the closed form used to build the grid
        mid = steps // 2
        assert chi[mid, mid] == characteristic_function(gamma, [0.0, 0.0])


# --- partitions --------------------------------------------------------------


def test_partition_from_string():
    part = ModePartition.from_string("1,3|2,4")
    assert part.n == 4
    assert part.set_a == (1, 3)
    assert part.set_b == (2, 4)
    assert part.to_json_dict() == {"n": 4, "set_a": [1, 3], "set_b": [2, 4]}


def test_partition_normalizes_numpy_indices():
    part = ModePartition.from_sides(np.array([2, 1]), np.array([3]))
    assert part.set_a == (1, 2)
    assert type(part.set_a[0]) is int
    json.dumps(part.to_json_dict())


@pytest.mark.parametrize("text", ["1|2", "1,3|2,4", "4,1|3,2", "2,3,5|1,4,6"])
def test_partition_string_round_trip(text):
    part = ModePartition.from_string(text)
    assert ModePartition.from_string(str(part)) == part


@pytest.mark.parametrize(
    "text", ["1,2", "1|2|3", "|1,2", "1,2|", "1,2|2,3", "1,2|4", "a|b", "1,1|2"]
)
def test_partition_rejects_bad_strings(text):
    with pytest.raises(InvalidPartitionError):
        ModePartition.from_string(text)


# --- serialization -----------------------------------------------------------


def test_json_round_trip_is_exact():
    gamma, _ = random_valid_covariance(3, seed=6)
    again = covariance_from_json_dict(covariance_to_json_dict(gamma))
    np.testing.assert_array_equal(again, gamma)


def test_csv_round_trip_is_exact():
    gamma, _ = random_valid_covariance(2, seed=17)
    again = covariance_from_csv_text(covariance_to_csv_text(gamma))
    np.testing.assert_array_equal(again, gamma)


def test_json_rejects_wrong_ordering_tag():
    obj = covariance_to_json_dict(vacuum(1))
    obj["ordering"] = "qpqp"
    with pytest.raises(MalformedInputError):
        covariance_from_json_dict(obj)


def test_json_rejects_boolean_mode_count():
    obj = covariance_to_json_dict(vacuum(1))
    obj["n"] = True
    with pytest.raises(MalformedInputError):
        covariance_from_json_dict(obj)


def test_json_rejects_wrong_matrix_length():
    obj = covariance_to_json_dict(vacuum(1))
    obj["matrix"] = obj["matrix"][:-1]
    with pytest.raises(MalformedInputError):
        covariance_from_json_dict(obj)


@pytest.mark.parametrize(
    "matrix",
    [5, "0.5,0,0,0.5", {"0": 0.5}, [[0.5], [0.0], [0.0], [0.5]], [True, False, False, True],
     [0.5, "0", 0, 0.5], [0.5, None, 0, 0.5], [10**400, 0, 0, 0.5]],
    ids=["int", "string", "object", "nested", "booleans", "string-entry", "null-entry", "huge-int"],
)
def test_json_rejects_malformed_matrix(matrix):
    obj = covariance_to_json_dict(vacuum(1))
    obj["matrix"] = matrix
    with pytest.raises(MalformedInputError, match="matrix"):
        covariance_from_json_dict(obj)


def test_json_accepts_integer_entries():
    obj = {"n": 1, "ordering": "qqpp", "matrix": [1, 0, 0.0, 1]}
    np.testing.assert_array_equal(covariance_from_json_dict(obj), np.eye(2))


def test_csv_rejects_missing_header():
    with pytest.raises(MalformedInputError):
        covariance_from_csv_text("0.5,0\n0,0.5\n")


def test_csv_rejects_wrong_ordering_tag():
    text = covariance_to_csv_text(vacuum(1)).replace("ordering=qqpp", "ordering=qpqp")
    with pytest.raises(MalformedInputError):
        covariance_from_csv_text(text)


def test_read_covariance_text_dispatches_on_content():
    gamma = vacuum(2)
    np.testing.assert_array_equal(
        read_covariance_text(json.dumps(covariance_to_json_dict(gamma))), gamma
    )
    np.testing.assert_array_equal(read_covariance_text(covariance_to_csv_text(gamma)), gamma)
    with pytest.raises(MalformedInputError):
        read_covariance_text("not a state\n")
