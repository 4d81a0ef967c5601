import json
import re
import warnings

import numpy as np
import pytest

from sympent import (
    DimensionError,
    InvalidPartitionError,
    MalformedInputError,
    ModePartition,
    NumericalFailureError,
    ParameterError,
    QuadraticModel,
    chain_model,
    characteristic_function,
    covariance_from_csv_text,
    covariance_from_json_dict,
    covariance_to_csv_text,
    covariance_to_json_dict,
    entanglement_entropy,
    ground_state_covariance,
    heisenberg_margin,
    reduce,
    symplectic_form,
    symplectic_spectrum,
    vacuum,
    validate,
    wigner_values,
    williamson,
)
from sympent.models import _factor_rows

from conftest import embed_symplectic, formula_model, random_valid_covariance, two_mode_squeezed


# --- physicality -----------------------------------------------------------


def test_vacuum_saturates_uncertainty_bound():
    report = validate(vacuum(1))
    assert report.valid
    assert abs(heisenberg_margin(vacuum(1))) < 1e-14
    assert abs(report.min_symplectic_eigenvalue - 0.5) < 1e-14


@pytest.mark.parametrize(
    "tol", [np.nan, np.inf, -np.inf, -1e-300, "1e-8", None, True],
    ids=["nan", "inf", "-inf", "-1e-300", "string", "none", "bool"],
)
def test_tol_must_be_finite_and_non_negative(linalg_calls, cut_grams_calls, tol):
    # refused, naming the value, before any Gram pair or solve
    model = chain_model(4, 1.0, 1.0, 0.5, "open")
    cause = re.escape(f"tol must be a finite number >= 0, got {tol!r}")
    for state in (vacuum(1), model):
        with pytest.raises(ParameterError, match=cause):
            validate(state, tol)
    with pytest.raises(ParameterError, match=cause):
        entanglement_entropy(vacuum(2), ModePartition.from_string("1|2"), tol=tol)
    assert cut_grams_calls == []
    assert linalg_calls == []


def test_zero_tol_is_accepted():
    assert validate(vacuum(1), 0.0).valid
    assert validate(vacuum(1), np.float64(0.0)).valid
    report = validate(chain_model(4, 1.0, 1.0, 0.5, "open"), 0)
    assert report.valid and report.pure and report.tol == 0.0


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


@pytest.mark.parametrize(
    "gamma,cause",
    [
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "NaN or infinite"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "NaN or infinite"),
        (np.array([[1.0, 0.3], [0.0, 1.0]]), r"asymmetric: max \|G - G\^T\| = 3\.000e-01"),
    ],
    ids=["nan", "inf", "asymmetric"],
)
def test_validate_and_wigner_reject_non_finite_entries(gamma, cause):
    # every entry point that takes a Gamma runs the one symmetry test, so
    # each raises the same MalformedInputError with the same message
    entry_points = [
        validate,
        symplectic_spectrum,
        williamson,
        heisenberg_margin,
        lambda g: wigner_values(g, np.zeros((2, 1))),
    ]
    messages = set()
    for entry in entry_points:
        with pytest.raises(MalformedInputError, match=cause) as excinfo:
            entry(gamma)
        assert type(excinfo.value) is MalformedInputError
        messages.add(str(excinfo.value))
    assert len(messages) == 1
    # a model potential with the same entries has no ground state
    with pytest.raises(ParameterError, match=cause):
        QuadraticModel.from_potential(1.0, gamma)


def complex_vacuum():
    """The 2-mode vacuum with a Hermitian, not real, q_1-p_1 coupling 0.3i."""
    gamma = vacuum(2).astype(complex)
    gamma[0, 2], gamma[2, 0] = 0.3j, -0.3j
    return gamma


FORMED_ENTRY_POINTS = {
    "symplectic_spectrum": symplectic_spectrum,
    "validate": validate,
    "reduce": lambda g: reduce(g, [1]),
    "entanglement_entropy": lambda g: entanglement_entropy(g, ModePartition.from_string("1|2")),
    "heisenberg_margin": heisenberg_margin,
    "williamson": williamson,
    "wigner_values": lambda g: wigner_values(g, np.zeros((4, 1))),
    "characteristic_function": lambda g: characteristic_function(g, np.zeros(4)),
    "covariance_to_json_dict": covariance_to_json_dict,
    "covariance_to_csv_text": covariance_to_csv_text,
}


@pytest.mark.parametrize("name", FORMED_ENTRY_POINTS)
def test_formed_entry_points_refuse_a_complex_matrix(name):
    # a ladder-basis covariance matrix is complex; dropping its imaginary part
    # would read another state, so every formed-Gamma entry refuses it, as an
    # array and as nested lists
    for gamma in (complex_vacuum(), complex_vacuum().tolist()):
        with pytest.raises(MalformedInputError, match="got dtype complex128") as excinfo:
            FORMED_ENTRY_POINTS[name](gamma)
        assert type(excinfo.value) is MalformedInputError


@pytest.mark.parametrize("scale,valid", [(1.0, True), (0.9, False)])
def test_block_diagonal_heisenberg_margin_matches_complex_form(scale, valid):
    # a chain ground state (Gamma_qp = 0), and the same state scaled below
    # the uncertainty bound
    gamma = scale * ground_state_covariance(chain_model(12, 1.0, 0.5, 1.5, "periodic"))
    want = np.linalg.eigvalsh(gamma + 0.5j * symplectic_form(12))[0]
    report = validate(gamma)
    assert report.valid is valid
    assert abs(heisenberg_margin(gamma) - want) <= 1e-13 * np.linalg.norm(gamma, 2)


def test_heisenberg_test_agrees_with_spectrum_test():
    # the two physicality tests must agree on clearly valid and clearly
    # invalid states alike
    for seed in range(20):
        gamma, sigmas = random_valid_covariance(3, seed=seed, sigma_range=(0.55, 3.0))
        assert validate(gamma).valid
        assert sigmas[-1] >= 0.5 - 1e-8
        assert heisenberg_margin(gamma) >= -1e-8
    for seed in range(20):
        gamma, sigmas = random_valid_covariance(3, seed=seed, sigma_range=(0.1, 0.45))
        assert not validate(gamma).valid
        assert sigmas[-1] < 0.5 - 1e-8
        assert heisenberg_margin(gamma) < -1e-8


def test_model_heisenberg_margin_is_exactly_zero(linalg_calls):
    # a certified ground state's margin is 0.0 with no solve
    for boundary in ("open", "periodic"):
        assert heisenberg_margin(chain_model(8, 1.0, 1.0, 0.5, boundary)) == 0.0
    assert linalg_calls == []


@pytest.mark.parametrize("n", [2, 8, 64, 256])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 100.0])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_formed_ground_state_heisenberg_margin_is_zero(boundary, lam, n):
    # the model's 0.0 is its formed Gamma's margin to rounding: measured at
    # most 2.8e-15 ||Gamma||_2 on this grid
    gamma = ground_state_covariance(chain_model(n, 1.0, 1.0, lam, boundary))
    assert abs(heisenberg_margin(gamma)) <= 1e-13 * np.linalg.norm(gamma, 2)


# --- model ground-state certificate -----------------------------------------


@pytest.mark.parametrize("n", [2, 16, 64, 256])
@pytest.mark.parametrize("lam", [0.0, 0.01, 1.0, 100.0, 1e5])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_certificate_agrees_with_validate_on_chains(boundary, lam, n):
    # a direct model of a chain's normal modes: a chain has no eigenvectors
    model = formula_model(n, 1.0, 1.0, lam, boundary)
    gamma = ground_state_covariance(model)
    # the build's residual max|U^T U - I|, and the residuals of the
    # Williamson transform it certifies, measured at most 2.8e-15 on this
    # grid: the symplectic one of G = r^T q, and the exact congruence
    # G G^T/2 (+) G^T G/2, from the factors of all rows
    u = model.eigenvectors
    assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-13
    q, r = _factor_rows(model, slice(None))
    g = r.T @ q
    half = 0.5 * np.eye(n)
    assert np.abs(g @ g.T / 2 - half).max() <= 1e-13
    assert np.abs(g.T @ g / 2 - half).max() <= 1e-13
    assert np.abs(g - np.eye(n)).max() <= 1e-13
    for tol in (1e-12, 1e-8):
        certified = validate(model, tol)
        solved = validate(gamma, tol)
        assert (certified.valid, certified.pure, certified.n) == (solved.valid, solved.pure, n)
        assert certified.min_symplectic_eigenvalue == 0.5
    # the residuals answer to their rounding bound, not to tol
    at_zero = validate(model, 0.0)
    assert at_zero.valid and at_zero.pure


RESIDUALS = r"residuals (\S+) \(congruence\), (\S+) \(symplectic\) against bounds (\S+), (\S+)$"


def test_perturbed_normal_modes_fail_the_certificate(linalg_calls):
    model = formula_model(8, 1.0, 1.0, 0.8, "periodic")
    perturbed = model.eigenvectors.copy()
    perturbed[0, 0] += 1e-6
    # one entry moved by d, or one normal mode scaled by 1 + d: max|U^T U - I|
    # is ~d or ~2d, far above its rounding bound 16 n eps (~3e-14), so the
    # build refuses the model; no tol plays a part
    rescaled = model.eigenvectors.copy()
    rescaled[:, 0] *= 1 + 1e-6
    for vectors in (perturbed, rescaled):
        with pytest.raises(ParameterError, match=RESIDUALS) as excinfo:
            QuadraticModel(1.0, model.frequencies, vectors)
        congruence, symplectic, bound_c, bound_s = map(
            float, re.search(RESIDUALS, str(excinfo.value)).groups()
        )
        assert congruence > bound_c and symplectic > bound_s
        assert "model ground-state certificate exceeded its rounding bound" in str(excinfo.value)
    # one n x n product, no eigensolver
    assert linalg_calls == []


def test_certificate_refuses_other_states():
    # the ground state scaled by 0.9 (every sigma 0.45, unphysical) or by
    # 1/0.9 (every sigma 0.556, mixed), X = q q^T / 2 and P = r r^T / 2 both
    # through U scaled by the root: a model's q and r share U, so the build
    # must refuse either
    model = formula_model(4, 1.0, 1.0, 0.8, "open")
    for scale in (np.sqrt(0.9), 1 / np.sqrt(0.9)):
        with pytest.raises(ParameterError, match="certificate exceeded its rounding bound"):
            QuadraticModel(1.0, model.frequencies, scale * model.eigenvectors)


def test_a_writeable_eigenvector_array_is_checked_on_every_build():
    # no array is trusted after its first check: an array changed in place
    # between two builds fails the second
    model = formula_model(8, 1.0, 1.0, 0.8, "periodic")
    vectors = model.eigenvectors.copy()
    assert QuadraticModel(1.0, model.frequencies, vectors).eigenvectors is vectors
    vectors[0, 0] += 1e-6
    with pytest.raises(ParameterError, match="certificate exceeded its rounding bound"):
        QuadraticModel(1.0, model.frequencies, vectors)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", [(1, 1), (6, 6), (0, 5)], ids=["X", "P", "qp"])
def test_certificate_rejects_non_finite_entries_as_the_solve_does(entry, value):
    # refused before any residual or block test on both routes: the solve of
    # a Gamma with the non-finite entry with its MalformedInputError, and
    # the build of a model whose eigenvector rows that entry is built from
    # (row i mod n of U gives q_i and p_i) hold it with a ParameterError
    model = formula_model(4, 1.0, 1.0, 0.8, "open")
    broken = ground_state_covariance(model)
    broken[entry] = value
    with pytest.raises(MalformedInputError, match="^matrix has a NaN or infinite entry$"):
        validate(broken)
    vectors = model.eigenvectors.copy()
    for i in entry:
        vectors[i % 4, 0] = value
    with pytest.raises(ParameterError, match="^normal-mode eigenvectors have a NaN or infinite entry$"):
        QuadraticModel(1.0, model.frequencies, vectors)


REAL_ARRAY_CALLS = {
    "validate": (validate, MalformedInputError, "a real matrix of quadrature moments", (2, 2)),
    "characteristic_function": (
        lambda v: characteristic_function(vacuum(1), v), MalformedInputError, "a real phase point", (2,)
    ),
    "wigner_values": (
        lambda v: wigner_values(vacuum(1), v), MalformedInputError, "real phase points", (2, 1)
    ),
    "QuadraticModel": (
        lambda v: QuadraticModel(1.0, [1.0, 2.0], v), ParameterError, "real normal-mode eigenvectors", (2, 2)
    ),
}
RAGGED = {(2, 2): [[0.5, 0.0], [0.0]], (2,): [1.0, [0.0, 0.0]], (2, 1): [[0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("kind", ["ragged", "string", "bool"])
@pytest.mark.parametrize("call", list(REAL_ARRAY_CALLS))
def test_real_array_rule_refuses_ragged_and_non_numeric_input(call, kind):
    # one rule for every array input: numbers only, each entry an int or a
    # float; a bool would read as 0 or 1 and a numeric string would be parsed
    fn, error, what, shape = REAL_ARRAY_CALLS[call]
    identity = np.eye(*shape) if len(shape) == 2 else np.array([1.0, 0.0])
    value = {
        "ragged": RAGGED[shape],
        "string": identity.astype(str).tolist(),
        "bool": identity.astype(bool).tolist(),
    }[kind]
    with pytest.raises(error, match="^expected " + re.escape(what)):
        fn(value)


# --- reduction -------------------------------------------------------------


def test_reduce_two_oscillator_ground_state():
    m, omega, lam = 1.0, 1.0, 2.0
    alpha = 3.0
    gamma = ground_state_covariance(chain_model(2, m, omega, lam))
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
    # one index check for a covariance matrix and a model's Gram pair
    for state in (vacuum(2), chain_model(2, 1.0, 1.0, 0.5)):
        with pytest.raises(InvalidPartitionError):
            reduce(state, keep)


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_bool_mode_index_is_refused(flag):
    # a bool is an int subclass: True would read as mode 1, False as mode 0
    model = chain_model(2, 1.0, 1.0, 0.5)
    for state in (vacuum(2), ground_state_covariance(model), model):
        with pytest.raises(InvalidPartitionError, match=r"mode indices \[.*\] of the keep list"):
            reduce(state, [flag])
    with pytest.raises(InvalidPartitionError, match="side A of the partition"):
        ModePartition.from_sides([flag], [2])
    with pytest.raises(InvalidPartitionError, match="side B of the partition"):
        ModePartition(n=2, set_a=(1,), set_b=(flag,))


@pytest.mark.parametrize("keep", [[2], [3, 1], [5, 2, 4], range(1, 7)])
def test_model_reduction_is_its_ground_state_reduction(keep):
    # the chain's closed-form Gram pair against the submatrix of the formed
    # Gamma of its direct model: the same entries, summed over all n modes
    # by an FFT or by the factor rows
    model = chain_model(6, 1.0, 1.0, 1.7, "periodic")
    from_rows = reduce(model, keep)
    gamma = ground_state_covariance(formula_model(6, 1.0, 1.0, 1.7, "periodic"))
    np.testing.assert_allclose(from_rows, reduce(gamma, keep), rtol=0, atol=1e-15)
    k = len(from_rows) // 2
    assert not from_rows[:k, k:].any() and not from_rows[k:, :k].any()
    np.testing.assert_array_equal(from_rows, from_rows.T)


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


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
@pytest.mark.parametrize(
    "function,points",
    [(characteristic_function, np.array([0.1j, 0.0])), (wigner_values, np.array([[0.1j], [0.0]]))],
    ids=["characteristic_function", "wigner_values"],
)
def test_phase_points_must_be_real(function, points, as_list):
    # a phase point is real: a float conversion would drop the imaginary part,
    # so a complex one is refused, as an array and as nested lists
    with pytest.raises(MalformedInputError, match="got dtype complex128") as excinfo:
        function(vacuum(1), points.tolist() if as_list else points)
    assert type(excinfo.value) is MalformedInputError


# --- Wigner function ---------------------------------------------------------


def test_wigner_vacuum_peak_is_one_over_pi():
    np.testing.assert_allclose(wigner_values(vacuum(1), np.zeros((2, 1))), [1.0 / np.pi], rtol=1e-13)


def test_wigner_integrates_to_one():
    _, _, w_vals, dx = _wigner_grid(vacuum(1), extent=8.0, steps=161)
    assert abs(w_vals.sum() * dx * dx - 1.0) < 1e-6


def test_wigner_positive_everywhere(rng):
    gamma, _ = random_valid_covariance(1, seed=12)
    assert np.all(wigner_values(gamma, rng.normal(scale=4.0, size=(200, 2)).T) > 0.0)


def test_wigner_values_matches_scalar_evaluation(rng):
    gamma, _ = random_valid_covariance(2, seed=14)
    pts = rng.normal(scale=2.0, size=(4, 50))
    batched = wigner_values(gamma, pts)
    singles = [wigner_values(gamma, pts[:, k:k + 1])[0] for k in range(50)]
    np.testing.assert_allclose(batched, singles, rtol=1e-13)


def test_wigner_squeezed_level_sets_have_axis_ratio_four():
    gamma = np.diag([2.0, 1.0 / 8.0])
    for a in (0.5, 1.0, 2.0, 3.0):
        on_q, on_p = wigner_values(gamma, np.array([[a, 0.0], [0.0, a / 4.0]]))
        np.testing.assert_allclose(on_q, on_p, rtol=1e-12)


def test_wigner_normalizes_a_gamma_whose_determinant_overflows():
    # the eigenvalues 1.6e308 and 1.4e308 multiply past the float range, but
    # the peak 1/(2 pi sqrt(det Gamma)) ~ 1.06e-309 is representable
    gamma = np.array([[1.5e308, 1e307], [1e307, 1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [peak] = wigner_values(gamma, np.zeros((2, 1)))
    root_det = 1.5e308 * np.sqrt(1.0 - (1.0 / 15.0) ** 2)
    # a subnormal peak keeps ~48 bits
    np.testing.assert_allclose(peak, 1.0 / (2.0 * np.pi) / root_det, rtol=1e-13)


def test_wigner_rejects_singular_matrix():
    with pytest.raises(NumericalFailureError):
        wigner_values(np.diag([1.0, 0.0]), np.zeros((2, 1)))


def test_wigner_rejects_asymmetric_matrix():
    with pytest.raises(MalformedInputError):
        wigner_values(np.array([[1.0, 0.3], [0.0, 1.0]]), np.zeros((2, 1)))


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
        np.testing.assert_allclose(value, wigner_values(gamma, np.array(x)[:, None])[0], atol=1e-4)
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


@pytest.mark.parametrize("n", [2.7, 2.0, "2", True, None], ids=["2.7", "2.0", "str", "True", "None"])
def test_partition_refuses_a_non_integer_mode_count(n):
    # the integer rule of mode indices: int() would read 2.7 and "2" as 2
    with pytest.raises(InvalidPartitionError, match="mode count n must be an integer"):
        ModePartition(n=n, set_a=(1,), set_b=(2,))
    part = ModePartition(n=np.int64(2), set_a=(1,), set_b=(2,))
    assert part.n == 2 and type(part.n) is int


@pytest.mark.parametrize("text", ["1|2", "1,3|2,4", "4,1|3,2", "2,3,5|1,4,6"])
def test_partition_string_round_trip(text):
    part = ModePartition.from_string(text)
    assert ModePartition.from_string(str(part)) == part


@pytest.mark.parametrize(
    "text",
    ["1,2", "1|2|3", "|1,2", "1,2|", "1,2|2,3", "1,2|4", "a|b", "1,1|2", "1,,2|3", "1,|2", "1|2,"],
)
def test_partition_rejects_bad_strings(text):
    with pytest.raises(InvalidPartitionError):
        ModePartition.from_string(text)


@pytest.mark.parametrize("text", ["1,,2|3", "1,|2", "1|2,", "1| ,2", ",|1"])
def test_partition_names_an_empty_index(text):
    with pytest.raises(InvalidPartitionError, match="empty mode index"):
        ModePartition.from_string(text)


def test_partition_allows_spaces_around_indices():
    assert ModePartition.from_string(" 1 , 3 |2, 4 ") == ModePartition.from_string("1,3|2,4")


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


@pytest.mark.parametrize("flag", [True, False])
def test_json_rejects_boolean_hbar(flag):
    # True == 1, but a bool names no convention
    obj = covariance_to_json_dict(vacuum(1))
    obj["hbar"] = flag
    with pytest.raises(MalformedInputError, match=f"^unsupported hbar convention {flag}; expected 1$"):
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


@pytest.mark.parametrize(
    "header,accepted",
    [("# sympent covariance n=1 ordering=qqpp", True), ("# sympent covariance\tn=1 ordering=qqpp", True),
     ("# sympent covariancen=1 ordering=qqpp", False), ("# sympent covariances n=1 ordering=qqpp", False)],
    ids=["space", "tab", "glued-tag", "glued-letter"],
)
def test_csv_header_prefix_ends_at_whitespace(header, accepted):
    # "covariancen=1" once read as the tag n=1
    text = header + "\n0.5,0\n0,0.5\n"
    if accepted:
        np.testing.assert_array_equal(covariance_from_csv_text(text), vacuum(1))
        return
    with pytest.raises(MalformedInputError, match="must start with a '# sympent covariance' header line"):
        covariance_from_csv_text(text)


def test_csv_rejects_wrong_ordering_tag():
    text = covariance_to_csv_text(vacuum(1)).replace("ordering=qqpp", "ordering=qpqp")
    with pytest.raises(MalformedInputError):
        covariance_from_csv_text(text)


@pytest.mark.parametrize(
    "tag,accepted",
    [("", True), (" hbar=1", True), (" hbar=1.0", True), (" hbar=2", False), (" hbar=true", False),
     (" hbar=NaN", False)],
    ids=["absent", "one", "one-float", "two", "true", "nan"],
)
def test_csv_hbar_tag_follows_the_json_rule(tag, accepted):
    text = f"# sympent covariance n=1 ordering=qqpp{tag}\n0.5,0\n0,0.5\n"
    obj = {"n": 1, "ordering": "qqpp", "matrix": [0.5, 0, 0, 0.5]}
    if tag:
        obj["hbar"] = json.loads(tag.split("=")[1])
    if accepted:
        np.testing.assert_array_equal(covariance_from_csv_text(text), vacuum(1))
        np.testing.assert_array_equal(covariance_from_json_dict(obj), vacuum(1))
        return
    for read, value in ((covariance_from_csv_text, text), (covariance_from_json_dict, obj)):
        with pytest.raises(MalformedInputError, match="unsupported hbar convention"):
            read(value)


@pytest.mark.parametrize("tag", ["1_0", "\u0661"], ids=["underscore", "arabic-indic-one"])
def test_csv_hbar_tag_is_number_text(tag):
    # float() reads both as a number, 10 and 1; the tag is refused as text
    with pytest.raises(MalformedInputError, match="covariance CSV must"):
        covariance_from_csv_text(f"# sympent covariance n=1 ordering=qqpp hbar={tag}\n0.5,0\n0,0.5\n")


@pytest.mark.parametrize("n", [0, -1])
def test_csv_mode_count_tag_follows_the_json_rule(n):
    # n=0 would otherwise fail on the row width, and n=-1 on the row count
    text = f"# sympent covariance n={n} ordering=qqpp\n0.5,0\n0,0.5\n"
    obj = {"n": n, "ordering": "qqpp", "matrix": [0.5, 0, 0, 0.5]}
    for read, value in ((covariance_from_csv_text, text), (covariance_from_json_dict, obj)):
        with pytest.raises(MalformedInputError, match=f"^mode count must be a positive integer, got {n}$"):
            read(value)


@pytest.mark.parametrize(
    "text,cause",
    [
        ("# sympent covariance n=1 ordering=qqpp\n1_0,0\n0,1\n", "must not contain '_'"),
        ("# sympent covariance n=1 ordering=qqpp\n\u0661,0\n0,1\n", "must be ASCII text, found '\u0661'"),
        ("# sympent covariance n=0_1 ordering=qqpp\n1,0\n0,1\n", "must not contain '_'"),
        ("# sympent covariance n=\u0661 ordering=qqpp\n1,0\n0,1\n", "must be ASCII text"),
    ],
    ids=["cell-underscore", "cell-arabic-indic-digit", "n-underscore", "n-arabic-indic-digit"],
)
def test_csv_rejects_underscores_and_non_ascii_digits(text, cause):
    # int() and float() accept all four, reading 10, 1, 1 and 1
    with pytest.raises(MalformedInputError, match=cause):
        covariance_from_csv_text(text)


@pytest.mark.parametrize("n", [True, 2.5, 0, "2", None], ids=repr)
def test_vacuum_mode_count_is_a_positive_integer(n):
    # True once built the one-mode vacuum, and 2.5 raised numpy's bare TypeError
    with pytest.raises(DimensionError, match=f"mode count must be a positive integer, got {n!r}"):
        vacuum(n)
    np.testing.assert_array_equal(vacuum(np.int64(2)), vacuum(2))
