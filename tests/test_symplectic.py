import mpmath
import numpy as np
import pytest

import sympent.symplectic as symplectic
from sympent import (
    DimensionError,
    InvalidStateError,
    MalformedInputError,
    NumericalFailureError,
    chain_model,
    ground_state_covariance,
    random_symplectic,
    reduce,
    symplectic_form,
    symplectic_spectrum,
    validate,
    williamson,
)
from sympent.states import _model_grams

from conftest import is_symplectic, random_valid_covariance, two_mode_squeezed


def test_form_single_mode():
    np.testing.assert_array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])


def test_form_two_modes_block_structure():
    omega = symplectic_form(2)
    np.testing.assert_array_equal(omega[:2, 2:], np.eye(2))
    np.testing.assert_array_equal(omega[2:, :2], -np.eye(2))
    np.testing.assert_array_equal(omega[:2, :2], np.zeros((2, 2)))


def test_form_squares_to_minus_identity():
    omega = symplectic_form(3)
    np.testing.assert_allclose(omega @ omega, -np.eye(6), atol=0)
    np.testing.assert_array_equal(omega.T, -omega)
    np.testing.assert_allclose(omega.T, np.linalg.inv(omega), atol=1e-15)


def test_form_rejects_zero_modes():
    with pytest.raises(DimensionError):
        symplectic_form(0)


def test_is_symplectic_identity():
    assert is_symplectic(np.eye(6), tol=1e-12)


def test_is_symplectic_normal_mode_rotation():
    o = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    s = np.block([[o, np.zeros((2, 2))], [np.zeros((2, 2)), o]])
    assert is_symplectic(s, tol=1e-12)


def test_is_symplectic_rejects_uniform_scaling():
    assert not is_symplectic(2.0 * np.eye(4))


def test_is_symplectic_rejects_odd_dimension():
    with pytest.raises(DimensionError):
        is_symplectic(np.eye(3))


def test_spectrum_vacuum_is_all_half():
    np.testing.assert_allclose(symplectic_spectrum(0.5 * np.eye(6)), [0.5] * 3, atol=1e-14)


@pytest.mark.parametrize("m,omega,lam", [(1.0, 1.0, 2.0), (2.0, 0.7, 0.3), (0.5, 3.0, 5.0)])
def test_spectrum_of_reduced_oscillator_matches_closed_form(m, omega, lam):
    alpha = np.sqrt(1.0 + 4.0 * lam / (m * omega**2))
    gamma = np.diag([(1 + alpha) / (4 * m * alpha * omega), m * (1 + alpha) * omega / 4])
    sigma = (1 + alpha) / (4 * np.sqrt(alpha))
    np.testing.assert_allclose(symplectic_spectrum(gamma), [sigma], rtol=1e-13)


def test_spectrum_invariant_under_symplectic_congruence():
    gamma, sigmas = random_valid_covariance(3, seed=5)
    for k in range(100):
        s = random_symplectic(3, seed=1000 + k)
        moved = symplectic_spectrum(s @ gamma @ s.T)
        np.testing.assert_allclose(moved, sigmas, atol=1e-8)


def test_spectrum_rejects_asymmetric():
    bad = np.array([[1.0, 0.2], [0.0, 1.0]])
    with pytest.raises(MalformedInputError, match="asymmetric") as excinfo:
        symplectic_spectrum(bad)
    assert type(excinfo.value) is MalformedInputError


@pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 130, 200, 512])
def test_panel_asymmetry_is_the_whole_matrix_formula(size):
    # sizes on, off and below the panel height; the largest defect in either
    # triangle, in the last partial panel too
    rng = np.random.default_rng(size)
    g = rng.normal(size=(size, size))
    g = g + g.T
    for _ in range(4):
        i, j = rng.integers(0, size, 2)
        g[i, j] += rng.uniform(-1e-12, 1e-12) * 3.0
        want = float(np.max(np.abs(g - g.T)))
        assert symplectic._max_asymmetry(g) == want
        if want > symplectic.SYMMETRY_ATOL:
            with pytest.raises(MalformedInputError) as excinfo:
                symplectic._check_symmetric(g)
            assert str(excinfo.value) == (
                f"matrix is asymmetric: max |G - G^T| = {want:.3e} > 1e-12"
            )
        else:
            symplectic._check_symmetric(g)
    g[-1, 0] += 1.0
    assert symplectic._max_asymmetry(g) == float(np.max(np.abs(g - g.T)))


def test_spectrum_rejects_indefinite():
    with pytest.raises(InvalidStateError):
        symplectic_spectrum(np.diag([1.0, -1.0]))


def general_route_spectra(matrices):
    """Spectra through the complex 2n x 2n route, with the q-p block test off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symplectic, "_xp_blocks", lambda gamma: None)
        return [symplectic_spectrum(g) for g in matrices]


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("n", [2, 16, 64])
def test_block_route_matches_general_route_on_chain_reductions(n, boundary):
    gamma = ground_state_covariance(chain_model(n, 1.0, 0.1, 1.0, boundary))
    subs = [reduce(gamma, range(a, b + 1)) for a in range(1, n + 1) for b in range(a, n + 1)]
    assert all(symplectic._xp_blocks(sub) is not None for sub in subs)
    for sub, general in zip(subs, general_route_spectra(subs)):
        np.testing.assert_allclose(symplectic_spectrum(sub), general, rtol=1e-13, atol=0)


def mpmath_spectrum(gamma):
    """Symplectic eigenvalues of the rounded, block-diagonal input at 50 digits,
    as sqrt(eig(X P)), descending."""
    n = gamma.shape[0] // 2
    with mpmath.workdps(50):
        x = mpmath.matrix(gamma[:n, :n].tolist())
        p = mpmath.matrix(gamma[n:, n:].tolist())
        eigs = mpmath.eig(x * p, left=False, right=False)
        return sorted((mpmath.sqrt(mpmath.re(e)) for e in eigs), reverse=True)


@pytest.mark.parametrize("r", [1.0, 3.0, 5.0, 6.0, 6.5])
def test_squeezed_spectrum_matches_mpmath_of_rounded_input(r):
    # The squeezed vacuum (nu = 1/2) and squeezed thermal states nu * 2 Gamma_TMSV.
    # From r ~ 5 the rounded vacuum itself is slightly unphysical: at r = 6
    # its exact sigma is 1/2 - 3.4e-8, which both routes reproduce.
    for nu in (0.5, 0.7, 2.0):
        gamma = 2.0 * nu * two_mode_squeezed(r)
        want = mpmath_spectrum(gamma)
        for got in [symplectic_spectrum(gamma)] + general_route_spectra([gamma]):
            assert max(abs(float(mpmath.mpf(g) - w)) for g, w in zip(got, want)) < 1e-10


EPS = np.finfo(float).eps


def planted_general_state(n, seed, cond):
    """S diag(nu, nu) S^T with nu in [1/2, 1] and S = passive (squeezers) passive,
    the largest squeezing ln(cond)/4: cond(Gamma) in [cond, 2 cond] up to rounding."""
    rng = np.random.default_rng(seed)
    nu = np.sort(rng.uniform(0.5, 1.0, size=n))[::-1]
    r = rng.uniform(0.0, np.log(cond) / 4, size=n)
    r[0] = np.log(cond) / 4
    s = random_symplectic(n, seed, 0.0) * np.exp(np.concatenate([-r, r])) @ random_symplectic(n, seed + 1, 0.0)
    gamma = s @ np.diag(np.concatenate([nu, nu])) @ s.T
    return (gamma + gamma.T) / 2


@pytest.mark.parametrize("cond", [1e2, 1e5, 1e8, 1e11])
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_general_route_matches_mpmath_of_rounded_input(n, cond):
    # Reference: the eigenvalues +-i sigma of Gamma Omega of the rounded input
    # at 50 digits. Bound: each of the two eigensolves (Gamma's, then the
    # Hermitian form's) is backward stable, exact for a Gamma moved by at most
    # d eps ||Gamma|| with d = 2n; since sigma is monotone in Gamma, such a move
    # changes every sigma by at most d eps cond(Gamma) relative. Two steps:
    # 4 n eps cond(Gamma).
    gamma = planted_general_state(n, 10 * n + int(np.log10(cond)), cond)
    assert symplectic._xp_blocks(gamma) is None
    w = np.linalg.eigvalsh(gamma)
    assert 0.99 * cond <= w[-1] / w[0] <= 2 * cond
    with mpmath.workdps(50):
        product = mpmath.matrix(gamma.tolist()) * mpmath.matrix(symplectic_form(n).tolist())
        eigs = mpmath.eig(product, left=False, right=False)
        want = sorted((abs(mpmath.im(e)) for e in eigs), reverse=True)[::2]
        got = symplectic_spectrum(gamma)
        rel = max(float(abs(g - v) / v) for g, v in zip(got, want))
    assert rel <= 4 * n * EPS * w[-1] / w[0]


def test_off_diagonal_entry_takes_general_route(linalg_calls):
    gamma = ground_state_covariance(chain_model(4, 1.0, 1.0, 0.7, "open"))
    assert symplectic._xp_blocks(gamma) is not None
    gamma[0, 5] = 1e-13  # within SYMMETRY_ATOL, so still a valid input
    assert symplectic._xp_blocks(gamma) is None
    del linalg_calls[:]
    symplectic_spectrum(gamma)
    assert linalg_calls == [("eigh", "f"), ("eigvalsh", "c")]


def test_block_route_keeps_the_joint_condition_limit():
    # X = [e^14/2] and P = [e^-14/2] are each perfectly conditioned, but
    # together they span the condition number of r = 7 squeezing
    gamma = np.diag([np.exp(14.0), np.exp(-14.0)]) / 2
    with pytest.raises(InvalidStateError, match=r"eigenvalues in \[4\.158e-07, 6\.013e\+05\]"):
        symplectic_spectrum(gamma)
    np.testing.assert_allclose(symplectic_spectrum(np.diag([1e5, 1e-5])), [1.0], rtol=1e-14)


def make_asymmetric(g):
    g[0, 1] += 1e-9


def make_ill_conditioned(g):
    # squeezing r = 7 on mode 1: condition number e^28 ~ 1.4e12; a matrix of
    # the general route keeps a q-p entry, so it stays on that route
    general = symplectic._xp_blocks(g) is None
    n = g.shape[0] // 2
    g[:] = 0.5 * np.eye(2 * n)
    g[0, 0], g[n, n] = np.exp(14.0) / 2, np.exp(-14.0) / 2
    if general:
        g[0, n + 1] = g[n + 1, 0] = 1e-3


def make_non_finite(g):
    g[-1, -1] = np.nan


@pytest.mark.parametrize(
    "spoil,error,message",
    [
        (make_asymmetric, MalformedInputError, "matrix is asymmetric: max |G - G^T| = 1.000e-09 > 1e-12"),
        (
            make_ill_conditioned,
            InvalidStateError,
            "matrix is not positive definite or is too ill-conditioned: eigenvalues in "
            "[4.158e-07, 6.013e+05], the smallest must exceed SINGULAR_RTOL = 1e-12 times the largest",
        ),
        (make_non_finite, MalformedInputError, "matrix has a NaN or infinite entry"),
    ],
    ids=["asymmetric", "ill-conditioned", "non-finite"],
)
@pytest.mark.parametrize("route", ["block", "general"])
def test_spectrum_names_what_a_spoiled_matrix_fails(spoil, error, message, route):
    # both routes raise the same error with the same message
    if route == "block":
        gamma = reduce(ground_state_covariance(chain_model(10, 1.0, 1.0, 0.1, "open")), range(1, 5))
    else:
        gamma = planted_general_state(4, 0, 1e2)
    spoil(gamma)
    assert (symplectic._xp_blocks(gamma) is None) == (route == "general")
    with pytest.raises(error) as excinfo:
        symplectic_spectrum(gamma)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


def test_spectrum_refuses_a_stack():
    # one matrix per call: the stacked route is _gram_spectrum's alone
    with pytest.raises(DimensionError, match=r"expected a square matrix, got shape \(3, 4, 4\)"):
        symplectic_spectrum(np.stack([np.eye(4) / 2] * 3))


def chain_gram_pairs(n, boundary, cut):
    """The stacked Gram pairs of the first ``cut`` modes of n-mode chains
    along 12 lambdas."""
    pairs = [
        _model_grams(chain_model(n, 1.0, 1.0, lam, boundary), range(1, cut + 1))
        for lam in np.linspace(0.1, 2.0, 12)
    ]
    return np.stack([x for x, _ in pairs]), np.stack([p for _, p in pairs])


@pytest.mark.parametrize("n,boundary,cut", [(6, "open", 3), (64, "periodic", 32), (200, "open", 77)])
def test_stacked_gram_spectrum_is_each_pair_bit_for_bit(n, boundary, cut):
    xs, ps = chain_gram_pairs(n, boundary, cut)
    stacked = symplectic._gram_spectrum(xs, ps)
    assert stacked.shape == (12, cut)
    for got, x, p in zip(stacked, xs, ps):
        np.testing.assert_array_equal(got, symplectic._gram_spectrum(x, p), strict=True)
        # descending, and within rounding of the eigenfactor route of its Gamma
        assert np.all(np.diff(got) <= 0.0)
        gamma = np.zeros((2 * cut, 2 * cut))
        gamma[:cut, :cut], gamma[cut:, cut:] = x / 2.0, p / 2.0
        np.testing.assert_allclose(got, symplectic_spectrum(gamma), rtol=0, atol=1e-13 * got[0])


def make_indefinite(g):
    g[0, 0] = -1.0


@pytest.mark.parametrize(
    "spoil,error,message",
    [
        (make_asymmetric, MalformedInputError, "matrix is asymmetric: max |G - G^T| = 1.000e-09 > 1e-12"),
        (make_non_finite, MalformedInputError, "matrix has a NaN or infinite entry"),
        (make_indefinite, NumericalFailureError, "model reduction is not positive definite"),
    ],
    ids=["asymmetric", "non-finite", "indefinite"],
)
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("bad", [0, 3, 4])
def test_gram_stack_fails_as_its_failing_pair(spoil, error, message, side, bad):
    # a failed Cholesky is the package's NumericalFailureError, never numpy's
    # LinAlgError, and a stack raises exactly what its spoiled pair raises alone
    grams = [stack[:5].copy() for stack in chain_gram_pairs(10, "open", 4)]
    alone = grams[side][bad].copy()
    spoil(alone)
    grams[side][bad] = alone
    pair = [grams[0][bad], grams[1][bad]]
    with pytest.raises(error) as stacked:
        symplectic._gram_spectrum(*grams)
    with pytest.raises(error) as single:
        symplectic._gram_spectrum(*pair)
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == str(single.value)
    assert message in str(single.value)
    assert not isinstance(single.value, np.linalg.LinAlgError)


def test_gamma_omega_eigenvalues_are_imaginary_pairs():
    gamma, sigmas = random_valid_covariance(4, seed=11)
    eigs = np.linalg.eigvals(gamma @ symplectic_form(4))
    assert np.max(np.abs(eigs.real)) < 1e-10
    found = np.sort(np.abs(eigs.imag))[::-1]
    np.testing.assert_allclose(found[::2], sigmas, atol=1e-10)


def test_williamson_vacuum():
    dec = williamson(0.5 * np.eye(4))
    np.testing.assert_allclose(dec.spectrum, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(dec.normal_form, 0.5 * np.eye(4), atol=1e-12)
    assert is_symplectic(dec.transform, tol=1e-10)


def test_williamson_single_mode_closed_form():
    # diagonal Gamma = diag(a, b): mode i has sigma_i = sqrt(a_i b_i), and its
    # rows of the transform are (b_i/a_i)^(1/4) e_i and (a_i/b_i)^(1/4) e_{n+i},
    # taken in descending-sigma order
    for a, b in (([0.7], [2.3]), ([0.7, 3.0, 0.5, 1.1], [2.3, 0.4, 0.6, 1.9])):
        a, b = np.array(a), np.array(b)
        n = len(a)
        dec = williamson(np.diag(np.concatenate([a, b])))
        order = np.argsort(-np.sqrt(a * b))
        np.testing.assert_allclose(dec.spectrum, np.sqrt(a * b)[order], rtol=1e-14)
        expected = np.zeros((2 * n, 2 * n))
        expected[np.arange(n), order] = (b / a)[order] ** 0.25
        expected[n + np.arange(n), n + order] = (a / b)[order] ** 0.25
        np.testing.assert_allclose(dec.transform, expected, atol=1e-12)


def test_fix_phases_leads_each_column_with_a_positive_real():
    rng = np.random.default_rng(5)
    real = rng.normal(size=(5, 4))
    real[0, 1] = 1e-14  # below 1e-12 of the column's largest, so not its lead
    fixed = symplectic._fix_phases(real)
    signs = fixed / real
    assert set(np.unique(signs)) <= {-1.0, 1.0}
    np.testing.assert_array_equal(fixed, real * signs[0])
    assert np.all(fixed[[0, 1, 0, 0], [0, 1, 2, 3]] > 0.0)
    column = (rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1))) * np.exp(0.7j)
    column[0, 0] = 0.0
    lead = symplectic._fix_phases(column)[1, 0]
    assert abs(lead.imag) <= 1e-15 and lead.real > 0.0
    np.testing.assert_allclose(np.abs(symplectic._fix_phases(column)), np.abs(column), rtol=1e-15)


def test_williamson_random_states_residuals():
    for seed in range(8):
        gamma, sigmas = random_valid_covariance(4, seed=100 + seed)
        omega = symplectic_form(4)
        dec = williamson(gamma)
        np.testing.assert_allclose(dec.spectrum, sigmas, atol=1e-9)
        res_g = np.max(np.abs(dec.transform @ gamma @ dec.transform.T - dec.normal_form))
        res_o = np.max(np.abs(dec.transform @ omega @ dec.transform.T - omega))
        assert res_g < 1e-8
        assert res_o < 1e-8


def test_williamson_handles_degenerate_spectra():
    s = random_symplectic(3, seed=55, scale=0.7)
    gamma = s @ np.diag([0.9] * 6) @ s.T
    omega = symplectic_form(3)
    dec = williamson(gamma)
    np.testing.assert_allclose(dec.spectrum, [0.9] * 3, atol=1e-12)
    assert np.max(np.abs(dec.transform @ gamma @ dec.transform.T - dec.normal_form)) < 1e-10
    assert np.max(np.abs(dec.transform @ omega @ dec.transform.T - omega)) < 1e-10


def test_williamson_deterministic_for_identical_input():
    gamma, _ = random_valid_covariance(3, seed=33)
    first = williamson(gamma)
    second = williamson(gamma)
    np.testing.assert_array_equal(first.transform, second.transform)
    np.testing.assert_array_equal(first.spectrum, second.spectrum)


def test_williamson_spectrum_idempotent_on_normal_form():
    gamma, _ = random_valid_covariance(3, seed=21)
    dec = williamson(gamma)
    np.testing.assert_allclose(symplectic_spectrum(dec.normal_form), dec.spectrum, atol=1e-12)


SQUEEZE_GRID = np.arange(0, 690) / 100  # r = 0, 0.01, ..., 6.89: cond(Gamma) = e^(4r) < 1e12


@pytest.mark.parametrize("nu", [0.5, 0.7, 2.0])
def test_williamson_envelope_on_squeezed_thermal_states(nu):
    # nu times the vacuum, two-mode squeezed by r: symplectic spectrum (nu, nu),
    # condition number e^(4r). Every state validate accepts has a Williamson
    # form, with the spectrum within 8 eps e^(4r) relative of nu: rounding the
    # entries to doubles alone moves the exact spectrum by ~eps e^(4r)
    # (measured at most 2.9 eps e^(4r)).
    accepted = 0
    for r in SQUEEZE_GRID:
        gamma = 2.0 * nu * two_mode_squeezed(r)
        if not validate(gamma).valid:
            continue
        accepted += 1
        dec = williamson(gamma)
        np.testing.assert_allclose(dec.spectrum, [nu, nu], rtol=8 * EPS * np.exp(4 * r), err_msg=f"r = {r}")
    assert accepted >= (600 if nu == 0.5 else len(SQUEEZE_GRID))


def test_williamson_beyond_its_envelope_fails_loudly_or_is_right():
    # the rounded pure states that validate refuses (from r ~ 5) still have a
    # Williamson form within the input's rounding; beyond cond 1e12 williamson
    # refuses the state as every check does
    refused = 0
    for r in SQUEEZE_GRID:
        gamma = two_mode_squeezed(r)
        if validate(gamma).valid:
            continue
        refused += 1
        dec = williamson(gamma)
        np.testing.assert_allclose(dec.spectrum, [0.5, 0.5], rtol=8 * EPS * np.exp(4 * r), err_msg=f"r = {r}")
    assert refused > 0
    with pytest.raises(InvalidStateError, match="SINGULAR_RTOL"):
        williamson(2.0 * two_mode_squeezed(6.95))


@pytest.mark.parametrize("r", [0.0, 2.0, 5.0, 6.8])
def test_williamson_refuses_a_transform_ten_rounding_bounds_off(monkeypatch, r):
    # scale one mode's (q, p) rows of the transform by 1 + d: the symplectic
    # residual is ~2d, here ten times its bound RESIDUAL_FACTOR 2n eps
    # sigma_max / w_min
    nu = 2.0
    gamma = 2.0 * nu * two_mode_squeezed(r)
    w = np.linalg.eigvalsh(gamma)
    bound = symplectic.RESIDUAL_FACTOR * 4 * EPS * nu / w[0]
    real = symplectic._fix_phases
    scale = np.array([1.0 + 5.0 * bound, 1.0])
    monkeypatch.setattr(symplectic, "_fix_phases", lambda vecs: real(vecs) * scale)
    with pytest.raises(NumericalFailureError, match=r"residuals \S+ \(congruence\), \S+ \(symplectic\)"):
        williamson(gamma)
    scale[0] = 1.0 + 0.05 * bound
    williamson(gamma)


def test_williamson_rejects_indefinite():
    with pytest.raises(InvalidStateError):
        williamson(np.diag([1.0, 1.0, -0.5, 1.0]))


def test_random_symplectic_membership():
    for n in (1, 2, 4):
        for seed in (0, 7, 123):
            assert is_symplectic(random_symplectic(n, seed), tol=1e-10)


def test_random_symplectic_deterministic_for_seed():
    first = random_symplectic(2, seed=7)
    second = random_symplectic(2, seed=7)
    np.testing.assert_array_equal(first, second)
    assert not np.array_equal(first, random_symplectic(2, seed=8))


@pytest.mark.parametrize("scale", [0.4, 2.0])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_random_symplectic_singular_values_are_bounded_by_scale(n, scale):
    # Bloch-Messiah: orthogonal passive factors around squeezers e^(+-r_k),
    # |r_k| <= scale, so the singular values lie in [e^-scale, e^scale]
    # up to rounding
    for seed in range(5):
        s = random_symplectic(n, seed, scale)
        assert is_symplectic(s, tol=1e-10 * np.exp(2 * scale))
        sv = np.linalg.svd(s, compute_uv=False)
        assert sv.max() <= np.exp(scale) * (1 + 1e-13)
        assert sv.min() >= np.exp(-scale) * (1 - 1e-13)


def test_random_symplectic_unit_determinant():
    for seed in range(10):
        s = random_symplectic(3, seed=seed)
        assert abs(np.linalg.det(s) - 1.0) < 1e-10
