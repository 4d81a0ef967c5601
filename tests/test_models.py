import math

import numpy as np
import pytest

from sympent import (
    MalformedInputError,
    ModelParams,
    ParameterError,
    QuadraticModel,
    TwoOscillatorParams,
    chain_model,
    entanglement_entropy,
    ground_state_covariance,
    is_symplectic,
    ModePartition,
    normal_mode_transform,
    reduce,
    symplectic_spectrum,
    two_oscillator_model,
    validate,
)


def test_uncoupled_potential_is_diagonal():
    model = two_oscillator_model(1.5, 2.0, 0.0)
    np.testing.assert_array_equal(model.potential, 4.0 * np.eye(2))


def test_reference_potential_and_normal_modes():
    model = two_oscillator_model(1.0, 1.0, 2.0)
    np.testing.assert_array_equal(model.potential, [[5.0, -4.0], [-4.0, 5.0]])
    w, vecs = np.linalg.eigh(model.potential)
    np.testing.assert_allclose(w, [1.0, 9.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(vecs[:, 0]), [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)
    np.testing.assert_allclose(np.abs(vecs[:, 1]), [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)
    assert np.sign(vecs[0, 1]) != np.sign(vecs[1, 1])
    np.testing.assert_allclose(model.frequencies, [1.0, 3.0], atol=1e-12)
    np.testing.assert_array_equal(model.eigenvectors, vecs)


def test_alpha_and_reduced_sigma():
    params = TwoOscillatorParams(m=1.0, omega=1.0, lam=2.0)
    assert abs(params.alpha - 3.0) < 1e-14
    assert abs(params.reduced_sigma() - 1.0 / np.sqrt(3.0)) < 1e-14
    assert TwoOscillatorParams(1.0, 1.0, 0.0).alpha == 1.0


@pytest.mark.parametrize(
    "m,omega,lam",
    [
        (0.0, 1.0, 1.0),
        (-1.0, 1.0, 0.0),
        (1.0, 0.0, 0.0),
        (1.0, 1.0, -0.1),
        (math.nan, 1.0, 0.5),
        (1.0, math.nan, 0.5),
        (1.0, 1.0, math.nan),
        (math.inf, 1.0, 0.5),
        (1.0, math.inf, 0.5),
        (1.0, 1.0, math.inf),
    ],
)
def test_two_oscillator_rejects_bad_parameters(m, omega, lam):
    # one range check serves the parameter record and both model builders
    with pytest.raises(ParameterError):
        TwoOscillatorParams(m, omega, lam)
    with pytest.raises(ParameterError):
        two_oscillator_model(m, omega, lam)
    with pytest.raises(ParameterError):
        chain_model(3, m, omega, lam)


def test_chain_of_two_matches_two_oscillator():
    chain = chain_model(2, 1.3, 0.9, 0.7, "open")
    pair = two_oscillator_model(1.3, 0.9, 0.7)
    np.testing.assert_array_equal(chain.potential, pair.potential)
    np.testing.assert_array_equal(
        ground_state_covariance(chain), ground_state_covariance(pair)
    )


def test_periodic_chain_zero_coupling():
    model = chain_model(4, 1.0, 2.0, 0.0, "periodic")
    np.testing.assert_array_equal(model.potential, 4.0 * np.eye(4))


def test_open_chain_three_sites_hand_expanded():
    model = chain_model(3, 1.0, 1.0, 1.0, "open")
    np.testing.assert_array_equal(
        model.potential, [[3.0, -2.0, 0.0], [-2.0, 5.0, -2.0], [0.0, -2.0, 3.0]]
    )


def test_chain_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        chain_model(1, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        chain_model(3, 1.0, 1.0, 1.0, boundary="twisted")


def test_single_oscillator_ground_state():
    m, omega = 2.0, 3.0
    model = QuadraticModel(n=1, mass=m, potential=np.array([[omega**2]]))
    gamma = ground_state_covariance(model)
    np.testing.assert_allclose(gamma, np.diag([1 / (2 * m * omega), m * omega / 2]), rtol=1e-14)
    np.testing.assert_allclose(symplectic_spectrum(gamma), [0.5], atol=1e-14)


def test_reference_ground_state_covariance():
    # alpha = 3: qq block has 1/3 on the diagonal and magnitude 1/6 off it,
    # pp block 1 and 1/2; the coupling makes positions correlate positively
    # and momenta negatively
    gamma = ground_state_covariance(two_oscillator_model(1.0, 1.0, 2.0))
    np.testing.assert_allclose(
        gamma[:2, :2], [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-14
    )
    np.testing.assert_allclose(
        gamma[2:, 2:], [[1.0, -0.5], [-0.5, 1.0]], atol=1e-14
    )
    np.testing.assert_array_equal(gamma[:2, 2:], np.zeros((2, 2)))
    np.testing.assert_allclose(reduce(gamma, [1]), np.diag([1 / 3, 1.0]), atol=1e-14)
    np.testing.assert_allclose(
        symplectic_spectrum(reduce(gamma, [1])), [1 / np.sqrt(3)], atol=1e-14
    )


def test_ground_states_are_valid_and_pure():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        lam = float(rng.uniform(0.0, 4.0))
        boundary = "open" if trial % 2 else "periodic"
        gamma = ground_state_covariance(chain_model(n, 1.0, 1.0, lam, boundary))
        report = validate(gamma)
        assert report.valid
        assert report.pure


def test_zero_mode_has_no_ground_state():
    # a free particle direction (zero potential eigenvalue) must be rejected,
    # and so must an asymmetric or non-finite potential
    for potential in ([[1.0, -1.0], [-1.0, 1.0]], [[2.0, 0.5], [0.0, 2.0]], [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(ParameterError):
            QuadraticModel(n=2, mass=1.0, potential=np.array(potential))


def test_potential_is_decomposed_once_per_model(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):

        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    model = chain_model(6, 1.0, 1.0, 0.7, "periodic")
    ground_state_covariance(model)
    normal_mode_transform(model)
    assert calls == ["eigh"]


def test_normal_mode_transform_two_oscillator():
    model = two_oscillator_model(1.0, 1.0, 2.0)
    s = normal_mode_transform(model)
    o = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(s[:2, :2], o, atol=1e-12)
    np.testing.assert_allclose(s[2:, 2:], o, atol=1e-12)
    assert is_symplectic(s, tol=1e-12)


def test_normal_mode_transform_decouples_random_chains():
    rng = np.random.default_rng(31)
    for trial in range(8):
        n = int(rng.integers(2, 9))
        model = chain_model(n, 1.0, 1.0, float(rng.uniform(0.0, 3.0)), "open")
        gamma = ground_state_covariance(model)
        s = normal_mode_transform(model)
        moved = s @ gamma @ s.T
        off = moved - np.diag(np.diag(moved))
        assert np.max(np.abs(off)) < 1e-10


def test_scaling_leaves_reduced_spectra_invariant():
    c = 2.7
    base = chain_model(5, 1.1, 0.8, 0.9, "open")
    scaled = chain_model(5, 1.1, c * 0.8, c**2 * 0.9, "open")
    g0 = ground_state_covariance(base)
    g1 = ground_state_covariance(scaled)
    np.testing.assert_allclose(g1[:5, :5], g0[:5, :5] / c, rtol=1e-12)
    np.testing.assert_allclose(g1[5:, 5:], g0[5:, 5:] * c, rtol=1e-12)
    for keep in ([1], [2, 3], [1, 4, 5]):
        np.testing.assert_allclose(
            symplectic_spectrum(reduce(g1, keep)),
            symplectic_spectrum(reduce(g0, keep)),
            atol=1e-10,
        )


def test_chain_bipartition_entropies_balance():
    gamma = ground_state_covariance(chain_model(6, 1.0, 1.0, 2.0, "periodic"))
    part = ModePartition.from_string("1,2,3|4,5,6")
    swapped = ModePartition.from_sides(part.set_b, part.set_a)
    total_a = entanglement_entropy(gamma, part).total_bits
    total_b = entanglement_entropy(gamma, swapped).total_bits
    assert abs(total_a - total_b) < 1e-8


# --- model files -------------------------------------------------------------


def test_model_params_round_trip():
    params = ModelParams(type="chain", m=1.0, omega=2.0, lam=0.5, n=6, boundary="periodic")
    again = ModelParams.from_json_dict(params.to_json_dict())
    assert again == params


def test_model_params_builds_models():
    two = ModelParams(type="two_oscillator", m=1.0, omega=1.0, lam=2.0)
    np.testing.assert_array_equal(two.build().potential, [[5.0, -4.0], [-4.0, 5.0]])
    chain = ModelParams(type="chain", m=1.0, omega=1.0, lam=1.0, n=3)
    assert chain.build().n == 3


def test_model_params_with_param():
    params = ModelParams(type="two_oscillator", m=1.0, omega=1.0, lam=0.0)
    assert params.with_param("lambda", 2.0).lam == 2.0
    assert params.with_param("omega", 3.0).omega == 3.0
    assert params.with_param("m", 0.5).m == 0.5
    with pytest.raises(ParameterError):
        params.with_param("boundary", 1.0)


def test_model_params_rejects_bad_records():
    with pytest.raises(ParameterError):
        ModelParams(type="ring", m=1.0, omega=1.0, lam=0.0)
    with pytest.raises(ParameterError):
        ModelParams(type="two_oscillator", m=1.0, omega=1.0, lam=0.0, n=3)
    with pytest.raises(MalformedInputError):
        ModelParams.from_json_dict({"type": "chain", "m": 1.0})
    with pytest.raises(MalformedInputError):
        ModelParams.from_json_dict({"m": 1.0, "omega": 1.0, "lambda": 0.0})


def test_model_params_rejects_boolean_mode_count():
    with pytest.raises(MalformedInputError):
        ModelParams.from_json_dict(
            {"type": "chain", "n": True, "m": 1.0, "omega": 1.0, "lambda": 0.5}
        )
