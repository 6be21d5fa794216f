"""Forward forecast recursion, the oracle's Gaussian product split, cold start."""

import math

import numpy as np
import pytest

from helpers import random_model, trained_state_like

from aplf.forecaster import (
    ColdStart,
    DegenerateVariances,
    InstanceVector,
    forecast_step,
    predict,
)
from aplf.model_types import GaussianChannelParams, HyperParams, LearnerState, ModelParams
from aplf.oracles import _lemma_split, exact_filter_oracle
from aplf.recursive_learner import OnlineLearner


def normal_pdf(x, mean, std):
    return math.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2.0 * math.pi))


def test_product_split_equal_variance_fusion():
    post_mean, post_std, marg_mean, marg_std = _lemma_split(0.0, 1.0, 1.0, 1.0, 2.0)
    assert post_mean == 1.0
    assert math.isclose(post_std, math.sqrt(0.5), rel_tol=1e-15)
    assert marg_mean == 0.0
    assert math.isclose(marg_std, math.sqrt(2.0), rel_tol=1e-15)


def test_product_split_delta_prior_is_unmoved():
    post_mean, post_std, marg_mean, marg_std = _lemma_split(3.0, 0.0, 2.0, 1.5, 10.0)
    assert post_mean == 3.0
    assert post_std == 0.0
    assert marg_mean == 6.0
    assert marg_std == 1.5


def test_product_split_preserves_the_density_product_pointwise():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = float(rng.normal())
        b = float(rng.uniform(0.2, 2.0))
        alpha = float(rng.uniform(-2.0, 2.0))
        beta = float(rng.uniform(0.2, 2.0))
        y = float(rng.normal(scale=2.0))
        post_mean, post_std, marg_mean, marg_std = _lemma_split(a, b, alpha, beta, y)
        for x in rng.normal(scale=2.0, size=20):
            lhs = normal_pdf(x, a, b) * normal_pdf(y, alpha * x, beta)
            rhs = normal_pdf(x, post_mean, post_std) * normal_pdf(y, marg_mean, marg_std)
            assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs, 1e-300)


def test_forecast_step_symmetric_fusion():
    s_params = GaussianChannelParams(eta=np.array([2.0, 0.0]), sigma=1.0)
    r_params = GaussianChannelParams(eta=np.array([4.0, 0.0, 0.0]), sigma=1.0)
    mean, std = forecast_step(7.0, 0.0, s_params, r_params, np.array([1.0, 0.0, 0.0]))
    assert mean == 3.0
    assert math.isclose(std, math.sqrt(0.5), rel_tol=1e-15)


def test_forecast_step_uninformative_observation_channel():
    s_params = GaussianChannelParams(eta=np.array([0.5, 0.8]), sigma=0.7)
    r_params = GaussianChannelParams(eta=np.array([100.0, 0.0, 0.0]), sigma=1e12)
    mean, std = forecast_step(2.0, 0.4, s_params, r_params, np.array([1.0, 0.0, 0.0]))
    trans_mean = 0.5 + 0.8 * 2.0
    prop_std = math.sqrt(0.7**2 + (0.8 * 0.4) ** 2)
    assert math.isclose(mean, trans_mean, rel_tol=1e-9)
    assert math.isclose(std, prop_std, rel_tol=1e-9)


def test_forecast_step_degenerate_variances():
    s_params = GaussianChannelParams(eta=np.array([1.0, 0.5]), sigma=0.0)
    r_params = GaussianChannelParams(eta=np.array([1.0, 0.0, 0.0]), sigma=0.0)
    with pytest.raises(DegenerateVariances):
        forecast_step(1.0, 0.0, s_params, r_params, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("u_r", [(1.0, 5.0), (1.0, 0.0, 0.0, 7.0)], ids=["short", "long"])
def test_an_observation_regressor_of_other_than_three_entries_is_rejected(u_r):
    model = random_model(np.random.default_rng(9))
    with pytest.raises(ValueError):
        forecast_step(1.0, 0.0, model.s_channels[0], model.r_channels[0], u_r)
    with pytest.raises(ValueError):
        predict(model, InstanceVector(anchor_load=1.0, observations=(u_r,), types=(1,), t=0))


def test_forecast_variance_is_bounded_by_observation_sigma():
    rng = np.random.default_rng(8)
    for _ in range(50):
        model = random_model(rng)
        sigma_r = model.r_channels[0].sigma
        mean, std = float(rng.normal()), 0.0
        for _ in range(12):
            mean, std = forecast_step(mean, std, model.s_channels[0], model.r_channels[0], rng.normal(size=3))
            assert std <= sigma_r + 1e-12


def test_predict_single_step_path():
    model = ModelParams.initial()
    model.s_channels[0] = GaussianChannelParams(eta=np.array([2.0, 0.0]), sigma=1.0)
    model.r_channels[0] = GaussianChannelParams(eta=np.array([4.0, 0.0, 0.0]), sigma=1.0)
    instance = InstanceVector(anchor_load=7.0, observations=(np.array([1.0, 0.0, 0.0]),), types=(1,), t=5)
    path = predict(model, instance)
    assert path.mean == [3.0]
    assert len(path.std) == 1
    assert math.isclose(path.std[0], math.sqrt(0.5), rel_tol=1e-15)
    assert path.cold_start_substitutions == ()


def test_predict_matches_filter_oracle_on_multi_type_paths():
    rng = np.random.default_rng(13)
    for _ in range(25):
        model = random_model(rng)
        anchor = float(rng.normal())
        u_vectors = [rng.normal(size=3) for _ in range(24)]
        types = [(i % 6) + 1 for i in range(1, 25)]
        instance = InstanceVector(anchor_load=anchor, observations=tuple(u_vectors), types=types, t=0)
        path = predict(model, instance)
        steps = [(model.s_channels[c - 1], model.r_channels[c - 1], u) for c, u in zip(types, u_vectors)]
        expected = exact_filter_oracle(anchor, steps)
        assert len(path.mean) == len(path.std) == len(expected)
        for mean, std, (m, s) in zip(path.mean, path.std, expected):
            assert abs(mean - m) <= 1e-9 * max(1.0, abs(m))
            assert abs(std - s) <= 1e-9 * max(1.0, s)


def test_converged_noiseless_identity_pattern_reproduces_the_constant():
    # The third regressor is always 0, and with no trace reset it stays
    # decoupled from the other two.
    hp = HyperParams(horizon=1, lambda_s=0.5, lambda_r=0.5, trace_reset_threshold=math.inf)
    learner = OnlineLearner(hp)
    value = 3.25
    for t in range(60):
        instance = InstanceVector(anchor_load=value, observations=((1.0, value, 0.0),), types=(1,), t=t)
        learner.learn_step(instance, [value])
    instance = InstanceVector(anchor_load=value, observations=((1.0, value, 0.0),), types=(1,), t=100)
    path = predict(learner.model, instance, state=learner.state)
    assert math.isclose(path.mean[0], value, rel_tol=1e-9)
    assert path.std[0] < 1e-6


def test_predict_requires_anchor_and_observation_slots():
    model = random_model(np.random.default_rng(0))
    with pytest.raises(ValueError):
        predict(model, InstanceVector(anchor_load=None, observations=(None,), types=(1,), t=0))
    with pytest.raises(ValueError):
        predict(model, InstanceVector(anchor_load=1.0, observations=(), types=(), t=0))


def test_cold_start_borrows_same_hour_other_day_class_first():
    rng = np.random.default_rng(21)
    model = random_model(rng)
    state = LearnerState.initial()
    # Only the weekend twin of hour 13 (type 38) and one unrelated type are trained.
    state.s_states[38 - 1].gamma = 5.0
    state.s_states[2].gamma = 5.0
    instance = InstanceVector(anchor_load=1.0, observations=(np.array([1.0, 0.0, 0.0]),), types=(14,), t=0)
    path = predict(model, instance, state=state)
    assert path.cold_start_substitutions == ((14, 38),)


def test_cold_start_without_any_trained_type_raises():
    rng = np.random.default_rng(22)
    model = random_model(rng)
    state = LearnerState.initial()
    instance = InstanceVector(anchor_load=1.0, observations=(np.array([1.0, 0.0, 0.0]),), types=(2,), t=0)
    with pytest.raises(ColdStart):
        predict(model, instance, state=state)


def test_trained_types_are_used_directly():
    rng = np.random.default_rng(23)
    model = random_model(rng)
    state = trained_state_like(model)
    instance = InstanceVector(anchor_load=1.0, observations=(None, None), types=(2, 3), t=0)
    path = predict(model, instance, state=state)
    assert path.cold_start_substitutions == ()
    assert len(path.mean) == len(path.std) == 2



def test_a_missing_observation_takes_the_neutral_regressor():
    model = random_model(np.random.default_rng(24))
    neutral = (1.0, 0.0, 0.0)
    types = (2, 1, 2)
    missing = predict(model, InstanceVector(anchor_load=1.0, observations=(None, None, None), types=types, t=0))
    given = predict(model, InstanceVector(anchor_load=1.0, observations=(neutral,) * 3, types=types, t=0))
    assert (missing.mean, missing.std) == (given.mean, given.std)
