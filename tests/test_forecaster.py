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
from aplf.model_types import ForecastPoint, GaussianChannelParams, HyperParams, LearnerState, ModelParams
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
    r_params = GaussianChannelParams(eta=np.array([4.0]), sigma=1.0)
    pt = forecast_step(ForecastPoint(mean=7.0, std=0.0, t=0), s_params, r_params, np.array([1.0]))
    assert pt.mean == 3.0
    assert math.isclose(pt.std, math.sqrt(0.5), rel_tol=1e-15)
    assert pt.t == 1


def test_forecast_step_uninformative_observation_channel():
    s_params = GaussianChannelParams(eta=np.array([0.5, 0.8]), sigma=0.7)
    r_params = GaussianChannelParams(eta=np.array([100.0]), sigma=1e12)
    prev = ForecastPoint(mean=2.0, std=0.4, t=3)
    pt = forecast_step(prev, s_params, r_params, np.array([1.0]))
    trans_mean = 0.5 + 0.8 * 2.0
    prop_std = math.sqrt(0.7**2 + (0.8 * 0.4) ** 2)
    assert math.isclose(pt.mean, trans_mean, rel_tol=1e-9)
    assert math.isclose(pt.std, prop_std, rel_tol=1e-9)


def test_forecast_step_degenerate_variances():
    s_params = GaussianChannelParams(eta=np.array([1.0, 0.5]), sigma=0.0)
    r_params = GaussianChannelParams(eta=np.array([1.0]), sigma=0.0)
    with pytest.raises(DegenerateVariances):
        forecast_step(ForecastPoint(mean=1.0, std=0.0, t=0), s_params, r_params, np.array([1.0]))


def test_forecast_variance_is_bounded_by_observation_sigma():
    rng = np.random.default_rng(8)
    for _ in range(50):
        model = random_model(rng, 1)
        sigma_r = model.r_channels[0].sigma
        prev = ForecastPoint(mean=float(rng.normal()), std=0.0, t=0)
        for _ in range(12):
            prev = forecast_step(prev, model.s_channels[0], model.r_channels[0], rng.normal(size=3))
            assert prev.std <= sigma_r + 1e-12


def test_predict_single_step_path():
    model = ModelParams(
        s_channels=[GaussianChannelParams(eta=np.array([2.0, 0.0]), sigma=1.0)],
        r_channels=[GaussianChannelParams(eta=np.array([4.0, 0.0, 0.0]), sigma=1.0)],
    )
    instance = InstanceVector(anchor_load=7.0, observations=(np.array([1.0, 0.0, 0.0]),), t=5)
    path = predict(model, instance, lambda t: 1)
    assert len(path.points) == 1
    assert path.points[0].mean == 3.0
    assert math.isclose(path.points[0].std, math.sqrt(0.5), rel_tol=1e-15)
    assert path.points[0].t == 6
    assert path.cold_start_substitutions == ()


def test_predict_matches_filter_oracle_on_multi_type_paths():
    rng = np.random.default_rng(13)
    for _ in range(25):
        model = random_model(rng, 6)
        anchor = float(rng.normal())
        u_vectors = [rng.normal(size=3) for _ in range(24)]
        instance = InstanceVector(anchor_load=anchor, observations=tuple(u_vectors), t=0)
        cal = lambda t: (t % 6) + 1
        path = predict(model, instance, cal)
        steps = [
            (model.s_channels[cal(i) - 1], model.r_channels[cal(i) - 1], u)
            for i, u in enumerate(u_vectors, start=1)
        ]
        expected = exact_filter_oracle(anchor, steps)
        for pt, (m, s) in zip(path.points, expected):
            assert abs(pt.mean - m) <= 1e-9 * max(1.0, abs(m))
            assert abs(pt.std - s) <= 1e-9 * max(1.0, s)


def test_converged_noiseless_identity_pattern_reproduces_the_constant():
    hp = HyperParams(n_calendar_types=1, horizon=1, lambda_s=0.5, lambda_r=0.5)
    learner = OnlineLearner(hp, 2)
    value = 3.25
    for t in range(60):
        instance = InstanceVector(anchor_load=value, observations=((1.0, value),), t=t)
        learner.learn_step(instance, [value])
    instance = InstanceVector(anchor_load=value, observations=((1.0, value),), t=100)
    path = predict(learner.model, instance, lambda t: 1, state=learner.state)
    assert math.isclose(path.points[0].mean, value, rel_tol=1e-9)
    assert path.points[0].std < 1e-6


def test_predict_requires_anchor_and_observation_slots():
    model = random_model(np.random.default_rng(0), 1)
    with pytest.raises(ValueError):
        predict(model, InstanceVector(anchor_load=None, observations=(None,), t=0),
                lambda t: 1)
    with pytest.raises(ValueError):
        predict(model, InstanceVector(anchor_load=1.0, observations=(), t=0),
                lambda t: 1)


def test_cold_start_borrows_same_hour_other_day_class_first():
    rng = np.random.default_rng(21)
    model = random_model(rng, 48)
    state = LearnerState.initial(48, 3)
    # Only the weekend twin of hour 13 (type 38) and one unrelated type are trained.
    state.s_states[38 - 1].gamma = 5.0
    state.s_states[2].gamma = 5.0
    instance = InstanceVector(anchor_load=1.0, observations=(np.array([1.0, 0.0, 0.0]),), t=0)
    path = predict(model, instance, lambda t: 14, state=state)
    assert path.cold_start_substitutions == ((14, 38),)


def test_cold_start_without_any_trained_type_raises():
    rng = np.random.default_rng(22)
    model = random_model(rng, 4)
    state = LearnerState.initial(4, 3)
    instance = InstanceVector(anchor_load=1.0, observations=(np.array([1.0, 0.0, 0.0]),), t=0)
    with pytest.raises(ColdStart):
        predict(model, instance, lambda t: 2, state=state)


def test_trained_types_are_used_directly():
    rng = np.random.default_rng(23)
    model = random_model(rng, 4)
    state = trained_state_like(model)
    instance = InstanceVector(anchor_load=1.0, observations=(None, None), t=0)
    path = predict(model, instance, lambda t: (t % 4) + 1, state=state)
    assert path.cold_start_substitutions == ()
    assert len(path.points) == 2



@pytest.mark.parametrize("r_dim", [2, 3])
def test_a_missing_observation_takes_the_neutral_regressor(r_dim):
    model = random_model(np.random.default_rng(24), 2, r_dim=r_dim)
    neutral = (1.0,) + (0.0,) * (r_dim - 1)
    cal = lambda t: (t % 2) + 1
    missing = predict(model, InstanceVector(anchor_load=1.0, observations=(None, None, None), t=0), cal)
    given = predict(model, InstanceVector(anchor_load=1.0, observations=(neutral,) * 3, t=0), cal)
    assert missing.points == given.points
