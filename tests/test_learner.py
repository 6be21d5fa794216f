"""Recursive channel updates: worked values, consistency identities, learn steps."""

import math

import numpy as np
import pytest

from helpers import (
    LinearObsEncoder,
    NonPositiveSigma,
    PassthroughEncoder,
    reference_channel_update,
    weighted_log_likelihood,
)

from aplf.features import ObservationVector, TemperatureShiftEncoder
from aplf.forecaster import InstanceVector
from aplf.model_types import ChannelState, GaussianChannelParams, HyperParams
from aplf.oracles import batch_ml_oracle
from aplf.recursive_learner import (
    BATCH_INIT_MAX_BUFFER,
    DegenerateUpdate,
    LearnDiagnostics,
    OnlineLearner,
    SingularGram,
    batch_initialize,
    channel_update,
    trace_reset,
)


def fresh_channel(k=2, sigma0=1.0):
    return ChannelState.identity(k), GaussianChannelParams.zeros(k, sigma0)


def test_single_update_worked_values():
    state, params = fresh_channel()
    state, params = channel_update(state, params, np.array([1.0, 0.0]), 1.0, 0.5)
    assert np.allclose(state.P, np.diag([2.0 / 3.0, 2.0]), atol=1e-15)
    assert state.gamma == 1.0
    assert math.isclose(params.sigma, math.sqrt(1.0 / 3.0), rel_tol=1e-15)
    assert np.allclose(params.eta, [2.0 / 3.0, 0.0], atol=1e-15)


def test_zero_innovation_leaves_eta_and_shrinks_sigma():
    state = ChannelState(P=np.diag([0.5, 0.25]), gamma=3.0)
    params = GaussianChannelParams(eta=np.array([1.0, 2.0]), sigma=0.8)
    u = np.array([1.0, 3.0])
    s = float(u @ params.eta)
    lam = 0.9
    new_state, new_params = channel_update(state, params, u, s, lam)
    assert np.array_equal(new_params.eta, params.eta)
    gamma_new = 1.0 + lam * state.gamma
    assert math.isclose(new_params.sigma, params.sigma * math.sqrt(1.0 - 1.0 / gamma_new), rel_tol=1e-15)


def test_degenerate_update_on_corrupted_state():
    state = ChannelState(P=-np.eye(2), gamma=1.0)
    params = GaussianChannelParams(eta=np.zeros(2), sigma=1.0)
    with pytest.raises(DegenerateUpdate):
        channel_update(state, params, np.array([1.0, 1.0]), 1.0, 0.5)
    with pytest.raises(DegenerateUpdate):
        channel_update(ChannelState(P=[[math.nan, 0.0], [0.0, 1.0]], gamma=1.0), params, (1.0, 1.0), 1.0, 0.5)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("lam", [0.2, 0.7, 0.9])
def test_unexcited_updates_raise_before_any_value_turns_non_finite(k, lam):
    # Only the first regressor is ever excited, so P grows by 1/lam per
    # update in the other directions until it overflows.
    state, params = fresh_channel(k)
    u = (1.0,) + (0.0,) * (k - 1)
    with pytest.raises(DegenerateUpdate):
        for _ in range(50_000):
            state, params = channel_update(state, params, u, 1.0, lam)
            assert all(math.isfinite(x) for row in state.P for x in row)
            assert all(math.isfinite(x) for x in params.eta)
            assert math.isfinite(params.sigma) and math.isfinite(state.gamma)


def random_spd(rng, k):
    a = rng.normal(size=(k, k))
    m = a @ a.T + 0.1 * np.eye(k)
    return (m + m.T) / 2.0  # exactly symmetric


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("lam", [0.2, 0.5, 0.7, 0.9, 0.99])
@pytest.mark.parametrize("as_u", [tuple, list, np.array], ids=["tuple", "list", "ndarray"])
def test_closed_form_update_matches_the_matrix_form(k, lam, as_u):
    rng = np.random.default_rng([k, int(lam * 100)])
    for _ in range(25):
        p, eta = random_spd(rng, k), rng.normal(size=k)
        gamma, sigma = float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.1, 2.0))
        u = as_u([1.0] + rng.normal(size=k - 1).tolist())
        s = float(rng.normal(scale=2.0))
        state, params = channel_update(ChannelState(P=p.tolist(), gamma=gamma),
                                       GaussianChannelParams(eta=eta.tolist(), sigma=sigma), u, s, lam)
        p_ref, gamma_ref, eta_ref, sigma_ref = reference_channel_update(p, gamma, eta, sigma, u, s, lam)
        p_new = np.array(state.P)
        assert np.array_equal(p_new, p_new.T)
        assert np.max(np.abs(p_new - p_ref)) <= 1e-12 * np.max(np.abs(p_ref))
        assert np.max(np.abs(np.array(params.eta) - eta_ref)) <= 1e-12 * np.max(np.abs(eta_ref))
        assert math.isclose(params.sigma, sigma_ref, rel_tol=1e-12)
        assert state.gamma == gamma_ref


def test_closed_form_update_keeps_plain_float_records():
    state, params = channel_update(ChannelState.identity(3), GaussianChannelParams.zeros(3), (1.0, 0.5, 0.0), 2.0, 0.7)
    assert all(type(x) is float for x in params.eta) and type(params.sigma) is float
    assert all(type(row) is list and all(type(x) is float for x in row) for row in state.P)


@pytest.mark.parametrize("k", [1, 4])
def test_channel_update_rejects_other_shapes(k):
    with pytest.raises(ValueError):
        channel_update(ChannelState.identity(k), GaussianChannelParams.zeros(k), (1.0,) * k, 1.0, 0.5)


def test_trace_reset_examples():
    hp = HyperParams()
    reset = trace_reset(ChannelState(P=np.diag([12.0, 1.0]), gamma=2.0), hp)
    assert np.array_equal(reset.P, np.eye(2))
    assert reset.gamma == 2.0
    kept = trace_reset(ChannelState(P=np.diag([4.0, 4.0]), gamma=2.0), hp)
    assert np.array_equal(kept.P, np.diag([4.0, 4.0]))
    boundary = trace_reset(ChannelState(P=np.diag([5.0, 5.1]), gamma=2.0), hp)
    assert np.array_equal(boundary.P, np.eye(2))


def test_batch_initialize_rank_deficient_raises():
    with pytest.raises(SingularGram):
        batch_initialize([(np.array([1.0, 0.0]), 1.0)], 0.5)


def test_batch_initialize_two_point_interpolation():
    state, params = batch_initialize(
        [(np.array([1.0, 0.0]), 2.0), (np.array([1.0, 1.0]), 3.0)], 1.0
    )
    assert np.allclose(params.eta, [2.0, 1.0], atol=1e-12)
    assert params.sigma == 0.0
    assert state.gamma == 2.0


def test_batch_initialize_matches_oracle():
    rng = np.random.default_rng(7)
    samples = [(np.array([1.0, rng.normal(), rng.normal()]), float(rng.normal(scale=2.0)))
               for _ in range(20)]
    state, params = batch_initialize(samples, 0.7)
    eta_star, sigma_star = batch_ml_oracle(samples, 0.7)
    assert np.max(np.abs(params.eta - eta_star)) <= 1e-10
    assert abs(params.sigma - sigma_star) <= 1e-10
    # P must invert the weighted Gram matrix.
    weights = 0.7 ** np.arange(len(samples) - 1, -1, -1)
    gram = sum(w * np.outer(u, u) for w, (u, _) in zip(weights, samples))
    assert np.allclose(state.P @ gram, np.eye(3), atol=1e-9)


def test_recursion_after_exact_init_tracks_batch_maximizer():
    rng = np.random.default_rng(3)
    lam = 0.9
    samples = [(np.array([1.0, rng.normal()]), float(rng.normal(scale=1.5))) for _ in range(50)]
    i0 = None
    for i in range(1, len(samples) + 1):
        try:
            state, params = batch_initialize(samples[:i], lam)
            i0 = i
            break
        except SingularGram:
            continue
    assert i0 is not None
    for i in range(i0 + 1, len(samples) + 1):
        u, s = samples[i - 1]
        state, params = channel_update(state, params, u, s, lam)
        eta_star, sigma_star = batch_ml_oracle(samples[:i], lam)
        assert np.max(np.abs(params.eta - eta_star)) / max(1.0, np.max(np.abs(eta_star))) <= 1e-8
        assert abs(params.sigma - sigma_star) / max(1.0, sigma_star) <= 1e-8


def test_p_inverse_consistency_from_zero_init():
    rng = np.random.default_rng(11)
    lam = 0.7
    state, params = fresh_channel()
    gram_terms = []
    for i in range(1, 60):
        u = np.array([1.0, rng.normal()])
        s = float(rng.normal())
        gram_terms.append(np.outer(u, u))
        state, params = channel_update(state, params, u, s, lam)
        expected_inv = lam**i * np.eye(2) + sum(
            lam ** (i - j) * g for j, g in enumerate(gram_terms, start=1)
        )
        assert np.allclose(np.linalg.inv(state.P), expected_inv, rtol=1e-8, atol=1e-10)


def test_gamma_closed_form():
    # Dyadic forgetting factor: the recursion and the closed form are both
    # exact in binary floating point.
    state, params = fresh_channel()
    for i in range(1, 40):
        state, params = channel_update(state, params, np.array([1.0, 0.5]), 1.0, 0.5)
        assert state.gamma == (1.0 - 0.5**i) / (1.0 - 0.5)
    state, params = fresh_channel()
    for i in range(1, 40):
        state, params = channel_update(state, params, np.array([1.0, 0.5]), 1.0, 0.7)
        assert math.isclose(state.gamma, (1.0 - 0.7**i) / (1.0 - 0.7), rel_tol=1e-12)


def test_final_eta_depends_on_sample_order():
    rng = np.random.default_rng(5)
    samples = [(np.array([1.0, rng.normal()]), float(rng.normal())) for _ in range(12)]

    def run(ordered):
        state, params = fresh_channel()
        for u, s in ordered:
            state, params = channel_update(state, params, u, s, 0.5)
        return params.eta

    assert not np.allclose(run(samples), run(samples[::-1]))


def test_no_sigma_clamps_on_well_conditioned_runs():
    rng = np.random.default_rng(17)
    diagnostics = LearnDiagnostics()
    state, params = fresh_channel()
    for _ in range(2000):
        u = np.array([1.0, rng.normal()])
        s = 0.5 + 0.8 * u[1] + rng.normal()
        state, params = channel_update(state, params, u, s, 0.9, diagnostics)
    assert diagnostics.sigma_clamps == 0


def test_weighted_log_likelihood_values():
    eta = np.array([1.0, 2.0])
    u = np.array([1.0, 3.0])
    value = weighted_log_likelihood([(u, float(u @ eta))], eta, 1.0, 0.5)
    assert math.isclose(value, -0.5 * math.log(2.0 * math.pi), rel_tol=1e-12)
    assert weighted_log_likelihood([], eta, 1.0, 0.5) == 0.0
    with pytest.raises(NonPositiveSigma):
        weighted_log_likelihood([(u, 1.0)], eta, 0.0, 0.5)


def test_learn_step_single_window_worked_values():
    hp = HyperParams(n_calendar_types=1, horizon=1)
    learner = OnlineLearner(hp, encoder=PassthroughEncoder())
    instance = InstanceVector(anchor_load=1.0, observations=(np.array([1.0, 0.0, 0.0]),), t=0)
    learner.learn_step(instance, [2.0])
    assert np.allclose(learner.model.s_channels[0].eta, [2.0 / 2.2, 2.0 / 2.2], atol=1e-15)
    assert np.allclose(learner.model.r_channels[0].eta, [2.0 / 1.7, 0.0, 0.0], atol=1e-15)
    assert learner.state.s_states[0].gamma == 1.0
    assert learner.state.r_states[0].gamma == 1.0


def test_learn_step_zero_innovation_keeps_eta():
    hp = HyperParams(n_calendar_types=1, horizon=2)
    learner = OnlineLearner(hp, encoder=LinearObsEncoder())
    # Perfect model of the constant sequence 5, 5, ...
    learner.model.s_channels[0].eta = np.array([0.0, 1.0])
    learner.model.r_channels[0].eta = np.array([5.0, 0.0])
    instance = InstanceVector(anchor_load=5.0, observations=(0.0, 0.0), t=0)
    learner.learn_step(instance, [5.0, 5.0])
    assert np.array_equal(learner.model.s_channels[0].eta, [0.0, 1.0])
    assert np.array_equal(learner.model.r_channels[0].eta, [5.0, 0.0])


def test_learn_step_missing_temperature_updates_only_s_channel():
    hp = HyperParams(n_calendar_types=1, horizon=2)
    learner = OnlineLearner(hp, encoder=TemperatureShiftEncoder(hp))
    obs = (None, ObservationVector(w=70.0, w_bar=70.0))
    instance = InstanceVector(anchor_load=1.0, observations=obs, t=0)
    learner.learn_step(instance, [2.0, 3.0])
    assert learner.state.s_states[0].gamma > 0.0
    assert learner.state.r_states[0].gamma == 1.0  # only the second step updated the r channel
    assert learner.tracker.count(1) == 1


def test_learn_step_missing_target_breaks_the_previous_load_chain():
    hp = HyperParams(n_calendar_types=1, horizon=3)
    learner = OnlineLearner(hp, encoder=LinearObsEncoder())
    instance = InstanceVector(anchor_load=1.0, observations=(0.0, 0.0, 0.0), t=0)
    learner.learn_step(instance, [2.0, None, 4.0])
    # Updates at i=1 (prev=anchor) and none at i=2; at i=3 prev is unknown,
    # so only the observation channel learns there.
    assert learner.state.s_states[0].gamma == 1.0
    assert learner.state.r_states[0].gamma == 1.0 + hp.lambda_r * 1.0


def test_trace_stays_bounded_over_a_long_sweep():
    hp = HyperParams(n_calendar_types=1, horizon=1, lambda_r=0.7)
    learner = OnlineLearner(hp, encoder=PassthroughEncoder())
    rng = np.random.default_rng(23)
    # Constant observation vector never excites two feature directions, so
    # P grows along them until the reset rule fires.
    for t in range(10_000):
        instance = InstanceVector(
            anchor_load=float(rng.normal()), observations=(np.array([1.0, 0.0, 0.0]),), t=t
        )
        learner.learn_step(instance, [float(rng.normal())])
        assert np.trace(learner.state.s_states[0].P) <= hp.trace_reset_threshold
        assert np.trace(learner.state.r_states[0].P) <= hp.trace_reset_threshold
    assert learner.diagnostics.trace_resets > 0


def test_batch_init_mode_matches_batch_solution():
    hp = HyperParams(n_calendar_types=1, horizon=1, lambda_s=0.9, lambda_r=0.9)
    learner = OnlineLearner(hp, encoder=LinearObsEncoder(), init_mode="batch")
    rng = np.random.default_rng(29)
    seen = []
    prev = 0.0
    for t in range(6):
        obs = float(rng.normal())
        target = 1.0 + 0.5 * prev + float(rng.normal(scale=0.1))
        learner.learn_step(InstanceVector(anchor_load=prev, observations=(obs,), t=t), [target])
        seen.append((np.array([1.0, prev]), target))
        prev = target
    # The transition channel initialized from its first non-singular window
    # and then tracked the exact batch maximizer.
    eta_star, sigma_star = batch_ml_oracle(seen, hp.lambda_s)
    assert np.max(np.abs(learner.model.s_channels[0].eta - eta_star)) <= 1e-9
    assert abs(learner.model.s_channels[0].sigma - sigma_star) <= 1e-9


def test_batch_init_mode_falls_back_after_buffer_cap():
    hp = HyperParams(n_calendar_types=1, horizon=1, lambda_r=0.7)
    learner = OnlineLearner(hp, encoder=PassthroughEncoder(), init_mode="batch")
    rng = np.random.default_rng(31)
    # Constant encoded vector keeps the observation Gram rank deficient
    # forever; after the buffer cap the learner must replay with zero init.
    u = np.array([1.0, 0.0, 0.0])
    targets = [float(rng.normal()) for _ in range(BATCH_INIT_MAX_BUFFER + 5)]
    prev = 0.0
    for t, target in enumerate(targets):
        learner.learn_step(InstanceVector(anchor_load=prev, observations=(u,), t=t), [target])
        prev = target
    assert learner.diagnostics.batch_init_fallbacks >= 1
    assert learner.state.r_states[0].gamma > 0.0


def test_learner_requires_calendar_fn_for_many_types():
    hp = HyperParams(n_calendar_types=48)
    with pytest.raises(ValueError):
        OnlineLearner(hp, encoder=PassthroughEncoder())
