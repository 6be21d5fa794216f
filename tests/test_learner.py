"""Recursive channel updates: worked values, consistency identities, learn steps."""

import copy
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    NonPositiveSigma,
    assert_agrees_with_batch_oracle,
    flatten,
    reference_channel_update,
    reference_learn_step,
    square,
    weighted_log_likelihood,
)

from aplf import recursive_learner
from aplf.features import TemperatureTracker
from aplf.forecaster import InstanceVector, predict
from aplf.harness import Snapshot, snapshot_load, snapshot_save
from aplf.model_types import (
    CALENDAR_TYPES,
    ChannelState,
    GaussianChannelParams,
    HyperParams,
    LearnerState,
    ModelParams,
    _positive_definite,
)
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


def fresh_channel(k=2):
    return ChannelState.identity(k), GaussianChannelParams.zeros(k)


def test_single_update_worked_values():
    state, params = fresh_channel()
    channel_update(state, params, np.array([1.0, 0.0]), 1.0, 0.5, LearnDiagnostics())
    assert np.allclose(square(state.P), np.diag([2.0 / 3.0, 2.0]), atol=1e-15)
    assert state.gamma == 1.0
    assert math.isclose(params.sigma, math.sqrt(1.0 / 3.0), rel_tol=1e-15)
    assert np.allclose(params.eta, [2.0 / 3.0, 0.0], atol=1e-15)


def test_zero_innovation_leaves_eta_and_shrinks_sigma():
    state = ChannelState(P=(0.5, 0.0, 0.25), gamma=3.0)
    params = GaussianChannelParams(eta=np.array([1.0, 2.0]), sigma=0.8)
    u = np.array([1.0, 3.0])
    s = float(u @ params.eta)
    lam = 0.9
    gamma, eta, sigma = state.gamma, params.eta.copy(), params.sigma
    channel_update(state, params, u, s, lam, LearnDiagnostics())
    assert np.array_equal(params.eta, eta)
    gamma_new = 1.0 + lam * gamma
    assert math.isclose(params.sigma, sigma * math.sqrt(1.0 - 1.0 / gamma_new), rel_tol=1e-15)


def test_degenerate_update_on_corrupted_state():
    state = ChannelState(P=(-1.0, 0.0, -1.0), gamma=1.0)
    params = GaussianChannelParams(eta=np.zeros(2), sigma=1.0)
    diagnostics = LearnDiagnostics()
    with pytest.raises(DegenerateUpdate):
        channel_update(state, params, np.array([1.0, 1.0]), 1.0, 0.5, diagnostics)
    with pytest.raises(DegenerateUpdate):
        channel_update(ChannelState(P=(math.nan, 0.0, 1.0), gamma=1.0), params, (1.0, 1.0), 1.0, 0.5, diagnostics)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("lam", [0.2, 0.7, 0.9])
def test_unexcited_updates_raise_before_any_value_turns_non_finite(k, lam):
    # Only the first regressor is ever excited, so P grows by 1/lam per
    # update in the other directions until it overflows.
    state, params = fresh_channel(k)
    u, diagnostics = (1.0,) + (0.0,) * (k - 1), LearnDiagnostics()
    with pytest.raises(DegenerateUpdate):
        for _ in range(50_000):
            channel_update(state, params, u, 1.0, lam, diagnostics)
            assert all(map(math.isfinite, state.P))
            assert all(math.isfinite(x) for x in params.eta)
            assert math.isfinite(params.sigma) and math.isfinite(state.gamma)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("lam", [0.2, 0.7, 0.9])
@settings(max_examples=2, deadline=None)
@given(level=st.floats(-10.0, 10.0), regressors=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_unexcited_updates_with_the_trace_reset_never_degenerate(k, lam, level, regressors, seed):
    # A constant u excites one direction only; the reset must keep P bounded
    # and positive definite over 1e5 updates, so no update can degenerate.
    # Every fired reset is counted.
    hp, diagnostics = HyperParams(), LearnDiagnostics()
    u = (1.0, *regressors[:k - 1])
    state, params = fresh_channel(k)
    resets, diagonal = 0, (0, 2) if k == 2 else (0, 3, 5)
    for s in (level + np.random.default_rng(seed).standard_normal(100_000)).tolist():
        channel_update(state, params, u, s, lam, diagnostics)
        after = trace_reset(state, hp, diagnostics)
        resets += after is not state
        state = after
        p = state.P
        assert _positive_definite(p)
        assert sum(p[i] for i in diagonal) <= hp.trace_reset_threshold
    assert resets > 0 and diagnostics.trace_resets == resets


@st.composite
def learner_runs(draw):
    """Learner settings, an init mode and a run of (instance, targets) pairs."""
    n = draw(st.integers(1, 3))
    horizon = draw(st.integers(2, 6))
    lambdas = st.sampled_from([0.2, 0.7, 0.9, 0.99])
    hp = HyperParams(horizon=horizon, lambda_s=draw(lambdas), lambda_r=draw(lambdas))
    load = st.floats(0.0, 5.0)
    obs = st.sampled_from([(1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0)])
    if draw(st.booleans()):
        # Zero loads only: the transition channels' Gram stays singular, so
        # batch initialization falls back once a buffer is full.
        load = st.just(0.0)
    if draw(st.booleans()):
        load, obs = st.none() | load, st.none() | obs
    instances = []
    for j in range(draw(st.integers(1, 20))):
        observations = tuple(draw(st.lists(obs, min_size=horizon, max_size=horizon)))
        # An instance's types may visit one type more than once.
        types = draw(st.lists(st.integers(1, n), min_size=horizon, max_size=horizon))
        targets = draw(st.lists(load, min_size=horizon, max_size=horizon))
        instances.append((InstanceVector(draw(load), observations, types, j * horizon), targets))
    return hp, draw(st.sampled_from(["zero", "batch"])), instances


@settings(max_examples=300, deadline=None)
@given(run=learner_runs())
def test_learn_step_equals_the_one_sample_at_a_time_reference(run):
    hp, init_mode, instances = run
    learner, reference = (OnlineLearner(hp, init_mode=init_mode) for _ in range(2))
    for instance, targets in instances:
        learner.learn_step(instance, targets)
        reference_learn_step(reference, instance, targets)
        assert learner.model == reference.model
        assert learner.state == reference.state
        assert learner.diagnostics == reference.diagnostics


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
        state, params = ChannelState(P=flatten(p), gamma=gamma), GaussianChannelParams(eta=eta.tolist(), sigma=sigma)
        channel_update(state, params, u, s, lam, LearnDiagnostics())
        p_ref, gamma_ref, eta_ref, sigma_ref = reference_channel_update(p, gamma, eta, sigma, u, s, lam)
        p_new = square(state.P)
        assert np.max(np.abs(p_new - p_ref)) <= 1e-12 * np.max(np.abs(p_ref))
        assert np.max(np.abs(np.array(params.eta) - eta_ref)) <= 1e-12 * np.max(np.abs(eta_ref))
        assert math.isclose(params.sigma, sigma_ref, rel_tol=1e-12)
        assert state.gamma == gamma_ref


def test_closed_form_update_keeps_plain_float_records():
    state, params = fresh_channel(3)
    assert type(channel_update(state, params, (1.0, 0.5, 0.0), 2.0, 0.7, LearnDiagnostics())) is float
    assert all(type(x) is float for x in params.eta) and type(params.sigma) is float
    assert type(state.P) is tuple and len(state.P) == 6 and all(type(x) is float for x in state.P)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("lam", [0.2, 0.7, 0.99])
def test_channel_update_returns_the_new_trace_as_trace_reset_sums_it(k, lam):
    # Bit for bit: trace_reset at a threshold of the returned trace keeps the record, and at
    # the next float below it fires.
    rng = np.random.default_rng([k, int(lam * 100)])
    diagonal = (0, 2) if k == 2 else (0, 3, 5)
    for _ in range(200):
        state = ChannelState(P=flatten(random_spd(rng, k)), gamma=float(rng.uniform(0.0, 5.0)))
        params = GaussianChannelParams(eta=rng.normal(size=k).tolist(), sigma=float(rng.uniform(0.1, 2.0)))
        trace = channel_update(state, params, (1.0, *rng.normal(size=k - 1)), float(rng.normal()), lam,
                               LearnDiagnostics())
        assert trace == sum(state.P[i] for i in diagonal)
        diagnostics = LearnDiagnostics()
        assert trace_reset(state, HyperParams(trace_reset_threshold=trace), diagnostics) is state
        below = HyperParams(trace_reset_threshold=math.nextafter(trace, 0.0))
        assert trace_reset(state, below, diagnostics) is not state and diagnostics.trace_resets == 1


@pytest.mark.parametrize("k", [1, 4])
def test_channel_update_rejects_other_shapes(k):
    state = ChannelState(flatten(np.eye(k)), 0.0)
    with pytest.raises(ValueError):
        channel_update(state, GaussianChannelParams.zeros(k), (1.0,) * k, 1.0, 0.5, LearnDiagnostics())


def test_a_resumed_learner_needs_a_model_and_a_state():
    hp = HyperParams()
    model, state = ModelParams.initial(), LearnerState.initial()
    with pytest.raises(ValueError, match="both model and state"):
        OnlineLearner(hp, model=model)
    with pytest.raises(ValueError, match="both model and state"):
        OnlineLearner(hp, state=state)
    learner = OnlineLearner(hp, init_mode="batch", model=model, state=state)
    assert learner.model is model and learner.state is state and learner.state.pending == {}


def test_trace_reset_examples():
    hp, diagnostics = HyperParams(), LearnDiagnostics()
    reset = trace_reset(ChannelState(P=(12.0, 0.0, 1.0), gamma=2.0), hp, diagnostics)
    assert np.array_equal(square(reset.P), np.eye(2))
    assert reset.gamma == 2.0
    kept = trace_reset(ChannelState(P=(4.0, 0.0, 4.0), gamma=2.0), hp, diagnostics)
    assert np.array_equal(square(kept.P), np.diag([4.0, 4.0]))
    boundary = trace_reset(ChannelState(P=(5.0, 0.0, 5.1), gamma=2.0), hp, diagnostics)
    assert np.array_equal(square(boundary.P), np.eye(2))
    assert diagnostics == LearnDiagnostics(trace_resets=2)


@pytest.mark.parametrize("k", [2, 3])
def test_trace_reset_returns_the_same_record_unless_it_fires(k):
    # It counts the reset only when it fires.
    state, diagnostics = ChannelState.identity(k, 2.0), LearnDiagnostics()
    assert trace_reset(state, HyperParams(), diagnostics) is state
    assert diagnostics.trace_resets == 0
    state.P = (*state.P[:-1], 11.0)
    reset = trace_reset(state, HyperParams(), diagnostics)
    assert reset is not state and reset == ChannelState.identity(k, 2.0)
    # Every record at the identity shares one immutable tuple.
    assert reset.P is ChannelState.identity(k).P
    assert diagnostics.trace_resets == 1


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batch_initialize_raises_exactly_when_the_oracle_does(data):
    # Small integer regressors and lam >= 0.8 keep every full-rank draw far below the
    # condition limit, so the oracle's decision is never a rounding-level call.
    k, n = 2, data.draw(st.integers(1, 40))
    lam = data.draw(st.floats(0.8, 0.99))
    rows = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=n, max_size=n))
    zeroed = data.draw(st.sets(st.integers(0, k - 1)))
    loads = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    samples = [(tuple(0.0 if j in zeroed else float(x) for j, x in enumerate(row)), s)
               for row, s in zip(rows, loads)]
    try:
        batch_ml_oracle(samples, lam)
    except SingularGram:
        with pytest.raises(SingularGram):
            batch_initialize(samples, lam)
        return
    state, params = batch_initialize(samples, lam)
    assert_agrees_with_batch_oracle(state, params, samples, lam)


def _diagonal_gram_buffer(k, cond):
    """k samples whose Gram matrix at lam = 1 is diag(9, ..., 9, 9 / cond)."""
    scales = [3.0] * (k - 1) + [3.0 * cond ** -0.5]
    return [(tuple(scales[i] if j == i else 0.0 for j in range(k)), float(i + 1)) for i in range(k)]


@pytest.mark.parametrize("cond, singular", [(1e12 * (1.0 - 1e-9), False), (1e12 * (1.0 + 1e-9), True)],
                         ids=["below-limit", "above-limit"])
def test_batch_initialize_decides_a_diagonal_gram_by_its_condition_number(cond, singular):
    samples = _diagonal_gram_buffer(2, cond)
    if singular:
        with pytest.raises(SingularGram):
            batch_ml_oracle(samples, 1.0)
        with pytest.raises(SingularGram):
            batch_initialize(samples, 1.0)
    else:
        state, params = batch_initialize(samples, 1.0)
        assert_agrees_with_batch_oracle(state, params, samples, 1.0)


@pytest.mark.parametrize("samples", [
    [((1.0, 1e200), 1.0), ((1e200, 1.0), 2.0)],
    [((1.0, 2.0), float(j)) for j in range(BATCH_INIT_MAX_BUFFER)],
    [((1.0, 2.0), 3.0)],
    [((1.0, 0.0), 1.0)],
    [((1.0, 0.0), float(j)) for j in range(BATCH_INIT_MAX_BUFFER)],
    [((0.0, float(j)), 1.0) for j in range(1, 4)],
], ids=["non-finite-gram", "rank-1-repeated-rows", "one-sample", "one-sample-zero-previous-load",
        "zero-previous-loads-full-buffer", "zero-intercept"])
def test_batch_initialize_raises_on_a_buffer_the_oracle_refuses(samples):
    for lam in (0.5, 0.7):
        with pytest.raises(SingularGram):
            batch_ml_oracle(samples, lam)
        with pytest.raises(SingularGram):
            batch_initialize(samples, lam)


@pytest.mark.parametrize("k", [1, 3])
def test_batch_initialize_solves_only_the_transition_channels_two_regressors(k):
    with pytest.raises(ValueError, match="K = 2"):
        batch_initialize([(tuple(float(i == j) for j in range(k)), 1.0) for i in range(k)], 0.7)


def test_batch_initialize_two_point_interpolation():
    state, params = batch_initialize(
        [(np.array([1.0, 0.0]), 2.0), (np.array([1.0, 1.0]), 3.0)], 1.0
    )
    assert np.allclose(params.eta, [2.0, 1.0], atol=1e-12)
    assert params.sigma == 0.0
    assert state.gamma == 2.0


def test_batch_initialize_matches_oracle():
    rng = np.random.default_rng(7)
    samples = [(np.array([1.0, rng.normal()]), float(rng.normal(scale=2.0))) for _ in range(20)]
    state, params = batch_initialize(samples, 0.7)
    eta_star, sigma_star = batch_ml_oracle(samples, 0.7)
    assert np.max(np.abs(params.eta - eta_star)) <= 1e-10
    assert abs(params.sigma - sigma_star) <= 1e-10
    # P must invert the weighted Gram matrix.
    weights = 0.7 ** np.arange(len(samples) - 1, -1, -1)
    gram = sum(w * np.outer(u, u) for w, (u, _) in zip(weights, samples))
    assert np.allclose(square(state.P) @ gram, np.eye(2), atol=1e-9)


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
        channel_update(state, params, u, s, lam, LearnDiagnostics())
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
        channel_update(state, params, u, s, lam, LearnDiagnostics())
        expected_inv = lam**i * np.eye(2) + sum(
            lam ** (i - j) * g for j, g in enumerate(gram_terms, start=1)
        )
        assert np.allclose(np.linalg.inv(square(state.P)), expected_inv, rtol=1e-8, atol=1e-10)


def assert_is_the_ridge_fit(params, samples, lam):
    """Without trace resets, a channel started from eta = 0, P = I, gamma = 0 is after n samples
    (u_i, s_i) the fit minimising J(eta) = lam^n eta'eta + sum lam^(n-i) (s_i - u_i'eta)^2, with
    sigma^2 = J_n / gamma_n at its minimum J_n: eta and sigma within 1e-8 relative, with a floor of 1."""
    n, k = len(samples), len(samples[0][0])
    weights = lam ** np.arange(n - 1, -1, -1)
    u_arr, s_arr = np.array([u for u, _ in samples], dtype=float), np.array([s for _, s in samples])
    gram = lam**n * np.eye(k) + (u_arr * weights[:, None]).T @ u_arr
    eta = np.linalg.solve(gram, (u_arr * weights[:, None]).T @ s_arr)
    j_n = lam**n * eta @ eta + weights @ (s_arr - u_arr @ eta) ** 2
    sigma = math.sqrt(j_n / weights.sum())
    assert np.max(np.abs(np.array(params.eta) - eta)) / max(1.0, np.max(np.abs(eta))) <= 1e-8
    assert abs(params.sigma - sigma) / max(1.0, sigma) <= 1e-8


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("lam", [0.2, 0.5, 0.7, 0.95])
def test_zero_start_equals_the_ridge_fit_after_every_sample(k, lam):
    rng = np.random.default_rng(20 + k)
    for _ in range(25):
        state, params = ChannelState.identity(k), GaussianChannelParams.zeros(k)
        samples = []
        for n in range(1, 61):
            u = (1.0, *rng.normal(size=k - 1))
            s = float(rng.normal(2.0, 1.5))
            channel_update(state, params, u, s, lam, LearnDiagnostics())
            samples.append((u, s))
            assert_is_the_ridge_fit(params, samples, lam)


@pytest.mark.parametrize("lambda_s, lambda_r", [(0.2, 0.7), (0.5, 0.8), (0.7, 0.2), (0.95, 0.95)])
@pytest.mark.parametrize("seed", range(3))
def test_learn_step_gives_each_channel_the_ridge_fit_of_the_samples_routed_to_it(lambda_s, lambda_r, seed):
    # The documented rule: a revealed load s at a step of calendar type c gives observation channel c
    # the sample (obs, s) when the step's observation is known, and transition channel c the sample
    # ((1, prev), s) when the previous load prev is known. prev is the anchor's load at an instance's
    # first step and the previous step's load after it, so a blank load breaks the chain. Three
    # calendar types over six steps repeat types within an instance, and about one load, observation
    # and anchor in seven is blank.
    hp = HyperParams(horizon=6, lambda_s=lambda_s, lambda_r=lambda_r, trace_reset_threshold=math.inf)
    learner, rng = OnlineLearner(hp), np.random.default_rng(seed)
    routed = {(kind, c): [] for kind in "sr" for c in range(1, CALENDAR_TYPES + 1)}
    channels = {"s": (learner.model.s_channels, lambda_s), "r": (learner.model.r_channels, lambda_r)}

    def maybe(value):
        return None if rng.random() < 0.15 else value

    for t in range(30):
        types = rng.integers(1, 4, size=hp.horizon).tolist()
        observations = tuple(maybe((1.0, *rng.normal(size=2))) for _ in types)
        targets = [maybe(float(rng.normal(2.0, 1.5))) for _ in types]
        anchor = maybe(float(rng.normal(2.0, 1.5)))
        learner.learn_step(InstanceVector(anchor, observations, types, t * hp.horizon), targets)
        prev = anchor
        for obs, c, s in zip(observations, types, targets):
            if s is not None and obs is not None:
                routed["r", c].append((obs, s))
            if s is not None and prev is not None:
                routed["s", c].append(((1.0, prev), s))
            prev = s
        for (kind, c), samples in routed.items():
            kind_params, lam = channels[kind]
            params = kind_params[c - 1]
            if samples:
                assert_is_the_ridge_fit(params, samples, lam)
            else:
                assert params == GaussianChannelParams.zeros(len(params.eta))
    assert learner.diagnostics == LearnDiagnostics()


def test_gamma_closed_form():
    # Dyadic forgetting factor: the recursion and the closed form are both
    # exact in binary floating point.
    state, params = fresh_channel()
    for i in range(1, 40):
        channel_update(state, params, np.array([1.0, 0.5]), 1.0, 0.5, LearnDiagnostics())
        assert state.gamma == (1.0 - 0.5**i) / (1.0 - 0.5)
    state, params = fresh_channel()
    for i in range(1, 40):
        channel_update(state, params, np.array([1.0, 0.5]), 1.0, 0.7, LearnDiagnostics())
        assert math.isclose(state.gamma, (1.0 - 0.7**i) / (1.0 - 0.7), rel_tol=1e-12)


def test_final_eta_depends_on_sample_order():
    rng = np.random.default_rng(5)
    samples = [(np.array([1.0, rng.normal()]), float(rng.normal())) for _ in range(12)]

    def run(ordered):
        state, params = fresh_channel()
        for u, s in ordered:
            channel_update(state, params, u, s, 0.5, LearnDiagnostics())
        return params.eta

    assert not np.allclose(run(samples), run(samples[::-1]))


def test_no_sigma_clamps_on_well_conditioned_runs():
    rng = np.random.default_rng(17)
    diagnostics = LearnDiagnostics()
    state, params = fresh_channel()
    for _ in range(2000):
        u = np.array([1.0, rng.normal()])
        s = 0.5 + 0.8 * u[1] + rng.normal()
        channel_update(state, params, u, s, 0.9, diagnostics)
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
    hp = HyperParams(horizon=1)
    learner = OnlineLearner(hp)
    instance = InstanceVector(anchor_load=1.0, observations=(np.array([1.0, 0.0, 0.0]),), types=(1,), t=0)
    learner.learn_step(instance, [2.0])
    assert np.allclose(learner.model.s_channels[0].eta, [2.0 / 2.2, 2.0 / 2.2], atol=1e-15)
    assert np.allclose(learner.model.r_channels[0].eta, [2.0 / 1.7, 0.0, 0.0], atol=1e-15)
    assert learner.state.s_states[0].gamma == 1.0
    assert learner.state.r_states[0].gamma == 1.0


def test_learn_step_zero_innovation_keeps_eta():
    hp = HyperParams(horizon=2)
    learner = OnlineLearner(hp)
    # Perfect model of the constant sequence 5, 5, ...
    learner.model.s_channels[0].eta = np.array([0.0, 1.0])
    learner.model.r_channels[0].eta = np.array([5.0, 0.0, 0.0])
    instance = InstanceVector(anchor_load=5.0, observations=((1.0, 0.0, 0.0),) * 2, types=(1, 1), t=0)
    learner.learn_step(instance, [5.0, 5.0])
    assert np.array_equal(learner.model.s_channels[0].eta, [0.0, 1.0])
    assert np.array_equal(learner.model.r_channels[0].eta, [5.0, 0.0, 0.0])


def test_learn_step_missing_temperature_updates_only_s_channel():
    hp = HyperParams(horizon=2)
    learner = OnlineLearner(hp)
    instance = InstanceVector(anchor_load=1.0, observations=(None, (1.0, 0.0, 0.0)), types=(1, 1), t=0)
    learner.learn_step(instance, [2.0, 3.0])
    assert learner.state.s_states[0].gamma > 0.0
    assert learner.state.r_states[0].gamma == 1.0  # only the second step updated the r channel


def test_learn_step_missing_target_breaks_the_previous_load_chain():
    hp = HyperParams(horizon=3)
    learner = OnlineLearner(hp)
    instance = InstanceVector(anchor_load=1.0, observations=((1.0, 0.0, 0.0),) * 3, types=(1, 1, 1), t=0)
    learner.learn_step(instance, [2.0, None, 4.0])
    # Updates at i=1 (prev=anchor) and none at i=2; at i=3 prev is unknown,
    # so only the observation channel learns there.
    assert learner.state.s_states[0].gamma == 1.0
    assert learner.state.r_states[0].gamma == 1.0 + hp.lambda_r * 1.0


def test_trace_stays_bounded_over_a_long_sweep():
    hp = HyperParams(horizon=1, lambda_r=0.7)
    learner = OnlineLearner(hp)
    rng = np.random.default_rng(23)
    # Constant observation vector never excites two feature directions, so
    # P grows along them until the reset rule fires.
    for t in range(10_000):
        instance = InstanceVector(
            anchor_load=float(rng.normal()), observations=(np.array([1.0, 0.0, 0.0]),), types=(1,), t=t
        )
        learner.learn_step(instance, [float(rng.normal())])
        assert np.trace(square(learner.state.s_states[0].P)) <= hp.trace_reset_threshold
        assert np.trace(square(learner.state.r_states[0].P)) <= hp.trace_reset_threshold
    assert learner.diagnostics.trace_resets > 0


def test_batch_init_mode_matches_batch_solution():
    hp = HyperParams(horizon=1, lambda_s=0.9, lambda_r=0.9)
    learner = OnlineLearner(hp, init_mode="batch")
    rng = np.random.default_rng(29)
    seen = []
    prev = 0.0
    for t in range(6):
        obs = float(rng.normal())
        target = 1.0 + 0.5 * prev + float(rng.normal(scale=0.1))
        learner.learn_step(InstanceVector(anchor_load=prev, observations=((1.0, obs, 0.0),), types=(1,), t=t),
                           [target])
        seen.append((np.array([1.0, prev]), target))
        prev = target
    # The transition channel initialized from its first non-singular window
    # and then tracked the exact batch maximizer.
    eta_star, sigma_star = batch_ml_oracle(seen, hp.lambda_s)
    assert np.max(np.abs(learner.model.s_channels[0].eta - eta_star)) <= 1e-9
    assert abs(learner.model.s_channels[0].sigma - sigma_star) <= 1e-9


def test_batch_init_mode_falls_back_after_buffer_cap():
    hp = HyperParams(horizon=1, lambda_r=0.7)
    learner, zero = OnlineLearner(hp, init_mode="batch"), OnlineLearner(hp)
    rng = np.random.default_rng(31)
    # Every previous load is 0, so the transition Gram stays rank deficient
    # forever; after the buffer cap the learner must replay with zero init.
    for t in range(BATCH_INIT_MAX_BUFFER + 5):
        instance = InstanceVector(anchor_load=0.0, observations=((1.0, float(rng.normal()), 0.0),), types=(1,), t=t)
        targets = [float(rng.normal())]
        learner.learn_step(instance, targets)
        zero.learn_step(instance, targets)
    assert learner.diagnostics.batch_init_fallbacks == 1 and ("s", 1) not in learner.state.pending
    # The replay and the live updates after it are the zero-start channel's.
    assert learner.model.s_channels[0] == zero.model.s_channels[0]
    assert learner.state.s_states[0] == zero.state.s_states[0]
    assert learner.diagnostics.trace_resets == zero.diagnostics.trace_resets


def test_a_degenerate_update_in_the_fallback_replay_leaves_the_channel_as_it_was():
    # Every previous load is 0, so the buffer never solves. At the cap the
    # zero-start replay's first update overflows sigma, and the replay stores nothing.
    learner = OnlineLearner(HyperParams(horizon=1), init_mode="batch")
    params, state = learner.model.s_channels[0], learner.state.s_states[0]
    before = copy.deepcopy((params, state))
    instance = InstanceVector(anchor_load=0.0, observations=(None,), types=(1,), t=0)
    for _ in range(BATCH_INIT_MAX_BUFFER - 1):
        learner.learn_step(instance, [1e200])
    with pytest.raises(DegenerateUpdate, match="non-finite"):
        learner.learn_step(instance, [1e200])
    assert learner.model.s_channels[0] is params and learner.state.s_states[0] is state
    assert (params, state) == before
    assert len(learner.state.pending[("s", 1)]) == BATCH_INIT_MAX_BUFFER
    assert learner.diagnostics.batch_init_fallbacks == 0


def test_a_fresh_batch_learner_buffers_only_its_transition_channels():
    hp = HyperParams(horizon=2)
    learner, zero = OnlineLearner(hp, init_mode="batch"), OnlineLearner(hp)
    assert sorted(learner.state.pending) == [("s", c) for c in range(1, 49)]
    # An observation channel learns from its first sample, as under zero init.
    instance = InstanceVector(anchor_load=1.0, observations=((1.0, 0.5, 0.0), (1.0, 0.0, -0.5)), types=(1, 1), t=0)
    learner.learn_step(instance, [1.5, 2.0])
    zero.learn_step(instance, [1.5, 2.0])
    assert learner.model.r_channels == zero.model.r_channels and learner.state.r_states == zero.state.r_states
    # Its transition channel solved its two-sample buffer instead.
    assert ("s", 1) not in learner.state.pending and learner.model.s_channels != zero.model.s_channels


@pytest.mark.parametrize("bad_type", [0, 49])
def test_learn_step_rejects_a_calendar_type_outside_1_to_48(bad_type):
    hp = HyperParams()
    learner = OnlineLearner(hp)
    instance = InstanceVector(anchor_load=1.0, observations=((1.0, 0.0, 0.0),) * 2, types=(bad_type,) * 2, t=0)
    with pytest.raises(IndexError, match="outside 1..48"):
        predict(learner.model, instance)
    with pytest.raises(IndexError, match="outside 1..48"):
        learner.learn_step(instance, [1.0, 1.0])
    # Nothing was learned, in any type's channels.
    assert not any(s.gamma for s in learner.state.s_states + learner.state.r_states)


@pytest.mark.parametrize("init_mode", ["zero", "batch"])
@pytest.mark.parametrize("obs", [(1.0, 5.0), (1.0, 0.0, 0.0, 7.0)], ids=["short", "long"])
def test_learn_step_rejects_an_observation_of_other_than_three_entries_before_its_step_learns(init_mode, obs):
    learner = OnlineLearner(HyperParams(horizon=1), init_mode)
    learner.learn_step(InstanceVector(1.0, ((1.0, 0.0, 0.0),), (1,), 0), [1.1])
    before = copy.deepcopy((learner.model, learner.state))
    with pytest.raises(ValueError):
        learner.learn_step(InstanceVector(1.1, (obs,), (1,), 1), [1.2])
    # Neither channel of the step, nor a batch buffer, took the sample.
    assert (learner.model, learner.state) == before


@pytest.mark.parametrize("types", [(1,), (1, 2, 1)])
def test_learn_step_and_predict_reject_an_instance_without_one_type_per_slot(types):
    hp = HyperParams()
    learner = OnlineLearner(hp)
    instance = InstanceVector(anchor_load=1.0, observations=((1.0, 0.0, 0.0),) * 2, types=types, t=0)
    with pytest.raises(ValueError, match="calendar types"):
        predict(learner.model, instance)
    with pytest.raises(ValueError, match="calendar types"):
        learner.learn_step(instance, [1.0, 1.0])
    assert not any(s.gamma for s in learner.state.s_states + learner.state.r_states)


# --- in-place updates ----------------------------------------------------------


def degenerate_channel(k, path):
    """A channel record whose next update with u = (1, 1, ...) raises DegenerateUpdate on the given path:
    a gain denominator below 0 (P = -I), an overflowing P, or an overflowing sigma."""
    diagonal = {"gain": -1.0, "p-overflow": 1e300, "sigma-overflow": 1.0}[path]
    sigma = 1e200 if path == "sigma-overflow" else 1.0
    return ChannelState(flatten(diagonal * np.eye(k)), 2.0), GaussianChannelParams([0.5] * k, sigma)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("path, message", [("gain", "gain denominator"), ("p-overflow", "non-finite"),
                                           ("sigma-overflow", "non-finite")])
def test_a_degenerate_update_leaves_the_channel_as_it_was(k, path, message):
    state, params = degenerate_channel(k, path)
    p, eta = state.P, params.eta
    before = (state.P, state.gamma, list(params.eta), params.sigma)
    with pytest.raises(DegenerateUpdate, match=message):
        channel_update(state, params, (1.0,) * k, 3.0, 0.7, LearnDiagnostics())
    assert (state.P, state.gamma, params.eta, params.sigma) == before
    assert state.P is p and params.eta is eta


@pytest.mark.parametrize("k", [2, 3])
def test_an_update_whose_new_values_are_finite_but_sum_overflows_does_not_raise(k):
    # Zero innovation keeps eta = (1e308, ...): every new value is finite, and their sum is inf.
    state = ChannelState.identity(k, 1.0)
    params = GaussianChannelParams([1e308] * k, 1.0)
    channel_update(state, params, (1.0,) + (0.0,) * (k - 1), 1e308, 0.5, LearnDiagnostics())
    new = [*params.eta, *state.P, params.sigma]
    assert params.eta == [1e308] * k and all(map(math.isfinite, new)) and math.isinf(sum(new))


def update_with_one_non_finite_value(k, target):
    """(state, params, u, s) of an update with lam = 0.5 whose one non-finite new value is target:
    ("P", i, j), ("eta", i), ("sigma", "inf") or ("sigma", "nan"). The other new values are finite.

    With u = 0 the update divides P by lam, so an entry of 1e308 alone overflows. With u the unit
    vector e_j and P[i][j] = 1e154, eta_i moves by about 1e154 * 1e154 / 1.5, past the float range
    from 1.5e308. A load of 1e200 squares to inf in the sigma radicand; a sigma of 1e200 squares to
    inf on both sides of it, whose difference is nan."""
    p = [[float(a == b) for b in range(k)] for a in range(k)]
    eta, sigma, u, s = [0.0] * k, 1.0, [0.0] * k, 1.0
    if target[0] == "P":
        _, i, j = target
        p[i][j] = p[j][i] = 1e308
    elif target[0] == "eta":
        i, j = target[1], (target[1] + 1) % k
        p[i][j] = p[j][i] = 1e154
        eta[i], u[j], s = 1.5e308, 1.0, 1e154
    elif target[1] == "inf":
        s = 1e200
    else:
        sigma = 1e200
    return ChannelState(flatten(p), 2.0), GaussianChannelParams(eta, sigma), tuple(u), s


def non_finite_targets(k):
    return ([("P", i, j) for i in range(k) for j in range(i, k)] + [("eta", i) for i in range(k)]
            + [("sigma", "inf"), ("sigma", "nan")])


@pytest.mark.parametrize("k, target", [(k, t) for k in (2, 3) for t in non_finite_targets(k)],
                         ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else f"k{v}")
def test_an_update_with_any_one_non_finite_new_value_raises_and_leaves_the_channel(k, target):
    state, params, u, s = update_with_one_non_finite_value(k, target)
    p, eta = state.P, params.eta
    before = (state.P, state.gamma, list(params.eta), params.sigma)
    with pytest.raises(DegenerateUpdate, match="non-finite"):
        channel_update(state, params, u, s, 0.5, LearnDiagnostics())
    assert (state.P, state.gamma, params.eta, params.sigma) == before
    assert state.P is p and params.eta is eta


def assert_no_shared_lists(model, state):
    """No two channels of the model share an eta list, and every P of the state is a tuple,
    which channels may share because an update replaces it."""
    lists = [p.eta for p in model.s_channels + model.r_channels]
    assert len({id(x) for x in lists}) == len(lists)
    assert all(type(s.P) is tuple for s in state.s_states + state.r_states)


def batch_learner(anchor):
    """A batch-initialized learner fed 80 one-step instances of a noisy load on calendar types 1
    and 2 in turn, each anchored at the previous load anchor(rng)."""
    hp = HyperParams(horizon=1)
    learner = OnlineLearner(hp, init_mode="batch")
    rng = np.random.default_rng(41)
    for t in range(80):
        load = anchor(rng)
        target = 1.0 + 0.5 * load + float(rng.normal(scale=0.1))
        learner.learn_step(InstanceVector(load, ((1.0, float(rng.normal()), 0.0),), (1 + t % 2,), t), [target])
    return learner


def test_no_two_channels_share_a_list_after_initial_batch_fallback_or_load(tmp_path):
    hp = HyperParams()
    assert_no_shared_lists(ModelParams.initial(), LearnerState.initial())
    learner = OnlineLearner(hp)
    assert_no_shared_lists(learner.model, learner.state)
    # Varying previous loads make the transition channels solvable, so they
    # come from batch_initialize.
    solvable = batch_learner(lambda rng: float(rng.uniform(0.5, 2.0)))
    assert all(c > 2 for _, c in solvable.state.pending) and solvable.diagnostics.batch_init_fallbacks == 0
    assert_no_shared_lists(solvable.model, solvable.state)
    # Zero previous loads keep the transition Gram singular, so those
    # channels come from the zero-start replay of the full buffer.
    fallback = batch_learner(lambda rng: 0.0)
    assert all(c > 2 for _, c in fallback.state.pending) and fallback.diagnostics.batch_init_fallbacks == 2
    assert_no_shared_lists(fallback.model, fallback.state)
    path = tmp_path / "snap.json"
    snapshot_save(path, Snapshot(fallback.model, fallback.state, TemperatureTracker(), fallback.hp, None))
    snap = snapshot_load(path)
    assert snap.model == fallback.model and snap.state == fallback.state
    assert_no_shared_lists(snap.model, snap.state)


# --- reset accounting ----------------------------------------------------------

SNAPSHOT_V1_48 = Path(__file__).parent / "data" / "snapshot_v1_48.json"


@pytest.fixture
def fired_resets(monkeypatch):
    """trace_reset wrapped through its module attribute, as the benchmark's tracer wraps it: one entry
    per call, True when the record it returns is not the record it was given. After a channel_update
    the learner calls it only when it fires; after a batch solve it always calls it."""
    fired, real = [], recursive_learner.trace_reset

    def traced(*args):
        out = real(*args)
        fired.append(out is not args[0])
        return out

    monkeypatch.setattr(recursive_learner, "trace_reset", traced)
    return fired


def feed(learner, steps, anchor):
    """One-step instances on calendar types 1 and 2 in turn, type c anchored at anchor(c, rng). The
    observations never excite their third regressor, so the observation channels' trace grows."""
    rng = np.random.default_rng(43)
    for t in range(steps):
        c = 1 + t % 2
        instance = InstanceVector(anchor(c, rng), ((1.0, float(rng.normal()), 0.0),), (c,), t)
        learner.learn_step(instance, [float(rng.normal(1.0, 0.5))])


def noisy_load(c, rng):
    return float(rng.normal(1.0, 0.5))


def test_a_zero_init_learner_counts_every_reset_that_fires(fired_resets):
    learner = OnlineLearner(HyperParams(horizon=1))
    feed(learner, 200, noisy_load)
    assert fired_resets and all(fired_resets) and learner.diagnostics.trace_resets == len(fired_resets)
    assert learner.diagnostics.batch_init_fallbacks == 0


def test_a_batch_learner_counts_the_resets_of_its_solves_its_fallback_replay_and_its_live_updates(fired_resets):
    # Type 1 is always anchored at the same load, so its transition buffer never solves and is
    # replayed from the zero start once it is full; type 2's buffer solves at its second sample.
    learner = OnlineLearner(HyperParams(horizon=1), init_mode="batch")
    feed(learner, 4 * BATCH_INIT_MAX_BUFFER, lambda c, rng: 1.0 if c == 1 else noisy_load(c, rng))
    assert ("s", 1) not in learner.state.pending and ("s", 2) not in learner.state.pending
    assert sum(fired_resets) > 0 and learner.diagnostics.trace_resets == sum(fired_resets)
    assert learner.diagnostics.batch_init_fallbacks == 1


def test_a_resumed_learner_counts_the_resets_of_its_legacy_buffer_replays(fired_resets):
    # The v1 snapshot holds observation-channel buffers r:1 and r:2, which the learner replays as it
    # is built, each a counted fallback. At a trace threshold of 4, two of the replay's eight resets
    # fire; at the snapshot's own 10, none would.
    snap = snapshot_load(SNAPSHOT_V1_48)
    assert snap.hp == HyperParams(horizon=4)
    hp = HyperParams(trace_reset_threshold=4.0, horizon=4)
    learner = OnlineLearner(hp, "batch", model=snap.model, state=snap.state)
    assert learner.state.pending == {} and fired_resets.count(True) == 2
    assert learner.diagnostics.trace_resets == 2
    feed(learner, 50, noisy_load)
    assert sum(fired_resets) > 0 and learner.diagnostics.trace_resets == sum(fired_resets)
    assert learner.diagnostics.batch_init_fallbacks == 2
