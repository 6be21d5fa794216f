"""Shared test fixtures: random model builders, the discounted log-likelihood, the square and
flat forms of a channel's P, the matrix form of the channel update, agreement of a batch solve
with its oracle, a one-sample-at-a-time learn step, the scalar pinball loss, whole-table
quantile scoring, and the environment of a subprocess that imports the package from this
checkout."""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from aplf.metrics import QUANTILE_LEVELS, QUANTILE_Z
from aplf.model_types import CALENDAR_TYPES, R_DIM, ChannelState, GaussianChannelParams, LearnerState, ModelParams
from aplf.oracles import batch_ml_oracle
from aplf.recursive_learner import (
    BATCH_INIT_MAX_BUFFER,
    LearnDiagnostics,
    SingularGram,
    batch_initialize,
    channel_update,
    trace_reset,
)


class NonPositiveSigma(Exception):
    """Log-likelihood evaluation requires sigma > 0."""


def weighted_log_likelihood(samples, eta, sigma: float, lam: float) -> float:
    """Geometrically discounted Gaussian log-likelihood of (u, s) samples.

    The most recent sample has weight 1, the previous lam, and so on.
    Empty input sums to 0.
    """
    if sigma <= 0.0:
        raise NonPositiveSigma(f"sigma must be > 0, got {sigma}")
    n = len(samples)
    if n == 0:
        return 0.0
    eta = np.asarray(eta, dtype=float)
    inv_two_var = 1.0 / (2.0 * sigma * sigma)
    log_norm = math.log(sigma) + 0.5 * math.log(2.0 * math.pi)
    terms = []
    for j, (u, s) in enumerate(samples):
        resid = s - float(np.asarray(u, dtype=float) @ eta)
        terms.append(lam ** (n - 1 - j) * (-resid * resid * inv_two_var - log_norm))
    return math.fsum(terms)


def square(p) -> np.ndarray:
    """The K x K symmetric matrix whose upper triangle, row-major, is p: a ChannelState's P."""
    k = 2 if len(p) == 3 else 3
    m = np.zeros((k, k))
    m[np.triu_indices(k)] = p
    return m + np.triu(m, 1).T


def flatten(m) -> tuple[float, ...]:
    """The upper triangle, row-major, of the K x K matrix m as a tuple of floats: the P that
    ChannelState keeps for m."""
    m = np.asarray(m, dtype=float)
    return tuple(m[np.triu_indices(len(m))].tolist())


def reference_channel_update(p, gamma: float, eta, sigma: float, u, s: float, lam: float):
    """The channel update in numpy matrix form: (P, gamma, eta, sigma) after sample (u, s).

    The same algebra as recursive_learner.channel_update, written with
    matrix products and re-symmetrised by averaging P with its transpose.
    """
    p, eta, u = (np.asarray(x, dtype=float) for x in (p, eta, u))
    pu = p @ u
    gain_denom = lam + float(u @ pu)
    p_new = (p - np.outer(pu, pu) / gain_denom) / lam
    p_new = (p_new + p_new.T) / 2.0
    gamma_new = 1.0 + lam * gamma
    innovation = s - float(u @ eta)
    radicand = sigma**2 - (sigma**2 - lam * innovation**2 / gain_denom) / gamma_new
    return p_new, gamma_new, eta + pu * (innovation / gain_denom), math.sqrt(max(radicand, 0.0))


def assert_agrees_with_batch_oracle(state, params, samples, lam: float) -> None:
    """Assert that batch_initialize's (state, params) for samples is oracles.batch_ml_oracle's
    solution: eta, sigma and P G = I, each within a bound proportional to cond(G) * eps.

    The two routes sum G, q = sum w s u and sum w s^2 in different orders, so they differ by
    n * eps relative to the sums of absolute terms; a solve amplifies that by at most cond(G).
    sigma^2 is a difference of second moments, so its allowance is that of the acceptance
    criterion: delta = 8 n eps cond(G) (sum w s^2 + |q| . |eta*|) / gamma.
    """
    eta_star, sigma_star = batch_ml_oracle(samples, lam)
    n, eps = len(samples), np.finfo(float).eps
    u_mat = np.array([np.asarray(u, dtype=float) for u, _ in samples])
    s_vec = np.array([s for _, s in samples], dtype=float)
    weights = lam ** np.arange(n - 1, -1, -1, dtype=float)
    gram = (u_mat * weights[:, None]).T @ u_mat
    cond, inv_norm = float(np.linalg.cond(gram)), float(np.linalg.norm(np.linalg.inv(gram), 2))
    q_abs = np.abs(u_mat).T @ (weights * np.abs(s_vec))
    bound = 8.0 * n * eps
    eta_err = float(np.linalg.norm(np.asarray(params.eta) - eta_star))
    assert eta_err <= bound * (cond * float(np.linalg.norm(eta_star)) + inv_norm * float(np.linalg.norm(q_abs)))
    assert float(np.max(np.abs(square(state.P) @ gram - np.eye(len(gram))))) <= bound * cond
    q = u_mat.T @ (weights * s_vec)
    delta = bound * cond * (float(weights @ s_vec**2) + float(np.abs(q) @ np.abs(eta_star))) / state.gamma
    sigma_tol = 1e-12 * max(1.0, sigma_star)
    if delta > 0.0:
        sigma_tol += 2.0 * delta / (max(params.sigma, sigma_star) + math.sqrt(delta))
    assert abs(params.sigma - sigma_star) <= sigma_tol
    assert math.isclose(state.gamma, float(weights.sum()), rel_tol=bound)


def reference_learn_step(learner, instance, targets) -> None:
    """OnlineLearner.learn_step, one sample at a time on the learner's own model and state.

    Each revealed load gives the observation channel the sample (encoded observation, load)
    and the transition channel the sample ((1, previous load), load), where each is known,
    in that order. A sample either goes to the channel's batch buffer, while one is pending,
    or is fed to channel_update, which updates the channel's records in place, followed by
    trace_reset. A buffer that falls back is replayed the same way from the zero start.
    A reset is counted here when trace_reset returns a record other than its input, not by
    trace_reset's own counter, which is given a throwaway LearnDiagnostics.
    """
    hp, diagnostics, pending = learner.hp, learner.diagnostics, learner.state.pending
    channels = {"s": (learner.model.s_channels, learner.state.s_states, hp.lambda_s),
                "r": (learner.model.r_channels, learner.state.r_states, hp.lambda_r)}

    def reset(state):
        after = trace_reset(state, hp, LearnDiagnostics())
        if after is not state:
            diagnostics.trace_resets += 1
        return after

    prev = instance.anchor_load
    for obs, c, target in zip(instance.observations, instance.types, targets):
        samples = []
        if target is not None and obs is not None:
            samples.append(("r", obs))
        if target is not None and prev is not None:
            samples.append(("s", (1.0, prev)))
        for kind, u in samples:
            params, states, lam = channels[kind]
            if (kind, c) not in pending:
                channel_update(states[c - 1], params[c - 1], u, target, lam, diagnostics)
                states[c - 1] = reset(states[c - 1])
                continue
            buf = pending[(kind, c)]
            buf.append((u, target))
            try:
                state, params[c - 1] = batch_initialize(buf, lam)
                states[c - 1] = reset(state)
            except SingularGram:
                if len(buf) < BATCH_INIT_MAX_BUFFER:
                    continue
                state, fresh = ChannelState.identity(len(u)), GaussianChannelParams.zeros(len(u))
                for u_j, s_j in buf:
                    channel_update(state, fresh, u_j, s_j, lam, diagnostics)
                    state = reset(state)
                params[c - 1], states[c - 1] = fresh, state
                diagnostics.batch_init_fallbacks += 1
            del pending[(kind, c)]
        prev = target


def random_model(rng, sigma_range=(0.3, 2.5), slope_range=1.1):
    """Random well-posed model parameters of every calendar type for forecaster tests."""
    s_channels = []
    r_channels = []
    for _ in range(CALENDAR_TYPES):
        s_channels.append(
            GaussianChannelParams(
                eta=np.array([rng.normal(), rng.uniform(-slope_range, slope_range)]),
                sigma=float(rng.uniform(*sigma_range)),
            )
        )
        r_channels.append(
            GaussianChannelParams(
                eta=rng.normal(size=R_DIM),
                sigma=float(rng.uniform(*sigma_range)),
            )
        )
    return ModelParams(s_channels=s_channels, r_channels=r_channels)


def consistent_chain_steps(rng, length, anchor=0.0):
    """Random per-step channel parameters along a simulated load path.

    The observation-channel mean tracks the simulated trajectory (as in
    real operation, where observations are informative about the load), so
    grid quadrature keeps the posterior well inside a 6-sigma span.
    """
    steps = []
    x = float(anchor)
    for _ in range(length):
        s_params = GaussianChannelParams(
            eta=np.array([rng.normal(scale=0.5),
                          float(rng.uniform(0.2, 1.1)) * float(rng.choice([-1.0, 1.0]))]),
            sigma=float(rng.uniform(0.5, 2.0)),
        )
        sigma_r = float(rng.uniform(0.5, 2.0))
        x = float(s_params.eta[0] + s_params.eta[1] * x + rng.normal(scale=s_params.sigma))
        obs_value = x + float(rng.normal(scale=sigma_r))
        eta_r = np.array([rng.normal(scale=0.5),
                          float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))])
        u_r = np.array([1.0, (obs_value - eta_r[0]) / eta_r[1]])
        steps.append((s_params, GaussianChannelParams(eta=eta_r, sigma=sigma_r), u_r))
    return steps


def trained_state_like(model):
    """A learner state with every calendar type, so every type of the model, marked trained."""
    state = LearnerState.initial()
    for s in state.s_states:
        s.gamma = 1.0
    for s in state.r_states:
        s.gamma = 1.0
    return state


def pinball(s: float, s_hat_q: float, q: float) -> float:
    """Pinball loss of the q-quantile forecast s_hat_q against the actual s: the scalar definition."""
    if s >= s_hat_q:
        return q * (s - s_hat_q)
    return (1.0 - q) * (s_hat_q - s)


def grid_pinball(s: float, mean: float, std: float) -> float:
    """Mean pinball loss of the Gaussian forecast (mean, std) against s over QUANTILE_LEVELS.

    The scalar definition at each level's quantile mean + std * z, averaged by numpy.
    """
    return float(np.mean([pinball(s, mean + std * z, q) for q, z in zip(QUANTILE_LEVELS, QUANTILE_Z)]))


# aplf.metrics scores the grid pinball in closed form, so it equals grid_pinball
# up to rounding: within this fraction of the sample's pinball_error_scale.
PINBALL_REL_TOL = 1e-13


def pinball_error_scale(s: float, mean: float, std: float) -> float:
    """The distance |s - mean| plus the reach std * max|z| of the forecast's outermost quantile."""
    return abs(s - mean) + std * max(map(abs, QUANTILE_Z))


def assert_grid_pinball(loss: float, s: float, mean: float, std: float) -> None:
    """loss is grid_pinball(s, mean, std) within PINBALL_REL_TOL of the sample's error scale."""
    assert abs(loss - grid_pinball(s, mean, std)) <= PINBALL_REL_TOL * pinball_error_scale(s, mean, std)


def whole_table_scores(actual, mean, std):
    """Calibration curve, ECE and mean pinball of the (actual, mean, std) columns from one (N, 99) table.

    The per-level definitions, with every sample's quantiles held at once:
    a level covers a sample when its actual is at or below the quantile.
    """
    levels, z = np.array(QUANTILE_LEVELS), np.array(QUANTILE_Z)
    actual = np.array(actual, dtype=float)
    table = np.array(mean, dtype=float)[:, None] + np.array(std, dtype=float)[:, None] * z
    diff = actual[:, None] - table
    per_sample = (np.where(diff >= 0.0, levels, levels - 1.0) * diff).mean(axis=1)
    counts = (actual[:, None] <= table).sum(axis=0)
    curve = tuple((q, int(k) / len(actual)) for q, k in zip(QUANTILE_LEVELS, counts))
    ece = math.fsum(abs(q - c) for q, c in curve) / len(curve)
    return curve, ece, math.fsum(per_sample) / len(per_sample)


def src_path_env() -> dict:
    """os.environ with this checkout's src directory first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
