"""Shared test fixtures: feature encoders, random model builders, the discounted log-likelihood,
and the matrix form of the channel update."""

from __future__ import annotations

import math

import numpy as np

from aplf.model_types import GaussianChannelParams, LearnerState, ModelParams


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


class PassthroughEncoder:
    """Observations are already feature vectors; missing maps to [1, 0, ...]."""

    def __init__(self, r_dim=3):
        self.r_dim = r_dim

    def encode(self, obs):
        return np.asarray(obs, dtype=float)

    def missing(self):
        v = np.zeros(self.r_dim)
        v[0] = 1.0
        return v


class LinearObsEncoder:
    """Scalar observation o mapped to [1, o] (r_dim = 2)."""

    r_dim = 2

    def encode(self, obs):
        return np.array([1.0, float(obs)])

    def missing(self):
        return np.array([1.0, 0.0])


def random_model(rng, n_calendar_types, r_dim=3, sigma_range=(0.3, 2.5), slope_range=1.1):
    """Random well-posed model parameters for forecaster tests."""
    s_channels = []
    r_channels = []
    for _ in range(n_calendar_types):
        s_channels.append(
            GaussianChannelParams(
                eta=np.array([rng.normal(), rng.uniform(-slope_range, slope_range)]),
                sigma=float(rng.uniform(*sigma_range)),
            )
        )
        r_channels.append(
            GaussianChannelParams(
                eta=rng.normal(size=r_dim),
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
    """Learner state marking every calendar type of the model as trained."""
    state = LearnerState.initial(model.n_calendar_types, model.r_dim)
    for s in state.s_states:
        s.gamma = 1.0
    for s in state.r_states:
        s.gamma = 1.0
    return state
