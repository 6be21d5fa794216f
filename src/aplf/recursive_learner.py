"""Recursive exponentially weighted maximum-likelihood channel updates.

Each channel maximizes a geometrically discounted Gaussian log-likelihood
over the samples of one calendar type. The update is O(1) per sample: a
rank-1 refresh of the inverse weighted Gram matrix P, the weight sum
gamma, the standard deviation, and the coefficients, in that order. From
a zero start (eta = 0, P = I, gamma = 0) the parameters approach the
batch maximizer at a geometric rate; initialized from a batch solve over
an initial window they track it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import ObservationVector, TemperatureTracker
from .model_types import (
    GaussianChannelParams,
    ChannelState,
    HyperParams,
    LearnerState,
    ModelParams,
)

__all__ = [
    "DegenerateUpdate",
    "SingularGram",
    "LearnDiagnostics",
    "OnlineLearner",
    "batch_initialize",
    "channel_update",
    "trace_reset",
    "GRAM_CONDITION_LIMIT",
]

# A weighted Gram matrix above this condition number is treated as singular.
GRAM_CONDITION_LIMIT = 1e12

# Samples buffered per channel before batch initialization gives up and
# falls back to a zero-initialized replay.
BATCH_INIT_MAX_BUFFER = 32


class DegenerateUpdate(Exception):
    """The gain denominator was non-positive; the channel state is corrupted."""


class SingularGram(Exception):
    """The weighted Gram matrix is singular or too ill-conditioned to invert."""


@dataclass
class LearnDiagnostics:
    """Counters surfaced in run reports."""

    sigma_clamps: int = 0
    trace_resets: int = 0
    batch_init_fallbacks: int = 0


def channel_update(
    state: ChannelState,
    params: GaussianChannelParams,
    u: np.ndarray,
    s: float,
    lam: float,
    diagnostics: LearnDiagnostics | None = None,
) -> tuple[ChannelState, GaussianChannelParams]:
    """One recursive update of a channel from sample (u, s).

    Order matches the learning algorithm: P, gamma, sigma, eta. sigma and
    eta consume the pre-update eta together with the post-update P and
    gamma; the shared gain P_new @ u equals P_old @ u / (lam + u' P_old u),
    so it is computed once from the pre-update quantities. A negative
    sigma radicand (finite-precision only) is clamped to 0 and counted.
    """
    u = np.asarray(u, dtype=float)
    pu = state.P @ u
    gain_denom = lam + float(u @ pu)
    if gain_denom <= 0.0:
        raise DegenerateUpdate(f"non-positive gain denominator {gain_denom}")

    p_new = (state.P - np.outer(pu, pu) / gain_denom) / lam
    p_new = (p_new + p_new.T) / 2.0  # rank-1 updates drift off symmetric
    gamma_new = 1.0 + lam * state.gamma

    innovation = s - float(u @ params.eta)
    radicand = params.sigma**2 - (params.sigma**2 - lam * innovation**2 / gain_denom) / gamma_new
    if radicand < 0.0:
        if diagnostics is not None:
            diagnostics.sigma_clamps += 1
        radicand = 0.0
    sigma_new = math.sqrt(radicand)
    eta_new = params.eta + pu * (innovation / gain_denom)

    return ChannelState(P=p_new, gamma=gamma_new), GaussianChannelParams(eta=eta_new, sigma=sigma_new)


def trace_reset(state: ChannelState, hp: HyperParams) -> ChannelState:
    """Reset P to the identity when its trace exceeds the threshold.

    gamma is preserved; the same object is returned when no reset fires.
    """
    if float(np.trace(state.P)) > hp.trace_reset_threshold:
        return ChannelState(P=np.eye(state.P.shape[0]), gamma=state.gamma)
    return state


def batch_initialize(
    samples: list[tuple[np.ndarray, float]], lam: float
) -> tuple[ChannelState, GaussianChannelParams]:
    """Exact batch solve of the weighted maximum-likelihood problem.

    Returns (state, params) such that continuing with channel_update
    reproduces the batch maximizer at every later step. Raises
    SingularGram when the weighted Gram matrix has condition number at or
    above GRAM_CONDITION_LIMIT.
    """
    n = len(samples)
    if n == 0:
        raise SingularGram("no samples")
    u_mat = np.array([np.asarray(u, dtype=float) for u, _ in samples])
    s_vec = np.array([s for _, s in samples], dtype=float)
    weights = lam ** np.arange(n - 1, -1, -1, dtype=float)

    gram = (u_mat * weights[:, None]).T @ u_mat
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) >= GRAM_CONDITION_LIMIT:
        raise SingularGram(f"weighted Gram condition number above {GRAM_CONDITION_LIMIT:g}")

    q = u_mat.T @ (weights * s_vec)
    eta = np.linalg.solve(gram, q)
    gamma = float(weights.sum())
    p = np.linalg.inv(gram)
    p = (p + p.T) / 2.0
    radicand = (float(weights @ s_vec**2) - float(q @ eta)) / gamma
    sigma = math.sqrt(max(radicand, 0.0))
    return ChannelState(P=p, gamma=gamma), GaussianChannelParams(eta=eta, sigma=sigma)


class OnlineLearner:
    """Single-writer owner of the model, state, and temperature tracker.

    Exactly one logical thread calls learn_step. calendar_fn maps an
    absolute step index to a calendar type in 1..n_calendar_types.
    """

    def __init__(
        self,
        hp: HyperParams,
        encoder,
        calendar_fn=None,
        sigma0: float = 1.0,
        init_mode: str = "zero",
    ):
        if init_mode not in ("zero", "batch"):
            raise ValueError(f"init_mode must be 'zero' or 'batch', got {init_mode!r}")
        if calendar_fn is None:
            if hp.n_calendar_types != 1:
                raise ValueError("calendar_fn is required when n_calendar_types > 1")
            calendar_fn = lambda t: 1
        self.hp = hp
        self.encoder = encoder
        self.calendar_fn = calendar_fn
        self.sigma0 = float(sigma0)
        self.model = ModelParams.initial(hp.n_calendar_types, encoder.r_dim, sigma0)
        self.state = LearnerState.initial(hp.n_calendar_types, encoder.r_dim)
        self.tracker = TemperatureTracker(hp.n_calendar_types)
        self.diagnostics = LearnDiagnostics()
        self._pending: dict[tuple[str, int], list[tuple[np.ndarray, float]]] = {}
        if init_mode == "batch":
            for c in range(1, hp.n_calendar_types + 1):
                self._pending[("s", c)] = []
                self._pending[("r", c)] = []

    def learn_step(self, instance, targets) -> None:
        """Consume one (instance, targets) pair.

        instance carries the anchoring load and one observation slot per
        step; targets carries the revealed loads (None for gaps). Each
        step updates the transition channel from the actual previous
        load, the observation channel from the encoded observation, and
        the temperature tracker from the raw temperature.
        """
        if len(targets) != len(instance.observations):
            raise ValueError("targets and observations must have equal length")
        prev = instance.anchor_load
        for i, (obs, target) in enumerate(zip(instance.observations, targets), start=1):
            c = self.calendar_fn(instance.t + i)
            if target is not None:
                if prev is not None:
                    u_s = np.array([1.0, prev])
                    self._update_channel("s", c, u_s, target, self.hp.lambda_s)
                if obs is not None:
                    u_r = self.encoder.encode(obs)
                    self._update_channel("r", c, u_r, target, self.hp.lambda_r)
            if isinstance(obs, ObservationVector):
                self.tracker.add(c, obs.w)
            prev = target

    @property
    def pending_batch(self) -> dict:
        """Per-channel sample buffers still awaiting batch initialization."""
        return self._pending

    def restore(self, model: ModelParams, state: LearnerState, tracker: TemperatureTracker,
                pending: dict | None = None) -> None:
        self.model = model
        self.state = state
        self.tracker = tracker
        self._pending = pending if pending is not None else {}

    def _update_channel(self, kind: str, c: int, u: np.ndarray, s_value: float, lam: float) -> None:
        params = self.model.s_channels if kind == "s" else self.model.r_channels
        states = self.state.s_states if kind == "s" else self.state.r_states
        idx = c - 1

        key = (kind, c)
        buf = self._pending.get(key)
        if buf is not None:
            buf.append((u, s_value))
            try:
                new_state, new_params = batch_initialize(buf, lam)
            except SingularGram:
                if len(buf) < BATCH_INIT_MAX_BUFFER:
                    return
                # Give up on batch initialization: replay the buffer from
                # the zero start so no sample is lost.
                new_state = ChannelState.identity(len(u))
                new_params = GaussianChannelParams.zeros(len(u), self.sigma0)
                for u_j, s_j in buf:
                    new_state, new_params = channel_update(
                        new_state, new_params, u_j, s_j, lam, self.diagnostics
                    )
                    new_state = self._apply_trace_reset(new_state)
                self.diagnostics.batch_init_fallbacks += 1
            del self._pending[key]
            states[idx] = self._apply_trace_reset(new_state)
            params[idx] = new_params
            return

        new_state, new_params = channel_update(states[idx], params[idx], u, s_value, lam, self.diagnostics)
        states[idx] = self._apply_trace_reset(new_state)
        params[idx] = new_params

    def _apply_trace_reset(self, state: ChannelState) -> ChannelState:
        after = trace_reset(state, self.hp)
        if after is not state:
            self.diagnostics.trace_resets += 1
        return after
