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
from collections.abc import Sequence
from math import isfinite

from .model_types import (CALENDAR_TYPES, GaussianChannelParams, ChannelState, HyperParams, LearnerState, ModelParams,
                          NumericError, S_DIM, _Record)

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


class DegenerateUpdate(NumericError):
    """The gain denominator was non-positive, or the update produced a non-finite value."""


class SingularGram(NumericError):
    """The weighted Gram matrix is singular or too ill-conditioned to invert."""


class LearnDiagnostics(_Record):
    """Counters surfaced in run reports, each kept where it happens: sigma_clamps by
    channel_update, trace_resets by trace_reset, batch_init_fallbacks by the learner."""

    __slots__ = _fields = ("sigma_clamps", "trace_resets", "batch_init_fallbacks")

    def __init__(self, sigma_clamps: int = 0, trace_resets: int = 0, batch_init_fallbacks: int = 0):
        self.sigma_clamps, self.trace_resets = sigma_clamps, trace_resets
        self.batch_init_fallbacks = batch_init_fallbacks


def channel_update(
    state: ChannelState,
    params: GaussianChannelParams,
    u: Sequence[float],
    s: float,
    lam: float,
    diagnostics: LearnDiagnostics,
) -> float:
    """One recursive update of a channel from sample (u, s), in place; returns trace(P_new).

    u is any sequence of K = 2 or K = 3 floats, the model's two channel
    shapes. Order matches the learning algorithm: P, gamma, sigma, eta.
    sigma and eta consume the pre-update eta together with the post-update
    P and gamma; the shared gain P_new u equals P_old u / (lam + u' P_old u),
    so it is computed once from the pre-update quantities. The update is
    written out in closed form on the upper triangle of the symmetric P,
    which is all that ChannelState keeps. A negative sigma radicand
    (finite-precision only) is clamped to 0 and counted. A gain
    denominator that is not a positive finite number, or a new P entry,
    eta or sigma that is not finite, raises DegenerateUpdate.

    The new P tuple, gamma, eta and sigma are written into state and
    params, the eta list element by element. Every new value is computed
    and checked before any is written, so a DegenerateUpdate leaves the
    channel as it was. The returned trace is summed as trace_reset sums
    it, so the caller needs trace_reset only when it exceeds the threshold.
    """
    k, eta = len(u), params.eta
    if k == 2:
        u0, u1 = u
        p00, p01, p11 = state.P
        eta0, eta1 = eta
        pu0 = p00 * u0 + p01 * u1
        pu1 = p01 * u0 + p11 * u1
        gain_denom = lam + (u0 * pu0 + u1 * pu1)
        if not 0.0 < gain_denom < math.inf:
            raise DegenerateUpdate(f"gain denominator {gain_denom} is not a positive finite number")
        q00 = (p00 - pu0 * pu0 / gain_denom) / lam
        q01 = (p01 - pu0 * pu1 / gain_denom) / lam
        q11 = (p11 - pu1 * pu1 / gain_denom) / lam
        innovation = s - (u0 * eta0 + u1 * eta1)
        g = innovation / gain_denom
        e0, e1 = eta0 + pu0 * g, eta1 + pu1 * g
        p_new, trace = (q00, q01, q11), q00 + q11
        total = q00 + q01 + q11 + e0 + e1
    elif k == 3:
        u0, u1, u2 = u
        p00, p01, p02, p11, p12, p22 = state.P
        eta0, eta1, eta2 = eta
        pu0 = p00 * u0 + p01 * u1 + p02 * u2
        pu1 = p01 * u0 + p11 * u1 + p12 * u2
        pu2 = p02 * u0 + p12 * u1 + p22 * u2
        gain_denom = lam + (u0 * pu0 + u1 * pu1 + u2 * pu2)
        if not 0.0 < gain_denom < math.inf:
            raise DegenerateUpdate(f"gain denominator {gain_denom} is not a positive finite number")
        q00 = (p00 - pu0 * pu0 / gain_denom) / lam
        q01 = (p01 - pu0 * pu1 / gain_denom) / lam
        q02 = (p02 - pu0 * pu2 / gain_denom) / lam
        q11 = (p11 - pu1 * pu1 / gain_denom) / lam
        q12 = (p12 - pu1 * pu2 / gain_denom) / lam
        q22 = (p22 - pu2 * pu2 / gain_denom) / lam
        innovation = s - (u0 * eta0 + u1 * eta1 + u2 * eta2)
        g = innovation / gain_denom
        e0, e1, e2 = eta0 + pu0 * g, eta1 + pu1 * g, eta2 + pu2 * g
        p_new, trace = (q00, q01, q02, q11, q12, q22), q00 + q11 + q22
        total = q00 + q01 + q02 + q11 + q12 + q22 + e0 + e1 + e2
    else:
        raise ValueError(f"channel_update supports K = 2 or 3 regressors, got {k}")

    gamma_new = 1.0 + lam * state.gamma
    sigma2 = params.sigma * params.sigma
    radicand = sigma2 - (sigma2 - lam * (innovation * innovation) / gain_denom) / gamma_new
    if radicand < 0.0:
        diagnostics.sigma_clamps += 1
        radicand = 0.0
    sigma_new = math.sqrt(radicand)
    # A finite sum proves every new value finite; only an overflowing sum of
    # finite values needs the value-by-value check.
    if not isfinite(total + sigma_new):
        new = (*p_new, e0, e1) if k == 2 else (*p_new, e0, e1, e2)
        if not (isfinite(sigma_new) and all(map(isfinite, new))):
            raise DegenerateUpdate("update produced a non-finite P, eta or sigma")

    state.P = p_new
    eta[0] = e0
    eta[1] = e1
    if k == 3:
        eta[2] = e2
    state.gamma = gamma_new
    params.sigma = sigma_new
    return trace


def trace_reset(state: ChannelState, hp: HyperParams, diagnostics: LearnDiagnostics) -> ChannelState:
    """Reset P to the identity when its trace exceeds the threshold.

    A reset is counted and returns ChannelState.identity with gamma
    preserved, which the caller stores in place of the old record; the
    same object is returned when no reset fires. The trace is summed as
    channel_update sums the one it returns.
    """
    p = state.P
    trace = p[0] + p[2] if len(p) == 3 else p[0] + p[3] + p[5]
    if trace > hp.trace_reset_threshold:
        diagnostics.trace_resets += 1
        return ChannelState.identity(2 if len(p) == 3 else 3, state.gamma)
    return state


def batch_initialize(
    samples: list[tuple[tuple[float, ...], float]], lam: float
) -> tuple[ChannelState, GaussianChannelParams]:
    """Exact batch solve of the weighted maximum-likelihood problem of a transition channel.

    Returns (state, params) such that continuing with channel_update
    reproduces the batch maximizer at every later step. One pass over the
    buffer accumulates the weighted Gram matrix G (G <- lam G + u u'),
    q = sum w s u, sum w s^2 and gamma. P = G^-1 is the adjugate of G over
    its determinant, kept as its upper triangle, and eta = P q.
    Raises SingularGram when G is not finite, or unless its determinant is
    positive and its condition number is below GRAM_CONDITION_LIMIT. The
    larger eigenvalue comes from the quadratic formula, where nothing
    cancels, and the smaller from det / larger. A buffer with a regressor
    that is 0 in every sample, or of one sample (1, x), has a determinant
    of exactly 0; any other single sample one of rounding size, which the
    condition limit refuses. Only the transition channel's K = S_DIM = 2
    regressors are solved; any other K is a ValueError.
    """
    if not samples:
        raise SingularGram("no samples")
    k = len(samples[0][0])
    if k != S_DIM:
        raise ValueError(f"batch_initialize supports K = {S_DIM} regressors, got {k}")
    gamma = m2 = g00 = g01 = g11 = q0 = q1 = 0.0
    for (u0, u1), s in samples:
        g00 = lam * g00 + u0 * u0
        g01 = lam * g01 + u0 * u1
        g11 = lam * g11 + u1 * u1
        q0 = lam * q0 + s * u0
        q1 = lam * q1 + s * u1
        m2 = lam * m2 + s * s
        gamma = lam * gamma + 1.0
    if not (isfinite(g00) and isfinite(g01) and isfinite(g11)):
        raise SingularGram("weighted Gram matrix is not finite")
    det = g00 * g11 - g01 * g01
    largest = 0.5 * (g00 + g11) + math.hypot(0.5 * (g00 - g11), g01)
    if not (det > 0.0 and largest < GRAM_CONDITION_LIMIT * (det / largest)):
        raise SingularGram(f"weighted Gram matrix has det <= 0 or condition number >= {GRAM_CONDITION_LIMIT:g}")
    p00, p01, p11 = g11 / det, -g01 / det, g00 / det
    eta = [p00 * q0 + p01 * q1, p01 * q0 + p11 * q1]
    sigma = math.sqrt(max((m2 - (q0 * eta[0] + q1 * eta[1])) / gamma, 0.0))
    return ChannelState(P=(p00, p01, p11), gamma=gamma), GaussianChannelParams(eta=eta, sigma=sigma)


class OnlineLearner:
    """Single-writer owner of the model and learner state.

    Exactly one logical thread calls learn_step. A fresh learner starts
    every channel from zero or, with init_mode "batch", gives every
    transition channel a pending buffer in its state; observation channels
    always start from zero. A learner resumed from a snapshot takes the
    snapshot's model and state, pending buffers included, which it then
    owns; it builds no initial state, and init_mode is only validated. An
    observation-channel buffer, which only snapshots of earlier versions
    hold, is replayed from the zero start at once and counted as a
    fallback. model and state must both be given or neither, or ValueError.
    """

    def __init__(
        self,
        hp: HyperParams,
        init_mode: str = "zero",
        *,
        model: ModelParams | None = None,
        state: LearnerState | None = None,
    ):
        if init_mode not in ("zero", "batch"):
            raise ValueError(f"init_mode must be 'zero' or 'batch', got {init_mode!r}")
        self.hp = hp
        self.diagnostics = LearnDiagnostics()
        if model is None and state is None:
            self.model = ModelParams.initial()
            self.state = LearnerState.initial()
            if init_mode == "batch":
                self.state.pending = {("s", c): [] for c in range(1, CALENDAR_TYPES + 1)}
        elif model is None or state is None:
            raise ValueError("a resumed learner needs both model and state")
        else:
            self.model, self.state = model, state
            for _, c in [key for key in state.pending if key[0] == "r"]:
                self._replay("r", c, model.r_channels, state.r_states, hp.lambda_r)

    def learn_step(self, instance, targets) -> None:
        """Consume one (instance, targets) pair.

        instance carries the anchoring load and, per step, one encoded
        observation (None if missing) and its calendar type; targets
        carries the revealed loads (None for gaps). Each step with a
        revealed load updates its calendar type's observation channel from
        the encoded observation and then its transition channel from the
        actual previous load, where each is known. A live channel takes a
        channel_update, then a trace_reset if the returned trace exceeds the
        threshold, keeping its record; a transition channel still awaiting
        batch initialization goes through _learn instead.
        Targets, types and observations of unequal length raise ValueError
        before any channel changes. A calendar type outside
        1..CALENDAR_TYPES raises IndexError, and an observation of other
        than R_DIM floats raises ValueError, before that step's channels
        change.
        """
        observations, types = instance.observations, instance.types
        if not len(targets) == len(types) == len(observations):
            raise ValueError(f"{len(targets)} targets, {len(types)} calendar types and "
                             f"{len(observations)} observations must be equally many")
        hp, diagnostics, pending = self.hp, self.diagnostics, self.state.pending
        lambda_s, lambda_r, threshold = hp.lambda_s, hp.lambda_r, hp.trace_reset_threshold
        s_params, r_params = self.model.s_channels, self.model.r_channels
        s_states, r_states = self.state.s_states, self.state.r_states
        prev = instance.anchor_load
        for obs, c, target in zip(observations, types, targets):
            if not 1 <= c <= CALENDAR_TYPES:
                raise IndexError(f"calendar type {c} outside 1..{CALENDAR_TYPES}")
            if target is not None:
                i = c - 1
                # The observation channel goes first: it alone can reject its
                # sample, and then neither channel of the step has changed.
                if obs is not None:
                    state = r_states[i]
                    if channel_update(state, r_params[i], obs, target, lambda_r, diagnostics) > threshold:
                        r_states[i] = trace_reset(state, hp, diagnostics)
                if prev is not None:
                    if pending and ("s", c) in pending:
                        self._learn(c, (1.0, prev), target)
                    else:
                        state = s_states[i]
                        if channel_update(state, s_params[i], (1.0, prev), target, lambda_s, diagnostics) > threshold:
                            s_states[i] = trace_reset(state, hp, diagnostics)
            prev = target

    def _learn(self, c: int, u: tuple[float, float], s: float) -> None:
        """Learn transition channel c, which awaits batch initialization, from sample (u, s).
        The sample is buffered, and the channel is initialized once its buffer is solvable,
        then takes a trace_reset; after BATCH_INIT_MAX_BUFFER unsolvable samples the
        buffer is replayed from the zero start."""
        i, pending, lam = c - 1, self.state.pending, self.hp.lambda_s
        params, states = self.model.s_channels, self.state.s_states
        buf = pending[("s", c)]
        buf.append((u, s))
        try:
            state, params[i] = batch_initialize(buf, lam)
        except SingularGram:
            if len(buf) >= BATCH_INIT_MAX_BUFFER:
                self._replay("s", c, params, states, lam)
            return
        del pending[("s", c)]
        states[i] = trace_reset(state, self.hp, self.diagnostics)

    def _replay(self, kind: str, c: int, params: list, states: list, lam: float) -> None:
        """Replace channel kind:c's pending buffer by a zero-start channel fed its samples in
        order, resetting the trace as learn_step does, and count a batch-init fallback.
        The replay's records are built locally and stored only once it has finished, so a
        DegenerateUpdate leaves the channel and its buffer as they were."""
        hp, diagnostics, buf = self.hp, self.diagnostics, self.state.pending[(kind, c)]
        k = len(params[c - 1].eta)
        state, fresh = ChannelState.identity(k), GaussianChannelParams.zeros(k)
        for u, s in buf:
            if channel_update(state, fresh, u, s, lam, diagnostics) > hp.trace_reset_threshold:
                state = trace_reset(state, hp, diagnostics)
        del self.state.pending[(kind, c)]
        params[c - 1], states[c - 1] = fresh, state
        diagnostics.batch_init_fallbacks += 1
