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
from dataclasses import dataclass
from math import isfinite

from .model_types import (
    CALENDAR_TYPES,
    GaussianChannelParams,
    ChannelState,
    HyperParams,
    LearnerState,
    ModelParams,
    S_DIM,
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
    """The gain denominator was non-positive, or the update produced a non-finite value."""


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
    u: Sequence[float],
    s: float,
    lam: float,
    diagnostics: LearnDiagnostics | None = None,
) -> None:
    """One recursive update of a channel from sample (u, s), in place.

    u is any sequence of K = 2 or K = 3 floats, the model's two channel
    shapes. Order matches the learning algorithm: P, gamma, sigma, eta.
    sigma and eta consume the pre-update eta together with the post-update
    P and gamma; the shared gain P_new u equals P_old u / (lam + u' P_old u),
    so it is computed once from the pre-update quantities. The update is
    written out in closed form on the upper triangle of the symmetric P,
    which is mirrored, so the new P is exactly symmetric. A negative sigma
    radicand (finite-precision only) is clamped to 0 and counted. A gain
    denominator that is not a positive finite number, or a new P entry,
    eta or sigma that is not finite, raises DegenerateUpdate.

    The new P, gamma, eta and sigma are written into state and params,
    whose P rows and eta list are updated element by element. Every new
    value is computed and checked before any is written, so a
    DegenerateUpdate leaves the channel as it was.
    """
    k = len(u)
    p, eta = state.P, params.eta
    if k == 2:
        u0, u1 = u
        row0, row1 = p
        p00, p01 = row0
        p11 = row1[1]
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
        finite = isfinite(q00) and isfinite(q01) and isfinite(q11) and isfinite(e0) and isfinite(e1)
    elif k == 3:
        u0, u1, u2 = u
        row0, row1, row2 = p
        p00, p01, p02 = row0
        _, p11, p12 = row1
        p22 = row2[2]
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
        finite = (isfinite(q00) and isfinite(q01) and isfinite(q02) and isfinite(q11) and isfinite(q12)
                  and isfinite(q22) and isfinite(e0) and isfinite(e1) and isfinite(e2))
    else:
        raise ValueError(f"channel_update supports K = 2 or 3 regressors, got {k}")

    gamma_new = 1.0 + lam * state.gamma
    sigma2 = params.sigma * params.sigma
    radicand = sigma2 - (sigma2 - lam * (innovation * innovation) / gain_denom) / gamma_new
    if radicand < 0.0:
        if diagnostics is not None:
            diagnostics.sigma_clamps += 1
        radicand = 0.0
    sigma_new = math.sqrt(radicand)
    if not (finite and isfinite(sigma_new)):
        raise DegenerateUpdate("update produced a non-finite P, eta or sigma")

    if k == 2:
        row0[0] = q00
        row0[1] = row1[0] = q01
        row1[1] = q11
        eta[0] = e0
        eta[1] = e1
    else:
        row0[0] = q00
        row0[1] = row1[0] = q01
        row0[2] = row2[0] = q02
        row1[1] = q11
        row1[2] = row2[1] = q12
        row2[2] = q22
        eta[0] = e0
        eta[1] = e1
        eta[2] = e2
    state.gamma = gamma_new
    params.sigma = sigma_new


def trace_reset(state: ChannelState, hp: HyperParams) -> ChannelState:
    """Reset P to the identity when its trace exceeds the threshold.

    A reset returns a fresh ChannelState, P = I with gamma preserved, which
    the caller stores in place of the old record; the same object is
    returned when no reset fires.
    """
    p = state.P
    k = len(p)
    if k == 2:
        trace = p[0][0] + p[1][1]
    else:
        trace = p[0][0] + p[1][1] + p[2][2]
    if trace > hp.trace_reset_threshold:
        return ChannelState.identity(k, state.gamma)
    return state


def batch_initialize(
    samples: list[tuple[tuple[float, ...], float]], lam: float
) -> tuple[ChannelState, GaussianChannelParams]:
    """Exact batch solve of the weighted maximum-likelihood problem of a transition channel.

    Returns (state, params) such that continuing with channel_update
    reproduces the batch maximizer at every later step. One pass over the
    buffer accumulates the weighted Gram matrix G (G <- lam G + u u'),
    q = sum w s u, sum w s^2 and gamma. P = G^-1 is the adjugate of G over
    its determinant, mirrored so it is exactly symmetric, and eta = P q.
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
    return ChannelState(P=[[p00, p01], [p01, p11]], gamma=gamma), GaussianChannelParams(eta=eta, sigma=sigma)


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
        actual previous load, where each is known. A transition channel
        still awaiting batch initialization buffers its sample instead.
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
        lambda_s, lambda_r = self.hp.lambda_s, self.hp.lambda_r
        s_params, r_params = self.model.s_channels, self.model.r_channels
        s_states, r_states = self.state.s_states, self.state.r_states
        learn = self._learn
        prev = instance.anchor_load
        for obs, c, target in zip(observations, types, targets):
            if not 1 <= c <= CALENDAR_TYPES:
                raise IndexError(f"calendar type {c} outside 1..{CALENDAR_TYPES}")
            if target is not None:
                # The observation channel goes first: it alone can reject its
                # sample, and then neither channel of the step has changed.
                if obs is not None:
                    learn("r", c, r_params, r_states, obs, target, lambda_r)
                if prev is not None:
                    learn("s", c, s_params, s_states, (1.0, prev), target, lambda_s)
            prev = target

    def _learn(self, kind: str, c: int, params: list, states: list, u: tuple[float, ...], s: float,
               lam: float) -> None:
        """Learn channel kind:c, whose records are params[c - 1] and states[c - 1], from
        sample (u, s). A live channel takes a channel_update. A channel awaiting batch
        initialization buffers the sample instead, and is initialized once its buffer is
        solvable; after BATCH_INIT_MAX_BUFFER unsolvable samples the buffer is replayed from
        the zero start. Either way a changed channel then takes a counted trace_reset."""
        i, pending = c - 1, self.state.pending
        if pending and (kind, c) in pending:
            buf = pending[(kind, c)]
            buf.append((u, s))
            try:
                state, params[i] = batch_initialize(buf, lam)
            except SingularGram:
                if len(buf) >= BATCH_INIT_MAX_BUFFER:
                    self._replay(kind, c, params, states, lam)
                return
            del pending[(kind, c)]
        else:
            state = states[i]
            channel_update(state, params[i], u, s, lam, self.diagnostics)
        after = trace_reset(state, self.hp)
        if after is not state:
            self.diagnostics.trace_resets += 1
        states[i] = after

    def _replay(self, kind: str, c: int, params: list, states: list, lam: float) -> None:
        """Replace channel kind:c's pending buffer by a zero-start channel fed its samples in
        order, each update followed by a counted trace_reset, and count a batch-init fallback.
        The replay's records are built locally and stored only once it has finished, so a
        DegenerateUpdate leaves the channel and its buffer as they were."""
        diagnostics, buf, k = self.diagnostics, self.state.pending[(kind, c)], len(states[c - 1].P)
        state, fresh = ChannelState.identity(k), GaussianChannelParams.zeros(k)
        for u, s in buf:
            channel_update(state, fresh, u, s, lam, diagnostics)
            after = trace_reset(state, self.hp)
            if after is not state:
                diagnostics.trace_resets += 1
                state = after
        del self.state.pending[(kind, c)]
        params[c - 1], states[c - 1] = fresh, state
        diagnostics.batch_init_fallbacks += 1
