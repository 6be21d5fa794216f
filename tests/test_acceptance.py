"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the measured worst case and
elapsed time, then asserts the stated tolerance and runtime budget.
"""

import gc
import math
import os
import time as time_mod
from datetime import datetime, timezone
from statistics import NormalDist

import mpmath
import numpy as np
import pytest

from helpers import (
    assert_grid_pinball,
    consistent_chain_steps,
    random_model,
    weighted_log_likelihood,
)

from aplf.forecaster import InstanceVector, predict
from aplf.harness import RunConfig, ingest_csv, run_online_evaluation
from aplf.metrics import evaluate_forecasts, mape, rmse
from aplf.model_types import ChannelState, GaussianChannelParams, HyperParams
from aplf.oracles import batch_ml_oracle, exact_filter_oracle, quadrature_filter_moments
from aplf.recursive_learner import OnlineLearner, SingularGram, batch_initialize, channel_update
from aplf.synthetic import make_hourly_series, write_series_csv

UTC = timezone.utc


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _exact_fit(samples, lam):
    """(state, params) of the exact weighted fit to samples: P = G^-1 by numpy, gamma, and
    (eta, sigma) from batch_ml_oracle, which raises SingularGram where the fit is ill-posed."""
    eta, sigma = batch_ml_oracle(samples, lam)
    u_mat = np.array([u for u, _ in samples])
    weights = lam ** np.arange(len(samples) - 1, -1, -1)
    p = np.linalg.inv((u_mat * weights[:, None]).T @ u_mat)
    return (ChannelState(P=((p + p.T) / 2.0).tolist(), gamma=float(weights.sum())),
            GaussianChannelParams(eta=eta.tolist(), sigma=sigma))


def test_recursion_matches_batch_oracle_at_every_step():
    # 200 random channels, K in {2,3}, forgetting factors over the full menu,
    # 5..200 samples: after exact initialization the recursive (eta, sigma)
    # must match the batch maximizer to 1e-8 relative at every i >= i0. A
    # K = 2 channel starts from batch_initialize, the transition channel's
    # solve; a K = 3 channel from the exact fit computed here.
    #
    # sigma carries an explicit cancellation allowance: its square is the
    # difference of weighted second moments, so at interpolation-degenerate
    # steps (sigma_true = 0 with near-collinear samples and large
    # coefficients) both routes compute zero plus float noise of order
    # eps * cond(H) * (sum w s^2 + |q| . |eta*|) / gamma. Healthy steps get
    # an extra allowance around 1e-11, leaving the 1e-8 bound in charge.
    start = time_mod.perf_counter()
    eps = np.finfo(float).eps
    rng = np.random.default_rng(101)
    lambdas = (0.2, 0.5, 0.7, 0.9, 0.99)
    worst_eta = 0.0
    worst_sigma_excess = 0.0
    compared = 0
    oracle_skips = 0
    for channel in range(200):
        k = 2 + channel % 2
        lam = lambdas[channel % len(lambdas)]
        n = int(rng.integers(5, 201))
        samples = [
            (np.concatenate([[1.0], rng.normal(size=k - 1)]), float(rng.normal(scale=2.0)))
            for _ in range(n)
        ]
        state = params = None
        i0 = None
        initialize = batch_initialize if k == 2 else _exact_fit
        for i in range(1, n + 1):
            try:
                state, params = initialize(samples[:i], lam)
                i0 = i
                break
            except SingularGram:
                continue
        if i0 is None:
            continue
        u_all = np.array([u for u, _ in samples])
        s_all = np.array([s for _, s in samples])
        for i in range(i0, n + 1):
            if i > i0:
                u, s = samples[i - 1]
                channel_update(state, params, u, s, lam)
            try:
                eta_star, sigma_star = batch_ml_oracle(samples[:i], lam)
            except SingularGram:
                oracle_skips += 1  # transient conditioning spike past i0
                continue
            worst_eta = max(
                worst_eta,
                float(np.max(np.abs(params.eta - eta_star))) / max(1.0, float(np.max(np.abs(eta_star)))),
            )
            weights = lam ** np.arange(i - 1, -1, -1)
            gamma = float(weights.sum())
            q = u_all[:i].T @ (weights * s_all[:i])
            gram = (u_all[:i] * weights[:, None]).T @ u_all[:i]
            m2 = (float(weights @ s_all[:i] ** 2) + float(np.abs(q) @ np.abs(eta_star))) / gamma
            delta = 8.0 * eps * float(np.linalg.cond(gram)) * m2
            sigma_tol = 1e-8 * max(1.0, sigma_star) + 2.0 * delta / (
                max(params.sigma, sigma_star) + math.sqrt(delta)
            )
            worst_sigma_excess = max(worst_sigma_excess, abs(params.sigma - sigma_star) / sigma_tol)
            compared += 1
    elapsed = time_mod.perf_counter() - start
    ok = (
        worst_eta <= 1e-8
        and worst_sigma_excess <= 1.0
        and elapsed < 10.0
        and compared > 5000
        and oracle_skips <= compared // 50
    )
    _criterion(
        "recursion-oracle-equivalence",
        ok,
        f"worst eta rel err {worst_eta:.3e}, worst sigma excess {worst_sigma_excess:.3f} "
        f"over {compared} steps, {oracle_skips} skipped, {elapsed:.1f}s",
    )


def test_zero_init_gap_is_bounded():
    # From zero initialization the log-likelihood gap to the maximizer is
    # bounded by pi * M^2 * ||eta*||^2 * lambda^i past the first
    # non-singular index. M is the largest sample density over the sweep;
    # steps with sigma* = 0 (exact interpolation) carry an unbounded
    # density and an infinite likelihood, so the bound is checked on the
    # steps where the maximizer is proper.
    start = time_mod.perf_counter()
    rng = np.random.default_rng(202)
    lambdas = (0.2, 0.5, 0.7, 0.9, 0.99)
    worst_violation = -math.inf
    checked = 0
    for instance in range(50):
        lam = lambdas[instance % len(lambdas)]
        n = int(rng.integers(40, 91))
        samples = [
            (np.array([1.0, rng.normal()]), float(rng.normal(scale=1.5)))
            for _ in range(n)
        ]
        state = ChannelState.identity(2)
        params = GaussianChannelParams.zeros(2)
        per_step = []
        for i in range(1, n + 1):
            u, s = samples[i - 1]
            channel_update(state, params, u, s, lam)
            per_step.append((params.eta.copy(), params.sigma))
        solutions = {}
        m_density = 0.0
        i0 = None
        for i in range(1, n + 1):
            try:
                eta_star, sigma_star = batch_ml_oracle(samples[:i], lam)
            except SingularGram:
                continue
            if i0 is None:
                i0 = i
            if sigma_star <= 1e-12:
                continue
            u_mat = np.array([u for u, _ in samples[:i]])
            s_vec = np.array([s for _, s in samples[:i]])
            resid = s_vec - u_mat @ eta_star
            dens = np.exp(-0.5 * (resid / sigma_star) ** 2) / (sigma_star * math.sqrt(2 * math.pi))
            m_density = max(m_density, float(dens.max()))
            solutions[i] = (eta_star, sigma_star)
        for i, (eta_star, sigma_star) in solutions.items():
            eta_hat, sigma_hat = per_step[i - 1]
            if sigma_hat <= 0.0:
                continue
            l_star = weighted_log_likelihood(samples[:i], eta_star, sigma_star, lam)
            l_hat = weighted_log_likelihood(samples[:i], eta_hat, sigma_hat, lam)
            gap = l_star - l_hat
            bound = math.pi * m_density**2 * float(eta_star @ eta_star) * lam**i
            atol = 1e-9 * (1.0 + abs(l_star))
            assert gap >= -atol, f"oracle beaten at i={i}: gap={gap}"
            worst_violation = max(worst_violation, gap - bound - atol)
            checked += 1
    elapsed = time_mod.perf_counter() - start
    ok = worst_violation <= 0.0 and elapsed < 10.0 and checked > 1500
    _criterion(
        "near-optimality-bound",
        ok,
        f"worst (gap - bound) {worst_violation:.3e} over {checked} steps, {elapsed:.1f}s",
    )


def test_forecaster_equals_exact_filtering():
    # 500 random (params, L <= 24) instances: predict must match the
    # sequential-conditioning oracle to 1e-9 at every horizon; the oracle
    # itself must match quadrature to 1e-6 on 20 instances.
    start = time_mod.perf_counter()
    rng = np.random.default_rng(303)
    worst_predict = 0.0
    for _ in range(500):
        model = random_model(rng)
        horizon = int(rng.integers(1, 25))
        u_vectors = [rng.normal(size=3) for _ in range(horizon)]
        anchor = float(rng.normal(scale=2.0))
        types = [(i % 6) + 1 for i in range(1, horizon + 1)]
        instance = InstanceVector(anchor_load=anchor, observations=tuple(u_vectors), types=types, t=0)
        path = predict(model, instance)
        steps = [(model.s_channels[c - 1], model.r_channels[c - 1], u) for c, u in zip(types, u_vectors)]
        expected = exact_filter_oracle(anchor, steps)
        for mean, std, (m, s) in zip(path.mean, path.std, expected):
            worst_predict = max(
                worst_predict,
                abs(mean - m) / max(1.0, abs(m)),
                abs(std - s) / max(1.0, s),
            )

    worst_quad = 0.0
    for _ in range(20):
        anchor = float(rng.normal())
        steps = consistent_chain_steps(rng, 10, anchor)
        exact = exact_filter_oracle(anchor, steps)
        quad = quadrature_filter_moments(anchor, steps)
        for (m1, s1), (m2, s2) in zip(exact, quad):
            worst_quad = max(
                worst_quad,
                abs(m1 - m2) / max(1.0, abs(m1)),
                abs(s1 - s2) / max(1.0, s1),
            )
    elapsed = time_mod.perf_counter() - start
    ok = worst_predict <= 1e-9 and worst_quad <= 1e-6 and elapsed < 30.0
    _criterion(
        "filter-equivalence",
        ok,
        f"predict vs oracle {worst_predict:.3e}, oracle vs quadrature {worst_quad:.3e}, {elapsed:.1f}s",
    )


def test_calibration_soundness_on_model_generated_data():
    # Data generated exactly from the two-channel model: a random-walk load
    # chain and a noisy load copy as the observation (u_r = [1, o, 0]); the
    # forward recursion is then the true conditional law, so a converged
    # run must be calibrated to within binomial tolerance over 1e5 points.
    # The third regressor is always 0, so its row of P stays decoupled, but
    # its diagonal entry grows by 1/lam per step: with no trace reset the
    # learner runs exactly as one on the two regressors (1, o) would.
    start = time_mod.perf_counter()
    rng = np.random.default_rng(404)
    lam = 0.9995
    horizon = 5
    hp = HyperParams(horizon=horizon, lambda_s=lam, lambda_r=lam, trace_reset_threshold=math.inf)
    learner = OnlineLearner(hp)

    load = 0.0
    t = 0
    for _ in range(20_000):
        nxt = load + float(rng.normal())
        obs = nxt + float(rng.normal())
        learner.learn_step(InstanceVector(anchor_load=load, observations=((1.0, obs, 0.0),), types=(1,), t=t), [nxt])
        load = nxt
        t += 1

    s_ch = learner.model.s_channels[0]
    r_ch = learner.model.r_channels[0]
    assert abs(s_ch.eta[1] - 1.0) < 0.05 and abs(s_ch.sigma - 1.0) < 0.1
    assert abs(r_ch.eta[1] - 1.0) < 0.05 and abs(r_ch.sigma - 1.0) < 0.1

    actual, mean, std = [], [], []
    n_instances = 20_000
    for _ in range(n_instances):
        futures = []
        observations = []
        cur = load
        for _ in range(horizon):
            cur = cur + float(rng.normal())
            futures.append(cur)
            observations.append((1.0, cur + float(rng.normal()), 0.0))
        instance = InstanceVector(anchor_load=load, observations=tuple(observations), types=(1,) * horizon, t=t)
        path = predict(learner.model, instance, state=learner.state)
        actual.extend(futures)
        mean.extend(path.mean)
        std.extend(path.std)
        learner.learn_step(instance, futures)
        load = futures[-1]
        t += horizon

    ece = evaluate_forecasts(actual, mean, std).ece
    elapsed = time_mod.perf_counter() - start
    ok = ece < 0.02 and len(actual) == n_instances * horizon and elapsed < 60.0
    _criterion(
        "calibration-soundness",
        ok,
        f"ece {ece:.4f} over {len(actual)} forecast points, {elapsed:.1f}s",
    )


@pytest.mark.xfail(strict=True, reason="forecasts at the paper defaults are overconfident: ECE 0.105, "
                                        "90% central coverage 0.30-0.75 per horizon step")
def test_calibration_at_the_paper_defaults(tmp_path):
    # The 60-day pattern-switch series at lambda_s = 0.2, lambda_r = 0.7:
    # ECE at most 0.05, and at every horizon step at least 80% of actual
    # loads inside the central 90% interval. The forecasts miss both today.
    path = tmp_path / "series.csv"
    write_series_csv(path, make_hourly_series(60, switch_day=30, seed=0))
    config = RunConfig(hp=HyperParams(), load_unit="GW", train_end=datetime(2021, 3, 21, tzinfo=UTC))
    series, _ = ingest_csv(path, config)
    result = run_online_evaluation(series, config)
    assert result.report.n_points == 948
    z90 = NormalDist().inv_cdf(0.95)
    anchor_hour = config.prediction_time.hour
    inside: dict[int, list[bool]] = {}
    for t, a, m, s in zip(result.t, result.actual, result.mean, result.std):
        inside.setdefault((t - anchor_hour - 1) % 24 + 1, []).append(abs(a - m) <= z90 * s)
    coverage = {h: sum(hits) / len(hits) for h, hits in sorted(inside.items())}
    pooled = sum(map(sum, inside.values())) / result.report.n_points
    ok = result.report.ece <= 0.05 and min(coverage.values()) >= 0.8
    _criterion(
        "calibration-at-paper-defaults",
        ok,
        f"ece {result.report.ece:.3f}, pooled 90% coverage {pooled:.2f}, per horizon step "
        f"{min(coverage.values()):.2f}..{max(coverage.values()):.2f}",
    )


def test_adaptation_to_a_pattern_switch(tmp_path):
    # Mid-test consumption-pattern switch: the online run must cut the
    # frozen-model ablation's post-switch RMSE by more than a factor of 4
    # over the last third of the test span.
    start = time_mod.perf_counter()
    rows = make_hourly_series(100, switch_day=50, noise=0.01, seed=7)
    path = tmp_path / "switch.csv"
    write_series_csv(path, rows)
    config = RunConfig(hp=HyperParams(), load_unit="GW",
                       train_end=datetime(2021, 3, 31, tzinfo=UTC))
    series, _ = ingest_csv(path, config)

    online = run_online_evaluation(series, config)
    frozen = run_online_evaluation(series, config, frozen_after=config.train_end)

    base, step = series.start, series.step
    test_start = config.train_end
    test_finish = base + series.index[-1] * step
    last_third = test_finish - (test_finish - test_start) / 3

    def tail_rmse(result):
        tail = [i for i, t in enumerate(result.t) if base + t * step >= last_third]
        return rmse([result.actual[i] for i in tail], [result.mean[i] for i in tail])

    online_rmse = tail_rmse(online)
    frozen_rmse = tail_rmse(frozen)
    elapsed = time_mod.perf_counter() - start
    ok = online_rmse < 0.25 * frozen_rmse and elapsed < 30.0
    _criterion(
        "adaptation",
        ok,
        f"online tail rmse {online_rmse:.4f} vs frozen {frozen_rmse:.4f} "
        f"(ratio {online_rmse / frozen_rmse:.3f}), {elapsed:.1f}s",
    )


def test_learn_step_time_is_constant_over_a_long_run():
    # 1e5 learn steps: the mean per-step time over the final decile must
    # stay within 2x of the first decile (no growth with history length).
    rng = np.random.default_rng(606)
    hp = HyperParams(horizon=1)
    learner = OnlineLearner(hp)
    n_steps = 100_000
    timings = np.empty(n_steps)
    load = 0.0
    observations_pool = [np.array([1.0, rng.normal(), rng.normal()]) for _ in range(64)]
    targets_pool = rng.normal(size=n_steps).cumsum()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for step in range(n_steps):
            instance = InstanceVector(
                anchor_load=load, observations=(observations_pool[step % 64],), types=((step + 1) % 4 + 1,), t=step
            )
            target = float(targets_pool[step])
            tic = time_mod.perf_counter()
            learner.learn_step(instance, [target])
            timings[step] = time_mod.perf_counter() - tic
            load = target
    finally:
        if gc_was_enabled:
            gc.enable()
    decile = n_steps // 10
    first = float(timings[:decile].mean())
    final = float(timings[-decile:].mean())
    ok = final <= 2.0 * first
    _criterion(
        "complexity",
        ok,
        f"first decile {first * 1e6:.1f}us/step, final decile {final * 1e6:.1f}us/step "
        f"(ratio {final / first:.2f}) over {n_steps} steps",
    )


def test_metric_identities():
    rng = np.random.default_rng(707)
    # The scorer's per-sample pinball is the scalar definition averaged
    # over the grid, up to rounding; for a point forecast that is half the
    # absolute error, as the grid is symmetric about the median.
    actual = rng.normal(scale=10.0, size=1000).tolist()
    mean = rng.normal(scale=10.0, size=1000).tolist()
    for s, s_hat in zip(actual, mean):
        loss = evaluate_forecasts([s], [s_hat], [0.0]).mean_pinball
        assert_grid_pinball(loss, s, s_hat, 0.0)
        assert math.isclose(loss, abs(s - s_hat) / 2.0, rel_tol=1e-14)

    # Coverage is monotone in q for random forecast sets.
    for _ in range(20):
        rows = [(float(rng.normal(scale=3.0)), float(rng.normal()), float(rng.uniform(0.1, 3.0))) for _ in range(200)]
        curve = evaluate_forecasts(*zip(*rows)).calibration_curve
        coverages = [c for _, c in curve]
        assert all(a <= b for a, b in zip(coverages, coverages[1:]))

    # RMSE and MAPE agree with 50-digit reference accumulations.
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(10):
            pairs = [(float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 5.0))) for _ in range(500)]
            ref_rmse = float(mpmath.sqrt(
                mpmath.fsum((mpmath.mpf(s) - mpmath.mpf(sh)) ** 2 for s, sh in pairs) / len(pairs)))
            ref_mape = float(100 * mpmath.fsum(
                abs(mpmath.mpf(s) - mpmath.mpf(sh)) / mpmath.mpf(s) for s, sh in pairs) / len(pairs))
            value, _ = mape(*zip(*pairs))
            worst = max(worst, abs(rmse(*zip(*pairs)) - ref_rmse) / ref_rmse, abs(value - ref_mape) / ref_mape)
    ok = worst <= 1e-12
    _criterion("metric-identities", ok, f"worst rel deviation from reference {worst:.3e}")


@pytest.mark.skipif("APLF_DATASET_CSV" not in os.environ,
                    reason="set APLF_DATASET_CSV to a GEFCom2014-format csv to enable")
def test_dataset_replay_end_to_end():
    # Optional replay on a user-supplied dataset: the run must complete and
    # produce a monotone calibration curve; no numeric target is asserted.
    path = os.environ["APLF_DATASET_CSV"]
    config = RunConfig(hp=HyperParams(), load_unit=os.environ.get("APLF_LOAD_UNIT", "MW"))
    series, gaps = ingest_csv(path, config)
    span = series.index[-1] * series.step
    config.train_end = series.start + span * 3 / 5
    result = run_online_evaluation(series, config, gaps=gaps)
    assert result.report is not None
    coverages = [c for _, c in result.report.calibration_curve]
    ok = all(a <= b for a, b in zip(coverages, coverages[1:]))
    _criterion(
        "dataset-replay",
        ok,
        f"mean pinball {result.report.mean_pinball:.4f} {config.load_unit}, "
        f"ece {result.report.ece:.3f}, {result.report.n_points} points",
    )
