"""Self-consistency of the slow-path oracles."""

import math
import re

import numpy as np
import pytest

from helpers import consistent_chain_steps

from aplf.model_types import GaussianChannelParams
from aplf.oracles import (
    batch_ml_oracle,
    exact_filter_oracle,
    fd_log_likelihood_gradient,
    quadrature_filter_moments,
    self_check,
)
from aplf.recursive_learner import SingularGram


def test_oracle_interpolation_gives_zero_sigma():
    samples = [(np.array([1.0, 0.0]), 2.0), (np.array([1.0, 1.0]), 3.0)]
    eta, sigma = batch_ml_oracle(samples, 1.0)
    assert np.allclose(eta, [2.0, 1.0], atol=1e-12)
    assert sigma == 0.0
    # Fractional forgetting loses exactness only to cancellation noise in
    # the residual sum; sigma stays at the square root of that noise.
    _, sigma = batch_ml_oracle(samples, 0.8)
    assert sigma <= 1e-7


def test_oracle_reduces_to_ordinary_least_squares_at_lambda_one():
    # Three points hand-solved: eta = [5/6, 3/2], sigma = sqrt(1/18).
    samples = [
        (np.array([1.0, 0.0]), 1.0),
        (np.array([1.0, 1.0]), 2.0),
        (np.array([1.0, 2.0]), 4.0),
    ]
    eta, sigma = batch_ml_oracle(samples, 1.0)
    assert np.allclose(eta, [5.0 / 6.0, 1.5], atol=1e-12)
    assert math.isclose(sigma, math.sqrt(1.0 / 18.0), rel_tol=1e-12)


def test_oracle_rejects_singular_gram():
    with pytest.raises(SingularGram):
        batch_ml_oracle([(np.array([1.0, 0.0]), 1.0), (np.array([2.0, 0.0]), 2.0)], 0.9)


def test_gradient_vanishes_at_oracle_solution():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(10, 60))
        samples = [(np.array([1.0, rng.normal()]), float(rng.normal(scale=2.0))) for _ in range(n)]
        lam = float(rng.choice([0.5, 0.7, 0.9]))
        eta, sigma = batch_ml_oracle(samples, lam)
        grad = fd_log_likelihood_gradient(samples, eta, sigma, lam)
        assert float(np.max(np.abs(grad))) <= 1e-9


def test_filter_oracle_symmetric_fusion_step():
    s_params = GaussianChannelParams(eta=np.array([2.0, 0.0]), sigma=1.0)
    r_params = GaussianChannelParams(eta=np.array([4.0]), sigma=1.0)
    [(mean, std)] = exact_filter_oracle(9.0, [(s_params, r_params, np.array([1.0]))])
    assert mean == 3.0
    assert math.isclose(std, math.sqrt(0.5), rel_tol=1e-15)


def test_filter_oracle_zero_slope_is_stationary():
    s_params = GaussianChannelParams(eta=np.array([1.5, 0.0]), sigma=0.8)
    r_params = GaussianChannelParams(eta=np.array([2.5]), sigma=0.6)
    steps = [(s_params, r_params, np.array([1.0]))] * 6
    out = exact_filter_oracle(0.0, steps)
    first = out[0]
    for mean, std in out[1:]:
        assert math.isclose(mean, first[0], rel_tol=1e-15)
        assert math.isclose(std, first[1], rel_tol=1e-15)


def test_filter_oracle_matches_quadrature_on_random_chains():
    rng = np.random.default_rng(25)
    for _ in range(3):
        anchor = float(rng.normal())
        steps = consistent_chain_steps(rng, 10, anchor)
        exact = exact_filter_oracle(anchor, steps)
        quad = quadrature_filter_moments(anchor, steps)
        for (m1, s1), (m2, s2) in zip(exact, quad):
            assert abs(m1 - m2) <= 1e-6 * max(1.0, abs(m1))
            assert abs(s1 - s2) <= 1e-6 * max(1.0, s1)


def test_self_check_passes():
    assert self_check(seed=0, verbose=False)


def test_self_check_ends_each_line_with_the_wall_time_of_its_check(capsys):
    assert self_check(seed=0)
    lines = capsys.readouterr().out.splitlines()
    names = ["gradient-at-optimum", "recursion-vs-batch", "forecaster-vs-filter", "filter-vs-quadrature"]
    assert [line.split(":")[0] for line in lines] == [f"ok   {name}" for name in names]
    assert all(re.fullmatch(r"ok   [a-z-]+: [^()]+ = \d\.\d{3}e[+-]\d\d \(\d+ ms\)", line) for line in lines)
