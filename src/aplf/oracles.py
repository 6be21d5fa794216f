"""Independent slow-path implementations used to cross-check the fast paths.

batch_ml_oracle maximizes the discounted log-likelihood by solving the
weighted normal equations directly; exact_filter_oracle produces the
per-step forecast law by sequential Gaussian conditioning built from the
product-split identity alone; quadrature_filter_moments re-derives the
same moments by trapezoid integration on a dense grid. None of these
share code with the recursive learner or the forecaster. They ship in
the library so the command line self-check can run in the field.
"""

from __future__ import annotations

import math

import numpy as np

from .forecaster import DegenerateVariances
from .model_types import GaussianChannelParams
from .recursive_learner import GRAM_CONDITION_LIMIT, SingularGram

__all__ = [
    "batch_ml_oracle",
    "exact_filter_oracle",
    "fd_log_likelihood_gradient",
    "quadrature_filter_moments",
    "self_check",
]


def batch_ml_oracle(samples, lam: float) -> tuple[np.ndarray, float]:
    """Unique maximizer (eta, sigma) of the discounted Gaussian log-likelihood.

    Builds the weighted normal equations by direct summation over the
    samples and solves them by dense factorization. Raises SingularGram
    when the weighted Gram matrix is too ill-conditioned.
    """
    n = len(samples)
    if n == 0:
        raise SingularGram("no samples")
    u_mat = np.array([np.asarray(u, dtype=float) for u, _ in samples])
    s_vec = np.array([s for _, s in samples], dtype=float)
    weights = lam ** np.arange(n - 1, -1, -1, dtype=float)
    gram = np.einsum("j,ja,jb->ab", weights, u_mat, u_mat)
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) >= GRAM_CONDITION_LIMIT:
        raise SingularGram(f"weighted Gram condition number above {GRAM_CONDITION_LIMIT:g}")
    q = u_mat.T @ (weights * s_vec)
    eta = np.linalg.solve(gram, q)
    gamma = float(weights.sum())
    radicand = (float(weights @ s_vec**2) - float(q @ eta)) / gamma
    sigma = math.sqrt(max(radicand, 0.0))
    return eta, sigma


def fd_log_likelihood_gradient(samples, eta: np.ndarray, sigma: float, lam: float,
                               rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the discounted log-likelihood.

    Evaluated in extended precision so the cancellation error stays far
    below the 1e-9 acceptance threshold at the maximizer.
    """
    def value(theta) -> np.longdouble:
        e = theta[:-1]
        sg = theta[-1]
        inv_two_var = np.longdouble(1.0) / (np.longdouble(2.0) * sg * sg)
        log_norm = np.log(sg) + np.longdouble(0.5) * np.log(np.longdouble(2.0) * np.longdouble(np.pi))
        total = np.longdouble(0.0)
        n = len(samples)
        for j, (u, s) in enumerate(samples):
            resid = np.longdouble(s) - np.dot(np.asarray(u, dtype=np.longdouble), e)
            total += np.longdouble(lam) ** (n - 1 - j) * (-resid * resid * inv_two_var - log_norm)
        return total

    theta0 = np.concatenate([np.asarray(eta, dtype=np.longdouble), [np.longdouble(sigma)]])
    grad = np.empty(len(theta0))
    for i in range(len(theta0)):
        h = np.longdouble(rel_step) * max(np.longdouble(1.0), abs(theta0[i]))
        plus = theta0.copy()
        minus = theta0.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = float((value(plus) - value(minus)) / (2 * h))
    return grad


def _lemma_split(a: float, b: float, alpha: float, beta: float, y: float):
    # Product-split identity, written out locally on purpose: the oracle
    # must not lean on forecast_step's inline fusion of the same algebra.
    b2 = b * b
    beta2 = beta * beta
    denom = beta2 + alpha * alpha * b2
    post_mean = (a * beta2 + alpha * y * b2) / denom
    post_std = math.sqrt(b2 * beta2 / denom)
    return post_mean, post_std, a * alpha, math.sqrt(denom)


def exact_filter_oracle(anchor_load: float, steps) -> list[tuple[float, float]]:
    """Per-step forecast law by sequential Gaussian conditioning.

    steps is a sequence of (s_params, r_params, u_r) triples. Each step
    applies the product-split identity twice: once to marginalize the
    previous load through the transition channel, once to condition on
    the observation channel.
    """
    out: list[tuple[float, float]] = []
    mean, std = float(anchor_load), 0.0
    for s_params, r_params, u_r in steps:
        intercept = float(s_params.eta[0])
        slope = float(s_params.eta[1])
        # Marginalize the previous load: with x ~ N(mean, std) and
        # y - intercept | x ~ N(slope*x, sigma_s), the y-marginal is the
        # second factor of the split.
        _, _, marg_mean, marg_std = _lemma_split(mean, std, slope, s_params.sigma, 0.0)
        pred_mean = intercept + marg_mean
        pred_std = marg_std
        # Condition on the observation channel: the observed channel mean
        # plays the role of y with unit link and noise sigma_r.
        obs_mean = float(np.asarray(u_r, dtype=float) @ r_params.eta)
        if r_params.sigma == 0.0 and pred_std == 0.0:
            raise DegenerateVariances("zero variances in both factors")
        mean, std, _, _ = _lemma_split(pred_mean, pred_std, 1.0, r_params.sigma, obs_mean)
        out.append((mean, std))
    return out


def _normal_pdf(x: np.ndarray, mean: float, std: float) -> np.ndarray:
    z = (x - mean) / std
    return np.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = len(a) + len(b) - 1
    nfft = 1 << (n - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:n]
    return np.maximum(out, 0.0)


def _trapezoid(values: np.ndarray, h: float) -> float:
    return h * (float(values.sum()) - 0.5 * (float(values[0]) + float(values[-1])))


def quadrature_filter_moments(anchor_load: float, steps, n_nodes: int = 20001,
                              span_sigmas: float = 6.0) -> list[tuple[float, float]]:
    """Filtered per-step moments by trapezoid quadrature on a dense grid.

    The running density is held on a uniform grid spanning span_sigmas
    standard deviations either side of its mean; the transition step is a
    grid convolution with the transition kernel, the observation step a
    pointwise product. Requires positive channel standard deviations.
    """
    out: list[tuple[float, float]] = []
    grid = None
    dens = None
    for step_index, (s_params, r_params, u_r) in enumerate(steps):
        intercept = float(s_params.eta[0])
        slope = float(s_params.eta[1])
        sigma_s = float(s_params.sigma)
        if sigma_s <= 0.0 or float(r_params.sigma) <= 0.0:
            raise ValueError("quadrature oracle requires positive channel sigmas")
        if step_index == 0 or slope == 0.0:
            # Point-mass anchor or slope-free transition: the predicted law
            # is the transition Gaussian itself.
            center = intercept + slope * anchor_load if step_index == 0 else intercept
            grid = np.linspace(center - span_sigmas * sigma_s, center + span_sigmas * sigma_s, n_nodes)
            pred = _normal_pdf(grid, center, sigma_s)
        else:
            z_left = intercept + slope * grid[0]
            z_right = intercept + slope * grid[-1]
            if slope > 0:
                z0, z_dens = z_left, dens
            else:
                z0, z_dens = z_right, dens[::-1]
            h = abs(slope) * (grid[1] - grid[0])
            z_dens = z_dens / abs(slope)
            m = int(math.ceil(span_sigmas * sigma_s / h))
            kernel = _normal_pdf(np.arange(-m, m + 1) * h, 0.0, sigma_s)
            pred = _fft_convolve(z_dens, kernel) * h
            grid = (z0 - m * h) + np.arange(len(pred)) * h
        obs_mean = float(np.asarray(u_r, dtype=float) @ r_params.eta)
        post = pred * _normal_pdf(grid, obs_mean, float(r_params.sigma))
        h = grid[1] - grid[0]
        z_norm = _trapezoid(post, h)
        mean = _trapezoid(post * grid, h) / z_norm
        var = _trapezoid(post * (grid - mean) ** 2, h) / z_norm
        std = math.sqrt(var)
        out.append((mean, std))
        # Re-sample the posterior on a fresh grid around its own mass so the
        # node count stays fixed across steps.
        new_grid = np.linspace(mean - span_sigmas * std, mean + span_sigmas * std, n_nodes)
        dens = np.interp(new_grid, grid, post / z_norm, left=0.0, right=0.0)
        grid = new_grid
    return out


def self_check(seed: int = 0, verbose: bool = True) -> bool:
    """Run the oracle agreement suite; True when every check passes.

    Covers: the gradient of the discounted log-likelihood vanishing at the
    batch solution, recursive updates after exact initialization tracking
    the batch solution, the forecaster matching sequential conditioning,
    and sequential conditioning matching quadrature.
    """
    from .model_types import ModelParams
    from .recursive_learner import batch_initialize, channel_update
    from .forecaster import InstanceVector, predict

    rng = np.random.default_rng(seed)
    ok = True

    def report(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        if verbose:
            print(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}")

    # Gradient of the discounted log-likelihood vanishes at the batch solution.
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(10, 40))
        k = int(rng.integers(2, 4))
        samples = [(np.concatenate([[1.0], rng.normal(size=k - 1)]), float(rng.normal(scale=2.0)))
                   for _ in range(n)]
        lam = float(rng.uniform(0.5, 0.95))
        try:
            eta, sigma = batch_ml_oracle(samples, lam)
        except SingularGram:
            continue
        grad = fd_log_likelihood_gradient(samples, eta, sigma, lam)
        worst = max(worst, float(np.max(np.abs(grad))))
    report("gradient-at-optimum", worst <= 1e-9, f"max |grad| = {worst:.3e}")

    # Recursion from exact initialization tracks the batch maximizer.
    worst = 0.0
    for _ in range(5):
        n = 40
        k = 2
        samples = [(np.array([1.0, rng.normal()]), float(rng.normal(scale=1.5))) for _ in range(n)]
        lam = float(rng.uniform(0.4, 0.95))
        i0 = None
        for i in range(1, n + 1):
            try:
                state, params = batch_initialize(samples[:i], lam)
                i0 = i
                break
            except SingularGram:
                continue
        if i0 is None:
            continue
        for i in range(i0 + 1, n + 1):
            channel_update(state, params, *samples[i - 1], lam)
            eta_star, sigma_star = batch_ml_oracle(samples[:i], lam)
            worst = max(worst, float(np.max(np.abs(params.eta - eta_star))),
                        abs(params.sigma - sigma_star))
    report("recursion-vs-batch", worst <= 1e-8, f"max |diff| = {worst:.3e}")

    # The forecaster equals sequential Gaussian conditioning.
    worst = 0.0
    for _ in range(20):
        s_params = GaussianChannelParams(
            eta=np.array([rng.normal(), rng.uniform(-1.1, 1.1)]), sigma=float(rng.uniform(0.3, 2.0)))
        r_params = GaussianChannelParams(eta=rng.normal(size=3), sigma=float(rng.uniform(0.3, 2.0)))
        u_vectors = [rng.normal(size=3) for _ in range(8)]
        anchor = float(rng.normal())
        model = ModelParams.initial()
        model.s_channels[0], model.r_channels[0] = s_params, r_params
        instance = InstanceVector(anchor_load=anchor, observations=tuple(u_vectors), types=(1,) * 8, t=0)
        path = predict(model, instance)
        reference = exact_filter_oracle(anchor, [(s_params, r_params, u) for u in u_vectors])
        for mean, std, (m, s) in zip(path.mean, path.std, reference):
            worst = max(worst, abs(mean - m), abs(std - s))
    report("forecaster-vs-filter", worst <= 1e-9, f"max |diff| = {worst:.3e}")

    # Sequential conditioning matches quadrature. The observation means
    # track a simulated load path, as in real operation, so the posterior
    # stays well inside the quadrature grid span.
    worst = 0.0
    for _ in range(2):
        anchor = float(rng.normal())
        x = anchor
        steps = []
        for _ in range(5):
            s_params = GaussianChannelParams(
                eta=np.array([rng.normal(scale=0.5), rng.uniform(0.3, 1.1) * rng.choice([-1.0, 1.0])]),
                sigma=float(rng.uniform(0.5, 1.5)))
            sigma_r = float(rng.uniform(0.5, 1.5))
            x = float(s_params.eta[0] + s_params.eta[1] * x + rng.normal(scale=s_params.sigma))
            obs_value = x + float(rng.normal(scale=sigma_r))
            eta_r = np.array([rng.normal(scale=0.5), float(rng.uniform(0.5, 2.0))])
            u_r = np.array([1.0, (obs_value - eta_r[0]) / eta_r[1]])
            steps.append((s_params, GaussianChannelParams(eta=eta_r, sigma=sigma_r), u_r))
        exact = exact_filter_oracle(anchor, steps)
        quad = quadrature_filter_moments(anchor, steps)
        for (m1, s1), (m2, s2) in zip(exact, quad):
            worst = max(worst, abs(m1 - m2) / max(abs(m1), 1.0), abs(s1 - s2) / max(s1, 1.0))
    report("filter-vs-quadrature", worst <= 1e-6, f"max rel diff = {worst:.3e}")

    return ok
