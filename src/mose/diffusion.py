"""The conditional forward process and its learned reverse.

The forward marginal interpolates the clean signal toward the conditioner
while adding noise (see :mod:`mose.schedule` for the constants).  The network
is trained to predict the *combined* noise

    C_t = (w_t sqrt(ab_t) / sqrt(1 - ab_t)) (y - x0)
        + (sqrt(delta_t) / sqrt(1 - ab_t)) eps

which folds the conditioner mismatch and the Gaussian noise into a single
target; algebraically C_t = (x_t - sqrt(ab_t) x0) / sqrt(1 - ab_t), so a
perfect prediction recovers x0 from any latent in one division.

Reverse steps use the schedule's precomputed posterior coefficients.  The
chain starts at sqrt(ab_T) * y (plus start noise when a generator is given)
and walks t = T..1; the last step adds no noise.  Fast sampling runs the same
walk over a short schedule built from explicit inference variances whose
fractional positions on the training chain are found by matching
sqrt(alpha_bar); positions feed only the step embedding.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlignmentError, ScheduleError
from .schedule import NoiseSchedule, schedule_from_betas


def _check_steps(t, sched: NoiseSchedule) -> None:
    t = np.asarray(t)
    if t.min(initial=1) < 1 or t.max(initial=sched.T) > sched.T:
        raise ScheduleError(f"a step outside 1..{sched.T}: {t}")


def forward_sample_batch(x0: np.ndarray, y: np.ndarray, t: np.ndarray,
                         eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Forward draw of x_t for (B, L) signals and per-row steps ``t``."""
    _check_steps(t, sched)
    dt = x0.dtype
    w = sched.w[t]
    sa = np.sqrt(sched.alpha_bar[t])
    sd = np.sqrt(sched.delta[t])
    c0 = ((1.0 - w) * sa).astype(dt)[:, None]
    cy = (w * sa).astype(dt)[:, None]
    ce = sd.astype(dt)[:, None]
    return c0 * x0 + cy * y + ce * eps


def target_noise_batch(x0: np.ndarray, y: np.ndarray, t: np.ndarray,
                       eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """The combined-noise regression target C_t of each row."""
    dt = x0.dtype
    ab = sched.alpha_bar[t]
    s1 = np.sqrt(1.0 - ab)
    c_mix = (sched.w[t] * np.sqrt(ab) / s1).astype(dt)[:, None]
    c_eps = (np.sqrt(sched.delta[t]) / s1).astype(dt)[:, None]
    return c_mix * (y - x0) + c_eps * eps


def reverse_mean_batch(x_t: np.ndarray, y: np.ndarray, eps_hat: np.ndarray,
                       t: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Posterior means for (B, L) latents with per-row integer steps.

    Each coefficient takes the dtype of the term it scales, as a python
    float would, so float32 terms stay float32.
    """
    _check_steps(t, sched)
    cx = sched.coef_x[t].astype(x_t.dtype)[:, None]
    cy = sched.coef_y[t].astype(y.dtype)[:, None]
    ce = sched.coef_eps[t].astype(eps_hat.dtype)[:, None]
    return cx * x_t + cy * y - ce * eps_hat


def _standard_normal(like: np.ndarray, gens) -> np.ndarray:
    """Standard normals shaped like (B, L) ``like``, row b from ``gens[b]``."""
    z = np.empty(like.shape, dtype=like.dtype)
    for row, g in zip(z, gens):
        row[...] = g.standard_normal(like.shape[1])
    return z


def _reverse_chain(net, params, y: np.ndarray, chain: NoiseSchedule,
                   step_inputs: np.ndarray, rng) -> np.ndarray:
    """Walk a reverse chain from its terminal marginal down to step 0.

    ``step_inputs[s-1]`` is what the network sees as the step index for
    chain step s; for the training chain these are just 1..T.  A (B, L)
    ``y`` walks B chains in one batch and needs a sequence of B generators,
    row b drawing its noise from ``rng[b]``, so every row is bit-identical
    to walking that row alone; an (L,) ``y`` walks as one row.  With no
    ``rng`` the walk adds no noise: it follows the posterior means.
    """
    y = np.asarray(y)
    rows = y[None, :] if y.ndim == 1 else y
    gens = None
    if rng is not None:
        gens = [rng] if y.ndim == 1 else rng
        if isinstance(gens, np.random.Generator) or len(gens) != len(rows):
            raise ValueError(f"a {y.shape} conditioner needs one generator "
                             f"per row ({len(rows)})")
    S = chain.T
    x = math.sqrt(float(chain.alpha_bar[S])) * rows
    if gens is not None:
        x = x + math.sqrt(float(chain.delta[S])) * _standard_normal(rows, gens)
    for s in range(S, 0, -1):
        eps_hat = net.forward(params, x, rows, float(step_inputs[s - 1])).value
        x = reverse_mean_batch(x, rows, eps_hat, np.full(len(rows), s), chain)
        if s > 1 and gens is not None:
            x = x + math.sqrt(float(chain.delta_tilde[s])) \
                * _standard_normal(rows, gens)
    return x[0] if y.ndim == 1 else x


def enhance(net, params, y: np.ndarray, sched: NoiseSchedule,
            rng=None) -> np.ndarray:
    """Full-length reverse walk conditioned on the degraded signal.

    ``y`` is one (L,) signal with one generator, or a (B, L) batch with a
    sequence of B generators, one per row; no ``rng`` walks without noise.
    """
    steps = np.arange(1, sched.T + 1, dtype=np.float64)
    return _reverse_chain(net, params, y, sched, steps, rng)


def align_inference_steps(infer: NoiseSchedule,
                          train: NoiseSchedule) -> np.ndarray:
    """Fractional training-step positions of an inference schedule.

    Matches sqrt(alpha_bar): each inference step lands where the training
    chain has the same retained-signal level, linearly interpolated between
    neighbouring integer steps.  Raises if a step falls past the end of the
    training chain.
    """
    grid = np.sqrt(train.alpha_bar)  # index 0..T, strictly decreasing
    tail = float(grid[train.T])
    taus = np.empty(infer.T)
    for s in range(1, infer.T + 1):
        a = math.sqrt(float(infer.alpha_bar[s]))
        if a < tail:
            # tolerate product-rounding jitter right at the terminal level
            if a >= tail - 1e-9 * tail:
                taus[s - 1] = float(train.T)
                continue
            raise AlignmentError(
                f"inference step {s} retains less signal (sqrt level "
                f"{a:.6g}) than the end of the training chain "
                f"({tail:.6g}); it cannot be aligned")
        j = int(np.searchsorted(-grid, -a, side="right")) - 1
        if j >= train.T:
            taus[s - 1] = float(train.T)
        elif grid[j] == a:
            taus[s - 1] = float(j)
        else:
            taus[s - 1] = j + (grid[j] - a) / (grid[j] - grid[j + 1])
    return taus


def fast_sample(net, params, y: np.ndarray, infer_betas,
                sched: NoiseSchedule, rng=None) -> np.ndarray:
    """Reverse walk over a short inference schedule aligned to ``sched``.

    Takes ``y`` and ``rng`` as ``enhance`` does.
    """
    infer_betas = np.asarray(infer_betas, dtype=np.float64)
    if infer_betas.size > sched.T:
        raise AlignmentError("inference schedule is longer than the "
                             "training schedule")
    mini = schedule_from_betas(infer_betas, weight_mode=sched.weight_mode)
    taus = align_inference_steps(mini, sched)
    return _reverse_chain(net, params, y, mini, taus, rng)


def default_fast_schedule(sched: NoiseSchedule, n_steps: int = 6) -> np.ndarray:
    """A geometric ladder of noise levels spanning the training chain.

    Levels run from the first training step's noise share to the terminal
    one, so the result is always alignable and ends exactly at the training
    chain's terminal signal level.
    """
    if not 2 <= n_steps <= sched.T:
        raise ScheduleError(f"n_steps must be in 2..{sched.T}")
    lo = 1.0 - float(sched.alpha_bar[1])
    hi = 1.0 - float(sched.alpha_bar[sched.T])
    levels = np.geomspace(lo, hi, n_steps)
    ab = 1.0 - levels
    prev = np.concatenate([[1.0], ab[:-1]])
    betas = 1.0 - ab / prev
    return betas
