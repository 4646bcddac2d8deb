"""Per-step constants of the conditional diffusion chain.

Everything the forward and reverse processes need is derived here, once, in
float64, from a list of per-step variance increments: signal-keep ratios and
their running product, the clean-to-noisy interpolation weight, marginal and
posterior variances, and the one-step transition that keeps the chain
consistent with its own marginals.

Index convention: all arrays have length T+1 and are indexed by the step
number itself, so ``sched.beta[t]`` is the increment of step t for t in
1..T.  Slot 0 holds the boundary constants of the fully-clean state
(``alpha_bar[0] = 1``, ``w[0] = 0``, ``delta[0] = 0``); its other entries
are zero and are never read by the processes.

The forward marginal at step t mixes the clean signal and the conditioner:

    mean = (1 - w[t]) * sqrt(alpha_bar[t]) * x0 + w[t] * sqrt(alpha_bar[t]) * y
    var  = delta[t] = (1 - alpha_bar[t]) - w[t]^2 * alpha_bar[t]

The weight follows ``interpolation_weight`` for t < T and is pinned to 1 at
t = T, so the terminal marginal is centred on the conditioner alone and the
reverse process can start from it without access to the clean signal.

The one-step transition x_{t-1} -> x_t consistent with the two marginals is

    x_t = gain[t] * x_{t-1} + mix[t] * y + sqrt(var[t]) * fresh noise

with ``gain[t] = sqrt(alpha[t]) * (1 - w[t]) / (1 - w[t-1])`` (ratio 1 once
the weight saturates), ``mix[t]`` fixed by matching the means and ``var[t]``
by matching the variances.  Conditioning the transition on x0 and y by
Gaussian conjugacy gives the reverse posterior variance ``delta_tilde`` and,
after eliminating x0 through the noise-prediction identity, the reverse mean
coefficients (coef_x, coef_y, coef_eps) stored here.

When every weight is zero (``weight_mode="zero"``) the chain degenerates to
the classic unconditional one; that branch uses the textbook closed forms
directly so the reduction is exact to the bit, with alpha and beta taken
from the stored arrays rather than recomputed from alpha_bar ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleError

_WEIGHT_MODES = ("interpolated", "zero")


def interpolation_weight(alpha_bar: float) -> float:
    """Clean-to-noisy interpolation weight for a given signal-keep product.

    w = min(1, sqrt((1 - alpha_bar) / sqrt(alpha_bar))), defined on (0, 1].
    Monotone nonincreasing in alpha_bar, hence nondecreasing along the chain.
    """
    ab = float(alpha_bar)
    if not math.isfinite(ab):
        raise ScheduleError(f"non-finite alpha_bar: {ab!r}")
    if not 0.0 < ab <= 1.0:
        raise ScheduleError(f"alpha_bar must be in (0, 1], got {ab!r}")
    return min(1.0, math.sqrt((1.0 - ab) / math.sqrt(ab)))


def _step_constants(beta: float, alpha: float, ab_prev: float, ab_cur: float,
                    w_prev: float, w_cur: float, d_prev: float,
                    d_cur: float) -> tuple[float, ...]:
    """Step t's (gain, mix, var, post_var, coef_x, coef_y, coef_eps): the
    transition's weights on x_{t-1} and y and its noise variance, the
    posterior variance delta_tilde[t], and the reverse mean's weights on
    x_t, y and the (subtracted) predicted noise."""
    if w_prev == 0.0 and w_cur == 0.0:
        # unconditional chain: closed forms, kept on a separate branch so the
        # zero-weight reduction is bitwise exact
        sqrt_alpha = math.sqrt(alpha)
        post_var = beta * (1.0 - ab_prev) / (1.0 - ab_cur)
        return (sqrt_alpha, 0.0, beta, post_var, 1.0 / sqrt_alpha, 0.0,
                beta / (sqrt_alpha * math.sqrt(1.0 - ab_cur)))
    if d_cur <= 0.0:
        raise ScheduleError("degenerate marginal variance: delta[t] = 0 with "
                            "a nonzero interpolation weight")
    ratio = (1.0 - w_cur) / (1.0 - w_prev) if w_prev < 1.0 else 1.0
    gain = math.sqrt(alpha) * ratio
    mix = w_cur * math.sqrt(ab_cur) - gain * w_prev * math.sqrt(ab_prev)
    var = d_cur - gain * gain * d_prev
    if var < 0.0:
        raise ScheduleError(
            "transition variance is negative: the beta sequence and the "
            "interpolation weights are incompatible at this step")
    post_var = d_prev * var / d_cur
    shrink = gain * d_prev / d_cur
    k = (var / d_cur) * (1.0 - w_prev)
    coef_x = shrink + k * math.sqrt(ab_prev) / math.sqrt(ab_cur)
    coef_y = (var / d_cur) * w_prev * math.sqrt(ab_prev) - shrink * mix
    coef_eps = k * math.sqrt(ab_prev) * math.sqrt(1.0 - ab_cur) / math.sqrt(ab_cur)
    return gain, mix, var, post_var, coef_x, coef_y, coef_eps


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable table of per-step chain constants.

    Arrays are float64, length T+1, indexed by step number (slot 0 is the
    clean-state boundary).  Safe for unrestricted concurrent reads.
    """

    T: int
    weight_mode: str
    beta: np.ndarray         # variance increments, beta[1..T] in (0, 1)
    alpha: np.ndarray        # 1 - beta
    alpha_bar: np.ndarray    # running product of alpha, strictly decreasing
    w: np.ndarray            # interpolation weights, nondecreasing
    delta: np.ndarray        # forward marginal variances
    delta_tilde: np.ndarray  # reverse posterior variances
    beta_tilde: np.ndarray   # unconditional posterior variances (reference)
    gain: np.ndarray         # one-step transition weight on x_{t-1}
    mix: np.ndarray          # one-step transition weight on y
    var: np.ndarray          # one-step fresh-noise variance
    coef_x: np.ndarray       # reverse mean coefficients
    coef_y: np.ndarray
    coef_eps: np.ndarray

    def __reduce__(self):  # copies rebuild the table, so it stays read-only
        return schedule_from_betas, (self.beta[1:], self.weight_mode)


def schedule_from_betas(betas, weight_mode: str = "interpolated") -> NoiseSchedule:
    """Build the full constant table from explicit variance increments."""
    if weight_mode not in _WEIGHT_MODES:
        raise ScheduleError(f"unknown weight_mode {weight_mode!r}")
    b = np.asarray(betas, dtype=np.float64)
    if b.ndim != 1 or b.size < 1:
        raise ScheduleError("betas must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(b)):
        raise ScheduleError("betas contain non-finite values")
    if np.any(b <= 0.0) or np.any(b >= 1.0):
        raise ScheduleError("betas must lie strictly inside (0, 1)")
    T = int(b.size)

    beta = np.zeros(T + 1)
    beta[1:] = b
    alpha = np.ones(T + 1)
    alpha[1:] = 1.0 - b
    alpha_bar = np.ones(T + 1)
    alpha_bar[1:] = np.cumprod(alpha[1:])
    if np.any(np.diff(alpha_bar[1:]) >= 0.0) or alpha_bar[T] <= 0.0:
        raise ScheduleError("alpha_bar must stay positive and strictly "
                            "decreasing")

    w = np.zeros(T + 1)
    if weight_mode == "interpolated":
        for t in range(1, T):
            w[t] = interpolation_weight(alpha_bar[t])
        # the reverse process starts from the conditioner, so the terminal
        # weight is pinned even when the raw formula has not reached 1 yet
        w[T] = 1.0
        if np.any(np.diff(w) < 0.0):
            raise ScheduleError("interpolation weights are not nondecreasing")

    delta = (1.0 - alpha_bar) - np.square(w) * alpha_bar
    delta[0] = 0.0
    if np.any(delta[1:] < 0.0):
        t_bad = int(np.argmax(delta[1:] < 0.0)) + 1
        raise ScheduleError(
            f"delta[{t_bad}] < 0 after weight clamping: this beta range "
            f"leaves too much signal at step {t_bad} (alpha_bar = "
            f"{alpha_bar[t_bad]:.6g}); use more steps or larger betas")

    delta_tilde = np.zeros(T + 1)
    beta_tilde = np.zeros(T + 1)
    gain = np.zeros(T + 1)
    mix = np.zeros(T + 1)
    var = np.zeros(T + 1)
    coef_x = np.zeros(T + 1)
    coef_y = np.zeros(T + 1)
    coef_eps = np.zeros(T + 1)
    for t in range(1, T + 1):
        try:
            (gain[t], mix[t], var[t], delta_tilde[t], coef_x[t], coef_y[t],
             coef_eps[t]) = _step_constants(
                float(beta[t]), float(alpha[t]), float(alpha_bar[t - 1]),
                float(alpha_bar[t]), float(w[t - 1]), float(w[t]),
                float(delta[t - 1]), float(delta[t]))
        except ScheduleError as exc:
            raise ScheduleError(f"step {t}: {exc}") from exc
        beta_tilde[t] = beta[1] if t == 1 else \
            beta[t] * (1.0 - alpha_bar[t - 1]) / (1.0 - alpha_bar[t])

    # total variance of the forward marginal never exceeds 1
    total = delta[1:] + np.square(w[1:]) * alpha_bar[1:] \
        + alpha_bar[1:] * np.square(1.0 - w[1:])
    if np.any(total > 1.0 + 1e-9):
        raise ScheduleError("marginal variance decomposition exceeds 1")

    arrays = dict(beta=beta, alpha=alpha, alpha_bar=alpha_bar, w=w,
                  delta=delta, delta_tilde=delta_tilde, beta_tilde=beta_tilde,
                  gain=gain, mix=mix, var=var, coef_x=coef_x, coef_y=coef_y,
                  coef_eps=coef_eps)
    for arr in arrays.values():
        arr.flags.writeable = False
    return NoiseSchedule(T=T, weight_mode=weight_mode, **arrays)


def build_schedule(T: int, beta_min: float, beta_max: float,
                   weight_mode: str = "interpolated") -> NoiseSchedule:
    """Linear variance schedule over T steps, then the full constant table."""
    if not isinstance(T, (int, np.integer)) or T < 2:
        raise ScheduleError(f"T must be an integer >= 2, got {T!r}")
    bmin = float(beta_min)
    bmax = float(beta_max)
    if not (math.isfinite(bmin) and math.isfinite(bmax)):
        raise ScheduleError("beta range must be finite")
    if not 0.0 < bmin <= bmax < 1.0:
        raise ScheduleError(f"need 0 < beta_min <= beta_max < 1, got "
                            f"({bmin!r}, {bmax!r})")
    return schedule_from_betas(np.linspace(bmin, bmax, int(T)), weight_mode)


def dump_table(sched: NoiseSchedule) -> str:
    """Human-readable full-precision table, one row per step."""
    cols = ("t", "beta", "alpha_bar", "w", "delta", "delta_tilde")
    lines = ["\t".join(cols)]
    for t in range(1, sched.T + 1):
        row = [str(t)] + [format(float(getattr(sched, c)[t]), ".17g")
                          for c in cols[1:]]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
