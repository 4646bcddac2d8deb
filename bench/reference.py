"""Reference computations made apart from the program.

Nothing here imports :mod:`mose`: the benchmark's checks compare the
program's outputs against these.  The SI-SNR definition (projection onto the
reference, clipped to [-40, 60] dB) is the one the package documents for its
built-in ``si_snr`` metric.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

CLIP_DB = (-40.0, 60.0)


def si_snr(candidate, reference, clip_db=CLIP_DB) -> float:
    """Scale-invariant SNR in dB, clipped to ``clip_db``."""
    c = np.asarray(candidate, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    lo, hi = clip_db
    target = (np.dot(c, r) / np.dot(r, r)) * r
    err = c - target
    num = float(np.dot(target, target))
    den = float(np.dot(err, err))
    if den == 0.0:
        return hi
    if num == 0.0:
        return lo
    return min(hi, max(lo, 10.0 * math.log10(num / den)))


def snr(candidate, reference) -> float:
    """Plain SNR in dB: reference power over the power of the difference."""
    c = np.asarray(candidate, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    d = c - r
    return 10.0 * math.log10(float(np.dot(r, r)) / float(np.dot(d, d)))


def alpha_bar(betas) -> np.ndarray:
    """Signal-survival products; entry s-1 belongs to chain step s."""
    return np.cumprod(1.0 - np.asarray(betas, dtype=np.float64))


def linear_betas(steps: int, beta_min: float, beta_max: float) -> np.ndarray:
    """The linear variance ladder the package documents for training."""
    return np.linspace(beta_min, beta_max, steps)


class OracleNet:
    """A duck-typed noise predictor that knows the clean signal.

    It returns the exact combined noise
    C_s = (x_s - sqrt(ab_s) x0) / sqrt(1 - ab_s), the identity stated in the
    package's diffusion module, so a correct reverse walk ends at x0.  The
    chain step is taken from call order (the k-th call is step S - k), not
    from the step input, so the oracle needs no alignment code of the
    program.  ``step_offset`` shifts the step it assumes, to show that the
    check notices a walk that is off by a step.
    """

    def __init__(self, x0, alpha_bars, step_offset: int = 0):
        self.x0 = np.asarray(x0, dtype=np.float64)
        self.ab = np.asarray(alpha_bars, dtype=np.float64)
        self.step_offset = step_offset
        self.calls = 0

    def forward(self, params, x_t, y, t):
        steps = self.ab.size
        s = min(steps, max(1, steps - self.calls + self.step_offset))
        self.calls += 1
        x = np.asarray(getattr(x_t, "value", x_t))
        ab = self.ab[s - 1]
        c = (x.astype(np.float64) - math.sqrt(ab) * self.x0) \
            / math.sqrt(1.0 - ab)
        return SimpleNamespace(value=c.astype(x.dtype))


def relative_error(estimate, truth) -> float:
    e = np.asarray(estimate, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    return float(np.linalg.norm(e - t) / np.linalg.norm(t))
