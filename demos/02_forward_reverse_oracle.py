"""Corrupt a signal forward, then walk back with a cheating predictor.

No training here.  The reverse chain needs a network that predicts the
combined noise target from (x_t, y, t); an oracle that computes the exact
target from the hidden clean signal stands in for it.  If the process
algebra is right, the walk that starts at sqrt(alpha_bar_T) * y must land
close to the clean signal.
"""

import math
from types import SimpleNamespace

import numpy as np

from mose import SignalPair, build_schedule, enhance, forward_sample_batch
from mose.metric import get_metric


class OracleNet:
    """Duck-typed predictor that returns the exact combined noise."""

    def __init__(self, x0, sched):
        self.x0 = np.asarray(x0)
        self.sched = sched

    def forward(self, params, x, y, t, params_tracked=False):
        tt = int(round(float(t)))
        ab = float(self.sched.alpha_bar[tt])
        c = (np.asarray(x) - math.sqrt(ab) * self.x0) / math.sqrt(1.0 - ab)
        return SimpleNamespace(value=c)


rng = np.random.default_rng(7)
sched = build_schedule(50, 1e-4, 0.035)
si = get_metric("si_snr")

n = 2048
ticks = np.arange(n) / 16000.0
x0 = np.sin(2 * np.pi * 220.0 * ticks) + 0.3 * np.sin(2 * np.pi * 523.25 * ticks)
noise = rng.standard_normal(n)
noise *= math.sqrt(float((x0 ** 2).mean()) / (10 ** (5.0 / 10.0))
                   / float((noise ** 2).mean()))
pair = SignalPair(x0, x0 + noise, 16000, "demo", snr_db=5.0)

print("input SI-SNR of y vs clean: %+.2f dB" % si.evaluate(pair.y, pair.x0))
print()
print("forward corruption (one draw per level):")
for t in (1, 10, 25, 50):
    x_t = forward_sample_batch(pair.x0[None], pair.y[None], np.array([t]),
                               rng.standard_normal((1, n)), sched)[0]
    print(f"  t={t:>2}  SI-SNR(x_t, x0) = {si.evaluate(x_t, pair.x0):+7.2f} dB")

net = OracleNet(pair.x0, sched)
out = enhance(net, None, pair.y, sched, rng=np.random.default_rng(11))
print()
print("oracle reverse walk from sqrt(alpha_bar_T) * y:")
print("  final SI-SNR vs clean: %+.2f dB" % si.evaluate(out, pair.x0))
rel = np.linalg.norm(out - pair.x0) / np.linalg.norm(pair.x0)
print("  relative L2 error:     %.4f" % rel)

# the same walk without a generator adds no noise: it is deterministic and
# lands even closer, since only the predictor error remains
quiet = enhance(net, None, pair.y, sched)
print()
print("noiseless oracle walk:")
print("  final SI-SNR vs clean: %+.2f dB" % si.evaluate(quiet, pair.x0))
print("  relative L2 error:     %.6f" %
      (np.linalg.norm(quiet - pair.x0) / np.linalg.norm(pair.x0)))
