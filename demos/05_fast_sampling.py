"""Run inference on a short schedule the model was never trained with.

The trick: pick a few noise levels spanning the training chain, then map
each one to the fractional training step with the same retained-signal
level.  The network receives that fractional step index, so nothing about
training has to change.  Here a small model is trained once, then the same
degraded signals are enhanced with the full chain and with short ladders.
"""

import time

import numpy as np

from mose import (TrainConfig, align_inference_steps, default_fast_schedule,
                  enhance, fast_sample, schedule_from_betas, synth_corpus,
                  train)
from mose.metric import get_metric

cfg = TrainConfig(
    n_total=2500, n_th=2500, batch=4, seed=0,
    steps=16, beta_min=0.01, beta_max=0.12,
    d_channels=8, d_blocks=3, d_kernel=3,
    v_channels=8, v_kernel=5, v_mlp_width=16, emb_dim=8,
)
pairs = synth_corpus(seed=5, n_utterances=8, length=512,
                     snr_levels=[0.0, 5.0, 10.0], split="train")
print("training a small model first (about half a minute)...")
res = train(cfg, pairs)
si = get_metric("si_snr")

betas4 = default_fast_schedule(res.schedule, 4)
taus = align_inference_steps(schedule_from_betas(betas4), res.schedule)
print()
print("4-level ladder betas:", np.round(betas4, 4))
print("lands on fractional training steps:", np.round(taus, 2))

print()
print(f"{'sampler':<12} {'steps':>5} {'mean si_snr':>12} {'seconds':>8}")
for label, runner, steps in (
    ("full", lambda p, r: enhance(res.dnet, res.params_d, p.y,
                                  res.schedule, rng=r), res.schedule.T),
    ("fast-8", lambda p, r: fast_sample(res.dnet, res.params_d, p.y,
                                        default_fast_schedule(res.schedule, 8),
                                        res.schedule, rng=r), 8),
    ("fast-4", lambda p, r: fast_sample(res.dnet, res.params_d, p.y,
                                        betas4, res.schedule, rng=r), 4),
):
    t0 = time.time()
    scores = []
    for k, p in enumerate(pairs):
        out = runner(p, np.random.default_rng(1000 + k))
        scores.append(si.evaluate(out, p.x0))
    dt = time.time() - t0
    print(f"{label:<12} {steps:>5} {np.mean(scores):>12.2f} {dt:>8.2f}")

print()
print("unprocessed mean si_snr: %+.2f dB"
      % np.mean([si.evaluate(p.y, p.x0) for p in pairs]))
