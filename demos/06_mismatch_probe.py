"""Show why a reward signal tracks realized quality better than the loss.

Two small models continue one regression warm-up: one on the regression
loss alone, one with the metric-driven scorer in the loop.  For a batch of
utterances we then compare two per-utterance numbers against the actual
end-to-end metric gain of an enhancement walk: the summed regression loss,
and the cumulative stepwise reward.  The reward telescopes into exactly
the end-to-end gain of its own walk when both use the same metric, and it
keeps tracking quality even when the reported metric is a different one.
"""

import copy
from dataclasses import replace

import numpy as np

from mose import TrainConfig, mismatch_experiment, synth_corpus, train
from mose.metric import get_metric

base = TrainConfig(
    n_total=1200, n_th=900, batch=4, seed=0,
    steps=16, beta_min=0.01, beta_max=0.12,
    lr_v=1e-4, gamma=0.95, alpha=1.0,
    d_channels=8, d_blocks=2, d_kernel=3,
    v_channels=8, v_kernel=5, v_mlp_width=16, emb_dim=8,
)
pairs = synth_corpus(seed=5, n_utterances=12, length=512,
                     snr_levels=[0.0, 5.0, 10.0], split="train")

# both twins fork one warm-up; each equals its straight run bit for bit
print("training the shared regression warm-up...")
warm = train(replace(base, n_total=base.n_th), pairs)
print("continuing it as the regression-only twin...")
elbo = train(replace(base, alpha=0.0), pairs, resume=copy.deepcopy(warm))
print("continuing it as the metric-driven twin...")
metric = train(base, pairs, resume=warm)

si = get_metric("si_snr")
seg = get_metric("seg_snr")

print()
print("probe A: reward metric == reported metric (si_snr)")
res = mismatch_experiment(elbo.dnet, elbo.params_d, metric.params_d, pairs,
                          elbo.schedule, si, si, seed=3)
print(f"  corr(summed loss, gain)       = {res.corr_elbo:+.3f}")
print(f"  corr(cumulative reward, gain) = {res.corr_reward:+.3f}")
print("  the reward telescopes, so its correlation is 1 by construction")

print()
print("probe B: reward si_snr, reported seg_snr")
res = mismatch_experiment(elbo.dnet, elbo.params_d, metric.params_d, pairs,
                          elbo.schedule, si, seg, seed=3)
print(f"  corr(summed loss, gain)       = {res.corr_elbo:+.3f}")
print(f"  corr(cumulative reward, gain) = {res.corr_reward:+.3f}")
print("  caveat: at this miniature scale the per-utterance gains are tiny")
print("  and a cross-metric correlation is noise-dominated, so probe B can")
print("  land either way from one configuration to the next.  With desk-")
print("  scale models (the acceptance suite's correlation check) the same")
print("  probe gives corr ~ +0.99 for the reward vs ~ +0.28 for the loss.")

print()
print("sample rows (probe B):")
print(f"  {'id':<8} {'loss_sum':>9} {'reward':>8} {'seg gain':>9}")
for r in res.rows[:6]:
    print(f"  {r.id:<8} {r.elbo_sum:>9.3f} {r.rollout_reward:>8.3f} "
          f"{r.metric_delta:>9.3f}")
