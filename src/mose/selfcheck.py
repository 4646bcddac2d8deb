"""Fast internal consistency checks, runnable from the command line.

Each group returns (name, passed, detail).  These are smaller cousins of
the full test suite: schedule identities, the zero-weight reduction, a
Monte Carlo marginal-consistency probe, finite-difference gradient spot
checks, reward telescoping, metric sanity, checkpoint round trips, and
short-run training determinism.
"""

from __future__ import annotations

import math
import tempfile

import numpy as np

from . import autodiff as ad
from .diffusion import (enhance, forward_sample_batch, reverse_mean_batch,
                        target_noise_batch)
from .metric import get_metric, neg_mse, si_snr
from .nets import DiffusionNet
from .rl import reward
from .schedule import build_schedule
from .signals import synth_corpus
from .trainer import TrainConfig, checkpoint_load, checkpoint_save, train


def check_schedule_invariants():
    sched = build_schedule(50, 1e-4, 0.035)
    ok = True
    notes = []
    if not np.all(np.diff(sched.w) >= 0):
        ok, notes = False, notes + ["weights not nondecreasing"]
    if sched.w[sched.T] != 1.0:
        ok, notes = False, notes + ["terminal weight != 1"]
    if np.any(sched.delta[1:] < 0):
        ok, notes = False, notes + ["negative delta"]
    total = sched.delta[1:] + sched.w[1:] ** 2 * sched.alpha_bar[1:] \
        + sched.alpha_bar[1:] * (1 - sched.w[1:]) ** 2
    if np.any(total > 1 + 1e-9):
        ok, notes = False, notes + ["variance decomposition exceeds 1"]
    if np.any(sched.delta_tilde[1:] > sched.delta[:-1] + 1e-15):
        ok, notes = False, notes + ["posterior variance not contracting"]
    return "schedule_invariants", ok, "; ".join(notes) or "T=50 table clean"


def check_zero_weight_reduction():
    sched = build_schedule(20, 1e-3, 0.2, weight_mode="zero")
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((1, 64))
    y = rng.standard_normal((1, 64))
    for t in (1, 5, 20):
        t_b = np.array([t])
        eps = rng.standard_normal((1, 64))
        got = forward_sample_batch(x0, y, t_b, eps, sched)
        ref = math.sqrt(sched.alpha_bar[t]) * x0 \
            + math.sqrt(1 - sched.alpha_bar[t]) * eps
        if not np.array_equal(got, ref):
            return "zero_weight_reduction", False, f"forward differs at t={t}"
        tgt = target_noise_batch(x0, y, t_b, eps, sched)
        if not np.array_equal(tgt, eps):
            return "zero_weight_reduction", False, f"target differs at t={t}"
    return "zero_weight_reduction", True, "forward and target collapse exactly"


def check_marginal_consistency(n_draws: int = 20000):
    sched = build_schedule(50, 1e-4, 0.035)
    rng = np.random.default_rng(11)
    x0 = 0.4
    y = -0.7
    for t in (2, 25, 50):
        # draw x_t via the marginal, step back with the oracle noise
        eps = rng.standard_normal(n_draws)
        w, ab, d = sched.w[t], sched.alpha_bar[t], sched.delta[t]
        x_t = (1 - w) * math.sqrt(ab) * x0 + w * math.sqrt(ab) * y \
            + math.sqrt(d) * eps
        c_t = (x_t - math.sqrt(ab) * x0) / math.sqrt(1 - ab)
        z = rng.standard_normal(n_draws)
        x_prev = sched.coef_x[t] * x_t + sched.coef_y[t] * y \
            - sched.coef_eps[t] * c_t \
            + math.sqrt(sched.delta_tilde[t]) * z
        wp, abp, dp = sched.w[t - 1], sched.alpha_bar[t - 1], sched.delta[t - 1]
        mean_ref = (1 - wp) * math.sqrt(abp) * x0 + wp * math.sqrt(abp) * y
        se_mean = math.sqrt(dp / n_draws) if dp > 0 else 1e-9
        if abs(float(x_prev.mean()) - mean_ref) > 6 * max(se_mean, 1e-9):
            return ("marginal_consistency", False,
                    f"mean off at t={t}: {x_prev.mean():.6g} vs {mean_ref:.6g}")
        if dp > 0:
            se_var = dp * math.sqrt(2.0 / n_draws)
            if abs(float(x_prev.var()) - dp) > 6 * se_var:
                return ("marginal_consistency", False,
                        f"variance off at t={t}")
    return "marginal_consistency", True, f"{n_draws} draws at t in (2,25,50)"


def check_gradients(n_coords: int = 12):
    rng = np.random.default_rng(3)
    dnet = DiffusionNet(channels=6, blocks=2, emb_dim=8)
    params = dnet.init_params(rng, dtype=np.float64, zero_head=False)
    x = rng.standard_normal(48)
    y = rng.standard_normal(48)
    tgt = rng.standard_normal(48)

    def loss_value():
        out = dnet.forward(params, x, y, 3.0)
        return float(np.mean(np.abs(out.value - tgt)))

    out = dnet.forward(params, x, y, 3.0, params_tracked=True)
    l1 = ad.mean_all(ad.abs_(ad.sub(out, ad.const(tgt))))
    ad.backward(l1)
    dnet.accumulate_grads(params)
    g = params.grad.copy()
    idx = rng.choice(params.size, size=n_coords, replace=False)
    h = 1e-6
    worst = 0.0
    for j in idx:
        keep = params.flat[j]
        params.flat[j] = keep + h
        up = loss_value()
        params.flat[j] = keep - h
        dn = loss_value()
        params.flat[j] = keep
        fd = (up - dn) / (2 * h)
        worst = max(worst, abs(fd - g[j]) / max(1.0, abs(fd)))
    ok = worst < 1e-4
    return "gradient_spot_checks", ok, f"worst relative error {worst:.3g}"


def check_telescoping(n_rollouts: int = 5):
    sched = build_schedule(20, 1e-3, 0.2)
    rng = np.random.default_rng(23)
    dnet = DiffusionNet(channels=6, blocks=2, emb_dim=8)
    params = dnet.init_params(rng, zero_head=False)
    metric = get_metric("si_snr")
    x0 = rng.standard_normal((n_rollouts, 96)).astype(np.float32)
    y = (x0 + 0.3 * rng.standard_normal((n_rollouts, 96))).astype(np.float32)
    x = start = math.sqrt(float(sched.alpha_bar[sched.T])) * y
    total = np.zeros(n_rollouts)
    for t in range(sched.T, 0, -1):
        eps_hat = dnet.forward(params, x, y, float(t)).value
        nxt = reverse_mean_batch(x, y, eps_hat, np.full(n_rollouts, t), sched)
        total += reward(nxt, x, x0, metric)
        x = nxt
    if not np.array_equal(x, enhance(dnet, params, y, sched)):
        return ("telescoping_reward", False,
                "stepwise walk differs from enhance")
    worst = float(np.max(np.abs(total - reward(x, start, x0, metric))))
    ok = worst < 1e-9
    return "telescoping_reward", ok, f"worst gap {worst:.3g}"


def check_metric_sanity():
    rng = np.random.default_rng(5)
    r = rng.standard_normal(512)
    ok = True
    notes = []
    if si_snr(r, r) != 60.0:
        ok, notes = False, notes + ["identity not at ceiling"]
    if si_snr(2.0 * r, r) != si_snr(r, r):
        ok, notes = False, notes + ["not scale invariant"]
    if neg_mse(r, r + 0.5) != -0.25:
        ok, notes = False, notes + ["neg_mse off"]
    return "metric_sanity", ok, "; ".join(notes) or "si_snr and neg_mse behave"


def check_checkpoint_roundtrip():
    corpus = synth_corpus(3, 4, 256, [5.0], sample_rate=8000)
    cfg = TrainConfig(n_total=6, n_th=4, batch=2, steps=8, beta_max=0.3,
                      d_channels=4, d_blocks=1, v_channels=4, v_mlp_width=8,
                      emb_dim=4, seed=1)
    res = train(cfg, corpus)
    with tempfile.TemporaryDirectory(prefix="mose-chk-") as tmp:
        checkpoint_save(tmp, cfg, res.iteration, res.params_d, res.params_v,
                        res.adam_d, res.adam_v, res.rng, res.l1_ref,
                        res.dnet, res.vnet)
        st = checkpoint_load(tmp)
    ok = np.array_equal(st.params_d.flat, res.params_d.flat) \
        and np.array_equal(st.params_v.flat, res.params_v.flat) \
        and st.iteration == res.iteration
    return "checkpoint_roundtrip", ok, "bitwise round trip"


def check_training_determinism():
    corpus = synth_corpus(9, 4, 256, [5.0], sample_rate=8000)
    cfg = TrainConfig(n_total=8, n_th=5, batch=2, steps=8, beta_max=0.3,
                      d_channels=4, d_blocks=1, v_channels=4, v_mlp_width=8,
                      emb_dim=4, seed=2)
    a = train(cfg, corpus)
    b = train(cfg, corpus)
    ok = np.array_equal(a.params_d.flat, b.params_d.flat) \
        and np.array_equal(a.params_v.flat, b.params_v.flat) \
        and a.telemetry == b.telemetry
    return "training_determinism", ok, "two runs, identical bits"


ALL_CHECKS = (check_schedule_invariants, check_zero_weight_reduction,
              check_marginal_consistency, check_gradients,
              check_telescoping, check_metric_sanity,
              check_checkpoint_roundtrip, check_training_determinism)


def run_selfcheck(quick: bool = False) -> list[tuple[str, bool, str]]:
    results = []
    for fn in ALL_CHECKS:
        if quick and fn in (check_marginal_consistency,
                            check_training_determinism):
            continue
        results.append(fn())
    return results
