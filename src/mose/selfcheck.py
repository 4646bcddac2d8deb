"""The acceptance gates c1–c6 and c9, runnable without pytest.

Each ``c*`` function holds the measuring code of one acceptance gate and
returns the values that gate judges; ``tests/test_acceptance.py`` asserts on
them with its bounds and time budgets, and ``run_selfcheck`` applies the
same bounds.  c1 here is the table's structural invariants only (its
extended-precision oracle needs mpmath, a test-only dependency); c7 and c8
train full-size models and live in the test file alone.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from .diffusion import (enhance, forward_sample_batch, reverse_mean_batch,
                        target_noise_batch)
from .metric import get_metric, neg_mse, si_snr
from .nets import DiffusionNet, ValueNet
from .rl import actor_loss, bellman_loss, reward
from .schedule import NoiseSchedule, build_schedule
from .signals import synth_corpus
from .trainer import TrainConfig, checkpoint_load, read_telemetry_csv, train


def c1_schedule_invariants(sched: NoiseSchedule) -> bool:
    """Terminal weight, monotone weights and alpha_bar, nonnegative marginal
    variances, and a posterior variance that contracts."""
    T = sched.T
    return bool(
        float(sched.w[T]) == 1.0
        and np.all(np.diff(sched.w[1:]) >= 0)
        and np.all(sched.delta[1:] >= 0)
        and np.all(np.diff(sched.alpha_bar) < 0)
        and np.all(sched.delta_tilde[2:] <= sched.delta[1:-1] + 1e-15)
    )


class _FixedPredictor:
    """A noise predictor that returns a preset prediction for each step."""

    def __init__(self, eps_hat):
        self.eps_hat = eps_hat  # row s is the prediction at chain step s

    def forward(self, params, x, y, t):
        return ad.const(self.eps_hat[int(t)][None, :])


def c2_zero_weight_mismatches() -> list[tuple[int, str]]:
    """100 random zero-weight chains against the unconditional closed forms;
    returns the (case, "forward" | "target" | "reverse") mismatches."""
    gen = np.random.default_rng(42)
    failures = []
    for case in range(100):
        T = int(gen.integers(4, 28))
        bmin = float(gen.uniform(1e-4, 0.01))
        bmax = float(gen.uniform(0.05, 0.35))
        sched = build_schedule(T, bmin, bmax, weight_mode="zero")
        t = np.array([int(gen.integers(1, T + 1))])
        n = int(gen.integers(8, 64))
        x0 = gen.standard_normal((1, n))
        y = gen.standard_normal((1, n))
        eps = gen.standard_normal((1, n))

        got_f = forward_sample_batch(x0, y, t, eps, sched)
        ab = sched.alpha_bar[t[0]]
        ref_f = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
        if not np.array_equal(got_f, ref_f):
            failures.append((case, "forward"))
        if not np.array_equal(target_noise_batch(x0, y, t, eps, sched), eps):
            failures.append((case, "target"))

        # the whole reverse walk, step noise included, against the
        # unconditional recursion fed the same predictions and draws
        eps_hat = gen.standard_normal((T + 1, n))
        seed = int(gen.integers(2 ** 32))
        got_r = enhance(_FixedPredictor(eps_hat), None, y[0], sched,
                        rng=np.random.default_rng(seed))
        z = np.random.default_rng(seed)
        ab_T = float(sched.alpha_bar[T])
        ref_r = math.sqrt(ab_T) * y[0] \
            + math.sqrt(1.0 - ab_T) * z.standard_normal(n)
        for s in range(T, 0, -1):
            sa = math.sqrt(float(sched.alpha[s]))
            ref_r = (1.0 / sa) * ref_r \
                - (float(sched.beta[s])
                   / (sa * math.sqrt(1.0 - float(sched.alpha_bar[s])))) \
                * eps_hat[s]
            if s > 1:
                ref_r = ref_r + math.sqrt(float(sched.delta_tilde[s])) \
                    * z.standard_normal(n)
        if not np.array_equal(got_r, ref_r):
            failures.append((case, "reverse"))
    return failures


def c3_marginal_offsets() -> list[tuple[int, float, float]]:
    """One reverse step from Monte-Carlo draws of the t marginal; returns
    (t, mean offset, variance offset) from the t-1 marginal, in SEs."""
    sched = build_schedule(50, 1e-4, 0.035)
    gen = np.random.default_rng(7)
    n = 100_000
    x0, y = 0.4, -0.7
    checks = []
    for t in (2, 10, 25, 49):
        w, ab, d = (float(sched.w[t]), float(sched.alpha_bar[t]),
                    float(sched.delta[t]))
        eps = gen.standard_normal(n)
        x_t = (1 - w) * math.sqrt(ab) * x0 + w * math.sqrt(ab) * y \
            + math.sqrt(d) * eps
        c_t = (x_t - math.sqrt(ab) * x0) / math.sqrt(1 - ab)
        z = gen.standard_normal(n)
        x_prev = (sched.coef_x[t] * x_t + sched.coef_y[t] * y
                  - sched.coef_eps[t] * c_t
                  + math.sqrt(sched.delta_tilde[t]) * z)
        wp, abp, dp = (float(sched.w[t - 1]), float(sched.alpha_bar[t - 1]),
                       float(sched.delta[t - 1]))
        mean_ref = (1 - wp) * math.sqrt(abp) * x0 + wp * math.sqrt(abp) * y
        se_mean = math.sqrt(dp / n)
        mean_off = abs(float(x_prev.mean()) - mean_ref) / se_mean
        se_var = dp * math.sqrt(2.0 / (n - 1))
        var_off = abs(float(x_prev.var()) - dp) / se_var
        checks.append((t, mean_off, var_off))
    return checks


def _fd_check(loss_value, base, grad, order, need=100, h=1e-6):
    """Central differences along ``order`` until ``need`` coordinates pass
    the measurability screen; returns (worst relative error, checked).

    Coordinates below the finite-difference noise floor are skipped, as are
    the rare ones where halving h moves the estimate a lot (a kink of the
    piecewise-linear loss sits inside the stencil, so the comparison is
    meaningless there).
    """

    def fd_at(k, step):
        keep = base[k]
        base[k] = keep + step
        hi = loss_value()
        base[k] = keep - step
        lo = loss_value()
        base[k] = keep
        return (hi - lo) / (2 * step)

    worst, checked = 0.0, 0
    for k in order:
        fd = fd_at(k, h)
        g = grad[k]
        if abs(fd) < 1e-6 and abs(g) < 1e-6:
            continue
        half = fd_at(k, h / 2)
        if abs(fd - half) > 1e-3 * max(abs(fd), abs(half)):
            continue
        worst = max(worst, abs(g - fd) / max(abs(fd), abs(g), 1e-8))
        checked += 1
        if checked >= need:
            break
    return worst, checked


def c4_gradient_errors() -> dict[str, tuple[float, int]]:
    """Tape gradients of the regression, actor and Bellman losses against
    central differences; returns {path: (worst relative error, checked)}."""
    gen = np.random.default_rng(5)
    dnet = DiffusionNet(channels=6, blocks=2, kernel=3, emb_dim=8)
    vnet = ValueNet(channels=8, kernel=5, strides=(4, 4), mlp_width=16)
    pd = dnet.init_params(np.random.default_rng(1), dtype=np.float64,
                          zero_head=False)
    pv = vnet.init_params(np.random.default_rng(2), dtype=np.float64,
                          zero_head=False)
    x_t = gen.standard_normal((2, 48))
    y = gen.standard_normal((2, 48))
    x0 = gen.standard_normal((2, 48))
    tgt = gen.standard_normal((2, 48))
    tb = 3.0
    results = {}

    # path 1: regression loss into the enhancer parameters
    out = dnet.forward(pd, x_t, y, tb, params_tracked=True)
    ad.backward(ad.mean_all(ad.abs_(ad.sub(out, ad.const(tgt)))))
    pd.zero_grad()
    dnet.accumulate_grads(pd)
    g1 = pd.grad.copy()

    def l1_value():
        v = dnet.forward(pd, x_t, y, tb).value
        return float(np.mean(np.abs(v - tgt)))

    order = np.random.default_rng(11).permutation(pd.size)
    results["l1/theta_d"] = _fd_check(l1_value, pd.flat, g1, order)

    # path 2: the scorer's value, through the predicted noise, into the
    # enhancer parameters (scorer parameters held fixed)
    out = dnet.forward(pd, x_t, y, tb, params_tracked=True)
    ad.backward(actor_loss(vnet, pv, x_t, out, x0))
    pd.zero_grad()
    dnet.accumulate_grads(pd)
    g2 = pd.grad.copy()

    def l2_value():
        v = dnet.forward(pd, x_t, y, tb).value
        return -float(np.mean(vnet.forward(pv, x_t, v, x0).value))

    order = np.random.default_rng(13).permutation(pd.size)
    results["l2/theta_d"] = _fd_check(l2_value, pd.flat, g2, order)

    # path 3: Bellman regression into the scorer parameters
    eps_fixed = gen.standard_normal((2, 48))
    targets = np.array([0.8, -0.3])
    ad.backward(bellman_loss(vnet, pv, x_t, eps_fixed, x0, targets))
    pv.zero_grad()
    vnet.accumulate_grads(pv)
    g3 = pv.grad.copy()

    def l3_value():
        v = vnet.forward(pv, x_t, eps_fixed, x0).value
        return float(np.mean((targets - v) ** 2))

    order = np.random.default_rng(17).permutation(pv.size)
    results["l3/theta_v"] = _fd_check(l3_value, pv.flat, g3, order)
    return results


def c5_telescoping_gap() -> float:
    """Stepwise rewards of 100 deterministic rollouts against the end-to-end
    reward; returns the worst absolute gap."""
    sched = build_schedule(20, 1e-3, 0.2)
    dnet = DiffusionNet(channels=6, blocks=2, kernel=3, emb_dim=8)
    params = dnet.init_params(np.random.default_rng(3), zero_head=False)
    metric = get_metric("si_snr")
    gen = np.random.default_rng(23)
    draws = [(gen.standard_normal(96), gen.standard_normal(96))
             for _ in range(100)]
    x0 = np.stack([c for c, _ in draws]).astype(np.float32)
    y = (x0 + 0.4 * np.stack([e for _, e in draws])).astype(np.float32)
    # 100 deterministic rollouts, walked as one batch
    x = start = np.float32(math.sqrt(float(sched.alpha_bar[sched.T]))) * y
    total = np.zeros(len(x))
    for t in range(sched.T, 0, -1):
        eps_hat = dnet.forward(params, x, y, float(t)).value
        x_prev = reverse_mean_batch(x, y, eps_hat, np.full(len(x), t), sched)
        total += reward(x_prev, x, x0, metric)
        x = x_prev
    return float(np.max(np.abs(total - reward(x, start, x0, metric))))


C6_CONFIG = TrainConfig(n_total=50, n_th=25, batch=2, seed=4, steps=8,
                        beta_min=0.02, beta_max=0.22, alpha=0.0,
                        lr_v=1e-4, d_channels=4, d_blocks=2, d_kernel=3,
                        v_channels=8, v_kernel=5, v_mlp_width=8, emb_dim=4)


def c6_phase_discipline() -> tuple[int, bool, bool, bool]:
    """Trains ``C6_CONFIG`` (alpha = 0) and its regression-only twin; returns
    (last iteration with the scorer still at its first value, whether it
    moved after n_th, same enhancer parameters, same l1 telemetry)."""
    cfg = C6_CONFIG
    corpus = synth_corpus(seed=21, n_utterances=4, length=256,
                          snr_levels=[0.0, 10.0])

    snapshots = {}

    def capture(i, params_d, params_v):
        snapshots[i] = params_v.flat.copy()

    res = train(cfg, corpus, iter_callback=capture)
    v0 = snapshots[1]
    frozen_through = max(i for i in snapshots
                         if all(np.array_equal(snapshots[j], v0)
                                for j in range(1, i + 1)))
    moved_after = any(not np.array_equal(snapshots[i], v0)
                      for i in snapshots if i > cfg.n_th)

    ref = train(replace(cfg, elbo_only=True), corpus)
    same_params = np.array_equal(res.params_d.flat, ref.params_d.flat)
    same_l1 = [r.l1 for r in res.telemetry] == [r.l1 for r in ref.telemetry]
    return frozen_through, moved_after, same_params, same_l1


C9_CONFIG = TrainConfig(n_total=24, n_th=12, batch=2, seed=6, steps=8,
                        beta_min=0.02, beta_max=0.22, lr_v=1e-4,
                        d_channels=4, d_blocks=2, d_kernel=3,
                        v_channels=8, v_kernel=5, v_mlp_width=8, emb_dim=4)


class _Stop(Exception):
    pass


def c9_replay_and_resume(work_dir) -> tuple[bool, list[bool], int]:
    """Trains ``C9_CONFIG`` into ``work_dir`` three ways: straight, replayed
    from the config stored in its checkpoint, and interrupted at iteration
    15 then resumed from the periodic checkpoint.  Returns (whether the
    interruption fired, byte equality of telemetry.csv and of the checkpoint
    file across the three, telemetry rows of the straight run)."""
    cfg = C9_CONFIG
    corpus = synth_corpus(seed=21, n_utterances=4, length=256,
                          snr_levels=[0.0, 10.0])

    dir_a = os.path.join(work_dir, "a")
    train(cfg, corpus, out_dir=dir_a)

    # replay from the stored config alone
    cfg_replay = checkpoint_load(os.path.join(dir_a, "checkpoint")).config
    dir_b = os.path.join(work_dir, "b")
    train(cfg_replay, corpus, out_dir=dir_b)

    # interrupt at iteration 15, then resume from the periodic checkpoint
    dir_c = os.path.join(work_dir, "c")

    def bomb(i, *_):
        if i == 15:
            raise _Stop()

    interrupted = False
    try:
        train(cfg, corpus, out_dir=dir_c, checkpoint_every=10,
              iter_callback=bomb)
    except _Stop:
        interrupted = True
    train(cfg, corpus, out_dir=dir_c,
          resume=os.path.join(dir_c, "checkpoint"))

    def blob(d, name):
        with open(os.path.join(d, name), "rb") as fh:
            return fh.read()

    same = [blob(dir_a, name) == blob(dir_b, name) == blob(dir_c, name)
            for name in ("telemetry.csv", "checkpoint")]
    rows = read_telemetry_csv(os.path.join(dir_a, "telemetry.csv"))
    return interrupted, same, len(rows)


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


def run_selfcheck() -> list[tuple[str, bool, str]]:
    """Gates c1–c6 and c9 with the acceptance test's bounds (not its time
    budgets), then the metric sanity check; one (name, passed, detail) each."""
    results = [("c1_schedule_invariants",
                c1_schedule_invariants(build_schedule(50, 1e-4, 0.035)),
                "T=50 table")]

    failures = c2_zero_weight_mismatches()
    results.append(("c2_zero_weight_reduction", not failures,
                     f"{len(failures)} mismatches in 100 unconditional cases"))

    worst = max(max(m, v) for _, m, v in c3_marginal_offsets())
    results.append(("c3_marginal_consistency", worst <= 4.0,
                    f"within {worst:.2f} SE of the t-1 marginal (limit 4)"))

    errors = c4_gradient_errors()
    worst = max(w for w, _ in errors.values())
    least = min(c for _, c in errors.values())
    results.append(("c4_gradients", worst <= 1e-4 and least >= 100,
                    "worst relative FD error " + ", ".join(
                        f"{k} {w:.2e}/{c}" for k, (w, c) in errors.items())))

    gap = c5_telescoping_gap()
    results.append(("c5_telescoping", gap <= 1e-9,
                    f"100 rollouts, worst gap {gap:.2e}"))

    frozen, moved, same_params, same_l1 = c6_phase_discipline()
    results.append(("c6_phase_discipline",
                    frozen >= C6_CONFIG.n_th and moved and same_params
                    and same_l1,
                    f"scorer frozen through {frozen} (threshold "
                    f"{C6_CONFIG.n_th}), moved after: {moved}, alpha=0 equals "
                    f"regression-only: {same_params and same_l1}"))

    with tempfile.TemporaryDirectory(prefix="mose-c9-") as tmp:
        interrupted, same, n_rows = c9_replay_and_resume(tmp)
    results.append(("c9_replay_resume",
                    interrupted and all(same)
                    and n_rows == C9_CONFIG.n_total,
                    f"replay and resume byte-identical: {all(same)}"))

    results.append(check_metric_sanity())
    return results
