"""Acceptance gate: nine headline checks, one [PASS]/[FAIL] line each.

These are the package's strongest end-to-end guarantees, each with an
explicit runtime budget. Slow by unit-test standards (the trend check
trains twenty models); the per-criterion lines print live, bypassing
capture, so they land in the run log even when every check passes.
"""

import math
import os
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import mose.autodiff as ad
from mose import (DiffusionNet, TrainConfig, ValueNet, actor_loss,
                  alpha_sweep, bellman_loss, build_schedule, enhance,
                  forward_sample_batch, mismatch_experiment,
                  parse_config_file, reverse_mean_batch, reward, synth_corpus,
                  target_noise_batch, train, write_sweep_csv)
from mose.metric import get_metric
from mose.trainer import read_telemetry_csv


@pytest.fixture
def report(capfd):
    """One live [PASS]/[FAIL] line per criterion, visible under capture."""

    def _report(num: int, ok: bool, detail: str, t0: float) -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"\n[{status}] criterion {num}: {detail} "
                  f"({time.time() - t0:.1f}s)", flush=True)

    return _report


# calibrated desk-scale configuration for the trend and correlation checks
C7_BASE = TrainConfig(
    n_total=4000, n_th=3000, gamma=0.95, alpha=1.0,
    lr_d=2e-4, lr_d_joint=1e-4, lr_v=1e-5, batch=8, seed=0, steps=50,
    beta_min=1e-4, beta_max=0.035,
    d_channels=12, d_blocks=4, d_kernel=3,
    v_channels=16, v_kernel=5, v_mlp_width=32, emb_dim=16,
    update_v_first=True,
)


def c7_train_corpus():
    return synth_corpus(seed=101, n_utterances=16, length=512,
                        snr_levels=[0.0, 5.0, 10.0, 15.0], split="train")


def c7_test_corpus(n: int = 8):
    return synth_corpus(seed=202, n_utterances=n, length=512,
                        snr_levels=[2.5, 7.5, 12.5, 17.5], split="test")


def test_c1_schedule_against_extended_precision_oracle(report):
    t0 = time.time()
    T, bmin, bmax = 50, 1e-4, 0.035
    sched = build_schedule(T, bmin, bmax)

    mpmath.mp.dps = 50
    lo, hi = mpmath.mpf("1e-4"), mpmath.mpf("0.035")
    prod = mpmath.mpf(1)
    worst = 0.0
    for t in range(1, T + 1):
        beta = lo + (hi - lo) * (t - 1) / (T - 1)
        prod *= 1 - beta
        worst = max(worst, abs(float(prod) - float(sched.alpha_bar[t])))
    invariants = (
        float(sched.w[T]) == 1.0
        and np.all(np.diff(sched.w[1:]) >= 0)
        and np.all(sched.delta[1:] >= 0)
        and np.all(np.diff(sched.alpha_bar) < 0)
        and np.all(sched.delta_tilde[2:] <= sched.delta[1:-1] + 1e-15)
    )
    ok = worst <= 1e-12 and bool(invariants) and (time.time() - t0) < 1.0
    report(1, ok, f"alpha_bar max abs error {worst:.2e}, w[T]={sched.w[T]}",
           t0)
    assert worst <= 1e-12
    assert invariants
    assert time.time() - t0 < 1.0


class _FixedPredictor:
    """A noise predictor that returns a preset prediction for each step."""

    def __init__(self, eps_hat):
        self.eps_hat = eps_hat  # row s is the prediction at chain step s

    def forward(self, params, x, y, t):
        return ad.const(self.eps_hat[int(t)][None, :])


def test_c2_zero_weight_reduces_to_unconditional_process(report):
    t0 = time.time()
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
    ok = not failures and (time.time() - t0) < 5.0
    report(2, ok, f"100 random unconditional cases bit-exact, "
                  f"{len(failures)} mismatches", t0)
    assert failures == []
    assert time.time() - t0 < 5.0


def test_c3_reverse_step_matches_marginal_in_mean_and_variance(report):
    t0 = time.time()
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
    worst = max(max(m, v) for _, m, v in checks)
    ok = worst <= 4.0 and (time.time() - t0) < 120.0
    report(3, ok, f"mean/var at t in (2,10,25,49) within {worst:.2f} SE "
                  f"of the t-1 marginal (limit 4)", t0)
    assert worst <= 4.0
    assert time.time() - t0 < 120.0


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


def test_c4_every_gradient_path_matches_finite_differences(report):
    t0 = time.time()
    gen = np.random.default_rng(5)
    dnet = DiffusionNet(channels=6, blocks=2, kernel=3, emb_dim=8)
    vnet = ValueNet(channels=8, kernel=5, strides=(4, 4), mlp_width=16,
                    emb_dim=8)
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

    worst = max(w for w, _ in results.values())
    least = min(c for _, c in results.values())
    ok = worst <= 1e-4 and least >= 100 and (time.time() - t0) < 120.0
    report(4, ok, "worst relative FD error "
           + ", ".join(f"{k} {w:.2e}/{c}" for k, (w, c) in results.items()),
           t0)
    assert worst <= 1e-4
    assert least >= 100
    assert time.time() - t0 < 120.0


def test_c5_cumulative_reward_telescopes_on_deterministic_rollouts(report):
    t0 = time.time()
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
    worst = float(np.max(np.abs(total - reward(x, start, x0, metric))))
    ok = worst <= 1e-9 and (time.time() - t0) < 60.0
    report(5, ok, f"100 rollouts, worst telescoping gap {worst:.2e}", t0)
    assert worst <= 1e-9
    assert time.time() - t0 < 60.0


def test_c6_phase_discipline_and_zero_alpha_identity(report):
    t0 = time.time()
    cfg = TrainConfig(n_total=50, n_th=25, batch=2, seed=4, steps=8,
                      beta_min=0.02, beta_max=0.22, alpha=0.0,
                      lr_v=1e-4, d_channels=4, d_blocks=2, d_kernel=3,
                      v_channels=8, v_kernel=5, v_mlp_width=8, emb_dim=4)
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

    ok = (frozen_through >= cfg.n_th and moved_after and same_params
          and same_l1 and (time.time() - t0) < 60.0)
    report(6, ok, f"scorer frozen through iteration {frozen_through} "
                  f"(threshold {cfg.n_th}), alpha=0 run bit-identical to "
                  f"regression-only: {same_params}", t0)
    assert frozen_through >= cfg.n_th
    assert moved_after
    assert same_params
    assert same_l1
    assert time.time() - t0 < 60.0


@pytest.mark.slow
def test_c7_metric_driven_training_beats_regression_only(tmp_path, report):
    t0 = time.time()
    train_pairs = c7_train_corpus()
    test_pairs = c7_test_corpus()

    def progress(a, s, rep):
        mean = rep.summary()[0]["enhanced_mean"]
        print(f"    alpha={a:g} seed={s}: test si_snr {mean:+.3f} "
              f"({time.time() - t0:.0f}s)", flush=True)

    sweep = alpha_sweep(C7_BASE, train_pairs, test_pairs,
                        alphas=(0.0, 0.1, 1.0, 5.0), seeds=(0, 1, 2, 3, 4),
                        progress=progress)
    out = os.path.join(tmp_path, "sweep.csv")
    write_sweep_csv(out, sweep, ("si_snr",))

    with open(out, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    systems = [ln.split(",")[0] for ln in lines[1:]]
    shape_ok = systems == ["unprocessed", "alpha=0", "alpha=0.1",
                           "alpha=1", "alpha=5"]

    a0 = sweep.by_alpha[0.0]["si_snr"]
    a1 = sweep.by_alpha[1.0]["si_snr"]
    dt = time.time() - t0
    ok = a1 >= a0 and shape_ok and dt < 1800.0
    report(7, ok, f"mean test si_snr alpha=1 {a1:+.3f} vs alpha=0 "
                  f"{a0:+.3f} over 5 seeds; table rows {systems}", t0)
    assert shape_ok
    assert a1 >= a0
    assert dt < 1800.0


@pytest.mark.slow
def test_c8_stepwise_reward_tracks_quality_better_than_the_loss(report):
    t0 = time.time()
    train_pairs = c7_train_corpus()
    probe_pairs = c7_test_corpus(n=12)

    elbo = train(replace(C7_BASE, elbo_only=True, seed=0), train_pairs)
    metric_run = train(replace(C7_BASE, alpha=1.0, seed=0), train_pairs)

    res = mismatch_experiment(elbo.dnet, elbo.params_d, metric_run.params_d,
                              probe_pairs, elbo.schedule,
                              get_metric("si_snr"), get_metric("seg_snr"),
                              seed=0)
    dt = time.time() - t0
    ok = res.corr_reward > res.corr_elbo and dt < 300.0
    report(8, ok, f"corr(reward, gain) {res.corr_reward:+.3f} vs "
                  f"corr(loss, gain) {res.corr_elbo:+.3f} "
                  f"on {len(res.rows)} utterances", t0)
    assert res.corr_reward > res.corr_elbo
    assert dt < 300.0


def test_c9_training_replays_and_resumes_bit_identically(tmp_path, report):
    t0 = time.time()
    cfg = TrainConfig(n_total=24, n_th=12, batch=2, seed=6, steps=8,
                      beta_min=0.02, beta_max=0.22, lr_v=1e-4,
                      d_channels=4, d_blocks=2, d_kernel=3,
                      v_channels=8, v_kernel=5, v_mlp_width=8, emb_dim=4)
    corpus = synth_corpus(seed=21, n_utterances=4, length=256,
                          snr_levels=[0.0, 10.0])

    dir_a = os.path.join(tmp_path, "a")
    train(cfg, corpus, out_dir=dir_a)

    # replay from the stored config text alone
    cfg_replay = parse_config_file(
        os.path.join(dir_a, "checkpoint", "config.txt"))
    dir_b = os.path.join(tmp_path, "b")
    train(cfg_replay, corpus, out_dir=dir_b)

    # interrupt at iteration 15, then resume from the periodic checkpoint
    dir_c = os.path.join(tmp_path, "c")

    class Stop(Exception):
        pass

    def bomb(i, *_):
        if i == 15:
            raise Stop()

    with pytest.raises(Stop):
        train(cfg, corpus, out_dir=dir_c, checkpoint_every=10,
              iter_callback=bomb)
    train(cfg, corpus, out_dir=dir_c,
          resume=os.path.join(dir_c, "checkpoint"))

    def blob(d, name):
        with open(os.path.join(d, name), "rb") as fh:
            return fh.read()

    same = []
    for name in ("telemetry.csv", os.path.join("checkpoint", "theta_d.f32"),
                 os.path.join("checkpoint", "theta_v.f32")):
        same.append(blob(dir_a, name) == blob(dir_b, name)
                    and blob(dir_a, name) == blob(dir_c, name))
    rows = read_telemetry_csv(os.path.join(dir_a, "telemetry.csv"))
    dt = time.time() - t0
    ok = all(same) and len(rows) == cfg.n_total and dt < 120.0
    report(9, ok, f"manifest replay and interrupted resume byte-identical "
                  f"across telemetry and parameters: {all(same)}", t0)
    assert all(same)
    assert len(rows) == cfg.n_total
    assert dt < 120.0
