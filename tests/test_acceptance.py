"""Acceptance gate: nine headline checks, one [PASS]/[FAIL] line each.

These are the package's strongest end-to-end guarantees, each with an
explicit runtime budget. Slow by unit-test standards (the trend check
trains twenty models from five shared warm-ups); the per-criterion lines
print live, bypassing capture, so they land in the run log even when every
check passes.
The measuring code of c1's invariants, c2-c6 and c9 lives in
``mose.selfcheck``, which ``mose selfcheck`` runs too; this file holds the
assertions, the bounds and the time budgets.
"""

import copy
import os
import time
from dataclasses import replace

import mpmath
import pytest

from mose import (TrainConfig, alpha_sweep, build_schedule,
                  mismatch_experiment, synth_corpus, train, write_sweep_csv)
from mose.metric import get_metric
from mose.selfcheck import (C6_CONFIG, C9_CONFIG, c1_schedule_invariants,
                            c2_zero_weight_mismatches, c3_marginal_offsets,
                            c4_gradient_errors, c5_telescoping_gap,
                            c6_phase_discipline, c9_replay_and_resume)


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
    invariants = c1_schedule_invariants(sched)
    ok = worst <= 1e-12 and bool(invariants) and (time.time() - t0) < 1.0
    report(1, ok, f"alpha_bar max abs error {worst:.2e}, w[T]={sched.w[T]}",
           t0)
    assert worst <= 1e-12
    assert invariants
    assert time.time() - t0 < 1.0


def test_c2_zero_weight_reduces_to_unconditional_process(report):
    t0 = time.time()
    failures = c2_zero_weight_mismatches()
    ok = not failures and (time.time() - t0) < 5.0
    report(2, ok, f"100 random unconditional cases bit-exact, "
                  f"{len(failures)} mismatches", t0)
    assert failures == []
    assert time.time() - t0 < 5.0


def test_c3_reverse_step_matches_marginal_in_mean_and_variance(report):
    t0 = time.time()
    checks = c3_marginal_offsets()
    worst = max(max(m, v) for _, m, v in checks)
    ok = worst <= 4.0 and (time.time() - t0) < 120.0
    report(3, ok, f"mean/var at t in (2,10,25,49) within {worst:.2f} SE "
                  f"of the t-1 marginal (limit 4)", t0)
    assert worst <= 4.0
    assert time.time() - t0 < 120.0


def test_c4_every_gradient_path_matches_finite_differences(report):
    t0 = time.time()
    results = c4_gradient_errors()
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
    worst = c5_telescoping_gap()
    ok = worst <= 1e-9 and (time.time() - t0) < 60.0
    report(5, ok, f"100 rollouts, worst telescoping gap {worst:.2e}", t0)
    assert worst <= 1e-9
    assert time.time() - t0 < 60.0


def test_c6_phase_discipline_and_zero_alpha_identity(report):
    t0 = time.time()
    cfg = C6_CONFIG
    frozen_through, moved_after, same_params, same_l1 = c6_phase_discipline()
    ok = (frozen_through >= cfg.n_th and moved_after and same_params
          and same_l1 and (time.time() - t0) < 60.0)
    report(6, ok, f"scorer frozen through iteration {frozen_through} "
                  f"(threshold {cfg.n_th}), phase 1 bit-identical to the "
                  f"alpha=0 run's: {same_params and same_l1}", t0)
    assert frozen_through >= cfg.n_th
    assert moved_after
    assert same_params
    assert same_l1
    assert time.time() - t0 < 60.0


@pytest.mark.slow
def test_c7_metric_driven_training_beats_regression_only(tmp_path, report,
                                                         capfd):
    t0 = time.time()
    train_pairs = c7_train_corpus()
    test_pairs = c7_test_corpus()

    def progress(a, s, rep):
        mean = rep.summary()[0]["enhanced_mean"]
        with capfd.disabled():
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

    # both models continue one warm-up, as alpha_sweep's do; each equals
    # its straight run bit for bit
    warm = train(replace(C7_BASE, seed=0, n_total=C7_BASE.n_th),
                 train_pairs)
    elbo = train(replace(C7_BASE, alpha=0.0, seed=0), train_pairs,
                 resume=copy.deepcopy(warm))
    metric_run = train(replace(C7_BASE, alpha=1.0, seed=0), train_pairs,
                       resume=warm)

    res = mismatch_experiment(elbo.dnet, elbo.params_d, metric_run.params_d,
                              probe_pairs, elbo.schedule,
                              get_metric("si_snr"), get_metric("seg_snr"),
                              seed=0)
    dt = time.time() - t0
    ok = res.corr_reward > res.corr_elbo and dt < 300.0
    # the walk's reward telescopes to its own SI-SNR gain (SI-SNR ignores
    # the scale of the walk's start), so both sides score one walk: c8
    # measures the paper's motivation, that the regression loss tracks
    # quality poorly, and not the critic
    report(8, ok, f"regression loss tracks quality poorly: corr(walk "
                  f"reward, gain) {res.corr_reward:+.3f} vs corr(loss, gain) "
                  f"{res.corr_elbo:+.3f} on {len(res.rows)} utterances "
                  "(does not measure the critic)", t0)
    assert res.corr_reward > res.corr_elbo
    assert dt < 300.0


def test_c9_training_replays_and_resumes_bit_identically(tmp_path, report):
    t0 = time.time()
    cfg = C9_CONFIG
    interrupted, same, n_rows = c9_replay_and_resume(tmp_path)
    dt = time.time() - t0
    ok = interrupted and all(same) and n_rows == cfg.n_total and dt < 120.0
    report(9, ok, f"manifest replay and interrupted resume byte-identical "
                  f"across telemetry and the checkpoint file: {all(same)}",
           t0)
    assert interrupted
    assert all(same)
    assert n_rows == cfg.n_total
    assert dt < 120.0
