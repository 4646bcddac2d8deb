"""The benchmark's workloads, driven through the package's public API.

Both workloads train at the acceptance configuration (C7) with ``train``
and its ``iter_callback``, and enhance a test corpus with ``evaluate`` as
``mose eval`` calls it (default threads), on the full T=50 walk and on the
6-step ``default_fast_schedule`` ladder.  The timed part of a run is whole
rounds, repeated while the next one fits in ``--seconds``; each round holds
one training run and one evaluation round.  So every metric samples the
whole run, and a host that slows for part of it moves every metric alike.
What differs is the size of each part:

* ``train_c7``: training is most of a round: C7 shortened to 400 phase-1
  and 100 joint iterations (tape forward and backward, ``adam_step``, the
  critic, 2*B built-in ``si_snr`` rewards per joint iteration), then an
  evaluation round of that run's model on 24 utterances.
* ``enhance_short``: evaluation is most of a round: 32 x 512-sample
  utterances, untracked B=1 forwards, so per-call overhead and the
  ``evaluate`` pool dominate.  Its model is trained in set-up; each round
  adds a short training run (200 + 60 iterations) for the training metrics.
"""

from __future__ import annotations

import contextlib
import math
import resource
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import mose.trainer as trainer
from mose import TrainConfig, synth_corpus
from mose.diffusion import default_fast_schedule, enhance, fast_sample

import checks
import reference as ref
from tracer import Tracer

# the acceptance configuration C7_BASE of the package's tests
C7 = TrainConfig(
    n_total=4000, n_th=3000, gamma=0.95, alpha=1.0,
    lr_d=2e-4, lr_d_joint=1e-4, lr_v=1e-5, batch=8, seed=0, steps=50,
    beta_min=1e-4, beta_max=0.035,
    d_channels=12, d_blocks=4, d_kernel=3,
    v_channels=16, v_kernel=5, v_mlp_width=32, emb_dim=16,
    update_v_first=True,
)
# The phase-1 loss stays near its start for ~150 iterations, then falls;
# 400 iterations give the loss check and a usable enhancer.
P1_ITERS = 400
TRAIN_SNRS = (0.0, 5.0, 10.0, 15.0)
TEST_SNRS = (2.5, 7.5, 12.5, 17.5)
FAST_STEPS = 6
ORACLE_UTTERANCES = 4
# corpus roles, mixed into the corpus seed so that no two corpora share one
TRAIN_ROLE, TEST_ROLE, WARM_ROLE = 0, 1, 2

END_TO_END = {
    "setup_s": "s",
    "train_p1_ms_per_iter": "ms",
    "train_joint_ms_per_iter": "ms",
    "enhance_full_utts_per_s": "utterances/s",
    "enhance_fast_utts_per_s": "utterances/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Plan:
    """What one run of a workload does."""

    p1_iters: int             # per round's training run
    joint_iters: int
    n_test: int
    test_length: int
    setup_p1: int = 0         # > 0: the evaluated model is trained in set-up
    setup_joint: int = 0


PLANS = {
    "train_c7": Plan(P1_ITERS, 100, 24, 512),
    "enhance_short": Plan(200, 60, 32, 512, setup_p1=600, setup_joint=280),
}
WORKLOADS = tuple(PLANS)

# each evaluation round: one full walk, then FAST_REPS fast ones, so every
# number of whole rounds gives the same per-utterance call counts
FAST_REPS = 3


def corpus(seed: int, role: int, n: int, length: int, snrs, split: str):
    return synth_corpus(seed=4 * seed + role, n_utterances=n, length=length,
                        snr_levels=list(snrs), split=split)


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    attempted: int = 0
    extra: dict = field(default_factory=dict)
    tracer: Tracer | None = None


@dataclass
class Trained:
    res: object
    iter_ms: np.ndarray
    critic_same: list
    wall_s: float


def timed_train(cfg: TrainConfig, pairs, tracer=None) -> Trained:
    """Train, timing each iteration and watching the critic through the
    iteration callback."""
    marks, same, first = [], [], []

    def callback(i, params_d, params_v):
        marks.append(perf_counter())
        if not first:
            first.append(params_v.flat.copy())
        same.append(bool(np.array_equal(params_v.flat, first[0])))

    with tracer or contextlib.nullcontext():
        t0 = perf_counter()
        res = trainer.train(cfg, pairs, iter_callback=callback)
    return Trained(res, np.diff([t0] + marks) * 1e3, same, marks[-1] - t0)


def evaluate_round(res, pairs, seed: int, tracer=None):
    """One full ``evaluate`` and FAST_REPS fast ones over ``pairs``.

    Returns the seconds of each call by sampler, the last report of each
    sampler and the round's wall time.
    """
    fast_betas = default_fast_schedule(res.schedule, FAST_STEPS)
    times = {"full": [], "fast": []}
    reports = {}
    wall = 0.0
    with tracer or contextlib.nullcontext():
        metrics = [trainer.get_metric("si_snr")]
        for sampler, reps in (("full", 1), ("fast", FAST_REPS)):
            for _ in range(reps):
                t = perf_counter()
                reports[sampler] = trainer.evaluate(
                    res.dnet, res.params_d, pairs, metrics, res.schedule,
                    sampler=sampler,
                    fast_betas=fast_betas if sampler == "fast" else None,
                    seed=seed)
                dt = perf_counter() - t
                wall += dt
                times[sampler].append(dt)
    return times, reports, wall


def warm_up(res, pairs, seed: int) -> None:
    """The first evaluate call in a process is slower; pay it in set-up."""
    fast_betas = default_fast_schedule(res.schedule, FAST_STEPS)
    trainer.evaluate(res.dnet, res.params_d, pairs,
                     [trainer.get_metric("si_snr")], res.schedule,
                     sampler="fast", fast_betas=fast_betas, seed=seed)


def _child_rng(seed: int, k: int) -> np.random.Generator:
    # evaluate's documented per-(seed, index) noise stream
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(k,)))


def rescore_first(res, pairs, seed: int) -> dict:
    """Repeat utterance 0's walk on both samplers and score it."""
    fast_betas = default_fast_schedule(res.schedule, FAST_STEPS)
    y32 = pairs[0].y.astype(np.float32)
    full = enhance(res.dnet, res.params_d, y32, res.schedule,
                   rng=_child_rng(seed, 0))
    fast = fast_sample(res.dnet, res.params_d, y32, fast_betas, res.schedule,
                       rng=_child_rng(seed, 0))
    return {"full": {pairs[0].id: ref.si_snr(full, pairs[0].x0)},
            "fast": {pairs[0].id: ref.si_snr(fast, pairs[0].x0)}}


def oracle_errors(sched, pairs, seed: int, step_offset: int = 0) -> dict:
    """Relative error of an exact-noise oracle walked by enhance/fast_sample."""
    fast_betas = default_fast_schedule(sched, FAST_STEPS)
    full_ab = ref.alpha_bar(ref.linear_betas(C7.steps, C7.beta_min,
                                             C7.beta_max))
    fast_ab = ref.alpha_bar(fast_betas)
    rng = np.random.default_rng(seed)
    errs = {}
    for p in pairs:
        y32 = p.y.astype(np.float32)
        oracle = ref.OracleNet(p.x0, full_ab, step_offset)
        out = enhance(oracle, None, y32, sched, rng=rng)
        errs[f"{p.id}/full"] = ref.relative_error(out, p.x0)
        oracle = ref.OracleNet(p.x0, fast_ab, step_offset)
        out = fast_sample(oracle, None, y32, fast_betas, sched, rng=rng)
        errs[f"{p.id}/fast"] = ref.relative_error(out, p.x0)
    return errs


def training_checks(tr: Trained, cfg: TrainConfig, loss: bool) -> list:
    errs = (checks.check_telemetry(tr.res.telemetry, cfg.n_th, cfg.n_total)
            + checks.check_critic_phase(tr.critic_same, cfg.n_th))
    if loss:
        errs += checks.check_phase1_loss([r.l1 for r in tr.res.telemetry],
                                         cfg.n_th)
    return errs


def evaluation_checks(res, pairs, reports, seed: int, judge_gain: bool,
                      record: dict) -> list:
    errs = checks.check_corpus_snr(pairs)
    if not judge_gain:
        return errs
    rescored = rescore_first(res, pairs, seed)
    for sampler, rep in reports.items():
        errs += checks.check_rescored(rep.rows, rescored[sampler])
        errs += checks.check_gain(rep.rows, sampler)
        record[f"gain_db_{sampler}"] = checks.mean_gain(rep.rows)
    oracle = oracle_errors(res.schedule, pairs[:ORACLE_UTTERANCES], seed)
    record["oracle_max_error"] = max(oracle.values())
    return errs + checks.check_oracle(oracle)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def throughput(call_s, n_per_call: int) -> float:
    """Utterances walked over the seconds the calls took."""
    return n_per_call * len(call_s) / math.fsum(call_s)


def round_seed(seed: int, k: int) -> int:
    """Config seed of round k's training run."""
    return 1000 * seed + k + 1


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 setup_clock) -> Outcome:
    """Run one workload; ``setup_clock()`` reads seconds since process start."""
    plan = PLANS[workload]
    tracer = Tracer() if trace else None
    # train_c7 traces its training runs, enhance_short its evaluation
    train_tracer = tracer if not plan.setup_p1 else None
    eval_tracer = tracer if plan.setup_p1 else None
    out = Outcome(tracer=tracer)
    train_pairs = corpus(seed, TRAIN_ROLE, 16, 512, TRAIN_SNRS, "train")
    test_pairs = corpus(seed, TEST_ROLE, plan.n_test, plan.test_length,
                        TEST_SNRS, "test")
    warm_pairs = corpus(seed, WARM_ROLE, 2, plan.test_length, TEST_SNRS,
                        "warm")
    errs = checks.check_corpus_snr(train_pairs)
    if plan.setup_p1:
        cfg = replace(C7, seed=seed, n_th=plan.setup_p1,
                      n_total=plan.setup_p1 + plan.setup_joint)
        model = timed_train(cfg, train_pairs)
        errs += training_checks(model, cfg, loss=True)
    else:
        # a few iterations pay the first calls' costs before timing
        model = timed_train(replace(C7, seed=seed, n_th=2, n_total=4),
                            train_pairs)
    warm_up(model.res, warm_pairs, seed)
    setup_s = setup_clock()

    p1_ms, joint_ms = [], []
    times = {"full": [], "fast": []}
    train_wall = eval_wall = 0.0
    iters = n_utts = rounds = 0
    faults = {"train": 0, "eval": 0}
    t_start = perf_counter()
    while not rounds or \
            (perf_counter() - t_start) * (rounds + 1) / rounds <= seconds:
        cfg = replace(C7, seed=round_seed(seed, rounds), n_th=plan.p1_iters,
                      n_total=plan.p1_iters + plan.joint_iters)
        f0 = minor_faults()
        tr = timed_train(cfg, train_pairs, train_tracer)
        faults["train"] += minor_faults() - f0
        errs += training_checks(tr, cfg, loss=not plan.setup_p1)
        # iteration 1 also carries train()'s own set-up
        p1_ms.extend(tr.iter_ms[1:cfg.n_th])
        joint_ms.extend(tr.iter_ms[cfg.n_th:])
        train_wall += tr.wall_s
        iters += cfg.n_total
        res = model.res if plan.setup_p1 else tr.res
        f0 = minor_faults()
        got, reports, wall = evaluate_round(res, test_pairs, seed,
                                            eval_tracer)
        faults["eval"] += minor_faults() - f0
        for sampler, t in got.items():
            times[sampler].extend(t)
        errs += sum((checks.check_noisy_scores(rep.rows, test_pairs)
                     for rep in reports.values()), [])
        eval_wall += wall
        n_utts += len(test_pairs) * (1 + FAST_REPS)
        rounds += 1

    # Evaluation rates are totals over the run, not medians over calls: with
    # a few calls per run, a median jumps between the host's fast and slow
    # spells, where a total moves with the share of time spent in each.
    out.metrics = {
        "setup_s": setup_s,
        "train_p1_ms_per_iter": float(np.median(p1_ms)),
        "train_joint_ms_per_iter": float(np.median(joint_ms)),
        "enhance_full_utts_per_s": throughput(times["full"], len(test_pairs)),
        "enhance_fast_utts_per_s": throughput(times["fast"], len(test_pairs)),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        out.per_layer = (
            tracer.layer_metrics(iters, train_wall, faults=faults["train"])
            if train_tracer else tracer.layer_metrics(
                n_utts, eval_wall, residual="trainer.evaluate.self_ms",
                faults=faults["eval"]))
    out.attempted = iters + n_utts
    out.extra.update(
        rounds=rounds, call_s=times,
        p1_mean_ms=float(np.mean(p1_ms)),
        joint_mean_ms=float(np.mean(joint_ms)),
        train_unit_wall_ms=train_wall * 1e3 / iters,
        eval_unit_wall_ms=eval_wall * 1e3 / n_utts,
        minor_faults_per_iter=faults["train"] / iters,
        minor_faults_per_utt=faults["eval"] / n_utts)
    out.extra["loss_ratio"] = checks.loss_ratio(
        [r.l1 for r in (model if plan.setup_p1 else tr).res.telemetry],
        plan.setup_p1 or plan.p1_iters)
    out.errors = errs + evaluation_checks(
        res, test_pairs, reports, seed, bool(plan.setup_p1), out.extra)
    return out
