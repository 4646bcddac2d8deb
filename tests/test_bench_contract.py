"""The benchmark's contract with the package, checked without running it.

``bench/`` drives the package through names it looks up at run time: the
tracer patches tape ops, trainer functions and net methods by name, the
workloads train at a copy of the acceptance configuration, and they read
the chain, the enhancer and the telemetry off what ``train`` returns.
These tests only import and read ``bench/``, so a change to the package
that would break the benchmark fails here, in the test suite, first.
"""

import os
import sys

import pytest

import mose.autodiff as ad
import mose.trainer as trainer
from mose import TrainConfig, build_schedule, synth_corpus
from test_acceptance import C7_BASE

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``tracer`` and ``workloads`` modules."""
    sys.path.insert(0, BENCH)
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(BENCH)
    return tracer, workloads


def test_the_tracer_patches_names_the_package_has(bench):
    tracer, _ = bench
    targets = [(ad, op) for op in tracer._AD_OPS + ("conv1d", "backward")]
    targets += [(trainer, name)
                for name in list(tracer._TRAINER_FUNCS) + ["get_metric"]]
    targets += [(cls, attr) for cls, attr, _ in tracer._METHODS]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in targets if not hasattr(owner, attr)]
    assert not missing
    before = [getattr(owner, attr) for owner, attr in targets]
    with tracer.Tracer():
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(targets, before))
    assert all(getattr(owner, attr) is orig
               for (owner, attr), orig in zip(targets, before))


def test_the_benchmark_trains_at_the_acceptance_config(bench):
    _, workloads = bench
    assert workloads.C7 == C7_BASE


MICRO = TrainConfig(n_total=6, n_th=3, batch=2, steps=8, beta_min=0.02,
                    beta_max=0.22, d_channels=4, d_blocks=2, v_channels=8,
                    v_mlp_width=8, emb_dim=4)


def micro_pairs():
    return synth_corpus(seed=21, n_utterances=2, length=256,
                        snr_levels=[0.0, 10.0])


def test_train_returns_what_the_workloads_read(bench):
    _, workloads = bench
    pairs = micro_pairs()
    res = trainer.train(MICRO, pairs)
    for name in ("telemetry", "schedule", "dnet", "params_d"):
        assert hasattr(res, name), name
    _, reports, _ = workloads.evaluate_round(res, pairs, 3)
    assert [len(reports[s].rows) for s in ("full", "fast")] == [2, 2]


def test_the_rescore_stream_is_the_one_evaluate_draws(bench):
    # the workloads re-walk utterance 0 with their own copy of evaluate's
    # per-item noise stream and compare the scores
    _, workloads = bench
    for seed, k in ((0, 0), (3, 0), (7, 5)):
        assert workloads._child_rng(seed, k).bytes(64) == \
            trainer.item_rng(seed, k).bytes(64)


def test_the_benchmark_output_checks_pass_on_a_micro_model(bench):
    # the checks that judge a run's outputs: a walk that evaluate, enhance
    # or fast_sample get wrong fails these, not only the timings
    _, workloads = bench
    checks = workloads.checks
    pairs = micro_pairs()
    res = trainer.train(MICRO, pairs)
    _, reports, _ = workloads.evaluate_round(res, pairs, 3)
    rescored = workloads.rescore_first(res, pairs, 3)
    for sampler, rep in reports.items():
        assert checks.check_rescored(rep.rows, rescored[sampler]) == []
    sched = build_schedule(50, 1e-4, 0.035)
    assert checks.check_oracle(workloads.oracle_errors(sched, pairs, 5)) == []
    # a walk off by one step fails the oracle check
    assert checks.check_oracle(workloads.oracle_errors(sched, pairs, 5,
                                                       step_offset=1))
