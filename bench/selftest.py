"""The benchmark's own tests.

Run from the root of a checkout:

    python3 -m pytest -q bench/selftest.py

Each check must pass on correct output and fail when handed a wrong one;
every workload gets a one-second smoke run through ``run.py``; and
``BENCHMARK.json`` must name exactly what ``run.py`` prints.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import mose.autodiff as ad  # noqa: E402
from mose import TrainConfig, build_schedule, synth_corpus  # noqa: E402
from mose.metric import si_snr as program_si_snr  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY = TrainConfig(n_total=40, n_th=25, batch=2, seed=4, steps=8,
                   beta_min=0.02, beta_max=0.22, lr_v=1e-4, d_channels=4,
                   d_blocks=2, d_kernel=3, v_channels=8, v_kernel=5,
                   v_mlp_width=8, emb_dim=4)


@pytest.fixture(scope="module")
def tiny_run():
    pairs = synth_corpus(seed=21, n_utterances=4, length=256,
                         snr_levels=[0.0, 10.0])
    return wl.timed_train(TINY, pairs), pairs


@pytest.fixture(scope="module")
def tiny_eval(tiny_run):
    tr, _ = tiny_run
    pairs = synth_corpus(seed=22, n_utterances=4, length=256,
                         snr_levels=[2.5, 12.5], split="test")
    rates, reports, _ = wl.evaluate_round(tr.res, pairs, 3)
    assert [len(rates[s]) for s in ("full", "fast")] == [1, wl.FAST_REPS]
    return tr.res, pairs, reports


def shifted(rows, field, by):
    return [dataclasses.replace(r, **{field: getattr(r, field) + by})
            if i == 0 else r for i, r in enumerate(rows)]


# -- references ---------------------------------------------------------------

def test_reference_si_snr_agrees_with_the_package():
    rng = np.random.default_rng(0)
    r = rng.standard_normal(300)
    for c in (r + 0.3 * rng.standard_normal(300), 2.0 * r, -r, 0.0 * r):
        assert ref.si_snr(c, r) == pytest.approx(program_si_snr(c, r),
                                                 abs=1e-9)


def test_reference_schedule_matches_the_package():
    sched = build_schedule(wl.C7.steps, wl.C7.beta_min, wl.C7.beta_max)
    ab = ref.alpha_bar(ref.linear_betas(wl.C7.steps, wl.C7.beta_min,
                                        wl.C7.beta_max))
    np.testing.assert_allclose(ab, sched.alpha_bar[1:], rtol=1e-13)


# -- checks: pass on correct output, fail on wrong output ---------------------

def test_oracle_walk_recovers_x0_and_an_off_by_one_oracle_does_not():
    sched = build_schedule(wl.C7.steps, wl.C7.beta_min, wl.C7.beta_max)
    pairs = synth_corpus(seed=5, n_utterances=2, length=512,
                         snr_levels=[2.5, 17.5])
    good = wl.oracle_errors(sched, pairs, seed=1)
    assert checks.check_oracle(good) == []
    assert max(good.values()) < 1e-6
    bad = wl.oracle_errors(sched, pairs, seed=1, step_offset=1)
    assert all(v > checks.ORACLE_TOL for v in bad.values())
    assert checks.check_oracle(bad)


def test_phase1_loss_check():
    falling = np.concatenate([np.full(150, 0.25), np.linspace(0.25, 0.06, 250)])
    assert checks.check_phase1_loss(falling, 400) == []
    assert checks.check_phase1_loss(np.full(400, 0.25), 400)
    assert checks.check_phase1_loss(falling, 50)


def test_critic_phase_check(tiny_run):
    tr, _ = tiny_run
    same = tr.critic_same
    assert all(same[:TINY.n_th]) and not same[-1]
    assert checks.check_critic_phase(same, TINY.n_th) == []
    nudged = list(same)
    nudged[4] = False            # critic moved at iteration 5
    assert checks.check_critic_phase(nudged, TINY.n_th)
    frozen = [True] * TINY.n_total
    assert checks.check_critic_phase(frozen, TINY.n_th)


def test_telemetry_check(tiny_run):
    tr, _ = tiny_run
    rows = tr.res.telemetry
    assert checks.check_telemetry(rows, TINY.n_th, TINY.n_total) == []
    early = list(rows)
    early[3] = early[3]._replace(l3=0.0)
    assert checks.check_telemetry(early, TINY.n_th, TINY.n_total)
    late = list(rows)
    late[-1] = late[-1]._replace(reward_mean=math.nan)
    assert checks.check_telemetry(late, TINY.n_th, TINY.n_total)
    assert checks.check_telemetry(rows[:-1], TINY.n_th, TINY.n_total)


def test_corpus_snr_check():
    pairs = synth_corpus(seed=5, n_utterances=4, length=256,
                         snr_levels=[2.5, 7.5])
    assert checks.check_corpus_snr(pairs) == []
    pairs[1] = dataclasses.replace(pairs[1], snr_db=pairs[1].snr_db + 0.1)
    assert checks.check_corpus_snr(pairs)


def test_noisy_score_check(tiny_eval):
    _, pairs, reports = tiny_eval
    rows = reports["full"].rows
    assert checks.check_noisy_scores(rows, pairs) == []
    assert checks.check_noisy_scores(shifted(rows, "noisy", 0.1), pairs)
    assert checks.check_noisy_scores(rows[1:], pairs)


def test_rescore_check(tiny_eval):
    res, pairs, reports = tiny_eval
    rescored = wl.rescore_first(res, pairs, 3)
    for sampler, rep in reports.items():
        assert checks.check_rescored(rep.rows, rescored[sampler]) == []
        assert checks.check_rescored(shifted(rep.rows, "enhanced", 0.1),
                                     rescored[sampler])


def test_gain_check(tiny_eval):
    _, _, reports = tiny_eval
    rows = [dataclasses.replace(r, noisy=2.5, enhanced=2.5 + g)
            for r, g in zip(reports["full"].rows, (0.7, 9.0, 0.5, 9.0))]
    assert checks.check_gain(rows, "full") == []
    lower = [dataclasses.replace(r, enhanced=r.enhanced - 0.2)
             if r.snr_db == 2.5 else r for r in rows]
    assert checks.check_gain(lower, "full")
    assert checks.check_gain([r for r in rows if r.snr_db != 2.5], "full")


# -- tracing ------------------------------------------------------------------

def test_tracer_leaves_the_package_as_it_found_it(tiny_run):
    _, pairs = tiny_run
    conv1d = ad.conv1d
    tr = wl.timed_train(TINY, pairs, tracing.Tracer())
    assert ad.conv1d is conv1d
    assert tr.critic_same[:TINY.n_th] == [True] * TINY.n_th


def test_layer_times_sum_to_the_traced_wall(tiny_run, tiny_eval):
    _, pairs = tiny_run
    t = tracing.Tracer()
    tr = wl.timed_train(TINY, pairs, t)
    layers = t.layer_metrics(TINY.n_total, tr.wall_s)
    total = sum(layers[k] for k in tracing.TIME_METRICS)
    assert total == pytest.approx(layers[tracing.UNIT_WALL], rel=1e-9)
    assert layers["trainer.iteration.self_ms"] > 0
    assert layers["nets.value_net.forward_calls"] > 0
    assert layers["diffusion.reverse_walk.self_ms"] == 0

    res, test_pairs, _ = tiny_eval
    t = tracing.Tracer()
    _, _, wall = wl.evaluate_round(res, test_pairs, 3, t)
    n_utts = len(test_pairs) * (1 + wl.FAST_REPS)
    layers = t.layer_metrics(n_utts, wall, residual="trainer.evaluate.self_ms")
    total = sum(layers[k] for k in tracing.TIME_METRICS)
    assert total == pytest.approx(layers[tracing.UNIT_WALL], rel=1e-9)
    # one full walk of T steps, then FAST_REPS walks of 6 steps, per round
    assert layers["nets.diffusion_net.forward_calls"] == \
        (TINY.steps + 6 * wl.FAST_REPS) / (1 + wl.FAST_REPS)
    assert layers["autodiff.backward.self_ms"] == 0


def test_conv_roles():
    assert tracing.conv_role((12, 2, 1), 1) == "in_proj"
    assert tracing.conv_role((12, 12, 3), 1) == "dconv"
    assert tracing.conv_role((12, 12, 1), 1) == "mix"
    assert tracing.conv_role((1, 12, 1), 1) == "out_proj"
    assert tracing.conv_role((16, 3, 5), 4) == "critic_enc"


# -- the benchmark run from the root of a checkout -----------------------------

def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_what_run_prints():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert spec["paths"] == ["bench"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] > 0 and result["failed"] == 0
    spec = benchmark_spec()
    want = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "train_c7", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
