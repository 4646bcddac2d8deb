"""Training loop, checkpoints, evaluation, sweep, and the mismatch probe."""

import csv
import hashlib
import math
import os
import re
import stat

import numpy as np
import pytest

import mose.trainer as trainer
from mose import (
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    ParamSet,
    TrainConfig,
    build_schedule,
    default_fast_schedule,
    enhance,
    fast_sample,
    get_metric,
    synth_corpus,
)
from mose.trainer import (
    EvalRow,
    TelemetryRow,
    alpha_sweep,
    build_nets,
    checkpoint_load,
    config_from_mapping,
    config_hash,
    config_to_text,
    evaluate,
    mismatch_experiment,
    parse_config_file,
    read_telemetry_csv,
    resolve_metric,
    train,
    write_comparison_csv,
    write_eval_csv,
    write_mismatch_csv,
    write_sweep_csv,
    write_telemetry_csv,
)

MICRO = TrainConfig(n_total=12, n_th=6, batch=2, seed=0, steps=8,
                    beta_min=0.02, beta_max=0.22,
                    d_channels=4, d_blocks=2, d_kernel=3,
                    v_channels=8, v_kernel=5, v_mlp_width=8, emb_dim=4,
                    lr_v=1e-4)


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(seed=21, n_utterances=4, length=256,
                        snr_levels=[0.0, 10.0], split="train")


def rows_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.iter != rb.iter or ra.phase != rb.phase:
            return False
        va = np.array(ra[2:], dtype=np.float64)
        vb = np.array(rb[2:], dtype=np.float64)
        if not np.array_equal(va, vb, equal_nan=True):
            return False
    return True


# ---------------------------------------------------------------------------
# config plumbing

def test_config_validation_errors():
    with pytest.raises(ConfigError, match="n_th"):
        TrainConfig(n_total=10, n_th=11)
    with pytest.raises(ConfigError, match="gamma"):
        TrainConfig(gamma=1.0)
    with pytest.raises(ConfigError, match="alpha"):
        TrainConfig(alpha=-0.1)
    with pytest.raises(ConfigError, match="lr_v"):
        TrainConfig(lr_v=0.0)
    with pytest.raises(ConfigError, match="batch"):
        TrainConfig(batch=0)
    with pytest.raises(ConfigError, match="steps"):
        TrainConfig(steps=1)
    with pytest.raises(ConfigError, match="beta"):
        TrainConfig(beta_min=0.2, beta_max=0.1)


def test_config_mapping_coerces_strings():
    cfg = config_from_mapping({"n_total": "100", "n_th": "50", "gamma": "0.5",
                               "elbo_only": "true", "metric": " seg_snr "})
    assert cfg.n_total == 100 and cfg.n_th == 50 and cfg.gamma == 0.5
    assert cfg.elbo_only is True and cfg.metric == "seg_snr"
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({"nototal": "5"})
    with pytest.raises(ConfigError, match="bad value"):
        config_from_mapping({"n_total": "many"})
    with pytest.raises(ConfigError, match="bad value"):
        config_from_mapping({"elbo_only": "maybe"})


def test_config_file_round_trip(tmp_path):
    cfg = TrainConfig(n_total=77, n_th=33, gamma=0.25, metric="neg_mse",
                      batch=3)
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\n" + config_to_text(cfg))
    back = parse_config_file(path)
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_total\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_file(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "missing.cfg")


def test_config_hash_tracks_every_field():
    base = TrainConfig()
    assert config_hash(base) == config_hash(TrainConfig())
    assert config_hash(base) != config_hash(TrainConfig(seed=1))
    assert config_hash(base) != config_hash(TrainConfig(alpha=2.0))


# ---------------------------------------------------------------------------
# telemetry files

def test_telemetry_round_trip(tmp_path):
    rows = [TelemetryRow(1, 1, 0.5, math.nan, math.nan, math.nan, math.nan),
            TelemetryRow(2, 2, 0.25, -0.125, 1.75, 0.0625, 0.09375)]
    path = tmp_path / "t.csv"
    write_telemetry_csv(path, rows)
    assert rows_equal(read_telemetry_csv(path), rows)
    write_telemetry_csv(path, [TelemetryRow(3, 2, 0.1, 0, 0, 0, 0)],
                        append=True)
    assert len(read_telemetry_csv(path)) == 3
    (tmp_path / "h.csv").write_text("wrong,header\n")
    with pytest.raises(DataError, match="header"):
        read_telemetry_csv(tmp_path / "h.csv")


def test_resume_truncation_drops_stale_and_torn_rows(tmp_path):
    rows = [TelemetryRow(i, 1, 1.0 / i, math.nan, math.nan, math.nan,
                         math.nan) for i in range(1, 6)]
    path = tmp_path / "t.csv"
    write_telemetry_csv(path, rows)
    text = path.read_text()
    # a write cut short: too few fields, a cut field, a cut iteration
    for torn in ("6,1,0.25", "6,1,0.2,na", "6"):
        path.write_text(text + torn)
        trainer._truncate_telemetry(path, 5)
        assert path.read_text() == text
    trainer._truncate_telemetry(path, 3)
    assert rows_equal(read_telemetry_csv(path), rows[:3])


# ---------------------------------------------------------------------------
# training loop

def test_train_row_count_and_phases(corpus):
    res = train(MICRO, corpus)
    assert len(res.telemetry) == MICRO.n_total
    for row in res.telemetry:
        assert row.phase == (1 if row.iter <= MICRO.n_th else 2)
        assert math.isfinite(row.l1)
        if row.phase == 1:
            assert math.isnan(row.l2) and math.isnan(row.l3)
        else:
            assert math.isfinite(row.l2) and math.isfinite(row.l3)
            assert math.isfinite(row.reward_mean)


def test_train_is_deterministic(corpus):
    a = train(MICRO, corpus)
    b = train(MICRO, corpus)
    assert np.array_equal(a.params_d.flat, b.params_d.flat)
    assert np.array_equal(a.params_v.flat, b.params_v.flat)
    assert rows_equal(a.telemetry, b.telemetry)


def test_scorer_frozen_through_warmup(corpus):
    seen = {}

    def cb(i, pd, pv):
        seen[i] = pv.flat.copy()

    train(MICRO, corpus, iter_callback=cb)
    init = seen[1]
    for i in range(1, MICRO.n_th + 1):
        assert np.array_equal(seen[i], init), f"scorer moved at iter {i}"
    assert not np.array_equal(seen[MICRO.n_th + 1], init)


def test_enhancer_lr_switches_exactly_at_threshold(corpus):
    from dataclasses import replace
    cfg = replace(MICRO, elbo_only=True, lr_d=1e-2, lr_d_joint=1e-9)
    deltas = {}
    last = {}

    def cb(i, pd, pv):
        if last:
            deltas[i] = float(np.max(np.abs(pd.flat - last["p"])))
        last["p"] = pd.flat.copy()

    train(cfg, corpus, iter_callback=cb)
    for i in range(2, cfg.n_total + 1):
        if i <= cfg.n_th:
            assert deltas[i] > 1e-5, f"iter {i} barely moved in phase 1"
        else:
            assert deltas[i] < 1e-6, f"iter {i} moved too much in phase 2"


def test_zero_alpha_equals_regression_only(corpus):
    from dataclasses import replace
    a = train(replace(MICRO, alpha=0.0, elbo_only=False), corpus)
    b = train(replace(MICRO, elbo_only=True), corpus)
    assert np.array_equal(a.params_d.flat, b.params_d.flat)
    l1a = [r.l1 for r in a.telemetry]
    l1b = [r.l1 for r in b.telemetry]
    assert l1a == l1b
    # the regression-only run never touches the scorer
    assert all(math.isnan(r.l3) for r in b.telemetry)
    assert any(math.isfinite(r.l3) for r in a.telemetry)


def test_joint_update_order(corpus):
    # one joint iteration with a zero-head scorer: updated after the
    # enhancer, the scorer's action gradient is exactly zero, so the
    # enhancer moves as in the regression-only run; updated first, it is not
    from dataclasses import replace
    cfg = replace(MICRO, n_th=6, n_total=7, alpha=5.0)
    elbo = train(replace(cfg, elbo_only=True), corpus).params_d.flat
    d_first = train(replace(cfg, update_v_first=False), corpus)
    v_first = train(replace(cfg, update_v_first=True), corpus)
    assert np.array_equal(d_first.params_d.flat, elbo)
    assert not np.array_equal(v_first.params_d.flat, elbo)
    assert d_first.telemetry[-1].l2 == 0.0
    # the zero head also zeroes the bootstrap tail: both orders fit V alike
    assert np.array_equal(d_first.params_v.flat, v_first.params_v.flat)


def test_all_joint_and_all_warmup_edges(corpus):
    from dataclasses import replace
    res = train(replace(MICRO, n_total=4, n_th=0), corpus)
    assert all(r.phase == 2 for r in res.telemetry)
    res = train(replace(MICRO, n_total=4, n_th=4), corpus)
    assert all(r.phase == 1 for r in res.telemetry)


def test_divergence_guard_trips(corpus):
    from dataclasses import replace
    # sane warm window, then an absurd phase-2 learning rate
    cfg = replace(MICRO, n_total=80, n_th=25, elbo_only=True,
                  lr_d_joint=1e3)
    with pytest.raises(DivergenceError, match="exceeded 10x"):
        train(cfg, corpus)


def test_corpus_validation():
    with pytest.raises(DataError, match="empty"):
        train(MICRO, [])
    a = synth_corpus(seed=1, n_utterances=1, length=128, snr_levels=[0.0])
    b = synth_corpus(seed=2, n_utterances=1, length=256, snr_levels=[0.0])
    with pytest.raises(DataError, match="equal-length"):
        train(MICRO, a + b)


# ---------------------------------------------------------------------------
# checkpoint and resume

class Stop(Exception):
    pass


def interrupt_and_resume(tmp_path, corpus, cfg, every, kill, in_memory):
    """Train straight, then kill a run checkpointing every ``every``
    iterations at iteration ``kill`` and resume it from its checkpoint
    (loaded first when ``in_memory``); both must write the same bytes."""
    dir_a = tmp_path / "straight"
    dir_b = tmp_path / "interrupted"
    ref = train(cfg, corpus, out_dir=dir_a)

    def bomb(i, pd, pv):
        if i == kill:
            raise Stop()

    with pytest.raises(Stop):
        train(cfg, corpus, out_dir=dir_b, checkpoint_every=every,
              iter_callback=bomb)
    # the kill point sits past the checkpoint: those rows were never flushed
    last = kill - kill % every
    assert read_telemetry_csv(dir_b / "telemetry.csv")[-1].iter == last
    resume = str(dir_b / "checkpoint")
    if in_memory:
        resume = checkpoint_load(resume)
        assert resume.iteration == last
    res = train(cfg, corpus, out_dir=dir_b, resume=resume)
    assert res.iteration == cfg.n_total
    assert np.array_equal(res.params_d.flat, ref.params_d.flat)
    assert np.array_equal(res.params_v.flat, ref.params_v.flat)
    text_a = (dir_a / "telemetry.csv").read_text()
    text_b = (dir_b / "telemetry.csv").read_text()
    assert text_a == text_b
    assert sorted(os.listdir(dir_a)) == sorted(os.listdir(dir_b))
    assert (dir_a / "checkpoint").read_bytes() == \
        (dir_b / "checkpoint").read_bytes()
    assert res.state.l1_ref == ref.state.l1_ref
    if in_memory:
        assert res.state is resume


def test_interrupted_resume_is_bit_identical(tmp_path, corpus):
    # resumed at iteration 10, inside the guard's 20-iteration warm-up
    from dataclasses import replace
    cfg = replace(MICRO, n_total=24, n_th=12)
    interrupt_and_resume(tmp_path, corpus, cfg, every=10, kill=15,
                         in_memory=False)


def test_resume_past_the_guard_window_is_bit_identical(tmp_path, corpus):
    # resumed at iteration 22, after the warm-up, from a loaded state
    from dataclasses import replace
    cfg = replace(MICRO, n_total=30, n_th=12)
    interrupt_and_resume(tmp_path, corpus, cfg, every=11, kill=25,
                         in_memory=True)


def test_resume_rejects_other_config(tmp_path, corpus):
    from dataclasses import replace
    train(MICRO, corpus, out_dir=tmp_path)
    other = replace(MICRO, gamma=0.5)
    with pytest.raises(CheckpointError, match="different config"):
        train(other, corpus, resume=str(tmp_path / "checkpoint"))


def reseal(blob: bytes) -> bytes:
    """A checkpoint whose sha256 line matches its (edited) contents."""
    fmt, _, rest = blob.partition(b"\n")
    body = rest.partition(b"\n")[2]
    return b"\n".join([fmt, f"sha256 = {hashlib.sha256(body).hexdigest()}"
                       .encode(), body])


def test_checkpoint_corruption_detected(tmp_path, corpus):
    from dataclasses import replace
    train(MICRO, corpus, out_dir=tmp_path)
    ck = tmp_path / "checkpoint"
    good = checkpoint_load(str(ck))
    assert good.iteration == MICRO.n_total
    blob = ck.read_bytes()
    assert reseal(blob) == blob

    def refused(data, match):
        ck.write_bytes(data)
        with pytest.raises(CheckpointError, match=match):
            checkpoint_load(str(ck))

    flipped = bytearray(blob)
    flipped[-5] ^= 0x01  # a payload byte
    refused(bytes(flipped), "sha256")
    refused(blob[:-8], "sha256")
    refused(blob.replace(b"gamma = 0.95", b"gamma = 0.5"), "sha256")
    refused(blob.replace(b"format = ", b"format = x", 1), "unknown format")
    # too few warm-up losses for the iteration would weaken the guard
    refused(reseal(re.sub(rb"(warm_l1 = \S+) .*", rb"\1", blob, count=1)),
            "warm-up losses")

    # a format-2 checkpoint directory is neither read nor replaced
    v2 = tmp_path / "v2"
    (v2 / "checkpoint").mkdir(parents=True)
    (v2 / "checkpoint" / "manifest.txt").write_text(
        "format = mose-checkpoint-2\n")
    with pytest.raises(CheckpointError, match="mose-checkpoint-4"):
        checkpoint_load(str(v2 / "checkpoint"))
    with pytest.raises(CheckpointError, match="is a directory"):
        train(MICRO, corpus, out_dir=v2)

    # a format-3 file, the same but with a critic_step_input line: refused
    v3 = reseal(blob.replace(b"mose-checkpoint-4", b"mose-checkpoint-3")
                .replace(b"update_v_first = ",
                         b"critic_step_input = false\nupdate_v_first = "))
    refused(v3, "unknown format .*mose-checkpoint-3")

    # the format stores float32 only; a wider state is refused, not rounded
    wide = replace(good, params_d=ParamSet(good.params_d.manifest,
                                           good.params_d.flat.astype(
                                               np.float64)))
    with pytest.raises(CheckpointError, match="float32"):
        trainer.checkpoint_save(str(tmp_path / "wide"), wide)


def test_checkpoint_save_syncs_the_directory_after_the_rename(
        tmp_path, corpus, monkeypatch):
    # the rename is durable only once the directory is synced; before that a
    # power loss may bring back the previous checkpoint
    state = train(MICRO, corpus).state
    path = tmp_path / "checkpoint"
    real_fsync = os.fsync
    synced = []

    def recording_fsync(fd):
        st = os.fstat(fd)
        synced.append((stat.S_ISDIR(st.st_mode),
                       os.path.samestat(st, os.stat(tmp_path)),
                       path.exists(), os.path.exists(f"{path}.tmp")))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    trainer.checkpoint_save(path, state)
    monkeypatch.undo()
    # the temp file's data first, then the directory holding the renamed file
    assert synced == [(False, False, False, True), (True, True, True, False)]
    assert checkpoint_load(path).iteration == state.iteration


def test_telemetry_is_synced_before_each_checkpoint_save(tmp_path, corpus,
                                                        monkeypatch):
    # a checkpoint that survives a power loss must find its telemetry rows
    # on disk: the file is synced through the checkpoint's iteration first
    from dataclasses import replace
    cfg = replace(MICRO, n_total=24, n_th=12)
    tele = tmp_path / "telemetry.csv"
    real_fsync = os.fsync
    synced = []

    def recording_fsync(fd):
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            synced.append("dir")
        elif os.path.samestat(st, os.stat(tele)):
            rows = read_telemetry_csv(tele)
            synced.append(rows[-1].iter if rows else 0)
        else:
            synced.append("checkpoint")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    train(cfg, corpus, out_dir=tmp_path, checkpoint_every=10)
    monkeypatch.undo()
    assert synced == [0, 10, "checkpoint", "dir", 20, "checkpoint", "dir",
                      24, "checkpoint", "dir"]


def test_resume_refuses_telemetry_behind_the_checkpoint(tmp_path, corpus):
    # rows the checkpoint covers are gone: resuming would leave a silent gap
    from dataclasses import replace
    cfg = replace(MICRO, n_total=24, n_th=12)

    def bomb(i, pd, pv):
        if i == 15:
            raise Stop()

    with pytest.raises(Stop):
        train(cfg, corpus, out_dir=tmp_path, checkpoint_every=10,
              iter_callback=bomb)
    tele = tmp_path / "telemetry.csv"
    lines = tele.read_text().splitlines(keepends=True)
    assert lines[-1].startswith("10,")
    lagging = "".join(lines[:-1])
    tele.write_text(lagging)
    with pytest.raises(CheckpointError, match="iteration 9, before"):
        train(cfg, corpus, out_dir=tmp_path,
              resume=str(tmp_path / "checkpoint"))
    assert tele.read_text() == lagging


class Torn(Exception):
    pass


def test_crash_mid_save_keeps_the_previous_checkpoint(tmp_path, corpus,
                                                      monkeypatch):
    # the iteration-20 save dies halfway through a write; the iteration-10
    # checkpoint must survive it and resume to the straight run's bytes
    from dataclasses import replace
    cfg = replace(MICRO, n_total=24, n_th=12)
    dir_a = tmp_path / "straight"
    dir_b = tmp_path / "crashed"
    train(cfg, corpus, out_dir=dir_a)
    ckpt = str(dir_b / "checkpoint")
    armed = []

    class TornFile:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise Torn()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def torn_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if armed and "w" in mode and os.fspath(file).startswith(ckpt):
            return TornFile(fh)
        return fh

    monkeypatch.setattr(trainer, "open", torn_open, raising=False)
    with pytest.raises(Torn):
        train(cfg, corpus, out_dir=dir_b, checkpoint_every=10,
              iter_callback=lambda i, *_: armed.append(i) if i == 20 else 0)
    monkeypatch.undo()
    state = checkpoint_load(ckpt)
    assert state.iteration == 10
    train(cfg, corpus, out_dir=dir_b, resume=state)
    assert sorted(os.listdir(dir_a)) == sorted(os.listdir(dir_b))
    for name in ("telemetry.csv", "checkpoint"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_scores_do_not_depend_on_batch_composition():
    # two lengths, each with more utterances than one walk block, interleaved
    sched = build_schedule(6, 0.05, 0.3)
    pairs = []
    for length in (1024, 1500):
        rows = max(1, trainer._WALK_BLOCK_SAMPLES // length)
        pairs += synth_corpus(seed=length, n_utterances=rows + 2,
                              length=length, snr_levels=[0.0, 10.0],
                              split=str(length))
    pairs = pairs[::2] + pairs[1::2]
    dnet, _ = build_nets(MICRO)
    params = dnet.init_params(np.random.default_rng(0), zero_head=False)
    metrics = [get_metric("si_snr"), get_metric("seg_snr")]
    betas = default_fast_schedule(sched, 4)
    for sampler in ("full", "fast"):
        rep = evaluate(dnet, params, pairs, metrics, sched, sampler=sampler,
                       fast_betas=betas, seed=5)
        want = []
        for k, pair in enumerate(pairs):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=5, spawn_key=(k,)))
            y32 = pair.y.astype(np.float32)
            xhat = enhance(dnet, params, y32, sched, rng=rng) \
                if sampler == "full" else \
                fast_sample(dnet, params, y32, betas, sched, rng=rng)
            want += [EvalRow(pair.id, pair.snr_db, pair.split, m.name,
                             m.evaluate(pair.y, pair.x0),
                             m.evaluate(xhat, pair.x0)) for m in metrics]
        assert rep.rows == want


def test_walk_outputs_do_not_depend_on_the_block_size(monkeypatch):
    # 20 signals of 512 samples walk 1, 8 or 16 rows at a time
    sched = build_schedule(6, 0.05, 0.3)
    signals = [p.y for p in synth_corpus(seed=9, n_utterances=20, length=512,
                                         snr_levels=[0.0, 10.0])]
    dnet, _ = build_nets(MICRO)
    params = dnet.init_params(np.random.default_rng(0), zero_head=False)
    betas = default_fast_schedule(sched, 4)
    outputs = []
    for block in (512, 4096, 8192):
        monkeypatch.setattr(trainer, "_WALK_BLOCK_SAMPLES", block)
        outputs.append([
            row.tobytes() for ladder in (None, betas)
            for row in trainer.enhance_all(
                dnet, params, signals,
                [np.random.default_rng(k) for k in range(len(signals))],
                sched, ladder)])
    assert outputs[0] == outputs[1] == outputs[2]


def test_evaluate_validation(corpus):
    sched = build_schedule(10, 0.02, 0.2)
    dnet, _ = build_nets(MICRO)
    params = dnet.init_params(np.random.default_rng(0))
    with pytest.raises(ConfigError, match="sampler"):
        evaluate(dnet, params, corpus, [get_metric("si_snr")], sched,
                 sampler="turbo")
    with pytest.raises(ConfigError, match="fast_betas"):
        evaluate(dnet, params, corpus, [get_metric("si_snr")], sched,
                 sampler="fast")


def test_unprocessed_scores_reproduce_snr_labels():
    # frame-averaged SNR of the raw mixtures, grouped by label, must sit on
    # the label to within 0.1 dB
    pairs = synth_corpus(seed=11, n_utterances=12, length=1024,
                         snr_levels=[0.0, 5.0, 10.0], split="test")
    sched = build_schedule(6, 0.05, 0.3)
    dnet, _ = build_nets(MICRO)
    params = dnet.init_params(np.random.default_rng(0))
    rep = evaluate(dnet, params, pairs, [get_metric("seg_snr")], sched)
    by_label = {}
    for row in rep.rows:
        by_label.setdefault(row.snr_db, []).append(row.noisy)
    assert set(by_label) == {0.0, 5.0, 10.0}
    for label, vals in by_label.items():
        assert abs(float(np.mean(vals)) - label) <= 0.1


def test_eval_csv_shape(tmp_path, corpus):
    sched = build_schedule(6, 0.05, 0.3)
    dnet, _ = build_nets(MICRO)
    params = dnet.init_params(np.random.default_rng(0))
    rep = evaluate(dnet, params, corpus, [get_metric("si_snr")], sched)
    path = tmp_path / "eval.csv"
    write_eval_csv(path, rep)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "snr_db", "split", "metric", "noisy", "enhanced"]
    assert len(rows) == 1 + len(corpus)
    assert float(rows[1][5]) == rep.rows[0].enhanced

    cmp_path = tmp_path / "cmp.csv"
    write_comparison_csv(cmp_path, {"full": rep, "again": rep}, ["si_snr"])
    with open(cmp_path) as fh:
        crows = list(csv.reader(fh))
    assert [r[0] for r in crows] == ["system", "unprocessed", "full", "again"]


def test_resolve_metric_paths():
    assert resolve_metric(MICRO, 16000).name == "si_snr"
    from dataclasses import replace
    ext = resolve_metric(replace(MICRO, metric="ext",
                                 metric_cmd="scorer {candidate} {reference}"),
                         16000)
    assert ext.name == "ext" and callable(ext.evaluate)


# ---------------------------------------------------------------------------
# alpha sweep

def test_alpha_sweep_shape_and_csv(tmp_path, corpus):
    from dataclasses import replace
    base = replace(MICRO, n_total=8, n_th=4)
    sweep = alpha_sweep(base, corpus, corpus, alphas=(0.0, 0.5),
                        seeds=(0, 1))
    assert len(sweep.long_rows) == 4
    assert set(sweep.by_alpha) == {0.0, 0.5}
    for a in (0.0, 0.5):
        assert "si_snr" in sweep.by_alpha[a]
    assert "si_snr" in sweep.unprocessed

    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, sweep, ["si_snr"])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["system", "si_snr"]
    assert [r[0] for r in rows[1:]] == ["unprocessed", "alpha=0", "alpha=0.5"]
    got = float(rows[2][1])
    assert got == pytest.approx(sweep.by_alpha[0.0]["si_snr"], abs=0)


# ---------------------------------------------------------------------------
# mismatch probe

def test_mismatch_needs_three_pairs(sched50, corpus):
    dnet, _ = build_nets(MICRO)
    p = dnet.init_params(np.random.default_rng(0))
    with pytest.raises(DataError, match="at least 3"):
        mismatch_experiment(dnet, p, p, corpus[:2], sched50,
                            get_metric("si_snr"), get_metric("seg_snr"))


def test_mismatch_same_metric_reward_tracks_delta(corpus):
    # with reward metric == report metric the cumulative reward IS the
    # end-to-end gain (the start state scores the same as the input because
    # the metric ignores scale), so the correlation collapses to 1
    sched = build_schedule(10, 0.02, 0.2)
    dnet, _ = build_nets(MICRO)
    pe = dnet.init_params(np.random.default_rng(3), zero_head=False)
    pm = dnet.init_params(np.random.default_rng(4), zero_head=False)
    si = get_metric("si_snr")
    res = mismatch_experiment(dnet, pe, pm, corpus, sched, si, si, seed=2)
    assert len(res.rows) == len(corpus)
    for row in res.rows:
        assert row.rollout_reward == pytest.approx(row.metric_delta,
                                                   abs=1e-6)
    assert res.corr_reward >= 1.0 - 1e-9
    assert -1.0 <= res.corr_elbo <= 1.0


def test_mismatch_csv_shape(tmp_path, corpus):
    sched = build_schedule(10, 0.02, 0.2)
    dnet, _ = build_nets(MICRO)
    pe = dnet.init_params(np.random.default_rng(3), zero_head=False)
    pm = dnet.init_params(np.random.default_rng(4), zero_head=False)
    res = mismatch_experiment(dnet, pe, pm, corpus, sched,
                              get_metric("si_snr"), get_metric("seg_snr"))
    path = tmp_path / "mm.csv"
    write_mismatch_csv(path, res)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "elbo_sum", "rollout_reward", "metric_delta"]
    assert rows[1 + len(corpus)] == []
    assert rows[2 + len(corpus)][0] == "corr_elbo"
    assert float(rows[3 + len(corpus)][1]) == res.corr_reward
