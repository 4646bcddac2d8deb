"""End-to-end command line flows and exit codes."""

import csv
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import mose.trainer as trainer
from mose.cli import main

MICRO_CFG = """\
n_total = 12
n_th = 6
batch = 2
steps = 8
beta_min = 0.02
beta_max = 0.22
lr_v = 1e-4
d_channels = 4
d_blocks = 2
v_channels = 8
v_mlp_width = 8
emb_dim = 4
"""


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Corpus plus two trained micro models (regression-only and metric)."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "corpus"
    rc = main(["synth", "--out", str(data), "--seed", "3",
               "--n-train", "4", "--n-test", "4", "--length", "256",
               "--train-snrs", "0,10", "--test-snrs", "5,15"])
    assert rc == 0
    manifest = data / "manifest.tsv"
    assert manifest.exists()

    cfg_e = root / "elbo.cfg"
    cfg_e.write_text(MICRO_CFG + "alpha = 0\n")
    cfg_m = root / "metric.cfg"
    cfg_m.write_text(MICRO_CFG + "alpha = 1.0\n")

    run_e = root / "run_elbo"
    run_m = root / "run_metric"
    assert main(["train", "--config", str(cfg_e), "--data", str(manifest),
                 "--out", str(run_e), "--dump-schedule"]) == 0
    assert main(["train", "--config", str(cfg_m), "--data", str(manifest),
                 "--out", str(run_m)]) == 0
    return {"root": root, "manifest": manifest,
            "ckpt_e": run_e / "checkpoint", "ckpt_m": run_m / "checkpoint",
            "run_e": run_e}


def test_synth_writes_manifest_and_run_manifest(work):
    lines = work["manifest"].read_text().splitlines()
    assert lines[0] == "id\tclean\tnoisy\tsnr_db\tsplit"
    assert len(lines) == 1 + 8
    run_manifest = work["manifest"].parent / "run_manifest.txt"
    assert "command = synth" in run_manifest.read_text()


def test_train_outputs(work):
    run = work["run_e"]
    assert (run / "telemetry.csv").exists()
    assert (run / "schedule.tsv").exists()
    assert (run / "checkpoint").is_file()
    assert sorted(os.listdir(run)) == ["checkpoint", "run_manifest.txt",
                                       "schedule.tsv", "telemetry.csv"]
    text = (run / "run_manifest.txt").read_text()
    assert "command = train" in text and "config_hash = " in text
    assert "alpha = 0.0" in text
    # the machine, so a benchmark figure can be tied to its host
    keys = {ln.partition(" = ")[0] for ln in text.splitlines()}
    assert {"nproc", "python", "numpy", "blas_name", "blas_version",
            "blas_openblas_configuration", "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS", "MKL_NUM_THREADS", "heap_policy",
            "walk_threads"} <= keys
    assert f"numpy = {np.__version__}" in text
    # the walk's thread pool size: the cores this process may run on
    assert f"walk_threads = {trainer._usable_cores()}" in text
    # the allocator thresholds mose.autodiff applied at import
    if platform.libc_ver()[0] == "glibc":
        assert ("heap_policy = M_TRIM_THRESHOLD=268435456 M_TOP_PAD=67108864 "
                "M_MMAP_THRESHOLD=268435456 M_ARENA_MAX=1 "
                "(mallopt returned ") in text
    assert "MOSE_THREADS" not in text


def test_refuses_nonempty_out_then_force(work, capsys):
    data = str(work["manifest"])
    cfg = work["root"] / "elbo.cfg"
    rc = main(["train", "--config", str(cfg), "--data", data,
               "--out", str(work["run_e"])])
    assert rc == 2
    assert "--force" in capsys.readouterr().err


def test_enhance_from_corpus_and_wav(work, tmp_path):
    out = tmp_path / "enh"
    rc = main(["enhance", "--ckpt", str(work["ckpt_e"]),
               "--data", str(work["manifest"]), "--out", str(out)])
    assert rc == 0
    wavs = sorted(p for p in os.listdir(out) if p.endswith("_enhanced.wav"))
    assert len(wavs) == 8

    first_row = work["manifest"].read_text().splitlines()[1]
    noisy_path = os.path.join(os.path.dirname(str(work["manifest"])),
                              first_row.split("\t")[2])
    out2 = tmp_path / "enh_one"
    rc = main(["enhance", str(noisy_path), "--ckpt", str(work["ckpt_e"]),
               "--out", str(out2)])
    assert rc == 0
    assert len(os.listdir(out2)) == 2  # one wav + run manifest


def test_enhance_outputs_do_not_depend_on_input_order(work, tmp_path):
    root = os.path.dirname(str(work["manifest"]))
    rows = work["manifest"].read_text().splitlines()[1:5]
    paths = [os.path.join(root, r.split("\t")[2]) for r in rows]
    outputs = {}
    for order in (paths, paths[::-1], paths[1:] + paths[:1]):
        out = tmp_path / f"enh{len(outputs)}"
        rc = main(["enhance", *order, "--ckpt", str(work["ckpt_e"]),
                   "--out", str(out), "--seed", "4"])
        assert rc == 0
        wavs = sorted(p for p in os.listdir(out) if p.endswith(".wav"))
        outputs[str(out)] = {p: (out / p).read_bytes() for p in wavs}
    first, *rest = outputs.values()
    assert len(first) == len(paths)
    assert len(set(first.values())) == len(paths)
    assert all(o == first for o in rest)

    rc = main(["enhance", paths[0], paths[0], "--ckpt", str(work["ckpt_e"]),
               "--out", str(tmp_path / "dup")])
    assert rc == 3
    assert not (tmp_path / "dup").exists()


def test_enhance_without_inputs_is_data_error(work, tmp_path):
    rc = main(["enhance", "--ckpt", str(work["ckpt_e"]),
               "--out", str(tmp_path / "x")])
    assert rc == 3
    assert not (tmp_path / "x").exists()


def test_enhance_refusals_leave_no_out_behind(work, tmp_path):
    # WAV paths beside --data would be dropped, and a bad ladder is refused:
    # both before --out is created
    root = os.path.dirname(str(work["manifest"]))
    wav = os.path.join(root, work["manifest"].read_text().splitlines()[1]
                       .split("\t")[2])
    ckpt = ["--ckpt", str(work["ckpt_e"])]
    for k, argv in enumerate([[wav, "--data", str(work["manifest"])],
                              [wav, "--fast-schedule", "abc"]]):
        out = tmp_path / f"o{k}"
        assert main(["enhance", *argv, *ckpt, "--out", str(out)]) == 2
        assert not out.exists()


def test_enhance_unreadable_inputs_are_data_errors(work, tmp_path, capsys):
    # a WAV path that names nothing or a directory, and a manifest row whose
    # WAV is gone: exit 3 naming the path, and no --out is created
    from mose import synth_corpus, write_corpus
    a_dir = tmp_path / "a_dir.wav"
    a_dir.mkdir()
    pairs = synth_corpus(seed=2, n_utterances=2, length=256, snr_levels=[0])
    manifest = write_corpus(pairs, tmp_path / "c")
    gone = tmp_path / "c" / f"{pairs[1].id}_noisy.wav"
    gone.unlink()
    capsys.readouterr()
    for k, (argv, path) in enumerate([([str(tmp_path / "missing.wav")],
                                       tmp_path / "missing.wav"),
                                      ([str(a_dir)], a_dir),
                                      (["--data", manifest], gone)]):
        out = tmp_path / f"o{k}"
        rc = main(["enhance", *argv, "--ckpt", str(work["ckpt_e"]),
                   "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert str(path) in capsys.readouterr().err


def test_out_that_is_a_file_is_config_error(tmp_path, capsys):
    # --out names a file: exit 2, with or without --force, and the file is
    # left as it was
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    for force in ([], ["--force"]):
        rc = main(["synth", "--out", str(afile), "--n-train", "1",
                   "--n-test", "1", "--length", "64", *force])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err
    assert afile.read_text() == "keep\n"


def test_eval_comparison_table(work, tmp_path, capsys):
    out = tmp_path / "ev"
    rc = main(["eval", "--ckpt", str(work["ckpt_e"]),
               "--ckpt", str(work["ckpt_m"]),
               "--data", str(work["manifest"]), "--out", str(out),
               "--metric", "si_snr,seg_snr"])
    assert rc == 0
    with open(out / "comparison.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["system", "si_snr", "seg_snr"]
    systems = [r[0] for r in rows[1:]]
    assert systems[0] == "unprocessed"
    assert set(systems[1:]) == {"alpha=0", "alpha=1"}
    assert (out / "eval_alpha=0.csv").exists()
    printed = capsys.readouterr().out
    assert "si_snr" in printed and "unprocessed" in printed


def test_eval_refuses_a_bad_later_checkpoint_before_writing(work, tmp_path):
    # every checkpoint loads before --out gets a file: a bad second one
    # leaves no first eval CSV behind
    bad = tmp_path / "bad_ckpt"
    bad.write_bytes(work["ckpt_m"].read_bytes()[:-1])
    out = tmp_path / "ev_bad"
    rc = main(["eval", "--ckpt", str(work["ckpt_e"]), "--ckpt", str(bad),
               "--data", str(work["manifest"]), "--out", str(out)])
    assert rc == 3
    assert not out.exists()


def test_eval_fast_ladder(work, tmp_path):
    out = tmp_path / "ev_fast"
    rc = main(["eval", "--ckpt", str(work["ckpt_e"]),
               "--data", str(work["manifest"]), "--out", str(out),
               "--fast-steps", "4"])
    assert rc == 0
    assert (out / "comparison.csv").exists()


def test_eval_fast_ladder_follows_each_checkpoint(work, tmp_path):
    # a second chain, longer and with other betas: each checkpoint's
    # --fast-steps ladder is its own, whichever checkpoint comes first
    run = tmp_path / "run_long"
    cfg = tmp_path / "long.cfg"
    cfg.write_text(MICRO_CFG.replace("n_total = 12", "n_total = 4")
                   .replace("n_th = 6", "n_th = 2")
                   .replace("beta_min = 0.02", "beta_min = 0.001")
                   .replace("beta_max = 0.22", "beta_max = 0.1"))
    assert main(["train", "--config", str(cfg), "--steps", "20",
                 "--data", str(work["manifest"]), "--out", str(run)]) == 0
    ckpts = {"alpha=0": work["ckpt_e"], "alpha=1": run / "checkpoint"}

    def eval_out(*paths):
        out = tmp_path / f"ev{len(os.listdir(tmp_path))}"
        argv = ["eval", "--data", str(work["manifest"]), "--out", str(out),
                "--fast-steps", "6"]
        for path in paths:
            argv += ["--ckpt", str(path)]
        assert main(argv) == 0
        return out

    solo = {label: (eval_out(path) / "eval_checkpoint.csv").read_text()
            for label, path in ckpts.items()}
    for order in (["alpha=0", "alpha=1"], ["alpha=1", "alpha=0"]):
        out = eval_out(*(ckpts[label] for label in order))
        for label in order:
            assert (out / f"eval_{label}.csv").read_text() == solo[label]


def test_eval_bad_fast_schedule_is_config_error(work, tmp_path):
    rc = main(["eval", "--ckpt", str(work["ckpt_e"]),
               "--data", str(work["manifest"]),
               "--out", str(tmp_path / "y"), "--fast-schedule", "0.1,zebra"])
    assert rc == 2


def test_mismatch_command(work, tmp_path, capsys):
    out = tmp_path / "mm"
    rc = main(["mismatch", "--ckpt-elbo", str(work["ckpt_e"]),
               "--ckpt-metric", str(work["ckpt_m"]),
               "--data", str(work["manifest"]), "--out", str(out),
               "--split", "test"])
    assert rc == 0
    assert (out / "mismatch.csv").exists()
    printed = capsys.readouterr().out
    assert "corr(" in printed


def test_mismatch_refuses_checkpoints_that_differ_beyond_alpha(work,
                                                               tmp_path):
    run = tmp_path / "run_steps"
    cfg = tmp_path / "short.cfg"
    cfg.write_text(MICRO_CFG.replace("n_total = 12", "n_total = 2")
                   .replace("n_th = 6", "n_th = 1"))
    assert main(["train", "--config", str(cfg), "--steps", "9",
                 "--data", str(work["manifest"]), "--out", str(run)]) == 0
    out = tmp_path / "mm"
    rc = main(["mismatch", "--ckpt-elbo", str(work["ckpt_e"]),
               "--ckpt-metric", str(run / "checkpoint"),
               "--data", str(work["manifest"]), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["eval", "mismatch"])
def test_unknown_split_is_data_error(work, tmp_path, capsys, cmd):
    # no pair has the split: refused, not scored on the whole corpus
    ckpts = (["--ckpt", str(work["ckpt_e"])] if cmd == "eval" else
             ["--ckpt-elbo", str(work["ckpt_e"]),
              "--ckpt-metric", str(work["ckpt_m"])])
    out = tmp_path / "o"
    rc = main([cmd, *ckpts, "--data", str(work["manifest"]),
               "--out", str(out), "--split", "tset"])
    assert rc == 3
    assert "split 'tset'" in capsys.readouterr().err
    assert not out.exists()


def test_mismatch_refuses_a_short_split_before_out(work, tmp_path, capsys):
    # a split of 2 pairs cannot give the probe's 3: refused, no --out left
    data = tmp_path / "small"
    assert main(["synth", "--out", str(data), "--seed", "4",
                 "--n-train", "2", "--n-test", "2", "--length", "256"]) == 0
    out = tmp_path / "mm"
    rc = main(["mismatch", "--ckpt-elbo", str(work["ckpt_e"]),
               "--ckpt-metric", str(work["ckpt_m"]),
               "--data", str(data / "manifest.tsv"), "--out", str(out),
               "--split", "test"])
    assert rc == 3
    assert "at least 3" in capsys.readouterr().err
    assert not out.exists()


def test_train_resume_flow(work, tmp_path):
    # interrupting is covered in the trainer tests; here the CLI surface:
    # --resume continues a finished checkpoint without --force
    cfg = work["root"] / "elbo.cfg"
    out = tmp_path / "resumed"
    rc = main(["train", "--config", str(cfg),
               "--data", str(work["manifest"]), "--out", str(out)])
    assert rc == 0
    resume = ["train", "--config", str(cfg), "--data", str(work["manifest"]),
              "--out", str(out), "--resume", str(out / "checkpoint")]
    assert main(resume) == 0
    # a resume under another config is refused before the run's manifest
    # is rewritten
    manifest = (out / "run_manifest.txt").read_bytes()
    assert main(resume + ["--alpha", "5"]) == 3
    assert (out / "run_manifest.txt").read_bytes() == manifest
    # telemetry that lost rows the checkpoint covers is rebuilt from it
    tele = out / "telemetry.csv"
    full = tele.read_text()
    tele.write_text("".join(full.splitlines(True)[:-1]))
    assert main(resume) == 0
    assert tele.read_text() == full


def test_train_forks_a_warm_up_checkpoint(work, tmp_path):
    # a warm-up stopped at n_th, resumed under another alpha and n_total,
    # writes the straight run's checkpoint and telemetry
    warm_cfg = tmp_path / "warm.cfg"
    warm_cfg.write_text(MICRO_CFG.replace("n_total = 12", "n_total = 6")
                        + "alpha = 0\n")
    data = ["--data", str(work["manifest"])]
    assert main(["train", "--config", str(warm_cfg), *data,
                 "--out", str(tmp_path / "warm")]) == 0
    fork = tmp_path / "fork"
    assert main(["train", "--config", str(work["root"] / "metric.cfg"), *data,
                 "--out", str(fork),
                 "--resume", str(tmp_path / "warm" / "checkpoint")]) == 0
    straight = work["ckpt_m"].parent
    assert (fork / "checkpoint").read_bytes() == \
        (straight / "checkpoint").read_bytes()
    assert (fork / "telemetry.csv").read_bytes() == \
        (straight / "telemetry.csv").read_bytes()


def test_train_force_refuses_a_checkpoint_directory_before_the_manifest(
        work, tmp_path):
    # a format-2 checkpoint directory cannot be swapped for a file: --force
    # is refused before run_manifest.txt is created or rewritten
    cfg = work["root"] / "elbo.cfg"
    for manifest in (None, b"command = train\n"):
        out = tmp_path / f"old{manifest is None}"
        (out / "checkpoint").mkdir(parents=True)
        if manifest is not None:
            (out / "run_manifest.txt").write_bytes(manifest)
        rc = main(["train", "--config", str(cfg), "--force",
                   "--data", str(work["manifest"]), "--out", str(out)])
        assert rc == 3
        if manifest is None:
            assert not (out / "run_manifest.txt").exists()
        else:
            assert (out / "run_manifest.txt").read_bytes() == manifest


def test_exit_code_2_on_bad_config(work, tmp_path, capsys):
    # an unknown key, the removed regression-only switch (alpha = 0 is that
    # run), and an odd step-embedding width: refused before --out exists
    configs = ["not_a_key = 5\n", "elbo_only = true\n",
               MICRO_CFG.replace("emb_dim = 4", "emb_dim = 3")]
    for k, text in enumerate(configs):
        bad = tmp_path / f"bad{k}.cfg"
        bad.write_text(text)
        out = tmp_path / f"o{k}"
        rc = main(["train", "--config", str(bad),
                   "--data", str(work["manifest"]), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
    assert "unknown config key 'elbo_only'" in capsys.readouterr().err


def test_exit_code_3_on_missing_data(work, tmp_path):
    rc = main(["train", "--config", str(work["root"] / "elbo.cfg"),
               "--data", str(tmp_path / "nowhere.tsv"),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    rc = main(["enhance", "--ckpt", str(tmp_path / "not_a_ckpt"),
               "--data", str(work["manifest"]),
               "--out", str(tmp_path / "o2")])
    assert rc == 3
    # a checkpoint with one byte changed, and a format-2 directory
    blob = bytearray(work["ckpt_e"].read_bytes())
    blob[-1] ^= 0x01
    (tmp_path / "flipped").write_bytes(bytes(blob))
    (tmp_path / "v2").mkdir()
    (tmp_path / "v2" / "manifest.txt").write_text(
        "format = mose-checkpoint-2\n")
    for name in ("flipped", "v2"):
        rc = main(["enhance", "--ckpt", str(tmp_path / name),
                   "--data", str(work["manifest"]),
                   "--out", str(tmp_path / f"o_{name}")])
        assert rc == 3


def test_refused_corpus_leaves_out_empty(tmp_path):
    from dataclasses import replace

    from mose import synth_corpus, write_corpus
    pairs = synth_corpus(1, 2, 128, [0.0], split="train")
    pairs += [replace(p, id=f"long-{p.id}")
              for p in synth_corpus(2, 2, 256, [0.0], split="train")]
    manifest = write_corpus(pairs, str(tmp_path / "mixed"))
    out = tmp_path / "o"
    assert main(["train", "--data", str(manifest), "--out", str(out)]) == 3
    assert not out.exists() or not os.listdir(out)


def test_exit_code_4_on_divergence(work, tmp_path):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(MICRO_CFG.replace("n_total = 12", "n_total = 80")
                   .replace("n_th = 6", "n_th = 25")
                   + "alpha = 0\nlr_d_joint = 1e3\n")
    rc = main(["train", "--config", str(cfg), "--data", str(work["manifest"]),
               "--out", str(tmp_path / "o")])
    assert rc == 4


@pytest.mark.parametrize("argv, ckpt", [
    (["train", "--metric", "bogus"], False),            # MetricError
    (["train", "--steps", "3"], False),                 # ScheduleError
    (["eval", "--fast-schedule", ",".join(["0.1"] * 9)], True),  # > T steps
    (["eval", "--fast-steps", "1"], True),              # ScheduleError
], ids=["metric", "steps", "fast-schedule", "fast-steps"])
def test_exit_code_2_on_bad_arguments(work, tmp_path, argv, ckpt):
    cmd, *rest = argv
    if ckpt:
        rest += ["--ckpt", str(work["ckpt_m"])]
    else:
        rest += ["--config", str(work["root"] / "metric.cfg")]
    tail = ["--data", str(work["manifest"]), "--out", str(tmp_path / "o")]
    assert main([cmd, *rest, *tail]) == 2
    # the refusal left --out reusable: the fixed command needs no --force
    assert main([cmd, *rest[2:], *tail]) == 0


@pytest.mark.parametrize("argv", [
    ["synth", "--train-snrs", "5,abc"],
    ["eval", "--fast-steps", "99"],                          # > T steps
    ["eval", "--fast-schedule", ",".join(["0.5"] * 5)],      # cannot align
    ["eval", "--metric", ","],
    ["enhance", "--fast-schedule", ",".join(["0.5"] * 5)],
    ["mismatch", "--n", "2"],
    ["mismatch", "--reward-metric", "bogus"],
    ["mismatch", "--report-metric", "bogus"],
], ids=["synth-snrs", "eval-fast-steps", "eval-unaligned-ladder",
        "eval-no-metric", "enhance-unaligned-ladder", "mismatch-n",
        "mismatch-reward-metric", "mismatch-report-metric"])
def test_bad_arguments_are_refused_before_out(work, tmp_path, argv):
    cmd, *rest = argv
    data = ["--data", str(work["manifest"])]
    if cmd in ("eval", "enhance"):
        rest += ["--ckpt", str(work["ckpt_m"]), *data]
    elif cmd == "mismatch":
        rest += ["--ckpt-elbo", str(work["ckpt_e"]),
                 "--ckpt-metric", str(work["ckpt_m"]), *data]
    out = tmp_path / "o"
    assert main([cmd, *rest, "--out", str(out)]) == 2
    assert not out.exists()


def test_exit_code_5_on_failed_selfcheck(monkeypatch, capsys):
    import mose.selfcheck as sc
    monkeypatch.setattr(sc, "run_selfcheck",
                        lambda: [("doom", False, "synthetic")])
    rc = main(["selfcheck"])
    assert rc == 5
    assert "[FAIL] doom" in capsys.readouterr().out


def test_selfcheck_quick_passes(capsys):
    rc = main(["selfcheck"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_selfcheck_fails_on_a_perturbed_reverse_mean(monkeypatch, capsys):
    import mose.diffusion
    import mose.selfcheck as sc
    orig = mose.diffusion.reverse_mean_batch

    def perturbed(*args, **kwargs):
        return orig(*args, **kwargs) * (1 + 1e-6)

    bound = [m for name, m in sys.modules.items()
             if name.split(".")[0] == "mose"
             and getattr(m, "reverse_mean_batch", None) is orig]
    assert mose.diffusion in bound
    for module in bound:
        monkeypatch.setattr(module, "reverse_mean_batch", perturbed)

    status = {name: ok for name, ok, _ in sc.run_selfcheck()}
    assert {name.split("_")[0] for name in status} >= {
        "c1", "c2", "c3", "c4", "c5", "c6", "c9"}
    assert status["c2_zero_weight_reduction"] is False
    assert main(["selfcheck"]) == 5
    assert "[FAIL] c2_zero_weight_reduction" in capsys.readouterr().out


def test_version_and_module_entry():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    proc = subprocess.run([sys.executable, "-m", "mose", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
