"""End-to-end command line flows and exit codes."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

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
    cfg_e.write_text(MICRO_CFG + "elbo_only = true\n")
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
    assert "elbo_only = true" in text
    # the machine, so a benchmark figure can be tied to its host
    keys = {ln.partition(" = ")[0] for ln in text.splitlines()}
    assert {"nproc", "python", "numpy", "blas_name", "blas_version",
            "blas_openblas_configuration", "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS", "MKL_NUM_THREADS"} <= keys
    assert f"numpy = {np.__version__}" in text
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


def test_enhance_without_inputs_is_data_error(work, tmp_path):
    rc = main(["enhance", "--ckpt", str(work["ckpt_e"]),
               "--out", str(tmp_path / "x")])
    assert rc == 3


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
    # telemetry that lost rows the checkpoint covers is refused
    tele = out / "telemetry.csv"
    tele.write_text("".join(tele.read_text().splitlines(True)[:-1]))
    assert main(resume) == 3


def test_exit_code_2_on_bad_config(work, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not_a_key = 5\n")
    rc = main(["train", "--config", str(bad), "--data", str(work["manifest"]),
               "--out", str(tmp_path / "o")])
    assert rc == 2


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
                   + "elbo_only = true\nlr_d_joint = 1e3\n")
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
    assert mose.diffusion in bound and sc in bound
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
