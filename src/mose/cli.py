"""Command line front end.

Subcommands: synth, train, enhance, eval, mismatch, selfcheck.  Every
command that writes results refuses to touch a non-empty output directory
unless --force is given, and drops a run manifest (config snapshot, seed,
package version, machine and BLAS build) next to its outputs so any run can
be replayed.  ``selfcheck`` runs the acceptance gates c1-c6 and c9 (see
``mose.selfcheck``) without pytest.

Exit codes: 0 success, 1 unexpected error, 2 bad configuration or
arguments (including a bad schedule, inference ladder or metric name), 3
missing or malformed data, 4 training divergence, 5 failed self-check.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .diffusion import default_fast_schedule
from .errors import (AlignmentError, CheckFailure, CheckpointError,
                     ConfigError, DataError, DivergenceError, MetricError,
                     MoseError, ScheduleError)
from .metric import get_metric
from .schedule import build_schedule, dump_table
from .signals import load_corpus, synth_corpus, wav_read, wav_write, write_corpus
from .trainer import (TrainConfig, build_dnet, checkpoint_load, config_hash,
                      config_to_text, enhance_all, evaluate,
                      mismatch_experiment, parse_config_file, run_inputs,
                      train, write_comparison_csv, write_eval_csv,
                      write_mismatch_csv)

_EXIT_BY_ERROR = ((ConfigError, 2), (ScheduleError, 2), (AlignmentError, 2),
                  (MetricError, 2), (CheckpointError, 3), (DataError, 3),
                  (DivergenceError, 4), (CheckFailure, 5))


def _prepare_out(out_dir: str, force: bool) -> str:
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not force:
        raise ConfigError(f"output directory {out_dir!r} is not empty; "
                          f"pass --force to overwrite")
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _machine_lines() -> list[str]:
    """Cores, python, numpy, its BLAS build and the BLAS thread settings."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {}
    lines = [f"nproc = {os.cpu_count()}",
             f"python = {platform.python_version()}",
             f"numpy = {np.__version__}"]
    lines += [f"blas_{k.replace(' ', '_')} = {blas.get(k)}"
              for k in ("name", "version", "openblas configuration")]
    lines += [f"{k} = {os.environ.get(k)}" for k in _THREAD_VARS]
    return lines


def _write_run_manifest(out_dir: str, cmd: str, cfg: TrainConfig | None,
                        extra: dict | None = None) -> None:
    lines = [f"command = {cmd}", f"package_version = {__version__}"]
    for k, v in (extra or {}).items():
        lines.append(f"{k} = {v}")
    lines += _machine_lines()
    if cfg is not None:
        lines.append(f"config_hash = {config_hash(cfg)}")
        lines.append("")
        lines.append(config_to_text(cfg).rstrip("\n"))
    with open(os.path.join(out_dir, "run_manifest.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_config(args) -> TrainConfig:
    """The --config file (or the defaults) with the flags given on top."""
    cfg = parse_config_file(args.config) if args.config else TrainConfig()
    return replace(cfg, **{k: getattr(args, k)
                           for k in ("seed", "alpha", "steps", "metric")
                           if getattr(args, k) is not None})


def _split_pairs(data: str, split: str) -> list:
    """The pairs of one split of a corpus; none at all is a data error."""
    pairs = [p for p in load_corpus(data) if p.split == split]
    if not pairs:
        raise DataError(f"{data}: no pairs with split {split!r}")
    return pairs


def _parse_fast_schedule(text: str) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --fast-schedule: {exc}") from exc
    if not vals:
        raise ConfigError("--fast-schedule needs at least one variance")
    return np.asarray(vals)


def cmd_synth(args) -> int:
    out = _prepare_out(args.out, args.force)
    train_snrs = [float(s) for s in args.train_snrs.split(",")]
    test_snrs = [float(s) for s in args.test_snrs.split(",")]
    pairs = synth_corpus(args.seed, args.n_train, args.length, train_snrs,
                         sample_rate=args.sample_rate, split="train")
    pairs += synth_corpus(args.seed + 1, args.n_test, args.length, test_snrs,
                          sample_rate=args.sample_rate, split="test")
    manifest = write_corpus(pairs, out)
    _write_run_manifest(out, "synth", None, {
        "seed": args.seed, "n_train": args.n_train, "n_test": args.n_test,
        "length": args.length, "sample_rate": args.sample_rate,
        "train_snrs": args.train_snrs, "test_snrs": args.test_snrs})
    print(f"wrote {len(pairs)} pairs; manifest at {manifest}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    corpus = _split_pairs(args.data, "train")
    run_inputs(cfg, corpus)  # refuse a bad run before --out gets a file
    out = _prepare_out(args.out, args.force or args.resume is not None)
    _write_run_manifest(out, "train", cfg, {"data": args.data})
    res = train(cfg, corpus, out_dir=out, resume=args.resume,
                checkpoint_every=args.checkpoint_every)
    last = res.telemetry[-1] if res.telemetry else None
    tail = f", final l1 {last.l1:.5g}" if last else ""
    print(f"trained {res.iteration} iterations{tail}; "
          f"checkpoint at {os.path.join(out, 'checkpoint')}")
    if args.dump_schedule:
        with open(os.path.join(out, "schedule.tsv"), "w",
                  encoding="utf-8") as fh:
            fh.write(dump_table(res.schedule))
    return 0


def _load_model(ckpt_path: str):
    st = checkpoint_load(ckpt_path)
    sched = build_schedule(st.config.steps, st.config.beta_min,
                           st.config.beta_max)
    return st, build_dnet(st.config), sched


def _name_rng(seed: int, name: str) -> np.random.Generator:
    """A noise stream keyed by the signal's name, not its position."""
    key = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8],
                         "big")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def cmd_enhance(args) -> int:
    st, dnet, sched = _load_model(args.ckpt)
    out = _prepare_out(args.out, args.force)
    fast = _parse_fast_schedule(args.fast_schedule) \
        if args.fast_schedule else None
    wavs = list(args.wav or [])
    if args.data:
        corpus = load_corpus(args.data)
        entries = [(p.id, p.y, p.sample_rate) for p in corpus]
    else:
        entries = []
        for path in wavs:
            samples, rate = wav_read(path)
            name = os.path.splitext(os.path.basename(path))[0]
            entries.append((name, samples, rate))
    if not entries:
        raise DataError("nothing to enhance: pass WAV paths or --data")
    names = [name for name, _, _ in entries]
    if len(set(names)) != len(names):
        raise DataError("two inputs share a name, so their outputs would "
                        "overwrite each other")
    rngs = [_name_rng(args.seed, name) for name in names]
    enhanced = enhance_all(dnet, st.params_d, [y for _, y, _ in entries],
                           rngs, sched, fast)
    for (name, _, rate), xhat in zip(entries, enhanced):
        wav_write(os.path.join(out, f"{name}_enhanced.wav"), xhat, rate)
    _write_run_manifest(out, "enhance", st.config, {
        "checkpoint": args.ckpt, "seed": args.seed,
        "fast_schedule": args.fast_schedule or "",
        "n_signals": len(entries)})
    print(f"enhanced {len(entries)} signals into {out}")
    return 0


def cmd_eval(args) -> int:
    split = _split_pairs(args.data, args.split)
    out = _prepare_out(args.out, args.force)
    metric_names = [m for m in args.metric.split(",") if m]
    metrics = [get_metric(m) for m in metric_names]
    given = _parse_fast_schedule(args.fast_schedule) \
        if args.fast_schedule else None
    reports = {}
    last_cfg = None
    for ckpt in args.ckpt:
        st, dnet, sched = _load_model(ckpt)
        last_cfg = st.config
        fast = given
        if fast is None and args.fast_steps:  # a ladder for this chain
            fast = default_fast_schedule(sched, args.fast_steps)
        rep = evaluate(dnet, st.params_d, split, metrics, sched,
                       sampler="fast" if fast is not None else "full",
                       fast_betas=fast, seed=args.seed)
        label = os.path.basename(os.path.normpath(ckpt)) or ckpt
        if len(args.ckpt) > 1:
            # regression-only runs are the alpha = 0 system
            a = 0.0 if st.config.elbo_only else st.config.alpha
            label = f"alpha={a:g}"
        while label in reports:
            label += "'"
        reports[label] = rep
        write_eval_csv(os.path.join(out, f"eval_{label}.csv"), rep)
        for s in rep.summary():
            print(f"{label} {s['metric']}: enhanced {s['enhanced_mean']:.4f} "
                  f"(unprocessed {s['noisy_mean']:.4f}, n={s['n']})")
    write_comparison_csv(os.path.join(out, "comparison.csv"), reports,
                         metric_names)
    _write_run_manifest(out, "eval", last_cfg, {
        "data": args.data, "seed": args.seed,
        "checkpoints": ";".join(args.ckpt)})
    print(f"comparison table at {os.path.join(out, 'comparison.csv')}")
    return 0


def cmd_mismatch(args) -> int:
    split = _split_pairs(args.data, args.split)[: args.n]
    out = _prepare_out(args.out, args.force)
    st_e, dnet, sched = _load_model(args.ckpt_elbo)
    st_m, _, sched_m = _load_model(args.ckpt_metric)
    if config_hash(st_e.config) != config_hash(st_m.config):
        # the two models must share a chain and architecture; alpha may differ
        base_e = replace(st_e.config, alpha=0.0, elbo_only=False)
        base_m = replace(st_m.config, alpha=0.0, elbo_only=False)
        if config_to_text(base_e) != config_to_text(base_m):
            raise ConfigError("checkpoints differ beyond alpha/elbo_only; "
                              "the probe needs a shared chain and nets")
    res = mismatch_experiment(dnet, st_e.params_d, st_m.params_d, split,
                              sched, get_metric(args.reward_metric),
                              get_metric(args.report_metric), seed=args.seed)
    write_mismatch_csv(os.path.join(out, "mismatch.csv"), res)
    _write_run_manifest(out, "mismatch", st_m.config, {
        "data": args.data, "n": len(split), "seed": args.seed,
        "reward_metric": args.reward_metric,
        "report_metric": args.report_metric})
    print(f"corr(regression loss, quality gain) = {res.corr_elbo:+.4f}")
    print(f"corr(rollout reward,  quality gain) = {res.corr_reward:+.4f}")
    print(f"rows at {os.path.join(out, 'mismatch.csv')}")
    return 0


def cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck
    results = run_selfcheck()
    failed = 0
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        raise CheckFailure(f"{failed} of {len(results)} checks failed")
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mose",
        description="metric-oriented signal enhancement")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=24)
    p.add_argument("--n-test", type=int, default=8)
    p.add_argument("--length", type=int, default=2048)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.add_argument("--train-snrs", default="0,5,10,15")
    p.add_argument("--test-snrs", default="2.5,7.5,12.5,17.5")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train an enhancer")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--data", required=True, help="corpus manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--metric")
    p.add_argument("--resume", help="checkpoint file to continue from")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--dump-schedule", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("enhance", help="run the reverse walk on signals")
    p.add_argument("wav", nargs="*", help="degraded WAV files")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", help="corpus manifest (enhances noisy sides)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fast-schedule",
                   help="comma-separated inference variances")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_enhance)

    p = sub.add_parser("eval", help="score checkpoints on a corpus")
    p.add_argument("--ckpt", action="append", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metric", default="si_snr")
    p.add_argument("--fast-schedule")
    p.add_argument("--fast-steps", type=int, default=0,
                   help="derive a default inference ladder of this length")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("mismatch",
                       help="training-signal vs quality-gain probe")
    p.add_argument("--ckpt-elbo", required=True)
    p.add_argument("--ckpt-metric", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reward-metric", default="si_snr")
    p.add_argument("--report-metric", default="seg_snr")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_mismatch)

    p = sub.add_parser("selfcheck",
                       help="run the acceptance gates c1-c6 and c9")
    p.set_defaults(fn=cmd_selfcheck)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MoseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for err_type, code in _EXIT_BY_ERROR:
            if isinstance(exc, err_type):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
