"""Two-phase training loop, evaluation, and the schedule-mismatch probe.

Phase 1 (iterations 1..n_th) trains the enhancer on the combined-noise
regression alone.  Phase 2 adds the metric-oriented actor term and starts
training the scorer on bootstrapped improvement targets.  Per iteration the
generator is consumed in a fixed order (utterance indices, noise, steps), so
a run is exactly replayable from its config and seed.

Everything a run carries from one iteration to the next is one
``TrainState``: the config, the iteration count, both parameter sets and
Adam states, the generator and the telemetry row of every iteration done.
It also carries the chain and both nets its config implies, built once when
the state is made, so a trained or loaded state is ready to enhance with.
``train`` starts a fresh state or resumes a given one, steps it in place and
returns it; ``checkpoint_save`` writes all of it and ``checkpoint_load``
reads it back, so a resumed run writes the same bytes as the straight one.
A checkpoint is one sha256-checked file, synced and renamed over the old
one, so a crash mid-save leaves the previous checkpoint whole.  It is the
run's one durable record: ``train`` rewrites ``telemetry.csv`` from the
state's rows whenever it starts.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import rl
from .diffusion import (enhance, fast_sample, forward_sample_batch,
                        reverse_mean_batch, reverse_walk, target_noise_batch)
from .errors import CheckpointError, ConfigError, DataError, DivergenceError
from .metric import MetricSpec, external_metric, get_metric
from .nets import AdamState, DiffusionNet, ParamSet, ValueNet, adam_step
from .schedule import NoiseSchedule, build_schedule
from .signals import SignalPair

_CKPT_FORMAT = "mose-checkpoint-6"


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run except the corpus files."""

    n_total: int = 4000        # total iterations
    n_th: int = 3000           # iterations of pure regression warm-up
    gamma: float = 0.95        # discount for bootstrapped targets
    alpha: float = 1.0         # weight of the actor term; 0 skips the scorer
    lr_d: float = 2e-4         # enhancer learning rate, phase 1
    lr_d_joint: float = 1e-4   # enhancer learning rate, phase 2
    lr_v: float = 1e-5         # scorer learning rate
    batch: int = 8
    seed: int = 0
    steps: int = 50            # chain length T
    beta_min: float = 1e-4
    beta_max: float = 0.035
    metric: str = "si_snr"     # reward metric name
    metric_cmd: str = ""       # external scorer command template, optional
    update_v_first: bool = True  # critic before enhancer in a joint iteration
    d_channels: int = 16
    d_blocks: int = 4
    d_kernel: int = 3
    v_channels: int = 16
    v_kernel: int = 5
    v_mlp_width: int = 32
    emb_dim: int = 16

    def __post_init__(self):
        if self.n_total < 1:
            raise ConfigError("n_total must be >= 1")
        if not 0 <= self.n_th <= self.n_total:
            raise ConfigError("need 0 <= n_th <= n_total")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must lie in [0, 1)")
        if not self.alpha >= 0.0:  # NaN too
            raise ConfigError("alpha must be >= 0")
        for name in ("lr_d", "lr_d_joint", "lr_v"):
            if not getattr(self, name) > 0.0:  # NaN too
                raise ConfigError(f"{name} must be > 0")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if self.steps < 2:
            raise ConfigError("steps must be >= 2")
        if not 0.0 < self.beta_min <= self.beta_max < 1.0:
            raise ConfigError("need 0 < beta_min <= beta_max < 1")
        for name in ("d_channels", "d_blocks", "d_kernel", "v_channels",
                     "v_kernel", "v_mlp_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.emb_dim < 2 or self.emb_dim % 2:
            raise ConfigError("emb_dim must be an even integer >= 2")


def config_to_text(cfg: TrainConfig) -> str:
    """Canonical key = value rendering; floats keep full precision."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            s = "true" if v else "false"
        elif isinstance(v, float):
            s = repr(v)
        else:
            s = str(v)
        lines.append(f"{f.name} = {s}")
    return "\n".join(lines) + "\n"


def config_from_mapping(mapping: dict) -> TrainConfig:
    """Build a config from string (or typed) values over the defaults,
    rejecting unknown keys."""
    kinds = {f.name: f.type for f in fields(TrainConfig)}
    updates = {}
    for key, raw in mapping.items():
        if key not in kinds:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            if kinds[key] == "bool":
                if isinstance(raw, bool):
                    val = raw
                elif str(raw).strip().lower() in ("true", "1", "yes"):
                    val = True
                elif str(raw).strip().lower() in ("false", "0", "no"):
                    val = False
                else:
                    raise ValueError(f"not a boolean: {raw!r}")
            elif kinds[key] == "int":
                val = int(str(raw).strip())
            elif kinds[key] == "float":
                val = float(str(raw).strip())
            else:
                val = str(raw).strip()
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
        updates[key] = val
    return TrainConfig(**updates)


def _key_values(lines, source, error):
    """Yield the (key, value) pairs of flat ``key = value`` lines with #
    comments, in order; a malformed line raises ``error``."""
    for i, ln in enumerate(lines, 1):
        s = ln.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise error(f"{source}:{i}: expected 'key = value', got {ln!r}")
        key, _, val = s.partition("=")
        yield key.strip(), val.strip()


def parse_config_file(path) -> TrainConfig:
    """Read a flat ``key = value`` config file with # comments."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return config_from_mapping(dict(_key_values(lines, path, ConfigError)))


def config_hash(cfg: TrainConfig) -> str:
    return hashlib.sha256(config_to_text(cfg).encode()).hexdigest()[:16]


class TelemetryRow(NamedTuple):
    iter: int
    phase: int
    l1: float
    l2: float
    l3: float
    reward_mean: float
    target_mean: float


TELEMETRY_HEADER = ",".join(TelemetryRow._fields)


def write_telemetry_csv(path, rows, append: bool = False) -> None:
    """Write (or append) rows and sync the file, so rows written before a
    checkpoint save are on disk with it."""
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8", newline="") as fh:
        if not append:
            fh.write(TELEMETRY_HEADER + "\n")
        for r in rows:
            fh.write(",".join(map(repr, r)) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def read_telemetry_csv(path) -> list[TelemetryRow]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TELEMETRY_HEADER:
        raise DataError(f"{path}: missing telemetry header")
    rows = []
    for n, ln in enumerate(lines[1:], 2):
        try:
            it, ph, *vals = ln.split(",")
            rows.append(TelemetryRow(int(it), int(ph), *map(float, vals)))
        except (ValueError, TypeError) as exc:  # a bad field or field count
            raise DataError(f"{path}:{n}: malformed telemetry row "
                            f"{ln!r}") from exc
    return rows


def build_nets(cfg: TrainConfig) -> tuple[DiffusionNet, ValueNet]:
    dnet = DiffusionNet(channels=cfg.d_channels, blocks=cfg.d_blocks,
                        kernel=cfg.d_kernel, emb_dim=cfg.emb_dim,
                        max_time=float(max(200, 4 * cfg.steps)))
    vnet = ValueNet(channels=cfg.v_channels, kernel=cfg.v_kernel,
                    mlp_width=cfg.v_mlp_width)
    return dnet, vnet


def resolve_metric(cfg: TrainConfig, sample_rate: int) -> MetricSpec:
    if cfg.metric_cmd:
        return external_metric(cfg.metric, cfg.metric_cmd, sample_rate)
    return get_metric(cfg.metric)


# ---------------------------------------------------------------------------
# run state and checkpoints

_GUARD_WINDOW = 20  # leading iterations whose mean l1 the guard compares to
_TELEMETRY_COLUMNS = TelemetryRow._fields[2:]  # stored; iter, phase derived


@dataclass
class TrainState:
    """Everything a run carries from one iteration to the next, and the
    chain and nets its config implies."""

    config: TrainConfig
    iteration: int             # iterations done
    params_d: ParamSet
    params_v: ParamSet
    adam_d: AdamState
    adam_v: AdamState
    rng: np.random.Generator
    telemetry: list[TelemetryRow]  # one row per iteration done
    # Built once per state, here; copy.deepcopy and pickle carry them along.
    # They read no field that resume_state may change (alpha, n_total).
    schedule: NoiseSchedule = field(init=False, compare=False, repr=False)
    dnet: DiffusionNet = field(init=False, compare=False, repr=False)
    vnet: ValueNet = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        cfg = self.config
        self.schedule = build_schedule(cfg.steps, cfg.beta_min, cfg.beta_max)
        self.dnet, self.vnet = build_nets(cfg)

    @classmethod
    def fresh(cls, cfg: TrainConfig) -> TrainState:
        """Iteration 0 of ``cfg``'s run, both nets drawn from its seed; a
        bad chain raises here."""
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        state = cls(cfg, 0, None, None, None, None, rng, [])
        state.params_d = state.dnet.init_params(rng)
        state.params_v = state.vnet.init_params(rng)
        state.adam_d = AdamState.fresh(state.params_d)
        state.adam_v = AdamState.fresh(state.params_v)
        return state

    @property
    def l1_ref(self) -> float:
        """The divergence guard's early-run level: the mean l1 of the first
        ``_GUARD_WINDOW`` iterations, NaN until they are done."""
        if len(self.telemetry) < min(_GUARD_WINDOW, self.config.n_total):
            return math.nan
        return float(np.mean([r.l1 for r in self.telemetry[:_GUARD_WINDOW]]))


def checkpoint_save(path, state: TrainState) -> None:
    """Write ``state`` to the file ``path`` through a synced sibling temp
    file renamed over it, so ``path`` is always a whole checkpoint.  The
    directory is synced after the rename, so a power loss cannot bring
    back the previous checkpoint."""
    lines = [f"iteration = {state.iteration}",
             f"adam_d_step = {state.adam_d.step}",
             f"adam_v_step = {state.adam_v.step}",
             "telemetry = " + " ".join(_TELEMETRY_COLUMNS),
             "rng = " + json.dumps(state.rng.bit_generator.state),
             config_to_text(state.config).rstrip("\n")]
    arrays = []
    for tag, params, adam in (("d", state.params_d, state.adam_d),
                              ("v", state.params_v, state.adam_v)):
        if params.dtype != np.float32:
            raise CheckpointError("checkpoint format stores float32 "
                                  f"parameters; got {params.dtype}")
        lines += [f"param {tag} {name} = " + " ".join(str(d) for d in shape)
                  for name, shape in params.manifest]
        arrays += [params.flat, adam.m, adam.v]
    rows = np.array([r[2:] for r in state.telemetry], "<f8")
    body = ("\n".join(lines) + "\n\n").encode() + b"".join(
        a.astype("<f4", copy=False).tobytes() for a in arrays) \
        + rows.tobytes()
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(f"format = {_CKPT_FORMAT}\n"
                 f"sha256 = {hashlib.sha256(body).hexdigest()}\n".encode()
                 + body)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def checkpoint_load(path) -> TrainState:
    """Read a checkpoint file; its format line and digest are checked
    before anything in it is parsed."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path} (this version "
                              f"reads a {_CKPT_FORMAT} file): {exc}") from exc
    head, _, rest = blob.partition(b"\n")
    if head != f"format = {_CKPT_FORMAT}".encode():
        raise CheckpointError(f"{path}: unknown format {head[:40]!r}; this "
                              f"version reads {_CKPT_FORMAT!r}")
    digest, _, body = rest.partition(b"\n")
    if digest != f"sha256 = {hashlib.sha256(body).hexdigest()}".encode():
        raise CheckpointError(f"{path}: contents do not match the recorded "
                              f"sha256 (torn or edited file)")
    header, _, payload = body.partition(b"\n\n")
    params, adam, off = {}, {}, 0
    try:
        kv = dict(_key_values(header.decode().splitlines(), path,
                              CheckpointError))
        iteration = int(kv.pop("iteration"))
        if tuple(kv.pop("telemetry").split()) != _TELEMETRY_COLUMNS:
            raise ValueError("telemetry columns are not "
                             + " ".join(_TELEMETRY_COLUMNS))
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = json.loads(kv.pop("rng"))
        for tag in ("d", "v"):  # each net's parameters, Adam m, Adam v
            manifest = [(key.split()[2],
                         tuple(int(x) for x in kv.pop(key).split()))
                        for key in list(kv) if key.startswith(f"param {tag} ")]
            n = sum(int(np.prod(s)) for _, s in manifest)
            theta, m, v = (np.frombuffer(payload, "<f4", n, off + 4 * n * k)
                           .copy() for k in range(3))
            off += 12 * n
            params[tag] = ParamSet(manifest, theta)
            adam[tag] = AdamState(m, v, int(kv.pop(f"adam_{tag}_step")))
        cfg = config_from_mapping(kv)
    except (KeyError, ValueError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: missing or malformed field: {exc}") \
            from exc
    rows = payload[off:]
    if len(rows) != 8 * len(_TELEMETRY_COLUMNS) * iteration:
        raise CheckpointError(f"{path}: {len(rows)} bytes of telemetry do "
                              f"not hold the {iteration} rows of its "
                              "iteration")
    telemetry = [TelemetryRow(i, 1 if i <= cfg.n_th else 2, *vals)
                 for i, vals in enumerate(np.frombuffer(rows, "<f8").reshape(
                     iteration, len(_TELEMETRY_COLUMNS)).tolist(), 1)]
    state = TrainState(cfg, iteration, params["d"], params["v"], adam["d"],
                       adam["v"], rng, telemetry)
    if state.params_d.manifest != state.dnet.manifest or \
            state.params_v.manifest != state.vnet.manifest:
        raise CheckpointError(f"{path}: layer manifest does not match the "
                              "networks of its config")
    return state


# ---------------------------------------------------------------------------
# training

def resume_state(cfg: TrainConfig, resume) -> TrainState:
    """``resume``, a state or the checkpoint file it names, carrying ``cfg``.

    A state resumes under its own config.  One at or before ``n_th`` may
    also take a config that differs only in ``alpha`` and ``n_total``, as
    phase 1 does not read alpha; anything else raises ``CheckpointError``.
    ``cfg`` goes on the state before ``train`` reads ``l1_ref`` or saves.
    """
    state = resume if isinstance(resume, TrainState) \
        else checkpoint_load(resume)
    own = state.config
    differ = {f.name for f in fields(cfg)
              if getattr(own, f.name) != getattr(cfg, f.name)}
    if differ - {"alpha", "n_total"} or \
            (differ and state.iteration > own.n_th):
        raise CheckpointError(
            "checkpoint was produced by a different config (differs in "
            f"{', '.join(sorted(differ))} at iteration {state.iteration}); "
            "only a state at or before n_th may change alpha and n_total")
    state.config = cfg
    return state


def checkpoint_file(out_dir) -> str:
    """The checkpoint path of a run writing to ``out_dir``; a format-2
    checkpoint directory there, which ``os.replace`` cannot swap, is
    refused."""
    path = os.path.join(str(out_dir), "checkpoint")
    if os.path.isdir(path):
        raise CheckpointError(f"{path} is a directory, not a "
                              f"{_CKPT_FORMAT} file; remove it")
    return path


def run_inputs(cfg: TrainConfig, corpus: list[SignalPair]):
    """The stacked clean and degraded signals and the reward metric of a
    run; a bad corpus or metric raises here."""
    if not corpus:
        raise DataError("empty training corpus")
    length = corpus[0].x0.size
    rate = corpus[0].sample_rate
    for p in corpus:
        if p.x0.size != length:
            raise DataError("training corpus must be equal-length")
        if p.sample_rate != rate:
            raise DataError("training corpus must share one sample rate")
    x0 = np.stack([p.x0 for p in corpus]).astype(np.float32)
    y = np.stack([p.y for p in corpus]).astype(np.float32)
    return x0, y, resolve_metric(cfg, rate)


def train(cfg: TrainConfig, corpus: list[SignalPair], out_dir=None,
          resume: TrainState | str | os.PathLike | None = None,
          checkpoint_every: int = 0, iter_callback=None) -> TrainState:
    """Run a training run, or continue ``resume`` (a state or a checkpoint
    file), to ``cfg.n_total`` iterations; the state is stepped in place and
    returned.

    With ``out_dir`` set, ``telemetry.csv`` there is rewritten from the
    state's rows and then appended to as the run goes, and the state is
    checkpointed to ``out_dir/checkpoint`` every ``checkpoint_every``
    iterations and at the end.
    """
    x0mat, ymat, metric = run_inputs(cfg, corpus)
    n_utt, length = x0mat.shape
    state = TrainState.fresh(cfg) if resume is None \
        else resume_state(cfg, resume)

    telemetry = state.telemetry
    if out_dir is not None:
        ckpt_path = checkpoint_file(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        tele_path = os.path.join(str(out_dir), "telemetry.csv")
        write_telemetry_csv(tele_path, telemetry)
    flushed = len(telemetry)
    rng = state.rng
    l1_ref = state.l1_ref  # fixed once the warm-up window is complete

    for i in range(state.iteration + 1, cfg.n_total + 1):
        # fixed draw order per iteration: utterances, noise, steps
        idx = rng.integers(0, n_utt, size=cfg.batch)
        eps = rng.standard_normal((cfg.batch, length)).astype(np.float32)
        t_arr = rng.integers(1, cfg.steps + 1, size=cfg.batch)
        xb0 = x0mat[idx]
        yb = ymat[idx]
        x_t = forward_sample_batch(xb0, yb, t_arr, eps, state.schedule)
        target = target_noise_batch(xb0, yb, t_arr, eps, state.schedule)

        row = _update(state, i, metric, x_t, yb, xb0, t_arr, target)
        state.iteration = i

        telemetry.append(row)
        if not math.isfinite(row.l1):
            raise DivergenceError(f"iteration {i}: non-finite loss")
        if i <= _GUARD_WINDOW:
            l1_ref = state.l1_ref
        elif row.l1 > 10.0 * l1_ref:
            raise DivergenceError(
                f"iteration {i}: regression loss {row.l1:.6g} exceeded 10x "
                f"its early-run level {l1_ref:.6g}")
        if iter_callback is not None:
            iter_callback(i, state.params_d, state.params_v)
        if out_dir is None:
            continue
        save = checkpoint_every and i % checkpoint_every == 0 \
            and i < cfg.n_total
        # flush before saving, so the file never lags the checkpoint
        if save or i % 200 == 0 or i == cfg.n_total:
            write_telemetry_csv(tele_path, telemetry[flushed:], append=True)
            flushed = len(telemetry)
        if save:
            checkpoint_save(ckpt_path, state)
    if out_dir is not None:
        checkpoint_save(ckpt_path, state)
    return state


def _update(state: TrainState, i: int, metric, x_t, yb, xb0, t_arr,
            target) -> TelemetryRow:
    """Iteration ``i``'s updates and its telemetry row.

    The enhancer takes one Adam step on the L1 loss, plus ``alpha`` times
    the actor loss in the joint phase, which only ``alpha`` > 0 has; a joint
    iteration also updates the scorer on the executed action, before or
    after the enhancer as ``update_v_first`` says.  The iteration's tapes,
    with every intermediate array and gradient, are freed on return.
    """
    cfg, dnet = state.config, state.dnet
    phase1 = i <= cfg.n_th
    joint = not phase1 and cfg.alpha > 0
    pred = dnet.forward(state.params_d, x_t, yb, t_arr, params_tracked=True)
    critic = (math.nan,) * 3
    if joint and cfg.update_v_first:
        critic = _critic_update(state, metric, x_t, yb, xb0, t_arr,
                                pred.value)
    l1_t = rl.l1_loss(pred, target)
    loss, l2 = l1_t, math.nan
    if joint:
        l2_t = rl.actor_loss(state.vnet, state.params_v, x_t, pred, xb0)
        loss, l2 = ad.add(l1_t, ad.scale(l2_t, cfg.alpha)), float(l2_t.value)
    ad.backward(loss)
    dnet.accumulate_grads(state.params_d)
    adam_step(state.params_d, state.adam_d,
              cfg.lr_d if phase1 else cfg.lr_d_joint)
    if joint and not cfg.update_v_first:
        critic = _critic_update(state, metric, x_t, yb, xb0, t_arr,
                                pred.value)
    return TelemetryRow(i, 1 if phase1 else 2, float(l1_t.value), l2,
                        *critic)


def _critic_update(state: TrainState, metric, x_t, yb, xb0, t_arr,
                   action) -> tuple[float, float, float]:
    """One scorer update on the executed ``action``; returns the Bellman
    loss and the mean reward and target."""
    cfg, vnet = state.config, state.vnet
    x_prev = reverse_mean_batch(x_t, yb, action, t_arr, state.schedule)
    rew = rl.reward(x_prev, x_t, xb0, metric)
    targets = rl.critic_target(rew, t_arr, cfg.gamma, vnet, state.params_v,
                               state.dnet, state.params_d, x_prev, yb, xb0)
    l3_t = rl.bellman_loss(vnet, state.params_v, x_t, action, xb0, targets)
    ad.backward(l3_t)
    vnet.accumulate_grads(state.params_v)
    adam_step(state.params_v, state.adam_v, cfg.lr_v)
    return float(l3_t.value), float(np.mean(rew)), float(np.mean(targets))


# ---------------------------------------------------------------------------
# evaluation

# Samples per batched reverse walk.  Equal-length signals walk together,
# max(1, _WALK_BLOCK_SAMPLES // L) rows at a time.  On a 2-core host, blocks
# of 16 rows of 512 samples walked 32 utterances 24-35% faster than blocks of
# 8 rows, and 24 utterances about as fast, at the same peak memory; outputs
# do not depend on the block size.  16000-sample signals walk alone.
_WALK_BLOCK_SAMPLES = 8192


def enhance_all(dnet: DiffusionNet, params_d: ParamSet, signals, rngs,
                sched: NoiseSchedule, fast_betas=None) -> list[np.ndarray]:
    """Reverse-walk every signal, ``signals[k]`` drawing from ``rngs[k]``.

    The full T-step walk, or the ``fast_betas`` ladder when given.  Signals
    of one length walk in (B, L) blocks; each row draws only from its own
    generator, so every output is bit-identical to walking that signal
    alone, whatever else shares its block.
    """
    out = [None] * len(signals)
    by_length: dict[int, list[int]] = {}
    for k, y in enumerate(signals):
        by_length.setdefault(np.size(y), []).append(k)
    for length, idx in by_length.items():
        rows = max(1, _WALK_BLOCK_SAMPLES // length)
        for i in range(0, len(idx), rows):
            block = idx[i:i + rows]
            y = np.stack([signals[k] for k in block]).astype(np.float32)
            g = [rngs[k] for k in block]
            if fast_betas is None:
                xhat = enhance(dnet, params_d, y, sched, rng=g)
            else:
                xhat = fast_sample(dnet, params_d, y, fast_betas, sched,
                                   rng=g)
            for k, row in zip(block, xhat):
                out[k] = row
    return out


def item_rng(seed: int, key: int) -> np.random.Generator:
    """The noise stream of item ``key`` under ``seed``: a child of the seed
    keyed by the item, so its draws do not depend on what else is walked."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


@dataclass
class EvalRow:
    id: str
    snr_db: float | None
    split: str
    metric: str
    noisy: float      # score of the unprocessed degraded signal
    enhanced: float   # score after the reverse walk


@dataclass
class EvalReport:
    rows: list

    def summary(self) -> list[dict]:
        by_metric: dict[str, list[EvalRow]] = {}
        for r in self.rows:
            by_metric.setdefault(r.metric, []).append(r)
        out = []
        for name, rows in by_metric.items():
            enh = np.array([r.enhanced for r in rows])
            noi = np.array([r.noisy for r in rows])
            out.append({"metric": name, "n": len(rows),
                        "enhanced_mean": float(enh.mean()),
                        "noisy_mean": float(noi.mean())})
        return out


def evaluate(dnet: DiffusionNet, params_d: ParamSet,
             pairs: list[SignalPair], metrics: list[MetricSpec],
             sched: NoiseSchedule, *, sampler: str = "full",
             fast_betas=None, seed: int = 0) -> EvalReport:
    """Enhance every pair and score it; deterministic per (seed, index).

    Per-utterance noise comes from an independent child generator keyed by
    the utterance index, so results do not depend on which utterances share
    a batched walk (see ``enhance_all``).
    """
    if sampler not in ("full", "fast"):
        raise ConfigError(f"sampler must be 'full' or 'fast', got {sampler!r}")
    if sampler == "fast" and fast_betas is None:
        raise ConfigError("fast sampling needs fast_betas")
    rngs = [item_rng(seed, k) for k in range(len(pairs))]
    enhanced = enhance_all(dnet, params_d, [p.y for p in pairs], rngs, sched,
                           fast_betas if sampler == "fast" else None)
    return EvalReport([
        EvalRow(pair.id, pair.snr_db, pair.split, m.name,
                m.evaluate(pair.y, pair.x0), m.evaluate(xhat, pair.x0))
        for pair, xhat in zip(pairs, enhanced) for m in metrics])


def write_eval_csv(path, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["id", "snr_db", "split", "metric", "noisy", "enhanced"])
        for r in report.rows:
            wr.writerow([r.id, "" if r.snr_db is None else repr(r.snr_db),
                         r.split, r.metric, repr(r.noisy), repr(r.enhanced)])


def _write_table(path, metric_names, unprocessed: dict, systems) -> None:
    """Header, the unprocessed row, then one row per (label, scores)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["system"] + list(metric_names))
        for label, scores in [("unprocessed", unprocessed)] + list(systems):
            wr.writerow([label] + [repr(scores[m]) for m in metric_names])


def write_comparison_csv(path, reports: dict[str, EvalReport],
                         metric_names: list[str]) -> None:
    """One row per system, one column per metric, plus the unprocessed row."""
    first = next(iter(reports.values()))
    noisy = {s["metric"]: s["noisy_mean"] for s in first.summary()}
    _write_table(path, metric_names, noisy, [
        (label, {s["metric"]: s["enhanced_mean"] for s in rep.summary()})
        for label, rep in reports.items()])


@dataclass
class SweepResult:
    long_rows: list        # (alpha, seed, metric, enhanced_mean, noisy_mean, n)
    by_alpha: dict         # alpha -> metric -> mean over seeds
    unprocessed: dict      # metric -> mean score of the degraded inputs


def alpha_sweep(base: TrainConfig, train_pairs: list[SignalPair],
                test_pairs: list[SignalPair], alphas, seeds,
                metric_names=("si_snr",), progress=None) -> SweepResult:
    """Train one model per (alpha, seed) and score each on the test split
    with the full reverse walk.  Each seed's warm-up is trained once and
    copied for every alpha (see ``resume_state``), with unchanged bits."""
    metrics = [get_metric(m) for m in metric_names]
    long_rows = []
    sums: dict[float, dict[str, list[float]]] = {}
    unprocessed: dict[str, float] = {}
    warm: dict[int, TrainState] = {}
    for a in alphas:
        for s in seeds:
            cfg = replace(base, alpha=float(a), seed=int(s))
            if cfg.n_th and cfg.seed not in warm:
                warm[cfg.seed] = train(replace(cfg, n_total=cfg.n_th),
                                       train_pairs)
            resume = copy.deepcopy(warm[cfg.seed]) if cfg.n_th else None
            st = train(cfg, train_pairs, resume=resume)
            rep = evaluate(st.dnet, st.params_d, test_pairs, metrics,
                           st.schedule, seed=int(s) + 7919)
            for srow in rep.summary():
                long_rows.append((float(a), int(s), srow["metric"],
                                  srow["enhanced_mean"], srow["noisy_mean"],
                                  srow["n"]))
                sums.setdefault(float(a), {}).setdefault(
                    srow["metric"], []).append(srow["enhanced_mean"])
                unprocessed.setdefault(srow["metric"], srow["noisy_mean"])
            if progress is not None:
                progress(a, s, rep)
    by_alpha = {a: {m: float(np.mean(v)) for m, v in inner.items()}
                for a, inner in sums.items()}
    return SweepResult(long_rows, by_alpha, unprocessed)


def write_sweep_csv(path, sweep: SweepResult, metric_names) -> None:
    """Compact comparison table: unprocessed row plus one row per alpha."""
    _write_table(path, metric_names, sweep.unprocessed,
                 [(f"alpha={a:g}", sweep.by_alpha[a])
                  for a in sorted(sweep.by_alpha)])


# ---------------------------------------------------------------------------
# schedule-mismatch probe

@dataclass
class MismatchRow:
    id: str
    elbo_sum: float       # regression loss summed over every step
    rollout_reward: float  # cumulative metric improvement along the walk
    metric_delta: float   # end-to-end metric gain over the degraded input


@dataclass
class MismatchResult:
    rows: list
    corr_elbo: float      # corr(elbo_sum, metric_delta)
    corr_reward: float    # corr(rollout_reward, metric_delta)


def mismatch_experiment(dnet: DiffusionNet, params_elbo: ParamSet,
                        params_metric: ParamSet, pairs: list[SignalPair],
                        sched: NoiseSchedule, reward_metric: MetricSpec,
                        report_metric: MetricSpec, seed: int = 0) -> MismatchResult:
    """Compare two per-utterance training signals against realized quality.

    For each utterance: sum the regression loss of the regression-only model
    over all steps (fresh noise per step), then walk the metric-trained
    model's deterministic reverse chain, and take its cumulative stepwise
    reward (which telescopes to the reward of the whole walk, from its
    start sqrt(ab_T) y to its end) and the end-to-end metric gain of that
    same walk.  Returns the two Pearson correlations against the gain.
    """
    if len(pairs) < 3:
        raise DataError("mismatch probe needs at least 3 utterances")
    rows = []
    for k, pair in enumerate(pairs):
        rng = item_rng(seed, k)
        x0b = pair.x0.astype(np.float32)[None, :]
        yb = pair.y.astype(np.float32)[None, :]
        elbo_sum = 0.0
        for t in range(1, sched.T + 1):
            t_b = np.array([t])
            eps = rng.standard_normal(yb.shape).astype(np.float32)
            x_t = forward_sample_batch(x0b, yb, t_b, eps, sched)
            target = target_noise_batch(x0b, yb, t_b, eps, sched)
            pred = dnet.forward(params_elbo, x_t, yb, t_b.astype(np.float64))
            elbo_sum += float(rl.l1_loss(pred, target).value)

        walk = list(reverse_walk(dnet, params_metric, yb, sched,
                                 np.arange(1.0, sched.T + 1)))
        start, x = walk[0][1], walk[-1][2]
        total_r = float(rl.reward(x, start, pair.x0[None], reward_metric)[0])
        delta = report_metric.evaluate(x[0], pair.x0) \
            - report_metric.evaluate(pair.y, pair.x0)
        rows.append(MismatchRow(pair.id, elbo_sum, total_r, delta))

    elbo = np.array([r.elbo_sum for r in rows])
    rew = np.array([r.rollout_reward for r in rows])
    dlt = np.array([r.metric_delta for r in rows])
    if elbo.std() == 0.0 or rew.std() == 0.0 or dlt.std() == 0.0:
        raise DataError("mismatch probe: a column has zero variance, "
                        "correlations are undefined")
    corr_elbo = float(np.corrcoef(elbo, dlt)[0, 1])
    corr_reward = float(np.corrcoef(rew, dlt)[0, 1])
    return MismatchResult(rows, corr_elbo, corr_reward)


def write_mismatch_csv(path, result: MismatchResult) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["id", "elbo_sum", "rollout_reward", "metric_delta"])
        for r in result.rows:
            wr.writerow([r.id, repr(r.elbo_sum), repr(r.rollout_reward),
                         repr(r.metric_delta)])
        wr.writerow([])
        wr.writerow(["corr_elbo", repr(result.corr_elbo)])
        wr.writerow(["corr_reward", repr(result.corr_reward)])
