"""mose: metric-oriented signal enhancement.

A conditional diffusion model whose forward process interpolates the clean
signal toward its degraded observation, trained in two phases: plain
combined-noise regression, then an actor-critic phase that points the
enhancer at an arbitrary quality metric through a learned scorer.
Pure numpy; the tape in :mod:`mose.autodiff` supplies the gradients.
"""

from .diffusion import (align_inference_steps, default_fast_schedule,
                        enhance, fast_sample, forward_sample_batch,
                        reverse_mean_batch, target_noise_batch)
from .errors import (AlignmentError, CheckpointError, ConfigError, DataError,
                     DivergenceError, MetricError, ScheduleError)
from .metric import (MetricSpec, external_metric, get_metric, neg_mse,
                     register_metric, seg_snr, si_snr)
from .nets import (AdamState, DiffusionNet, ParamSet, StepEmbedding,
                   ValueNet, adam_step)
from .rl import actor_loss, bellman_loss, critic_target, reward
from .schedule import (build_schedule, dump_table, interpolation_weight,
                       schedule_from_betas)
from .signals import (SignalPair, load_corpus, mix_at_snr, synth_corpus,
                      wav_read, wav_write, write_corpus)
from .trainer import (TrainConfig, alpha_sweep, mismatch_experiment, train,
                      write_sweep_csv)

__version__ = "0.1.0"

# what the command line, the demos, the tests and the benchmark import
__all__ = [
    "AdamState", "AlignmentError", "CheckpointError", "ConfigError",
    "DataError", "DiffusionNet", "DivergenceError", "MetricError",
    "MetricSpec", "ParamSet", "ScheduleError", "SignalPair",
    "StepEmbedding", "TrainConfig", "ValueNet", "__version__", "actor_loss",
    "adam_step", "align_inference_steps", "alpha_sweep", "bellman_loss",
    "build_schedule", "critic_target", "default_fast_schedule", "dump_table",
    "enhance", "external_metric", "fast_sample", "forward_sample_batch",
    "get_metric", "interpolation_weight", "load_corpus",
    "mismatch_experiment", "mix_at_snr", "neg_mse",
    "register_metric", "reverse_mean_batch", "reward",
    "schedule_from_betas", "seg_snr", "si_snr", "synth_corpus",
    "target_noise_batch", "train", "wav_read", "wav_write", "write_corpus",
    "write_sweep_csv",
]
