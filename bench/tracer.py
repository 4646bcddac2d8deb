"""Spans recorded from outside the program, and per-layer self times.

``Tracer.install`` wraps the package's public functions where the package
looks them up: the ops in ``mose.autodiff`` (the nets call ``ad.conv1d``),
the forwards and gradient folding on the two net classes, and the names
``mose.trainer`` imported (``adam_step``, the batched forward draw and
reverse mean, ``enhance``/``fast_sample``, ``get_metric`` and
``evaluate``).  Each call becomes a span (name, start, end, parent, thread);
gradient closures returned by tracked ops become spans of their own when
``backward`` runs them.  Spans stay in memory and are written when the run
ends.

A span's self time is its duration minus its children's.  Inside a
threaded ``evaluate``, worker spans overlap in wall time, so their self
times are scaled to the wall time that some worker span covers, and
``evaluate`` keeps the rest (pool scheduling, waiting and untraced glue).
The self times of one run therefore sum to its traced wall time.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import itertools
import threading
from time import perf_counter

import mose.autodiff as ad
import mose.trainer as trainer
from mose.nets import DiffusionNet, ValueNet

# every tape op the nets and the trainer use, apart from const/leaf
_AD_OPS = ("add", "sub", "mul", "scale", "relu", "abs_", "square",
           "mean_all", "mean_axis", "stack_channels", "concat", "expand_time",
           "unbatch", "squeeze_channel", "squeeze_last", "index_first",
           "linear")
CONV_ROLES = ("in_proj", "dconv", "mix", "out_proj", "critic_enc")

_TRAINER_FUNCS = {
    "adam_step": "nets.adam_step",
    "forward_sample_batch": "diffusion.forward_draw",
    "target_noise_batch": "diffusion.forward_draw",
    "reverse_mean_batch": "diffusion.reverse_mean",
    "enhance": "diffusion.reverse_walk",
    "fast_sample": "diffusion.reverse_walk",
    "evaluate": "trainer.evaluate",
}
_METHODS = ((DiffusionNet, "forward", "nets.diffusion_net.forward"),
            (ValueNet, "forward", "nets.value_net.forward"),
            (DiffusionNet, "accumulate_grads", "nets.accumulate_grads"),
            (ValueNet, "accumulate_grads", "nets.accumulate_grads"))

# span name -> (self-time metric, call-count metric or None)
_LAYER_OF = {
    "autodiff.backward": ("autodiff.backward.self_ms", None),
    "nets.diffusion_net.forward": ("nets.diffusion_net.forward_self_ms",
                                   "nets.diffusion_net.forward_calls"),
    "nets.value_net.forward": ("nets.value_net.forward_self_ms",
                               "nets.value_net.forward_calls"),
    "nets.adam_step": ("nets.adam_step_ms", None),
    "nets.accumulate_grads": ("nets.accumulate_grads_ms", None),
    "diffusion.forward_draw": ("diffusion.forward_draw_ms", None),
    "diffusion.reverse_mean": ("diffusion.reverse_mean_ms", None),
    "diffusion.reverse_walk": ("diffusion.reverse_walk.self_ms", None),
    "metric.si_snr": ("metric.si_snr_ms", "metric.si_snr.calls"),
    "trainer.evaluate": ("trainer.evaluate.self_ms", None),
}
for _role in CONV_ROLES:
    _LAYER_OF[f"autodiff.conv1d.fwd.{_role}"] = (
        f"autodiff.conv1d.fwd_ms.{_role}", "autodiff.conv1d.calls")
    _LAYER_OF[f"autodiff.conv1d.bwd.{_role}"] = (
        f"autodiff.conv1d.bwd_ms.{_role}", None)
for _op in _AD_OPS:
    _LAYER_OF[f"autodiff.{_op}.fwd"] = ("autodiff.other.fwd_ms", None)
    _LAYER_OF[f"autodiff.{_op}.bwd"] = ("autodiff.other.bwd_ms", None)

ITERATION_SELF = "trainer.iteration.self_ms"
UNIT_WALL = "trace.unit_wall_ms"
SPAN_COUNT = "trace.spans"
# minor page faults of the process while the traced work ran: memory the
# program maps afresh, which preallocated buffers would save
MINOR_FAULTS = "process.minor_faults"
TIME_METRICS = sorted({v[0] for v in _LAYER_OF.values()} | {ITERATION_SELF})
COUNT_METRICS = sorted({v[1] for v in _LAYER_OF.values() if v[1]})
PER_LAYER = TIME_METRICS + COUNT_METRICS + [UNIT_WALL, SPAN_COUNT,
                                            MINOR_FAULTS]
UNITS = {k: "ms" if k in TIME_METRICS or k == UNIT_WALL else "count"
         for k in PER_LAYER}


def conv_role(w_shape, stride: int) -> str:
    """Which layer a conv1d call serves, from its kernel shape and stride.

    The enhancer's layers are told apart by shape: in_proj reads the two
    input channels, out_proj writes one, mix has width-1 kernels and dconv
    the rest.  Only the critic's encoder strides.
    """
    out_ch, in_ch, k = w_shape
    if stride > 1:
        return "critic_enc"
    if in_ch == 2:
        return "in_proj"
    if out_ch == 1:
        return "out_proj"
    return "mix" if k == 1 else "dconv"


class Tracer:
    """In-memory span recorder; parents are tracked per thread.

    A span is the tuple (index, name, start, end, parent index or -1,
    thread); it is stored when it ends, as a tuple of scalars, so that a
    long traced run adds little work for the garbage collector.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    def call(self, name, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        idx = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((idx, name, start, end, parent,
                               threading.get_ident()))

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def _wrap_op(self, op, names_of):
        def traced(*args, **kwargs):
            fwd, bwd = names_of(args, kwargs)
            out = self.call(fwd, op, args, kwargs)
            if out.track and out._grad_fn is not None:
                out._grad_fn = self.wrap(bwd, out._grad_fn)
            return out
        return traced

    def _wrap_get_metric(self, get_metric):
        def traced(name):
            spec = get_metric(name)
            return dataclasses.replace(spec, evaluate=self.wrap(
                f"metric.{spec.name}", spec.evaluate))
        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for op in _AD_OPS:
            names = (f"autodiff.{op}.fwd", f"autodiff.{op}.bwd")
            self._patch(ad, op, self._wrap_op(getattr(ad, op),
                                              lambda a, k, n=names: n))
        conv_names = {}

        def conv_names_of(args, kwargs):
            stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
            key = (args[1].value.shape, stride)
            if key not in conv_names:
                role = conv_role(*key)
                conv_names[key] = (f"autodiff.conv1d.fwd.{role}",
                                   f"autodiff.conv1d.bwd.{role}")
            return conv_names[key]
        self._patch(ad, "conv1d", self._wrap_op(ad.conv1d, conv_names_of))
        self._patch(ad, "backward", self.wrap("autodiff.backward",
                                              ad.backward))
        for cls, attr, name in _METHODS:
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))
        for attr, name in _TRAINER_FUNCS.items():
            self._patch(trainer, attr, self.wrap(name, getattr(trainer, attr)))
        self._patch(trainer, "get_metric",
                    self._wrap_get_metric(trainer.get_metric))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- accounting --------------------------------------------------------

    def self_times(self) -> dict:
        """Self time (s) of every span, keyed by span index."""
        own = {s[0]: s[3] - s[2] for s in self.spans}
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        evals = [s for s in self.spans
                 if s[1] == "trainer.evaluate" and s[4] < 0]
        main = {e[5] for e in evals}
        worker_roots = [s for s in self.spans
                        if s[4] < 0 and s[5] not in main]
        scale_of_root = {}
        for e in evals:
            roots = [r for r in worker_roots if e[2] <= r[2] and r[3] <= e[3]]
            busy = sum(r[3] - r[2] for r in roots)
            if busy <= 0.0:
                continue
            covered = _union_length([(r[2], r[3]) for r in roots])
            scale_of_root.update((r[0], covered / busy) for r in roots)
            own[e[0]] -= covered
        if scale_of_root:
            parent = {s[0]: s[4] for s in self.spans}
            for idx in own:
                root = idx
                while parent[root] >= 0:
                    root = parent[root]
                own[idx] *= scale_of_root.get(root, 1.0)
        return own

    def layer_metrics(self, units: int, wall_s: float,
                      residual: str = ITERATION_SELF, faults: int = 0) -> dict:
        """Per-unit self times (ms) and call counts of every layer.

        ``wall_s`` is the traced wall time of the measured work and
        ``faults`` the minor page faults counted over it.  What no span
        covers in ``wall_s`` goes to ``residual``: the training loop's own
        time, or (about zero) ``evaluate``'s, which already holds the gaps.
        """
        own = self.self_times()
        ms = dict.fromkeys(TIME_METRICS, 0.0)
        counts = dict.fromkeys(COUNT_METRICS, 0)
        for s in self.spans:
            time_key, count_key = _LAYER_OF[s[1]]
            ms[time_key] += own[s[0]] * 1e3
            if count_key:
                counts[count_key] += 1
        ms[residual] += wall_s * 1e3 - sum(ms.values())
        out = {k: v / units for k, v in ms.items()}
        out.update({k: v / units for k, v in counts.items()})
        out[UNIT_WALL] = wall_s * 1e3 / units
        out[SPAN_COUNT] = len(self.spans) / units
        out[MINOR_FAULTS] = faults / units
        return out

    def write(self, path) -> None:
        """Spans as gzip CSV: index, name, start, end, parent index, thread."""
        spans = sorted(self.spans)
        t0 = min((s[2] for s in spans), default=0.0)
        threads = {}
        with gzip.open(path, "wt", newline="", compresslevel=3) as fh:
            wr = csv.writer(fh)
            wr.writerow(["index", "name", "start_s", "end_s", "parent",
                         "thread"])
            for idx, name, start, end, parent, thread in spans:
                wr.writerow([idx, name, f"{start - t0:.7f}",
                             f"{end - t0:.7f}", "" if parent < 0 else parent,
                             threads.setdefault(thread, len(threads))])


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
