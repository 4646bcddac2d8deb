"""Networks, parameter storage, and the optimizer.

Both networks run on the autodiff tape in :mod:`mose.autodiff`.  Parameters
live in one flat vector per network (float32 by default) with named views,
which makes checkpointing, resuming, and finite-difference probing trivial.

The enhancer is a stack of dilated 1-D convolution blocks conditioned on a
sinusoidal step embedding; its output head starts at zero so the initial
noise prediction is exactly zero.  The scorer encodes the latent, the
candidate action, and the clean signal with strided convolutions, pools over
time, and finishes with a small ReLU MLP whose head also starts at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DivergenceError


class StepEmbedding:
    """Fixed sinusoidal features of the (possibly fractional) step index."""

    def __init__(self, dim: int = 16, max_time: float = 200.0):
        if dim < 2 or dim % 2 != 0:
            raise ValueError("embedding dim must be an even integer >= 2")
        self.max_time = float(max_time)
        half = dim // 2
        # geometric frequency ladder from 1 down to 1/max_time
        exponents = np.arange(half) / max(1, half - 1)
        self.freqs = self.max_time ** (-exponents)

    def __call__(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        ang = t[:, None] * self.freqs[None, :]
        return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


class ParamSet:
    """A flat parameter vector plus named views and a gradient buffer;
    views are sliced on each call, so a deep or pickled copy uses its own."""

    def __init__(self, manifest: list[tuple[str, tuple[int, ...]]],
                 flat: np.ndarray):
        total = sum(int(np.prod(shape)) for _, shape in manifest)
        if flat.ndim != 1 or flat.size != total:
            raise ValueError(f"flat vector has {flat.size} entries, manifest "
                             f"needs {total}")
        self.manifest = [(name, tuple(shape)) for name, shape in manifest]
        self.flat = flat
        self.grad = np.zeros_like(flat)
        self._slots = {}  # name -> (offset, end, shape)
        off = 0
        for name, shape in self.manifest:
            n = int(np.prod(shape))
            self._slots[name] = (off, off + n, shape)
            off += n

    @property
    def dtype(self):
        return self.flat.dtype

    @property
    def size(self) -> int:
        return self.flat.size

    def view(self, name: str) -> np.ndarray:
        lo, hi, shape = self._slots[name]
        return self.flat[lo:hi].reshape(shape)

    def grad_view(self, name: str) -> np.ndarray:
        lo, hi, shape = self._slots[name]
        return self.grad[lo:hi].reshape(shape)

    def zero_grad(self) -> None:
        self.grad[:] = 0


def _init_flat(manifest, rng: np.random.Generator, dtype,
               zero_names: frozenset) -> np.ndarray:
    chunks = []
    for name, shape in manifest:
        n = int(np.prod(shape))
        if name in zero_names:
            chunks.append(np.zeros(n))
            continue
        if len(shape) == 3:        # conv kernel (out, in, k)
            fan_in = shape[1] * shape[2]
        elif len(shape) == 2:      # linear (in, out)
            fan_in = shape[0]
        else:                      # bias: reuse the owning layer's bound
            fan_in = max(1, shape[0])
        bound = 1.0 / math.sqrt(fan_in)
        chunks.append(rng.uniform(-bound, bound, size=n))
    return np.concatenate(chunks).astype(dtype)


class _TapeNet:
    """What both networks share: parameter nodes and gradient folding.

    Subclasses set ``manifest``, their (name, shape) pairs, and ``head``,
    the parameter names that start at zero under ``zero_head``.
    """

    _leaves = None

    def init_params(self, rng: np.random.Generator,
                    dtype=np.float32, zero_head: bool = True) -> ParamSet:
        zero = self.head if zero_head else frozenset()
        return ParamSet(self.manifest, _init_flat(self.manifest, rng,
                                                  dtype, zero))

    def _param_nodes(self, params: ParamSet, tracked: bool) -> dict:
        """Tape nodes for the parameters; tracked ones are kept as leaves."""
        mk = ad.leaf if tracked else ad.const
        p = {name: mk(params.view(name)) for name, _ in self.manifest}
        if tracked:
            self._leaves = p
        return p

    def accumulate_grads(self, params: ParamSet) -> None:
        """Fold the gradients of the last tracked forward into ``params``."""
        if self._leaves is None:
            raise RuntimeError("no tracked forward pass recorded")
        for name, _ in self.manifest:
            g = self._leaves[name].grad
            if g is not None:
                params.grad_view(name)[...] += g
        self._leaves = None


class DiffusionNet(_TapeNet):
    """Context-windowed noise predictor over (latent, conditioner) pairs;
    block i's kernel is dilated by 2**i."""

    head = frozenset({"out_proj.w", "out_proj.b"})

    def __init__(self, channels: int = 16, blocks: int = 4, kernel: int = 3,
                 emb_dim: int = 16, max_time: float = 200.0):
        self.blocks = blocks
        self.embedding = StepEmbedding(emb_dim, max_time)
        m = [("in_proj.w", (channels, 2, 1)), ("in_proj.b", (channels,))]
        for i in range(blocks):
            m += [(f"block{i}.emb.w", (emb_dim, channels)),
                  (f"block{i}.emb.b", (channels,)),
                  (f"block{i}.dconv.w", (channels, channels, kernel)),
                  (f"block{i}.dconv.b", (channels,)),
                  (f"block{i}.mix.w", (channels, channels, 1)),
                  (f"block{i}.mix.b", (channels,))]
        m += [("out_proj.w", (1, channels, 1)), ("out_proj.b", (1,))]
        self.manifest = m

    def forward(self, params: ParamSet, x_t, y, t,
                params_tracked: bool = False) -> ad.Tensor:
        """Predict the combined noise of (B, L) latents ``x_t`` given (B, L)
        conditioners ``y``; ``t`` is one step per row or one for all."""
        p = self._param_nodes(params, params_tracked)
        embt = ad.const(self.embedding(t).astype(params.dtype))

        h = ad.conv1d(ad.stack_channels(ad.const(x_t), ad.const(y)),
                      p["in_proj.w"], p["in_proj.b"])
        h = ad.relu(h)
        for i in range(self.blocks):
            cond = ad.linear(embt, p[f"block{i}.emb.w"], p[f"block{i}.emb.b"])
            u = ad.conv1d(h, p[f"block{i}.dconv.w"], p[f"block{i}.dconv.b"],
                          dilation=2 ** i)
            u = ad.add(u, ad.expand_time(cond))
            u = ad.relu(u)
            u = ad.conv1d(u, p[f"block{i}.mix.w"], p[f"block{i}.mix.b"])
            h = ad.add(h, u)
        out = ad.conv1d(h, p["out_proj.w"], p["out_proj.b"])
        return ad.squeeze_channel(out)


class ValueNet(_TapeNet):
    """Scores an action in context: (latent, action, clean) -> scalar."""

    head = frozenset({"fc3.w", "fc3.b"})

    def __init__(self, channels: int = 16, kernel: int = 5,
                 strides=(4, 4, 4), mlp_width: int = 32):
        self.strides = tuple(strides)
        m = []
        c_in = 3
        for i, _ in enumerate(self.strides):
            m += [(f"enc{i}.w", (channels, c_in, kernel)),
                  (f"enc{i}.b", (channels,))]
            c_in = channels
        m += [("fc0.w", (channels, mlp_width)), ("fc0.b", (mlp_width,)),
              ("fc1.w", (mlp_width, mlp_width)), ("fc1.b", (mlp_width,)),
              ("fc2.w", (mlp_width, mlp_width)), ("fc2.b", (mlp_width,)),
              ("fc3.w", (mlp_width, 1)), ("fc3.b", (1,))]
        self.manifest = m

    def forward(self, params: ParamSet, x_t, action, x0,
                params_tracked: bool = False) -> ad.Tensor:
        """(B,) scores of (B, L) rows; ``action`` may be a live tape node,
        so the actor term's gradient reaches the enhancer through it."""
        p = self._param_nodes(params, params_tracked)
        at = action if isinstance(action, ad.Tensor) else ad.const(action)
        h = ad.stack_channels(ad.const(x_t), at, ad.const(x0))
        for i, s in enumerate(self.strides):
            h = ad.relu(ad.conv1d(h, p[f"enc{i}.w"], p[f"enc{i}.b"],
                                  stride=s))
        h = ad.relu(ad.linear(ad.mean_axis(h, axis=2), p["fc0.w"],
                              p["fc0.b"]))
        h = ad.relu(ad.linear(h, p["fc1.w"], p["fc1.b"]))
        h = ad.relu(ad.linear(h, p["fc2.w"], p["fc2.b"]))
        return ad.squeeze_last(ad.linear(h, p["fc3.w"], p["fc3.b"]))


@dataclass
class AdamState:
    """First and second moment buffers plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, params: ParamSet) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adam_step(params: ParamSet, state: AdamState, lr: float) -> ParamSet:
    """One Adam update in place; zeroes the gradient buffer afterwards."""
    g = params.grad
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite gradients; aborting the update")
    state.step += 1
    state.m *= _BETA1
    state.m += (1.0 - _BETA1) * g
    state.v *= _BETA2
    state.v += (1.0 - _BETA2) * np.square(g)
    bc1 = 1.0 - _BETA1 ** state.step
    bc2 = 1.0 - _BETA2 ** state.step
    m_hat = state.m / bc1
    v_hat = state.v / bc2
    params.flat -= lr * m_hat / (np.sqrt(v_hat) + _EPS)
    params.zero_grad()
    return params
