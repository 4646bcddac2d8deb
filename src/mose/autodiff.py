"""Reverse-mode automatic differentiation over numpy arrays.

A small tape sufficient for the networks in this package: tensors wrap
ndarrays, operations record their parents and a closure that maps the
output gradient to parent gradients, and ``backward`` walks the graph in
reverse topological order.  Only nodes downstream of a tracked leaf keep
their graph, so constant subgraphs cost nothing extra.

All operations preserve the dtype of their inputs; a float32 graph stays
float32 end to end, which the trainer relies on for reproducibility.
"""

from __future__ import annotations

import ctypes

import numpy as np

# Every training iteration allocates its tape's arrays and frees them; with
# glibc's defaults the freed heap top goes back to the system and is faulted
# in again (~300 minor faults per C7 iteration).  Setting any one threshold
# turns off glibc's dynamic mmap threshold, so all three are set together.
# One arena: otherwise each thread that walks evaluation blocks grows an
# arena of its own beside the heap training already grew.
HEAP_SETTINGS = (("M_TRIM_THRESHOLD", -1, 256 << 20),
                 ("M_TOP_PAD", -2, 64 << 20),
                 ("M_MMAP_THRESHOLD", -3, 256 << 20),
                 ("M_ARENA_MAX", -8, 1))


def _keep_freed_heap() -> str:
    """Apply ``HEAP_SETTINGS``; the values and ``mallopt``'s return codes,
    or "default" where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return "default"
    codes = [str(mallopt(param, value)) for _, param, value in HEAP_SETTINGS]
    return (" ".join(f"{name}={value}" for name, _, value in HEAP_SETTINGS)
            + f" (mallopt returned {' '.join(codes)})")


# applied once, for the whole importing process
HEAP_POLICY = _keep_freed_heap()


class Tensor:
    """A node in the computation graph.

    ``value`` is always an ndarray.  ``track`` marks nodes whose gradient is
    wanted (leaves created with ``leaf``) or that sit downstream of one.
    Untracked nodes keep neither parents nor gradient closure, so a forward
    over constants frees each intermediate as soon as it is consumed.
    """

    __slots__ = ("value", "grad", "track", "_parents", "_grad_fn")

    def __init__(self, value, parents=(), grad_fn=None, track=False):
        self.value = value if isinstance(value, np.ndarray) else np.asarray(value)
        self.grad = None
        self.track = track or any(p.track for p in parents)
        self._parents = parents if self.track else ()
        self._grad_fn = grad_fn if self.track else None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, track={self.track})"


def const(x) -> Tensor:
    return Tensor(np.asarray(x))


def leaf(x) -> Tensor:
    """Wrap an ndarray as a tracked leaf. The array is shared, not copied."""
    return Tensor(x, track=True)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.value + b.value

    def grad_fn(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Tensor(out, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.value - b.value

    def grad_fn(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Tensor(out, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.value * b.value

    def grad_fn(g):
        return (_unbroadcast(g * b.value, a.value.shape),
                _unbroadcast(g * a.value, b.value.shape))

    return Tensor(out, (a, b), grad_fn)


def scale(a: Tensor, s: float) -> Tensor:
    out = a.value * s

    def grad_fn(g):
        return (g * s,)

    return Tensor(out, (a,), grad_fn)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.value, 0)

    def grad_fn(g):
        return (g * (a.value > 0),)

    return Tensor(out, (a,), grad_fn)


def abs_(a: Tensor) -> Tensor:
    out = np.abs(a.value)

    def grad_fn(g):
        # subgradient 0 at exact zeros
        return (g * np.sign(a.value),)

    return Tensor(out, (a,), grad_fn)


def square(a: Tensor) -> Tensor:
    out = a.value * a.value

    def grad_fn(g):
        return (g * (2.0 * a.value),)

    return Tensor(out, (a,), grad_fn)


def mean_all(a: Tensor) -> Tensor:
    out = np.asarray(np.mean(a.value))
    inv = 1.0 / a.value.size

    def grad_fn(g):
        return (np.broadcast_to(g * inv, a.value.shape),)

    return Tensor(out, (a,), grad_fn)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    out = np.mean(a.value, axis=axis)
    n = a.value.shape[axis]

    def grad_fn(g):
        return (np.broadcast_to(np.expand_dims(g / n, axis), a.value.shape),)

    return Tensor(out, (a,), grad_fn)


def stack_channels(*parts: Tensor) -> Tensor:
    """Stack (B, L) tensors into a (B, C, L) tensor along a new channel axis."""
    out = np.stack([p.value for p in parts], axis=1)

    def grad_fn(g):
        return tuple(g[:, i] for i in range(len(parts)))

    return Tensor(out, tuple(parts), grad_fn)


def expand_time(a: Tensor) -> Tensor:
    """(B, C) -> (B, C, 1), for broadcasting per-channel features over time."""
    out = a.value[:, :, None]

    def grad_fn(g):
        return (g.sum(axis=2),)

    return Tensor(out, (a,), grad_fn)


def squeeze_channel(a: Tensor) -> Tensor:
    """(B, 1, L) -> (B, L)."""
    out = a.value[:, 0, :]

    def grad_fn(g):
        return (g[:, None, :],)

    return Tensor(out, (a,), grad_fn)


def squeeze_last(a: Tensor) -> Tensor:
    """(B, 1) -> (B,)."""
    out = a.value[:, 0]

    def grad_fn(g):
        return (g[:, None],)

    return Tensor(out, (a,), grad_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x (B, F) @ w (F, G) + b (G,)."""
    out = x.value @ w.value + b.value

    def grad_fn(g):
        return (g @ w.value.T if x.track else None,
                x.value.T @ g if w.track else None,
                g.sum(axis=0) if b.track else None)

    return Tensor(out, (x, w, b), grad_fn)


def _pad_time(a: np.ndarray, left: int, total: int) -> np.ndarray:
    """(B, C, L) ``a`` with ``left`` zeros before it and ``total - left``
    after it along time; ``a`` itself, not a copy, when ``total`` is 0."""
    if not total:
        return a
    B, C, L = a.shape
    out = np.zeros((B, C, L + total), dtype=a.dtype)
    out[:, :, left: left + L] = a
    return out


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1,
           dilation: int = 1) -> Tensor:
    """Batched 1-D convolution with symmetric zero padding.

    x: (B, C, L), w: (O, C, K), b: (O,).  Output length is
    ceil(L / stride); padding is chosen so every output sample has a full
    kernel footprint over the padded input.  Only an input that needs
    padding is copied; width-1, stride-1 kernels read ``x`` in place.  The
    gradient skips untracked operands.  A stride-1 ``dx`` is a correlation
    of the output gradient, padded by the kernel's reach, with the
    transposed taps; a strided one is scattered tap by tap into a padded
    scratch.

    The taps accumulate one matmul at a time, tap 0 first, in the forward
    and in both gradients.  That fixed float summation order is what keeps
    a batched walk bit-equal to walking each row alone, and a rerun or
    resumed training run bit-equal to the straight one.  The correlation
    adds the scatter's products in the scatter's tap order; a tap that
    falls in the padding adds an exact +0.
    """
    B, C, L = x.value.shape
    O, C2, K = w.value.shape
    if C2 != C:
        raise ValueError(f"conv1d channel mismatch: input {C}, kernel {C2}")
    span = dilation * (K - 1) + 1
    l_out = -(-L // stride)
    pad_total = max(0, (l_out - 1) * stride + span - L)
    pl = pad_total // 2
    xp = _pad_time(x.value, pl, pad_total)
    stop = (l_out - 1) * stride + 1
    segs = [xp[:, :, k * dilation: k * dilation + stop: stride] for k in range(K)]
    out = np.matmul(w.value[:, :, 0], segs[0])
    for k in range(1, K):
        out += np.matmul(w.value[:, :, k], segs[k])
    out += b.value[:, None]

    def grad_fn(g):
        dx = dw = None
        if w.track:
            dw = np.empty_like(w.value)
            for k in range(K):
                dw[:, :, k] = np.matmul(
                    g, segs[k].transpose(0, 2, 1)).sum(axis=0)
        if x.track and stride == 1:
            # dx[i] = sum_k w_k^T g[i + pl - k*dilation], tap 0 first
            gp = _pad_time(g, pad_total - pl, pad_total)
            o = pad_total
            dx = np.matmul(w.value[:, :, 0].T, gp[:, :, o: o + L])
            for k in range(1, K):
                o -= dilation
                dx += np.matmul(w.value[:, :, k].T, gp[:, :, o: o + L])
        elif x.track:
            dxp = np.zeros_like(xp)
            for k in range(K):
                dxp[:, :, k * dilation: k * dilation + stop: stride] += \
                    np.matmul(w.value[:, :, k].T, g)
            dx = dxp[:, :, pl: pl + L]
        return dx, dw, g.sum(axis=(0, 2)) if b.track else None

    return Tensor(out, (x, w, b), grad_fn)


# No network uses concat, unbatch or index_first.  They stay because the
# benchmark's tracer (bench/tracer.py) wraps every op in its _AD_OPS by
# name and cannot start with one missing.

def concat(parts, axis: int = 1) -> Tensor:
    out = np.concatenate([p.value for p in parts], axis=axis)
    sizes = [p.value.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out, tuple(parts), grad_fn)


def unbatch(a: Tensor) -> Tensor:
    """(L,) -> (1, L): add a leading batch axis."""
    out = a.value[None, :]

    def grad_fn(g):
        return (g[0],)

    return Tensor(out, (a,), grad_fn)


def index_first(a: Tensor) -> Tensor:
    """Select row 0."""
    out = a.value[0]

    def grad_fn(g):
        full = np.zeros_like(a.value)
        full[0] = g
        return (full,)

    return Tensor(out, (a,), grad_fn)


def backward(root: Tensor) -> None:
    """Accumulate gradients of a scalar ``root`` into every tracked leaf.

    Visits only the tracked subgraph.  Existing leaf gradients are added to,
    so callers reusing leaves across calls must clear them first.
    """
    if root.value.size != 1:
        raise ValueError("backward requires a scalar root")
    if not root.track:
        return
    topo: list[Tensor] = []
    seen = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.track and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node._grad_fn is None or node.grad is None:
            continue
        grads = node._grad_fn(node.grad)
        for p, g in zip(node._parents, grads):
            if not p.track or g is None:
                continue
            p.grad = g if p.grad is None else p.grad + g
