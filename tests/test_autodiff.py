"""The reverse-mode tape against central finite differences and closed forms."""

import math

import numpy as np
import pytest

import mose.autodiff as ad


def fd_grad(f, x0, h=1e-6):
    """Central-difference gradient of scalar f at flat float64 x0."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def check_op(build, n_inputs, rng, rel=1e-6, scale=1.0):
    """Compare tape gradients of a scalar-valued graph with FD.

    ``build`` maps a flat float64 vector to (loss_fn(flat) -> float) semantics:
    it receives the flat vector and returns (root Tensor, list of leaf Tensors
    whose values were filled from the vector in order).
    """
    x0 = rng.standard_normal(n_inputs) * scale
    root, leaves = build(x0)
    ad.backward(root)
    got = np.concatenate([lf.grad.ravel() for lf in leaves])

    def f(flat):
        r, _ = build(flat)
        return float(r.value)

    want = fd_grad(f, x0)
    denom = np.maximum(np.abs(want), 1e-8)
    assert np.max(np.abs(got - want) / denom) <= rel


def split_leaves(flat, shapes):
    leaves = []
    pos = 0
    for shp in shapes:
        n = int(np.prod(shp))
        leaves.append(ad.leaf(np.asarray(flat[pos:pos + n],
                                         dtype=np.float64).reshape(shp)))
        pos += n
    return leaves


# ---------------------------------------------------------------------------
# elementwise and reduction ops

def test_add_broadcast_gradient(rng):
    def build(flat):
        a, b = split_leaves(flat, [(3, 4), (4,)])
        return ad.mean_all(ad.square(ad.add(a, b))), [a, b]
    check_op(build, 16, rng)


def test_sub_gradient(rng):
    def build(flat):
        a, b = split_leaves(flat, [(5,), (5,)])
        return ad.mean_all(ad.square(ad.sub(a, b))), [a, b]
    check_op(build, 10, rng)


def test_mul_broadcast_gradient(rng):
    def build(flat):
        a, b = split_leaves(flat, [(3, 1), (1, 4)])
        return ad.mean_all(ad.mul(ad.mul(a, b), ad.mul(a, b))), [a, b]
    check_op(build, 7, rng)


def test_scale_and_neg(rng):
    def build(flat):
        (a,) = split_leaves(flat, [(6,)])
        return ad.mean_all(ad.square(ad.scale(ad.scale(a, 3.5), -1.0))), [a]
    check_op(build, 6, rng)


def test_relu_gradient_off_ties(rng):
    def build(flat):
        (a,) = split_leaves(flat, [(40,)])
        return ad.mean_all(ad.square(ad.relu(a))), [a]
    # keep values away from the kink
    x = rng.standard_normal(40)
    x[np.abs(x) < 0.05] = 0.5
    root, leaves = build(x)
    ad.backward(root)
    want = fd_grad(lambda f: float(build(f)[0].value), x)
    assert np.allclose(leaves[0].grad, want, rtol=1e-6, atol=1e-9)


def test_abs_gradient_and_tie_convention(rng):
    x = rng.standard_normal(30)
    x[np.abs(x) < 0.05] = -0.7
    (a,) = split_leaves(x, [(30,)])
    root = ad.mean_all(ad.abs_(a))
    ad.backward(root)
    assert np.allclose(a.grad, np.sign(x) / 30.0, rtol=1e-12)
    z = ad.leaf(np.zeros(4))
    ad.backward(ad.mean_all(ad.abs_(z)))
    assert np.array_equal(z.grad, np.zeros(4))  # subgradient 0 at ties


def test_square_mean_axis(rng):
    def build(flat):
        (a,) = split_leaves(flat, [(2, 3, 5)])
        return ad.mean_all(ad.mean_axis(ad.square(a), 2)), [a]
    check_op(build, 30, rng)


# ---------------------------------------------------------------------------
# shape ops

def test_stack_concat_squeeze(rng):
    def build(flat):
        a, b = split_leaves(flat, [(2, 6), (2, 6)])
        st = ad.stack_channels(a, b)            # (2, 2, 6)
        cc = ad.concat([st, st], axis=1)        # (2, 4, 6)
        return ad.mean_all(ad.square(cc)), [a, b]
    check_op(build, 24, rng)


def test_expand_time_unbatch_index(rng):
    def build(flat):
        a, b = split_leaves(flat, [(2, 3), (5,)])
        et = ad.expand_time(a)                  # (2, 3, 1)
        ub = ad.unbatch(b)                      # (1, 5)
        lhs = ad.mean_all(ad.square(et))
        rhs = ad.mean_all(ad.square(ad.index_first(ub)))
        return ad.add(lhs, rhs), [a, b]
    check_op(build, 11, rng)


def test_squeeze_shapes(rng):
    a = ad.leaf(rng.standard_normal((3, 1, 7)))
    sc = ad.squeeze_channel(a)
    assert sc.shape == (3, 7)
    b = ad.leaf(rng.standard_normal((3, 1)))
    sl = ad.squeeze_last(b)
    assert sl.shape == (3,)
    ad.backward(ad.mean_all(ad.square(sc)))
    assert a.grad.shape == a.value.shape


# ---------------------------------------------------------------------------
# linear and conv

def test_linear_gradient(rng):
    def build(flat):
        x, w, b = split_leaves(flat, [(4, 3), (3, 2), (2,)])
        return ad.mean_all(ad.square(ad.linear(x, w, b))), [x, w, b]
    check_op(build, 20, rng)


def conv_ref(x, w, b, stride, dilation):
    B, C, L = x.shape
    O, _, K = w.shape
    span = dilation * (K - 1) + 1
    l_out = -(-L // stride)
    pad_total = max(0, (l_out - 1) * stride + span - L)
    pl = pad_total // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pl, pad_total - pl)))
    out = np.zeros((B, O, l_out))
    for bi in range(B):
        for o in range(O):
            for j in range(l_out):
                acc = 0.0
                for c in range(C):
                    for k in range(K):
                        acc += w[o, c, k] * xp[bi, c, j * stride + k * dilation]
                out[bi, o, j] = acc + b[o]
    return out


@pytest.mark.parametrize("stride,dilation,L,K", [
    pytest.param(1, 1, 9, 3, id="1-1-9"),
    pytest.param(2, 1, 10, 3, id="2-1-10"),
    pytest.param(1, 3, 12, 3, id="1-3-12"),
    pytest.param(4, 2, 11, 3, id="4-2-11"),
    pytest.param(1, 1, 9, 1, id="width1-1-1-9"),
    pytest.param(4, 1, 13, 5, id="width5-4-1-13")])
def test_conv1d_forward_matches_bruteforce(rng, stride, dilation, L, K):
    x = rng.standard_normal((2, 3, L))
    w = rng.standard_normal((4, 3, K))
    b = rng.standard_normal(4)
    got = ad.conv1d(ad.const(x), ad.const(w), ad.const(b),
                    stride=stride, dilation=dilation).value
    want = conv_ref(x, w, b, stride, dilation)
    assert got.shape == (2, 4, -(-L // stride))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("stride,dilation,K", [
    pytest.param(1, 1, 3, id="1-1"),
    pytest.param(2, 1, 3, id="2-1"),
    pytest.param(1, 2, 3, id="1-2"),
    pytest.param(3, 2, 3, id="3-2"),
    pytest.param(1, 1, 1, id="width1-1-1"),
    pytest.param(4, 1, 5, id="width5-4-1")])
def test_conv1d_gradient(rng, stride, dilation, K):
    def build(flat):
        x, w, b = split_leaves(flat, [(2, 2, 8), (3, 2, K), (3,)])
        out = ad.conv1d(x, w, b, stride=stride, dilation=dilation)
        return ad.mean_all(ad.square(out)), [x, w, b]
    check_op(build, 32 + 6 * K + 3, rng)


def conv_tapwise_ref(x, w, b, stride, dilation, g):
    """The padded-copy formulation conv1d must match bit for bit.

    np.pad the input, then one matmul per tap accumulated in tap order;
    the gradient loops over the taps into a zero-filled padded scratch.
    Returns the output and the gradients of x, w and b.
    """
    _, _, L = x.shape
    K = w.shape[2]
    span = dilation * (K - 1) + 1
    l_out = -(-L // stride)
    pad_total = max(0, (l_out - 1) * stride + span - L)
    pl = pad_total // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pl, pad_total - pl)))
    stop = (l_out - 1) * stride + 1
    segs = [xp[:, :, k * dilation: k * dilation + stop: stride]
            for k in range(K)]
    out = np.matmul(w[:, :, 0], segs[0])
    for k in range(1, K):
        out += np.matmul(w[:, :, k], segs[k])
    out = out + b[:, None]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for k in range(K):
        dw[:, :, k] = np.matmul(g, segs[k].transpose(0, 2, 1)).sum(axis=0)
        dxp[:, :, k * dilation: k * dilation + stop: stride] += \
            np.matmul(w[:, :, k].T, g)
    return out, dxp[:, :, pl: pl + L], dw, g.sum(axis=(0, 2))


def _conv_case(*shape, zeros=None):
    """A bits case; ``zeros`` names the operand given exact zeros."""
    name = "-".join(map(str, shape)) + (f"-zero-{zeros}" if zeros else "")
    return pytest.param(*shape, zeros, id=name)


@pytest.mark.parametrize("c_in,c_out,K,stride,dilation,L,track_b,zeros", [
    _conv_case(2, 12, 1, 1, 1, 512, True),     # enhancer in_proj
    _conv_case(12, 12, 1, 1, 1, 512, True),    # enhancer mix
    _conv_case(12, 1, 1, 1, 1, 512, True),     # enhancer out_proj
    _conv_case(12, 12, 3, 1, 1, 512, True),    # enhancer dconv, dilations 1-8
    _conv_case(12, 12, 3, 1, 2, 512, True),
    _conv_case(12, 12, 3, 1, 4, 512, True),
    _conv_case(12, 12, 3, 1, 8, 512, True),
    _conv_case(3, 16, 5, 4, 1, 512, True),     # critic enc0
    _conv_case(16, 16, 5, 4, 1, 128, True),    # critic enc1
    _conv_case(12, 12, 3, 1, 2, 512, False),
    _conv_case(12, 12, 1, 2, 1, 512, False),   # unpadded but strided
    # runs of all-zero gradient columns: taps that add only +-0 products
    _conv_case(12, 12, 3, 1, 4, 512, True, zeros="g-columns"),
    # the zero-initialised head, whose input gradient is all +-0 products
    _conv_case(12, 1, 1, 1, 1, 512, True, zeros="w"),
])
def test_conv1d_bits_match_the_tapwise_reference(rng, c_in, c_out, K, stride,
                                                 dilation, L, track_b, zeros):
    # the float summation order of every output and gradient is unchanged,
    # which the bit-exact guarantees of training and the walks rest on; a
    # constant bias (as in the walks and the actor term's scorer) gets no
    # gradient.  Bytes, not values, are compared: +0 and -0 differ.
    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    xv, wv, bv = f32(4, c_in, L), f32(c_out, c_in, K), f32(c_out)
    g = f32(4, c_out, -(-L // stride))
    if zeros == "g-columns":
        g[:, :, rng.random(g.shape[2]) < 0.5] = 0.0
    elif zeros == "w":
        wv[...] = 0.0
    x, w = ad.leaf(xv.copy()), ad.leaf(wv)
    b = ad.leaf(bv) if track_b else ad.const(bv)
    out = ad.conv1d(x, w, b, stride=stride, dilation=dilation)
    *grads, db = out._grad_fn(g)
    want_out, *want_grads, want_db = conv_tapwise_ref(xv, wv, bv, stride,
                                                      dilation, g)
    assert out.value.dtype == np.float32
    assert out.value.tobytes() == want_out.tobytes()
    if track_b:
        grads.append(db)
        want_grads.append(want_db)
    else:
        assert db is None
    for got, want in zip(grads, want_grads):
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # reading x in place must leave it alone
    assert np.array_equal(x.value, xv)
    assert not np.shares_memory(out.value, x.value)


@pytest.mark.parametrize("tracked", ["x", "w"])
@pytest.mark.parametrize("c_in,c_out,K,stride,dilation", [
    pytest.param(12, 12, 3, 1, 2, id="dconv"),
    pytest.param(12, 12, 1, 1, 1, id="mix"),
    pytest.param(3, 16, 5, 4, 1, id="critic-enc0")])
def test_conv1d_skips_untracked_operands(rng, tracked, c_in, c_out, K, stride,
                                         dilation):
    # a constant input or constant weights get no gradient, and the tracked
    # operand's gradient keeps the reference bits
    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    xv, wv, bv = f32(4, c_in, 512), f32(c_out, c_in, K), f32(c_out)
    g = f32(4, c_out, -(-512 // stride))
    x = ad.leaf(xv) if tracked == "x" else ad.const(xv)
    w = ad.leaf(wv) if tracked == "w" else ad.const(wv)
    out = ad.conv1d(x, w, ad.const(bv), stride=stride, dilation=dilation)
    dx, dw, db = out._grad_fn(g)
    _, want_dx, want_dw, _ = conv_tapwise_ref(xv, wv, bv, stride, dilation, g)
    assert db is None
    if tracked == "x":
        assert dw is None and dx.tobytes() == want_dx.tobytes()
    else:
        assert dx is None and dw.tobytes() == want_dw.tobytes()


def test_linear_skips_untracked_operands(rng):
    xv, wv, bv = (rng.standard_normal(s) for s in ((3, 4), (4, 5), (5,)))
    g = rng.standard_normal((3, 5))
    dx, dw, db = ad.linear(ad.leaf(xv), ad.const(wv), ad.const(bv))._grad_fn(g)
    assert np.array_equal(dx, g @ wv.T) and dw is None and db is None
    dx, dw, db = ad.linear(ad.const(xv), ad.leaf(wv), ad.leaf(bv))._grad_fn(g)
    assert dx is None and np.array_equal(dw, xv.T @ g)
    assert np.array_equal(db, g.sum(axis=0))


def test_conv1d_channel_mismatch():
    with pytest.raises(ValueError):
        ad.conv1d(ad.const(np.zeros((1, 2, 8))),
                  ad.const(np.zeros((3, 4, 3))), ad.const(np.zeros(3)))


# ---------------------------------------------------------------------------
# graph mechanics

def test_shared_node_accumulates():
    x = ad.leaf(np.array([1.5, -2.0, 0.5]))
    y = ad.add(ad.mul(x, x), x)      # x^2 + x, x reused
    ad.backward(ad.mean_all(y))
    assert np.allclose(x.grad, (2.0 * x.value + 1.0) / 3.0, rtol=1e-12)


def test_backward_accumulates_across_calls():
    x = ad.leaf(np.array([2.0, 3.0]))
    for _ in range(2):
        ad.backward(ad.mean_all(ad.square(x)))
    assert np.allclose(x.grad, 2.0 * x.value, rtol=1e-12)  # doubled halves


def test_const_subgraph_gets_no_gradient(rng):
    c = ad.const(rng.standard_normal(4))
    x = ad.leaf(rng.standard_normal(4))
    out = ad.mean_all(ad.mul(x, c))
    ad.backward(out)
    assert c.grad is None
    assert x.grad is not None
    assert not ad.const(np.ones(3)).track
    assert ad.leaf(np.ones(3)).track


def test_backward_untracked_root_is_noop(rng):
    c = ad.const(rng.standard_normal(4))
    out = ad.mean_all(ad.square(c))
    ad.backward(out)
    assert out.grad is None


def test_backward_rejects_nonscalar(rng):
    x = ad.leaf(rng.standard_normal(4))
    with pytest.raises(ValueError):
        ad.backward(ad.square(x))


def test_track_propagation(rng):
    x = ad.leaf(rng.standard_normal(3))
    c = ad.const(rng.standard_normal(3))
    assert ad.add(x, c).track
    assert not ad.add(c, c).track


def test_float32_stays_float32(rng):
    a = ad.leaf(rng.standard_normal(8).astype(np.float32))
    b = ad.const(rng.standard_normal(8).astype(np.float32))
    out = ad.mean_all(ad.square(ad.relu(ad.add(ad.scale(a, 0.5), b))))
    assert out.value.dtype == np.float32
    ad.backward(out)
    assert a.grad.dtype == np.float32


def test_leaf_shares_storage(rng):
    arr = rng.standard_normal(4)
    lf = ad.leaf(arr)
    arr[0] = 99.0
    assert lf.value[0] == 99.0


def test_untracked_nodes_keep_no_graph(rng):
    xv = rng.standard_normal((2, 3, 8))
    wv = rng.standard_normal((4, 3, 3))
    out = ad.conv1d(ad.const(xv), ad.const(wv), ad.const(np.zeros(4)))
    assert out._parents == () and out._grad_fn is None

    w = ad.leaf(wv.copy())
    out = ad.conv1d(ad.const(xv), w, ad.const(np.zeros(4)))
    assert len(out._parents) == 3 and out._grad_fn is not None
    ad.backward(ad.mean_all(ad.square(out)))

    def loss(flat):
        o = ad.conv1d(ad.const(xv), ad.const(flat.reshape(wv.shape)),
                      ad.const(np.zeros(4)))
        return float(np.mean(np.square(o.value)))

    assert np.allclose(w.grad.ravel(), fd_grad(loss, wv.ravel()),
                       rtol=1e-6, atol=1e-8)


def test_heap_settings_are_left_alone_without_mallopt(monkeypatch):
    # a C library with no mallopt (macOS, Windows): nothing is set, and the
    # run manifest says so
    monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: object())
    assert ad._keep_freed_heap() == "default"
