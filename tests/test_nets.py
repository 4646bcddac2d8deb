"""Networks, parameter plumbing, and the optimizer against FD oracles."""

import numpy as np
import pytest

import mose.autodiff as ad
from mose import (
    AdamState,
    DiffusionNet,
    DivergenceError,
    ParamSet,
    StepEmbedding,
    ValueNet,
    adam_step,
)


def fd_on_params(loss_fn, params, coords, h=1e-6):
    """Central differences of ``loss_fn()`` over chosen flat coordinates."""
    out = {}
    for i in coords:
        keep = params.flat[i]
        params.flat[i] = keep + h
        up = loss_fn()
        params.flat[i] = keep - h
        down = loss_fn()
        params.flat[i] = keep
        out[i] = (up - down) / (2.0 * h)
    return out


def assert_grads_match(got, want, rel=1e-4):
    for i, w in want.items():
        denom = max(abs(w), 1e-8)
        assert abs(got[i] - w) / denom <= rel, \
            f"coordinate {i}: tape {got[i]!r} vs fd {w!r}"


# ---------------------------------------------------------------------------
# step embedding

def test_embedding_shape_and_range():
    emb = StepEmbedding(dim=8, max_time=100.0)
    e = emb(np.array([1.0, 25.0, 50.0]))
    assert e.shape == (3, 8)
    assert np.all(np.abs(e) <= 1.0)
    single = emb(7.0)
    assert single.shape == (1, 8)
    assert np.array_equal(single[0], emb(np.array([7.0]))[0])


def test_embedding_distinguishes_steps():
    emb = StepEmbedding(dim=16, max_time=200.0)
    e = emb(np.arange(1.0, 51.0))
    d = np.linalg.norm(e[:, None, :] - e[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-3


def test_embedding_fractional_steps_interpolate():
    emb = StepEmbedding(dim=16, max_time=200.0)
    lo, mid, hi = emb(np.array([10.0, 10.5, 11.0]))
    assert np.linalg.norm(mid - lo) < np.linalg.norm(hi - lo)


def test_embedding_rejects_odd_dim():
    with pytest.raises(ValueError):
        StepEmbedding(dim=7)
    with pytest.raises(ValueError):
        StepEmbedding(dim=0)


# ---------------------------------------------------------------------------
# parameter storage

def test_paramset_views_share_storage(rng):
    net = DiffusionNet(channels=4, blocks=1, kernel=3, emb_dim=4)
    params = net.init_params(rng)
    v = params.view("in_proj.w")
    v[0, 0, 0] = 42.0
    assert 42.0 in params.flat
    params.grad_view("in_proj.b")[:] = 1.0
    assert params.grad.sum() == 4.0
    params.zero_grad()
    assert params.grad.sum() == 0.0


def test_paramset_copy_is_independent(rng):
    net = DiffusionNet(channels=4, blocks=1, kernel=3, emb_dim=4)
    params = net.init_params(rng)
    dup = params.copy()
    dup.flat[0] += 1.0
    assert params.flat[0] != dup.flat[0]


def test_paramset_size_validation(rng):
    net = DiffusionNet(channels=4, blocks=1, kernel=3, emb_dim=4)
    with pytest.raises(ValueError):
        ParamSet(net.manifest, np.zeros(3, dtype=np.float32))


def test_init_bounds_and_zero_head(rng):
    net = DiffusionNet(channels=8, blocks=2, kernel=3, emb_dim=8)
    params = net.init_params(rng)
    assert params.dtype == np.float32
    assert np.all(params.view("out_proj.w") == 0.0)
    assert np.all(params.view("out_proj.b") == 0.0)
    w = params.view("block0.dconv.w")
    bound = 1.0 / np.sqrt(8 * 3)
    assert np.max(np.abs(w)) <= bound
    assert np.max(np.abs(w)) > 0.1 * bound  # actually randomized


# ---------------------------------------------------------------------------
# enhancer network

def test_dnet_zero_head_outputs_zero(rng):
    net = DiffusionNet(channels=8, blocks=2, kernel=3, emb_dim=8)
    params = net.init_params(rng)
    x = rng.standard_normal((3, 64)).astype(np.float32)
    y = rng.standard_normal((3, 64)).astype(np.float32)
    out = net.forward(params, x, y, np.array([1.0, 5.0, 9.0])).value
    assert out.shape == (3, 64)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("length", [64, 1024])
def test_dnet_single_equals_batch_row(rng, length):
    # a row forwarded alone, with one scalar step, equals its row in a batch
    net = DiffusionNet(channels=6, blocks=2, kernel=3, emb_dim=6)
    params = net.init_params(rng, zero_head=False)
    x = rng.standard_normal((2, length)).astype(np.float32)
    y = rng.standard_normal((2, length)).astype(np.float32)
    batch = net.forward(params, x, y, np.array([3.0, 8.0])).value
    one = net.forward(params, x[:1], y[:1], 3.0).value
    assert one.shape == (1, length)
    assert np.array_equal(one[0], batch[0])


def test_dnet_batch_permutation_invariance(rng):
    net = DiffusionNet(channels=6, blocks=2, kernel=3, emb_dim=6)
    params = net.init_params(rng, zero_head=False)
    x = rng.standard_normal((4, 48)).astype(np.float32)
    y = rng.standard_normal((4, 48)).astype(np.float32)
    t = np.array([1.0, 2.0, 3.0, 4.0])
    out = net.forward(params, x, y, t).value
    perm = np.array([2, 0, 3, 1])
    out_p = net.forward(params, x[perm], y[perm], t[perm]).value
    assert np.array_equal(out_p, out[perm])


def test_dnet_receptive_field_is_local(rng):
    net = DiffusionNet(channels=6, blocks=3, kernel=3, emb_dim=6)
    params = net.init_params(rng, zero_head=False)
    L = 256
    x = rng.standard_normal((1, L)).astype(np.float32)
    y = rng.standard_normal((1, L)).astype(np.float32)
    base = net.forward(params, x, y, np.array([5.0])).value
    x2 = x.copy()
    x2[0, 128] += 1.0
    moved = net.forward(params, x2, y, np.array([5.0])).value
    changed = np.nonzero(base[0] != moved[0])[0]
    # two kernel-3 convs per block at dilations 1,2,4 plus the 1x1s:
    # the kernel footprint is bounded by sum of (k-1)*dil
    rf = sum((3 - 1) * 2 ** i for i in range(net.blocks))
    assert changed.size > 0
    assert changed.min() >= 128 - rf
    assert changed.max() <= 128 + rf


def test_dnet_distinct_steps_distinct_outputs(rng):
    net = DiffusionNet(channels=6, blocks=2, kernel=3, emb_dim=6)
    params = net.init_params(rng, zero_head=False)
    x = rng.standard_normal((1, 64)).astype(np.float32)
    y = rng.standard_normal((1, 64)).astype(np.float32)
    a = net.forward(params, x, y, 1.0).value
    b = net.forward(params, x, y, 40.0).value
    assert not np.array_equal(a, b)


def test_dnet_gradient_matches_fd(rng):
    net = DiffusionNet(channels=5, blocks=2, kernel=3, emb_dim=4)
    params = net.init_params(rng, dtype=np.float64, zero_head=False)
    x = rng.standard_normal((2, 32))
    y = rng.standard_normal((2, 32))
    t = np.array([2.0, 7.0])
    target = rng.standard_normal((2, 32))

    def loss_value():
        out = net.forward(params, x, y, t)
        return float(np.mean(np.abs(out.value - target)))

    out = net.forward(params, x, y, t, params_tracked=True)
    root = ad.mean_all(ad.abs_(ad.sub(out, ad.const(target))))
    ad.backward(root)
    net.accumulate_grads(params)
    coords = rng.choice(params.size, size=40, replace=False)
    want = fd_on_params(loss_value, params, coords)
    assert_grads_match({i: params.grad[i] for i in coords}, want)


def test_dnet_accumulate_requires_tracked_pass(rng):
    net = DiffusionNet(channels=4, blocks=1, kernel=3, emb_dim=4)
    params = net.init_params(rng)
    with pytest.raises(RuntimeError):
        net.accumulate_grads(params)
    net.forward(params, np.zeros((1, 16), np.float32),
                np.zeros((1, 16), np.float32), np.array([1.0]))
    with pytest.raises(RuntimeError):
        net.accumulate_grads(params)  # untracked forward records nothing


# ---------------------------------------------------------------------------
# scorer network

def test_vnet_zero_head_scores_zero(rng):
    net = ValueNet(channels=6, kernel=5, mlp_width=8)
    params = net.init_params(rng)
    x = rng.standard_normal((2, 256)).astype(np.float32)
    out = net.forward(params, x, x, x).value
    assert out.shape == (2,)
    assert np.all(out == 0.0)


def test_vnet_single_equals_batch_row(rng):
    net = ValueNet(channels=6, kernel=5, mlp_width=8)
    params = net.init_params(rng, zero_head=False)
    x = rng.standard_normal((3, 128)).astype(np.float32)
    a = rng.standard_normal((3, 128)).astype(np.float32)
    c = rng.standard_normal((3, 128)).astype(np.float32)
    batch = net.forward(params, x, a, c).value
    one = net.forward(params, x[1:2], a[1:2], c[1:2]).value
    assert one.shape == (1,)
    assert np.array_equal(one[0], batch[1])


def test_vnet_tensor_action_paths(rng):
    # gradient flows into a Tensor action, not into the scorer's weights
    net = ValueNet(channels=4, kernel=5, mlp_width=8)
    params = net.init_params(rng, dtype=np.float64, zero_head=False)
    x = rng.standard_normal((2, 64))
    c = rng.standard_normal((2, 64))
    a_leaf = ad.leaf(rng.standard_normal((2, 64)))
    out = ad.mean_all(net.forward(params, x, a_leaf, c))
    ad.backward(out)
    assert a_leaf.grad is not None
    assert a_leaf.grad.shape == (2, 64)
    with pytest.raises(RuntimeError):
        net.accumulate_grads(params)  # parameters entered as constants


def test_vnet_action_gradient_matches_fd(rng):
    # channels wide enough that the relu encoder cannot die entirely
    net = ValueNet(channels=8, kernel=5, mlp_width=8)
    params = net.init_params(rng, dtype=np.float64, zero_head=False)
    x = rng.standard_normal((2, 64))
    c = rng.standard_normal((2, 64))
    a0 = rng.standard_normal(2 * 64)

    def value_at(flat):
        return float(np.mean(net.forward(params, x, flat.reshape(2, 64),
                                         c).value))

    a_leaf = ad.leaf(a0.reshape(2, 64).copy())
    ad.backward(ad.mean_all(net.forward(params, x, a_leaf, c)))
    got = a_leaf.grad.ravel()

    from test_autodiff import fd_grad
    want = fd_grad(value_at, a0)
    live = np.abs(want) > 1e-8
    assert live.sum() > 20
    assert np.max(np.abs(got[live] - want[live])
                  / np.abs(want[live])) <= 1e-4


def test_vnet_params_gradient_matches_fd(rng):
    net = ValueNet(channels=8, kernel=5, mlp_width=8)
    params = net.init_params(rng, dtype=np.float64, zero_head=False)
    x = rng.standard_normal((2, 64))
    a = rng.standard_normal((2, 64))
    c = rng.standard_normal((2, 64))
    target = 1.3

    def loss_value():
        v = net.forward(params, x, a, c).value
        return float(np.mean((target - v) ** 2))

    v = net.forward(params, x, a, c, params_tracked=True)
    root = ad.mean_all(ad.square(ad.sub(ad.const(np.full(2, target)), v)))
    ad.backward(root)
    net.accumulate_grads(params)
    coords = rng.choice(params.size, size=40, replace=False)
    want = fd_on_params(loss_value, params, coords)
    assert_grads_match({i: params.grad[i] for i in coords}, want)


# ---------------------------------------------------------------------------
# optimizer

def _bowl_params(shape=(6,)):
    manifest = [("x", shape)]
    flat = np.array([1.5, -2.0, 0.3, 4.0, -0.7, 2.2], dtype=np.float64)
    return ParamSet(manifest, flat.copy())


def test_adam_zero_gradient_is_identity():
    params = _bowl_params()
    before = params.flat.copy()
    state = AdamState.fresh(params)
    adam_step(params, state, lr=1e-2)
    assert np.array_equal(params.flat, before)


def test_adam_first_step_magnitude():
    # with constant gradient the bias-corrected first step is lr * sign(g)
    params = _bowl_params()
    state = AdamState.fresh(params)
    before = params.flat.copy()
    params.grad[:] = 3.7
    adam_step(params, state, lr=1e-2)
    delta = params.flat - before
    assert np.allclose(np.abs(delta), 1e-2, rtol=1e-6)
    assert np.all(delta < 0)
    assert np.all(params.grad == 0.0)  # buffer cleared for the next pass


def test_adam_quadratic_bowl_converges():
    # offsets of order one; constant-lr Adam stalls from much farther out
    params = _bowl_params()
    target = params.flat - np.array([1.0, -0.8, 0.5, 1.2, -1.5, 0.9])
    state = AdamState.fresh(params)
    for _ in range(2000):
        params.grad[:] = params.flat - target
        adam_step(params, state, lr=1e-2)
    assert np.max(np.abs(params.flat - target)) < 1e-6


def test_adam_rejects_nonfinite_gradients():
    params = _bowl_params()
    state = AdamState.fresh(params)
    params.grad[2] = np.nan
    with pytest.raises(DivergenceError):
        adam_step(params, state, lr=1e-2)
