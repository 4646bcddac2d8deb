"""Reward, scorer target, and the actor/critic gradient split."""

import numpy as np
import pytest

from mose import (
    DiffusionNet,
    MetricSpec,
    ValueNet,
    actor_loss,
    bellman_loss,
    critic_target,
    get_metric,
    reward,
)
import mose.autodiff as ad
from mose.nets import AdamState, adam_step

SI = get_metric("si_snr")
NMSE = get_metric("neg_mse")


# ---------------------------------------------------------------------------
# reward

def test_reward_closed_forms(rng):
    x0 = rng.standard_normal((1, 64))
    cur = x0 + 0.5
    # landing exactly on the clean signal: r = 0 - (-mean(e^2)) = 0.25
    r = reward(x0.copy(), cur, x0, NMSE)
    assert r.shape == (1,)
    assert r[0] == pytest.approx(0.25, abs=1e-12)
    # no movement in signal space means zero improvement
    assert reward(cur.copy(), cur, x0, NMSE)[0] == 0.0


def test_reward_telescopes_over_a_walk(rng):
    # sum of per-step improvements collapses to final minus initial, per row
    x0 = rng.standard_normal((2, 128))
    states = [x0 + rng.standard_normal((2, 128)) * (0.02 * t)
              for t in range(11)]
    total = sum(reward(states[t - 1], states[t], x0, SI)
                for t in range(10, 0, -1))
    for b in range(2):
        want = SI.evaluate(states[0][b], x0[b]) \
            - SI.evaluate(states[10][b], x0[b])
        assert abs(total[b] - want) <= 1e-9


def test_reward_invariant_to_metric_offset(rng):
    x0 = rng.standard_normal((2, 64))
    a = x0 + 0.3 * rng.standard_normal((2, 64))
    b = x0 + 0.2 * rng.standard_normal((2, 64))
    shifted = MetricSpec(name="shifted",
                         evaluate=lambda c, r: SI.evaluate(c, r) + 17.0)
    assert reward(b, a, x0, SI) == pytest.approx(
        reward(b, a, x0, shifted), abs=1e-9)


# ---------------------------------------------------------------------------
# actor side

def small_vnet():
    return ValueNet(channels=8, kernel=5, strides=(4, 4), mlp_width=16)


def test_actor_loss_zero_for_fresh_scorer(rng):
    # zero output head: the scorer term vanishes and so does its gradient
    vnet = small_vnet()
    pv = vnet.init_params(np.random.default_rng(0))
    x_t = rng.standard_normal((2, 64)).astype(np.float32)
    eps = ad.leaf(rng.standard_normal((2, 64)).astype(np.float32))
    loss = actor_loss(vnet, pv, x_t, eps, x_t * 0.5)
    assert float(loss.value) == 0.0
    ad.backward(loss)
    assert eps.grad is not None
    assert np.all(eps.grad == 0.0)


def test_actor_loss_reaches_action_not_scorer(rng):
    vnet = small_vnet()
    pv = vnet.init_params(np.random.default_rng(3), zero_head=False)
    x_t = rng.standard_normal((2, 64)).astype(np.float32)
    eps = ad.leaf(rng.standard_normal((2, 64)).astype(np.float32))
    loss = actor_loss(vnet, pv, x_t, eps, x_t * 0.5)
    ad.backward(loss)
    assert eps.grad is not None and np.any(eps.grad != 0.0)
    # scorer parameters entered as constants: nothing to accumulate
    with pytest.raises(RuntimeError):
        vnet.accumulate_grads(pv)
    assert np.all(pv.grad == 0.0)


def test_actor_loss_value_is_negated_mean_score(rng):
    vnet = small_vnet()
    pv = vnet.init_params(np.random.default_rng(3), zero_head=False)
    x_t = rng.standard_normal((3, 64)).astype(np.float32)
    eps_arr = rng.standard_normal((3, 64)).astype(np.float32)
    x0 = rng.standard_normal((3, 64)).astype(np.float32)
    loss = actor_loss(vnet, pv, x_t, ad.leaf(eps_arr), x0)
    direct = vnet.forward(pv, x_t, eps_arr, x0).value
    assert float(loss.value) == pytest.approx(-float(np.mean(direct)),
                                              rel=1e-6)


def test_actor_gradient_matches_finite_differences(rng):
    vnet = small_vnet()
    pv = vnet.init_params(np.random.default_rng(3), zero_head=False)
    pv.flat[:] = pv.flat.astype(np.float64)
    x_t = rng.standard_normal((2, 48))
    x0 = rng.standard_normal((2, 48))
    eps_arr = rng.standard_normal((2, 48))
    eps = ad.leaf(eps_arr)
    ad.backward(actor_loss(vnet, pv, x_t, eps, x0))
    idx = [(i, j) for i in range(2) for j in range(0, 48, 5)]
    h = 1e-6
    checked = 0
    for i, j in idx:
        e_hi = eps_arr.copy(); e_hi[i, j] += h
        e_lo = eps_arr.copy(); e_lo[i, j] -= h
        hi = float(actor_loss(vnet, pv, x_t, ad.const(e_hi), x0).value)
        lo = float(actor_loss(vnet, pv, x_t, ad.const(e_lo), x0).value)
        fd = (hi - lo) / (2 * h)
        got = eps.grad[i, j]
        if abs(fd) < 1e-9 and abs(got) < 1e-9:
            continue
        assert abs(got - fd) <= 1e-4 * max(abs(fd), abs(got), 1e-8)
        checked += 1
    assert checked >= 10


def test_zero_alpha_keeps_enhancer_gradient_pure(sched50, rng):
    # L1 + 0 * L2 must hand the enhancer exactly the L1 gradient
    dnet = DiffusionNet(channels=6, blocks=2, kernel=3, emb_dim=6)
    pd = dnet.init_params(np.random.default_rng(1), zero_head=False)
    vnet = small_vnet()
    pv = vnet.init_params(np.random.default_rng(2), zero_head=False)
    x_t = rng.standard_normal((2, 64)).astype(np.float32)
    y = rng.standard_normal((2, 64)).astype(np.float32)
    target = rng.standard_normal((2, 64)).astype(np.float32)

    def grads(with_zero_actor):
        eps = dnet.forward(pd, x_t, y, np.array([3.0, 40.0]),
                           params_tracked=True)
        l1 = ad.mean_all(ad.abs_(ad.sub(eps, ad.const(target))))
        loss = l1
        if with_zero_actor:
            l2 = actor_loss(vnet, pv, x_t, eps, y)
            loss = ad.add(l1, ad.scale(l2, 0.0))
        ad.backward(loss)
        pd.zero_grad()
        dnet.accumulate_grads(pd)
        return pd.grad.copy()

    g_plain = grads(False)
    g_zero = grads(True)
    assert np.array_equal(g_plain, g_zero)


# ---------------------------------------------------------------------------
# critic side

def critic_nets():
    vnet = small_vnet()
    pv = vnet.init_params(np.random.default_rng(5), zero_head=False)
    dnet = DiffusionNet(channels=6, blocks=2, kernel=3, emb_dim=6)
    pd = dnet.init_params(np.random.default_rng(6), zero_head=False)
    return vnet, pv, dnet, pd


def test_critic_target_recomposes(rng):
    vnet, pv, dnet, pd = critic_nets()
    x_prev = rng.standard_normal((2, 64)).astype(np.float32)
    y = rng.standard_normal((2, 64)).astype(np.float32)
    x0 = rng.standard_normal((2, 64)).astype(np.float32)
    r = np.array([0.37, -0.2])
    t = np.array([8, 30])
    got = critic_target(r, t, 0.95, vnet, pv, dnet, pd, x_prev, y, x0)
    eps_next = dnet.forward(pd, x_prev, y, np.array([7.0, 29.0])).value
    v_next = vnet.forward(pv, x_prev, eps_next, x0).value.astype(np.float64)
    assert got == pytest.approx(r + 0.95 * v_next, abs=1e-12)
    assert np.array_equal(r, [0.37, -0.2])  # the rewards are not changed


def test_critic_target_gamma_zero_is_reward(rng):
    vnet, pv, dnet, pd = critic_nets()
    x_prev = rng.standard_normal((2, 64)).astype(np.float32)
    y = rng.standard_normal((2, 64)).astype(np.float32)
    r = np.array([1.25, -3.0])
    got = critic_target(r, np.array([8, 2]), 0.0, vnet, pv, dnet, pd,
                        x_prev, y, y)
    assert np.array_equal(got, r)


def test_critic_target_drops_tail_at_walk_end(rng):
    vnet, pv, dnet, pd = critic_nets()
    x_prev = rng.standard_normal((2, 64)).astype(np.float32)
    y = rng.standard_normal((2, 64)).astype(np.float32)
    r = np.array([-0.5, -0.5])
    got = critic_target(r, np.array([1, 5]), 0.95, vnet, pv, dnet, pd,
                        x_prev, y, y)
    assert got[0] == -0.5
    eps_next = dnet.forward(pd, x_prev[1:], y[1:], np.array([4.0])).value
    v_next = vnet.forward(pv, x_prev[1:], eps_next, y[1:]).value
    assert got[1] == pytest.approx(-0.5 + 0.95 * float(v_next[0]), abs=1e-12)
    # every row at the end of its walk: no bootstrap at all
    got = critic_target(r, np.array([1, 1]), 0.95, vnet, pv, dnet, pd,
                        x_prev, y, y)
    assert np.array_equal(got, r)


# ---------------------------------------------------------------------------
# bellman loss

def test_bellman_loss_closed_form_for_fresh_scorer(rng):
    vnet = small_vnet()
    pv = vnet.init_params(np.random.default_rng(0))  # zero head: V == 0
    x_t = rng.standard_normal((2, 64)).astype(np.float32)
    eps = rng.standard_normal((2, 64)).astype(np.float32)
    targets = np.array([0.5, -1.5], dtype=np.float32)
    loss = bellman_loss(vnet, pv, x_t, eps, x_t, targets)
    assert float(loss.value) == pytest.approx(
        float(np.mean(targets ** 2)), rel=1e-6)


def test_bellman_loss_is_mean_squared_gap(rng):
    vnet = small_vnet()
    pv = vnet.init_params(np.random.default_rng(3), zero_head=False)
    x_t, eps, x0 = rng.standard_normal((3, 2, 64)).astype(np.float32)
    v = vnet.forward(pv, x_t, eps, x0).value
    targets = np.array([0.5, -1.5], dtype=np.float32)
    assert float(bellman_loss(vnet, pv, x_t, eps, x0, targets).value) \
        == pytest.approx(float(np.mean((targets - v) ** 2)), rel=1e-6)


def test_bellman_gradient_matches_finite_differences(rng):
    vnet = small_vnet()
    pv64 = vnet.init_params(np.random.default_rng(7), dtype=np.float64,
                            zero_head=False)
    x_t = rng.standard_normal((2, 48))
    eps = rng.standard_normal((2, 48))
    x0 = rng.standard_normal((2, 48))
    targets = np.array([0.8, -0.3])

    def loss_at(flat):
        pv64.flat[:] = flat
        return float(bellman_loss(vnet, pv64, x_t, eps, x0, targets).value)

    base = pv64.flat.copy()
    ad.backward(bellman_loss(vnet, pv64, x_t, eps, x0, targets))
    pv64.zero_grad()
    vnet.accumulate_grads(pv64)
    got = pv64.grad.copy()
    pv64.flat[:] = base
    gen = np.random.default_rng(11)
    idx = gen.choice(base.size, size=60, replace=False)
    h = 1e-6
    checked = 0
    for k in idx:
        up = base.copy(); up[k] += h
        dn = base.copy(); dn[k] -= h
        fd = (loss_at(up) - loss_at(dn)) / (2 * h)
        pv64.flat[:] = base
        if abs(fd) < 1e-10 and abs(got[k]) < 1e-10:
            continue
        assert abs(got[k] - fd) <= 1e-4 * max(abs(fd), abs(got[k]), 1e-8)
        checked += 1
    assert checked >= 20


def test_bellman_descent_under_adam(rng):
    # a few optimizer steps shrink the regression gap on a fixed batch
    vnet = small_vnet()
    pv = vnet.init_params(np.random.default_rng(9), zero_head=False)
    adam = AdamState.fresh(pv)
    x_t = rng.standard_normal((4, 64)).astype(np.float32)
    eps = rng.standard_normal((4, 64)).astype(np.float32)
    x0 = rng.standard_normal((4, 64)).astype(np.float32)
    targets = np.array([1.0, -0.5, 0.25, 2.0], dtype=np.float32)
    first = None
    for _ in range(60):
        loss = bellman_loss(vnet, pv, x_t, eps, x0, targets)
        if first is None:
            first = float(loss.value)
        ad.backward(loss)
        pv.zero_grad()
        vnet.accumulate_grads(pv)
        adam_step(pv, adam, lr=1e-3)
    last = float(bellman_loss(vnet, pv, x_t, eps, x0, targets).value)
    assert last < 0.5 * first
