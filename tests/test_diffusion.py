"""Forward process, combined-noise target, reverse walk, fast sampling."""

import math

import mpmath as mp
import numpy as np
import pytest

from mose import (
    AlignmentError,
    DiffusionNet,
    ScheduleError,
    SignalPair,
    align_inference_steps,
    default_fast_schedule,
    enhance,
    fast_sample,
    forward_sample_batch,
    reverse_mean_batch,
    schedule_from_betas,
    target_noise_batch,
)

mp.mp.dps = 50


def make_pair(rng, n=128):
    x0 = rng.standard_normal(n)
    y = x0 + 0.5 * rng.standard_normal(n)
    return SignalPair(x0, y, 16000, "p")


# ---------------------------------------------------------------------------
# forward marginal

def one_row(pair):
    return pair.x0[None, :], pair.y[None, :]


def test_forward_terminal_centers_on_conditioner(sched50, rng):
    x0, y = one_row(make_pair(rng))
    x_t = forward_sample_batch(x0, y, np.array([50]), np.zeros((1, 128)),
                               sched50)
    sa = math.sqrt(float(sched50.alpha_bar[50]))
    assert np.array_equal(x_t, sa * y)  # w[T] = 1 removes x0 entirely


def test_forward_first_step_is_nearly_clean(sched50, rng):
    x0, y = one_row(make_pair(rng))
    x_t = forward_sample_batch(x0, y, np.array([1]), np.zeros((1, 128)),
                               sched50)
    w = float(sched50.w[1])
    sa = math.sqrt(float(sched50.alpha_bar[1]))
    want = (1.0 - w) * sa * x0 + w * sa * y
    assert np.array_equal(x_t, want)
    assert np.max(np.abs(x_t - x0)) < 0.02 * np.max(np.abs(x0)) + 0.02


def test_forward_monte_carlo_moments(sched50):
    # scalar signals, many draws: empirical mean and variance must match
    # the marginal within 4 standard errors
    n = 20000
    x0v, yv = 0.4, -0.7
    gen = np.random.default_rng(99)
    for t in (2, 25, 50):
        # vectorized path: one batch of n scalar rows
        eps = gen.standard_normal((n, 1))
        xt = forward_sample_batch(np.full((n, 1), x0v), np.full((n, 1), yv),
                                  np.full(n, t), eps, sched50)[:, 0]
        w = float(sched50.w[t])
        sa = math.sqrt(float(sched50.alpha_bar[t]))
        mean_th = (1.0 - w) * sa * x0v + w * sa * yv
        var_th = float(sched50.delta[t])
        se_mean = math.sqrt(var_th / n)
        se_var = var_th * math.sqrt(2.0 / (n - 1))
        assert abs(xt.mean() - mean_th) <= 4.0 * se_mean
        assert abs(xt.var(ddof=1) - var_th) <= 4.0 * se_var


def test_forward_validation(sched50, rng):
    x0, y = one_row(make_pair(rng))
    eps = np.zeros((1, 128))
    with pytest.raises(ScheduleError):
        forward_sample_batch(x0, y, np.array([0]), eps, sched50)
    with pytest.raises(ScheduleError):
        forward_sample_batch(x0, y, np.array([51]), eps, sched50)
    with pytest.raises(ValueError):
        forward_sample_batch(x0, y, np.array([3]), np.zeros((1, 64)), sched50)


def test_forward_batch_matches_scalar_path(sched50, rng):
    # each row against the marginal in python-float arithmetic
    x0 = rng.standard_normal((4, 64))
    y = rng.standard_normal((4, 64))
    eps = rng.standard_normal((4, 64))
    t = np.array([1, 17, 34, 50])
    batch = forward_sample_batch(x0, y, t, eps, sched50)
    for i in range(4):
        w = float(sched50.w[t[i]])
        sa = math.sqrt(float(sched50.alpha_bar[t[i]]))
        sd = math.sqrt(float(sched50.delta[t[i]]))
        want = (1.0 - w) * sa * x0[i] + w * sa * y[i] + sd * eps[i]
        assert np.array_equal(batch[i], want)


# ---------------------------------------------------------------------------
# combined-noise target

def test_target_identity_with_latent(sched50, rng):
    # C_t = (x_t - sqrt(ab) x0) / sqrt(1 - ab), exactly the same noise draw
    x0, y = one_row(make_pair(rng))
    for t in (1, 25, 50):
        t_b = np.array([t])
        eps = rng.standard_normal((1, 128))
        c = target_noise_batch(x0, y, t_b, eps, sched50)
        x_t = forward_sample_batch(x0, y, t_b, eps, sched50)
        ab = float(sched50.alpha_bar[t])
        recon = (x_t - math.sqrt(ab) * x0) / math.sqrt(1.0 - ab)
        assert np.max(np.abs(c - recon)) <= 1e-12


def test_target_extended_precision_reimplementation(sched50, rng):
    # scalar-by-scalar rebuild of the target at t = 25 in 50-digit arithmetic
    t = 25
    x0, y = one_row(make_pair(rng, n=16))
    eps = rng.standard_normal((1, 16))
    got = target_noise_batch(x0, y, np.array([t]), eps, sched50)[0]
    ab = mp.mpf(float(sched50.alpha_bar[t]))
    w = mp.mpf(float(sched50.w[t]))
    dl = mp.mpf(float(sched50.delta[t]))
    s1 = mp.sqrt(1 - ab)
    for i in range(16):
        want = (w * mp.sqrt(ab) / s1) * (mp.mpf(y[0, i]) - mp.mpf(x0[0, i])) \
            + (mp.sqrt(dl) / s1) * mp.mpf(eps[0, i])
        assert abs(float(got[i]) - float(want)) <= 1e-12


def test_target_batch_matches_scalar_path(sched50, rng):
    # each row against the target in python-float arithmetic
    x0 = rng.standard_normal((3, 32))
    y = rng.standard_normal((3, 32))
    eps = rng.standard_normal((3, 32))
    t = np.array([2, 30, 49])
    batch = target_noise_batch(x0, y, t, eps, sched50)
    for i in range(3):
        ab = float(sched50.alpha_bar[t[i]])
        s1 = math.sqrt(1.0 - ab)
        c_mix = float(sched50.w[t[i]]) * math.sqrt(ab) / s1
        c_eps = math.sqrt(float(sched50.delta[t[i]])) / s1
        assert np.array_equal(batch[i],
                              c_mix * (y[i] - x0[i]) + c_eps * eps[i])


# ---------------------------------------------------------------------------
# zero-weight reduction to the unconditional process

def test_zero_weight_reduction_is_bitwise(sched20_zero, rng):
    s = sched20_zero
    for _ in range(25):
        t = np.array([int(rng.integers(1, 21))])
        x0 = rng.standard_normal((1, 64))
        y = rng.standard_normal((1, 64))
        eps = rng.standard_normal((1, 64))

        ab = float(s.alpha_bar[t[0]])
        x_t = forward_sample_batch(x0, y, t, eps, s)
        assert np.array_equal(x_t, math.sqrt(ab) * x0
                              + math.sqrt(1.0 - ab) * eps)

        assert np.array_equal(target_noise_batch(x0, y, t, eps, s), eps)

        eps_hat = rng.standard_normal((1, 64))
        got = reverse_mean_batch(x_t, y, eps_hat, t, s)
        a = float(s.alpha[t[0]])
        b = float(s.beta[t[0]])
        cx = 1.0 / math.sqrt(a)
        ce = b / (math.sqrt(a) * math.sqrt(1.0 - ab))
        assert np.array_equal(got, cx * x_t - ce * eps_hat)


# ---------------------------------------------------------------------------
# reverse step

def test_reverse_step_is_affine(sched50, rng):
    # superposition in each argument at fixed coefficients
    t = np.array([20])
    x1, x2 = rng.standard_normal((2, 1, 32))
    y = rng.standard_normal((1, 32))
    e = rng.standard_normal((1, 32))
    f = lambda x: reverse_mean_batch(x, y, e, t, sched50)
    lhs = f(0.25 * x1 + 0.75 * x2)
    rhs = 0.25 * f(x1) + 0.75 * f(x2)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_reverse_step_no_noise_at_final_step(sched50, rng):
    # start noise plus one draw for each step s = T..2: T draws in all
    pair = make_pair(rng)
    g = np.random.default_rng(8)
    enhance(OracleNet(pair.x0, sched50), None, pair.y, sched50, rng=g)
    ref = np.random.default_rng(8)
    for _ in range(sched50.T):
        ref.standard_normal(pair.y.size)
    assert g.bit_generator.state == ref.bit_generator.state


def test_reverse_step_validation(sched50, rng):
    x = rng.standard_normal((1, 8))
    for bad in (0.5, 0, 51):
        with pytest.raises(ScheduleError):
            reverse_mean_batch(x, x, x, np.array([bad]), sched50)


def test_reverse_mean_batch_matches_scalar(sched50, rng):
    # each row against the posterior mean in python-float arithmetic
    x = rng.standard_normal((3, 16))
    y = rng.standard_normal((3, 16))
    e = rng.standard_normal((3, 16))
    t = np.array([1, 25, 50])
    batch = reverse_mean_batch(x, y, e, t, sched50)
    for i in range(3):
        want = float(sched50.coef_x[t[i]]) * x[i] \
            + float(sched50.coef_y[t[i]]) * y[i] \
            - float(sched50.coef_eps[t[i]]) * e[i]
        assert np.array_equal(batch[i], want)


def test_reverse_mean_keeps_each_terms_dtype(sched50, rng):
    # coefficients scale a term in its own dtype, as python floats would
    x = rng.standard_normal((2, 16)).astype(np.float32)
    e = rng.standard_normal((2, 16))
    t = np.array([3, 40])
    got = reverse_mean_batch(x, x, e, t, sched50)
    assert got.dtype == np.float64
    for i in range(2):
        want = float(sched50.coef_x[t[i]]) * x[i] \
            + float(sched50.coef_y[t[i]]) * x[i] \
            - float(sched50.coef_eps[t[i]]) * e[i]
        assert np.array_equal(got[i], want)
    assert reverse_mean_batch(x, x, x, t, sched50).dtype == np.float32


def test_oracle_reverse_step_marginal_consistency(sched50):
    # one reverse step with the exact combined noise, marginalized over x_t
    # draws, must land on the t-1 marginal in mean and variance
    n = 20000
    x0v, yv = 0.4, -0.7
    gen = np.random.default_rng(4242)
    for t in (2, 25, 49):
        eps = gen.standard_normal((n, 1))
        x_t = forward_sample_batch(np.full((n, 1), x0v), np.full((n, 1), yv),
                                   np.full(n, t), eps, sched50)
        ab = float(sched50.alpha_bar[t])
        c_true = (x_t - math.sqrt(ab) * x0v) / math.sqrt(1.0 - ab)
        y_b = np.full((n, 1), yv)
        mean_prev = reverse_mean_batch(x_t, y_b, c_true, np.full(n, t), sched50)
        z = gen.standard_normal((n, 1))
        x_prev = mean_prev + math.sqrt(float(sched50.delta_tilde[t])) * z
        w_p = float(sched50.w[t - 1])
        sa_p = math.sqrt(float(sched50.alpha_bar[t - 1]))
        mean_th = (1.0 - w_p) * sa_p * x0v + w_p * sa_p * yv
        var_th = float(sched50.delta[t - 1])
        se_mean = math.sqrt(var_th / n)
        se_var = var_th * math.sqrt(2.0 / (n - 1))
        assert abs(x_prev.mean() - mean_th) <= 4.0 * se_mean
        assert abs(x_prev.var(ddof=1) - var_th) <= 4.0 * se_var


# ---------------------------------------------------------------------------
# whole-chain walks

class OracleNet:
    """Stands in for a trained network: returns the exact combined noise."""

    def __init__(self, x0, sched):
        self.x0 = np.asarray(x0)
        self.sched = sched

    def forward(self, params, x, y, t, params_tracked=False):
        import mose.autodiff as ad
        tt = int(round(float(t)))
        ab = float(self.sched.alpha_bar[tt])
        c = (np.asarray(x) - math.sqrt(ab) * self.x0) / math.sqrt(1.0 - ab)
        return ad.const(c)


def test_oracle_rollout_recovers_clean_signal(sched50, rng):
    pair = make_pair(rng)
    net = OracleNet(pair.x0, sched50)
    out = enhance(net, None, pair.y, sched50, rng=None)
    rel = np.linalg.norm(out - pair.x0) / np.linalg.norm(pair.x0)
    assert rel <= 0.1


def test_enhance_identical_seeds_identical_outputs(sched50, rng):
    pair = make_pair(rng)
    net = OracleNet(pair.x0, sched50)
    a = enhance(net, None, pair.y, sched50, rng=np.random.default_rng(7))
    b = enhance(net, None, pair.y, sched50, rng=np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_enhance_preserves_float32(sched50, rng):
    y32 = rng.standard_normal(64).astype(np.float32)
    net = OracleNet(y32.astype(np.float32), sched50)
    out = enhance(net, None, y32, sched50, rng=np.random.default_rng(3))
    assert out.dtype == np.float32


# ---------------------------------------------------------------------------
# fast sampling and alignment

def test_identity_fast_schedule_is_bitwise_equal(sched50, rng):
    pair = make_pair(rng)
    net = OracleNet(pair.x0, sched50)
    betas = np.array(sched50.beta[1:])
    full = enhance(net, None, pair.y, sched50, rng=np.random.default_rng(11))
    fast = fast_sample(net, None, pair.y, betas, sched50,
                       rng=np.random.default_rng(11))
    assert np.array_equal(full, fast)


def test_alignment_exact_integer_hits(sched50):
    mini = schedule_from_betas(np.array(sched50.beta[1:]),
                               weight_mode=sched50.weight_mode)
    taus = align_inference_steps(mini, sched50)
    assert np.array_equal(taus, np.arange(1.0, 51.0))


def test_alignment_interpolates_between_steps(sched50):
    betas = default_fast_schedule(sched50, 6)
    mini = schedule_from_betas(betas, weight_mode=sched50.weight_mode)
    taus = align_inference_steps(mini, sched50)
    assert taus.shape == (6,)
    assert np.all(np.diff(taus) > 0.0)
    assert taus[-1] == pytest.approx(50.0, abs=1e-6)
    assert taus[0] >= 1.0
    # interior values sit strictly between integer grid points
    grid = np.sqrt(sched50.alpha_bar)
    for s in range(1, 6):
        a = math.sqrt(float(mini.alpha_bar[s]))
        j = int(math.floor(taus[s - 1]))
        if taus[s - 1] != j:
            assert grid[j] > a > grid[j + 1]


def test_alignment_rejects_overshoot(sched50):
    # a single huge step retains less signal than the training terminal
    with pytest.raises(AlignmentError):
        fast_sample(OracleNet(np.zeros(8), sched50), None,
                    np.zeros(8), np.array([0.9]), sched50)


def test_fast_sample_rejects_overlong_schedule(sched50):
    betas = np.full(51, 0.01)
    with pytest.raises(AlignmentError):
        fast_sample(OracleNet(np.zeros(8), sched50), None, np.zeros(8),
                    betas, sched50)


def test_default_fast_schedule_shape(sched50):
    betas = default_fast_schedule(sched50, 6)
    assert betas.shape == (6,)
    assert np.all(betas > 0.0) and np.all(betas < 1.0)
    mini = schedule_from_betas(betas)
    # noise shares run from the first to the terminal training level
    assert 1.0 - float(mini.alpha_bar[1]) == pytest.approx(
        1.0 - float(sched50.alpha_bar[1]), rel=1e-9)
    assert 1.0 - float(mini.alpha_bar[6]) == pytest.approx(
        1.0 - float(sched50.alpha_bar[50]), rel=1e-9)
    with pytest.raises(ScheduleError):
        default_fast_schedule(sched50, 1)
    with pytest.raises(ScheduleError):
        default_fast_schedule(sched50, 51)


def test_fast_sample_six_steps_finite_and_sized(sched50, rng):
    pair = make_pair(rng)
    net = OracleNet(pair.x0, sched50)
    out = fast_sample(net, None, pair.y, default_fast_schedule(sched50, 6),
                      sched50, rng=np.random.default_rng(5))
    assert out.shape == pair.y.shape
    assert np.all(np.isfinite(out))


def test_real_network_chain_runs(sched50, rng):
    # end-to-end shape/finiteness with an actual (untrained) enhancer
    net = DiffusionNet(channels=6, blocks=2, kernel=3, emb_dim=6,
                       max_time=200.0)
    params = net.init_params(np.random.default_rng(0), zero_head=False)
    y = rng.standard_normal(96).astype(np.float32)
    out = enhance(net, params, y, sched50, rng=np.random.default_rng(2))
    assert out.shape == (96,)
    assert out.dtype == np.float32
    assert np.all(np.isfinite(out))
    # without noise the walk is reverse_mean_batch applied step by step
    x = math.sqrt(float(sched50.alpha_bar[50])) * y[None, :]
    for t in range(50, 0, -1):
        eps_hat = net.forward(params, x, y[None, :], float(t)).value
        x = reverse_mean_batch(x, y[None, :], eps_hat, np.array([t]), sched50)
    assert np.array_equal(x[0], enhance(net, params, y, sched50))


def test_batched_walk_rows_equal_walks_alone(sched50, rng):
    net = DiffusionNet(channels=6, blocks=2, kernel=3, emb_dim=6,
                       max_time=200.0)
    params = net.init_params(np.random.default_rng(0), zero_head=False)
    ys = rng.standard_normal((3, 96)).astype(np.float32)
    betas = default_fast_schedule(sched50, 6)

    def gens():
        return [np.random.default_rng(20 + b) for b in range(3)]

    full = enhance(net, params, ys, sched50, rng=gens())
    fast = fast_sample(net, params, ys, betas, sched50, rng=gens())
    assert full.shape == fast.shape == ys.shape
    for b, g in enumerate(gens()):
        assert np.array_equal(full[b], enhance(net, params, ys[b], sched50,
                                               rng=g))
    for b, g in enumerate(gens()):
        assert np.array_equal(fast[b], fast_sample(net, params, ys[b], betas,
                                                   sched50, rng=g))
    with pytest.raises(ValueError, match="one generator per row"):
        enhance(net, params, ys, sched50, rng=gens()[:2])
    with pytest.raises(ValueError, match="one generator per row"):
        enhance(net, params, ys, sched50, rng=np.random.default_rng(0))
