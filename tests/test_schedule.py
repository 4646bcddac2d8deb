"""Schedule construction against extended-precision and closed-form oracles."""

import copy
import dataclasses
import math
import pickle

import mpmath as mp
import numpy as np
import pytest

from mose import (
    ScheduleError,
    build_schedule,
    dump_table,
    interpolation_weight,
    schedule_from_betas,
)

mp.mp.dps = 50


def _mp_alpha_bar(betas):
    out = []
    acc = mp.mpf(1)
    for b in betas:
        acc *= 1 - mp.mpf(float(b))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# interpolation weight

def test_weight_clean_boundary_is_zero():
    assert interpolation_weight(1.0) == 0.0


def test_weight_saturates_at_one():
    # (1 - 0.25) / sqrt(0.25) = 1.5, raw weight sqrt(1.5) > 1, so clamp
    assert interpolation_weight(0.25) == 1.0


def test_weight_midpoint_value():
    ab = 0.81
    raw = math.sqrt((1.0 - ab) / math.sqrt(ab))
    assert interpolation_weight(ab) == raw
    assert 0.0 < raw < 1.0


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, float("nan"), float("inf")])
def test_weight_rejects_out_of_domain(bad):
    with pytest.raises(ScheduleError):
        interpolation_weight(bad)


def test_weight_monotone_in_alpha_bar():
    grid = np.linspace(1e-6, 1.0, 500)
    vals = [interpolation_weight(a) for a in grid]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# construction against the extended-precision oracle

def test_alpha_bar_matches_extended_precision(sched50):
    betas = np.linspace(1e-4, 0.035, 50)
    oracle = _mp_alpha_bar(betas)
    for t in range(1, 51):
        assert abs(float(sched50.alpha_bar[t]) - float(oracle[t - 1])) <= 1e-12


def test_alpha_bar_terminal_reference_value(sched50):
    # frozen from the 50-digit product oracle for the default chain
    assert abs(float(sched50.alpha_bar[50]) - 0.4114663979618455) < 1e-15


def test_weights_match_extended_precision(sched50):
    betas = np.linspace(1e-4, 0.035, 50)
    oracle = _mp_alpha_bar(betas)
    for t in range(1, 50):
        ab = oracle[t - 1]
        w_mp = min(mp.mpf(1), mp.sqrt((1 - ab) / mp.sqrt(ab)))
        assert abs(float(sched50.w[t]) - float(w_mp)) <= 1e-12


def test_terminal_weight_is_pinned(sched50):
    # the raw formula stays below 1 for every step of the default chain,
    # so step 50 is the first (and only) saturated weight
    assert float(sched50.w[50]) == 1.0
    assert float(sched50.w[49]) < 1.0
    raw_terminal = math.sqrt(
        (1.0 - sched50.alpha_bar[50]) / math.sqrt(sched50.alpha_bar[50]))
    assert raw_terminal < 1.0
    first_saturated = int(np.argmax(sched50.w == 1.0))
    assert first_saturated == 50


def test_marginal_variance_identity(sched50):
    # delta = (1 - alpha_bar) - w^2 alpha_bar, rearranged
    for t in range(1, 51):
        lhs = sched50.delta[t] + sched50.w[t] ** 2 * sched50.alpha_bar[t]
        assert abs(lhs - (1.0 - sched50.alpha_bar[t])) <= 1e-15


def test_monotone_invariants(sched50):
    assert np.all(np.diff(sched50.alpha_bar) < 0.0)
    assert np.all(np.diff(sched50.w) >= 0.0)
    assert np.all(sched50.delta[1:] > 0.0)
    assert np.all(sched50.var[1:] > 0.0)


def test_posterior_variance_contracts(sched50):
    # the reverse posterior is narrower than the marginal it conditions:
    # delta_tilde[t] <= delta[t-1] everywhere, and <= delta[t] before the
    # pinned terminal step (at t=T the weight jump makes delta shrink, so
    # only the t-1 comparison is meaningful there)
    for t in range(1, 51):
        assert sched50.delta_tilde[t] <= sched50.delta[t - 1] + 1e-15
    for t in range(1, 50):
        assert sched50.delta_tilde[t] <= sched50.delta[t] + 1e-15


def test_transition_composes_to_marginals(sched50):
    s = sched50
    for t in range(1, 51):
        x0_coef_prev = (1.0 - s.w[t - 1]) * math.sqrt(s.alpha_bar[t - 1])
        y_coef_prev = s.w[t - 1] * math.sqrt(s.alpha_bar[t - 1])
        x0_coef = (1.0 - s.w[t]) * math.sqrt(s.alpha_bar[t])
        y_coef = s.w[t] * math.sqrt(s.alpha_bar[t])
        assert abs(s.gain[t] * x0_coef_prev - x0_coef) <= 1e-12
        assert abs(s.gain[t] * y_coef_prev + s.mix[t] - y_coef) <= 1e-12
        assert abs(s.gain[t] ** 2 * s.delta[t - 1] + s.var[t] - s.delta[t]) <= 1e-12


def test_reverse_mean_matches_explicit_conjugacy(sched50):
    # independent route: Bayes-combine the two Gaussians in 50-digit
    # arithmetic for concrete numbers, then eliminate x0 via the combined
    # noise identity and compare with the stored coefficients
    s = sched50
    x0 = mp.mpf("0.37")
    y = mp.mpf("-0.61")
    x_t = mp.mpf("0.254")
    for t in (1, 2, 17, 25, 49, 50):
        ab_p = mp.mpf(float(s.alpha_bar[t - 1]))
        ab_c = mp.mpf(float(s.alpha_bar[t]))
        w_p = mp.mpf(float(s.w[t - 1]))
        d_p = mp.mpf(float(s.delta[t - 1]))
        gain = mp.mpf(float(s.gain[t]))
        mix = mp.mpf(float(s.mix[t]))
        var = mp.mpf(float(s.var[t]))

        prior_mean = (1 - w_p) * mp.sqrt(ab_p) * x0 + w_p * mp.sqrt(ab_p) * y
        if t == 1:
            post_mean = prior_mean  # delta[0] = 0: the prior is a point mass
        else:
            lam = 1 / d_p + gain * gain / var
            post_mean = (prior_mean / d_p
                         + gain * (x_t - mix * y) / var) / lam
        c_t = (x_t - mp.sqrt(ab_c) * x0) / mp.sqrt(1 - ab_c)
        got = (mp.mpf(float(s.coef_x[t])) * x_t
               + mp.mpf(float(s.coef_y[t])) * y
               - mp.mpf(float(s.coef_eps[t])) * c_t)
        assert abs(float(got - post_mean)) <= 1e-12


def test_construction_runs_fast(sched50):
    import time
    t0 = time.time()
    for _ in range(5):
        build_schedule(50, 1e-4, 0.035)
    assert time.time() - t0 < 1.0


@pytest.mark.parametrize("route", ["deepcopy", "pickle"])
def test_copies_stay_read_only_and_equal(sched50, sched20_zero, route):
    # a forked or pickled run state carries its chain; the copy must keep
    # the table immutable, not merely equal
    for sched in (sched50, sched20_zero):
        got = copy.deepcopy(sched) if route == "deepcopy" \
            else pickle.loads(pickle.dumps(sched))
        assert (got.T, got.weight_mode) == (sched.T, sched.weight_mode)
        for f in dataclasses.fields(sched):
            want = getattr(sched, f.name)
            if isinstance(want, np.ndarray):
                assert not getattr(got, f.name).flags.writeable, f.name
                assert np.array_equal(getattr(got, f.name), want), f.name


# ---------------------------------------------------------------------------
# zero-weight mode: classic unconditional closed forms

def test_zero_mode_matches_textbook_forms(sched20_zero):
    s = sched20_zero
    assert np.all(s.w == 0.0)
    assert np.all(s.mix == 0.0)
    assert np.all(s.coef_y == 0.0)
    for t in range(1, 21):
        a = float(s.alpha[t])
        b = float(s.beta[t])
        ab = float(s.alpha_bar[t])
        assert float(s.gain[t]) == math.sqrt(a)
        assert float(s.var[t]) == b
        assert float(s.coef_x[t]) == 1.0 / math.sqrt(a)
        assert float(s.coef_eps[t]) == b / (math.sqrt(a) * math.sqrt(1.0 - ab))
        assert float(s.delta[t]) == 1.0 - ab


def test_zero_mode_posterior_equals_beta_tilde(sched20_zero):
    s = sched20_zero
    assert float(s.delta_tilde[1]) == 0.0
    assert float(s.beta_tilde[1]) == float(s.beta[1])
    for t in range(2, 21):
        assert float(s.delta_tilde[t]) == pytest.approx(float(s.beta_tilde[t]),
                                                        rel=0, abs=0)


# ---------------------------------------------------------------------------
# error paths

def test_two_step_tiny_betas_rejected():
    # so little noise is injected that delta[T] = 1 - 2*alpha_bar[T] < 0
    # once the terminal weight is pinned
    with pytest.raises(ScheduleError, match="delta"):
        build_schedule(2, 1e-4, 1e-4)


@pytest.mark.parametrize("bad_T", [0, 1, -3, 2.5])
def test_build_rejects_bad_T(bad_T):
    with pytest.raises(ScheduleError):
        build_schedule(bad_T, 1e-4, 0.035)


@pytest.mark.parametrize("lo,hi", [(0.0, 0.1), (-0.1, 0.1), (0.2, 0.1),
                                   (0.1, 1.0), (float("nan"), 0.1)])
def test_build_rejects_bad_beta_range(lo, hi):
    with pytest.raises(ScheduleError):
        build_schedule(10, lo, hi)


def test_from_betas_rejects_bad_sequences():
    with pytest.raises(ScheduleError):
        schedule_from_betas([])
    with pytest.raises(ScheduleError):
        schedule_from_betas([0.1, 1.0])
    with pytest.raises(ScheduleError):
        schedule_from_betas([0.1, float("nan")])
    with pytest.raises(ScheduleError):
        schedule_from_betas([[0.1, 0.2]])
    with pytest.raises(ScheduleError):
        schedule_from_betas([0.1, 0.2], weight_mode="banana")


def test_dump_table_shape(sched50):
    text = dump_table(sched50)
    lines = text.strip().split("\n")
    assert lines[0] == "t\tbeta\talpha_bar\tw\tdelta\tdelta_tilde"
    assert len(lines) == 51
    first = lines[1].split("\t")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(1e-4)
    # full precision: values survive a text round trip
    last = lines[50].split("\t")
    assert float(last[2]) == float(sched50.alpha_bar[50])


# ---------------------------------------------------------------------------
# randomized construction: any accepted beta sequence satisfies the
# invariants; rejected ones raise the dedicated error type

def test_random_sequences_hold_invariants():
    rng = np.random.default_rng(7)
    accepted = 0
    for _ in range(40):
        n = int(rng.integers(2, 70))
        betas = rng.uniform(1e-5, 0.4, size=n)
        try:
            s = schedule_from_betas(betas)
        except ScheduleError:
            continue
        accepted += 1
        assert np.all(np.diff(s.alpha_bar) < 0.0)
        assert np.all(np.diff(s.w) >= 0.0)
        assert s.w[s.T] == 1.0
        assert np.all(s.delta[1:] >= 0.0)
        assert np.all(s.var[1:] >= 0.0)
        assert np.all(s.delta_tilde[1:] <= s.delta[:-1] + 1e-15)
    assert accepted >= 10
