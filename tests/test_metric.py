"""Quality metrics: closed-form cases, clipping, registry, external adapter."""

import sys

import numpy as np
import pytest

from mose import (
    MetricError,
    MetricSpec,
    external_metric,
    get_metric,
    neg_mse,
    register_metric,
    seg_snr,
    si_snr,
)


# ---------------------------------------------------------------------------
# si_snr

def test_si_snr_identity_hits_ceiling(rng):
    x = rng.standard_normal(512)
    assert si_snr(x, x) == 60.0


def test_si_snr_scale_invariance(rng):
    x = rng.standard_normal(512)
    noisy = x + 0.3 * rng.standard_normal(512)
    base = si_snr(noisy, x)
    assert si_snr(2.0 * noisy, x) == pytest.approx(base, abs=1e-9)
    assert si_snr(0.01 * noisy, x) == pytest.approx(base, abs=1e-9)


def test_si_snr_orthogonal_hits_floor():
    # candidate exactly orthogonal to the reference: zero projection
    r = np.array([1.0, 0.0, 1.0, 0.0])
    c = np.array([0.0, 1.0, 0.0, -1.0])
    assert float(np.dot(c, r)) == 0.0
    assert si_snr(c, r) == -40.0


def test_si_snr_known_ratio():
    # two-component decomposition with energy ratio 100: exactly 20 dB
    r = np.zeros(64)
    r[0] = 1.0
    c = r.copy()
    c[1] = 0.1  # orthogonal error with 1% of the target energy
    assert si_snr(c, r) == pytest.approx(20.0, abs=1e-12)


def test_si_snr_errors(rng):
    x = rng.standard_normal(32)
    with pytest.raises(MetricError):
        si_snr(x, np.zeros(32))
    with pytest.raises(MetricError):
        si_snr(x, x[:16])
    with pytest.raises(MetricError):
        si_snr(np.zeros((2, 2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# seg_snr

def test_seg_snr_identity_hits_ceiling(rng):
    x = rng.standard_normal(1024)
    assert seg_snr(x, x) == 60.0


def test_seg_snr_single_frame_equals_global_snr(rng):
    r = rng.standard_normal(256)
    c = r + 0.5 * rng.standard_normal(256)
    expect = 10.0 * np.log10(np.dot(r, r) / np.dot(r - c, r - c))
    assert seg_snr(c, r, frame=256) == pytest.approx(expect, abs=1e-12)


def test_seg_snr_ignores_trailing_partial_frame(rng):
    r = rng.standard_normal(300)
    c = r + 0.1 * rng.standard_normal(300)
    full = seg_snr(c[:256], r[:256], frame=256)
    assert seg_snr(c, r, frame=256) == full


def test_seg_snr_frame_errors(rng):
    x = rng.standard_normal(100)
    with pytest.raises(MetricError):
        seg_snr(x, x, frame=101)
    with pytest.raises(MetricError):
        seg_snr(x, x, frame=0)


def test_snr_metrics_decrease_with_noise_gain(rng):
    # direction-wise agreement of the two SNR flavors
    r = rng.standard_normal(2048)
    n = rng.standard_normal(2048)
    si_vals, seg_vals = [], []
    for g in (0.1, 0.3, 1.0):
        si_vals.append(si_snr(r + g * n, r))
        seg_vals.append(seg_snr(r + g * n, r))
    assert si_vals[0] > si_vals[1] > si_vals[2]
    assert seg_vals[0] > seg_vals[1] > seg_vals[2]


# ---------------------------------------------------------------------------
# neg_mse

def test_neg_mse_closed_forms(rng):
    x = rng.standard_normal(128)
    assert neg_mse(x, x) == 0.0
    assert neg_mse(x + 0.5, x) == pytest.approx(-0.25, abs=1e-12)
    e = rng.standard_normal(128)
    assert neg_mse(x + e, x) == pytest.approx(-float(np.mean(e ** 2)),
                                              abs=1e-12)


# ---------------------------------------------------------------------------
# local optimality at the identity

@pytest.mark.parametrize("name", ["si_snr", "seg_snr", "neg_mse"])
def test_identity_is_locally_optimal(name, rng):
    spec = get_metric(name)
    x = rng.standard_normal(512)
    best = spec.evaluate(x, x)
    for _ in range(25):
        delta = 1e-3 * rng.standard_normal(512)
        assert spec.evaluate(x + delta, x) <= best


# ---------------------------------------------------------------------------
# registry

def test_registry_builtins():
    assert get_metric("si_snr").name == "si_snr"
    with pytest.raises(MetricError):
        get_metric("pesq")


def test_register_metric_roundtrip():
    spec = MetricSpec("always_zero", lambda c, r: 0.0)
    register_metric(spec)
    try:
        assert get_metric("always_zero") is spec
    finally:
        from mose.metric import _BUILTINS
        _BUILTINS.pop("always_zero", None)


# ---------------------------------------------------------------------------
# external scorer adapter

SCORER = """\
import sys, wave, numpy as np
def rd(p):
    with wave.open(p, 'rb') as fh:
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype='<i2').astype(np.float64) / 32767.0
c = rd(sys.argv[1]); r = rd(sys.argv[2])
print('score:', -float(np.mean((c - r) ** 2)))
"""


def test_external_metric_round_trip(tmp_path, rng):
    script = tmp_path / "scorer.py"
    script.write_text(SCORER, encoding="utf-8")
    spec = external_metric(
        "ext_neg_mse", f"{sys.executable} {script} {{candidate}} {{reference}}")
    x = np.clip(rng.standard_normal(512) * 0.2, -1, 1)
    c = np.clip(x + 0.1, -1, 1)
    got = spec.evaluate(c, x)
    # candidate and reference each suffer quantization, so compare loosely
    assert got == pytest.approx(-0.01, abs=1e-3)
    assert spec.evaluate(x, x) == pytest.approx(0.0, abs=1e-8)


def test_external_metric_error_paths(tmp_path, rng):
    x = rng.standard_normal(64)
    with pytest.raises(MetricError):
        external_metric("bad", "scorer {candidate}")  # missing placeholder
    failing = external_metric(
        "fails", f"{sys.executable} -c 'import sys; sys.exit(3)' "
                 "{candidate} {reference}")
    with pytest.raises(MetricError, match="exited 3"):
        failing.evaluate(x, x)
    silent = external_metric(
        "silent", f"{sys.executable} -c 'pass' {{candidate}} {{reference}}")
    with pytest.raises(MetricError, match="no score"):
        silent.evaluate(x, x)
    missing = external_metric("gone", "/no/such/binary {candidate} {reference}")
    with pytest.raises(MetricError, match="failed"):
        missing.evaluate(x, x)
