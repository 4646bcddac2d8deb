"""Corpus synthesis, SNR mixing, and WAV round trips."""

import math
import re

import numpy as np
import pytest

from mose import (
    DataError,
    SignalPair,
    load_corpus,
    mix_at_snr,
    synth_corpus,
    wav_read,
    wav_write,
    write_corpus,
)


def realized_snr(pair):
    noise = pair.y - pair.x0
    return 10.0 * math.log10(np.mean(pair.x0 ** 2) / np.mean(noise ** 2))


# ---------------------------------------------------------------------------
# mixing

def test_zero_db_mix_is_exact(rng):
    clean = rng.standard_normal(4096)
    noise = rng.standard_normal(4096)
    pair = mix_at_snr(clean, noise, 0.0)
    assert abs(realized_snr(pair)) < 1e-6


def test_infinite_snr_returns_clean_exactly(rng):
    clean = rng.standard_normal(512)
    noise = rng.standard_normal(512)
    pair = mix_at_snr(clean, noise, float("inf"))
    assert np.array_equal(pair.y, pair.x0)
    assert pair.y is not pair.x0


def test_gain_closed_form(rng):
    # unit-power inputs at 10 dB: the noise gain must be 10^(-1/2)
    clean = rng.standard_normal(200000)
    noise = rng.standard_normal(200000)
    clean /= math.sqrt(np.mean(clean ** 2))
    noise /= math.sqrt(np.mean(noise ** 2))
    pair = mix_at_snr(clean, noise, 10.0)
    g = (pair.y - pair.x0) / noise
    assert np.allclose(g, 10.0 ** -0.5, rtol=1e-12)


@pytest.mark.parametrize("levels", [[0.0, 5.0, 10.0, 15.0],
                                    [-6.0, -3.0, 0.0, 3.0, 6.0]])
def test_realized_snr_matches_label(levels):
    pairs = synth_corpus(seed=5, n_utterances=2 * len(levels), length=2048,
                         snr_levels=levels)
    for p in pairs:
        assert abs(realized_snr(p) - p.snr_db) < 0.01


def test_mix_scale_equivariance(rng):
    clean = rng.standard_normal(1024)
    noise = rng.standard_normal(1024)
    a = mix_at_snr(clean, noise, 4.0)
    b = mix_at_snr(3.0 * clean, 3.0 * noise, 4.0)
    assert np.allclose(b.y, 3.0 * a.y, rtol=1e-12)


def test_mix_error_paths(rng):
    noise = rng.standard_normal(64)
    with pytest.raises(DataError):
        mix_at_snr(np.zeros(64), noise, 0.0)
    with pytest.raises(DataError):
        mix_at_snr(noise, np.zeros(64), 0.0)
    with pytest.raises(DataError):
        mix_at_snr(noise, noise, float("-inf"))
    with pytest.raises(DataError):
        mix_at_snr(noise, noise, float("nan"))
    with pytest.raises(DataError):
        mix_at_snr(noise, noise[:32], 0.0)


def test_infinite_snr_skips_zero_noise_check(rng):
    clean = rng.standard_normal(64)
    pair = mix_at_snr(clean, np.zeros(64), float("inf"))
    assert np.array_equal(pair.y, clean)


# ---------------------------------------------------------------------------
# containers

def test_pair_validation(rng):
    x = rng.standard_normal(32)
    with pytest.raises(DataError):
        SignalPair(x, x[:16], 16000, "a")
    with pytest.raises(DataError):
        SignalPair(x.reshape(4, 8), x.reshape(4, 8), 16000, "a")
    with pytest.raises(DataError):
        SignalPair(np.array([]), np.array([]), 16000, "a")
    with pytest.raises(DataError):
        SignalPair(x, np.full(32, np.nan), 16000, "a")
    with pytest.raises(DataError):
        SignalPair(x, x, 0, "a")


# ---------------------------------------------------------------------------
# synthesis

def test_corpus_is_deterministic():
    a = synth_corpus(seed=9, n_utterances=4, length=512, snr_levels=[0, 10])
    b = synth_corpus(seed=9, n_utterances=4, length=512, snr_levels=[0, 10])
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.x0, pb.x0)
        assert np.array_equal(pa.y, pb.y)
        assert pa.id == pb.id
    c = synth_corpus(seed=10, n_utterances=4, length=512, snr_levels=[0, 10])
    assert not np.array_equal(a[0].x0, c[0].x0)


def test_corpus_ids_splits_and_levels():
    pairs = synth_corpus(seed=3, n_utterances=5, length=256,
                         snr_levels=[0.0, 5.0], split="test")
    assert [p.id for p in pairs] == [f"test-{i:04d}" for i in range(5)]
    assert [p.snr_db for p in pairs] == [0.0, 5.0, 0.0, 5.0, 0.0]
    assert all(p.split == "test" for p in pairs)
    assert all(p.sample_rate == 16000 for p in pairs)


def test_corpus_signals_are_sane():
    pairs = synth_corpus(seed=3, n_utterances=3, length=1024, snr_levels=[5])
    for p in pairs:
        rms = math.sqrt(np.mean(p.x0 ** 2))
        assert rms == pytest.approx(0.1, rel=1e-9)
        assert np.max(np.abs(p.y)) < 1.0  # headroom for 16-bit export


def test_corpus_argument_validation():
    with pytest.raises(DataError):
        synth_corpus(seed=1, n_utterances=0, length=64, snr_levels=[0])
    with pytest.raises(DataError):
        synth_corpus(seed=1, n_utterances=1, length=0, snr_levels=[0])
    with pytest.raises(DataError):
        synth_corpus(seed=1, n_utterances=1, length=64, snr_levels=[])


# ---------------------------------------------------------------------------
# WAV files

def test_wav_round_trip_quantization_bound(tmp_path, rng):
    x = np.clip(rng.standard_normal(2048) * 0.2, -1.0, 1.0)
    path = tmp_path / "x.wav"
    wav_write(path, x, 16000)
    back, rate = wav_read(path)
    assert rate == 16000
    assert back.shape == x.shape
    assert np.max(np.abs(back - x)) <= 1.0 / 32768.0


def test_wav_write_clips(tmp_path):
    path = tmp_path / "c.wav"
    wav_write(path, np.array([2.0, -2.0, 0.0]), 8000)
    back, _ = wav_read(path)
    assert back[0] == 1.0
    assert back[1] == -1.0
    assert back[2] == 0.0


def test_wav_read_error_paths(tmp_path, rng):
    stereo = tmp_path / "stereo.wav"
    import wave
    with wave.open(str(stereo), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(8000)
        fh.writeframes(b"\x00\x00\x00\x00" * 8)
    with pytest.raises(DataError):
        wav_read(stereo)

    empty = tmp_path / "empty.wav"
    with wave.open(str(empty), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(8000)
    with pytest.raises(DataError):
        wav_read(empty)

    garbage = tmp_path / "garbage.wav"
    garbage.write_bytes(b"definitely not a wav file")
    with pytest.raises(DataError):
        wav_read(garbage)

    # a file cut off inside its header, or inside its samples
    whole = tmp_path / "whole.wav"
    wav_write(whole, np.zeros(100), 8000)
    blob = whole.read_bytes()
    for size, match in ((4, "not a readable"), (30, "not a readable"),
                        (60, "truncated, 8 of 100 samples")):
        cut = tmp_path / f"cut{size}.wav"
        cut.write_bytes(blob[:size])
        with pytest.raises(DataError, match=match):
            wav_read(cut)

    with pytest.raises(DataError):
        wav_write(tmp_path / "bad.wav", np.zeros((2, 2)), 8000)


def test_wav_read_unreadable_paths_are_data_errors(tmp_path):
    # a missing file, a directory, and a manifest row whose WAV is gone:
    # each a DataError naming the path, not an OSError
    a_dir = tmp_path / "a_dir.wav"
    a_dir.mkdir()
    for path in (tmp_path / "missing.wav", a_dir):
        with pytest.raises(DataError, match=re.escape(str(path))):
            wav_read(path)
    pairs = synth_corpus(seed=2, n_utterances=2, length=64, snr_levels=[0])
    manifest = write_corpus(pairs, tmp_path / "c")
    gone = tmp_path / "c" / f"{pairs[1].id}_noisy.wav"
    gone.unlink()
    with pytest.raises(DataError, match=re.escape(str(gone))):
        load_corpus(manifest)


# ---------------------------------------------------------------------------
# corpus on disk

def test_corpus_round_trip(tmp_path):
    pairs = synth_corpus(seed=21, n_utterances=4, length=512,
                         snr_levels=[0.0, 7.5], split="train")
    manifest = write_corpus(pairs, tmp_path / "corp")
    back = load_corpus(manifest)
    assert len(back) == 4
    for orig, got in zip(pairs, back):
        assert got.id == orig.id
        assert got.split == orig.split
        assert got.snr_db == orig.snr_db
        assert got.sample_rate == orig.sample_rate
        assert np.max(np.abs(got.x0 - orig.x0)) <= 1.0 / 32768.0
        assert np.max(np.abs(got.y - orig.y)) <= 1.0 / 32768.0


def test_load_corpus_rejects_malformed(tmp_path):
    bad = tmp_path / "manifest.tsv"
    bad.write_text("wrong\theader\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_corpus(bad)
    with pytest.raises(DataError):
        load_corpus(tmp_path / "missing.tsv")
    pairs = synth_corpus(seed=2, n_utterances=1, length=64, snr_levels=[0])
    manifest = write_corpus(pairs, tmp_path / "c2")
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("short\trow\n")
    with pytest.raises(DataError):
        load_corpus(manifest)


def test_corpus_refuses_repeated_ids(tmp_path):
    # both halves are named train-0000, train-0001: the second pair's WAVs
    # would overwrite the first's
    pairs = synth_corpus(1, 2, 128, [0.0]) + synth_corpus(2, 2, 256, [0.0])
    out = tmp_path / "dup"
    with pytest.raises(DataError, match=r"ids \['train-0000', 'train-0001'\]"):
        write_corpus(pairs, out)
    assert not out.exists()
    manifest = write_corpus(pairs[:2], out)
    row = (out / "manifest.tsv").read_text().splitlines()[1]
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    with pytest.raises(DataError, match=r"ids \['train-0000'\]"):
        load_corpus(manifest)
