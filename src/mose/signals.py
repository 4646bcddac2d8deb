"""Signal containers, corpus synthesis, exact-SNR mixing, and WAV round trips.

The synthetic corpus is deliberately simple: harmonic tones with a mild
amplitude envelope stand in for speech, and spectrally tilted noise stands
in for the interferer.  Everything is driven by seeded generators, so the
same seed always produces bit-identical corpora.
"""

from __future__ import annotations

import math
import os
import wave
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass
class SignalPair:
    """A clean signal and its degraded counterpart at a known sample rate."""

    x0: np.ndarray
    y: np.ndarray
    sample_rate: int
    id: str
    snr_db: float | None = None
    split: str = ""

    def __post_init__(self):
        self.x0 = np.asarray(self.x0)
        self.y = np.asarray(self.y)
        if self.x0.ndim != 1 or self.y.ndim != 1:
            raise DataError(f"pair {self.id!r}: signals must be 1-D")
        if self.x0.shape != self.y.shape:
            raise DataError(f"pair {self.id!r}: length mismatch "
                            f"{self.x0.shape} vs {self.y.shape}")
        if self.x0.size == 0:
            raise DataError(f"pair {self.id!r}: empty signals")
        if not (np.all(np.isfinite(self.x0)) and np.all(np.isfinite(self.y))):
            raise DataError(f"pair {self.id!r}: non-finite samples")
        if int(self.sample_rate) <= 0:
            raise DataError(f"pair {self.id!r}: sample_rate must be positive")


def mix_at_snr(clean: np.ndarray, noise: np.ndarray, snr_db: float,
               sample_rate: int = 16000, id: str = "",
               split: str = "") -> SignalPair:
    """Scale ``noise`` so that clean-vs-scaled-noise power ratio is snr_db.

    ``snr_db = +inf`` is the noise-free sentinel: y equals x0 exactly.
    """
    clean = np.asarray(clean, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if clean.shape != noise.shape or clean.ndim != 1:
        raise DataError("clean and noise must be 1-D arrays of equal length")
    p_clean = float(np.mean(np.square(clean)))
    if p_clean == 0.0:
        raise DataError("clean signal has zero power")
    snr = float(snr_db)
    if math.isinf(snr) and snr > 0:
        return SignalPair(clean, clean.copy(), sample_rate, id,
                          snr_db=snr, split=split)
    if not math.isfinite(snr):
        raise DataError(f"snr_db must be finite or +inf, got {snr!r}")
    p_noise = float(np.mean(np.square(noise)))
    if p_noise == 0.0:
        raise DataError("noise has zero power but a finite SNR was requested")
    g = math.sqrt(p_clean / (p_noise * 10.0 ** (snr / 10.0)))
    return SignalPair(clean, clean + g * noise, sample_rate, id,
                      snr_db=snr, split=split)


def _synth_voice(rng: np.random.Generator, length: int,
                 sample_rate: int) -> np.ndarray:
    # a handful of harmonics under a slow, shallow amplitude envelope
    f0 = rng.uniform(90.0, 400.0)
    n_harm = int(rng.integers(3, 9))
    n = np.arange(length) / sample_rate
    sig = np.zeros(length)
    for h in range(1, n_harm + 1):
        amp = rng.uniform(0.4, 1.0) / h
        phase = rng.uniform(0.0, 2.0 * np.pi)
        if h * f0 >= 0.45 * sample_rate:
            continue  # keep harmonics well under Nyquist
        sig += amp * np.sin(2.0 * np.pi * f0 * h * n + phase)
    depth = rng.uniform(0.05, 0.15)
    f_env = rng.uniform(1.0, 3.0)
    phase_env = rng.uniform(0.0, 2.0 * np.pi)
    sig *= 1.0 + depth * np.sin(2.0 * np.pi * f_env * n + phase_env)
    rms = math.sqrt(float(np.mean(np.square(sig))))
    return sig * (0.1 / rms)


def _synth_noise(rng: np.random.Generator, length: int) -> np.ndarray:
    # white noise shaped by a random spectral tilt
    white = rng.standard_normal(length)
    spec = np.fft.rfft(white)
    k = np.arange(spec.size, dtype=np.float64)
    k[0] = 1.0
    tilt = rng.uniform(-1.0, 0.5)
    spec *= (k / max(1.0, spec.size / 8.0)) ** (tilt / 2.0)
    shaped = np.fft.irfft(spec, n=length)
    rms = math.sqrt(float(np.mean(np.square(shaped))))
    return shaped * (0.1 / rms)


def synth_corpus(seed: int, n_utterances: int, length: int, snr_levels,
                 sample_rate: int = 16000,
                 split: str = "train") -> list[SignalPair]:
    """Deterministic synthetic corpus; SNR levels cycle across utterances."""
    levels = [float(s) for s in snr_levels]
    if n_utterances <= 0 or length <= 0 or not levels:
        raise DataError("need n_utterances > 0, length > 0, and SNR levels")
    children = np.random.SeedSequence(seed).spawn(n_utterances)
    pairs = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        clean = _synth_voice(rng, length, sample_rate)
        noise = _synth_noise(rng, length)
        snr = levels[i % len(levels)]
        pairs.append(mix_at_snr(clean, noise, snr, sample_rate,
                                id=f"{split}-{i:04d}", split=split))
    return pairs


def wav_write(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono 16-bit PCM. Samples are clipped to [-1, 1] first."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size == 0:
        raise DataError("wav_write needs a non-empty 1-D array")
    q = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(sample_rate))
        fh.writeframes(q.tobytes())


def wav_read(path) -> tuple[np.ndarray, int]:
    """Read a mono 16-bit PCM file back to float64 in [-1, 1]."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise DataError(f"{path}: only mono is supported")
            if fh.getsampwidth() != 2:
                raise DataError(f"{path}: only 16-bit PCM is supported")
            if fh.getcomptype() not in ("NONE",):
                raise DataError(f"{path}: compressed WAV is not supported")
            n = fh.getnframes()
            if n == 0:
                raise DataError(f"{path}: zero-length file")
            raw = fh.readframes(n)
            if len(raw) != 2 * n:
                raise DataError(f"{path}: truncated, {len(raw) // 2} of "
                                f"{n} samples")
            rate = fh.getframerate()
    except (wave.Error, EOFError) as exc:  # EOFError: a cut-off header
        raise DataError(f"{path}: not a readable WAV file ({exc})") from exc
    except OSError as exc:  # missing, a directory, no permission
        raise DataError(f"cannot read {path}: {exc}") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return samples, rate


def _check_unique_ids(pairs, where) -> None:
    """Ids name a pair's WAV files, so a repeated id would overwrite one."""
    repeated = [k for k, n in Counter(p.id for p in pairs).items() if n > 1]
    if repeated:
        raise DataError(f"{where}: repeated corpus ids {repeated}")


def write_corpus(pairs: list[SignalPair], out_dir) -> str:
    """Materialise a corpus as WAV pairs plus a manifest; returns its path."""
    _check_unique_ids(pairs, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(str(out_dir), "manifest.tsv")
    lines = ["id\tclean\tnoisy\tsnr_db\tsplit"]
    for p in pairs:
        c_rel = f"{p.id}_clean.wav"
        n_rel = f"{p.id}_noisy.wav"
        wav_write(os.path.join(str(out_dir), c_rel), p.x0, p.sample_rate)
        wav_write(os.path.join(str(out_dir), n_rel), p.y, p.sample_rate)
        snr = repr(float(p.snr_db)) if p.snr_db is not None else "nan"
        lines.append(f"{p.id}\t{c_rel}\t{n_rel}\t{snr}\t{p.split}")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def load_corpus(manifest_path) -> list[SignalPair]:
    """Load a corpus previously written by ``write_corpus``."""
    base = os.path.dirname(str(manifest_path))
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read manifest {manifest_path}: {exc}") from exc
    if not lines or lines[0].split("\t") != ["id", "clean", "noisy",
                                             "snr_db", "split"]:
        raise DataError(f"{manifest_path}: missing or malformed header")
    pairs = []
    for ln in lines[1:]:
        if not ln.strip():
            continue
        parts = ln.split("\t")
        if len(parts) != 5:
            raise DataError(f"{manifest_path}: malformed row {ln!r}")
        pid, c_rel, n_rel, snr_s, split = parts
        clean, rate_c = wav_read(os.path.join(base, c_rel))
        noisy, rate_n = wav_read(os.path.join(base, n_rel))
        if rate_c != rate_n:
            raise DataError(f"pair {pid!r}: sample rate mismatch")
        snr = float(snr_s)
        pairs.append(SignalPair(clean, noisy, rate_c, pid,
                                snr_db=None if math.isnan(snr) else snr,
                                split=split))
    _check_unique_ids(pairs, manifest_path)
    return pairs
