"""Quality metrics and the pluggable metric registry.

A metric compares a candidate signal against a clean reference and returns
one float, higher meaning better: rewards are score improvements, so a
quality measure that falls as quality rises must be registered negated
(as ``neg_mse`` is).
External scorers plug in through a subprocess adapter that exchanges WAV
files.
"""

from __future__ import annotations

import math
import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MetricError


@dataclass(frozen=True)
class MetricSpec:
    name: str
    evaluate: Callable[[np.ndarray, np.ndarray], float]


def _check_pair(candidate, reference):
    c = np.asarray(candidate, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    if c.ndim != 1 or c.shape != r.shape or c.size == 0:
        raise MetricError("candidate and reference must be equal-length "
                          "non-empty 1-D arrays")
    return c, r


def _clipped_db(num, den) -> float:
    """10 log10(num / den), clipped to [-40, 60] dB so that pathological
    inputs stay bounded."""
    if den == 0.0:
        return 60.0
    if num == 0.0:
        return -40.0
    return min(60.0, max(-40.0, 10.0 * math.log10(num / den)))


def si_snr(candidate, reference) -> float:
    """Scale-invariant SNR: project onto the reference, compare energies.

    Invariant to any positive rescaling of the candidate.  Clipped to
    [-40, 60] dB.
    """
    c, r = _check_pair(candidate, reference)
    ref_pow = float(np.dot(r, r))
    if ref_pow == 0.0:
        raise MetricError("si_snr: reference has zero power")
    scale = float(np.dot(c, r)) / ref_pow
    target = scale * r
    err = c - target
    return _clipped_db(float(np.dot(target, target)), float(np.dot(err, err)))


def seg_snr(candidate, reference) -> float:
    """Mean of per-frame SNR in dB over 256-sample frames, each frame
    clipped to [-40, 60] dB.

    Trailing samples that do not fill a frame are ignored.
    """
    c, r = _check_pair(candidate, reference)
    frame = 256
    if c.size < frame:
        raise MetricError(f"seg_snr: a {frame}-sample frame does not fit "
                          f"in length {c.size}")
    n = c.size // frame
    rf = r[: n * frame].reshape(n, frame)
    cf = c[: n * frame].reshape(n, frame)
    num = np.sum(np.square(rf), axis=1)
    den = np.sum(np.square(rf - cf), axis=1)
    return float(np.mean([_clipped_db(a, b) for a, b in zip(num, den)]))


def neg_mse(candidate, reference) -> float:
    c, r = _check_pair(candidate, reference)
    return -float(np.mean(np.square(c - r)))


def external_metric(name: str, command: str,
                    sample_rate: int = 16000) -> MetricSpec:
    """Wrap an external scorer invoked per evaluation via temporary WAVs.

    ``command`` is a template with ``{candidate}`` and ``{reference}``
    placeholders; the process must print one float on stdout and exit 0.
    """
    if "{candidate}" not in command or "{reference}" not in command:
        raise MetricError("external metric command needs {candidate} and "
                          "{reference} placeholders")

    def evaluate(candidate, reference) -> float:
        from .signals import wav_write
        c, r = _check_pair(candidate, reference)
        with tempfile.TemporaryDirectory(prefix="mose-metric-") as tmp:
            cand_path = os.path.join(tmp, "candidate.wav")
            ref_path = os.path.join(tmp, "reference.wav")
            wav_write(cand_path, c, sample_rate)
            wav_write(ref_path, r, sample_rate)
            argv = [a.format(candidate=cand_path, reference=ref_path)
                    for a in shlex.split(command)]
            try:
                proc = subprocess.run(argv, capture_output=True, text=True,
                                      timeout=120)
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise MetricError(f"external metric {name!r} failed: {exc}") \
                    from exc
        if proc.returncode != 0:
            raise MetricError(f"external metric {name!r} exited "
                              f"{proc.returncode}: {proc.stderr.strip()}")
        try:
            return float(proc.stdout.strip().split()[-1])
        except (ValueError, IndexError) as exc:
            raise MetricError(f"external metric {name!r} printed no score: "
                              f"{proc.stdout!r}") from exc

    return MetricSpec(name=name, evaluate=evaluate)


_BUILTINS: dict[str, MetricSpec] = {
    "si_snr": MetricSpec("si_snr", si_snr),
    "seg_snr": MetricSpec("seg_snr", seg_snr),
    "neg_mse": MetricSpec("neg_mse", neg_mse),
}


def get_metric(name: str) -> MetricSpec:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise MetricError(f"unknown metric {name!r}; builtins: "
                          f"{sorted(_BUILTINS)}") from None


def register_metric(spec: MetricSpec) -> None:
    """Add or replace a metric in the registry."""
    _BUILTINS[spec.name] = spec
