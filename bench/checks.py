"""Output checks for every workload.

Each check is a pure function of recorded outputs and returns a list of
failure messages; an empty list means the check passed.  They test
properties and recomputations made with :mod:`reference`, never a stored
copy of an earlier output, so that correct code of any speed passes.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

# Over the benchmark's runs (400-800 phase-1 iterations) the late phase-1
# loss sat at 0.22-0.38 of its early level.
LOSS_RATIO_MAX = 0.6
EARLY_ITERS = 20
LATE_ITERS = 50
# Mean SI-SNR gain on the eight 2.5 dB utterances of enhance_short after its
# set-up training, measured +1.4 to +5.0 dB on both samplers over seeds; the
# margin leaves room for seed noise.  (A fully trained C7 model gains ~+5.)
GAIN_MARGIN_DB = 0.5
ORACLE_TOL = 1e-6           # relative L2 error; measured <= 1e-7 in float32
NOISY_TOL_DB = 1e-6         # both sides are float64 dot products
RESCORE_TOL_DB = 0.01       # float32 walks repeated outside the pool
CORPUS_SNR_TOL_DB = 1e-6

CRITIC_COLUMNS = ("l2", "l3", "reward_mean", "target_mean")


def loss_ratio(l1, n_th: int) -> float:
    """Late phase-1 loss over early phase-1 loss."""
    early = float(np.mean(l1[:EARLY_ITERS]))
    return float(np.mean(l1[n_th - LATE_ITERS:n_th])) / early


def check_phase1_loss(l1, n_th: int) -> list[str]:
    """The regression loss late in phase 1 is well below its early level."""
    if n_th < EARLY_ITERS + LATE_ITERS:
        return [f"phase 1 has {n_th} iterations, too few to judge the loss"]
    ratio = loss_ratio(l1, n_th)
    if not ratio < LOSS_RATIO_MAX:
        return [f"late phase-1 loss is {ratio:.3f} of its early level "
                f"(need below {LOSS_RATIO_MAX})"]
    return []


def check_critic_phase(same_as_first, n_th: int) -> list[str]:
    """Critic parameters equal iteration 1's through n_th, differ at the end.

    ``same_as_first[i - 1]`` says whether the critic after iteration i was
    bit-identical to the critic after iteration 1.
    """
    errs = []
    moved = [i for i, same in enumerate(same_as_first[:n_th], 1) if not same]
    if moved:
        errs.append(f"critic changed during phase 1 (first at iteration "
                    f"{moved[0]})")
    if len(same_as_first) > n_th and same_as_first[-1]:
        errs.append("critic never changed in the joint phase")
    return errs


def check_telemetry(rows, n_th: int, n_total: int) -> list[str]:
    """One row per iteration; critic columns NaN in phase 1, finite after."""
    errs = []
    if [r.iter for r in rows] != list(range(1, n_total + 1)):
        errs.append(f"telemetry does not hold iterations 1..{n_total}")
        return errs
    for r in rows:
        crit = [getattr(r, c) for c in CRITIC_COLUMNS]
        if r.iter <= n_th:
            ok = r.phase == 1 and all(math.isnan(v) for v in crit)
        else:
            ok = r.phase == 2 and all(math.isfinite(v) for v in crit)
        if not (ok and math.isfinite(r.l1)):
            errs.append(f"telemetry row {r.iter} breaks the phase rule: {r}")
            break
    return errs


def check_corpus_snr(pairs) -> list[str]:
    """Each degraded input sits at its stated SNR."""
    for p in pairs:
        got = ref.snr(p.y, p.x0)
        if abs(got - p.snr_db) > CORPUS_SNR_TOL_DB:
            return [f"{p.id}: SNR {got:.6f} dB, labelled {p.snr_db} dB"]
    return []


def check_noisy_scores(rows, pairs) -> list[str]:
    """The report's unprocessed scores equal the reference SI-SNR of (y, x0)."""
    if [r.id for r in rows] != [p.id for p in pairs]:
        return ["evaluation rows do not match the utterances, one each"]
    for r, p in zip(rows, pairs):
        want = ref.si_snr(p.y, p.x0)
        if not abs(r.noisy - want) <= NOISY_TOL_DB:
            return [f"{r.id}: noisy score {r.noisy!r}, reference {want!r}"]
    return []


def check_rescored(rows, rescored: dict) -> list[str]:
    """Enhanced scores agree with the reference SI-SNR of a repeated walk."""
    by_id = {r.id: r for r in rows}
    for uid, want in rescored.items():
        got = by_id[uid].enhanced if uid in by_id else math.nan
        if not abs(got - want) <= RESCORE_TOL_DB:
            return [f"{uid}: enhanced score {got!r}, repeated walk scores "
                    f"{want!r}"]
    return []


def mean_gain(rows, snr_db: float = 2.5) -> float:
    """Mean enhanced-minus-noisy score over the rows at one input SNR."""
    gains = [r.enhanced - r.noisy for r in rows if r.snr_db == snr_db]
    return float(np.mean(gains)) if gains else math.nan


def check_gain(rows, sampler: str, snr_db: float = 2.5) -> list[str]:
    """Mean enhanced-minus-noisy gain on the lowest-SNR inputs clears a margin."""
    mean = mean_gain(rows, snr_db)
    if math.isnan(mean):
        return [f"no {snr_db} dB utterances were scored"]
    if not mean >= GAIN_MARGIN_DB:
        return [f"{sampler} walk gains {mean:+.3f} dB on {snr_db} dB inputs, "
                f"need {GAIN_MARGIN_DB:+.1f}"]
    return []


def check_oracle(errors: dict) -> list[str]:
    """An exact noise predictor walks back to x0 on every sampler."""
    bad = {k: v for k, v in errors.items() if not v <= ORACLE_TOL}
    if bad:
        return [f"oracle walk misses x0: relative errors {bad}"]
    return []
