"""Scale-invariant SDR and report plumbing."""

from __future__ import annotations

import json
import math

import numpy as np

from .signal import Waveform

SI_SDR_CAP = 140.0


def si_sdr(estimate: Waveform, reference: Waveform) -> float:
    """Project the estimate onto the reference, then 10 log10 of the power ratio.

    Scale-invariant by construction.  Returns the +140 dB cap when the
    residual is numerically zero.
    """
    est = estimate.samples
    ref = reference.samples
    if len(est) != len(ref):
        raise ValueError(f"length mismatch: {len(est)} vs {len(ref)}")
    ref_pow = float(np.dot(ref, ref))
    if ref_pow == 0.0:
        raise ValueError("si_sdr: zero reference")
    alpha = float(np.dot(est, ref)) / ref_pow
    target = alpha * ref
    resid = est - target
    num = float(np.dot(target, target))
    den = float(np.dot(resid, resid))
    if den == 0.0 or (num > 0 and 10.0 * math.log10(num / den) > SI_SDR_CAP):
        return SI_SDR_CAP
    return 10.0 * math.log10(num / den) if num > 0 else -math.inf


FIELDS = ("si_sdr_db", "input_si_sdr_db", "delta_db")


def evaluate_pair(noisy: Waveform, enhanced: Waveform, clean: Waveform) -> dict:
    """The report of one utterance: its FIELDS, in that order."""
    out, inp = si_sdr(enhanced, clean), si_sdr(noisy, clean)
    return dict(zip(FIELDS, (out, inp, out - inp)))


def _mean_halfwidth(values) -> tuple[float, float]:
    # 95% normal-approximation interval half-width
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        return float(arr.mean()) if arr.size else math.nan, 0.0
    return float(arr.mean()), float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size))


def aggregate_reports(reports: list[dict], labels: list[str]) -> dict:
    """Per-file entries plus the mean and 95% half-width of each field."""
    aggregate = {"count": len(reports)}
    for name in FIELDS:
        stem = name.removesuffix("_db")
        aggregate[f"{stem}_mean_db"], aggregate[f"{stem}_halfwidth_db"] = _mean_halfwidth(
            [r[name] for r in reports])
    return {"files": [{"file": lab, **r} for lab, r in zip(labels, reports)],
            "aggregate": aggregate}


def write_report(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
