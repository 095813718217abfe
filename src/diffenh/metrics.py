"""Scale-invariant SDR and report plumbing."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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


@dataclass
class MetricReport:
    si_sdr: float
    input_si_sdr: float

    @property
    def delta(self) -> float:
        return self.si_sdr - self.input_si_sdr

    def as_lines(self) -> str:
        return "".join(f"{key}={value:.4f}\n" for key, value in self.as_dict().items())

    def as_dict(self) -> dict:
        return {
            "si_sdr_db": self.si_sdr,
            "input_si_sdr_db": self.input_si_sdr,
            "delta_db": self.delta,
        }


def evaluate_pair(noisy: Waveform, enhanced: Waveform, clean: Waveform) -> MetricReport:
    return MetricReport(si_sdr=si_sdr(enhanced, clean), input_si_sdr=si_sdr(noisy, clean))


def _mean_halfwidth(values) -> tuple[float, float]:
    # 95% normal-approximation interval half-width
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        return float(arr.mean()) if arr.size else math.nan, 0.0
    return float(arr.mean()), float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size))


def aggregate_reports(reports: list[MetricReport], labels: list[str] | None = None) -> dict:
    """Per-file entries plus aggregate means with 95% half-widths."""
    labels = labels if labels is not None else [str(i) for i in range(len(reports))]
    files = [{"file": lab, **r.as_dict()} for lab, r in zip(labels, reports)]
    out_mean, out_hw = _mean_halfwidth([r.si_sdr for r in reports])
    in_mean, in_hw = _mean_halfwidth([r.input_si_sdr for r in reports])
    d_mean, d_hw = _mean_halfwidth([r.delta for r in reports])
    return {
        "files": files,
        "aggregate": {
            "count": len(reports),
            "si_sdr_mean_db": out_mean,
            "si_sdr_halfwidth_db": out_hw,
            "input_si_sdr_mean_db": in_mean,
            "input_si_sdr_halfwidth_db": in_hw,
            "delta_mean_db": d_mean,
            "delta_halfwidth_db": d_hw,
        },
    }


def write_report(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
