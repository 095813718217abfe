import json
import math

import numpy as np
import pytest

from diffenh.metrics import (
    FIELDS,
    SI_SDR_CAP,
    aggregate_reports,
    evaluate_pair,
    si_sdr,
    write_report,
)
from diffenh.signal import Waveform


def wf(x):
    return Waveform(np.asarray(x, dtype=np.float64), sample_rate=16000)


def test_perfect_and_scaled_estimates_hit_cap():
    rng = np.random.default_rng(0)
    ref = wf(rng.standard_normal(256))
    assert si_sdr(ref, ref) == SI_SDR_CAP
    scaled = wf(3.7 * ref.samples)
    assert si_sdr(scaled, ref) == SI_SDR_CAP


def test_orthogonal_noise_is_exact():
    # reference and disturbance orthogonal by construction, so the projection
    # leaves exactly the planted power ratio
    n = 1024
    t = np.arange(n)
    ref = np.sin(2 * np.pi * 5 * t / n)
    dist = np.sin(2 * np.pi * 11 * t / n)
    ref_p = float(np.dot(ref, ref))
    dist_p = float(np.dot(dist, dist))
    for target_db in (-10.0, 0.0, 7.5, 20.0):
        g = math.sqrt(ref_p / dist_p * 10 ** (-target_db / 10.0))
        got = si_sdr(wf(ref + g * dist), wf(ref))
        assert abs(got - target_db) < 1e-9


def test_floor_when_estimate_orthogonal():
    ref = wf([1.0, 1.0, 0.0, 0.0])
    est = wf([1.0, -1.0, 0.0, 0.0])
    assert si_sdr(est, ref) == -SI_SDR_CAP
    # silence is orthogonal too, though its residual is zero, not the cap's case
    assert si_sdr(wf(np.zeros(4)), ref) == -SI_SDR_CAP
    # a target part that underflows against the residual is the floor too
    assert si_sdr(wf([1e-160, 100.0, 0.0, 0.0]), wf([1.0, 0.0, 0.0, 0.0])) == -SI_SDR_CAP


def test_errors():
    with pytest.raises(ValueError):
        si_sdr(wf(np.ones(8)), wf(np.ones(9)))
    with pytest.raises(ValueError):
        si_sdr(wf(np.ones(8)), wf(np.zeros(8)))


def report(out, inp):
    return dict(zip(FIELDS, (out, inp, out - inp)))


def test_evaluate_pair():
    rng = np.random.default_rng(2)
    clean = wf(rng.standard_normal(200))
    noisy = wf(clean.samples + rng.standard_normal(200))
    rep = evaluate_pair(noisy, clean, clean)
    assert list(rep) == list(FIELDS)
    assert rep["si_sdr_db"] == SI_SDR_CAP
    assert rep["input_si_sdr_db"] < rep["si_sdr_db"]
    assert rep["delta_db"] == rep["si_sdr_db"] - rep["input_si_sdr_db"]


def test_aggregate_halfwidth():
    reports = [report(v, 0.0) for v in (1.0, 2.0, 3.0, 4.0)]
    agg = aggregate_reports(reports, labels=list("abcd"))
    a = agg["aggregate"]
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    assert a["count"] == 4
    assert a["si_sdr_mean_db"] == pytest.approx(2.5)
    assert a["si_sdr_halfwidth_db"] == pytest.approx(1.96 * vals.std(ddof=1) / 2.0)
    assert [f["file"] for f in agg["files"]] == list("abcd")


def test_write_report_roundtrip(tmp_path):
    payload = aggregate_reports([report(1.0, 0.5)], labels=["a"])
    out = tmp_path / "report.json"
    write_report(out, payload)
    loaded = json.loads(out.read_text())
    assert loaded["aggregate"]["count"] == 1
    assert loaded["files"][0]["si_sdr_db"] == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_write_report_refuses_non_finite_values_and_writes_nothing(bad, tmp_path):
    # strict JSON has no NaN or Infinity, which jq and JavaScript reject
    out = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_report(out, report(bad, 0.0))
    assert not out.exists()

