"""The per-item accuracy comparison of tools/bench_pairs.py."""

import sys
from pathlib import Path

import numpy as np

from criticalgabor import CoefficientSet, SampledSignal

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402


def outputs(scale=1.0, coeff=0.5):
    coeffs = CoefficientSet({(0, 0, False): coeff}, sharp_block=[1j], nodes=[(0.5, 0.5)])
    sig = SampledSignal(1.0, 0.5, scale * np.array([1.0, 2.0j, -1.0, 0.5, 0.0]))
    return bench_pairs.leaves("", {"coeffs": coeffs, "rec": sig, "report": {"norm": 2.0 * scale, "tag": "ok"}}, {})


def test_leaves_cut_outputs_into_text_and_numbers():
    out = outputs()
    assert set(out) == {"coeffs", "coeffs.values", "rec", "report.norm", "report.tag"}
    assert out["coeffs"] == CoefficientSet.from_json(out["coeffs"]).to_json()
    np.testing.assert_array_equal(out["coeffs.values"], [0.5, 1j])


def test_accuracy_reports_bitwise_text_and_relative_differences():
    parent = {"a": outputs(), "b": outputs()}
    change = {"a": outputs(), "b": outputs(scale=1.0 + 1e-12, coeff=0.25)}
    acc = bench_pairs.accuracy(change, parent)
    assert acc["items"]["a"] == {"coeffs": True, "coeffs.values": 0.0, "rec": 0.0, "report.norm": 0.0,
                                 "report.tag": True}
    assert acc["items"]["b"]["coeffs"] is False
    assert acc["items"]["b"]["coeffs.values"] == 0.25
    assert abs(acc["items"]["b"]["rec"] - 1e-12) < 1e-15
    assert acc["worst"]["coeffs"] == {"bitwise_equal": 1, "items": 2}
    assert acc["worst"]["report.tag"] == {"bitwise_equal": 2, "items": 2}
    assert acc["worst"]["rec"]["bitwise_equal"] == 1
    assert acc["worst"]["rec"]["max_rel_diff"] == acc["items"]["b"]["rec"]
