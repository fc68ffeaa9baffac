"""The per-item accuracy comparison and the argument checks of tools/bench_pairs.py."""

import sys
from pathlib import Path

import numpy as np
import pytest

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


def conc(value):
    return {"report.concentration": np.asarray(value)}


def test_a_leaf_below_the_floor_on_both_sides_is_roundoff():
    # decompose's concentration on a pool of signals inside D: the parent's largest value is
    # 1.4e-13, and on d24 both sides are the rounding of |V|^2 outside D
    parent = {"d02": conc(1.4e-13), "d23": conc(2.5e-15), "d24": conc(5.5e-32)}
    change = {"d02": conc(1.4e-13), "d23": conc(2.5e-15), "d24": conc(4.0e-33)}
    acc = bench_pairs.accuracy(change, parent)
    assert acc["items"]["d24"]["report.concentration"] > 0.9
    worst = acc["worst"]["report.concentration"]
    assert worst["floor"] == bench_pairs.ROUNDOFF * 1.4e-13
    assert worst["roundoff"] == 1 and worst["bitwise_equal"] == 2
    assert worst["max_rel_diff"] == 0.0
    assert worst["max_abs_diff"] == 5.5e-32 - 4.0e-33


def test_a_real_change_is_still_reported():
    # a 10 % change on d23 is no roundoff: its values lie far above the floor
    parent = {"d02": conc(1.4e-13), "d23": conc(2.5e-15), "d24": conc(5.5e-32)}
    change = {"d02": conc(1.4e-13), "d23": conc(2.75e-15), "d24": conc(4.0e-33)}
    worst = bench_pairs.accuracy(change, parent)["worst"]["report.concentration"]
    assert worst["roundoff"] == 1
    assert abs(worst["max_rel_diff"] - 0.1) < 1e-12
    assert abs(worst["max_abs_diff"] - 2.5e-16) < 1e-28


def test_the_warm_pass_is_compared_with_the_parents_cold_pass():
    # a memo hit that moves one bit on item b: the cold passes agree, the warm pass shows it
    parent = {"a": outputs(), "b": outputs()}
    acc = bench_pairs.accuracy({"a": outputs(), "b": outputs()}, parent,
                               {"a": outputs(), "b": outputs(scale=1.0 + 2.0 ** -52)})
    assert all(leaf["bitwise_equal"] == leaf["items"] for leaf in acc["worst"].values())
    assert acc["warm_worst"]["rec"]["bitwise_equal"] == 1
    assert 0.0 < acc["warm_worst"]["rec"]["max_rel_diff"] <= 2.0 ** -51
    assert acc["warm_worst"]["coeffs"] == {"bitwise_equal": 2, "items": 2}
    assert "warm_worst" not in bench_pairs.accuracy(parent, parent)


def test_the_analyze_pool_gives_the_same_bits_cold_and_warm(tmp_path):
    passes = bench_pairs.item_outputs(Path(__file__).resolve().parents[1], "analyze", tmp_path / "out.pkl")
    acc = bench_pairs.accuracy(passes["warm"], passes["cold"])
    assert len(acc["items"]) == 35
    assert all(leaf["bitwise_equal"] == leaf["items"] for leaf in acc["worst"].values())


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_is_refused_before_any_tree_is_extracted(monkeypatch, tmp_path, capsys, pairs):
    def extract(*args):
        raise AssertionError("a tree was extracted")

    monkeypatch.setattr(bench_pairs, "extract", extract)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", "HEAD", "--workload", "expand", "--pairs", pairs, "--seconds", "1",
                          "--seed", "4242", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
    assert not out.exists()
