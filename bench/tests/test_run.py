"""run.py refuses to produce a result where there is no library to measure, and
its time metrics are in the reference units of calibrate.py."""

import shutil
import subprocess
import sys

import pytest

import run as bench_run


def test_fails_without_sources(tmp_path):
    shutil.copytree(bench_run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(bench_run.HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "expand", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_time_metrics_are_in_reference_units():
    import calibrate
    import loop

    run = loop.Run("expand", trace=False)
    run.times = [0.010, 0.020, 0.030]
    # readings before each item and after the last; each item sees their mean
    run.cal_times = [c * calibrate.REF_S for c in (0.5, 1.5, 2.5, 3.5)]
    e2e = run.end_to_end()
    assert e2e["items_per_s"] == pytest.approx(100.0)
    assert e2e["latency_p90_ms"] == pytest.approx(10.0)
    assert e2e["wall_items_per_s"] == pytest.approx(50.0)
    assert e2e["wall_latency_p50_ms"] == pytest.approx(20.0)
