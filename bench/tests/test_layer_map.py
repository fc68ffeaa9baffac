"""The layer map of layers.py holds: every counter a workload is predicted to
exercise is nonzero on it, every counter it is predicted to bypass is exactly 0."""

import subprocess
import sys

import pytest

import items
import layers
import loop
import run as bench_run


def _sample(workload):
    """A few pool entries that between them reach every branch the map names."""
    pool = items.load_pool()[workload]
    if workload == "expand":
        return [next(e for e in pool if e["method"] == m) for m in ("relaxed", "order_m")]
    if workload == "decompose":
        return [next(e for e in pool if e["collar"] is c) for c in (False, True)]
    return pool[:2]


@pytest.fixture(scope="module")
def per_layer():
    out = {}
    for workload in items.WORKLOADS:
        run = loop.Run(workload, trace=True)
        for k, entry in enumerate(_sample(workload)):
            run.run_item(items.make_item(workload, entry, 1j), k)
        assert run.failures == []
        out[workload] = run.per_layer()
    return out


CASES = [(metric, w, True) for metric, (ex, _) in layers.LAYER_MAP.items() for w in ex]
CASES += [(metric, w, False) for metric, (_, by) in layers.LAYER_MAP.items() for w in by]


@pytest.mark.parametrize("metric,workload,exercised", CASES)
def test_layer_map(per_layer, metric, workload, exercised):
    value = per_layer[workload][metric]
    if exercised:
        assert value > 0, f"{metric} is 0 on {workload}, which should exercise it"
    else:
        assert value == 0, f"{metric} = {value} on {workload}, which should bypass it"


def test_layer_map_names_are_metrics():
    assert set(layers.LAYER_MAP) <= set(layers.METRICS)


def test_benchmark_lists_every_per_layer_metric():
    listed = {m["name"] for m in bench_run.load_spec()["per_layer"]}
    assert listed == set(layers.METRICS) | {f"{m}.import_ms" for m in layers.MODULES}


def test_import_times_cover_every_module(tmp_path):
    root = bench_run.HERE.parent
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import criticalgabor.cli"],
                          env=bench_run.child_env(root), cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    times = bench_run.parse_importtime(proc.stderr)
    for module in layers.MODULES:
        assert times.get(module, 0) > 0, module
