"""Every oracle check accepts the real output and rejects a deliberately
perturbed one (a coefficient moved by 1e-6, a field row with conjugated
phase, ...), so a zero failure count is not vacuous."""

import cmath

import pytest

import items
import oracles

PHASE = cmath.exp(0.7j)


def _entries(workload):
    pool = items.load_pool()[workload]
    if workload == "expand":
        picks = [next(e for e in pool if e.get("role") == "lattice"),
                 next(e for e in pool if e.get("role") == "sharp"),
                 next(e for e in pool if e["signal"]["kind"] == "hermite" and e["method"] == "order_m"),
                 next(e for e in pool if e["signal"]["kind"] == "atoms" and "role" not in e)]
    elif workload == "analyze":
        picks = [next(e for e in pool if e["signal"]["kind"] == k) for k in ("atoms", "hermite_mix")]
        picks.append(next(e for e in pool if e["angle_branch"] == "small_sin"))
    else:
        picks = [next(e for e in pool if not e["collar"])]
    return picks


CASES = [(w, e["id"], name) for w in items.WORKLOADS for e in _entries(w) for name in oracles.CHECKS[w]]


@pytest.fixture(scope="module")
def outputs():
    cache = {}
    for w in items.WORKLOADS:
        for e in _entries(w):
            item = items.make_item(w, e, PHASE)
            cache[(w, e["id"])] = (item, items.RUNNERS[w](item))
    return cache


@pytest.mark.parametrize("workload,item_id,check", CASES)
def test_check_accepts_output_and_rejects_perturbation(outputs, workload, item_id, check):
    item, out = outputs[(workload, item_id)]
    fn, perturb = oracles.CHECKS[workload][check]
    ok, msg = fn(item, out)
    assert ok, msg
    ok, _ = fn(item, perturb(item, out))
    assert not ok, f"{check} accepted a perturbed output of {item_id}"


def test_perturbation_leaves_original_intact(outputs):
    item, out = outputs[("expand", _entries("expand")[0]["id"])]
    before = dict(out["coeffs"].entries)
    oracles.CHECKS["expand"]["coefficients"][1](item, out)
    assert out["coeffs"].entries == before
