"""Benchmark inputs and the timed library calls of each workload.

Every input is built here from a pool spec (``pool.json``) with the
benchmark's own numpy code, so the library under test only ever receives
finished ``SampledSignal`` and domain objects.  The seed of a run picks the
order of the items inside each block and a unimodular phase per item.  Every
pipeline measured here is linear in the signal, so the references recorded
for a pool spec hold for every phase.

The timed functions call the library through module attributes looked up at
call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass
import importlib
import json
import math
from pathlib import Path

import numpy as np

T = 8.0
H = 1.0 / 64.0
X = -T + H * np.arange(int(round(2 * T / H)) + 1)
DELTA = 2.0
DECOMP_DLAM = 1.0 / 8.0

POOL_PATH = Path(__file__).resolve().parent / "pool.json"

WORKLOADS = ("expand", "analyze", "decompose")

# Percentiles need ten samples beyond the highest one reported (p90).
MIN_ITEMS = 100


def lib(name: str):
    """A criticalgabor module (``criticalgabor.zak`` as an attribute is the function)."""
    return importlib.import_module(f"criticalgabor.{name}")


def hermite_values(n: int) -> np.ndarray:
    """Hermite function n (ground state 2^{1/4} e^{-pi x^2}), unit discrete norm.

    Built with the three-term recurrence of the normalized functions in
    u = sqrt(2 pi) x, independently of the library's own Hermite code.
    """
    u = math.sqrt(2 * math.pi) * X
    prev = np.zeros_like(u)
    cur = np.exp(-u ** 2 / 2)
    for k in range(n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * u * cur - math.sqrt(k / (k + 1)) * prev
    return cur / math.sqrt(np.sum(cur ** 2) * H)


def atom_values(p: float, theta: float) -> np.ndarray:
    return 2 ** 0.25 * np.exp(-np.pi * (X - p) ** 2 + 2j * np.pi * theta * X)


def signal_values(spec: dict) -> np.ndarray:
    kind = spec["kind"]
    if kind == "hermite":
        return hermite_values(spec["n"]).astype(complex)
    if kind == "hermite_mix":
        return sum(complex(re, im) * hermite_values(n) for n, (re, im) in enumerate(spec["coeffs"]))
    if kind == "atoms":
        return sum(complex(re, im) * atom_values(p, th) for p, th, re, im in spec["atoms"])
    raise ValueError(f"unknown signal kind {kind!r}")


@dataclass
class Item:
    id: str
    spec: dict
    ref: dict
    phase: complex
    signal: object  # criticalgabor SampledSignal
    domain: object = None  # PhaseDomain, decompose only


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


def make_item(workload: str, entry: dict, phase: complex = 1.0) -> Item:
    numerics = lib("numerics")
    signal = numerics.SampledSignal(T, H, phase * signal_values(entry["signal"]))
    domain = None
    if workload == "decompose":
        domain = lib("phaseplane").domain_from_json(entry["domain"])
    return Item(entry["id"], entry, entry.get("ref", {}), complex(phase), signal, domain)


def blocks(workload: str, seed: int):
    """Endless sequence of blocks; each block is the whole pool in a seeded order.

    Every block has the same mix, so a run that stops between blocks keeps it.
    """
    entries = load_pool()[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    while True:
        order = rng.permutation(len(entries))
        phases = np.exp(2j * np.pi * rng.random(len(entries)))
        yield [make_item(workload, entries[i], phases[k]) for k, i in enumerate(order)]


def synth_margin(R: int) -> float:
    """The CLI's residual-diagnostic margin rule for cutoff R."""
    return max(0.0, min(4.0, T - R))


def run_expand(item: Item) -> dict:
    spec = item.spec
    f = item.signal
    R = spec["R"]
    if spec["method"] == "relaxed":
        exp = lib("expansion").relaxed_coefficients(f, R, sharp_node=tuple(spec["node"]))
    else:
        exp = lib("higher").order_m_coefficients(f, spec["m"], R=R)
    coeffs = exp.full_coefficients()
    text = coeffs.to_json()
    back = lib("gabor").CoefficientSet.from_json(text)
    rec = lib("gabor").synthesize(back, f.T, f.h, synth_margin(R))
    residual = (f - rec).norm() / f.norm()
    return {"coeffs": coeffs, "back": back, "rec": rec, "residual": residual}


def run_analyze(item: Item) -> dict:
    spec = item.spec
    f = item.signal
    field = lib("gabor").gabor_transform(f, spec["box"], spec["dlam"])
    hdelta = lib("expansion").hdelta_norm(f, DELTA, spec["box"], spec["dlam"])
    parseval = field.mass() / f.norm() ** 2
    metaplectic = lib("metaplectic")
    rotated = metaplectic.metaplectic_apply(metaplectic.Rotation(spec["angle"]), f)
    return {"field": field, "hdelta": hdelta, "parseval": parseval, "rotated": rotated}


def run_decompose(item: Item) -> dict:
    spec = item.spec
    dec = lib("certainty").decompose(item.signal, item.domain, spec["r"], spec["m"],
                                     DELTA, DECOMP_DLAM)
    return {"dec": dec}


RUNNERS = {"expand": run_expand, "analyze": run_analyze, "decompose": run_decompose}
