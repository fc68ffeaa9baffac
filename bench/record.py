"""Build the benchmark's item pool and record the reference outputs.

    python3 bench/record.py            # rewrite bench/pool.json

The pool is generated from a fixed seed, so rerunning this script reproduces
the specs.  The references it records are the outputs of the library at the
commit the script runs on; they were recorded once, at the commit that
introduced the benchmark, and are the "no worse than" baselines the oracles
compare with.  Rerun it only in a change that deliberately moves a baseline,
and say so in that change.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import items  # noqa: E402
import oracles  # noqa: E402

POOL_SEED = 20050803


def _cplx(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def _atoms(points, amps):
    return {"kind": "atoms",
            "atoms": [[float(p), float(t), float(a.real), float(a.imag)] for (p, t), a in zip(points, amps)]}


def _hermite_mix(rng):
    return {"kind": "hermite_mix", "coeffs": [[float(c.real), float(c.imag)] for c in _cplx(rng, 6)]}


def _expansion_config(rng):
    R = int(rng.choice([4, 6]))
    if rng.random() < 0.5:
        return {"method": "relaxed", "R": R, "node": [int(v) for v in rng.integers(-1, 2, size=2)]}
    return {"method": "order_m", "R": R, "m": int(rng.integers(1, 4))}


def _mix_points(rng, count, reach):
    """Atom centres: some on a lattice or sharp point, the rest anywhere in the box."""
    pts = []
    for _ in range(count):
        u = rng.random()
        if u < 0.25:
            pts.append(tuple(float(v) for v in rng.integers(-2, 3, size=2)))
        elif u < 0.5:
            pts.append(tuple(float(v) + 0.5 for v in rng.integers(-2, 2, size=2)))
        else:
            pts.append(tuple(float(v) for v in rng.uniform(-reach, reach, size=2)))
    return pts


def expand_pool(rng):
    pool = []
    for n in range(6):
        for _ in range(2):
            pool.append({"signal": {"kind": "hermite", "n": n}, **_expansion_config(rng)})
    for _ in range(6):
        k, j = (int(v) for v in rng.integers(-2, 3, size=2))
        cfg = _expansion_config(rng)
        pool.append({"signal": _atoms([(k, j)], [1.0 + 0j]), "role": "lattice", "lattice": [k, j], **cfg})
    for _ in range(4):
        k0, j0 = (int(v) for v in rng.integers(-1, 2, size=2))
        pool.append({"signal": _atoms([(k0 + 0.5, j0 + 0.5)], [1.0 + 0j]), "role": "sharp",
                     "method": "relaxed", "R": int(rng.choice([4, 6])), "node": [k0, j0]})
    for _ in range(10):
        count = int(rng.integers(2, 5))
        pool.append({"signal": _atoms(_mix_points(rng, count, 2.0), _cplx(rng, count)),
                     **_expansion_config(rng)})
    for _ in range(13):
        pool.append({"signal": _hermite_mix(rng), **_expansion_config(rng)})
    return pool


SNAP_ANGLES = [0.0, math.pi, -math.pi, 2 * math.pi]
SMALL_SIN_ANGLES = [0.2, 2.9, math.pi + 0.25, -0.3, 0.15, 6.1]
REGULAR_ANGLES = [math.pi / 4, 1.2, -0.9, 2.0, math.pi / 2, 4.0, -2.2]


# (angle branch, box, dlam) per analyze spec, cheapest first.  Item cost is
# set by these three (transform + hdelta by box and dlam, 0/1/2 kernel
# applications by branch), not by the signal.  p50 and p90 each fall in the
# middle of a run of specs with one configuration (10 at "regular, 6, 1/16",
# 7 at "small_sin, 8, 1/16"), so a slowdown that hits one kind of item harder
# than another cannot swap which configuration a percentile reads.
ANALYZE_CONFIGS = (
    [("snap", 4.0, 1 / 8), ("snap", 6.0, 1 / 8), ("snap", 8.0, 1 / 8), ("snap", 4.0, 1 / 16),
     ("snap", 6.0, 1 / 16), ("snap", 4.0, 1 / 8)]
    + [("regular", 4.0, 1 / 8), ("regular", 6.0, 1 / 8), ("regular", 8.0, 1 / 8)] * 2
    + [("regular", 4.0, 1 / 16)]
    + [("regular", 6.0, 1 / 16)] * 10
    + [("small_sin", 6.0, 1 / 16)] * 2
    + [("regular", 8.0, 1 / 16)] * 3
    + [("small_sin", 8.0, 1 / 16)] * 7
)


def analyze_pool(rng):
    signals = [{"kind": "hermite", "n": n} for n in range(6)]
    signals += [_hermite_mix(rng) for _ in range(12)]
    for _ in range(17):
        count = int(rng.integers(1, 4))
        signals.append(_atoms(_mix_points(rng, count, 2.5), _cplx(rng, count)))
    order = rng.permutation(len(signals))
    choices = {"snap": SNAP_ANGLES, "small_sin": SMALL_SIN_ANGLES, "regular": REGULAR_ANGLES}
    pool = []
    for k, (kind, box, dlam) in enumerate(ANALYZE_CONFIGS):
        pool.append({"signal": signals[order[k]], "angle": float(rng.choice(choices[kind])),
                     "angle_branch": kind, "box": box, "dlam": dlam})
    return pool


def _domain(rng, kind):
    """A small domain near the origin and 1-3 atom centres inside it."""
    c = rng.uniform(-0.2, 0.2, size=2)
    count = int(rng.integers(1, 4))
    if kind == "disk":
        rad = float(rng.uniform(0.2, 0.45))
        ang, rr = rng.uniform(0, 2 * np.pi, count), rad * np.sqrt(rng.random(count))
        pts = c + np.column_stack([rr * np.cos(ang), rr * np.sin(ang)])
        return {"type": "disk", "center": c.tolist(), "radius": rad}, pts
    if kind == "rect":
        hw = rng.uniform(0.15, 0.35, size=2)
        pts = c + rng.uniform(-1, 1, size=(count, 2)) * hw
        return {"type": "rect", "pmin": c[0] - hw[0], "pmax": c[0] + hw[0],
                "tmin": c[1] - hw[1], "tmax": c[1] + hw[1]}, pts
    if kind == "polygon":
        nv = int(rng.integers(3, 5))
        ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
        verts = c + rng.uniform(0.25, 0.45, size=(nv, 1)) * np.column_stack([np.cos(ang), np.sin(ang)])
        bary = rng.dirichlet(np.ones(nv), size=count)
        return {"type": "polygon", "vertices": verts.tolist()}, bary @ verts
    parts, pts = [], []
    for sign in (-1, 1):
        pc = c + np.array([sign * 0.3, rng.uniform(-0.15, 0.15)])
        rad = float(rng.uniform(0.15, 0.3))
        parts.append({"type": "disk", "center": pc.tolist(), "radius": rad})
        pts.append(pc)
    return {"type": "union", "parts": parts}, np.array(pts[:count])


COLLAR_FREE = [(3, None), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 4)]
DOMAIN_KINDS = ["disk", "rect", "polygon", "union"]


def decompose_pool(rng):
    pool = []
    for i in range(24):
        r, m = COLLAR_FREE[i % len(COLLAR_FREE)]
        dom, pts = _domain(rng, DOMAIN_KINDS[i % len(DOMAIN_KINDS)])
        pool.append({"signal": _atoms(pts, _cplx(rng, len(pts))), "domain": dom, "r": r, "m": m,
                     "collar": False})
    # One collar item in 25: r=5, m=3 on a disk is the cheapest setting that
    # runs the collar stage (r - l > l), at about 4x the time of a collar-free
    # item.  Its four samples per run sit above p90, which falls inside the
    # samples of the third-slowest spec; collar items are too slow, and vary
    # too much from one call to the next, to carry a steady p90 themselves.
    dom, pts = _domain(rng, "disk")
    pool.append({"signal": _atoms(pts, _cplx(rng, len(pts))), "domain": dom, "r": 5, "m": 3,
                 "collar": True})
    return pool


# Pool sizes are odd multiples of 5 (45, 35, 25), so that p50 and p90 of a
# run fall in the middle of one spec's samples, never in the gap between two.
BUILDERS = {"expand": expand_pool, "analyze": analyze_pool, "decompose": decompose_pool}


def main():
    pool = {w: build(np.random.default_rng([POOL_SEED, i])) for i, (w, build) in enumerate(BUILDERS.items())}
    bad = 0
    for workload, entries in pool.items():
        for i, entry in enumerate(entries):
            entry["id"] = f"{workload[0]}{i:02d}"
            item = items.make_item(workload, entry)
            t0 = time.perf_counter()
            out = items.RUNNERS[workload](item)
            ms = (time.perf_counter() - t0) * 1e3
            entry["ref"] = oracles.reference_values(workload, out)
            item.ref = entry["ref"]
            failures = oracles.check(workload, item, out)
            bad += bool(failures)
            print(f"{entry['id']} {ms:8.1f} ms {'; '.join(failures) or 'ok'}", file=sys.stderr)
    with open(items.POOL_PATH, "w") as fh:
        json.dump({"pool_seed": POOL_SEED, **pool}, fh, indent=1)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
