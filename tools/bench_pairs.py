"""Interleaved parent/change runs of the repository benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent <rev> [--change <rev>] --workload W \
        --pairs N --seconds S --seed 4242 [5151 ...] --out BENCH_<n>.json

Run from the root of a checkout.  Both sides are committed trees, the parent
``<rev>`` and the change (``HEAD`` unless ``--change`` names another), each
extracted with ``git archive <rev> | tar -x`` into a temporary directory, so
uncommitted edits never enter a run.  Each pair runs ``bench/run.py --trace 0``
once in each tree, each tree with its own ``bench/``, alternating which tree
goes first, and reads the last line of the report (one JSON object).  Each
seed given runs ``--pairs`` pairs, seed after seed.

The output file is merged, not overwritten: ``commits`` names the two
revisions, and ``workloads[W]`` gets, per end-to-end metric, every run's value,
each side's median and quartiles and the number of pairs the change won (ties
count for neither), plus the seeds and the ``env`` line of every run.  With
more than one seed, ``metrics_by_seed`` gives the same summary per seed.

``workloads[W]["accuracy"]`` compares the change's outputs with the parent's,
item by item.  Each tree runs the whole pool twice through the benchmark's own
runner, ``bench/items.py::RUNNERS[W]``, in a fresh interpreter: a cold pass on
empty memos, then a warm pass on what the cold pass left in them.
Every output is cut into leaves: a coefficient set gives its JSON, compared
bitwise, and its values; a signal or field gives its samples; a dataclass or
dict gives its fields; a number stays a number.  A numeric leaf records
max |change - parent| / max |parent|, 0.0 when bitwise equal.  Per leaf,
``worst`` gives the largest such ratio, the largest max |change - parent|,
and how many items are bitwise equal or roundoff: an item is roundoff when
both of its sides lie below ROUNDOFF times the leaf's largest parent magnitude
over the pool (``floor``), and its ratio counts for no change.  ``items`` and
``worst`` compare the two cold passes; ``warm_worst`` gives the same summary
of the change's warm pass against the parent's cold pass, so a memo hit that
changes a bit shows too.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path
import pickle
import statistics
import subprocess
import sys
import tempfile

import numpy as np

# Below this fraction of a leaf's largest parent magnitude over the pool, a value keeps fewer than
# half of float64's digits against the scale the leaf is computed at: its changes are roundoff.
ROUNDOFF = 1e-8


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` in root: its final JSON object plus its env line."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", repr(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: bench/run.py in {root} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return result


def leaves(name: str, obj, out: dict) -> dict:
    """The comparable leaves of one runner output, keyed by dotted name."""
    if hasattr(obj, "to_json"):  # CoefficientSet
        out[name] = obj.to_json()
        out[name + ".values"] = np.array([v for _, v in sorted(obj.entries.items())] + list(obj.sharp_block))
    elif isinstance(getattr(obj, "values", None), np.ndarray):  # SampledSignal, GaborField
        out[name] = obj.values
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            leaves(f"{name}.{f.name}" if name else f.name, getattr(obj, f.name), out)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            leaves(f"{name}.{key}" if name else str(key), value, out)
    elif isinstance(obj, str):
        out[name] = obj
    else:
        out[name] = np.asarray(obj)
    return out


def dump_outputs(workload: str, path: str):
    """Run the pool of workload twice in the checkout at the working directory, cold and then warm;
    pickle the leaves of both passes to path, as {"cold": ..., "warm": ...}."""
    sys.path[:0] = ["src", "bench"]
    import items

    passes = {}
    for name in ("cold", "warm"):
        outputs = passes[name] = {}
        for entry in items.load_pool()[workload]:
            item = items.make_item(workload, entry)
            outputs[item.id] = leaves("", items.RUNNERS[workload](item), {})
    Path(path).write_bytes(pickle.dumps(passes))


def item_outputs(root: Path, workload: str, path: Path) -> dict:
    """The pool outputs of the checkout at root, both passes, from a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import bench_pairs; bench_pairs.dump_outputs({workload!r}, {str(path)!r})")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the pool outputs in {root} failed:\n{proc.stderr}")
    return pickle.loads(path.read_bytes())


def compare(change, parent):
    """True/False for text; the largest difference relative to the parent's largest magnitude for numbers."""
    if change is None:
        return "missing"
    if isinstance(parent, str) or isinstance(change, str):
        return change == parent
    if change.shape != parent.shape:
        return f"shape {change.shape} against {parent.shape}"
    if np.array_equal(change, parent):
        return 0.0
    diff, size = magnitude(change.astype(complex) - parent), magnitude(parent)
    return diff / size if size else diff


def magnitude(value) -> float:
    """max |value|, 0.0 for an empty array."""
    return float(np.max(np.abs(value), initial=0.0))


def accuracy(change: dict, parent: dict, warm: dict | None = None) -> dict:
    """Per item and leaf, compare(); per leaf, the worst item: bitwise-equal count or largest difference
    (roundoff items set aside).  With the change's warm pass, ``warm_worst`` is its worst against the
    parent."""
    per_item = compared(change, parent)
    out = {"items": per_item, "worst": worst_items(per_item, change, parent)}
    if warm is not None:
        out["warm_worst"] = worst_items(compared(warm, parent), warm, parent)
    return out


def compared(change: dict, parent: dict) -> dict:
    """compare() per item and leaf of the parent."""
    return {item: {leaf: compare(change[item].get(leaf), value) for leaf, value in outs.items()}
            for item, outs in sorted(parent.items())}


def worst_items(per_item: dict, change: dict, parent: dict) -> dict:
    """Per leaf, the worst item of compared(change, parent)."""
    worst = {}
    for leaf in sorted({leaf for outs in per_item.values() for leaf in outs}):
        vals = [outs[leaf] for outs in per_item.values()]
        if all(isinstance(v, bool) for v in vals):
            worst[leaf] = {"bitwise_equal": sum(vals), "items": len(vals)}
        elif all(isinstance(v, float) for v in vals):
            sides = [(change[item][leaf], parent[item][leaf]) for item in per_item]
            floor = ROUNDOFF * max(magnitude(p) for _, p in sides)
            roundoff = [v != 0.0 and magnitude(c) <= floor and magnitude(p) <= floor
                        for v, (c, p) in zip(vals, sides)]
            worst[leaf] = {"max_rel_diff": max((v for v, r in zip(vals, roundoff) if not r), default=0.0),
                           "max_abs_diff": max(magnitude(c.astype(complex) - p) for c, p in sides),
                           "bitwise_equal": sum(v == 0.0 for v in vals), "roundoff": sum(roundoff),
                           "floor": floor, "items": len(vals)}
        else:
            worst[leaf] = {"mismatched": [v for v in vals if not isinstance(v, (bool, float))]}
    return worst


def extract(repo: Path, sha: str, dest: Path) -> Path:
    """The committed tree of sha, written into dest with git archive."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", sha], cwd=repo, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {sha} failed")
    return dest


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def summarize(spec: dict, pairs: list) -> dict:
    """Per metric: each side's runs, median and quartiles, and pairs the change won."""
    out = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": {"runs": parent, **quartiles(parent)},
            "change": {"runs": change, **quartiles(change)},
            "change_ahead": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent tree")
    ap.add_argument("--change", default="HEAD", help="git revision of the changed tree (default HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, nargs="+", required=True, help="one or more seeds, --pairs pairs each")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")

    repo = Path.cwd()
    commits = {side: subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=repo, check=True,
                                    capture_output=True, text=True).stdout.strip()
               for side, rev in (("parent", args.parent), ("change", args.change))}
    out_path = Path(args.out)
    data = json.loads(out_path.read_text()) if out_path.exists() else {}
    if data.setdefault("commits", commits) != commits:
        raise SystemExit(f"error: {out_path} holds runs of {data['commits']}, not {commits}")
    with tempfile.TemporaryDirectory() as tmp:
        parent_root = extract(repo, commits["parent"], Path(tmp) / "parent")
        change_root = extract(repo, commits["change"], Path(tmp) / "change")
        spec = json.loads((change_root / "BENCHMARK.json").read_text())
        change_out = item_outputs(change_root, args.workload, Path(tmp) / "change.pkl")
        parent_out = item_outputs(parent_root, args.workload, Path(tmp) / "parent.pkl")
        acc = accuracy(change_out["cold"], parent_out["cold"], change_out["warm"])

        pairs = []
        for seed in args.seed:
            for k in range(args.pairs):
                sides = [("parent", parent_root), ("change", change_root)]
                if k % 2:
                    sides.reverse()
                pair = {"seed": seed, "first": sides[0][0]}
                for name, root in sides:
                    pair[name] = bench_run(root, args.workload, seed, args.seconds)
                pairs.append(pair)
                ips = {name: pair[name]["metrics"]["items_per_s"]["value"] for name, _ in sides}
                print(f"seed {seed} pair {k + 1}/{args.pairs} ({pair['first']} first): items_per_s "
                      f"parent {ips['parent']:.4g}, change {ips['change']:.4g}", file=sys.stderr)

    data.setdefault("workloads", {})[args.workload] = {
        "seconds": args.seconds,
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "attempted_failed": {side: [[p[side]["attempted"], p[side]["failed"]] for p in pairs]
                             for side in ("parent", "change")},
        "metrics": summarize(spec, pairs),
        **({"metrics_by_seed": {seed: summarize(spec, [p for p in pairs if p["seed"] == seed])
                                for seed in args.seed}} if len(args.seed) > 1 else {}),
        "accuracy": acc,
        "env": {side: [p[side]["env"] for p in pairs] for side in ("parent", "change")},
    }
    out_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
