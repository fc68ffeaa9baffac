"""Interleaved parent/change runs of the repository benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent <rev> [--change <rev>] --workload W \
        --pairs N --seconds S --seed 4242 --out BENCH_<n>.json

Run from the root of a checkout.  Both sides are committed trees, the parent
``<rev>`` and the change (``HEAD`` unless ``--change`` names another), each
extracted with ``git archive <rev> | tar -x`` into a temporary directory, so
uncommitted edits never enter a run.  Each pair runs ``bench/run.py --trace 0``
once in each tree, each tree with its own ``bench/``, alternating which tree
goes first, and reads the last line of the report (one JSON object).

The output file is merged, not overwritten: ``commits`` names the two
revisions, and ``workloads[W]`` gets, per end-to-end metric, every run's value,
each side's median and quartiles and the number of pairs the change won (ties
count for neither), plus the seeds and the ``env`` line of every run.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
import statistics
import subprocess
import sys
import tempfile

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
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

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

        pairs = []
        for k in range(args.pairs):
            sides = [("parent", parent_root), ("change", change_root)]
            if k % 2:
                sides.reverse()
            pair = {"seed": args.seed, "first": sides[0][0]}
            for name, root in sides:
                pair[name] = bench_run(root, args.workload, args.seed, args.seconds)
            pairs.append(pair)
            ips = {name: pair[name]["metrics"]["items_per_s"]["value"] for name, _ in sides}
            print(f"pair {k + 1}/{args.pairs} ({pair['first']} first): items_per_s "
                  f"parent {ips['parent']:.4g}, change {ips['change']:.4g}", file=sys.stderr)

    data.setdefault("workloads", {})[args.workload] = {
        "seconds": args.seconds,
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "attempted_failed": {side: [[p[side]["attempted"], p[side]["failed"]] for p in pairs]
                             for side in ("parent", "change")},
        "metrics": summarize(spec, pairs),
        "env": {side: [p[side]["env"] for p in pairs] for side in ("parent", "change")},
    }
    out_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
