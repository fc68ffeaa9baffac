"""Benchmark of the criticalgabor library: one workload per run.

    python3 bench/run.py --workload {expand,analyze,decompose} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Each run

* measures the cold start (``setup_s``) in several fresh interpreters, half
  of them before the workload and half after it, each followed by the
  calibration kernel of ``calibrate.py``,
* runs the workload in one more fresh interpreter, a closed loop with one
  client, for about ``--seconds`` seconds (whole blocks of items, and at
  least 100 items without tracing),
* checks every output against its oracle (see ``oracles.py``), and
* prints a readable report, then as its last line one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of ``layers.py`` instead, with module import times from
``python -X importtime`` and the tracing overhead.  Workload names and metric
units are those of ``BENCHMARK.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from pathlib import Path
import signal
import statistics
import subprocess
import sys
import time

import calibrate

HERE = Path(__file__).resolve().parent
# Half before the workload, half after, so that the probes span the whole run;
# with the workload process itself setup_s is a median of 17 cold starts.
SETUP_PROBES = 16
DEADLINE_S = 170.0    # the whole run, probes included

# the cold start, then the calibration kernel in the same process
PROBE = ("import criticalgabor.cli, time; t = time.clock_gettime(time.CLOCK_MONOTONIC); "
         f"import sys; sys.path.insert(0, {str(HERE)!r}); import calibrate; "
         "print(repr(t), repr(calibrate.settled_seconds()))")


def load_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def _communicate(proc, deadline):
    """Wait for a child; kill it if the run passes its deadline or is interrupted."""
    try:
        return proc.communicate(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        raise SystemExit("error: benchmark run passed its deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def setup_probe(env, cwd, deadline) -> tuple[float, float]:
    """(seconds from spawn until ``import criticalgabor.cli`` returned, calibration seconds)."""
    spawn = _now()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], env=env, cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = _communicate(proc, deadline)
    if proc.returncode != 0:
        raise SystemExit(f"error: import criticalgabor.cli failed:\n{err}")
    t, cal = map(float, out.strip().splitlines()[-1].split())
    return t - spawn, cal


def parse_importtime(stderr: str) -> dict:
    """Cumulative import ms of each criticalgabor module from -X importtime output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name.startswith("criticalgabor."):
            try:
                out[name.split(".", 1)[1]] = int(parts[1]) / 1000.0
            except ValueError:
                continue
    return out


def environment(root: Path, child_env_info: dict, workload: str, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "criticalgabor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            **child_env_info, "workload": workload, "seed": seed}


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = _now() + DEADLINE_S
    # SIGTERM unwinds like an exit, so the child in flight is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "criticalgabor" / "__init__.py").is_file():
        print(f"error: no src/criticalgabor under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not (HERE / "pool.json").is_file():
        print("error: bench/pool.json is missing", file=sys.stderr)
        return 2
    env = child_env(root)

    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = [setup_probe(env, root, deadline) for _ in range(probes)]
    cmd = [sys.executable] + (["-X", "importtime"] if args.trace else [])
    cmd += [str(HERE / "workload.py"), args.workload, str(args.seed), repr(args.seconds),
            str(args.trace)]
    proc = subprocess.Popen(cmd + [repr(_now())], env=env, cwd=root,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = _communicate(proc, deadline)
    if proc.returncode != 0:
        print(err, file=sys.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])
    setups.append((res["setup_s"], res["setup_cal_s"]))
    if not args.trace:
        setups += [setup_probe(env, root, deadline) for _ in range(SETUP_PROBES - probes)]

    env_block = environment(root, res["env"], args.workload, args.seed)
    print("env " + json.dumps(env_block, sort_keys=True))
    attempted, failed = res["attempted"], res["failed"]
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for line in res["failures"]:
        print(f"FAILED {line}")

    if args.trace:
        values = dict(res["per_layer"])
        values.update((f"{mod}.import_ms", ms) for mod, ms in parse_importtime(err).items())
        print(f"traced items: {res['trace_items']} (each also run untraced); spans: {res['spans_file']}")
    else:
        values = dict(res["end_to_end"],
                      setup_s=statistics.median(t / cal * calibrate.REF_S for t, cal in setups),
                      wall_setup_s=statistics.median(t for t, _ in setups),
                      pass_ratio=(attempted - failed) / attempted)
        n = res["end_to_end"]["samples"]
        print(f"samples: {n} items in {res['blocks']} blocks "
              f"(p90 has {n - int(0.9 * n)} beyond it); setup samples: {len(setups)}")
        print(f"calibration kernel median {values['calibration_ms']:.4g} ms "
              f"(reference {calibrate.REF_S * 1e3:g} ms); wall times:")
        for name in ("items_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s"):
            print(f"  wall_{name:37s} {values['wall_' + name]:>14.6g}")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
