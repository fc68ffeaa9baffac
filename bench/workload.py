"""One workload in a fresh interpreter; started by run.py, not meant to be run by hand.

    workload.py WORKLOAD SEED SECONDS TRACE SPAWN_TIME

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so the first figure measured is the cold start up to the
return of ``import criticalgabor.cli``.  Nothing but the standard library is
imported before that.  The calibration kernel is timed right after it.  The result is one JSON line on standard output.
"""

import sys
import time


def main(argv):
    spawn = float(argv[4])
    import criticalgabor.cli  # noqa: F401  (the set-up being measured)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn
    import calibrate
    setup_cal_s = calibrate.settled_seconds()

    import json
    import os
    import platform

    import numpy as np
    import scipy

    import loop

    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    run = loop.Run(workload, trace).run(seed, seconds)
    result = {
        "setup_s": setup_s,
        "setup_cal_s": setup_cal_s,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "blocks": run.blocks,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(np),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if trace:
        result["trace_items"] = len(run.traced_times)
        result["per_layer"] = run.per_layer()
        spans = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                             f"spans-{workload}-seed{seed}.jsonl")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        run.tracer.write(spans)
        result["spans_file"] = os.path.relpath(spans)
    else:
        result["end_to_end"] = run.end_to_end()
    print(json.dumps(result))
    return 0


def _blas(np):
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
