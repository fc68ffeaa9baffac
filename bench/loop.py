"""The closed measuring loop of one workload, and the metrics it yields.

One client, one item at a time: the next item starts only when the previous
one and its oracle checks are done.  Items come in blocks (the whole pool in
a seeded order), and a run stops only between blocks, so every run measures
the same mix.  Only the library calls of an item are timed; building its
inputs and checking its outputs are not.  Before each untraced item, and
once after the last, the calibration kernel of ``calibrate.py`` is timed too;
the end-to-end time metrics are item times in units of the mean of the two
readings on either side of the item.

In a traced run every item runs twice, once with the tracer installed and
once without, alternating which goes first; the per-layer figures come from
the traced runs and the tracing overhead from comparing the two.
"""

from __future__ import annotations

import resource
from time import perf_counter

import numpy as np

import calibrate
import items
import layers
import oracles
from tracer import Tracer


class Run:
    def __init__(self, workload: str, trace: bool):
        self.workload = workload
        self.runner = items.RUNNERS[workload]
        self.tracer = Tracer() if trace else None
        self.times: list[float] = []          # untraced item seconds
        self.cal_times: list[float] = []      # calibration kernel around the untraced items
        self.traced_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.mid_region_points = 0
        self.blocks = 0

    def _timed(self, item, traced: bool):
        """Run one item; returns its output (None if it raised) and its seconds."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if traced:
                self.tracer.item = f"{item.id}#{self.attempted}"  # one id per execution
                with self.tracer.installed():
                    t0 = perf_counter()
                    out = self.runner(item)
                    dt = perf_counter() - t0
            else:
                out = self.runner(item)
                dt = perf_counter() - t0
        except Exception as exc:  # an item that raises is a failed item; the run goes on
            self._fail(item, f"raised {type(exc).__name__}: {exc}")
            return None, perf_counter() - t0
        failed = oracles.check(self.workload, item, out)
        if failed:
            self._fail(item, "; ".join(failed))
        return out, dt

    def _fail(self, item, msg):
        self.failures.append(f"{item.id} (phase {item.phase:.6f}): {msg}")

    def run_item(self, item, k: int):
        if self.tracer is None:
            self.cal_times.append(calibrate.seconds())
            _, dt = self._timed(item, False)
            self.times.append(dt)
            return
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            out, dt = self._timed(item, traced)
            (self.traced_times if traced else self.times).append(dt)
            if traced and out is not None and self.workload == "decompose":
                self.mid_region_points += out["dec"].report["mid_region_points"]

    def run(self, seed: int, seconds: float):
        """Whole blocks until another block would pass ``seconds``.

        An untraced run also goes on until it has ``items.MIN_ITEMS``
        samples, so that p90 has ten samples beyond it.
        """
        start = perf_counter()
        for block in items.blocks(self.workload, seed):
            for k, item in enumerate(block):
                self.run_item(item, k)
            self.blocks += 1
            elapsed = perf_counter() - start
            enough = self.tracer is not None or len(self.times) >= items.MIN_ITEMS
            if enough and elapsed + elapsed / self.blocks > seconds:
                break
        if self.tracer is None:
            self.cal_times.append(calibrate.seconds())
        return self

    # ------------------------------------------------------------- metrics
    def end_to_end(self) -> dict:
        """Time metrics in reference seconds (see calibrate.py); ``wall_*`` unscaled."""
        wall = np.asarray(self.times)
        cal = np.asarray(self.cal_times)
        ref = wall / ((cal[:-1] + cal[1:]) / 2) * calibrate.REF_S
        out = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "samples": int(wall.size),
               "calibration_ms": float(np.median(self.cal_times)) * 1e3}
        for prefix, t in (("", ref), ("wall_", wall)):
            out[prefix + "items_per_s"] = t.size / float(np.sum(t))
            out[prefix + "latency_p50_ms"] = float(np.percentile(t, 50)) * 1e3
            out[prefix + "latency_p90_ms"] = float(np.percentile(t, 90)) * 1e3
        return out

    def per_layer(self) -> dict:
        """Every metric of ``layers.METRICS`` by name, per traced item."""
        n = len(self.traced_times)
        stats = self.tracer.stats
        misses = self.tracer.parents[("higher.order_m_coefficients", "certainty.decompose")]
        ips_u = len(self.times) / sum(self.times)
        ips_t = n / sum(self.traced_times)
        derived = {
            "mid_region_points": self.mid_region_points / n,
            "offset_cache_misses": misses / n,
            "offset_cache_miss_ratio": misses / self.mid_region_points if self.mid_region_points else 0.0,
            "items_per_s_untraced": ips_u,
            "items_per_s_traced": ips_t,
            "overhead_ratio": (ips_u - ips_t) / ips_u,
        }
        out = {}
        for name, source in layers.METRICS.items():
            if len(source) == 1:
                out[name] = derived[source[0]]
                continue
            field, stat = source
            value = getattr(stats[stat], field) / n
            out[name] = value * 1e3 if field in ("self", "total") else value
        return out
