"""Per-layer metrics of the traced run, and which workload each one should move.

A layer is a module of ``src/criticalgabor``.  Every metric is per traced
item unless its unit in ``BENCHMARK.json`` says otherwise.  ``LAYER_MAP`` is the layer map: on a
workload that exercises a counter it is nonzero, on one predicted to bypass it
the counter is exactly 0.  ``tests/test_layer_map.py`` checks both.
"""

from __future__ import annotations

MODULES = ("numerics", "phaseplane", "gabor", "zak", "expansion", "higher",
           "metaplectic", "certainty", "verify", "cli")

# name -> source: (stat field, tracer stat name), or a derived quantity computed
# in loop.py.  Units are those of BENCHMARK.json.  The <module>.import_ms
# metrics are not here: run.py reads them from ``python -X importtime``.
METRICS = {
    "numerics.theta.calls": ("calls", "numerics.theta"),
    "numerics.theta.self_ms": ("self", "numerics.theta"),
    "numerics.upsample_periodic.self_ms": ("self", "numerics.upsample_periodic"),
    "numerics.spectral_derivative.self_ms": ("self", "numerics.spectral_derivative"),
    "zak.zak.calls": ("calls", "zak.zak"),
    "zak.zak.self_ms": ("self", "zak.zak"),
    "expansion.division_field.self_ms": ("self", "expansion.division_field"),
    "expansion.relaxed_coefficients.self_ms": ("self", "expansion.relaxed_coefficients"),
    "expansion.hdelta_norm.total_ms": ("total", "expansion.hdelta_norm"),
    "higher.order_m_coefficients.calls": ("calls", "higher.order_m_coefficients"),
    "higher.order_m_coefficients.self_ms": ("self", "higher.order_m_coefficients"),
    "higher.dual_atoms.calls": ("calls", "higher.dual_atoms"),
    "higher.dual_atoms.self_ms": ("self", "higher.dual_atoms"),
    "higher.annihilate.calls": ("calls", "higher.annihilate"),
    "gabor.gabor_transform.calls": ("calls", "gabor.gabor_transform"),
    "gabor.gabor_transform.self_ms": ("self", "gabor.gabor_transform"),
    "gabor.synthesize.calls": ("calls", "gabor.synthesize"),
    "gabor.synthesize.self_ms": ("self", "gabor.synthesize"),
    "gabor.atom.calls": ("calls", "gabor.atom"),
    "gabor.CoefficientSet.add.calls": ("calls", "gabor.CoefficientSet.add"),
    "gabor.CoefficientSet.set.calls": ("calls", "gabor.CoefficientSet.set"),
    "gabor.CoefficientSet.to_json.self_ms": ("self", "gabor.CoefficientSet.to_json"),
    "gabor.CoefficientSet.from_json.self_ms": ("self", "gabor.CoefficientSet.from_json"),
    "metaplectic.metaplectic_apply.calls": ("calls", "metaplectic.metaplectic_apply"),
    "metaplectic.metaplectic_apply.self_ms": ("self", "metaplectic.metaplectic_apply"),
    "phaseplane.contains.calls": ("calls", "phaseplane.contains"),
    "phaseplane.contains.points": ("points", "phaseplane.contains"),
    "phaseplane.contains.self_ms": ("self", "phaseplane.contains"),
    "phaseplane.lattice_points_in.self_ms": ("self", "phaseplane.lattice_points_in"),
    "phaseplane.distance.calls": ("calls", "phaseplane.distance"),
    "phaseplane.distance.self_ms": ("self", "phaseplane.distance"),
    "certainty.decompose.self_ms": ("self", "certainty.decompose"),
    "certainty.concentration.self_ms": ("self", "certainty.concentration"),
    "certainty.nesting_satisfied.self_ms": ("self", "certainty.nesting_satisfied"),
    "certainty.mid_region_points": ("mid_region_points",),
    "certainty.offset_cache.misses": ("offset_cache_misses",),
    "certainty.offset_cache.miss_ratio": ("offset_cache_miss_ratio",),
    "trace.items_per_s_untraced": ("items_per_s_untraced",),
    "trace.items_per_s_traced": ("items_per_s_traced",),
    "trace.overhead_ratio": ("overhead_ratio",),
}

# The layer map.  Import times are nonzero on every workload and are checked
# separately, because they come from ``python -X importtime``.
_E, _A, _D = "expand", "analyze", "decompose"
LAYER_MAP = {
    # metric: (workloads that exercise it, workloads predicted to bypass it)
    "numerics.theta.calls": ((_E, _D), (_A,)),
    "numerics.upsample_periodic.self_ms": ((_E, _D), (_A,)),
    "numerics.spectral_derivative.self_ms": ((_E, _D), (_A,)),
    "zak.zak.calls": ((_E, _D), (_A,)),
    "expansion.division_field.self_ms": ((_E, _D), (_A,)),
    "expansion.relaxed_coefficients.self_ms": ((_E, _D), (_A,)),
    "expansion.hdelta_norm.total_ms": ((_A, _D), (_E,)),
    "higher.order_m_coefficients.calls": ((_E, _D), (_A,)),
    "higher.dual_atoms.calls": ((_E, _D), (_A,)),
    "higher.annihilate.calls": ((_E, _D), (_A,)),
    "gabor.gabor_transform.calls": ((_A, _D), (_E,)),
    "gabor.synthesize.calls": ((_E, _D), (_A,)),
    "gabor.atom.calls": ((_E, _D), (_A,)),
    "gabor.CoefficientSet.add.calls": ((_D,), (_A,)),
    "gabor.CoefficientSet.set.calls": ((_E, _D), (_A,)),
    "gabor.CoefficientSet.to_json.self_ms": ((_E,), (_A, _D)),
    "gabor.CoefficientSet.from_json.self_ms": ((_E,), (_A, _D)),
    "metaplectic.metaplectic_apply.calls": ((_A,), (_E, _D)),
    "phaseplane.contains.calls": ((_D,), (_E, _A)),
    "phaseplane.contains.points": ((_D,), (_E, _A)),
    "phaseplane.lattice_points_in.self_ms": ((_D,), (_E, _A)),
    "phaseplane.distance.calls": ((_D,), (_E, _A)),
    "phaseplane.distance.self_ms": ((_D,), (_E, _A)),
    "certainty.decompose.self_ms": ((_D,), (_E, _A)),
    "certainty.concentration.self_ms": ((_D,), (_E, _A)),
    "certainty.nesting_satisfied.self_ms": ((_D,), (_E, _A)),
    "certainty.mid_region_points": ((_D,), (_E, _A)),
    "certainty.offset_cache.misses": ((_D,), (_E, _A)),
}
