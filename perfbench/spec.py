"""Names and units of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; selftest.py checks that the two agree.
"""

# The asymdep modules the traced run treats as layers, outermost first.
LAYERS = ("cli", "analysis", "families", "measures", "spaces", "metrics", "engines", "io")

# Reported by an untraced run (--trace 0).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Reported by a traced run (--trace 1). Self times are span time minus the
# time of child spans; counts ending in subsets, ops, triangle_ops and bytes
# are computed from argument sizes, not measured inside the program.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "metrics.alpha_coefficient.self_s": "s",
    "metrics.cov_sup_pm1.self_s": "s",
    "metrics.hypercube.subsets": "count",
    "metrics.hypercube.ops": "count",
    "metrics.bl_distance.self_s": "s",
    "engines.max_flow.self_s": "s",
    "engines.max_flow.calls": "count",
    "engines.max_flow.edges": "count",
    "engines.solve_lp.self_s": "s",
    "engines.solve_lp.rows": "count",
    "engines.solve_lp.bytes": "bytes",
    "spaces.points_validated": "count",
    "spaces.triangle_ops": "count",
    "io.save_measure.self_s": "s",
    "io.load_measure.self_s": "s",
    "io.bytes_written": "bytes",
    "io.bytes_read": "bytes",
    "measures.entries": "count",
    "measures.dependence_matrix.self_s": "s",
    "unattributed.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "cold.extra_s": "s",
}

WORKLOADS = ("exact-rectangles", "weak-geometry", "file-roundtrip")
