"""Benchmark regression subsystem (see DESIGN.md §8).

``repro.bench.hotpath`` measures the three optimized layers (DES kernel,
PHY fan-out, MILP warm starts) against the frozen seed implementations in
``repro.bench.reference``, asserting bit-identical results before any
speedup is reported.  ``repro.bench.fleet`` does the same for the
distributed fabric (cross-campaign warm cache, work stealing, batched
keep-alive RPCs), byte-comparing every fleet run against a single-host
golden.  The ``repro bench`` CLI subcommand writes the
``BENCH_hotpath.json`` / ``BENCH_fleet.json`` reports consumed by CI.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.hotpath": (
        "bench_des_throughput",
        "bench_explore_smoke",
        "bench_milp_warm_vs_cold",
        "bench_single_replicate",
        "run_hotpath_benchmarks",
        "write_report",
    ),
    "repro.bench.fleet": ("run_fleet_benchmarks",),
})
