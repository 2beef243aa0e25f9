"""Analysis utilities on top of the exploration framework.

* :mod:`repro.analysis.pareto` — Pareto-front extraction over the
  (lifetime, reliability) objectives, the curve Figure 3's upper-left
  envelope traces;
* :mod:`repro.analysis.convergence` — the paper's ε-bounded estimation
  protocol (Sec. 2.2: "the duration of a simulation run Tsim is selected
  to guarantee that the error ... is bounded by a positive tolerance ε"),
  realized as sequential replication with a confidence-interval stopping
  rule;
* :mod:`repro.analysis.ascii_plot` — terminal rendering of the Figure 3
  scatter so the benchmark reports show the *figure*, not only its rows;
* :mod:`repro.analysis.trace_report` — human-readable breakdown of a
  ``--trace-out`` run trace (explorer trajectory, span time rollup) and
  the deterministic projection used by the golden-trace test.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.pareto": ("ParetoPoint", "pareto_front", "dominates"),
    "repro.analysis.convergence": (
        "AdaptiveEstimate", "estimate_pdr_with_tolerance",
    ),
    "repro.analysis.ascii_plot": ("render_scatter",),
    "repro.analysis.trace_report": ("explorer_sequence", "summarize"),
})
