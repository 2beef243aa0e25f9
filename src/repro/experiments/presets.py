"""Measurement presets: the paper's protocol and scaled-down CI variants.

The table is plain data with no simulator behind it, so code that only
checks a preset name (a campaign spec, a coordinator) can read it
without loading the scenario machinery of
:mod:`repro.experiments.scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Preset:
    """Measurement-protocol knobs for one preset."""

    name: str
    tsim_s: float
    replicates: int
    #: Cap on MILP optima simulated per iteration.  The paper's CPLEX
    #: solution pool is similarly bounded; ``None`` = exact full
    #: enumeration.
    candidate_cap: Optional[int]
    #: PDR_min values swept by Figure 3-style experiments.
    pdr_min_sweep: Tuple[float, ...]


PRESETS: Dict[str, Preset] = {
    "paper": Preset(
        name="paper",
        tsim_s=600.0,
        replicates=3,
        candidate_cap=16,
        pdr_min_sweep=(0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99, 0.9997),
    ),
    "ci": Preset(
        name="ci",
        tsim_s=30.0,
        replicates=1,
        candidate_cap=16,
        pdr_min_sweep=(0.50, 0.80, 0.95, 0.99, 1.00),
    ),
    "smoke": Preset(
        name="smoke",
        tsim_s=8.0,
        replicates=1,
        candidate_cap=8,
        pdr_min_sweep=(0.50, 0.95),
    ),
}


def get_preset(preset: str) -> Preset:
    try:
        return PRESETS[preset]
    except KeyError:
        raise KeyError(
            f"unknown preset {preset!r}; available: {sorted(PRESETS)}"
        ) from None
