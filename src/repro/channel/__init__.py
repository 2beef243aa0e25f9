"""Wireless body-area channel models.

The paper's channel (Sec. 2.1.1, Eq. 1) is ``PL(i,j,t) = PL̄(i,j) + δPL(t)``
with the mean term taken from the NICTA on-body measurement dataset and the
temporal variation drawn from an empirically fitted conditional density.
Neither dataset ships with the paper, so this package provides the
documented synthetic substitute (see DESIGN.md):

* :mod:`repro.channel.body` — 3-D anthropometric coordinates of the ten
  candidate node locations and the geometric line-of-sight test;
* :mod:`repro.channel.pathloss` — a distance + around-torso shadowing mean
  path-loss law calibrated to published 2.4 GHz WBAN ranges;
* :mod:`repro.channel.fading` — a mean-reverting Ornstein-Uhlenbeck
  process in dB implementing exactly the conditional structure of Eq. 1
  (the density of δPL(t) depends on δPL(t-Δt) and Δt);
* :mod:`repro.channel.link` — the link-budget reception test
  (Tx dBm ≥ Rx sensitivity + PL(t)) used by the radio model.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.channel.body": ("BodyLocation", "BodyModel", "STANDARD_BODY"),
    "repro.channel.pathloss": ("MeanPathLossModel", "PathLossParameters"),
    "repro.channel.fading": ("OrnsteinUhlenbeckFading", "FadingParameters"),
    "repro.channel.link": ("Channel", "LinkBudget"),
    "repro.channel.posture": (
        "Posture", "PostureParameters", "PostureProcess", "DAILY_ACTIVITY",
    ),
})
