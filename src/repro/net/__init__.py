"""The WBAN network stack: PHY, MAC, routing, and application layers.

This package realizes the node architecture of the paper's Fig. 1 on top of
the :mod:`repro.des` kernel and the :mod:`repro.channel` models.  Each node
runs the four standard layers (Sec. 2.1.2):

* **Radio** (:mod:`repro.net.radio`) — broadcast transmission over the
  shared body channel with link-budget reception, collision/capture
  modeling, half-duplex constraint, and TX/RX energy accounting;
* **MAC** (:mod:`repro.net.mac_csma`, :mod:`repro.net.mac_tdma`) —
  non-persistent CSMA with random backoff (Castalia's TunableMAC
  configuration from Sec. 4.1) and round-robin TDMA with 1 ms slots;
* **Routing** (:mod:`repro.net.routing_star`,
  :mod:`repro.net.routing_flood`) — star relay through a coordinator and
  controlled flooding with hop counter and visited history;
* **Application** (:mod:`repro.net.app`) — periodic traffic generation
  with sequence numbers and the PDR bookkeeping of Eqs. 6-7.

:class:`repro.net.network.Network` assembles a complete simulation from a
:class:`repro.core.design_space.Configuration`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.packet": ("Packet",),
    "repro.net.stats": ("NodeStats", "NetworkStats"),
    "repro.net.radio": ("Radio", "Medium", "RadioState"),
    "repro.net.node": ("Node",),
    "repro.net.network": (
        "Network", "SimulationOutcome", "simulate_configuration",
    ),
})
