"""Component library: radios, batteries, body locations, protocol options.

The paper follows platform-based design: system requirements are mapped
onto an *aggregation of components from a library* spanning all network
layers.  This package is that library.  Its headline entry is the Texas
Instruments CC2650 radio whose Table 1 parameters drive the design example;
additional radios and batteries are included so that the exploration
framework can be exercised beyond the paper's single-radio scenario.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.library.radios": (
        "RadioSpec", "TxMode", "CC2650", "RADIO_CATALOG", "radio_by_name",
    ),
    "repro.library.batteries": (
        "BatterySpec", "CR2032", "BATTERY_CATALOG", "battery_by_name",
    ),
    "repro.library.mac_options": (
        "MacKind", "RoutingKind", "MacOptions", "RoutingOptions",
    ),
})
