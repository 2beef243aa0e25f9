"""Whole-run outcomes of the scalar simulator, pinned as data.

Every field of the :class:`~repro.net.network.SimulationOutcome` of a set
of short runs is recorded in ``fixtures/outcome_pins.json``, floats as
``float.hex`` strings, so a pin holds only while every event, random draw
and float of those runs stays the same.  The A/B tests elsewhere compare
two code paths of the current tree with each other; these compare the
tree with the values the simulator produced when they were written.

The runs are the ``smoke`` scenario on a 2 s horizon (:func:`cases`):

* {CSMA, TDMA} × {star, mesh, p2p} × {−20, −10, 0 dBm} on a 4-node and a
  6-node placement;
* all ten locations (nine receivers per broadcast), star and mesh routing
  under both MACs;
* one :meth:`~repro.net.network.ReplicateJob.run_worlds` call over the
  healthy network and worlds with a node death, a hub outage, a link
  blackout, a correlated link group, a battery drain, and a fault that
  misses the placement;
* one run with the posture process on.

A deliberate change of simulated behaviour regenerates the file with
``PYTHONPATH=src python tests/test_outcome_pins.py``; its diff is the
behaviour change, to be reviewed like code.
"""

import dataclasses
import functools
import json
import pathlib
import sys
from dataclasses import replace

import pytest

from repro.channel.posture import PostureParameters
from repro.core.design_space import Configuration
from repro.core.parallel import replicate_job
from repro.experiments.scenario import make_problem
from repro.faults.model import (
    FaultKind,
    FaultScenario,
    FaultSpec,
    torso_crossing_links,
)
from repro.library.mac_options import MacKind, RoutingKind

PINS = pathlib.Path(__file__).parent / "fixtures" / "outcome_pins.json"

#: Includes the back (9), so low TX levels have dead pairs to skip.
PLACEMENTS = {"p4": (0, 1, 3, 6), "p6": (0, 2, 4, 5, 8, 9)}
ALL_LOCATIONS = tuple(range(10))
MACS = (MacKind.CSMA, MacKind.TDMA)
ROUTINGS = (RoutingKind.STAR, RoutingKind.MESH, RoutingKind.P2P)
TX_LEVELS = (-20.0, -10.0, 0.0)


def _scenario():
    scenario = make_problem(0.9, "smoke", seed=1).scenario
    return replace(scenario, tsim_s=2.0)


def _job(placement, tx_dbm, mac, routing, **overrides):
    config = Configuration(placement, tx_dbm, mac, routing)
    return replace(replicate_job(_scenario(), config, 0), **overrides)


def _worlds(placement):
    hub, a, b = 0, placement[1], placement[-1]
    # Every torso-crossing pair, and one more, blacked out together.
    group = torso_crossing_links(placement) + ((hub, b),)
    return (
        None,
        FaultScenario("death", (
            FaultSpec(FaultKind.NODE_DEATH, 0.6, location=b),)),
        FaultScenario("hub-outage", (
            FaultSpec(FaultKind.HUB_OUTAGE, 0.8, duration_s=0.4,
                      location=hub),)),
        FaultScenario("blackout", (
            FaultSpec(FaultKind.LINK_BLACKOUT, 0.5, duration_s=0.6,
                      link=(hub, a)),)),
        FaultScenario("torso-group", tuple(
            FaultSpec(FaultKind.LINK_BLACKOUT, 0.7, duration_s=0.5,
                      link=link, group="torso")
            for link in group
        )),
        FaultScenario("drain", (
            FaultSpec(FaultKind.BATTERY_DRAIN, 0.4, duration_s=1.0,
                      location=a, factor=3.0),)),
        FaultScenario("miss", (
            FaultSpec(FaultKind.NODE_DEATH, 0.5, location=7),)),
    )


def _world_outcomes(job, worlds):
    return job.run_worlds(worlds).outcomes


def cases():
    """Pin name -> a function returning that pin's outcome(s)."""
    table = {}
    for name, placement in PLACEMENTS.items():
        for mac in MACS:
            for routing in ROUTINGS:
                for tx in TX_LEVELS:
                    job = _job(placement, tx, mac, routing)
                    key = f"{name}/{mac.value}/{routing.value}/{tx:+.0f}dBm"
                    table[key] = job.run
    for mac in MACS:
        for routing in (RoutingKind.STAR, RoutingKind.MESH):
            job = _job(ALL_LOCATIONS, -10.0, mac, routing)
            table[f"p10/{mac.value}/{routing.value}/-10dBm"] = job.run
    placement = PLACEMENTS["p4"]
    job = _job(placement, -10.0, MacKind.CSMA, RoutingKind.STAR)
    table["p4/csma/star/-10dBm/worlds"] = functools.partial(
        _world_outcomes, job, _worlds(placement)
    )
    job = _job(placement, 0.0, MacKind.CSMA, RoutingKind.MESH,
               posture_params=PostureParameters())
    table["p4/csma/mesh/+0dBm/posture"] = job.run
    return table


def encode(value):
    """Exact, JSON-safe form of an outcome: floats as ``float.hex``,
    dicts as ``[key, value]`` pairs in their own order."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [[encode(k), encode(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


CASES = cases()


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_every_pin_has_a_case(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outcome_matches_pin(name, pins):
    assert encode(CASES[name]()) == pins[name]


if __name__ == "__main__":
    # One pin per line, so a diff names the runs that moved.
    lines = [
        f"{json.dumps(name)}: {json.dumps(encode(CASES[name]()))}"
        for name in sorted(CASES)
    ]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} pins to {PINS}", file=sys.stderr)
