"""Persistent on-disk simulation-result cache.

The oracle's in-memory memo dies with the process, so every rerun of an
experiment pays the full simulation bill again.  This module stores each
:class:`repro.core.evaluator.EvaluationRecord` as one JSON line in
``<cache_dir>/<fingerprint>.jsonl``, where the *fingerprint* hashes every
scenario field that can influence a simulation result (radio, traffic,
channel, protocol, seed, horizon, replication policy, …) and deliberately
excludes pure execution knobs (``n_jobs``, ``cache_dir``).  Consequences:

* results are shared across experiments and across process restarts — a
  warm cache answers repeat evaluations with zero new simulations;
* two scenarios that differ in any physics/protocol field land in
  different files and can never cross-contaminate;
* the file format is append-only JSON lines: concurrent writers at worst
  duplicate a line (last one wins on load), corrupt/partial trailing lines
  are skipped, and the cache is human-greppable.

Floats survive the JSON round trip exactly (``json`` emits ``repr``-style
shortest representations, which parse back to the identical double), so a
record loaded from disk is bit-identical to the one that was stored.

The cache is *self-healing*.  Each line is a versioned envelope
(``{"v": 2, "crc": ..., "record": {...}}``) whose CRC32 covers the
canonical-JSON record body; on load, any line that fails to parse, fails
its CRC, or fails record deserialization — a half-written tail after
``kill -9``, a flipped bit, foreign content — is moved to a
``<cache>.quarantine`` sidecar (with the failure reason) instead of being
silently dropped or raising.  Legacy v1 lines (bare record dicts from
before the envelope existed) still load.  After a load that encountered
corruption or legacy lines, the file is compacted: the surviving records
are atomically rewritten (temp file + ``os.replace``) in the current
format, so damage never accumulates and old files converge to v2.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import pathlib
from typing import Dict, Iterator, List, Tuple

from repro.core.journal import (
    payload_digest,
    quarantine,
    seal,
    unseal,
    write_atomic,
)
from repro.net.network import SimulationOutcome

#: Version stamp written into each cache-line envelope; bump when the
#: record schema changes incompatibly.
CACHE_SCHEMA_VERSION = 2

#: ScenarioParameters fields that cannot influence simulation results:
#: they configure *how* the oracle executes, not *what* it simulates.
EXECUTION_ONLY_FIELDS = frozenset({"n_jobs", "cache_dir", "batch_mode"})


def canonicalize(value):
    """Reduce an arbitrary scenario component to JSON-stable primitives.

    Handles the types that appear in :class:`ScenarioParameters`: frozen
    dataclasses (field by field), enums (by value), containers, and plain
    objects like :class:`repro.channel.body.BodyModel` (public attributes,
    tagged with the class name so two different models never collide).
    """
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    public = {
        k: canonicalize(v)
        for k, v in sorted(vars(value).items())
        if not k.startswith("_")
    }
    return {"__class__": type(value).__name__, **public}


def scenario_fingerprint(scenario) -> str:
    """Stable hex digest of every result-relevant scenario field."""
    payload = {
        f.name: canonicalize(getattr(scenario, f.name))
        for f in dataclasses.fields(scenario)
        if f.name not in EXECUTION_ONLY_FIELDS
    }
    return payload_digest(payload)


def record_to_dict(record) -> dict:
    """Serialize an ``EvaluationRecord`` (losslessly) to JSON primitives."""
    o = record.outcome
    return {
        "config": {
            "placement": list(record.config.placement),
            "tx_dbm": record.config.tx_dbm,
            "mac": record.config.mac.value,
            "routing": record.config.routing.value,
        },
        "pdr": record.pdr,
        "power_mw": record.power_mw,
        "nlt_days": record.nlt_days,
        "wall_seconds": record.wall_seconds,
        "outcome": {
            "pdr": o.pdr,
            "node_pdrs": {str(k): v for k, v in o.node_pdrs.items()},
            "node_powers_mw": {
                str(k): v for k, v in o.node_powers_mw.items()
            },
            "worst_power_mw": o.worst_power_mw,
            "nlt_days": o.nlt_days,
            "horizon_s": o.horizon_s,
            "totals": dict(o.totals),
            "events_executed": o.events_executed,
            "replicates": o.replicates,
            "mean_latency_s": o.mean_latency_s,
            "windowed_pdr": [list(bin_) for bin_ in o.windowed_pdr],
        },
    }


def record_from_dict(payload: dict):
    """Inverse of :func:`record_to_dict`."""
    # Imported lazily: evaluator imports this module at load time.
    from repro.core.design_space import Configuration
    from repro.core.evaluator import EvaluationRecord
    from repro.library.mac_options import MacKind, RoutingKind

    c = payload["config"]
    config = Configuration(
        placement=tuple(c["placement"]),
        tx_dbm=c["tx_dbm"],
        mac=MacKind(c["mac"]),
        routing=RoutingKind(c["routing"]),
    )
    o = payload["outcome"]
    outcome = SimulationOutcome(
        pdr=o["pdr"],
        node_pdrs={int(k): v for k, v in o["node_pdrs"].items()},
        node_powers_mw={int(k): v for k, v in o["node_powers_mw"].items()},
        worst_power_mw=o["worst_power_mw"],
        nlt_days=o["nlt_days"],
        horizon_s=o["horizon_s"],
        totals=dict(o["totals"]),
        events_executed=o["events_executed"],
        replicates=o["replicates"],
        mean_latency_s=o["mean_latency_s"],
        # Tolerant get: lines written before fault campaigns existed have
        # no windowed series, and a healthy run's series is empty anyway.
        windowed_pdr=tuple(
            (bin_[0], bin_[1]) for bin_ in o.get("windowed_pdr", ())
        ),
    )
    return EvaluationRecord(
        config=config,
        pdr=payload["pdr"],
        power_mw=payload["power_mw"],
        nlt_days=payload["nlt_days"],
        wall_seconds=payload["wall_seconds"],
        outcome=outcome,
    )


def encode_cache_line(record) -> str:
    """One v2 cache line: a CRC32-sealed, version-stamped envelope."""
    return json.dumps(
        seal(record_to_dict(record), "record", CACHE_SCHEMA_VERSION)
    )


def decode_cache_line(line: str):
    """Decode one cache line, returning ``(record, is_legacy)``.

    Accepts the current envelope format (CRC-verified) and legacy v1
    lines (a bare record dict, recognized by its ``config`` field).
    Raises ``ValueError``/``KeyError``/``TypeError`` on anything else —
    the caller quarantines those.
    """
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("cache line is not a JSON object")
    if "v" in payload or "crc" in payload or "record" in payload:
        record_dict = unseal(payload, "record", CACHE_SCHEMA_VERSION)
        return record_from_dict(record_dict), False
    # Legacy v1: the record dict itself was the line.
    return record_from_dict(payload), True


def _count(name: str, amount: int = 1) -> None:
    """Best-effort ambient metric (no-op when obs isn't active)."""
    from repro.obs import runtime

    obs = runtime.get_active()
    if obs is not None:
        obs.counter(name).inc(amount)


class ResultCache:
    """One scenario's persistent result store (JSON lines, append-only).

    Records are loaded lazily on first access and indexed by
    ``Configuration.key()``.  ``put`` appends immediately, so results
    survive even if the process dies mid-experiment.  Corrupt lines are
    quarantined rather than fatal, and files carrying damage or legacy
    formatting are compacted in place — see the module docstring.
    """

    def __init__(self, directory, fingerprint: str) -> None:
        self.directory = pathlib.Path(directory)
        self.fingerprint = fingerprint
        self.path = self.directory / f"{fingerprint}.jsonl"
        self.quarantine_path = self.directory / f"{fingerprint}.jsonl.quarantine"
        self._records: Dict[Tuple, object] = {}
        self._loaded = False
        #: Lines moved to the quarantine sidecar by the last load().
        self.quarantined_lines = 0
        #: Whether the last load() triggered an atomic compaction.
        self.compacted = False

    def load(self) -> None:
        """Read the backing file (idempotent; heals corruption).

        Damaged lines — truncated tails from a crash mid-append, bit
        rot, foreign content — are appended to the ``.quarantine``
        sidecar with a reason, never raised.  If any line was damaged or
        written in the legacy v1 format, the surviving records are
        compacted back to disk atomically in the current format.
        """
        if self._loaded:
            return
        self._loaded = True
        if not self.path.exists():
            return
        quarantined: List[Tuple[int, Exception, str]] = []
        legacy_lines = 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record, is_legacy = decode_cache_line(line)
                except Exception as exc:  # any damage: quarantine, not fatal
                    quarantined.append((lineno, exc, line))
                    continue
                if is_legacy:
                    legacy_lines += 1
                self._records[record.config.key()] = record
        self.quarantined_lines = len(quarantined)
        if quarantined:
            quarantine(self.path, quarantined)
            _count("cache.quarantined_lines", len(quarantined))
        if quarantined or legacy_lines:
            self._compact()

    def _compact(self) -> None:
        """Atomically rewrite the file as the loaded records, v2 format."""
        write_atomic(self.path, "".join(
            encode_cache_line(record) + "\n"
            for record in self._records.values()
        ))
        self.compacted = True
        _count("cache.compactions")

    def get(self, key: Tuple):
        self.load()
        return self._records.get(key)

    def put(self, record) -> None:
        """Insert (and immediately persist) a record; no-op on repeats."""
        self.load()
        key = record.config.key()
        if key in self._records:
            return
        self._records[key] = record
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(encode_cache_line(record) + "\n")

    def invalidate(self) -> None:
        """Drop every stored result (memory and disk)."""
        self._records.clear()
        self._loaded = True
        if self.path.exists():
            self.path.unlink()

    def __len__(self) -> int:
        self.load()
        return len(self._records)

    def __iter__(self) -> Iterator:
        self.load()
        return iter(self._records.values())

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.path)!r}, "
            f"records={len(self._records) if self._loaded else '?'})"
        )
