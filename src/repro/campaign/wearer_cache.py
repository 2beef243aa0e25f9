"""Cross-campaign wearer-result cache (content-addressed summaries).

A wearer run is a pure function of its *result-relevant* inputs — the
measurement preset plus the :class:`~repro.campaign.spec.WearerSpec`
fields that steer the exploration trajectory.  ``wearer_id`` and
``cohort`` are labels (they appear nowhere in the summary bytes, which
``tests/test_wearer_cache.py`` pins), and the robust-mode knobs are
ignored by ``solve``-mode runs, so :func:`wearer_fingerprint` hashes
exactly the influencing fields and nothing else.  Consequence: two
campaigns that describe the same wearer under different names — the
overwhelmingly common case across robustness studies, which re-sweep
overlapping populations — share one cache entry, and the second campaign
is a download, not a simulation.

The store itself is one file per fingerprint
(``<dir>/<fingerprint>.json``) holding the wearer's *deterministic
summary projection* (:func:`repro.core.journal.summary_projection` — the
exact bytes ``summary.json`` carries) in a sealed ``{"v", "crc",
"summary"}`` envelope, on the storage primitive of
:mod:`repro.core.journal` (DESIGN.md §9): entries are written
atomically, and an entry that fails to parse or fails its CRC follows
the advisory damage rule — quarantined and treated as a miss, never
trusted and never fatal.  Writes are first-writer-wins and idempotent; a
*divergent* write for the same fingerprint is a determinism violation
and raises loudly (:class:`WearerCacheDiverged`) instead of silently
replacing bytes other campaigns may already have aggregated.

One instance, the coordinator's under ``<root>/wearer_cache/``, is the
only reader and writer of wearer results, and the coordinator touches it
only from its event loop.  Shard commits and finished local campaigns
feed it; a fleet shard whose wearers all hit is committed by the
coordinator at submission, and the hits of a partially cached shard or
of a local campaign ride its lease or its work items.  Wearer tasks and
workers never open one.  It is uncapped unless ``serve`` is given a cap,
and an uncapped store keeps no recency index: a get reads one entry file
and a put writes one.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, List, Optional, Tuple

from repro.campaign.spec import WearerSpec
from repro.core.journal import (
    payload_digest,
    quarantine,
    seal,
    summary_projection,
    unseal,
    write_atomic,
)

#: Version stamp of the on-disk envelope; bump on incompatible change.
WEARER_CACHE_VERSION = 1

#: Conventional directory name for a wearer cache next to campaign state.
WEARER_CACHE_DIRNAME = "wearer_cache"

#: LRU index filename inside a cache directory (atomic tmp+replace).
INDEX_FILENAME = "index.json"


class WearerCacheDiverged(RuntimeError):
    """Two executions produced different bytes for one fingerprint —
    an integrity violation (determinism bug), never a benign race."""


def wearer_fingerprint(preset: str, wearer: WearerSpec) -> str:
    """Stable hex digest of everything a wearer's summary depends on.

    Excluded on purpose: ``wearer_id`` and ``cohort`` (labels only — the
    summary bytes do not contain them), and in ``solve`` mode every
    robust-ensemble knob (the nominal accept test never reads them).  A
    ``fault_seed`` of ``None`` normalizes to the wearer seed, matching
    the runner's ensemble construction, so the spelled-out and defaulted
    forms of the same ensemble share one entry.
    """
    payload = {
        "preset": str(preset),
        "seed": wearer.seed,
        "pdr_min": wearer.pdr_min,
        "mode": wearer.mode,
    }
    if wearer.mode == "robust":
        payload.update(
            quantile=wearer.quantile,
            ensemble_size=wearer.ensemble_size,
            hub_stress=wearer.hub_stress,
            outage_fraction=wearer.outage_fraction,
            fault_seed=(
                wearer.fault_seed
                if wearer.fault_seed is not None
                else wearer.seed
            ),
            correlated_links=wearer.correlated_links,
        )
    return payload_digest(payload)


def _count(name: str, amount: int = 1) -> None:
    from repro.obs import runtime

    obs = runtime.get_active()
    if obs is not None:
        obs.counter(name).inc(amount)


def _event(kind: str, **fields) -> None:
    from repro.obs import runtime

    obs = runtime.get_active()
    if obs is not None:
        obs.event(kind, **fields)


class WearerResultCache:
    """One directory of CRC-enveloped wearer summaries, fingerprint-keyed.

    Files are written atomically (temp + ``os.replace``) so a concurrent
    reader never observes a torn entry, and reads quarantine damage
    instead of raising — the cache may always be treated as advisory.

    ``max_bytes`` / ``max_entries`` bound the store (both default to
    unbounded).  An uncapped store never evicts, so it keeps no recency:
    ``get`` and ``put`` touch only the entry files.  A capped store keeps
    recency in an on-disk LRU index (``index.json``, atomic tmp+replace)
    mapping fingerprint → ``{"bytes", "seq"}`` with a monotonically
    increasing touch sequence; ``put`` evicts least-recently-used entries
    until the caps hold again, never the entry just written — the caps are
    therefore approximate to within one entry, which keeps a single
    oversized summary storable.  A missing or corrupt index, such as on a
    directory an uncapped store filled, is rebuilt from a directory scan
    ordered by mtime, so the index is never a correctness dependency:
    losing it only loses recency ordering.  :meth:`total_bytes` sums the
    entry files in either mode.  An eviction is a
    plain ``unlink`` — a lease prefetched before it already carries the
    bytes, and a later lookup sees a clean miss and the wearer
    re-simulates, which the determinism contract guarantees reproduces
    identical bytes.  Several instances may share one directory (a
    promoted standby and the primary it fenced): with a cap set, each
    ``put`` first folds in the entries the others wrote or evicted (a
    directory scan), so the caps count every file and the saved index
    names every file.
    """

    def __init__(
        self,
        directory,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.max_bytes = max_bytes if max_bytes and max_bytes > 0 else None
        self.max_entries = (
            max_entries if max_entries and max_entries > 0 else None
        )
        self._capped = (
            self.max_bytes is not None or self.max_entries is not None
        )
        self._index: Optional[dict] = None  # loaded lazily

    # -- LRU index ---------------------------------------------------------------

    @property
    def index_path(self) -> pathlib.Path:
        return self.directory / INDEX_FILENAME

    def _fold_directory(self) -> None:
        """Bring the in-memory index in line with the entry files, which
        other instances on this directory (a promoted standby shares it
        with the primary it fenced) write and evict behind this one's
        back.  Files it does not know were written since it loaded its
        index, so they join as the most recently used, oldest mtime
        first; entries whose file is gone leave."""
        index = self._load_index()
        found = self._scan()
        entries = index["entries"]
        present = {fingerprint for _, fingerprint, _ in found}
        for fingerprint in [fp for fp in entries if fp not in present]:
            del entries[fingerprint]
        for _, fingerprint, size in sorted(found):
            if fingerprint not in entries:
                entries[fingerprint] = {
                    "bytes": size, "seq": index["next_seq"]
                }
                index["next_seq"] += 1

    def _load_index(self) -> dict:
        if self._index is not None:
            return self._index
        try:
            with open(self.index_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            entries = {
                str(fp): {
                    "bytes": int(rec["bytes"]),
                    "seq": int(rec["seq"]),
                }
                for fp, rec in raw["entries"].items()
            }
            self._index = {
                "next_seq": int(raw["next_seq"]),
                "entries": entries,
            }
        except (OSError, ValueError, KeyError, TypeError):
            # Rebuilt from the files, oldest mtime first, so the oldest
            # entries get the lowest recency and evict first.
            self._index = {"next_seq": 1, "entries": {}}
            self._fold_directory()
        return self._index

    def _save_index(self) -> None:
        if self._index is not None:
            write_atomic(
                self.index_path, json.dumps(self._index, sort_keys=True)
            )

    def _touch(self, fingerprint: str, size: Optional[int] = None) -> None:
        """Mark ``fingerprint`` most-recently-used (in memory; persisted
        by the next ``put`` — recency is advisory, losing it is safe).
        Only a capped store keeps recency."""
        if not self._capped:
            return
        index = self._load_index()
        record = index["entries"].get(fingerprint)
        if record is None:
            if size is None:
                try:
                    size = self.path_for(fingerprint).stat().st_size
                except OSError:
                    return
            record = {"bytes": size, "seq": 0}
            index["entries"][fingerprint] = record
        elif size is not None:
            record["bytes"] = size
        record["seq"] = index["next_seq"]
        index["next_seq"] += 1

    def _drop(self, fingerprint: str) -> None:
        if self._capped:
            self._load_index()["entries"].pop(fingerprint, None)

    def _scan(self) -> List[Tuple[float, str, int]]:
        """``(mtime, fingerprint, size)`` of every entry file."""
        found = []
        if self.directory.exists():
            for path in self.directory.iterdir():
                if path.suffix != ".json" or path.name == INDEX_FILENAME:
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                found.append((stat.st_mtime, path.stem, stat.st_size))
        return found

    def total_bytes(self) -> int:
        """Bytes of the entry files, whatever instance wrote them."""
        return sum(size for _, _, size in self._scan())

    def _evict_over_caps(self, protect: str) -> int:
        """Delete least-recently-used entries until the caps hold,
        never touching ``protect`` (the entry just written)."""
        index = self._load_index()
        evicted = 0
        while True:
            entries = index["entries"]
            over_entries = (
                self.max_entries is not None
                and len(entries) > self.max_entries
            )
            over_bytes = (
                self.max_bytes is not None
                and sum(r["bytes"] for r in entries.values()) > self.max_bytes
            )
            if not (over_entries or over_bytes):
                break
            victims = [fp for fp in entries if fp != protect]
            if not victims:
                break
            victim = min(victims, key=lambda fp: entries[fp]["seq"])
            try:
                os.unlink(self.path_for(victim))
            except OSError:
                pass
            del entries[victim]
            evicted += 1
            _count("cache.wearer_evictions")
            _event(
                "cache.wearer",
                action="evict",
                fingerprint=victim,
                entries=len(entries),
            )
        return evicted

    def path_for(self, fingerprint: str) -> pathlib.Path:
        if not fingerprint or not all(
            c in "0123456789abcdef" for c in fingerprint
        ):
            raise ValueError(f"bad wearer fingerprint {fingerprint!r}")
        return self.directory / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[dict]:
        """The cached summary for ``fingerprint``, or None.

        A damaged entry (unparseable, wrong version, CRC failure) is
        appended to ``<entry>.quarantine``, removed, and reported as a
        miss, so one flipped bit costs a re-simulation, never a wrong
        result.
        """
        path = self.path_for(fingerprint)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._drop(fingerprint)
            return None
        try:
            summary = unseal(blob, "summary", WEARER_CACHE_VERSION)
        except ValueError as exc:
            quarantine(path, [(1, exc, blob.decode("utf-8", "replace"))])
            path.unlink(missing_ok=True)
            self._drop(fingerprint)
            _count("cache.wearer_quarantined")
            return None
        self._touch(fingerprint, size=len(blob))
        return summary

    def put(self, fingerprint: str, summary: dict) -> bool:
        """Store a summary (first-writer-wins; True when newly written).

        The stored bytes are the deterministic projection — identical to
        what ``write_summary`` puts in ``summary.json`` — so a cache hit
        replayed into a run directory is byte-identical to a fresh run.
        A divergent repeat raises :class:`WearerCacheDiverged`.
        """
        projected = summary_projection(summary)
        existing = self.get(fingerprint)
        if existing is not None:
            if existing == projected:
                return False
            raise WearerCacheDiverged(
                f"wearer cache entry {fingerprint} already holds different "
                "bytes — two executions of the same wearer disagreed"
            )
        blob = json.dumps(
            seal(projected, "summary", WEARER_CACHE_VERSION)
        ) + "\n"
        write_atomic(self.path_for(fingerprint), blob)
        _count("cache.wearer_stores")
        _event("cache.wearer", action="store", fingerprint=fingerprint)
        if self._capped:
            self._fold_directory()
            self._touch(fingerprint, size=len(blob.encode("utf-8")))
            self._evict_over_caps(protect=fingerprint)
            self._save_index()
        return True

    def prefetch(
        self, preset: str, wearers
    ) -> Dict[str, dict]:
        """wearer_id → cached summary for every hit among ``wearers``
        (the coordinator's lease-response piggyback)."""
        out: Dict[str, dict] = {}
        for wearer in wearers:
            if isinstance(wearer, dict):
                wearer = WearerSpec.from_dict(wearer)
            summary = self.get(wearer_fingerprint(preset, wearer))
            if summary is not None:
                out[wearer.wearer_id] = summary
        return out

    def __len__(self) -> int:
        return len(self._scan())

    def __repr__(self) -> str:
        return f"WearerResultCache({str(self.directory)!r})"
