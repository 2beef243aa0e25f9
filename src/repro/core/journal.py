"""Durable storage: one primitive under every journal, log, cache and manifest.

Every file the runtime must not lose or misread is built from the same
parts (DESIGN.md §9):

* **one CRC** — :func:`payload_crc`, CRC32 over a payload's canonical
  JSON (sorted keys, fixed separators), so any two processes framing the
  same dict agree;
* **one frame codec** — :func:`seal` / :func:`unseal` wrap a body as
  ``{"crc", <key>: body}`` (optionally version-stamped, ``{"v", "crc",
  <key>}``); the three shapes on disk are log lines (``entry``),
  manifests (``manifest``) and cache envelopes (``record`` /
  ``summary``);
* **one atomic writer** — :func:`write_atomic`: a per-writer tmp file,
  fsync, ``os.replace``, so a reader sees the old bytes or the new, never
  a mix;
* **one append log** — :class:`EventLog`, the only code that opens a
  log, truncates a torn tail or appends (each line flushed and fsynced
  before the call returns);
* **one quarantine helper** — :func:`quarantine`.

and two damage rules, each stated once:

* *authoritative* files (run journals, ``queue.jsonl``,
  ``service.jsonl``, ``fencing.jsonl``, manifests) drop a torn final
  line — the only damage a kill mid-append can cause — and raise
  :class:`JournalError` on any other damage (:class:`EventLog`,
  :func:`load_campaign_manifest`);
* *advisory* stores (result-cache lines, wearer-cache entries) append
  the damaged bytes to ``<file>.quarantine`` and report a miss
  (:func:`quarantine`): a flipped bit costs a re-simulation, never a
  wrong result.

A :class:`RunJournal` is an :class:`EventLog` recording the *logical
trajectory* of one exploration run — every evaluated candidate (with its
full simulation record and accept/reject verdict) and every MILP cut, in
the exact order Algorithm 1 produced them — after a manifest line that
fingerprints everything the trajectory depends on (scenario fingerprint,
PDR bound, chance-constraint quantile, fault ensemble, explorer
switches).  A SIGKILL at any point loses at most the line being written.

Resume protocol (``hi-explore solve/robust --resume <dir>``):

1. The journal is replayed: the manifest must match the resumed run's
   arguments field-for-field, and every journaled candidate's
   :class:`~repro.core.evaluator.EvaluationRecord` is *preloaded* into the
   simulation oracle (:meth:`SimulationOracle.preload_journal`), where its
   first touch counts as a simulation — not a cache hit — so counters,
   summaries, and traces of the resumed run are identical to an
   uninterrupted one.
2. Algorithm 1 then runs from iteration 0.  MILP levels are re-solved
   (cheap — warm-started, and orders of magnitude below simulation cost)
   while every journaled candidate evaluation is answered from the replay
   set with zero new simulations; the cut sequence regenerates itself and
   is *verified* against the journaled cuts as the loop advances
   (:meth:`RunJournal.cut`), so solver state is restored by validated
   replay rather than trusted blindly.
3. Past the journaled prefix the run continues live, appending new
   entries to the same file — a run can be killed and resumed any number
   of times and still produce the bit-identical final result, summary,
   and golden trace of a never-interrupted run.

Any divergence between the replaying run and the journal (different
candidate, different verdict, different cut) raises :class:`JournalError`
instead of silently producing a franken-trajectory.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import threading
import zlib
from typing import Iterable, List, Optional, Tuple

#: Bumped when the journal line schema changes incompatibly.
JOURNAL_VERSION = 1

#: File name of the journal inside its run directory.
JOURNAL_FILENAME = "journal.jsonl"

#: File name of the deterministic run summary written next to the journal.
SUMMARY_FILENAME = "summary.json"

#: Campaign-directory layout (see DESIGN.md §11): the campaign manifest
#: pins the spec + fingerprint, each shard directory carries its own
#: manifest linking back to the campaign fingerprint, and every wearer
#: run inside a shard is an ordinary journaled run directory.
CAMPAIGN_MANIFEST_FILENAME = "campaign.json"
SHARD_MANIFEST_FILENAME = "shard.json"
SHARDS_DIRNAME = "shards"

#: Commit (and, in a fleet, lease) record log of a campaign — the durable
#: state of its shard queue (DESIGN.md §11-§12).
QUEUE_LOG_FILENAME = "queue.jsonl"

#: ``oracle_stats`` keys that are deterministic across interrupted/resumed
#: and uninterrupted runs of the same campaign (wall-clock-derived keys are
#: not, and are stripped from the summary projection).
DETERMINISTIC_STAT_KEYS = (
    "simulations_run",
    "cache_hits",
    "ensemble_size",
    "ensemble_evaluations",
)


class JournalError(RuntimeError):
    """A journal could not be created, replayed, or matched to its run."""


# -- the storage primitive ----------------------------------------------------


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_crc(payload) -> str:
    """CRC32 (hex) of a payload's canonical JSON form — the integrity
    token of every frame on disk, and the key of the campaign fabric's
    idempotent commits (a worker and the coordinator computing this over
    the same dict always agree, because canonicalization sorts keys and
    fixes separators)."""
    return format(zlib.crc32(canonical_json(payload).encode("utf-8")), "08x")


def payload_digest(payload) -> str:
    """16 hex digits of sha256 over a payload's canonical JSON: the
    content address of scenarios, campaign specs, wearers and
    aggregates (cache file names, campaign ids)."""
    blob = canonical_json(payload).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def seal(
    body: dict, key: str = "entry", version: Optional[int] = None
) -> dict:
    """Frame ``body`` under ``key`` with its CRC (and a version stamp)."""
    frame = {} if version is None else {"v": version}
    frame["crc"] = payload_crc(body)
    frame[key] = body
    return frame


def unseal(frame, key: str = "entry", version: Optional[int] = None) -> dict:
    """Inverse of :func:`seal`, given the frame or its JSON text.

    Raises ``ValueError`` on any damage (unparseable, wrong version,
    missing body, CRC mismatch), so no caller can trust a corrupt body.
    """
    if isinstance(frame, (str, bytes)):
        frame = json.loads(frame)
    if not isinstance(frame, dict):
        raise ValueError("frame is not a JSON object")
    if version is not None and frame.get("v") != version:
        raise ValueError(f"unsupported frame version {frame.get('v')!r}")
    body = frame.get(key)
    if not isinstance(body, dict):
        raise ValueError(f"frame has no {key!r} body")
    if frame.get("crc") != payload_crc(body):
        raise ValueError("frame failed its CRC32 check")
    return body


def dump_json(payload) -> str:
    """Sorted, indented, newline-terminated JSON: the byte format of
    summaries, manifests and campaign artifacts."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _sync(fh) -> None:
    fh.flush()
    os.fsync(fh.fileno())


def write_atomic(path, text: str) -> pathlib.Path:
    """Replace ``path`` with ``text`` all-or-nothing (tmp, fsync,
    ``os.replace``); returns the path.

    Each writer stages in its own ``<path>.<pid>.<thread>.tmp`` beside
    ``path``, so two writers of one path cannot move each other's
    temporary away (the last replace wins).  Directory scans skip the
    ``.tmp`` suffix; a failed write removes its temporary.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            _sync(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # keep the original error
            tmp.unlink()
        raise
    return path


def quarantine(path, damaged: Iterable[Tuple[int, Exception, str]]) -> None:
    """The advisory damage rule: append each damaged ``(line number,
    error, line)`` of ``path`` to ``<path>.quarantine`` as one JSON line
    ``{"line_number", "reason", "line"}``; the caller reports a miss."""
    path = pathlib.Path(path)
    with open(path.with_name(path.name + ".quarantine"), "a",
              encoding="utf-8") as fh:
        for number, exc, line in damaged:
            fh.write(json.dumps({
                "line_number": number,
                "reason": f"{type(exc).__name__}: {exc}",
                "line": line,
            }) + "\n")
        _sync(fh)


def _decode_lines(blob: bytes) -> Tuple[List[dict], int]:
    """The whole, CRC-valid log lines at the start of ``blob``.

    Returns ``(entries, consumed)``: decoding stops at the first line
    with no terminating newline (a torn or in-flight write) or a failed
    frame check, and ``consumed`` is the byte length of the good prefix.
    """
    entries: List[dict] = []
    consumed = 0
    while True:
        newline = blob.find(b"\n", consumed)
        if newline < 0:
            break
        text = blob[consumed:newline].strip()
        if text:
            try:
                entries.append(unseal(text))
            except ValueError:
                break
        consumed = newline + 1
    return entries, consumed


# -- run summaries and campaign manifests ------------------------------------


def summary_projection(payload: dict) -> dict:
    """The deterministic projection of an ``ExplorationResult.to_dict()``.

    Strips wall-clock fields and reduces ``oracle_stats`` to the keys in
    :data:`DETERMINISTIC_STAT_KEYS`; what remains is bit-identical between
    an uninterrupted run and any kill/resume sequence of the same
    campaign — the artifact the chaos-smoke CI job diffs.
    """
    out = dict(payload)
    out.pop("wall_seconds", None)
    stats = out.get("oracle_stats") or {}
    out["oracle_stats"] = {
        k: stats[k] for k in DETERMINISTIC_STAT_KEYS if k in stats
    }
    return out


def write_summary(directory, payload: dict) -> pathlib.Path:
    """Atomically write the deterministic run summary into ``directory``."""
    return write_atomic(
        pathlib.Path(directory) / SUMMARY_FILENAME,
        dump_json(summary_projection(payload)),
    )


def read_summary(directory) -> dict:
    """The summary :func:`write_summary` left in ``directory``."""
    path = pathlib.Path(directory) / SUMMARY_FILENAME
    return json.loads(path.read_text(encoding="utf-8"))


# A campaign directory holds many journaled runs (one per wearer) spread
# over shard subdirectories.  The linkage is CRC-sealed JSON manifests:
# ``campaign.json`` at the root pins the campaign spec and fingerprint,
# and each ``shards/shard-NN/shard.json`` pins the same fingerprint plus
# its wearer list.  ``load_campaign_shards`` re-validates the whole chain
# on resume, so a campaign directory can never silently mix trajectories
# from two different specs (the per-run analogue is the RunJournal
# manifest check below).


def _write_manifest(path: pathlib.Path, payload: dict) -> pathlib.Path:
    return write_atomic(path, dump_json(seal(payload, "manifest")))


def _load_manifest(path: pathlib.Path, what: str) -> dict:
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise JournalError(f"no {what} at {path}") from None
    try:
        return unseal(text, "manifest")
    except ValueError as exc:
        raise JournalError(f"corrupt {what} at {path}: {exc}") from None


def shard_directory(campaign_dir, index: int) -> pathlib.Path:
    return pathlib.Path(campaign_dir) / SHARDS_DIRNAME / f"shard-{index:02d}"


def write_campaign_manifest(
    campaign_dir, spec_dict: dict, fingerprint: str, shards: int
) -> pathlib.Path:
    payload = {
        "kind": "campaign_manifest",
        "version": JOURNAL_VERSION,
        "fingerprint": fingerprint,
        "shards": int(shards),
        "spec": spec_dict,
    }
    return _write_manifest(
        pathlib.Path(campaign_dir) / CAMPAIGN_MANIFEST_FILENAME, payload
    )


def load_campaign_manifest(campaign_dir) -> dict:
    manifest = _load_manifest(
        pathlib.Path(campaign_dir) / CAMPAIGN_MANIFEST_FILENAME,
        "campaign manifest",
    )
    if manifest.get("kind") != "campaign_manifest":
        raise JournalError(
            f"{campaign_dir}: campaign.json is not a campaign manifest"
        )
    if manifest.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"campaign manifest version {manifest.get('version')} in "
            f"{campaign_dir} is not version {JOURNAL_VERSION}"
        )
    return manifest


def write_shard_manifest(
    campaign_dir, index: int, fingerprint: str, wearer_ids: List[str]
) -> pathlib.Path:
    payload = {
        "kind": "shard_manifest",
        "version": JOURNAL_VERSION,
        "fingerprint": fingerprint,
        "index": int(index),
        "wearers": list(wearer_ids),
    }
    return _write_manifest(
        shard_directory(campaign_dir, index) / SHARD_MANIFEST_FILENAME, payload
    )


def load_campaign_shards(campaign_dir) -> List[dict]:
    """Load and cross-validate every shard manifest of a campaign.

    Each shard must carry the campaign manifest's fingerprint and its
    directory's own index; any mismatch means the directory holds pieces
    of different campaigns and raises :class:`JournalError` instead of
    letting an aggregate silently fuse them.  Returns the shard manifests
    sorted by index.
    """
    campaign_dir = pathlib.Path(campaign_dir)
    campaign = load_campaign_manifest(campaign_dir)
    fingerprint = campaign.get("fingerprint")
    shards_root = campaign_dir / SHARDS_DIRNAME
    manifests: List[dict] = []
    if shards_root.exists():
        for entry in sorted(shards_root.iterdir()):
            if not entry.is_dir():
                continue
            manifest = _load_manifest(
                entry / SHARD_MANIFEST_FILENAME, "shard manifest"
            )
            if manifest.get("fingerprint") != fingerprint:
                raise JournalError(
                    f"shard manifest {entry / SHARD_MANIFEST_FILENAME} "
                    f"belongs to campaign {manifest.get('fingerprint')!r}, "
                    f"not {fingerprint!r} — refusing to mix campaigns"
                )
            expected = f"shard-{manifest.get('index'):02d}"
            if entry.name != expected:
                raise JournalError(
                    f"shard directory {entry} holds manifest index "
                    f"{manifest.get('index')!r}"
                )
            manifests.append(manifest)
    manifests.sort(key=lambda m: m["index"])
    seen: set = set()
    for manifest in manifests:
        for wearer in manifest.get("wearers", ()):
            if wearer in seen:
                raise JournalError(
                    f"wearer {wearer!r} appears in two shard manifests "
                    f"under {campaign_dir}"
                )
            seen.add(wearer)
    return manifests


# -- the append log -----------------------------------------------------------


class EventLog:
    """Append-only, fsynced, CRC-framed JSONL log of plain dict events.

    One sealed ``{"crc", "entry"}`` frame per line.  Opening a log
    applies the authoritative damage rule: a torn final line (the
    crash-mid-append case) is dropped and physically truncated, so the
    append handle never writes after a fragment; damage anywhere else
    means the fsynced prefix itself is bad and raises
    :class:`JournalError`.  The campaign fabric keeps its lease/commit
    records (``queue.jsonl``), campaign states (``service.jsonl``) and
    fencing epochs (``fencing.jsonl``) in these; :class:`RunJournal`
    adds a manifest check and a replay cursor on top.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self._entries: List[dict] = []
        if self.path.exists():
            blob = self.path.read_bytes()
            self._entries, valid = _decode_lines(blob)
            tail = blob[valid:]
            if b"\n" in tail.strip():
                line = blob.count(b"\n", 0, valid) + 1
                raise JournalError(
                    f"corrupt journal line {line} in {self.path} (not a "
                    "torn tail); the journal cannot be trusted"
                )
            if tail:
                with open(self.path, "r+b") as fh:
                    fh.truncate(valid)
                    _sync(fh)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    @property
    def entries(self) -> List[dict]:
        return list(self._entries)

    def _add(self, entry: dict) -> None:
        if self._fh is None:
            raise JournalError(f"{self.path} is closed")
        self._fh.write(json.dumps(seal(entry)) + "\n")
        _sync(self._fh)
        self._entries.append(entry)

    def append(self, entry: dict) -> dict:
        """Durably append one event (flushed + fsynced before returning).

        :class:`RunJournal` records go through :meth:`_add` instead, so
        a traced run counts each of them once, under its own method."""
        self._add(entry)
        return entry

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @staticmethod
    def follow(path) -> "EventLogFollower":
        """Open a read-only incremental reader over a (possibly live)
        event log — see :class:`EventLogFollower`.  Unlike constructing
        an :class:`EventLog`, following never opens the file for append
        and never truncates a torn tail, so a standby can tail the
        primary's log without interfering with the writer."""
        return EventLogFollower(path)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"EventLog({str(self.path)!r}, entries={len(self._entries)})"


class EventLogFollower:
    """Incremental, read-only reader over a live :class:`EventLog` file.

    ``poll()`` returns every *whole, CRC-valid* record appended since the
    previous poll.  The writer appends each record as one
    ``json + "\\n"`` write, so a concurrent reader can observe three
    states of the tail: nothing yet, a torn prefix of the line (no
    terminating newline — withheld until complete), or the full line
    (CRC-checked, then surfaced).  A *newline-terminated* line that fails
    its CRC is never possible from a torn write (fragments lack the
    terminator), so it is held back and retried — if the writer
    truncated a torn tail on restart the bytes simply disappear under
    us, which ``poll`` detects as file shrinkage and handles by
    re-reading from the start of the file.

    The follower holds no file handle between polls and never writes, so
    any number of them can tail one log without coordination.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        #: Byte length of the consumed, CRC-valid prefix.
        self._offset = 0

    def poll(self) -> List[dict]:
        """Every whole CRC-valid record appended since the last poll."""
        try:
            with open(self.path, "rb") as fh:
                if fh.seek(0, os.SEEK_END) < self._offset:
                    # The file shrank (a writer restart truncated a torn
                    # tail past our consumed prefix, or the log was
                    # replaced): realign on the start of the file.
                    self._offset = 0
                fh.seek(self._offset)
                blob = fh.read()
        except FileNotFoundError:
            self._offset = 0
            return []
        entries, consumed = _decode_lines(blob)
        self._offset += consumed
        return entries

    def __repr__(self) -> str:
        return (
            f"EventLogFollower({str(self.path)!r}, offset={self._offset})"
        )


class RunJournal(EventLog):
    """One run's append-only checkpoint log (see the module docstring).

    Use the :meth:`create` / :meth:`resume` constructors; the journal then
    rides along inside
    :meth:`~repro.core.explorer.HumanIntranetExplorer.explore` or
    :meth:`~repro.core.explorer.HumanIntranetExplorer.explore_robust`,
    which call :meth:`candidate` / :meth:`robust_candidate` / :meth:`cut`
    as the trajectory advances.  While the replay cursor is inside the
    journaled prefix those calls *verify* instead of write; past it they
    append.
    """

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        super().__init__(self.directory / JOURNAL_FILENAME)
        #: Index of the next entry to verify (0 is the manifest line).
        self._cursor = 1

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def _manifest_entry(manifest: dict) -> dict:
        return {"kind": "manifest", "version": JOURNAL_VERSION, **manifest}

    @classmethod
    def create(cls, directory, **manifest) -> "RunJournal":
        """Start a fresh journal in ``directory`` (must not hold one).

        The sealed manifest line is written atomically before the log
        opens for append, so ``journal.jsonl`` either does not exist or
        starts with its manifest: a kill during creation leaves a
        directory that a fresh ``--out`` run can still use.
        """
        path = pathlib.Path(directory) / JOURNAL_FILENAME
        if path.exists():
            raise JournalError(
                f"{path} already exists; use --resume to continue that "
                "run (or point --out at a fresh directory)"
            )
        entry = cls._manifest_entry(manifest)
        write_atomic(path, json.dumps(seal(entry)) + "\n")
        return cls(directory)

    @classmethod
    def resume(cls, directory, **expected_manifest) -> "RunJournal":
        """Reopen a journal, verifying its manifest against the resumed
        run's arguments.  Returns a journal whose replay cursor covers the
        recorded prefix.

        A journal with no intact line (empty, or only a torn manifest
        line, as a kill inside :meth:`create` of older builds leaves it)
        recorded nothing: it gets the expected manifest and replays
        nothing, so the resumed run starts from the beginning.
        """
        path = pathlib.Path(directory) / JOURNAL_FILENAME
        if not path.exists():
            raise JournalError(f"no journal to resume at {path}")
        journal = cls(directory)
        try:
            if not journal._entries:
                journal._add(cls._manifest_entry(expected_manifest))
            journal._check_manifest(expected_manifest)
        except JournalError:
            journal.close()
            raise
        return journal

    def _check_manifest(self, expected: dict) -> None:
        if not self._entries or self._entries[0].get("kind") != "manifest":
            raise JournalError(f"{self.path} has no readable manifest line")
        manifest = self.manifest
        if manifest.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal version {manifest.get('version')} in {self.path} "
                f"is not version {JOURNAL_VERSION}"
            )
        for key, value in expected.items():
            if manifest.get(key) != value:
                raise JournalError(
                    f"journal manifest mismatch on {key!r}: journal has "
                    f"{manifest.get(key)!r}, the resumed run supplies "
                    f"{value!r} — refusing to mix trajectories"
                )

    @property
    def manifest(self) -> dict:
        return self._entries[0]

    def _record(self, entry: dict, what: str) -> bool:
        """Advance the replay cursor (verifying) or append ``entry``.

        Returns ``True`` when the entry was newly appended, ``False`` when
        it matched the journaled prefix.
        """
        if self._cursor < len(self._entries):
            expected = self._entries[self._cursor]
            if expected != entry:
                raise JournalError(
                    f"resumed trajectory diverged from the journal at "
                    f"entry {self._cursor} ({what}): journal has "
                    f"{canonical_json(expected)[:200]}, the run produced "
                    f"{canonical_json(entry)[:200]}"
                )
            self._cursor += 1
            return False
        self._add(entry)
        self._cursor += 1
        return True

    # -- trajectory recording ----------------------------------------------------

    def candidate(self, record, accepted: bool) -> bool:
        """Record one nominal candidate evaluation and its verdict."""
        from repro.core.result_cache import record_to_dict

        entry = {
            "kind": "candidate",
            "record": record_to_dict(record),
            "accepted": bool(accepted),
        }
        return self._record(entry, "candidate")

    def robust_candidate(self, resilience_record, accepted: bool) -> bool:
        """Record one chance-constrained candidate: the healthy record
        plus every per-fault-world record, keyed by scenario name."""
        from repro.core.result_cache import record_to_dict

        entry = {
            "kind": "robust_candidate",
            "healthy": record_to_dict(resilience_record.healthy),
            "faulted": [
                [scenario.name, record_to_dict(rec)]
                for scenario, rec in resilience_record.faulted
            ],
            "accepted": bool(accepted),
        }
        return self._record(entry, "robust candidate")

    def cut(self, p_star_mw: float) -> bool:
        """Record one MILP cut (floats round-trip JSON exactly, so replay
        verification is bit-exact)."""
        entry = {"kind": "cut", "p_star_mw": float(p_star_mw)}
        return self._record(entry, "cut")

    # -- replay access -----------------------------------------------------------

    @property
    def entries(self) -> List[dict]:
        """The journaled trajectory (every entry after the manifest)."""
        return self._entries[1:]

    def replay_cuts(self) -> List[float]:
        return [e["p_star_mw"] for e in self.entries if e.get("kind") == "cut"]

    def replay_records(self) -> List[object]:
        """Every journaled nominal :class:`EvaluationRecord`, in order."""
        from repro.core.result_cache import record_from_dict

        return [
            record_from_dict(e["record"])
            for e in self.entries
            if e.get("kind") == "candidate"
        ]

    def replay_robust_payloads(self) -> List[dict]:
        """Journaled robust candidates as raw payload dicts (the ensemble
        oracle deserializes them into its per-fault-world sub-oracles)."""
        return [e for e in self.entries if e.get("kind") == "robust_candidate"]

    def preload_into(self, oracle) -> int:
        """Feed the journaled nominal records into a simulation oracle's
        replay set; returns the number of preloaded records."""
        records = self.replay_records()
        oracle.preload_journal(records)
        return len(records)

    def preload_robust_into(self, ensemble_oracle) -> int:
        """Feed the journaled robust records into an ensemble oracle's
        per-fault-world sub-oracles; returns the number of candidates."""
        payloads = self.replay_robust_payloads()
        ensemble_oracle.preload_journal(payloads)
        return len(payloads)

    def __repr__(self) -> str:
        return (
            f"RunJournal({str(self.path)!r}, entries={len(self.entries)}, "
            f"cursor={self._cursor - 1})"
        )
