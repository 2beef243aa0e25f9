"""The campaign engine: one shard queue per campaign directory.

A :class:`CampaignQueue` is the only code that creates and checks a
campaign's manifests, records a shard as done, and writes
``aggregate.json``, ``atlas.json`` and ``telemetry.json``
(:meth:`~CampaignQueue.finalize`).  A local run
(:func:`~repro.campaign.runner.run_campaign`) commits each shard as the
directory's only writer, without a lease; the coordinator service hands
shards to pulling :mod:`~repro.campaign.worker` agents under
time-limited leases — ``acquire`` (expired leases are reclaimed first),
``heartbeat`` (an unknown or expired token is refused, which is how a
worker that lost its lease finds out) and ``release`` (graceful drain).

``commit(shard, summaries, crc, ...)`` is CRC-checked and
**idempotent**: commits are keyed by the payload's content CRC, so a
repeat of identical bytes is a no-op that journals nothing, while
divergent bytes are a loud integrity error (determinism makes divergence
a bug, never a race).  Execution is therefore *at-least-once*: a shard
may run several times across reassignments or resumes, the first commit
wins, and since the artifacts are built only from committed summaries a
fleet campaign is byte-identical to a local one by construction.

**Wearer-grain work stealing** extends the state machine one level
down.  When ``acquire`` finds no pending shard, the queue *splits* a
straggler (the leased shard with the most wearers) into per-wearer
sub-leases: the original holder's lease stays valid — its heartbeats now
return the wearers stolen from under it, which it skips — while idle
workers lease the rest one at a time, **tail-first** (the holder runs
head-first, so the two fronts overlap by at most one wearer).  A commit
against a split shard may cover any subset of its wearers and merges
wearer by wearer under the same CRC rules; the shard seals with an
ordinary commit record once every wearer has landed.

Every lease/renew/expire/release/commit/split/sub-lease is appended to a
CRC-framed :class:`~repro.core.journal.EventLog` (``queue.jsonl``)
*after* its filesystem effects, so a reopened queue recovers every
in-flight lease (which then expires and is reassigned) and every
committed shard (whose summaries are already on disk).
"""

from __future__ import annotations

import hmac
import pathlib
import time
import uuid
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.aggregate import (
    AGGREGATE_FILENAME,
    ATLAS_FILENAME,
    TELEMETRY_FILENAME,
    atlas_payload,
    build_aggregate,
    telemetry_payload,
)
from repro.campaign.shard import shard_assignment
from repro.campaign.spec import CampaignSpec
from repro.core.journal import (
    CAMPAIGN_MANIFEST_FILENAME,
    QUEUE_LOG_FILENAME,
    SHARD_MANIFEST_FILENAME,
    EventLog,
    JournalError,
    dump_json,
    load_campaign_manifest,
    load_campaign_shards,
    payload_crc,
    read_summary,
    shard_directory,
    write_atomic,
    write_campaign_manifest,
    write_shard_manifest,
    write_summary,
)

#: Default lease time-to-live in seconds: long enough for a smoke-preset
#: shard, short enough that a dead worker's shard is back on offer fast.
DEFAULT_LEASE_TTL = 30.0


def mint_token(epoch: int) -> str:
    """A fresh single-use lease capability, stamped with the fencing
    epoch of the coordinator that granted it (``e<epoch>.<random>``).

    The epoch is what makes coordinator handoff safe: a promoted standby
    claims a higher epoch, so grants from a deposed-but-still-running
    primary are recognisable as stale wherever they show up (see
    :func:`token_epoch` and DESIGN.md §14).
    """
    return f"e{int(epoch)}.{uuid.uuid4().hex}"


def token_epoch(token: Optional[str]) -> Optional[int]:
    """The fencing epoch a token was minted under, or None for a token
    that does not carry one (pre-PR-10 journals)."""
    if not token or not token.startswith("e"):
        return None
    head, sep, _ = token.partition(".")
    if not sep:
        return None
    try:
        return int(head[1:])
    except ValueError:
        return None


def tokens_equal(a: Optional[str], b: Optional[str]) -> bool:
    """Constant-time token comparison.

    Lease tokens are bearer capabilities; comparing them with ``==``
    leaks how many leading bytes matched through response timing, which
    is exactly the oracle an attacker needs to forge one byte-by-byte.
    Every token comparison in the fabric routes through here.
    """
    if a is None or b is None:
        return a is None and b is None
    return hmac.compare_digest(
        str(a).encode("utf-8"), str(b).encode("utf-8")
    )


class QueueError(RuntimeError):
    """A queue operation that cannot be honoured; ``status`` maps it to
    an HTTP status when the operation arrived over the wire."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def shard_payload_crc(summaries: Dict[str, dict]) -> str:
    """The content CRC keying a shard commit.

    Computed over the wearer→summary mapping's canonical JSON by both
    the worker (before upload) and the coordinator (on receipt), so a
    corrupted or reordered payload is rejected before it can touch disk,
    and two byte-identical executions of the same shard produce the same
    commit key no matter which worker ran them.
    """
    return payload_crc({"summaries": summaries})


def wearer_payload_crc(summary: dict) -> str:
    """The content CRC keying one wearer's sub-commit (same canonical-
    JSON construction as :func:`shard_payload_crc`, one level down)."""
    return payload_crc({"summary": summary})


def _pending_slot() -> dict:
    """A pending lease slot (a shard's, or one wearer's of a split shard)."""
    return {"state": "pending", "worker": None, "token": None,
            "expires_at": None, "crc": None}


class CampaignQueue:
    """One campaign's shard-grain work queue (see the module docstring).

    All mutation happens on the coordinator's event loop (the HTTP
    service routes synchronously), so there is no internal locking; the
    ``clock`` hook exists for lease-expiry tests and defaults to wall
    time because expiries must survive a coordinator restart.  Wearer
    stealing (see the module docstring) changes who simulates what,
    never the artifacts.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        directory,
        shards: int,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.time,
        epoch: int = 0,
    ) -> None:
        from repro.obs import runtime

        self.spec = spec
        self.directory = pathlib.Path(directory)
        self.fingerprint = spec.fingerprint()
        self.lease_ttl = float(lease_ttl)
        self.clock = clock
        #: Fencing epoch stamped into every minted token.  Outstanding
        #: leases from *earlier* epochs stay valid across a handoff (the
        #: journal replay restores them, so in-flight work commits
        #: without re-simulation); tokens from a *later* epoch than ours
        #: mean this queue belongs to a deposed coordinator → 410.
        self.epoch = int(epoch)
        self.obs = runtime.get_active()
        self._started = clock()

        # wearers_of: shard index → ordered wearer ids (the work items).
        self.shards, self.wearers_of = self._open_directory(
            max(1, int(shards))
        )

        #: shard index → {"state": pending|leased|split|committed, ...}
        self._shards: Dict[int, dict] = {
            index: _pending_slot() for index in self.wearers_of
        }
        #: split shard index → wearer id → sub-lease state (same fields).
        self._subs: Dict[int, Dict[str, dict]] = {}
        #: live token → (shard index, wearer id or None for a whole-shard
        #: lease) — leases are single-use capabilities at either grain.
        self._tokens: Dict[str, Tuple[int, Optional[str]]] = {}
        self._log = EventLog(self.directory / QUEUE_LOG_FILENAME)
        self._replay(self._log.entries)
        # An empty shard has nothing to simulate: commit it immediately
        # (with an empty summary map) so the campaign can complete even
        # when the sharder left holes.
        for index, wearer_ids in self.wearers_of.items():
            if not wearer_ids and self._shards[index]["state"] != "committed":
                self.commit(index, {}, shard_payload_crc({}),
                            worker="coordinator", token=None)

    # -- durable state -----------------------------------------------------------

    def _open_directory(
        self, shards: int
    ) -> Tuple[int, Dict[int, List[str]]]:
        """Create, or reopen, the campaign directory; returns its shard
        count and each shard's ordered wearer ids.

        A fresh directory gets its campaign and shard manifests; an
        existing one must belong to the same campaign, and the shard
        count pinned in its manifest wins over ``shards``.  Either way
        the whole manifest chain is cross-validated before any journal
        is touched.
        """
        if (self.directory / CAMPAIGN_MANIFEST_FILENAME).exists():
            manifest = load_campaign_manifest(self.directory)
            if manifest.get("fingerprint") != self.fingerprint:
                raise JournalError(
                    f"campaign directory {self.directory} belongs to "
                    f"campaign {manifest.get('fingerprint')!r}, not "
                    f"{self.fingerprint!r} — refusing to mix campaigns"
                )
            shards = int(manifest.get("shards", shards))
        else:
            write_campaign_manifest(
                self.directory, self.spec.to_dict(), self.fingerprint, shards
            )
        wearers_of = {
            index: [w.wearer_id for w in wearers]
            for index, wearers in sorted(
                shard_assignment(self.spec, shards).items()
            )
        }
        for index, wearer_ids in wearers_of.items():
            shard_dir = shard_directory(self.directory, index)
            if not (shard_dir / SHARD_MANIFEST_FILENAME).exists():
                write_shard_manifest(
                    self.directory, index, self.fingerprint, wearer_ids
                )
        load_campaign_shards(self.directory)
        return shards, wearers_of

    def _replay(self, entries: List[dict]) -> None:
        """Fold the queue log back into in-memory shard state.

        Commits are final; a lease without a later commit/release/expire
        is restored verbatim (including its wall-clock expiry), so a
        restarted coordinator neither forgets who held a shard nor
        reassigns it before the original TTL has truly run out.  Split
        shards restore their per-wearer sub-state the same way.
        """
        for entry in entries:
            kind = entry.get("kind")
            shard = entry.get("shard")
            if shard not in self._shards:
                continue
            state = self._shards[shard]
            subs = self._subs.get(shard)
            sub = (
                subs.get(entry.get("wearer"))
                if subs is not None and entry.get("wearer") is not None
                else None
            )
            if kind == "lease":
                state.update(
                    state="leased",
                    worker=entry.get("worker"),
                    token=entry.get("token"),
                    expires_at=entry.get("expires_at"),
                )
            elif kind == "renew" and tokens_equal(
                state["token"], entry.get("token")
            ):
                state["expires_at"] = entry.get("expires_at")
            elif kind in ("release", "expire"):
                if state["state"] == "split":
                    # Only the original whole-shard lease went away; the
                    # shard stays split and its wearers stay stealable.
                    state.update(worker=None, token=None, expires_at=None)
                elif state["state"] != "committed":
                    state.update(state="pending", worker=None, token=None,
                                 expires_at=None)
            elif kind == "split":
                if state["state"] != "committed":
                    state["state"] = "split"
                    self._subs[shard] = {
                        wid: _pending_slot() for wid in self.wearers_of[shard]
                    }
            elif kind == "sub_lease" and sub is not None:
                if sub["state"] != "committed":
                    sub.update(
                        state="leased",
                        worker=entry.get("worker"),
                        token=entry.get("token"),
                        expires_at=entry.get("expires_at"),
                    )
            elif kind == "sub_renew" and sub is not None:
                if tokens_equal(sub["token"], entry.get("token")):
                    sub["expires_at"] = entry.get("expires_at")
            elif kind in ("sub_release", "sub_expire") and sub is not None:
                if sub["state"] != "committed":
                    sub.update(state="pending", worker=None, token=None,
                               expires_at=None)
            elif kind == "sub_commit" and sub is not None:
                sub.update(
                    state="committed", worker=entry.get("worker"),
                    token=None, expires_at=None, crc=entry.get("crc"),
                )
            elif kind == "commit":
                state.update(
                    state="committed",
                    worker=entry.get("worker"),
                    token=None,
                    expires_at=None,
                    crc=entry.get("crc"),
                )
                self._subs.pop(shard, None)
        self._tokens = {}
        for index, s in self._shards.items():
            if s["state"] in ("leased", "split") and s["token"]:
                self._tokens[s["token"]] = (index, None)
        for index, subs in self._subs.items():
            for wid, s in subs.items():
                if s["state"] == "leased" and s["token"]:
                    self._tokens[s["token"]] = (index, wid)

    def _record(self, kind: str, **fields) -> None:
        self._log.append({"kind": kind, "campaign": self.fingerprint,
                          **fields})

    # -- lease state machine -----------------------------------------------------

    def reclaim_expired(self) -> List[int]:
        """Return every shard/wearer whose lease TTL has lapsed to
        ``pending``.

        Called lazily at the top of every queue interaction — the
        coordinator needs no timer thread because a reclaim only matters
        when someone is around to observe or acquire.
        """
        now = self.clock()

        def lapsed(slot: dict) -> bool:
            return slot["expires_at"] is not None and slot["expires_at"] <= now

        ended = [
            (index, None) for index, state in self._shards.items()
            if state["state"] in ("leased", "split") and lapsed(state)
        ] + [
            (index, wid) for index, subs in self._subs.items()
            for wid, sub in subs.items()
            if sub["state"] == "leased" and lapsed(sub)
        ]
        for index, wearer in ended:
            self._end_lease("expire", index, wearer)
        return [index for index, _ in ended]

    def _end_lease(
        self, kind: str, index: int, wearer: Optional[str], **fields
    ) -> str:
        """Journal, count and apply the end (``expire`` or ``release``)
        of the lease on shard ``index`` — or on its wearer ``wearer`` of
        a split shard.  The slot goes back to ``pending``, except that a
        split shard stays split: when its original holder goes away, the
        remaining wearers are already individually stealable.  Returns
        the slot's new state."""
        if wearer is None:
            slot, where = self._shards[index], {"shard": index}
        else:
            slot = self._subs[index][wearer]
            where = {"shard": index, "wearer": wearer}
        self._tokens.pop(slot["token"], None)
        self._record(
            kind if wearer is None else f"sub_{kind}", **where,
            token=slot["token"], worker=slot["worker"], **fields,
        )
        self.obs.counter(
            "queue.expirations" if kind == "expire" else "queue.releases"
        ).inc()
        self.obs.event(
            f"queue.{kind}", campaign=self.fingerprint, **where,
            worker=slot["worker"], **fields,
        )
        if slot["state"] != "split":
            slot["state"] = "pending"
        slot.update(worker=None, token=None, expires_at=None)
        return slot["state"]

    def work_item(
        self, index: int, wearer_ids: Optional[List[str]] = None
    ) -> dict:
        """What running shard ``index`` (or ``wearer_ids`` of it) takes:
        campaign, name, preset, shard and wearer specs.  A lease is this
        plus its token and TTL."""
        wanted = set(
            self.wearers_of[index] if wearer_ids is None else wearer_ids
        )
        return {
            "campaign": self.fingerprint,
            "name": self.spec.name,
            "preset": self.spec.preset,
            "shard": index,
            "wearers": [
                w.to_dict() for w in self.spec.wearers
                if w.wearer_id in wanted
            ],
        }

    def acquire(self, worker: str) -> Optional[dict]:
        """Lease work to ``worker`` (None = nothing to hand out).

        Preference order: the lowest pending shard (a whole-shard lease:
        its :meth:`work_item` plus token and TTL); then a pending wearer
        of an already-split shard; finally, splitting the biggest leased
        straggler to steal from.
        """
        self.reclaim_expired()
        for index in sorted(self._shards):
            state = self._shards[index]
            if state["state"] != "pending":
                continue
            token = mint_token(self.epoch)
            expires_at = self.clock() + self.lease_ttl
            state.update(state="leased", worker=worker, token=token,
                         expires_at=expires_at)
            self._tokens[token] = (index, None)
            self._record(
                "lease", shard=index, worker=worker, token=token,
                ttl=self.lease_ttl, expires_at=expires_at,
            )
            self.obs.counter("queue.leases").inc()
            self.obs.event(
                "queue.lease", campaign=self.fingerprint, shard=index,
                worker=worker,
            )
            return {
                **self.work_item(index), "token": token, "ttl": self.lease_ttl
            }
        lease = self._acquire_sub(worker)
        if lease is not None:
            return lease
        candidate = None
        for index in sorted(self._shards):
            state = self._shards[index]
            if (
                state["state"] == "leased"
                and len(self.wearers_of[index]) >= 2
                and state["worker"] != worker
            ):
                if candidate is None or (
                    len(self.wearers_of[index])
                    > len(self.wearers_of[candidate])
                ):
                    candidate = index
        if candidate is None:
            return None
        self._split(candidate)
        return self._acquire_sub(worker)

    def _split(self, index: int) -> None:
        """Decompose a leased straggler into per-wearer sub-leases.

        The original holder keeps its lease — its next heartbeat will
        carry the stolen-wearer set so it can skip them — and every
        wearer becomes individually pending underneath.
        """
        state = self._shards[index]
        self._subs[index] = {
            wid: _pending_slot() for wid in self.wearers_of[index]
        }
        state["state"] = "split"
        self._record("split", shard=index, worker=state["worker"],
                     token=state["token"])
        self.obs.counter("queue.splits").inc()
        self.obs.event(
            "queue.split", campaign=self.fingerprint, shard=index,
            worker=state["worker"], wearers=len(self.wearers_of[index]),
        )

    def _acquire_sub(self, worker: str) -> Optional[dict]:
        """Grant one pending wearer of a split shard, tail-first.

        Tail-first because the original holder runs its wearer list
        head-first: granting from the opposite end means the two fronts
        meet with at most one wearer simulated twice.
        """
        for index in sorted(self._subs):
            if self._shards[index]["state"] != "split":
                continue
            subs = self._subs[index]
            for wid in reversed(self.wearers_of[index]):
                sub = subs[wid]
                if sub["state"] != "pending":
                    continue
                token = mint_token(self.epoch)
                expires_at = self.clock() + self.lease_ttl
                sub.update(state="leased", worker=worker, token=token,
                           expires_at=expires_at)
                self._tokens[token] = (index, wid)
                self._record(
                    "sub_lease", shard=index, wearer=wid, worker=worker,
                    token=token, ttl=self.lease_ttl, expires_at=expires_at,
                )
                self.obs.counter("queue.steals").inc()
                self.obs.event(
                    "queue.steal", campaign=self.fingerprint, shard=index,
                    wearer=wid, worker=worker,
                )
                return {
                    **self.work_item(index, [wid]),
                    "sub": wid,
                    "token": token,
                    "ttl": self.lease_ttl,
                }
        return None

    def _lease_for(self, token: str) -> Tuple[int, Optional[str]]:
        self.reclaim_expired()
        # Linear constant-time scan instead of a dict lookup: hashing a
        # presented token would shortcut on the first differing byte and
        # reopen the timing channel tokens_equal exists to close.  Live
        # token counts are O(workers), so the scan is cheap.
        for live_token, target in self._tokens.items():
            if tokens_equal(live_token, token):
                return target
        presented = token_epoch(token)
        if presented is not None and presented > self.epoch:
            raise QueueError(
                410,
                f"lease token carries fencing epoch {presented} but this "
                f"coordinator is at epoch {self.epoch} — it has been "
                "superseded; fail over to the current coordinator",
            )
        raise QueueError(
            410,
            "lease is gone (expired, released, or never granted) — "
            "the shard may have been reassigned",
        )

    def stolen_wearers(self, index: int) -> List[str]:
        """Wearers of a split shard the original holder should skip:
        sub-committed already, or sub-leased to someone else."""
        subs = self._subs.get(index)
        if not subs:
            return []
        holder = self._shards[index]["worker"]
        return [
            wid
            for wid in self.wearers_of[index]
            if subs[wid]["state"] == "committed"
            or (
                subs[wid]["state"] == "leased"
                and subs[wid]["worker"] != holder
            )
        ]

    def heartbeat(self, token: str) -> dict:
        """Renew a live lease; returns the new expiry.

        For the original holder of a split shard the response also
        carries ``stolen`` — the wearers it should skip because thieves
        own or already committed them.  That piggyback is what turns
        stealing into an actual wall-clock win: without it the original
        would re-simulate every stolen wearer.
        """
        index, wearer = self._lease_for(token)
        expires_at = self.clock() + self.lease_ttl
        if wearer is None:
            state = self._shards[index]
            state["expires_at"] = expires_at
            self._record("renew", shard=index, token=token,
                         expires_at=expires_at)
        else:
            sub = self._subs[index][wearer]
            sub["expires_at"] = expires_at
            self._record("sub_renew", shard=index, wearer=wearer,
                         token=token, expires_at=expires_at)
        self.obs.counter("queue.renewals").inc()
        out = {
            "shard": index,
            "ttl": self.lease_ttl,
            "expires_in": self.lease_ttl,
        }
        if wearer is not None:
            out["wearer"] = wearer
        else:
            stolen = self.stolen_wearers(index)
            if stolen:
                out["stolen"] = stolen
        return out

    def release(self, token: str, reason: str = "released") -> dict:
        """Voluntarily return a leased shard (or stolen wearer) to the
        pending pool."""
        index, wearer = self._lease_for(token)
        state = self._end_lease("release", index, wearer, reason=reason)
        if wearer is not None:
            return {"shard": index, "wearer": wearer, "state": state}
        return {"shard": index, "state": state}

    # -- commits -----------------------------------------------------------------

    def commit(
        self,
        shard: int,
        summaries: Dict[str, dict],
        crc: str,
        worker: str,
        token: Optional[str] = None,
    ) -> dict:
        """Commit per-wearer summaries (idempotent, CRC-keyed).

        A stale token is *not* an error: determinism means a worker that
        lost its lease still produced the same bytes the replacement
        will, so first-writer-wins and every later identical commit is a
        no-op.  Only *divergent* bytes for the same shard are refused —
        that is data corruption or a spec mismatch, never a benign race.

        An unsplit shard requires exact wearer cover (the whole-shard
        contract); a split shard accepts any subset and merges wearer by
        wearer through :meth:`_commit_split`.
        """
        if shard not in self._shards:
            raise QueueError(404, f"campaign has no shard {shard}")
        expected_crc = shard_payload_crc(summaries)
        if crc != expected_crc:
            raise QueueError(
                400,
                f"shard {shard} payload CRC {crc!r} does not match its "
                f"content ({expected_crc!r}) — refusing a corrupt upload",
            )
        state = self._shards[shard]
        if state["state"] == "split":
            return self._commit_split(shard, summaries, worker, token)
        expected_wearers = sorted(self.wearers_of[shard])
        if sorted(summaries) != expected_wearers:
            if state["state"] == "committed" and not (
                set(summaries) - set(expected_wearers)
            ):
                # A straggler committing the non-stolen remainder of a
                # shard that thieves already finished: per-wearer bytes
                # decide between benign duplicate and divergence.
                return self._commit_late_subset(shard, summaries, worker)
            raise QueueError(
                400,
                f"shard {shard} commit must cover exactly its wearers "
                f"{expected_wearers}, got {sorted(summaries)}",
            )
        if state["state"] == "committed":
            if state["crc"] == crc:
                self.obs.counter("queue.duplicate_commits").inc()
                self.obs.event(
                    "queue.commit", campaign=self.fingerprint, shard=shard,
                    worker=worker, duplicate=True,
                )
                return {"shard": shard, "state": "committed",
                        "duplicate": True}
            self.obs.counter("queue.divergent_commits").inc()
            raise QueueError(
                409,
                f"shard {shard} is already committed with CRC "
                f"{state['crc']!r}; a divergent commit ({crc!r}) means "
                "two executions of the same shard disagreed — integrity "
                "violation, refusing to overwrite",
            )

        # Summaries land on disk before the commit record: a crash in
        # between leaves the shard uncommitted and the recommit simply
        # rewrites identical files.
        shard_dir = shard_directory(self.directory, shard)
        for wearer_id in self.wearers_of[shard]:
            write_summary(shard_dir / wearer_id, summaries[wearer_id])
        # Invalidate every live token for this shard — including a
        # reassigned lease held by someone else: their next heartbeat
        # gets 410 and they learn the shard is already done.
        for live_token, (live_index, _wearer) in list(self._tokens.items()):
            if live_index == shard:
                self._tokens.pop(live_token, None)
        self._record("commit", shard=shard, worker=worker, crc=crc,
                     token=token)
        state.update(state="committed", worker=worker, token=None,
                     expires_at=None, crc=crc)
        self.obs.counter("queue.commits").inc()
        self.obs.event(
            "queue.commit", campaign=self.fingerprint, shard=shard,
            worker=worker, duplicate=False,
        )
        return {"shard": shard, "state": "committed", "duplicate": False}

    def _commit_split(
        self,
        shard: int,
        summaries: Dict[str, dict],
        worker: str,
        token: Optional[str],
    ) -> dict:
        """Merge a commit into a split shard, wearer by wearer.

        The payload may cover any subset of the shard's wearers (the
        original holder commits everything it did not skip, a thief
        commits exactly its stolen wearer); each wearer resolves
        independently under the same CRC rules — first writer wins,
        identical repeats are no-ops, divergence is a 409 refused
        *before* any filesystem effect.
        """
        subs = self._subs[shard]
        unknown = sorted(set(summaries) - set(self.wearers_of[shard]))
        if unknown:
            raise QueueError(
                400, f"shard {shard} has no wearer(s) {unknown}"
            )
        crcs = {
            wid: wearer_payload_crc(summaries[wid]) for wid in summaries
        }
        for wid, crc in crcs.items():
            sub = subs[wid]
            if sub["state"] == "committed" and sub["crc"] != crc:
                self.obs.counter("queue.divergent_commits").inc()
                raise QueueError(
                    409,
                    f"wearer {wid!r} of shard {shard} is already "
                    f"committed with CRC {sub['crc']!r}; a divergent "
                    f"commit ({crc!r}) means two executions disagreed — "
                    "integrity violation, refusing to overwrite",
                )
        shard_dir = shard_directory(self.directory, shard)
        fresh: List[str] = []
        duplicates: List[str] = []
        for wid in self.wearers_of[shard]:
            if wid not in summaries:
                continue
            sub = subs[wid]
            if sub["state"] == "committed":
                duplicates.append(wid)
                self.obs.counter("queue.duplicate_commits").inc()
                continue
            write_summary(shard_dir / wid, summaries[wid])
            if sub["token"]:
                self._tokens.pop(sub["token"], None)
            self._record("sub_commit", shard=shard, wearer=wid,
                         worker=worker, crc=crcs[wid], token=token)
            sub.update(state="committed", worker=worker, token=None,
                       expires_at=None, crc=crcs[wid])
            fresh.append(wid)
            self.obs.counter("queue.sub_commits").inc()
            self.obs.event(
                "queue.sub_commit", campaign=self.fingerprint, shard=shard,
                wearer=wid, worker=worker,
            )
        outcome = {
            "shard": shard,
            "state": "split",
            "committed_wearers": fresh,
            "duplicate_wearers": duplicates,
            "duplicate": bool(duplicates) and not fresh,
        }
        if all(sub["state"] == "committed" for sub in subs.values()):
            # Every wearer has landed: seal the shard with an ordinary
            # shard-level commit record keyed by the merged content CRC —
            # replay and telemetry cannot tell a merged shard from an
            # unsplit one.
            merged = {
                wid: read_summary(shard_dir / wid)
                for wid in self.wearers_of[shard]
            }
            full_crc = shard_payload_crc(merged)
            for live_token, (live_index, _w) in list(self._tokens.items()):
                if live_index == shard:
                    self._tokens.pop(live_token, None)
            self._record("commit", shard=shard, worker=worker,
                         crc=full_crc, token=token)
            self._shards[shard].update(
                state="committed", worker=worker, token=None,
                expires_at=None, crc=full_crc,
            )
            self._subs.pop(shard, None)
            self.obs.counter("queue.commits").inc()
            self.obs.event(
                "queue.commit", campaign=self.fingerprint, shard=shard,
                worker=worker, duplicate=False, merged=True,
            )
            outcome["state"] = "committed"
        return outcome

    def _commit_late_subset(
        self, shard: int, summaries: Dict[str, dict], worker: str
    ) -> dict:
        """A subset commit against an already-committed shard: compare
        against the bytes on disk wearer by wearer (duplicate no-op when
        identical, 409 when divergent)."""
        shard_dir = shard_directory(self.directory, shard)
        for wid in sorted(summaries):
            committed = read_summary(shard_dir / wid)
            if wearer_payload_crc(committed) != wearer_payload_crc(
                summaries[wid]
            ):
                self.obs.counter("queue.divergent_commits").inc()
                raise QueueError(
                    409,
                    f"wearer {wid!r} of committed shard {shard} received "
                    "divergent bytes — integrity violation, refusing to "
                    "overwrite",
                )
        self.obs.counter("queue.duplicate_commits").inc()
        self.obs.event(
            "queue.commit", campaign=self.fingerprint, shard=shard,
            worker=worker, duplicate=True,
        )
        return {"shard": shard, "state": "committed", "duplicate": True,
                "duplicate_wearers": sorted(summaries)}

    # -- aggregation -------------------------------------------------------------

    @property
    def done(self) -> bool:
        return all(s["state"] == "committed" for s in self._shards.values())

    def pending_shards(self) -> List[int]:
        """Shards nobody holds, has split or has committed, lowest first."""
        return [
            index for index in sorted(self._shards)
            if self._shards[index]["state"] == "pending"
        ]

    def counts(self) -> Dict[str, int]:
        tally = {"pending": 0, "leased": 0, "split": 0, "committed": 0}
        for state in self._shards.values():
            tally[state["state"]] += 1
        return tally

    def shard_states(self) -> List[dict]:
        """Per-shard state for the status endpoint (operator view)."""
        self.reclaim_expired()
        now = self.clock()
        out = []
        for index in sorted(self._shards):
            state = self._shards[index]
            entry = {
                "index": index,
                "state": state["state"],
                "wearers": len(self.wearers_of[index]),
            }
            if state["state"] == "leased":
                entry["worker"] = state["worker"]
                entry["expires_in"] = round(state["expires_at"] - now, 3)
            elif state["state"] == "split":
                entry["worker"] = state["worker"]
                if state["expires_at"] is not None:
                    entry["expires_in"] = round(state["expires_at"] - now, 3)
                tally = {"pending": 0, "leased": 0, "committed": 0}
                for sub in self._subs.get(index, {}).values():
                    tally[sub["state"]] += 1
                entry["sub"] = tally
            elif state["state"] == "committed":
                entry["worker"] = state["worker"]
                entry["crc"] = state["crc"]
            out.append(entry)
        return out

    def committed_summaries(self) -> Dict[str, dict]:
        """Read every committed wearer summary back off disk (the files
        are the truth — they survive coordinator restarts)."""
        summaries: Dict[str, dict] = {}
        for index, state in self._shards.items():
            if state["state"] != "committed":
                continue
            shard_dir = shard_directory(self.directory, index)
            for wearer_id in self.wearers_of[index]:
                summaries[wearer_id] = read_summary(shard_dir / wearer_id)
        return summaries

    def worker_commits(self) -> Dict[str, int]:
        """Distinct workers → shards they committed (telemetry only)."""
        tally: Dict[str, int] = {}
        for entry in self._log.entries:
            if entry.get("kind") == "commit":
                worker = str(entry.get("worker", "?"))
                tally[worker] = tally.get(worker, 0) + 1
        return tally

    def finalize(self, **telemetry) -> Tuple[dict, dict]:
        """Write the three artifacts once every shard has committed;
        returns ``(aggregate, telemetry)``.

        The aggregate and atlas are
        :func:`~repro.campaign.aggregate.build_aggregate` over the
        committed summaries, so how shards were executed never shows in
        their bytes.  ``telemetry.json`` holds the rest: wall clock since
        the queue opened plus, by default, the census of committing
        workers; a local run overrides ``jobs``/``pool_stats`` with its
        pool's and adds ``resumed_wearers``.
        """
        if not self.done:
            raise QueueError(
                409,
                f"campaign {self.fingerprint} is not fully committed: "
                f"{self.counts()}",
            )
        workers = self.worker_commits()
        telemetry = {
            "jobs": len(workers), "pool_stats": {"workers": workers},
            **telemetry,
        }
        aggregate = build_aggregate(self.spec, self.committed_summaries())
        write_atomic(self.directory / AGGREGATE_FILENAME, dump_json(aggregate))
        write_atomic(
            self.directory / ATLAS_FILENAME, dump_json(atlas_payload(aggregate))
        )
        telemetry = telemetry_payload(
            self.spec, aggregate, wall_seconds=self.clock() - self._started,
            shards=self.shards, **telemetry,
        )
        write_atomic(self.directory / TELEMETRY_FILENAME, dump_json(telemetry))
        self.obs.event(
            "queue.done",
            campaign=self.fingerprint,
            aggregate_fingerprint=aggregate["fingerprint"],
            feasible=aggregate["feasible"],
            wearers=aggregate["wearers"],
        )
        return aggregate, telemetry

    def close(self) -> None:
        self._log.close()

    def __repr__(self) -> str:
        return (
            f"CampaignQueue({self.fingerprint!r}, shards={self.shards}, "
            f"{self.counts()})"
        )
