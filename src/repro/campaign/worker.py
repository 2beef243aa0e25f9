"""Worker agent: turn any host into simulation capacity for the fabric.

``hi-explore worker --coordinator URL --workdir DIR`` runs a pull→run→
commit loop against the campaign coordinator's lease endpoints
(:mod:`repro.campaign.queue` via :mod:`repro.campaign.service`):

1. **pull** — one ``POST /fabric/sync`` round-trip both renews any held
   lease and acquires new work (the coordinator hands out shards
   round-robin across active campaigns, with cached wearer summaries
   prefetched onto the lease payload);
2. **run** — execute the leased shard's wearers through the *same*
   :func:`repro.campaign.runner.run_wearer_task` the single-host runner
   uses, journaled under ``<workdir>/<campaign>/shards/shard-NN/`` — so
   a worker that inherits a dead worker's shard (same workdir, e.g. a
   shared scratch mount or a localhost fleet) resumes each wearer from
   its PR 5 journal and pays only the uncommitted tail, never a full
   re-simulation.  A wearer whose summary the coordinator prefetched
   onto the lease from its wearer cache is a file write, not a
   simulation; the worker keeps no cache of its own.  A
   background thread heartbeats the lease the whole time, and on a
   *split* shard the heartbeat response names the wearers thieves have
   taken, which the run loop then skips;
3. **commit** — upload the per-wearer summaries with a content CRC.
   Commits are idempotent on the coordinator, so losing the lease
   mid-run is harmless: the worker still commits what it computed, and
   whichever execution lands first wins (the bytes are identical by
   determinism).  On a split shard any subset commits cleanly.

All coordinator traffic rides **one persistent keep-alive connection**
(:class:`CoordinatorClient` reconnects transparently when the server
ages an idle socket out), so a worker tick costs one round-trip, not
one TCP handshake per request.

The loop retries with capped exponential backoff whenever the
coordinator is unreachable, and drains gracefully on SIGTERM/SIGINT:
the first signal lets the current shard finish and commit, the second
releases the lease and exits immediately.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import random
import signal
import socket
import threading
import time
import urllib.parse
from typing import Dict, List, Optional, Tuple

from repro.campaign.auth import FabricAuth, resolve_secret
from repro.campaign.queue import shard_payload_crc

#: Worker-side ceiling on coordinator silence: after this many failed
#: RPC attempts in a row the current operation is abandoned (the lease
#: will expire server-side and the shard is reassigned; journals remain).
MAX_RPC_ATTEMPTS = 8


class CoordinatorUnavailable(ConnectionError):
    """The coordinator could not be reached (retry with backoff)."""


class CommitDiverged(RuntimeError):
    """The coordinator refused our commit as divergent — a determinism
    violation that must be loud, never retried into oblivion."""


class CoordinatorClient:
    """Stdlib JSON-over-HTTP client on one persistent keep-alive
    connection.

    The connection opens lazily, is shared by every request (a lock
    serializes the heartbeat thread against the main loop — HTTP/1.1
    without pipelining is strictly one exchange at a time), and is
    re-opened transparently exactly once when a request fails on what
    is most likely a socket the server idled out.  That single retry is
    safe because the whole fabric protocol is idempotent: a heartbeat
    renews, a commit first-writer-wins, and an acquire whose response
    was lost leaves a lease that simply expires and is reassigned.

    ``requests`` / ``connections_opened`` counters make the savings
    measurable (``tests/test_campaign_fleet.py`` asserts at least three
    requests per connection).

    ``base_url`` may be a **comma-separated ordered list** of
    coordinators (primary first, standbys after) — a transport failure
    walks the list one endpoint at a time before giving up, and
    :meth:`rotate` lets the agent advance deliberately when a
    coordinator answers "I am fenced/standby".  With ``auth`` set,
    every request (and every retry, with a fresh nonce — a response
    lost in flight must not burn the retry's nonce) carries the HMAC
    signature headers from :mod:`repro.campaign.auth`.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        auth: Optional[FabricAuth] = None,
    ) -> None:
        self.endpoints: List[Tuple[str, int]] = []
        for url in str(base_url).split(","):
            url = url.strip()
            if not url:
                continue
            parsed = urllib.parse.urlsplit(url)
            if parsed.scheme not in ("http", ""):
                raise ValueError(
                    f"coordinator URL must be http://, got {url!r}"
                )
            netloc = parsed.netloc or parsed.path
            host, _, port = netloc.partition(":")
            self.endpoints.append(
                (host or "127.0.0.1", int(port) if port else 80)
            )
        if not self.endpoints:
            raise ValueError(f"no coordinator in {base_url!r}")
        self.timeout = timeout
        self.auth = auth
        self.requests = 0
        self.connections_opened = 0
        self.rotations = 0
        self._active = 0
        self._conn: Optional[http.client.HTTPConnection] = None
        self._lock = threading.Lock()

    @property
    def host(self) -> str:
        return self.endpoints[self._active][0]

    @property
    def port(self) -> int:
        return self.endpoints[self._active][1]

    def rotate(self) -> None:
        """Advance to the next coordinator in the ordered list (no-op
        with a single endpoint)."""
        with self._lock:
            self._rotate_locked()

    def _rotate_locked(self) -> None:
        if len(self.endpoints) > 1:
            self._drop_connection()
            self._active = (self._active + 1) % len(self.endpoints)
            self.rotations += 1

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self.connections_opened += 1
        return self._conn

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def _roundtrip(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, dict]:
        conn = self._connection()
        headers = {"Content-Type": "application/json"}
        if self.auth is not None:
            headers.update(self.auth.sign(method, path, body or b""))
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        if response.will_close:
            # The server asked to close (or spoke a pre-keep-alive
            # dialect): honor it so the next request starts clean.
            self._drop_connection()
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            decoded = {"error": f"non-JSON response: {raw[:200]!r}"}
        return response.status, decoded

    def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, dict]:
        body = None if payload is None else json.dumps(payload).encode()
        errors = (
            ConnectionError,
            socket.timeout,
            http.client.HTTPException,
            OSError,
        )
        with self._lock:
            self.requests += 1
            try:
                return self._roundtrip(method, path, body)
            except errors:
                # A kept-alive socket the server quietly aged out fails
                # exactly like this; a fresh connection on the same
                # endpoint tells a stale socket apart from a coordinator
                # that is really gone — and a really-gone coordinator is
                # what the rest of the ordered list is for.  Every retry
                # is safe: the whole fabric protocol is idempotent.
                self._drop_connection()
                last: Optional[Exception] = None
                for _ in range(len(self.endpoints)):
                    try:
                        return self._roundtrip(method, path, body)
                    except errors as exc:
                        last = exc
                        self._drop_connection()
                        self._rotate_locked()
                raise CoordinatorUnavailable(
                    f"{method} {path}: {last}"
                ) from None

    def close(self) -> None:
        with self._lock:
            self._drop_connection()


class WorkerAgent:
    """One pull→run→commit loop bound to a coordinator and a workdir."""

    def __init__(
        self,
        coordinator: str,
        workdir,
        name: Optional[str] = None,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        batch_mode: str = "auto",
        poll_interval: float = 1.0,
        backoff_base: float = 0.2,
        backoff_cap: float = 15.0,
        exit_idle: Optional[float] = None,
        client: Optional[CoordinatorClient] = None,
        throttle_s: float = 0.0,
        fabric_secret: Optional[str] = None,
        rpc_timeout: float = 30.0,
    ) -> None:
        from repro.obs import runtime

        secret = resolve_secret(fabric_secret)
        self.auth = FabricAuth(secret) if secret else None
        self.client = client or CoordinatorClient(
            coordinator, timeout=rpc_timeout, auth=self.auth
        )
        self.workdir = pathlib.Path(workdir)
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.jobs = max(1, int(jobs))
        self.cache_dir = cache_dir
        self.batch_mode = batch_mode
        self.poll_interval = poll_interval
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.exit_idle = exit_idle
        #: Artificial delay after each wearer: models a slow or loaded
        #: host (the straggler the work-stealing path exists for) in
        #: tests without needing heterogeneous hardware.
        self.throttle_s = max(0.0, float(throttle_s))
        self.obs = runtime.get_active()
        #: Backoff jitter source — deliberately NOT the global RNG (it
        #: must never perturb simulation determinism) and seeded per
        #: worker name so two workers' retry schedules decorrelate.
        self._rng = random.Random(f"{self.name}/backoff")
        self.shards_committed = 0
        self.wearers_run = 0
        self.wearers_resumed = 0
        self.wearers_skipped = 0
        self._draining = False
        self._stop_now = False
        self._lease_lost = threading.Event()
        #: Wearers of the *current* split shard that thieves own or have
        #: committed (fed by heartbeat responses, read by the run loop).
        self._stolen_wearers: set = set()
        self._stolen_lock = threading.Lock()

    # -- signals -----------------------------------------------------------------

    def install_signal_handlers(self) -> None:
        """First SIGTERM/SIGINT: finish + commit the current shard, then
        exit.  Second: release the lease and exit immediately."""

        def _handler(signum, frame):
            if self._draining:
                self._stop_now = True
            else:
                self._draining = True
                self._log("drain requested: finishing current lease")

        try:
            signal.signal(signal.SIGTERM, _handler)
            signal.signal(signal.SIGINT, _handler)
        except ValueError:
            # Not the main thread (in-process agents in tests): signals
            # go to the host process; drain is driven programmatically.
            pass

    def _log(self, message: str) -> None:
        print(f"worker {self.name}: {message}", flush=True)

    # -- RPC with retry/backoff --------------------------------------------------

    def _next_delay(self, prev: float) -> float:
        """Decorrelated-jitter backoff: ``uniform(base, prev*3)`` capped.

        Plain doubling synchronizes a fleet — every worker that failed
        together retries together, which is exactly the thundering herd
        a recovering (or 429-saturated) coordinator cannot absorb.
        Decorrelating from a per-worker RNG spreads the retry instants
        while keeping the same expected growth.
        """
        return min(
            self.backoff_cap,
            self._rng.uniform(
                self.backoff_base, max(prev * 3, self.backoff_base)
            ),
        )

    def _rpc(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        attempts: int = MAX_RPC_ATTEMPTS,
    ) -> Tuple[int, dict]:
        """One coordinator call, retried through unavailability windows
        with capped decorrelated-jitter backoff.  Also absorbs the two
        fleet-level "not you, not now" answers: **429** (backpressure —
        honour the server's ``Retry-After`` plus jitter) and
        **503/fenced** (a standby or deposed coordinator — rotate to the
        next endpoint in the ordered list and retry).  Raises
        :class:`CoordinatorUnavailable` only after ``attempts`` failures
        in a row."""
        delay = self.backoff_base
        for attempt in range(attempts):
            last = attempt == attempts - 1 or self._stop_now
            try:
                status, response = self.client.request(
                    method, path, payload
                )
            except CoordinatorUnavailable as exc:
                if last:
                    raise
                self.obs.counter("worker.rpc_retries").inc()
                self._log(
                    f"coordinator unavailable ({exc}); retry in "
                    f"{delay:.1f}s"
                )
                time.sleep(delay)
                delay = self._next_delay(delay)
                continue
            if status == 429 and not last:
                # Saturated, not broken: wait what the coordinator asked
                # for, plus jitter so the fleet does not re-arrive as one
                # synchronized wave.
                retry_after = float(
                    response.get("retry_after") or self.backoff_base
                )
                delay = self._next_delay(delay)
                wait = retry_after + delay
                self.obs.counter("worker.backpressure_waits").inc()
                self._log(
                    f"coordinator saturated (429); backing off {wait:.1f}s"
                )
                time.sleep(wait)
                continue
            if (
                not last
                and (status == 503 or response.get("fenced"))
                and len(self.client.endpoints) > 1
            ):
                # A standby (503) or a deposed ex-primary (fenced 410):
                # the answer lives at another endpoint in the list.
                self.client.rotate()
                self.obs.counter("worker.failovers").inc()
                self._log(
                    f"coordinator refused ({status}: "
                    f"{response.get('error')}); failing over to "
                    f"http://{self.client.host}:{self.client.port}"
                )
                time.sleep(delay)
                delay = self._next_delay(delay)
                continue
            return status, response
        raise CoordinatorUnavailable(f"{method} {path}: attempts exhausted")

    # -- pull --------------------------------------------------------------------

    def _try_acquire(self) -> Optional[Tuple[str, dict]]:
        """One batched sync round-trip: any work anywhere → one lease."""
        status, payload = self._rpc(
            "POST", "/fabric/sync",
            {"worker": self.name, "acquire": True, "heartbeats": []},
        )
        if status != 200:
            return None
        lease = payload.get("lease")
        if not lease:
            return None
        campaign_id = str(payload.get("campaign") or lease.get("campaign"))
        return campaign_id, lease

    # -- run ---------------------------------------------------------------------

    def _heartbeat_loop(
        self, campaign_id: str, token: str, ttl: float,
        stop: threading.Event,
    ) -> None:
        interval = max(0.05, ttl / 3.0)
        while not stop.wait(interval):
            try:
                status, payload = self.client.request(
                    "POST", "/fabric/sync",
                    {
                        "worker": self.name,
                        "acquire": False,
                        "heartbeats": [
                            {"campaign": campaign_id, "token": token}
                        ],
                    },
                )
            except CoordinatorUnavailable:
                # Transient: the lease may still be alive; keep trying
                # until the run finishes or the TTL truly lapses.
                self.obs.counter("worker.heartbeat_misses").inc()
                continue
            if status != 200:
                self.obs.counter("worker.heartbeat_misses").inc()
                continue
            entries = payload.get("heartbeats") or [{}]
            entry = entries[0] if isinstance(entries[0], dict) else {}
            if entry.get("status") == 410:
                self._lease_lost.set()
                self.obs.counter("worker.leases_lost").inc()
                return
            stolen = entry.get("stolen")
            if stolen:
                # Thieves took (or finished) these wearers of our split
                # shard; the run loop skips whichever it has not started.
                with self._stolen_lock:
                    self._stolen_wearers.update(stolen)
            self.obs.counter("worker.heartbeats").inc()

    def _is_stolen(self, wearer_id: str) -> bool:
        with self._stolen_lock:
            return wearer_id in self._stolen_wearers

    def _run_shard(self, campaign_id: str, lease: dict) -> bool:
        """Execute one leased shard (or stolen wearer) and commit it.
        Returns True when the commit landed (duplicates included)."""
        # The runner imports the simulator: a worker loads it with its
        # first lease, never while it waits for one.
        from repro.campaign.runner import run_wearer_task, wearer_tasks

        token = lease["token"]
        shard = lease["shard"]
        is_sub = bool(lease.get("sub"))
        self._lease_lost.clear()
        with self._stolen_lock:
            self._stolen_wearers = set()
        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(campaign_id, token, float(lease["ttl"]), stop_heartbeat),
            daemon=True,
        )
        heartbeat.start()
        self.obs.event(
            "worker.lease", worker=self.name, campaign=campaign_id,
            shard=shard, wearers=len(lease["wearers"]),
            stolen=is_sub,
        )
        self._log(
            ("stole wearer "
             f"{lease['sub']} of shard {shard} of {campaign_id}")
            if is_sub
            else (
                f"leased shard {shard} of {campaign_id} "
                f"({len(lease['wearers'])} wearer(s))"
            )
        )
        campaign_root = self.workdir / lease["campaign"]
        if is_sub:
            # A stolen wearer must not share run directories with the
            # original holder (same-host fleets share workdirs, and a
            # journal is single-writer): thieves run in their own
            # namespace.  Byte-identity makes the duplicate dirs cheap.
            campaign_root = campaign_root / "steal" / self.name
        skipped: List[str] = []
        try:
            tasks = wearer_tasks(
                lease, campaign_root, self.cache_dir, self.batch_mode
            )
            results = []
            if self.jobs > 1 and len(tasks) > 1:
                # Pool path: tasks fan out up front, so mid-flight steal
                # notices cannot retract work already submitted — the
                # commit merge makes any overlap a benign duplicate.
                from repro.core.parallel import WorkerPool

                with WorkerPool(self.jobs) as pool:
                    results = pool.map_ordered(run_wearer_task, tasks)
            else:
                for task in tasks:
                    if self._stop_now:
                        self._release(campaign_id, token, "hard stop")
                        return False
                    wearer_id = task["wearer"]["wearer_id"]
                    if not is_sub and self._is_stolen(wearer_id):
                        skipped.append(wearer_id)
                        continue
                    results.append(run_wearer_task(task))
                    if self.throttle_s:
                        time.sleep(self.throttle_s)
        finally:
            stop_heartbeat.set()
            heartbeat.join(timeout=5.0)

        if skipped:
            self.wearers_skipped += len(skipped)
            self.obs.counter("worker.wearers_skipped").inc(len(skipped))
            self._log(
                f"skipped {len(skipped)} stolen wearer(s) of shard "
                f"{shard}: {skipped}"
            )
        resumed = sum(1 for r in results if r["state"] != "ran")
        self.wearers_run += len(results)
        self.wearers_resumed += resumed
        summaries: Dict[str, dict] = {
            r["wearer_id"]: r["summary"] for r in results
        }
        if not summaries:
            # Everything was stolen out from under us before we started
            # any of it: nothing to commit, just hand the lease back.
            self._release(campaign_id, token, "all wearers stolen")
            return False
        return self._commit(
            campaign_id, shard, token, summaries,
            resumed=resumed, is_sub=is_sub,
        )

    def _release(self, campaign_id: str, token: str, reason: str) -> None:
        try:
            self._rpc(
                "POST",
                f"/campaigns/{campaign_id}/leases/{token}/release",
                {"reason": reason},
                attempts=2,
            )
            self._log(f"released lease on {campaign_id} ({reason})")
        except CoordinatorUnavailable:
            pass  # the TTL reclaims it; nothing more a dying worker can do

    # -- commit ------------------------------------------------------------------

    def _commit(
        self, campaign_id: str, shard: int, token: str,
        summaries: Dict[str, dict], resumed: int = 0,
        is_sub: bool = False,
    ) -> bool:
        payload = {
            "worker": self.name,
            "token": token,
            "crc": shard_payload_crc(summaries),
            "summaries": summaries,
        }
        status, response = self._rpc(
            "POST", f"/campaigns/{campaign_id}/shards/{shard}/complete",
            payload,
        )
        if status == 409:
            raise CommitDiverged(
                f"coordinator refused shard {shard} of {campaign_id} as "
                f"divergent: {response.get('error')}"
            )
        if status != 200:
            self._log(
                f"commit of shard {shard} failed with {status}: "
                f"{response.get('error')} — lease will expire and the "
                "shard will be reassigned"
            )
            return False
        duplicate = bool(response.get("duplicate"))
        self.shards_committed += 1
        self.obs.counter("worker.commits").inc()
        self.obs.event(
            "worker.commit", worker=self.name, campaign=campaign_id,
            shard=shard, duplicate=duplicate,
            wearers=len(summaries), wearers_resumed=resumed,
            campaign_state=response.get("campaign_state"),
        )
        self._log(
            f"committed shard {shard} of {campaign_id}"
            + (" (duplicate: already committed — no-op)" if duplicate else "")
        )
        if response.get("state") == "split" and not is_sub:
            # We committed our remainder of a split shard while thieves
            # still hold wearers: our shard-level lease outlived its
            # usefulness — hand it back rather than letting it expire.
            # (A thief's sub-lease token is consumed by its own commit.)
            self._release(campaign_id, token, "remainder committed")
        return True

    # -- main loop ---------------------------------------------------------------

    def run_forever(self) -> int:
        """Pull→run→commit until drained (or idle past ``exit_idle``).
        Returns a process exit code."""
        self._log(
            f"pulling from http://{self.client.host}:{self.client.port} "
            f"into {self.workdir} (jobs={self.jobs})"
        )
        idle_since: Optional[float] = None
        while not self._draining and not self._stop_now:
            try:
                acquired = self._try_acquire()
            except CoordinatorUnavailable as exc:
                self._log(f"giving up on coordinator: {exc}")
                return 1
            if acquired is None:
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if (
                    self.exit_idle is not None
                    and now - idle_since >= self.exit_idle
                ):
                    self._log(
                        f"idle for {self.exit_idle:.1f}s with no work; "
                        "exiting"
                    )
                    break
                time.sleep(self.poll_interval)
                continue
            idle_since = None
            campaign_id, lease = acquired
            try:
                self._run_shard(campaign_id, lease)
            except CommitDiverged:
                raise
            except CoordinatorUnavailable as exc:
                self._log(
                    f"lost the coordinator mid-shard ({exc}); journals "
                    "are on disk, the lease will expire and the shard "
                    "will be reassigned"
                )
                time.sleep(self.poll_interval)
        self._log(
            f"drained: {self.shards_committed} shard(s) committed, "
            f"{self.wearers_run} wearer(s) run "
            f"({self.wearers_resumed} resumed from journals, "
            f"{self.wearers_skipped} skipped as stolen); "
            f"{self.client.requests} RPC(s) over "
            f"{self.client.connections_opened} connection(s)"
        )
        self.client.close()
        return 0


def run_worker(
    coordinator: str,
    workdir,
    name: Optional[str] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    batch_mode: str = "auto",
    poll_interval: float = 1.0,
    exit_idle: Optional[float] = None,
    fabric_secret: Optional[str] = None,
    rpc_timeout: float = 30.0,
) -> int:
    """Blocking entry point for ``hi-explore worker``."""
    agent = WorkerAgent(
        coordinator,
        workdir,
        name=name,
        jobs=jobs,
        cache_dir=cache_dir,
        batch_mode=batch_mode,
        poll_interval=poll_interval,
        exit_idle=exit_idle,
        fabric_secret=fabric_secret,
        rpc_timeout=rpc_timeout,
    )
    agent.install_signal_handlers()
    try:
        return agent.run_forever()
    except CommitDiverged as exc:
        print(f"worker {agent.name}: INTEGRITY ERROR: {exc}", flush=True)
        return 3
