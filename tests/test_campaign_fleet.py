"""End-to-end fabric tests: coordinator + worker agents, byte-identity.

The correctness contract of the cross-host fabric is that a fleet of
pulling workers produces **byte-identical** ``aggregate.json`` and
``atlas.json`` to a single-host ``run_campaign`` of the same spec — no
matter how leases were interleaved, expired, or reassigned along the
way.  These tests run the real service on an ephemeral loopback port
with real :class:`~repro.campaign.worker.WorkerAgent` loops on threads
(blocking HTTP against the asyncio server), simulate worker death by
abandoning leases, and diff the artifacts against a golden run.

Shard-count independence is part of the assertion: the golden run uses
one shard per wearer while the fleet runs use other shard counts — the
aggregate is built from per-wearer summary bytes only, so the lease
granularity must never leak into the artifacts.
"""

import asyncio
import json
import threading

import pytest

from repro.campaign.queue import shard_payload_crc
from repro.campaign.runner import run_campaign, run_wearer_task, wearer_run_dir
from repro.campaign.service import CampaignService
from repro.campaign.shard import shard_assignment
from repro.campaign.spec import make_population
from repro.campaign.wearer_cache import (
    WEARER_CACHE_DIRNAME,
    WearerResultCache,
    wearer_fingerprint,
)
from repro.campaign.worker import WorkerAgent
from repro.core.journal import (
    JOURNAL_FILENAME,
    QUEUE_LOG_FILENAME,
    SUMMARY_FILENAME,
    EventLog,
    read_summary,
)

from tests.test_campaign_service import _poll_until, _request


def _spec(size=4, name="fleet", base_seed=40):
    return make_population(
        size, preset="smoke", base_seed=base_seed, pdr_bounds=(90, 95),
        name=name,
    )


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """One single-host run of the fleet spec; every test diffs against it."""
    spec = _spec()
    directory = tmp_path_factory.mktemp("golden") / "campaign"
    run_campaign(spec, directory, shards=len(spec.wearers), jobs=1)
    return {
        "spec": spec,
        "directory": directory,
        "aggregate": (directory / "aggregate.json").read_bytes(),
        "atlas": (directory / "atlas.json").read_bytes(),
    }


def _golden_summary(golden, wearer_id):
    """One wearer's ``summary.json`` from the single-host golden run."""
    (path,) = golden["directory"].glob(
        f"shards/*/{wearer_id}/{SUMMARY_FILENAME}"
    )
    return read_summary(path.parent)


def _assert_golden_artifacts(directory, golden):
    assert (directory / "aggregate.json").read_bytes() == golden["aggregate"]
    assert (directory / "atlas.json").read_bytes() == golden["atlas"]


async def _submit_fleet(port, spec):
    status, payload = await _request(
        port, "POST", "/campaigns", {**spec.to_dict(), "execution": "fleet"}
    )
    assert status in (200, 202)
    assert payload["state"] in ("fleet", "done")
    return payload["id"]


def _agent(port, workdir, name, **kwargs):
    kwargs.setdefault("poll_interval", 0.1)
    kwargs.setdefault("exit_idle", 1.0)
    return WorkerAgent(
        f"http://127.0.0.1:{port}", workdir, name=name, **kwargs
    )


def _assert_keep_alive(agents):
    """Each worker's RPCs rode a persistent connection: at least three
    requests per connection it opened."""
    for agent in agents:
        client = agent.client
        assert client.requests >= 3 * client.connections_opened, (
            agent.name, client.requests, client.connections_opened
        )


async def _drain_workers(agents):
    """Run every agent's pull loop on a thread until all exit."""
    codes = {}

    def loop(agent):
        codes[agent.name] = agent.run_forever()

    threads = [
        threading.Thread(target=loop, args=(agent,), daemon=True)
        for agent in agents
    ]
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        await asyncio.sleep(0.1)
    return codes


class TestLocalRunsShareTheEngine:
    """``run_campaign`` drives the same queue a fleet does: one commit per
    shard and no lease, artifacts written by ``CampaignQueue.finalize``,
    and a re-run of a finished directory journals nothing."""

    def test_local_commits_and_idempotent_rerun(self, tmp_path):
        spec = _spec(size=2, name="local-engine")
        directory = tmp_path / "camp"
        report = run_campaign(spec, directory, shards=3, jobs=1)
        log = directory / QUEUE_LOG_FILENAME
        with EventLog(log) as events:
            records = events.entries
        assert [e["kind"] for e in records] == ["commit"] * 3
        assert sorted(e["shard"] for e in records) == [0, 1, 2]
        # empty shards are committed by the queue itself, the rest locally
        assert "local" in {e["worker"] for e in records}
        assert {e["worker"] for e in records} <= {"local", "coordinator"}
        telemetry = report.telemetry
        assert (telemetry["jobs"], telemetry["shards"]) == (1, 3)
        assert sorted(telemetry["pool"]) == [
            "degraded", "quarantined", "respawns", "retries",
        ]
        assert telemetry["resumed_wearers"] == 0

        names = ("aggregate.json", "atlas.json")
        artifacts = {n: (directory / n).read_bytes() for n in names}
        log_bytes = log.read_bytes()
        again = run_campaign(spec, directory, jobs=1)
        assert log.read_bytes() == log_bytes  # repeat commits are no-ops
        assert {n: (directory / n).read_bytes() for n in names} == artifacts
        assert again.telemetry["resumed_wearers"] == 2  # both only loaded


class TestFleetExecution:
    def test_two_workers_match_single_host_bytes(self, tmp_path, golden):
        async def scenario():
            service = CampaignService(tmp_path / "coord", lease_ttl=30.0)
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await _submit_fleet(port, golden["spec"])
                workers = [
                    _agent(port, tmp_path / "work", f"w{i}")
                    for i in (1, 2)
                ]
                codes = await _drain_workers(workers)
                assert set(codes.values()) == {0}

                status, payload = await _request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert (status, payload["state"]) == (200, "done")
                assert payload["queue"]["pending"] == 0
                assert payload["queue"]["leased"] == 0
                assert all(
                    s["state"] == "committed" for s in payload["shards"]
                )

                status, result = await _request(
                    port, "GET", f"/campaigns/{cid}/result"
                )
                assert status == 200
                return cid
            finally:
                await service.stop()

        cid = asyncio.run(scenario())
        directory = tmp_path / "coord" / cid
        assert (directory / "aggregate.json").read_bytes() == (
            golden["aggregate"]
        )
        assert (directory / "atlas.json").read_bytes() == golden["atlas"]
        telemetry = json.loads((directory / "telemetry.json").read_text())
        census = telemetry["pool"]["workers"]
        assert set(census) <= {"coordinator", "w1", "w2"}

    def test_reassigned_shard_resumes_from_journals(self, tmp_path, golden):
        """A worker dies mid-shard; after the TTL the shard is reassigned
        and the replacement resumes from the dead worker's journals
        (shared workdir) — completed wearers load, a torn journal
        replays its tail — and the artifacts still match the golden
        bytes."""
        spec = golden["spec"]
        workdir = tmp_path / "work"

        async def scenario():
            service = CampaignService(
                tmp_path / "coord", shards=1, lease_ttl=0.8
            )
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await _submit_fleet(port, spec)
                # "dead" worker: leases the (single) shard over the real
                # wire, runs two wearers, then vanishes — no heartbeat,
                # no commit.
                status, payload = await _request(
                    port, "POST", "/fabric/sync", {"worker": "doomed"}
                )
                assert status == 200 and payload["lease"]
                lease = payload["lease"]
                ran = []
                for wearer in lease["wearers"][:2]:
                    ran.append(await asyncio.to_thread(
                        run_wearer_task,
                        {
                            "campaign": lease["campaign"],
                            "preset": lease["preset"],
                            "wearer": wearer,
                            "run_dir": str(wearer_run_dir(
                                workdir / cid, lease["shard"],
                                wearer["wearer_id"],
                            )),
                            "cache_dir": None,
                            "batch_mode": "auto",
                        },
                    ))
                assert [r["state"] for r in ran] == ["ran", "ran"]

                # Tear the second wearer's run mid-write: drop its
                # summary and truncate the journal, as a SIGKILL would.
                torn_dir = wearer_run_dir(
                    workdir / cid, lease["shard"], ran[1]["wearer_id"]
                )
                (torn_dir / SUMMARY_FILENAME).unlink()
                journal = torn_dir / JOURNAL_FILENAME
                lines = journal.read_text().splitlines(keepends=True)
                assert len(lines) > 2
                journal.write_text("".join(lines[: len(lines) // 2]))

                await asyncio.sleep(1.0)  # let the lease TTL lapse

                rescuer = _agent(port, workdir, "rescuer")
                codes = await _drain_workers([rescuer])
                assert codes == {"rescuer": 0}
                # one wearer loaded from its summary, one replayed from
                # the torn journal, two ran fresh
                assert rescuer.wearers_run == len(spec.wearers)
                assert rescuer.wearers_resumed >= 2

                status, payload = await _request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert payload["state"] == "done"
                return cid
            finally:
                await service.stop()

        cid = asyncio.run(scenario())
        directory = tmp_path / "coord" / cid
        assert (directory / "aggregate.json").read_bytes() == (
            golden["aggregate"]
        )
        assert (directory / "atlas.json").read_bytes() == golden["atlas"]


class TestFleetHotPath:
    """PR 9 end-to-end: warm cross-campaign cache and work stealing,
    both under the byte-identity contract, with keep-alive RPCs."""

    def test_warm_campaign_simulates_nothing(self, tmp_path, golden):
        """Two campaigns over the same wearer population (different
        names) against one coordinator: the second is served entirely
        from the coordinator's wearer cache at submission — its POST
        already answers ``done``, and its worker runs no wearer and
        writes zero run journals — and still produces byte-identical
        artifacts."""
        warm_spec = _spec(name="fleet-warm")
        warm_golden = tmp_path / "warm-golden"
        run_campaign(warm_spec, warm_golden, jobs=1)

        async def scenario():
            service = CampaignService(tmp_path / "coord", lease_ttl=30.0)
            _, port = await service.start("127.0.0.1", 0)
            try:
                cold_id = await _submit_fleet(port, golden["spec"])
                cold = _agent(port, tmp_path / "work-cold", "w-cold")
                codes = await _drain_workers([cold])
                assert codes == {"w-cold": 0}

                status, warm_sub = await _request(
                    port, "POST", "/campaigns",
                    {**warm_spec.to_dict(), "execution": "fleet"},
                )
                assert (status, warm_sub["state"]) == (200, "done")
                warm = _agent(port, tmp_path / "work-warm", "w-warm")
                codes = await _drain_workers([warm])
                assert codes == {"w-warm": 0}
                assert warm.wearers_run == 0
                _assert_keep_alive([cold, warm])
                return cold_id, warm_sub["id"]
            finally:
                await service.stop()

        cold_id, warm_id = asyncio.run(scenario())
        # the warm worker never simulated: no run journal anywhere in
        # its workdir
        warm_journals = list(
            (tmp_path / "work-warm").rglob(JOURNAL_FILENAME)
        )
        assert warm_journals == []
        for cid, want_dir in (
            (cold_id, None), (warm_id, warm_golden),
        ):
            directory = tmp_path / "coord" / cid
            if want_dir is None:
                want = golden["aggregate"], golden["atlas"]
            else:
                want = (
                    (want_dir / "aggregate.json").read_bytes(),
                    (want_dir / "atlas.json").read_bytes(),
                )
            assert (directory / "aggregate.json").read_bytes() == want[0]
            assert (directory / "atlas.json").read_bytes() == want[1]

    def test_partially_cached_campaign_leases_only_the_uncached_shard(
        self, tmp_path, golden
    ):
        """Two shards: every wearer of one is cached, one wearer of the
        other.  The coordinator commits the first at submission; the
        worker leases only the second, finds its one hit prefetched on
        the lease and simulates the rest, and the artifacts match the
        single-host golden."""
        spec = golden["spec"]
        layout = {
            index: [w.wearer_id for w in wearers]
            for index, wearers in shard_assignment(spec, 2).items()
        }
        full, mixed = sorted(layout, key=lambda index: len(layout[index]))
        assert layout[full] and len(layout[mixed]) >= 2
        hit = layout[mixed][0]

        async def scenario():
            service = CampaignService(
                tmp_path / "coord", shards=2, lease_ttl=30.0
            )
            for wearer_id in layout[full] + [hit]:
                service.wearer_cache.put(
                    wearer_fingerprint(spec.preset, spec.wearer(wearer_id)),
                    _golden_summary(golden, wearer_id),
                )
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, sub = await _request(
                    port, "POST", "/campaigns",
                    {**spec.to_dict(), "execution": "fleet"},
                )
                assert (status, sub["state"]) == (202, "fleet")
                shards = {s["index"]: s for s in sub["shards"]}
                assert (shards[full]["state"], shards[full]["worker"]) == (
                    "committed", "coordinator"
                )
                assert shards[mixed]["state"] == "pending"

                worker = _agent(port, tmp_path / "work", "w1")
                leases = []
                run_shard = worker._run_shard

                def recording(campaign_id, lease):
                    leases.append(lease)
                    return run_shard(campaign_id, lease)

                worker._run_shard = recording
                codes = await _drain_workers([worker])
                assert codes == {"w1": 0}
                assert [lease["shard"] for lease in leases] == [mixed]
                assert set(leases[0]["cached"]) == {hit}

                status, payload = await _request(
                    port, "GET", f"/campaigns/{sub['id']}"
                )
                assert payload["state"] == "done"
                return sub["id"]
            finally:
                await service.stop()

        cid = asyncio.run(scenario())
        assert len(list((tmp_path / "work").rglob(JOURNAL_FILENAME))) == 1
        _assert_golden_artifacts(tmp_path / "coord" / cid, golden)

    def test_recovery_commits_a_campaign_the_cache_now_covers(
        self, tmp_path, golden
    ):
        """A fleet campaign is submitted with no worker and the service
        stops; meanwhile every wearer's summary lands in the coordinator's
        wearer cache.  The restarted coordinator's recovery commits every
        shard from the cache and finalizes: ``done``, golden bytes, and
        no lease ever granted."""
        spec = golden["spec"]
        root = tmp_path / "coord"

        async def submit_and_stop():
            service = CampaignService(root, lease_ttl=30.0)
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, sub = await _request(
                    port, "POST", "/campaigns",
                    {**spec.to_dict(), "execution": "fleet"},
                )
                assert (status, sub["state"]) == (202, "fleet")
                return sub["id"]
            finally:
                await service.stop()

        cid = asyncio.run(submit_and_stop())
        cache = WearerResultCache(root / WEARER_CACHE_DIRNAME)
        for wearer in spec.wearers:
            cache.put(
                wearer_fingerprint(spec.preset, wearer),
                _golden_summary(golden, wearer.wearer_id),
            )

        async def restart():
            service = CampaignService(root, lease_ttl=30.0)
            _, port = await service.start("127.0.0.1", 0)
            try:
                return await _request(port, "GET", f"/campaigns/{cid}")
            finally:
                await service.stop()

        status, payload = asyncio.run(restart())
        assert (status, payload["state"]) == (200, "done")
        assert {s["worker"] for s in payload["shards"]} == {"coordinator"}
        with EventLog(root / cid / QUEUE_LOG_FILENAME) as log:
            assert {e["kind"] for e in log.entries} == {"commit"}
        _assert_golden_artifacts(root / cid, golden)

    def test_stealing_rescues_a_straggler_shard(self, tmp_path, golden):
        """One shard, a throttled holder, a fast idle worker: the idle
        worker splits the shard, steals tail wearers, and the merged
        result is byte-identical to the single-host golden."""
        spec = golden["spec"]

        async def scenario():
            service = CampaignService(
                tmp_path / "coord", shards=1, lease_ttl=30.0
            )
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await _submit_fleet(port, spec)
                slow = _agent(
                    port, tmp_path / "work-slow", "slow", throttle_s=0.6
                )
                fast = _agent(port, tmp_path / "work-fast", "fast")
                codes = {}

                def loop(agent):
                    codes[agent.name] = agent.run_forever()

                slow_thread = threading.Thread(
                    target=loop, args=(slow,), daemon=True
                )
                slow_thread.start()
                # the slow worker must own the shard before the fast one
                # arrives, or there is nothing to steal
                while True:
                    status, payload = await _request(
                        port, "GET", f"/campaigns/{cid}/status"
                    )
                    if not payload["queue"]["pending"]:
                        break
                    await asyncio.sleep(0.05)
                fast_thread = threading.Thread(
                    target=loop, args=(fast,), daemon=True
                )
                fast_thread.start()
                while slow_thread.is_alive() or fast_thread.is_alive():
                    await asyncio.sleep(0.1)
                assert set(codes.values()) == {0}

                status, payload = await _request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert payload["state"] == "done"
                # the steal actually happened: the fast worker simulated
                # at least one wearer of the slow worker's only shard
                assert fast.wearers_run >= 1
                assert slow.wearers_run + fast.wearers_run >= len(
                    spec.wearers
                )
                _assert_keep_alive([slow, fast])
                return cid
            finally:
                await service.stop()

        cid = asyncio.run(scenario())
        directory = tmp_path / "coord" / cid
        assert (directory / "aggregate.json").read_bytes() == (
            golden["aggregate"]
        )
        assert (directory / "atlas.json").read_bytes() == golden["atlas"]


class TestOneWearerCache:
    """The coordinator's wearer cache is the only reader and writer of
    wearer results: a local campaign reads it before it runs and feeds
    it before it reads ``done``, and workers keep no cache of their
    own."""

    def test_finished_local_campaign_serves_later_submissions(
        self, tmp_path, golden
    ):
        """A local campaign over the golden population under another
        name has fed the cache by the time its status reads ``done``: a
        renamed fleet re-submission is answered ``done`` by its POST,
        and a renamed local one writes no run journal and matches the
        single-host golden bytes."""
        spec = golden["spec"]

        async def scenario():
            service = CampaignService(tmp_path / "coord", jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                first = _spec(name="fleet-local-first")
                status, sub = await _request(
                    port, "POST", "/campaigns", first.to_dict()
                )
                assert status == 202
                await _poll_until(port, sub["id"], ("done",))

                renamed = _spec(name="fleet-from-local")
                status, warm = await _request(
                    port, "POST", "/campaigns",
                    {**renamed.to_dict(), "execution": "fleet"},
                )
                assert (status, warm["state"]) == (200, "done")

                status, sub = await _request(
                    port, "POST", "/campaigns", spec.to_dict()
                )
                assert status == 202
                await _poll_until(port, sub["id"], ("done",))
                return sub["id"]
            finally:
                await service.stop()
                await service.join()

        cid = asyncio.run(scenario())
        directory = tmp_path / "coord" / cid
        assert list(directory.rglob(JOURNAL_FILENAME)) == []
        _assert_golden_artifacts(directory, golden)

    def test_workers_keep_no_cache_of_their_own(self, tmp_path, golden):
        """One shard, every wearer but one cached: the worker replays the
        prefetched summaries and simulates the last wearer, its workdir
        holds no ``wearer_cache/``, and the commit adds that wearer to
        the coordinator's cache."""
        spec = golden["spec"]
        *hits, miss = [w.wearer_id for w in spec.wearers]

        async def scenario():
            service = CampaignService(
                tmp_path / "coord", shards=1, lease_ttl=30.0
            )
            for wearer_id in hits:
                service.wearer_cache.put(
                    wearer_fingerprint(spec.preset, spec.wearer(wearer_id)),
                    _golden_summary(golden, wearer_id),
                )
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await _submit_fleet(port, spec)
                worker = _agent(port, tmp_path / "work", "w1")
                codes = await _drain_workers([worker])
                assert codes == {"w1": 0}
                assert len(service.wearer_cache) == len(spec.wearers)
                return cid
            finally:
                await service.stop()

        cid = asyncio.run(scenario())
        work = tmp_path / "work"
        assert list(work.rglob(WEARER_CACHE_DIRNAME)) == []
        journals = list(work.rglob(JOURNAL_FILENAME))
        assert [p.parent.name for p in journals] == [miss]
        _assert_golden_artifacts(tmp_path / "coord" / cid, golden)


class TestCommitProtocol:
    """Wire-level commit semantics with fabricated summaries (fast)."""

    def _fake_summaries(self, lease, tag="a"):
        return {
            w["wearer_id"]: {
                "status": "infeasible",
                "best": None,
                "oracle_stats": {},
                "tag": tag,
            }
            for w in lease["wearers"]
        }

    def test_double_commit_is_idempotent_and_divergence_409s(
        self, tmp_path
    ):
        spec = _spec(size=2, name="commitproto")

        async def scenario():
            service = CampaignService(tmp_path / "coord", shards=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await _submit_fleet(port, spec)
                status, payload = await _request(
                    port, "POST", "/fabric/sync", {"worker": "w1"}
                )
                lease = payload["lease"]
                summaries = self._fake_summaries(lease)
                commit = {
                    "worker": "w1",
                    "token": lease["token"],
                    "crc": shard_payload_crc(summaries),
                    "summaries": summaries,
                }
                path = f"/campaigns/{cid}/shards/{lease['shard']}/complete"

                status, first = await _request(port, "POST", path, commit)
                assert (status, first["duplicate"]) == (200, False)
                assert first["campaign_state"] == "done"

                # identical double-commit: accepted as a no-op
                status, second = await _request(port, "POST", path, commit)
                assert (status, second["duplicate"]) == (200, True)

                # divergent bytes for the same shard: integrity error
                divergent = self._fake_summaries(lease, tag="b")
                status, refused = await _request(
                    port, "POST", path,
                    {**commit, "crc": shard_payload_crc(divergent),
                     "summaries": divergent},
                )
                assert status == 409
                assert "integrity" in refused["error"]

                # a corrupt upload (CRC does not match content) is 400
                status, refused = await _request(
                    port, "POST", path, {**commit, "crc": "deadbeef"}
                )
                assert status == 400
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_lease_surface_errors(self, tmp_path):
        spec = _spec(size=2, name="leaseerr")

        async def scenario():
            service = CampaignService(tmp_path / "coord", shards=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await _submit_fleet(port, spec)
                # heartbeat on a never-granted token
                status, payload = await _request(
                    port, "POST", "/fabric/sync",
                    {"worker": "w1", "acquire": False, "heartbeats": [
                        {"campaign": cid, "token": "nosuchtoken"},
                    ]},
                )
                assert status == 200
                assert payload["heartbeats"][0]["status"] == 410
                # lease endpoints on an unknown campaign
                status, payload = await _request(
                    port, "POST",
                    "/campaigns/feedfacefeedface/leases/nosuchtoken/release",
                )
                assert status == 404
                # lease endpoints on a local-execution campaign
                local = _spec(size=2, name="localonly")
                status, payload = await _request(
                    port, "POST", "/campaigns", local.to_dict()
                )
                assert status in (200, 202)
                status, payload = await _request(
                    port, "POST",
                    f"/campaigns/{local.fingerprint()}/leases/nosuchtoken"
                    "/release",
                )
                assert status == 409
                await service.join()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_coordinator_restart_recovers_queue_state(self, tmp_path):
        """Kill the coordinator between commits: the reopened service
        replays ``queue.jsonl``, keeps committed shards committed, and
        finalizes when the remaining shards land."""
        spec = _spec(size=4, name="recover")
        root = tmp_path / "coord"

        async def first_life():
            service = CampaignService(root, shards=2)
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await _submit_fleet(port, spec)
                status, payload = await _request(
                    port, "POST", "/fabric/sync", {"worker": "w1"}
                )
                lease = payload["lease"]
                summaries = self._fake_summaries(lease)
                status, _ = await _request(
                    port, "POST",
                    f"/campaigns/{cid}/shards/{lease['shard']}/complete",
                    {"worker": "w1", "token": lease["token"],
                     "crc": shard_payload_crc(summaries),
                     "summaries": summaries},
                )
                assert status == 200
                return cid
            finally:
                await service.stop()  # no drain: leases stay in the log

        async def second_life(cid):
            service = CampaignService(root, shards=2)
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, payload = await _request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert status == 200
                assert payload["state"] == "fleet"
                assert payload["queue"]["committed"] >= 1
                # a fresh worker finishes the remaining shards
                status, grant = await _request(
                    port, "POST", "/fabric/sync", {"worker": "w2"}
                )
                while grant["lease"]:
                    lease = grant["lease"]
                    summaries = self._fake_summaries(lease)
                    status, done = await _request(
                        port, "POST",
                        f"/campaigns/{cid}/shards/{lease['shard']}/complete",
                        {"worker": "w2", "token": lease["token"],
                         "crc": shard_payload_crc(summaries),
                         "summaries": summaries},
                    )
                    assert status == 200
                    status, grant = await _request(
                        port, "POST", "/fabric/sync", {"worker": "w2"}
                    )
                status, payload = await _request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert payload["state"] == "done"
            finally:
                await service.stop()

        cid = asyncio.run(first_life())
        asyncio.run(second_life(cid))
        assert (root / cid / "aggregate.json").exists()


class TestHardenedWorker:
    """PR 10 worker-side hardening: endpoint failover lists,
    decorrelated-jitter backoff, and signed fleet traffic."""

    def test_client_parses_endpoint_list_and_rotates(self):
        from repro.campaign.worker import CoordinatorClient

        client = CoordinatorClient(
            "http://127.0.0.1:1001, http://standby.example:1002"
        )
        assert client.endpoints == [
            ("127.0.0.1", 1001), ("standby.example", 1002),
        ]
        assert (client.host, client.port) == ("127.0.0.1", 1001)
        client.rotate()
        assert (client.host, client.port) == ("standby.example", 1002)
        client.rotate()
        assert (client.host, client.port) == ("127.0.0.1", 1001)
        assert client.rotations == 2

        solo = CoordinatorClient("http://127.0.0.1:1001")
        solo.rotate()  # single endpoint: rotation is a no-op
        assert (solo.rotations, solo.port) == (0, 1001)

        with pytest.raises(ValueError):
            CoordinatorClient("https://127.0.0.1:1001")
        with pytest.raises(ValueError):
            CoordinatorClient(",")

    def test_backoff_jitter_is_bounded_and_per_worker(self, tmp_path):
        def agent(name):
            return WorkerAgent(
                "http://127.0.0.1:1001", tmp_path, name=name,
                backoff_base=0.5, backoff_cap=30.0,
            )

        # decorrelated jitter: every delay lives in [base, min(cap,
        # prev*3)] and the walk never crosses the cap
        walker = agent("alpha")
        delay, seen = walker.backoff_base, []
        for _ in range(50):
            prev = delay
            delay = walker._next_delay(prev)
            assert walker.backoff_base <= delay <= walker.backoff_cap
            assert delay <= max(prev * 3, walker.backoff_base)
            seen.append(delay)
        assert len(set(seen)) > 10  # it actually jitters

        # the stream is seeded by the worker name, never the global RNG:
        # same name → same stream (a restarted worker is reproducible,
        # and simulation determinism is untouched); different names →
        # decorrelated peers that cannot thundering-herd in lockstep
        first = agent("alpha")
        probe = [first._next_delay(1.0) for _ in range(8)]
        again = agent("alpha")
        assert [again._next_delay(1.0) for _ in range(8)] == probe
        other = agent("beta")
        assert [other._next_delay(1.0) for _ in range(8)] != probe

    def test_authed_fleet_matches_single_host_bytes(
        self, tmp_path, golden
    ):
        """The ISSUE's CI requirement at unit scale: a whole fleet run
        with HMAC auth enabled end-to-end produces artifacts
        byte-identical to the unauthenticated single-host run."""
        secret = "fleet-test-secret"

        async def scenario():
            service = CampaignService(
                tmp_path / "coord", lease_ttl=30.0, fabric_secret=secret
            )
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await _submit_fleet(port, golden["spec"])
                workers = [
                    _agent(port, tmp_path / "work", f"w{i}",
                           fabric_secret=secret)
                    for i in (1, 2)
                ]
                codes = await _drain_workers(workers)
                assert set(codes.values()) == {0}
                status, payload = await _request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert (status, payload["state"]) == (200, "done")
                return cid
            finally:
                await service.stop()

        cid = asyncio.run(scenario())
        directory = tmp_path / "coord" / cid
        assert (directory / "aggregate.json").read_bytes() == (
            golden["aggregate"]
        )
        assert (directory / "atlas.json").read_bytes() == golden["atlas"]
