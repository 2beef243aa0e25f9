"""In-process tests for the campaign HTTP service.

The service binds an ephemeral loopback port (``port=0``) so the suite
never collides with a real deployment or a parallel test run, and every
campaign uses the smoke preset with pinned seeds so results — and the
aggregate fingerprints the assertions pin — are deterministic.

The HTTP client here is hand-rolled on asyncio streams: the tests speak
the same stdlib-only wire format the service implements, with no test
dependencies beyond pytest.
"""

import asyncio
import json

import pytest

from repro.campaign.queue import CampaignQueue
from repro.campaign.runner import run_campaign
from repro.campaign.service import SERVICE_LOG_FILENAME, CampaignService
from repro.campaign.spec import CampaignSpec, make_population
from repro.campaign.wearer_cache import wearer_fingerprint
from repro.core.journal import EventLog, write_campaign_manifest
from repro.obs import Instrumentation, MetricsRegistry, activate


async def _request(port, method, path, payload=None):
    """One HTTP exchange against loopback; returns (status, json_body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(head_blob.split()[1])
    return status, json.loads(body_blob.decode("utf-8"))


async def _poll_until(port, campaign_id, states, attempts=600):
    for _ in range(attempts):
        status, payload = await _request(
            port, "GET", f"/campaigns/{campaign_id}"
        )
        assert status == 200
        if payload["state"] in states:
            return payload
        await asyncio.sleep(0.05)
    raise AssertionError(f"campaign never reached {states}: {payload}")


def _spec(size=6, base_seed=40, name="svc"):
    return make_population(
        size, preset="smoke", base_seed=base_seed, pdr_bounds=(90, 95),
        name=name,
    )


class TestServiceApi:
    def test_submit_poll_result_artifacts(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, health = await _request(port, "GET", "/healthz")
                assert (status, health["ok"]) == (200, True)

                spec = _spec()
                status, sub = await _request(
                    port, "POST", "/campaigns", spec.to_dict()
                )
                assert status == 202
                assert sub["id"] == spec.fingerprint()
                assert sub["state"] in ("queued", "running")

                final = await _poll_until(
                    port, sub["id"], ("done", "failed")
                )
                assert final["state"] == "done"
                assert final["wearers_done"] == final["wearers_total"] == 6

                status, result = await _request(
                    port, "GET", f"/campaigns/{sub['id']}/result"
                )
                assert status == 200
                assert result["kind"] == "campaign_aggregate"
                assert result["wearers"] == 6
                on_disk = json.loads(
                    (tmp_path / sub["id"] / "aggregate.json").read_text()
                )
                assert result == on_disk

                for name, kind in (
                    ("atlas.json", "campaign_atlas"),
                    ("telemetry.json", "campaign_telemetry"),
                    ("campaign.json", None),
                ):
                    status, artifact = await _request(
                        port, "GET",
                        f"/campaigns/{sub['id']}/artifacts/{name}",
                    )
                    assert status == 200
                    if kind:
                        assert artifact["kind"] == kind

                # resubmission is idempotent: same id, already done, 200
                status, again = await _request(
                    port, "POST", "/campaigns", spec.to_dict()
                )
                assert (status, again["id"], again["state"]) == (
                    200, sub["id"], "done"
                )

                status, listing = await _request(port, "GET", "/campaigns")
                assert status == 200
                assert [c["id"] for c in listing["campaigns"]] == [sub["id"]]
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())

    def test_spec_wrapped_under_spec_key_also_accepted(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                spec = _spec(size=1, base_seed=77, name="wrapped")
                status, sub = await _request(
                    port, "POST", "/campaigns", {"spec": spec.to_dict()}
                )
                assert status == 202
                assert sub["id"] == spec.fingerprint()
                await _poll_until(port, sub["id"], ("done",))
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())

    def test_error_paths(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, err = await _request(port, "GET", "/campaigns/feed")
                assert status == 404 and "unknown campaign" in err["error"]

                status, err = await _request(port, "GET", "/nope")
                assert status == 404

                status, err = await _request(port, "DELETE", "/campaigns")
                assert status == 405

                status, err = await _request(port, "POST", "/healthz")
                assert status == 405

                # routes no client calls are gone: workers acquire and
                # renew through /fabric/sync, and the wearer cache is
                # the coordinator's own
                for method, path, payload in (
                    ("POST", "/campaigns/feed/leases", {"worker": "w"}),
                    ("POST", "/campaigns/feed/leases/tok/heartbeat", None),
                    ("GET", "/cache/wearers/ab12", None),
                    ("PUT", "/cache/wearers/ab12", {"summary": {}}),
                ):
                    status, err = await _request(port, method, path, payload)
                    assert status in (404, 405), (method, path, status)

                # invalid JSON and invalid specs are 400, not crashes
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 9\r\nConnection: close\r\n\r\nnot-json!"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                assert b"400" in raw.split(b"\r\n", 1)[0]

                status, err = await _request(
                    port, "POST", "/campaigns", {"wearers": []}
                )
                assert status == 400 and "bad campaign spec" in err["error"]

                # a manifest without an aggregate (created behind the
                # service's back) reads as interrupted; result is 409
                spec = _spec(size=1, base_seed=9, name="limbo")
                cid = spec.fingerprint()
                limbo = tmp_path / cid
                limbo.mkdir()
                write_campaign_manifest(limbo, spec.to_dict(), cid, 1)
                status, st = await _request(port, "GET", f"/campaigns/{cid}")
                assert (status, st["state"]) == (200, "interrupted")
                status, err = await _request(
                    port, "GET", f"/campaigns/{cid}/result"
                )
                assert status == 409 and "no aggregate" in err["error"]
                status, err = await _request(
                    port, "GET", f"/campaigns/{cid}/artifacts/journal.jsonl"
                )
                assert status == 404  # journals are replay state, not artifacts
                assert "unknown artifact" in err["error"]
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())


class TestServiceRecovery:
    def test_restart_resumes_interrupted_campaign_byte_identical(
        self, tmp_path
    ):
        """The durability contract: a killed service, restarted over the
        same root, finishes every in-flight campaign through journal
        replay to byte-identical artifacts."""
        spec = _spec(size=3, base_seed=21, name="lazarus")
        cid = spec.fingerprint()
        golden_dir = tmp_path / "golden" / cid
        report = run_campaign(spec, golden_dir, jobs=1)
        golden = report.aggregate_path.read_bytes()
        golden_atlas = report.atlas_path.read_bytes()

        # Stage the "killed mid-campaign" root: copy the completed run,
        # then tear one wearer back to a truncated journal and drop the
        # fleet artifacts — exactly what SIGKILL mid-shard leaves behind.
        import shutil

        root = tmp_path / "root"
        victim_dir = root / cid
        shutil.copytree(golden_dir, victim_dir)
        (victim_dir / "aggregate.json").unlink()
        (victim_dir / "atlas.json").unlink()
        (victim_dir / "telemetry.json").unlink()
        journals = sorted(victim_dir.glob("shards/*/*/journal.jsonl"))
        assert journals
        lines = journals[0].read_text().splitlines()
        journals[0].write_text("\n".join(lines[:3]) + "\n" + lines[3][:20])
        (journals[0].parent / "summary.json").unlink()

        async def scenario():
            service = CampaignService(root, jobs=1)
            _, port = await service.start("127.0.0.1", 0)  # recover() runs
            try:
                final = await _poll_until(port, cid, ("done", "failed"))
                assert final["state"] == "done"
                status, result = await _request(
                    port, "GET", f"/campaigns/{cid}/result"
                )
                assert status == 200
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())
        assert (victim_dir / "aggregate.json").read_bytes() == golden
        assert (victim_dir / "atlas.json").read_bytes() == golden_atlas

    def test_recover_marks_unreadable_manifest_failed(self, tmp_path):
        bad = tmp_path / "feedfacecafe0000"
        bad.mkdir()
        (bad / "campaign.json").write_text("{ truncated garbage")

        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, payload = await _request(
                    port, "GET", "/campaigns/feedfacecafe0000"
                )
                assert status == 200
                assert payload["state"] == "failed"
                assert "unrecoverable" in payload["error"]
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())

    @pytest.mark.parametrize("journaled", [None, "queued", "running", "fleet"])
    def test_recover_follows_the_journaled_execution(self, tmp_path, journaled):
        """Every campaign directory has a queue log now, so recovery
        resumes a campaign the way ``service.jsonl`` last saw it
        executing: ``fleet`` reopens its queue for workers (nothing runs
        here), anything else — no journaled state included — runs here."""
        spec = _spec(size=1, base_seed=57, name="journaled")
        cid = spec.fingerprint()
        CampaignQueue(spec, tmp_path / cid, shards=1).close()
        if journaled is not None:
            with EventLog(tmp_path / SERVICE_LOG_FILENAME) as log:
                log.append({"kind": "state", "id": cid, "state": journaled})

        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            await service.start("127.0.0.1", 0)
            try:
                if journaled == "fleet":
                    assert cid in service._queues
                    assert service.status(cid)["state"] == "fleet"
                else:
                    assert cid not in service._queues
                    await service.join()
                    assert service.status(cid)["state"] == "done"
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())
        ran_here = journaled != "fleet"
        assert (tmp_path / cid / "aggregate.json").exists() == ran_here
        assert any((tmp_path / cid).glob("shards/*/*/journal.jsonl")) == ran_here


#: One field of an otherwise good spec set to a value no run could use.
_BAD_SPECS = {
    "path-escaping wearer_id": {"wearer_id": "../../../../outside"},
    "empty wearer_id": {"wearer_id": ""},
    "65-character wearer_id": {"wearer_id": "w" * 65},
    "quantile above 1": {"mode": "robust", "quantile": 2},
    "negative quantile": {"mode": "robust", "quantile": -0.5},
    "outage_fraction above 1": {"outage_fraction": 5},
    # hub_stress_ensemble needs (0, 1); hub_stress defaults to True
    "robust hub-stress outage_fraction 0": {
        "mode": "robust", "hub_stress": True, "outage_fraction": 0.0},
    "robust hub-stress outage_fraction 1": {
        "mode": "robust", "outage_fraction": 1},
    "zero ensemble_size": {"ensemble_size": 0},
    "string seed": {"seed": "x"},
    "negative seed": {"seed": -1},
    "float fault_seed": {"fault_seed": 1.5},
    "negative fault_seed": {"fault_seed": -1},
    "string pdr_min": {"pdr_min": "0.9"},
    "missing pdr_min": {"pdr_min": None},
    "unknown preset": {"preset": "nope"},
}


def _bad_spec(fields):
    wearer = {"wearer_id": "w000", "seed": 3, "pdr_min": 0.9}
    spec = {"name": "bad", "preset": fields.get("preset", "smoke")}
    wearer.update({k: v for k, v in fields.items() if k != "preset"})
    spec["wearers"] = [{k: v for k, v in wearer.items() if v is not None}]
    return spec


class TestBadSpecsRefused:
    """A spec no run could use is refused when it is built — before a
    wearer id can name a directory outside the root, and before a fleet
    worker leases a shard it cannot run."""

    @pytest.mark.parametrize("fields", _BAD_SPECS.values(), ids=list(_BAD_SPECS))
    def test_from_dict_raises_value_error(self, fields):
        with pytest.raises(ValueError):
            CampaignSpec.from_dict(_bad_spec(fields))

    @pytest.mark.parametrize("fields", [
        {"outage_fraction": 0.0},
        {"mode": "robust", "hub_stress": False, "outage_fraction": 1.0},
    ], ids=["solve", "robust-sampled"])
    def test_unused_outage_fraction_still_loads(self, fields):
        """Only a robust hub-stress wearer runs its outage fraction, so
        stored specs of other wearers with 0 or 1 there still load."""
        spec = CampaignSpec.from_dict(_bad_spec(fields))
        assert spec.wearers[0].outage_fraction == fields["outage_fraction"]

    @pytest.mark.parametrize("execution", ["local", "fleet"])
    @pytest.mark.parametrize("fields", _BAD_SPECS.values(), ids=list(_BAD_SPECS))
    def test_post_answers_400_and_creates_nothing(
        self, tmp_path, fields, execution
    ):
        root = tmp_path / "root"

        def snapshot():
            return {
                path: path.read_bytes() if path.is_file() else None
                for path in tmp_path.rglob("*")
            }

        async def scenario():
            service = CampaignService(root, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                before = snapshot()
                status, payload = await _request(
                    port, "POST", "/campaigns",
                    {"spec": _bad_spec(fields), "execution": execution},
                )
                await service.join()
                assert snapshot() == before
                return status, payload
            finally:
                await service.stop()
                await service.join()

        status, payload = asyncio.run(scenario())
        assert status == 400
        assert "bad campaign spec" in payload["error"]
        assert not (tmp_path / "outside").exists()


async def _submit_fleet(port, spec):
    status, sub = await _request(
        port, "POST", "/campaigns",
        {"spec": spec.to_dict(), "execution": "fleet"},
    )
    assert status == 202
    return sub["id"]


def _cacheable_summary(tag="a"):
    return {
        "status": "infeasible",
        "best": None,
        "oracle_stats": {"simulations_run": 1, "cache_hits": 0},
        "tag": tag,
    }


class TestFabricEndpoints:
    """The fleet hot path: batched /fabric/sync with cached prefetch,
    round-robin lease fairness, and keep-alive connections."""

    def test_sync_batches_heartbeats_with_per_token_status(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                spec = _spec(size=3, base_seed=51, name="sync")
                cid = await _submit_fleet(port, spec)

                # one round-trip: no heartbeats yet, lease acquired
                status, sync = await _request(
                    port, "POST", "/fabric/sync",
                    {"worker": "w1", "heartbeats": []},
                )
                assert status == 200
                assert sync["campaign"] == cid
                lease = sync["lease"]
                assert lease is not None and lease["token"]

                # batched: a live token and a bogus one in one request —
                # each entry carries its own status, one dead lease must
                # not poison the rest of the tick
                status, sync = await _request(
                    port, "POST", "/fabric/sync",
                    {
                        "worker": "w1",
                        "acquire": False,
                        "heartbeats": [
                            {"campaign": cid, "token": lease["token"]},
                            {"campaign": cid, "token": "bogus"},
                            {"campaign": "feedfacecafe0000", "token": "x"},
                        ],
                    },
                )
                assert status == 200
                assert sync["lease"] is None
                by_token = {h["token"]: h for h in sync["heartbeats"]}
                assert by_token[lease["token"]]["status"] == 200
                assert by_token[lease["token"]]["shard"] == lease["shard"]
                assert by_token["bogus"]["status"] == 410
                assert by_token["x"]["status"] == 410
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_sync_grants_round_robin_across_campaigns(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                ids = set()
                for name in ("rr-one", "rr-two"):
                    spec = _spec(size=2, base_seed=52, name=name)
                    ids.add(await _submit_fleet(port, spec))
                granted = []
                for _ in range(2):
                    status, sync = await _request(
                        port, "POST", "/fabric/sync", {"worker": "w1"}
                    )
                    assert status == 200
                    granted.append(sync["campaign"])
                # fairness: consecutive grants come from *different*
                # campaigns — the first submission cannot starve the
                # second
                assert set(granted) == ids
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_sync_lease_carries_cached_prefetch(self, tmp_path):
        async def scenario():
            # One shard holding a cached and an uncached wearer: it stays
            # pending for a worker, and its one hit rides the lease.
            service = CampaignService(tmp_path, shards=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                spec = _spec(size=2, base_seed=53, name="prefetch")
                wearer = spec.wearers[0]
                summary = _cacheable_summary()
                service.wearer_cache.put(
                    wearer_fingerprint(spec.preset, wearer), summary
                )
                await _submit_fleet(port, spec)
                status, sync = await _request(
                    port, "POST", "/fabric/sync", {"worker": "w1"}
                )
                assert status == 200
                assert [w["wearer_id"] for w in sync["lease"]["wearers"]] == [
                    w.wearer_id for w in spec.wearers
                ]
                cached = sync["lease"]["cached"]
                assert set(cached) == {wearer.wearer_id}
                assert cached[wearer.wearer_id]["tag"] == "a"
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_keep_alive_serves_many_requests_per_connection(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def exchange(extra=""):
                    writer.write(
                        (
                            f"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                            f"{extra}\r\n"
                        ).encode()
                    )
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(
                        [
                            line.split(b":")[1]
                            for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length")
                        ][0]
                    )
                    body = await reader.readexactly(length)
                    return head, json.loads(body)

                # three requests ride one TCP connection
                for _ in range(3):
                    head, payload = await exchange()
                    assert payload["ok"] is True
                    assert b"Connection: keep-alive" in head

                # Connection: close is honoured — response says close
                # and the server hangs up
                head, payload = await exchange("Connection: close\r\n")
                assert b"Connection: close" in head
                assert await reader.read() == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_failed_state_survives_restart_via_service_journal(
        self, tmp_path
    ):
        """Satellite (a): campaign outcomes are journaled.  A campaign
        that failed stays failed across a coordinator restart — even if
        whatever broke its manifest has since been repaired — because a
        restart is not a retry; only explicit resubmission is."""
        cid = "feedfacecafe0000"
        bad = tmp_path / cid
        bad.mkdir()
        (bad / "campaign.json").write_text("{ truncated garbage")

        async def first_life():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                _, payload = await _request(port, "GET", f"/campaigns/{cid}")
                assert payload["state"] == "failed"
                return payload["error"]
            finally:
                await service.stop()

        error = asyncio.run(first_life())
        assert (tmp_path / SERVICE_LOG_FILENAME).exists()

        # repair the manifest behind the service's back: without the
        # journal the restart would happily relaunch this campaign
        spec = _spec(size=1, base_seed=54, name="repaired")
        write_campaign_manifest(bad, spec.to_dict(), cid, 1)

        async def second_life():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                _, payload = await _request(port, "GET", f"/campaigns/{cid}")
                assert payload["state"] == "failed"
                assert payload["error"] == error
            finally:
                await service.stop()
                await service.join()

        asyncio.run(second_life())


class TestLocalCampaignsFeedTheCache:
    def test_each_new_wearer_is_stored_once(self, tmp_path):
        """A local campaign of N new wearers leaves N cache entries and
        counts N stores: the coordinator's cache is the only writer, and
        it writes each wearer once."""
        spec = _spec(size=3, base_seed=71, name="stores")

        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, sub = await _request(
                    port, "POST", "/campaigns", spec.to_dict()
                )
                assert status == 202
                await _poll_until(port, sub["id"], ("done",))
                return len(service.wearer_cache)
            finally:
                await service.stop()
                await service.join()

        obs = Instrumentation(MetricsRegistry())
        with activate(obs):
            entries = asyncio.run(scenario())
        stores = obs.counter("cache.wearer_stores").value
        assert stores == entries == len(spec.wearers)


class TestRequestHardening:
    """The `_read_request` guard rails: slow clients and oversized bodies
    must get an error status and the socket back, not pin a handler."""

    async def _raw_exchange(self, port, blob, settle=0.0):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(blob)
            await writer.drain()
            if settle:
                await asyncio.sleep(settle)
            raw = await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return int(raw.split()[1]) if raw else None

    def test_silent_client_gets_408(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, read_timeout=0.3)
            _, port = await service.start("127.0.0.1", 0)
            try:
                # half a request line, then silence past the deadline
                status = await self._raw_exchange(
                    port, b"GET /healthz HTT", settle=0.0
                )
                assert status == 408
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_stalled_body_gets_408(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, read_timeout=0.3)
            _, port = await service.start("127.0.0.1", 0)
            try:
                head = (
                    b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 100\r\n\r\n"
                )
                status = await self._raw_exchange(
                    port, head + b"only-part-of-the-body"
                )
                assert status == 408
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_oversized_body_gets_413_before_buffering(self, tmp_path):
        from repro.campaign.service import MAX_BODY_BYTES

        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                head = (
                    b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n"
                    % (MAX_BODY_BYTES + 1)
                )
                # the declared size alone disqualifies the request: the
                # 413 must arrive without a single body byte being sent
                status = await self._raw_exchange(port, head)
                assert status == 413
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_garbage_header_line_gets_400(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                # one header line past the StreamReader's 64 KiB limit,
                # but small enough to land in the socket buffers before
                # the server answers (no write/reset race)
                blob = (
                    b"GET /healthz HTTP/1.1\r\n"
                    + b"X-Junk: " + b"a" * (80 * 1024) + b"\r\n\r\n"
                )
                status = await self._raw_exchange(port, blob)
                assert status == 400
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_status_alias_matches_bare_campaign_route(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                spec = _spec(size=2, base_seed=77, name="alias")
                status, sub = await _request(
                    port, "POST", "/campaigns", spec.to_dict()
                )
                assert status in (200, 202)
                cid = sub["id"]
                await _poll_until(port, cid, {"done"})
                _, bare = await _request(port, "GET", f"/campaigns/{cid}")
                _, alias = await _request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert alias == bare
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())


async def _exchange_with_headers(port, method, path, payload=None):
    """Like _request, but also returns the response headers (lowercased)
    so tests can pin wire-level fields like Retry-After."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = head_blob.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body_blob.decode())


class TestBackpressure:
    """PR 10 sync backpressure: global in-flight admission and the
    per-connection sync rate floor, both answered with 429 +
    Retry-After so workers can back off instead of piling on."""

    def test_saturated_coordinator_sheds_load_with_429(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, max_inflight=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                # connection 1 claims the only slot by sending a request
                # line and then stalling mid-headers
                reader1, writer1 = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer1.write(b"POST /fabric/sync HTTP/1.1\r\n")
                await writer1.drain()
                await asyncio.sleep(0.2)

                status, headers, err = await _exchange_with_headers(
                    port, "GET", "/campaigns"
                )
                assert status == 429
                assert float(headers["retry-after"]) > 0
                assert err["retry_after"] == float(headers["retry-after"])

                # health stays observable even under saturation — probes
                # and promotion are exempt from admission
                status, _, health = await _exchange_with_headers(
                    port, "GET", "/healthz"
                )
                assert (status, health["ok"]) == (200, True)

                # slot released when connection 1 goes away → accepted
                writer1.close()
                try:
                    await writer1.wait_closed()
                except (ConnectionError, OSError):
                    pass
                await asyncio.sleep(0.2)
                status, _, _ = await _exchange_with_headers(
                    port, "GET", "/campaigns"
                )
                assert status == 200
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_sync_spacing_is_per_connection(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, min_sync_interval=30.0)
            _, port = await service.start("127.0.0.1", 0)
            try:
                # one keep-alive connection syncing twice back-to-back:
                # the second tick violates the spacing floor
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                body = json.dumps(
                    {"worker": "w1", "heartbeats": []}
                ).encode()
                head = (
                    "POST /fabric/sync HTTP/1.1\r\nHost: t\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()

                async def one(expect):
                    writer.write(head + body)
                    await writer.drain()
                    status_line = await reader.readline()
                    assert b" %d " % expect in status_line
                    length = None
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b""):
                            break
                        name, _, value = line.decode().partition(":")
                        if name.strip().lower() == "content-length":
                            length = int(value)
                    await reader.readexactly(length)

                try:
                    await one(200)
                    await one(429)
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass

                # ...but a *fresh* connection is not punished for the
                # old one's chattiness
                status, _, sync = await _exchange_with_headers(
                    port, "POST", "/fabric/sync",
                    {"worker": "w2", "heartbeats": []},
                )
                assert status == 200
            finally:
                await service.stop()

        asyncio.run(scenario())
