"""Coordinator failover: fencing epochs, warm-standby promotion, and
the deposed-primary 410 contract (DESIGN.md §14).

These are in-process tests — primary and standby are two
``CampaignService`` instances sharing one campaign root, exactly like
two coordinator processes sharing a filesystem.  The full
kill-the-primary chaos run lives in ``scripts/failover_smoke.py``.
"""

import asyncio
import json

from repro.campaign.queue import token_epoch
from repro.campaign.service import CampaignService
from repro.campaign.spec import make_population


async def _request(port, method, path, payload=None):
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
    return int(head_blob.split()[1]), json.loads(body_blob.decode())


def _spec(size=3, base_seed=60, name="failover"):
    return make_population(
        size, preset="smoke", base_seed=base_seed, pdr_bounds=(90, 95),
        name=name,
    )


async def _submit_fleet(port, spec):
    status, sub = await _request(
        port, "POST", "/campaigns",
        {"spec": spec.to_dict(), "execution": "fleet"},
    )
    assert status == 202
    return sub["id"]


class TestFencingEpochs:
    def test_restart_readopts_epoch_new_node_bumps_it(self, tmp_path):
        async def scenario():
            alpha = CampaignService(tmp_path, node_name="alpha")
            assert alpha.epoch == 1
            await alpha.stop()

            # same node restarting is the PR 8 contract, not a failover:
            # outstanding e1 tokens must stay valid, so no bump
            alpha_again = CampaignService(tmp_path, node_name="alpha")
            assert alpha_again.epoch == 1
            await alpha_again.stop()

            # a *different* node claiming primacy always outranks
            gamma = CampaignService(tmp_path, node_name="gamma")
            assert gamma.epoch == 2
            await gamma.stop()

        asyncio.run(scenario())

    def test_promotion_fences_the_old_primary(self, tmp_path):
        async def scenario():
            primary = CampaignService(tmp_path, node_name="alpha")
            _, a_port = await primary.start("127.0.0.1", 0)
            standby = CampaignService(
                tmp_path,
                node_name="beta",
                standby_of=f"http://127.0.0.1:{a_port}",
            )
            _, b_port = await standby.start("127.0.0.1", 0)
            try:
                spec = _spec(name="fence")
                cid = await _submit_fleet(a_port, spec)

                # lease a shard on the old primary: its token carries
                # epoch 1
                status, sync = await _request(
                    a_port, "POST", "/fabric/sync", {"worker": "w1"}
                )
                assert status == 200
                old_lease = sync["lease"]
                assert token_epoch(old_lease["token"]) == 1

                # the standby refuses mutations while standing by...
                status, err = await _request(
                    b_port, "POST", "/fabric/sync", {"worker": "w1"}
                )
                assert (status, err["role"]) == (503, "standby")
                # ...but serves read-only status from the journal tail
                status, health = await _request(b_port, "GET", "/healthz")
                assert (status, health["role"]) == (200, "standby")
                status, view = await _request(
                    b_port, "GET", f"/campaigns/{cid}"
                )
                assert status == 200

                # promote: epoch bumps, the in-flight e1 lease survives
                status, promoted = await _request(
                    b_port, "POST", "/fabric/promote"
                )
                assert status == 200
                assert promoted["promoted"] is True
                assert promoted["epoch"] == 2
                status, sync = await _request(
                    b_port, "POST", "/fabric/sync",
                    {"worker": "w1", "acquire": False, "heartbeats": [
                        {"campaign": cid, "token": old_lease["token"]},
                    ]},
                )
                assert status == 200
                (beat,) = sync["heartbeats"]
                assert beat["status"] == 200
                assert beat["shard"] == old_lease["shard"]

                # fresh grants from the new primary carry the new epoch
                status, sync = await _request(
                    b_port, "POST", "/fabric/sync", {"worker": "w2"}
                )
                assert status == 200
                assert token_epoch(sync["lease"]["token"]) == 2

                # the deposed primary now refuses every mutation with
                # 410/fenced — and mutates nothing while refusing
                queue_log = tmp_path / cid / "queue.jsonl"
                before = queue_log.read_bytes()
                status, err = await _request(
                    a_port, "POST", "/fabric/sync", {"worker": "w3"}
                )
                assert status == 410
                assert err["fenced"] is True
                assert queue_log.read_bytes() == before
                # once fenced, fenced for life — even for plain POSTs
                status, err = await _request(
                    a_port, "POST",
                    f"/campaigns/{cid}/leases/{old_lease['token']}/release",
                )
                assert (status, err["fenced"]) == (410, True)
                assert queue_log.read_bytes() == before
            finally:
                await standby.stop()
                await primary.stop()

        asyncio.run(scenario())

    def test_promote_is_idempotent(self, tmp_path):
        async def scenario():
            primary = CampaignService(tmp_path, node_name="alpha")
            _, a_port = await primary.start("127.0.0.1", 0)
            standby = CampaignService(
                tmp_path, node_name="beta",
                standby_of=f"http://127.0.0.1:{a_port}",
            )
            _, b_port = await standby.start("127.0.0.1", 0)
            try:
                status, first = await _request(
                    b_port, "POST", "/fabric/promote"
                )
                assert (status, first["promoted"]) == (200, True)
                status, second = await _request(
                    b_port, "POST", "/fabric/promote"
                )
                assert (status, second["promoted"]) == (200, False)
                assert second["epoch"] == first["epoch"]
            finally:
                await standby.stop()
                await primary.stop()

        asyncio.run(scenario())


class TestAutoPromotion:
    def test_standby_promotes_after_missed_pings(self, tmp_path):
        async def scenario():
            primary = CampaignService(tmp_path, node_name="alpha")
            _, a_port = await primary.start("127.0.0.1", 0)
            standby = CampaignService(
                tmp_path,
                node_name="beta",
                standby_of=f"http://127.0.0.1:{a_port}",
                ping_interval=0.05,
                ping_misses=2,
            )
            _, b_port = await standby.start("127.0.0.1", 0)
            try:
                spec = _spec(name="autopromote", base_seed=61)
                cid = await _submit_fleet(a_port, spec)

                # primary healthy → the standby must hold its fire
                await asyncio.sleep(0.3)
                assert standby.role == "standby"

                await primary.stop()  # SIGKILL stand-in

                for _ in range(200):
                    if standby.role == "primary":
                        break
                    await asyncio.sleep(0.05)
                assert standby.role == "primary"
                assert standby.epoch == 2

                # the promoted standby owns the campaign: it grants
                # leases for the shards the dead primary left behind
                status, sync = await _request(
                    b_port, "POST", "/fabric/sync", {"worker": "w1"}
                )
                assert status == 200
                assert sync["campaign"] == cid
                assert token_epoch(sync["lease"]["token"]) == 2
            finally:
                await standby.stop()
                await primary.stop()

        asyncio.run(scenario())
