"""Lease-queue state machine tests (no simulation — fabricated summaries).

The :class:`~repro.campaign.queue.CampaignQueue` is exercised directly
with an injected fake clock, so lease TTLs, expiries, and reassignment
races are deterministic and instant.  Commit payloads are fabricated
(the queue validates shape + CRC, not physics), which keeps this module
fast; the end-to-end byte-identity contract against real simulations
lives in ``test_campaign_fleet.py``.
"""

import json

import pytest

from repro.campaign.queue import (
    CampaignQueue,
    QueueError,
    shard_payload_crc,
)
from repro.campaign.spec import make_population
from repro.core.journal import (
    QUEUE_LOG_FILENAME,
    SUMMARY_FILENAME,
    JournalError,
    shard_directory,
)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _spec(size=5, name="queue", base_seed=11):
    return make_population(
        size, preset="smoke", base_seed=base_seed, pdr_bounds=(90, 95),
        name=name,
    )


def _summary(wearer_id, tag="a"):
    """A fabricated (but aggregatable) wearer summary."""
    return {
        "status": "infeasible",
        "best": None,
        "oracle_stats": {"simulations_run": 1, "cache_hits": 0},
        "tag": tag,
        "wearer_id": wearer_id,
    }


def _shard_summaries(queue, shard, tag="a"):
    return {w: _summary(w, tag) for w in queue.wearers_of[shard]}


def _commit_shard(queue, shard, worker="w", tag="a", token=None):
    summaries = _shard_summaries(queue, shard, tag)
    return queue.commit(
        shard, summaries, shard_payload_crc(summaries), worker=worker,
        token=token,
    )


def _queue(tmp_path, spec=None, shards=3, ttl=30.0, clock=None):
    return CampaignQueue(
        spec or _spec(),
        tmp_path / "campaign",
        shards=shards,
        lease_ttl=ttl,
        clock=clock or FakeClock(),
    )


def _nonempty_shards(queue):
    return [s for s, w in queue.wearers_of.items() if w]


class TestLeaseStateMachine:
    def test_acquire_leases_lowest_pending_shard(self, tmp_path):
        queue = _queue(tmp_path)
        lease = queue.acquire("w1")
        assert lease is not None
        assert lease["shard"] == min(_nonempty_shards(queue))
        assert lease["campaign"] == queue.fingerprint
        assert lease["preset"] == queue.spec.preset
        assert lease["ttl"] == queue.lease_ttl
        assert sorted(w["wearer_id"] for w in lease["wearers"]) == sorted(
            queue.wearers_of[lease["shard"]]
        )

    def test_queue_exhausts_to_none(self, tmp_path):
        queue = _queue(tmp_path)
        leases = []
        while True:
            lease = queue.acquire("w1")
            if lease is None:
                break
            leases.append(lease["shard"])
        assert sorted(leases) == _nonempty_shards(queue)
        assert queue.counts()["pending"] == 0

    def test_heartbeat_extends_the_lease(self, tmp_path):
        clock = FakeClock()
        queue = _queue(tmp_path, ttl=10.0, clock=clock)
        lease = queue.acquire("w1")
        clock.advance(8.0)
        queue.heartbeat(lease["token"])  # renewed to now+10
        clock.advance(8.0)  # past the *original* expiry, inside the renewal
        renewal = queue.heartbeat(lease["token"])
        assert renewal["shard"] == lease["shard"]

    def test_expired_lease_is_reclaimed_and_reassigned(self, tmp_path):
        clock = FakeClock()
        queue = _queue(tmp_path, ttl=10.0, clock=clock)
        lease = queue.acquire("w1")
        clock.advance(10.1)
        release = queue.acquire("w2")
        assert release["shard"] == lease["shard"]
        assert release["token"] != lease["token"]
        with pytest.raises(QueueError) as exc:
            queue.heartbeat(lease["token"])
        assert exc.value.status == 410

    def test_release_returns_shard_to_pending(self, tmp_path):
        queue = _queue(tmp_path)
        lease = queue.acquire("w1")
        outcome = queue.release(lease["token"], reason="drain")
        assert outcome == {"shard": lease["shard"], "state": "pending"}
        with pytest.raises(QueueError) as exc:
            queue.release(lease["token"])
        assert exc.value.status == 410
        assert queue.acquire("w2")["shard"] == lease["shard"]

    def test_commit_invalidates_every_live_token_for_the_shard(
        self, tmp_path
    ):
        # w1 leases, goes silent, the lease expires, w2 is reassigned the
        # shard and commits: w1's *and* w2's tokens must both be dead.
        clock = FakeClock()
        queue = _queue(tmp_path, ttl=10.0, clock=clock)
        lease1 = queue.acquire("w1")
        clock.advance(10.1)
        lease2 = queue.acquire("w2")
        assert lease2["shard"] == lease1["shard"]
        _commit_shard(queue, lease2["shard"], worker="w2",
                      token=lease2["token"])
        for token in (lease1["token"], lease2["token"]):
            with pytest.raises(QueueError) as exc:
                queue.heartbeat(token)
            assert exc.value.status == 410

    def test_stale_worker_commit_collapses_to_duplicate(self, tmp_path):
        # The zombie w1 finishes *after* w2 already committed identical
        # bytes: first-writer-wins, the late commit is a no-op.
        clock = FakeClock()
        queue = _queue(tmp_path, ttl=10.0, clock=clock)
        lease1 = queue.acquire("w1")
        clock.advance(10.1)
        lease2 = queue.acquire("w2")
        first = _commit_shard(queue, lease2["shard"], worker="w2")
        assert first["duplicate"] is False
        late = _commit_shard(queue, lease1["shard"], worker="w1",
                             token=lease1["token"])
        assert late["duplicate"] is True


def _subset_commit(queue, shard, wearer_ids, worker="w", tag="a",
                   token=None):
    summaries = {w: _summary(w, tag) for w in wearer_ids}
    return queue.commit(
        shard, summaries, shard_payload_crc(summaries), worker=worker,
        token=token,
    )


class TestWorkStealing:
    """Wearer-grain stealing: split, tail-first sub-leases, merged
    commits, and the races satellite (c) pins."""

    def _split_queue(self, tmp_path, ttl=30.0, clock=None, size=5):
        queue = CampaignQueue(
            _spec(size=size), tmp_path / "campaign", shards=1,
            lease_ttl=ttl, clock=clock or FakeClock(),
        )
        return queue, queue.acquire("holder")

    def test_acquire_splits_straggler_tail_first(self, tmp_path):
        queue, lease = self._split_queue(tmp_path)
        stolen = queue.acquire("thief")
        assert stolen is not None
        assert stolen["shard"] == lease["shard"]
        # tail-first: the holder runs head-first, so the fronts meet
        # with at most one wearer simulated twice
        wearers = queue.wearers_of[lease["shard"]]
        assert stolen["sub"] == wearers[-1]
        assert [w["wearer_id"] for w in stolen["wearers"]] == [wearers[-1]]
        assert queue.counts()["split"] == 1
        # a second thief gets the next wearer from the tail
        second = queue.acquire("thief2")
        assert second["sub"] == wearers[-2]

    def test_worker_never_steals_from_itself(self, tmp_path):
        queue, _ = self._split_queue(tmp_path)
        assert queue.acquire("holder") is None

    def test_holder_heartbeat_carries_stolen_set(self, tmp_path):
        queue, lease = self._split_queue(tmp_path)
        stolen = queue.acquire("thief")
        beat = queue.heartbeat(lease["token"])
        assert beat["stolen"] == [stolen["sub"]]
        # stays stolen after the thief commits (committed ≠ returned)
        _subset_commit(queue, lease["shard"], [stolen["sub"]],
                       worker="thief", token=stolen["token"])
        assert queue.heartbeat(lease["token"])["stolen"] == [stolen["sub"]]

    def test_merged_commits_seal_like_an_unsplit_shard(self, tmp_path):
        queue, lease = self._split_queue(tmp_path)
        shard = lease["shard"]
        stolen = queue.acquire("thief")
        sub = _subset_commit(queue, shard, [stolen["sub"]], worker="thief",
                             token=stolen["token"])
        assert sub["state"] == "split"
        assert sub["committed_wearers"] == [stolen["sub"]]
        remainder = [w for w in queue.wearers_of[shard]
                     if w != stolen["sub"]]
        sealed = _subset_commit(queue, shard, remainder, worker="holder",
                                token=lease["token"])
        assert sealed["state"] == "committed"
        assert queue.done
        # the merged seal is keyed by the *full* shard CRC — replay
        # cannot tell a merged shard from an unsplit one
        full = _shard_summaries(queue, shard)
        assert queue._shards[shard]["crc"] == shard_payload_crc(full)
        # every live token died with the seal
        for token in (lease["token"], stolen["token"]):
            with pytest.raises(QueueError) as exc:
                queue.heartbeat(token)
            assert exc.value.status == 410

    def test_thief_sub_lease_expires_back_to_stealable(self, tmp_path):
        clock = FakeClock()
        queue, _ = self._split_queue(tmp_path, ttl=10.0, clock=clock)
        stolen = queue.acquire("thief")
        clock.advance(10.1)
        with pytest.raises(QueueError) as exc:
            queue.heartbeat(stolen["token"])
        assert exc.value.status == 410
        regrant = queue.acquire("thief2")
        assert regrant["sub"] == stolen["sub"]
        assert regrant["token"] != stolen["token"]

    def test_release_after_expiry_and_regrant_is_refused(self, tmp_path):
        # Satellite race: w1's lease expires, the shard is re-granted to
        # w2, then w1's belated release arrives — it must get 410 and
        # leave w2's lease untouched (not return the shard to pending).
        clock = FakeClock()
        queue = _queue(tmp_path, ttl=10.0, clock=clock)
        lease1 = queue.acquire("w1")
        clock.advance(10.1)
        lease2 = queue.acquire("w2")
        assert lease2["shard"] == lease1["shard"]
        with pytest.raises(QueueError) as exc:
            queue.release(lease1["token"], reason="belated drain")
        assert exc.value.status == 410
        assert queue.heartbeat(lease2["token"])["shard"] == lease2["shard"]

    def test_sub_commit_racing_full_commit_collapses_to_duplicate(
        self, tmp_path
    ):
        # Satellite race: the holder never heard about the steal and
        # commits the full wearer set while the thief still holds its
        # sub-lease; the shard seals, and the thief's later identical
        # sub-commit is a byte-compared no-op.
        queue, lease = self._split_queue(tmp_path)
        shard = lease["shard"]
        stolen = queue.acquire("thief")
        sealed = _commit_shard(queue, shard, worker="holder",
                               token=lease["token"])
        assert sealed["state"] == "committed"
        late = _subset_commit(queue, shard, [stolen["sub"]], worker="thief",
                              token=stolen["token"])
        assert late["duplicate"] is True
        assert late["duplicate_wearers"] == [stolen["sub"]]

    def test_sub_commit_racing_full_commit_divergent_is_refused(
        self, tmp_path
    ):
        queue, lease = self._split_queue(tmp_path)
        shard = lease["shard"]
        stolen = queue.acquire("thief")
        _commit_shard(queue, shard, worker="holder", tag="a",
                      token=lease["token"])
        with pytest.raises(QueueError) as exc:
            _subset_commit(queue, shard, [stolen["sub"]], worker="thief",
                           tag="b", token=stolen["token"])
        assert exc.value.status == 409

    def test_split_state_survives_coordinator_restart(self, tmp_path):
        clock = FakeClock()
        spec = _spec()
        queue = CampaignQueue(
            spec, tmp_path / "campaign", shards=1, lease_ttl=30.0,
            clock=clock,
        )
        lease = queue.acquire("holder")
        shard = lease["shard"]
        first = queue.acquire("thief")
        second = queue.acquire("thief2")
        _subset_commit(queue, shard, [first["sub"]], worker="thief",
                       token=first["token"])
        queue.close()

        reopened = CampaignQueue(
            spec, tmp_path / "campaign", shards=1, lease_ttl=30.0,
            clock=clock,
        )
        # the split, the committed steal, and both live leases came back
        assert reopened.counts()["split"] == 1
        assert set(reopened.stolen_wearers(shard)) == {
            first["sub"], second["sub"],
        }
        assert reopened.heartbeat(second["token"])["wearer"] == second["sub"]
        remainder = [w for w in reopened.wearers_of[shard]
                     if w != first["sub"]]
        sealed = _subset_commit(reopened, shard, remainder, worker="holder",
                                token=lease["token"])
        assert sealed["state"] == "committed"
        assert reopened.done
        reopened.close()


class TestCommitValidation:
    def test_corrupt_payload_crc_is_refused(self, tmp_path):
        queue = _queue(tmp_path)
        shard = _nonempty_shards(queue)[0]
        summaries = _shard_summaries(queue, shard)
        with pytest.raises(QueueError) as exc:
            queue.commit(shard, summaries, "deadbeef", worker="w1")
        assert exc.value.status == 400
        assert queue.counts()["committed"] == queue.shards - len(
            _nonempty_shards(queue)
        )

    def test_wrong_wearer_set_is_refused(self, tmp_path):
        queue = _queue(tmp_path)
        shard = _nonempty_shards(queue)[0]
        summaries = _shard_summaries(queue, shard)
        summaries["intruder"] = _summary("intruder")
        with pytest.raises(QueueError) as exc:
            queue.commit(
                shard, summaries, shard_payload_crc(summaries), worker="w1"
            )
        assert exc.value.status == 400

    def test_unknown_shard_404s(self, tmp_path):
        queue = _queue(tmp_path)
        with pytest.raises(QueueError) as exc:
            queue.commit(99, {}, shard_payload_crc({}), worker="w1")
        assert exc.value.status == 404

    def test_divergent_double_commit_is_an_integrity_error(self, tmp_path):
        queue = _queue(tmp_path)
        shard = _nonempty_shards(queue)[0]
        _commit_shard(queue, shard, tag="a")
        with pytest.raises(QueueError) as exc:
            _commit_shard(queue, shard, tag="b")  # different bytes!
        assert exc.value.status == 409
        # the original bytes survived the attempt
        wearer = queue.wearers_of[shard][0]
        path = (
            shard_directory(queue.directory, shard) / wearer
            / SUMMARY_FILENAME
        )
        assert json.loads(path.read_text())["tag"] == "a"

    def test_commit_writes_summaries_to_disk(self, tmp_path):
        queue = _queue(tmp_path)
        shard = _nonempty_shards(queue)[0]
        _commit_shard(queue, shard)
        for wearer in queue.wearers_of[shard]:
            path = (
                shard_directory(queue.directory, shard) / wearer
                / SUMMARY_FILENAME
            )
            assert json.loads(path.read_text())["wearer_id"] == wearer


class TestDurability:
    def test_replay_restores_commits_and_inflight_leases(self, tmp_path):
        clock = FakeClock()
        spec = _spec()
        queue = _queue(tmp_path, spec=spec, ttl=10.0, clock=clock)
        shards = _nonempty_shards(queue)
        lease = queue.acquire("w1")
        committed = [s for s in shards if s != lease["shard"]][0]
        _commit_shard(queue, committed, worker="w2")
        queue.close()

        reopened = _queue(tmp_path, spec=spec, ttl=10.0, clock=clock)
        counts = reopened.counts()
        assert counts["leased"] == 1
        assert counts["committed"] >= 1
        # the restored lease keeps its original token *and* expiry
        assert reopened.heartbeat(lease["token"])["shard"] == lease["shard"]
        clock.advance(10.1)
        assert reopened.acquire("w3")["shard"] == lease["shard"]
        reopened.close()

    def test_restored_lease_expires_on_original_wall_clock(self, tmp_path):
        clock = FakeClock()
        spec = _spec()
        queue = _queue(tmp_path, spec=spec, ttl=10.0, clock=clock)
        lease = queue.acquire("w1")
        queue.close()
        clock.advance(10.1)  # TTL lapsed while the coordinator was down
        reopened = _queue(tmp_path, spec=spec, ttl=10.0, clock=clock)
        with pytest.raises(QueueError):
            reopened.heartbeat(lease["token"])
        assert reopened.acquire("w2")["shard"] == lease["shard"]
        reopened.close()

    def test_torn_log_tail_is_truncated_not_fatal(self, tmp_path):
        spec = _spec()
        queue = _queue(tmp_path, spec=spec)
        shard = _nonempty_shards(queue)[0]
        _commit_shard(queue, shard)
        queue.close()
        log = tmp_path / "campaign" / QUEUE_LOG_FILENAME
        with open(log, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "lease", "shard":')  # torn mid-write
        reopened = _queue(tmp_path, spec=spec)
        assert reopened._shards[shard]["state"] == "committed"
        reopened.close()

    def test_foreign_campaign_directory_is_refused(self, tmp_path):
        queue = _queue(tmp_path, spec=_spec(name="first"))
        queue.close()
        with pytest.raises(JournalError):
            _queue(tmp_path, spec=_spec(name="second"))

    def test_empty_shards_are_committed_by_the_coordinator(self, tmp_path):
        # More shards than wearers guarantees holes in the assignment.
        queue = _queue(tmp_path, spec=_spec(size=3), shards=8)
        empties = [s for s, w in queue.wearers_of.items() if not w]
        assert empties  # the premise of this test
        counts = queue.counts()
        assert counts["committed"] == len(empties)
        assert queue.worker_commits().get("coordinator") == len(empties)
        queue.close()


class TestFinalize:
    def test_finalize_refuses_a_partial_campaign(self, tmp_path):
        queue = _queue(tmp_path)
        with pytest.raises(QueueError) as exc:
            queue.finalize()
        assert exc.value.status == 409

    def test_finalize_is_deterministic_across_queue_instances(
        self, tmp_path
    ):
        # Two independent queues fed the same summary bytes must write
        # byte-identical aggregate/atlas artifacts — the queue-local half
        # of the fleet-vs-single-host identity contract.
        spec = _spec()
        blobs = {}
        for leg in ("a", "b"):
            queue = _queue(tmp_path / leg, spec=spec)
            for shard in _nonempty_shards(queue):
                _commit_shard(queue, shard, worker=f"w-{leg}")
            assert queue.done
            queue.finalize()
            blobs[leg] = tuple(
                (queue.directory / name).read_bytes()
                for name in ("aggregate.json", "atlas.json")
            )
            queue.close()
        assert blobs["a"] == blobs["b"]

    def test_shard_states_expose_the_operator_view(self, tmp_path):
        clock = FakeClock()
        queue = _queue(tmp_path, ttl=10.0, clock=clock)
        lease = queue.acquire("w1")
        states = {s["index"]: s for s in queue.shard_states()}
        assert len(states) == queue.shards
        leased = states[lease["shard"]]
        assert leased["state"] == "leased"
        assert leased["worker"] == "w1"
        assert 0.0 < leased["expires_in"] <= 10.0
        pending = [
            s for s in states.values()
            if s["state"] == "pending" and s["wearers"]
        ]
        assert pending
        queue.close()


class TestFencingTokens:
    """PR 10 epoch-stamped lease tokens: minting, parsing, the cross-
    epoch honour rules, and constant-time comparison semantics."""

    def test_mint_and_parse_roundtrip(self):
        from repro.campaign.queue import mint_token, token_epoch

        token = mint_token(3)
        assert token.startswith("e3.")
        assert token_epoch(token) == 3
        assert token_epoch(mint_token(12)) == 12
        # two mints never collide
        assert mint_token(3) != mint_token(3)

    def test_legacy_and_garbage_tokens_parse_to_none(self):
        from repro.campaign.queue import token_epoch

        for legacy in ("deadbeefcafe", "", "e.", "eX.abc", "e-1x.y"):
            assert token_epoch(legacy) is None

    def test_tokens_equal_semantics(self):
        from repro.campaign.queue import mint_token, tokens_equal

        token = mint_token(1)
        assert tokens_equal(token, token)
        assert not tokens_equal(token, mint_token(1))
        assert tokens_equal(None, None)
        assert not tokens_equal(token, None)
        assert not tokens_equal(None, token)

    def test_minted_leases_carry_the_queue_epoch(self, tmp_path):
        from repro.campaign.queue import token_epoch

        queue = CampaignQueue(
            _spec(), tmp_path / "campaign", shards=3, clock=FakeClock(),
            epoch=2,
        )
        lease = queue.acquire("w")
        assert token_epoch(lease["token"]) == 2
        queue.close()

    def test_earlier_epoch_tokens_survive_a_handoff(self, tmp_path):
        # the liveness half of fencing: a lease granted by epoch-1 is
        # replayed into the epoch-2 queue and stays fully usable — the
        # worker heartbeats and commits mid-shard work without
        # re-simulation
        from repro.campaign.queue import token_epoch

        old = CampaignQueue(
            _spec(), tmp_path / "campaign", shards=3, clock=FakeClock(),
            epoch=1,
        )
        lease = old.acquire("w")
        assert token_epoch(lease["token"]) == 1
        old.close()

        new = CampaignQueue(
            _spec(), tmp_path / "campaign", shards=3, clock=FakeClock(),
            epoch=2,
        )
        beat = new.heartbeat(lease["token"])
        assert beat["shard"] == lease["shard"]
        outcome = _commit_shard(
            new, lease["shard"], token=lease["token"]
        )
        assert (outcome["state"], outcome["duplicate"]) == (
            "committed", False,
        )
        new.close()

    def test_later_epoch_token_means_deposed_queue_410(self, tmp_path):
        from repro.campaign.queue import mint_token

        queue = CampaignQueue(
            _spec(), tmp_path / "campaign", shards=3, clock=FakeClock(),
            epoch=1,
        )
        queue.acquire("w")
        with pytest.raises(QueueError) as err:
            queue.heartbeat(mint_token(2))
        assert err.value.status == 410
        assert "superseded" in err.value.message
        # an unknown token from our *own* epoch is a plain dead lease,
        # not a fencing event
        with pytest.raises(QueueError) as err:
            queue.heartbeat(mint_token(1))
        assert err.value.status == 410
        assert "superseded" not in err.value.message
        queue.close()
