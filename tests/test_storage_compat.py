"""On-disk compatibility of the storage primitive (DESIGN.md §9).

The files under ``tests/fixtures/storage`` were written by the storage
code that preceded the shared primitive (git commit 18ea66c), and
``expected.json`` records what that code loaded from them:

* ``run/journal.jsonl`` — a run journal ending in a torn line;
* ``campaign/`` — a campaign manifest, two shard manifests, one
  committed wearer summary and a ``queue.jsonl`` holding a committed
  shard and a lease still in flight;
* ``result_cache/<fingerprint>.jsonl`` — a result cache mixing v2
  envelopes with a legacy v1 line;
* ``wearer_cache/`` — one wearer-cache entry with its ``index.json``.

Each test loads a copy of one of them with today's code and requires the
same entries, records and summaries.

``local_campaign/`` was written by the code before local campaigns
committed through the shard queue (git commit e0ee553): ``aggregate.json``
and ``atlas.json`` of an uninterrupted 2-wearer, 2-shard smoke campaign
(``campaign --wearers 2 --preset smoke --pdr-min 90 --jobs 1 --shards
2``), and in ``killed/`` the same campaign cut back to what a kill during
its second wearer leaves: no ``queue.jsonl``, that wearer's journal torn
mid-line and its ``summary.json`` gone, no artifacts.

``solve_run/`` and ``robust_run/`` were written by the code before
nominal and robust runs shared one explorer loop (git commit 53b92d3),
with the CI smoke arguments (:data:`SOLVE_ARGV`, :data:`ROBUST_ARGV`)
and ``--out``: ``summary.json`` of the uninterrupted run, and in
``killed/`` its journal torn mid-line about halfway, with no summary.
"""

import json
import pathlib
import shutil

import pytest

from repro import cli
from repro.campaign.queue import CampaignQueue
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.wearer_cache import INDEX_FILENAME, WearerResultCache
from repro.core.journal import (
    JOURNAL_FILENAME,
    QUEUE_LOG_FILENAME,
    SUMMARY_FILENAME,
    EventLog,
    RunJournal,
    load_campaign_manifest,
    load_campaign_shards,
)
from repro.core.result_cache import ResultCache, record_to_dict

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "storage"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())

SOLVE_ARGV = ["solve", "--pdr-min", "90", "--preset", "smoke"]
ROBUST_ARGV = [
    "robust", "--pdr-min", "85", "--preset", "smoke", "--seed", "3",
    "--ensemble-size", "2", "--hub-stress", "--quantile", "0",
    "--outage-fraction", "0.2",
]


@pytest.fixture
def copy(tmp_path):
    def _copy(name):
        return shutil.copytree(FIXTURES / name, tmp_path / name)

    return _copy


def test_run_journal_with_a_torn_tail(copy):
    run = copy("run")
    expected = EXPECTED["journal"]
    with RunJournal.resume(run, command="solve") as journal:
        assert journal.manifest == expected["manifest"]
        assert journal.entries == expected["entries"]
    original = (FIXTURES / "run" / JOURNAL_FILENAME).read_bytes()
    assert (run / JOURNAL_FILENAME).read_bytes() == (
        original[: expected["intact_bytes"]]
    )


def test_campaign_manifests_and_queue_log(copy):
    campaign = copy("campaign")
    expected = EXPECTED["campaign"]
    assert load_campaign_manifest(campaign) == expected["manifest"]
    assert load_campaign_shards(campaign) == expected["shards"]
    with EventLog(campaign / QUEUE_LOG_FILENAME) as log:
        assert log.entries == expected["queue_entries"]
    queue = CampaignQueue(
        CampaignSpec.from_dict(expected["spec"]), campaign, shards=2,
        clock=lambda: 1000.0,
    )
    try:
        assert queue.counts() == expected["counts"]
        assert queue.committed_summaries() == expected["summaries"]
    finally:
        queue.close()
    # replaying the log appended and truncated nothing
    assert (campaign / QUEUE_LOG_FILENAME).read_bytes() == (
        FIXTURES / "campaign" / QUEUE_LOG_FILENAME
    ).read_bytes()


def test_result_cache_mixing_v1_and_v2_lines(copy):
    directory = copy("result_cache")
    expected = EXPECTED["result_cache"]
    cache = ResultCache(directory, expected["fingerprint"])
    cache.load()
    assert [record_to_dict(r) for r in cache] == expected["records"]
    assert cache.compacted == expected["compacted"]
    assert cache.quarantined_lines == expected["quarantined_lines"]
    # the compacted file holds the same records, in the current format
    again = ResultCache(directory, expected["fingerprint"])
    again.load()
    assert [record_to_dict(r) for r in again] == expected["records"]
    assert not again.compacted


def test_wearer_cache_entry_and_index(copy):
    directory = copy("wearer_cache")
    expected = EXPECTED["wearer_cache"]
    cache = WearerResultCache(directory)
    assert len(cache) == 1
    assert cache.get(expected["fingerprint"]) == expected["summary"]
    assert json.loads((directory / INDEX_FILENAME).read_text()) == (
        expected["index"]
    )
    assert cache.total_bytes() == sum(
        entry["bytes"] for entry in expected["index"]["entries"].values()
    )
    # an identical re-put is a no-op, not a divergence
    assert cache.put(expected["fingerprint"], expected["summary"]) is False


def test_local_campaign_killed_before_the_queue_log(copy):
    campaign = copy("local_campaign")
    killed = campaign / "killed"
    assert not (killed / QUEUE_LOG_FILENAME).exists()
    spec = CampaignSpec.from_dict(load_campaign_manifest(killed)["spec"])
    report = run_campaign(spec, killed, jobs=1)
    for name in ("aggregate.json", "atlas.json"):
        assert (killed / name).read_bytes() == (campaign / name).read_bytes()
    # the resume recorded both shards in the queue log it created
    with EventLog(killed / QUEUE_LOG_FILENAME) as log:
        assert [(e["kind"], e["shard"], e["worker"]) for e in log.entries] == [
            ("commit", 0, "local"), ("commit", 1, "local"),
        ]
    assert report.telemetry["resumed_wearers"] == 2  # one loaded, one replayed


@pytest.mark.parametrize(
    "name,argv", [("solve_run", SOLVE_ARGV), ("robust_run", ROBUST_ARGV)]
)
def test_run_killed_under_the_previous_code_resumes(copy, name, argv):
    run = copy(name)
    killed = run / "killed"
    torn = (killed / JOURNAL_FILENAME).read_bytes()
    assert not (killed / SUMMARY_FILENAME).exists()
    assert cli.main(argv + ["--jobs", "1", "--resume", str(killed)]) == 0
    assert (killed / SUMMARY_FILENAME).read_bytes() == (
        run / SUMMARY_FILENAME
    ).read_bytes()
    # the intact prefix was replayed in place, not rewritten
    assert (killed / JOURNAL_FILENAME).read_bytes().startswith(
        torn[: torn.rindex(b"\n") + 1]
    )
