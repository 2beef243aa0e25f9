"""The three workloads: ``solve``, ``robust`` and ``campaign``.

Each one is a closed loop driven from this process at ``jobs=1`` -- the
next answer starts when the previous one returned -- with at most one
extra worker process, so a 2-core machine is never oversubscribed.

Every workload reports every end-to-end metric, each from its own timing:

===================  =====================================  ==========================================
metric               ``solve`` / ``robust``                 ``campaign``
===================  =====================================  ==========================================
``wearers_per_s``    grid problems per second, first pass   wearers per second, cold local submissions
``answers_per_s``    answers per second, median of passes   wearers per second, cold fleet submissions
``warm_campaign_s``  re-answer of the grid through its      median fleet re-submission served from the
                     filled oracles, per-problem medians    coordinator's wearer cache, until ``done``
                     summed (no simulation)
===================  =====================================  ==========================================

``setup_s`` and ``peak_rss_mb`` are measured the same way everywhere.
Timings are reported at the reference machine speed
(:class:`benchenv.Clock`).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import pathlib
import shutil
import sys
from statistics import median, quantiles
from typing import Dict, List, Optional

import answers
import benchenv
import spans as spanlib

#: Steady passes at least, whatever ``--seconds`` says (a median needs 3).
MIN_PASSES = 3
#: Seconds of a ``--seconds`` budget that one steady pass stands for (at
#: 20 s: 3 ``solve`` or ``robust`` passes, 40 warm ``campaign``
#: re-submissions).  A run's wall time also covers its set-up starts, the
#: first pass or the cold submissions: about 30 s in all on a 2-core VM.
PASS_S = {"solve": 7.0, "robust": 7.0, "campaign": 0.5}
#: Warm passes of each kind (untraced, traced) in a traced campaign run.
TRACE_WARM_PASSES = 16
#: Cold submissions of each kind (local, fleet) in a campaign run, and
#: the wearers in each, alternating between the two PDR cohorts.
SUBMISSIONS = 3
POPULATION = 4
#: Status poll interval while a local campaign runs in its thread.
LOCAL_POLL_S = 0.02


@dataclasses.dataclass
class Outcome:
    """What a workload measured and whether its answers were right."""

    metrics: Dict[str, dict] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    failed: int = 0
    #: Facts printed beside the metrics (sample counts, design checks).
    notes: List[str] = dataclasses.field(default_factory=list)

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "samples": samples}

    def check(self, errors: List[str]) -> None:
        """Count one checked operation, failed when ``errors`` is not empty."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


# -- solve / robust ----------------------------------------------------------------------


def _comparable(workload: str, result) -> Optional[dict]:
    if workload == "solve":
        return answers.nominal_answer(result)
    return answers.robust_answer(result)


class AnswerPass:
    """One pass over the grid with fresh oracles, then optionally a warm
    re-answer of every problem through the oracle its cold answer filled.
    Every answer is one timed operation."""

    def __init__(self, workload: str, problems: List[tuple], catalogue: dict,
                 outcome: Outcome, clock: benchenv.Clock, tracer=None,
                 label: str = "pass") -> None:
        self.workload = workload
        self.problems = problems
        self.catalogue = catalogue
        self.outcome = outcome
        self.clock = clock
        self.tracer = tracer
        self.label = label
        #: Timed operations, one per answer.
        self.cold_ops: List[tuple] = []
        self.warm_ops: List[tuple] = []
        self.answers: List[Optional[dict]] = []
        self._oracles = []

    def _timed(self, index: int, phase: str, oracle=None) -> tuple:
        if self.tracer is not None:
            seed, pdr = self.problems[index]
            self.tracer.context = f"{self.label}/{phase}/{seed}/{pdr:.2f}"
        start = self.clock.start()
        result, oracle = answers.answer(
            self.workload, self.problems[index], oracle
        )
        return result, oracle, self.clock.stop(start)

    def cold(self) -> "AnswerPass":
        for i, problem in enumerate(self.problems):
            result, oracle, operation = self._timed(i, "cold")
            self.cold_ops.append(operation)
            self._oracles.append(oracle)
            self.answers.append(_comparable(self.workload, result))
            self.outcome.check(answers.check_answer(
                self.workload, problem, result, oracle, self.catalogue
            ))
        return self

    def warm(self) -> "AnswerPass":
        for i, problem in enumerate(self.problems):
            result, _, operation = self._timed(i, "warm", self._oracles[i])
            self.warm_ops.append(operation)
            wrong = answers.answer_errors(
                _comparable(self.workload, result), self.answers[i]
            )
            if result.simulations_run:
                wrong.append(
                    f"warm re-answer of {problem} ran "
                    f"{result.simulations_run} simulations"
                )
            self.outcome.check(wrong)
        return self

    def close(self) -> None:
        for oracle in self._oracles:
            oracle.close()
        self._oracles = []

    def cold_s(self) -> List[float]:
        """Seconds at reference speed per cold answer."""
        return [self.clock.seconds(op) for op in self.cold_ops]

    def warm_s(self) -> List[float]:
        """Seconds at reference speed per warm re-answer."""
        return [self.clock.seconds(op) for op in self.warm_ops]

    def wall_s(self) -> float:
        return sum(end - start for start, end in self.cold_ops + self.warm_ops)


def _median_total(per_pass: List[List[float]]) -> float:
    """Grid time with each problem at its median over the passes, so a
    burst of machine load in one pass moves no problem's time."""
    return sum(median(times) for times in zip(*per_pass))


def passes(workload: str, seconds: float) -> int:
    """Steady passes for a ``--seconds`` budget: fixed by the argument,
    not by how fast this machine happens to be, so every run at one
    budget does identical work."""
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def run_answers(workload: str, seed: int, seconds: float) -> Outcome:
    """The untraced ``solve`` or ``robust`` measurement."""
    catalogue = answers.load_catalogue()
    problems = answers.grid(workload, seed)
    outcome = Outcome()
    count = len(problems)
    clock = benchenv.Clock()
    first = AnswerPass(workload, problems, catalogue, outcome, clock).cold()
    first.close()
    steady = []
    for _ in range(passes(workload, seconds)):
        done = AnswerPass(
            workload, problems, catalogue, outcome, clock
        ).cold().warm()
        done.close()
        steady.append(done)
    cold = [done.cold_s() for done in steady]
    warm = [done.warm_s() for done in steady]
    outcome.metric("wearers_per_s", count / sum(first.cold_s()), "1/s", count)
    outcome.metric(
        "answers_per_s", count / _median_total(cold), "1/s", count * len(cold)
    )
    outcome.metric(
        "warm_campaign_s", _median_total(warm), "s", count * len(warm)
    )
    outcome.notes.append(
        f"grid: {count} problems {problems}; passes: 1 first + {len(cold)} "
        f"steady; reference seconds per steady pass, cold "
        f"{[round(sum(t), 3) for t in cold]} warm "
        f"{[round(sum(t), 3) for t in warm]}; wall seconds per pass "
        f"{[round(p.wall_s(), 3) for p in [first] + steady]}; "
        f"{clock.summary()}"
    )
    return outcome


def trace_answers(workload: str, seed: int) -> tuple:
    """The traced ``solve`` or ``robust`` run: one untraced pass, then the
    same pass traced.  Returns (outcome, tracer, extra per-layer metrics)."""
    catalogue = answers.load_catalogue()
    problems = answers.grid(workload, seed)
    outcome = Outcome()
    clock = benchenv.Clock()
    plain = AnswerPass(workload, problems, catalogue, outcome, clock)
    plain.cold().warm().close()
    tracer = spanlib.Tracer()
    tracer.install()
    try:
        traced = AnswerPass(
            workload, problems, catalogue, outcome, clock, tracer, "traced"
        ).cold().warm()
        traced.close()
    finally:
        tracer.uninstall()
    for got, want in zip(traced.answers, plain.answers):
        outcome.check(answers.answer_errors(got, want))
    pairs = zip(traced.cold_s() + traced.warm_s(),
                plain.cold_s() + plain.warm_s())
    extra = {
        # Per answer, so a burst of machine load during one answer of
        # either pass does not set the estimate.
        "trace.overhead_pct": 100.0 * median([t / p - 1 for t, p in pairs]),
        "trace.coverage": spanlib.coverage(tracer.spans, traced.wall_s()),
    }
    return outcome, tracer, extra


# -- campaign ----------------------------------------------------------------------------


def populations(seed: int) -> tuple:
    """(local populations, fleet populations): ``SUBMISSIONS`` of each,
    ``POPULATION`` wearers apiece alternating between the two PDR cohorts,
    no wearer in two of them; scenario seeds come from the common stratum."""
    from repro.campaign.spec import make_population

    per_cohort = POPULATION // len(answers.CAMPAIGN_PDRS)
    cohorts = [
        answers.draw("common", 2 * SUBMISSIONS * per_cohort,
                     f"campaign/{pdr:.2f}", seed)
        for pdr in answers.CAMPAIGN_PDRS
    ]
    specs = []
    for index in range(2 * SUBMISSIONS):
        kind = "local" if index < SUBMISSIONS else "fleet"
        spec = make_population(
            POPULATION, preset=answers.PRESET, base_seed=0,
            pdr_bounds=answers.CAMPAIGN_PDRS,
            name=f"perfbench-{kind}-{index % SUBMISSIONS}",
        )
        wearers = tuple(
            dataclasses.replace(
                w, seed=cohorts[i % len(cohorts)][
                    index * per_cohort + i // len(cohorts)
                ],
            )
            for i, w in enumerate(spec.wearers)
        )
        specs.append(dataclasses.replace(spec, wearers=wearers))
    return specs[:SUBMISSIONS], specs[SUBMISSIONS:]


def _summaries(campaign_dir: pathlib.Path) -> Dict[str, bytes]:
    return {
        path.parent.name: path.read_bytes()
        for path in campaign_dir.glob("shards/*/*/summary.json")
    }


def _cohorts(campaign_dir: pathlib.Path) -> dict:
    return benchenv.load_json(campaign_dir / "aggregate.json")["cohorts"]


def _journals(directory: pathlib.Path) -> int:
    return sum(1 for _ in directory.rglob("journal.jsonl"))


class Campaign:
    """A coordinator in this process and one worker process."""

    def __init__(self, directory: pathlib.Path, catalogue: dict,
                 outcome: Outcome) -> None:
        self.directory = directory
        self.catalogue = catalogue
        self.outcome = outcome
        self.tracer: Optional[spanlib.Tracer] = None
        self.service = None
        self.worker = None
        self.clock: Optional[benchenv.Clock] = None
        self.worker_rss_mb = 0.0
        self._connections = 0

    async def start(self) -> None:
        from repro.campaign.service import CampaignService

        self.service = CampaignService(self.directory / "coordinator", jobs=1)
        _, port = await self.service.start("127.0.0.1", 0)
        args = [
            sys.executable, str(benchenv.HERE / "worker.py"),
            "--url", f"http://127.0.0.1:{port}",
            "--workdir", str(self.directory / "worker"),
        ]
        log = open(self.directory / "worker.log", "wb")
        try:
            self.worker = await asyncio.create_subprocess_exec(
                *args, stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE, stderr=log,
                env=benchenv.child_env(), limit=2 ** 26,
            )
        finally:
            log.close()
        await self._expect("connected")
        # Reference samples wait for the worker's threads to be idle too.
        self.clock = benchenv.Clock(pids=[self.worker.pid])

    async def _expect(self, event: str) -> dict:
        line = await self.worker.stdout.readline()
        reply = json.loads(line) if line else {"event": "eof"}
        if reply.get("event") != event:
            raise RuntimeError(f"worker sent {reply!r}, expected {event!r}")
        return reply

    async def _send(self, **command) -> None:
        self.worker.stdin.write((json.dumps(command) + "\n").encode())
        await self.worker.stdin.drain()

    async def local(self, spec) -> tuple:
        """Submit ``spec`` for local execution; the timed operation runs
        until ``done``."""
        start = self.clock.start()
        campaign_id = self.service.submit(spec, execution="local")["id"]
        while self.service.status(campaign_id)["state"] not in ("done", "failed"):
            await asyncio.sleep(LOCAL_POLL_S)
        operation = self.clock.stop(start)
        self._require_done(campaign_id)
        return operation

    async def fleet(self, spec, context: str) -> tuple:
        """Submit ``spec`` to the fleet and let the worker drain it; the
        timed operation runs until the coordinator reports ``done``."""
        start = self.clock.start()
        campaign_id = self.service.submit(spec, execution="fleet")["id"]
        await self._send(
            cmd="pass", context=context,
            trace=self.tracer is not None and self.tracer.installed,
        )
        reply = await self._expect("done")
        operation = self.clock.stop(start)
        self._require_done(campaign_id)
        if reply["exit_code"] != 0:
            raise RuntimeError(f"worker pass exited {reply['exit_code']}")
        if reply["trace"] is not None:
            self.tracer.merge(reply["trace"])
            self.tracer.counters["fabric.connections"] += (
                reply["connections"] - self._connections
            )
        self._connections = reply["connections"]
        return operation

    def _require_done(self, campaign_id: str) -> None:
        status = self.service.status(campaign_id)
        if status["state"] != "done":
            raise RuntimeError(f"campaign {campaign_id} ended {status}")

    def campaign_dir(self, spec) -> pathlib.Path:
        return self.service.campaign_dir(spec.fingerprint())

    def check_answers(self, spec) -> None:
        summaries = _summaries(self.campaign_dir(spec))
        for wearer in spec.wearers:
            raw = summaries.get(wearer.wearer_id)
            if raw is None:
                self.outcome.check([f"{wearer.wearer_id}: no summary.json"])
                continue
            self.outcome.check(answers.check_summary(
                json.loads(raw), wearer.pdr_min,
                answers.expected_nominal(
                    self.catalogue, wearer.seed, wearer.pdr_min
                ),
            ))

    def check_warm(self, spec, cold_spec) -> None:
        """A warm pass must reproduce the cold pass's cohorts and summary
        bytes, with zero run journals written by the worker."""
        problems = []
        directory = self.campaign_dir(spec)
        if _cohorts(directory) != _cohorts(self.campaign_dir(cold_spec)):
            problems.append(f"{spec.name}: aggregate cohorts differ from cold")
        if _summaries(directory) != _summaries(self.campaign_dir(cold_spec)):
            problems.append(f"{spec.name}: summary.json bytes differ from cold")
        journals = _journals(
            self.directory / "worker" / spec.fingerprint()
        )
        if journals:
            problems.append(f"{spec.name}: worker wrote {journals} run journals")
        self.outcome.check(problems)

    async def stop(self) -> None:
        if self.worker is not None:
            if self.worker.returncode is None:
                try:
                    await self._send(cmd="exit")
                    self.worker_rss_mb = (await self._expect("bye"))[
                        "peak_rss_mb"
                    ]
                finally:
                    await self.worker.wait()
        if self.service is not None:
            await self.service.stop()


async def _campaign(seed: int, seconds: float, directory: pathlib.Path,
                    trace: bool) -> tuple:
    catalogue = answers.load_catalogue()
    outcome = Outcome()
    local_specs, fleet_specs = populations(seed)
    warm_spec = local_specs[0]
    campaign = Campaign(directory, catalogue, outcome)
    extra: Dict[str, float] = {}
    local: List[tuple] = []
    fleet: List[tuple] = []
    warm: List[tuple] = []
    plain: List[tuple] = []

    def traced(context: str) -> None:
        if trace:
            if not campaign.tracer.installed:
                campaign.tracer.install()
            campaign.tracer.context = context

    async def warm_passes(count: int) -> None:
        for _ in range(count):
            if trace:
                # Alternate untraced and traced passes: their medians'
                # difference is the tracing overhead on this path.
                campaign.tracer.uninstall()
                spec = dataclasses.replace(
                    warm_spec, name=f"perfbench-plain-{len(plain)}"
                )
                plain.append(await campaign.fleet(spec, "plain"))
                campaign.check_warm(spec, warm_spec)
                traced(f"warm-{len(warm)}")
            spec = dataclasses.replace(
                warm_spec, name=f"perfbench-warm-{len(warm)}"
            )
            warm.append(await campaign.fleet(spec, f"warm-{len(warm)}"))
            campaign.check_warm(spec, warm_spec)

    try:
        await campaign.start()
        if trace:
            campaign.tracer = spanlib.Tracer()
        count = TRACE_WARM_PASSES if trace else passes("campaign", seconds)
        # Cold submissions of both kinds spread over the run, warm passes
        # between them.
        for index in range(SUBMISSIONS):
            traced(f"cold-local-{index}")
            local.append(await campaign.local(local_specs[index]))
            campaign.check_answers(local_specs[index])
            traced(f"cold-fleet-{index}")
            fleet.append(await campaign.fleet(
                fleet_specs[index], f"cold-fleet-{index}"
            ))
            campaign.check_answers(fleet_specs[index])
            await warm_passes(
                count * (index + 1) // SUBMISSIONS
                - count * index // SUBMISSIONS
            )
    finally:
        if trace:
            campaign.tracer.uninstall()
        await campaign.stop()

    def at_reference(operations: List[tuple]) -> float:
        return median(campaign.clock.seconds(op) for op in operations)

    def wall(operations: List[tuple]) -> List[float]:
        return [round(end - start, 4) for start, end in operations]

    if trace:
        extra["trace.overhead_pct"] = 100.0 * (
            at_reference(warm) / at_reference(plain) - 1
        )

    outcome.metric(
        "wearers_per_s", POPULATION / at_reference(local), "1/s",
        POPULATION * len(local),
    )
    outcome.metric(
        "answers_per_s", POPULATION / at_reference(fleet), "1/s",
        POPULATION * len(fleet),
    )
    outcome.metric("warm_campaign_s", at_reference(warm), "s", len(warm))
    # The highest percentile with ten warm passes beyond it.
    groups = len(warm) // 10
    tail = ""
    if groups >= 2:
        warm_s = [campaign.clock.seconds(op) for op in warm]
        tail = (
            f", p{100 * (groups - 1) / groups:.0f} at reference speed "
            f"{quantiles(warm_s, n=groups)[-1]:.4f}"
        )
    outcome.notes.append(
        f"populations: {SUBMISSIONS} x {POPULATION} wearers cold local, "
        f"{SUBMISSIONS} x {POPULATION} cold fleet, {len(warm)} warm "
        f"re-submissions of {POPULATION}; wall seconds: local "
        f"{wall(local)}, fleet {wall(fleet)}, warm median "
        f"{median(wall(warm)):.4f}{tail}; {campaign.clock.summary()}"
    )
    return outcome, campaign.tracer, extra, campaign.worker_rss_mb


def run_campaign(seed: int, seconds: float, trace: bool = False) -> tuple:
    """The ``campaign`` workload; returns (outcome, tracer or None, extra
    per-layer metrics, worker peak RSS in MB)."""
    directory = benchenv.WORK / f"campaign-{seed}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        return asyncio.run(_campaign(seed, seconds, directory, trace))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
