"""The ``campaign`` workload's fleet worker, one process per run.

Started by the benchmark (or by a set-up probe) with::

    python3 perfbench/worker.py --url http://127.0.0.1:PORT --workdir DIR

It builds a :class:`repro.campaign.worker.WorkerAgent`, opens its
keep-alive connection with one empty ``/fabric/sync`` and reports
``connected``.  Then it obeys one JSON command per stdin line:

* ``{"cmd": "pass", "context": ID, "trace": BOOL}`` -- pull, run and
  commit shards until the coordinator has none left (``exit_idle=0``: the
  idle-poll interval is never slept), then report ``done`` with the
  agent's connection count and, for a traced pass, its spans;
* ``{"cmd": "exit"}`` -- report ``bye`` with this process's peak RSS.

Replies are JSON lines on the original stdout; the agent's own log lines
go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import benchenv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

    def reply(**payload) -> None:
        replies.write(json.dumps(payload) + "\n")

    benchenv.use_source_tree()
    from repro.campaign.worker import WorkerAgent

    import spans

    tracer = spans.Tracer()
    agent = WorkerAgent(
        args.url, args.workdir, name="perfbench-w0", exit_idle=0.0
    )
    status, _ = agent.client.request(
        "POST", "/fabric/sync",
        {"worker": agent.name, "acquire": False, "heartbeats": []},
    )
    if status != 200:
        reply(event="error", error=f"first sync answered {status}")
        return 1
    reply(event="connected")

    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "exit":
            break
        if command.get("trace") and not tracer.installed:
            tracer.install()
        elif not command.get("trace") and tracer.installed:
            tracer.uninstall()
        tracer.context = command.get("context")
        code = agent.run_forever()
        reply(
            event="done",
            exit_code=code,
            connections=agent.client.connections_opened,
            trace=tracer.export() if tracer.installed else None,
        )
    reply(event="bye", peak_rss_mb=benchenv.peak_rss_mb())
    return 0


if __name__ == "__main__":
    sys.exit(main())
