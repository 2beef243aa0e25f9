"""One cold start, timed by its parent for the ``setup_s`` metric.

    python3 perfbench/probe.py --workload solve|robust|campaign --seed N --dir DIR

A fresh interpreter imports what the workload's CLI command imports,
builds the first problem of the workload's grid (``solve``, ``robust``)
or starts a campaign coordinator and connects its worker (``campaign``),
prints ``ready`` and exits.  The parent's clock runs from launching this
process to reading ``ready``.
"""

from __future__ import annotations

import argparse
import asyncio
import pathlib
import sys

import benchenv


async def _coordinator_ready(directory: pathlib.Path) -> None:
    from repro.campaign.service import CampaignService

    service = CampaignService(directory / "coordinator", jobs=1)
    _, port = await service.start("127.0.0.1", 0)
    worker = await asyncio.create_subprocess_exec(
        sys.executable, str(benchenv.HERE / "worker.py"),
        "--url", f"http://127.0.0.1:{port}",
        "--workdir", str(directory / "worker"),
        stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.DEVNULL, env=benchenv.child_env(),
    )
    try:
        line = await worker.stdout.readline()
        if b'"connected"' not in line:
            raise RuntimeError(f"worker did not connect: {line!r}")
        print("ready", flush=True)
        worker.stdin.write(b'{"cmd": "exit"}\n')
        await worker.stdin.drain()
        await worker.stdout.read()
    finally:
        if worker.returncode is None:
            await worker.wait()
        await service.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "robust", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    benchenv.use_source_tree()
    import repro.cli  # noqa: F401  -- the entry point every command pays for

    if args.workload == "campaign":
        asyncio.run(_coordinator_ready(pathlib.Path(args.dir)))
        return 0

    import answers

    seed, pdr = answers.grid(args.workload, args.seed)[0]
    if args.workload == "solve":
        answers.nominal_explorer(seed, pdr)
    else:
        answers.robust_explorer(seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
