#!/usr/bin/env python
"""Chaos smoke: SIGKILL a journaled exploration run, resume it, and diff
the final summary against an uninterrupted golden run.

For each mode (nominal ``solve`` and chance-constrained ``robust``):

1. run the campaign uninterrupted with ``--out`` → ``summary.json`` is
   the golden artifact (a deterministic projection: wall-clock stripped);
2. re-run it as a victim process and ``SIGKILL`` its whole process group
   at a randomized instant after it has written its journal's manifest,
   drawn from the golden run's time since that point (the kill seed is
   logged, so any failure is replayable with ``--kill-seed``);
3. resume the murdered run with ``--resume`` — it must exit 0;
4. require the resumed ``summary.json`` to be byte-identical to the
   golden one.

Any divergence, resume failure, or missing artifact exits nonzero.  The
CI job uploads both run directories either way.

Usage::

    python scripts/chaos_smoke.py [--preset ci|smoke] [--workdir chaos-smoke]
                                  [--kill-seed N]

Interpreter start-up alone can outlast a ``smoke`` run's journaled part,
which is why the kill clock starts at the journal, not at the launch.
"""

import argparse
import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

MODES = {
    "solve": ["solve", "--pdr-min", "90"],
    "robust": [
        "robust", "--pdr-min", "85", "--seed", "3", "--ensemble-size", "2",
        "--hub-stress", "--quantile", "0", "--outage-fraction", "0.2",
    ],
}


def log(message: str) -> None:
    print(f"chaos-smoke: {message}", flush=True)


def cli_argv(mode: str, preset: str) -> list:
    return (
        [sys.executable, "-m", "repro.cli"]
        + MODES[mode]
        + ["--preset", preset, "--jobs", "2"]
    )


def child_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    return env


def wait_for_journal(proc: subprocess.Popen, out_dir: pathlib.Path) -> None:
    """Block until ``proc`` has written its journal's manifest line, or
    has exited."""
    journal = out_dir / "journal.jsonl"
    while proc.poll() is None:
        if journal.exists() and b"\n" in journal.read_bytes():
            return
        time.sleep(0.005)


def run_golden(mode: str, preset: str, out_dir: pathlib.Path) -> float:
    """Run uninterrupted; returns the seconds it ran after writing its
    journal's manifest."""
    proc = subprocess.Popen(
        cli_argv(mode, preset) + ["--out", str(out_dir)],
        env=child_env(),
        stdout=subprocess.DEVNULL,
    )
    wait_for_journal(proc, out_dir)
    start = time.monotonic()
    if proc.wait() != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    wall = time.monotonic() - start
    log(f"[{mode}] golden run finished {wall:.2f}s after its journal began")
    return wall


def run_victim(
    mode: str,
    preset: str,
    out_dir: pathlib.Path,
    kill_after_s: float,
) -> bool:
    """Start the campaign and SIGKILL its process group ``kill_after_s``
    after its journal began.  Returns True if the kill landed before the
    run finished."""
    victim = subprocess.Popen(
        cli_argv(mode, preset) + ["--out", str(out_dir)],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        start_new_session=True,  # so the kill also takes pool workers
    )
    wait_for_journal(victim, out_dir)
    try:
        victim.wait(timeout=kill_after_s)
        log(f"[{mode}] victim finished before the kill point — "
            "resume will be a pure-replay check")
        return False
    except subprocess.TimeoutExpired:
        pass
    os.killpg(victim.pid, signal.SIGKILL)
    victim.wait()
    log(f"[{mode}] SIGKILLed victim {kill_after_s:.2f}s into its journal "
        f"(exit {victim.returncode})")
    summary = out_dir / "summary.json"
    if summary.exists():
        # the kill landed during final-artifact writing; drop it so the
        # diff below proves the *resume* rewrote it
        summary.unlink()
    return True


def resume(mode: str, preset: str, out_dir: pathlib.Path) -> None:
    proc = subprocess.run(
        cli_argv(mode, preset) + ["--resume", str(out_dir)],
        env=child_env(),
        stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        log(f"[{mode}] FAIL: resume exited {proc.returncode}")
        sys.exit(1)
    log(f"[{mode}] resume completed")


def diff_summaries(mode: str, golden: pathlib.Path, resumed: pathlib.Path):
    golden_text = (golden / "summary.json").read_text()
    resumed_text = (resumed / "summary.json").read_text()
    if golden_text != resumed_text:
        log(f"[{mode}] FAIL: resumed summary differs from golden")
        log(f"golden:  {json.loads(golden_text)}")
        log(f"resumed: {json.loads(resumed_text)}")
        sys.exit(1)
    log(f"[{mode}] resumed summary is byte-identical to golden")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="ci")
    parser.add_argument("--workdir", default="chaos-smoke")
    parser.add_argument(
        "--kill-seed",
        type=int,
        default=None,
        help="seed for the randomized kill point (default: from the "
        "clock, logged for replay)",
    )
    args = parser.parse_args(argv)

    kill_seed = (
        args.kill_seed
        if args.kill_seed is not None
        else int(time.time()) % 1_000_000
    )
    log(f"kill seed: {kill_seed} (replay with --kill-seed {kill_seed})")
    rng = random.Random(kill_seed)
    workdir = pathlib.Path(args.workdir)

    for mode in MODES:
        golden_dir = workdir / f"{mode}-golden"
        victim_dir = workdir / f"{mode}-victim"
        wall = run_golden(mode, args.preset, golden_dir)
        kill_after = rng.uniform(0.15, 0.85) * wall
        run_victim(mode, args.preset, victim_dir, kill_after)
        resume(mode, args.preset, victim_dir)
        diff_summaries(mode, golden_dir, victim_dir)

    log("OK: every killed run resumed to a bit-identical summary")
    return 0


if __name__ == "__main__":
    sys.exit(main())
