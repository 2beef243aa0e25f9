"""Where the benchmark finds the program, and what it records about the host.

Every benchmark entry point imports this module first: it puts the
checkout's ``src/`` on ``sys.path`` (the package is pure Python, so the
source tree is the build) and fails fast when that tree is missing.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import json
import os
import pathlib
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from typing import List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for run directories, traces and reports; listed in the
#: repository's ``.gitignore`` and always inside the checkout.
WORK = ROOT / ".perfbench"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's source tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(
            f"no program to benchmark: {SRC / 'repro'} does not exist"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for benchmark subprocesses: the caller's, unchanged
    (thread settings included), plus the source tree on PYTHONPATH."""
    env = dict(os.environ)
    parts = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


#: Seconds :func:`reference_loop_s` takes on the 2-core reference machine
#: when nothing else slows it; timings are reported at this speed.
REFERENCE_S = 0.015
#: A reference sample counts only while the other threads of the watched
#: processes ran for less than this share of it ...
QUIET_SHARE = 0.05
#: ... and after this many busy samples the last one counts regardless.
QUIET_TRIES = 40


def _loop_s() -> float:
    # The collector is off while the loop runs: a collection would scan
    # every object the program holds, making the reference depend on the
    # program's heap instead of the machine.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(1)
        heap, buckets = [], {}
        for i in range(25_000):
            heapq.heappush(heap, (rng.random(), i))
            if len(heap) > 100:
                key, value = heapq.heappop(heap)
                buckets[value % 97] = buckets.get(value % 97, 0.0) + key
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _others_ran_ns(pids) -> int:
    """Nanoseconds every thread of ``pids`` but the calling one has run
    (0 where the kernel keeps no per-thread ``schedstat``)."""
    me = threading.get_native_id()
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            if int(tid) == me:
                continue
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except (OSError, ValueError, IndexError):
                pass
    return total


def reference_loop_s(pids=()) -> tuple:
    """(seconds, samples dropped): the seconds a fixed pure-Python loop
    (heap, dict and float work, the interpreter's mix in this program)
    takes on this machine right now.

    The sample is taken while no other thread of this process, or of the
    processes ``pids``, runs.  OpenBLAS keeps its threads spinning for a
    while after the program's last matrix call; a sample taken then would
    be slowed by the program's own spin and, once used to rescale, would
    hide that cost.
    """
    watched = (os.getpid(), *pids)
    for dropped in range(QUIET_TRIES):
        before = _others_ran_ns(watched)
        seconds = _loop_s()
        if _others_ran_ns(watched) - before < QUIET_SHARE * seconds * 1e9:
            break
    return seconds, dropped


def at_reference_speed(wall_s: float, samples: List[float]) -> float:
    """``wall_s`` rescaled to the reference machine's speed, given
    :func:`reference_loop_s` samples taken around the operation.

    The shared host this benchmark was built on changes speed by up to 2x
    within a minute (other tenants), which no amount of repetition inside
    one run averages out.  Scaling a timing by the machine speed measured
    around it is a within-run ratio: it removes the host's drift and keeps
    any change in the program's own work.
    """
    return wall_s * REFERENCE_S / statistics.median(samples)


class Clock:
    """Times operations at the reference machine's speed.

    A reference sample is taken before the first operation and after each
    one.  An operation's wall time is rescaled by the median of the last
    sample taken before it starts, the first taken after it ends and any
    others within ``window_s`` seconds of it.  Brackets alone track the
    host's drift best for the workloads' operations; set-up starts use
    every sample of the set-up phase (``window_s=math.inf``), which keeps
    one noisy sample from setting a short start's time.  ``pids`` are the
    other processes whose threads must be idle while a sample is taken
    (:func:`reference_loop_s`).
    """

    def __init__(self, pids=(), window_s: float = 0.0) -> None:
        self.pids = tuple(pids)
        self.window_s = window_s
        #: (time the sample started, its seconds), in time order
        self.samples: List[tuple] = []
        #: Samples dropped because another watched thread ran during them.
        self.dropped = 0

    def sample(self) -> None:
        seconds, dropped = reference_loop_s(self.pids)
        self.samples.append((time.perf_counter() - seconds, seconds))
        self.dropped += dropped

    def start(self) -> float:
        """Start timing an operation."""
        if not self.samples:
            self.sample()
        return time.perf_counter()

    def stop(self, start: float) -> tuple:
        """End the operation begun at ``start`` and sample after it;
        returns the operation as (start, end)."""
        operation = (start, time.perf_counter())
        self.sample()
        return operation

    def seconds(self, operation: tuple) -> float:
        """The operation's duration at reference speed; ask once the
        sample after it is taken."""
        start, end = operation
        times = [at for at, _ in self.samples]
        before = max(bisect.bisect_right(times, start) - 1, 0)
        after = bisect.bisect_left(times, end)
        near = {before, after} | {
            i for i, at in enumerate(times)
            if start - self.window_s <= at <= end + self.window_s
        }
        return at_reference_speed(
            end - start, [self.samples[i][1] for i in sorted(near)]
        )

    def summary(self) -> str:
        return (
            f"{len(self.samples)} reference samples (median "
            f"{statistics.median(s for _, s in self.samples):.5f} s), "
            f"{self.dropped} more dropped while another thread ran"
        )


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_library() -> str:
    try:
        import numpy

        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        name = blas.get("name", "unknown")
        version = blas.get("version", "")
        return f"{name} {version}".strip()
    except Exception as exc:  # numpy builds differ; never fail a run on it
        return f"unknown ({type(exc).__name__})"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def fingerprint() -> dict:
    """The facts a reader needs to compare two runs' numbers."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_library(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
