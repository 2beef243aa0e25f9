"""Fleet processes start without scipy, and without the simulator.

``hi-explore campaign``, ``serve`` and ``worker`` never compute a t or
normal quantile, so no module on their import path may import scipy at
module level: ``scipy.stats`` alone is ~600 modules, ~0.8 s and ~66 MB
of each process's start-up.

A process imports the simulator (numpy, the MILP, the DES and the
experiment harnesses) only when it simulates.  Every package exports its
names lazily (:mod:`repro._lazy`), so ``--help``, a coordinator that
never runs a wearer and a worker waiting for its first lease load no
numpy.

Each case runs a fresh interpreter, because this test process has long
since imported scipy and numpy.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: perfbench's ``campaign`` import set plus the analysis package.
FLEET_IMPORTS = (
    "repro.cli",
    "repro.campaign.service",
    "repro.campaign.runner",
    "repro.campaign.worker",
    "repro.campaign.spec",
    "repro.analysis",
)

SCIPY_MODULES = (
    "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
)
NUMPY_MODULES = (
    "sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')"
)

#: A committed solve-mode wearer summary with a ``best`` block.
SOLVE_SUMMARY = REPO_ROOT / "tests" / "fixtures" / "storage" / "solve_run" / (
    "summary.json"
)


def _run_fresh(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter on this checkout."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestFleetImportsWithoutScipy:
    def test_fleet_imports_load_no_scipy(self):
        imports = "\n".join(f"import {name}" for name in FLEET_IMPORTS)
        stdout = _run_fresh(imports + textwrap.dedent(f"""
            import math
            import sys

            from repro.analysis.convergence import interval_half_width

            assert interval_half_width([0.9]) == math.inf
            assert interval_half_width([0.9, 0.9]) == 0.0
            print({SCIPY_MODULES})
        """))
        assert stdout == "[]\n"

    def test_quantiles_still_come_from_scipy(self):
        """The first quantile loads scipy.stats on demand, and the interval
        and the planning helper equal scipy's quantiles exactly."""
        stdout = _run_fresh(f"""
            import math
            import sys

            from repro.analysis.convergence import (
                interval_half_width,
                replicates_needed,
            )

            assert {SCIPY_MODULES} == []
            samples = [0.91, 0.95, 0.88, 0.97, 0.93]
            half = interval_half_width(samples)
            assert "scipy.stats" in sys.modules

            from scipy import stats

            n = len(samples)
            mean = sum(samples) / n
            var = sum((s - mean) ** 2 for s in samples) / (n - 1)
            assert half == stats.t.ppf(0.975, n - 1) * math.sqrt(var / n)
            assert replicates_needed(0.02, 0.005) == math.ceil(
                (stats.norm.ppf(0.975) * 0.02 / 0.005) ** 2
            )
            print("ok")
        """)
        assert stdout == "ok\n"


class TestFleetStartsWithoutTheSimulator:
    def test_cli_help_loads_no_numpy(self):
        stdout = _run_fresh(f"""
            import contextlib
            import io
            import sys

            from repro import cli

            assert {NUMPY_MODULES} == []
            with contextlib.redirect_stdout(io.StringIO()) as out:
                try:
                    cli.main(["--help"])
                except SystemExit as exc:
                    assert exc.code == 0
            assert "hi-explore" in out.getvalue()
            print({NUMPY_MODULES})
        """)
        assert stdout == "[]\n"

    @pytest.mark.parametrize("command", ["serve", "worker"])
    def test_fleet_command_reaches_its_loop_without_numpy(
        self, command, tmp_path
    ):
        """``serve`` reaches ``serve_forever`` and ``worker`` reaches
        ``run_worker`` (both replaced here, so no port is bound and no
        coordinator dialled) with numpy never imported."""
        argv = {
            "serve": ["serve", "--root", str(tmp_path / "root")],
            "worker": ["worker", "--coordinator", "http://127.0.0.1:9",
                       "--workdir", str(tmp_path / "workdir")],
        }[command]
        stdout = _run_fresh(f"""
            import sys

            from repro import cli
            from repro.campaign import service, worker

            reached = []

            def loop(*args, **kwargs):
                reached.append({NUMPY_MODULES})
                return 0

            service.serve_forever = loop
            worker.run_worker = loop
            assert cli.main({argv!r}) == 0
            print(reached)
        """)
        assert stdout == "[[]]\n"

    def test_coordinator_submits_and_aggregates_without_numpy(
        self, tmp_path
    ):
        """A coordinator builds a population, queues it for fleet
        execution, takes every shard's committed summaries over HTTP and
        writes the aggregate, all without numpy."""
        stdout = _run_fresh(f"""
            import asyncio
            import json
            import pathlib
            import sys

            from repro.campaign.queue import shard_payload_crc
            from repro.campaign.service import CampaignService
            from repro.campaign.spec import make_population
            from repro.campaign.worker import CoordinatorClient

            SUMMARY = json.loads(pathlib.Path({str(SOLVE_SUMMARY)!r}).read_text())

            async def fleet():
                service = CampaignService({str(tmp_path / "root")!r})
                _, port = await service.start("127.0.0.1", 0)
                client = CoordinatorClient(f"http://127.0.0.1:{{port}}")

                async def call(method, path, payload=None):
                    status, body = await asyncio.to_thread(
                        client.request, method, path, payload
                    )
                    assert status in (200, 202), (path, status, body)
                    return body

                try:
                    spec = make_population(
                        3, preset="smoke", pdr_bounds=(90, 95)
                    )
                    campaign = (await call("POST", "/campaigns", {{
                        "spec": spec.to_dict(), "execution": "fleet",
                    }}))["id"]
                    base = f"/campaigns/{{campaign}}"
                    while True:
                        lease = (await call(
                            "POST", "/fabric/sync", {{"worker": "w"}}
                        ))["lease"]
                        if lease is None:
                            break
                        summaries = {{
                            w["wearer_id"]: SUMMARY for w in lease["wearers"]
                        }}
                        await call(
                            "POST", f"{{base}}/shards/{{lease['shard']}}/complete",
                            {{"summaries": summaries,
                              "crc": shard_payload_crc(summaries),
                              "worker": "w", "token": lease["token"]}},
                        )
                    return await call("GET", base + "/result")
                finally:
                    client.close()
                    await service.stop()

            result = asyncio.run(fleet())
            assert (result["wearers"], result["feasible"]) == (3, 3)
            print({NUMPY_MODULES})
        """)
        assert stdout == "[]\n"

    def test_every_package_export_resolves(self):
        """No package ``__init__`` loads numpy; every name in every
        package's ``__all__`` resolves and is listed by ``dir``; and
        ``from repro import *`` binds every name of ``repro.__all__``."""
        stdout = _run_fresh(f"""
            import importlib
            import pkgutil
            import sys

            import repro

            packages = ["repro"] + [
                "repro." + info.name
                for info in pkgutil.iter_modules(repro.__path__)
                if info.ispkg
            ]
            for name in packages:
                importlib.import_module(name)
            assert {NUMPY_MODULES} == [], "a package __init__ loads numpy"
            for name in packages:
                package = sys.modules[name]
                assert package.__all__, name
                for export in package.__all__:
                    assert export in dir(package), (name, export)
                    getattr(package, export)
            namespace = {{}}
            exec("from repro import *", namespace)
            assert set(repro.__all__) <= set(namespace)
            print(len(packages))
        """)
        assert int(stdout) >= 10
