"""Fleet processes start without scipy.

``hi-explore campaign``, ``serve`` and ``worker`` never compute a t or
normal quantile, so no module on their import path may import scipy at
module level: ``scipy.stats`` alone is ~600 modules, ~0.8 s and ~66 MB
of each process's start-up.  Each case runs a fresh interpreter, because
this test process has long since imported scipy.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

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
