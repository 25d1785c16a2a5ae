"""The library and its CLI run with scipy refused at import (scipy is only a test oracle)."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tests" / "scipy_free.py"

# every suite, at sizes that take a few seconds; the checks may fail at these
# sizes (exit 1), but every one of them must run
TINY = {"seed": 7, "reps": 100, "suites": ["all"], "russo": {"events": 3, "max_bits": 6},
        "stable": {"samples": 1000, "radvec_reps": 1000}, "crofton": {"reps": 100}}


def _run_without_scipy(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


def test_routes_run_without_scipy():
    proc = _run_without_scipy()
    assert proc.returncode == 0, proc.stderr
    assert "no scipy module loaded" in proc.stdout


def test_cli_runs_every_suite_without_scipy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    proc = _run_without_scipy(str(cfg), str(tmp_path / "out"))
    assert proc.returncode in (0, 1), proc.stderr
    assert "no scipy module loaded" in proc.stdout
    assert (tmp_path / "out" / "results.csv").is_file()
    for suite in ("identities", "russo", "poisson-derivative", "stable", "crofton"):
        assert f"[{suite}]" in proc.stdout
