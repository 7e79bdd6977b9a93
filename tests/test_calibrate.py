"""The committed profile sheets still match the calibration fit."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from faaslab.engine import Mode, run_workflow
from faaslab.perfmodel import builtin_profiles
from faaslab.workflow import ExchangeStrategy, parse_workflow, with_exchange

ROOT = Path(__file__).resolve().parent.parent


def test_calibrate_check_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "scripts/calibrate.py", "--check"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("exchange", [ExchangeStrategy.SERVERLESS, ExchangeStrategy.VM])
def test_reference_run_is_the_paper_scale_workflow(exchange):
    """Calibration fits the run behind the README's paper-scale table."""
    calibrate = runpy.run_path(str(ROOT / "scripts" / "calibrate.py"))
    reference = calibrate["reference_run"](builtin_profiles(), exchange)
    text = (ROOT / "workflows" / "paper-scale.json").read_text(encoding="utf-8")
    shipped = run_workflow(with_exchange(parse_workflow(text), exchange), Mode.MODELED)
    assert reference.end_to_end_s == shipped.end_to_end_s
    assert reference.cost == shipped.cost
    assert [s.requests for s in reference.stages] == [s.requests for s in shipped.stages]
