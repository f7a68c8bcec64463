import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("targets, message", [("0.5,0.8", "at least 3 targets"),
                                              ("0.5,x,1.1", "must be numbers")])
def test_coherent_pipeline_refuses_bad_targets_before_any_work(tmp_path, targets, message):
    """Too few targets for a calibration line, or a non-number: exit 2, nothing run or written."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_coherent_pipeline.py"),
         "--targets", targets, "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""  # no target was measured
    assert list(tmp_path.iterdir()) == []
