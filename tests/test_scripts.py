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


def test_code_lines_counts_only_code(tmp_path):
    """A docstring, a comment and a blank line are not code lines; two assignments are."""
    module = tmp_path / "fixture.py"
    module.write_text('"""Module docstring,\nover two lines."""\n# a comment\n\nx = 1\ny = x + 1\n')
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(module)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "fixture.py", "2", "total"]
