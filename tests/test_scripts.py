import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_offset_scan_script_honours_points(tmp_path, capsys):
    _load("run_offset_scan").main(["--out", str(tmp_path), "--points", "5"])
    rows = (tmp_path / "offset_scan.csv").read_text().splitlines()
    assert rows[0] == "time_s,offset"
    assert len(rows) == 1 + 5
    assert "offset-minimizing time" in capsys.readouterr().out
