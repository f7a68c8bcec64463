import json
from pathlib import Path

import numpy as np
import pytest

from cqadsim import cli, sequences
from cqadsim.cli import RunManifest, compare_summaries, main, run_experiment
from cqadsim.device import paper_default_params
from cqadsim.dynamics import NoiseModel
from cqadsim.exceptions import ValidationError
from cqadsim.hilbert import HilbertConfig, fock_state
from cqadsim.keyval import parse_keyval, parse_number

PRESETS = Path(__file__).resolve().parent.parent / "presets"


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_parse_number_suffixes():
    assert parse_number("1.5k") == 1.5e3
    assert parse_number("-4.1M") == -4.1e6
    assert parse_number("5.9741G") == 5.9741e9
    assert parse_number("15u") == 1.5e-5
    assert parse_number("2m") == 2e-3
    assert parse_number("50n") == 5e-8
    assert parse_number("1e3") == 1000.0
    assert parse_number("auto") is None


def test_parse_keyval_diagnostics():
    data = parse_keyval("a = 1k\n# comment\nb = text\n")
    assert data == {"a": 1000.0, "b": "text"}
    with pytest.raises(ValidationError, match=":2"):
        parse_keyval("a = 1\nbroken line\n")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_keyval("a = 1\na = 2\n")


def test_chi_scan_run(tmp_path):
    out = tmp_path / "out"
    manifest = RunManifest(
        params_path=None,
        experiment_path=str(PRESETS / "chi_scan.spec"),
        out_dir=str(out),
        paper_defaults=True,
    )
    summary = run_experiment(manifest)
    assert summary["kind"] == "chi_scan"
    assert summary["shift0_ramsey_hz"] == pytest.approx(-68.4e3, abs=300.0)
    csv = (out / "chi.csv").read_text().splitlines()
    assert csv[0].startswith("# params_sha256=")
    assert csv[1] == "point,delta_hz,n,shift_numeric_hz,chi_full_hz,chi_approx_hz"
    assert len(csv) == 2 + 4 * 4
    assert json.loads((out / "summary.json").read_text())["kind"] == "chi_scan"


def test_run_determinism(tmp_path):
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_experiment(RunManifest(
            params_path=None,
            experiment_path=str(PRESETS / "chi_scan.spec"),
            out_dir=str(out),
            seed=7,
        ))
        texts.append((out / "summary.json").read_bytes())
    assert texts[0] == texts[1]


def test_parity_run_and_compare(tmp_path):
    out = tmp_path / "out"
    code = main([
        "run",
        "--experiment", str(PRESETS / "fock1_ramsey_parity.spec"),
        "--out", str(out),
        "--quiet",
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["parity"] < -0.5
    assert (out / "parity.csv").exists()

    # identical summaries compare clean
    ok, report = compare_summaries(summary, summary, {})
    assert ok
    # a shifted metric fails, naming the metric
    other = dict(summary)
    other["parity"] = summary["parity"] * 1.10
    ok, report = compare_summaries(summary, other, {"parity": 0.05})
    assert not ok
    assert any("parity" in line and "FAIL" in line for line in report)
    # missing metric fails with reason
    other = {k: v for k, v in summary.items() if k != "parity"}
    ok, report = compare_summaries(summary, other, {})
    assert not ok
    assert any("missing metric" in line for line in report)
    # kind mismatch is a validation error
    with pytest.raises(ValidationError):
        compare_summaries(summary, {"kind": "wigner"}, {})


def test_compare_cli_exit_codes(tmp_path):
    ref = write(tmp_path, "ref.json", json.dumps({"kind": "x", "m": 1.0}))
    new_bad = write(tmp_path, "new.json", json.dumps({"kind": "x", "m": 1.2}))
    assert main(["compare", "--reference", ref, "--new", new_bad, "--quiet"]) == 4
    new_ok = write(tmp_path, "ok.json", json.dumps({"kind": "x", "m": 1.001}))
    assert main(["compare", "--reference", ref, "--new", new_ok, "--quiet"]) == 0


def test_invalid_spec_kind_no_outputs(tmp_path):
    bad = write(tmp_path, "bad.spec", "kind = frobnicate\n")
    out = tmp_path / "out"
    code = main(["run", "--experiment", bad, "--out", str(out), "--quiet"])
    assert code == 2
    assert not (out / "summary.json").exists()


def test_failed_run_removes_partial_outputs(tmp_path):
    # a spec that validates but fails numerically mid-run leaves nothing behind
    bad = write(tmp_path, "bad.spec",
                "kind = spectroscopy\nprep_target = coherent\nprep_beta_re = 9.0\n"
                "prep_method = ideal_injection\nphonon_dim = 6\n")
    out = tmp_path / "out"
    code = main(["run", "--experiment", bad, "--out", str(out), "--quiet"])
    assert code != 0
    assert not list(out.glob("*.csv")) if out.exists() else True
    assert not (out / "summary.json").exists() if out.exists() else True


def test_paper_defaults_flag_with_params_file(tmp_path):
    params = write(tmp_path, "dev.params", "g_lg00 = 200k\n")
    out = tmp_path / "out"
    code = main([
        "run", "--params", params, "--paper-defaults",
        "--experiment", str(PRESETS / "chi_scan.spec"),
        "--out", str(out), "--quiet",
    ])
    assert code == 2  # file contradicts the measured defaults


def test_vacuum_rabi_run(tmp_path):
    out = tmp_path / "out"
    code = main([
        "run", "--experiment", str(PRESETS / "vacuum_rabi.spec"),
        "--out", str(out), "--quiet",
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["resonant_oscillation_hz"] == pytest.approx(519e3, rel=0.02)
    rows = (out / "chevron.csv").read_text().splitlines()
    assert rows[1] == "detuning_hz,time_s,p_e"


def test_fock_prep_check_run(tmp_path):
    spec = write(tmp_path, "prep.spec",
                 "kind = fock_prep_check\nprep_target = fock\nprep_m = 1\n"
                 "prep_method = swap_sequence\nnoise = paper\nphonon_dim = 6\n")
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["target_population"] > 0.9


def preset_copy(tmp_path, name, **overrides):
    """A copy of a preset spec in tmp_path with some keys overridden."""
    data = parse_keyval((PRESETS / name).read_text())
    data.update(overrides)
    return write(tmp_path, name, "".join(f"{k} = {v}\n" for k, v in data.items()))


def test_coherent_spectroscopy_preset_run(tmp_path):
    spec = preset_copy(tmp_path, "coherent_spectroscopy.spec",
                       phonon_dim=6, freq_step=10e3)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 0
    text = (out / "summary.json").read_text()
    assert '"converged": true' in text
    summary = json.loads(text)
    assert summary["nbar"] == pytest.approx(0.64, abs=0.2)


def test_wigner_preset_run(tmp_path):
    spec = preset_copy(tmp_path, "wigner_fock1.spec",
                       phonon_dim=8, grid_points=3, grid_extent=0.8)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["w_origin"] < 0
    rows = (out / "wigner.csv").read_text().splitlines()
    assert len(rows) == 2 + 9


def test_offset_scan_preset_run(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--experiment", str(PRESETS / "offset_scan.spec"),
                 "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # simulations track |Delta'|, not the doubled frequency seen in experiment
    assert summary["frequency_ratio_to_delta_prime"] == pytest.approx(1.0, abs=0.25)
    assert summary["doubled_frequency_flag"] is False
    assert abs(summary["best_time_s"] - summary["analytic_zero_s"]) < 0.30e-6
    rows = (out / "offset_scan.csv").read_text().splitlines()
    assert rows[1] == "time_s,offset"
    assert len(rows) == 2 + 41


def test_offset_scan_honours_time_points(tmp_path):
    spec = preset_copy(tmp_path, "offset_scan.spec", time_points=5)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 0
    assert len((out / "offset_scan.csv").read_text().splitlines()) == 2 + 5


def test_every_experiment_kind_dispatches():
    assert set(cli._RUNNERS) == set(sequences.EXPERIMENT_KINDS)


def test_jobs_other_than_one_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--experiment", str(PRESETS / "chi_scan.spec"),
              "--out", str(tmp_path / "out"), "--jobs", "2"])
    assert exc.value.code == 2
    with pytest.raises(ValidationError, match="jobs"):
        RunManifest(params_path=None, experiment_path="x.spec", out_dir="out", jobs=2)
    params, cfg = paper_default_params(), HilbertConfig(2, (4,))
    vac = fock_state(cfg, [0], 0)
    with pytest.raises(ValidationError, match="jobs"):
        sequences.qubit_spectroscopy(vac, params.delta("coherent"), None, [0.0], params, cfg,
                                     NoiseModel(), jobs=2)
    with pytest.raises(TypeError, match="jobs"):
        sequences.wigner_scan(vac, np.zeros((1, 1), complex), params, cfg, NoiseModel(), jobs=1)


def test_non_numeric_spec_value_is_a_validation_error(tmp_path, capsys):
    spec = preset_copy(tmp_path, "wigner_fock1.spec", grid_points="abc")
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert "grid_points" in capsys.readouterr().err
    assert not out.exists()


def test_phonon_t1_preset_run(tmp_path):
    from cqadsim.device import TWO_PI, paper_default_params, purcell_rate

    params = paper_default_params()
    spec = preset_copy(tmp_path, "phonon_t1.spec", delay_points=9)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 0
    text = (out / "summary.json").read_text()
    assert '"converged": true' in text
    # intrinsic phonon decay plus Purcell loss through the qubit at rest
    t1 = 1.0 / (TWO_PI * purcell_rate(params, params.delta("rest")))
    assert json.loads(text)["t_fit_s"] == pytest.approx(t1, rel=0.1)


def test_qubit_t2_ramsey_run(tmp_path):
    from cqadsim.device import TWO_PI, paper_default_params

    params = paper_default_params()
    spec = write(tmp_path, "t2.spec",
                 "kind = t2_ramsey\nsystem = qubit\nnoise = paper\ndelay_max = 20u\n"
                 "delay_points = 21\nphonon_dim = 3\n")
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 0
    text = (out / "summary.json").read_text()
    assert '"converged": true' in text
    t2 = 1.0 / (TWO_PI * params.gamma2_star["rest"])
    assert json.loads(text)["t_fit_s"] == pytest.approx(t2, rel=0.1)


@pytest.mark.parametrize("preset, key, value", [
    ("fock1_ramsey_parity.spec", "phases", 0),
    ("fock1_ramsey_parity.spec", "phases", -2),
    ("wigner_fock1.spec", "grid_points", 0),
    ("vacuum_rabi.spec", "detuning_points", 0),
    ("chi_scan.spec", "n_max", 0),
    ("offset_scan.spec", "time_points", 0),
])
def test_count_below_one_is_a_validation_error(tmp_path, capsys, preset, key, value):
    spec = preset_copy(tmp_path, preset, **{key: value, "phonon_dim": 4})
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides, key", [
    ({"freq_step": 0}, "freq_step"),
    ({"freq_step": "-5k"}, "freq_step"),
    ({"probe_duration": 0}, "probe_duration"),
    ({"window_margin": "-1M"}, "window_margin"),
    ({"freq_min": "-1M", "freq_max": "-1M"}, "freq_max"),
    ({"freq_min": "-1M", "freq_max": "-2M"}, "freq_max"),
])
def test_empty_spectroscopy_grid_is_a_validation_error(tmp_path, capsys, overrides, key):
    spec = preset_copy(tmp_path, "coherent_spectroscopy.spec", phonon_dim=6, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
def test_compare_unreadable_summary_is_a_validation_error(tmp_path, capsys, text):
    ref = write(tmp_path, "ref.json", json.dumps({"kind": "x", "m": 1.0}))
    new = tmp_path / "new.json"
    if text is not None:
        new.write_text(text)
    assert main(["compare", "--reference", ref, "--new", str(new), "--quiet"]) == 2
    assert "new.json" in capsys.readouterr().err
    assert main(["compare", "--reference", str(new), "--new", ref, "--quiet"]) == 2


def test_compare_bad_tolerance_is_a_validation_error(tmp_path, capsys):
    ref = write(tmp_path, "ref.json", json.dumps({"kind": "x", "m": 1.0}))
    assert main(["compare", "--reference", ref, "--new", ref,
                 "--tolerance", "m=abc", "--quiet"]) == 2
    assert "m=abc" in capsys.readouterr().err
