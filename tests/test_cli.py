import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqadsim import cli, sequences
from cqadsim.cli import RunManifest, compare_summaries, main, run_experiment
from cqadsim.device import paper_default_params
from cqadsim.dynamics import NoiseModel
from cqadsim.exceptions import ValidationError
from cqadsim.hilbert import HilbertConfig, fock_state
from cqadsim.keyval import load_keyval, parse_keyval, parse_number

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"


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
    for literal in ("1e400", "-1e400", "1e308k"):
        with pytest.raises(ValidationError, match="float range"):
            parse_number(literal)


def test_parse_keyval_diagnostics():
    data = parse_keyval("a = 1k\n# comment\nb = text\n")
    assert data == {"a": 1000.0, "b": "text"}
    with pytest.raises(ValidationError, match=":2"):
        parse_keyval("a = 1\nbroken line\n")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_keyval("a = 1\na = 2\n")


def test_chi_scan_run(tmp_path, matches_reference):
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
    matches_reference("chi_scan", summary)


def test_run_determinism(tmp_path):
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_experiment(RunManifest(
            params_path=None,
            experiment_path=str(PRESETS / "chi_scan.spec"),
            out_dir=str(out),
        ))
        texts.append((out / "summary.json").read_bytes())
    assert texts[0] == texts[1]


def test_parity_run_and_compare(tmp_path, matches_reference):
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
    matches_reference("fock1_ramsey_parity", summary)

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


def test_compare_fails_a_value_that_turned_nan(tmp_path, capsys):
    ref = write(tmp_path, "ref.json", json.dumps({"kind": "x", "t_fit_s": 7.47e-05}))
    new = write(tmp_path, "new.json", json.dumps({"kind": "x", "t_fit_s": math.nan}))
    assert main(["compare", "--reference", ref, "--new", new]) == 4
    assert "FAIL t_fit_s" in capsys.readouterr().out
    ok, report = compare_summaries(json.loads(Path(new).read_text()),
                                   json.loads(Path(ref).read_text()), {})
    assert not ok and report[0].startswith("FAIL ")


def test_compare_equal_non_finite_values_agree(tmp_path, capsys):
    """An undamped qubit Ramsey fit reports t_fit_s = Infinity; its summary compares clean
    with itself, and so do two NaNs.  An infinity against a number, or of the other sign,
    fails."""
    spec = write(tmp_path, "t2.spec", "kind = t2_ramsey\nsystem = qubit\nnoise = none\n")
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 0
    summary = str(out / "summary.json")
    assert "Infinity" in Path(summary).read_text()
    assert main(["compare", "--reference", summary, "--new", summary]) == 0
    assert "FAIL" not in capsys.readouterr().out
    ok, _ = compare_summaries({"kind": "x", "m": math.nan}, {"kind": "x", "m": math.nan}, {})
    assert ok
    for new in (1.0, -math.inf, math.nan, None):
        ok, report = compare_summaries({"kind": "x", "m": math.inf}, {"kind": "x", "m": new}, {})
        assert not ok and report[0].startswith("FAIL "), new


def test_run_has_no_seed_option(tmp_path, capsys):
    """Every fit takes one deterministic start, so there is no seed to set."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--seed", "1", "--experiment", str(PRESETS / "chi_scan.spec"),
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_vacuum_rabi_run(tmp_path, matches_reference):
    out = tmp_path / "out"
    code = main([
        "run", "--experiment", str(PRESETS / "vacuum_rabi.spec"),
        "--out", str(out), "--quiet",
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["resonant_oscillation_hz"] == pytest.approx(519e3, rel=0.02)
    matches_reference("vacuum_rabi", summary)
    # one optimum, one phase: atan2 of the linear A cos phi and A sin phi
    phase = json.loads((out / "fit.json").read_text())["resonant"]["parameters"]["phase"]
    assert -math.pi < phase <= math.pi
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


def test_coherent_spectroscopy_preset_run(tmp_path, matches_reference):
    spec = preset_copy(tmp_path, "coherent_spectroscopy.spec",
                       phonon_dim=6, freq_step=10e3)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 0
    text = (out / "summary.json").read_text()
    assert '"converged": true' in text
    summary = json.loads(text)
    assert summary["nbar"] == pytest.approx(0.64, abs=0.2)
    matches_reference("coherent_spectroscopy", summary)


def test_wigner_preset_run(tmp_path):
    spec = preset_copy(tmp_path, "wigner_fock1.spec",
                       phonon_dim=8, grid_points=3, grid_extent=0.8)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["w_origin"] < 0
    rows = (out / "wigner.csv").read_text().splitlines()
    assert len(rows) == 2 + 9


def test_wigner_grid_beyond_the_truncation_is_refused(tmp_path, capsys):
    """The corner |beta| = sqrt(2) needs phonon dim 8: exit 2, the guard's message, no output."""
    spec = preset_copy(tmp_path, "wigner_fock1.spec", phonon_dim=6, grid_points=3, grid_extent=1.0)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert "needs phonon dim >= 8, mode has 6" in capsys.readouterr().err
    assert not out.exists()


def test_offset_scan_preset_run(tmp_path, matches_reference):
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
    matches_reference("offset_scan", summary)


def test_offset_scan_honours_time_points(tmp_path):
    spec = preset_copy(tmp_path, "offset_scan.spec", time_points=5)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 0
    assert len((out / "offset_scan.csv").read_text().splitlines()) == 2 + 5


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


def test_unread_spec_keys_are_a_validation_error(tmp_path, capsys):
    # offset_scan reads neither noise nor phonon_dim, and ring_radiuss is a typo
    spec = preset_copy(tmp_path, "offset_scan.spec", time_points=5, noise="paper",
                       phonon_dim=40, ring_radiuss=1.0)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in ("noise", "phonon_dim", "ring_radiuss"))
    assert not out.exists()


def test_non_numeric_spec_value_is_a_validation_error(tmp_path, capsys):
    spec = preset_copy(tmp_path, "wigner_fock1.spec", grid_points="abc")
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert "grid_points" in capsys.readouterr().err
    assert not out.exists()


def test_phonon_t1_preset_run(tmp_path, matches_reference):
    from cqadsim.device import TWO_PI, paper_default_params, purcell_rate

    params = paper_default_params()
    out = tmp_path / "out"
    assert main(["run", "--experiment", str(PRESETS / "phonon_t1.spec"),
                 "--out", str(out), "--quiet"]) == 0
    text = (out / "summary.json").read_text()
    assert '"converged": true' in text
    # intrinsic phonon decay plus Purcell loss through the qubit at rest
    t1 = 1.0 / (TWO_PI * purcell_rate(params, params.delta("rest")))
    assert json.loads(text)["t_fit_s"] == pytest.approx(t1, rel=0.1)
    matches_reference("phonon_t1", json.loads(text))


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
    ("vacuum_rabi.spec", "time_points", 0),
    ("phonon_t1.spec", "delay_points", 0),
])
def test_count_below_one_is_a_validation_error(tmp_path, capsys, preset, key, value):
    spec = preset_copy(tmp_path, preset, **{key: value, "phonon_dim": 4})
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset, overrides, key", [
    ("wigner_fock1.spec", {"grid_points": 2.5}, "grid_points"),
    ("wigner_fock1.spec", {"prep_m": 1.5}, "prep_m"),
    ("wigner_fock1.spec", {"phonon_dim": 6.5}, "phonon_dim"),
    ("wigner_fock1.spec", {"include_lg10": 0.5}, "include_lg10"),
    ("wigner_fock1.spec", {"include_lg10": 1, "lg10_dim": 2.5}, "lg10_dim"),
    ("fock1_ramsey_parity.spec", {"phases": 2.5}, "phases"),
    ("chi_scan.spec", {"n_max": 2.5}, "n_max"),
    ("offset_scan.spec", {"time_points": 4.5}, "time_points"),
    ("vacuum_rabi.spec", {"detuning_points": 1.5}, "detuning_points"),
    ("phonon_t1.spec", {"delay_points": 3.5}, "delay_points"),
    ("coherent_spectroscopy.spec", {"n_peaks": 3.5}, "n_peaks"),
])
def test_non_integral_integer_key_is_a_validation_error(tmp_path, capsys, preset, overrides,
                                                         key):
    spec = preset_copy(tmp_path, preset, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset, overrides, message", [
    ("offset_scan.spec", {"time_points": 1}, "at least 4 times"),
    ("offset_scan.spec", {"time_points": 3}, "at least 4 times"),
    ("offset_scan.spec", {"ring_radius": -1}, "ring_radius"),
    ("offset_scan.spec", {"ring_radius": 0}, "ring_radius"),
    ("wigner_fock1.spec", {"grid_extent": -0.5}, "grid_extent"),
    ("wigner_fock1.spec", {"grid_extent": 0}, "grid_extent"),
    ("wigner_fock1.spec", {"calibration_scale": 0}, "calibration_scale"),
    ("wigner_fock1.spec", {"calibration_scale": -1}, "calibration_scale"),
    ("phonon_t1.spec", {"delay_max": -250e-6}, "delay_max"),
    ("phonon_t1.spec", {"delay_max": 0}, "delay_max"),
    ("vacuum_rabi.spec", {"time_max": -1e-6}, "time_max"),
    ("vacuum_rabi.spec", {"time_max": 0}, "time_max"),
    ("fock1_ramsey_parity.spec", {"interaction_time": -1e-6}, "interaction_time"),
    ("fock1_ramsey_parity.spec", {"interaction_time": 0}, "interaction_time"),
    ("wigner_fock1.spec", {"interaction_time": 0}, "interaction_time"),
    ("phonon_t1.spec", {"delay_max": 1e300}, "delay_max"),
    ("fock1_ramsey_parity.spec", {"interaction_time": 1e300}, "interaction_time"),
    ("vacuum_rabi.spec", {"time_max": 1e300}, "time_max"),
    ("phonon_t1.spec", {"delay_max": 1.01e-3}, "delay_max"),
    ("fock1_ramsey_parity.spec", {"static_qubit_offset": 1e300}, "static_qubit_offset"),
    ("fock1_ramsey_parity.spec", {"detuning": 1e300}, "detuning"),
    ("phonon_t1.spec", {"kind": "t2_ramsey", "demod_freq": 1e300}, "demod_freq"),
    ("vacuum_rabi.spec", {"detuning_min": -1e300}, "detuning_min"),
    ("vacuum_rabi.spec", {"include_lg10": 2}, "include_lg10"),
    ("chi_scan.spec", {"prep_target": "fock", "prep_m": 3}, "prep_m"),
    ("offset_scan.spec", {"prep_beta_re": 5}, "prep_beta_re"),
    ("wigner_fock1.spec", {"lg10_dim": 3}, "lg10_dim"),
    ("coherent_spectroscopy.spec", {"freq_min": "-1M"}, "freq_min"),
    ("coherent_spectroscopy.spec", {"freq_min": "-2M", "freq_max": "-1M", "window_margin": "10k"},
     "window_margin"),
])
def test_nonsense_range_is_a_validation_error(tmp_path, capsys, preset, overrides, message):
    spec = preset_copy(tmp_path, preset, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset, key", [
    ("coherent_spectroscopy.spec", "prep_beta_re"),
    ("fock1_ramsey_parity.spec", "interaction_time"),
    ("phonon_t1.spec", "delay_max"),
])
def test_overflowing_number_is_a_validation_error(tmp_path, capsys, preset, key):
    spec = preset_copy(tmp_path, preset, **{key: "1e400"})
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert key in err and "float range" in err
    assert not out.exists()


@pytest.mark.parametrize("preset, overrides, name", [
    ("coherent_spectroscopy.spec", {"prep_beta_re": "1e300"}, "|beta|"),
    ("wigner_fock1.spec", {"grid_extent": "1e300"}, "grid_extent"),
    ("fock1_ramsey_parity.spec",
     {"kind": "echo_parity", "prep_target": "coherent", "prep_beta_re": "1e300"}, "|beta|"),
    ("coherent_spectroscopy.spec", {"prep_beta_re": "1e100"}, "|beta|"),
    ("coherent_spectroscopy.spec",
     {"prep_target": "fock", "prep_method": "ideal_injection", "prep_m": "1e100"}, "M="),
    ("fock1_ramsey_parity.spec",
     {"prep_target": "coherent", "prep_method": "displacement_drive", "prep_beta_im": "-1e300"},
     "|beta|"),
])
def test_huge_amplitude_is_a_validation_error(tmp_path, capsys, preset, overrides, name):
    """An amplitude or phonon number beyond the float range or the mode: exit 2, not a crash."""
    spec = preset_copy(tmp_path, preset, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target, method", [
    ("vacuum", "swap_sequence"),
    ("vacuum", "displacement_drive"),
    ("fock", "displacement_drive"),
    ("coherent", "swap_sequence"),
    ("superposition_01", "displacement_drive"),
])
def test_prep_pair_without_a_preparation_is_refused(tmp_path, capsys, target, method):
    spec = preset_copy(tmp_path, "fock1_ramsey_parity.spec", prep_target=target,
                       prep_method=method)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert f"has no method {method!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extent", [1.5, 2.0])
def test_wigner_default_dim_holds_the_grid_corner(tmp_path, extent):
    """Without phonon_dim, the Wigner dim is the one the truncation guard admits at the
    grid corner |beta| = sqrt(2) extent: 4|beta|^2 = 8 extent^2 levels, 18 at extent 1.5
    and 32 at the default 2.0 (where |beta|*|beta| rounds above 32)."""
    spec = write(tmp_path, "wigner.spec", "kind = wigner\nprep_target = fock\nprep_m = 1\n"
                 f"noise = none\ngrid_extent = {extent}\ngrid_points = 3\n")
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "summary.json").read_text())["w_origin"] < 0


@pytest.mark.parametrize("preset, overrides, key", [
    ("fock1_ramsey_parity.spec", {"prep_beta_re": 5}, "prep_beta_re"),
    ("fock1_ramsey_parity.spec",
     {"prep_target": "coherent", "prep_beta_re": 0.5, "prep_m": 1}, "prep_m"),
    ("fock1_ramsey_parity.spec", {"prep_target": "vacuum", "prep_m": 0, "prep_beta_im": 1},
     "prep_beta_im"),
    ("fock1_ramsey_parity.spec", {"prep_target": "superposition_01", "prep_m": 1}, "prep_m"),
])
def test_prep_key_the_target_does_not_use_is_refused(tmp_path, capsys, preset, overrides, key):
    spec = preset_copy(tmp_path, preset, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert f"spec keys {key} have no use" in capsys.readouterr().err
    assert not out.exists()


def _python(*args):
    """``python *args`` in a fresh process that imports cqadsim from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("workload", ["wigner", "spectroscopy"])
def test_benchmark_worker_runs_a_traced_tiny_sample(workload):
    """The benchmark's worker still finds what it calls and traces in cqadsim (the runner and
    fit arguments it passes, the propagator cache, every layer module): one traced tiny sample
    exits 0 and passes its checks."""
    proc = _python(str(ROOT / "benchmarks" / "worker.py"), "--workload", workload,
                   "--size", "tiny", "--seed", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["ok"] is True, record["errors"]


def test_unbounded_expm_action_is_a_numeric_failure(tmp_path):
    """A probe so long that the expm action would take 2^1000 products: exit 3 at once."""
    spec = preset_copy(tmp_path, "coherent_spectroscopy.spec", phonon_dim=6,
                       probe_duration="1e300")
    out = tmp_path / "out"
    proc = _python("-m", "cqadsim.cli", "run", "--experiment", spec, "--out", str(out), "--quiet")
    assert proc.returncode == 3
    assert "matrix-vector products" in proc.stderr
    assert not out.exists()


# scipy modules no path loads: the kernels are numpy routines, only scipy.sparse is used
_UNLOADED_SCIPY = {"scipy.special", "scipy.linalg", "scipy.sparse.csgraph", "scipy.sparse.linalg",
                   "scipy.optimize", "scipy.integrate"}
_LAYERS = {f"cqadsim.{name}" for name in
           ("hilbert", "device", "dynamics", "sequences", "swtheory", "analysis", "cli", "keyval")}


def test_cli_start_up_does_not_load_an_ode_solver():
    """No path integrates an ODE or exponentiates a Liouvillian, and the fits, the echo root and
    the Bessel and Faddeeva functions are numpy routines, so ``import cqadsim.cli`` loads no
    scipy module but scipy.sparse; it loads every layer module, which the benchmark's tracer
    looks up in ``sys.modules``."""
    proc = _python("-c", "import json, sys, cqadsim.cli; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not _UNLOADED_SCIPY & loaded
    assert _LAYERS <= loaded


def test_wigner_and_spectroscopy_runs_load_no_scipy_beyond_sparse(tmp_path):
    """Tiny Wigner, spectroscopy, phonon T1 and noisy chevron runs in one fresh process, which
    would show a lazy import on any path they take (readout actions, Chebyshev sweep, stepped
    delay loop and chevron, Voigt, Poisson and decay fits), leave the same scipy modules
    unloaded, and every layer module loaded."""
    specs = [preset_copy(tmp_path, "wigner_fock1.spec", phonon_dim=8, grid_points=3,
                         grid_extent=0.8),
             preset_copy(tmp_path, "coherent_spectroscopy.spec", phonon_dim=6, freq_step=10e3),
             preset_copy(tmp_path, "phonon_t1.spec", phonon_dim=3, delay_points=9),
             preset_copy(tmp_path, "vacuum_rabi.spec", noise="paper", phonon_dim=2,
                         lg10_dim=2, detuning_points=3, time_points=9)]
    code = ("import json, sys\n"
            "from cqadsim import cli\n"
            "for spec, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    assert cli.main(['run', '--experiment', spec, '--out', out, '--quiet']) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    outs = ["wigner", "spectroscopy", "t1", "chevron"]
    proc = _python("-c", code, *(arg for spec, out in zip(specs, outs)
                                 for arg in (spec, str(tmp_path / out))))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "wigner" / "wigner.csv").exists()
    assert (tmp_path / "spectroscopy" / "fit.json").exists()
    assert (tmp_path / "t1" / "decay.csv").exists()
    assert (tmp_path / "chevron" / "chevron.csv").exists()
    loaded = set(json.loads(proc.stdout))
    assert not _UNLOADED_SCIPY & loaded
    assert _LAYERS <= loaded


@pytest.mark.parametrize("overrides, key", [
    ({"freq_step": 0}, "freq_step"),
    ({"freq_step": "-5k"}, "freq_step"),
    ({"probe_duration": 0}, "probe_duration"),
    ({"window_margin": "-1M"}, "window_margin"),
    ({"freq_min": "-1M", "freq_max": "-1M"}, "freq_max"),
    ({"freq_min": "-1M", "freq_max": "-2M"}, "freq_max"),
    ({"freq_step": 1}, "freq_step"),
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


# Keys whose table leaves a bound open on purpose, with the check that takes
# its place downstream.
_OPEN_ABOVE = {
    "prep_m": "_fock_preparation refuses M > phonon dim - 2 (test_huge_amplitude_...)",
    "prep_beta_re": "_truncation_guard refuses a coherent |beta| (test_huge_amplitude_...)",
    "prep_beta_im": "_truncation_guard refuses a coherent |beta| (test_huge_amplitude_...)",
    "probe_duration": "the sweep refuses > 2^20 products, exit 3 (test_unbounded_expm_...)",
}
_OPEN_BELOW = {"prep_beta_re", "prep_beta_im"}


def _outside(rule):
    """Values the rule must refuse: wrong type, not whole, just past each bound, and +-1e300."""
    if rule.rule == "word":
        return [1.0, "not-a-word", 1e300, -1e300]
    whole = rule.rule == "whole number"
    values = ["not-a-number", 1e300, -1e300] + ([max(rule.lo, 0) + 0.5] if whole else [])
    if math.isfinite(rule.lo):
        values.append(rule.lo if rule.lo_open else
                      rule.lo - 1 if whole else math.nextafter(rule.lo, -math.inf))
    if math.isfinite(rule.hi):
        values.append(rule.hi + 1 if whole else math.nextafter(rule.hi, math.inf))
    return values


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
def test_every_key_refuses_what_its_table_refuses(tmp_path, capsys, kind):
    """Generated from the key tables: every bad value exits 2, names its key, writes nothing."""
    out = tmp_path / "out"
    for key, rule in cli._KINDS[kind][1].items():
        for value in _outside(rule):
            if value == 1e300 and key in _OPEN_ABOVE or value == -1e300 and key in _OPEN_BELOW:
                cli._spec_from_keyval({"kind": kind, key: value})  # left to the check downstream
                continue
            spec = write(tmp_path, "audit.spec", f"kind = {kind}\n{key} = {value}\n")
            assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2, \
                (key, value)
            assert key in capsys.readouterr().err, (key, value)
            assert not out.exists()


def _inside(rule):
    """The default and the edge values the rule must admit."""
    values = [] if rule.default is None else [rule.default]
    values += list(rule.words) + ([",".join(rule.words)] if rule.listed else [])
    if rule.rule != "word":
        values.append(math.nextafter(rule.lo, math.inf) if rule.lo_open else rule.lo)
        values.append(rule.hi)
    return [v for v in values if not (isinstance(v, float) and math.isinf(v))]


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
def test_every_default_and_edge_value_is_admitted(kind):
    """Every default, accepted word and in-range edge passes, typed as the runner reads it."""
    table = cli._KINDS[kind][1]
    for key, rule in table.items():
        for value in _inside(rule):
            got_kind, spec = cli._spec_from_keyval({"kind": kind, key: value})
            assert got_kind == kind and set(spec) == set(table)
            assert spec[key] == value and type(spec[key]) is (
                int if rule.rule == "whole number" else type(value)), (key, value)


def test_every_preset_passes_its_table():
    """Each preset holds only keys its kind reads, with values its table admits."""
    for path in sorted(PRESETS.glob("*.spec")):
        kind, spec = cli._spec_from_keyval(load_keyval(path))
        assert set(spec) == set(cli._KINDS[kind][1]), path.name


def test_every_preset_has_a_reference_and_every_reference_a_preset():
    """The 1e-6 refactor gate covers every preset: one tests/reference/presets/<name>.json each."""
    specs = {path.stem for path in PRESETS.glob("*.spec")}
    references = {path.stem for path in (ROOT / "tests" / "reference" / "presets").glob("*.json")}
    assert specs and specs == references


def test_a_typo_key_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    """The unknown key exits 2 before any state is prepared or any sweep runs."""
    calls = []
    monkeypatch.setattr(sequences, "qubit_spectroscopy", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(sequences, "prepare_state", lambda *a, **k: calls.append(a))
    spec = preset_copy(tmp_path, "coherent_spectroscopy.spec", freq_stepp="4k")
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert "freq_stepp" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("preset, overrides, key", [
    ("phonon_t1.spec", {"delay_points": 3}, "delay_points"),
    ("phonon_t1.spec", {"kind": "t2_ramsey", "system": "qubit", "delay_points": 7},
     "delay_points"),
    ("vacuum_rabi.spec", {"time_points": 5}, "time_points"),
])
def test_too_few_fit_points_are_refused_before_any_work(tmp_path, capsys, monkeypatch, preset,
                                                         overrides, key):
    """A sweep too short for its decay fit exits 2 before any segment or chevron runs."""
    calls = []
    monkeypatch.setattr(sequences, "evolve_segments", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "vacuum_rabi_chevron", lambda *a, **k: calls.append(a))
    spec = preset_copy(tmp_path, preset, **overrides)
    out = tmp_path / "out"
    assert main(["run", "--experiment", spec, "--out", str(out), "--quiet"]) == 2
    assert key in capsys.readouterr().err
    assert calls == [] and not out.exists()


class _ReadRecorder(dict):
    """Spec values that record which keys were read; ``key in d`` is not a read."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# the smallest spec of each kind that the tests above run: a preset and overrides
_SMALLEST_SPECS = {
    "spectroscopy": ("coherent_spectroscopy.spec", {"phonon_dim": 6, "freq_step": 10e3}),
    "ramsey_parity": ("fock1_ramsey_parity.spec", {}),
    "echo_parity": ("fock1_ramsey_parity.spec", {"kind": "echo_parity"}),
    "wigner": ("wigner_fock1.spec", {"phonon_dim": 8, "grid_points": 3, "grid_extent": 0.8}),
    "fock_prep_check": (None, {"kind": "fock_prep_check", "prep_target": "fock", "prep_m": 1,
                               "prep_method": "swap_sequence", "noise": "paper",
                               "phonon_dim": 6}),
    "t1": ("phonon_t1.spec", {}),
    "t2_ramsey": ("phonon_t1.spec", {"kind": "t2_ramsey", "system": "qubit", "delay_max": "20u",
                                     "delay_points": 21, "phonon_dim": 3}),
    "rabi_chevron": ("vacuum_rabi.spec", {}),
    "chi_scan": ("chi_scan.spec", {}),
    "offset_scan": ("offset_scan.spec", {"time_points": 5}),
}


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
def test_every_declared_key_is_read_by_its_runner(tmp_path, monkeypatch, kind):
    """The table admits no key that the kind's runner ignores."""
    specs = []

    def recorded(data):
        got_kind, spec = spec_from_keyval(data)
        specs.append(_ReadRecorder(spec))
        return got_kind, specs[-1]

    spec_from_keyval = cli._spec_from_keyval
    monkeypatch.setattr(cli, "_spec_from_keyval", recorded)
    preset, overrides = _SMALLEST_SPECS[kind]
    spec = preset_copy(tmp_path, preset, **overrides) if preset else write(
        tmp_path, "smallest.spec", "".join(f"{k} = {v}\n" for k, v in overrides.items()))
    assert main(["run", "--experiment", spec, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert specs[0].read == set(cli._KINDS[kind][1])
