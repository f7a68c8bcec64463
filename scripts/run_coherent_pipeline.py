#!/usr/bin/env python3
"""Displacement-amplitude calibration sweep.

Prepares coherent states with a resonant drive, runs number-resolved
spectroscopy, fits Voigt sums and Poisson distributions, and reports the
measured-vs-prepared amplitude ratio together with the linearity of the
calibration line.  Writes calibration.csv.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from cqadsim.analysis import calibration_fit, poisson_fit, voigt_sum_fit
from cqadsim.device import paper_default_params
from cqadsim.dynamics import NoiseModel, Pulse
from cqadsim.device import TWO_PI
from cqadsim.hilbert import HilbertConfig, annihilation
from cqadsim.sequences import (
    StatePrep,
    prepare_state,
    qubit_spectroscopy,
    spectroscopy_peak_hints,
)


def measure_amplitude(params, target_beta, probe_angle=1.0, tau=15e-6):
    delta = params.delta("coherent")
    noise = NoiseModel.from_params(params, delta)
    dim = max(10, int(np.ceil(4 * target_beta**2)) + 2)
    config = HilbertConfig(2, (dim,))
    prep = StatePrep(target="coherent", beta=complex(target_beta, 0.0),
                     method="displacement_drive")
    rho = prepare_state(prep, params, config, noise)
    beta_prep = abs(np.trace(rho.matrix @ annihilation(config).matrix))
    nbar_eff = (0.86 * beta_prep) ** 2
    n_peaks = min(int(np.ceil(nbar_eff + 4.0 * np.sqrt(max(nbar_eff, 0.25)))) + 1, 7)
    line0, chord = spectroscopy_peak_hints(params, delta, n_peaks)
    probe = Pulse(amplitude=probe_angle / (TWO_PI * tau))
    grid = np.arange(line0 + (n_peaks - 1) * chord - 100e3, line0 + 100e3, 4e3)
    trace = qubit_spectroscopy(rho, delta, probe, grid, params, config, noise,
                               probe_duration=tau)
    fit, pops = voigt_sum_fit(trace, n_peaks, chord, center_hint=line0,
                              deviation_bound=0.35)
    beta_fit = poisson_fit(pops).parameters["beta"]
    return beta_prep, beta_fit


def target_list(text):
    """Comma-separated |beta| targets; calibration_fit needs at least three."""
    try:
        targets = [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"targets must be numbers, got {text!r}")
    if len(targets) < 3:
        raise argparse.ArgumentTypeError(
            f"a calibration line needs at least 3 targets, got {len(targets)}")
    return targets


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/coherent_pipeline")
    ap.add_argument("--targets", type=target_list, default="0.5,0.8,1.1,1.44,1.67")
    # argparse exits 2 on a bad --targets, before any spectroscopy runs
    args = ap.parse_args()
    targets = args.targets
    params = paper_default_params()
    drive_amps = [t / (np.pi * 1e-6) for t in targets]

    rows = []
    for target, amp in zip(targets, drive_amps):
        t0 = time.time()
        beta_prep, beta_fit = measure_amplitude(params, target)
        rows.append((amp, beta_prep, beta_fit, beta_fit / beta_prep))
        print(f"drive {amp / 1e3:7.1f} kHz: |b_prep| {beta_prep:.3f} "
              f"|b_fit| {beta_fit:.3f}  ratio {beta_fit / beta_prep:.3f} "
              f"({time.time() - t0:.0f} s)")

    fit = calibration_fit([r[0] for r in rows], [r[2] for r in rows])
    print(f"calibration line: slope {fit.parameters['slope']:.3e} /Hz, "
          f"R^2 = {fit.parameters['r_squared']:.5f}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["drive_amplitude_hz,beta_prepared,beta_fitted,ratio"]
    lines += [f"{a:.6g},{bp:.6g},{bf:.6g},{r:.6g}" for a, bp, bf, r in rows]
    (out / "calibration.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'calibration.csv'}")


if __name__ == "__main__":
    main()
