"""Shared test helpers.

``tests/reference/presets/<name>.json`` holds the ``summary.json`` that
``cqadsim run --experiment presets/<name>.spec`` wrote before the latest
refactor.  A refactor must reproduce it to 1e-6 relative; rewrite a reference
only with a change that means to move the results, and say so.

``coherent_spectroscopy.json`` is written at the size its test runs: the preset
with ``phonon_dim = 6`` and ``freq_step = 10000.0`` (10 kHz).  References
written before the ``seed`` option went still hold a ``"seed"`` key, which
``compare_summaries`` skips.
"""

import json
import os
from pathlib import Path

import pytest

# One BLAS thread, as the benchmark runs: small dense products are about 3x
# slower at two threads on two cores.  numpy reads these when it is first
# imported, which is below; a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from cqadsim.cli import compare_summaries  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference" / "presets"


@pytest.fixture
def matches_reference():
    """Asserts that a preset's summary agrees with its stored reference."""
    def check(preset, summary):
        reference = json.loads((REFERENCE / f"{preset}.json").read_text())
        ok, report = compare_summaries(reference, summary, {}, default_tolerance=1e-6)
        assert ok, "\n".join(report)
    return check
