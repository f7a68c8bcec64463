"""Shared test helpers.

``tests/reference/presets/<name>.json`` holds the ``summary.json`` that
``cqadsim run --experiment presets/<name>.spec`` wrote before the latest
refactor.  A refactor must reproduce it to 1e-6 relative; rewrite a reference
only with a change that means to move the results, and say so.

References written before the ``seed`` option went still hold a ``"seed"``
key, which ``compare_summaries`` skips.

The dense oracles of the Lindblad kernels are built here, in numpy, from
their definitions: ``dense_liouvillian`` and the basis ``hermitian_basis``.
The state constructors build density matrices only; ``basis_vector`` and
``coherent_vector`` give the plain vectors that the dense ket oracles act on.
"""

import json
import math
import os
from pathlib import Path

import pytest

# One BLAS thread, as the benchmark runs: small dense products are about 3x
# slower at two threads on two cores.  numpy reads these when it is first
# imported, which is below; a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from cqadsim.cli import compare_summaries  # noqa: E402
from cqadsim.hilbert import coherent_amplitudes  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference" / "presets"


@pytest.fixture
def matches_reference():
    """Asserts that a preset's summary agrees with its stored reference."""
    def check(preset, summary):
        reference = json.loads((REFERENCE / f"{preset}.json").read_text())
        ok, report = compare_summaries(reference, summary, {}, default_tolerance=1e-6)
        assert ok, "\n".join(report)
    return check


def dense_liouvillian(h, collapse):
    """-i(H x I - I x H^T) + sum_c [c x c* - (c^dag c x I + I x (c^dag c)^T)/2]: the
    Lindbladian on row-major vec(rho), dense, with H taken as given."""
    eye = np.eye(h.shape[0])
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in collapse:
        cdc = c.conj().T @ c
        out = out + np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return out


def hermitian_basis(d):
    """S: its columns are vec of |i><i|, then (|i><j| + |j><i|)/sqrt2 and then
    i(|i><j| - |j><i|)/sqrt2 for the pairs i < j in row-major order, so S^dag vec(rho) is
    the coordinates of a Hermitian rho."""
    i, j = np.triu_indices(d, k=1)
    s = np.zeros((d, d, d * d), dtype=complex)
    s[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    x, y = d + np.arange(i.size), d + i.size + np.arange(i.size)
    s[i, j, x] = s[j, i, x] = math.sqrt(0.5)
    s[i, j, y], s[j, i, y] = 1j * math.sqrt(0.5), -1j * math.sqrt(0.5)
    return s.reshape(d * d, d * d)


def basis_vector(config, occupations, qubit_level=0):
    """The basis vector |qubit_level; n_1, n_2, ...> of ``config``, a plain complex array."""
    v = np.zeros(config.dim, dtype=complex)
    v[config.index(qubit_level, list(occupations))] = 1.0
    return v


def coherent_vector(config, beta):
    """The vector of ``coherent_state(config, 0, beta)``: the qubit in |g>, the truncated
    coherent series in the first mode and every other mode in vacuum."""
    v = np.zeros((2, config.phonon_dims[0], config.dim // (2 * config.phonon_dims[0])),
                 dtype=complex)
    v[0, :, 0] = coherent_amplitudes(config.phonon_dims[0], beta)
    return v.reshape(-1)
