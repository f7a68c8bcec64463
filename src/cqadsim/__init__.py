"""Desk-scale simulator and analysis toolkit for dispersive qubit-phonon
(circuit quantum acoustodynamics) experiments: truncated-Fock-space linear
algebra, Lindblad dynamics over segments of constant detuning with square
resonant drives, the experiment protocols (swap-based Fock preparation,
number-resolved spectroscopy, Ramsey/echo parity, Wigner tomography), a
Schrieffer-Wolff analytic track, and the spectral/tomographic fitting
pipeline.
"""

from .device import (
    SystemParams,
    chi_analytic,
    delta_prime,
    full_jc_hamiltonian,
    load_params,
    paper_default_params,
    purcell_rate,
)
from .dynamics import (
    NoiseModel,
    Pulse,
    Segment,
    vacuum_rabi_chevron,
)
from .exceptions import (
    CqadError,
    NumericError,
    TruncationError,
    ValidationError,
)
from .hilbert import (
    DensityMatrix,
    HilbertConfig,
    OperatorMatrix,
    annihilation,
    coherent_state,
    displacement_operator,
    expectation,
    fock_state,
    parity_operator,
    qubit_operator,
    reduced_mode_matrix,
)
from .sequences import (
    ParityResult,
    StatePrep,
    four_phase_average,
    interaction_time_offset_scan,
    prepare_state,
    qubit_spectroscopy,
    wigner_scan,
)
from .swtheory import RamseyPrediction, chi_numeric

__version__ = "0.1.0"
