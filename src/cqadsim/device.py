"""Device parameters and the system Hamiltonian.

All frequencies, couplings, and rates are ordinary frequencies in Hz; the
Hamiltonian matrices returned by the builders are in angular units (rad/s).
``delta`` always means the qubit-phonon detuning omega_q - omega_m(LG-00) at
the current operating point; the qubit is Stark-shifted, so the operating
detuning is an input rather than something derived from the bare qubit
frequency.

``full_jc_hamiltonian`` is the one Jaynes-Cummings builder.  A frame is a
frequency f in Hz relative to LG-00: H minus 2 pi f times the conserved
excitation number sigma_z/2 + sum n_k.  The dynamics run at f = 0 (the LG-00
phonon frame), spectroscopy at the probe frequency, and the Schrieffer-Wolff
oracle at the dressed qubit frequency Delta'.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .exceptions import ValidationError
from .hilbert import HilbertConfig, OperatorMatrix, annihilation, qubit_operator

__all__ = [
    "SystemParams",
    "paper_default_params",
    "load_params",
    "full_jc_hamiltonian",
    "chi_analytic",
    "delta_prime",
    "purcell_rate",
    "TWO_PI",
]

TWO_PI = 2.0 * math.pi

def _freeze(d: Mapping[str, float]) -> Mapping[str, float]:
    return MappingProxyType(dict(d))


@dataclass(frozen=True)
class SystemParams:
    """Device and operating parameters (defaults: the measured device values).

    Rate tables are keyed by the named operating point at which they were
    measured; lookups use the nearest operating point in detuning.
    """

    omega_q: float = 5.9762e9
    omega_m_lg00: float = 5.9741e9
    omega_m_lg10: float = 5.9752e9
    g_lg00: float = 259.5e3
    g_lg10: float = 91.3e3
    alpha: float = 214e6
    fsr: float = 12e6
    e_c: float = 214e6  # metadata only
    e_j: float = 22.4e9  # metadata only
    gamma1: Mapping[str, float] = field(
        default_factory=lambda: _freeze({"rest": 15.6e3, "ramsey": 12.1e3})
    )
    gamma2_star: Mapping[str, float] = field(
        default_factory=lambda: _freeze({"rest": 15.1e3, "ramsey": 15.7e3})
    )
    gamma2_echo: Mapping[str, float] = field(
        default_factory=lambda: _freeze({"rest": 13.7e3, "ramsey": 12.7e3})
    )
    kappa1: Mapping[str, float] = field(
        default_factory=lambda: _freeze({"rest": 2.0e3, "ramsey": 2.6e3})
    )
    kappa2_star: Mapping[str, float] = field(
        default_factory=lambda: _freeze({"rest": 1.2e3, "ramsey": 2.1e3})
    )
    operating_points: Mapping[str, float] = field(
        default_factory=lambda: _freeze(
            {"rest": -4.1e6, "coherent": -1.2e6, "fock": -0.8e6, "ramsey": -1.9e6}
        )
    )

    def __post_init__(self):
        for name in ("gamma1", "gamma2_star", "gamma2_echo", "kappa1", "kappa2_star"):
            table = getattr(self, name)
            object.__setattr__(self, name, _freeze(table))
            if any(v < 0 for v in table.values()):
                raise ValidationError(f"{name} contains a negative rate")
        object.__setattr__(self, "operating_points", _freeze(self.operating_points))
        if self.g_lg00 <= 0 or self.g_lg10 <= 0:
            raise ValidationError("couplings must be positive")
        if abs(self.g_lg00) >= self.fsr or abs(self.g_lg10) >= self.fsr:
            raise ValidationError("couplings must stay well below the FSR")

    def __hash__(self):
        # consistent with the field-wise __eq__: the (frozen) tables hash as sorted items
        return hash(tuple(
            tuple(sorted(v.items())) if isinstance(v, MappingProxyType) else v
            for v in vars(self).values()
        ))

    def delta(self, point: str) -> float:
        """Detuning (Hz) of a named operating point."""
        try:
            return self.operating_points[point]
        except KeyError:
            raise ValidationError(
                f"unknown operating point {point!r}; have {sorted(self.operating_points)}"
            ) from None

    def _nearest_point(self, table: Mapping[str, float], delta: float) -> str:
        candidates = [k for k in table if k in self.operating_points]
        if not candidates:
            raise ValidationError("rate table has no entries at known operating points")
        return min(candidates, key=lambda k: abs(self.operating_points[k] - delta))

    def rate_at(self, table_name: str, delta: float) -> float:
        """Nearest-neighbor rate lookup (no interpolation: only two measured points)."""
        table = getattr(self, table_name)
        return table[self._nearest_point(table, delta)]

    @property
    def lg10_offset(self) -> float:
        """LG-10 frequency relative to LG-00, Hz."""
        return self.omega_m_lg10 - self.omega_m_lg00

    def mode_g(self, mode_index: int) -> float:
        return (self.g_lg00, self.g_lg10)[mode_index]

    def mode_offset(self, mode_index: int) -> float:
        return (0.0, self.lg10_offset)[mode_index]


def paper_default_params() -> SystemParams:
    """The measured device parameter set (Hz)."""
    return SystemParams()


_SCALAR_KEYS = (
    "omega_q", "omega_m_lg00", "omega_m_lg10", "g_lg00", "g_lg10",
    "alpha", "fsr", "e_c", "e_j",
)
_TABLE_KEYS = ("gamma1", "gamma2_star", "gamma2_echo", "kappa1", "kappa2_star")
_POINT_NAMES = ("rest", "coherent", "fock", "ramsey")


def load_params(path=None, paper_defaults: bool = False) -> SystemParams:
    """Load system parameters from a flat key/value file.

    Keys: the scalar fields directly (``g_lg00 = 259.5k``), rate tables as
    ``<table>_<point>`` (``gamma1_rest = 15.6k``), detunings as
    ``delta_<point>``.  Omitted keys keep the measured defaults.  With
    ``paper_defaults=True`` any keys present must agree with the measured
    values (relative 1e-9) and the default set is returned.
    """
    from .keyval import load_keyval

    defaults = SystemParams()
    if path is None:
        return defaults
    data = load_keyval(path)
    known = set(_SCALAR_KEYS)
    known.update(f"{t}_{p}" for t in _TABLE_KEYS for p in _POINT_NAMES)
    known.update(f"delta_{p}" for p in _POINT_NAMES)
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown parameter keys: {sorted(unknown)}")
    for key, value in data.items():
        if not isinstance(value, float):
            raise ValidationError(f"parameter {key!r} must be numeric, got {value!r}")

    scalars = {k: float(data[k]) for k in _SCALAR_KEYS if k in data}
    tables = {}
    for t in _TABLE_KEYS:
        base = dict(getattr(defaults, t))
        for p in _POINT_NAMES:
            if f"{t}_{p}" in data:
                base[p] = float(data[f"{t}_{p}"])
        tables[t] = base
    points = dict(defaults.operating_points)
    for p in _POINT_NAMES:
        if f"delta_{p}" in data:
            points[p] = float(data[f"delta_{p}"])

    loaded = SystemParams(**scalars, **tables, operating_points=points)
    if paper_defaults:
        _validate_against_defaults(loaded, defaults)
        return defaults
    return loaded


def _validate_against_defaults(loaded: SystemParams, defaults: SystemParams):
    for k in _SCALAR_KEYS:
        a, b = getattr(loaded, k), getattr(defaults, k)
        if abs(a - b) > 1e-9 * max(abs(b), 1.0):
            raise ValidationError(
                f"--paper-defaults requested but {k} = {a!r} differs from the measured {b!r}"
            )
    for t in _TABLE_KEYS:
        for p, b in getattr(defaults, t).items():
            a = getattr(loaded, t).get(p)
            if a is not None and abs(a - b) > 1e-9 * max(abs(b), 1.0):
                raise ValidationError(
                    f"--paper-defaults requested but {t}[{p}] = {a!r} differs from {b!r}"
                )
    for p, b in defaults.operating_points.items():
        a = loaded.operating_points.get(p)
        if a is not None and abs(a - b) > 1e-9 * max(abs(b), 1.0):
            raise ValidationError(
                f"--paper-defaults requested but delta_{p} = {a!r} differs from {b!r}"
            )


# ---------------------------------------------------------------------------
# analytic quantities


def chi_analytic(g: float, delta: float, alpha: float, form: str = "full") -> float:
    """Qubit frequency shift per phonon, Hz.

    ``full`` evaluates -2 g^2/Delta * alpha/(Delta - alpha); ``approximate``
    evaluates 2 g^2/Delta (valid for |Delta| << alpha).  ``alpha`` enters as a
    positive magnitude, which reproduces the measured negative shift at
    negative detuning.
    """
    if form not in ("full", "approximate"):
        raise ValidationError(f"unknown chi form {form!r}")
    if delta == 0.0:
        raise ValidationError("chi is undefined at zero detuning")
    if form == "approximate":
        return 2.0 * abs(g) ** 2 / delta
    if delta == alpha:
        raise ValidationError("full chi form has a pole at delta == alpha")
    return -2.0 * abs(g) ** 2 / delta * alpha / (delta - alpha)


def delta_prime(g: float, delta: float) -> float:
    """Dressed detuning Delta + g^2/Delta, Hz."""
    if delta == 0.0:
        raise ValidationError("delta_prime is undefined at zero detuning")
    return delta + abs(g) ** 2 / delta


def purcell_rate(params: SystemParams, delta: float) -> float:
    """Total phonon decay with qubit-induced (Purcell) loss, Hz.

    Uses the intrinsic rates measured at the rest point:
    kappa_total = kappa1 + gamma1 * (g/Delta)^2.
    """
    g = params.g_lg00
    if delta != 0.0 and abs(g / delta) >= 1.0:
        raise ValidationError("Purcell estimate requires |g/delta| < 1")
    kappa = params.kappa1["rest"]
    gamma = params.gamma1["rest"]
    if delta == 0.0:
        return kappa
    return kappa + gamma * (g / delta) ** 2


# ---------------------------------------------------------------------------
# Hamiltonian builders


def _check_hermitian(op: OperatorMatrix) -> OperatorMatrix:
    if op.hermiticity_defect() > 1e-12:
        raise ValidationError("Hamiltonian builder produced a non-Hermitian matrix")
    return op


@functools.lru_cache(maxsize=32)
def _jc_terms(config: HilbertConfig):
    """Read-only sigma_z and, per mode, (n_k, sigma+ a_k + sigma- a_k^dag)."""
    sz = qubit_operator(config, "sigma_z").matrix
    sp = qubit_operator(config, "sigma_plus").matrix
    sm = qubit_operator(config, "sigma_minus").matrix
    modes = []
    for k in range(config.n_modes):
        a = annihilation(config, k).matrix
        n_k, x_k = a.conj().T @ a, sp @ a + sm @ a.conj().T
        n_k.setflags(write=False)
        x_k.setflags(write=False)
        modes.append((n_k, x_k))
    return sz, tuple(modes)


def full_jc_hamiltonian(
    params: SystemParams,
    config: HilbertConfig,
    delta: float,
    frame: float = 0.0,
) -> OperatorMatrix:
    """Jaynes-Cummings Hamiltonian (angular units), one term per configured mode.

    H = 2 pi [(delta - f)/2 sigma_z + sum_k (offset_k - f) n_k
    + g_k (sigma+ a_k + sigma- a_k^dag)], with every frequency relative to
    LG-00 and f = ``frame`` the frame frequency in Hz (0: the LG-00 phonon
    frame the dynamics engine uses; delta: the qubit frame; -omega_m(LG-00):
    the lab frame).
    """
    if config.n_modes > 2:
        raise ValidationError("at most two modes (LG-00, LG-10) are modeled")
    f = float(frame)
    sz, modes = _jc_terms(config)
    h = TWO_PI * (delta - f) * 0.5 * sz
    for k, (n_k, x_k) in enumerate(modes):
        h = h + TWO_PI * (params.mode_offset(k) - f) * n_k
        h = h + TWO_PI * params.mode_g(k) * x_k
    return _check_hermitian(OperatorMatrix(config, h))

