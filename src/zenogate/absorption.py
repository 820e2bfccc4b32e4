"""Physical two-photon absorption rates for hollow-core fibers with atoms.

Everything here is SI-unit arithmetic; the dimensionless dynamics modules
never see these numbers.  The rate of two-photon absorption by three-level
atoms in the core factorizes as

    R2 = sqrt(2/pi) * N_A * f_delta * f_C * f_P * (sigma0 / A) / tau_R

with sigma0 = (3/2pi) lambda^2 the resonant single-photon cross-section,
N_A the number of atoms within a radiative length c*tau_R of fiber, and
three dimensionless reduction factors:

    f_delta = (M21 / delta)^2    detuning from the intermediate level,
    f_C     = tau_C / tau_R      collisional line broadening,
    f_P     = c tau_R / L_p      wave-packet length (intensity squared).

Choosing N_A = 1/f_delta, L_p ~ c tau_C and a core diameter near 0.78
wavelengths cancels every factor, leaving R2 within sqrt(2/pi) of the bare
1/tau_R -- an absorption length l2 = c/R2 of a few meters in the visible.
Cavity mirrors of finesse f shrink the required device length by 1/f^2 at
the cost of single-photon loss growing as 1/f.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact in SI


@dataclass(frozen=True)
class AbsorptionParams:
    """SI inputs of the rate model; see the module docstring for symbols."""

    wavelength: float  # m
    tau_r: float  # radiative lifetime, s
    tau_c: float  # collisional lifetime, s
    delta: float  # detuning from the intermediate level (energy units)
    m21: float  # ground -> intermediate matrix element (same units as delta)
    packet_length: float  # wave-packet length L_p, m
    core_diameter: float  # m
    n_atoms: float  # atoms within c * tau_r of fiber
    finesse: float = 1.0

    def __post_init__(self):
        for name in (
            "wavelength",
            "tau_r",
            "tau_c",
            "delta",
            "m21",
            "packet_length",
            "core_diameter",
            "n_atoms",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.finesse < 1.0:
            raise ValueError("finesse must be >= 1")
        if self.tau_c > self.tau_r:
            warnings.warn(
                "tau_c > tau_r: outside the collision-broadened operating regime",
                stacklevel=2,
            )


@dataclass(frozen=True)
class RateReport:
    sigma0: float  # resonant cross-section, m^2
    f_delta: float
    f_c: float
    f_p: float
    rate: float  # R2, 1/s
    absorption_length: float  # l2 = c / R2, m
    device_length: float  # m, at the report's error target and finesse
    p_error_target: float
    finesse: float


def resonant_cross_section(wavelength: float) -> float:
    """sigma0 = (3 / 2 pi) * lambda^2."""
    if not wavelength > 0:
        raise ValueError("wavelength must be positive")
    return (3.0 / (2.0 * math.pi)) * wavelength**2


def factor_breakdown(params: AbsorptionParams) -> tuple[float, float, float]:
    """(f_delta, f_C, f_P); rejects zero detuning, where the perturbative
    detuning factor does not apply."""
    if params.delta == 0:
        raise ValueError("detuning must be nonzero")
    f_delta = (params.m21 / params.delta) ** 2
    f_c = params.tau_c / params.tau_r
    f_p = SPEED_OF_LIGHT * params.tau_r / params.packet_length
    return f_delta, f_c, f_p


def core_area(core_diameter: float) -> float:
    return math.pi * (core_diameter / 2.0) ** 2


def unity_mode_check(wavelength: float, core_diameter: float) -> float:
    """sigma0 / A; approximately 1 when the core diameter is 0.78 lambda."""
    if not (wavelength > 0 and core_diameter > 0):
        raise ValueError("wavelength and core_diameter must be positive")
    return resonant_cross_section(wavelength) / core_area(core_diameter)


def two_photon_rate(params: AbsorptionParams, p_error_target: float = 1.0) -> RateReport:
    """Evaluate the full rate formula and derived lengths.

    ``absorption_length`` is c/R2, which reduces to c*tau_r when the factors
    cancel to R2 = 1/tau_r.  ``device_length`` applies the error target and
    finesse scaling of :func:`device_length`.
    """
    sigma0 = resonant_cross_section(params.wavelength)
    f_delta, f_c, f_p = factor_breakdown(params)
    mode_ratio = sigma0 / core_area(params.core_diameter)
    rate = (
        math.sqrt(2.0 / math.pi)
        * params.n_atoms
        * f_delta
        * f_c
        * f_p
        * mode_ratio
        / params.tau_r
    )
    l2 = SPEED_OF_LIGHT / rate
    return RateReport(
        sigma0=sigma0,
        f_delta=f_delta,
        f_c=f_c,
        f_p=f_p,
        rate=rate,
        absorption_length=l2,
        device_length=device_length(p_error_target, l2, params.finesse)[0],
        p_error_target=p_error_target,
        finesse=params.finesse,
    )


def device_length(p_error_target: float, l2: float, finesse: float) -> tuple[float, float]:
    """Coupled-core length for a target error, plus the 1/f loss factor.

    The error falls as l2 / L, so L = (l2 / P_E) / f^2 once cavity mirrors
    of finesse f recycle the photons; single-photon loss scales as 1/f.
    """
    if not 0 < p_error_target <= 1:
        raise ValueError("p_error_target must be in (0, 1]")
    if finesse < 1:
        raise ValueError("finesse must be >= 1")
    return (l2 / p_error_target) / finesse**2, 1.0 / finesse


# Parameter files are flat key=value lists in SI units with '#' comments.
OPTIONAL_KEYS = frozenset({"finesse", "p_error_target"})
PARAM_KEYS = OPTIONAL_KEYS | {
    "wavelength", "tau_r", "tau_c", "delta", "m21", "packet_length", "core_diameter", "n_atoms"
}


def load_params_file(path) -> tuple[AbsorptionParams, float]:
    """Parse a key=value parameter file; returns (params, p_error_target).

    Malformed lines, unknown keys, bad numbers and missing keys are all
    reported with the offending line number.
    """
    values: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value, got {raw.strip()!r}")
            key, _, text = line.partition("=")
            key = key.strip().lower()
            if key not in PARAM_KEYS:
                raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}: line {lineno}: duplicate key {key!r}")
            try:
                values[key] = float(text.strip())
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: could not parse number {text.strip()!r}"
                ) from None
    missing = sorted(PARAM_KEYS - OPTIONAL_KEYS - values.keys())
    if missing:
        raise ValueError(f"{path}: missing required keys: {', '.join(missing)}")
    p_error_target = values.pop("p_error_target", 1.0)
    return AbsorptionParams(**values), p_error_target
