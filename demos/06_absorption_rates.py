"""How strong can two-photon absorption be in a hollow fiber core?

Atoms in the core absorb photon pairs at a rate that factorizes into a
resonant cross-section over core area, an atom count, and penalties for
detuning, collisional broadening and wave-packet length.  Choosing the
atom count to cancel the detuning penalty, packets as short as the
collision time, and a core diameter near 0.78 wavelengths cancels
everything: the pair-absorption length lands at a few meters, and cavity
mirrors of finesse f shrink the needed device length by f^2.
"""

import math

from zenogate import AbsorptionParams, device_length, two_photon_rate, unity_mode_check
from zenogate.absorption import SPEED_OF_LIGHT

wavelength = 500e-9
tau_r = 16.7e-9
tau_c = tau_r / 10

params = AbsorptionParams(
    wavelength=wavelength,
    tau_r=tau_r,
    tau_c=tau_c,
    delta=1.0,
    m21=0.1,  # f_delta = 0.01, cancelled by n_atoms = 100
    packet_length=SPEED_OF_LIGHT * tau_c,  # f_C * f_P = 1
    core_diameter=wavelength * math.sqrt(6.0) / math.pi,  # sigma0/A = 1
    n_atoms=100.0,
)

report = two_photon_rate(params)
print(f"sigma0               = {report.sigma0:.3e} m^2")
print(f"sigma0/A at 0.78 lam = {unity_mode_check(wavelength, 0.78 * wavelength):.4f}")
print(f"f_delta, f_C, f_P    = {report.f_delta:.3g}, {report.f_c:.3g}, {report.f_p:.3g}")
print(f"R2 * tau_R           = {report.rate * tau_r:.6f}  (sqrt(2/pi) = {math.sqrt(2 / math.pi):.6f})")
print(f"absorption length l2 = {report.absorption_length:.3f} m")
print()

print("device length for error target 0.1 (length ~ l2 / P_E / f^2):")
print("  finesse   length        single-photon loss factor")
for finesse in (1, 10, 100):
    length, loss = device_length(0.1, report.absorption_length, finesse)
    print(f"  {finesse:5d}     {length:9.4g} m   {loss:.3g}")
