"""Closed forms of the half-transfer device (hbar = eps = 1): the scalars the gate reads.

The coupling has the spectrum +-1 on one photon and -2, 0, 2 on two.  Each
lost weight comes from expm1 and log1p, never as 1 - (survival near 1), so
it keeps its relative precision where the Zeno error pi^2/(4N) is small.
Callers in :mod:`zenogate.gate` check the inputs.
"""

from __future__ import annotations

import cmath
import math

HALF_TRANSFER_TIME = math.pi / 4
OUTPUT_PHASE_PER_PHOTON = math.pi / 4

# A survivor lighter than the roundoff of a unit-norm state is no survivor.
_ROUNDOFF_WEIGHT = 2.0**-52


def one_photon_column() -> tuple[complex, complex]:
    """(stay, hop) amplitudes of one photon over the half-transfer time, output phase exp(i pi/4) applied.

    On one photon H = sigma_x, so exp(-i H t) = cos t I - i sin t sigma_x.
    No check can see two photons here: both protocols pass it with success 1.
    """
    phase = cmath.exp(1j * OUTPUT_PHASE_PER_PHOTON)
    return phase * math.cos(HALF_TRANSFER_TIME), phase * -1j * math.sin(HALF_TRANSFER_TIME)


def discrete_survivor(n: int, t: float = HALF_TRANSFER_TIME) -> tuple[float, complex, float]:
    """Amplitudes of |1,1> on (|1,1>, bright) after n equally spaced checks over time t, and the lost weight.

    |1,1> has weight 1/2 on each of the energies -2 and 2, so between checks
    it keeps the amplitude cos(2t/n), and each check removes the rest (the
    bright amplitude is 0 after the last one).  n checks keep cos(2t/n)^n, of
    weight exp(L), L = 2n log|cos(2t/n)| = 2n log1p(-2 sin^2(t/n)), so the
    lost weight -expm1(L) is exact to roundoff up to N = 1e15, where
    1 - cos^(2N)(pi/2N) keeps no digit.  A survivor lighter than
    ``_ROUNDOFF_WEIGHT`` counts as none.
    """
    w = 2.0 * math.sin(t / n) ** 2  # 1 - cos(2t/n)
    cos_step = math.cos(2.0 * t / n)
    log_weight = 2.0 * n * (math.log1p(-w) if w < 0.5 else math.log(abs(cos_step)))
    weight = math.exp(log_weight)
    if weight < _ROUNDOFF_WEIGHT:
        return 0.0, 0j, 1.0
    kept = math.sqrt(weight)
    return (-kept if cos_step < 0.0 and n % 2 else kept), 0j, -math.expm1(log_weight)


def absorption_survivor(tau_d: float, t: float = HALF_TRANSFER_TIME) -> tuple[float, complex, float]:
    """Amplitudes of |1,1> on (|1,1>, bright) after absorption over time t, and the absorbed probability.

    |1,1> has no part in the dark state (|2,0> - |0,2>)/sqrt2, which only
    decays; with the bright state (|2,0> + |0,2>)/sqrt2 it spans the block
    A = -i t [[0, 2], [2, -i/(2 tau_d)]], whose exponential is
    e^mu (cosh d I + sinh(d)/d (A - mu I)) with mu = -m = -t/(4 tau_d) and
    d^2 = m^2 - 4 t^2 (D. S. Bernstein and W. So, IEEE TAC 38, 1228 (1993)).
    So k = e^-m (cosh d + m sinh(d)/d), b = -2i t e^-m sinh(d)/d, and by
    4 t^2 = m^2 - d^2 the absorbed weight 1 - k^2 - |b|^2 is
    -expm1(-2m) - 2 m e^-m k sinh(d)/d, whose second term is O(m^2) against
    2m as tau_d -> inf at t = pi/4.  For d > 1 all is written through
    e^(mu +- d), with s = d/m = sqrt(1 - 64 tau_d^2), 1 - s =
    64 tau_d^2/(1 + s) and mu + d = -16 t tau_d/(1 + s), finite for every
    tau_d > 0: the absorbed weight is -expm1(2(mu + d) + log1p(q)) + tail,
    q = (1 - s)(1 + 2s)/(2 s^2), tail = ((1 - s)/s^2) e^(mu - d) (e^(mu + d)
    (1 + s) - e^(mu - d)/2) >= 0.  At t = pi/4 the expm1 argument is < 0,
    so nothing cancels, down to 4 pi tau_d at tau_d = 1e-300.  For d <= 1
    or imaginary, cosh d and sinh(d)/d are evaluated as they stand.
    """
    rho = 1.0 / (4.0 * tau_d)  # m / t: 0 at tau_d = inf, inf below about 1e-308
    # rho - 2, without cancellation near the exceptional point tau_d = 1/8
    # and without inf * 0 at tau_d = inf
    gap = (1.0 - 8.0 * tau_d) * rho if tau_d < 1.0 else rho - 2.0
    d_sq = t * t * gap * (rho + 2.0)
    if d_sq > 1.0:
        s = math.sqrt((1.0 - 8.0 * tau_d) * (1.0 + 8.0 * tau_d))
        one_minus_s = 64.0 * tau_d * tau_d / (1.0 + s)
        log_plus = -16.0 * t * tau_d / (1.0 + s)
        e_plus, e_minus = math.exp(log_plus), math.exp(-t * rho * (1.0 + s))
        diff = e_plus - e_minus
        kept, bright = 0.5 * (e_plus + e_minus) + 0.5 * diff / s, -4j * tau_d * diff / s
        q = one_minus_s * (1.0 + 2.0 * s) / (2.0 * s * s)
        tail = one_minus_s * e_minus * (e_plus * (1.0 + s) - 0.5 * e_minus) / (s * s)
        absorbed = -math.expm1(2.0 * log_plus + math.log1p(q)) + tail
    else:
        r = math.sqrt(abs(d_sq))
        if d_sq >= 0.0:
            cosh, sinhc = math.cosh(r), (math.sinh(r) / r if r > 0.0 else 1.0)
        else:
            cosh, sinhc = math.cos(r), math.sin(r) / r
        m = t * rho
        decay = math.exp(-m)
        kept, bright = decay * (cosh + m * sinhc), -2j * t * decay * sinhc
        absorbed = -math.expm1(-2.0 * m) - 2.0 * m * decay * sinhc * kept
    return kept, bright, absorbed
