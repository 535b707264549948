"""
Correlated twin interferometers: noise reduction and covariance read-out
========================================================================

Send the two halves of an entangled (possibly photon-subtracted) twin beam
into two separate Mach-Zehnder interferometers, each driven by an identical
bright coherent beam, and read out the *covariance* of the photon-number
difference.  Two figures of merit matter: the noise reduction factor (NRF)
of the output correlation, and the normalized phase uncertainty U of the
covariance measurement.
"""

import numpy as np

from photsub import metrology
from photsub.metrology import CorrelatedConfig, phi_for_tau
from photsub.states import SpatsvSpec

PSI = np.pi / 2  # phase-matched coherent drive

# ---------------------------------------------------------------------------
# Noise reduction factor.
#
# NRF < 1 flags non-classical correlation between the read-out ports.  At a
# bright working point it follows closed small-lam and large-lam laws.
# ---------------------------------------------------------------------------

tau = 0.9
phi = phi_for_tau(tau)

print("NRF at a bright working point (tau = 0.9, mu = 1e6)")
print(f"{'lam':>8} " + " ".join(f"{f'm={m}':>9}" for m in range(3)))
for lam in (1e-3, 0.05, 1.0, 50.0):
    row = [
        metrology.nrf(CorrelatedConfig(SpatsvSpec(lam, m), mu=1e6, phi=phi, psi=PSI))
        for m in range(3)
    ]
    print(f"{lam:>8.3g} " + " ".join(f"{v:>9.5f}" for v in row))

print("\nlarge-lam law 1 - tau + tau/(4 lam) at lam = 50:",
      f"{1 - tau + tau / 200:.5f}")

# ---------------------------------------------------------------------------
# Normalized covariance uncertainty.
#
# U is normalized by the coherent-only strategy, so smaller is better and
# the no-quantum-light benchmark sits at sqrt(2).  At a bright fringe,
# subtraction buys a per-order improvement.
# ---------------------------------------------------------------------------

print(f"\nnormalized U at tau = 0.9, mu = 1e8, eta = 0.95 (benchmark sqrt(2) = {np.sqrt(2):.4f})")
print(f"{'lam':>8} " + " ".join(f"{f'm={m}':>9}" for m in range(4)))
for lam in (1e-3, 0.05, 2.0):
    row = [
        metrology.correlated_uncertainty(
            CorrelatedConfig(SpatsvSpec(lam, m), mu=1e8, phi=phi, psi=PSI, eta=0.95)
        )
        for m in range(4)
    ]
    print(f"{lam:>8.3g} " + " ".join(f"{v:>9.5f}" for v in row))

# ---------------------------------------------------------------------------
# The dark fringe.
#
# As phi -> 0 the coherent light leaves through the other port and the
# read-out becomes quantum-dominated.  With imperfect detection the
# uncertainty saturates at an efficiency-limited plateau; at large lam the
# plateau heights for different m sit in closed-form ratios.
# ---------------------------------------------------------------------------

eta = 0.98
print(f"\ndark fringe (phi = 1e-9, lam = 50, eta = {eta})")
us = [
    metrology.correlated_uncertainty(
        CorrelatedConfig(SpatsvSpec(50.0, m), mu=1e8, phi=1e-9, psi=PSI, eta=eta)
    )
    for m in range(4)
]
factors = [np.sqrt(5), np.sqrt(3), np.sqrt(13 / 5), np.sqrt(17 / 7)]
print(f"{'m':>3} {'U (engine)':>12} {'2 c_m (1-eta)':>14}")
for m, u in enumerate(us):
    print(f"{m:>3} {u:>12.5f} {2 * factors[m] * (1 - eta):>14.5f}")

# ---------------------------------------------------------------------------
# High-precision regime: paper-scale coherent power.
#
# Each figure starts at 30 working digits and doubles them until its
# certified ball rounds to one float, so the covariance pipeline survives
# the catastrophic cancellations of the bright-beam limit at mu = 1e12.  The energy-balanced comparison shows a genuine
# advantage of triple subtraction under heavy loss.
# ---------------------------------------------------------------------------

from photsub.states import balance_energy

target, mu, eta = 2.0, 1e12, 0.8
u0 = metrology.correlated_uncertainty(
    CorrelatedConfig(SpatsvSpec(target, 0), mu=mu, phi=1e-8, psi=PSI, eta=eta)
)
lam3 = balance_energy(target, 3, SpatsvSpec.modes)
u3 = metrology.correlated_uncertainty(
    CorrelatedConfig(SpatsvSpec(lam3, 3), mu=mu, phi=1e-8, psi=PSI, eta=eta)
)
print(f"\nbalanced comparison at mu = 1e12, eta = 0.8, phi = 1e-8:")
print(f"  m=0: U = {u0:.5f}")
print(f"  m=3: U = {u3:.5f}  (lam0 = {lam3:.4f})")
print(f"  uncertainty reduction: {(u0 - u3) / u0:.1%}")
