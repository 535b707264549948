"""
Single Mach-Zehnder phase estimation with subtracted squeezed light
===================================================================

Feed a coherent beam and a (possibly photon-subtracted) squeezed vacuum
into the two ports of a Mach-Zehnder interferometer and estimate the
internal phase from the photon-number difference at the outputs.  This
script walks through the uncertainty, the shot-noise reference, the
quantum Fisher information, and what energy balancing reveals.
"""

import numpy as np

from photsub import metrology, states
from photsub.metrology import SingleMziConfig
from photsub.states import PassvSpec

MU = 100.0  # coherent mean photon number
PHI = np.pi / 2  # working phase (balanced fringe, maximum slope)

# ---------------------------------------------------------------------------
# Squeezed vacuum beats the shot-noise limit.
# ---------------------------------------------------------------------------

vacuum = SingleMziConfig(PassvSpec(0.0, 0), mu=MU, phi=PHI)
squeezed = SingleMziConfig(PassvSpec(1.0, 0), mu=MU, phi=PHI)
print(f"vacuum port:   U = {metrology.single_phase_uncertainty(vacuum):.5f}"
      f"  (shot noise 1/sqrt(mu) = {1/np.sqrt(MU):.5f})")
print(f"squeezed port: U = {metrology.single_phase_uncertainty(squeezed):.5f}")

# ---------------------------------------------------------------------------
# Subtraction at fixed squeezing: more photons, more phase information.
#
# At fixed pre-subtraction lam the subtracted states carry more energy and
# more quantum Fisher information; the Cramer-Rao bound 1/sqrt(F) drops.
# ---------------------------------------------------------------------------

print("\nfixed pre-subtraction energy lam = 2")
print(f"{'m':>3} {'<N>_quantum':>12} {'U':>10} {'F_Q':>12} {'1/sqrt(F)':>11}")
for m in range(4):
    cfg = SingleMziConfig(PassvSpec(2.0, m), mu=MU, phi=PHI, eta=0.98)
    u = metrology.single_phase_uncertainty(cfg)
    f = metrology.qfi(SingleMziConfig(PassvSpec(2.0, m), mu=MU, phi=PHI))
    print(f"{m:>3} {PassvSpec(2.0, m).mean_photons:>12.4f} {u:>10.5f}"
          f" {f:>12.1f} {metrology.cramer_rao_bound(f):>11.5f}")

# ---------------------------------------------------------------------------
# Energy balancing: is the improvement just the extra photons?
#
# Rescale the pre-subtraction squeezing so every order carries the same
# mean photon number.  Under this fair comparison the unsubtracted squeezed
# vacuum is never worse -- the benefit at fixed lam was an energy effect.
# ---------------------------------------------------------------------------

target = 10.0
print(f"\nenergy-balanced comparison at quantum energy {target}")
print(f"{'m':>3} {'lam0':>10} {'U':>10} {'F_Q':>12}")
for m in range(5):
    try:
        lam0 = states.balance_energy(target, m, PassvSpec.modes)
    except Exception:
        print(f"{m:>3} {'(infeasible)':>10}")
        continue
    cfg = SingleMziConfig(PassvSpec(lam0, m), mu=MU, phi=PHI, eta=0.98)
    u = metrology.single_phase_uncertainty(cfg)
    f = metrology.qfi(SingleMziConfig(PassvSpec(lam0, m), mu=MU, phi=PHI))
    print(f"{m:>3} {lam0:>10.4f} {u:>10.5f} {f:>12.1f}")

# ---------------------------------------------------------------------------
# QFI ratio asymptotics.
#
# When nearly all of a fixed total energy sits in the quantum port, the
# balanced Fisher-information ratio F_Q(m)/F_Q(0) approaches 1/(2m+1).
# ---------------------------------------------------------------------------

target = 9900.0  # quantum share of a total budget of 1e4 with mu = 100
f0 = metrology.qfi(SingleMziConfig(PassvSpec(target, 0), mu=MU, phi=PHI, psi=np.pi / 2))
print("\nbalanced QFI ratios at total energy 1e4")
print(f"{'m':>3} {'F(m)/F(0)':>12} {'1/(2m+1)':>12}")
for m in range(1, 5):
    lam0 = states.balance_energy(target, m, PassvSpec.modes)
    fm = metrology.qfi(
        SingleMziConfig(PassvSpec(lam0, m), mu=MU, phi=PHI, psi=np.pi / 2)
    )
    print(f"{m:>3} {fm / f0:>12.5f} {1 / (2 * m + 1):>12.5f}")
