"""
Photon-subtracted squeezed states: construction and statistics
==============================================================

Build single-mode and two-mode squeezed vacua, annihilate photons from
them, and look at what subtraction does to the photon statistics: the mean
energy jumps, the number distribution reshapes, and the two-mode marginal
can even turn sub-Poissonian.
"""

import numpy as np

from photsub import moments, states
from photsub.states import PassvSpec, SpatsvSpec

# ---------------------------------------------------------------------------
# Mean photon number before and after subtraction.
#
# Counter-intuitively, *removing* photons raises the mean energy: the
# annihilation operator re-weights the distribution toward larger photon
# numbers.  The maps below are exact: ratios of integer polynomials in lam,
# evaluated exactly and rounded once (no Fock truncation).
# ---------------------------------------------------------------------------

print("mean photons of the m-subtracted squeezed vacuum")
print(f"{'lam':>6} " + " ".join(f"{f'm={m}':>10}" for m in range(5)))
for lam in (0.1, 1.0, 5.0):
    row = [states.passv_mean_photons(lam, m) for m in range(5)]
    print(f"{lam:>6.2f} " + " ".join(f"{v:>10.4f}" for v in row))

# The same maps can be inverted: energy balancing finds the float nearest
# the pre-subtraction squeezing whose subtracted state carries a target energy,
# so different subtraction orders can be compared at equal input power.
target = 5.0
print(f"\npre-subtraction energy giving mean photons = {target}")
for m in range(5):
    try:
        lam0 = states.balance_energy(target, m, "single")
        print(f"  m={m}: lam0 = {lam0:.6f}")
    except Exception as exc:
        print(f"  m={m}: infeasible ({exc})")

# ---------------------------------------------------------------------------
# Seed superpositions.
#
# Every subtracted state equals a squeezed *finite* superposition of number
# states.  The two-mode single-subtraction seed is a two-term superposition
# of |0,0> and |1,1>; at lam = 1 the weights are sqrt(2/3) and sqrt(1/3).
# ---------------------------------------------------------------------------

seed = states.spatsv_seed(SpatsvSpec(1.0, 1))
print("\ntwo-mode m=1 seed amplitudes at lam=1:", np.round(seed.diag_amplitudes, 6))

# ---------------------------------------------------------------------------
# Sub-Poissonian marginals.
#
# The marginal of a twin beam is thermal (Mandel Q = mean photons > 0), but
# symmetric double subtraction at low energy drives Q negative -- photon
# statistics narrower than any classical light.
# ---------------------------------------------------------------------------

print("\nMandel Q of the per-mode marginal (lam = 0.1)")
for m in range(4):
    # exact two-mode moments; Mandel Q reads the first mode
    table = moments.spatsv_moment_table(0.1, m)
    print(f"  m={m}: Q = {moments.mandel_q(table):+.4f}")

# ---------------------------------------------------------------------------
# Joint photon-number distribution.
#
# Twin beams only populate |n,n>; subtraction removes the vacuum component
# (for m >= 1 the state has no |0,0> term) and pushes weight upward.
# ---------------------------------------------------------------------------

print("\njoint distribution diagonal P(n, n) at lam = 0.6")
print(f"{'n':>3} " + " ".join(f"{f'm={m}':>9}" for m in (0, 1, 3)))
# exact and cutoff-free: P(k, k) is a closed form in lam and m
tables = {m: moments.joint_photon_distribution(0.6, m, n_max=5) for m in (0, 1, 3)}
for n in range(6):
    row = " ".join(f"{tables[m][n, n]:>9.5f}" for m in (0, 1, 3))
    print(f"{n:>3} {row}")
