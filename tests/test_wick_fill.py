"""The ladder fill of the subtracted squeezed-vacuum tables against the
per-entry Wick sums it replaced (:mod:`reference`): within one unit of the
working precision, exact zeros where the selection rule forces them, and
bit for bit in the vacuum moments; the mean-photon maps that balancing
reads are the correctly rounded ratios of the per-entry sums."""

import itertools
import random
from math import log10

import mpmath as mp
import pytest

import reference
from photsub import moments, states

WORKING_DIGITS = 40


def _keys(arity: int, order: int) -> list:
    return [k for k in itertools.product(range(order + 1), repeat=2 * arity) if sum(k) <= order]


def _table(arity: int, lam, m: int, chi):
    build = moments.passv_moment_table if arity == 1 else moments.spatsv_moment_table
    return build(lam, m, max_order=8, chi=chi)


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("arity", (1, 2), ids=("single", "pair"))
def test_the_fill_agrees_with_the_per_entry_sums(arity, m):
    rng = random.Random(10 * arity + m)
    ulp = mp.mpf(2) ** -mp.libmp.dps_to_prec(WORKING_DIGITS)
    for lam in (10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-3, 4)):
        chi = rng.uniform(0.2, 3.0) * rng.choice((-1, 1))
        with mp.workdps(WORKING_DIGITS + moments.GUARD_DIGITS):
            fill = _table(arity, lam, m, chi)
            want = reference.subtracted_table(fill.modes, lam, m, 8, chi)
            for key in _keys(arity, 8):
                got, ref = fill.entry(key), want.entry(key)
                if ref == 0:
                    assert got == 0, key
                else:
                    assert abs(got - ref) <= ulp * abs(ref), (lam, key)


@pytest.mark.parametrize("arity", (1, 2), ids=("single", "pair"))
def test_a_key_the_selection_rule_zeroes_is_an_exact_zero(arity):
    table = _table(arity, 1.7, 2, 0.4)
    want = reference.subtracted_table(table.modes, 1.7, 2, 8, 0.4)
    zeroed = [key for key in _keys(arity, 8) if want.entry(key) == 0]
    assert len(zeroed) > 10
    for key in zeroed:
        entry = table.entry(key)
        assert entry.real == 0 and entry.imag == 0, key
    # no ladder was formed: a zero costs no arithmetic
    assert table._compute.prec is None


_LAMS = (0.0, 1e-9, 0.05, 0.7, 2.0, 37.5, 1e4, 1e16, 1e150, 1e200)


@pytest.mark.parametrize("chi", (0.0, 0.7, -2.9))
def test_vacuum_moments_are_bit_identical_to_the_per_entry_sums(chi):
    with mp.workdps(15):
        for lam in _LAMS:
            for p, q in _keys(1, 10):
                got = moments.bogoliubov_vacuum_moment_1m(p, q, lam, chi)
                assert got._mpc_ == reference.vacuum_moment_1m(p, q, lam, chi)._mpc_
            for key in _keys(2, 10):
                got = moments.bogoliubov_vacuum_moment_2m(*key, lam, chi)
                assert got._mpc_ == reference.vacuum_moment_2m(*key, lam, chi)._mpc_


def test_mean_photon_maps_are_bit_identical_to_the_per_entry_sums():
    # the exact polynomial maps round once: each value is the float of the
    # per-entry Wick sums' ratio, and the lam = 0 limit there.  The ratio
    # takes 60 digits plus twice the decimal exponent of lam: at 60 alone,
    # 3 lam + 1 (m = 1) at lam = 1e150 lies a tie away from a float, and the
    # + 1 that breaks the tie is lost (5 such points on this grid)
    grid = [(lam, m) for lam in _LAMS + (3.3e149, 5e299) for m in range(7)]
    for kind, mean, vacuum_moment in (
        ("single", states.passv_mean_photons, reference.vacuum_moment_1m),
        ("two_mode", states.spatsv_mean_photons, reference.vacuum_moment_2m),
    ):
        for lam, m in grid:
            if lam == 0:
                want = float(m % 2) if kind == "single" and m else 0.0
            else:
                key = [m + 1] * 2 + ([m] * 2 if kind == "two_mode" else [])
                with mp.workdps(60 + 2 * max(0, int(log10(lam)))):
                    ratio = vacuum_moment(*key, lam) / vacuum_moment(*[m] * len(key), lam)
                want = float(ratio.real)
            assert mean(lam, m).hex() == want.hex(), (kind, lam, m)
