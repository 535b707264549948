"""The exact-polynomial fill of the subtracted squeezed-vacuum tables
against the per-entry Wick sums (:mod:`reference`) and exact rationals,
each entry read in integers (``MomentTable.fixed``): within one unit of the
working precision, exact zeros where the selection rule forces them, the
vacuum moments (the m = 0 tables) the exact rationals floored once on the
diagonal and within their counted roundings elsewhere, the same at any
ambient mpmath precision; the mean-photon maps that balancing reads are the
correctly rounded ratios of the per-entry sums, and so round the tables'
mean-photon entries."""

import itertools
import random
from fractions import Fraction
from math import inf, log10, nan

import mpmath as mp
import pytest

import reference
from photsub import moments
from photsub.states import PassvSpec, SpatsvSpec
from reference import fixed_value

WORKING_DIGITS = 40


def _keys(arity: int, order: int) -> list:
    return [k for k in itertools.product(range(order + 1), repeat=2 * arity) if sum(k) <= order]


def _table(arity: int, lam, m: int):
    spec = PassvSpec if arity == 1 else SpatsvSpec
    return spec(lam, m).table()


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("arity", (1, 2), ids=("single", "pair"))
def test_the_fill_agrees_with_the_per_entry_sums(arity, m):
    # read at ten guard digits over the working ones, as the engine reads
    rng = random.Random(10 * arity + m)
    ulp = mp.mpf(2) ** -moments.digits_to_bits(WORKING_DIGITS)
    bits = moments.digits_to_bits(WORKING_DIGITS + 10)
    for lam in (10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-3, 4)):
        with mp.workdps(WORKING_DIGITS + 10):
            fill = _table(arity, lam, m)
            want = reference.subtracted_table(fill.modes, lam, m, 8)
            for key in _keys(arity, 8):
                got, ref = fixed_value(fill.fixed(key, bits)), want.entry(key)
                if ref == 0:
                    assert got == 0, key
                else:
                    assert abs(got - ref) <= ulp * abs(ref), (lam, key)


@pytest.mark.parametrize("arity", (1, 2), ids=("single", "pair"))
def test_a_key_the_selection_rule_zeroes_is_an_exact_zero(arity, monkeypatch):
    table = _table(arity, 1.7, 2)
    want = reference.subtracted_table(table.modes, 1.7, 2, 8)
    zeroed = [key for key in _keys(arity, 8) if want.entry(key) == 0]
    assert len(zeroed) > 10
    evaluations, horner = [], moments._horner

    def counted(*args):
        evaluations.append(args)
        return horner(*args)

    monkeypatch.setattr(moments, "_horner", counted)
    for key in zeroed:
        entry = table.fixed(key, 100)
        assert entry[0] == 0 and entry[1] == 0, key
    # no polynomial was evaluated: a zero costs no arithmetic
    assert evaluations == []
    table.fixed((1,) * 2 * arity, 100)
    assert len(evaluations) == 1


_LAMS = (0.0, 1e-9, 0.05, 0.7, 2.0, 37.5, 1e4, 1e16, 1e150, 1e200)


def _exact_vacuum_moment(wick: tuple, lam: float) -> Fraction:
    """A diagonal vacuum moment (b even) at the binary lam, exactly."""
    lam = Fraction(lam)
    return sum(count * lam**a * (lam * (1 + lam)) ** (b // 2) for count, a, b in wick)


def test_diagonal_vacuum_moments_are_the_exact_rationals_floored_once():
    # on the diagonal a moment is an integer polynomial in lam,
    # over the norm 1 at m = 0, so the fill's one rounding floors it
    for lam in _LAMS:
        for arity, wick in ((1, moments._wick_terms_1m), (2, moments._wick_terms_2m)):
            vacuum = (PassvSpec if arity == 1 else SpatsvSpec)(lam, 0).table()
            for key in _keys(arity, 10):
                if key[0::2] != key[1::2]:
                    continue
                exact = _exact_vacuum_moment(wick(*key), lam)
                man, err, exp = vacuum.fixed(key, 53)
                assert man == exact * Fraction(2) ** -exp // 1, (lam, key)
                assert exact - man * Fraction(2) ** exp <= err * Fraction(2) ** exp, (lam, key)


def test_vacuum_moments_lie_within_three_roundings_of_the_per_entry_sums():
    # the ratio and g round once each; fixed counts them in its radius, a few
    # units, against the per-entry sums at 100 digits; an entry of radius 0
    # (even powers of g) is the exact rational, which those sums miss by
    # about 1e-100
    bits = 53
    for lam in _LAMS:
        for arity, reference_moment, wick in (
                (1, reference.vacuum_moment_1m, moments._wick_terms_1m),
                (2, reference.vacuum_moment_2m, moments._wick_terms_2m)):
            vacuum = (PassvSpec if arity == 1 else SpatsvSpec)(lam, 0).table()
            for key in _keys(arity, 10):
                got = vacuum.fixed(key, bits)
                with mp.workdps(100):
                    want = reference_moment(*key, lam)
                    if want == 0:
                        assert got[0] == 0 and got[1] == 0, (lam, key)
                    elif got[1] == 0:
                        exact = _exact_vacuum_moment(wick(*key), lam)
                        assert got[0] * Fraction(2) ** got[2] == exact, (lam, key)
                    else:
                        error = abs(fixed_value(got) - want)
                        assert got[1] <= 4 and error <= got[1] * mp.mpf(2) ** got[2], (lam, key)


def test_a_table_reads_the_same_at_any_ambient_precision():
    # a table reads at the bits asked for, whatever mpmath's precision
    for arity in (1, 2):
        low, high = (_table(arity, 3.7, 2) for _ in range(2))
        for key in _keys(arity, 6):
            with mp.workdps(8):
                a = low.fixed(key, 150)
            with mp.workdps(80):
                b = high.fixed(key, 150)
            assert a == b, key


def test_the_mean_photon_entries_round_to_the_mean_photon_maps():
    # entry (1, 1) of PASSV and (1, 1, 0, 0) of SPATSV are the mean-photon
    # maps; at 60 digits plus twice the decimal exponent of lam (see below)
    # each rounds to the float of the exact map
    for lam in _LAMS[1:] + (3.3e149, 5e299):
        for m in range(7):
            with mp.workdps(60 + 2 * max(0, int(log10(lam)))):
                single = reference.entry(PassvSpec(lam, m).table(), (1, 1))
                pair = reference.entry(SpatsvSpec(lam, m).table(), (1, 1, 0, 0))
            assert float(single.real).hex() == PassvSpec(lam, m).mean_photons.hex(), (lam, m)
            assert float(pair.real).hex() == SpatsvSpec(lam, m).mean_photons.hex(), (lam, m)


@pytest.mark.parametrize(
    "build",
    [
        lambda lam: PassvSpec(lam, 0).table(),
        lambda lam: SpatsvSpec(lam, 0).table(),
        lambda lam: PassvSpec(lam, 2).table(),
        lambda lam: SpatsvSpec(lam, 1).table(),
        lambda lam: moments.spatsv_seed_moment_table(lam, 1),
    ],
    ids=("vacuum_1m", "vacuum_2m", "passv", "spatsv", "seed"),
)
@pytest.mark.parametrize("lam", (-0.5, -1e-300, inf, -inf, nan, mp.mpf(-2), mp.inf))
def test_a_negative_or_non_finite_lam_is_rejected(build, lam):
    with pytest.raises(ValueError, match="lam must be finite"):
        build(lam)


def test_mean_photon_maps_are_bit_identical_to_the_per_entry_sums():
    # the exact polynomial maps round once: each value is the float of the
    # per-entry Wick sums' ratio, and the lam = 0 limit there.  The ratio
    # takes 60 digits plus twice the decimal exponent of lam: at 60 alone,
    # 3 lam + 1 (m = 1) at lam = 1e150 lies a tie away from a float, and the
    # + 1 that breaks the tie is lost (5 such points on this grid)
    grid = [(lam, m) for lam in _LAMS + (3.3e149, 5e299) for m in range(7)]
    for spec, vacuum_moment in (
        (PassvSpec, reference.vacuum_moment_1m),
        (SpatsvSpec, reference.vacuum_moment_2m),
    ):
        for lam, m in grid:
            if lam == 0:
                want = float(m % 2) if spec.modes == 1 and m else 0.0
            else:
                key = [m + 1] * 2 + [m] * 2 * (spec.modes - 1)
                with mp.workdps(60 + 2 * max(0, int(log10(lam)))):
                    ratio = vacuum_moment(*key, lam) / vacuum_moment(*[m] * len(key), lam)
                want = float(ratio.real)
            assert spec(lam, m).mean_photons.hex() == want.hex(), (spec, lam, m)
