"""The integer forms of a family's inputs: table entries
(:meth:`photsub.moments.MomentTable.fixed`) and coherent displacements
(the shared block :func:`photsub.opalg._displacements`).  Each lies within its
own radius, a few units of its last bit, of the per-entry values of
:mod:`reference`, formed far beyond ``bits``; a key the selection rule zeroes
is an exact 0, radius 0, that costs no arithmetic and that no compile asks
for."""

import itertools
from fractions import Fraction

import mpmath as mp
import pytest

import reference
from photsub import moments, opalg
from photsub.states import PassvSpec, SpatsvSpec

LAMS = (0.0, 1e-300, 0.3, 7.0, 1e200)
BITS = (60, 61, 128, 255, 400)
#: the per-entry values are formed this many bits beyond the largest BITS,
#: and at 100 digits at least, so their own rounding is far below a unit
REFERENCE_PREC = max(BITS[-1] + 64, mp.libmp.dps_to_prec(100))


def _keys(arity: int, order: int) -> list:
    return [k for k in itertools.product(range(order + 1), repeat=2 * arity) if sum(k) <= order]


def _assert_within_radius(got: tuple, want, what, units: int = 4, unit=None) -> None:
    """The real fixed number ``got`` within its radius of ``want``, a radius
    of at most ``units`` units 2^exp, or of ``unit`` where given, or an exact 0."""
    if want == 0:
        assert got[:2] == (0, 0), what
        return
    man, err, exp = got
    bits = what[-1]
    assert abs(man).bit_length() <= bits, what
    assert err * mp.mpf(2) ** exp <= units * (mp.mpf(2) ** exp if unit is None else unit), what
    error = abs(mp.mpf((man, exp)) - want)
    # the reference's own rounding: a few units 2^-REFERENCE_PREC
    assert error <= err * mp.mpf(2) ** exp + abs(want) * mp.mpf(2) ** (32 - REFERENCE_PREC), what


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("arity", (1, 2), ids=("single", "pair"))
def test_integer_entries_lie_within_their_radius(arity, m):
    spec = PassvSpec if arity == 1 else SpatsvSpec
    checked = 0
    for lam in LAMS:
        if m and not lam:
            continue  # the vacuum less a photon is no state
        table = spec(lam, m).table()
        with mp.workprec(REFERENCE_PREC):
            want = reference.subtracted_table(table.modes, lam, m, 8)
            for key in _keys(arity, 8):
                ref = want.entry(key)
                for bits in BITS:
                    _assert_within_radius(table.fixed(key, bits), ref, (lam, key, bits))
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("arity", (1, 2), ids=("single", "pair"))
def test_a_zeroed_key_is_an_exact_zero_without_arithmetic(arity, monkeypatch):
    table = (PassvSpec if arity == 1 else SpatsvSpec)(0.3, 2).table()
    want = reference.subtracted_table(table.modes, 0.3, 2, 8)
    zeroed = [key for key in _keys(arity, 8) if want.entry(key) == 0]
    assert len(zeroed) > 10
    evaluations, horner = [], moments._horner

    def counted(*args):
        evaluations.append(args)
        return horner(*args)

    monkeypatch.setattr(moments, "_horner", counted)
    for key in zeroed:
        for bits in BITS:
            assert table.fixed(key, bits) == moments.ZERO, key
    assert evaluations == []
    table.fixed((1,) * 2 * arity, 60)
    assert len(evaluations) == 1


def _coefficients(mu, psi, bits, arity=1):
    spec = PassvSpec if arity == 1 else SpatsvSpec
    return opalg.PortCoefficients(spec(0.3, 1).table(), mu, psi, bits)


def _displacements(mu, psi, bits):
    """The displacement block a family at (mu, psi, bits) reads."""
    return _coefficients(mu, psi, bits).displacements


@pytest.mark.parametrize("mu", (0.0, 1.0, 3.0, 0.1, 1e12, 2.5e-7))
def test_diagonal_displacements_are_exact_powers_of_mu(mu):
    for bits in BITS:
        block = _displacements(mu, 0.7, bits)
        for m in range(5):
            exact = Fraction(mu) ** m
            if exact and exact.numerator.bit_length() > block.bits:
                continue  # does not fit: truncated, and its radius says so
            (re, err, exp), im = block[m, m]
            assert (im[:2], err) == ((0, 0), 0), (mu, m, bits)
            assert Fraction(re) * Fraction(2) ** exp == exact, (mu, m, bits)


@pytest.mark.parametrize("psi", (0.0, 0.7, -2.3, 3.1))
@pytest.mark.parametrize("mu", (1.0, 0.1, 37.25, 1e12))
def test_displacements_lie_within_their_radius(mu, psi):
    # each part a real ball, its radius a few units of the larger part's,
    # as where the two shared one exponent
    for bits in BITS:
        block = _displacements(mu, psi, bits)
        with mp.workprec(REFERENCE_PREC):
            alpha = mp.sqrt(mp.mpf(mu)) * mp.expj(mp.mpf(psi))
            for m, m2 in itertools.product(range(5), repeat=2):
                if (m + m2) % 2:
                    continue  # no key the selection rule leaves reads these
                want, parts = mp.conj(alpha) ** m * alpha**m2, block[m, m2]
                unit = mp.mpf(2) ** max(exp for man, _, exp in parts if man)
                for got, part in zip(parts, (want.real, want.imag)):
                    _assert_within_radius(got, part, (mu, psi, m, m2, block.bits), unit=unit)


@pytest.mark.parametrize("arity", (1, 2), ids=("single", "pair"))
def test_a_compile_never_asks_for_a_zeroed_key(arity):
    coefficients = _coefficients(1e4, 0.7, 128, arity)
    table, requested = coefficients.table, []
    fill = table.fixed

    def counted(key, bits):
        requested.append(key)
        return fill(key, bits)

    table.fixed = counted
    order = 2 if arity == 1 else 4
    for i in range(order + 1):
        for j in range(order + 1 - i):
            assert coefficients.fold(opalg._plan(arity == 1, (((i, j), 1),), 1j, None)), (i, j)
    want = reference.subtracted_table(table.modes, 0.3, 1, 8)
    assert len(requested) >= 5
    assert all(want.entry(key) != 0 for key in requested), requested
    # each entry is read from the table once and kept by the family
    assert len(set(requested)) == len(requested)


def test_an_mpf_mu_compiles_as_its_float():
    # mu is read as a float, exactly: an mpmath number holding a float's
    # value compiles as that float
    for arity in (1, 2):
        exact, other = (_coefficients(mu, 0.7, 128, arity) for mu in (37.25, mp.mpf(37.25)))
        for i, j in ((1, 0), (1, 1), (2, 0)):
            plan = opalg._plan(arity == 1, (((i, j), 1),), 1j, None)
            assert exact.fold(plan) == other.fold(plan), (arity, i, j)
