"""The folded port sums of :mod:`photsub.opalg`.

Each observable of a scene family folds into a few rows G(n, k), formed
once per family, and a point is one certified sum of them times its phase
and loss monomials.  Every observable a figure of merit reads must lie within
its certified bound of the 120-digit kernel, also at phases where c or s
nearly vanishes and at the QFI's port entries; a row whose midpoint cancels
to 0 keeps its radius through the point sum; a phase sweep folds each
observable once per family.
"""

import random
from collections import Counter
from math import pi

import mpmath as mp
import pytest

from photsub import metrology, moments, opalg
from photsub.experiments import SweepConfig, run_sweep
from photsub.metrology import CorrelatedConfig, SingleMziConfig
from photsub.states import PassvSpec, SpatsvSpec
from reference import fixed, row_folds, unit_times

REFERENCE_DPS = 120

#: near 0, pi and 2 pi one of c = cos(phi/2), s = sin(phi/2) nearly vanishes
PHASES = (1e-9, pi / 2, pi - 1e-9, 2 * pi - 1e-6, -0.7, "qfi")

SCENES = {
    "single": SingleMziConfig(PassvSpec(1.3, 2), mu=1e8, phi=0.0, psi=0.2, eta=0.9),
    "correlated": CorrelatedConfig(SpatsvSpec(2.0, 2), mu=1e12, phi=0.0, psi=pi / 2,
                                   eta=0.98),
}


def _observables(single: bool) -> list:
    """The read-out observables the scheme's figures of merit read."""
    square = metrology._COVARIANCE  # (N_a - N_b)^2, which U and nrf read too
    if single:
        two_a = {(1, 0): 2}  # the QFI's 2 N_a
        return [metrology._SUM, metrology._DIFFERENCE, square, two_a,
                metrology._times(two_a, two_a)]
    return [metrology._SUM, metrology._DIFFERENCE, square, metrology._times(square, square)]


def _reads(cfg, phase, digits) -> dict:
    """Every certified quantity the figures of merit of ``cfg`` read at ``phase``."""
    single = isinstance(cfg, SingleMziConfig)
    coefficients = metrology._port_coefficients(cfg.quantum, cfg.mu, cfg.psi, digits)
    if phase == "qfi":  # the QFI's port entries u = v = 1/sqrt 2: x = y = z = 1/2
        half = moments.fixed_times(moments.ONE, 1, 1)
        point = opalg.PortPoint(half, half, half, coefficients.bits, turn=1)
    else:
        point = opalg.PortPoint(*metrology._mzi_entries(phase, coefficients.bits),
                                coefficients.bits, cfg.eta)
    ports = opalg.PortMoments(coefficients, point)
    out = {tuple(sorted(poly.items())): ports.expect(opalg.normal_ordered(poly))
           for poly in _observables(single)}
    order = 2 if single else 4
    out.update({(i, j): ports.entry(i, j)
                for i in range(order + 1) for j in range(order + 1 - i)})
    if phase != "qfi":
        out["derivative"] = (ports.expect(metrology._DIFFERENCE_WEIGHTS[0], "slope") if single
                             else ports.expect((((1, 1), 1),), "mixed"))
    return out


def _figure_reads(single: bool) -> list:
    """(weights, turn, derivative) of every fold a figure of merit or
    :func:`photsub.metrology.readout_moments` reads in the scheme."""
    order = 2 if single else 4
    reads = [((((i, j), 1),), 1j, None) for i in range(order + 1) for j in range(order + 1 - i)]
    pairs = ((metrology._DIFFERENCE_WEIGHTS,) if single else
             (metrology._DIFFERENCE_WEIGHTS, metrology._COVARIANCE_WEIGHTS))
    reads += [(w, 1j, None) for pair in pairs for w in pair]
    if single:
        reads += [(metrology._DIFFERENCE_WEIGHTS[0], 1j, "slope")]
        reads += [(w, 1, None) for w in metrology._QFI_WEIGHTS]
    else:
        reads += [(metrology._SUM_WEIGHTS, 1j, None),
                  (metrology._COVARIANCE_WEIGHTS[0], 1j, "mixed")]
    return reads


def _read_part(rows: list, turn) -> list:
    """[(n, k, Re(turn^(k mod 2) G))] of complex rows G that already carry
    their derivative's factor: the part a point reads, where it is not an exact 0."""
    parts = [(n, k, unit_times(g, turn ** (k % 2))[0]) for n, k, g in rows]
    return [(n, k, part) for n, k, part in parts if part[0] or part[1]]


def test_the_flat_fold_gives_the_row_loop_s_rows_tuple_for_tuple():
    # random families of both schemes, with lam = 0, mu = 0 and psi != 0
    # among them, at 30, 60 and 120 digits: every fold a figure
    # reads equals the part Re(kappa G) of the per-row loop's complex rows
    # the point reads, each and its radius bit for bit
    rng, families, rows = random.Random(47), 0, 0
    for draw in range(84):
        single = draw % 2 == 0
        m = 0 if draw % 7 == 0 else rng.randrange(5)
        lam = 0.0 if draw % 7 == 0 else rng.choice((rng.uniform(0.01, 3), rng.uniform(3, 60)))
        psi = rng.choice((0.0, pi / 2, rng.uniform(-3, 3)))
        mu = rng.choice((0.0, rng.uniform(0.1, 10), 1e12, rng.uniform(1e2, 1e8)))
        spec = (PassvSpec if single else SpatsvSpec)(lam, m)
        family = opalg.PortCoefficients(spec.table(), mu, psi,
                                        moments.digits_to_bits(rng.choice((30, 60, 120))))
        reads = _figure_reads(single)
        want = row_folds(family, reads)
        for read in reads:
            got, turn = family.fold(opalg._plan(single, *read)), read[1]
            assert got == _read_part(want[read], turn), (spec, mu, psi, read)
            rows += len(got)
        families += 1
    assert families >= 80 and rows >= 3000


def _exact(x: moments.Bounded):
    return mp.mpf(x.man) * mp.mpf(2) ** x.exp


def _bound(x: moments.Bounded):
    return mp.mpf(x.err) * mp.mpf(2) ** x.exp


@pytest.mark.parametrize("digits", (moments.START_DIGITS, 20), ids=("default", "digits20"))
@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("scheme", sorted(SCENES))
def test_every_read_lies_within_its_bound_of_the_120_digit_kernel(scheme, phase, digits):
    cfg = SCENES[scheme]
    want, got = _reads(cfg, phase, REFERENCE_DPS), _reads(cfg, phase, digits)
    assert set(got) == set(want) and len(got) >= 9
    with mp.workdps(2 * REFERENCE_DPS):
        for key, x in got.items():
            error = abs(_exact(x) - _exact(want[key]))
            assert error <= _bound(x) + _bound(want[key]), (scheme, phase, digits, key)


@pytest.mark.parametrize("gap", (0, 5, -3))
def test_a_cancelled_row_keeps_its_summands_radii_through_the_point_sum(gap):
    # two thirds known to 1000 units each, equal or a few units apart: the
    # row cancels, to an exact 0 or to its last bits, and its radius, both
    # summands', reaches the point's Bounded through certified_sum
    bits = 100
    third = fixed(mp.mpf(1) / 3, bits, err=1000)
    other = moments.fixed_from(third[0] - gap, 1000, third[2], bits)
    row = opalg._exact_sum([(1, third), (-1, other)])
    assert row == (gap, 2 * third[1], third[2])
    total = moments.certified_sum([(row, moments.ONE)], bits)
    with mp.workdps(60):
        assert abs(_exact(total) - gap * mp.mpf(2) ** third[2]) <= _bound(total)
        assert _bound(total) >= 2 * third[1] * mp.mpf(2) ** third[2]
    if not gap:
        assert total.man == 0


def test_exact_summands_that_cancel_give_an_exact_zero_row():
    # exact summands cancel to no row at all, and a point reads an exact 0
    exact = moments.fixed_from(-3, 0, -4, 60)
    assert opalg._exact_sum([(2, exact), (-1, moments.fixed_times(exact, 2))]) is None
    assert opalg._exact_sum([(5, moments.ZERO)]) is None
    total = moments.certified_sum([(exact, moments.ONE), (moments.fixed_times(exact, -1),
                                                          moments.ONE)], 60)
    assert (total.man, total.err) == (0, 0)


def test_a_twin_beam_difference_cancels_to_zero_within_its_bound():
    # <n0> and <n1> of the pair are one integer fill, so the rows of
    # <N_a - N_b> cancel exactly, and keep the fill's radius
    cfg = CorrelatedConfig(SpatsvSpec(2.0, 2), mu=1e12, phi=0.7, psi=pi / 2, eta=0.98)
    ports = metrology._scene(cfg, moments.START_DIGITS)
    weights = opalg.normal_ordered(metrology._DIFFERENCE)
    rows = ports.coefficients.fold(opalg._plan(False, weights, ports.point.turn, None))
    mean = ports.expect(weights)
    assert rows and all(g[0] == 0 and g[1] > 0 for _, _, g in rows)
    assert mean.man == 0 and mean.err > 0


def _counted(monkeypatch, name) -> list:
    calls, fn = [], getattr(opalg, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(opalg, name, counted)
    return calls


def test_a_phase_sweep_folds_each_observable_once_per_family(monkeypatch):
    folds, fold = [], opalg.PortCoefficients.fold

    def counted(family, plan):
        if plan not in family._folds:  # a fold-memo miss
            folds.append((family, plan))
        return fold(family, plan)

    monkeypatch.setattr(opalg.PortCoefficients, "fold", counted)
    rows = run_sweep(SweepConfig(
        scheme="correlated", axis="phi", values=(1e-7, 1e-6, 1e-5, 1e-4), m_list=(1, 2),
        metrics=("U_norm", "nrf"), lam=2.0, mu=1e12, psi=pi / 2, eta=0.98)).rows
    assert len(rows) == 16 and all(row.flag == "ok" for row in rows)
    # U_norm reads <C^2>, <C> and the mixed derivative of <C>; nrf adds
    # <N_a - N_b> and <N_a + N_b> (C = (N_a - N_b)^2): five (observable,
    # derivative) plans, each folded once for each of two m
    reads = Counter(plan for _, plan in folds)
    assert len(reads) == 5 and len({id(family) for family, _ in folds}) == 2
    assert opalg._plan(False, metrology._COVARIANCE_WEIGHTS[0], 1j, "mixed") in reads
    assert set(reads.values()) == {2}


def test_a_point_sums_each_observable_once(monkeypatch):
    sums = _counted(monkeypatch, "certified_sum")
    metrology.nrf(CorrelatedConfig(SpatsvSpec(2.0, 1), mu=1e6, phi=0.4))
    # <N_a + N_b> is read twice, as the mean and as the variance's scale
    assert len(sums) == 3
