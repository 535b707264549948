"""Every moment-table entry the sweep presets read, checked against a direct
Fock sum over its state.

The specs are the ones the presets build, after energy balancing, and the
keys are the ones their tables are read at: the products of the engine's
fold plans (``opalg._plan(...).products``) and the quadratures' entries.
Every spec is checked at every key of its arity, so the check follows the
presets and the plans as they change.  Each Fock state is filled to twice
its default cutoff plus 40 levels.  The default stops where the n^4-weighted
tail is below ``fock.TAIL_TOL`` E[n^4], so the truncation alone moves an
entry the presets read by up to about 7e-13 (the order-8 (4, 4, 0, 0) of
SpatsvSpec(10, 0)), close to REL_TOL; under the tail mass rule alone, which
the fill kept before, that was 2e-8."""

import pytest

import reference
from photsub import fock, moments, opalg, states
from photsub.experiments import PRESETS, run_preset

#: the largest relative distance of an engine entry from its Fock sum
REL_TOL = 1e-12


def _preset_reads(monkeypatch) -> tuple:
    """(specs, {arity: keys}) of every table the sweep presets build from a
    spec and every key they read such a table at."""
    specs, keys, plans = {}, {1: set(), 2: set()}, set()  # specs: {table: its spec}, kept alive
    table, fixed = states._SubtractionSpec.table, moments.MomentTable.fixed
    fold = opalg.PortCoefficients.fold

    def recorded_table(spec):
        built = table(spec)
        specs[built] = spec
        return built

    def recorded_fixed(built, key, bits):
        if built in specs:
            keys[len(built.modes)].add(key)
        return fixed(built, key, bits)

    def recorded_fold(family, plan):
        plans.add(plan)
        return fold(family, plan)

    monkeypatch.setattr(states._SubtractionSpec, "table", recorded_table)
    monkeypatch.setattr(moments.MomentTable, "fixed", recorded_fixed)
    monkeypatch.setattr(opalg.PortCoefficients, "fold", recorded_fold)
    for name in PRESETS:
        run_preset(name)
    monkeypatch.undo()
    # every product of every plan the presets folded is among the keys read
    assert {(len(key) // 2, key) for plan in plans for key, *_ in plan.products} <= {
        (arity, key) for arity, read in keys.items() for key in read}
    return (sorted(set(specs.values()), key=repr),
            {arity: sorted(read) for arity, read in keys.items()})


def _fock_entry(amplitudes, key: tuple) -> complex:
    if len(key) == 2:
        return reference._single_mode_moment(amplitudes, *key)
    return reference._diag_two_mode_moment(amplitudes, *key)


def test_every_entry_the_presets_read_matches_its_fock_sum(monkeypatch):
    specs, keys = _preset_reads(monkeypatch)
    # both schemes, balanced and not, every order and the plans' highest keys
    assert {type(spec) for spec in specs} == {states.PassvSpec, states.SpatsvSpec}
    assert {spec.m for spec in specs} == set(range(5))
    assert len(specs) > 100
    assert max(map(sum, keys[2])) == 8
    worst = (0.0, None)
    for spec in specs:
        cutoff = 2 * fock.subtracted(spec).cutoff + 40
        amplitudes = fock.subtracted(spec, cutoff).amplitudes
        table = spec.table()
        for key in keys[spec.modes]:
            exact = table.entry(key)
            assert exact != 0, (spec, key)  # a plan reads no zeroed key
            deviation = abs(_fock_entry(amplitudes, key) - exact) / abs(exact)
            worst = max(worst, (deviation, (spec, key)), key=lambda w: w[0])
    assert worst[0] <= REL_TOL, worst


@pytest.mark.parametrize("spec, key", [(states.PassvSpec(100.0, 0), (2, 2)),
                                       (states.SpatsvSpec(10.0, 3), (2, 2, 2, 2))],
                         ids=("passv", "spatsv"))
def test_the_default_fill_holds_the_presets_highest_entries(spec, key):
    # the default fill bounds the n^4-weighted tail, so the truncation moves
    # an entry the presets read by no more than REL_TOL; under the tail mass
    # rule alone these deviated by over 100 REL_TOL
    exact = spec.table().entry(key)
    deviation = abs(_fock_entry(fock.subtracted(spec).amplitudes, key) - exact) / abs(exact)
    assert deviation <= REL_TOL
