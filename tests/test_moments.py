"""Exact moment tables: Fock cross-validation, loss, quadratures."""

import itertools
import random

import mpmath as mp
import numpy as np
import pytest

from photsub import fock, moments
from photsub.errors import MomentOrderMissing
from photsub.experiments import PRESETS
from photsub.states import PassvSpec, SpatsvSpec
from reference import (
    bounded,
    coherent_table,
    fixed_value,
    quadrature_variance,
    spatsv_seed,
    table_from_state,
    thinned,
    vacuum_table,
)


def _real(x):
    return float(complex(x).real)


def test_coherent_table_entries():
    alpha = 1.2 - 0.7j
    t = coherent_table(alpha)
    assert abs(complex(t.entry((1, 0))) - np.conj(alpha)) < 1e-14
    assert abs(complex(t.entry((2, 3))) - np.conj(alpha) ** 2 * alpha**3) < 1e-12


def test_vacuum_table_entries():
    t = vacuum_table((0,))
    assert complex(t.entry((0, 0))) == 1.0
    assert complex(t.entry((1, 1))) == 0.0
    assert complex(t.entry((3, 2))) == 0.0


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("lam", [0.4, 2.0])
def test_single_mode_table_matches_fock(lam, m):
    state = fock.subtracted(PassvSpec(lam, m), cutoff=300)
    num = table_from_state(state, max_order=4)
    exact = PassvSpec(lam, m).table()
    for p in range(3):
        for q in range(3):
            a = complex(num.entry((p, q)))
            b = complex(exact.entry((p, q)))
            assert abs(a - b) < 1e-9 * max(1.0, abs(b))


@pytest.mark.parametrize("m", [0, 1, 2])
def test_two_mode_table_matches_fock(m):
    lam = 0.6
    state = fock.subtracted(SpatsvSpec(lam, m), cutoff=200)
    num = table_from_state(state, max_order=4)
    exact = SpatsvSpec(lam, m).table()
    for key in [(1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1), (2, 2, 0, 0), (1, 0, 0, 1)]:
        a = complex(num.entry(key))
        b = complex(exact.entry(key))
        assert abs(a - b) < 1e-9 * max(1.0, abs(b))


#: SPATSV keys the selection rule zeroes (p - q != r - s), which no port row
#: reads: <a0>, <a0^dag a1>, <n0 a1>, their conjugates and their mode mirrors
_DROPPED = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0),
            (1, 0, 0, 1), (0, 1, 1, 0),
            (1, 1, 0, 1), (1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1))


@pytest.mark.parametrize("m", range(4))
def test_two_mode_selection_rule(m):
    # |n,n> support forces equal net ladder change in both modes, and the
    # definite parity of a subtracted squeezed vacuum zeroes odd p - q
    rng = random.Random(m)
    lam = rng.uniform(0.1, 3.0)
    t = SpatsvSpec(lam, m).table()
    for key in _DROPPED + ((2, 0, 1, 0),):
        assert t.entry(key) == 0, key
    assert abs(complex(t.entry((2, 0, 2, 0)))) > 0.0  # p-q = r-s = 2 survives
    assert abs(complex(t.entry((0, 1, 0, 1)))) > 0.0  # <a0 a1>, which the mixed derivative reads
    single = PassvSpec(lam, m).table()
    for p, q in itertools.product(range(9), repeat=2):
        if p + q <= 8 and (p - q) % 2:
            assert single.entry((p, q)) == 0, (p, q)
    assert abs(complex(single.entry((2, 0)))) > 0.0


def test_loss_scales_normal_moments():
    lam, eta = 0.9, 0.55
    t = PassvSpec(lam, 1).table()
    for p, q in [(1, 1), (2, 2), (2, 0)]:
        expected = complex(t.entry((p, q))) * eta ** ((p + q) / 2)
        lossy = thinned(bounded(t.entry((p, q))), eta, (p + q) // 2)
        assert abs(float(lossy.value) - expected) < 1e-12 * max(1.0, abs(expected))


def test_loss_is_the_exact_product_by_eta():
    rng = random.Random(7)
    for eta in [0.0, 1.0, 0.5] + [rng.random() for _ in range(200)]:
        n, man = rng.randrange(9), rng.randrange(-(2**80), 2**80)
        x = moments.Bounded(man, rng.randrange(2**10), rng.randrange(-90, 9))
        want = x
        for _ in range(n):
            want = eta * want
        got = thinned(x, eta, n)
        assert (got.man, got.err, got.exp) == (want.man, want.err, want.exp), (eta, n)


def test_loss_composition():
    t = PassvSpec(1.3, 2).table()
    for key in [(1, 1), (2, 2), (3, 3)]:
        x, n = bounded(t.entry(key)), sum(key) // 2
        once = thinned(thinned(x, 0.8, n), 0.7, n)
        both = thinned(x, 0.56, n)
        assert abs(once.value - both.value) < 1e-12


def test_squeezed_vacuum_quadrature_variances():
    lam = 1.1
    r = float(np.arcsinh(np.sqrt(lam)))
    t = PassvSpec(lam, 0).table()
    # S(r) squeezes Y and anti-squeezes X
    y, x = (np.exp(-0.5j * np.pi),), (1.0,)
    assert abs(quadrature_variance(t, y) - 0.5 * np.exp(-2 * r)) < 1e-10
    assert abs(quadrature_variance(t, x) - 0.5 * np.exp(2 * r)) < 1e-10


def test_quadrature_heisenberg_bound():
    for m in range(3):
        t = PassvSpec(0.8, m).table()
        vx = quadrature_variance(t, (1.0,))
        vy = quadrature_variance(t, (np.exp(-0.5j * np.pi),))
        assert vx * vy >= 0.25 - 1e-12


def test_two_mode_difference_quadrature():
    # the TSV difference quadrature is squeezed from the vacuum level 0.5
    lam = 0.9
    r = float(np.arcsinh(np.sqrt(lam)))
    t = SpatsvSpec(lam, 0).table()
    c = 2**-0.5
    assert abs(quadrature_variance(t, (c, -c)) - 0.5 * np.exp(-2 * r)) < 1e-10
    # the orthogonal angle is anti-squeezed
    c = np.exp(-0.5j * np.pi) * 2**-0.5
    assert abs(quadrature_variance(t, (c, -c)) - 0.5 * np.exp(2 * r)) < 1e-10


def test_joint_distribution_normalized_and_diagonal():
    p = moments.joint_photon_distribution(0.6, 1, n_max=80)
    assert abs(sum(p.values()) - 1.0) < 1e-10
    assert set(p) == {(k, k) for k in range(81)}  # every other entry is an exact 0


@pytest.mark.parametrize("m", [0, 1, 3])
def test_joint_distribution_matches_converged_fock_state(m):
    lam, n_max = 0.6, 8
    fock_p = np.abs(fock.subtracted(SpatsvSpec(lam, m), cutoff=300).amplitudes) ** 2
    exact = moments.joint_photon_distribution(lam, m, n_max)
    for k in range(n_max + 1):
        p = float(exact[k, k])
        assert abs(fock_p[k] - p) <= 1e-12 * p


@pytest.mark.parametrize("chi", [0.0, 0.7])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_seed_table_matches_fock_summation(m, chi):
    # fig5a's lam grid; the reference sums over the float seed amplitudes, turned
    # as a squeezing angle chi turns them (|k, k> by e^{i chi k}), which turns an
    # entry by e^{i chi (q - p)}: the psi shift of chi/2 that stands for the angle
    keys = [k for k in itertools.product(range(5), repeat=4) if sum(k) <= 4]
    for lam in PRESETS["fig5a"].values:
        exact = moments.spatsv_seed_moment_table(lam, m)
        amps = spatsv_seed(SpatsvSpec(lam, m)).amplitudes
        seed = fock.TwoModeDiagonalState(amps * np.exp(1j * chi * np.arange(len(amps))))
        num = table_from_state(seed, max_order=4)
        for key in keys:
            a = complex(num.entry(key))
            b = complex(exact.entry(key)) * np.exp(1j * chi * (key[1] - key[0]))
            assert abs(a - b) < 1e-12 * max(1.0, abs(b)), (lam, key)


def test_moments_module_needs_no_fock_numerics():
    # production moments come only from the exact tables
    import ast
    import inspect

    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(moments))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
            imported.update(alias.name for alias in node.names)
    assert not imported & {"numpy", "scipy", "fock"}


@pytest.mark.parametrize("m", [-1, 1.5, None])
def test_a_table_of_a_bad_order_raises_at_construction(m):
    # before, the PASSV table at (1.0, -1) built and failed on its first read,
    # and fig6 at m = -1 on an empty max()
    for build in (lambda lam, m: PassvSpec(lam, m).table(),
                  lambda lam, m: SpatsvSpec(lam, m).table(), moments.spatsv_seed_moment_table):
        with pytest.raises(ValueError, match="m must be a nonnegative integer"):
            build(1.0, m)
    with pytest.raises(ValueError, match="m must be a nonnegative integer"):
        moments.joint_photon_distribution(0.5, m, 3)


def test_a_key_of_the_wrong_arity_raises():
    # a table fills any order on demand; only a key for another number of
    # modes lies outside it
    with pytest.raises(MomentOrderMissing):
        PassvSpec(0.5, 0).table().entry((1, 1, 0, 0))
    with pytest.raises(MomentOrderMissing):
        SpatsvSpec(0.5, 1).table().entry((1, 1))


def test_bogoliubov_moments_match_fock():
    lam = 0.9
    state = fock.squeezed_vacuum(float(np.arcsinh(np.sqrt(lam))), cutoff=300)
    num = table_from_state(state, max_order=6)
    vacuum = PassvSpec(lam, 0).table()  # m = 0: the squeezed vacuum itself
    for p, q in [(1, 1), (2, 2), (2, 0), (3, 1), (3, 3)]:
        exact = complex(fixed_value(vacuum.fixed((p, q), 60)))
        assert abs(complex(num.entry((p, q))) - exact) < 1e-8 * max(1.0, abs(exact))


# Reference: the Bogoliubov transform applied to vacuum word by word over a
# dict of amplitudes, O(L^2) per entry.  The Wick sums must reproduce it.


def _apply_word_1m(word, dim):
    """Apply a sequence of (c_a, c_adag) single-mode factors to |0>.

    Each factor is c_a * a + c_adag * a^dag; returns the final amplitude of
    |0> as an mpmath complex.
    """
    state = {0: mp.mpc(1)}
    for c_a, c_adag in reversed(word):
        new = {}
        for n, amp in state.items():
            if c_a != 0 and n >= 1:
                new[n - 1] = new.get(n - 1, mp.mpc(0)) + c_a * mp.sqrt(n) * amp
            if c_adag != 0 and n + 1 <= dim:
                new[n + 1] = new.get(n + 1, mp.mpc(0)) + c_adag * mp.sqrt(n + 1) * amp
        state = new
        if not state:
            return mp.mpc(0)
    return state.get(0, mp.mpc(0))


def _apply_word_2m(word, dim):
    """Two-mode analogue; factors are (c_a1, c_a1dag, c_a2, c_a2dag)."""
    state = {(0, 0): mp.mpc(1)}
    for c1, c1d, c2, c2d in reversed(word):
        new = {}
        for (n1, n2), amp in state.items():
            if c1 != 0 and n1 >= 1:
                k = (n1 - 1, n2)
                new[k] = new.get(k, mp.mpc(0)) + c1 * mp.sqrt(n1) * amp
            if c1d != 0 and n1 + 1 <= dim:
                k = (n1 + 1, n2)
                new[k] = new.get(k, mp.mpc(0)) + c1d * mp.sqrt(n1 + 1) * amp
            if c2 != 0 and n2 >= 1:
                k = (n1, n2 - 1)
                new[k] = new.get(k, mp.mpc(0)) + c2 * mp.sqrt(n2) * amp
            if c2d != 0 and n2 + 1 <= dim:
                k = (n1, n2 + 1)
                new[k] = new.get(k, mp.mpc(0)) + c2d * mp.sqrt(n2 + 1) * amp
        state = new
        if not state:
            return mp.mpc(0)
    return state.get((0, 0), mp.mpc(0))


def _word_moment_1m(p, q, lam, chi):
    """<a^dag^p a^q> from S^dag a S = cosh(r) a + e^{i chi} sinh(r) a^dag."""
    c, s = mp.sqrt(1 + mp.mpf(lam)), mp.sqrt(mp.mpf(lam))
    ph = mp.expj(chi)
    word = [(s * mp.conj(ph), c)] * p + [(c, s * ph)] * q
    return _apply_word_1m(word, p + q + 1)


def _word_moment_2m(p, q, r, s, lam, chi):
    """<a1^dag^p a1^q a2^dag^r a2^s> from S^dag a1 S = cosh a1 + e^{i chi} sinh a2^dag."""
    c, sh = mp.sqrt(1 + mp.mpf(lam)), mp.sqrt(mp.mpf(lam))
    ph = mp.expj(chi)
    a1, a1d = (c, 0, 0, sh * ph), (0, c, sh * mp.conj(ph), 0)
    a2, a2d = (0, sh * ph, c, 0), (sh * mp.conj(ph), 0, 0, c)
    word = [a1d] * p + [a2d] * r + [a1] * q + [a2] * s
    return _apply_word_2m(word, p + q + r + s + 1)


def _assert_close(got, ref, rel):
    if ref == 0:
        assert got == 0
    else:
        assert abs(got - ref) <= rel * abs(ref)


WICK_LAMS = [0, 1e-3, 0.7, 37, 100]
#: squeezing angles of the word applier: S(r e^{i chi}) = e^{i chi N/2} S(r) e^{-i chi N/2}
#: turns <a^dag^p a^q> by e^{i chi (q - p)/2} of each mode, the psi shift of chi/2
#: that stands for the angle
WICK_CHIS = [0, 0.3, -1.1]


@pytest.mark.parametrize("chi", WICK_CHIS)
@pytest.mark.parametrize("lam", WICK_LAMS)
def test_wick_sum_matches_word_applier_1m(lam, chi):
    # the m = 0 table, read in integers at the bits of 50 digits
    vacuum, bits = PassvSpec(lam, 0).table(), 170
    with mp.workdps(50):
        for p, q in itertools.product(range(9), repeat=2):
            got = fixed_value(vacuum.fixed((p, q), bits)) * mp.expj(mp.mpf(chi) * (q - p) / 2)
            _assert_close(got, _word_moment_1m(p, q, lam, chi), mp.mpf("1e-40"))


@pytest.mark.parametrize("chi", WICK_CHIS)
@pytest.mark.parametrize("lam", WICK_LAMS)
def test_wick_sum_matches_word_applier_2m(lam, chi):
    vacuum, bits = SpatsvSpec(lam, 0).table(), 170
    with mp.workdps(50):
        for p, q, r, s in itertools.product(range(9), repeat=4):
            got = fixed_value(vacuum.fixed((p, q, r, s), bits))
            if p - q != r - s:
                assert got == 0
                continue
            got *= mp.expj(mp.mpf(chi) * (q - p))  # a turn of chi/2 on each mode
            _assert_close(got, _word_moment_2m(p, q, r, s, lam, chi), mp.mpf("1e-40"))

