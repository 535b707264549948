"""The general normal-ordered operator algebra of tests/reference.py, and jets."""

import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as opalg
from photsub import moments
from reference import (
    Jet,
    _abs_value,
    _conj,
    _is_zero,
    DegreeBoundExceeded,
    OperatorPolynomial,
    apply_loss,
    coherent_table,
    mono,
    vacuum_table,
)

# ---------------------------------------------------------------------------
# Reference: substitute through the map as a polynomial, then contract
# ---------------------------------------------------------------------------


class LinearModeMap:
    """Affine substitution a_j -> sum_k u[j][k] a_k + beta[j].

    ``images`` maps a source mode to ``(coeffs, beta)`` where ``coeffs`` is a
    dict target-mode -> coefficient.
    """

    def __init__(self, images: dict):
        self.images = {
            j: (dict(coeffs), beta) for j, (coeffs, beta) in images.items()
        }

    def image_poly(self, mode: int, dagger: bool) -> OperatorPolynomial:
        coeffs, beta = self.images[mode]
        out = OperatorPolynomial()
        for target, c in coeffs.items():
            cc = _conj(c) if dagger else c
            out._add_term(mono((target, 1, 0) if dagger else (target, 0, 1)), cc)
        if not _is_zero(beta):
            out._add_term((), _conj(beta) if dagger else beta)
        return out


def drop_small(poly, tol):
    """Drop coefficients below ``tol`` times the largest one."""
    scale = max((_abs_value(c) for c in poly.terms.values()), default=0.0)
    return OperatorPolynomial(
        {k: c for k, c in poly.terms.items() if _abs_value(c) > tol * scale}
    )


def substitute(poly, mode_map):
    """Apply a linear mode map to every monomial, re-expand and normal-order."""
    out = OperatorPolynomial()
    image_pow = {}

    def img_pow(mode, dagger, n):
        key = (mode, dagger, n)
        if key not in image_pow:
            image_pow[key] = opalg.power(mode_map.image_poly(mode, dagger), n)
        return image_pow[key]

    for m, c in poly.terms.items():
        acc = OperatorPolynomial.identity(c)
        for mode, p, _ in m:
            if p:
                acc = opalg.multiply(acc, img_pow(mode, True, p))
        for mode, _, q in m:
            if q:
                acc = opalg.multiply(acc, img_pow(mode, False, q))
        for k, cc in acc.terms.items():
            out._add_term(k, cc)
    return out


def expect(poly, tables):
    """Expectation of ``poly`` over a product state described by moment tables."""
    owner = {mode: t for t in tables for mode in t.modes}
    total = 0
    for m, c in poly.terms.items():
        exps = {}
        for mode, p, q in m:
            exps.setdefault(owner[mode], {})[mode] = (p, q)
        value = c
        for t, per_mode in exps.items():
            value = value * opalg.entry(t, 
                tuple(x for mode in t.modes for x in per_mode.get(mode, (0, 0)))
            )
        total = value + total
    return total



def _a(mode=0):
    return OperatorPolynomial.ladder(mode, dagger=False)


def _ad(mode=0):
    return OperatorPolynomial.ladder(mode, dagger=True)


def test_commutator_a_adag():
    # a a^dag = a^dag a + 1
    prod = opalg.multiply(_a(), _ad())
    assert prod.terms == {mono((0, 1, 1)): 1, (): 1}


def test_reordering_a2_adag2():
    # a^2 a^dag^2 = a^dag^2 a^2 + 4 a^dag a + 2
    prod = opalg.multiply(opalg.power(_a(), 2), opalg.power(_ad(), 2))
    assert prod.terms == {mono((0, 2, 2)): 1, mono((0, 1, 1)): 4, (): 2}


def test_modes_commute():
    left = opalg.multiply(_a(0), _ad(1))
    right = opalg.multiply(_ad(1), _a(0))
    assert left.terms == right.terms


def _adjoint(poly):
    """Hermitian conjugate of a normal-ordered polynomial."""
    return OperatorPolynomial(
        {
            tuple((mode, q, p) for mode, p, q in m): c.conjugate()
            for m, c in poly.terms.items()
        }
    )


def test_adjoint_involution_and_product_rule():
    p = opalg.multiply(_ad(0), _a(1)).scaled(2 - 1j) + OperatorPolynomial.number(0)
    assert _adjoint(_adjoint(p)).terms == p.terms
    q = opalg.multiply(p, _adjoint(p))
    # (p p^dag)^dag = p p^dag
    assert _adjoint(q).terms == q.terms


def test_degree_cap_enforced():
    with pytest.raises(DegreeBoundExceeded):
        opalg.power(_ad(), opalg.DEFAULT_DEGREE_CAP + 1)


def test_jet_product_rule_vs_finite_differences():
    # build j(x1, x2) = (sin x1 + x2)(cos x2 + 2 x1) through jet arithmetic
    x1, x2 = 0.7, 0.3
    h = 1e-5

    def f(u, v):
        return (np.sin(u) + v) * (np.cos(v) + 2 * u)

    j1 = Jet(np.sin(x1), d1=np.cos(x1)) + Jet(x2, d2=1.0)
    j2 = Jet(np.cos(x2), d2=-np.sin(x2)) + 2 * Jet(x1, d1=1.0)
    j = j1 * j2
    assert abs(j.f - f(x1, x2)) < 1e-12
    assert abs(j.d1 - (f(x1 + h, x2) - f(x1 - h, x2)) / (2 * h)) < 1e-8
    assert abs(j.d2 - (f(x1, x2 + h) - f(x1, x2 - h)) / (2 * h)) < 1e-8
    d12 = (
        f(x1 + h, x2 + h) - f(x1 + h, x2 - h) - f(x1 - h, x2 + h) + f(x1 - h, x2 - h)
    ) / (4 * h * h)
    assert abs(j.d12 - d12) < 1e-6


@given(
    f1=st.floats(-2, 2), d1a=st.floats(-2, 2), d2a=st.floats(-2, 2),
    f2=st.floats(-2, 2), d1b=st.floats(-2, 2), d2b=st.floats(-2, 2),
)
@settings(max_examples=50, deadline=None)
def test_jet_multiplication_commutes(f1, d1a, d2a, f2, d1b, d2b):
    a, b = Jet(f1, d1a, d2a, 0.3), Jet(f2, d1b, d2b, -0.4)
    left, right = a * b, b * a
    for slot in ("f", "d1", "d2", "d12"):
        assert abs(getattr(left, slot) - getattr(right, slot)) < 1e-9


def test_substitution_preserves_commutators():
    # a unitary mixing of two modes maps a a^dag - a^dag a to the identity
    phi = 1.1
    u = 0.5 * (np.exp(1j * phi) + 1.0)
    v = 0.5 * (np.exp(1j * phi) - 1.0)
    bs = LinearModeMap(
        {0: ({0: u, 1: v}, 0), 1: ({0: v, 1: u}, 0)}
    )
    comm = opalg.multiply(_a(0), _ad(0)) - opalg.multiply(_ad(0), _a(0))
    out = substitute(comm, bs)
    out = drop_small(out, 1e-14)
    assert out.terms.keys() == {()}
    assert abs(out.terms[()] - 1.0) < 1e-12


def test_interferometer_difference_mean():
    # squeezed vacuum (port 0) + coherent drive (port 1) through a phase-phi
    # mixer: the port-difference read-out has mean (mu - lam) cos phi
    lam, mu, phi = 0.7, 4.0, 0.9
    u = 0.5 * (np.exp(1j * phi) + 1.0)
    v = 0.5 * (np.exp(1j * phi) - 1.0)
    bs = LinearModeMap(
        {0: ({0: u, 1: v}, 0), 1: ({0: v, 1: u}, 0)}
    )
    diff = OperatorPolynomial.number(1) - OperatorPolynomial.number(0)
    sub = substitute(diff, bs)
    tables = [
        moments.passv_moment_table(lam, 0, max_order=4),
        coherent_table(np.sqrt(mu), mode=1),
    ]
    val = expect(sub, tables)
    assert abs(complex(val).real - (mu - lam) * np.cos(phi)) < 1e-10
    assert abs(complex(val).imag) < 1e-10


def test_center_shifts_constant_term():
    p = OperatorPolynomial.number(0)
    c = p - 2.5
    assert c.terms[()] == -2.5
    assert c.terms[mono((0, 1, 1))] == 1


def test_expect_vacuum_normal_order():
    # every non-identity normally-ordered monomial vanishes on vacuum
    p = opalg.multiply(_a(), _ad())  # = n + 1
    val, _ = opalg.contract(p, {0: ({0: 1}, 0)}, [vacuum_table((0,))])
    assert abs(complex(val) - 1.0) < 1e-14


def _random_poly(rng, n_terms=6, max_degree=8):
    """Normal-ordered polynomial in modes 0, 1 with one term of top degree."""
    poly = OperatorPolynomial()
    for i in range(n_terms):
        degree = max_degree if i == 0 else rng.randrange(max_degree + 1)
        exps = [0, 0, 0, 0]
        for _ in range(degree):
            exps[rng.randrange(4)] += 1
        coeff = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
        poly._add_term(mono((0, exps[0], exps[1]), (1, exps[2], exps[3])), coeff)
    return poly


def _mzi(phi, slot):
    e = mp.expj(phi)
    j = Jet(e, d1=1j * e) if slot == 1 else Jet(e, d2=1j * e)
    return (j + 1) * mp.mpf(0.5), (j - 1) * mp.mpf(0.5)


def _single_shape(rng):
    """Two ports mixed by one jet map, over a coherent and a PASSV table."""
    u, v = _mzi(rng.uniform(0.1, 3.0), 1)
    images = {0: ({0: u, 1: v}, 0), 1: ({0: v, 1: u}, 0)}
    alpha = mp.sqrt(rng.uniform(0.5, 4.0)) * mp.expj(rng.uniform(0, 3))
    eta = mp.mpf(rng.uniform(0.5, 1.0))
    tables = [
        apply_loss(coherent_table(alpha, mode=0), eta),
        apply_loss(
            moments.passv_moment_table(
                rng.uniform(0.1, 2.0), rng.randrange(4), chi=rng.uniform(-1, 1), mode=1
            ),
            eta,
        ),
    ]
    return images, tables


def _correlated_shape(rng):
    """Each port displaced and phased on its own, over one SPATSV table."""
    u1, v1 = _mzi(rng.uniform(1e-4, 1.0), 1)
    u2, v2 = _mzi(rng.uniform(1e-4, 1.0), 2)
    beta = mp.sqrt(rng.uniform(0.5, 4.0)) * mp.expj(rng.uniform(0, 3))
    images = {0: ({0: u1}, v1 * beta), 1: ({1: u2}, v2 * beta)}
    table = moments.spatsv_moment_table(
        rng.uniform(0.1, 2.0), rng.randrange(4), max_order=8, chi=rng.uniform(-1, 1)
    )
    return images, [table]


@pytest.mark.parametrize("shape", [_single_shape, _correlated_shape])
@pytest.mark.parametrize("seed", range(3))
def test_contract_matches_substitute_then_expect(shape, seed):
    rng = random.Random(seed)
    with mp.workdps(50):
        images, tables = shape(rng)
        poly = _random_poly(rng)
        got = Jet.lift(opalg.contract(poly, images, tables)[0])
        ref = Jet.lift(expect(substitute(poly, LinearModeMap(images)), tables))
        scale = max(abs(getattr(ref, slot)) for slot in ("f", "d1", "d2", "d12"))
        assert scale > 0
        for slot in ("f", "d1", "d2", "d12"):
            want = getattr(ref, slot)
            assert abs(getattr(got, slot) - want) <= 1e-40 * abs(want) + 1e-45 * scale, slot
