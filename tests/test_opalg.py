"""Normal-ordered operator algebra, jets, substitution and expectation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photsub import moments, opalg
from photsub.errors import DegreeBoundExceeded
from photsub.opalg import Jet, LinearModeMap, OperatorPolynomial, mono


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


def test_adjoint_involution_and_product_rule():
    p = opalg.multiply(_ad(0), _a(1)).scaled(2 - 1j) + OperatorPolynomial.number(0)
    assert p.adjoint().adjoint().terms == p.terms
    q = opalg.multiply(p, p.adjoint())
    # (p p^dag)^dag = p p^dag
    assert q.adjoint().terms == q.terms


def test_degree_cap_enforced():
    with pytest.raises(DegreeBoundExceeded):
        opalg.power(_ad(), 9, degree_cap=8)


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
    out = opalg.substitute(comm, bs)
    out = out.drop_zero(1e-14)
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
    sub = opalg.substitute(diff, bs)
    tables = [
        moments.passv_moment_table(lam, 0, max_order=4),
        moments.coherent_table(np.sqrt(mu), mode=1),
    ]
    val = opalg.expect(sub, tables)
    assert abs(complex(val).real - (mu - lam) * np.cos(phi)) < 1e-10
    assert abs(complex(val).imag) < 1e-10


def test_center_shifts_constant_term():
    p = OperatorPolynomial.number(0)
    c = opalg.center(p, 2.5)
    assert c.terms[()] == -2.5
    assert c.terms[mono((0, 1, 1))] == 1


def test_expect_vacuum_normal_order():
    # every non-identity normally-ordered monomial vanishes on vacuum
    p = opalg.multiply(_a(), _ad())  # = n + 1
    val = opalg.expect(p, [moments.vacuum_table((0,))])
    assert abs(complex(val) - 1.0) < 1e-14
