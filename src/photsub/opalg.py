"""Normal-ordered moments of the two read-out ports, in certified fixed point.

Every figure of merit reads the photon counts N_a = A^dag A, N_b = B^dag B
of two read-out ports, each one quantum mode plus a displacement: single
scheme A = v a + u alpha, B = u a + v alpha; correlated A = u a0 + v alpha,
B = u a1 + v alpha; u = (e^{i phi} + 1)/2, v = (e^{i phi} - 1)/2 and alpha
the coherent amplitude, an eigenvalue of its annihilator.  Expanding A^i B^j
turns F(i, j) = <A^dag^i A^i B^dag^j B^j> into a short sum over pairs of
port monomials,

    F(i, j) = sum_{K, K'} H(K, K') conj(u^a v^(n-a)) u^b v^(n-b),   n = i + j,

with a and b the powers of u in the terms K and K' of the expansion, and H
binomials times powers of alpha times an entry of the quantum input's
moment table.  H does not depend on phi: :class:`PortCoefficients` compiles
it once per scene family and :func:`port_moments` sums it at each phase.
Pair (K', K) is the conjugate of (K, K'), so a > b is folded onto a < b.
Ordinary moments follow by Stirling numbers (:func:`port_expectation`).

Phase derivatives are analytic: du/dphi = dv/dphi = t = i e^{i phi}/2.  The
correlated mixed derivative d^2 F(1, 1)/dphi1 dphi2 takes port A's
phi1-derivative monomials against port B's phi2-derivative ones.  Every sum
runs in block floating point with a certified error bound
(:func:`photsub.moments.certified_sum`), and detection loss thins each sum
F(i, j), a moment of 2(i + j) ladder operators, by eta^(i+j) through the
package's one loss law (:func:`photsub.moments.thin`).
"""

from __future__ import annotations

from math import comb

import mpmath as mp

from .moments import GUARD_DIGITS, ONE, Bounded, MomentTable, certified_sum, fixed, fixed_mul, thin

_GUARD_BITS = 10  # kept over the working bits: ~1/1000 of its last unit per term


def _conj(x: tuple) -> tuple:
    return (x[0], -x[1]) + x[2:]


def _times(x: tuple, k: int) -> tuple:
    """``x`` times a positive integer, exactly."""
    re, im, exp, size, ulps = x
    return re * k, im * k, exp, size + (k * k).bit_length(), ulps


class PortCoefficients:
    """The phi-independent coefficients H of a scene family's port moments.

    The family is a scheme, a lossless quantum input ``table`` and a coherent
    amplitude ``alpha``, both built at guard digits; ``bits`` is the working
    binary precision.  Each F(i, j) compiles on first request.
    """

    def __init__(self, single: bool, table: MomentTable, alpha, bits: int):
        self.single, self.table, self.bits = single, table, bits + _GUARD_BITS
        self._alpha = alpha
        self._dps = mp.libmp.prec_to_dps(bits) + GUARD_DIGITS
        self._displacements = {}
        self._terms = {}

    def _displacement(self, m: int, m2: int) -> tuple:
        """conj(alpha)^m alpha^m2, as a fixed-point number."""
        if (m, m2) not in self._displacements:
            with mp.workdps(self._dps):
                value = mp.conj(self._alpha) ** m * self._alpha**m2
            self._displacements[m, m2] = fixed(value, self.bits)
        return self._displacements[m, m2]

    def terms(self, i: int, j: int) -> list:
        """[(a, b, (ka, kb), (ka', kb'), H)] of F(i, j) for a <= b, with ka and
        kb the powers of u that ports A and B give the monomial of K."""
        if (i, j) in self._terms:
            return self._terms[i, j]
        expansion = [(k, l, comb(i, k) * comb(j, l), (i - k if self.single else k, l))
                     for k in range(i + 1) for l in range(j + 1)]
        terms = self._terms[i, j] = []
        for k, l, ck, (ka, kb) in expansion:
            for k2, l2, ck2, (ka2, kb2) in expansion:
                a, b = ka + kb, ka2 + kb2
                if a > b:
                    continue
                with mp.workdps(self._dps):
                    entry = self.table.entry((k + l, k2 + l2) if self.single else (k, k2, l, l2))
                if entry:
                    alpha = self._displacement(i + j - k - l, i + j - k2 - l2)
                    h = fixed_mul(alpha, fixed(entry, self.bits), self.bits)
                    terms.append((a, b, (ka, kb), (ka2, kb2), _times(h, ck * ck2 * (1 + (a < b)))))
        return terms


class PortMoments:
    """F(i, j) of one scene, and its phase derivatives, as certified sums.

    Built by :func:`port_moments`; entries are summed on first request.
    """

    def __init__(self, coefficients: PortCoefficients, u, v, t, eta: float):
        self.coefficients, self.eta, self.bits = coefficients, eta, coefficients.bits
        self._u, self._v = fixed(u, self.bits), fixed(v, self.bits)
        self._t = None if t is None else fixed(t, self.bits)
        self._powers = [[ONE]]
        self._pairs = {}
        self._entries = {}

    def _monomials(self, n: int) -> list:
        """[u^a v^(n - a) for a = 0..n]."""
        while len(self._powers) <= n:
            low = self._powers[-1]
            self._powers.append(
                [fixed_mul(low[0], self._v, self.bits)]
                + [fixed_mul(x, self._u, self.bits) for x in low]
            )
        return self._powers[n]

    def _pair(self, n: int, a: int, b: int) -> tuple:
        """conj(u^a v^(n-a)) u^b v^(n-b)."""
        if (n, a, b) not in self._pairs:
            p = self._monomials(n)
            self._pairs[n, a, b] = fixed_mul(_conj(p[a]), p[b], self.bits)
        return self._pairs[n, a, b]

    def _pair_slope(self, n: int, a: int, b: int) -> list:
        """Terms of d/dphi [conj(u^a v^(n-a)) u^b v^(n-b)].

        d(u^a v^(n-a))/dphi = t (a u^(a-1) v^(n-a) + (n-a) u^a v^(n-a-1)).
        """
        if self._t is None:
            raise ValueError("these port moments carry no phase")
        p, low, bits = self._monomials(n), self._monomials(n - 1), self.bits

        def slope(a):
            return [_times(fixed_mul(self._t, low[i], bits), k)
                    for k, i in ((a, a - 1), (n - a, a)) if k]

        return [fixed_mul(_conj(d), p[b], bits) for d in slope(a)] + [
            fixed_mul(_conj(p[a]), d, bits) for d in slope(b)
        ]

    def _sum(self, pairs, n: int) -> Bounded:
        """The certified sum of ``pairs``, thinned by eta^n."""
        return thin(certified_sum(pairs, self.bits), self.eta, n)

    def entry(self, i: int, j: int) -> Bounded:
        """F(i, j)."""
        if (i, j) not in self._entries:
            n, terms = i + j, self.coefficients.terms(i, j)
            pairs = ((h, self._pair(n, a, b)) for a, b, _, _, h in terms)
            self._entries[i, j] = self._sum(pairs, n)
        return self._entries[i, j]

    def slope(self, i: int, j: int) -> Bounded:
        """dF(i, j)/dphi, both ports moving with the one phase."""
        n, terms = i + j, self.coefficients.terms(i, j)
        return self._sum(((h, x) for a, b, _, _, h in terms for x in self._pair_slope(n, a, b)), n)

    def mixed(self) -> Bounded:
        """d^2 F(1, 1)/dphi1 dphi2 of the correlated scheme at phi1 = phi2.

        Port A moves with phi1 and port B with phi2, so each term takes the
        phi1-derivative of its port-A monomials against the phi2-derivative
        of its port-B ones.
        """
        pairs = (
            (h, fixed_mul(x, y, self.bits))
            for _, _, (ka, kb), (ka2, kb2), h in self.coefficients.terms(1, 1)
            for x in self._pair_slope(1, ka, ka2)
            for y in self._pair_slope(1, kb, kb2)
        )
        return self._sum(pairs, 2)


def port_moments(coefficients: PortCoefficients, u, v, t, eta: float = 1.0) -> PortMoments:
    """The port moments of one scene of a compiled family.

    ``u`` and ``v`` are the Mach-Zehnder entries and ``t`` = du/dphi =
    dv/dphi (None where no derivative is read), at guard digits; ``eta`` is
    the detection efficiency on both ports.
    """
    return PortMoments(coefficients, u, v, t, eta)


def port_expectation(ports: PortMoments, poly: dict, slope: bool = False) -> Bounded:
    """<poly(N_a, N_b)>, or its phase derivative with ``slope``, as a :class:`Bounded`.

    ``poly`` maps (p, q) to the integer weight of N_a^p N_b^q.  The weights
    of each F(i, j) are summed first.
    """
    weights = {}
    for (p, q), c in poly.items():
        for i in range(p + 1):
            for j in range(q + 1):
                weights[i, j] = weights.get((i, j), 0) + c * _stirling2(p, i) * _stirling2(q, j)
    read = ports.slope if slope else ports.entry
    return sum(w * read(i, j) for (i, j), w in weights.items() if w)


def _stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: N^n = sum_k S(n, k) a^dag^k a^k."""
    if k == n:
        return 1
    if not 0 < k < n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)
